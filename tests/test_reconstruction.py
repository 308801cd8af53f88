import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from chaingeo import (
    BoundarySampleMap,
    HermitianModel,
    NoRigidModelError,
    ProjPoint,
    chain_compatibility_check,
    fit_embedding,
    random_isometry,
    standard_embedding,
    verify_embedding,
)
from chaingeo import reconstruction
from chaingeo.chains import _in_span, cartan_triple_lifts
from chaingeo.isometries import _form_residual
from chaingeo.reconstruction import (
    _NEAR_PAIR,
    CompatibilityReport,
    _candidates,
    _features,
    _isometry_project,
    _on_chain,
    _pair_rows,
    _projective_residuals,
)
from chaingeo.verify import _planted_sample_map

from compat_oracle import (
    compatibility_loop,
    gram_candidate_count,
    planted_span_lifts,
    scan_then_drop_candidates,
    svd_in_span,
)


def _points(lifts, p):
    return [ProjPoint(l, model=HermitianModel(p), kind="boundary") for l in lifts]


def test_sample_map_minimum_count(plane2, rng):
    from conftest import random_boundary

    pairs = [
        (random_boundary(plane2, rng), random_boundary(plane2, rng)) for _ in range(5)
    ]
    with pytest.raises(ValueError):
        BoundarySampleMap(pairs=pairs, p=2, q=2)


def test_sample_map_keeps_only_lift_arrays(rng):
    """A map holds its (n, p+1) and (n, q+1) lift arrays, equal byte for
    byte to its points' lifts, and no point; its two validation errors
    keep their messages."""
    smap = _planted_sample_map(rng, 2, 3, 152)[0]
    src, tgt = _points(smap.source_lifts, 2), _points(smap.target_lifts, 3)
    again = BoundarySampleMap(pairs=list(zip(src, tgt)), p=2, q=3)
    assert vars(again).keys() == {"p", "q", "source_lifts", "target_lifts"}
    assert again.source_lifts.shape == (200, 3) and again.target_lifts.shape == (200, 4)
    assert again.source_lifts.tobytes() == np.stack([x.lift for x in src]).tobytes()
    assert again.target_lifts.tobytes() == np.stack([y.lift for y in tgt]).tobytes()
    with pytest.raises(ValueError, match=r"^need at least 48 sample pairs, got 47$"):
        BoundarySampleMap(pairs=list(zip(src, tgt))[:47], p=2, q=3)
    inner = ProjPoint(np.array([0.1, 0.2, 0.3, 1.0]), model=HermitianModel(3))
    with pytest.raises(ValueError, match=r"^sample pairs must consist of boundary points$"):
        BoundarySampleMap(pairs=list(zip(src, tgt[:-1] + [inner])), p=2, q=3)


def test_from_lifts_stores_the_pairs_routes_arrays(rng):
    """from_lifts classifies raw lift arrays into the bytes that the pairs
    route stacks from ProjPoints of the same rows, and raises its errors."""
    src_raw = rng.normal(size=(48, 3)) + 1j * rng.normal(size=(48, 3))
    src_raw[:, -1] *= np.linalg.norm(src_raw[:, :-1], axis=1) / np.abs(src_raw[:, -1])
    tgt_raw = src_raw @ standard_embedding(2, 3).matrix.T
    tgt_raw *= 10.0 ** rng.uniform(-3, 3, (48, 1))
    by_lifts = BoundarySampleMap.from_lifts(src_raw, tgt_raw, 2, 3)
    by_pairs = BoundarySampleMap(pairs=list(zip(_points(src_raw, 2), _points(tgt_raw, 3))), p=2, q=3)
    assert vars(by_lifts).keys() == vars(by_pairs).keys() == {"p", "q", "source_lifts", "target_lifts"}
    assert by_lifts.source_lifts.tobytes() == by_pairs.source_lifts.tobytes()
    assert by_lifts.target_lifts.tobytes() == by_pairs.target_lifts.tobytes()
    with pytest.raises(ValueError, match=r"^need at least 48 sample pairs, got 47$"):
        BoundarySampleMap.from_lifts(src_raw[:47], tgt_raw[:47], 2, 3)
    inner = tgt_raw.copy()
    inner[5] = [0.1, 0.2, 0.3, 1.0]
    with pytest.raises(ValueError, match=r"^sample pairs must consist of boundary points$"):
        BoundarySampleMap.from_lifts(src_raw, inner, 2, 3)
    with pytest.raises(ValueError, match=r"^need \(n, 3\) and \(n, 4\) lift arrays, got \(48, 3\) and \(48, 3\)$"):
        BoundarySampleMap.from_lifts(src_raw, tgt_raw[:, :3], 2, 3)


def test_compatibility_planted(rng):
    smap, _, _ = _planted_sample_map(rng, 2, 3, 152)
    rep = chain_compatibility_check(smap, seed=1)
    assert rep.cochain_triples > 0
    assert rep.image_cochain_fraction == 1.0
    assert rep.orientation_match_fraction == 1.0
    assert rep.image_generic_fraction == 1.0


def test_compatibility_report_pinned():
    """Mined co-chain triples and every fraction of a fixed planted map: a
    change in the span-membership test shared by the co-chain mining loop
    and ``chain_contains`` shows here."""
    smap = _planted_sample_map(np.random.default_rng(3), 2, 2, 152)[0]
    assert chain_compatibility_check(smap, seed=1) == CompatibilityReport(
        cochain_triples=21,
        image_cochain_fraction=1.0,
        orientation_match_fraction=1.0,
        generic_triples=298,
        image_generic_fraction=1.0,
    )


def _collapsed(smap, every=1):
    """The map sending every ``every``-th source sample to the first target."""
    tgt = smap.target_lifts.copy()
    tgt[::every] = tgt[0]
    pairs = zip(_points(smap.source_lifts, smap.p), _points(tgt, smap.q))
    return BoundarySampleMap(pairs=list(pairs), p=smap.p, q=smap.q)


_ORACLE_MAPS = {
    "planted22": lambda: _planted_sample_map(np.random.default_rng(5), 2, 2, 152)[0],
    "planted23": lambda: _planted_sample_map(np.random.default_rng(6), 2, 3, 152)[0],
    "conjugated": lambda: _planted_sample_map(
        np.random.default_rng(7), 2, 2, 152, conjugate=True
    )[0],
    "scrambled": lambda: _planted_sample_map(
        np.random.default_rng(8), 2, 2, 152, scramble=True
    )[0],
    "collapsed": lambda: _collapsed(_planted_sample_map(np.random.default_rng(9), 2, 2, 152)[0]),
    # triples whose image pair is one point and whose third image is not
    "half-collapsed": lambda: _collapsed(
        _planted_sample_map(np.random.default_rng(9), 2, 2, 152)[0], every=2
    ),
    # three chains of 20 points: about one pair in five has members, so
    # mining stops on the count, inside a block, not on the budget
    "dense": lambda: _planted_sample_map(
        np.random.default_rng(10), 2, 2, 20, n_chain_groups=3, pts_per_chain=20
    )[0],
}


@pytest.mark.parametrize("name", list(_ORACLE_MAPS))
@pytest.mark.parametrize("n_triples, seed", [(300, 1), (30, 0), (30, 7)])
def test_compatibility_matches_pair_loop(name, n_triples, seed):
    """The blocked check makes the pair-by-pair loop's draws and decisions;
    with 30 triples the budget of 600 pairs runs out inside a block."""
    smap = _ORACLE_MAPS[name]()
    rep = chain_compatibility_check(smap, n_triples=n_triples, seed=seed)
    assert rep == compatibility_loop(smap, n_triples=n_triples, seed=seed)


@pytest.mark.parametrize("name", ["dense", "planted22"])
def test_mining_block_size_leaves_report(name, monkeypatch):
    """The mining block size is a performance constant: a block of one
    pair, a block that a hit ends midway, and one block for the whole
    budget all give the report of the default block."""
    smap = _ORACLE_MAPS[name]()
    for n_triples, seed in ((300, 1), (30, 7)):
        want = chain_compatibility_check(smap, n_triples=n_triples, seed=seed)
        for block in (1, 7, 10_000):
            monkeypatch.setattr(reconstruction, "_MINING_BLOCK", block)
            assert chain_compatibility_check(smap, n_triples=n_triples, seed=seed) == want
        monkeypatch.undo()


def test_span_members_match_in_span():
    """The float32 prefilter of ``_candidates`` keeps every lift that the
    SVD test accepts, with fewer than twice the candidates of a float64
    prefilter, and ``_on_chain`` on the candidates of all pairs in one
    stacked call finds the members ``_in_span`` finds, for a regular pair,
    a near pair (1 - |g|^2 ~ 1e-5), a nearly coincident pair (~1e-12) and
    pairs just above the near bound (in [1e-4, 2e-4]), with lifts at 0.99,
    0.999 and 1.01 tol from their spans, at p = 1, 2, 3."""
    tol = 1e-7
    for p in (1, 2, 3):
        L, planted = planted_span_lifts(np.random.default_rng(8), p, tol)
        assert 1 - abs(np.vdot(L[0], L[1])) ** 2 < 1e-4
        assert 1 - abs(np.vdot(L[0], L[2])) ** 2 < 1e-10
        assert 1e-4 < 1 - abs(np.vdot(L[0], L[12])) ** 2 < 2e-4
        pairs = np.array([(a, b) for a in range(40) for b in range(40)])
        table = _features(L.T).astype(np.float32)
        t, z = _candidates(L.T, table, pairs, tol)
        assert np.all(np.diff(t * 40 + z) > 0)  # draw order
        assert len(t) < 2 * gram_candidate_count(L, pairs, tol)
        candidates = [set() for _ in pairs]
        for r, m in zip(t, z):
            candidates[r].add(m)
        on = _on_chain(L, np.column_stack([pairs[t], z]), tol)
        members = [[] for _ in pairs]
        for r, m in zip(t[on], z[on]):
            members[r].append(m)
        for (a, b), cand, got in zip(pairs, candidates, members):
            svd = [] if a == b else np.flatnonzero(svd_in_span(L[[a, b]].T, L, tol))
            assert {m for m in svd if m not in (a, b)} <= cand
            want = [] if a == b else [
                z for z in np.flatnonzero(_in_span(L[[a, b]].T, L, tol)) if z not in (a, b)
            ]
            assert got == want
        for z, (pair, inside) in planted.items():
            for a, b in (pair, pair[::-1]):
                assert (z in members[40 * a + b]) == inside


@pytest.mark.parametrize("seed", range(6))
def test_candidates_match_scan_then_drop(seed):
    """Clearing each pair's own columns before the scan gives the (t, z)
    of scanning every row and dropping a and b afterwards, in the same
    order, on blocks with repeated points (a == b), near pairs (h below
    ``_NEAR_PAIR``, every other lift a candidate) and repeated pairs."""
    rng = np.random.default_rng(seed)
    p = 1 + seed % 3
    n = 60
    L, _ = planted_span_lifts(rng, p, 1e-7, n=n)
    for k in range(40, n):  # near copies of the first lifts
        e = rng.normal(size=p + 1) + 1j * rng.normal(size=p + 1)
        L[k] = L[k - 40] + rng.choice([1e-3, 1e-6]) * e / np.linalg.norm(e)
        L[k] /= np.linalg.norm(L[k])
    units = np.ascontiguousarray(L.T)
    table = _features(units).astype(np.float32)
    pairs = rng.integers(0, n, size=(300, 2))
    pairs[::7, 1] = pairs[::7, 0]
    pairs[1::9] = pairs[0]
    pairs[2::11] = [[k - 40, k] for k in rng.integers(40, n, size=len(pairs[2::11]))]
    pairs[3::13] = [0, 1]
    t, z = _candidates(units, table, pairs, 1e-7)
    want_t, want_z = scan_then_drop_candidates(units, table, pairs, 1e-7)
    assert t.tolist() == want_t.tolist() and z.tolist() == want_z.tolist()
    assert len(np.unique(t)) > 10


def test_compatibility_makes_no_svd(monkeypatch):
    """The chain-compatibility check of a planted (2,3) map decides every
    membership in closed form, with no ``np.linalg.svd`` call."""
    smap = _planted_sample_map(np.random.default_rng(6), 2, 3, 152)[0]
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    rep = chain_compatibility_check(smap, seed=1)
    assert rep.cochain_triples > 0 and len(calls) == 0


@settings(max_examples=60, deadline=None)
@given(p=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), near=st.booleans())
def test_bilinear_residual_matches_gram(p, seed, near):
    """psi(v) . psi(z) is |<v, z>|^2 to 2 d^2 eps |v|^2 |z|^2, and the float32
    product of a pair's row with the table is 1 - r^2, r^2 = 1 - |E_az|^2 -
    |E_bz - conj(g) E_az|^2 / h from the Gram table of the unit lifts,
    within the prefilter's slack 4 (d^2 + 3) eps32, for a random pair or
    one with h just above the near bound."""
    rng = np.random.default_rng(seed)
    d = p + 1
    lifts = rng.normal(size=(30, d)) + 1j * rng.normal(size=(30, d))
    F = _features(lifts.T).T
    exact = np.abs(lifts.conj() @ lifts.T) ** 2
    norms = np.linalg.norm(lifts, axis=-1) ** 2
    assert np.all(np.abs(F @ F.T - exact) <= 2 * d * d * np.finfo(float).eps * np.outer(norms, norms))
    u = lifts / np.linalg.norm(lifts, axis=-1, keepdims=True)
    if near:
        e = u[1] - np.vdot(u[0], u[1]) * u[0]
        h = rng.uniform(1.0, 1.5) * _NEAR_PAIR
        u[1] = np.sqrt(1 - h) * u[0] + np.sqrt(h) * e / np.linalg.norm(e)
    E = u.conj() @ u.T
    g = E[0, 1]
    h = 1.0 - abs(g) ** 2
    assume(h >= _NEAR_PAIR)
    gram = 1.0 - abs(E[0]) ** 2 - abs(E[1] - g.conj() * E[0]) ** 2 / h
    table = _features(u.T).astype(np.float32)
    row = _pair_rows(u.T, table, np.array([[0, 1]]))
    slack = 4 * (d * d + 3) * np.finfo(np.float32).eps
    assert np.abs((row @ table)[0] - (1.0 - gram)).max() <= slack


def test_collapsed_map_rejected(rng):
    smap = _collapsed(_planted_sample_map(rng, 2, 2, 152)[0])
    with pytest.raises(NoRigidModelError):
        fit_embedding(smap, seed=0)


def test_compatibility_scrambled(rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152, scramble=True)
    rep = chain_compatibility_check(smap, seed=1)
    assert rep.image_cochain_fraction < 0.2  # measure-theoretic baseline


def test_compatibility_conjugated_orientation(rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152, conjugate=True)
    rep = chain_compatibility_check(smap, seed=1)
    assert rep.image_cochain_fraction == 1.0
    assert rep.orientation_match_fraction == 0.0


def test_fit_identity(rng):
    model = HermitianModel(2)
    from conftest import random_boundary

    pts = [random_boundary(model, rng) for _ in range(40)]
    from chaingeo.chains import chain_through, sample_chain_point

    # add chain structure so the compatibility gate has material
    from chaingeo import VisualMeasure

    nu = VisualMeasure(model, seed=2)
    for _ in range(10):
        a, b = nu.sample_points(2, rng=rng)
        C = chain_through(model, a, b)
        pts.extend(sample_chain_point(C, t) for t in rng.uniform(0, 6.28, size=4))
    pairs = [(p, p) for p in pts]
    smap = BoundarySampleMap(pairs=pairs, p=2, q=2)
    emb, diags = fit_embedding(smap, seed=0)
    w = emb.matrix / emb.matrix[0, 0]
    assert np.linalg.norm(w - np.eye(3)) < 1e-8
    assert diags.median_residual < 1e-10


def test_fit_planted_with_holdout(rng):
    smap, emb, g = _planted_sample_map(rng, 2, 3, 152)
    fitted, diags = fit_embedding(smap, seed=0)
    assert diags.mode == "holomorphic"
    truth = g.matrix @ emb.matrix
    model = HermitianModel(2)
    from chaingeo import VisualMeasure

    held = VisualMeasure(model, seed=77).sample_lifts(100)
    a = held @ truth.T
    b = held @ fitted.matrix.T
    ip = np.abs(np.sum(a * np.conj(b), axis=1))
    cos2 = (ip / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))) ** 2
    assert np.sqrt(np.clip(1 - cos2, 0, 1)).max() < 1e-6


def test_fit_corrupted_fraction_reported(rng):
    smap, emb, g = _planted_sample_map(rng, 2, 2, 152)
    n = len(smap.source_lifts)
    n_bad = n // 20  # 5%
    model_q = HermitianModel(2)
    bad_idx = rng.choice(n, size=n_bad, replace=False)
    from conftest import random_boundary

    tgt = _points(smap.target_lifts, 2)
    for i in bad_idx:
        tgt[i] = random_boundary(model_q, rng)
    corrupted = BoundarySampleMap(pairs=list(zip(_points(smap.source_lifts, 2), tgt)), p=2, q=2)
    fitted, diags = fit_embedding(corrupted, seed=0)
    report = verify_embedding(fitted, corrupted, tol=1e-6, mode=diags.mode)
    assert abs(report["fraction"] - (1 - n_bad / n)) < 0.02
    assert set(bad_idx).issubset(set(report["failing"]))


def test_fit_antiholomorphic(rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152, conjugate=True)
    fitted, diags = fit_embedding(smap, seed=0)
    assert diags.mode == "antiholomorphic"
    report = verify_embedding(fitted, smap, tol=1e-6, mode="antiholomorphic")
    assert report["fraction"] == 1.0


def test_fit_rejects_scramble(rng):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152, scramble=True)
    with pytest.raises(NoRigidModelError):
        fit_embedding(smap, seed=0)


def test_cartan_transport_of_fit(rng):
    smap, emb, g = _planted_sample_map(rng, 2, 3, 152)
    fitted, _ = fit_embedding(smap, seed=0)
    model = HermitianModel(2)
    from chaingeo import VisualMeasure

    lifts = VisualMeasure(model, seed=5).sample_lifts(60)
    worst = 0.0
    for k in range(0, 60, 3):
        tri = lifts[k : k + 3]
        cp = cartan_triple_lifts(tri[0][None], tri[1][None], tri[2][None])[0]
        img = tri @ fitted.matrix.T
        cq = cartan_triple_lifts(img[0][None], img[1][None], img[2][None])[0]
        worst = max(worst, abs(cp - cq))
    assert worst < 1e-8


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_line_distance_matches_long_double(gap):
    """The fit's residual of lines ``gap`` apart, at p = 1..3 with random
    lift scales and phases, is within a few eps of the same phase-aligned
    distance taken in long double, well below the 1.5e-8 at which
    sqrt(1 - cos^2) rounds to zero."""
    rng = np.random.default_rng(11)
    for p in (1, 2, 3):
        d = p + 1
        a = rng.normal(size=(50, d)) + 1j * rng.normal(size=(50, d))
        e = rng.normal(size=(50, d)) + 1j * rng.normal(size=(50, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        e -= np.sum(a.conj() * e, axis=1, keepdims=True) * a
        e /= np.linalg.norm(e, axis=1, keepdims=True)
        scale = rng.uniform(0.1, 10, size=(50, 1)) * np.exp(1j * rng.uniform(0, 7, size=(50, 1)))
        A = a * rng.uniform(0.1, 10, size=(50, 1))
        B = (np.cos(gap) * a + np.sin(gap) * e) * scale
        res = _projective_residuals(np.eye(d), A, B)
        Al, Bl = A.astype(np.clongdouble), B.astype(np.clongdouble)
        ph = np.sum(Bl.conj() * Al, axis=1)
        w = ph / (np.abs(ph) * np.sqrt(np.sum(np.abs(Bl) ** 2, axis=1)))
        diff = Al / np.sqrt(np.sum(np.abs(Al) ** 2, axis=1))[:, None] - Bl * w[:, None]
        ref = np.sqrt(np.sum(np.abs(diff) ** 2, axis=1))
        assert np.abs(ref - 2 * np.sin(gap / 2)).max() < 1e-15
        assert np.abs(res - ref).max() <= 4 * np.finfo(float).eps


@pytest.mark.parametrize("q", [2, 3])
def test_clean_fit_trims_nothing_and_fits_once(q, monkeypatch):
    """A planted map's residuals are at rounding level, so its fit trims no
    sample and makes one direct linear solve."""
    smap = _planted_sample_map(np.random.default_rng(q), 2, q, 152)[0]
    calls = []
    dlt = reconstruction._dlt
    monkeypatch.setattr(reconstruction, "_dlt", lambda *a: calls.append(a) or dlt(*a))
    _, diags = fit_embedding(smap, seed=0)
    assert diags.trimmed == [] and len(calls) == 1
    assert diags.median_residual < 1e-14


def test_fit_rejects_nonfinite_projection(rng, monkeypatch):
    smap, _, _ = _planted_sample_map(rng, 2, 2, 152)
    monkeypatch.setattr(
        reconstruction, "_isometry_project", lambda W, p, q: (np.full_like(W, np.nan), 1.0)
    )
    with pytest.raises(NoRigidModelError):
        fit_embedding(smap, seed=0)


# swapping the negative basis vector with a positive one pulls the form back
# with scale -1/3; the rank-deficient fits have a positive scale but a zero
# eigenvalue of Jp S / lam, so no inverse square root; an infinite entry, or
# one whose square overflows, makes the scale infinite
@pytest.mark.parametrize(
    "W,q",
    [
        (np.eye(3)[::-1], 2),
        (np.full((3, 3), np.nan), 2),
        (np.diag([0.0, 1.0, 1.0]), 2),
        (np.outer(np.eye(4)[0], np.eye(3)[0]), 3),
        (np.diag([np.inf, 1.0, 1.0]), 2),
        (np.diag([1e200, 1.0, 1.0]), 2),
    ],
    ids=["negative", "nan", "rank-2", "rank-1", "inf", "overflow"],
)
def test_projection_rejects_nonpositive_scale(W, q):
    with pytest.raises(NoRigidModelError), np.errstate(over="ignore", invalid="ignore"):
        _isometry_project(W, 2, q)


def _planted_isometry(p, q, seed):
    """A form isometry C^{p+1} -> C^{q+1} of random scale, and a unit-norm
    complex Gaussian direction of the same shape."""
    rng = np.random.default_rng(seed)
    W = (
        random_isometry(q, seed=seed, sigma=0.4).matrix
        @ standard_embedding(p, q).matrix
        @ random_isometry(p, seed=seed + 1, sigma=0.4).matrix
    ) * np.exp(rng.uniform(-2.0, 2.0))
    N = rng.normal(size=W.shape) + 1j * rng.normal(size=W.shape)
    return W, N / np.linalg.norm(N)


_dims = st.integers(1, 4).flatmap(lambda p: st.tuples(st.just(p), st.integers(p, 4)))


@settings(max_examples=200, deadline=None)
@given(_dims, st.integers(0, 10_000), st.sampled_from([0.0, 1e-8, 1e-4, 1e-2]))
def test_projection_lands_on_isometries_and_is_idempotent(dims, seed, noise):
    p, q = dims
    W0, N = _planted_isometry(p, q, seed)
    W, lam = _isometry_project(W0 + noise * np.linalg.norm(W0) * N, p, q)
    assert _form_residual(W, lam, p, q) <= 1e-12 * lam
    W2, lam2 = _isometry_project(W, p, q)
    assert np.linalg.norm(W2 - W) <= 1e-12 * np.linalg.norm(W)
    assert abs(lam2 - lam) <= 1e-12 * lam


@pytest.mark.parametrize("noise", [0.0, 1e-8, 1e-4, 1e-2])
@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 5) for q in range(p, 5)])
def test_projection_matches_sqrtm(p, q, noise):
    # scipy's Schur-based sqrtm is the independent oracle for the
    # eigendecomposition: the J-polar factor is W (Jp S / lam)^(-1/2)
    Jp = np.diag([1.0] * p + [-1.0])
    Jq = np.diag([1.0] * q + [-1.0])
    for seed in range(20):
        W0, N = _planted_isometry(p, q, seed)
        W = W0 + noise * np.linalg.norm(W0) * N
        JS = Jp @ W.conj().T @ Jq @ W
        lam = np.trace(JS).real / (p + 1)
        ref = W @ np.linalg.inv(sqrtm(JS / lam))
        got, got_lam = _isometry_project(W, p, q)
        assert abs(got_lam - lam) <= 1e-13 * lam
        assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@settings(max_examples=200, deadline=None)
@given(_dims, st.integers(0, 10_000))
def test_projection_moves_noisy_isometry_by_the_noise(dims, seed):
    p, q = dims
    W0, N = _planted_isometry(p, q, seed)
    noise = 1e-4 * np.linalg.norm(W0) * N
    W, _ = _isometry_project(W0 + noise, p, q)
    # 6.7 |noise| was the largest move over 3000 such draws
    assert np.linalg.norm(W - (W0 + noise)) <= 10 * np.linalg.norm(noise)
    assert np.linalg.norm(W - W0) <= 10 * np.linalg.norm(noise)
