import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import sqrtm

from chaingeo import (
    BoundarySampleMap,
    HermitianModel,
    NoRigidModelError,
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
    CompatibilityReport,
    _candidates,
    _isometry_project,
    _on_chain,
    _real_outer,
)
from chaingeo.verify import _planted_sample_map

from compat_oracle import compatibility_loop, planted_span_lifts


def test_sample_map_minimum_count(plane2, rng):
    from conftest import random_boundary

    pairs = [
        (random_boundary(plane2, rng), random_boundary(plane2, rng)) for _ in range(5)
    ]
    with pytest.raises(ValueError):
        BoundarySampleMap(pairs=pairs, p=2, q=2)


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
        note="",
    )


def _collapsed(smap, every=1):
    """The map sending every ``every``-th source sample to the first target."""
    first = smap.pairs[0][1]
    pairs = [(x, first if n % every == 0 else y) for n, (x, y) in enumerate(smap.pairs)]
    return BoundarySampleMap(pairs=pairs, p=smap.p, q=smap.q)


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
    """The bilinear prefilter of ``_candidates`` drops no lift that
    ``_in_span`` accepts, and ``_on_chain`` on the candidates of all pairs
    in one stacked call finds them, for a regular pair, a near pair
    (1 - |g|^2 ~ 1e-5) and a nearly coincident pair (~1e-12), each with
    lifts at 0.99 and 1.01 tol from its span."""
    tol = 1e-7
    L, planted = planted_span_lifts(np.random.default_rng(8), 2, tol)
    assert 1 - abs(np.vdot(L[0], L[1])) ** 2 < 1e-4
    assert 1 - abs(np.vdot(L[0], L[2])) ** 2 < 1e-10
    pairs = np.array([(a, b) for a in range(40) for b in range(40)])
    t, z = _candidates(L, _real_outer(L, L).T, pairs, tol)
    assert np.all(np.diff(t * 40 + z) > 0)  # draw order
    on = _on_chain(L, np.column_stack([pairs[t], z]), tol)
    members = [[] for _ in pairs]
    for r, m in zip(t[on], z[on]):
        members[r].append(m)
    for (a, b), got in zip(pairs, members):
        want = [] if a == b else [
            z for z in np.flatnonzero(_in_span(L[[a, b]].T, L, tol)) if z not in (a, b)
        ]
        assert got == want
    for z, (pair, inside) in planted.items():
        for a, b in (pair, pair[::-1]):
            assert (z in members[40 * a + b]) == inside


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
@given(p=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_bilinear_residual_matches_gram(p, seed):
    """The prefilter's bilinear h r^2, divided by h, is the Gram-table
    r^2 = 1 - |E_az|^2 - |E_bz - conj(g) E_az|^2 / h of every lift, for a
    random pair (a, b) that is not near (h >= 1e-4)."""
    rng = np.random.default_rng(seed)
    lifts = rng.normal(size=(30, p + 1)) + 1j * rng.normal(size=(30, p + 1))
    u = lifts / np.linalg.norm(lifts, axis=-1, keepdims=True)
    E = u.conj() @ u.T
    a, b = u[:1], u[1:2]
    g = E[0, 1]
    h = 1.0 - abs(g) ** 2
    assume(h >= 1e-4)
    gram = 1.0 - abs(E[0]) ** 2 - abs(E[1] - g.conj() * E[0]) ** 2 / h
    P = _real_outer(a, a) + _real_outer(b, b - 2 * g * a)
    bilinear = (h - (P @ _real_outer(u, u).T)[0]) / h
    assert np.abs(bilinear - gram).max() <= 1e-10


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
    n = len(smap.pairs)
    n_bad = n // 20  # 5%
    model_q = HermitianModel(2)
    bad_idx = rng.choice(n, size=n_bad, replace=False)
    from conftest import random_boundary

    pairs = list(smap.pairs)
    for i in bad_idx:
        pairs[i] = (pairs[i][0], random_boundary(model_q, rng))
    corrupted = BoundarySampleMap(pairs=pairs, p=2, q=2)
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
