import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from chaingeo import (
    HermitianModel,
    ProjPoint,
    cartan_invariant,
    cartan_invariant_flagged,
    chain_contains,
    chain_through,
    sample_chain_point,
)
from chaingeo import verify
from chaingeo.busemann import VisualMeasure
from chaingeo.chains import Chain, _cartan_flagged, _in_span, cartan_triple_lifts
from chaingeo.isometries import apply_isometry, random_isometry

from compat_oracle import planted_span_lifts, svd_in_span
from conftest import fit_circle, random_boundary
from heisenberg_oracle import heisenberg_projection, null_frame


def circle_point(z, model):
    return ProjPoint(np.array([z, 1.0]), model=model, kind="boundary")


def test_cartan_degenerate_flag(disc, rng):
    xi = circle_point(1.0, disc)
    eta = circle_point(1j, disc)
    val, deg = cartan_invariant_flagged(disc, xi, xi, eta)
    assert val == 0.0 and deg


def test_cartan_calibration_triple(disc):
    # direct-expansion oracle: lifts (1,1), (i,1), (-1,1) give triple
    # product (-1-i)(-1-i)(-2) = -4i, so arg(4i) = pi/2 and c = +1
    t = (1 * np.conj(1j) - 1) * (1j * np.conj(-1) - 1) * (-1 * np.conj(1) - 1)
    assert_allclose(t, -4j, atol=1e-15)
    pts = [circle_point(z, disc) for z in (1.0, 1j, -1.0)]
    assert_allclose(cartan_invariant(disc, *pts), 1.0, atol=1e-14)


def test_cartan_alternating_and_bounded(plane2, rng):
    pts = random_boundary(plane2, rng, n=3)
    c1 = cartan_invariant(plane2, *pts)
    c2 = cartan_invariant(plane2, pts[1], pts[0], pts[2])
    assert_allclose(c1, -c2, atol=1e-12)
    assert abs(c1) <= 1.0


def test_cartan_lift_independent(plane2, rng):
    lifts = np.stack([random_boundary(plane2, rng).lift for _ in range(3)])
    c1 = cartan_triple_lifts(lifts[0][None], lifts[1][None], lifts[2][None])[0]
    scales = np.array([2.0 * np.exp(0.7j), -3.1, 0.2 - 1.4j])
    scaled = lifts * scales[:, None]
    c2 = cartan_triple_lifts(scaled[0][None], scaled[1][None], scaled[2][None])[0]
    assert_allclose(c1, c2, atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.lists(st.floats(-6.0, 6.0), min_size=3, max_size=3),
    st.lists(st.floats(0.0, 2 * np.pi), min_size=3, max_size=3),
)
@example(1, 5029, [0.0, 0.0, 0.0], [0.0, 2.0, 0.0])
def test_cartan_invariant_free_of_lift_scale(p, seed, log_scales, phases):
    """The invariant is a function of the points: rescaling the lifts by
    1e-6..1e6 and any phases moves it by no more than the two rounding
    bounds, keeps it in [-1, 1], and does not make a generic triple read
    as degenerate.  The example has a nearly coincident pair, which read
    1.0000000000004876 before the clip."""
    lifts = VisualMeasure(HermitianModel(p), seed=seed).sample_lifts(3)
    scales = 10.0 ** np.array(log_scales) * np.exp(1j * np.array(phases))
    c, err, deg = _cartan_flagged(*lifts)
    cs, errs, degs = _cartan_flagged(*(lifts * scales[:, None]))
    assert not deg and not degs
    assert abs(c) <= 1.0 and abs(cs) <= 1.0
    assert abs(cs - c) <= errs + err


def test_one_chain_triples_read_within_one():
    """Every p = 1 triple lies on one chain, so |c| = 1 exactly: the clipped
    invariant never exceeds 1 and misses it by at most its rounding bound
    (unclipped, 1831 of these 3334 triples read above 1)."""
    lifts = VisualMeasure(HermitianModel(1), seed=1).sample_lifts(3 * 3334).reshape(3334, 3, 2)
    c, err, deg = _cartan_flagged(lifts[:, 0], lifts[:, 1], lifts[:, 2])
    assert not deg.any()
    assert np.all(np.abs(c) <= 1.0)
    assert np.all(1.0 - np.abs(c) <= err)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(0, 10_000),
    st.floats(-6.0, 6.0),
    st.lists(st.floats(0.0, 2 * np.pi), min_size=2, max_size=2),
)
def test_chain_free_of_span_scale(p, seed, log_scale, phases):
    """A chain's span rescaled by 1e-6..1e6, with a phase per column, is
    accepted and gives the same chain with the same orientation."""
    model = HermitianModel(p)
    a, b = VisualMeasure(model, seed=seed).sample_points(2)
    C = chain_through(model, a, b)
    scaled = Chain(C.span * 10.0**log_scale * np.exp(1j * np.array(phases)), +1, model)
    pts = sample_chain_point(scaled, np.array([0.5, 2.0, 4.0]))
    assert all(chain_contains(C, x) for x in pts)
    assert abs(cartan_invariant(model, *pts) - 1.0) <= 1e-9


def test_chain_rejects_bad_spans():
    """A zero, non-finite or missing column is not two independent vectors;
    dependent nonzero columns and a positive-definite span fail the (1,1)
    signature test on the unit Gram matrix."""
    model = HermitianModel(2)
    null = np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0)
    for span in (np.column_stack([null, np.zeros(3)]), np.column_stack([null, [np.nan, 0.0, 1.0]]),
                 null[:, None]):
        with pytest.raises(ValueError, match="span must be two independent vectors"):
            Chain(span, +1, model)
    for span in (np.column_stack([null, 2j * null]), np.column_stack([[0, 0, 1.0], [0, 0, 3.0]]),
                 np.eye(3)[:, :2]):
        with pytest.raises(ValueError, match=r"span is not of signature \(1,1\)"):
            Chain(span, +1, model)


def test_cartan_cocycle_identity(plane2, rng):
    n = 2000
    x = [np.stack([random_boundary(plane2, rng).lift for _ in range(n)]) for _ in range(4)]
    c = cartan_triple_lifts
    alt = (
        c(x[1], x[2], x[3])
        - c(x[0], x[2], x[3])
        + c(x[0], x[1], x[3])
        - c(x[0], x[1], x[2])
    )
    assert np.max(np.abs(alt)) < 1e-9


def test_chain_through_contains_defining_points(plane2, rng):
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    assert chain_contains(C, a) and chain_contains(C, b)
    with pytest.raises(ValueError):
        chain_through(plane2, a, a)


def test_chain_membership_span_oracle(plane2):
    e = lambda v: ProjPoint(np.array(v, dtype=complex), model=plane2)
    a, b = e([1, 0, 1]), e([-1, 0, 1])
    C = chain_through(plane2, a, b)
    probe = e([1j, 0, 1])
    # rank-2 span membership oracle: least-squares residual of the lift
    span = np.column_stack([a.lift, b.lift])
    coef, res, *_ = np.linalg.lstsq(span, probe.lift, rcond=None)
    assert np.linalg.norm(span @ coef - probe.lift) < 1e-12
    assert chain_contains(C, probe)
    assert not chain_contains(C, e([0, 1, 1]))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_in_span_matches_svd_oracle(p):
    """The closed-form span test gives the SVD least-squares test's
    booleans, alone and stacked, on a regular pair, a near pair, a nearly
    coincident pair and a pair with 1 - |g|^2 in [1e-4, 2e-4] with lifts
    planted at 0.99, 0.999 and 1.01 tol."""
    tol = 1e-7
    L, planted = planted_span_lifts(np.random.default_rng(p), p, tol)
    pairs = [(10, 11), (0, 1), (0, 2), (0, 12), (1, 2), (5, 30)]
    spans = np.stack([L[[a, b]].T for a, b in pairs])
    alone = np.stack([_in_span(span, L, tol) for span in spans])
    assert (alone == np.stack([svd_in_span(span, L, tol) for span in spans])).all()
    assert (_in_span(spans[:, None], L, tol) == alone).all()
    for z, (pair, inside) in planted.items():
        assert alone[pairs.index(pair), z] == inside


def _long_double_basis(a, b):
    """Orthonormal basis of the span of a and b: Gram-Schmidt twice in long double."""
    a, b = a.astype(np.clongdouble), b.astype(np.clongdouble)
    u1 = a / np.sqrt(np.vdot(a, a).real)
    w = b - np.vdot(u1, b) * u1
    w -= np.vdot(u1, w) * u1
    return u1, w / np.sqrt(np.vdot(w, w).real)


def test_in_span_decides_nearly_coincident_pair_as_long_double():
    """At 1 - |<a, b>|^2 / |b|^2 ~ 1e-15 the span test decides lifts planted
    in long double at (1 -+ 1e-5) tol from the span as a long-double
    Gram-Schmidt reference does.  The entries of a are +-1/2 and +-i/2, so
    u1 = a and b - <u1, b> u1 are exact; one pass leaves u2 a component
    ~eps/sqrt(h) along u1, which lengthens the residuals of in-span lifts
    by 1e-4 to 1e-3 of tol, and only the second pass removes it."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than double on this platform")
    tol, d = 1e-7, 4
    rng = np.random.default_rng(0)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    def ld_norm(v):
        return np.sqrt((v * v.conj()).real.sum(axis=-1))

    inside = np.repeat([True, False], 10)
    for _ in range(4):
        a = 0.5 * 1j ** rng.integers(4, size=d)
        e = gauss(d)
        e -= np.vdot(a, e) * a
        b = rng.uniform(0.5, 2) * np.exp(2j * np.pi * rng.uniform()) * (a + 3.2e-8 * e / np.linalg.norm(e))
        u1, u2 = _long_double_basis(a, b)
        assert 5e-16 < 1 - abs(np.vdot(u1, b)) ** 2 / ld_norm(b.astype(np.clongdouble)) ** 2 < 2e-15
        lifts = []
        for f in np.where(inside, 1 - 1e-5, 1 + 1e-5):
            c = gauss(2)
            o = gauss(d).astype(np.clongdouble)
            for _ in range(2):
                o -= np.vdot(u1, o) * u1 + np.vdot(u2, o) * u2
            v = c[0] * u1 + c[1] * u2
            r = np.longdouble(f * tol)
            lifts.append(v / ld_norm(v) + r / np.sqrt(1 - r * r) * o / ld_norm(o))
        Z = np.array(lifts).astype(complex)
        Zl = Z.astype(np.clongdouble)
        res = Zl - (Zl @ u1.conj())[:, None] * u1 - (Zl @ u2.conj())[:, None] * u2
        reference = ld_norm(res) <= tol * ld_norm(Zl)
        assert (reference == inside).all()
        assert (_in_span(np.column_stack([a, b]), Z, tol) == reference).all()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_in_span_rank_one_span_is_its_line(p):
    """A span of parallel or zero columns is tested against the line of its
    first column, with no warning: only lifts on that line are members."""
    rng = np.random.default_rng(p)
    a = rng.normal(size=p + 1) + 1j * rng.normal(size=p + 1)
    off = rng.normal(size=p + 1) + 1j * rng.normal(size=p + 1)
    lifts = np.stack([(2 - 1j) * a, off, a + 1e-3 * off])
    for b in (a, 2j * a, np.zeros_like(a)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _in_span(np.column_stack([a, b]), lifts, 1e-7)
        assert got.tolist() == [True, False, False]


def test_chain_triples_are_extremal(plane2, rng):
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    pts = [sample_chain_point(C, t) for t in (0.4, 2.0, 5.2)]
    assert abs(abs(cartan_invariant(plane2, *pts)) - 1.0) < 1e-9


def test_generic_triples_not_extremal(plane2, rng):
    for _ in range(50):
        pts = random_boundary(plane2, rng, n=3)
        assert abs(cartan_invariant(plane2, *pts)) < 1 - 1e-4


def test_sample_chain_point_periodicity(plane2, rng):
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    p = sample_chain_point(C, 0.9)
    q = sample_chain_point(C, 0.9 + 2 * np.pi)
    assert p.same_point_as(q)
    assert chain_contains(C, p)


def test_sample_chain_orientation_calibration(plane2, rng):
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    ts = np.sort(rng.uniform(0, 2 * np.pi, size=3))
    pts = [sample_chain_point(C, t) for t in ts]
    assert_allclose(cartan_invariant(plane2, *pts), C.orientation, atol=1e-9)
    rev = C.reversed()
    pts_r = [sample_chain_point(rev, t) for t in ts]
    assert_allclose(cartan_invariant(plane2, *pts_r), rev.orientation, atol=1e-9)


def test_chains_map_to_chains_under_isometries(plane2, rng):
    g = random_isometry(2, seed=31)
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    gC = chain_through(plane2, apply_isometry(g, a), apply_isometry(g, b))
    for t in np.linspace(0, 2 * np.pi, 50, endpoint=False):
        moved = apply_isometry(g, sample_chain_point(C, t))
        assert chain_contains(gC, moved)


def test_heisenberg_fibers_are_chains(plane2, rng):
    xi = random_boundary(plane2, rng)
    other = random_boundary(plane2, rng)
    C = chain_through(plane2, xi, other)
    zs = [
        heisenberg_projection(plane2, xi, sample_chain_point(C, t))
        for t in (0.3, 1.1, 2.8, 4.4)
    ]
    assert max(abs(z - zs[0]) for z in zs) < 1e-9


def test_heisenberg_chain_image_is_circle(plane2, rng):
    xi = random_boundary(plane2, rng)
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    zs = np.array(
        [
            heisenberg_projection(plane2, xi, sample_chain_point(C, t))
            for t in np.linspace(0, 2 * np.pi, 50, endpoint=False)
        ]
    )
    _, _, resid = fit_circle(zs)
    assert resid < 1e-7


def test_heisenberg_projective_well_defined(plane2, rng):
    xi = random_boundary(plane2, rng)
    zeta = random_boundary(plane2, rng)
    z1 = heisenberg_projection(plane2, xi, zeta)
    rescaled = ProjPoint(np.exp(0.83j) * 2.5 * zeta.lift, model=plane2, kind="boundary")
    z2 = heisenberg_projection(plane2, xi, rescaled)
    assert abs(z1 - z2) < 1e-12


def test_heisenberg_rejects_coincident(plane2, rng):
    xi = random_boundary(plane2, rng)
    with pytest.raises(ValueError):
        heisenberg_projection(plane2, xi, xi)


def test_heisenberg_requires_p2(disc, rng):
    xi = circle_point(1.0, disc)
    zeta = circle_point(1j, disc)
    with pytest.raises(ValueError):
        heisenberg_projection(disc, xi, zeta)


def test_heisenberg_unique_chain_over_circle(plane2, rng):
    # a circle image determines the chain through a given preimage point:
    # the original chain reproduces its circle, while other chains through
    # the same point project to different circles
    xi = random_boundary(plane2, rng)
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    circle = [
        heisenberg_projection(plane2, xi, sample_chain_point(C, t))
        for t in np.linspace(0, 2 * np.pi, 24, endpoint=False)
    ]
    _, _, resid = fit_circle(np.array(circle))
    assert resid < 1e-7
    s = sample_chain_point(C, 1.234)
    for _ in range(5):
        other = chain_through(plane2, s, random_boundary(plane2, rng))
        img = [
            heisenberg_projection(plane2, xi, sample_chain_point(other, t))
            for t in np.linspace(0, 2 * np.pi, 12, endpoint=False)
        ]
        # different chain through s => its circle differs from the original
        center, r, _ = fit_circle(np.array(circle))
        off = max(abs(abs(z - center) - r) for z in img)
        assert off > 1e-4


def test_sample_chain_point_injective(plane2, rng):
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    ts = np.linspace(0, 2 * np.pi, 40, endpoint=False)
    pts = [sample_chain_point(C, t) for t in ts]
    for i in range(len(pts)):
        assert not pts[i].same_point_as(pts[(i + 1) % len(pts)])


def test_heisenberg_stabilizer_acts_affinely(plane2, rng):
    # the chart intertwines the stabilizer of xi with complex-affine maps:
    # conjugating a Heisenberg element into the frame of xi and reading it
    # through the chart must give a map fitted exactly by lam*z + c
    from chaingeo import Isometry, apply_isometry, fit_affine

    xi = random_boundary(plane2, rng)
    B = null_frame(xi)
    a = 0.4 - 0.2j
    n = np.eye(3, dtype=complex)
    n[0, 1] = a
    n[1, 2] = np.conj(a)
    n[0, 2] = abs(a) ** 2 / 2 + 0.15j
    h = Isometry(B @ n @ np.linalg.inv(B), 2)
    assert apply_isometry(h, xi).same_point_as(xi)
    zs, ws = [], []
    for _ in range(12):
        zeta = random_boundary(plane2, rng)
        zs.append(heisenberg_projection(plane2, xi, zeta))
        ws.append(heisenberg_projection(plane2, xi, apply_isometry(h, zeta)))
    lam, c, diag = fit_affine(list(zip(zs, ws)))
    assert diag["mode"] == "affine" and diag["residual"] < 1e-9


def test_nan_on_chain_fails_chain_extremality(monkeypatch):
    # only the one-row calls, which take the on-chain triples, return NaN
    def nan_on_chain(*lifts):
        values = cartan_triple_lifts(*lifts)
        return np.full_like(values, np.nan) if len(lifts[0]) == 1 else values

    monkeypatch.setattr(verify, "cartan_triple_lifts", nan_on_chain)
    r = verify.crit02_chain_extremality(n_each=5)
    assert np.isnan(r["on_chain_min_abs"]) and not r["passed"]
