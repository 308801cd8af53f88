import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from chaingeo import (
    HermitianModel,
    ProjPoint,
    TangentVector,
    distance,
    exp_map,
    geodesic,
    inner,
    metric_and_kahler,
    tangent,
    triangle_area,
    unit_tangent_toward,
)
from chaingeo.hermitian import _gram, _herm, _pairings, _same_line
from chaingeo.isometries import apply_isometry, random_isometry

from conftest import random_boundary, random_interior, random_tangent


def test_inner_negative_axis(disc):
    e = np.array([0.0, 1.0])
    assert inner(disc, e, e) == -1.0


def test_inner_orthogonal_basis(plane2):
    e1 = np.array([1.0, 0, 0])
    e2 = np.array([0, 1.0, 0])
    assert inner(plane2, e1, e2) == 0.0


def test_inner_direct_expansion(disc):
    # <(1,1), (i,1)> = 1*conj(i) - 1*conj(1) = -i - 1
    val = inner(disc, np.array([1.0, 1.0]), np.array([1j, 1.0]))
    assert_allclose(val, -1.0 - 1.0j, rtol=0, atol=1e-15)


def test_inner_dimension_mismatch(disc):
    with pytest.raises(ValueError):
        inner(disc, np.array([1.0, 0, 0]), np.array([0.0, 1.0, 0]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_inner_hermitian_symmetry(seed):
    model = HermitianModel(2)
    r = np.random.default_rng(seed)
    x = r.normal(size=3) + 1j * r.normal(size=3)
    y = r.normal(size=3) + 1j * r.normal(size=3)
    a = inner(model, x, y)
    b = inner(model, y, x)
    assert abs(a - np.conj(b)) <= 1e-14 * max(1.0, abs(a))
    # the Gram matrix A* J B, and the pairings of a stack of rows with a
    # stack of vectors, hold the pairings <B_j, A_i> of the columns
    A = r.normal(size=(3, 2)) + 1j * r.normal(size=(3, 2))
    B = r.normal(size=(3, 4)) + 1j * r.normal(size=(3, 4))
    loop = [[_herm(B[:, j], A[:, i]) for j in range(4)] for i in range(2)]
    for gram in (_gram(A, B), _pairings(B.T, A.T).T):
        assert_allclose(gram, loop, rtol=0, atol=1e-14 * np.abs(A).max() * np.abs(B).max())


@pytest.mark.parametrize("p", [1, 2, 3])
def test_same_line_one_pair_matches_stack(p, rng):
    """The one-pair test on floats decides as the stacked test does: on
    random pairs, phase-turned copies, pairs 1e-7 and 1e-11 apart, and
    pairs with a zero pairing."""
    d, n = p + 1, 200
    A = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    step = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    step *= np.linalg.norm(A, axis=1, keepdims=True) / np.linalg.norm(step, axis=1, keepdims=True)
    orth = step - (np.vecdot(A, step) / np.vecdot(A, A))[:, None] * A  # sum A_k conj(orth_k) = 0
    cases = {
        "random": (rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)), False),
        "turned": (A * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, 1))) * rng.uniform(0.1, 10, size=(n, 1)), True),
        "1e-7": (A + 1e-7 * step, False),
        "1e-11": (A + 1e-11 * step, True),
        "zero pairing": (orth, False),
    }
    for name, (B, expected) in cases.items():
        stacked = _same_line(A, B)
        assert (stacked == expected).all(), name
        assert [_same_line(a, b) for a, b in zip(A, B)] == stacked.tolist(), name
    # coordinate axes pair to exactly zero
    e = np.eye(d, dtype=complex)
    assert not _same_line(e[0], e[-1]) and not _same_line(e[:1], e[-1:])[0]


def test_projpoint_classification(disc):
    assert ProjPoint(np.array([0.2, 1.0]), model=disc).kind == "interior"
    assert ProjPoint(np.array([1.0, 1.0]), model=disc).kind == "boundary"
    with pytest.raises(ValueError):
        ProjPoint(np.array([1.0, 0.5]), model=disc)  # positive vector


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_projpoint_rejects_nonfinite_lift(plane2, bad):
    with pytest.raises(ValueError, match="nonzero and finite"):
        ProjPoint(np.array([bad, 0.0, 1.0]), model=plane2, kind="boundary")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_model_rejects_nonfinite_scale(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        HermitianModel(2, metric_scale=bad)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tangent_rejects_nonfinite_components(plane2, rng, bad):
    x = random_interior(plane2, rng)
    v = tangent(plane2, x, rng.normal(size=3)).components
    v[0] = bad
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        TangentVector(x, v)


def test_projpoint_canonical_lift(plane2, rng):
    x = random_interior(plane2, rng)
    assert x.lift[-1].imag == 0 and x.lift[-1].real > 0
    assert_allclose(inner(plane2, x.lift, x.lift).real, -1.0, atol=1e-12)
    b = random_boundary(plane2, rng)
    assert_allclose(np.linalg.norm(b.lift), 1.0, atol=1e-12)


def test_distance_zero_and_symmetry(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_interior(plane2, rng)
    assert distance(plane2, x, x) == 0.0
    assert_allclose(distance(plane2, x, y), distance(plane2, y, x), rtol=1e-14)


def test_distance_boundary_rejected(disc, rng):
    b = random_boundary(disc, rng)
    with pytest.raises(ValueError):
        distance(disc, b, disc.basepoint())


def test_distance_metric_quadrature_oracle(disc):
    # independent oracle: arclength of the radial segment [0, 0.5] under
    # ds = 2|dz|/(1-|z|^2), computed by quadrature
    oracle, err = quad(lambda t: 2.0 / (1.0 - t * t), 0.0, 0.5)
    x = disc.basepoint()
    y = ProjPoint(np.array([0.5, 1.0]), model=disc)
    assert_allclose(distance(disc, x, y), oracle, atol=1e-10)


def test_distance_isometry_invariance(plane2, rng):
    # 10^3 random (g, x, y) draws
    for k in range(100):
        g = random_isometry(2, seed=k)
        for _ in range(10):
            x = random_interior(plane2, rng)
            y = random_interior(plane2, rng)
            d1 = distance(plane2, x, y)
            d2 = distance(plane2, apply_isometry(g, x), apply_isometry(g, y))
            assert abs(d1 - d2) < 1e-9


def test_geodesic_endpoints(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_interior(plane2, rng)
    assert geodesic(plane2, x, y, 0.0).same_point_as(x)
    d = distance(plane2, x, y)
    hit = geodesic(plane2, x, y, d)
    assert np.linalg.norm(hit.lift - y.lift) < 1e-9


def test_geodesic_unit_speed_toward_boundary(plane2, rng):
    x = random_interior(plane2, rng)
    b = random_boundary(plane2, rng)
    for t in (0.0, 0.7, 2.5, 6.0):
        p = geodesic(plane2, x, b, t)
        q = geodesic(plane2, x, b, t + 1.0)
        assert abs(distance(plane2, p, q) - 1.0) < 1e-9


def test_geodesic_coincident_direction_error(plane2, rng):
    x = random_interior(plane2, rng)
    with pytest.raises(ValueError):
        geodesic(plane2, x, x, 1.0)


def test_exp_map_matches_geodesic(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_interior(plane2, rng)
    v = unit_tangent_toward(plane2, x, y)
    t = 0.8
    scaled = tangent(plane2, x, t * v.components)
    p = exp_map(plane2, x, scaled)
    q = geodesic(plane2, x, y, t)
    assert np.linalg.norm(p.lift - q.lift) < 1e-10


def test_kahler_antisymmetry_and_positivity(plane2, rng):
    x = random_interior(plane2, rng)
    u = random_tangent(plane2, rng, x)
    v = random_tangent(plane2, rng, x)
    g_uu, om_uu = metric_and_kahler(plane2, x, u, u)
    assert om_uu == 0.0
    assert g_uu > 0.0
    _, om_uv = metric_and_kahler(plane2, x, u, v)
    _, om_vu = metric_and_kahler(plane2, x, v, u)
    assert_allclose(om_uv, -om_vu, rtol=1e-12)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_kahler_sign_against_small_triangle_area(p, rng):
    # a geodesic triangle spanned by eps u and eps v has signed area
    # (eps^2 / 2) omega(u, v) + O(eps^4), so the holonomy closed form fixes
    # the sign of omega; omega(u, Ju) = g(u, u) ties it to the metric
    model = HermitianModel(p)
    x = random_interior(model, rng)

    def unit(w):
        return tangent(model, x, w.components / np.sqrt(metric_and_kahler(model, x, w, w)[0]))

    u, v = (unit(random_tangent(model, rng, x)) for _ in range(2))
    eps = 1e-3
    y, z = (exp_map(model, x, tangent(model, x, eps * w.components)) for w in (u, v))
    _, omega = metric_and_kahler(model, x, u, v)
    area = triangle_area(model, x, y, z).value
    assert abs(area / (eps**2 / 2) - omega) <= 1e-4 * abs(omega)
    g_uu, _ = metric_and_kahler(model, x, u, u)
    _, omega_u_ju = metric_and_kahler(model, x, u, tangent(model, x, 1j * u.components))
    assert_allclose(omega_u_ju, g_uu, rtol=1e-12)


def test_base_mismatch_rejected(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_interior(plane2, rng)
    u = random_tangent(plane2, rng, x)
    v = random_tangent(plane2, rng, y)
    with pytest.raises(ValueError):
        metric_and_kahler(plane2, x, u, v)


def _circumference(model, x, u, r, n=2880):
    """Polygonal circumference oracle of the geodesic circle of radius r in
    the holomorphic plane spanned by (u, Ju) at x."""
    ju = tangent(model, x, 1j * u.components)
    pts = []
    for th in np.linspace(0.0, 2 * np.pi, n, endpoint=False):
        w = np.cos(th) * u.components + np.sin(th) * ju.components
        pts.append(exp_map(model, x, tangent(model, x, r * w)))
    total = 0.0
    for a, b in zip(pts, pts[1:] + pts[:1]):
        total += distance(model, a, b)
    return total


def test_holomorphic_sectional_curvature(plane2, rng):
    # Bertrand-Puiseux: K = 3 (2 pi r - C(r)) / (pi r^3) + O(r^2), sharpened
    # by Richardson extrapolation over two radii
    x = random_interior(plane2, rng, spread=0.4)
    u = random_tangent(plane2, rng, x)
    g, _ = metric_and_kahler(plane2, x, u, u)
    u = tangent(plane2, x, u.components / np.sqrt(g))
    ks = []
    for r in (0.12, 0.06):
        c = _circumference(plane2, x, u, r)
        ks.append(3.0 * (2 * np.pi * r - c) / (np.pi * r**3))
    k_extrap = (4 * ks[1] - ks[0]) / 3.0
    assert abs(k_extrap - (-1.0)) < 1e-3


def test_triangle_degenerate_flag(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_interior(plane2, rng)
    res = triangle_area(plane2, x, x, y)
    assert res.degenerate and res.value == 0.0


def test_triangle_alternating(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_interior(plane2, rng)
    z = random_interior(plane2, rng)
    a1 = triangle_area(plane2, x, y, z, tol=1e-8)
    a2 = triangle_area(plane2, y, x, z, tol=1e-8)
    assert abs(a1.value + a2.value) < 1e-6


def test_triangle_cone_vertex_independence(plane2, rng):
    x = random_interior(plane2, rng)
    y = random_boundary(plane2, rng)
    z = random_interior(plane2, rng)
    a1 = triangle_area(plane2, x, y, z, tol=1e-8)
    a2 = triangle_area(plane2, y, z, x, tol=1e-8)  # cyclic: same orientation
    assert abs(a1.value - a2.value) < 1e-6


def test_triangle_gromov_bound(plane2, rng):
    worst = 0.0
    for _ in range(1000):
        pts = random_boundary(plane2, rng, n=3)
        res = triangle_area(plane2, *pts, tol=1e-4)
        worst = max(worst, abs(res.value))
    assert worst <= np.pi * (1 + 1e-3)


def test_triangle_mixed_vertices_match_each_other(plane2, rng):
    # value independent of which vertex is ideal vs interior in the coning
    x = random_boundary(plane2, rng)
    y = random_interior(plane2, rng)
    z = random_interior(plane2, rng)
    a1 = triangle_area(plane2, x, y, z, tol=1e-8)
    a2 = triangle_area(plane2, z, x, y, tol=1e-8)
    assert abs(a1.value - a2.value) < 1e-6


def test_distance_scales_with_metric(rng):
    base = HermitianModel(2)
    scaled = HermitianModel(2, metric_scale=16.0)
    x = random_interior(base, rng)
    y = random_interior(base, rng)
    xs = ProjPoint(x.lift, model=scaled, kind="interior")
    ys = ProjPoint(y.lift, model=scaled, kind="interior")
    assert_allclose(distance(scaled, xs, ys), 2.0 * distance(base, x, y), rtol=1e-12)
