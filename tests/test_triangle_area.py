"""Closed-form Kahler areas against the cone-filling quadrature oracle, the
holonomy kernel shared with the angular invariant, the rounding bound and
its tolerance gate, and the cocycle properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chaingeo import HermitianModel, ProjPoint, TriangleArea, hermitian, inner, triangle_area, verify
from chaingeo.busemann import VisualMeasure
from chaingeo.chains import chain_through, sample_chain_point
from chaingeo.isometries import apply_isometry, random_isometry

from area_oracle import cone_area
from conftest import random_boundary, random_interior


def _pattern_triangles(rng, per_pattern):
    """Triangles for p = 1..3 and every interior/ideal vertex pattern."""
    out = []
    for p in (1, 2, 3):
        model = HermitianModel(p)
        for pattern in range(8):
            for _ in range(per_pattern):
                pts = [
                    random_boundary(model, rng) if pattern >> bit & 1 else random_interior(model, rng)
                    for bit in range(3)
                ]
                out.append((model, pts))
    return out


def _crit03_triangles():
    disc = HermitianModel(1)
    ideal = [ProjPoint(np.array([z, 1.0]), model=disc, kind="boundary") for z in (1.0, 1j, -1.0)]
    model = HermitianModel(2)
    a, b = VisualMeasure(model, seed=3).sample_points(2, rng=np.random.default_rng(3))
    C = chain_through(model, a, b)
    return [(disc, ideal), (model, [sample_chain_point(C, t) for t in (0.3, 1.7, 4.0)])]


def _crit04_triangles():
    model = HermitianModel(2)
    rng = np.random.default_rng(13)
    return [
        (model, VisualMeasure(model).sample_points(3, rng=rng))
        for _ in range(100)
    ]


@pytest.mark.parametrize("family", ["patterns", "crit03-chain", "crit04-ideal"])
def test_closed_form_matches_cone_oracle(family, rng):
    if family == "patterns":
        triangles = _pattern_triangles(rng, per_pattern=5)
    elif family == "crit03-chain":
        triangles = _crit03_triangles()
    else:
        triangles = _crit04_triangles()
    gaps = []
    for model, pts in triangles:
        area = triangle_area(model, *pts).value
        # the area is invariant under cyclic rotation; the quadrature is
        # singular for some apexes, so use the first rotation it resolves
        for r in range(3):
            with np.errstate(divide="ignore", invalid="ignore"):
                value = cone_area(model, *pts[r:], *pts[:r], tol=1e-8)
            if np.isfinite(value):
                gaps.append(abs(value - area))
                break
    assert len(gaps) >= 0.95 * len(triangles)
    assert max(gaps) < 1e-6


def test_chain_triangles_have_area_pi():
    for model, pts in _crit03_triangles():
        assert abs(triangle_area(model, *pts).value - np.pi) < 1e-12


def _reference_area(model, x, y, z):
    """The kernel pair by pair: each pairing and each lift's norm is taken
    once for the triple product and again for the rounding bound."""
    for a, b in ((x, y), (y, z), (z, x)):
        if a.kind == b.kind and a.same_point_as(b):
            return TriangleArea(0.0, 0.0, degenerate=True)
    X, Y, Z = x.lift, y.lift, z.lift
    half = model.metric_scale / 2.0
    value = half * float(np.angle(-(inner(model, X, Y) * inner(model, Y, Z) * inner(model, Z, X))))
    cond = 1.0 + sum(
        np.linalg.norm(A) * np.linalg.norm(B) / abs(inner(model, A, B))
        for A, B in ((X, Y), (Y, Z), (Z, X))
    )
    return TriangleArea(value, float(half * (model.dim + 2) * np.finfo(float).eps * cond))


def _degenerate_triangles(rng):
    """A repeated vertex, and one boundary point given twice with lifts of
    different phase, for p = 1..3."""
    out = []
    for p in (1, 2, 3):
        model = HermitianModel(p)
        x, z = random_interior(model, rng), random_boundary(model, rng)
        turned = ProjPoint(np.exp(0.7j) * z.lift, model=model, kind="boundary")
        out += [(model, [x, x, z]), (model, [z, x, turned]), (model, [x, z, turned])]
    return out


def test_kernel_matches_reference_bit_for_bit(rng):
    triangles = (
        _pattern_triangles(rng, per_pattern=5)
        + _crit03_triangles()
        + _crit04_triangles()
        + _degenerate_triangles(rng)
    )
    for model, pts in triangles:
        # TriangleArea equality compares value, err_estimate and degenerate
        assert triangle_area(model, *pts) == _reference_area(model, *pts)
    assert sum(triangle_area(model, *pts).degenerate for model, pts in triangles) == 9


def test_kernel_pairs_each_pair_once(monkeypatch, rng):
    triangles = _pattern_triangles(rng, per_pattern=1)
    calls = []

    def counted(X, Y, herm=hermitian._herm):
        calls.append(1)
        return herm(X, Y)

    monkeypatch.setattr(hermitian, "_herm", counted)
    for model, pts in triangles:
        triangle_area(model, *pts)
    assert len(calls) == 3 * len(triangles)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_norm_matches_linalg_norm_bit_for_bit(d, rng):
    A = (rng.normal(size=(2000, d)) + 1j * rng.normal(size=(2000, d))) * 10.0 ** rng.uniform(
        -8, 8, size=(2000, 1)
    )
    ref = np.array([np.linalg.norm(a) for a in A])
    for B in (A, np.asfortranarray(A)):
        assert hermitian._norm(B).tobytes() == ref.tobytes()
    assert hermitian._norm(A[::-1])[::-1].tobytes() == ref.tobytes()
    assert all(hermitian._norm(a) == r for a, r in zip(A[:50], ref))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_holonomy_stack_matches_row_calls(p, rng):
    """The kernel gives the same bytes on a stack as on each of its rows,
    degenerate rows included, so a stream cut into blocks reads the same.
    A 1-D call, the path of ``triangle_area``, takes numpy's scalar complex
    product and modulus, which can differ in the last bit from the array
    loops: it gets the same flag, and its phase agrees within the rounding
    bound."""
    model = HermitianModel(p)
    eps = np.finfo(float).eps
    X, Y, Z = VisualMeasure(model).sample_lifts(600, rng=rng).reshape(3, 200, model.dim)
    Y[:10] = X[:10]  # a null lift pairs to zero with itself
    Z[10:20] = 1e-7 * X[10:20] + Y[10:20] * np.exp(1.3j)
    phase, cond, degenerate = hermitian._holonomy(X, Y, Z)
    assert degenerate[:10].all() and not degenerate[20:].any()
    for i in range(len(X)):
        row = hermitian._holonomy(X[i : i + 1], Y[i : i + 1], Z[i : i + 1])
        assert (row[0][0], row[1][0], row[2][0]) == (phase[i], cond[i], degenerate[i])
        ph, c, deg = hermitian._holonomy(X[i], Y[i], Z[i])
        assert deg == degenerate[i]
        if not deg:
            assert abs(c - cond[i]) <= 4 * eps * c
            assert abs(ph - phase[i]) <= (model.dim + 2) * eps * c


def test_nan_lift_raises_at_the_area_gate(rng):
    model = HermitianModel(2)
    x, y, z = random_interior(model, rng), random_boundary(model, rng), random_boundary(model, rng)
    # a NaN that reaches the kernel past ProjPoint's check gives a NaN bound
    z.lift = np.array([np.nan, 0.0, 1.0], dtype=complex)
    with pytest.raises(ValueError, match="rounding bound nan"), np.errstate(invalid="ignore"):
        triangle_area(model, x, y, z, tol=np.inf)


def _near_ideal_pair(model, rng, sep):
    """Two ideal points `sep` apart along the unit sphere, in a direction
    orthogonal to the first point (their pairing is about sep^2 / 4)."""
    u = random_boundary(model, rng).lift[:-1] * np.sqrt(2)
    w = rng.normal(size=model.p) + 1j * rng.normal(size=model.p)
    w -= np.vdot(u, w) * u
    w /= np.linalg.norm(w)
    a, b = (np.append(v, 1.0) / np.sqrt(2) for v in (u, np.cos(sep) * u + np.sin(sep) * w))
    return ProjPoint(a, model=model, kind="boundary"), ProjPoint(b, model=model, kind="boundary")


def _long_double_area(model, pts):
    # the same lifts, paired in extended precision
    X, Y, Z = (np.asarray(p.lift, dtype=np.clongdouble) for p in pts)

    def herm(A, B):
        return np.sum(A[:-1] * np.conj(B[:-1])) - A[-1] * np.conj(B[-1])

    t = herm(X, Y) * herm(Y, Z) * herm(Z, X)
    return float(model.metric_scale / 2.0 * np.arctan2(-t.imag, -t.real))


def test_near_coincident_ideal_vertices_raise(rng):
    model = HermitianModel(2)
    x, y = _near_ideal_pair(model, rng, 1e-5)
    assert not x.same_point_as(y)
    z = random_interior(model, rng)
    with pytest.raises(ValueError, match="rounding bound"):
        triangle_area(model, x, y, z, tol=1e-6)
    # a caller that accepts the rounding gets the value and its bound
    res = triangle_area(model, x, y, z, tol=1.0)
    assert 1e-6 < res.err_estimate < 1.0


@pytest.mark.parametrize("p", [2, 3])
def test_err_estimate_bounds_rounding(p, rng):
    model = HermitianModel(p)
    for sep in 10.0 ** -np.arange(1, 7):
        for k in range(10):
            x, y = _near_ideal_pair(model, rng, sep)
            z = random_boundary(model, rng) if k % 2 else random_interior(model, rng)
            res = triangle_area(model, x, y, z, tol=1.0)
            assert abs(res.value - _long_double_area(model, [x, y, z])) <= res.err_estimate


def test_err_estimate_small_on_random_triangles(rng):
    for model, pts in _pattern_triangles(rng, per_pattern=10):
        res = triangle_area(model, *pts, tol=1e-8)
        assert res.err_estimate <= 1e-12
        assert abs(res.value - _long_double_area(model, pts)) <= res.err_estimate


def test_nan_area_fails_area_cartan(monkeypatch):
    monkeypatch.setattr(verify, "triangle_area", lambda *a, **k: TriangleArea(np.nan, 0.0))
    r = verify.crit04_area_cartan_agreement(n_triples=3)
    assert np.isnan(r["worst_gap"]) and not r["passed"]


@st.composite
def _mixed_points(draw, n):
    """A model with p = 1..3 and n random points, each interior or ideal."""
    model = HermitianModel(draw(st.integers(1, 3)))
    ideal = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pts = [random_boundary(model, rng) if b else random_interior(model, rng, spread=0.95) for b in ideal]
    return model, pts


@settings(max_examples=200, deadline=None)
@given(_mixed_points(4))
def test_area_cocycle_identity(case):
    model, (x, y, z, w) = case

    def A(*pts):
        return triangle_area(model, *pts).value

    assert abs(A(y, z, w) - A(x, z, w) + A(x, y, w) - A(x, y, z)) < 1e-12


@settings(max_examples=100, deadline=None)
@given(_mixed_points(3), st.integers(0, 10_000))
def test_area_isometry_invariant(case, seed):
    model, pts = case
    g = random_isometry(model.p, seed=seed)
    moved = [apply_isometry(g, pt) for pt in pts]
    assert abs(triangle_area(model, *moved).value - triangle_area(model, *pts).value) < 1e-10


@settings(max_examples=100, deadline=None)
@given(_mixed_points(3))
def test_area_transposition_flips_sign(case):
    model, (x, y, z) = case
    a = triangle_area(model, x, y, z).value
    assert abs(triangle_area(model, y, x, z).value + a) < 1e-12
    assert abs(triangle_area(model, x, z, y).value + a) < 1e-12
