import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.integrate import quad

from chaingeo import (
    HermitianModel,
    Isometry,
    VisualMeasure,
    busemann,
    e_xi,
    measure_transform_check,
    random_isometry,
    unit_mass_check,
    volume_entropy,
)
from chaingeo import verify
from chaingeo.busemann import (
    _BLOCK_ROWS,
    _poisson_exponent,
    _row_blocks,
    _unit_rows,
    busemann_kappa,
    busemann_lifts,
    e_xi_lifts,
)

from conftest import random_boundary, random_interior, run_python
from distance_oracle import distance, ray
from stream_oracle import whole_array_lifts

EPS = np.finfo(float).eps


def test_busemann_closed_form_vs_distance_limit(plane2, rng):
    # the closed form with kappa = sqrt(s)/2 must agree with the
    # t -> infinity definition on fresh random configurations; the ray runs
    # to scale-4 arclength 20, inside the range (about 23) beyond which an
    # interior point's normalized lift is null to TOL_NULL
    for model in (plane2, HermitianModel(2, metric_scale=16.0)):
        for _ in range(5):
            xi = random_boundary(model, rng)
            x = random_interior(model, rng)
            y = random_interior(model, rng)
            closed = busemann(model, xi, x, y)
            far = ray(model, y, xi, 10.0 * model.metric_scale**0.5)
            limit = distance(model, x, far) - distance(model, y, far)
            assert abs(closed - limit) < 1e-5


def test_busemann_zero_and_ray(plane2, rng):
    xi = random_boundary(plane2, rng)
    x = random_interior(plane2, rng)
    assert busemann(plane2, xi, x, x) == 0.0
    y = random_interior(plane2, rng)
    g1 = ray(plane2, y, xi, 1.0)
    assert abs(busemann(plane2, xi, g1, y) - (-1.0)) < 1e-6


def test_busemann_cocycle_exact(plane2, rng):
    xi = random_boundary(plane2, rng)
    x, y, z = (random_interior(plane2, rng) for _ in range(3))
    lhs = busemann(plane2, xi, x, y) + busemann(plane2, xi, y, z)
    assert abs(lhs - busemann(plane2, xi, x, z)) < 1e-12


def test_busemann_rejects_interior_direction(plane2, rng):
    x, y = random_interior(plane2, rng), random_interior(plane2, rng)
    with pytest.raises(ValueError):
        busemann(plane2, x, x, y)


def test_kappa_scales_with_metric(rng):
    k4 = busemann_kappa(HermitianModel(2))
    k16 = busemann_kappa(HermitianModel(2, metric_scale=16.0))
    assert_allclose(k4, 1.0, atol=1e-9)
    assert_allclose(k16, 2.0, atol=1e-9)


def test_exi_normalizations(plane2, rng):
    for model in (plane2, HermitianModel(2, metric_scale=16.0)):
        ent = volume_entropy(model)
        xi = random_boundary(model, rng)
        assert_allclose(e_xi(model, ent, xi, model.basepoint()), 1.0, atol=1e-12)
        t = 0.9
        toward = ray(model, model.basepoint(), xi, t)
        assert_allclose(e_xi(model, ent, xi, toward), np.exp(ent.value * t), rtol=1e-6)


def test_exi_unit_mass(plane2, rng):
    # off the default scale too: a mis-scaled entropy shows at s = 100
    for model in (plane2, HermitianModel(2, metric_scale=100.0)):
        ent = volume_entropy(model)
        for k in range(3):
            x = random_interior(model, rng)
            est, err = unit_mass_check(model, ent, x, n_samples=100_000, seed=k)
            assert abs(est - 1.0) < 3 * err, (model.metric_scale, k, est, err)


def test_volume_entropy_values():
    e1 = volume_entropy(HermitianModel(1))
    e2 = volume_entropy(HermitianModel(2))
    assert abs(e1.value - 1.0) < 0.02 * 1.0
    assert abs(e2.value - 2.0) < 0.02 * 2.0


def test_volume_entropy_metric_scaling():
    # scaling distances by 2 (metric_scale x4) halves the growth exponent
    base = volume_entropy(HermitianModel(2))
    scaled = volume_entropy(HermitianModel(2, metric_scale=16.0))
    assert_allclose(scaled.value, base.value / 2.0, rtol=1e-3)


def _ball_growth_entropy(model):
    """Oracle: slope of log vol B(r) = c + h r + b exp(-2r/sqrt(s)), fitted
    on 41 radii in [2.5, 7.5] sqrt(s), with the volumes integrated from the
    radial density in geodesic polar coordinates (one Jacobi direction of
    curvature -4/s, 2p-2 of curvature -1/s).  The window scales with sqrt(s),
    so the fit has the same relative error at every scale."""
    root_s = np.sqrt(model.metric_scale)

    def density(t):
        return np.sinh(2.0 * t / root_s) * np.sinh(t / root_s) ** (2 * model.p - 2)

    rs = np.linspace(2.5, 7.5, 41) * root_s
    edges = np.concatenate([[0.0], rs])
    pieces = [quad(density, a, b, limit=200)[0] for a, b in zip(edges[:-1], edges[1:])]
    logv = np.log(np.cumsum(pieces))
    design = np.column_stack([np.ones_like(rs), rs, np.exp(-2.0 * rs / root_s)])
    coef, *_ = np.linalg.lstsq(design, logv, rcond=None)
    return coef[1]


@pytest.mark.parametrize("s", [0.25, 1.0, 4.0, 16.0, 100.0])
def test_closed_forms_match_ball_growth_oracle(s):
    for p in range(1, 5):
        model = HermitianModel(p, metric_scale=s)
        ent = volume_entropy(model)
        assert ent.value == 2 * p / np.sqrt(s) and ent.p == p
        assert busemann_kappa(model) == np.sqrt(s) / 2
        assert_allclose(_ball_growth_entropy(model), ent.value, rtol=1e-5)


def test_import_leaves_out_scipy():
    # the library is numpy-only; scipy is a test dependency
    code = "import sys, chaingeo; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    assert run_python("-c", code).stdout.strip() == b"[]"


def test_visual_measure_samples_are_boundary(plane2):
    nu = VisualMeasure(plane2, seed=4)
    for p in nu.sample_points(20):
        assert p.is_boundary


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_sample_lifts_match_two_normal_draws(p):
    """One standard_normal((2, n, p)) draw gives the lifts of the two
    normal(size=(n, p)) calls, bit for bit."""
    lifts = VisualMeasure(HermitianModel(p), seed=5).sample_lifts(1000)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(1000, p)) + 1j * rng.normal(size=(1000, p))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    want = np.concatenate([u, np.ones((1000, 1), dtype=complex)], axis=1) / np.sqrt(2.0)
    assert lifts.tobytes() == want.tobytes()


def _assert_exp_log_weight(e, hB):
    """The Poisson-power weight against its exp-log form exp(-h B): the
    power is exact to rounding, and exp turns B's rounding, relative to
    |h B|, into a relative error of the weight."""
    want = np.exp(-hB)
    assert np.all(np.abs(e - want) <= 16 * EPS * (1 + np.abs(hB)) * want)


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
def test_exi_lifts_match_basepoint_pairing(p):
    """Reading <xi, O> off the last coordinate gives the weights of the
    cocycle against the origin's lift, exp(-h B_xi(x, 0)), to rounding, at
    several metric scales, also on scaled lifts and through the one-point
    ``e_xi``."""
    for s in (1.0, 4.0, 5.0, 16.0):
        model = HermitianModel(p, metric_scale=s)
        ent = volume_entropy(model)
        x = random_interior(model, np.random.default_rng(p))
        origin = model.basepoint()
        nu = VisualMeasure(model, seed=p)
        lifts = nu.sample_lifts(1000)
        for xi in (lifts, lifts * 1e-3 * np.exp(0.9j)):
            hB = ent.value * busemann_lifts(model, xi, x.lift, origin.lift)
            _assert_exp_log_weight(e_xi_lifts(model, ent, xi, x.lift), hB)
        for xi in nu.sample_points(200):
            _assert_exp_log_weight(e_xi(model, ent, xi, x), ent.value * busemann(model, xi, x, origin))


@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 4.0, 5.0, 7.3, 16.0])
def test_weight_exponent_is_p(s):
    # h kappa = (2p / sqrt(s)) (sqrt(s) / 2) = p, so the weight is the p-th
    # power of the Poisson kernel at every metric scale
    for p in (1, 2, 3, 4, 5):
        model = HermitianModel(p, metric_scale=s)
        assert abs(volume_entropy(model).value * busemann_kappa(model) - p) <= 2 * EPS * p


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_integer_weight_exponent_gives_the_float_power_bytes(p):
    # at the default scale h kappa = p exactly and the kernel is raised to
    # the int p, which numpy squares in half the time of the float power
    model = HermitianModel(p)
    kernel = np.random.default_rng(p).uniform(1e-3, 1e3, size=(6, 5000))
    assert (kernel ** _poisson_exponent(model, volume_entropy(model))).tobytes() == (kernel ** float(p)).tobytes()


def test_visual_measure_rotation_invariance_chisquare():
    disc = HermitianModel(1)
    nu = VisualMeasure(disc, seed=8)
    lifts = nu.sample_lifts(100_000)
    angles = np.angle(lifts[:, 0] / lifts[:, 1])
    hist, _ = np.histogram(angles, bins=24, range=(-np.pi, np.pi))
    _, pval = stats.chisquare(hist)
    assert pval > 0.01


def test_measure_transform_identity_and_unitary(plane2):
    ent = volume_entropy(plane2)
    gid = random_isometry(2, seed=0, sigma=0.0)
    z = measure_transform_check(plane2, gid, n_samples=20_000, seed=1, entropy=ent)
    assert z < 1e-9
    gu = Isometry(np.diag(np.exp(1j * np.array([0.9, -0.4, 0.0]))), 2)
    z2 = measure_transform_check(plane2, gu, n_samples=50_000, seed=1, entropy=ent)
    assert z2 < 3.0


def test_measure_transform_random_isometries(plane2):
    ent = volume_entropy(plane2)
    for k in range(3):
        g = random_isometry(2, seed=100 + k)
        z = measure_transform_check(plane2, g, n_samples=100_000, seed=k, entropy=ent)
        assert z < 3.0, (k, z)


def test_measure_transform_negative_control(plane2):
    # the transformation law must fail when the exponent is mistuned
    ent = volume_entropy(plane2)
    g = random_isometry(2, seed=42)
    z = measure_transform_check(
        plane2, g, n_samples=100_000, seed=3, entropy=ent, h_override=1.3 * ent.value
    )
    assert z > 3.0


def test_nan_unit_mass_fails_busemann_criterion(monkeypatch):
    monkeypatch.setattr(verify, "unit_mass_check", lambda *a, **k: (np.nan, 0.01))
    r = verify.crit05_busemann_machinery(n_samples=2_000, n_points=2, n_isoms=1)
    assert np.isnan(r["unit_mass_worst_z"]) and not r["passed"]


@pytest.mark.parametrize("p", [1, 2, 3])
def test_blockwise_sampler_gives_the_whole_array_bytes(p):
    model = HermitianModel(p)
    for n in (0, 1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 65537, 200_000):
        got = VisualMeasure(model, seed=7).sample_lifts(n)
        want = whole_array_lifts(model, n, np.random.default_rng(7))
        assert got.shape == want.shape == (n, p + 1) and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6, 7, 8, 11])
def test_unit_rows_give_the_bytes_of_linalg_norm(p):
    # the one normaliser sums squared moduli column by column in order;
    # np.linalg.norm's reduce over rows of fewer than 8 terms adds the same
    # terms in the same order, and longer rows take np.linalg.norm itself
    for n in (1, 2_000, 131_073):
        g = np.random.default_rng(p).standard_normal((2, n, p))
        u = g[0] + 1j * g[1]
        assert _unit_rows(g).tobytes() == (u / np.linalg.norm(u, axis=1, keepdims=True)).tobytes()


def test_row_blocks_are_equal_and_cover():
    assert _row_blocks(0) == []
    for n in (1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 131_073, 200_000):
        sizes = [r.stop - r.start for r in _row_blocks(n)]
        assert len(sizes) == -(-n // _BLOCK_ROWS) and sum(sizes) == n
        assert max(sizes) <= _BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        assert [r.start for r in _row_blocks(n)][1:] == list(np.cumsum(sizes)[:-1])
    assert sorted(r.stop - r.start for r in _row_blocks(200_000)) == [15_384] * 5 + [15_385] * 8
