import dataclasses
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from chaingeo import (
    BoundaryCocycle,
    BoundaryMapHandle,
    HermitianModel,
    apply_isometry,
    chain_formula_check,
    delta_form_eval,
    delta_form_field,
    exterior_derivative_fd,
    metric_and_kahler,
    pullback_kappa_form,
    random_isometry,
    standard_embedding,
    volume_entropy,
)
from chaingeo import forms, verify
from chaingeo.busemann import _BLOCK_ROWS, VisualMeasure, _row_blocks, e_xi_lifts
from chaingeo.chains import cartan_triple_lifts
from chaingeo.hermitian import _herm

from conftest import apply_tangent, random_boundary, random_interior, random_tangent, run_python
from stream_oracle import whole_array_eval, whole_array_lifts

N_MC = 60_000


@pytest.fixture(scope="module")
def setup():
    model = HermitianModel(2)
    return model, volume_entropy(model)


def test_zero_cocycle_gives_zero(setup, rng):
    model, ent = setup
    zero = BoundaryCocycle(3, lambda a, b, c: np.zeros(len(a)), 0.0)
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    fe = delta_form_eval(model, ent, zero, x, [u, v], n_samples=N_MC, seed=0)
    assert fe.value == 0.0


def test_constant_cocycle_vanishes(setup, rng):
    model, ent = setup
    const = BoundaryCocycle(3, lambda a, b, c: np.ones(len(a)), 1.0)
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    fe = delta_form_eval(model, ent, const, x, [u, v], n_samples=N_MC, seed=1)
    assert abs(fe.value) < 3 * fe.mc_stderr
    const1 = BoundaryCocycle(2, lambda a, b: np.ones(len(a)), 1.0)
    fe1 = delta_form_eval(model, ent, const1, x, [u], n_samples=N_MC, seed=1)
    assert abs(fe1.value) < 3 * fe1.mc_stderr


def test_form_at_a_boundary_point_raises(setup, rng):
    # the weights and the direction field are singular at the boundary; the
    # exp-log weight gave NaN there, the Poisson power a finite 0
    model, ent = setup
    c0 = BoundaryCocycle(1, lambda a: np.ones(len(a)), 1.0)
    with pytest.raises(ValueError, match="interior"):
        delta_form_eval(model, ent, c0, random_boundary(model, rng), [], n_samples=2_000, seed=2)


def test_degree_zero_is_weighted_average(setup, rng):
    model, ent = setup
    c0 = BoundaryCocycle(1, lambda a: np.ones(len(a)), 1.0)
    x = random_interior(model, rng)
    fe = delta_form_eval(model, ent, c0, x, [], n_samples=N_MC, seed=2)
    assert abs(fe.value - 1.0) < 3 * fe.mc_stderr  # unit mass of the weights


def test_antisymmetry_exact_with_crn(setup, rng):
    model, ent = setup
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    f1 = pullback_kappa_form(model, ent, phi, x, u, v, n_samples=N_MC, seed=3)
    f2 = pullback_kappa_form(model, ent, phi, x, v, u, n_samples=N_MC, seed=3)
    assert f1.value == -f2.value  # shared sample stream: exact


def test_norm_bound_inequality(setup, rng):
    model, ent = setup
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)
    for k in range(5):
        x = random_interior(model, rng)
        u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
        fe = pullback_kappa_form(model, ent, phi, x, u, v, n_samples=N_MC, seed=4 + k)
        assert fe.bound_satisfied


def test_constant_boundary_map_vanishes(setup, rng):
    model, ent = setup
    target = random_boundary(HermitianModel(3), rng)

    def const_map(lifts):
        return np.broadcast_to(target.lift, (len(lifts), 4)).copy()

    phi = BoundaryMapHandle(const_map, 2, 3, equivariant=True)
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    fe = pullback_kappa_form(model, ent, phi, x, u, v, n_samples=N_MC, seed=9)
    assert abs(fe.value) < 3 * fe.mc_stderr + 1e-12


def test_equivariance_under_source_group(setup, rng):
    model, ent = setup
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)
    x = random_interior(model, rng, spread=0.4)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    base = pullback_kappa_form(model, ent, phi, x, u, v, n_samples=200_000, seed=5)
    g = random_isometry(2, seed=6, sigma=0.5)
    gx = apply_isometry(g, x)
    gu = apply_tangent(g, model, u)
    gv = apply_tangent(g, model, v)
    moved = pullback_kappa_form(model, ent, phi, gx, gu, gv, n_samples=200_000, seed=5)
    sigma = np.hypot(base.mc_stderr, moved.mc_stderr)
    assert abs(base.value - moved.value) < 3 * sigma


def test_pulled_back_form_is_kahler_over_pi():
    # the pulled-back angular cocycle of a holomorphic embedding gives the
    # Kahler form over pi, and the conjugate embedding its negative: six
    # frames per map, each on a sample stream of its own, give 24 z-scores
    # against the omega of metric_and_kahler
    zs = []
    for p, q, sign in ((1, 1, 1.0), (2, 2, 1.0), (2, 3, 1.0), (2, 3, -1.0)):
        model = HermitianModel(p)
        ent = volume_entropy(model)
        phi = BoundaryMapHandle.from_embedding(standard_embedding(p, q), conjugate=sign < 0)
        rng = np.random.default_rng([p, q, int(sign < 0)])
        for _ in range(6):
            x = random_interior(model, rng, spread=0.6)
            u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
            _, omega = metric_and_kahler(model, x, u, v)
            fe = pullback_kappa_form(model, ent, phi, x, u, v, n_samples=100_000, seed=len(zs) + 1)
            zs.append((fe.value - sign * omega / np.pi) / fe.mc_stderr)
    assert max(map(abs, zs)) <= 4.0, zs
    assert 0.6 <= np.std(zs) <= 1.5, zs


def test_exterior_derivative_of_kahler_form_is_zero(setup, rng):
    model, ent = setup

    def kahler_field(x, t1, t2):
        return metric_and_kahler(model, x, t1, t2)[1]

    x = random_interior(model, rng)
    u, v, w = (random_tangent(model, rng, x) for _ in range(3))
    val, sig, step = exterior_derivative_fd(kahler_field, model, x, u, v, w, step=1e-3)
    assert sig == 0.0
    assert abs(val) < 200 * step**2


def test_closedness_of_pullback_form(setup, rng):
    model, ent = setup
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)

    def ev(l0, l1, l2):
        return cartan_triple_lifts(phi(l0), phi(l1), phi(l2))

    c = BoundaryCocycle(3, ev, 1.0, alternating=True)
    field = delta_form_field(model, ent, c, n_samples=200_000, seed=11)
    evaluations = []

    def recording(*args):
        fe = field(*args)
        evaluations.append(fe.batch_means)
        return fe

    x = random_interior(model, rng, spread=0.5)
    u, v, w = (random_tangent(model, rng, x) for _ in range(3))
    val, sig, step = exterior_derivative_fd(recording, model, x, u, v, w, step=1e-3)
    assert abs(val) < 4 * sig + 100 * step**2
    # the stderr is that of the batch-wise differences of the stencil
    tot = sum(
        sign * (evaluations[2 * k] - evaluations[2 * k + 1]) / (2 * step)
        for k, sign in enumerate((1.0, -1.0, 1.0))
    )
    assert_allclose(sig, tot.std(ddof=1) / np.sqrt(len(tot)), rtol=1e-12)


def test_delta_commutes_with_d(setup, rng):
    # both sides by independent Monte-Carlo estimators: delta^2(d c1) at
    # (x; u, v) vs the finite-difference exterior derivative of the 1-form
    # delta^1(c1)
    model, ent = setup
    refs = rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
    refs /= np.linalg.norm(refs, axis=1, keepdims=True)

    def c1_ev(l0, l1):
        a = np.abs(l0 @ np.conj(refs[0])) / np.linalg.norm(l0, axis=1)
        b = np.abs(l1 @ np.conj(refs[1])) / np.linalg.norm(l1, axis=1)
        return np.sin(2 * a + 3 * b)

    c1 = BoundaryCocycle(2, c1_ev, 1.0)

    def dc1_ev(l0, l1, l2):
        return c1_ev(l1, l2) - c1_ev(l0, l2) + c1_ev(l0, l1)

    dc1 = BoundaryCocycle(3, dc1_ev, 3.0)
    x = random_interior(model, rng, spread=0.4)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    lhs = delta_form_eval(model, ent, dc1, x, [u, v], n_samples=400_000, seed=13)

    # FD exterior derivative of the 1-form alpha = delta^1(c1):
    # d alpha(u, v) = D_u[alpha(V)] - D_v[alpha(U)] in the geodesic chart
    from chaingeo.forms import _chart_tangent

    step = 2e-3
    dirs = (u, v)
    terms = []
    for k, sign in ((0, +1.0), (1, -1.0)):
        other = 1 - k
        pos = [0.0, 0.0]
        pos[k] = step
        neg = [0.0, 0.0]
        neg[k] = -step
        bp, tp = _chart_tangent(model, x, dirs, pos, other)
        bm, tm = _chart_tangent(model, x, dirs, neg, other)
        fp = delta_form_eval(model, ent, c1, bp, [tp], n_samples=400_000, seed=13)
        fm = delta_form_eval(model, ent, c1, bm, [tm], n_samples=400_000, seed=13)
        diff = (fp.batch_means - fm.batch_means) / (2 * step)
        terms.append(sign * diff)
    rhs_batches = terms[0] + terms[1]
    rhs = float(rhs_batches.mean())
    sig = np.hypot(
        lhs.mc_stderr, float(rhs_batches.std(ddof=1) / np.sqrt(len(rhs_batches)))
    )
    assert abs(lhs.value - rhs) < 4 * sig + 200 * step**2


def test_chain_formula_signs(setup):
    model, _ = setup
    mq = HermitianModel(3)
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)
    assert chain_formula_check(model, mq, phi, +1, n_chains=20, seed=0) < 1e-8
    phic = BoundaryMapHandle.from_embedding(emb, conjugate=True)
    assert chain_formula_check(model, mq, phic, -1, n_chains=20, seed=0) < 1e-8
    # harness negative control: asserting i = 0 must leave a unit residual
    assert chain_formula_check(model, mq, phi, 0, n_chains=10, seed=0) > 0.5


def test_chain_formula_refuses_nonequivariant(setup):
    model, _ = setup
    W = standard_embedding(2, 3).matrix
    # the closed form of the embedding, but not declared equivariant
    phi = BoundaryMapHandle(lambda lifts: lifts @ W.T, 2, 3)
    with pytest.raises(ValueError):
        chain_formula_check(model, HermitianModel(3), phi, +1)


def test_composed_handle_matches_pushforward(setup, rng):
    model, ent = setup
    emb = standard_embedding(2, 3)
    g = random_isometry(3, seed=8)
    phi = BoundaryMapHandle.from_embedding(emb, post=g)
    b = random_boundary(model, rng)
    out = phi(b.lift[None])[0]
    expected = g.matrix @ (emb.matrix @ b.lift)
    assert_allclose(out, expected, atol=1e-12)


def test_fd_step_warning(setup, rng):
    model, ent = setup
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)

    def ev(l0, l1, l2):
        return cartan_triple_lifts(phi(l0), phi(l1), phi(l2))

    c = BoundaryCocycle(3, ev, 1.0)
    field = delta_form_field(model, ent, c, n_samples=2_000, seed=17)
    x = random_interior(model, rng, spread=0.3)
    u, v, w = (random_tangent(model, rng, x) for _ in range(3))
    with pytest.warns(RuntimeWarning):
        exterior_derivative_fd(field, model, x, u, v, w, step=1e-5)


@pytest.mark.parametrize("n_samples", [0, 10])
def test_too_few_samples_for_the_batches_raise(setup, rng, n_samples):
    # each of the 20 batch means needs a sample; empty batches gave NaN
    model, ent = setup
    x = random_interior(model, rng)
    c = _sine_cocycle(rng, 3)
    with pytest.raises(ValueError, match="batches"):
        delta_form_eval(model, ent, c, x, [random_tangent(model, rng, x)] * 2, n_samples=n_samples)


def test_cocycle_rejects_bound_violation(setup, rng):
    model, _ = setup
    liar = BoundaryCocycle(3, lambda a, b, c: 2.0 * np.ones(len(a)), 1.0)
    lifts = np.stack([random_boundary(model, rng).lift for _ in range(4)])
    with pytest.raises(ValueError):
        liar(lifts, lifts, lifts)


def test_cocycle_rejects_non_finite_values(setup, rng):
    model, _ = setup
    lifts = np.stack([random_boundary(model, rng).lift for _ in range(4)])
    for bad in (np.nan, np.inf):
        c = BoundaryCocycle(3, lambda a, b, c_, bad=bad: np.full(len(a), bad), 1.0)
        with pytest.raises(ValueError):
            c(lifts, lifts, lifts)


def _sine_cocycle(rng, arity, dim=3):
    refs = rng.normal(size=(arity, dim)) + 1j * rng.normal(size=(arity, dim))

    def ev(*lifts):
        acc = sum(
            (k + 1.5) * np.abs(l @ np.conj(w)) / np.linalg.norm(l, axis=1)
            for k, (l, w) in enumerate(zip(lifts, refs))
        )
        return np.sin(acc)

    return BoundaryCocycle(arity, ev, 1.0)


@pytest.mark.parametrize("degree", [0, 1, 2])
def test_field_matches_eval_on_one_stream(setup, rng, degree):
    model, ent = setup
    c = _sine_cocycle(rng, degree + 1)
    field = delta_form_field(model, ent, c, n_samples=N_MC, seed=21)
    for _ in range(3):
        x = random_interior(model, rng)
        vs = [random_tangent(model, rng, x) for _ in range(degree)]
        a = field(x, *vs)
        b = delta_form_eval(model, ent, c, x, vs, n_samples=N_MC, seed=21)
        assert_allclose([a.value, a.mc_stderr], [b.value, b.mc_stderr], rtol=1e-12, atol=0)
        assert_allclose(a.batch_means, b.batch_means, rtol=1e-12, atol=0)


@pytest.fixture
def drawn(monkeypatch):
    """The rows of every normal draw of a sample stream, one draw of
    (2, N, p) normals per sample array."""
    rows = []
    original = forms._draw

    def counting(gen, out):
        rows.append(out.shape[1])
        original(gen, out)

    monkeypatch.setattr(forms, "_draw", counting)
    return rows


def test_field_draws_its_stream_once(setup, rng, drawn):
    model, ent = setup
    field = delta_form_field(model, ent, _sine_cocycle(rng, 3), n_samples=N_MC, seed=22)
    for _ in range(4):
        x = random_interior(model, rng)
        field(x, random_tangent(model, rng, x), random_tangent(model, rng, x))
    assert drawn == [N_MC] * 3


def test_eval_matches_direction_field_estimator(setup, rng):
    # independent oracle: the estimator with the unit tangents U_xi toward
    # every sample materialised, (de^xi)(v) = h s Re<v, U_xi> e^xi
    model, ent = setup
    phi = BoundaryMapHandle.from_embedding(standard_embedding(2, 3))
    c = BoundaryCocycle(3, lambda a, b, c_: cartan_triple_lifts(phi(a), phi(b), phi(c_)), 1.0)
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    fe = delta_form_eval(model, ent, c, x, [u, v], n_samples=N_MC, seed=24)

    nu = VisualMeasure(model, seed=24)
    draw = np.random.default_rng(24)
    xis = [nu.sample_lifts(N_MC, rng=draw) for _ in range(3)]
    X, s, h = x.lift, model.metric_scale, ent.value
    de = []
    for xi in xis[1:]:
        pair = _herm(np.broadcast_to(X, xi.shape), xi)
        U = (xi * np.conj(-1.0 / pair)[:, None] - X) / np.sqrt(s)
        e = e_xi_lifts(model, ent, xi, X)
        de.append([h * s * _herm(np.broadcast_to(t.components, U.shape), U).real * e for t in (u, v)])
    integrand = c(*xis) * e_xi_lifts(model, ent, xis[0], X)
    integrand = integrand * (de[0][0] * de[1][1] - de[0][1] * de[1][0])
    batches = integrand.reshape(20, -1).mean(axis=1)
    assert_allclose(fe.batch_means, batches, rtol=1e-12, atol=0)


def test_nan_boundary_map_fails_chain_formula(setup, monkeypatch):
    model, _ = setup
    phi = BoundaryMapHandle(lambda l: np.full((len(l), 4), np.nan + 0j), 2, 3, equivariant=True)
    assert np.isnan(chain_formula_check(model, HermitianModel(3), phi, +1, n_chains=3, seed=0))
    monkeypatch.setattr(
        BoundaryMapHandle, "from_embedding", staticmethod(lambda *a, **k: phi)
    )
    r = verify.crit09_chain_formula(n_chains=3, triples_per_chain=2)
    assert np.isnan(r["residual_plus"]) and np.isnan(r["residual_minus"])
    assert not r["passed"]


def test_nan_form_values_show_in_form_criteria(monkeypatch):
    real_eval = verify.delta_form_eval

    def nan_eval(*args, **kwargs):
        return dataclasses.replace(real_eval(*args, **kwargs), value=np.nan)

    monkeypatch.setattr(verify, "delta_form_eval", nan_eval)
    r6 = verify.crit06_delta_form_bound(n_points=2, n_samples=2_000)
    assert np.isnan(r6["worst_bound_excess"]) and not r6["passed"]

    monkeypatch.setattr(
        verify, "exterior_derivative_fd", lambda *a, step, **k: (np.nan, np.nan, step)
    )
    r7 = verify.crit07_closedness(n_points=2, n_samples=2_000)
    assert np.isnan(r7["worst_abs_d"]) and np.isnan(r7["worst_tolerance"])
    assert not r7["passed"]


def _pulled_back_angular_cocycle():
    phi = BoundaryMapHandle.from_embedding(standard_embedding(2, 3))
    return BoundaryCocycle(3, lambda a, b, c_: cartan_triple_lifts(phi(a), phi(b), phi(c_)), 1.0)


@pytest.mark.parametrize("n_samples", [200_000, 131_073])
@pytest.mark.parametrize("degree", [1, 2])
def test_blockwise_eval_gives_the_whole_array_bytes(setup, rng, monkeypatch, degree, n_samples):
    # every evaluation block size, the whole array included, gives the same
    # bytes; the complex exp-log oracle agrees to rounding
    model, ent = setup
    c = _pulled_back_angular_cocycle() if degree == 2 else _sine_cocycle(rng, 2)
    x = random_interior(model, rng)
    vs = [random_tangent(model, rng, x) for _ in range(degree)]
    got = []
    for rows in (n_samples, 65536, 8192, 1000):
        monkeypatch.setattr(forms, "_EVAL_ROWS", rows)
        got.append(delta_form_eval(model, ent, c, x, vs, n_samples=n_samples, seed=31))
    for fe in got[1:]:
        assert fe.value == got[0].value and fe.mc_stderr == got[0].mc_stderr
        assert fe.batch_means.tobytes() == got[0].batch_means.tobytes()
    _, _, batches = whole_array_eval(model, ent, c, x, vs, n_samples, seed=31)
    assert np.max(np.abs(got[0].batch_means - batches)) <= 1e-13 * np.max(np.abs(batches))


def test_cocycle_sees_at_most_one_block(setup, rng):
    model, ent = setup
    seen = []
    inner = _sine_cocycle(rng, 3)

    def spy(*lifts):
        seen.append(len(lifts[0]))
        return inner.evaluator(*lifts)

    c = BoundaryCocycle(3, spy, 1.0)
    field = delta_form_field(model, ent, c, n_samples=200_000, seed=32)
    x = random_interior(model, rng)
    field(x, random_tangent(model, rng, x), random_tangent(model, rng, x))
    assert max(seen) <= _BLOCK_ROWS and sum(seen) == 200_000


def test_field_memory_above_what_it_holds(setup, rng):
    # a blockwise stream holds its unit directions and values (19.8 MiB; the
    # full lifts held 29.0 MiB); its passes add at most one block of
    # temporaries.  Measured absolute peaks: the build 37.9 MiB (40.2 with
    # the full lifts, whole-array passes 79), one frame 22.0 and six frames
    # 32.2 MiB, most of it their six integrands (9.2 MiB) and one block of
    # pairings for all six
    model, ent = setup
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    c = _pulled_back_angular_cocycle()
    mib = 2**20
    tracemalloc.start()
    try:
        field = delta_form_field(model, ent, c, n_samples=200_000, seed=33)
        held, peak = tracemalloc.get_traced_memory()
        assert held <= 20 * mib and peak <= 39 * mib
        tracemalloc.reset_peak()
        field(x, u, v)
        _, peak = tracemalloc.get_traced_memory()
        assert peak <= 23 * mib
        tracemalloc.reset_peak()
        exterior_derivative_fd(field, model, x, u, v, random_tangent(model, rng, x))
        _, peak = tracemalloc.get_traced_memory()
        assert peak <= 33 * mib
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_each_frame_gets_the_bytes_of_its_own_call(rng, degree, p):
    # one pass over the stream for several frames gives each frame the
    # bytes of a one-frame call; at 131 073 and 200 000 samples the blocks'
    # row counts are not multiples of 16
    model = HermitianModel(p)
    ent = volume_entropy(model)
    c = _sine_cocycle(rng, degree + 1, dim=p + 1)
    for n_samples in (200_000, 131_073, 2_000):
        field = delta_form_field(model, ent, c, n_samples=n_samples, seed=34)
        frames = []
        for _ in range(3):
            x = random_interior(model, rng)
            frames.append((x, [random_tangent(model, rng, x) for _ in range(degree)]))
        for (x, vs), fe in zip(frames, field.evaluate(frames)):
            one = field(x, *vs)
            assert (fe.value, fe.mc_stderr, fe.bound) == (one.value, one.mc_stderr, one.bound)
            assert fe.batch_means.tobytes() == one.batch_means.tobytes()


def test_stencil_in_one_pass_gives_the_per_frame_bytes(setup, rng):
    model, ent = setup
    field = delta_form_field(model, ent, _pulled_back_angular_cocycle(), n_samples=N_MC, seed=35)
    x = random_interior(model, rng, spread=0.3)
    u, v, w = (random_tangent(model, rng, x) for _ in range(3))
    one_pass = exterior_derivative_fd(field, model, x, u, v, w, step=1e-2)
    per_frame = exterior_derivative_fd(lambda *a: field(*a), model, x, u, v, w, step=1e-2)
    assert np.array(one_pass).tobytes() == np.array(per_frame).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stream_lifts_end_in_one_over_sqrt2(rng, p, monkeypatch):
    # the evaluation reads |<xi, O>|^2, O = e_{p+1}, as the constant
    # (1/sqrt(2))^2: every lift block given to the cocycle ends in the
    # column 1/sqrt(2), and every transposed block given to the pairing
    # product in the rows 1/sqrt(2) and 0
    model = HermitianModel(p)
    inner = _sine_cocycle(rng, 3, dim=p + 1)
    r2, n = 1.0 / np.sqrt(2.0), 131_073
    last, tails = [], []

    def spy(*lifts):
        last.extend(l[:, -1].copy() for l in lifts)
        return inner.evaluator(*lifts)

    original = forms._SampleStream._transposed

    def transposed(self, k, r):
        t = original(self, k, r)
        tails.append(t[-2:].copy())
        return t

    monkeypatch.setattr(forms._SampleStream, "_transposed", transposed)
    field = delta_form_field(model, volume_entropy(model), BoundaryCocycle(3, spy, 1.0), n_samples=n, seed=36)
    x = random_interior(model, rng)
    field(x, random_tangent(model, rng, x), random_tangent(model, rng, x))
    assert np.concatenate(last).tobytes() == np.full(3 * n, r2 + 0j).tobytes()
    assert np.concatenate(tails, axis=1).tobytes() == np.tile([[r2], [0.0]], (1, 3 * n)).tobytes()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_stream_holds_the_sampler_bytes(p):
    # common random numbers across the two callers of the one normaliser:
    # the lifts a stream gives the cocycle and, transposed, the pairing
    # product are those of VisualMeasure.sample_lifts and of the
    # whole-array oracle on the same generator
    model = HermitianModel(p)
    for n in (200_000, 131_073, 2_000):
        seen = [[], [], []]

        def spy(*lifts):
            for blocks, l in zip(seen, lifts):
                blocks.append(l.copy())
            return np.zeros(len(lifts[0]))

        field = delta_form_field(model, volume_entropy(model), BoundaryCocycle(3, spy, 1.0), n_samples=n, seed=37)
        nu, draw, oracle_draw = VisualMeasure(model, seed=37), np.random.default_rng(37), np.random.default_rng(37)
        for k, blocks in enumerate(seen):
            want = nu.sample_lifts(n, rng=draw)
            assert np.concatenate(blocks).tobytes() == want.tobytes()
            assert whole_array_lifts(model, n, oracle_draw).tobytes() == want.tobytes()
            t = np.concatenate([field._transposed(k, r) for r in _row_blocks(n, rows=forms._EVAL_ROWS)], axis=1)
            assert t.tobytes() == np.ascontiguousarray(want.view(float).T).tobytes()


# one valid delta_form_eval, whose result must not depend on what the
# process ran before it
_VALID_CALL = """
import numpy as np
from chaingeo import BoundaryCocycle, HermitianModel, delta_form_eval, tangent, volume_entropy
model = HermitianModel(2)
x = model.basepoint()
vs = [tangent(model, x, w) for w in ([0.3, -0.2j, 0.1], [0.1 + 0.2j, 0.4, 0.0])]
c = BoundaryCocycle(3, lambda a, b, c_: np.sin(3 * a[:, 0].real + b[:, 1].imag - 2 * c_[:, 0].imag), 1.0)
fe = delta_form_eval(model, volume_entropy(model), c, x, vs, n_samples=50_000, seed=38)
out = (np.array([fe.value, fe.mc_stderr, fe.bound]).tobytes() + fe.batch_means.tobytes()).hex()
"""


def test_concurrent_calls_keep_their_bytes(setup, rng):
    # calls on more threads than cores share the one helper, with the
    # interpreter switching threads often; each keeps the bytes of its call
    # made alone
    model, ent = setup
    calls = []
    for seed in range(6):
        x = random_interior(model, rng)
        calls.append((_sine_cocycle(rng, 3), x, [random_tangent(model, rng, x) for _ in range(2)], seed))

    def run(c, x, vs, seed):
        fe = delta_form_eval(model, ent, c, x, vs, n_samples=20_000, seed=seed)
        return fe.batch_means.tobytes()

    want = [run(*call) for call in calls]
    got = [None] * len(calls)

    def worker(i):
        for k in range(i, len(calls), 4):
            got[k] = run(*calls[k])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_a_forked_child_gets_its_own_helper():
    # a child forked after a call has none of its parent's threads; with
    # the parent's helper it waited forever on its first draw
    code = f"""
import os, signal
CALL = {_VALID_CALL!r}
exec(CALL)
first = out
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child ends itself
    exec(CALL)
    os._exit(0 if out == first else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
    assert run_python("-c", code).stdout.strip() == b"0"


def test_a_call_during_interpreter_shutdown_runs_on_the_caller():
    # once the main thread has returned, the helper can neither be made
    # (cold) nor take work (warm); a call from a thread that outlives the
    # main thread, or from an atexit handler, runs the helper's work itself
    # and gives the bytes of a call made while the interpreter runs
    fresh = run_python("-c", _VALID_CALL + "print(out)").stdout.decode().strip()
    for warm in ("", "exec(CALL)"):
        code = f"""
import atexit, threading, time
CALL = {_VALID_CALL!r}
{warm}

def late():
    ns = {{}}
    exec(CALL, ns)
    print(ns["out"], flush=True)

def after_main():
    threading.main_thread().join()
    time.sleep(0.2)
    late()

atexit.register(late)
threading.Thread(target=after_main).start()
"""
        assert run_python("-c", code).stdout.decode().split() == [fresh, fresh]


def test_the_cocycle_gets_read_only_lifts(setup):
    # the stream reuses its lift buffers block by block, so a cocycle that
    # wrote into its input (here, dehomogenising) would corrupt the blocks
    # after it; it raises instead
    model, ent = setup

    def dehomogenise(a, b, c_):
        a /= a[:, -1:]
        return np.zeros(len(a))

    with pytest.raises(ValueError, match="read-only"):
        delta_form_field(model, ent, BoundaryCocycle(3, dehomogenise, 1.0), n_samples=1_000, seed=39)


def test_overlapped_eval_raises_and_recovers(setup, rng, drawn):
    # the cocycle's errors come from the calling thread while the helper
    # builds the frame's factors; frame errors come before any draw; after
    # each error a valid call gives the bytes of a fresh process
    model, ent = setup
    fresh = run_python("-c", _VALID_CALL + "print(out)").stdout.decode().strip()
    x = random_interior(model, rng)
    vs = [random_tangent(model, rng, x) for _ in range(2)]
    elsewhere = random_interior(model, rng)
    sine = _sine_cocycle(rng, 3)
    cases = [
        (BoundaryCocycle(3, lambda a, b, c_: 2.0 * np.ones(len(a)), 1.0), x, vs,
         "cocycle exceeded its declared sup-norm bound", 3),
        (BoundaryCocycle(3, lambda a, b, c_: np.full(len(a), np.nan), 1.0), x, vs,
         "cocycle returned non-finite values", 3),
        (sine, random_boundary(model, rng), vs, "forms are evaluated at interior points", 0),
        (sine, x, [vs[0], random_tangent(model, rng, elsewhere)], "tangent vectors must be based at x", 0),
    ]
    for c, point, vectors, message, draws in cases:
        drawn.clear()
        with pytest.raises(ValueError, match=message):
            delta_form_eval(model, ent, c, point, vectors, n_samples=50_000, seed=38)
        assert drawn == [50_000] * draws
        ns = {}
        exec(_VALID_CALL, ns)
        assert ns["out"] == fresh


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0])
def test_cocycle_bound_must_be_finite_and_non_negative(bound):
    with pytest.raises(ValueError, match="sup_norm_bound"):
        BoundaryCocycle(3, lambda a, b, c: np.zeros(len(a)), bound)
