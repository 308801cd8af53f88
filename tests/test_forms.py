import dataclasses
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
from chaingeo.busemann import _BLOCK_ROWS, VisualMeasure, e_xi_lifts
from chaingeo.chains import cartan_triple_lifts
from chaingeo.hermitian import _herm

from conftest import apply_tangent, random_boundary, random_interior, random_tangent
from stream_oracle import whole_array_eval

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


def test_field_draws_its_stream_once(setup, rng, monkeypatch):
    model, ent = setup
    drawn = []
    original = VisualMeasure.sample_lifts

    def counting(self, n, rng=None):
        drawn.append(n)
        return original(self, n, rng=rng)

    monkeypatch.setattr(VisualMeasure, "sample_lifts", counting)
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
    # a blockwise stream holds its lifts and values; its passes add at most
    # one block of temporaries (whole-array passes added 50 MiB to the build
    # and 18 MiB to an evaluation, complex pairings over 65536-row blocks
    # 7.6 MiB to an evaluation)
    model, ent = setup
    x = random_interior(model, rng)
    u, v = random_tangent(model, rng, x), random_tangent(model, rng, x)
    c = _pulled_back_angular_cocycle()
    mib = 2**20
    tracemalloc.start()
    try:
        field = delta_form_field(model, ent, c, n_samples=200_000, seed=33)
        held, peak = tracemalloc.get_traced_memory()
        assert peak - held <= 16 * mib
        tracemalloc.reset_peak()
        field(x, u, v)
        _, peak = tracemalloc.get_traced_memory()
        assert peak - held <= 5 * mib
        # six frames in one pass hold their six integrands (9.2 MiB) and one
        # block of pairings for all six; 8192-row blocks peaked at 14.3 MiB,
        # above the build's 13.8 MiB
        tracemalloc.reset_peak()
        exterior_derivative_fd(field, model, x, u, v, random_tangent(model, rng, x))
        _, peak = tracemalloc.get_traced_memory()
        assert peak - held <= 12 * mib
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
def test_stream_lifts_end_in_one_over_sqrt2(rng, p):
    # the evaluation reads |<xi, O>|^2, O = e_{p+1}, as the constant
    # (1/sqrt(2))^2 from this invariant of VisualMeasure.sample_lifts
    model = HermitianModel(p)
    c = _sine_cocycle(rng, 3, dim=p + 1)
    field = delta_form_field(model, volume_entropy(model), c, n_samples=131_073, seed=36)
    for lifts in field.lifts:
        assert lifts[:, -1].tobytes() == np.full(131_073, 1.0 / np.sqrt(2.0) + 0j).tobytes()


@pytest.mark.parametrize("bound", [float("nan"), float("inf"), -1.0])
def test_cocycle_bound_must_be_finite_and_non_negative(bound):
    with pytest.raises(ValueError, match="sup_norm_bound"):
        BoundaryCocycle(3, lambda a, b, c: np.zeros(len(a)), bound)
