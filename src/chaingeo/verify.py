"""Named verification suites: one callable per acceptance criterion.

Each check returns a dict with at least {'name', 'passed'} plus the
numbers behind the verdict; the CLI ``verify`` subcommand and the
acceptance test module both run these.  Sample counts and tolerances are
the contract values; they are parameters only so that smoke runs can
scale down deliberately.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from . import finitemodels as fm
from .busemann import (
    VisualMeasure,
    measure_transform_check,
    unit_mass_check,
    volume_entropy,
)
from .chains import _chain_lifts, cartan_triple_lifts, chain_through, sample_chain_point
from .forms import (
    BoundaryCocycle,
    BoundaryMapHandle,
    chain_formula_check,
    delta_form_field,
    exterior_derivative_fd,
)
from .hermitian import HermitianModel, ProjPoint, _classify, metric_and_kahler, tangent, triangle_area
from .isometries import Isometry, random_isometry, standard_embedding, translation_along_axis
from .projective import (
    AffLine,
    QQi,
    QuadConfig,
    complete_quadrilateral,
    cross_ratio,
    fit_affine,
    harmonic_conjugate,
)
from .reconstruction import (
    BoundarySampleMap,
    NoRigidModelError,
    _projective_residuals,
    fit_embedding,
)
from .toledo import (
    SurfaceGroupRep,
    conjugate_rep,
    fuchsian_genus2_rep,
    milnor_wood_check,
    toledo_surface_group,
)

__all__ = ["ALL_CRITERIA"]


def _random_interior(model, rng, spread=0.8):
    u = rng.normal(size=model.p) + 1j * rng.normal(size=model.p)
    u *= spread * rng.random() / np.linalg.norm(u)
    return ProjPoint(np.concatenate([u, [1.0 + 0j]]), model=model)


def _random_tangent(model, rng, x):
    """A random unit tangent vector at x."""
    raw = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    v = tangent(model, x, raw)
    g, _ = metric_and_kahler(model, x, v, v)
    return tangent(model, x, v.components / np.sqrt(g))


def crit01_cartan_cocycle(seed=7, n_quadruples=10_000, n_pairs=1_000, tol=1e-9):
    """Cocycle identity and invariance of the angular invariant on dH^2."""
    t0 = time.perf_counter()
    nu = VisualMeasure(HermitianModel(2))
    rng = np.random.default_rng(seed)
    x = [nu.sample_lifts(n_quadruples, rng=rng) for _ in range(4)]
    c = cartan_triple_lifts
    alt = (
        c(x[1], x[2], x[3])
        - c(x[0], x[2], x[3])
        + c(x[0], x[1], x[3])
        - c(x[0], x[1], x[2])
    )
    cocycle_residual = float(np.max(np.abs(alt)))
    worst_inv = 0.0
    triples = [nu.sample_lifts(n_pairs, rng=rng) for _ in range(3)]
    for k in range(n_pairs):
        g = random_isometry(2, seed=int(rng.integers(1 << 31)))
        lifts = [t[k : k + 1] for t in triples]
        moved = [l @ g.matrix.T for l in lifts]
        worst_inv = np.maximum(
            worst_inv, abs(float(c(*moved)[0]) - float(c(*lifts)[0]))
        )
    in_budget = time.perf_counter() - t0 < 10.0
    return {
        "name": "cartan cocycle identity and invariance",
        "cocycle_residual": cocycle_residual,
        "invariance_residual": worst_inv,
        "passed": cocycle_residual < tol and worst_inv < tol and in_budget,
    }


def crit02_chain_extremality(seed=11, n_each=500):
    """|c| = 1 on chain triples; |c| < 1 - 1e-4 off chains (empirically)."""
    model = HermitianModel(2)
    rng = np.random.default_rng(seed)
    nu = VisualMeasure(model, seed=seed)
    on_min = 1.0
    for _ in range(n_each):
        a, b = nu.sample_points(2, rng=rng)
        C = chain_through(model, a, b)
        ts = np.sort(rng.uniform(0, 2 * np.pi, size=3))
        val = cartan_triple_lifts(*(x.lift[None] for x in sample_chain_point(C, ts)))[0]
        on_min = np.minimum(on_min, abs(val))  # keeps a NaN, unlike min
    lifts = [nu.sample_lifts(n_each, rng=rng) for _ in range(3)]
    off_max = float(np.max(np.abs(cartan_triple_lifts(*lifts))))
    return {
        "name": "chain extremality of the angular invariant",
        "on_chain_min_abs": on_min,
        "generic_max_abs": off_max,
        "passed": on_min >= 1 - 1e-7 and off_max < 1 - 1e-4,
    }


def crit03_ideal_triangle_normalization(tol=1e-4):
    """Ideal triangle on a chain has Kahler area pi (Gromov norm, rank 1)."""
    model = HermitianModel(1)
    pts = [
        ProjPoint(np.array([z, 1.0]), model=model)
        for z in (1.0, 1j, -1.0)
    ]
    a1 = triangle_area(model, *pts, tol=1e-6)
    model2 = HermitianModel(2)
    rng = np.random.default_rng(3)
    nu = VisualMeasure(model2, seed=3)
    a, b = nu.sample_points(2, rng=rng)
    C = chain_through(model2, a, b)
    pts2 = [sample_chain_point(C, t) for t in (0.3, 1.7, 4.0)]
    a2 = triangle_area(model2, *pts2, tol=1e-6)
    return {
        "name": "ideal chain triangle area = pi",
        "area_p1": a1.value,
        "area_p2_chain": a2.value,
        "passed": abs(a1.value - np.pi) < tol and abs(a2.value - np.pi) < tol,
    }


def crit04_area_cartan_agreement(seed=13, n_triples=100, tol=1e-4):
    """area/pi equals the angular invariant on random ideal triples."""
    model = HermitianModel(2)
    nu = VisualMeasure(model)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_triples):
        lifts = nu.sample_lifts(3, rng=rng)
        pts = [ProjPoint(l, model=model) for l in lifts]
        area = triangle_area(model, *pts, tol=3e-6)
        cval = cartan_triple_lifts(lifts[0][None], lifts[1][None], lifts[2][None])[0]
        worst = np.maximum(worst, abs(area.value / np.pi - cval))
    return {
        "name": "area/pi vs angular invariant on ideal triples",
        "worst_gap": worst,
        "passed": worst < tol,
    }


def crit05_busemann_machinery(seed=17, n_samples=100_000, n_points=20, n_isoms=10):
    """Unit mass of the density weights; pushforward law; negative control."""
    model = HermitianModel(2)
    ent = volume_entropy(model)
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for k in range(n_points):
        x = _random_interior(model, rng)
        est, err = unit_mass_check(model, ent, x, n_samples=n_samples, seed=seed + k)
        worst_z = np.maximum(worst_z, abs(est - 1.0) / max(err, 1e-300))
    worst_transform = 0.0
    for k in range(n_isoms):
        g = random_isometry(2, seed=1000 + k)
        z = measure_transform_check(model, g, n_samples=n_samples, seed=seed + k)
        worst_transform = np.maximum(worst_transform, z)
    # the control isometry must displace the basepoint for the mistuned
    # exponent to bite; a fixed hyperbolic translation guarantees that
    g = translation_along_axis(2, 1.5)
    control_z = measure_transform_check(
        model, g, n_samples=n_samples, seed=seed, h_override=1.3 * ent.value
    )
    return {
        "name": "busemann weights and visual-measure transformation",
        "entropy": ent.value,
        "unit_mass_worst_z": worst_z,
        "transform_worst_z": worst_transform,
        "control_z": control_z,
        "passed": worst_z < 3.0 and worst_transform < 3.0 and control_z > 3.0,
    }


def _pseudo_random_cocycle(seed):
    """sin of a sum of |<l, w>| / |l|, w fixed; the stream's lifts l are
    null, |l_0..l_{p-1}| = |l_p|, so |l| = sqrt(2) |l_p| from l_p alone."""
    rng = np.random.default_rng(seed)
    refs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    refs /= np.linalg.norm(refs, axis=1, keepdims=True)
    freqs = rng.uniform(1.0, 4.0, size=3)

    def ev(l0, l1, l2):
        acc = 0.0
        for lifts, w, f in zip((l0, l1, l2), refs, freqs):
            nrm = np.sqrt(2.0) * np.abs(lifts[:, -1])
            acc = acc + f * np.abs(lifts @ np.conj(w)) / nrm
        return np.sin(acc)

    return BoundaryCocycle(arity=3, evaluator=ev, sup_norm_bound=1.0)


def crit06_delta_form_bound(seed=19, n_points=100, n_samples=200_000):
    """Degree-2 norm bound h^2 and vanishing on the constant cocycle.

    One sample stream, drawn with ``seed``, serves every point: it is built
    with the constant cocycle and evaluated at the control's point, then
    each point's cocycle runs on it before its frame is evaluated, so the
    points' estimates are correlated, as crit07's are.  The bound is slack
    on these cocycles: the largest |value| - bound - 3 stderr at seed 19 is
    -3.86 against a bound of 4, so the norm bound would pass forms many
    times larger.  The constant cocycle, whose form must vanish, is the
    criterion's only sharp check.
    """
    model = HermitianModel(2)
    ent = volume_entropy(model)
    rng = np.random.default_rng(seed)
    frames = []  # the points' frames, then the control's, in the rng's order
    for _ in range(n_points + 1):
        x = _random_interior(model, rng)
        frames.append((x, _random_tangent(model, rng, x), _random_tangent(model, rng, x)))
    const = BoundaryCocycle(
        arity=3, evaluator=lambda a, b, c_: np.ones(len(a)), sup_norm_bound=1.0
    )
    field = delta_form_field(model, ent, const, n_samples=n_samples, seed=seed)
    fe0 = field(*frames.pop())
    const_ok = abs(fe0.value) <= 3 * fe0.mc_stderr
    ok_bound = True
    worst_excess = -np.inf
    for k, frame in enumerate(frames):
        field.run_cocycle(_pseudo_random_cocycle(seed + 7 * k))
        fe = field(*frame)
        # np.maximum, unlike max, keeps a NaN
        worst_excess = np.maximum(worst_excess, abs(fe.value) - fe.bound - 3 * fe.mc_stderr)
        ok_bound = ok_bound and fe.bound_satisfied
    return {
        "name": "norm bound of the boundary-to-form map",
        "worst_bound_excess": float(worst_excess),
        "constant_cocycle_value": fe0.value,
        "constant_cocycle_3sigma": 3 * fe0.mc_stderr,
        "passed": ok_bound and const_ok,
    }


def crit07_closedness(seed=23, n_points=20, n_samples=200_000, step=1e-3):
    """Finite-difference d of the pulled-back Kahler form vanishes.

    The tolerance 4 sigma + 100 step^2 is loose: at N = 200k two measured
    non-cocycles, the Cartan cocycle times (0.5 + |xi_00|^2/|xi_0|^2) and
    crit06's pseudo-random cocycle, pass at every point with |d| at most
    0.0097 against median tolerances of 0.008 and 0.012.  Whether their
    forms are closed is not known, and the criterion has no failing
    control.
    """
    model = HermitianModel(2)
    ent = volume_entropy(model)
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)

    def ev(l0, l1, l2):
        return cartan_triple_lifts(phi(l0), phi(l1), phi(l2))

    c = BoundaryCocycle(arity=3, evaluator=ev, sup_norm_bound=1.0, alternating=True)
    field = delta_form_field(model, ent, c, n_samples=n_samples, seed=seed)
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_tol = 0.0
    ok = True
    for _ in range(n_points):
        x = _random_interior(model, rng, spread=0.5)
        u = _random_tangent(model, rng, x)
        v = _random_tangent(model, rng, x)
        w = _random_tangent(model, rng, x)
        val, sig, st = exterior_derivative_fd(field, model, x, u, v, w, step=step)
        tol = 4.0 * sig + 100.0 * step**2
        ok = ok and abs(val) < tol
        worst = float(np.maximum(worst, abs(val)))  # keeps a NaN, unlike max
        worst_tol = float(np.maximum(worst_tol, tol))
    return {
        "name": "closedness of the pulled-back Kahler representative",
        "worst_abs_d": worst,
        "worst_tolerance": worst_tol,
        "passed": ok,
    }


def crit08_toledo(tol=1e-3):
    """Fuchsian genus-2 gives 1; conjugation gives -1; trivial gives 0."""
    t0 = time.perf_counter()
    target = HermitianModel(1)
    emb = standard_embedding(1, 1)
    rep = fuchsian_genus2_rep()
    res = toledo_surface_group(target, rep, emb, tol=1e-6)
    res_conj = toledo_surface_group(target, conjugate_rep(rep), emb, tol=1e-6)
    ident = Isometry(np.eye(2, dtype=complex), 1)
    trivial = SurfaceGroupRep(genus=2, generators=[ident] * 4)
    res_triv = toledo_surface_group(target, trivial, emb, tol=1e-6)
    mw, margin = milnor_wood_check(res)
    in_budget = time.perf_counter() - t0 < 30.0
    return {
        "name": "toledo invariant of surface groups",
        "fuchsian": res.value,
        "conjugated": res_conj.value,
        "trivial": res_triv.value,
        "milnor_wood_ok": mw,
        "milnor_wood_margin": margin,
        "passed": (
            abs(res.value - 1.0) < tol
            and abs(res_conj.value + 1.0) < tol
            and abs(res_triv.value) < 1e-12
            and mw
            and in_budget
        ),
    }


def crit09_chain_formula(seed=29, n_chains=100, triples_per_chain=10, tol=1e-8):
    """Equivariant chain formula with maximality sign +1 and -1."""
    mp = HermitianModel(2)
    mq = HermitianModel(3)
    emb = standard_embedding(2, 3)
    phi = BoundaryMapHandle.from_embedding(emb)
    r_plus = chain_formula_check(
        mp, mq, phi, +1, n_chains=n_chains, triples_per_chain=triples_per_chain, seed=seed
    )
    phic = BoundaryMapHandle.from_embedding(emb, conjugate=True)
    r_minus = chain_formula_check(
        mp, mq, phic, -1, n_chains=n_chains, triples_per_chain=triples_per_chain, seed=seed
    )
    r_zero = chain_formula_check(mp, mq, phi, 0, n_chains=10, triples_per_chain=5, seed=seed)
    return {
        "name": "chain formula in the equivariant case",
        "residual_plus": r_plus,
        "residual_minus": r_minus,
        "negative_control": r_zero,
        "passed": r_plus < tol and r_minus < tol and r_zero > 0.5,
    }


def crit10_quadrilateral(seed=31, n_configs=1000):
    """Complete quadrilateral reproduces the harmonic conjugate exactly."""
    rng = np.random.default_rng(seed)
    all_exact = True
    checked = 0
    attempts = 0
    while checked < n_configs and attempts < 50 * n_configs:
        attempts += 1
        nums = rng.integers(-9, 10, size=12)
        dens = rng.integers(1, 8, size=12)
        fr = [Fraction(int(a), int(b)) for a, b in zip(nums, dens)]
        A = QQi(fr[0], fr[1])
        dird = QQi(fr[2], fr[3])
        if dird.is_zero():
            continue
        tb, tc = fr[4], fr[5]
        if tb == 0 or tc == 0 or tb == tc or 2 * tc == tb:
            continue
        B = A + dird * QQi(tb)
        C = A + dird * QQi(tc)
        dird2 = QQi(fr[6], fr[7])
        M = QQi(fr[8], fr[9])
        try:
            d = AffLine(A, dird)
            dp = AffLine(A, dird2)
            cfg = QuadConfig(d_prime=dp, d=d, A=A, B=B, C=C, M=M)
            D = complete_quadrilateral(cfg)
            H = harmonic_conjugate(A, B, C)
        except ValueError:
            continue
        checked += 1
        if not (D == H and cross_ratio(A, B, C, D) == QQi(-1)):
            all_exact = False
    return {
        "name": "complete quadrilateral vs harmonic conjugate (exact)",
        "configs": checked,
        "passed": all_exact,
    }


def crit11_affine_recovery(seed=37, n_trials=100):
    """Planted lam z + c recovered to 1e-10 noiselessly and 10 sigma noisily."""
    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(n_trials):
        lam = rng.normal() + 1j * rng.normal()
        c = rng.normal() + 1j * rng.normal()
        zs = rng.normal(size=30) + 1j * rng.normal(size=30)
        ws = lam * zs + c
        lam_f, c_f, diag = fit_affine(list(zip(zs, ws)))
        ok = ok and abs(lam_f - lam) < 1e-10 * max(1, abs(lam)) and abs(c_f - c) < 1e-10
        sigma = 1e-3
        noisy = ws + sigma * (rng.normal(size=30) + 1j * rng.normal(size=30))
        lam_n, c_n, diag_n = fit_affine(list(zip(zs, noisy)))
        ok = ok and abs(lam_n - lam) < 10 * sigma and abs(c_n - c) < 10 * sigma
        ok = ok and diag["mode"] == "affine"
    return {"name": "planted affine recovery", "passed": ok}


def _planted_sample_map(rng, p, q, n_pairs, n_chain_groups=12, pts_per_chain=4, scramble=False, conjugate=False):
    model_p = HermitianModel(p)
    emb = standard_embedding(p, q)
    g = random_isometry(q, seed=int(rng.integers(1 << 31)), sigma=0.4)
    nu = VisualMeasure(model_p, seed=int(rng.integers(1 << 31)))
    lifts = [nu.sample_lifts(n_pairs, rng=rng)]
    for _ in range(n_chain_groups):
        C = chain_through(model_p, *nu.sample_points(2, rng=rng))
        # the lifts of sample_chain_point's points
        lifts.append(_classify(_chain_lifts(C, rng.uniform(0, 2 * np.pi, size=pts_per_chain)))[0])
    lifts = np.concatenate(lifts)
    src = _classify(lifts)[0]
    # g (emb xi) for each canonical source lift xi; stacked matrix-vector
    # products keep the bits of the products taken one point at a time
    tgt = (g.matrix @ (emb.matrix @ (np.conj(src) if conjugate else src)[..., None]))[..., 0]
    if scramble:
        tgt = tgt[rng.permutation(len(tgt))]
    return BoundarySampleMap.from_lifts(lifts, tgt, p, q), emb, g


def crit12_reconstruction(seed=41, n_instances=50, n_pairs=152, holdout=100):
    """Planted embeddings recovered to held-out error < 1e-6; scrambles rejected."""
    rng = np.random.default_rng(seed)
    worst_holdout = 0.0
    ok = True
    for k in range(n_instances):
        q = 2 if k % 2 == 0 else 3
        smap, emb, g = _planted_sample_map(rng, 2, q, n_pairs)
        fitted, diags = fit_embedding(smap, seed=seed + k)
        model_p = HermitianModel(2)
        model_q = HermitianModel(q)
        nu = VisualMeasure(model_p, seed=seed + 500 + k)
        held_src = nu.sample_lifts(holdout, rng=rng)
        truth = held_src @ (g.matrix @ emb.matrix).T
        err = _projective_residuals(fitted.matrix, held_src, truth)
        worst_holdout = np.maximum(worst_holdout, float(err.max()))
        ok = ok and err.max() < 1e-6
    rejected = 0
    n_neg = 5
    for k in range(n_neg):
        smap, _, _ = _planted_sample_map(rng, 2, 2, 152, scramble=True)
        try:
            fit_embedding(smap, seed=seed + k)
        except NoRigidModelError:
            rejected += 1
    return {
        "name": "embedding reconstruction from boundary samples",
        "worst_holdout_error": worst_holdout,
        "scrambles_rejected": f"{rejected}/{n_neg}",
        "passed": ok and rejected == n_neg,
    }


def crit13_appendix_exactness(seed=43, n_functions=100):
    """Kernel properties and homotopy identity, exact over the rationals."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    ok = True
    for name, weights in (
        ("S3", [Fraction(1, 3), Fraction(2, 3)]),
        ("S4", [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]),
    ):
        model = fm.preset_model(name)
        wq = fm.WeightedQuotient(model, weights)
        beta = fm.bruhat_beta(model)
        psi = fm.psi_kernel(model, beta, wq)  # raises if (1)(2)(3) fail
        for n in (1, 2, 3):
            for _ in range(max(1, n_functions // 3)):
                if not fm.homotopy_identity_holds(model, psi, wq, n, rng):
                    ok = False
    in_budget = time.perf_counter() - t0 < 60.0
    return {
        "name": "appendix identities, exact rational arithmetic",
        "passed": ok and in_budget,
    }


def crit14_fibered_counting():
    """|(G/Q)^n_f| = |G/H| |H/Q|^n on the preset models, n <= 3."""
    ok = True
    counts = {}
    for name in ("S3", "S4", "D4"):
        model = fm.preset_model(name)
        gh = len(model.gh_cosets)
        hq = len(model.hq_cosets)
        for n in range(1, 4):
            space = fm.fibered_product(model, n)
            counts[f"{name}_n{n}"] = len(space.tuples)
            ok = ok and len(space.tuples) == gh * hq**n
            ok = ok and sum(space.nu) == 1
    return {"name": "fibered product counting", "counts": counts, "passed": ok}


ALL_CRITERIA = {
    "cartan-cocycle": crit01_cartan_cocycle,
    "chain-extremality": crit02_chain_extremality,
    "ideal-triangle": crit03_ideal_triangle_normalization,
    "area-cartan": crit04_area_cartan_agreement,
    "busemann": crit05_busemann_machinery,
    "delta-form-bound": crit06_delta_form_bound,
    "closedness": crit07_closedness,
    "toledo": crit08_toledo,
    "chain-formula": crit09_chain_formula,
    "quadrilateral": crit10_quadrilateral,
    "affine-recovery": crit11_affine_recovery,
    "reconstruction": crit12_reconstruction,
    "appendix-exactness": crit13_appendix_exactness,
    "fibered-counting": crit14_fibered_counting,
}
