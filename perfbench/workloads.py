"""The four benchmark workloads: inputs from a seed, the timed op, its check.

Each ``make_*`` function runs the program's one-time set-up, generates the
whole op list from the seed with numpy and public constructors, and returns
a ``Plan``.  No two ops of a list make the same call, so a cache keyed on
a call's inputs cannot make a timed op cheaper than a fresh call.  Ops call
the program through module attributes looked up at call time, so the
tracing wrappers in ``layers.py`` see every call.

An op's check returns one of ``OK``, ``FAILED`` (the program raised or gave
a non-finite value; counted in ``failed``) or ``WRONG`` (a finite value
that fails its check; the run is then reported as not correct).
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from chaingeo.hermitian import HermitianModel, ProjPoint

# the package re-exports a function named ``busemann``, which shadows the
# submodule attribute, so modules are fetched by their dotted names
busemann, chains, forms, hermitian, isometries, reconstruction = (
    importlib.import_module(f"chaingeo.{m}")
    for m in ("busemann", "chains", "forms", "hermitian", "isometries", "reconstruction")
)

OK, FAILED, WRONG = "ok", "failed", "wrong"

N_SAMPLES = 200_000  # the contract sample count of crit06 and crit07
FD_STEP = 1e-3
AREA_TOL = 1e-8
AREA_ORACLE_GAP = 1e-6
HOLDOUT = 100
HOLDOUT_ERR = 1e-6
SCRAMBLE_EVERY = 10  # every 10th planted map is scrambled, as in crit12
AREA_PS = 3  # triangles in H_C^p for p = 1..3
AREA_PATTERNS = 8  # the interior/ideal patterns of three vertices


@dataclass
class Plan:
    ops: list  # zero-argument callables, one per timed op
    warmup: Callable  # one untimed op on inputs outside the timed list
    check: Callable  # (op index, returned value or raised exception) -> OK/FAILED/WRONG
    digest: str  # sha256 of the generated inputs


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _herm(X, Y):
    """The signature-(p,1) form, linear in X, along the last axis."""
    s = np.sum(X[..., :-1] * np.conj(Y[..., :-1]), axis=-1)
    return s - X[..., -1] * np.conj(Y[..., -1])


def _boundary_lifts(rng, p, n):
    u = rng.normal(size=(n, p)) + 1j * rng.normal(size=(n, p))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return np.concatenate([u, np.ones((n, 1), dtype=complex)], axis=1) / np.sqrt(2.0)


def _interior(model, rng, spread):
    u = rng.normal(size=model.p) + 1j * rng.normal(size=model.p)
    u *= spread * rng.random() / np.linalg.norm(u)
    return ProjPoint(np.concatenate([u, [1.0 + 0j]]), model=model, kind="interior")


def _unit_tangent(model, rng, x):
    raw = rng.normal(size=model.dim) + 1j * rng.normal(size=model.dim)
    v = hermitian.tangent(model, x, raw)
    g, _ = hermitian.metric_and_kahler(model, x, v, v)
    return hermitian.tangent(model, x, v.components / np.sqrt(g))


def _frames(model, rng, count, n_vectors, spread):
    """``count`` interior points, each with ``n_vectors`` unit tangents."""
    frames = []
    for _ in range(count):
        x = _interior(model, rng, spread)
        frames.append((x, [_unit_tangent(model, rng, x) for _ in range(n_vectors)]))
    return frames


def _frames_digest(frames, *extra):
    arrays = [np.stack([x.lift] + [v.components for v in vs]) for x, vs in frames]
    return _digest(*arrays, *extra)


def make_form_stencil(seed, n_ops):
    """crit07's set-up: exterior derivatives of one shared form field."""
    model = HermitianModel(2)
    ent = busemann.volume_entropy(model)
    phi = forms.BoundaryMapHandle.from_embedding(isometries.standard_embedding(2, 3))

    def pulled_back(l0, l1, l2):
        return chains.cartan_triple_lifts(phi(l0), phi(l1), phi(l2))

    c = forms.BoundaryCocycle(arity=3, evaluator=pulled_back, sup_norm_bound=1.0, alternating=True)
    field = forms.delta_form_field(model, ent, c, n_samples=N_SAMPLES, seed=seed)
    frames = _frames(model, np.random.default_rng(seed), n_ops + 1, 3, spread=0.5)

    def op(frame):
        x, (u, v, w) = frame
        return lambda: forms.exterior_derivative_fd(field, model, x, u, v, w, step=FD_STEP)

    def check(i, res):
        if isinstance(res, BaseException):
            return FAILED
        val, sig, _ = res
        if not (np.isfinite(val) and np.isfinite(sig)):
            return FAILED
        return OK if abs(val) < 4.0 * sig + 100.0 * FD_STEP**2 else WRONG

    x, (u, v, _) = frames[n_ops]
    warmup = lambda: field(x, u, v)  # one evaluation; a whole op costs six
    return Plan([op(f) for f in frames[:n_ops]], warmup, check, _frames_digest(frames))


def _cocycle(rng):
    """Bounded non-alternating test cocycle: sine of reference-line affinities."""
    refs = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    refs /= np.linalg.norm(refs, axis=1, keepdims=True)
    freqs = rng.uniform(1.0, 4.0, size=3)

    def ev(l0, l1, l2):
        acc = 0.0
        for lifts, w, f in zip((l0, l1, l2), refs, freqs):
            acc = acc + f * np.abs(lifts @ np.conj(w)) / np.linalg.norm(lifts, axis=1)
        return np.sin(acc)

    return forms.BoundaryCocycle(arity=3, evaluator=ev, sup_norm_bound=1.0), refs, freqs


def make_form_fresh(seed, n_ops):
    """crit06's set-up: each op a fresh cocycle, point and sample stream."""
    model = HermitianModel(2)
    ent = busemann.volume_entropy(model)
    rng = np.random.default_rng(seed)
    frames = _frames(model, rng, n_ops + 1, 2, spread=0.8)
    cocycles = [_cocycle(rng) for _ in range(n_ops + 1)]

    def op(k):
        (x, vs), (c, _, _) = frames[k], cocycles[k]
        return lambda: forms.delta_form_eval(model, ent, c, x, vs, n_samples=N_SAMPLES, seed=seed + k)

    def check(i, res):
        if isinstance(res, BaseException) or not np.isfinite([res.value, res.mc_stderr]).all():
            return FAILED
        return OK if res.bound_satisfied else WRONG

    params = [a for _, r, f in cocycles for a in (r, f)]
    return Plan(
        [op(k) for k in range(n_ops)], op(n_ops), check, _frames_digest(frames, *params)
    )


def _planted_map(rng, q, scramble, n_visual=152, n_chains=12, per_chain=4):
    """crit12's mix: visual samples plus points on random chains, pushed by
    a random isometry after the standard embedding H^2 -> H^q."""
    model_p, model_q = HermitianModel(2), HermitianModel(q)
    W = isometries.random_isometry(q, seed=int(rng.integers(1 << 31)), sigma=0.4).matrix
    W = W @ isometries.standard_embedding(2, q).matrix
    lifts = list(_boundary_lifts(rng, 2, n_visual))
    for _ in range(n_chains):
        a, b = (ProjPoint(l, model=model_p, kind="boundary") for l in _boundary_lifts(rng, 2, 2))
        C = chains.chain_through(model_p, a, b)
        lifts += [chains.sample_chain_point(C, t).lift for t in rng.uniform(0, 2 * np.pi, per_chain)]
    src = [ProjPoint(l, model=model_p, kind="boundary") for l in lifts]
    tgt = [ProjPoint(W @ s.lift, model=model_q, kind="boundary") for s in src]
    if scramble:
        tgt = [tgt[i] for i in rng.permutation(len(tgt))]
    smap = reconstruction.BoundarySampleMap(pairs=list(zip(src, tgt)), p=2, q=q)
    held = _boundary_lifts(rng, 2, HOLDOUT)
    return smap, W, held


def _projective_gap(A, B):
    ip = np.abs(np.sum(A * np.conj(B), axis=1))
    cos = ip / (np.linalg.norm(A, axis=1) * np.linalg.norm(B, axis=1))
    return np.sqrt(np.clip(1.0 - cos**2, 0.0, 1.0))


def _scrambled(k):
    return k % SCRAMBLE_EVERY == SCRAMBLE_EVERY - 1


def make_reconstruct(seed, n_ops):
    """crit12's mix: (p,q) alternating (2,2) and (2,3), every 10th map scrambled."""
    rng = np.random.default_rng(seed)
    maps = [_planted_map(rng, 2 + k % 2, scramble=_scrambled(k)) for k in range(n_ops + 1)]

    def op(k):
        smap = maps[k][0]
        return lambda: reconstruction.fit_embedding(smap, seed=seed + k)

    def check(i, res):
        scrambled = _scrambled(i)
        if isinstance(res, reconstruction.NoRigidModelError):
            return OK if scrambled else FAILED
        if isinstance(res, BaseException):
            return FAILED
        if scrambled:
            return WRONG
        _, W, held = maps[i]
        emb, _ = res
        if not np.isfinite(emb.matrix).all():
            return FAILED
        err = _projective_gap(held @ emb.matrix.T, held @ W.T)
        return OK if err.max() < HOLDOUT_ERR else WRONG

    arrays = [a for smap, W, held in maps for a in (smap.source_lifts, smap.target_lifts, W, held)]
    return Plan([op(k) for k in range(n_ops)], op(n_ops), check, _digest(*arrays))


def area_oracle(model, x, y, z):
    """Closed-form signed Kahler area: (s/4) * 2 arg(-<X,Y><Y,Z><Z,X>)."""
    X, Y, Z = x.lift, y.lift, z.lift
    t = _herm(X, Y) * _herm(Y, Z) * _herm(Z, X)
    return model.metric_scale / 4.0 * 2.0 * np.angle(-t)


def make_areas(seed, n_ops):
    """Triangles with p cycling 1..3 and the 8 interior/ideal vertex patterns
    equally frequent: p and pattern cycle together with period
    ``AREA_PS * AREA_PATTERNS`` (the two are coprime)."""
    rng = np.random.default_rng(seed)
    tris = []
    for k in range(n_ops + 1):
        model = HermitianModel(1 + k % AREA_PS)
        pattern = k % AREA_PATTERNS
        pts = []
        for bit in range(3):
            if pattern >> bit & 1:
                pts.append(ProjPoint(_boundary_lifts(rng, model.p, 1)[0], model=model, kind="boundary"))
            else:
                pts.append(_interior(model, rng, spread=0.8))
        tris.append((model, pts))

    def op(k):
        model, pts = tris[k]
        return lambda: hermitian.triangle_area(model, *pts, tol=AREA_TOL)

    def check(i, res):
        # a NaN error estimate marks a finite value that is no area either
        if isinstance(res, BaseException) or not np.isfinite([res.value, res.err_estimate]).all():
            return FAILED
        model, pts = tris[i]
        gap = abs(res.value - area_oracle(model, *pts))
        return OK if gap < AREA_ORACLE_GAP else WRONG

    arrays = [p.lift for _, pts in tris for p in pts]
    return Plan([op(k) for k in range(n_ops)], op(n_ops), check, _digest(*arrays))


@dataclass(frozen=True)
class Workload:
    make: Callable  # (seed, n_ops) -> Plan
    # ops per second of --seconds; a constant, so that every commit does the
    # same ops and a faster program does them in less time
    rate: float
    # the op list repeats its mix of op kinds with this period, and a run
    # holds whole periods, so every run times the same mix
    period: int

    def n_ops(self, seconds):
        return self.period * max(1, round(self.rate * seconds / self.period))


# the interpreter-bound workloads (`reconstruct`, `areas`) feel drift in the
# machine's speed most, so they get the longer runs: at the seed commit about
# 35 s and 25 s of timed work per 25 s of --seconds, against about 10 s for
# each vectorised form workload
WORKLOADS = {
    "form-stencil": Workload(make_form_stencil, rate=0.2, period=1),
    "form-fresh": Workload(make_form_fresh, rate=1.2, period=1),
    # the (p,q) alternation has period 2, which divides SCRAMBLE_EVERY
    "reconstruct": Workload(make_reconstruct, rate=2.0, period=SCRAMBLE_EVERY),
    "areas": Workload(make_areas, rate=35.0, period=AREA_PS * AREA_PATTERNS),
}
