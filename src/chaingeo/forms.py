"""Bounded differential forms from boundary cocycles, and their checks.

A bounded measurable function c on (n+1)-tuples of boundary points turns
into a bounded n-form on the space by integrating

    c(xi_0..xi_n) e^{xi_0} de^{xi_1} ^ ... ^ de^{xi_n}

against the visual measure in each variable, where e^xi is the boundary
density weight and

    (de^xi)_x(v) = h g_x(v, X_xi(x)) e^xi(x)

with X_xi(x) the unit tangent at x toward xi.  The resulting map is
norm-bounded by h^n on sup-norms, commutes with the respective
differentials, and applied to the pulled-back angular cocycle of a
boundary map it produces the explicit bounded representative of the
pulled-back Kahler class.

Degrees n <= 2 are implemented (the application is degree 2; the wedge is
expanded explicitly).  Monte-Carlo evaluation uses common random numbers:
two evaluations with the same (seed, n_samples) share every sample, so
algebraic identities such as antisymmetry hold to rounding rather than to
Monte-Carlo error.

The samples and the cocycle values on them do not depend on the point x.
They form a sample stream, drawn and evaluated once: ``delta_form_field``
builds one when the field is made and keeps it, while ``delta_form_eval``
builds one per call.  A stream holds each of its n+1 sample arrays as N
unit directions u in C^p, whose lifts are [u, 1] / sqrt(2), plus N cocycle
values: about 21 MB at N = 200k and n = p = 2 (the full lifts took 30 MB).
The lifts exist only in blocks of at most 16384 rows (``_row_blocks``); the
build peaks about 7 MB above what the stream holds, at 28 MB.  An evaluation
of K frames (points with tangent vectors) cuts the stream into 20 batches
of N // 20 samples (the rest is dropped) and each batch into blocks of at
most ``_EVAL_ROWS``.  It reads each block once and pairs each sample
array with [X, V'_1, ..], V'_j = V_j + Re<V_j, X> X, of every frame in one
stacked real matrix product; every factor is a real quadratic form in the
sample (``_kernel``), about 30 passes over a (K, rows) block.  A batch's
integrand is held, (K, N // 20), until its last block is in, and reduced
to its K batch means, then scaled by the frame's constant; an evaluation
peaks about 1 MB (K = 1) and 7 MB (K = 6) above what the stream holds.

Threads: the caller hands private numpy work to one module-level helper
thread, always through ``_overlap``, for three jobs: it draws a stream's
next array of normals while the caller normalises the last, computes a
fresh form's kernel integrands while the caller runs the cocycle, and fills
the second half of the batches of a pass over two frames or more while
the caller fills the first.  The frame checks, the cocycle and every
public function run on the calling thread, and the bytes of every result
are those of a sequential run.  The overlap pays where BLAS runs one
thread per process, as the benchmark runs it; with OpenBLAS's default of
one thread per core, its worker spins between the cocycle's BLAS calls
and holds the second core.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .busemann import (
    VisualMeasure,
    _BATCHES,
    _batch_means,
    _batch_rows,
    _boundary_lifts,
    _mean_stderr,
    _poisson_exponent,
    _row_blocks,
    _unit_rows,
)
from .chains import cartan_triple_lifts, chain_through, sample_chain_point
from .hermitian import _form_diagonal, _herm, exp_map, tangent

_EVAL_ROWS = 8192  # the most rows of one evaluation block, whose pairings stay in cache


_pool = []  # the helper's executor, made on first use


def _overlap(on_helper, here):
    """(on_helper(), here()), with on_helper run on the one helper thread
    while here runs on the calling thread: the only way onto the helper,
    for the three jobs the module docstring names.

    It returns or raises only once the helper is done, so an error leaves
    no work on the helper: an error of here propagates, and otherwise one
    of on_helper is raised here.  The helper is made on first use, so a
    program that makes no form imports no ``concurrent.futures`` (and its
    ``logging``, 0.6 MB), and a forked child, which has none of its
    parent's threads, makes its own.  Once the interpreter is shutting down
    (a call from a thread that outlives the main thread, or from an atexit
    handler), the executor can neither be made nor take work, both raising
    RuntimeError; then both run here, on_helper first."""
    try:
        if not _pool:
            from concurrent.futures import ThreadPoolExecutor

            _pool.append(ThreadPoolExecutor(1, thread_name_prefix="chaingeo-forms"))
        pending = _pool[0].submit(on_helper)
    except RuntimeError:
        pending = None
    if pending is None:
        return on_helper(), here()
    try:
        mine = here()
    finally:
        pending.exception()  # waits, not raising
    return pending.result(), mine


os.register_at_fork(after_in_child=_pool.clear)

__all__ = [
    "BoundaryCocycle",
    "FormEvaluation",
    "BoundaryMapHandle",
    "delta_form_eval",
    "delta_form_field",
    "pullback_kappa_form",
    "exterior_derivative_fd",
    "chain_formula_check",
]


@dataclass
class BoundaryCocycle:
    """Bounded measurable function on (arity)-tuples of boundary points.

    ``evaluator`` receives ``arity`` arrays of lifts, each (N, p+1), and
    returns (N,) values with |value| <= sup_norm_bound.  A form's sample
    stream calls it on the calling thread, on read-only row blocks of at
    most 16384 lifts whose buffers it reuses for the next block, so it must
    neither keep nor modify them.
    ``alternating`` is a declaration that nothing checks.
    """

    arity: int
    evaluator: callable
    sup_norm_bound: float
    alternating: bool = False

    def __post_init__(self):
        if not 0 <= self.sup_norm_bound < np.inf:
            raise ValueError(f"sup_norm_bound must be in [0, inf), got {self.sup_norm_bound}")

    def __call__(self, *lift_arrays):
        if len(lift_arrays) != self.arity:
            raise ValueError(f"cocycle takes {self.arity} point arrays")
        vals = np.asarray(self.evaluator(*lift_arrays), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise ValueError("cocycle returned non-finite values")
        if vals.size and np.max(np.abs(vals)) > self.sup_norm_bound * (1 + 1e-9):
            raise ValueError("cocycle exceeded its declared sup-norm bound")
        return vals


@dataclass
class FormEvaluation:
    """A Monte-Carlo evaluation of a form on one frame (a point and its
    tangent vectors): the estimate, its batch-mean standard error, the
    sample count and the batch means.

    ``bound`` stores h^n * sup_norm * prod ||v_i||; the estimator satisfies
    |value| <= bound up to 3 standard errors.
    """

    value: float
    mc_stderr: float
    n_samples: int
    bound: float
    batch_means: np.ndarray = field(repr=False, default=None)

    @property
    def bound_satisfied(self):
        return abs(self.value) <= self.bound + 3.0 * self.mc_stderr + 1e-12


class _SampleStream:
    """The x-independent part of a Monte-Carlo form: the n+1 arrays of
    boundary samples and the cocycle values on them.

    The samples are drawn from one generator seeded with ``seed``, array by
    array, as ``VisualMeasure.sample_lifts`` draws them, so every stream with
    the same (seed, n_samples) holds the same samples (the
    common-random-numbers contract).  Each array is held as its (N, p) unit
    directions u; the lifts [u, 1] / sqrt(2) exist only as the row blocks
    given to the cocycle (``_lift_blocks``), and v = sqrt(2) times them as
    the pairing product's real rows (``_real_rows``).  The constructor draws
    the samples; ``run_cocycle`` then evaluates c, with its sup-norm check,
    on the calling thread, once per row block.

    ``evaluate`` pairs the stream with K frames in one pass over the
    blocks of its 20 batches, reducing each batch as it fills; a call
    evaluates one frame.
    """

    def __init__(self, model, entropy, c, n_samples, seed):
        self.degree = _degree(c)
        self.model = model
        self.entropy = entropy
        self.n_samples = n_samples
        self.dirs = _draw_directions(model.p, n_samples, seed, self.degree + 1)

    def run_cocycle(self, c):
        """Evaluate c on the samples, block by block, as ``values``."""
        self.sup_norm_bound, self.values = c.sup_norm_bound, np.empty(self.n_samples)
        for r, lifts in self._lift_blocks():
            self.values[r] = c(*lifts)

    def _lift_blocks(self):
        """(r, the n+1 arrays' lifts [u, 1] / sqrt(2) on the rows r) per row
        block, as read-only views of one reused (rows, p+1) buffer per
        array, so each block's lifts are valid until the next is made."""
        blocks = _row_blocks(self.n_samples)
        rows = max((r.stop - r.start for r in blocks), default=0)
        bufs = [np.empty((rows, self.model.p + 1), dtype=complex) for _ in self.dirs]
        for buf in bufs:
            buf[:, -1] = 1.0 / np.sqrt(2.0)
        for r in blocks:
            lifts = [_boundary_lifts(d[r], out=buf[: r.stop - r.start]) for d, buf in zip(self.dirs, bufs)]
            for view in lifts:
                view.flags.writeable = False  # a cocycle writing in place would corrupt later blocks
            yield r, lifts

    def __call__(self, x, *vectors):
        return self.evaluate([(x, vectors)])[0]

    def _real_rows(self, k, r):
        """Array k's v = [u, 1] = sqrt(2) xi on the rows r as contiguous real
        rows (2p+1, rows): Re u_0, Im u_0, Re u_1, ..., 1 (fast for BLAS)."""
        d = self.dirs[k][r].view(float).T
        t = np.empty((len(d) + 1, d.shape[1]))
        t[:-1], t[-1] = d, 1.0
        return t

    def _kernel(self, frames, batches):
        """Per block r of the given batches (``_row_blocks`` of at most
        ``_EVAL_ROWS`` rows), in order, (r, g): each frame's integrand over
        the cocycle value and its constant (``_evaluations``), (K, rows),
        g = det[t_kj] / ((q_0 .. q_n)^E q_1 .. q_n), E = h kappa, where on
        array k's v, q_k = |<v, X>|^2 and t_kj = Re(<v, V'_j> conj <v, X>)."""
        n, size, E = self.degree, _batch_rows(self.n_samples), _poisson_exponent(self.model, self.entropy)
        # rows of W = J [X, V'_1 ..] (V'_j = V_j + Re<V_j, X> X, J the form
        # diagonal) give Re<v, .>, those of i W Im<v, .>; v's last Im is 0
        W = np.array([[x.lift, *(v.components + _herm(v.components, x.lift).real * x.lift for v in vectors)]
                      for x, vectors in frames]) * _form_diagonal(self.model.p + 1)
        re, im = (np.ascontiguousarray(w.view(float)[..., :-1]) for w in (W, 1j * W))  # (K, n+1, 2p+1)
        X = np.concatenate([re[:, :1], im[:, :1]], axis=1)
        blocks = _row_blocks(size, rows=_EVAL_ROWS)
        for r in (slice(b * size + q.start, b * size + q.stop) for b in batches for q in blocks):
            # one stacked product per array and part: each frame's rows @ v
            g = X @ self._real_rows(0, r)
            g *= g
            g = g[:, 0] + g[:, 1]  # q_0
            t = []
            for k in range(1, n + 1):
                v = self._real_rows(k, r)
                t.append(_times_first(re @ v))
                t[-1] += _times_first(im @ v)  # q_k, then t_k1 .. t_kn
            rest = 1.0 if n == 0 else t[0][:, 0] if n == 1 else t[0][:, 0] * t[1][:, 0]
            det = 1.0 if n == 0 else t[0][:, 1] if n == 1 else t[0][:, 1] * t[1][:, 2] - t[0][:, 2] * t[1][:, 1]
            g *= rest
            g **= E
            g *= rest
            yield r, np.divide(det, g, out=g)

    def _fill(self, means, integrands):
        """Write the batch means of the cocycle values x the ``_kernel``
        integrands into the columns of ``means`` (K, batches), holding one
        (K, ``_batch_rows``) batch at a time and reducing it as soon as its
        last block is in."""
        size = _batch_rows(self.n_samples)
        batch = np.empty((len(means), size))
        for r, g in integrands:
            b, start = divmod(r.start, size)
            np.multiply(self.values[r], g, out=batch[:, start : start + r.stop - r.start])
            if r.stop == (b + 1) * size:
                means[:, b : b + 1] = _batch_means(batch, 1)

    def evaluate(self, frames):
        """One FormEvaluation per frame (x, vectors), reading each block of
        the stream once for all the frames."""
        _check_frames(self.degree, frames)
        means = np.empty((len(frames), _BATCHES))
        if len(frames) == 1:
            # too short a pass for the split to pay: at N = 200k one frame
            # took 5.7-7.8 ms on this thread alone and 6.1-11.7 ms split
            self._fill(means, self._kernel(frames, range(_BATCHES)))
        else:
            half = _BATCHES // 2
            _overlap(lambda: self._fill(means, self._kernel(frames, range(half, _BATCHES))),
                     lambda: self._fill(means, self._kernel(frames, range(half))))
        return self._evaluations(frames, means)

    def _evaluations(self, frames, means):
        """One FormEvaluation per frame from its row of batch ``means`` of
        the ``_kernel`` integrands, times the frame's constant
        (-h sqrt(s))^n (-<X,X>)^(E (n+1)): as |<xi, O>|^2 = 1/2, e^xi(x) is
        (-<X,X> / q)^E and (de^xi)_x(V_j) is -h sqrt(s) e^xi(x) t_j / q."""
        n, h, s = self.degree, self.entropy.value, self.model.metric_scale
        E = _poisson_exponent(self.model, self.entropy)
        means = means * [[(-h * np.sqrt(s)) ** n * (-_herm(x.lift, x.lift).real) ** (E * (n + 1))] for x, _ in frames]
        return [
            FormEvaluation(
                value=float(mean),
                mc_stderr=float(stderr),
                n_samples=self.n_samples,
                bound=float((h**n) * self.sup_norm_bound
                            * np.prod([np.sqrt(s * _herm(v.components, v.components).real) for v in vectors])),
                batch_means=batches,
            )
            for (_, vectors), batches, mean, stderr in zip(frames, means, *_mean_stderr(means))
        ]


def _degree(c):
    """The degree n = arity - 1 of the form of the cocycle c, in 0, 1, 2."""
    if c.arity - 1 not in (0, 1, 2):
        raise ValueError("degrees n <= 2 are supported")
    return c.arity - 1


def _check_frames(n, frames):
    """Raise unless every frame (x, vectors) is an interior x with n
    tangent vectors based at it."""
    for x, vectors in frames:
        if len(vectors) != n:
            raise ValueError(f"degree-{n} form needs {n} tangent vectors")
        if not x.is_interior:
            raise ValueError("forms are evaluated at interior points")
        for v in vectors:
            if not v.base.same_point_as(x):
                raise ValueError("tangent vectors must be based at x")


def _times_first(P):
    """P (K, n+1, rows), each row times the first in place, the first last."""
    P[:, 1:] *= P[:, :1]
    np.square(P[:, 0], out=P[:, 0])
    return P


def _draw(rng, out):
    """Fill ``out`` with standard normals.  Returns nothing, so the helper
    hands back no buffer."""
    rng.standard_normal(out=out)


def _draw_directions(p, n, seed, count):
    """``count`` arrays of n unit directions in C^p, drawn from one generator
    seeded with ``seed`` as ``VisualMeasure.sample_lifts`` draws its lifts.

    The caller allocates every draw buffer, so the helper's malloc arena
    stays small, and drops each once it has been read.
    """
    rng = np.random.default_rng(seed)
    drawn = np.empty((2, n, p))
    _draw(rng, drawn)
    dirs = []
    for _ in range(count - 1):
        normals, drawn = drawn, np.empty((2, n, p))
        dirs.append(_overlap(lambda: _draw(rng, drawn), lambda: _unit_rows(normals))[1])
        del normals  # two draw buffers at a time
    dirs.append(_unit_rows(drawn))
    return dirs


def delta_form_eval(model, entropy, c, x, vectors, n_samples=200_000, seed=0):
    """Evaluate the degree-n form of the cocycle c at x on tangent vectors.

    ``vectors`` is a sequence of n := arity-1 TangentVectors (n in 0, 1, 2).
    Deterministic per (seed, n_samples); antisymmetric in the vectors by
    construction of the estimator.  The frame is checked before any sample
    is drawn.
    """
    frames = [(x, vectors)]
    _check_frames(_degree(c), frames)
    stream = _SampleStream(model, entropy, c, n_samples, seed)
    integrands, _ = _overlap(lambda: list(stream._kernel(frames, range(_BATCHES))), lambda: stream.run_cocycle(c))
    means = np.empty((1, _BATCHES))
    stream._fill(means, integrands)
    return stream._evaluations(frames, means)[0]


def delta_form_field(model, entropy, c, n_samples=200_000, seed=0):
    """Callable ``field(x, *vectors)`` evaluating the form of c at arbitrary
    points on one sample stream (common random numbers across points).

    The stream is drawn, and the cocycle evaluated, once, here; the field
    holds (n+1) * n_samples * p complex unit directions and n_samples
    cocycle values, about 21 MB at n_samples = 200k, n = p = 2, and
    building it in 16384-row blocks peaks about 7 MB above that.  The field
    is the stream itself: ``field.run_cocycle(c2)`` puts a cocycle of the
    same arity on the same draw, a call costs one stacked real matrix
    product per sample array and row block and peaks about 1 MB above what
    is held, and ``exterior_derivative_fd`` evaluates its six frames in one
    pass over the stream and peaks about 7 MB above what is held.
    """
    stream = _SampleStream(model, entropy, c, n_samples, seed)
    stream.run_cocycle(c)
    return stream


class BoundaryMapHandle:
    """Measurable boundary map phi: dH^p -> dH^q usable in pullbacks.

    A function of stacked lifts.  ``from_embedding`` builds the closed-form
    equivariant ones (an embedding matrix, optionally post-composed with a
    target isometry and/or complex conjugation); only equivariant handles
    are accepted by the chain-formula check.
    """

    def __init__(self, fn, source_p, target_q, equivariant=False):
        self._fn = fn
        self.source_p = source_p
        self.target_q = target_q
        self.equivariant = equivariant

    def __call__(self, lifts):
        return self._fn(np.asarray(lifts, dtype=complex))

    @classmethod
    def from_embedding(cls, emb, post=None, conjugate=False):
        W = emb.matrix
        M = post.matrix @ W if post is not None else W

        def fn(lifts):
            out = lifts @ M.T
            return np.conj(out) if conjugate else out

        return cls(fn, emb.source_p, emb.target_q, equivariant=True)


def pullback_kappa_form(
    model, entropy, phi, x, u, v, n_samples=200_000, seed=0
):
    """Explicit bounded representative of the pulled-back Kahler class.

    Evaluates the degree-2 form of the pulled-back angular cocycle
    c(x0,x1,x2) = c_q(phi x0, phi x1, phi x2) at x on (u, v); bounded by
    h^2 ||u|| ||v||.
    """

    def ev(l0, l1, l2):
        return cartan_triple_lifts(phi(l0), phi(l1), phi(l2))

    c = BoundaryCocycle(arity=3, evaluator=ev, sup_norm_bound=1.0, alternating=True)
    return delta_form_eval(model, entropy, c, x, [u, v], n_samples=n_samples, seed=seed)


def _chart_tangent(model, x0, dirs, a, axis, delta=1e-4):
    """Coordinate vector field d/d(axis) of the chart exp_x0(sum a_i dirs_i)
    at chart position ``a``, by central differences of canonical lifts."""
    def lift_at(position):
        w = sum(t * d.components for t, d in zip(position, dirs))
        if np.linalg.norm(w) < 1e-300:
            return x0
        return exp_map(model, x0, tangent(model, x0, w))

    ap = list(a)
    ap[axis] += delta
    am = list(a)
    am[axis] -= delta
    base = lift_at(a)
    raw = (lift_at(ap).lift - lift_at(am).lift) / (2.0 * delta)
    return base, tangent(model, base, raw)


def exterior_derivative_fd(field_eval, model, x, u, v, w, step=1e-3):
    """Central-difference exterior derivative of a 2-form field at x.

    Uses the coordinate formula in the geodesic chart spanned by (u, v, w):
    d omega(U,V,W) = D_U[omega(V,W)] - D_V[omega(U,W)] + D_W[omega(U,V)].
    Returns (value, mc_stderr, fd_step).  When the field carries batch
    means (Monte-Carlo forms with common random numbers), the stderr is
    computed on batch-wise differences, which captures the strong
    correlation between nearby evaluations.  A ``delta_form_field`` gets
    the six frames in one pass; any other callable is called per frame.
    """
    dirs = (u, v, w)
    frames = []
    for k in range(3):
        others = [i for i in range(3) if i != k]
        for t in (step, -step):
            pos = [t if i == k else 0.0 for i in range(3)]
            base, t1 = _chart_tangent(model, x, dirs, pos, others[0])
            _, t2 = _chart_tangent(model, x, dirs, pos, others[1])
            frames.append((base, (t1, t2)))
    if isinstance(field_eval, _SampleStream):
        evals = field_eval.evaluate(frames)
    else:
        evals = [field_eval(base, *vs) for base, vs in frames]
    terms = []
    term_batches = []
    for sign, fp, fm in zip((+1.0, -1.0, +1.0), evals[::2], evals[1::2]):
        if isinstance(fp, FormEvaluation):
            diff_b = (fp.batch_means - fm.batch_means) / (2.0 * step)
            terms.append(sign * float(diff_b.mean()))
            term_batches.append(sign * diff_b)
        else:
            terms.append(sign * (float(fp) - float(fm)) / (2.0 * step))
    value = float(sum(terms))
    if term_batches:
        tot = np.sum(term_batches, axis=0)
        stderr = float(_mean_stderr(tot)[1])
    else:
        stderr = 0.0
    # the check loses meaning once the Monte-Carlo noise cannot resolve the
    # O(step^2) truncation band of the central differences
    if stderr / step**2 > 1e7:
        warnings.warn(
            f"FD step {step:g} is small against the Monte-Carlo noise "
            f"(stderr {stderr:.2e}); enlarge the step or the sample count",
            RuntimeWarning,
            stacklevel=2,
        )
    return value, stderr, step


def chain_formula_check(
    model_p,
    model_q,
    phi,
    maximality_sign,
    n_chains=100,
    triples_per_chain=10,
    seed=0,
    rng=None,
):
    """Residual of c_q(phi .) = i * c_p(.) over sampled chain triples.

    Only equivariant closed-form boundary maps are accepted: for those the
    lattice average in the underlying formula is constant, so the pointwise
    identity is the meaningful check.  Returns the max residual, NaN if any
    residual is NaN.
    """
    if not phi.equivariant:
        raise ValueError(
            "chain averaging over a lattice quotient is out of scope; "
            "only equivariant boundary maps admit the pointwise check"
        )
    rng = rng or np.random.default_rng(seed)
    worst = 0.0
    nu = VisualMeasure(model_p, seed=seed)
    for _ in range(n_chains):
        a, b = nu.sample_points(2, rng=rng)
        if a.same_point_as(b):
            continue
        C = chain_through(model_p, a, b)
        ts = rng.uniform(0.0, 2 * np.pi, size=(triples_per_chain, 3))
        for row in ts:
            pts = sample_chain_point(C, row)
            if any(pts[k].same_point_as(pts[(k + 1) % 3]) for k in range(3)):
                continue
            lifts = [x.lift[None, :] for x in pts]
            cp = cartan_triple_lifts(*lifts)[0]
            cq = cartan_triple_lifts(*(phi(l) for l in lifts))[0]
            # np.maximum, unlike max, keeps a NaN residual
            worst = float(np.maximum(worst, abs(cq - maximality_sign * cp)))
    return worst
