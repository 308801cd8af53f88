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
The lifts exist only in row blocks (``busemann._row_blocks``); the build
peaks about 19 MB above what the stream holds, at 40 MB.  An evaluation
of K frames (points with tangent vectors) reads each block of
``_EVAL_ROWS`` samples once, pairs it with W = [x, the vectors] of every
frame in one real matrix product, and takes the weight as the Poisson
kernel to the power p, with |<xi, O>|^2 a constant; it peaks about 2 MB
(K = 1) and 13 MB (K = 6) above what the stream holds.

Threads: one module-level helper thread (``_submit``) draws a stream's
normals, array k+1 while the calling thread normalises array k, and for
``delta_form_eval`` builds the frame's per-block weights while the calling
thread runs the cocycle.  The cocycle and every public function run on the
calling thread, and the bytes of every result are those of a sequential
run.  A forked child gets a fresh helper, and once the interpreter is
shutting down, when no thread can be started or scheduled, the caller runs
the helper's work itself, in the same order.  The overlap pays where BLAS
runs one thread per process, as the benchmark runs it; with OpenBLAS's
default of one thread per core, its worker spins between the cocycle's
BLAS calls and holds the second core.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .busemann import VisualMeasure, _batch_stats, _boundary_lifts, _poisson_power, _row_blocks, _unit_rows
from .chains import cartan_triple_lifts, chain_through, sample_chain_point
from .hermitian import _form_diagonal, _herm, exp_map, tangent

_EVAL_ROWS = 4096  # the rows of one evaluation block, whose pairings stay in cache


_pool = []  # the helper's executor, made on first use


def _submit(fn, *args):
    """A future of fn(*args) on the one helper thread.  The helper draws a
    stream's normals and builds a fresh form's frame factors; the cocycle
    and every public call stay on the caller.  It is made on first use, so
    a program that makes no form imports no ``concurrent.futures`` (and its
    ``logging``, 0.6 MB).  Once the interpreter is shutting down (a call
    from a thread that outlives the main thread, or from an atexit handler),
    the executor can neither be made nor take work, both raising
    RuntimeError; then fn runs here, at once."""
    try:
        if not _pool:
            from concurrent.futures import ThreadPoolExecutor

            _pool.append(ThreadPoolExecutor(1, thread_name_prefix="chaingeo-forms"))
        return _pool[0].submit(fn, *args)
    except RuntimeError:
        pass
    return _Done(fn(*args))


class _Done:
    """The result of a call already run on the caller, read as a future's."""

    def __init__(self, value):
        self.value = value

    def exception(self):
        return None

    def result(self):
        return self.value


# a forked child has none of its parent's threads, so it makes its own helper
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
    most 65536 lifts whose buffers it reuses for the next block, so it must
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
    given to the cocycle (``_lift_blocks``) and to the pairing product
    (``_transposed``).  The constructor draws the samples; ``run_cocycle``
    then evaluates c, with its sup-norm check, on the calling thread, once
    per row block.

    ``evaluate`` pairs the stream with K frames in one pass over its
    blocks; a call, with one.
    """

    def __init__(self, model, entropy, c, n_samples, seed):
        self.degree = _degree(c)
        self.model = model
        self.entropy = entropy
        self.sup_norm_bound = c.sup_norm_bound
        self.n_samples = n_samples
        self.dirs = _draw_directions(model.p, n_samples, seed, self.degree + 1)

    def run_cocycle(self, c):
        """Evaluate c on the samples, block by block, as ``values``."""
        self.values = np.empty(self.n_samples)
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

    def _transposed(self, k, r):
        """The real view of array k's lifts on the rows r, transposed and
        contiguous: (2p+2, rows), whose last two rows are 1/sqrt(2) and 0
        (BLAS takes it faster than the strided view, with the same bits)."""
        d = self.dirs[k][r].view(float).T
        t = np.empty((len(d) + 2, d.shape[1]))
        np.multiply(d, 1.0 / np.sqrt(2.0), out=t[:-2])
        t[-2], t[-1] = 1.0 / np.sqrt(2.0), 0.0
        return t

    def __call__(self, x, *vectors):
        return self.evaluate([(x, vectors)])[0]

    def _factors(self, frames):
        """Per evaluation block r, (r, weight, wedge): (K, rows) arrays of the
        first array's weight e^{xi_0}(x) and of the other arrays' wedge
        de^{xi_1} ^ ... on the vectors (None in degree 0), for every frame."""
        n = self.degree
        h, s, m = self.entropy.value, self.model.metric_scale, n + 1
        # the real view (Re xi_0, Im xi_0, Re xi_1, ...) of a lift dotted with
        # that of J W (J the form diagonal) is Re<xi, W>, with that of i J W
        # Im<xi, W>: B[k]'s rows give Re<xi, W_j>, then Im<xi, W_j>, with
        # W = [X, V_1..V_n] of frame k
        W = np.array([[x.lift, *(v.components for v in vectors)] for x, vectors in frames])
        B = np.concatenate([W, 1j * W], axis=1).view(float) * np.repeat(_form_diagonal(W.shape[2]), 2)
        neg_xx = np.array([[-_herm(x.lift, x.lift).real] for x, _ in frames])
        v_x = np.array([[_herm(v.components, x.lift).real for v in vectors] for x, vectors in frames])
        r2 = 1.0 / np.sqrt(2.0)  # every sample's last coordinate: |<xi, O>|^2 = r2 * r2
        for r in _row_blocks(self.n_samples, rows=_EVAL_ROWS):
            des = []
            for k in range(1, m):
                # (de^xi)_x(v) = h s Re<v, U_xi> e^xi with U_xi the unit tangent
                # at x toward xi, = h sqrt(s) e^xi Re(-<xi, v>/<xi, X> - <v, X>)
                re, im = np.split(B @ self._transposed(k, r), 2, axis=1)
                xi_x2 = re[:, 0] ** 2 + im[:, 0] ** 2
                e = h * np.sqrt(s) * _poisson_power(self.model, self.entropy, neg_xx, r2 * r2, xi_x2)
                xi_x2 *= -1.0  # -|<xi, X>|^2
                des.append([])
                for j in range(1, m):
                    d = re[:, j] * re[:, 0]
                    d += im[:, j] * im[:, 0]
                    d /= xi_x2
                    d -= v_x[:, j - 1, None]
                    d *= e
                    des[-1].append(d)
                del re, im  # one array's pairings at a time
            # the first array's weight needs only the X rows
            P = B[:, [0, m]] @ self._transposed(0, r)
            weight = _poisson_power(self.model, self.entropy, neg_xx, r2 * r2, P[:, 0] ** 2 + P[:, 1] ** 2)
            if n == 0:
                yield r, weight, None
            elif n == 1:
                yield r, weight, des[0][0]
            else:
                yield r, weight, des[0][0] * des[1][1] - des[0][1] * des[1][0]

    def evaluate(self, frames, factors=None):
        """One FormEvaluation per frame (x, vectors), reading each block of
        the stream once for all the frames.  ``factors`` are the frames'
        checked factors (``_factors``), by default built block by block."""
        if factors is None:
            _check_frames(self.degree, frames)
            factors = self._factors(frames)
        n, h, s = self.degree, self.entropy.value, self.model.metric_scale
        integrand = np.empty((len(frames), self.n_samples))
        for r, weight, wedge in factors:
            block = integrand[:, r]
            np.multiply(self.values[r], weight, out=block)
            if wedge is not None:
                block *= wedge
        return [
            FormEvaluation(
                value=float(mean),
                mc_stderr=float(stderr),
                n_samples=self.n_samples,
                bound=float((h**n) * self.sup_norm_bound
                            * np.prod([np.sqrt(s * _herm(v.components, v.components).real) for v in vectors])),
                batch_means=batches,
            )
            for (_, vectors), (mean, stderr, batches) in zip(frames, map(_batch_stats, integrand))
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


def _draw(rng, out):
    """Fill ``out`` with standard normals.  Returns nothing, so a finished
    future holds no buffer."""
    rng.standard_normal(out=out)


def _draw_directions(p, n, seed, count):
    """``count`` arrays of n unit directions in C^p, drawn from one generator
    seeded with ``seed`` as ``VisualMeasure.sample_lifts`` draws its lifts.

    The helper draws array k+1 while the caller normalises array k.  The
    caller allocates every draw buffer, so the helper's malloc arena stays
    small, and drops each once it has been read.
    """
    rng = np.random.default_rng(seed)
    bufs = [np.empty((2, n, p))]
    drawn = _submit(_draw, rng, bufs[0])
    dirs = []
    for k in range(count):
        drawn.result()
        if k + 1 < count:
            bufs.append(np.empty((2, n, p)))
            drawn = _submit(_draw, rng, bufs[-1])
        dirs.append(_unit_rows(bufs.pop(0)))
    return dirs


def delta_form_eval(model, entropy, c, x, vectors, n_samples=200_000, seed=0):
    """Evaluate the degree-n form of the cocycle c at x on tangent vectors.

    ``vectors`` is a sequence of n := arity-1 TangentVectors (n in 0, 1, 2).
    Deterministic per (seed, n_samples); antisymmetric in the vectors by
    construction of the estimator.  The frame is checked before any sample
    is drawn; the helper thread draws the samples and builds the frame's
    weights while this thread normalises the samples and runs the cocycle.
    """
    frames = [(x, vectors)]
    _check_frames(_degree(c), frames)
    stream = _SampleStream(model, entropy, c, n_samples, seed)
    pending = _submit(lambda: list(stream._factors(frames)))
    try:
        stream.run_cocycle(c)
    finally:
        pending.exception()  # waits, not raising: an error leaves no work on the helper
    return stream.evaluate(frames, pending.result())[0]


def delta_form_field(model, entropy, c, n_samples=200_000, seed=0):
    """Callable ``field(x, *vectors)`` evaluating the form of c at arbitrary
    points on one sample stream (common random numbers across points).

    The stream is drawn, and the cocycle evaluated, once, here, on this
    thread while the helper thread draws the normals; the field holds
    (n+1) * n_samples * p complex unit directions and n_samples cocycle
    values, about 21 MB at n_samples = 200k, n = p = 2, and building it
    peaks about 19 MB above that.  The field is the stream itself: a call
    runs on the calling thread, costs one real matrix product per sample
    array and row block and peaks about 2 MB above what is held, and
    ``exterior_derivative_fd`` evaluates its six frames in one pass over
    the stream.
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
        stderr = float(_batch_stats(tot, len(tot))[1])
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
            pts = [sample_chain_point(C, t) for t in row]
            if (
                pts[0].same_point_as(pts[1])
                or pts[1].same_point_as(pts[2])
                or pts[2].same_point_as(pts[0])
            ):
                continue
            lifts = [p.lift[None, :] for p in pts]
            cp = cartan_triple_lifts(*lifts)[0]
            cq = cartan_triple_lifts(*(phi(l) for l in lifts))[0]
            # np.maximum, unlike max, keeps a NaN residual
            worst = float(np.maximum(worst, abs(cq - maximality_sign * cp)))
    return worst
