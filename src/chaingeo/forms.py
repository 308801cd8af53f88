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
builds one when the field is made and keeps it, (n+1) * N * (p+1) complex
lifts plus N cocycle values (about 30 MB at N = 200k and n = p = 2), while
``delta_form_eval`` builds one per call.  The build runs over equal row
blocks (``busemann._row_blocks``) and peaks about 14 MB above what the
stream holds.  An evaluation of K frames (points with tangent vectors)
reads each block of ``_EVAL_ROWS`` lifts once, pairs it with W = [x, the
vectors] of every frame in one real matrix product, and takes the weight
as the Poisson kernel to the power p, with |<xi, O>|^2 a constant; it
peaks about 2 MB (K = 1) and 12 MB (K = 6) above what the stream holds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .busemann import VisualMeasure, _batch_stats, _poisson_power, _row_blocks
from .chains import cartan_triple_lifts, chain_through, sample_chain_point
from .hermitian import _form_diagonal, _herm, exp_map, tangent

_EVAL_ROWS = 4096  # the rows of one evaluation block, whose pairings stay in cache

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
    returns (N,) values with |value| <= sup_norm_bound.  ``alternating`` is
    a declaration that nothing checks.
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
    boundary lifts and the cocycle values on them.

    The lifts are drawn from one generator seeded with ``seed``, array by
    array, so every stream with the same (seed, n_samples) holds the same
    samples (the common-random-numbers contract).  The cocycle, with its
    sup-norm check, runs here, once per row block.  ``evaluate`` pairs the
    stream with K frames in one pass over its blocks; a call, with one.
    """

    def __init__(self, model, entropy, c, n_samples, seed):
        self.degree = c.arity - 1
        if self.degree not in (0, 1, 2):
            raise ValueError("degrees n <= 2 are supported")
        self.model = model
        self.entropy = entropy
        self.sup_norm_bound = c.sup_norm_bound
        self.n_samples = n_samples
        nu = VisualMeasure(model, seed=seed)
        rng = np.random.default_rng(seed)
        self.lifts = [nu.sample_lifts(n_samples, rng=rng) for _ in range(self.degree + 1)]
        self.values = np.empty(n_samples)
        for r in _row_blocks(n_samples):
            self.values[r] = c(*(lifts[r] for lifts in self.lifts))

    def __call__(self, x, *vectors):
        return self.evaluate([(x, vectors)])[0]

    def evaluate(self, frames):
        """One FormEvaluation per frame (x, vectors), reading each block of
        the stream once for all the frames."""
        n = self.degree
        for x, vectors in frames:
            if len(vectors) != n:
                raise ValueError(f"degree-{n} form needs {n} tangent vectors")
            if not x.is_interior:
                raise ValueError("forms are evaluated at interior points")
            for v in vectors:
                if not v.base.same_point_as(x):
                    raise ValueError("tangent vectors must be based at x")
        h, s, m = self.entropy.value, self.model.metric_scale, n + 1
        # the real view (Re xi_0, Im xi_0, Re xi_1, ...) of a lift dotted with
        # that of J W (J the form diagonal) is Re<xi, W>, with that of i J W
        # Im<xi, W>: B[k]'s rows give Re<xi, W_j>, then Im<xi, W_j>, with
        # W = [X, V_1..V_n] of frame k (BLAS takes a block's contiguous
        # transpose faster than its strided view, with the same bits)
        W = np.array([[x.lift, *(v.components for v in vectors)] for x, vectors in frames])
        B = np.concatenate([W, 1j * W], axis=1).view(float) * np.repeat(_form_diagonal(W.shape[2]), 2)
        neg_xx = np.array([[-_herm(x.lift, x.lift).real] for x, _ in frames])
        v_x = np.array([[_herm(v.components, x.lift).real for v in vectors] for x, vectors in frames])
        r2 = 1.0 / np.sqrt(2.0)  # every sample's last coordinate: |<xi, O>|^2 = r2 * r2
        integrand = np.empty((len(frames), self.n_samples))
        for r in _row_blocks(self.n_samples, rows=_EVAL_ROWS):
            des = []
            for lifts in self.lifts[1:]:
                # (de^xi)_x(v) = h s Re<v, U_xi> e^xi with U_xi the unit tangent
                # at x toward xi, = h sqrt(s) e^xi Re(-<xi, v>/<xi, X> - <v, X>)
                re, im = np.split(B @ np.ascontiguousarray(lifts[r].view(float).T), 2, axis=1)
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
            P = B[:, [0, m]] @ np.ascontiguousarray(self.lifts[0][r].view(float).T)
            block = integrand[:, r]
            np.multiply(self.values[r], _poisson_power(
                self.model, self.entropy, neg_xx, r2 * r2, P[:, 0] ** 2 + P[:, 1] ** 2), out=block)
            if n == 1:
                block *= des[0][0]
            elif n == 2:
                block *= des[0][0] * des[1][1] - des[0][1] * des[1][0]
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


def delta_form_eval(model, entropy, c, x, vectors, n_samples=200_000, seed=0):
    """Evaluate the degree-n form of the cocycle c at x on tangent vectors.

    ``vectors`` is a sequence of n := arity-1 TangentVectors (n in 0, 1, 2).
    Deterministic per (seed, n_samples); antisymmetric in the vectors by
    construction of the estimator.
    """
    return _SampleStream(model, entropy, c, n_samples, seed)(x, *vectors)


def delta_form_field(model, entropy, c, n_samples=200_000, seed=0):
    """Callable ``field(x, *vectors)`` evaluating the form of c at arbitrary
    points on one sample stream (common random numbers across points).

    The stream is drawn, and the cocycle evaluated, once, here; the field
    holds (n+1) * n_samples * (p+1) complex lifts and n_samples cocycle
    values, about 30 MB at n_samples = 200k, n = p = 2, and building it
    peaks about 14 MB above that.  The field is the stream itself: a call
    costs one real matrix product per sample array and row block and peaks
    about 2 MB above what is held, and ``exterior_derivative_fd`` evaluates
    its six frames in one pass over the stream.
    """
    return _SampleStream(model, entropy, c, n_samples, seed)


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
