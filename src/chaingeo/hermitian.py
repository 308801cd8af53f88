"""Signature-(p,1) Hermitian geometry of complex hyperbolic space.

The model is the cone of negative lines in C^{p+1} for the diagonal form

    <X, Y> = sum_{i<=p} X_i conj(Y_i)  -  X_{p+1} conj(Y_{p+1}),

with the metric normalized so the minimal holomorphic sectional curvature
is -1.  The Riemannian metric at a canonical lift X (i.e. <X,X> = -1) is
``g(u, v) = metric_scale * Re<u, v>`` on horizontal vectors, and the Kahler
form is ``omega(u, v) = g(Ju, v)`` with J multiplication by i.  The default
``metric_scale = 4`` is the unique value consistent with the curvature
normalization, at which the distance of negative lines is
2 arccosh sqrt(<X,Y><Y,X> / (<X,X><Y,Y>)); the test suite validates it by
a curvature oracle built on that distance rather than assuming it.

The Kahler form is the curvature of the tautological line bundle, so the
signed Kahler area of a geodesic triangle, with interior or ideal
vertices, is the phase of the Hermitian triple product of its vertex
lifts.  The test suite checks this closed form against an independent
quadrature of the form over a cone filling.

``_classify`` alone decides what lifts are: canonical lifts and boundary
flags of one lift or a stack, for ``ProjPoint``, the JSON readers and
sample maps built from lift arrays.

Only this module writes the form; other modules pair vectors through
``inner`` or ``_herm`` (last axis), ``_pairings`` (sample arrays) and
``_gram`` (the Gram matrix A* J B of two sets of columns).  The holonomy
kernel ``_holonomy`` pairs through ``_pairing`` in real arithmetic on
coordinate columns, so a triple gets the same bits alone (on Python
floats) as in a stack (on numpy rows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "HermitianModel",
    "ProjPoint",
    "TangentVector",
    "TriangleArea",
    "inner",
    "exp_map",
    "tangent",
    "metric_and_kahler",
    "triangle_area",
]

# relative tolerance deciding interior vs boundary classification
TOL_NULL = 1e-10

_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class HermitianModel:
    """Ambient geometry: complex dimension p and metric normalization.

    ``metric_scale`` multiplies Re<u,v> on horizontal vectors at canonical
    lifts.  The default 4.0 gives minimal holomorphic sectional curvature
    -1 (so H^1_C is the curvature -1 Poincare disc).
    """

    p: int
    metric_scale: float = 4.0

    def __post_init__(self):
        if self.p < 1:
            raise ValueError("complex dimension p must be >= 1")
        if not 0 < self.metric_scale < np.inf:
            raise ValueError("metric_scale must be positive and finite")

    @property
    def dim(self):
        """Dimension of the ambient vector space, p + 1."""
        return self.p + 1

    @property
    def form_diagonal(self):
        """The signs (1, .., 1, -1) of the form in the standard basis."""
        return _form_diagonal(self.dim)

    def basepoint(self):
        """The origin: the negative line through e_{p+1}."""
        v = np.zeros(self.dim, dtype=complex)
        v[-1] = 1.0
        return ProjPoint(v, model=self)


def inner(model, X, Y):
    """Hermitian form <X, Y> of signature (p, 1); sesquilinear, linear in X.

    Accepts vectors or arrays of vectors (form applied along the last axis).
    """
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    if X.shape[-1] != model.dim or Y.shape[-1] != model.dim:
        raise ValueError(
            f"expected vectors of dimension {model.dim}, "
            f"got {X.shape[-1]} and {Y.shape[-1]}"
        )
    return _herm(X, Y)


def _form_diagonal(dim):
    d = np.ones(dim)
    d[-1] = -1.0
    return d


def _herm(X, Y):
    """<X, Y> along the last axis, without the dimension check of ``inner``."""
    s = np.add.reduce(X[..., :-1] * np.conj(Y[..., :-1]), axis=-1)
    return s - X[..., -1] * np.conj(Y[..., -1])


def _pairings(xi_lifts, V):
    """<xi_i, V> for every lift xi_i (rows of ``xi_lifts``), as one matrix
    product: <xi, V> = sum_k xi_k <e_k, V>.  ``V`` is one vector, giving
    shape (n,), or a stack (m, p+1), giving (n, m).  It is the conjugate
    of <V, xi_i>, so moduli and real parts of quotients need no conjugated
    copy of the samples."""
    return xi_lifts @ _herm(np.eye(V.shape[-1]), V[..., None, :]).T


def _gram(A, B):
    """Gram matrix A* J B of the form on the columns of A and B; for two
    vectors, the pairing <B, A>."""
    return A.conj().T @ (_form_diagonal(len(B)) * B.T).T


class ProjPoint:
    """Projective class of a nonzero vector: a point of H_C^p or its boundary.

    ``_classify`` makes the lift canonical: last coordinate real and
    positive, and <X,X> = -1 for interior points or Euclidean norm 1 for
    boundary points.  A stated ``kind`` is checked against the computed one.
    """

    __slots__ = ("lift", "kind", "model")

    def __init__(self, lift, model, kind=None):
        v = np.asarray(lift)
        if v.shape != (model.dim,):
            raise ValueError(f"lift must have shape ({model.dim},)")
        self.lift, boundary = _classify(v)
        self.kind = "boundary" if boundary else "interior"
        _check_kind(kind, self.kind)
        self.model = model

    @property
    def is_interior(self):
        return self.kind == "interior"

    @property
    def is_boundary(self):
        return self.kind == "boundary"

    def __repr__(self):
        return f"ProjPoint({self.lift!r}, kind={self.kind!r})"

    def same_point_as(self, other, tol=1e-9):
        """Projective equality test (lift-independent); see ``_same_line``."""
        return bool(_same_line(self.lift, other.lift, tol))


def _classify(lifts):
    """Canonical lifts of one lift or of a stack (rows), and whether each is
    a boundary point.  A row is divided by its norm ``_norm``; then
    |q| <= TOL_NULL for q = <v, v> is a boundary point, q < 0 an interior
    one (rescaled to <v, v> = -1), and q > 0 raises ``ValueError``, as a
    zero or non-finite row does (a row below 2^-537, whose squares underflow
    to a zero norm, is first scaled by 2^600, exactly); last, the last
    coordinate is made real and positive.  A row gets the same bits alone or
    in any stack."""
    V = np.array(lifts, dtype=complex)
    cols = V.T  # a view: scaling its columns scales the rows of V
    try:
        nrm = _norm(V)
    except RuntimeWarning:  # an overflowing norm, where warnings are errors
        nrm = np.full(V.shape[:-1], np.inf)
    if not _every((0.0 < nrm) & (nrm < np.inf)):
        tiny = (nrm == 0.0) & V.any(axis=-1) & np.isfinite(V).all(axis=-1)
        if not tiny.any():
            raise ValueError("lift must be nonzero and finite")
        V[tiny] *= 2.0**600
        return _classify(V)
    cols /= nrm
    q = _herm(V, V).real[()]  # |q| <= 1 after Euclidean normalization
    boundary = abs(q) <= TOL_NULL
    if not _every(boundary):
        if not _every(boundary | (q < 0)):
            raise ValueError("vector does not span a negative or null line")
        np.divide(cols, np.sqrt(abs(q)), out=cols, where=~boundary)
    last = cols[-1]
    # np.hypot has the bits of abs of one value; np.abs of an array has not
    mod = abs(last) if last.ndim == 0 else np.hypot(last.real, last.imag)
    cols *= np.conj(last) / mod
    return V, boundary


def _check_kind(stated, kind):
    """Raise unless a stated kind is None or the computed one."""
    if stated not in (None, kind):
        raise ValueError(f"a point stated as {stated} classifies as {kind}")


def _every(mask):
    """``mask.all()``, without a reduction's overhead on one lift's flag."""
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _same_line(A, B, tol=1e-9):
    """Whether the lifts A and B (last axis, broadcast) span the same line,
    their ``_line_distance`` below ``tol``.  One pair (1-D lifts) is tested
    on Python floats, a stack on numpy arrays."""
    if A.ndim == B.ndim == 1:
        a, b = _parts(A), _parts(B)
        return _same_line_parts(a, b, math.sqrt(_sq_norm(a)), math.sqrt(_sq_norm(b)), tol)
    return _line_distance(A, B) < tol


def _line_distance(A, B):
    """|A/|A| - B w| for stacks of lifts A and B (last axis, broadcast), w the
    phase of their pairing on B's unit lift: the lines' distance, accurate near
    0 (a sine taken from the cosine cancels there); inf if the pairing vanishes."""
    nA = np.sqrt(np.vecdot(A, A).real)
    nB = np.sqrt(np.vecdot(B, B).real)
    ph = np.vecdot(B, A)  # <A, B> up to the norms
    r = np.abs(ph)
    w = ph / (np.maximum(r, 1e-300) * nB)
    diff = A / nA[..., None] - B * w[..., None]
    return np.where(r >= 1e-300 * nA * nB, np.sqrt(np.vecdot(diff, diff).real), np.inf)


def _same_line_parts(a, b, na, nb, tol):
    """``_same_line`` on one pair, from the coordinate columns of two lifts
    (see ``_parts``) and their norms."""
    (ar, ai), (br, bi) = a, b
    # the Euclidean pairing sum A_k conj(B_k)
    re = im = 0.0
    for k in range(len(ar)):
        re += ar[k] * br[k] + ai[k] * bi[k]
        im += ai[k] * br[k] - ar[k] * bi[k]
    r = math.sqrt(re * re + im * im)
    # a zero lift, like a NaN, is never equal (the stacked form divides by
    # its norm and compares a NaN distance)
    if not (na and nb and r >= 1e-300 * na * nb):
        return False
    s = max(r, 1e-300) * nb
    wr, wi = re / s, im / s
    d2 = 0.0
    for k in range(len(ar)):
        dr = ar[k] / na - (br[k] * wr - bi[k] * wi)
        di = ai[k] / na - (br[k] * wi + bi[k] * wr)
        d2 += dr * dr + di * di
    return math.sqrt(d2) < tol


@dataclass
class TangentVector:
    """Horizontal representative of a tangent vector at an interior point.

    ``components`` satisfies <components, base.lift> = 0 at the canonical
    lift of the base point.
    """

    base: ProjPoint
    components: np.ndarray = field()

    def __post_init__(self):
        if not self.base.is_interior:
            raise ValueError("tangent vectors live at interior points")
        v = np.asarray(self.components, dtype=complex)
        if v.shape != self.base.lift.shape:
            raise ValueError("component shape mismatch")
        res = abs(_herm(v, self.base.lift))
        if not res <= 1e-12 * max(1.0, np.linalg.norm(v)) < np.inf:
            raise ValueError(f"components not finite and horizontal (residual {res:.2e})")
        self.components = v


def tangent(model, base, raw):
    """Project a raw ambient vector to the horizontal tangent space at base."""
    X = base.lift
    v = np.asarray(raw, dtype=complex)
    v = v - (_herm(v, X) / _herm(X, X)) * X
    return TangentVector(base, v)


def exp_map(model, x, v):
    """Riemannian exponential at interior x of the tangent vector v; far out
    (about 23 at metric_scale 4) the image cannot be represented."""
    X = x.lift
    n2 = _herm(v.components, v.components).real
    if n2 <= 0.0:
        raise ValueError("tangent vector must have positive square")
    speed = model.metric_scale ** 0.5 * np.sqrt(n2)  # g-norm
    if speed < 1e-300:
        return x
    u = v.components / np.sqrt(n2)
    tau = speed / model.metric_scale ** 0.5 * 2.0
    try:
        y = ProjPoint(np.cosh(tau / 2.0) * X + np.sinh(tau / 2.0) * u, model=model)
    except ValueError:  # rounding put the image outside the cone
        y = None
    if y is None or y.is_boundary:
        raise ValueError(f"exp_map cannot represent the point at distance {speed:.4g}: its lift is null")
    return y


def metric_and_kahler(model, x, u, v):
    """Riemannian inner product and Kahler form at x, on tangent vectors u, v.

    Returns ``(g, omega)`` with ``g = s Re<u,v>`` and ``omega = -s Im<u,v>``
    for horizontal components at the canonical lift, ``s = metric_scale``.
    ``omega(u, v) = g(Ju, v)`` for J = multiplication by i.
    """
    if u.base is not x and not u.base.same_point_as(x):
        raise ValueError("tangent vector u not based at x")
    if v.base is not x and not v.base.same_point_as(x):
        raise ValueError("tangent vector v not based at x")
    ip = _herm(u.components, v.components)
    pi = _herm(v.components, u.components)
    s = model.metric_scale
    # antisymmetrized so that omega(u, u) = 0 and omega(u, v) = -omega(v, u)
    # hold exactly in floating point, not just to rounding
    return s * 0.5 * (ip.real + pi.real), -s * 0.5 * (ip.imag - pi.imag)


# ---------------------------------------------------------------------------
# triangle area: the closed form of the Kahler cocycle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TriangleArea:
    """Signed Kahler area of a geodesic triangle.

    ``err_estimate`` bounds the rounding error of the closed form; it grows
    as a pairing of two vertices approaches zero.  Degenerate triples carry
    value 0 and error 0.
    """

    value: float
    err_estimate: float
    degenerate: bool = False

    def __float__(self):
        return self.value


def _norm(X):
    """Euclidean norm along the last axis, equal bit for bit to
    ``np.linalg.norm`` of each row (``np.dot`` costs less on one vector)."""
    dot = np.dot if X.ndim == 1 else np.vecdot
    return np.sqrt(dot(X.real, X.real) + dot(X.imag, X.imag))


# rows of a stack taken into the holonomy kernel at once; the real columns
# of one chunk and their temporaries stay small on the 200k-row cocycle
_HOLONOMY_ROWS = 2048


def _parts(A):
    """The coordinate columns (re, im) of one lift, as lists of floats."""
    return A.real.tolist(), A.imag.tolist()


def _columns(*stacks):
    """The coordinate columns (re, im) of stacks of lifts (rows) placed end
    to end, as the contiguous rows of two (dim, n) real arrays."""
    return (
        np.concatenate([A.real.T for A in stacks], axis=1),
        np.concatenate([A.imag.T for A in stacks], axis=1),
    )


def _sq_norm(a):
    """|A|^2 from the coordinate columns a = (re, im), summed left to right."""
    ar, ai = a
    s = ar[0] * ar[0] + ai[0] * ai[0]
    for k in range(1, len(ar)):
        s = s + (ar[k] * ar[k] + ai[k] * ai[k])
    return s


def _pairing(a, b):
    """<A, B> as (real, imaginary) parts from the coordinate columns of A
    and B: the coordinate products are summed left to right and the last
    is subtracted.  A column is a float (one lift) or a numpy row (a
    stack); both carriers make the same IEEE operations in the same order,
    so they give the same bits."""
    (ar, ai), (br, bi) = a, b
    re = ar[0] * br[0] + ai[0] * bi[0]
    im = ai[0] * br[0] - ar[0] * bi[0]
    for k in range(1, len(ar) - 1):
        re = re + (ar[k] * br[k] + ai[k] * bi[k])
        im = im + (ai[k] * br[k] - ar[k] * bi[k])
    return re - (ar[-1] * br[-1] + ai[-1] * bi[-1]), im - (ai[-1] * br[-1] - ar[-1] * bi[-1])


def _fdiv(a, b):
    """a / b on floats as numpy divides: a zero divisor gives inf for a
    positive numerator and NaN otherwise, where Python would raise."""
    return a / b if b else (math.inf if a > 0 else math.nan)


def _ratio(h, na, nb, sqrt, div):
    """|A| |B| / |<A,B>| from the pairing h = (re, im) and the norms."""
    re, im = h
    return div(na * nb, sqrt(re * re + im * im))


def _phase_cond(hxy, hyz, hzx, rxy, ryz, rzx):
    """The phase arg(-<X,Y><Y,Z><Z,X>), cond and the degeneracy flag from
    the three pairings (re, im) and their ratios (see ``_holonomy``)."""
    (xyr, xyi), (yzr, yzi), (zxr, zxi) = hxy, hyz, hzx
    tr, ti = xyr * yzr - xyi * yzi, xyr * yzi + xyi * yzr
    phase = np.arctan2(-(tr * zxi + ti * zxr), -(tr * zxr - ti * zxi))
    return phase, 1.0 + (rxy + ryz + rzx), rxy * ryz * rzx > 1e12


def _float_holonomy(cols, norms):
    """The holonomy formula on one triple, from the coordinate lists of the
    lifts X, Y, Z and their norms."""
    (x, y, z), (nx, ny, nz) = cols, norms
    hxy, hyz, hzx = _pairing(x, y), _pairing(y, z), _pairing(z, x)
    return _phase_cond(
        hxy, hyz, hzx,
        _ratio(hxy, nx, ny, math.sqrt, _fdiv),
        _ratio(hyz, ny, nz, math.sqrt, _fdiv),
        _ratio(hzx, nz, nx, math.sqrt, _fdiv),
    )


def _holonomy(X, Y, Z):
    """Phase arg(-<X,Y><Y,Z><Z,X>) of the lifts X, Y, Z (last axis), its
    rounding condition number and the degeneracy flag.

    A pairing <A,B> is summed with absolute rounding error of order
    dim * eps * |A||B|, which turns its phase by r = |A||B| / |<A,B>|; the
    two products and the arg add a few eps more, so the phase is off by
    at most about (dim + 2) * eps * cond with cond = 1 + r_xy + r_yz + r_zx.
    A triple is degenerate when r_xy r_yz r_zx > 1e12, that is when the
    triple product is below 1e-12 |X|^2 |Y|^2 |Z|^2, so the flag, like the
    phase, does not depend on the lifts chosen.  A zero pairing gives an
    infinite ratio and a degenerate triple.

    The formula is real arithmetic on coordinate columns: on Python floats
    for one triple (1-D lifts), and on the contiguous real rows of
    ``_HOLONOMY_ROWS``-row chunks for a stack, where the three pairings are
    one call on the columns of (X, Y, Z) against those of (Y, Z, X) placed
    end to end.  Moduli and norms are sums of squares under a correctly
    rounded square root, the phase is one ``np.arctan2``, and every
    operation is elementwise IEEE arithmetic, so a triple gets the same
    bits alone, in a (1, dim) stack or in any row of a larger one.
    """
    if X.ndim == Y.ndim == Z.ndim == 1:
        cols = [_parts(A) for A in (X, Y, Z)]
        return _float_holonomy(cols, [math.sqrt(_sq_norm(c)) for c in cols])
    X, Y, Z = np.broadcast_arrays(X, Y, Z)
    shape = X.shape[:-1]
    X, Y, Z = (A.reshape(-1, A.shape[-1]) for A in (X, Y, Z))
    phase, cond = np.empty(len(X)), np.empty(len(X))
    degenerate = np.empty(len(X), dtype=bool)
    with np.errstate(divide="ignore"):
        for s in range(0, len(X), _HOLONOMY_ROWS):
            rows = slice(s, s + _HOLONOMY_ROWS)
            x, y, z = X[rows], Y[rows], Z[rows]
            m = len(x)
            a = _columns(x, y, z)
            na = np.sqrt(_sq_norm(a))
            h = _pairing(a, _columns(y, z, x))
            r = _ratio(h, na, np.concatenate([na[m:], na[:m]]), np.sqrt, np.divide)
            thirds = (slice(0, m), slice(m, 2 * m), slice(2 * m, None))
            phase[rows], cond[rows], degenerate[rows] = _phase_cond(
                *((h[0][t], h[1][t]) for t in thirds), *(r[t] for t in thirds)
            )
    return phase.reshape(shape), cond.reshape(shape), degenerate.reshape(shape)


def triangle_area(model, x, y, z, tol=1e-6):
    """Signed Kahler area of the geodesic triangle (x, y, z).

    Vertices may be interior or ideal.  The Kahler form is the curvature of
    the tautological line bundle, so the area is the holonomy phase

        (metric_scale / 4) * 2 arg(-<X,Y><Y,Z><Z,X>)

    for any lifts (Goldman, Complex Hyperbolic Geometry, 7.1; Toledo 1989).
    It is alternating in the arguments and bounded by pi in absolute value
    for metric_scale = 4.  Degenerate triples (two projectively equal
    points) return 0 with the ``degenerate`` flag set.  The phase and its
    condition number come from the formula of ``_holonomy`` on Python
    floats, the kernel that also gives the angular invariant, and
    ``err_estimate`` is the rounding bound
    (metric_scale / 2) * (dim + 2) * eps * cond stated there.

    ``tol`` is the accuracy the caller needs: a ``ValueError`` is raised
    when the rounding bound ``err_estimate`` exceeds it or is NaN, as when
    two ideal vertices nearly coincide and their pairing loses its phase.
    """
    pts = (x, y, z)
    # the columns and norms of the lifts serve the same-point tests and the
    # holonomy formula
    cols = [_parts(v.lift) for v in pts]
    norms = [math.sqrt(_sq_norm(c)) for c in cols]
    for i, j in ((0, 1), (1, 2), (2, 0)):
        if pts[i].kind == pts[j].kind and _same_line_parts(cols[i], cols[j], norms[i], norms[j], 1e-9):
            return TriangleArea(0.0, 0.0, degenerate=True)
    phase, cond, _ = _float_holonomy(cols, norms)
    half = model.metric_scale / 2.0
    value = half * float(phase)
    err = half * (model.dim + 2) * _EPS * cond
    if not err <= tol:
        raise ValueError(
            f"area rounding bound {err:.2e} exceeds tol {tol:.2e}: "
            "two vertices nearly coincide"
        )
    return TriangleArea(value, err)
