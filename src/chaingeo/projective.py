"""Cross-ratio machinery in the plane: harmonic conjugates, the complete
quadrilateral, and affine recovery.

Two arithmetic backends coexist.  Floating point serves the statistical
recovery operations; exact Gaussian rationals (QQi) serve the constructive
identities, where the complete quadrilateral reproduces the harmonic
conjugate as an exact equality.  All constructions are duck-typed over the
two scalar types.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "QQi",
    "AT_INFINITY",
    "AffLine",
    "QuadConfig",
    "QuadrilateralStepError",
    "cross_ratio",
    "harmonic_conjugate",
    "complete_quadrilateral",
    "fit_affine",
]


class QQi:
    """Gaussian rational: exact complex arithmetic over Fraction pairs."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def lift(cls, z):
        if isinstance(z, QQi):
            return z
        if isinstance(z, complex):
            return cls(Fraction(z.real).limit_denominator(10**12),
                       Fraction(z.imag).limit_denominator(10**12))
        return cls(z, 0)

    def __add__(self, o):
        o = QQi.lift(o)
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = QQi.lift(o)
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return QQi.lift(o) - self

    def __mul__(self, o):
        o = QQi.lift(o)
        return QQi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = QQi.lift(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi(
            (self.re * o.re + self.im * o.im) / d,
            (self.im * o.re - self.re * o.im) / d,
        )

    def __rtruediv__(self, o):
        return QQi.lift(o) / self

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __eq__(self, o):
        o = QQi.lift(o)
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"QQi({self.re}, {self.im})"


def _parts(z):
    if isinstance(z, QQi):
        return z.re, z.im
    z = complex(z)
    return z.real, z.imag


def _is_zero(z, tol=1e-14):
    if isinstance(z, QQi):
        return z.is_zero()
    return abs(z) <= tol


class _Infinity:
    """Sentinel for the point at infinity of a line."""

    def __repr__(self):
        return "AT_INFINITY"


AT_INFINITY = _Infinity()


def cross_ratio(a, b, c, d):
    """[a,b,c,d] = ((c-a)/(c-b)) * ((d-b)/(d-a)).

    Real exactly when the four points are concyclic or collinear; invariant
    under homographies; symmetric under simultaneous swaps (a b)(c d).
    """
    for x, y in ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d)):
        if _is_zero(x - y):
            raise ValueError("cross-ratio of coincident points")
    return ((c - a) / (c - b)) * ((d - b) / (d - a))


def harmonic_conjugate(a, b, c):
    """The unique d with [a,b,c,d] = -1; AT_INFINITY when c is the midpoint."""
    for x, y in ((a, b), (a, c), (b, c)):
        if _is_zero(x - y):
            raise ValueError("harmonic conjugate needs distinct points")
    k = (c - a) / (c - b)
    denom = k + 1
    if _is_zero(denom):
        return AT_INFINITY
    return (a + k * b) / denom


@dataclass
class AffLine:
    """Real affine line in C through ``point`` with direction ``direction``.

    Floating-point lines normalize the direction to modulus 1 with argument
    in [0, pi); exact lines keep the direction as given (projectively).
    """

    point: object
    direction: object

    def __post_init__(self):
        if _is_zero(self.direction):
            raise ValueError("line direction must be nonzero")
        if not isinstance(self.direction, QQi):
            d = complex(self.direction)
            d /= abs(d)
            if d.imag < 0 or (d.imag == 0 and d.real < 0):
                d = -d
            self.direction = d

    @classmethod
    def through(cls, p, q):
        if _is_zero(p - q):
            raise ValueError("two distinct points are needed")
        return cls(p, q - p)

    def contains(self, z, tol=1e-12):
        w = z - self.point
        dr, di = _parts(self.direction)
        wr, wi = _parts(w)
        cross = dr * wi - di * wr
        if isinstance(cross, Fraction):
            return cross == 0
        scale = max(1.0, abs(complex(self.direction)), abs(complex(w)))
        return abs(cross) <= tol * scale

    def parallel_to(self, other, tol=1e-14):
        dr, di = _parts(self.direction)
        er, ei = _parts(other.direction)
        cross = dr * ei - di * er
        if isinstance(cross, Fraction):
            return cross == 0
        return abs(cross) <= tol


class QuadrilateralStepError(ValueError):
    """A quadrilateral step degenerated (parallel lines / coincident points)."""

    def __init__(self, step, message):
        super().__init__(f"step {step}: {message}")


def _meet(l1, l2, step):
    """Intersection point of two affine lines; step-labelled error if parallel."""
    if l1.parallel_to(l2):
        raise QuadrilateralStepError(step, "parallel lines have no intersection")
    p1r, p1i = _parts(l1.point)
    p2r, p2i = _parts(l2.point)
    d1r, d1i = _parts(l1.direction)
    d2r, d2i = _parts(l2.direction)
    # solve p1 + t d1 = p2 + u d2 over the reals
    det = -d1r * d2i + d1i * d2r
    rhs_r = p2r - p1r
    rhs_i = p2i - p1i
    t = (-rhs_r * d2i + rhs_i * d2r) / det
    return l1.point + t * l1.direction


@dataclass
class QuadConfig:
    """Input of the complete quadrilateral: collinear A, B, C on d, an
    auxiliary line d' through A, and an apex M off both lines."""

    d_prime: AffLine
    d: AffLine
    A: object
    B: object
    C: object
    M: object

    def __post_init__(self):
        for name, z in (("A", self.A), ("B", self.B), ("C", self.C)):
            if not self.d.contains(z):
                raise ValueError(f"point {name} is not on the base line d")
        if not self.d_prime.contains(self.A):
            raise ValueError("the auxiliary line d' must pass through A")
        if self.d.parallel_to(self.d_prime) and self.d.contains(self.d_prime.point):
            raise ValueError("d' must differ from d")
        for x, y in ((self.A, self.B), (self.B, self.C), (self.A, self.C)):
            if _is_zero(x - y):
                raise ValueError("A, B, C must be pairwise distinct")
        if self.d.contains(self.M) or self.d_prime.contains(self.M):
            raise ValueError("M must avoid both lines")


def complete_quadrilateral(cfg):
    """Harmonic conjugate of C w.r.t. (A, B) by the complete quadrilateral.

    Executes the incidence chain P = <C,M> n d', Q = <P,B> n <A,M>,
    N = <B,M> n d', D = <N,Q> n d.  In exact arithmetic [A,B,C,D] = -1
    exactly, and D is independent of the auxiliary choices (d', M).
    Degenerate configurations raise a step-indexed error.
    """
    A, B, C, M = cfg.A, cfg.B, cfg.C, cfg.M
    P = _meet(AffLine.through(C, M), cfg.d_prime, "m1")
    if _is_zero(P - B):
        raise QuadrilateralStepError("m2", "P collided with B")
    Q = _meet(AffLine.through(P, B), AffLine.through(A, M), "m3")
    N = _meet(AffLine.through(B, M), cfg.d_prime, "m4")
    if _is_zero(N - Q):
        raise QuadrilateralStepError("m6", "N collided with Q")
    D = _meet(AffLine.through(N, Q), cfg.d, "m6")
    if not cfg.d.contains(D):
        raise QuadrilateralStepError("m7", "result escaped the base line")
    return D


def fit_affine(samples):
    """Least-squares complex-affine fit w = lam*z + c to (z, w) samples.

    Fits both the affine and the conjugate-affine model and keeps the one
    with the smaller residual; the verdict is reported as ``mode``
    ('affine' | 'anti-affine'), with the cyclic-orientation evidence that
    separates the two.  Returns (lam, c, diagnostics dict).
    """
    zs = np.array([complex(z) for z, _ in samples])
    ws = np.array([complex(w) for _, w in samples])
    if len(zs) < 3:
        raise ValueError("at least 3 samples are required")
    # non-collinearity: spread of the z's off their principal axis
    zc = zs - zs.mean()
    m = np.column_stack([zc.real, zc.imag])
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] < 1e-12 * max(1.0, sv[0]):
        raise ValueError("sample points are collinear: fit is ill-conditioned")

    def lsq(basis):
        a = np.column_stack([basis, np.ones_like(basis)])
        coef, *_ = np.linalg.lstsq(a, ws, rcond=None)
        res = np.linalg.norm(a @ coef - ws) / np.sqrt(len(ws))
        return coef[0], coef[1], res

    lam_a, c_a, res_a = lsq(zs)
    lam_c, c_c, res_c = lsq(np.conj(zs))
    mode = "affine" if res_a <= res_c else "anti-affine"
    lam, c, res = (lam_a, c_a, res_a) if mode == "affine" else (lam_c, c_c, res_c)
    # cyclic-order evidence: orientation of sample triples vs image triples
    n = len(zs)
    rng = np.random.default_rng(0)
    agree = 0
    total = 0
    for _ in range(min(200, n * (n - 1) * (n - 2) // 6 or 1)):
        i, j, k = rng.choice(n, size=3, replace=False)
        s1 = np.sign(np.imag(np.conj(zs[j] - zs[i]) * (zs[k] - zs[i])))
        s2 = np.sign(np.imag(np.conj(ws[j] - ws[i]) * (ws[k] - ws[i])))
        if s1 != 0 and s2 != 0:
            total += 1
            agree += s1 == s2
    diagnostics = {
        "mode": mode,
        "residual": float(res),
        "residual_affine": float(res_a),
        "residual_anti": float(res_c),
        "orientation_preserved_fraction": agree / total if total else float("nan"),
    }
    return lam, c, diagnostics

