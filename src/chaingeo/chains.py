"""Chains and the angular invariant of boundary triples.

A chain is the boundary circle of a complex geodesic: the null lines of a
signature-(1,1) plane in C^{p+1}.  It is determined by any two of its
points and carries a canonical orientation (the complex orientation of the
disc it bounds).  The angular invariant of a boundary triple is

    c(x1, x2, x3) = (2/pi) arg(-<v1,v2><v2,v3><v3,v1>)

for arbitrary lifts v_i; it is lift-independent, alternating, takes values
in [-1, 1], and has |c| = 1 exactly on pairwise-distinct triples lying on
one chain.  The sign is calibrated so the positively oriented triple
(1, i, -1) on the unit circle of H^1_C gives +1.  The phase is the one
``hermitian._holonomy`` gives for the Kahler area (c is the area of the
ideal triangle over pi); its rounding bound carries over, a triple gets
the same bits alone as in a stack, and values are clipped to [-1, 1],
which rounding near a chain would otherwise leave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import HermitianModel, ProjPoint, _gram, _herm, _holonomy, _norm

__all__ = [
    "Chain",
    "cartan_invariant",
    "cartan_invariant_flagged",
    "cartan_triple_lifts",
    "chain_through",
    "chain_contains",
    "sample_chain_point",
]


def _cartan_flagged(X, Y, Z):
    """Angular invariant of raw lifts (last axis), its rounding bound and
    the degeneracy flag of ``hermitian._holonomy``.  The invariant is
    clipped to [-1, 1] and is 0 on degenerate triples; the bound
    (2/pi) (dim + 2) eps cond holds where the triple is not degenerate."""
    phase, cond, degenerate = _holonomy(X, Y, Z)
    c = np.where(degenerate, 0.0, np.clip((2.0 / np.pi) * phase, -1.0, 1.0))
    err = (2.0 / np.pi) * (X.shape[-1] + 2) * np.finfo(float).eps * cond
    return c, err, degenerate


def cartan_triple_lifts(lifts1, lifts2, lifts3):
    """Vectorized angular invariant from raw boundary lifts (last axis = C^{p+1}).

    It reads the holonomy kernel ``hermitian._holonomy`` that also gives
    the Kahler area, clipped to [-1, 1]; its rounding error is at most
    (2/pi) (p + 3) eps cond (see ``_cartan_flagged``).  Degenerate triples
    (vanishing triple product, relative to the lift norms) give 0.
    """
    return _cartan_flagged(lifts1, lifts2, lifts3)[0]


def cartan_invariant_flagged(model, x1, x2, x3):
    """Angular invariant of a boundary triple, plus a degeneracy flag."""
    for x in (x1, x2, x3):
        if not x.is_boundary:
            raise ValueError("the angular invariant is defined on boundary points")
    value, _, degenerate = _cartan_flagged(x1.lift, x2.lift, x3.lift)
    return float(value), bool(degenerate)


def cartan_invariant(model, x1, x2, x3):
    """Angular invariant in [-1, 1]; 0 for degenerate triples."""
    value, _ = cartan_invariant_flagged(model, x1, x2, x3)
    return value


@dataclass
class Chain:
    """Boundary circle of a complex geodesic, as a (1,1) plane in C^{p+1}."""

    span: np.ndarray  # (p+1, 2), columns spanning the plane
    orientation: int
    model: HermitianModel

    def __post_init__(self):
        s = np.asarray(self.span, dtype=complex)
        norms = np.linalg.norm(s, axis=0) if s.shape == (self.model.dim, 2) else np.zeros(2)
        if not np.all((0.0 < norms) & (norms < np.inf)):
            raise ValueError("span must be two independent vectors")
        # the Gram matrix of the unit columns has the signature of the span,
        # whatever the columns' scale; dependent columns make it singular
        unit = s / norms
        ev = np.linalg.eigvalsh(_gram(unit, unit))
        if not (ev[0] < -1e-10 and ev[1] > 1e-10):
            raise ValueError("span is not of signature (1,1)")
        if self.orientation not in (+1, -1):
            raise ValueError("orientation must be +1 or -1")
        object.__setattr__(self, "span", s)
        # cache an orthonormalized (positive, negative) basis for sampling
        neg, pos = self._split_basis(s, norms)
        self._pos = pos
        self._neg = neg

    @staticmethod
    def _split_basis(s, norms):
        """Gram-Schmidt a (negative, positive) orthonormal pair out of the span."""
        xi, eta = s[:, 0], s[:, 1]
        # u and <praw, praw> below scale as |xi| |eta| and |xi|^2
        n_xi, n_eta = norms
        u = _herm(eta, xi)
        if abs(u) < 1e-14 * n_xi * n_eta:
            # xi already negative or positive; mix differently
            cand = xi + eta
        else:
            cand = xi - (np.conj(u) / abs(u)) * eta
        q = _herm(cand, cand).real
        if q >= 0:
            cand = xi + (np.conj(u) / abs(u)) * eta
            q = _herm(cand, cand).real
        neg = cand / np.sqrt(-q)
        praw = xi + _herm(xi, neg) * neg
        p2 = _herm(praw, praw).real
        if p2 < 1e-14 * n_xi**2:
            praw = eta + _herm(eta, neg) * neg
            p2 = _herm(praw, praw).real
        pos = praw / np.sqrt(p2)
        return neg, pos

    def reversed(self):
        return Chain(self.span, -self.orientation, self.model)


def chain_through(model, xi, eta):
    """The unique chain through two distinct boundary points.

    Carries the canonical (+1) complex orientation.
    """
    if not (xi.is_boundary and eta.is_boundary):
        raise ValueError("chains pass through boundary points")
    if xi.same_point_as(eta):
        raise ValueError("chain through equal points is not defined")
    span = np.column_stack([xi.lift, eta.lift])
    return Chain(span, orientation=+1, model=model)


def _in_span(span, lifts, tol):
    """Whether each lift z (last axis) lies in the span of the columns a, b
    of ``span``: |z - <u1,z> u1 - <u2,z> u2| <= tol |z| for the Gram-Schmidt
    basis u1 = a/|a|, u2 = w/|w|, w = b - <u1,b> u1 orthogonalized against
    u1 twice to keep near pairs at rounding level.  A rank-1 span, |w| <=
    (p+1) eps |b| as in ``np.linalg.matrix_rank``, tests the line of a.
    Stacks of spans (..., p+1, 2) and lifts (..., p+1) broadcast over their
    leading axes, each item computed as by a call of its own."""
    a, b = span[..., 0], span[..., 1]
    u1 = a / _norm(a)[..., None]
    w = b - np.vecdot(u1, b)[..., None] * u1
    w -= np.vecdot(u1, w)[..., None] * u1
    nw = _norm(w)[..., None]
    u2 = w / np.where(nw <= a.shape[-1] * np.finfo(float).eps * _norm(b)[..., None], np.inf, nw)
    res = lifts - np.vecdot(u1, lifts)[..., None] * u1 - np.vecdot(u2, lifts)[..., None] * u2
    return _norm(res) <= tol * _norm(lifts)


def chain_contains(C, zeta, tol=1e-8):
    """Whether a boundary point lies on the chain (projective residual test)."""
    if not zeta.is_boundary:
        raise ValueError("chains pass through boundary points")
    return bool(_in_span(C.span, zeta.lift, tol))


def _chain_lifts(C, t):
    """Lifts exp(i t) pos + neg of the chain's points at the angles t, taken
    with the chain's orientation, along a last axis after the shape of t."""
    tt = C.orientation * np.asarray(t, dtype=float)
    return np.exp(1j * tt)[..., None] * C._pos + C._neg


def sample_chain_point(C, t):
    """Boundary point of the chain at angle t; injective on [0, 2pi).  An
    array of angles gives the list of their points.

    Increasing t traverses the chain positively for orientation +1: three
    increasing angles within one period have angular invariant equal to the
    chain's orientation.
    """
    v = _chain_lifts(C, t)
    if v.ndim == 1:
        return ProjPoint(v, model=C.model)
    return [ProjPoint(l, model=C.model) for l in v]
