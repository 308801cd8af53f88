"""Recovery of isometric holomorphic embeddings from sampled boundary maps.

A boundary map that carries chains to chains with matching orientation and
generic triples to generic triples is, at desk scale, the boundary trace
of an isometric holomorphic embedding.

The compatibility gate mines co-chain triples from the samples.  All
random source pairs are drawn at once and tested in draw order, a block at
a time: a sample's distance from a pair's chain is a bilinear form in the
outer product of its unit lift, so one real matrix product per block rules
out the far samples, and one stacked span test decides the rest when they
could complete the count.  The report matches the pair-by-pair loop's.

The fit proceeds in three stages: a projective direct linear solve (each
sample constrains W xi to the line of its target), an alternation of
per-sample phase alignment with linear least squares, and a projection
onto the exact form isometries <Wv, Ww>_q = lambda <v, w>_p by the J-polar
factor of the generalized polar decomposition, an inverse square root
taken through an eigendecomposition.  Samples are trimmed once
when gross outliers are present, so a small corrupted fraction does not
spoil the model; the per-sample residual report identifies the outliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chains import _in_span, cartan_triple_lifts
from .hermitian import _norm, _same_line
from .isometries import EmbeddingMap, _eig_function, _form_residual, _pulled_back_form

__all__ = [
    "BoundarySampleMap",
    "CompatibilityReport",
    "NoRigidModelError",
    "chain_compatibility_check",
    "fit_embedding",
    "verify_embedding",
]


class NoRigidModelError(RuntimeError):
    """The sampled map is not of embedding type (residual plateau)."""


@dataclass
class BoundarySampleMap:
    """Sampled boundary correspondence: pairs (xi in dH^p, eta in dH^q)."""

    pairs: list
    p: int
    q: int

    def __post_init__(self):
        need = max(20, 4 * (self.p + 1) * (self.q + 1))
        if len(self.pairs) < need:
            raise ValueError(f"need at least {need} sample pairs, got {len(self.pairs)}")
        for xi, eta in self.pairs:
            if not (xi.is_boundary and eta.is_boundary):
                raise ValueError("sample pairs must consist of boundary points")

    @property
    def source_lifts(self):
        return np.stack([xi.lift for xi, _ in self.pairs])

    @property
    def target_lifts(self):
        return np.stack([eta.lift for _, eta in self.pairs])


@dataclass
class CompatibilityReport:
    cochain_triples: int
    image_cochain_fraction: float
    orientation_match_fraction: float
    generic_triples: int
    image_generic_fraction: float
    note: str = ""

    def passes(self, threshold=0.99):
        return (
            self.cochain_triples > 0
            and self.image_cochain_fraction >= threshold
            and self.orientation_match_fraction >= threshold
            and self.image_generic_fraction >= threshold
        )

    def antiholomorphic_signature(self, threshold=0.99):
        """Chains map to chains but every orientation is reversed."""
        return (
            self.cochain_triples > 0
            and self.image_cochain_fraction >= threshold
            and self.orientation_match_fraction <= 1.0 - threshold
            and self.image_generic_fraction >= threshold
        )


# pairs prefiltered per block of the co-chain mining loop; the mined triples
# do not depend on it.  On the perfbench reconstruct op list at seed 1, 256
# gave 48.6 MB peak RSS and 81 ops/s, 1024 gave 50.2 MB and 88 ops/s
_MINING_BLOCK = 256
# a pair of unit lifts with h = 1 - |<a, b>|^2 below this keeps every lift for
# the exact test: the prefilter finds h r^2, so its rounding error in r^2 grows as 1/h
_NEAR_PAIR = 1e-4
# the prefilter rules a lift out only when its squared residual exceeds
# tol^2 by this much; away from near pairs its rounding error is below 1e-10
_GRAM_SLACK = 1e-8


def _real_outer(x, y):
    """Rows [Re P, Im P] of the outer products P = x y^* (last axis), so
    that the dot product of two rows is Re tr(P^* R)."""
    P = x[:, :, None] * y.conj()[:, None, :]
    return np.concatenate([P.real, P.imag], axis=1).reshape(len(P), -1)


def _candidates(unit, table, pairs, tol):
    """(t, z): in draw order, the samples z other than a and b that may lie
    on the chain through row t = (a, b), a != b, of ``pairs``; no others do.

    ``unit`` holds the unit lifts u and ``table`` is
    ``_real_outer(unit, unit).T``.  With g = <u_a, u_b> and h = 1 - |g|^2,
    the squared distance r^2 of u_z from the span of u_a and u_b obeys

        h - h r^2 = Re tr(P_ab^* u_z u_z^*),  P_ab = u_a u_a^* + u_b (u_b - 2 g u_a)^*,

    so one real product of the P rows with ``table`` rules out the lifts
    beyond tol^2 + _GRAM_SLACK, none for a near pair (h < _NEAR_PAIR).
    """
    a, b = pairs.T
    ua, ub = unit[a], unit[b]
    g = np.vecdot(ua, ub)[:, None]
    h = 1.0 - (g.real**2 + g.imag**2)
    P = _real_outer(ua, ua) + _real_outer(ub, ub - 2 * g * ua)
    cand = (h < _NEAR_PAIR) | (P @ table >= h * (1.0 - tol**2 - _GRAM_SLACK))
    rows = np.arange(len(pairs))
    cand[rows, a] = cand[rows, b] = False
    cand[a == b] = False
    return np.divmod(np.flatnonzero(cand), len(unit))


def _mine_cochain(rng, lifts, n_triples, tol):
    """Up to ``n_triples`` co-chain triples (i, j, k) within 20 * n_triples
    pair draws: i, j a random pair of distinct points and k a random other
    sample on the chain through them.

    All pairs are drawn in one call and prefiltered a block at a time (see
    ``_candidates``); one ``_on_chain`` call decides the waiting candidates
    once they could fill ``n_triples`` pairs, or after the last block.  Of
    the first ``n_triples`` pairs with members, one more call picks each k.
    """
    unit = lifts / np.linalg.norm(lifts, axis=-1, keepdims=True)
    table = _real_outer(unit, unit).T
    pairs = rng.integers(0, len(lifts), size=(20 * n_triples, 2))
    # rows (draw, i, j, k) of co-chain triples and of candidates, and their draws
    found, pending, rows = np.zeros((0, 4), dtype=int), [], 0
    for start in range(0, len(pairs), _MINING_BLOCK):
        block = pairs[start:start + _MINING_BLOCK]
        t, z = _candidates(unit, table, block, tol)
        pending.append(np.column_stack([start + t, block[t], z]))
        rows += len(np.unique(t))
        if rows >= n_triples or start + _MINING_BLOCK >= len(pairs):
            cand = np.concatenate(pending)
            found = np.concatenate([found, cand[_on_chain(lifts, cand[:, 1:], tol)]])
            pending, rows = [], len(np.unique(found[:, 0]))
            if rows >= n_triples:
                break
    _, first, counts = np.unique(found[:, 0], return_index=True, return_counts=True)
    k = rng.integers(counts[:n_triples])
    return found[first[:n_triples] + k, 1:]


def _on_chain(lifts, triples, tol):
    """Whether lifts i and j are two points and lift k lies on the chain
    through them, for each row (i, j, k) of ``triples``."""
    a, b, z = lifts[triples.T]
    return ~_same_line(a, b) & _in_span(np.stack([a, b], axis=-1), z, tol)


def chain_compatibility_check(sample_map, n_triples=300, seed=0, tol=1e-7):
    """Fractions of chain-compatible and genericity-compatible triples.

    Co-chain triples are mined from the samples themselves: for random
    index pairs the chain through the two source points is intersected
    with the remaining samples (see ``_mine_cochain``).  Their images must
    lie on one chain with the same orientation; random generic triples
    must have generic images, and a triple whose image pair is one point
    does not.  Reports fractions with counts; too few co-chain triples is
    reported, not raised.
    """
    rng = np.random.default_rng(seed)
    src = sample_map.source_lifts
    tgt = sample_map.target_lifts
    tol_q = max(tol, 1e-6)
    cochain = _mine_cochain(rng, src, n_triples, tol)
    # the generic triples are drawn after all the mining draws; a triple
    # that repeats an index is not generic
    triples = rng.integers(0, len(src), size=(n_triples, 3))

    on_image = _on_chain(tgt, cochain, tol_q)
    cp = cartan_triple_lifts(*src[cochain.T])
    cq = cartan_triple_lifts(*tgt[cochain.T])
    img_cochain = int(on_image.sum())
    orient_match = int((on_image & (np.sign(cp) == np.sign(cq))).sum())

    i, j, k = triples.T
    generic = ~(_same_line(src[i], src[j]) | _same_line(src[j], src[k]))
    generic &= ~_on_chain(src, triples, tol)
    img_generic = generic & ~_same_line(tgt[i], tgt[j]) & ~_on_chain(tgt, triples, tol_q)
    n_generic = int(generic.sum())

    nc = len(cochain)
    note = "" if nc else "no co-chain triples found among the samples"
    return CompatibilityReport(
        cochain_triples=nc,
        image_cochain_fraction=img_cochain / nc if nc else 0.0,
        orientation_match_fraction=orient_match / max(1, img_cochain),
        generic_triples=n_generic,
        image_generic_fraction=int(img_generic.sum()) / n_generic if n_generic else 1.0,
        note=note,
    )


def _projective_residuals(W, src, tgt):
    img = src @ W.T
    ip = np.abs(np.sum(img * np.conj(tgt), axis=1))
    n1 = np.linalg.norm(img, axis=1)
    n2 = np.linalg.norm(tgt, axis=1)
    cos2 = np.clip((ip / (n1 * n2)) ** 2, 0.0, 1.0)
    return np.sqrt(1.0 - cos2)


def _dlt(src, tgt):
    """Direct linear solve: rows constrain W xi to the target line."""
    m, dp = src.shape
    dq = tgt.shape[1]
    eta = tgt / _norm(tgt)[:, None]
    # P_i = 1 - eta_i eta_i*, the projector off the target line; the row
    # block of sample i is kron(P_i, src_i)
    P = np.eye(dq) - eta[:, :, None] * eta.conj()[:, None, :]
    A = (P[:, :, :, None] * src[:, None, None, :]).reshape(m * dq, dq * dp)
    _, _, vh = np.linalg.svd(A, full_matrices=False)
    w = vh[-1].conj()
    return w.reshape(dq, dp)


def _alternate(W, src, tgt, sweeps=3):
    """Polish by alternating per-sample phase alignment with least squares."""
    for _ in range(sweeps):
        img = src @ W.T
        # projection coefficient of each image onto its target line
        coef = np.sum(img * np.conj(tgt), axis=1) / np.sum(np.abs(tgt) ** 2, axis=1)
        aligned = tgt * coef[:, None]
        W, *_ = np.linalg.lstsq(src, aligned, rcond=None)
        W = W.T
        W /= np.linalg.norm(W)
    return W


def _isometry_project(W, p, q):
    """Project W onto the form isometries {W : W* Jq W = lam Jp} by its
    J-polar factor W (Jp S / lam)^(-1/2), where S = W* Jq W and
    lam = tr(Jp S)/(p+1) (the generalized polar decomposition of Higham,
    Mackey, Mackey and Tisseur, SIAM J. Matrix Anal. Appl. 2005).  Jp S is
    Jp-selfadjoint, so the factor makes the pulled-back form exactly lam Jp;
    an exact isometry is left unchanged.  The inverse square root is
    V diag(mu^(-1/2)) V^-1 from Jp S / lam = V diag(mu) V^-1, the principal
    one when every Re mu > 0; any other fit (a non-positive or infinite
    scale, a rank-deficient fit, NaNs) raises NoRigidModelError.  Returns
    (W, lam)."""
    JS, lam = _pulled_back_form(W, p, q)
    if not 0 < lam < np.inf:
        raise NoRigidModelError("fit collapsed onto a non-positive or infinite form scale")
    return W @ _eig_function(JS / lam, _inverse_sqrt), lam


def _inverse_sqrt(mu):
    if not (mu.real > 0).all():
        raise NoRigidModelError("the fit's pulled-back form has no principal inverse square root")
    return mu**-0.5


@dataclass
class FitDiagnostics:
    residuals: np.ndarray
    median_residual: float
    isometry_residual: float
    mode: str
    trimmed: list = field(default_factory=list)
    compatibility: CompatibilityReport = None


def fit_embedding(sample_map, compatibility=None, plateau=1e-4, seed=0):
    """Fit an isometric embedding model to a sampled boundary map.

    Runs the compatibility gate first (fractions >= 0.99 required); an
    orientation-reversing map is refit through conjugated source samples
    and reported with mode='antiholomorphic'.  Raises NoRigidModelError
    when the residual plateau exceeds ``plateau``.
    Returns (EmbeddingMap, FitDiagnostics).
    """
    report = compatibility or chain_compatibility_check(sample_map, seed=seed)
    mode = "holomorphic"
    if not report.passes():
        if report.antiholomorphic_signature():
            mode = "antiholomorphic"
        else:
            raise NoRigidModelError(
                "compatibility check failed: "
                f"cochain image fraction {report.image_cochain_fraction:.3f}, "
                f"orientation fraction {report.orientation_match_fraction:.3f}, "
                f"generic fraction {report.image_generic_fraction:.3f}"
            )
    src = sample_map.source_lifts
    if mode == "antiholomorphic":
        src = np.conj(src)
    tgt = sample_map.target_lifts
    W = _dlt(src, tgt)
    W = _alternate(W, src, tgt)
    res = _projective_residuals(W, src, tgt)
    trimmed = []
    med = np.median(res)
    bad = np.where(res > max(10 * med, 1e-8))[0]
    if len(bad) and len(bad) <= len(res) // 4:
        keep = np.setdiff1d(np.arange(len(res)), bad)
        trimmed = bad.tolist()
        W = _dlt(src[keep], tgt[keep])
        W = _alternate(W, src[keep], tgt[keep])
    W, lam = _isometry_project(W, sample_map.p, sample_map.q)
    res = _projective_residuals(W, src, tgt)
    clean = np.setdiff1d(np.arange(len(res)), np.array(trimmed, dtype=int))
    med = float(np.median(res[clean]))
    if not med <= plateau:
        raise NoRigidModelError(
            f"no rigid model: residual plateau {med:.2e} exceeds {plateau:.0e}"
        )
    emb = EmbeddingMap(W, source_p=sample_map.p, target_q=sample_map.q, scale=lam)
    diags = FitDiagnostics(
        residuals=res,
        median_residual=med,
        isometry_residual=_form_residual(W, lam, sample_map.p, sample_map.q),
        mode=mode,
        trimmed=trimmed,
        compatibility=report,
    )
    return emb, diags


def verify_embedding(emb, sample_map, tol=1e-6, mode="holomorphic"):
    """Fraction of samples reproduced by the fitted boundary trace.

    Returns a dict with the in-tolerance fraction, the isometry residual
    of the matrix, the fit mode (holomorphy is structural: the matrix is
    complex-linear), and the indices of failing samples.
    """
    src = sample_map.source_lifts
    if mode == "antiholomorphic":
        src = np.conj(src)
    tgt = sample_map.target_lifts
    res = _projective_residuals(emb.matrix, src, tgt)
    ok = res < tol
    return {
        "fraction": float(ok.mean()),
        "isometry_residual": _form_residual(emb.matrix, emb.scale, emb.source_p, emb.target_q),
        "mode": mode,
        "failing": np.where(~ok)[0].tolist(),
        "residuals": res,
    }
