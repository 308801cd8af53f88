"""Recovery of isometric holomorphic embeddings from sampled boundary maps.

A boundary map that carries chains to chains with matching orientation and
generic triples to generic triples is, at desk scale, the boundary trace
of an isometric holomorphic embedding.

A sampled map holds the arrays of its source and target lifts.  The
compatibility gate mines co-chain triples from the samples.  All random
source pairs are drawn at once and tested in draw order, a block at a
time: |<v, z>|^2 is the dot product of d^2 real features of v and of z, so
a sample's distance from a pair's chain is linear in its features, and one
float32 product of the pairs' rows with the samples' feature table per
block rules out the far samples; each pair's own two points are dropped
before the block is scanned.  One stacked span test decides the rest when
they could complete the count.  The report matches the pair-by-pair loop's.

The fit proceeds in three stages: a projective direct linear solve (each
sample constrains W xi to the line of its target), an alternation of
per-sample phase alignment with linear least squares, and a projection
onto the exact form isometries <Wv, Ww>_q = lambda <v, w>_p by the J-polar
factor of the generalized polar decomposition, an inverse square root
taken through an eigendecomposition.  Residuals are phase-aligned line
distances, at rounding level on a clean map, which is fit once.  Gross
outliers are trimmed and the model refit, so a small corrupted fraction
does not spoil it; the per-sample residual report identifies them.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .chains import _in_span, cartan_triple_lifts
from .hermitian import _classify, _line_distance, _norm, _same_line
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


@dataclass(eq=False)
class BoundarySampleMap:
    """Sampled boundary correspondence xi_i -> eta_i (xi_i in dH^p, eta_i in
    dH^q), kept as the (n, p+1) and (n, q+1) arrays of their canonical lifts.
    ``from_lifts`` classifies two lift arrays with ``hermitian._classify``;
    ``pairs=`` stacks the lifts of (xi, eta) point pairs, which ``ProjPoint``
    classified with it one by one.  Both store the same bytes and raise the
    same errors."""

    pairs: InitVar[list]
    p: int
    q: int
    source_lifts: np.ndarray = field(init=False)
    target_lifts: np.ndarray = field(init=False)

    def __post_init__(self, pairs):
        _check_samples(len(pairs), self.p, self.q, all(xi.is_boundary and eta.is_boundary for xi, eta in pairs))
        self.source_lifts = np.stack([xi.lift for xi, _ in pairs])
        self.target_lifts = np.stack([eta.lift for _, eta in pairs])

    @classmethod
    def from_lifts(cls, source_lifts, target_lifts, p, q):
        """The map of the rows of an (n, p+1) and an (n, q+1) lift array."""
        src, tgt = np.asarray(source_lifts), np.asarray(target_lifts)
        if src.shape[1:] != (p + 1,) or tgt.shape != src.shape[:1] + (q + 1,):
            raise ValueError(f"need (n, {p + 1}) and (n, {q + 1}) lift arrays, got {src.shape} and {tgt.shape}")
        (src, src_boundary), (tgt, tgt_boundary) = _classify(src), _classify(tgt)
        _check_samples(len(src), p, q, src_boundary.all() and tgt_boundary.all())
        smap = cls.__new__(cls)
        smap.p, smap.q, smap.source_lifts, smap.target_lifts = p, q, src, tgt
        return smap


def _check_samples(n, p, q, boundary):
    """Raise unless n sample pairs, all of boundary points, can fit a map."""
    need = max(20, 4 * (p + 1) * (q + 1))
    if n < need:
        raise ValueError(f"need at least {need} sample pairs, got {n}")
    if not boundary:
        raise ValueError("sample pairs must consist of boundary points")


@dataclass
class CompatibilityReport:
    cochain_triples: int
    image_cochain_fraction: float
    orientation_match_fraction: float
    generic_triples: int
    image_generic_fraction: float

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
# do not depend on it.  A check of the perfbench reconstruct maps (seed 1)
# took 4.11, 4.35, 4.74 ms at 1024, 512, 256, tracing 1.10, 0.62, 0.53 MiB
_MINING_BLOCK = 1024
# a pair of unit lifts with h = 1 - |<a, b>|^2 below this keeps every lift for
# the exact test; above it the float64 rows of ``_pair_rows`` err by ~10 eps/h
_NEAR_PAIR = 1e-4


def _features(v):
    """Columns psi(v) = [|v_i|^2, sqrt2 Re(conj(v_i) v_j), sqrt2 Im(conj(v_i) v_j)]
    over i < j of the lifts v (first axis): psi(v) . psi(z) = |<v, z>|^2."""
    c = np.sqrt(2.0) * np.concatenate([v[:-k].conj() * v[k:] for k in range(1, len(v))])
    return np.concatenate([v.real**2 + v.imag**2, c.real, c.imag])


def _pair_rows(units, table, pairs):
    """float32 rows R of ``pairs`` (a, b) with R . psi(u_z) = 1 - r^2, r the
    distance of the unit lift u_z (column z of ``units``) from the span of
    u_a and u_b: with g = <u_a, u_b>, h = 1 - |g|^2 and w = u_b - g u_a,
    R = psi(u_a) + psi(w) / h, a column of ``table`` (``_features(units)``)
    plus the features of w / sqrt(h).  A near pair (h < _NEAR_PAIR) has 2
    on the |z_i|^2 columns and keeps every lift; a == b gives 0, none."""
    a, b = pairs.T
    ua, ub = units.take(a, axis=1), units.take(b, axis=1)
    g = sum(ua.conj() * ub)  # over the d rows, faster than a complex reduce
    h = 1.0 - (g.real**2 + g.imag**2)
    s = 1.0 / np.sqrt(np.maximum(h, _NEAR_PAIR))
    R = table.take(a, axis=1) + _features(ub * s - ua * (g * s))
    R[:, h < _NEAR_PAIR] = np.repeat([2.0, 0.0], [len(ua), len(R) - len(ua)])[:, None]
    R[:, a == b] = 0.0
    return R.T.astype(np.float32)


def _candidates(units, table, pairs, tol):
    """(t, z): in draw order, the samples z other than a and b that may lie
    on the chain through row t = (a, b) of ``pairs``; no others do.

    One float32 product of the ``_pair_rows`` with the contiguous float32
    ``table`` rules out the lifts with 1 - r^2 < 1 - tol^2 - slack.  Each
    row's own a and b are cleared before the scan, which then visits only
    the rows with a hit left.  Rounding psi(u_a), R (|R| <= 2) and psi(u_z)
    (norm 1) to float32, the d^2-term product and the threshold err by at
    most (2 d^2 + 6) u = (d^2 + 3) eps32, so slack = 4 (d^2 + 3) eps32
    covers them, and R's float64 error, 4 times."""
    slack = 4 * (len(table) + 3) * np.finfo(np.float32).eps  # len(table) = d^2
    cand = _pair_rows(units, table, pairs) @ table >= 1.0 - tol**2 - slack
    cand[np.arange(len(pairs))[:, None], pairs] = False
    hit = np.flatnonzero(cand.any(axis=1))
    t, z = np.divmod(np.flatnonzero(cand[hit]), units.shape[1])
    return hit[t], z


def _mine_cochain(rng, lifts, n_triples, tol):
    """Up to ``n_triples`` co-chain triples (i, j, k) within 20 * n_triples
    pair draws: i, j a random pair of distinct points and k a random other
    sample on the chain through them.

    All pairs are drawn in one call and prefiltered a block at a time (see
    ``_candidates``); one ``_on_chain`` call decides the waiting candidates
    once they could fill ``n_triples`` pairs, or after the last block.  Of
    the first ``n_triples`` pairs with members, one more call picks each k.
    """
    units = np.ascontiguousarray(lifts.T) / np.linalg.norm(lifts, axis=-1)
    table = _features(units).astype(np.float32)
    pairs = rng.integers(0, len(lifts), size=(20 * n_triples, 2))
    # rows (draw, i, j, k) of co-chain triples and of candidates, and their draws
    found, pending, rows = np.zeros((0, 4), dtype=int), [], 0
    for start in range(0, len(pairs), _MINING_BLOCK):
        block = pairs[start:start + _MINING_BLOCK]
        t, z = _candidates(units, table, block, tol)
        pending.append(np.column_stack([start + t, block[t], z]))
        rows += np.count_nonzero(np.diff(t, prepend=-1))
        if rows >= n_triples or start + _MINING_BLOCK >= len(pairs):
            cand = np.concatenate(pending)
            found = np.concatenate([found, cand[_on_chain(lifts, cand[:, 1:], tol)]])
            pending, rows = [], np.count_nonzero(np.diff(found[:, 0], prepend=-1))
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

    # both masks exclude i, j on one line, so a span test decides the rest
    i, j, k = triples.T
    generic = ~(_same_line(src[i], src[j]) | _same_line(src[j], src[k]))
    generic &= ~_in_span(np.stack([src[i], src[j]], axis=-1), src[k], tol)
    img_generic = generic & ~_same_line(tgt[i], tgt[j])
    img_generic &= ~_in_span(np.stack([tgt[i], tgt[j]], axis=-1), tgt[k], tol_q)
    n_generic = int(generic.sum())

    nc = len(cochain)
    return CompatibilityReport(
        cochain_triples=nc,
        image_cochain_fraction=img_cochain / nc if nc else 0.0,
        orientation_match_fraction=orient_match / max(1, img_cochain),
        generic_triples=n_generic,
        image_generic_fraction=int(img_generic.sum()) / n_generic if n_generic else 1.0,
    )


def _projective_residuals(W, src, tgt):
    """``_line_distance`` of each image W xi from its target; inf for a NaN fit."""
    with np.errstate(invalid="ignore"):
        return _line_distance(src @ W.T, tgt)


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
    """The fit's median residual over the untrimmed samples, the isometry
    residual of its matrix, its mode and the indices of trimmed samples."""

    median_residual: float
    isometry_residual: float
    mode: str
    trimmed: list


def fit_embedding(sample_map, compatibility=None, plateau=1e-4, seed=0):
    """Fit an isometric embedding model to a sampled boundary map.

    Runs the compatibility gate first (fractions >= 0.99 required); an
    orientation-reversing map is refit through conjugated source samples
    and reported with mode='antiholomorphic'.  Residuals are phase-aligned
    line distances, at rounding level on a clean map, whose fit trims
    nothing; otherwise samples above max(10 median, 1e-8), if at most a
    quarter, are trimmed and the model refit.  Raises NoRigidModelError
    when the kept samples' median residual exceeds ``plateau``.
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
    W = _alternate(_dlt(src, tgt), src, tgt)
    res = _projective_residuals(W, src, tgt)
    keep = ~(res > max(10 * np.median(res), 1e-8))
    keep |= keep.sum() < len(res) - len(res) // 4  # trim at most a quarter
    if not keep.all():
        W = _alternate(_dlt(src[keep], tgt[keep]), src[keep], tgt[keep])
    W, lam = _isometry_project(W, sample_map.p, sample_map.q)
    med = float(np.median(_projective_residuals(W, src, tgt)[keep]))
    if not med <= plateau:
        raise NoRigidModelError(
            f"no rigid model: residual plateau {med:.2e} exceeds {plateau:.0e}"
        )
    emb = EmbeddingMap(W, source_p=sample_map.p, target_q=sample_map.q, scale=lam)
    diags = FitDiagnostics(
        median_residual=med,
        isometry_residual=_form_residual(W, lam, sample_map.p, sample_map.q),
        mode=mode,
        trimmed=np.flatnonzero(~keep).tolist(),
    )
    return emb, diags


def verify_embedding(emb, sample_map, tol=1e-6, mode="holomorphic"):
    """Fraction of samples reproduced by the fitted boundary trace.

    Returns a dict with the in-tolerance fraction, the indices of failing
    samples and the per-sample projective residuals.  ``mode`` is the fit's:
    an antiholomorphic fit maps the conjugated source samples.
    """
    src = sample_map.source_lifts
    if mode == "antiholomorphic":
        src = np.conj(src)
    tgt = sample_map.target_lifts
    res = _projective_residuals(emb.matrix, src, tgt)
    ok = res < tol
    return {
        "fraction": float(ok.mean()),
        "failing": np.where(~ok)[0].tolist(),
        "residuals": res,
    }
