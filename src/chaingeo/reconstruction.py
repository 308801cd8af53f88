"""Recovery of isometric holomorphic embeddings from sampled boundary maps.

A boundary map that carries chains to chains with matching orientation and
generic triples to generic triples is, at desk scale, the boundary trace
of an isometric holomorphic embedding.  The fit proceeds in three stages:
a projective direct linear solve (each sample constrains W xi to the line
of its target), an alternation of per-sample phase alignment with linear
least squares, and a projection onto the exact form isometries
<Wv, Ww>_q = lambda <v, w>_p by the J-polar factor of the generalized
polar decomposition.  Samples are trimmed once when gross outliers are
present, so a small corrupted fraction does not spoil the model; the
per-sample residual report identifies the outliers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import sqrtm

from .chains import _in_span, cartan_triple_lifts, chain_contains, chain_through
from .hermitian import HermitianModel
from .isometries import EmbeddingMap, _form_residual, _pulled_back_form

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


def chain_compatibility_check(sample_map, n_triples=300, seed=0, tol=1e-7):
    """Fractions of chain-compatible and genericity-compatible triples.

    Co-chain triples are mined from the samples themselves: for random
    index pairs the chain through the two source points is intersected
    with the remaining samples.  Reports fractions with counts; too few
    co-chain triples is reported, not raised.
    """
    rng = np.random.default_rng(seed)
    model_p = HermitianModel(sample_map.p)
    model_q = HermitianModel(sample_map.q)
    xs = [xi for xi, _ in sample_map.pairs]
    ys = [eta for _, eta in sample_map.pairs]
    n = len(xs)
    src = sample_map.source_lifts
    cochain = []
    for _ in range(n_triples * 20):
        i, j = rng.choice(n, size=2, replace=False)
        if xs[i].same_point_as(xs[j]):
            continue
        members = np.where(_in_span(src[[i, j]].T, src, tol))[0]
        members = [k for k in members if k not in (i, j)]
        if members:
            k = members[int(rng.integers(len(members)))]
            cochain.append((i, j, k))
        if len(cochain) >= n_triples:
            break
    img_cochain = 0
    orient_match = 0
    for i, j, k in cochain:
        if ys[i].same_point_as(ys[j]):
            continue
        Cq = chain_through(model_q, ys[i], ys[j])
        if chain_contains(Cq, ys[k], tol=max(tol, 1e-6)):
            img_cochain += 1
            cp = cartan_triple_lifts(
                xs[i].lift[None], xs[j].lift[None], xs[k].lift[None]
            )[0]
            cq = cartan_triple_lifts(
                ys[i].lift[None], ys[j].lift[None], ys[k].lift[None]
            )[0]
            if np.sign(cp) == np.sign(cq):
                orient_match += 1
    generic = 0
    img_generic = 0
    for _ in range(n_triples):
        i, j, k = rng.choice(n, size=3, replace=False)
        if xs[i].same_point_as(xs[j]) or xs[j].same_point_as(xs[k]):
            continue
        C = chain_through(model_p, xs[i], xs[j])
        if chain_contains(C, xs[k], tol=tol):
            continue
        generic += 1
        Cq = chain_through(model_q, ys[i], ys[j])
        if not chain_contains(Cq, ys[k], tol=max(tol, 1e-6)):
            img_generic += 1
    note = "" if cochain else "no co-chain triples found among the samples"
    nc = len(cochain)
    return CompatibilityReport(
        cochain_triples=nc,
        image_cochain_fraction=img_cochain / nc if nc else 0.0,
        orientation_match_fraction=orient_match / max(1, img_cochain),
        generic_triples=generic,
        image_generic_fraction=img_generic / generic if generic else 1.0,
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
    eta = tgt / np.array([np.linalg.norm(t) for t in tgt])[:, None]
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
    an exact isometry is left unchanged.  Returns (W, lam)."""
    S, lam = _pulled_back_form(W, p, q)
    if not lam > 0:
        raise NoRigidModelError("fit collapsed onto a non-positive form scale")
    M = HermitianModel(p).form_diagonal[:, None] * S / lam
    return W @ np.linalg.inv(sqrtm(M)), lam


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
