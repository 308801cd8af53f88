"""Reference for the chain-compatibility check: the pair-by-pair loop.

Each mined pair is tested against every sample with one span test, and
each image and generic triple builds its ``Chain`` and tests its third
point.  The span test here is its own: the least-squares residual against
an SVD basis, not the library's closed form.  The random draws
are the three calls of ``reconstruction.chain_compatibility_check``, in
its order: every mining pair, then one k per kept pair, then the generic
triples.  So the two give equal reports.  A generic triple whose image
pair is one point counts as a non-generic image.
"""

import numpy as np

from chaingeo.chains import cartan_triple_lifts, chain_through
from chaingeo.hermitian import HermitianModel
from chaingeo.reconstruction import CompatibilityReport


def svd_in_span(span, lifts, tol):
    """Whether each lift (last axis) lies in the column span of ``span``: its
    least-squares distance to the span, against an orthonormal basis from
    ``np.linalg.svd``, is at most ``tol`` times its norm."""
    u = np.linalg.svd(span, full_matrices=False)[0]
    res = lifts - (lifts @ u.conj()) @ u.mT
    return np.linalg.norm(res, axis=-1) <= tol * np.linalg.norm(lifts, axis=-1)


def planted_span_lifts(rng, p, tol, n=40):
    """(L, planted): n unit lifts in C^{p+1} with planted ones.  L[1] and
    L[2] make with L[0] a near pair (1 - |g|^2 ~ 1e-5) and a nearly
    coincident pair (~1e-12).  ``planted`` maps the slots 3..8 to (pair,
    inside) for a lift at 0.99 or 1.01 tol from the span of the regular
    pair (10, 11), of (0, 1) and of (0, 2), inside being whether it lies
    within tol.  At p = 1 two independent lifts span C^2, so every planted
    lift lies in its span."""

    def unit(v):
        return v / np.linalg.norm(v)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    L = np.array([unit(v) for v in gauss(n, p + 1)])
    L[1] = unit(L[0] + 3e-3 * unit(gauss(p + 1)))
    L[2] = unit(L[0] + 1e-6 * unit(gauss(p + 1)))
    planted = {}
    slot = 3
    for pair in ((10, 11), (0, 1), (0, 2)):
        q = np.linalg.qr(L[list(pair)].T, mode="complete")[0]
        for f in (0.99, 1.01):
            eps = f * tol / np.sqrt(1.0 - (f * tol) ** 2)
            off = q[:, 2:] @ unit(gauss(p - 1)) if p > 1 else 0.0
            L[slot] = unit(q[:, :2] @ unit(gauss(2)) + eps * off)
            planted[slot] = (pair, f < 1 or p == 1)
            slot += 1
    return L, planted


def compatibility_loop(sample_map, n_triples=300, seed=0, tol=1e-7):
    rng = np.random.default_rng(seed)
    model_p = HermitianModel(sample_map.p)
    model_q = HermitianModel(sample_map.q)
    xs = [xi for xi, _ in sample_map.pairs]
    ys = [eta for _, eta in sample_map.pairs]
    n = len(xs)
    src = sample_map.source_lifts
    mined = []
    for i, j in rng.integers(0, n, size=(n_triples * 20, 2)):
        if xs[i].same_point_as(xs[j]):
            continue
        members = np.where(svd_in_span(src[[i, j]].T, src, tol))[0]
        members = [k for k in members if k not in (i, j)]
        if members:
            mined.append((i, j, members))
        if len(mined) >= n_triples:
            break
    picks = rng.integers(np.array([len(m) for _, _, m in mined], dtype=int))
    cochain = [(i, j, m[c]) for (i, j, m), c in zip(mined, picks)]
    img_cochain = 0
    orient_match = 0
    for i, j, k in cochain:
        if ys[i].same_point_as(ys[j]):
            continue
        Cq = chain_through(model_q, ys[i], ys[j])
        if svd_in_span(Cq.span, ys[k].lift, max(tol, 1e-6)):
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
    for i, j, k in rng.integers(0, n, size=(n_triples, 3)):
        if xs[i].same_point_as(xs[j]) or xs[j].same_point_as(xs[k]):
            continue
        C = chain_through(model_p, xs[i], xs[j])
        if svd_in_span(C.span, xs[k].lift, tol):
            continue
        generic += 1
        if ys[i].same_point_as(ys[j]):
            continue
        Cq = chain_through(model_q, ys[i], ys[j])
        if not svd_in_span(Cq.span, ys[k].lift, max(tol, 1e-6)):
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
