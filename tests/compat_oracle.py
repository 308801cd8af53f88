"""Reference for the chain-compatibility check: the pair-by-pair loop.

Each mined pair is tested against every sample with one span test, and
each image and generic triple builds its ``Chain`` and tests its third
point.  The span test here is its own: the least-squares residual against
an SVD basis, not the library's closed form.  The random draws
are the three calls of ``reconstruction.chain_compatibility_check``, in
its order: every mining pair, then one k per kept pair, then the generic
triples.  So the two give equal reports.  A generic triple whose image
pair is one point counts as a non-generic image.  The points are rebuilt
from the map's lift arrays.
"""

import numpy as np

from chaingeo.chains import cartan_triple_lifts, chain_through
from chaingeo.hermitian import HermitianModel, ProjPoint
from chaingeo.reconstruction import CompatibilityReport, _pair_rows


def svd_in_span(span, lifts, tol):
    """Whether each lift (last axis) lies in the column span of ``span``: its
    least-squares distance to the span, against an orthonormal basis from
    ``np.linalg.svd``, is at most ``tol`` times its norm."""
    u = np.linalg.svd(span, full_matrices=False)[0]
    res = lifts - (lifts @ u.conj()) @ u.mT
    return np.linalg.norm(res, axis=-1) <= tol * np.linalg.norm(lifts, axis=-1)


def planted_span_lifts(rng, p, tol, n=40):
    """(L, planted): n unit lifts in C^{p+1} with planted ones.  L[1], L[2]
    and L[12] make with L[0] a near pair (1 - |g|^2 ~ 1e-5), a nearly
    coincident pair (~1e-12) and a pair just above the prefilter's near
    bound (in [1.1e-4, 1.9e-4]).  ``planted`` maps the slots 3..9 and
    13..15 to (pair, inside) for a lift at 0.99 or 1.01 tol from the span
    of the regular pair (10, 11), of (0, 1), of (0, 2) and of (0, 12), and
    at 0.999 tol from the span of (10, 11) and of (0, 12), inside being
    whether it lies within tol.  At p = 1 two independent lifts span C^2,
    so every planted lift lies in its span."""

    def unit(v):
        return v / np.linalg.norm(v)

    def gauss(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    L = np.array([unit(v) for v in gauss(n, p + 1)])
    L[1] = unit(L[0] + 3e-3 * unit(gauss(p + 1)))
    L[2] = unit(L[0] + 1e-6 * unit(gauss(p + 1)))
    e = gauss(p + 1)
    h = rng.uniform(1.1e-4, 1.9e-4)
    L[12] = unit(L[0] + np.sqrt(h / (1 - h)) * unit(e - np.vdot(L[0], e) * L[0]))
    planted = {}
    slots = iter([3, 4, 5, 6, 7, 8, 9, 13, 14, 15])
    for pair, factors in (
        ((10, 11), (0.99, 0.999, 1.01)),
        ((0, 1), (0.99, 1.01)),
        ((0, 2), (0.99, 1.01)),
        ((0, 12), (0.99, 0.999, 1.01)),
    ):
        q = np.linalg.qr(L[list(pair)].T, mode="complete")[0]
        for f in factors:
            eps = f * tol / np.sqrt(1.0 - (f * tol) ** 2)
            off = q[:, 2:] @ unit(gauss(p - 1)) if p > 1 else 0.0
            slot = next(slots)
            L[slot] = unit(q[:, :2] @ unit(gauss(2)) + eps * off)
            planted[slot] = (pair, f < 1 or p == 1)
    return L, planted


def gram_candidate_count(L, pairs, tol, slack=1e-8, near=1e-4):
    """Candidates of a float64 prefilter: for each pair (a, b), a != b, of
    the unit lifts of L, the other lifts z whose squared distance from
    the span, r^2 = 1 - |E_az|^2 - |E_bz - conj(g) E_az|^2 / h from the
    Gram table E of the unit lifts (g = E_ab, h = 1 - |g|^2), is at most
    tol^2 + slack, and every other lift of a near pair (h < near)."""
    u = L / np.linalg.norm(L, axis=-1, keepdims=True)
    E = u.conj() @ u.T
    count = 0
    for a, b in pairs:
        if a == b:
            continue
        g = E[a, b]
        h = 1.0 - abs(g) ** 2
        keep = np.ones(len(L), dtype=bool)
        if h >= near:
            r2 = 1.0 - abs(E[a]) ** 2 - abs(E[b] - g.conj() * E[a]) ** 2 / h
            keep = r2 <= tol**2 + slack
        keep[[a, b]] = False
        count += int(keep.sum())
    return count


def scan_then_drop_candidates(units, table, pairs, tol):
    """The (t, z) of ``reconstruction._candidates`` by a scan of every row:
    one ``flatnonzero`` over the whole (B, n) comparison, then the hits on
    a pair's own a and b dropped."""
    slack = 4 * (len(table) + 3) * np.finfo(np.float32).eps
    cand = _pair_rows(units, table, pairs) @ table >= 1.0 - tol**2 - slack
    t, z = np.divmod(np.flatnonzero(cand), units.shape[1])
    keep = (z != pairs[t, 0]) & (z != pairs[t, 1])
    return t[keep], z[keep]


def compatibility_loop(sample_map, n_triples=300, seed=0, tol=1e-7):
    rng = np.random.default_rng(seed)
    model_p = HermitianModel(sample_map.p)
    model_q = HermitianModel(sample_map.q)
    src = sample_map.source_lifts
    xs = [ProjPoint(l, model=model_p, kind="boundary") for l in src]
    ys = [ProjPoint(l, model=model_q, kind="boundary") for l in sample_map.target_lifts]
    n = len(xs)
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
    nc = len(cochain)
    return CompatibilityReport(
        cochain_triples=nc,
        image_cochain_fraction=img_cochain / nc if nc else 0.0,
        orientation_match_fraction=orient_match / max(1, img_cochain),
        generic_triples=generic,
        image_generic_fraction=img_generic / generic if generic else 1.0,
    )
