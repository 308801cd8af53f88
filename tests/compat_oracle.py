"""Reference for the chain-compatibility check: the pair-by-pair loop.

Each mined pair is tested against every sample with one ``_in_span`` call,
and each image and generic triple builds its ``Chain``.  The random draws
are the three calls of ``reconstruction.chain_compatibility_check``, in
its order: every mining pair, then one k per kept pair, then the generic
triples.  So the two give equal reports.  A generic triple whose image
pair is one point counts as a non-generic image.
"""

import numpy as np

from chaingeo.chains import _in_span, cartan_triple_lifts, chain_contains, chain_through
from chaingeo.hermitian import HermitianModel
from chaingeo.reconstruction import CompatibilityReport


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
        members = np.where(_in_span(src[[i, j]].T, src, tol))[0]
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
    for i, j, k in rng.integers(0, n, size=(n_triples, 3)):
        if xs[i].same_point_as(xs[j]) or xs[j].same_point_as(xs[k]):
            continue
        C = chain_through(model_p, xs[i], xs[j])
        if chain_contains(C, xs[k], tol=tol):
            continue
        generic += 1
        if ys[i].same_point_as(ys[j]):
            continue
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
