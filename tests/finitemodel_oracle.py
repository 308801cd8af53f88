"""Elementwise loop definitions of the group-picture maps of
``chaingeo.finitemodels``: the differential, the contracting homotopy, the
averaged kernel psi and the H-average of a function.

The library computes these on whole arrays through its action tables; the
loops here read the action of H on H/Q through ``act_gq`` and a coset
index instead, one element at a time, and the tests require the two to
agree exactly.  Weights ``w`` and kernels are sequences of ``Fraction``s.
"""

from fractions import Fraction

import numpy as np


def act_hq(model, h, j):
    """h . (x_j Q) for h in H, as a position in H/Q."""
    return list(model.hq_cosets).index(model.act_gq(h, model.hq_cosets[j]))


def lam(model, w, y, j):
    """lambda_y(x) = w(y x)/w(x) for y in H, x the j-th coset of H/Q."""
    return w[act_hq(model, y, j)] / w[j]


def differential(model, f, n):
    """d f(g, x_0..x_n) = sum_i (-1)^i f(g, x_0..^x_i..x_n); for n = 0 the
    new coordinate is ignored."""
    k = len(model.hq_cosets)
    shape = (model.n,) + (k,) * (n + 1)
    out = np.empty(shape, dtype=object)
    if n == 0:
        for g in range(model.n):
            out[g, ...] = f[g]
        return out
    for idx in np.ndindex(*shape[1:]):
        sign = 1
        acc = None
        for i in range(n + 1):
            term = f[(slice(None),) + idx[:i] + idx[i + 1 :]]
            acc = term * sign if acc is None else acc + term * sign
            sign = -sign
        out[(slice(None),) + idx] = acc
    return out


def homotopy(model, psi, w, f, n):
    """h_n f(g, x_1..x_n) = sum_x psi(g, x) f(g, x, x_1..x_n) w(x)."""
    k = len(model.hq_cosets)
    out = np.empty((model.n,) + (k,) * n, dtype=object)
    for idx in np.ndindex(*out.shape[1:]):
        acc = None
        for x in range(k):
            term = psi[:, x] * f[(slice(None), x) + idx] * w[x]
            acc = term if acc is None else acc + term
        out[(slice(None),) + idx] = acc
    return out


def psi_kernel(model, beta, w):
    """psi(g, x) = sum_{h in H} beta(g h) lambda_{h^-1}(x)."""
    k = len(model.hq_cosets)
    psi = np.empty((model.n, k), dtype=object)
    for g in range(model.n):
        for j in range(k):
            acc = Fraction(0)
            for h in sorted(model.H):
                acc += beta[model.mul[g, h]] * lam(model, w, int(model.inv[h]), j)
            psi[g, j] = acc
    return psi


def h_average(model, raw, n):
    """f(g, x_1..x_n) = mean over h in H of raw(g h, h^-1 x_1, .., h^-1 x_n)."""
    k = len(model.hq_cosets)
    out = np.empty((model.n,) + (k,) * n, dtype=object)
    for g in range(model.n):
        for idx in np.ndindex(*out.shape[1:]):
            acc = Fraction(0)
            for h in sorted(model.H):
                hinv = int(model.inv[h])
                moved = tuple(act_hq(model, hinv, j) for j in idx)
                acc += raw[(int(model.mul[g, h]),) + moved]
            out[(g,) + idx] = acc / len(model.H)
    return out
