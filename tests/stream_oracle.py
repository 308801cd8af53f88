"""Reference for the sample stream: the whole-array passes.

``VisualMeasure.sample_lifts``, the cocycle pass of ``forms._SampleStream``
and its ``evaluate`` run over equal row blocks.  This module keeps the
same arithmetic over whole N-row arrays, so the tests can assert that the
blocks give the same bytes.
"""

import numpy as np

from chaingeo.busemann import _batch_stats, e_xi_lifts
from chaingeo.hermitian import _herm, _pairings


def whole_array_lifts(model, n, rng):
    """(n, p+1) boundary lifts, drawn as ``sample_lifts`` draws them."""
    g = rng.standard_normal((2, n, model.p))
    u = g[0] + 1j * g[1]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    lifts = np.concatenate([u, np.ones((n, 1), dtype=complex)], axis=1)
    return lifts / np.sqrt(2.0)


def whole_array_eval(model, entropy, c, x, vectors, n_samples, seed):
    """(mean, stderr, batch means) of ``delta_form_eval`` on the same
    stream, with the cocycle called once on all samples."""
    rng = np.random.default_rng(seed)
    lifts = [whole_array_lifts(model, n_samples, rng) for _ in range(c.arity)]
    h, s = entropy.value, model.metric_scale
    X = x.lift
    integrand = c(*lifts) * e_xi_lifts(model, entropy, lifts[0], X)
    des = []
    for xi in lifts[1:]:
        xi_x = _pairings(xi, X)
        weight = h * np.sqrt(s) * e_xi_lifts(model, entropy, xi, X, xi_x=xi_x)
        minus_inv = -1.0 / xi_x
        de_on = []
        for v in vectors:
            V = v.components
            de_on.append(weight * ((_pairings(xi, V) * minus_inv).real - _herm(V, X).real))
        des.append(de_on)
    if len(vectors) == 1:
        integrand = integrand * des[0][0]
    elif len(vectors) == 2:
        integrand = integrand * (des[0][0] * des[1][1] - des[0][1] * des[1][0])
    return _batch_stats(integrand)
