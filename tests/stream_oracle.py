"""Reference for the sample stream: the whole-array passes.

``VisualMeasure.sample_lifts`` and the cocycle pass of
``forms._SampleStream`` run over equal row blocks; this module keeps the
same arithmetic over whole N-row arrays, so the tests can assert that the
blocks give the same bytes.  ``_SampleStream.evaluate`` reads every factor
of the integrand as a real quadratic form in v = sqrt(2) xi, from stacked
real pairings with the frame vectors (the -Re<V, X> term of de^xi absorbed
into V), and applies each frame's constant to its batch means;
``whole_array_eval`` keeps the independent complex form, with complex
pairings, a complex quotient, the -Re<V, X> term and the weight as
exp(-h B) on every sample, which agrees with it to rounding.
"""

import numpy as np

from chaingeo.busemann import _batch_means, _mean_stderr, busemann_kappa
from chaingeo.hermitian import _herm, _pairings


def whole_array_directions(model, n, rng):
    """(n, p) unit directions u, drawn as ``sample_lifts`` draws them."""
    g = rng.standard_normal((2, n, model.p))
    u = g[0] + 1j * g[1]
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    return u


def whole_array_lifts(model, n, rng):
    """(n, p+1) boundary lifts [u, 1] / sqrt(2), drawn as ``sample_lifts``
    draws them."""
    u = whole_array_directions(model, n, rng)
    lifts = np.concatenate([u, np.ones((n, 1), dtype=complex)], axis=1)
    return lifts / np.sqrt(2.0)


def exp_log_weight(model, entropy, xi_lifts, X, xi_x=None):
    """The weight exp(-h B_xi(x, 0)), with B from the closed-form cocycle's
    log; <xi, O> = -xi[..., -1] and <O, O> = -1."""
    if xi_x is None:
        xi_x = _pairings(xi_lifts, X)
    num = -np.abs(xi_x) ** 2
    den = np.abs(xi_lifts[..., -1]) ** 2 * _herm(X, X).real
    return np.exp(-entropy.value * (busemann_kappa(model) * np.log(num / den)))


def whole_array_eval(model, entropy, c, x, vectors, n_samples, seed):
    """(mean, stderr, batch means) of ``delta_form_eval`` on the same
    stream, with the cocycle called once on all samples."""
    rng = np.random.default_rng(seed)
    lifts = [whole_array_lifts(model, n_samples, rng) for _ in range(c.arity)]
    h, s = entropy.value, model.metric_scale
    X = x.lift
    integrand = c(*lifts) * exp_log_weight(model, entropy, lifts[0], X)
    des = []
    for xi in lifts[1:]:
        xi_x = _pairings(xi, X)
        weight = h * np.sqrt(s) * exp_log_weight(model, entropy, xi, X, xi_x=xi_x)
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
    batches = _batch_means(integrand)
    return (*_mean_stderr(batches), batches)
