"""Busemann cocycle, boundary density weights, visual measure, volume entropy.

The Busemann cocycle is computed by the closed form

    B_xi(x, y) = kappa * log( |<X,xi>|^2 <Y,Y> / (|<Y,xi>|^2 <X,X>) ),

which is projectively well defined and additive in (x, y) exactly.  Distances
are sqrt(metric_scale) * arccosh sqrt(delta), so the distance-limit
definition B_xi(x,y) = lim_t [d(x, gamma(t)) - d(y, gamma(t))] along the ray
toward xi gives kappa = sqrt(metric_scale)/2; the tests keep that limit as
an independent oracle.  The sign convention makes B decrease toward xi, so
the weight

    e_xi(x) = exp(-h * B_xi(x, 0))

grows toward xi and integrates to 1 against the visual measure.  Here h is
the volume entropy of H_C^p, 2p/sqrt(metric_scale): geodesic spheres have
one Jacobi direction of curvature -4/metric_scale and 2p-2 of curvature
-1/metric_scale, so their area grows like exp(2p r/sqrt(metric_scale)).
With O = e_{p+1} the origin's lift, e_xi(x) is the Poisson kernel
-<X,X> |<xi,O>|^2 / |<xi,X>|^2 to the power h kappa = p: ``_poisson_power``
is the one implementation of the weight, for ``e_xi_lifts`` and the forms.

The visual measure nu_0 at the origin is the round measure: uniform on the
unit sphere of the positive coordinates in the canonical chart, which is
invariant under the unitary stabilizer of the origin by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import ProjPoint, _herm, _pairings

__all__ = [
    "VisualMeasure",
    "Entropy",
    "busemann",
    "busemann_lifts",
    "busemann_kappa",
    "e_xi",
    "e_xi_lifts",
    "volume_entropy",
    "measure_transform_check",
    "unit_mass_check",
]


@dataclass(frozen=True)
class Entropy:
    """Volume growth exponent of the model, 2p/sqrt(metric_scale)."""

    value: float
    p: int


class VisualMeasure:
    """Sampler for the stabilizer-invariant probability on the boundary.

    Samples are boundary points whose canonical-chart positive part is
    uniform on the unit sphere S^{2p-1}; the unitary stabilizer of the
    basepoint acts on that sphere by rotations, so the law is invariant.
    """

    def __init__(self, model, seed=0):
        self.model = model
        self.seed = int(seed)

    def sample_lifts(self, n, rng=None):
        """(n, p+1) array of boundary lifts, deterministic per (seed, n)."""
        rng = rng or np.random.default_rng(self.seed)
        g = rng.standard_normal((2, n, self.model.p))  # the draws of two normal(size=(n, p)) calls
        lifts = np.empty((n, self.model.p + 1), dtype=complex)
        lifts[:, -1] = 1.0 / np.sqrt(2.0)
        for r in _row_blocks(n):
            _boundary_lifts(_unit_rows(g[:, r]), out=lifts[r])
        return lifts

    def sample_points(self, n, rng=None):
        return [
            ProjPoint(v, model=self.model, kind="boundary")
            for v in self.sample_lifts(n, rng=rng)
        ]


def _unit_rows(g):
    """The (n, p) complex rows g[0] + i g[1] of (2, n, p) normal draws, each
    scaled to unit length: uniform directions on the sphere S^{2p-1}.

    The one normaliser of the sampler and the forms' sample stream.  The
    squared moduli are summed column by column, in order, with numpy's
    complex product (which may fuse a multiply-add), in a third of the time
    of ``np.linalg.norm``'s strided reduce.  That reduce adds the terms of
    a row in the same order while there are fewer than 8 of them, where
    numpy's pairwise summation starts, so for p <= 7 the bytes are its
    bytes; rows of 8 or more terms take ``np.linalg.norm`` itself.
    """
    u = np.empty(g.shape[1:], dtype=complex)
    u.real, u.imag = g[0], g[1]
    if u.shape[1] < 8:
        sq = (u[:, 0].conj() * u[:, 0]).real.copy()
        for j in range(1, u.shape[1]):
            sq += (u[:, j].conj() * u[:, j]).real
        norm = np.sqrt(sq)
    else:
        norm = np.linalg.norm(u, axis=1)
    f = u.view(float)  # numpy divides by c + 0i as a * (1/c): scaling gives its bytes
    f *= (1.0 / norm)[:, None]
    return u


def _boundary_lifts(dirs, out):
    """Write the boundary lifts [u, 1] / sqrt(2) of the (n, p) unit
    directions u to ``out``, (n, p+1), whose last column already holds
    1/sqrt(2), every sample's last coordinate (so |<xi, O>|^2 = 1/2), and
    return it."""
    np.multiply(dirs.view(float), 1.0 / np.sqrt(2.0), out=out[:, :-1].view(float))
    return out


def busemann_kappa(model):
    """Calibration constant of the closed-form Busemann cocycle.

    sqrt(metric_scale)/2, the value at which the closed form equals the
    distance-limit definition (1 at the default scale 4).
    """
    return float(np.sqrt(model.metric_scale) / 2.0)


def busemann(model, xi, x, y):
    """Busemann cocycle B_xi(x, y); decreases toward xi.

    Additive exactly: B_xi(x,y) + B_xi(y,z) = B_xi(x,z).  Along the unit
    ray toward xi starting at y, B_xi(gamma(t), y) = -t.
    """
    if not xi.is_boundary:
        raise ValueError("Busemann cocycle needs a boundary direction")
    if not (x.is_interior and y.is_interior):
        raise ValueError("Busemann cocycle compares interior points")
    return busemann_lifts(model, xi.lift, x.lift, y.lift)


def busemann_lifts(model, xi_lifts, X, Y):
    """Vectorized cocycle over an (n, p+1) array of boundary lifts."""
    num = np.abs(_pairings(xi_lifts, X)) ** 2 * _herm(Y, Y).real
    den = np.abs(_pairings(xi_lifts, Y)) ** 2 * _herm(X, X).real
    return busemann_kappa(model) * np.log(num / den)  # ratio of two negatives is positive


def e_xi(model, entropy, xi, x):
    """Boundary density weight exp(-h B_xi(x, 0)); equals 1 at the origin."""
    if not (xi.is_boundary and x.is_interior):
        raise ValueError("the weight is of an interior point toward a boundary point")
    return float(e_xi_lifts(model, entropy, xi.lift, x.lift))


def e_xi_lifts(model, entropy, xi_lifts, X):
    """Vectorized weight exp(-h B_xi(x, 0)) over an array of boundary lifts.

    The origin's lift is e_{p+1}, so |<xi, O>| = |xi[..., -1]|: the samples
    are not paired with the origin.
    """
    xi_o2, xi_x2 = np.abs(xi_lifts[..., -1]) ** 2, np.abs(_pairings(xi_lifts, X)) ** 2
    return _poisson_power(model, entropy, -_herm(X, X).real, xi_o2, xi_x2)


def _poisson_power(model, entropy, neg_xx, xi_o2, xi_x2):
    """(-<X,X> |<xi,O>|^2 / |<xi,X>|^2) ** (h kappa) from the squared moduli:
    exp(-h B_xi(x, 0)) with no log or exp, as h kappa = p to rounding."""
    return (neg_xx * xi_o2 / xi_x2) ** (entropy.value * busemann_kappa(model))


def volume_entropy(model):
    """Exponential growth rate of geodesic ball volumes.

    2p/sqrt(metric_scale) for H_C^p (p at the default scale 4), the one
    exponent at which the weights e_xi have unit visual mass.
    """
    return Entropy(value=float(2 * model.p / np.sqrt(model.metric_scale)), p=model.p)


def _test_family(model, lifts):
    """Fixed bounded test functions on the boundary for measure checks.

    Projectively invariant: squared pairings of the sample against a few
    reference directions.
    """
    e = np.eye(model.dim, dtype=complex)
    refs = [*e[:3], np.ones(model.dim, dtype=complex) / np.sqrt(model.dim)]
    nrm2 = np.sum(np.abs(lifts) ** 2, axis=1)
    return np.stack([np.abs(lifts @ np.conj(w)) ** 2 / nrm2 for w in refs], axis=0)  # (n_tests, N)


_BLOCK_ROWS = 65536  # the most rows of a sample stream that one pass holds


def _row_blocks(n, rows=_BLOCK_ROWS):
    """ceil(n / rows) slices cutting range(n) into blocks of equal size, to
    one row.  numpy rounds small arrays differently (a 3392-row
    tail changed about 1k of 200k angular-cocycle values), so no block is
    small, and a blockwise pass gives the whole-array bytes."""
    k = -(-n // rows)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


def _batch_stats(values, n_batches=20):
    """Mean, batch-mean standard error and the batch means along the last
    axis; a remainder of fewer than ``n_batches`` samples is dropped.

    The one place that reduces Monte-Carlo values to an estimate and its
    error.  Fewer values than batches raise ``ValueError``: an empty batch
    would make both NaN.
    """
    if values.shape[-1] < n_batches:
        raise ValueError(f"{values.shape[-1]} samples cannot fill {n_batches} batches")
    n = values.shape[-1] - values.shape[-1] % n_batches
    b = values[..., :n].reshape(values.shape[:-1] + (n_batches, -1)).mean(axis=-1)
    mean = b.mean(axis=-1)
    stderr = b.std(axis=-1, ddof=1) / np.sqrt(n_batches)
    return mean, stderr, b


def measure_transform_check(model, g, n_samples=100_000, seed=0, entropy=None, h_override=None):
    """Compare E[f(g xi)] with E[f(xi) exp(-h B_xi(g0, 0))] over nu_0.

    Common random numbers are used for both estimators.  Returns the
    worst z-score: the largest deviation over the test family in units of
    its Monte-Carlo standard error, below 3 when the density is right.
    With ``h_override`` the density exponent can be deliberately mistuned
    (negative-control use).
    """
    if h_override is not None:
        entropy = Entropy(value=h_override, p=model.p)
    entropy = entropy or volume_entropy(model)
    nu = VisualMeasure(model, seed=seed)
    lifts = nu.sample_lifts(n_samples)
    g0_lift = g.matrix @ model.basepoint().lift
    pushed = lifts @ g.matrix.T  # row-vector action on samples
    f_push = _test_family(model, pushed)
    f_weighted = _test_family(model, lifts) * e_xi_lifts(model, entropy, lifts, g0_lift)
    diff = f_push - f_weighted
    mean, stderr, _ = _batch_stats(diff)
    # identically-zero test functions (exact symmetries) leave only rounding
    # noise in both mean and stderr; floor the denominator so their z is ~0
    z = np.abs(mean) / (stderr + 1e-12)
    return float(z.max())


def unit_mass_check(model, entropy, x, n_samples=100_000, seed=0):
    """Monte-Carlo estimate of the nu_0-mass of the weight e_xi(x).

    Returns (estimate, stderr); the estimate must be 1 within noise.
    """
    nu = VisualMeasure(model, seed=seed)
    lifts = nu.sample_lifts(n_samples)
    vals = e_xi_lifts(model, entropy, lifts, x.lift)
    mean, stderr, _ = _batch_stats(vals)
    return float(mean), float(stderr)
