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
-<X,X> |<xi,O>|^2 / |<xi,X>|^2 to the power h kappa = p, and
``_poisson_exponent`` is the one exponent, for ``e_xi_lifts`` and the forms.

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
        _unit_rows(g)
        lifts = np.empty((n, self.model.p + 1), dtype=complex)
        lifts[:, -1] = 1.0 / np.sqrt(2.0)
        return _boundary_lifts(g, out=lifts)

    def sample_points(self, n, rng=None):
        return [
            ProjPoint(v, model=self.model)
            for v in self.sample_lifts(n, rng=rng)
        ]


def _unit_rows(g):
    """Scale the (2, n, p) normal draws g in place so that each row of
    g[0] + i g[1] has unit length: uniform directions on the sphere
    S^{2p-1}, held as their real and imaginary halves.

    The one normaliser of the sampler and the forms' sample stream.  Block
    by block, the squared moduli are summed column by column, in order,
    with numpy's complex product (which may fuse a multiply-add) on a
    complex copy of the block, in a third of the time of
    ``np.linalg.norm``'s strided reduce.  That reduce adds the terms of a
    row in the same order while there are fewer than 8 of them, where
    numpy's pairwise summation starts, so for p <= 7 the bytes are its
    bytes; rows of 8 or more terms take ``np.linalg.norm`` itself.
    """
    blocks = _row_blocks(g.shape[1])
    z = np.empty((max((r.stop - r.start for r in blocks), default=0), g.shape[2]), dtype=complex)
    for r in blocks:  # each block's temporaries stay in cache
        b = z[: r.stop - r.start]
        b.real, b.imag = g[0, r], g[1, r]
        if b.shape[1] < 8:
            sq = (b[:, 0].conj() * b[:, 0]).real.copy()
            for j in range(1, b.shape[1]):
                sq += (b[:, j].conj() * b[:, j]).real
            norm = np.sqrt(sq)
        else:
            norm = np.linalg.norm(b, axis=1)
        g[:, r] *= (1.0 / norm)[:, None]  # numpy divides by c + 0i as a * (1/c): scaling gives its bytes


def _boundary_lifts(g, out):
    """Write the boundary lifts [u, 1] / sqrt(2) of the unit directions
    u = g[0] + i g[1], g (2, n, p) as ``_unit_rows`` leaves it, to ``out``,
    (n, p+1), whose last column already holds 1/sqrt(2), every sample's
    last coordinate (so |<xi, O>|^2 = 1/2), and return it.  Each half is
    read one column at a time: a 200k-row array took 1.6 ms so, and 8.3 ms
    in one pass writing (n, p, 2)-strided from the transposed halves."""
    for j in range(g.shape[2]):
        np.multiply(g[0, :, j], 1.0 / np.sqrt(2.0), out=out[:, j].real)
        np.multiply(g[1, :, j], 1.0 / np.sqrt(2.0), out=out[:, j].imag)
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
    # the Poisson kernel to the power h kappa: no log or exp
    return (-_herm(X, X).real * xi_o2 / xi_x2) ** _poisson_exponent(model, entropy)


def _poisson_exponent(model, entropy):
    """h kappa, the weight's power of the Poisson kernel: p to rounding.  An
    integer is returned as an int, which numpy squares in about half the
    time of the float power, with the same bytes; a mistuned entropy keeps
    its float exponent."""
    e = entropy.value * busemann_kappa(model)
    return int(e) if e.is_integer() else e


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


_BLOCK_ROWS = 16384  # the most rows of a sample stream that one pass holds


def _row_blocks(n, rows=_BLOCK_ROWS):
    """ceil(n / rows) slices cutting range(n) into blocks of equal size, to
    one row.  A stream's directions and cocycle values have the same bytes
    at every block size tried from 2 rows to the whole array; blocks of one
    row move them, as numpy's one-row matrix-vector product rounds apart."""
    k = -(-n // rows)
    return [slice(i * n // k, (i + 1) * n // k) for i in range(k)]


_BATCHES = 20  # the batches of every Monte-Carlo estimate


def _batch_rows(n, n_batches=_BATCHES):
    """The rows of each of ``n_batches`` equal batches of n samples; the
    remainder of fewer than ``n_batches`` samples is dropped.  Fewer
    samples than batches raise ``ValueError``: an empty batch would make
    the estimate and its error NaN."""
    if n < n_batches:
        raise ValueError(f"{n} samples cannot fill {n_batches} batches")
    return n // n_batches


def _batch_means(values, n_batches=_BATCHES):
    """The ``n_batches`` batch means along the last axis (``_batch_rows``).
    Each mean reduces one contiguous run of its batch's values, so a batch
    reduced alone gives the bytes it has in the whole row."""
    m = _batch_rows(values.shape[-1], n_batches)
    return values[..., : m * n_batches].reshape(values.shape[:-1] + (n_batches, m)).mean(axis=-1)


def _mean_stderr(b):
    """The mean and batch-mean standard error of the batch means b along
    the last axis.  After ``_batch_means``, the one reduction of
    Monte-Carlo values to an estimate and its error."""
    return b.mean(axis=-1), b.std(axis=-1, ddof=1) / np.sqrt(b.shape[-1])


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
    mean, stderr = _mean_stderr(_batch_means(diff))
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
    mean, stderr = _mean_stderr(_batch_means(vals))
    return float(mean), float(stderr)
