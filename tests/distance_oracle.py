"""Distance oracle: the geodesic distance of two interior points, and the
unit-speed geodesic ray from an interior point toward a boundary point.

The Busemann-limit, curvature-circumference and isometry-invariance tests
measure with these.  The arccosh form loses every digit for points about
1e-8 apart (sqrt(delta) - 1 cancels), so the oracle serves where points
are at least about 1e-3 apart; the ray is accurate at large t.
"""

import numpy as np

from chaingeo.hermitian import ProjPoint, _herm


def distance(model, x, y):
    """Geodesic distance between interior points; 2 arccosh sqrt(delta)."""
    if not (x.is_interior and y.is_interior):
        raise ValueError("distance is defined for interior points")
    X, Y = x.lift, y.lift
    delta = (_herm(X, Y) * _herm(Y, X)).real / (_herm(X, X).real * _herm(Y, Y).real)
    delta = max(1.0, delta)  # guard rounding below 1
    return model.metric_scale ** 0.5 * np.arccosh(np.sqrt(delta))


def ray(model, x, xi, t):
    """The point at arclength t on the unit-speed geodesic from interior x
    toward boundary xi: e^{-tau/2} X + sinh(tau/2) D at scale-4 arclength
    tau, with D the null lift of xi scaled so that <X, D> = -1."""
    X = x.lift
    tau = t / model.metric_scale ** 0.5 * 2.0
    D = np.conj(-1.0 / _herm(X, xi.lift)) * xi.lift
    # e^{-t/2}, not cosh(t/2) - sinh(t/2), keeps the ray accurate at large t
    return ProjPoint(np.exp(-tau / 2.0) * X + np.sinh(tau / 2.0) * D, model=model, kind="interior")
