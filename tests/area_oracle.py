"""Independent oracle for Kahler triangle areas: quadrature of a cone filling.

The geodesic triangle (x, y, z) is filled by coning the vertex x over the
geodesic side [y, z], and the Kahler form pulled back by the cone map is
integrated over the unit square by adaptive Gauss-Legendre quadrature.
Every parameterization keeps lifts polynomial or hyperbolic-trigonometric
in the parameters, so the integrand comes from closed-form derivatives.

This shares nothing with ``hermitian.triangle_area`` beyond the Hermitian
form itself, so the tests can compare the closed form against it.  The
integrand is singular on edges where a lift becomes null, and the
quadrature then returns NaN for some vertex orders (mostly an interior
apex over an ideal-ideal side); callers try the cyclic rotations.
"""

import numpy as np

from chaingeo.hermitian import _herm
from chaingeo.quadrature import integrate_unit_square


def _omega_on_lifts(scale, C, V, W):
    """Kahler form on arbitrary lifts: C base lift (<C,C> < 0), V, W lift
    derivatives of curves through [C].  Invariant under pointwise rescaling
    of the lift family."""
    mu = _herm(C, C).real
    a = _herm(V, C)
    b = _herm(W, C)
    hor = _herm(V, W) - a * np.conj(b) / mu
    return scale * hor.imag / mu


def _side_curve(Y, ykind, Z, zkind):
    """Lift parameterization S(t), t in [0,1], of the geodesic [y, z].

    Returns callables S, S', M, M' with M(t) = -<S,S> > 0 on (0,1).  The
    lifts are polynomial (ideal ends) or hyperbolic-trigonometric
    (interior ends) in t so that derivatives are exact.
    """
    if ykind == "interior" and zkind == "interior":
        c = _herm(Z, Y)
        r = abs(c)
        U = (-(r / c) * Z - r * Y) / np.sqrt(r * r - 1.0)  # <U, Y> = 0, <U, U> = 1
        D = np.arccosh(r)

        def S(t):
            return np.cosh(t * D)[..., None] * Y + np.sinh(t * D)[..., None] * U

        def Sp(t):
            return D * (np.sinh(t * D)[..., None] * Y + np.cosh(t * D)[..., None] * U)

        def M(t):
            return np.ones_like(t)

        def Mp(t):
            return np.zeros_like(t)

    elif ykind == "interior":  # z ideal
        w = np.conj(-1.0 / _herm(Y, Z))
        Zs = w * Z

        def S(t):
            return ((1 - t) ** 2)[..., None] * Y + (t * (2 - t) / 2)[..., None] * Zs

        def Sp(t):
            return (-2 * (1 - t))[..., None] * Y + (1 - t)[..., None] * Zs

        def M(t):
            return (1 - t) ** 2

        def Mp(t):
            return -2 * (1 - t)

    elif zkind == "interior":  # y ideal
        w = np.conj(-1.0 / _herm(Z, Y))
        Ys = w * Y

        def S(t):
            return (t**2)[..., None] * Z + ((1 - t * t) / 2)[..., None] * Ys

        def Sp(t):
            return (2 * t)[..., None] * Z + (-t)[..., None] * Ys

        def M(t):
            return t**2

        def Mp(t):
            return 2 * t

    else:  # both ideal
        c0 = _herm(Z, Y)
        Zs = -Z / c0  # <Y, Zs> = <Zs, Y> = -1

        def S(t):
            return ((1 - t) ** 2)[..., None] * Y + (t**2)[..., None] * Zs

        def Sp(t):
            return (-2 * (1 - t))[..., None] * Y + (2 * t)[..., None] * Zs

        def M(t):
            return 2.0 * (t**2) * ((1 - t) ** 2)

        def Mp(t):
            return 2.0 * (2 * t * (1 - t) ** 2 - 2 * (t**2) * (1 - t))

    return S, Sp, M, Mp


def _cone_integrand(scale, A, akind, side):
    """Pullback of the Kahler form under the cone map from vertex A over a
    side curve; vectorized in the quadrature parameters (sigma, tau)."""
    S, Sp, M, Mp = side

    def F(sig, tau):
        Sv = S(tau)
        Spv = Sp(tau)
        Mv = M(tau)
        Mpv = Mp(tau)
        c = _herm(Sv, A)
        cp = _herm(Spv, A)
        if akind == "interior":
            r = np.abs(c)
            rp = (np.conj(c) * cp).real / r
            chi = r / np.sqrt(Mv)
            chip = rp / np.sqrt(Mv) - r * Mpv / (2.0 * Mv**1.5)
            ph = c / r
            php = cp / r - c * rp / r**2
            St = -Sv / ph[..., None]
            Stp = -Spv / ph[..., None] + Sv * (php / ph**2)[..., None]
            Wv = St - r[..., None] * A
            Wp = Stp - rp[..., None] * A
            n2 = r * r - Mv
            n = np.sqrt(n2)
            nd = (2.0 * r * rp - Mpv) / (2.0 * n)
            Wh = Wv / n[..., None]
            Whp = Wp / n[..., None] - Wv * (nd / n2)[..., None]
            Th = np.arccosh(np.maximum(chi, 1.0))
            Thp = chip / np.sqrt(np.maximum(chi * chi - 1.0, 1e-300))
            ch = np.cosh(sig * Th)
            sh = np.sinh(sig * Th)
            Phi = ch[..., None] * A + sh[..., None] * Wh
            dsig = Th[..., None] * (sh[..., None] * A + ch[..., None] * Wh)
            dtau = (sig * Thp)[..., None] * (sh[..., None] * A + ch[..., None] * Wh) + sh[
                ..., None
            ] * Whp
            return _omega_on_lifts(scale, Phi, dsig, dtau)
        # ideal vertex: sigma runs from the side (0) toward the vertex (1),
        # reversing the orientation of the (sigma, tau) frame
        q = Mv / np.conj(c)
        qp = Mpv / np.conj(c) - Mv * np.conj(cp) / np.conj(c) ** 2
        one = 1.0 - sig
        Phi = (one**2)[..., None] * Sv - (sig * (2 - sig) / 2)[..., None] * (q[..., None] * A)
        dsig = (-2 * one)[..., None] * Sv - one[..., None] * (q[..., None] * A)
        dtau = (one**2)[..., None] * Spv - (sig * (2 - sig) / 2)[..., None] * (qp[..., None] * A)
        return -_omega_on_lifts(scale, Phi, dsig, dtau)

    return F


def cone_area(model, x, y, z, tol=1e-8):
    """Kahler area of (x, y, z) by quadrature of the cone from x over [y, z];
    NaN where the quadrature meets the singular edge."""
    side = _side_curve(y.lift, y.kind, z.lift, z.kind)
    F = _cone_integrand(model.metric_scale, x.lift, x.kind, side)
    return integrate_unit_square(F, tol=tol)[0]
