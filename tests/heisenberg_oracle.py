"""The Heisenberg chart of the boundary of H^2_C, punctured at a point xi.

Its fibers are the chains through xi, and it sends every other chain
bijectively onto a Euclidean circle.  So the chart is an independent
check of ``chains.chain_through`` and ``chains.sample_chain_point``:
chains through xi must project to points, and other chains to circles.
"""

import numpy as np

from chaingeo.hermitian import _herm


def null_frame(xi):
    """Deterministic basis (E_plus, E_1, E_minus) with xi = [E_plus].

    Gram matrix of the frame is [[0,0,-1],[0,1,0],[-1,0,0]]; used to read
    off Heisenberg coordinates adapted to xi.
    """
    X = xi.lift
    # opposite null partner: flipping the sign of the last coordinate of a
    # null vector gives another null vector pairing to its Euclidean norm,
    # so the pairing never vanishes
    Y = X.copy()
    Y[-1] = -Y[-1]
    # scale so <X, Y> = -1 (then <Y, X> = -1 as well)
    Y = Y * np.conj(-1.0 / _herm(X, Y))
    # positive unit vector J-orthogonal to both
    E = None
    for k in range(3):
        e = np.zeros(3, dtype=complex)
        e[k] = 1.0
        v = e + _herm(e, Y) * X + _herm(e, X) * Y  # remove span(X, Y) components
        n2 = _herm(v, v).real
        # no lift scale enters v: Y is rescaled so that <X, Y> = -1, which
        # makes <e, Y> X and <e, X> Y unchanged when X is
        if n2 > 1e-8:
            E = v / np.sqrt(n2)
            break
    return np.column_stack([X, E, Y])


def heisenberg_projection(model, xi, zeta):
    """Chart C of the boundary punctured at xi whose fibers are the chains
    through xi.

    The frame adapted to xi identifies the unipotent radical N of the
    stabilizer with the Heisenberg group C x R; the map returns the
    N/Z(N)-coordinate of zeta.  The chart is equivariant for the quotient
    of the stabilizer onto the complex affine group of C.
    """
    if model.p != 2:
        raise ValueError("the Heisenberg chart is implemented for p = 2")
    if not (xi.is_boundary and zeta.is_boundary):
        raise ValueError("boundary points required")
    if xi.same_point_as(zeta):
        raise ValueError("zeta must differ from the chart's center xi")
    v = np.linalg.solve(null_frame(xi), zeta.lift)  # coordinates (v_plus, v_1, v_minus)
    if abs(v[2]) < 1e-14 * np.linalg.norm(v):
        raise ValueError("zeta coincides with the chart's center xi")
    return complex(np.conj(v[1] / v[2]))
