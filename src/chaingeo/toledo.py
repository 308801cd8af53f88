"""Toledo invariant of surface-group representations into PU(q,1).

The invariant of a genus-g representation is the normalized Kahler area of
a fundamental polygon: the canonical 4g-gon, whose vertices are the images
of a basepoint under the word prefixes, is triangulated by coning from one
vertex, and the sum of the triangles' areas is divided by 2 pi (2g - 2).
With this normalization Fuchsian representations of the disc give +1, and
since every group here has rank one the Milnor-Wood bound reads
|i_rho| <= 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import triangle_area
from .isometries import Isometry, apply_isometry

__all__ = [
    "SurfaceGroupRep",
    "ToledoResult",
    "toledo_surface_group",
    "milnor_wood_check",
    "fuchsian_genus2_rep",
    "conjugate_rep",
]

RELATOR_TOL = 1e-8


def _scalar_residual(m):
    """Distance of the square matrix m from the scalar matrices, relative
    to the scalar lam I nearest to it: ||m - lam I|| / max(1, ||lam I||)."""
    n = len(m)
    lam = np.trace(m) / n
    return np.linalg.norm(m - lam * np.eye(n)) / max(1.0, abs(lam) * np.sqrt(n))


@dataclass
class SurfaceGroupRep:
    """Representation of a genus-g surface group by generator images.

    ``generators`` lists the images (a_1, b_1, .., a_g, b_g); the defining
    relation prod [a_i, b_i] must hold projectively (residual < 1e-8).
    """

    genus: int
    generators: list

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("closed hyperbolic surfaces need genus >= 2")
        if len(self.generators) != 2 * self.genus:
            raise ValueError(f"expected {2 * self.genus} generator images")
        # the relator prod [a_i, b_i] is the last word prefix; it must be
        # a scalar matrix
        res = _scalar_residual(self.word_prefixes()[-1])
        if not res <= RELATOR_TOL:
            raise ValueError(f"surface relator violated: residual {res:.2e}")
        self.relator_residual = res

    def word_prefixes(self):
        """Images of the prefixes of a_1 b_1 a_1^-1 b_1^-1 ... ; 4g+1 matrices."""
        n = self.generators[0].matrix.shape[0]
        mats = [np.eye(n, dtype=complex)]
        for i in range(self.genus):
            a = self.generators[2 * i].matrix
            b = self.generators[2 * i + 1].matrix
            for step in (a, b, np.linalg.inv(a), np.linalg.inv(b)):
                mats.append(mats[-1] @ step)
        return mats


@dataclass(frozen=True)
class ToledoResult:
    value: float
    err_bound: float
    triangle_count: int
    degenerate_triangles: int = 0

    def __float__(self):
        return self.value


def toledo_surface_group(target_model, rep, embedding, basept=None, tol=1e-6):
    """Toledo invariant of a surface-group representation.

    ``rep`` carries PU(1,1) generator images; ``embedding`` places the
    source PU(1,1) inside the target group (use the standard embedding,
    possibly post-composed).  The canonical 4g-gon with vertices at the
    word-prefix orbit of the basepoint is triangulated by coning from the
    first vertex (4g - 2 triangles).
    """
    genus = rep.genus
    pushed = SurfaceGroupRep(
        genus=genus,
        generators=[embedding.push_isometry(g) for g in rep.generators],
    )
    x = basept or target_model.basepoint()
    prefixes = pushed.word_prefixes()
    verts = [
        apply_isometry(Isometry(m, target_model.p), x) for m in prefixes[:-1]
    ]
    total = 0.0
    err = 0.0
    ntri = 0
    ndeg = 0
    per_triangle_tol = tol / max(1, 4 * genus - 2)
    for k in range(1, 4 * genus - 1):
        nxt = verts[(k + 1) % (4 * genus)]
        res = triangle_area(target_model, verts[0], verts[k], nxt, tol=per_triangle_tol)
        total += res.value
        err += res.err_estimate
        ntri += 1
        ndeg += res.degenerate
    value = total / (2.0 * np.pi * (2 * genus - 2))
    return ToledoResult(
        value=value,
        err_bound=err / (2.0 * np.pi * (2 * genus - 2)),
        triangle_count=ntri,
        degenerate_triangles=ndeg,
    )


def milnor_wood_check(result):
    """Milnor-Wood bound |i_rho| <= rk(target)/rk(source) = 1 between the
    rank-one groups PU(1,1) and PU(q,1); returns (ok, margin)."""
    margin = 1.0 - abs(result.value)
    return margin + result.err_bound >= 0.0, margin


def conjugate_rep(rep):
    """Postcompose with complex conjugation (reverses the Kahler form)."""
    return SurfaceGroupRep(
        genus=rep.genus, generators=[g.conjugate() for g in rep.generators]
    )


# ---------------------------------------------------------------------------
# a discrete genus-2 example: the regular hyperbolic octagon
# ---------------------------------------------------------------------------


def _move_origin_to(z):
    return np.array([[1.0, z], [np.conj(z), 1.0]], dtype=complex) / np.sqrt(
        1.0 - abs(z) ** 2
    )


def _rot(theta):
    return np.diag([np.exp(1j * theta / 2.0), np.exp(-1j * theta / 2.0)])


def _mobius(m, z):
    return (m[0, 0] * z + m[0, 1]) / (m[1, 0] * z + m[1, 1])


def _map_segment(P, Q, R, S):
    """The orientation-preserving disc isometry with P -> R and Q -> S.

    Requires d(P,Q) = d(R,S); move P and R to the origin and rotate.
    """
    mP = _move_origin_to(P)
    mR = _move_origin_to(R)
    q = _mobius(np.linalg.inv(mP), Q)
    s = _mobius(np.linalg.inv(mR), S)
    return mR @ _rot(np.angle(s) - np.angle(q)) @ np.linalg.inv(mP)


def fuchsian_genus2_rep():
    """Discrete faithful (maximal) genus-2 representation into PU(1,1).

    Side pairings of the regular hyperbolic octagon with vertex angle
    pi/4: the pairing of edge k with edge k+2 (reversed) closes the
    octagon around its single vertex cycle, and the canonical relator
    holds to machine precision with the generator choice below.  The
    marking is oriented so the invariant comes out +1.
    """
    # circumradius of the regular octagon with vertex angle 2*(pi/8)
    r_v = np.arccosh(1.0 / (np.tan(np.pi / 8) ** 2))
    rho = np.tanh(r_v / 2.0)
    verts = [rho * np.exp(2j * np.pi * k / 8.0) for k in range(8)]

    def pairing(src, dst):
        # edge (v_src -> v_src+1) onto edge (v_dst -> v_dst+1) reversed
        return _map_segment(
            verts[src], verts[(src + 1) % 8], verts[(dst + 1) % 8], verts[dst]
        )

    a1 = Isometry(pairing(2, 0), 1)
    b1 = Isometry(np.linalg.inv(pairing(3, 1)), 1)
    a2 = Isometry(pairing(6, 4), 1)
    b2 = Isometry(np.linalg.inv(pairing(7, 5)), 1)
    # swapping each handle's pair inverts both commutators, so the relator
    # still closes; this choice orients the marking positively
    return SurfaceGroupRep(genus=2, generators=[b1, a1, b2, a2])
