import numpy as np
import pytest

from chaingeo import (
    HermitianModel,
    Isometry,
    SurfaceGroupRep,
    apply_isometry,
    conjugate_rep,
    fuchsian_genus2_rep,
    milnor_wood_check,
    random_isometry,
    standard_embedding,
    toledo_surface_group,
    triangle_area,
)

from conftest import random_interior


@pytest.fixture(scope="module")
def octagon():
    return fuchsian_genus2_rep()


def test_relator_residual(octagon):
    assert octagon.relator_residual < 1e-8


def test_rejects_relator_violation():
    bad = [random_isometry(1, seed=s) for s in range(4)]
    with pytest.raises(ValueError):
        SurfaceGroupRep(genus=2, generators=bad)


def test_homogeneous_cocycle_degenerate(disc, rng):
    g = random_isometry(1, seed=1)
    x = disc.basepoint()
    pts = [apply_isometry(h, x) for h in (g, g, random_isometry(1, seed=2))]
    res = triangle_area(disc, *pts, tol=1e-6)
    assert res.degenerate and res.value == 0.0


def test_homogeneous_cocycle_left_invariance(disc, rng):
    gs = [random_isometry(1, seed=s, sigma=0.6) for s in (3, 4, 5)]
    h = random_isometry(1, seed=6, sigma=0.6)
    x = disc.basepoint()
    a = triangle_area(disc, *(apply_isometry(g, x) for g in gs), tol=1e-7)
    moved = [Isometry(h.matrix @ g.matrix, 1) for g in gs]
    b = triangle_area(disc, *(apply_isometry(g, x) for g in moved), tol=1e-7)
    assert abs(a.value - b.value) < 1e-5


def test_homogeneous_cocycle_bounded(disc, rng):
    gs = [random_isometry(1, seed=s, sigma=1.2) for s in (7, 8, 9)]
    res = triangle_area(disc, *(apply_isometry(g, disc.basepoint()) for g in gs), tol=1e-6)
    assert abs(res.value) <= np.pi + 1e-3


def test_fuchsian_value(octagon):
    target = HermitianModel(1)
    res = toledo_surface_group(target, octagon, standard_embedding(1, 1))
    assert abs(res.value - 1.0) < 1e-3
    ok, margin = milnor_wood_check(res)
    assert ok and abs(margin) < 1e-3


def test_conjugated_rep_negates(octagon):
    target = HermitianModel(1)
    plus = toledo_surface_group(target, octagon, standard_embedding(1, 1))
    minus = toledo_surface_group(target, conjugate_rep(octagon), standard_embedding(1, 1))
    # conjugation conjugates every pairing exactly, so each area's phase
    # and rounding bound mirror bit for bit
    assert plus.value == -minus.value


def test_trivial_rep_gives_zero():
    ident = Isometry(np.eye(2, dtype=complex), 1)
    trivial = SurfaceGroupRep(genus=2, generators=[ident] * 4)
    res = toledo_surface_group(HermitianModel(1), trivial, standard_embedding(1, 1))
    assert res.value == 0.0
    assert res.degenerate_triangles == res.triangle_count


def test_higher_rank_target(octagon):
    target = HermitianModel(2)
    res = toledo_surface_group(target, octagon, standard_embedding(1, 2))
    assert abs(res.value - 1.0) < 1e-3


def test_basepoint_independence(octagon, rng):
    target = HermitianModel(1)
    y = random_interior(target, rng, spread=0.5)
    a = toledo_surface_group(target, octagon, standard_embedding(1, 1))
    b = toledo_surface_group(target, octagon, standard_embedding(1, 1), basept=y)
    assert abs(a.value - b.value) < 1e-3


def test_conjugation_invariance(octagon):
    target = HermitianModel(1)
    h = random_isometry(1, seed=11, sigma=0.7)
    conj = SurfaceGroupRep(
        genus=2,
        generators=[
            Isometry(h.matrix @ g.matrix @ np.linalg.inv(h.matrix), 1)
            for g in octagon.generators
        ],
    )
    a = toledo_surface_group(target, octagon, standard_embedding(1, 1), tol=1e-6)
    b = toledo_surface_group(target, conj, standard_embedding(1, 1), tol=1e-6)
    assert abs(a.value - b.value) < 2e-6


def test_milnor_wood_margins():
    class R:
        value = 0.0
        err_bound = 0.0

    ok, margin = milnor_wood_check(R)
    assert ok and margin == 1.0

    class R2:
        value = 1.2
        err_bound = 0.0

    ok2, margin2 = milnor_wood_check(R2)
    assert not ok2 and margin2 < 0


def test_gauss_bonnet_cross_oracle(disc):
    # independent of the group machinery: the regular octagon with vertex
    # angle pi/4 has area (8-2)pi - 2pi = 4pi = 2 pi (2g-2); fan-triangulate
    # its actual vertices and sum the triangle areas
    from chaingeo import ProjPoint, triangle_area

    r_v = np.arccosh(1.0 / (np.tan(np.pi / 8) ** 2))
    rho = np.tanh(r_v / 2.0)
    verts = [
        ProjPoint(np.array([rho * np.exp(2j * np.pi * k / 8), 1.0]), model=disc)
        for k in range(8)
    ]
    total = sum(
        triangle_area(disc, verts[0], verts[k], verts[k + 1], tol=1e-8).value
        for k in range(1, 7)
    )
    assert abs(total - 4 * np.pi) < 1e-5
