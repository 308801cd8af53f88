import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import expm

from chaingeo import (
    EmbeddingMap,
    HermitianModel,
    Isometry,
    apply_isometry,
    metric_and_kahler,
    random_isometry,
    standard_embedding,
)
from chaingeo.chains import cartan_triple_lifts, chain_contains, chain_through, sample_chain_point

from conftest import apply_tangent, random_boundary, random_interior, random_tangent
from distance_oracle import distance


def test_isometry_invariant_enforced():
    bad = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)  # not in U(1,1)
    with pytest.raises(ValueError):
        Isometry(bad, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Isometry(np.full((3, 3), np.nan), 2),
        lambda: EmbeddingMap(np.full((3, 3), np.nan), 2, 2),
        lambda: EmbeddingMap(np.zeros((3, 3)), 2, 2, scale=0.0),
    ],
    ids=["isometry-nan", "embedding-nan", "embedding-zero-scale"],
)
def test_nonfinite_or_degenerate_matrix_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_apply_identity_and_inverse(plane2, rng):
    x = random_interior(plane2, rng)
    gid = Isometry(np.eye(3, dtype=complex), 2)
    assert apply_isometry(gid, x).same_point_as(x)
    g = random_isometry(2, seed=5)
    back = apply_isometry(g.inverse(), apply_isometry(g, x))
    assert np.linalg.norm(back.lift - x.lift) < 1e-10


def test_unitary_fixes_center(plane2):
    g = Isometry(np.diag(np.exp(1j * np.array([0.7, -1.2, 0.0]))), 2)
    x = plane2.basepoint()
    assert apply_isometry(g, x).same_point_as(x)


def test_apply_preserves_kind_and_distance(plane2, rng):
    g = random_isometry(2, seed=9)
    b = random_boundary(plane2, rng)
    assert apply_isometry(g, b).is_boundary
    x, y = random_interior(plane2, rng), random_interior(plane2, rng)
    assert abs(
        distance(plane2, apply_isometry(g, x), apply_isometry(g, y))
        - distance(plane2, x, y)
    ) < 1e-9


def test_apply_tangent_preserves_norms(plane2, rng):
    # checks the test helper that test_forms's equivariance test relies on
    x = random_interior(plane2, rng)
    u = random_tangent(plane2, rng, x)
    g = random_isometry(2, seed=21)
    gu = apply_tangent(g, plane2, u)
    n1, _ = metric_and_kahler(plane2, x, u, u)
    n2, _ = metric_and_kahler(plane2, gu.base, gu, gu)
    assert_allclose(n1, n2, rtol=1e-10)


def test_standard_embedding_identity_case():
    emb = standard_embedding(2, 2)
    assert_allclose(emb.matrix, np.eye(3), atol=0)


def test_standard_embedding_rejects_bad_dims():
    with pytest.raises(ValueError):
        standard_embedding(3, 2)


def test_standard_embedding_boundary_to_boundary(plane2, rng):
    emb = standard_embedding(2, 4)
    b = random_boundary(plane2, rng)
    assert emb.push_point(b).is_boundary


def test_standard_embedding_preserves_distance(plane2, rng):
    emb = standard_embedding(2, 3)
    m3 = HermitianModel(3)
    for _ in range(100):
        x, y = random_interior(plane2, rng), random_interior(plane2, rng)
        d1 = distance(plane2, x, y)
        d2 = distance(m3, emb.push_point(x, m3), emb.push_point(y, m3))
        assert abs(d1 - d2) < 1e-9


@pytest.mark.parametrize("sigma", [0.0, 0.4, 1.0, 1.2])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_random_isometry_is_expm_of_its_draw(p, sigma):
    # scipy's Pade expm is the independent oracle for the eigendecomposition
    J = np.diag([1.0] * p + [-1.0])
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = p + 1
        A = rng.normal(size=(n, n), scale=sigma) + 1j * rng.normal(size=(n, n), scale=sigma)
        A = 0.5 * (A - J @ A.conj().T @ J)
        E = expm(A)
        g = random_isometry(p, seed=seed, sigma=sigma)
        assert np.linalg.norm(g.matrix - E) <= 1e-13 * np.linalg.norm(E)


def test_random_isometry_deterministic():
    g1 = random_isometry(2, seed=77)
    g2 = random_isometry(2, seed=77)
    assert_allclose(g1.matrix, g2.matrix, atol=0)
    # invariant is enforced by the constructor; lambda is 1 for exponentials
    assert_allclose(g1.form_scale(), 1.0, rtol=1e-10)


def test_apply_preserves_cartan(plane2, rng):
    worst = 0.0
    for k in range(200):
        g = random_isometry(2, seed=1000 + k)
        lifts = np.stack([random_boundary(plane2, rng).lift for _ in range(3)])
        c1 = cartan_triple_lifts(lifts[0][None], lifts[1][None], lifts[2][None])[0]
        moved = lifts @ g.matrix.T
        c2 = cartan_triple_lifts(moved[0][None], moved[1][None], moved[2][None])[0]
        worst = max(worst, abs(c1 - c2))
    assert worst < 1e-9


def test_embedding_pushes_chains_to_chains(plane2, rng):
    emb = standard_embedding(2, 3)
    m3 = HermitianModel(3)
    a, b = random_boundary(plane2, rng), random_boundary(plane2, rng)
    C = chain_through(plane2, a, b)
    image_chain = chain_through(m3, emb.push_point(a, m3), emb.push_point(b, m3))
    for t in np.linspace(0, 2 * np.pi, 50, endpoint=False):
        pt = sample_chain_point(C, t)
        assert chain_contains(image_chain, emb.push_point(pt, m3))


def test_push_isometry_intertwines(plane2, rng):
    emb = standard_embedding(2, 4)
    m4 = HermitianModel(4)
    g = random_isometry(2, seed=3)
    gq = emb.push_isometry(g)
    x = random_interior(plane2, rng)
    lhs = apply_isometry(gq, emb.push_point(x, m4))
    rhs = emb.push_point(apply_isometry(g, x), m4)
    assert np.linalg.norm(lhs.lift - rhs.lift) < 1e-10
