import numpy as np
import pytest
from fractions import Fraction
from numpy.testing import assert_allclose

from chaingeo import (
    AT_INFINITY,
    AffLine,
    QQi,
    QuadConfig,
    QuadrilateralStepError,
    complete_quadrilateral,
    cross_ratio,
    fit_affine,
    harmonic_conjugate,
)


def test_cross_ratio_hand_expanded_oracle():
    # ((1-0)/(1-3)) * ((-3-3)/(-3-0)) computed by hand: (-1/2)*(2) = -1
    val = cross_ratio(0.0, 3.0, 1.0, -3.0)
    oracle = ((1.0 - 0.0) / (1.0 - 3.0)) * ((-3.0 - 3.0) / (-3.0 - 0.0))
    assert val == oracle == -1.0


def test_cross_ratio_mobius_invariance(rng):
    def mob(z):
        return (2 * z + 1) / (z + 3)

    for _ in range(30):
        zs = rng.normal(size=4) + 1j * rng.normal(size=4)
        v1 = cross_ratio(*zs)
        v2 = cross_ratio(*(mob(z) for z in zs))
        assert abs(v1 - v2) < 1e-12 * max(1, abs(v1))


def test_cross_ratio_double_swap_symmetry(rng):
    zs = rng.normal(size=4) + 1j * rng.normal(size=4)
    a, b, c, d = zs
    assert_allclose(cross_ratio(a, b, c, d), cross_ratio(b, a, d, c), rtol=1e-12)


def test_cross_ratio_rejects_coincident():
    with pytest.raises(ValueError):
        cross_ratio(1.0, 1.0, 2.0, 3.0)


def test_harmonic_conjugate_basic():
    assert_allclose(harmonic_conjugate(0.0, 3.0, 1.0), -3.0, atol=1e-14)
    assert harmonic_conjugate(-1.0, 1.0, 0.0) is AT_INFINITY


def test_harmonic_conjugate_involutive(rng):
    a, b = 0.3 + 0.1j, 2.0 - 0.4j
    c = 1.1 + 0.05j  # on the line through a, b? not needed for the identity
    d = harmonic_conjugate(a, b, c)
    c_back = harmonic_conjugate(a, b, d)
    assert abs(c_back - c) < 1e-12


def test_quadrilateral_float_matches_harmonic():
    d = AffLine(0.0 + 0j, 1.0 + 0j)
    dp = AffLine(0.0 + 0j, 1j)
    cfg = QuadConfig(d_prime=dp, d=d, A=0.0 + 0j, B=3.0 + 0j, C=1.0 + 0j, M=2.0 + 1.0j)
    assert_allclose(complete_quadrilateral(cfg), -3.0, atol=1e-10)


def test_quadrilateral_exact_rational():
    A, B, C = QQi(0), QQi(3), QQi(1)
    cfg = QuadConfig(
        d_prime=AffLine(A, QQi(Fraction(1, 3), 1)),
        d=AffLine(A, QQi(1)),
        A=A,
        B=B,
        C=C,
        M=QQi(2, Fraction(5, 7)),
    )
    D = complete_quadrilateral(cfg)
    assert D == harmonic_conjugate(A, B, C)
    assert cross_ratio(A, B, C, D) == QQi(-1)


def test_quadrilateral_float_random_configs(rng):
    # 10^3 generic floating configurations keep [A,B,C,D] = -1 to 1e-9
    made = 0
    while made < 1000:
        a = rng.normal() + 1j * rng.normal()
        direction = np.exp(1j * rng.uniform(0, np.pi))
        tb, tc = rng.uniform(0.5, 3.0), rng.uniform(-3.0, -0.5)
        b = a + tb * direction
        c = a + tc * direction
        try:
            cfg = QuadConfig(
                d_prime=AffLine(a, direction * np.exp(1j * rng.uniform(0.3, 2.8))),
                d=AffLine(a, direction),
                A=a,
                B=b,
                C=c,
                M=a + (rng.normal() + 1j * (rng.normal() + 2.0)) * direction * 1j
                + rng.normal() * direction,
            )
            dd = complete_quadrilateral(cfg)
        except (ValueError, QuadrilateralStepError):
            continue
        made += 1
        assert abs(cross_ratio(a, b, c, dd) - (-1.0)) < 1e-9


def test_quadrilateral_auxiliary_independence(rng):
    d = AffLine(0.0 + 0j, 1.0 + 0j)
    A, B, C = 0.0 + 0j, 3.0 + 0j, 1.0 + 0j
    results = []
    made = 0
    while made < 100:
        ang = rng.uniform(0.2, np.pi - 0.2)
        m = rng.normal() + 1j * (rng.normal() + 2.5)
        try:
            cfg = QuadConfig(
                d_prime=AffLine(A, np.exp(1j * ang)), d=d, A=A, B=B, C=C, M=m
            )
            results.append(complete_quadrilateral(cfg))
            made += 1
        except (ValueError, QuadrilateralStepError):
            continue
    results = np.asarray(results)
    assert np.max(np.abs(results - (-3.0))) < 1e-9


def test_quadrilateral_step_indexed_error():
    # M on the base line makes <C,M> coincide with d: P never leaves d,
    # producing a degenerate step with its index attached
    d = AffLine(0.0 + 0j, 1.0 + 0j)
    dp = AffLine(0.0 + 0j, 1j)
    with pytest.raises(ValueError):
        QuadConfig(d_prime=dp, d=d, A=0.0 + 0j, B=3.0 + 0j, C=1.0 + 0j, M=2.0 + 0j)
    # parallel construction line: <C, M> parallel to d' gives a step error
    cfg = QuadConfig(
        d_prime=AffLine(0.0 + 0j, 1j), d=d, A=0.0 + 0j, B=3.0 + 0j, C=1.0 + 0j,
        M=1.0 + 1.0j,
    )
    with pytest.raises(QuadrilateralStepError, match="^step m1:"):
        complete_quadrilateral(cfg)


def test_fit_affine_exact_recovery(rng):
    zs = rng.normal(size=25) + 1j * rng.normal(size=25)
    lam, c, diag = fit_affine([(z, 2 * z + 1j) for z in zs])
    assert abs(lam - 2) < 1e-12 and abs(c - 1j) < 1e-12
    assert diag["mode"] == "affine"


def test_fit_affine_flags_conjugation(rng):
    zs = rng.normal(size=25) + 1j * rng.normal(size=25)
    lam, c, diag = fit_affine([(z, np.conj(z)) for z in zs])
    assert diag["mode"] == "anti-affine"
    assert diag["orientation_preserved_fraction"] < 0.2


def test_fit_affine_midpoint_built_data(rng):
    # build samples through the midpoint identity alone: seed three values
    # consistent with one complex-affine map, then close under midpoints
    lam_true, c_true = 1.3 - 0.7j, 0.2 + 0.9j
    seeds = [0.0 + 0j, 1.0 + 0j, 0.4 + 1.1j]
    data = {z: lam_true * z + c_true for z in seeds}
    frontier = list(data)
    for _ in range(40):
        z1, z2 = rng.choice(len(frontier), size=2, replace=False)
        z1, z2 = frontier[z1], frontier[z2]
        mid = (z1 + z2) / 2
        data[mid] = (data[z1] + data[z2]) / 2  # midpoint rule, not the map
        frontier.append(mid)
    lam, c, diag = fit_affine(list(data.items()))
    assert diag["residual"] < 1e-9
    assert abs(lam - lam_true) < 1e-9 and abs(c - c_true) < 1e-9


def test_fit_affine_rejects_collinear():
    zs = np.linspace(0, 1, 10).astype(complex)
    with pytest.raises(ValueError):
        fit_affine([(z, 2 * z) for z in zs])

