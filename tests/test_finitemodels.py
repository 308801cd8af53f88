from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

import chaingeo.finitemodels as fm

import finitemodel_oracle as oracle


@pytest.fixture(scope="module")
def s3():
    return fm.preset_model("S3")


@pytest.fixture(scope="module")
def s4():
    return fm.preset_model("S4")


def test_preset_orders(s3, s4):
    assert s3.n == 6 and len(s3.H) == 2 and len(s3.Q) == 1
    assert s4.n == 24 and len(s4.H) == 6 and len(s4.Q) == 2
    d4 = fm.preset_model("D4")
    assert d4.n == 8 and len(d4.H) == 4 and len(d4.Q) == 2


def test_fibered_counting(s3):
    # |G/H| * |H/Q|^n = 3 * 2^n
    for n in (1, 2, 3):
        space = fm.fibered_product(s3, n)
        assert len(space.tuples) == 3 * 2**n
        assert sum(space.nu) == 1
    assert len(fm.fibered_product(s3, 2).tuples) == 12  # 3 * 2^2


def test_fibered_n0_is_gh(s3):
    space = fm.fibered_product(s3, 0)
    assert len(space.tuples) == len(s3.gh_cosets)
    assert all(w == Fraction(1, 3) for w in space.nu)


def test_marginals_push_exactly(s3):
    wq = fm.WeightedQuotient(s3, [Fraction(1, 3), Fraction(2, 3)])
    s_2 = fm.fibered_product(s3, 2, wq)
    s_3 = fm.fibered_product(s3, 3, wq)
    for i in (1, 2, 3):
        marg = {}
        for tup, w in zip(s_3.tuples, s_3.nu):
            face = s_3.face(tup, i)
            marg[face] = marg.get(face, Fraction(0)) + w
        for tup, w in zip(s_2.tuples, s_2.nu):
            assert marg[tup] == w


def test_action_preserves_tuple_set(s3):
    space = fm.fibered_product(s3, 2)
    tups = set(space.tuples)
    for g in range(s3.n):
        for t in space.tuples:
            moved = tuple(s3.act_gq(g, c) for c in t)
            assert moved in tups


def test_weighted_quotient_validation(s3):
    with pytest.raises(ValueError):
        fm.WeightedQuotient(s3, [Fraction(1, 2), Fraction(1, 3)])  # sum != 1
    with pytest.raises(ValueError):
        fm.WeightedQuotient(s3, [Fraction(0), Fraction(1)])  # not positive
    wq = fm.WeightedQuotient(s3, [Fraction(1, 4), Fraction(3, 4)])
    # lambda cocycle exact
    for y1 in s3.H:
        for y2 in s3.H:
            y12 = int(s3.mul[y1, y2])
            for j in range(2):
                assert wq.lam[y12, j] == wq.lam[y1, s3.hq_act[y2, j]] * wq.lam[y2, j]


def test_differential_constant_and_dd_zero(s3, rng):
    wq = fm.WeightedQuotient(s3, [Fraction(1, 3), Fraction(2, 3)])
    s_1 = fm.fibered_product(s3, 1, wq)
    s_2 = fm.fibered_product(s3, 2, wq)
    s_3 = fm.fibered_product(s3, 3, wq)
    const = {t: Fraction(5, 3) for t in s_1.tuples}
    d1 = fm.differential_d(s_1, s_2, const)
    assert all(v == 0 for v in d1.values())
    f = fm.random_rational_function(s_1, rng)
    dd = fm.differential_d(s_2, s_3, fm.differential_d(s_1, s_2, f))
    assert all(v == 0 for v in dd.values())


def test_differential_preserves_invariance(s3, rng):
    s_1 = fm.fibered_product(s3, 1)
    s_2 = fm.fibered_product(s3, 2)
    raw = fm.random_rational_function(s_1, rng)
    # G-average to make an invariant function
    f = {}
    for t in s_1.tuples:
        acc = Fraction(0)
        for g in range(s3.n):
            acc += raw[tuple(s3.act_gq(g, c) for c in t)]
        f[t] = acc / s3.n
    df = fm.differential_d(s_1, s_2, f)
    for t in s_2.tuples:
        for g in range(s3.n):
            moved = tuple(s3.act_gq(g, c) for c in t)
            assert df[moved] == df[t]


def _coset_beta(model):
    """A valid beta that is not constant: on each left coset gH, weights
    proportional to 1..|H| in the order of the element indices."""
    m = len(model.H)
    beta = [None] * model.n
    for c in model.gh_cosets:
        for i, x in enumerate(sorted(int(model.mul[c, h]) for h in model.H)):
            beta[x] = Fraction(2 * (i + 1), m * (m + 1))
    return beta


def test_bruhat_beta_default_and_validation(s3):
    default = fm.bruhat_beta(s3)
    assert len(default) == s3.n
    assert all(type(b) is Fraction and b == Fraction(1, len(s3.H)) for b in default)
    varied = _coset_beta(s3)
    assert len(set(varied)) > 1
    assert list(fm.bruhat_beta(s3, varied)) == varied
    # moving mass onto one element breaks the rows of its coset xH, and the
    # error names the least element of that coset
    x = s3.n - 1
    off = list(varied)
    off[x] += Fraction(1, 7)
    first = min(int(s3.mul[x, h]) for h in s3.H)
    with pytest.raises(ValueError, match=f"rows must sum to 1; failed at element {first}$"):
        fm.bruhat_beta(s3, off)
    with pytest.raises(ValueError, match="failed at element 0$"):
        fm.bruhat_beta(s3, [Fraction(0)] * s3.n)
    # rows summing to 1 with a negative entry
    a, b = sorted(int(s3.mul[x, h]) for h in s3.H)
    negative = [Fraction(1, 2)] * s3.n
    negative[a], negative[b] = Fraction(3, 2), Fraction(-1, 2)
    with pytest.raises(ValueError, match="beta must be nonnegative"):
        fm.bruhat_beta(s3, negative)


def test_psi_uniform_weights_is_one(s3):
    wq = fm.WeightedQuotient(s3)
    psi = fm.psi_kernel(s3, fm.bruhat_beta(s3), wq)
    assert all(psi[g, j] == 1 for g in range(s3.n) for j in range(2))


def test_psi_properties_nonuniform(s3, s4):
    wq3 = fm.WeightedQuotient(s3, [Fraction(1, 3), Fraction(2, 3)])
    fm.psi_kernel(s3, fm.bruhat_beta(s3), wq3)  # raises on any failure
    wq4 = fm.WeightedQuotient(s4, [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    fm.psi_kernel(s4, fm.bruhat_beta(s4), wq4)


def test_homotopy_preserves_constants_and_norm(s3, rng):
    wq = fm.WeightedQuotient(s3, [Fraction(1, 5), Fraction(4, 5)])
    psi = fm.psi_kernel(s3, fm.bruhat_beta(s3), wq)
    k = len(s3.hq_cosets)
    const = np.empty((s3.n, k), dtype=object)
    const[...] = Fraction(7, 2)
    out = fm.homotopy_h(s3, psi, wq, const, 0)
    assert all(out[g] == Fraction(7, 2) for g in range(s3.n))
    for _ in range(100):
        f = fm.random_rational_function((s3.n, k, k), rng)
        hf = fm.homotopy_h(s3, psi, wq, f, 1)
        assert max(abs(v) for v in hf.ravel()) <= max(abs(v) for v in f.ravel())


def test_homotopy_identity_exact(s3, rng):
    wq = fm.WeightedQuotient(s3, [Fraction(1, 3), Fraction(2, 3)])
    psi = fm.psi_kernel(s3, fm.bruhat_beta(s3), wq)
    k = len(s3.hq_cosets)
    for n in (1, 2, 3):
        for _ in range(10):
            f = fm.random_rational_function((s3.n,) + (k,) * n, rng)
            lhs = fm.homotopy_h(
                s3, psi, wq, fm.differential_group_picture(s3, f, n), n
            ) + fm.differential_group_picture(
                s3, fm.homotopy_h(s3, psi, wq, f, n - 1), n - 1
            )
            assert np.all(lhs == f)


def test_homotopy_equivariance_on_invariants(s3, rng):
    # H-invariant input stays H-invariant through the homotopy
    wq = fm.WeightedQuotient(s3, [Fraction(2, 5), Fraction(3, 5)])
    psi = fm.psi_kernel(s3, fm.bruhat_beta(s3), wq)
    f = fm.h_invariant_function(s3, 2, rng)
    hf = fm.homotopy_h(s3, psi, wq, f, 1)
    for g in range(s3.n):
        for h in s3.H:
            gh = int(s3.mul[g, h])
            hinv = int(s3.inv[h])
            for j in range(len(s3.hq_cosets)):
                assert hf[gh, s3.hq_act[hinv, j]] == hf[g, j]


def test_resolution_primitive_for_cocycles(s3, rng):
    # any H-invariant cocycle in low degree has the explicit primitive h f
    wq = fm.WeightedQuotient(s3, [Fraction(1, 3), Fraction(2, 3)])
    psi = fm.psi_kernel(s3, fm.bruhat_beta(s3), wq)
    for n in (1, 2):
        g_fun = fm.h_invariant_function(s3, n, rng)
        f = fm.differential_group_picture(s3, g_fun, n)  # a cocycle: d f = 0
        df = fm.differential_group_picture(s3, f, n + 1)
        assert np.all(df == Fraction(0))
        hf = fm.homotopy_h(s3, psi, wq, f, n)
        assert np.all(fm.differential_group_picture(s3, hf, n) == f)


def test_transfer_properties(s3, rng):
    wq = fm.WeightedQuotient(s3, [Fraction(1, 3), Fraction(2, 3)])
    s_1 = fm.fibered_product(s3, 1, wq)
    s_2 = fm.fibered_product(s3, 2, wq)
    L = s3.H
    # L-invariant random function: average over L
    raw = fm.random_rational_function(s_2, rng)
    f = {}
    for t in s_2.tuples:
        acc = Fraction(0)
        for l in L:
            acc += raw[tuple(s3.act_gq(l, c) for c in t)]
        f[t] = acc / len(L)
    tau = fm.transfer_tau(s_2, L, f)
    # G-invariance of the result
    for t in s_2.tuples:
        for g in range(s3.n):
            moved = tuple(s3.act_gq(g, c) for c in t)
            assert tau[moved] == tau[t]
    # left inverse on G-invariants
    ginv = {}
    for t in s_2.tuples:
        acc = Fraction(0)
        for g in range(s3.n):
            acc += raw[tuple(s3.act_gq(g, c) for c in t)]
        ginv[t] = acc / s3.n
    assert fm.transfer_tau(s_2, L, ginv) == ginv
    # commutes with the differential
    f1 = {}
    raw1 = fm.random_rational_function(s_1, rng)
    for t in s_1.tuples:
        acc = Fraction(0)
        for l in L:
            acc += raw1[tuple(s3.act_gq(l, c) for c in t)]
        f1[t] = acc / len(L)
    lhs = fm.transfer_tau(s_2, L, fm.differential_d(s_1, s_2, f1))
    rhs = fm.differential_d(s_1, s_2, fm.transfer_tau(s_1, L, f1))
    assert lhs == rhs


def test_transfer_full_group_is_identity(s3, rng):
    s_1 = fm.fibered_product(s3, 1)
    f = fm.random_rational_function(s_1, rng)
    L = frozenset(range(s3.n))
    assert fm.transfer_tau(s_1, L, _g_average(s3, s_1, f)) == _g_average(s3, s_1, f)


def _g_average(model, space, f):
    out = {}
    for t in space.tuples:
        acc = Fraction(0)
        for g in range(model.n):
            acc += f[tuple(model.act_gq(g, c) for c in t)]
        out[t] = acc / model.n
    return out


def test_transfer_rejects_noninvariant(s3, rng):
    s_2 = fm.fibered_product(s3, 2)
    f = fm.random_rational_function(s_2, rng)
    with pytest.raises(ValueError):
        fm.transfer_tau(s_2, s3.H, f)
    with pytest.raises(ValueError, match="L must list integers in range"):
        fm.transfer_tau(s_2, {0, 1, 7}, f)


def test_group_order_bound():
    # an 8-cycle and a transposition generate S8, order 40320 > the bound
    cycle = tuple(range(1, 8)) + (0,)
    swap = (1, 0) + tuple(range(2, 8))
    with pytest.raises(ValueError):
        fm._close_generators([cycle, swap], 8)


def test_group_model_order_from_table():
    """The group order is the table's length; the order bound fires before
    the table is read, and a ragged or non-square table is rejected."""
    assert fm.preset_model("S3").n == 6
    with pytest.raises(ValueError, match="exceeds the enforced bound"):
        fm.FiniteGroupModel([[0]] * (fm.MAX_GROUP_ORDER + 1), {0}, {0})
    for table in ([[0, 1], [1]], [[0, 1]], [[0, 1, 0], [1, 0, 1]]):
        with pytest.raises(ValueError):
            fm.FiniteGroupModel(table, {0}, {0})


def test_orbit_map_equivariance(s3, rng):
    # the enumeration map (g, x1..xn) -> (g x1, .., g xn) intertwines left
    # translation with the diagonal action, exactly
    for _ in range(50):
        g = int(rng.integers(s3.n))
        h = int(rng.integers(s3.n))
        combo = [int(rng.integers(len(s3.hq_cosets))) for _ in range(2)]
        xs = [s3.hq_cosets[j] for j in combo]
        lhs = tuple(s3.act_gq(g, s3.act_gq(h, x)) for x in xs)
        gh = int(s3.mul[g, h])
        rhs = tuple(s3.act_gq(gh, x) for x in xs)
        assert lhs == rhs


# an order-5 loop: 0 is a two-sided identity and every element is its own
# two-sided inverse, but 36 of its 125 triples are not associative
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def _loop_times_z13():
    """The direct product LOOP5 x Z13, an order-65 table whose
    associativity is checked on sampled triples."""
    a, b = np.divmod(np.arange(65), 13)
    return np.array(LOOP5)[a[:, None], a] * 13 + (b[:, None] + b) % 13


def _s3_subgroup_case(H, Q):
    index, mul = fm._perm_group(list(permutations(range(3))))
    return mul, {index[p] for p in H}, {index[p] for p in Q}


E, T01, T12, C = (0, 1, 2), (1, 0, 2), (0, 2, 1), (1, 2, 0)

INVALID_MODELS = {
    "no-identity": (lambda: ([[0, 0], [0, 0]], {0}, {0}), "no identity element"),
    "no-inverse": (lambda: ([[0, 1], [1, 1]], {0}, {0}), "inverses are not well defined"),
    "not-associative": (lambda: (LOOP5, {0}, {0}), "not associative"),
    "not-associative-sampled": (lambda: (_loop_times_z13(), {0}, {0}), "not associative"),
    "H-misses-identity": (lambda: _s3_subgroup_case([T01], [E]), "H misses the identity"),
    "H-not-inverse-closed": (lambda: _s3_subgroup_case([E, C], [E]), "H is not inverse-closed"),
    "H-not-closed": (lambda: _s3_subgroup_case([E, T01, T12], [E]), "H is not closed"),
    "Q-not-in-H": (lambda: _s3_subgroup_case([E, T01], [E, T12]), "Q must be contained in H"),
}


@pytest.mark.parametrize("case", list(INVALID_MODELS))
def test_group_model_validation_messages(case):
    build, message = INVALID_MODELS[case]
    mul, H, Q = build()
    if case == "not-associative-sampled":
        assert len(mul) > 64
    with pytest.raises(ValueError, match=message):
        fm.FiniteGroupModel(mul, H, Q)


ORACLE_WEIGHTS = {
    "S3": [Fraction(1, 3), Fraction(2, 3)],
    "S4": [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)],
    "D4": [Fraction(1, 4), Fraction(3, 4)],
}


@pytest.mark.parametrize("name", list(ORACLE_WEIGHTS))
def test_array_maps_equal_loop_oracle(name):
    # psi, d, h and the H-average against their elementwise loops, exactly,
    # with non-uniform weights and a non-constant beta
    model = fm.preset_model(name)
    wq = fm.WeightedQuotient(model, ORACLE_WEIGHTS[name])
    beta = fm.bruhat_beta(model, _coset_beta(model))
    psi = fm.psi_kernel(model, beta, wq)
    assert np.array_equal(psi, oracle.psi_kernel(model, beta, list(wq.w)))
    k = len(model.hq_cosets)
    rng = np.random.default_rng(7)
    for n in range(4):
        f = fm.random_rational_function((model.n,) + (k,) * n, rng)
        d = fm.differential_group_picture(model, f, n)
        assert np.array_equal(d, oracle.differential(model, f, n))
        f1 = fm.random_rational_function((model.n,) + (k,) * (n + 1), rng)
        h = fm.homotopy_h(model, psi, wq, f1, n)
        assert np.array_equal(h, oracle.homotopy(model, psi, list(wq.w), f1, n))
        avg = fm.h_invariant_function(model, n, np.random.default_rng(n))
        raw = fm.random_rational_function((model.n,) + (k,) * n, np.random.default_rng(n))
        assert np.array_equal(avg, oracle.h_average(model, raw, n))
