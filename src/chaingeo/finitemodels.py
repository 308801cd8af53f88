"""Exact finite-group models of fibered-product resolutions.

Finite groups stand in for locally compact ones: Haar measure becomes
counting measure, continuity conditions are vacuous, and every identity of
the resolution machinery -- the quasi-invariance cocycle of the quotient
weights, the averaged Bruhat kernel, the contracting homotopy operators,
and the transfer map -- is checked as an exact equality of rationals.
This is a faithful desk-scale model of the machinery, not the locally
compact theory itself.

Two pictures of the complexes are provided.  The fibered picture lives on
tuples in (G/Q)^n with a common image in G/H, with faces dropping one
coordinate.  The group picture lives on G x (H/Q)^n, where H-invariant
functions correspond to fibered functions; the homotopy operators act
there.  With the face signs (-1)^{i-1} used by the differential, the
homotopy integration variable enters in the first tuple slot so that
h_n d_n + d_{n-1} h_{n-1} = Id holds exactly.

The group side is computed on whole arrays over integer index tables: the
multiplication table, the inverses, the coset of each element, and one
coset-action table ``T[g, j]``, the G/Q coset of g x_j for the least
element x_j of the j-th coset of H/Q.  The fibered tuples and the action
``hq_act`` of H on H/Q are read off ``T``; the differential, the kernel,
the homotopy and the H-average are broadcast views and fancy-indexed
gathers of these tables.  Functions, weights and kernels are numpy object
arrays of ``Fraction``s, so every sum and product stays exact and
unbounded.  The elementwise loop definitions that the arrays are tested
against are kept in ``tests/finitemodel_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product

import numpy as np

__all__ = [
    "FiniteGroupModel",
    "WeightedQuotient",
    "FiberedSpace",
    "preset_model",
    "fibered_product",
    "differential_d",
    "differential_group_picture",
    "bruhat_beta",
    "psi_kernel",
    "homotopy_h",
    "homotopy_identity_holds",
    "transfer_tau",
    "random_rational_function",
    "h_invariant_function",
]

MAX_GROUP_ORDER = 10_000


def _perm_mul(a, b):
    # (a * b)(x) = a(b(x))
    return tuple(a[b[i]] for i in range(len(a)))


def _perm_group(perms):
    """(index, mul): the index of each listed permutation and the
    multiplication table of the list."""
    index = {p: i for i, p in enumerate(perms)}
    mul = np.array([[index[_perm_mul(a, b)] for b in perms] for a in perms], dtype=int)
    return index, mul


def _coset_table(mul, sub):
    """Cosets {mul[g, s] : s in sub} of a subgroup: the least member of
    each, in increasing order, and the index of each element's coset.  The
    table ``mul`` gives the left cosets gS; its transpose gives the right
    cosets Sg."""
    least = mul[:, list(sub)].min(axis=1)
    reps = np.unique(least)
    return reps, np.searchsorted(reps, least)


def _close_generators(gens, n):
    ident = tuple(range(n))
    elements = [ident]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for g in frontier:
            for s in gens:
                h = _perm_mul(s, g)
                if h not in seen:
                    seen.add(h)
                    elements.append(h)
                    nxt.append(h)
        frontier = nxt
        if len(elements) > MAX_GROUP_ORDER:
            raise ValueError("group order exceeds the enforced bound")
    return elements


class FiniteGroupModel:
    """Finite group with a subgroup chain Q <= H <= G, as index tables.

    Multiplication, inverses, and coset actions are integer tables; all
    group axioms and the containment Q <= H are verified on construction.
    The order |G| is the table's length; the table and the subgroups must
    hold element indices, integers in range(|G|), or raise ValueError.

    ``hq_cosets`` lists the G/Q cosets that make up H/Q.  ``T[g, j]`` is
    the G/Q coset of g x_j, and ``hq_act[h, j]`` the position in H/Q of
    h x_j for h in H (-1 in the rows of elements outside H).
    """

    def __init__(self, mul_table, H, Q, name=""):
        self.name = name
        self.n = len(mul_table)
        if self.n > MAX_GROUP_ORDER:
            raise ValueError("group order exceeds the enforced bound")
        self.mul = np.asarray(mul_table)
        if self.mul.shape != (self.n, self.n):
            raise ValueError("multiplication table must be |G| x |G|")
        if self.mul.dtype.kind not in "iu" or not np.all((0 <= self.mul) & (self.mul < self.n)):
            raise ValueError(f"multiplication table entries must be integers in range({self.n})")
        self._verify_axioms()
        self.H = self._subgroup(H, "H")
        self.Q = self._subgroup(Q, "Q")
        if not self.Q <= self.H:
            raise ValueError("Q must be contained in H")
        # left cosets of Q and H in G, indexed; representative = least element
        self.gq_cosets, self.gq_of = _coset_table(self.mul, self.Q)
        self.gh_cosets, self.gh_of = _coset_table(self.mul, self.H)
        self.hq_cosets = np.unique(self.gq_of[list(self.H)])
        self.T = self.gq_of[self.mul[:, self.gq_cosets[self.hq_cosets]]]
        pos = np.full(len(self.gq_cosets), -1)
        pos[self.hq_cosets] = np.arange(len(self.hq_cosets))
        self.hq_act = pos[self.T]

    def _verify_axioms(self):
        mul, n = self.mul, self.n
        idx = np.arange(n)
        two_sided = np.all(mul == idx, axis=1) & np.all(mul == idx[:, None], axis=0)
        if not two_sided.any():
            raise ValueError("no identity element")
        self.identity = ident = int(np.argmax(two_sided))
        hits = mul == ident
        self.inv = np.argmax(hits, axis=1)
        if not np.all((hits.sum(axis=1) == 1) & (mul[self.inv, idx] == ident)):
            raise ValueError("inverses are not well defined")
        # associativity on every triple for small groups, and on a
        # deterministic sample of 20000 triples for large ones
        if n <= 64:
            ok = mul[mul] == mul[:, mul]
        else:
            a, b, c = np.random.default_rng(0).integers(0, n, size=(20000, 3)).T
            ok = mul[mul[a, b], c] == mul[a, mul[b, c]]
        if not ok.all():
            raise ValueError("multiplication table is not associative")

    def _subgroup(self, sub, label):
        """The subgroup whose element indices ``sub`` lists, as a frozenset."""
        if not isinstance(sub, (list, tuple, set, frozenset)) or not all(
            isinstance(x, (int, np.integer)) and not isinstance(x, bool) and 0 <= x < self.n
            for x in sub
        ):
            raise ValueError(f"{label} must list integers in range({self.n})")
        sub = frozenset(int(x) for x in sub)
        self._verify_subgroup(sub, label)
        return sub

    def _verify_subgroup(self, sub, label):
        if self.identity not in sub:
            raise ValueError(f"{label} misses the identity")
        # the first member, in the set's order, whose inverse or whose
        # products leave the set names the failure
        a = np.fromiter(sub, dtype=int)
        no_inv = ~np.isin(self.inv[a], a)
        bad = np.flatnonzero(no_inv | ~np.isin(self.mul[np.ix_(a, a)], a).all(axis=1))
        if bad.size:
            raise ValueError(f"{label} is not {'inverse-closed' if no_inv[bad[0]] else 'closed'}")

    def act_gq(self, g, coset):
        """g . (xQ) in G/Q."""
        return int(self.gq_of[self.mul[g, self.gq_cosets[coset]]])


def preset_model(name):
    """Named models: 'S3' (H = <(12)>, Q = 1), 'S4' (H = Stab(3) ~ S3,
    Q = <(01)>), 'D4' (H = rotations, Q = <r^2>)."""
    if name == "S3":
        index, mul = _perm_group(list(permutations(range(3))))
        swap = index[(1, 0, 2)]
        H = {index[(0, 1, 2)], swap}
        Q = {index[(0, 1, 2)]}
        return FiniteGroupModel(mul, H, Q, name="S3")
    if name == "S4":
        index, mul = _perm_group(list(permutations(range(4))))
        H = {i for p, i in index.items() if p[3] == 3}
        Q = {index[(0, 1, 2, 3)], index[(1, 0, 2, 3)]}
        return FiniteGroupModel(mul, H, Q, name="S4")
    if name == "D4":
        # dihedral group on the square's vertices 0..3
        r = (1, 2, 3, 0)
        s = (3, 2, 1, 0)
        ident = (0, 1, 2, 3)
        index, mul = _perm_group(_close_generators([r, s], 4))
        r2 = _perm_mul(r, r)
        H = {index[ident], index[r], index[r2], index[_perm_mul(r2, r)]}
        Q = {index[ident], index[r2]}
        return FiniteGroupModel(mul, H, Q, name="D4")
    raise ValueError(f"unknown preset {name!r}")


class WeightedQuotient:
    """Positive rational weights ``w`` on H/Q summing to one, with the
    derived quasi-invariance cocycle as a table: ``lam[y, j]`` is
    lambda_y(x_j) = w(y x_j)/w(x_j) for y in H (its rows outside H are
    meaningless)."""

    def __init__(self, model, weights=None):
        self.model = model
        k = len(model.hq_cosets)
        if weights is None:
            weights = [Fraction(1, k)] * k
        weights = [Fraction(w) for w in weights]
        if len(weights) != k:
            raise ValueError(f"need {k} weights for H/Q")
        if any(w <= 0 for w in weights):
            raise ValueError("weights must be positive")
        if sum(weights) != 1:
            raise ValueError("weights must sum to 1 exactly")
        self.w = np.array(weights, dtype=object)
        self.lam = self.w[model.hq_act] / self.w


@dataclass
class FiberedSpace:
    """Tuples in (G/Q)^n with common image in G/H, with exact measure."""

    model: FiniteGroupModel
    n: int
    tuples: list
    nu: list

    def face(self, tup, i):
        """Drop the i-th coordinate (1-based), one face of the complex."""
        return tup[: i - 1] + tup[i:]


def fibered_product(model, n, wq=None):
    """The n-fold fibered product of G/Q over G/H with its exact measure.

    Enumerates tuples (x_1..x_n) with a common G/H image; the measure is
    the pushforward of (uniform on G) x (H/Q weights)^n under the orbit
    map (g, x_1..x_n) -> (g x_1, .., g x_n).  For n = 0 the space is G/H
    with the pushforward of the uniform measure.
    """
    if n == 0:
        k = len(model.gh_cosets)
        return FiberedSpace(model, 0, [(c,) for c in range(k)], [Fraction(1, k)] * k)
    w = (wq if wq is not None else WeightedQuotient(model)).w
    combos = np.array(list(product(range(len(w)), repeat=n)))
    # the orbit map, g-major, and the mass of each (g, combo)
    tuples = map(tuple, model.T[:, combos].reshape(-1, n).tolist())
    masses = np.tile(np.prod(w[combos], axis=1) / model.n, model.n)
    nu = {}
    for tup, mass in zip(tuples, masses):
        nu[tup] = nu.get(tup, 0) + mass
    return FiberedSpace(model, n, list(nu), list(nu.values()))


def differential_d(space_n, space_np1, f):
    """Simplicial differential on the fibered picture.

    ``f`` maps tuple -> Fraction on ``space_n``; the result is defined on
    ``space_np1``.  For n = 0, d0 f(x) = f(p(x)) pulls back through the
    projection to G/H; otherwise d f = sum_i (-1)^{i-1} f o (drop i).
    """
    model = space_n.model
    if space_np1.n != space_n.n + 1:
        raise ValueError("spaces must be consecutive")
    out = {}
    if space_n.n == 0:
        for tup in space_np1.tuples:
            c = model.gh_of[model.gq_cosets[tup[0]]]
            out[tup] = f[(int(c),)]
        return out
    for tup in space_np1.tuples:
        acc = Fraction(0)
        sign = 1
        for i in range(1, space_np1.n + 1):
            acc += sign * f[space_np1.face(tup, i)]
            sign = -sign
        out[tup] = acc
    return out


# --- group picture: functions on G x (H/Q)^n as nested numpy object arrays


def differential_group_picture(model, f, n):
    """Differential in the G x (H/Q)^n picture with face signs (-1)^{i-1}.

    ``f`` is an object ndarray of shape (|G|,) + (|H/Q|,)*n of Fractions;
    the result has one more H/Q axis.  Face i is ``f`` broadcast along a
    new axis in slot i; for n = 0 that is the pullback through the
    projection.
    """
    shape = (model.n,) + (len(model.hq_cosets),) * (n + 1)
    out = np.broadcast_to(np.expand_dims(f, 1), shape).copy()
    for i in range(1, n + 1):
        term = np.expand_dims(f, i + 1)
        out = out - term if i % 2 else out + term
    return out


def bruhat_beta(model, values=None):
    """Nonnegative beta on G with sum_{h in H} beta(g h) = 1 for every g.

    Defaults to the constant 1/|H|.  Custom nonnegative rational values
    are validated exactly.  Returns an object array of Fractions.
    """
    if values is None:
        values = [Fraction(1, len(model.H))] * model.n
    values = np.array([Fraction(v) for v in values], dtype=object)
    if len(values) != model.n:
        raise ValueError("beta must be defined on all of G")
    if np.any(values < 0):
        raise ValueError("beta must be nonnegative")
    bad = np.flatnonzero(values[model.mul[:, list(model.H)]].sum(axis=1) != 1)
    if bad.size:
        raise ValueError(f"beta rows must sum to 1; failed at element {bad[0]}")
    return values


def psi_kernel(model, beta, wq):
    """Averaged kernel psi(g, x) = sum_{h in H} beta(g h) lambda_{h^-1}(x).

    Verifies exactly: (1) psi(g h^-1, h x) lambda_h(x) = psi(g, x);
    (2) sum_x psi(g, x) w(x) = 1; (3) psi > 0.  Any failure names the
    property (it indicates invalid weights or beta).
    """
    H = sorted(model.H)
    hinv = model.inv[H]
    psi = beta[model.mul[:, H]] @ wq.lam[hinv]
    if not np.all(psi > 0):
        raise ValueError("psi property (3) failed: kernel not positive")
    if np.any(psi @ wq.w != 1):
        raise ValueError("psi property (2) failed: kernel mass is not 1")
    # psi(g h^-1, h x_j) lambda_h(x_j), indexed [g, h, j]
    moved = psi[model.mul[:, hinv][:, :, None], model.hq_act[H]] * wq.lam[H]
    if np.any(moved != psi[:, None, :]):
        raise ValueError("psi property (1) failed: cocycle identity")
    return psi


def homotopy_h(model, psi, wq, f, n):
    """Contracting homotopy on the group picture.

    ``f`` has shape (|G|,) + (|H/Q|,)*(n+1); the integration variable is
    prepended:  h_n f(g, x_1..x_n) = sum_x psi(g, x) f(g, x, x_1..x_n) w(x).
    Norm-nonincreasing and H-equivariant; with the (-1)^{i-1} face signs of
    the differential the identity h_n d_n + d_{n-1} h_{n-1} = Id is exact.
    """
    return ((psi * wq.w).reshape(psi.shape + (1,) * n) * f).sum(axis=1)


def homotopy_identity_holds(model, psi, wq, n, rng):
    """Whether h_n d_n f + d_{n-1} h_{n-1} f = f holds exactly for one
    random rational f on G x (H/Q)^n, drawn from ``rng``."""
    k = len(model.hq_cosets)
    f = random_rational_function((model.n,) + (k,) * n, rng)
    lhs = homotopy_h(model, psi, wq, differential_group_picture(model, f, n), n)
    lhs = lhs + differential_group_picture(model, homotopy_h(model, psi, wq, f, n - 1), n - 1)
    return bool(np.all(lhs == f))


def transfer_tau(space, L, f):
    """Average an L-invariant fibered function over L\\G; a left inverse of
    the inclusion of G-invariants that commutes with the differential.

    ``f`` maps tuples of ``space`` to Fractions and must be L-invariant
    (verified exactly).
    """
    model = space.model
    L = model._subgroup(L, "L")

    def moved(g, tup):
        if space.n:
            return tuple(model.act_gq(g, c) for c in tup)
        return (int(model.gh_of[model.mul[g, model.gh_cosets[tup[0]]]]),)

    if any(f[moved(l, tup)] != f[tup] for tup in space.tuples for l in L):
        raise ValueError("function is not L-invariant")
    reps, _ = _coset_table(model.mul.T, L)  # the right cosets Lg
    count = Fraction(1, len(reps))
    return {tup: sum((f[moved(g, tup)] for g in reps), Fraction(0)) * count for tup in space.tuples}


def random_rational_function(space_or_shape, rng, lo=-9, hi=9, den=9):
    """Random Fraction-valued function for exactness tests."""
    if isinstance(space_or_shape, FiberedSpace):
        return {
            t: Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))
            for t in space_or_shape.tuples
        }
    nums = rng.integers(lo, hi + 1, size=space_or_shape).astype(object)
    dens = rng.integers(1, den + 1, size=space_or_shape).astype(object)
    return np.frompyfunc(Fraction, 2, 1)(nums, dens)


def h_invariant_function(model, n, rng):
    """Random H-invariant function on G x (H/Q)^n, exact: the average over
    h in H of raw(g h, h^-1 x_1, .., h^-1 x_n) for a random raw."""
    raw = random_rational_function((model.n,) + (len(model.hq_cosets),) * n, rng)
    moved = (np.ix_(model.mul[:, h], *[model.hq_act[model.inv[h]]] * n) for h in sorted(model.H))
    return sum(raw[ix] for ix in moved) / len(model.H)
