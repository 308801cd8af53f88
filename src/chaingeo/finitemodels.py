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
    each, and the index of each element's coset.  The table ``mul`` gives
    the left cosets gS; its transpose gives the right cosets Sg."""
    of = np.full(len(mul), -1, dtype=int)
    reps = []
    for g in range(len(mul)):
        if of[g] >= 0:
            continue
        members = sorted(int(mul[g, s]) for s in sub)
        reps.append(members[0])
        of[members] = len(reps) - 1
    return reps, of


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
        # left cosets of Q in G, indexed; representative = min element index
        self.gq_cosets, self.gq_of = _coset_table(self.mul, self.Q)
        self.gh_cosets, self.gh_of = _coset_table(self.mul, self.H)
        # H/Q inside G/Q: cosets hQ for h in H
        hq = sorted({self.gq_of[h] for h in self.H})
        self.hq_cosets = hq
        self.hq_index = {c: i for i, c in enumerate(hq)}

    def _verify_axioms(self):
        n = self.n
        rng = range(n)
        ident = None
        for e in rng:
            if all(self.mul[e, x] == x and self.mul[x, e] == x for x in rng):
                ident = e
                break
        if ident is None:
            raise ValueError("no identity element")
        self.identity = ident
        self.inv = np.empty(n, dtype=int)
        for x in rng:
            ys = np.where(self.mul[x, :] == ident)[0]
            if len(ys) != 1 or self.mul[ys[0], x] != ident:
                raise ValueError("inverses are not well defined")
            self.inv[x] = ys[0]
        # associativity on a deterministic sample for large groups, fully
        # for small ones
        if n <= 64:
            triples = product(rng, rng, rng)
        else:
            rs = np.random.default_rng(0)
            triples = (tuple(rs.integers(0, n, size=3)) for _ in range(20000))
        for a, b, c in triples:
            if self.mul[self.mul[a, b], c] != self.mul[a, self.mul[b, c]]:
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
        for a in sub:
            if int(self.inv[a]) not in sub:
                raise ValueError(f"{label} is not inverse-closed")
            for b in sub:
                if int(self.mul[a, b]) not in sub:
                    raise ValueError(f"{label} is not closed")

    # --- actions ---------------------------------------------------------

    def act_gq(self, g, coset):
        """g . (xQ) in G/Q."""
        return int(self.gq_of[self.mul[g, self.gq_cosets[coset]]])

    def act_hq(self, h, j):
        """h . (xQ) for h in H, x in H: stays inside H/Q."""
        c = self.act_gq(h, self.hq_cosets[j])
        return self.hq_index[c]


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
    """Positive rational weights on H/Q summing to one, with the derived
    quasi-invariance cocycle lambda_y(x) = w(y x)/w(x)."""

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
        self.w = weights

    def lam(self, y, j):
        """lambda_y(x) = w(y x)/w(x) for y in H, x the j-th coset of H/Q."""
        return self.w[self.model.act_hq(y, j)] / self.w[j]


@dataclass
class FiberedSpace:
    """Tuples in (G/Q)^n with common image in G/H, with exact measure."""

    model: FiniteGroupModel
    n: int
    tuples: list
    index: dict
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
        tuples = [(c,) for c in range(len(model.gh_cosets))]
        k = len(tuples)
        return FiberedSpace(
            model,
            0,
            tuples,
            {t: i for i, t in enumerate(tuples)},
            [Fraction(1, k)] * k,
        )
    w = wq.w if wq is not None else [Fraction(1, len(model.hq_cosets))] * len(
        model.hq_cosets
    )
    tuples = []
    index = {}
    weights = {}
    nG = model.n
    hq = model.hq_cosets
    for g in range(nG):
        for combo in product(range(len(hq)), repeat=n):
            tup = tuple(model.act_gq(g, hq[j]) for j in combo)
            wt = Fraction(1, nG)
            for j in combo:
                wt *= w[j]
            if tup in index:
                weights[tup] += wt
            else:
                index[tup] = len(tuples)
                tuples.append(tup)
                weights[tup] = wt
    nu = [weights[t] for t in tuples]
    return FiberedSpace(model, n, tuples, index, nu)


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
    the result has one more H/Q axis.  For n = 0 the new coordinate is
    simply ignored (pullback through the projection).
    """
    k = len(model.hq_cosets)
    shape = (model.n,) + (k,) * (n + 1)
    out = np.empty(shape, dtype=object)
    if n == 0:
        for g in range(model.n):
            out[g, ...] = f[g]
        return out
    it = np.ndindex(*shape[1:])
    for idx in it:
        sign = 1
        acc = None
        for i in range(n + 1):
            sub = idx[:i] + idx[i + 1 :]
            term = f[(slice(None),) + sub]
            acc = term * sign if acc is None else acc + term * sign
            sign = -sign
        out[(slice(None),) + idx] = acc
    return out


def bruhat_beta(model, values=None):
    """Nonnegative beta on G with sum_{h in H} beta(g h) = 1 for every g.

    Defaults to the constant 1/|H|.  Custom nonnegative rational values
    are validated exactly.
    """
    if values is None:
        values = [Fraction(1, len(model.H))] * model.n
    values = [Fraction(v) for v in values]
    if len(values) != model.n:
        raise ValueError("beta must be defined on all of G")
    if any(v < 0 for v in values):
        raise ValueError("beta must be nonnegative")
    for g in range(model.n):
        total = sum(values[model.mul[g, h]] for h in model.H)
        if total != 1:
            raise ValueError(f"beta rows must sum to 1; failed at element {g}")
    return values


def psi_kernel(model, beta, wq):
    """Averaged kernel psi(g, x) = sum_{h in H} beta(g h) lambda_{h^-1}(x).

    Verifies exactly: (1) psi(g h^-1, h x) lambda_h(x) = psi(g, x);
    (2) sum_x psi(g, x) w(x) = 1; (3) psi > 0.  Any failure names the
    property (it indicates invalid weights or beta).
    """
    k = len(model.hq_cosets)
    psi = np.empty((model.n, k), dtype=object)
    H = sorted(model.H)
    for g in range(model.n):
        for j in range(k):
            acc = Fraction(0)
            for h in H:
                hinv = int(model.inv[h])
                acc += beta[model.mul[g, h]] * wq.lam(hinv, j)
            psi[g, j] = acc
    for g in range(model.n):
        for j in range(k):
            if psi[g, j] <= 0:
                raise ValueError("psi property (3) failed: kernel not positive")
    for g in range(model.n):
        total = sum(psi[g, j] * wq.w[j] for j in range(k))
        if total != 1:
            raise ValueError("psi property (2) failed: kernel mass is not 1")
    for g in range(model.n):
        for h in H:
            ghinv = int(model.mul[g, model.inv[h]])
            for j in range(k):
                hj = model.act_hq(h, j)
                if psi[ghinv, hj] * wq.lam(h, j) != psi[g, j]:
                    raise ValueError("psi property (1) failed: cocycle identity")
    return psi


def homotopy_h(model, psi, wq, f, n):
    """Contracting homotopy on the group picture.

    ``f`` has shape (|G|,) + (|H/Q|,)*(n+1); the integration variable is
    prepended:  h_n f(g, x_1..x_n) = sum_x psi(g, x) f(g, x, x_1..x_n) w(x).
    Norm-nonincreasing and H-equivariant; with the (-1)^{i-1} face signs of
    the differential the identity h_n d_n + d_{n-1} h_{n-1} = Id is exact.
    """
    k = len(model.hq_cosets)
    shape = (model.n,) + (k,) * n
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(*shape[1:]):
        acc = None
        for x in range(k):
            term = psi[:, x] * f[(slice(None), x) + idx] * wq.w[x]
            acc = term if acc is None else acc + term
        out[(slice(None),) + idx] = acc
    return out


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
    L = frozenset(int(x) for x in L)
    model._verify_subgroup(L, "L")
    for tup in space.tuples:
        for l in L:
            moved = tuple(model.act_gq(l, c) for c in tup) if space.n else _act_gh(
                model, l, tup
            )
            if f[moved] != f[tup]:
                raise ValueError("function is not L-invariant")
    reps, _ = _coset_table(model.mul.T, L)  # the right cosets Lg
    count = Fraction(1, len(reps))
    out = {}
    for tup in space.tuples:
        acc = Fraction(0)
        for g in reps:
            moved = tuple(model.act_gq(g, c) for c in tup) if space.n else _act_gh(
                model, g, tup
            )
            acc += f[moved]
        out[tup] = acc * count
    return out


def _act_gh(model, g, tup):
    c = tup[0]
    return (int(model.gh_of[model.mul[g, model.gh_cosets[c]]]),)


def random_rational_function(space_or_shape, rng, lo=-9, hi=9, den=9):
    """Random Fraction-valued function for exactness tests."""
    if isinstance(space_or_shape, FiberedSpace):
        return {
            t: Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))
            for t in space_or_shape.tuples
        }
    arr = np.empty(space_or_shape, dtype=object)
    for idx in np.ndindex(*space_or_shape):
        arr[idx] = Fraction(int(rng.integers(lo, hi + 1)), int(rng.integers(1, den + 1)))
    return arr


def h_invariant_function(model, n, rng):
    """Random H-invariant function on G x (H/Q)^n (average over H, exact)."""
    k = len(model.hq_cosets)
    shape = (model.n,) + (k,) * n
    raw = random_rational_function(shape, rng)
    out = np.empty(shape, dtype=object)
    H = sorted(model.H)
    for g in range(model.n):
        for idx in np.ndindex(*shape[1:]):
            acc = Fraction(0)
            for h in H:
                gh = int(model.mul[g, h])
                hinv = int(model.inv[h])
                moved = tuple(model.act_hq(hinv, j) for j in idx)
                acc += raw[(gh,) + moved]
            out[(g,) + idx] = acc / len(H)
    return out
