"""Weyl group elements, Bruhat order, parabolic cosets, and the Hecke monoid.

An element is canonically a rank x rank integer matrix, stored as a tuple of
rows where row i is the image of the i-th simple root in the root basis.
Equality of elements is equality of actions, which makes every operation
independent of reduced-word choices.  All operations are pure; caches are
per-WeylGroup dictionaries keyed by the immutable element tuples.

``multiply`` builds a product with a simple reflection by rewriting only
what changes: u s_j negates row j and subtracts a_ij * row j from each Dynkin
neighbor row i, and s_j u changes only column j, by <row, alpha_j^vee>.
Other products apply u to each row of v.  length(w) is the length of the
reduced word, read off a descent walk that lowers the length by one per step.

Bruhat order is the lifting recursion on a right descent s_j of v (see
bruhat_leq): each level reads row signs and takes at most two row updates,
and computes no length, word or inverse.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from operator import mul, neg
from typing import Iterable

from .errors import DomainError, InvariantViolationError, ResourceError
from .rootsystem import RootSystem

#: default enumeration cap (elements or cosets)
ENUMERATION_CAP = 10**6

Weyl = tuple  # tuple of row tuples


@dataclass(frozen=True)
class Parabolic:
    """A standard parabolic subgroup, identified by its subset of Delta."""

    rank: int
    delta_p: frozenset

    @classmethod
    def from_indices(cls, rank: int, indices: Iterable) -> "Parabolic":
        s = frozenset(indices)
        if not s <= set(range(rank)):
            raise DomainError(f"{sorted(s)} is not a subset of Delta")
        return cls(rank, s)

    @cached_property
    def free(self) -> tuple:
        """Delta \\ Delta_P, sorted: the coordinates of H_2(G/P)."""
        return tuple(i for i in range(self.rank) if i not in self.delta_p)

    def contains(self, other: "Parabolic") -> bool:
        """P >= Q as parabolics, i.e. Delta_Q <= Delta_P."""
        return other.delta_p <= self.delta_p

    def is_maximal(self) -> bool:
        return len(self.free) == 1

    def check_rank(self, rank: int) -> None:
        """Refuse a parabolic of another rank before a memo keyed by Delta_P sees it."""
        if self.rank != rank:
            raise DomainError(f"a parabolic of rank {self.rank} in a system of rank {rank}")

    def maximal_above(self, beta: int) -> "Parabolic":
        """P_beta: the maximal parabolic omitting the free simple root beta."""
        if beta in self.delta_p:
            raise DomainError(f"alpha_{beta + 1} lies in Delta_P")
        return Parabolic(self.rank, frozenset(range(self.rank)) - {beta})

    def __repr__(self):  # pragma: no cover
        return f"Parabolic({sorted(i + 1 for i in self.delta_p)})"


@dataclass(frozen=True)
class CosetRep:
    element: Weyl
    parabolic: Parabolic
    flavor: str  # "minimal" or "maximal"


class WeylGroup:
    """Operations on W(R) with shared memoization.

    Instances are cheap; build one per root system and reuse it so that the
    length/Bruhat/Hecke caches amortize across computations.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        rank = system.rank
        self.identity: Weyl = tuple(
            tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)
        )
        self._simple = tuple(
            tuple(system.reflect_simple(system.simple_roots[i], j) for i in range(rank))
            for j in range(rank)
        )
        cartan = system.cartan
        self._simple_index = {s: j for j, s in enumerate(self._simple)}
        # u s_j changes row j and each Dynkin neighbor row i, by a_ij * row j
        self._neighbor_rows = tuple(
            tuple((i, cartan[i][j]) for i in sorted(system.adjacency[j])) for j in range(rank)
        )
        self._cartan_columns = tuple(zip(*cartan))  # <x, alpha_j^vee> = x . column j
        self._length: dict = {self.identity: 0}
        self._inverse: dict = {self.identity: self.identity}
        self._word: dict = {self.identity: ()}
        self._bruhat: dict = {}
        self._longest: dict = {frozenset(): self.identity}
        self._reflection: dict = {}
        self.memo: dict = {}  # shared cross-module memoization

    # -- basic action ----------------------------------------------------------

    def apply(self, w: Weyl, coeffs) -> tuple:
        """Image of a root-basis vector under w."""
        rank = self.system.rank
        out = [0] * rank
        for i, c in enumerate(coeffs):
            if c:
                row = w[i]
                for j in range(rank):
                    out[j] += c * row[j]
        return tuple(out)

    @staticmethod
    def is_negative(coeffs) -> bool:
        """True for the image of a root lying in R^-; roots never mix signs."""
        for c in coeffs:
            if c < 0:
                return True
            if c > 0:
                return False
        raise DomainError("zero vector is not a root")

    def simple_reflection(self, j: int) -> Weyl:
        if not 0 <= j < self.system.rank:
            raise DomainError(f"no simple root with index {j}")
        return self._simple[j]

    def reflection(self, alpha) -> Weyl:
        """The reflection along any root alpha: row i is alpha_i - <alpha_i, alpha^vee> alpha."""
        alpha = self.system.check_root(alpha)
        if alpha not in self._reflection:
            cov = self.system.coroot(alpha)
            rows = []
            for i, row in enumerate(self.system.cartan):
                p = sum(map(mul, row, cov))  # <alpha_i, alpha^vee> = sum_j a_ij c_j
                rows.append(tuple((1 if i == j else 0) - p * a for j, a in enumerate(alpha)))
            self._reflection[alpha] = tuple(rows)
        return self._reflection[alpha]

    def multiply(self, u: Weyl, v: Weyl) -> Weyl:
        """(u v)(x) = u(v(x)), with a cheap update when a factor is simple."""
        j = self._simple_index.get(v)
        if j is not None:
            rows = list(u)
            row_j = u[j]
            rows[j] = tuple(map(neg, row_j))
            for i, a in self._neighbor_rows[j]:
                rows[i] = tuple([x - a * y for x, y in zip(u[i], row_j)])
            return tuple(rows)
        j = self._simple_index.get(u)
        if j is not None:
            column = self._cartan_columns[j]
            return tuple(
                r[:j] + (r[j] - sum(map(mul, r, column)),) + r[j + 1:] for r in v
            )
        return tuple(self.apply(u, v[i]) for i in range(self.system.rank))

    def product(self, ws) -> Weyl:
        out = self.identity
        for w in ws:
            out = self.multiply(out, w)
        return out

    # -- length, words, inverses -----------------------------------------------

    def length(self, w: Weyl) -> int:
        if w not in self._length:
            self._length[w] = len(self.reduced_word(w))
        return self._length[w]

    def reduced_word(self, w: Weyl) -> tuple:
        """Canonical reduced word: repeated least-index right-descent extraction."""
        if w not in self._word:
            word = []
            x = w
            letters = range(self.system.rank)
            while True:
                j = next((j for j in letters if self.is_negative(x[j])), None)
                if j is None:
                    break
                word.append(j)
                x = self.multiply(x, self._simple[j])
            if x != self.identity:
                raise DomainError("descent extraction did not terminate at identity")
            self._word[w] = tuple(reversed(word))
        return self._word[w]

    def inverse(self, w: Weyl) -> Weyl:
        if w not in self._inverse:
            out = self.identity
            for j in reversed(self.reduced_word(w)):
                out = self.multiply(out, self._simple[j])
            self._inverse[w] = out
        return self._inverse[w]

    def from_word(self, word: Iterable) -> Weyl:
        out = self.identity
        for j in word:
            out = self.multiply(out, self.simple_reflection(j))
        return out

    # -- longest elements and cosets --------------------------------------------

    def longest_element(self, subset) -> Weyl:
        """w_S for a subset S of Delta; w_o for the full set, identity for {}."""
        if isinstance(subset, Parabolic):
            subset = subset.delta_p
        s = frozenset(subset)
        if s not in self._longest:
            w = self.identity
            while True:
                ascent = next((j for j in sorted(s) if not self.is_negative(w[j])), None)
                if ascent is None:
                    break
                w = self.multiply(w, self._simple[ascent])
            self._longest[s] = w
        return self._longest[s]

    @cached_property
    def w_o(self) -> Weyl:
        return self.longest_element(frozenset(range(self.system.rank)))

    def coset_min(self, w: Weyl, parabolic: Parabolic) -> Weyl:
        """The minimal representative in wW_P."""
        parabolic.check_rank(self.system.rank)
        members = sorted(parabolic.delta_p)
        while True:
            descent = next((j for j in members if self.is_negative(w[j])), None)
            if descent is None:
                return w
            w = self.multiply(w, self._simple[descent])

    def coset_max_rep(self, w: Weyl, parabolic: Parabolic) -> CosetRep:
        m = self.coset_min(w, parabolic)
        w_p = self.longest_element(parabolic)
        top = self.multiply(m, w_p)
        if self.length(top) != self.length(m) + self.length(w_p):
            raise InvariantViolationError("l(m w_P) != l(m) + l(w_P) for a minimal m")
        return CosetRep(top, parabolic, "maximal")

    def w_x(self, parabolic: Parabolic) -> Weyl:
        """w_X = w_o w_P, the minimal representative in w_o W_P."""
        return self.multiply(self.w_o, self.longest_element(parabolic))

    def dual(self, w: Weyl) -> Weyl:
        """w* = w_o w."""
        return self.multiply(self.w_o, w)

    # -- Bruhat order ------------------------------------------------------------

    def bruhat_leq(self, u: Weyl, v: Weyl) -> bool:
        """Right-descent lifting recursion; the subword criterion is kept as a test oracle.

        For a right descent s_j of v (row j of v negative), u <= v iff
        u s_j <= v s_j when s_j is a right descent of u too, and iff
        u <= v s_j otherwise (the lifting property, Bjorner-Brenti, GTM 231,
        Prop. 2.2.7).  A level costs the sign tests that find j, one on row j
        of u, and at most two row updates; v = e ends the recursion.
        """
        if u == v:
            return True
        key = (u, v)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        j = next((j for j in range(self.system.rank) if self.is_negative(v[j])), None)
        if j is None:  # v = e, and u != v
            result = False
        else:
            s = self._simple[j]
            if self.is_negative(u[j]):
                u = self.multiply(u, s)
            result = self.bruhat_leq(u, self.multiply(v, s))
        self._bruhat[key] = result
        return result

    def bruhat_leq_coset(self, u: Weyl, v: Weyl, parabolic: Parabolic) -> bool:
        """Bruhat order on W/W_P via minimal representatives."""
        return self.bruhat_leq(self.coset_min(u, parabolic), self.coset_min(v, parabolic))

    # -- Hecke monoid --------------------------------------------------------------

    def hecke_product(self, u: Weyl, v: Weyl) -> Weyl:
        """u . v, along the reduced word of v."""
        return self.hecke_word(u, self.reduced_word(v))

    def hecke_word(self, u: Weyl, word) -> Weyl:
        """u . s_j1 . ... . s_jm, with u . s_j = u s_j if that is longer, else u.

        For a reduced word this is u . v, v the element the word spells.
        """
        for j in word:
            if not self.is_negative(u[j]):
                u = self.multiply(u, self._simple[j])
        return u

    def hecke_coset(self, u: Weyl, v: Weyl, parabolic: Parabolic) -> Weyl:
        """u . (vW_P), returned as a minimal representative."""
        return self.coset_min(
            self.hecke_product(u, self.coset_min(v, parabolic)), parabolic
        )

    def stabilizer_delta(self, w: Weyl, parabolic: Parabolic) -> frozenset:
        """Delta_{P_w} = {beta : s_beta . wW_P = wW_P}."""
        m = self.coset_min(w, parabolic)
        return frozenset(
            j
            for j in range(self.system.rank)
            if self.hecke_coset(self._simple[j], m, parabolic) == m
        )

    # -- enumeration -----------------------------------------------------------------

    def elements(self, parabolic: Parabolic | None = None, cap: int = ENUMERATION_CAP) -> tuple:
        """All of W, or of W_P when a parabolic is given, sorted by (length, word)."""
        subset = frozenset(range(self.system.rank)) if parabolic is None else parabolic.delta_p
        return self._enumerated(
            ("elements", subset), sorted(subset), frozenset(), cap, lambda: self.order(subset)
        )

    def cosets(self, parabolic: Parabolic, cap: int = ENUMERATION_CAP) -> tuple:
        """All cosets of W/W_P as minimal representatives, each exactly once.

        For the Borel subgroup these are the elements of W, the same tuple.
        The BFS takes u W_P to s_j u W_P with no coset_min, by Deodhar's
        lemma: for u in W^P, s_j u lies in W^P unless u(alpha_k) = alpha_j
        for some k in Delta_P, and then s_j u = u s_k lies in uW_P.  (For
        k in Delta_P, (s_j u)(alpha_k) = s_j(u(alpha_k)) is negative only
        when u(alpha_k) = alpha_j, as s_j permutes R^+ \\ {alpha_j}, and
        then u s_k u^-1 = s_j.)  So a step is one row comparison per k, and
        a product only when it leaves the coset.  The BFS records its table
        as it goes: ``numbered_cosets`` returns it.
        """
        parabolic.check_rank(self.system.rank)
        if not parabolic.delta_p:
            return self.elements(cap=cap)
        return self._enumerated(
            ("cosets", parabolic.delta_p),
            range(self.system.rank),
            parabolic.delta_p,
            cap,
            lambda: self.order() // self.order(parabolic.delta_p),
        )

    def numbered_cosets(self, parabolic: Parabolic) -> tuple:
        """(cosets, left, lengths): cosets(parabolic) and the table its BFS recorded.

        left[j][i] is the index of s_j u_i W_P and lengths[i] is l(u_i), the
        BFS depth of u_i W_P: the suffixes of a reduced word of u in W^P lie
        in W^P, so u is reached in l(u) steps, and no step changes the
        length of a minimal representative by more than one.
        """
        cosets = self.cosets(parabolic)
        key = ("cosets", parabolic.delta_p) if parabolic.delta_p else (
            "elements", frozenset(range(self.system.rank))
        )
        return (cosets, *self.memo[("left", key)])

    def order(self, subset: Iterable | None = None) -> int:
        """|W_J| for the simple roots J (all of Delta by default), in closed form.

        |W_J| is the product of (e + 1) over the exponents e of R_J, and
        n_k - n_{k+1} exponents equal k, where n_k counts the positive roots
        of R_J of height k.
        """
        subset = frozenset(range(self.system.rank)) if subset is None else frozenset(subset)
        heights = Counter(
            sum(a) for a in self.system.positive_roots if self.system.support(a) <= subset
        )
        out = 1
        for k, n in heights.items():
            out *= (k + 1) ** (n - heights[k + 1])
        return out

    def _enumerated(self, key, letters, stabilizer, cap, size) -> tuple:
        """The closure of eW_P under u W_P -> s_j u W_P, j in letters, sorted by (length, word).

        u runs over minimal representatives; Delta_P is ``stabilizer`` (see
        cosets).  The BFS numbers each coset on first sight and records, for
        the r-th letter j, the number of s_j u W_P; s_j is an involution on
        cosets, so each product fills both ends of its step, and a step that
        stays in uW_P costs no product.  The sorted table is memoised as
        ("left", key): rows in the order of the letters, and each length,
        the BFS depth, checked against the length of the sorted word.

        Memoised under a key without the cap: only a complete enumeration is
        stored, and the cap is checked against its size on every call.  On a
        miss, the closed-form size() is checked against the cap before the
        BFS allocates anything, and against the BFS count after it.
        """
        if key not in self.memo:
            expected = size()
            if expected > cap:
                raise ResourceError(f"enumeration of {expected} exceeded the cap of {cap}")
            units = [self.identity[j] for j in letters]  # alpha_j in the root basis
            found = {self.identity: 0}
            order = [self.identity]
            depth = [0]
            steps = [[None] * len(letters)]
            for x_pos, x in enumerate(order):  # order grows behind the loop: a BFS
                row = steps[x_pos]
                fixed = {x[k] for k in stabilizer}  # u(alpha_k), k in Delta_P
                for r, j in enumerate(letters):
                    if row[r] is not None:
                        continue
                    if units[r] in fixed:
                        row[r] = x_pos
                        continue
                    y = self.multiply(self._simple[j], x)
                    y_pos = found.get(y)
                    if y_pos is None:
                        y_pos = found[y] = len(order)
                        order.append(y)
                        depth.append(depth[x_pos] + 1)
                        steps.append([None] * len(letters))
                    row[r] = y_pos
                    steps[y_pos][r] = x_pos
            if len(order) != expected:
                raise InvariantViolationError(
                    f"enumerated {len(order)} elements, the closed form gives {expected}"
                )
            words = [self.reduced_word(x) for x in order]
            if any(len(word) != d for word, d in zip(words, depth)):
                raise InvariantViolationError("a BFS depth differs from the length of its coset")
            ranked = sorted(range(len(order)), key=lambda p: (depth[p], words[p]))
            number = [0] * len(order)
            for i, p in enumerate(ranked):
                number[p] = i
            self.memo[("left", key)] = (
                tuple(tuple(number[steps[p][r]] for p in ranked) for r in range(len(letters))),
                tuple(depth[p] for p in ranked),
            )
            self.memo[key] = tuple(order[p] for p in ranked)
        out = self.memo[key]
        if len(out) > cap:
            raise ResourceError(f"enumeration exceeded the cap of {cap}")
        return out


def weyl_group(type_letter: str, rank: int) -> WeylGroup:
    """Shared per-process WeylGroup instances keyed by (type, rank)."""
    key = (str(type_letter).upper(), rank)
    if key not in _GROUPS:
        from .rootsystem import build_root_system

        _GROUPS[key] = WeylGroup(build_root_system(*key))
    return _GROUPS[key]


_GROUPS: dict = {}
