"""Weyl group elements, Bruhat order, parabolic cosets, and the Hecke monoid.

An element w is stored as one weight, x_w = w^-1(rho), written in the basis
of the fundamental weights omega_j: a tuple of rank integers, with the
identity rho = (1, ..., 1) (Bjorner-Brenti, Combinatorics of Coxeter Groups,
GTM 231, section 4).  With a_ij = <alpha_i, alpha_j^vee> (``system.cartan``),
alpha_i = sum_j a_ij omega_j is row i of the Cartan matrix.  The kernel rests
on these facts:

- w -> x_w is injective.  rho is regular, <rho, beta^vee> = ht(beta^vee) > 0
  for every positive coroot, and a weight off every wall has a trivial
  stabilizer in W (Humphreys, Reflection Groups and Coxeter Groups, 1.12).
  So x_u = x_v gives v u^-1 rho = rho and u = v; equality and hashing of the
  tuples are equality of elements.
- (x_w)_j = <w^-1 rho, alpha_j^vee> = <rho, w(alpha_j^vee)> by W-invariance.
  w(alpha_j^vee) is a coroot of the sign of w(alpha_j), so coordinate j is
  negative exactly when w(alpha_j) < 0, i.e. when s_j is a right descent of
  w (GTM 231, 4.4.6).  It is never 0; a 0 met by a step raises
  InvariantViolationError, as the tuple is no x_w.
- x_{w s_j} = s_j(x_w) = x_w - (x_w)_j alpha_j.  Row j of the Cartan matrix
  is 2 at j and nonzero elsewhere only at the Dynkin neighbours k of j
  (``system.neighbours``), so the step negates coordinate j and subtracts
  (x_w)_j a_jk at each k: one to three more coordinates, none stored.  A
  general product x_{uv} folds u along ``reduced_word(v)``, one right step
  per letter.
- s_alpha is an involution, so x_{s_alpha} = s_alpha(rho)
  = rho - <rho, alpha^vee> alpha, and <rho, alpha^vee> is the sum of the
  coefficients of the coroot.

Lengths, words and inverses come from the descent walk of ``reduced_word``;
Bruhat order is the lifting recursion on a right descent of v
(``bruhat_leq``).  Each level reads signs (``_descent``) and takes at most
two steps.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import DomainError, InvariantViolationError, ResourceError
from .rootsystem import RootSystem

#: the enumeration cap (elements or cosets), checked in closed form before any BFS
ENUMERATION_CAP = 10**6

Weyl = tuple  # x_w = w^-1(rho) in fundamental-weight coordinates


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

    Instances are cheap; build one per root system and reuse it so that its
    kernel dicts and ``memo`` (enumerations, and ``memoised`` entries) amortize.
    """

    def __init__(self, system: RootSystem):
        self.system = system
        self.rank = system.rank
        self.identity: Weyl = (1,) * system.rank  # rho
        self._simple = tuple(tuple(1 - a for a in row) for row in system.cartan)
        self._simple_index = {s: j for j, s in enumerate(self._simple)}
        self._neighbours = system.neighbours  # [j]: (k, a_jk) per Dynkin neighbour k
        self._inverse: dict = {self.identity: self.identity}
        self._word: dict = {self.identity: ()}
        self._bruhat: dict = {}
        self._longest: dict = {frozenset(): self.identity}
        self._reflection: dict = {}
        self.memo: dict = {}  # enumerations and ``memoised`` entries

    # -- basic action ----------------------------------------------------------

    def _reflect(self, x: tuple, j: int) -> tuple:
        """s_j(x) = x - x_j alpha_j for a weight x with x_j != 0.

        Coordinate j becomes -x_j, and each Dynkin neighbour k of j loses
        x_j a_jk; every other coordinate is unchanged.  x_j = 0 raises
        InvariantViolationError: no x_w has a zero coordinate, and the
        coset BFS never steps along a wall it lies on.
        """
        c = x[j]
        if not c:
            raise InvariantViolationError(f"{x} has coordinate {j + 1} equal to 0")
        y = list(x)
        y[j] = -c
        for k, a in self._neighbours[j]:
            y[k] -= c * a
        return tuple(y)

    def simple_reflection(self, j: int) -> Weyl:
        if not 0 <= j < self.system.rank:
            raise DomainError(f"no simple root with index {j}")
        return self._simple[j]

    def reflection(self, alpha) -> Weyl:
        """s_alpha for any root alpha: rho - <rho, alpha^vee> alpha."""
        alpha = self.system.check_root(alpha)
        if alpha not in self._reflection:
            system = self.system
            p = sum(system.coroot(alpha))  # <rho, alpha^vee>
            self._reflection[alpha] = tuple(
                1 - p * system.pair_simple_coroot(alpha, i) for i in range(system.rank)
            )
        return self._reflection[alpha]

    def multiply(self, u: Weyl, v: Weyl) -> Weyl:
        """uv: one right step when v is a simple reflection, else u folded along v's word."""
        j = self._simple_index.get(v)
        if j is not None:
            return self._reflect(u, j)
        for j in self.reduced_word(v):
            u = self._reflect(u, j)
        return u

    def product(self, ws) -> Weyl:
        out = self.identity
        for w in ws:
            out = self.multiply(out, w)
        return out

    # -- length, words, inverses -----------------------------------------------

    def length(self, w: Weyl) -> int:
        return len(self.reduced_word(w))

    def reduced_word(self, w: Weyl) -> tuple:
        """Canonical reduced word: repeated least-index right-descent extraction."""
        word = self._word.get(w)
        if word is None:
            steps = []
            x = w
            while (j := _descent(x)) is not None:
                steps.append(j)
                x = self._reflect(x, j)
            if x != self.identity:
                raise InvariantViolationError(f"{w} is not the image of rho under W")
            word = self._word[w] = tuple(reversed(steps))
        return word

    def inverse(self, w: Weyl) -> Weyl:
        if w not in self._inverse:
            self._inverse[w] = self.from_word(reversed(self.reduced_word(w)))
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
                ascent = next((j for j in sorted(s) if w[j] > 0), None)
                if ascent is None:
                    break
                w = self._reflect(w, ascent)
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
            descent = next((j for j in members if w[j] < 0), None)
            if descent is None:
                return w
            w = self._reflect(w, descent)

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

        For a right descent s_j of v (coordinate j of v negative), u <= v iff
        u s_j <= v s_j when s_j is a right descent of u too, and iff
        u <= v s_j otherwise (the lifting property, Bjorner-Brenti, GTM 231,
        Prop. 2.2.7).  A level costs the sign tests that find j, one of u,
        and at most two steps; v = e ends the recursion.
        """
        if u == v:
            return True
        key = (u, v)
        cached = self._bruhat.get(key)
        if cached is not None:
            return cached
        j = _descent(v)
        if j is None:  # v = e, and u != v
            result = False
        else:
            if u[j] < 0:
                u = self._reflect(u, j)
            result = self.bruhat_leq(u, self._reflect(v, j))
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
            if u[j] > 0:
                u = self._reflect(u, j)
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

    def elements(self, parabolic: Parabolic | None = None) -> tuple:
        """All of W, or of W_P when a parabolic is given, sorted by (length, word)."""
        subset = frozenset(range(self.system.rank)) if parabolic is None else parabolic.delta_p
        return self._enumerated(
            ("elements", subset), sorted(subset), frozenset(), lambda: self.order(subset)
        )

    def cosets(self, parabolic: Parabolic) -> tuple:
        """All cosets of W/W_P as minimal representatives, each exactly once.

        For the Borel subgroup these are the elements of W, the same tuple.
        The BFS keys uW_P by the weight u(rho_P), rho_P = the sum of the
        omega_k over k not in Delta_P.  rho_P is dominant and lies on the
        walls of Delta_P alone, so its stabilizer is W_P (Humphreys, 1.12)
        and u(rho_P) determines uW_P.  s_j u W_P is keyed by s_j(u(rho_P)),
        the update of a right step, and s_j fixes uW_P, i.e. u^-1 s_j u lies
        in W_P, iff s_j fixes u(rho_P): iff coordinate j is 0.  Otherwise
        s_j u is again a minimal representative (Deodhar's lemma: for u in
        W^P, s_j u is in W^P or s_j u = u s_k with k in Delta_P), so no
        coset_min is needed.  The BFS records its table as it goes:
        ``numbered_cosets`` returns it.
        """
        parabolic.check_rank(self.system.rank)
        if not parabolic.delta_p:
            return self.elements()
        return self._enumerated(
            self._cosets_key(parabolic),
            range(self.system.rank),
            parabolic.delta_p,
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
        return (cosets, *self.memo[("left", self._cosets_key(parabolic))])

    def enumerated(self, parabolic: Parabolic) -> bool:
        """Whether this group has already enumerated W/W_P (``cosets``)."""
        return self._cosets_key(parabolic) in self.memo

    def _cosets_key(self, parabolic: Parabolic) -> tuple:
        """The memo key of W/W_P; the Borel's is that of all of W."""
        if parabolic.delta_p:
            return ("cosets", parabolic.delta_p)
        return ("elements", frozenset(range(self.system.rank)))

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

    def _enumerated(self, key, letters, stabilizer, size) -> tuple:
        """The closure of eW_P under u W_P -> s_j u W_P, j in letters, sorted by (length, word).

        u runs over minimal representatives; Delta_P is ``stabilizer`` (see
        cosets).  The BFS numbers each coset on first sight of its weight
        u(rho_P) and records, for the r-th letter j, the number of
        s_j u W_P; s_j is an involution on cosets, so each step fills both
        ends.  The element s_j u, one product, is built only for a coset
        found for the first time.  The sorted table is memoised as
        ("left", key): rows in the order of the letters, and each length,
        the BFS depth, checked against the length of the sorted word.

        On a miss, the closed-form size() is checked against ENUMERATION_CAP
        before the BFS allocates anything, and against the BFS count after it.
        """
        if key not in self.memo:
            expected = size()
            if expected > ENUMERATION_CAP:
                raise ResourceError(f"enumeration of {expected} exceeded the cap of {ENUMERATION_CAP}")
            rho_p = tuple(0 if k in stabilizer else 1 for k in range(self.system.rank))
            found = {rho_p: 0}
            weights = [rho_p]  # u(rho_P) per coset
            order = [self.identity]
            depth = [0]
            steps = [[None] * len(letters)]
            for x_pos, x in enumerate(order):  # order grows behind the loop: a BFS
                row = steps[x_pos]
                weight = weights[x_pos]
                for r, j in enumerate(letters):
                    if row[r] is not None:
                        continue
                    if not weight[j]:  # s_j fixes uW_P
                        row[r] = x_pos
                        continue
                    y = self._reflect(weight, j)
                    y_pos = found.get(y)
                    if y_pos is None:
                        y_pos = found[y] = len(order)
                        weights.append(y)
                        order.append(self.multiply(self._simple[j], x))
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
        return self.memo[key]


def _descent(x: tuple) -> int | None:
    """The least j with x_j < 0, i.e. the least right descent of w for x = x_w; None at e."""
    for j, c in enumerate(x):
        if c < 0:
            return j
    return None


def weyl_group(type_letter: str, rank: int) -> WeylGroup:
    """Shared per-process WeylGroup instances keyed by (type, rank)."""
    key = (str(type_letter).upper(), rank)
    if key not in _GROUPS:
        from .rootsystem import build_root_system

        _GROUPS[key] = WeylGroup(build_root_system(*key))
    return _GROUPS[key]


_GROUPS: dict = {}
