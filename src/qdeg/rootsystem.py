"""Irreducible root systems of all simple types, with coroots and pairings.

A root is a plain tuple of integer coefficients over the simple-root basis
(all nonnegative for positive roots).  A coroot vector is a tuple of integer
coefficients over the simple-coroot basis.  Simple roots follow the Bourbaki
numbering; the invariant form is normalized so short roots have squared
length 2.  Everything downstream consumes only Cartan integers, so the
normalization is observationally irrelevant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, wraps
from math import gcd, lcm
from operator import ge, le, mul
from typing import Iterable, NewType

from .errors import ConfigurationError, DomainError, InvariantViolationError

Root = NewType("Root", tuple)
CorootVector = NewType("CorootVector", tuple)

#: admissible ranks per type letter
ADMISSIBLE = {
    "A": lambda l: l >= 1,
    "B": lambda l: l >= 2,
    "C": lambda l: l >= 2,
    "D": lambda l: l >= 3,
    "E": lambda l: l in (6, 7, 8),
    "F": lambda l: l == 4,
    "G": lambda l: l == 2,
}

#: classical |R+| counts, used as a construction invariant
POSITIVE_ROOT_COUNT = {
    "A": lambda l: l * (l + 1) // 2,
    "B": lambda l: l * l,
    "C": lambda l: l * l,
    "D": lambda l: l * (l - 1),
    "E": lambda l: {6: 36, 7: 63, 8: 120}[l],
    "F": lambda l: 24,
    "G": lambda l: 6,
}


def _dynkin_edges(letter: str, rank: int) -> dict[tuple[int, int], int]:
    """Directed bond data: (i, j) -> Cartan entry a_ij = <alpha_i, alpha_j^vee>.

    Only off-diagonal nonzero entries are listed; unlisted pairs are 0.
    Indices are 0-based but follow the Bourbaki 1-based pictures.
    """
    edges: dict[tuple[int, int], int] = {}

    def bond(i, j, aij=-1, aji=-1):
        edges[(i, j)] = aij
        edges[(j, i)] = aji

    if letter == "A":
        for i in range(rank - 1):
            bond(i, i + 1)
    elif letter == "B":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -2, -1)  # alpha_l short
    elif letter == "C":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 2, rank - 1, -1, -2)  # alpha_l long
    elif letter == "D":
        for i in range(rank - 2):
            bond(i, i + 1)
        bond(rank - 3, rank - 1)
    elif letter == "E":
        bond(0, 2)
        bond(1, 3)
        for i in range(2, rank - 1):
            bond(i, i + 1)
    elif letter == "F":
        bond(0, 1)
        bond(1, 2, -2, -1)  # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(2, 3)
    elif letter == "G":
        bond(0, 1, -1, -3)  # alpha_1 short, alpha_2 long
    return edges


def _cartan_matrix(letter: str, rank: int) -> tuple:
    edges = _dynkin_edges(letter, rank)
    rows = []
    for i in range(rank):
        rows.append(tuple(2 if i == j else edges.get((i, j), 0) for j in range(rank)))
    return tuple(rows)


def _symmetrizer(cartan: tuple) -> tuple:
    """Positive integers d_i with d_i*a_ij = d_j*a_ji, short roots at d = 1.

    Each d_i is found as an integer pair (numerator, denominator), d_0 = 1/1;
    the pairs are then brought to one denominator by lcm.
    """
    rank = len(cartan)
    d: list[tuple[int, int] | None] = [None] * rank
    d[0] = (1, 1)
    queue = [0]
    while queue:
        i = queue.pop()
        num, den = d[i]
        for j in range(rank):
            if i != j and cartan[i][j] != 0 and d[j] is None:
                # (alpha_i, alpha_j) = d_j a_ij = d_i a_ji
                d[j] = (abs(num * cartan[j][i]), abs(den * cartan[i][j]))
                queue.append(j)
    if any(x is None for x in d):
        raise ConfigurationError("Dynkin diagram is not connected")
    common = lcm(*(den for _, den in d))
    whole = [num * (common // den) for num, den in d]
    low = min(whole)
    if any(x % low for x in whole):
        raise ConfigurationError("non-integral symmetrizer")
    return tuple(x // low for x in whole)


@dataclass(frozen=True)
class RootSystem:
    """An irreducible root system with a fixed simple-root basis.

    Immutable after construction; safe to share across concurrent tasks.
    """

    type_letter: str
    rank: int
    cartan: tuple
    symmetrizer: tuple
    simple_roots: tuple
    positive_roots: tuple
    memo: dict = field(default_factory=dict, compare=False, repr=False)  # see memoised

    @cached_property
    def positive_set(self) -> frozenset:
        return frozenset(self.positive_roots)

    @cached_property
    def adjacency(self) -> tuple:
        """Dynkin-diagram neighbor sets of the simple roots."""
        return tuple(
            frozenset(j for j in range(self.rank) if j != i and self.cartan[i][j] != 0)
            for i in range(self.rank)
        )

    @cached_property
    def neighbours(self) -> tuple:
        """Per simple root j, the pairs (k, a_jk) over the Dynkin neighbours k of j.

        Row j of the Cartan matrix is 2 at j, a_jk there, and 0 elsewhere, so
        a simple reflection changes a weight, or the pairings of a root with
        the simple coroots, at j and at these one to three places alone.
        """
        return tuple(
            tuple((k, self.cartan[j][k]) for k in sorted(self.adjacency[j]))
            for j in range(self.rank)
        )

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"RootSystem({self.type_letter}{self.rank})"

    # -- membership and orders ------------------------------------------------

    def is_positive_root(self, v) -> bool:
        return tuple(v) in self.positive_set

    def is_root(self, v) -> bool:
        v = tuple(v)
        return v in self.positive_set or tuple(-c for c in v) in self.positive_set

    def check_root(self, v) -> Root:
        v = tuple(v)
        if not self.is_root(v):
            raise DomainError(f"{v} is not a root of {self.type_letter}{self.rank}")
        return v

    def support(self, a) -> frozenset:
        """Simple roots occurring with positive coefficient in a positive root."""
        return frozenset(i for i, c in enumerate(a) if c != 0)

    # -- pairings -------------------------------------------------------------

    cartan_columns = cached_property(lambda self: tuple(zip(*self.cartan)))

    def pair_simple_coroot(self, x, j: int) -> int:
        """<x, alpha_j^vee> for x written in the simple-root basis."""
        return sum(map(mul, x, self.cartan_columns[j]))

    @cached_property
    def gram(self) -> tuple:
        """The Gram matrix of the simple roots, (alpha_i, alpha_j) = d_j a_ij."""
        return tuple(tuple(map(mul, row, self.symmetrizer)) for row in self.cartan)

    @cached_property
    def symmetrizes(self) -> bool:
        """d_i a_ij = d_j a_ji for all i, j: the Gram matrix is symmetric."""
        gram = self.gram
        return all(gram[i][j] == gram[j][i] for i in range(self.rank) for j in range(i))

    def inner(self, a, b) -> int:
        """The W-invariant form, short roots normalized to squared length 2."""
        total = 0
        for x, row in zip(a, self.gram):
            if x:
                total += x * sum(map(mul, row, b))
        return total

    @cached_property
    def coroots(self) -> dict:
        """{alpha: alpha^vee} over R^+, in the simple-coroot basis: one pass, one gcd a root.

        alpha_i = d_i alpha_i^vee, so alpha = sum c_i d_i alpha_i^vee and
        alpha^vee = sum (c_i d_i / g) alpha_i^vee with g = (alpha, alpha)/2.
        alpha^vee is W-conjugate to a simple coroot, and W acts on the coroot
        lattice by integer matrices with integer inverses, so alpha^vee is
        primitive there: g = gcd(c_i d_i), and no Gram product is needed.  The
        argument needs d_i a_ij = d_j a_ji (``symmetrizes``), and g must then be
        one of the d_i; either failing raises InvariantViolationError, and
        nothing is kept.
        """
        d, fits, out = self.symmetrizer, self.symmetrizes, {}
        for a in self.positive_roots:
            scaled = tuple(map(mul, a, d))
            g = gcd(*scaled)
            if g not in d or not fits:
                raise InvariantViolationError(f"the symmetrizer {d} does not fit the Cartan matrix")
            out[a] = scaled if g == 1 else tuple([x // g for x in scaled])
        return out

    def coroot(self, a) -> CorootVector:
        """alpha^vee = 2*alpha/(alpha, alpha), read off ``coroots``; -alpha^vee for -alpha."""
        cov = self.coroots.get(a := tuple(a))
        return cov or tuple([-x for x in self.coroots[tuple([-c for c in self.check_root(a)])]])

    def reflection_word(self, beta) -> tuple:
        """The reduced word j1..jm k jm..j1 of s_beta, from beta = +-s_j1 ... s_jm alpha_k.

        j1 is the least j with <beta, alpha_j^vee> > 0 for beta > 0, and the
        rest is the word of s_j1(beta), a root of lower height; then
        s_beta = s_j1 s_{s_j1 beta} s_j1, and l(s_{s_j1 beta}) = l(s_beta) - 2
        (the proof is in curveneighborhood), so the word is reduced.  The
        pairings p_k = <beta, alpha_k^vee> are summed once; a step s_j lowers
        the height by p_j and changes the pairings only at j (p_j -> -p_j) and
        at the neighbours k of j (p_k -= p_j a_jk).  Memoised in ``memo`` per
        positive root.
        """
        beta = tuple(beta)
        if any(c < 0 for c in beta):
            beta = tuple(-c for c in beta)
        key = ("reflection-word", beta)
        word = self.memo.get(key)
        if word is None:
            root = list(self.check_root(beta))
            pairing = [self.pair_simple_coroot(root, k) for k in range(self.rank)]
            height = sum(root)
            path = []
            while height > 1:
                j = 0
                while pairing[j] <= 0:
                    j += 1
                p = pairing[j]
                path.append(j)
                root[j] -= p
                height -= p
                pairing[j] = -p
                for k, a in self.neighbours[j]:
                    pairing[k] -= p * a
            word = self.memo[key] = (*path, root.index(1), *reversed(path))
        return word

    # -- distinguished roots --------------------------------------------------

    @cached_property
    def highest_root(self) -> Root:
        return _highest(self.positive_roots, ConfigurationError("root system is not irreducible"))

    @cached_property
    def highest_short_root(self):
        """The maximal short root, or None for simply-laced systems."""
        lengths = {self.inner(a, a) for a in self.positive_roots}
        if len(lengths) == 1:
            return None
        short = [a for a in self.positive_roots if self.inner(a, a) == min(lengths)]
        return _highest(short, ConfigurationError("no unique highest short root"))

    def highest_root_of_support(self, s: Iterable) -> Root:
        """Highest root of the sub-root-system generated by the subset s of Delta.

        Requires s to be connected in the Dynkin diagram.
        """
        s = frozenset(s)
        key = ("subhigh", s)
        if key not in self.memo:
            inside = [a for a in self.positive_roots if self.support(a) <= s]
            self.memo[key] = _highest(inside, DomainError(f"support {sorted(s)} is not connected"))
        return self.memo[key]

    # -- Dynkin graph helpers -------------------------------------------------

    def components(self, s: Iterable) -> tuple:
        """Connected components of a subset of Delta, each sorted, in index order."""
        left = set(s)
        comps = []
        while left:
            seed = min(left)
            comp = {seed}
            frontier = [seed]
            while frontier:
                i = frontier.pop()
                for j in self.adjacency[i] & left:
                    if j not in comp:
                        comp.add(j)
                        frontier.append(j)
            left -= comp
            comps.append(tuple(sorted(comp)))
        return tuple(sorted(comps))

    def is_connected(self, s: Iterable) -> bool:
        s = set(s)
        return len(s) <= 1 or len(self.components(s)) == 1


def coeffs_leq(a, b) -> bool:
    """a <= b coefficientwise, on raw coefficient tuples of equal length."""
    return all(x <= y for x, y in zip(a, b))


def pareto(items, key=None, maximal=False) -> list:
    """The distinct items whose key(item) is minimal under coeffs_leq, lex-ascending.

    With maximal=True, the maximal ones, lex-descending; key defaults to the
    item, a coefficient tuple.  One sweep in lex order, a linear extension of
    <=: an item can be dominated only by items before it, and by a dropped
    one only through a kept one.  The chain search needs no sweep: its
    fronts, packed ints, are antichains as it builds them.
    """
    order = ge if maximal else le
    kept: list = []
    keys: list = []
    for item in sorted(set(items), key=key, reverse=maximal):
        k = item if key is None else key(item)
        for c in keys:
            if all(map(order, c, k)):
                break
        else:
            kept.append(item)
            keys.append(k)
    return kept


def memoised(name: str):
    """Memoise f(owner, parabolic, *args) in owner.memo under (name, Delta_P, *args).

    The owner is a RootSystem or a WeylGroup.  A parabolic of another rank
    raises DomainError (``Parabolic.check_rank``) before the read, and only a
    value that f returned is stored: a build that raises stores nothing.

    Stores left hand-written: WeylGroup's element-keyed kernel dicts
    (``_word``, ``_bruhat``, ``_inverse``, ``_longest``, ``_reflection``),
    keyed without a parabolic on the kernel's hottest paths;
    ``WeylGroup._enumerated``'s pair of entries (read by ``numbered_cosets``),
    which one BFS stores under a key without the cap; and the subset-keyed
    lookups ``cascade``, ``highest_root_of_support``, ``subsystem`` and
    ``reflection_word``, in the same ``RootSystem.memo``.  ``RootSystem.coroots``,
    keyed by no parabolic, is a cached property, as ``gram`` is.
    """

    missing = object()

    def decorate(build):
        @wraps(build)
        def cached(owner, parabolic, *args):
            if parabolic.rank != owner.rank:
                parabolic.check_rank(owner.rank)
            key = (name, parabolic.delta_p) + args
            value = owner.memo.get(key, missing)
            if value is missing:
                value = owner.memo[key] = build(owner, parabolic, *args)
            return value

        return cached

    return decorate


def _highest(items, error: Exception):
    """The unique maximal item under coeffs_leq; raises error unless there is one."""
    kept = pareto(items, maximal=True)
    if len(kept) != 1:
        raise error
    return kept[0]


def _generate_positive_roots(cartan: tuple) -> tuple:
    """The positive roots, by height and then lex, walked up from the simple roots.

    A step s_j raises a root a with p = <a, alpha_j^vee> < 0 to a - p alpha_j.
    Each root keeps its pairings with the simple coroots (row j of the Cartan
    matrix for alpha_j); the step changes them at j (p -> -p) and at the
    Dynkin neighbours k of j (p_k -= p a_jk) alone, as in ``reflection_word``.
    """
    rank = len(cartan)
    neighbours = [
        [(k, cartan[j][k]) for k in range(rank) if k != j and cartan[j][k] != 0]
        for j in range(rank)
    ]
    frontier = [
        (tuple(1 if i == j else 0 for i in range(rank)), list(cartan[j])) for j in range(rank)
    ]
    seen = {root for root, _ in frontier}
    while frontier:
        fresh = []
        for a, pairing in frontier:
            for j, p in enumerate(pairing):
                if p >= 0:
                    continue  # reflection can only move up when the pairing is negative
                b = list(a)
                b[j] -= p
                b = tuple(b)
                if b not in seen:
                    seen.add(b)
                    moved = pairing.copy()
                    moved[j] = -p
                    for k, a_jk in neighbours[j]:
                        moved[k] -= p * a_jk
                    fresh.append((b, moved))
        frontier = fresh
    return tuple(sorted(seen, key=lambda r: (sum(r), r)))


def check_type(type_letter: str, rank: int) -> str:
    """The upper-case type letter of an admissible (type, rank); builds nothing."""
    letter = str(type_letter).upper()
    if letter not in ADMISSIBLE or not isinstance(rank, int):
        raise ConfigurationError(f"unknown type {type_letter!r}")
    if not ADMISSIBLE[letter](rank):
        raise ConfigurationError(f"inadmissible rank {rank} for type {letter}")
    return letter


def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct the irreducible root system of the given type and rank.

    D_3 is admitted and yields a system isomorphic to A_3 with the D-series
    labeling of its simple roots.
    """
    letter = check_type(type_letter, rank)
    cartan = _cartan_matrix(letter, rank)
    positive = _generate_positive_roots(cartan)
    expected = POSITIVE_ROOT_COUNT[letter](rank)
    if len(positive) != expected:
        raise ConfigurationError(
            f"{letter}{rank}: generated {len(positive)} positive roots, expected {expected}"
        )
    simple = tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank))
    system = RootSystem(letter, rank, cartan, _symmetrizer(cartan), simple, positive)
    system.highest_root  # force the irreducibility invariant
    return system


# -- sub-root-systems ---------------------------------------------------------


@dataclass(frozen=True)
class SubsystemComponent:
    """One irreducible component of R(S), with its embedding into the ambient R."""

    system: RootSystem
    nodes: tuple  # ambient index of each local simple root

    def to_local_root(self, ambient):
        out = [0] * len(self.nodes)
        position = {n: i for i, n in enumerate(self.nodes)}
        for j, c in enumerate(ambient):
            if c:
                if j not in position:
                    raise DomainError("root not supported on the component")
                out[position[j]] = c
        return tuple(out)


def _match_ordering(sub_cartan, nodes, target) -> tuple | None:
    """Backtracking search for an ordering of nodes realizing the target Cartan."""
    n = len(nodes)
    chosen: list[int] = []
    used = [False] * n

    def entry(x, y):
        return sub_cartan[(x, y)] if x != y else 2

    def extend(i):
        if i == n:
            return True
        for k in range(n):
            if used[k]:
                continue
            ok = all(
                entry(nodes[k], chosen[j]) == target[i][j]
                and entry(chosen[j], nodes[k]) == target[j][i]
                for j in range(i)
            )
            if ok and target[i][i] == 2:
                chosen.append(nodes[k])
                used[k] = True
                if extend(i + 1):
                    return True
                chosen.pop()
                used[k] = False
        return False

    return tuple(chosen) if extend(0) else None


def subsystem(system: RootSystem, s: Iterable) -> list[SubsystemComponent]:
    """The sub-root-systems generated by a subset of Delta, one per component.

    Each component is classified, built standalone, and returned with the map
    from its simple roots back to ambient indices.  Empty s gives [].
    """
    s = frozenset(s)
    if not s <= set(range(system.rank)):
        raise DomainError(f"{sorted(s)} is not a subset of Delta")
    key = ("subsystem", s)
    if key in system.memo:
        return system.memo[key]
    out = []
    for comp in system.components(s):
        n = len(comp)
        sub_cartan = {
            (i, j): system.cartan[i][j] for i in comp for j in comp if i != j
        }
        found = None
        for letter in "ABCDEFG":
            if not ADMISSIBLE[letter](n):
                continue
            target = _cartan_matrix(letter, n)
            ordering = _match_ordering(sub_cartan, comp, target)
            if ordering is not None:
                found = (letter, ordering)
                break
        if found is None:
            raise ConfigurationError(f"component {comp} matches no finite type")
        letter, ordering = found
        local = build_root_system(letter, n)
        for i in range(n):
            for j in range(n):
                ci, cj = ordering[i], ordering[j]
                ambient = system.cartan[ci][cj] if ci != cj else 2
                if ambient != local.cartan[i][j]:
                    raise ConfigurationError("subsystem embedding mismatch")
        out.append(SubsystemComponent(local, ordering))
    system.memo[key] = out
    return out
