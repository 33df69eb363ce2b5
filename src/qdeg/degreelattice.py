"""The degree lattice H_2(G/P): d(alpha), c_1, greedy decompositions, supports.

A degree is a nonnegative integer vector over Delta \\ Delta_P, the image of
the coroot lattice modulo Z Delta_P^vee.  The partial order is coefficientwise
(``coeffs_leq``, the same order as on roots).  Lex order is a linear extension
of it, so ``maximal_roots`` and ``minimal_elements`` are each one sorted sweep.

d(alpha) is read from a table built once per (system, parabolic), on first
use, and kept in ``system.cache`` under the key ("degrees", Delta_P): one
frozen Degree per positive root, each coroot computed once, and the roots
outside R_P in lex-descending order beside their raw d(alpha) tuples.
``maximal_roots`` is one sweep over that list, and compares coefficient
tuples without computing a coroot.

A greedy step d -> (alpha_1, d - d(alpha_1)), alpha_1 the lex-largest
maximal root of d, is memoised in ``system.cache`` under ("greedy", Delta_P,
coefficients).  ``greedy_decomposition`` walks d down to 0 over these steps in
a loop, so each distinct degree costs one ``maximal_roots`` sweep, however
many decompositions pass through it.  ``degree_box`` refuses a box of more
than ENUMERATION_CAP points before it makes a single degree.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .errors import DomainError, ResourceError
from .rootsystem import RootSystem, coeffs_leq
from .weylgroup import ENUMERATION_CAP, Parabolic


@dataclass(frozen=True)
class Degree:
    """An effective class in H_2(G/P), coefficients indexed by parabolic.free."""

    parabolic: Parabolic
    coeffs: tuple

    def __post_init__(self):
        if len(self.coeffs) != len(self.parabolic.free):
            raise DomainError("degree coefficients do not match the parabolic")
        if any(c < 0 for c in self.coeffs):
            raise DomainError("degrees are effective: coefficients must be >= 0")

    @classmethod
    def zero(cls, parabolic: Parabolic) -> "Degree":
        return cls(parabolic, (0,) * len(parabolic.free))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "Degree"):
        if self.parabolic != other.parabolic:
            raise DomainError("degrees over different parabolics")

    def leq(self, other: "Degree") -> bool:
        self._check(other)
        return coeffs_leq(self.coeffs, other.coeffs)

    def __add__(self, other: "Degree") -> "Degree":
        self._check(other)
        return Degree(self.parabolic, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "Degree") -> "Degree":
        self._check(other)
        return Degree(self.parabolic, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def coeff_at(self, beta: int) -> int:
        """(omega_beta, d) for a free simple root beta (ambient index)."""
        try:
            return self.coeffs[self.parabolic.free.index(beta)]
        except ValueError:
            raise DomainError(f"alpha_{beta + 1} lies in Delta_P") from None


@dataclass(frozen=True)
class ChernVector:
    """c_1(X) on the fundamental-weight basis omega_beta, beta outside Delta_P."""

    parabolic: Parabolic
    coeffs: tuple

    def pair(self, d: Degree) -> int:
        if d.parabolic != self.parabolic:
            raise DomainError("degree over a different parabolic")
        return sum(a * b for a, b in zip(self.coeffs, d.coeffs))


def in_r_p(system: RootSystem, parabolic: Parabolic, alpha) -> bool:
    return system.support(alpha) <= parabolic.delta_p


def outside_roots(system: RootSystem, parabolic: Parabolic) -> tuple:
    """R^+ \\ R_P^+, in the order of system.positive_roots."""
    return tuple(a for a in system.positive_roots if not in_r_p(system, parabolic, a))


def _degree_table(system: RootSystem, parabolic: Parabolic) -> tuple:
    """({alpha: d(alpha)} over R^+, ((alpha, d(alpha).coeffs) outside R_P, lex-descending))."""
    parabolic.check_rank(system.rank)
    key = ("degrees", parabolic.delta_p)
    table = system.cache.get(key)
    if table is None:
        free = parabolic.free
        degrees = {}
        for alpha in system.positive_roots:
            cov = system.coroot(alpha)
            degrees[alpha] = Degree(parabolic, tuple(cov[i] for i in free))
        outside = sorted(
            ((a, degrees[a].coeffs) for a in outside_roots(system, parabolic)), reverse=True
        )
        table = system.cache[key] = (degrees, tuple(outside))
    return table


def d_of_root(system: RootSystem, parabolic: Parabolic, alpha) -> Degree:
    """d(alpha): the image of alpha^vee in H_2(G/P); zero iff alpha in R_P^+."""
    degree = _degree_table(system, parabolic)[0].get(tuple(alpha))
    if degree is None:
        raise DomainError(f"{alpha} is not a positive root")
    return degree


def c1(system: RootSystem, parabolic: Parabolic) -> ChernVector:
    """c_1(X) = sum of the roots outside R_P, on the fundamental weights."""
    total = [0] * system.rank
    for alpha in outside_roots(system, parabolic):
        for i, c in enumerate(alpha):
            total[i] += c
    weight = tuple(total)
    for j in parabolic.delta_p:
        if system.pair_simple_coroot(weight, j) != 0:
            raise DomainError("c_1 pairs nontrivially inside Delta_P")
    return ChernVector(
        parabolic,
        tuple(system.pair_simple_coroot(weight, j) for j in parabolic.free),
    )


def maximal_roots(system: RootSystem, parabolic: Parabolic, d: Degree) -> tuple:
    """Maximal elements of {alpha in R^+ \\ R_P^+ : d(alpha) <= d}, sorted.

    One sweep in lex-descending order: a root can lie below only lex-larger
    roots, and below a dropped one only through a kept one above it.
    """
    if d.parabolic != parabolic:
        raise DomainError("degrees over different parabolics")
    bound = d.coeffs
    kept: list = []
    for alpha, d_alpha in _degree_table(system, parabolic)[1]:
        if coeffs_leq(d_alpha, bound) and not any(coeffs_leq(alpha, b) for b in kept):
            kept.append(alpha)
    return tuple(reversed(kept))


def _greedy_step(system: RootSystem, parabolic: Parabolic, coeffs: tuple) -> tuple:
    """(alpha_1, coefficients of d - d(alpha_1)) for a nonzero d, memoised."""
    key = ("greedy", parabolic.delta_p, coeffs)
    step = system.cache.get(key)
    if step is None:
        alpha = max(maximal_roots(system, parabolic, Degree(parabolic, coeffs)))
        d_alpha = _degree_table(system, parabolic)[0][alpha].coeffs
        step = system.cache[key] = (alpha, tuple(a - b for a, b in zip(coeffs, d_alpha)))
    return step


def greedy_decomposition(system: RootSystem, parabolic: Parabolic, d: Degree) -> tuple:
    """Greedy decomposition of d; ties broken by the lex-largest coefficient vector.

    The multiset of entries is independent of the tie-break (checked in the
    property suites), so the choice only pins a deterministic representative.
    The tail after alpha_1 is the greedy decomposition of d - d(alpha_1).
    """
    if d.parabolic != parabolic:
        raise DomainError("degrees over different parabolics")
    out = []
    coeffs = d.coeffs
    while any(coeffs):
        alpha, coeffs = _greedy_step(system, parabolic, coeffs)
        out.append(alpha)
    return tuple(out)


def all_greedy_decompositions(system: RootSystem, parabolic: Parabolic, d: Degree):
    """Every greedy decomposition of d, over all tie-break choices (test oracle)."""
    if d.is_zero():
        yield ()
        return
    for alpha in maximal_roots(system, parabolic, d):
        for tail in all_greedy_decompositions(
            system, parabolic, d - d_of_root(system, parabolic, alpha)
        ):
            yield (alpha,) + tail


def naive_support(parabolic: Parabolic, d: Degree) -> frozenset:
    """Delta(d) = {beta outside Delta_P : (omega_beta, d) > 0}."""
    return frozenset(b for b, c in zip(parabolic.free, d.coeffs) if c > 0)


def extended_support(system: RootSystem, parabolic: Parabolic, d: Degree) -> frozenset:
    """Union of the supports of the greedy entries of d."""
    out: frozenset = frozenset()
    for alpha in greedy_decomposition(system, parabolic, d):
        out |= system.support(alpha)
    return out


def is_connected_degree(system: RootSystem, parabolic: Parabolic, d: Degree) -> bool:
    return system.is_connected(extended_support(system, parabolic, d))


def alpha_of_connected(system: RootSystem, parabolic: Parabolic, d: Degree):
    """The first greedy entry of a connected degree, independent of tie-breaks."""
    if d.is_zero() or not is_connected_degree(system, parabolic, d):
        raise DomainError("degree is not a nonzero connected degree")
    return greedy_decomposition(system, parabolic, d)[0]


def restrict(d: Degree, q: Parabolic) -> Degree:
    """d_Q: drop the coordinates of Delta_Q \\ Delta_P.  Requires P <= Q."""
    p = d.parabolic
    if not q.contains(p):
        raise DomainError("restriction requires nested parabolics P <= Q")
    return Degree(q, tuple(d.coeff_at(b) for b in q.free))


def induce(system: RootSystem, e: Degree, p: Parabolic) -> Degree:
    """e^P = sum of d(alpha_i) over a greedy decomposition of e.  Requires P <= Q."""
    q = e.parabolic
    if not q.contains(p):
        raise DomainError("induction requires nested parabolics P <= Q")
    out = Degree.zero(p)
    for alpha in greedy_decomposition(system, q, e):
        out = out + d_of_root(system, p, alpha)
    return out


def minimal_elements(degrees: Iterable) -> tuple:
    """The Pareto-minimal antichain of a finite set of degrees, in lex order.

    The degrees are Degrees or raw coefficient tuples, and are returned as
    given.  One sweep in lex-ascending order, a linear extension of <=: a
    candidate can only ever be dominated by an already-kept element.
    """
    kept: list = []
    for d in sorted(set(degrees), key=_coeffs):
        if not any(_leq(k, d) for k in kept):
            kept.append(d)
    return tuple(kept)


def _coeffs(d) -> tuple:
    return d if isinstance(d, tuple) else d.coeffs


def _leq(a, b) -> bool:
    return coeffs_leq(a, b) if isinstance(a, tuple) else a.leq(b)


def degree_box(parabolic: Parabolic, corner: Degree, pad: int = 0):
    """All degrees d <= corner + pad (componentwise), in lexicographic order.

    A box of more than ENUMERATION_CAP points raises ResourceError at once.
    """
    ranges = [range(c + pad + 1) for c in corner.coeffs]
    size = math.prod(map(len, ranges))
    if size > ENUMERATION_CAP:
        raise ResourceError(f"scan box of {size} degrees exceeded the cap of {ENUMERATION_CAP}")
    return (Degree(parabolic, coeffs) for coeffs in itertools.product(*ranges))
