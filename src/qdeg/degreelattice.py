"""The degree lattice H_2(G/P): d(alpha), c_1, greedy decompositions, supports.

A degree is a nonnegative integer vector over Delta \\ Delta_P, the image of
the coroot lattice modulo Z Delta_P^vee.  The partial order is coefficientwise
(``coeffs_leq``, the same order as on roots).  Lex order is a linear extension
of it, so ``maximal_roots`` and ``minimal_elements`` are each one sorted sweep
(``rootsystem.pareto``).

d(alpha) is read from a table built once per (system, parabolic), on first
use, and kept in ``system.memo`` through ``memoised`` under ("degrees",
Delta_P): the raw d(alpha) tuple of every positive root (its coroot
projected onto the free coordinates), the roots with nonzero d(alpha), which
are the roots outside R_P, in lex-descending order beside them, and top, the
coefficientwise maximum of the d(alpha).  A frozen Degree is made the first
time ``d_of_root`` asks for a root's, and memoised in the table.
``maximal_roots`` costs one sweep over the list per distinct clamped degree
min(d, top), memoised under ("maximal-roots", Delta_P, min(d, top)).

``greedy_decomposition`` is one first-fit walk down the list, and keeps no
memo entries; ``curveneighborhood.hecke_box`` finds each box point's alpha_1
by the same first fit.  The ``maximal_roots`` sweep is their independent
partner: the walk checks its alpha_1 against it, and the fold is checked
against ``z``, which walks, at d_X.  A walk takes at most sum(d) roots, so a
degree with sum(d) over GREEDY_CAP is refused before it starts, as
``box_points`` refuses a box of more than ENUMERATION_CAP points before it
yields a single point.  ``degree_box`` is the same box as Degrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter, le, sub
from typing import Iterable

from .errors import DomainError, InvariantViolationError, ResourceError
from .rootsystem import RootSystem, coeffs_leq, memoised, pareto
from .weylgroup import ENUMERATION_CAP, Parabolic

#: the largest sum(d) a greedy walk takes: it bounds the walk's length and its output
GREEDY_CAP = 10**4


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


@memoised("degrees")
def _degree_table(system: RootSystem, parabolic: Parabolic) -> tuple:
    """({alpha: d(alpha) coefficients} over R^+, ((alpha, d(alpha)) with d(alpha) != 0,
    lex-descending), {alpha: Degree} filled by d_of_root, top)."""
    free = parabolic.free
    project = itemgetter(*free) if len(free) > 1 else lambda cov: tuple([cov[i] for i in free])
    raw = {a: project(system.coroot(a)) for a in system.positive_roots}
    # c_i > 0 iff the coroot's i-th coefficient is: the roots outside R_P
    outside = sorted(((a, d) for a, d in raw.items() if any(d)), reverse=True)
    top = max(raw.values())  # coefficientwise maximal too: see maximal_roots
    return raw, tuple(outside), {}, top


def d_of_root(system: RootSystem, parabolic: Parabolic, alpha) -> Degree:
    """d(alpha): the image of alpha^vee in H_2(G/P); zero iff alpha in R_P^+."""
    raw, _, degrees, _ = _degree_table(system, parabolic)
    alpha = tuple(alpha)
    degree = degrees.get(alpha)
    if degree is None:
        coeffs = raw.get(alpha)
        if coeffs is None:
            raise DomainError(f"{alpha} is not a positive root")
        degree = degrees[alpha] = Degree(parabolic, coeffs)
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

    One sweep (``pareto``) over the roots with d(alpha) <= d.  As
    d(alpha) <= top for all alpha, d(alpha) <= d iff d(alpha) <= min(d, top),
    the key of its memo.  top is the lex-largest d(alpha): the coroots form
    the irreducible root system R^vee on the simple coroots, whose highest
    root lies above every coroot coefficientwise.
    """
    if d.parabolic != parabolic:
        raise DomainError("degrees over different parabolics")
    top = _degree_table(system, parabolic)[3]
    return _maximal_roots(system, parabolic, tuple(map(min, d.coeffs, top)))


@memoised("maximal-roots")
def _maximal_roots(system: RootSystem, parabolic: Parabolic, bound: tuple) -> tuple:
    outside = _degree_table(system, parabolic)[1]
    return tuple(reversed(pareto((a for a, d in outside if all(map(le, d, bound))), maximal=True)))


def greedy_decomposition(system: RootSystem, parabolic: Parabolic, d: Degree) -> tuple:
    """Greedy decomposition of d; ties broken by the lex-largest coefficient vector.

    The multiset of entries is independent of the tie-break (checked in the
    property suites), so the choice only pins a deterministic representative:
    alpha_1, the lex-largest root of S(d) = {alpha outside R_P : d(alpha) <= d},
    is maximal in S(d).  The tail is the greedy decomposition of d - d(alpha_1),
    which lies below d, so the roots come lex-non-increasing, and a root that
    fails a remainder fails every later, smaller one.  The walk is one pass
    down the lex-descending roots outside R_P, taking each while its d(alpha)
    fits (a taken root's read through ``d_of_root``); a nonzero remainder fits
    some d(alpha_j) = e_j.  alpha_1 is checked against the ``maximal_roots`` sweep.
    """
    if d.parabolic != parabolic:
        raise DomainError("degrees over different parabolics")
    if sum(d.coeffs) > GREEDY_CAP:
        raise ResourceError(f"greedy walk of {d.coeffs} exceeded the cap of {GREEDY_CAP} steps")
    out, rest = [], d.coeffs
    for alpha, d_alpha in _degree_table(system, parabolic)[1]:
        if not any(rest):
            break
        while all(map(le, d_alpha, rest)):
            out.append(alpha)
            rest = tuple(map(sub, rest, d_of_root(system, parabolic, alpha).coeffs))
    if out and out[0] != max(maximal_roots(system, parabolic, d)):
        raise InvariantViolationError(f"first fit and the maximal_roots sweep disagree at {d.coeffs}")
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
    given.
    """
    return tuple(pareto(degrees, key=_coeffs))


def _coeffs(d) -> tuple:
    return d if isinstance(d, tuple) else d.coeffs


def box_points(corner_coeffs: tuple, pad: int = 0):
    """The coefficient tuples d <= corner + pad (componentwise), in lexicographic order.

    A box of more than ENUMERATION_CAP points raises ResourceError at once.
    """
    ranges = [range(c + pad + 1) for c in corner_coeffs]
    size = math.prod(map(len, ranges))
    if size > ENUMERATION_CAP:
        raise ResourceError(f"scan box of {size} degrees exceeded the cap of {ENUMERATION_CAP}")
    return itertools.product(*ranges)


def degree_box(parabolic: Parabolic, corner: Degree, pad: int = 0):
    """The degrees of ``box_points(corner.coeffs, pad)``, in the same order."""
    return (Degree(parabolic, coeffs) for coeffs in box_points(corner.coeffs, pad))
