"""Kostant's cascade of orthogonal roots, chain cascades, and the d_X formulas.

The cascade of a connected subset S of Delta is computed inside the ambient
system: the sub-root-system generated by S consists exactly of the ambient
roots supported on S, so no standalone subsystem construction is needed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .degreelattice import Degree, restrict
from .errors import DomainError, InvariantViolationError
from .rootsystem import RootSystem, coeffs_leq, memoised
from .weylgroup import Parabolic, Weyl, WeylGroup


@dataclass(frozen=True)
class Cascade:
    """The set B_R(S) together with the recursion tree that produced it."""

    roots: tuple
    parent: dict  # member -> member one level up; top roots map to None


@dataclass(frozen=True)
class ChainCascade:
    anchor: tuple
    members: tuple  # descending


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def delta_circ(system: RootSystem, s: Iterable | None = None) -> frozenset:
    """Simple roots of S orthogonal to the highest root of R(S).

    With s omitted this is Delta^circ of the full system; empty exactly for
    types A_1 and A_2.
    """
    s = frozenset(range(system.rank)) if s is None else frozenset(s)
    theta = system.highest_root_of_support(s)
    return frozenset(b for b in s if system.inner(system.simple_roots[b], theta) == 0)


def cascade(system: RootSystem, s: Iterable | None = None) -> Cascade:
    """B_{R(S)}, recursively over the connected components of Delta(S)^circ."""
    s = frozenset(range(system.rank)) if s is None else frozenset(s)
    key = ("cascade", s)
    if key in system.memo:
        return system.memo[key]
    if not s:
        result = Cascade((), {})
    else:
        if not system.is_connected(s):
            raise DomainError("cascade requires a connected support set")
        theta = system.highest_root_of_support(s)
        roots = [theta]
        parent = {theta: None}
        for comp in system.components(delta_circ(system, s)):
            sub = cascade(system, comp)
            roots.extend(sub.roots)
            for member in sub.roots:
                parent[member] = sub.parent[member] if sub.parent[member] is not None else theta
        result = Cascade(tuple(roots), parent)
    system.memo[key] = result
    return result


def chain_cascade(system: RootSystem, phi) -> ChainCascade:
    """C_R(phi) = {alpha in B_R : alpha >= phi}, totally ordered descending."""
    phi = system.check_root(phi)
    members = [a for a in cascade(system).roots if coeffs_leq(phi, a)]
    members.sort(key=sum, reverse=True)
    for a, b in zip(members, members[1:]):
        if not coeffs_leq(b, a):
            raise InvariantViolationError("chain cascade is not totally ordered")
    return ChainCascade(phi, tuple(members))


def is_locally_high(system: RootSystem, alpha) -> bool:
    """alpha is the highest root of the subsystem generated by its support."""
    alpha = system.check_root(alpha)
    return alpha == system.highest_root_of_support(system.support(alpha))


def is_strongly_orthogonal(system: RootSystem, alpha, beta) -> bool:
    """alpha +- beta not in R u {0}."""
    total = vec_add(alpha, beta)
    diff = tuple(x - y for x, y in zip(alpha, beta))
    out = (
        any(total)
        and not system.is_root(total)
        and any(diff)
        and not system.is_root(diff)
    )
    # equivalence with ((alpha, beta) = 0 and alpha + beta not a root)
    alt = system.inner(alpha, beta) == 0 and any(total) and not system.is_root(total)
    if out != alt:
        raise InvariantViolationError("strong-orthogonality characterizations disagree")
    return out


def w_o_of(system: RootSystem, group: WeylGroup, phi) -> Weyl:
    """Product of the reflections along B_{R(phi)}; equals the longest element."""
    phi = system.check_root(phi)
    members = cascade(system, system.support(phi)).roots
    out = group.product(group.reflection(a) for a in members)
    if out != group.longest_element(system.support(phi)):
        raise InvariantViolationError(
            "cascade reflection product differs from the longest element"
        )
    return out


def d_gpbeta(system: RootSystem, beta: int) -> int:
    """d_{G/P_beta} = sum over the chain cascade of beta of (omega_beta, alpha^vee)."""
    if not 0 <= beta < system.rank:
        raise DomainError(f"no simple root with index {beta}")
    chain = chain_cascade(system, system.simple_roots[beta])
    return sum(system.coroot(a)[beta] for a in chain.members)


def coroot_sum(system: RootSystem, s: Iterable | None = None) -> tuple:
    """d_{G(S)/B(S)} = sum of coroots over the cascade, as an ambient coroot vector."""
    total = (0,) * system.rank
    for a in cascade(system, s).roots:
        total = vec_add(total, system.coroot(a))
    return total


@memoised("d_x")
def d_x(system: RootSystem, parabolic: Parabolic) -> Degree:
    """The unique minimal degree in pt * pt on G/P, by both closed formulas.

    Both formulas read coordinate beta off something of beta alone (d_{G/B}
    and d_{G/P_beta}), so they are compared once per system, at the Borel over
    every coordinate, and every other P restricts that Degree.  Each is kept
    in ``system.memo`` through ``memoised`` under ("d_x", Delta_P).
    """
    if parabolic.delta_p:
        return restrict(d_x(system, Parabolic(system.rank, frozenset())), parabolic)
    by_cascade = coroot_sum(system)
    by_quotients = tuple(d_gpbeta(system, b) for b in parabolic.free)
    if by_cascade != by_quotients:
        raise InvariantViolationError(f"d_X formulas disagree: {by_cascade} vs {by_quotients}")
    return Degree(parabolic, by_cascade)


def boundary_roots(system: RootSystem, s: Iterable) -> frozenset:
    """Simple roots beta of S with S \\ {beta} connected (empty set allowed)."""
    s = frozenset(s)
    return frozenset(b for b in s if system.is_connected(s - {b}))


def alpha_beta_phi(system: RootSystem, phi, beta: int):
    """The half-support interval root attached to a type-A component and a boundary root.

    For R(phi) of type A_n and beta a boundary root of Delta(phi), this is the
    unique positive root whose support is the interval of ceil(n/2) nodes
    starting at beta.
    """
    phi = system.check_root(phi)
    s = system.support(phi)
    n = len(s)
    # type A inside the ambient system: a simply-laced path
    path = all(len(system.adjacency[i] & s) <= 2 for i in s) and system.is_connected(s)
    laced = all(
        system.cartan[i][j] * system.cartan[j][i] <= 1 for i in s for j in s if i != j
    )
    if not (path and laced):
        raise DomainError("component is not of type A")
    if beta not in boundary_roots(system, s):
        raise DomainError(f"alpha_{beta + 1} is not a boundary root of the component")
    interval = [beta]
    while len(interval) < math.ceil(n / 2):
        nxt = sorted(system.adjacency[interval[-1]] & s - set(interval))
        interval.append(nxt[0])
    out = [0] * system.rank
    for i in interval:
        out[i] = 1
    return system.check_root(tuple(out))
