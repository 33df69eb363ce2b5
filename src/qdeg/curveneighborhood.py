"""The element z_d^P, curve-neighborhood coset arithmetic, and cosmall roots.

z_d^P w_P is the Hecke product of the reflections along any greedy
decomposition of d, times w_P; the result is independent of the decomposition.
Everything here is observably pure.

``z`` reads z_d^P w_P off its inverse Y(d) = w_P . s_alpha_k . ... . s_alpha_1,
which the Demazure product gives because it is associative and
(u . v)^-1 = v^-1 . u^-1.  As alpha_2, ..., alpha_k is the greedy
decomposition of d - d(alpha_1), Y(0) = w_P and
Y(d) = Y(d - d(alpha_1)) . s_alpha_1: one Hecke step per degree, along the word
of one reflection.  Y is memoised per (parabolic, degree) in ``group.memo``
and folded, in a loop, up from the longest greedy tail already there.  Only
the degree asked for pays for the inverse and ``coset_min``; its result is
memoised per (parabolic, degree) as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .cascade import coroot_sum as _coroot_sum, d_x as _d_x
from .degreelattice import (
    Degree,
    d_of_root,
    degree_box,
    greedy_decomposition,
    in_r_p,
    induce,
    maximal_roots,
    c1,
)
from .errors import DomainError, InvariantViolationError, VerificationError
from .weylgroup import CosetRep, Parabolic, Weyl, WeylGroup


@dataclass(frozen=True)
class CurveNbhdResult:
    degree: Degree
    z_min: Weyl  # element of W^P
    z_max: Weyl  # = z_min . w_P, the maximal representative


def z(group: WeylGroup, parabolic: Parabolic, d: Degree) -> CurveNbhdResult:
    """z_d^P, as its minimal and maximal coset representatives."""
    if d.parabolic != parabolic:
        raise DomainError("degree over a different parabolic")
    key = ("z", parabolic.delta_p, d.coeffs)
    result = group.memo.get(key)
    if result is None:
        z_max = group.inverse(_inverse_chain(group, parabolic, d))
        result = group.memo[key] = CurveNbhdResult(d, group.coset_min(z_max, parabolic), z_max)
    return result


def _inverse_chain(group: WeylGroup, parabolic: Parabolic, d: Degree) -> Weyl:
    """Y(d) = (z_d^P w_P)^-1, and Y of every greedy tail of d not yet memoised."""
    system = group.system
    memo = group.memo
    pending = []  # (key of Y(e), alpha_1(e)) for the tails e of d above the first memoised one
    coeffs = d.coeffs
    for alpha in greedy_decomposition(system, parabolic, d):
        key = ("z^-1", parabolic.delta_p, coeffs)
        y = memo.get(key)
        if y is not None:
            break
        pending.append((key, alpha))
        coeffs = tuple(a - b for a, b in zip(coeffs, d_of_root(system, parabolic, alpha).coeffs))
    else:
        y = group.longest_element(parabolic)
    for key, alpha in reversed(pending):
        y = memo[key] = group.hecke_product(y, group.reflection(alpha))
    return y


def curve_neighborhood(
    group: WeylGroup, parabolic: Parabolic, w: Weyl, d: Degree
) -> CosetRep:
    """Gamma_d(X_w) = X_{w . z_d^P}, as a coset of W/W_P."""
    zd = z(group, parabolic, d)
    m = group.coset_min(group.hecke_product(group.coset_min(w, parabolic), zd.z_min), parabolic)
    return CosetRep(m, parabolic, "minimal")


def is_cosmall(group: WeylGroup, parabolic: Parabolic, alpha) -> bool:
    """alpha is a maximal root of d(alpha).

    Also evaluates the length characterization l(s_alpha W_P) = (c_1, d(alpha)) - 1
    and insists both answers agree.
    """
    system = group.system
    alpha = system.check_root(alpha)
    if not system.is_positive_root(alpha) or in_r_p(system, parabolic, alpha):
        raise DomainError("cosmallness is defined for roots outside R_P^+")
    d = d_of_root(system, parabolic, alpha)
    by_definition = alpha in maximal_roots(system, parabolic, d)
    length = group.length(group.coset_min(group.reflection(alpha), parabolic))
    by_length = length == c1(system, parabolic).pair(d) - 1
    if by_definition != by_length:
        raise InvariantViolationError(
            f"cosmall characterizations disagree for {alpha}"
        )
    return by_definition


def is_very_cosmall(group: WeylGroup, parabolic: Parabolic, alpha) -> bool:
    """alpha is a maximal root of its degree after projection to every P_beta."""
    system = group.system
    alpha = system.check_root(alpha)
    if not system.is_positive_root(alpha):
        return False
    for beta in parabolic.free:
        p_beta = parabolic.maximal_above(beta)
        if in_r_p(system, p_beta, alpha):
            return False
        if not is_cosmall(group, p_beta, alpha):
            return False
    return True


def _lift_box(group: WeylGroup, parabolic: Parabolic, pad: int):
    """Componentwise caps (d_{G/B})_beta + pad over the Delta_P coordinates."""
    dgb = _coroot_sum(group.system)
    return {b: dgb[b] + pad for b in sorted(parabolic.delta_p)}


def z_lift_check(group: WeylGroup, parabolic: Parabolic, d: Degree, pad: int = 3) -> bool:
    """Scan for sufficiently large e over B with e_P = d and z_e^B = z_d^P w_P.

    A witness e must have every e' >= e inside the scan box agreeing as well;
    exhausting the box without such a witness is a verification failure.
    """
    system = group.system
    b = Parabolic(system.rank, frozenset())
    target = z(group, parabolic, d).z_max
    base = induce(system, d, b)
    caps = _lift_box(group, parabolic, pad)
    members = sorted(parabolic.delta_p)
    grid = []
    for extra in itertools.product(*(range(caps[m] + 1) for m in members)):
        coeffs = list(base.coeffs)
        for m, n in zip(members, extra):
            coeffs[m] += n
        grid.append((extra, Degree(b, tuple(coeffs))))
    hits = {extra for extra, e in grid if z(group, b, e).z_min == target}
    for witness in sorted(hits):
        above = [
            extra
            for extra, _ in grid
            if all(x >= y for x, y in zip(extra, witness))
        ]
        if all(extra in hits for extra in above):
            return True
    raise VerificationError(
        f"no stable witness for z_d^P w_P = z_e^B within pad {pad} of {d.coeffs}"
    )


def equalwx_criterion(group: WeylGroup, parabolic: Parabolic, d: Degree, pad: int = 3) -> bool:
    """Stationarity in every free direction forces z_d^P = w_X.

    True iff for each free beta some d' >= d + d(beta) in the scan box has
    z_{d'} = z_d; when true the implication z_d = w_X is asserted.
    """
    system = group.system
    zd = z(group, parabolic, d).z_min
    corner = _d_x(system, parabolic)
    stationary = True
    for beta in parabolic.free:
        lower = d + d_of_root(system, parabolic, system.simple_roots[beta])
        found = any(
            lower.leq(d2) and z(group, parabolic, d2).z_min == zd
            for d2 in degree_box(parabolic, corner, pad)
        )
        if not found:
            stationary = False
            break
    if stationary and zd != group.w_x(parabolic):
        raise InvariantViolationError(
            f"stationary z_d with z != w_X at d = {d.coeffs}"
        )
    return stationary
