"""The element z_d^P, curve-neighborhood coset arithmetic, and cosmall roots.

z_d^P w_P is the Hecke product of the reflections along any greedy
decomposition of d, times w_P; the result is independent of the decomposition.
Everything here is observably pure.

``z`` reads z_d^P w_P = s_alpha_1 . ... . s_alpha_k . w_P off the Demazure
product Y(d) = w_P . s_alpha_k . ... . s_alpha_1, its inverse, as the product
is associative and (u . v)^-1 = v^-1 . u^-1.  z_d^P w_P is an involution, so
Y(d) is z_d^P w_P itself: uW_P lies in Gamma_d(eW_P) iff eW_P lies in
Gamma_d(uW_P) = u Gamma_d(eW_P) iff u^-1 W_P lies in Gamma_d(eW_P), so
{u <= z_d^P w_P} is closed under inversion, and so is its longest element
(Gamma_d(X_w) = X_{w . z_d}: Buch-Mihalcea, J. Differential Geom. 99, 2015).
As alpha_2, ..., alpha_k is the greedy decomposition of d - d(alpha_1),
Y(0) = w_P and Y(d) = Y(d - d(alpha_1)) . s_alpha_1: one Hecke step per
degree, along the word of one reflection.

That step is ``hecke_word`` along ``system.reflection_word(alpha_1)``, the
palindrome j1..jm k jm..j1 with beta_0 = alpha_1, j_r the least j with
<beta_{r-1}, alpha_j^vee> > 0, beta_r = s_{j_r} beta_{r-1}, and beta_m = alpha_k;
the element s_alpha_1 is never built.  The word is reduced: if beta > 0 is not
simple and <beta, alpha_j^vee> > 0, then <alpha_j, beta^vee> > 0 too, and
s_beta(alpha_j) = alpha_j - <alpha_j, beta^vee> beta is negative, as it is a
root with a negative coefficient at some i != j in the support of beta.  So
s_j is a right descent of s_beta, and a left one, s_beta being an involution.
s_j s_beta(alpha_j) = -alpha_j - <alpha_j, beta^vee> s_j beta is negative as
well (s_j beta > 0, as s_j permutes R^+ minus alpha_j), so s_j is a right
descent of s_j s_beta, and l(s_{s_j beta}) = l(s_j s_beta s_j) = l(s_beta) - 2.
By induction from l(s_alpha_k) = 1, the 2m + 1 letters spell s_alpha_1 with
l(s_alpha_1) = 2m + 1, and a Hecke walk along a reduced word of v is u . v.

That recursion is the one rule, and it runs in two loops.  ``z`` walks a
single degree's greedy decomposition from w_P, one Hecke step per root, and
memoises Y(d) through ``memoised`` under ("z-max", Delta_P, coefficients);
no tail is stored.  ``hecke_box`` folds Y over the whole box d_X + pad in one
pass over the raw tuples of ``box_points`` and keeps it in a local dict.  The
box is a down-set, and lex order is a linear extension of the coefficientwise
order, so the tail d - d(alpha_1), which lies below d and is not d
(d(alpha_1) != 0 outside R_P), is a box point visited before d: each point
costs one first-fit lookup, and each distinct pair (Y(tail), word) one
Hecke step, kept in a second local dict (F4 at pad 3 steps 543 distinct
pairs for 4,835 stepped points over all parabolics).  Its Y(d_X) is checked
against ``z`` at d_X: one step per point against one walk, whose alpha_1
the ``maximal_roots`` sweep checks.  ``equalwx_criterion`` alone, which asks for
one box per degree, reads a fold memoised per (parabolic, pad).  z_min =
``coset_min(z_max)`` depends on (parabolic, z_max) alone and is memoised
through ``memoised``, so a scan box pays one per z-class.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le, sub

from .cascade import coroot_sum as _coroot_sum, d_x as _d_x
from .degreelattice import (
    Degree,
    _degree_table,
    box_points,
    d_of_root,
    greedy_decomposition,
    in_r_p,
    induce,
    maximal_roots,
    c1,
)
from .errors import DomainError, InvariantViolationError, VerificationError
from .rootsystem import coeffs_leq, memoised
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
    z_max = _z_max(group, parabolic, d.coeffs)
    return CurveNbhdResult(d, _z_min(group, parabolic, z_max), z_max)


@memoised("z-min")
def _z_min(group: WeylGroup, parabolic: Parabolic, z_max: Weyl) -> Weyl:
    return group.coset_min(z_max, parabolic)


@memoised("z-max")
def _z_max(group: WeylGroup, parabolic: Parabolic, coeffs: tuple) -> Weyl:
    """Y(d) = z_d^P w_P: w_P, then one Hecke step per greedy root, the last root first."""
    system = group.system
    y = group.longest_element(parabolic)
    for alpha in reversed(greedy_decomposition(system, parabolic, Degree(parabolic, coeffs))):
        y = group.hecke_word(y, system.reflection_word(alpha))
    return y


def hecke_box(group: WeylGroup, parabolic: Parabolic, pad: int) -> dict:
    """{coefficients of d: Y(d) = z_d^P w_P} over the box d_X + pad, in lex order.

    One first-fit lookup per point, and one Hecke step per distinct pair
    (Y(tail), word of s_alpha_1), from the tail's Y in this dict.  alpha_1 is
    the first root outside R_P, lex-descending, with d(alpha) <= d: the
    lex-largest root of S = {alpha : d(alpha) <= d}, so maximal in S (a root
    above it is lex-larger), and max(maximal_roots(d)), the first root of
    ``greedy_decomposition``.
    Nothing is stored in ``system.memo`` per point; ``group.memo`` gains
    only the entries of ``z`` at d_X, whose z_max must be the fold's Y(d_X),
    or InvariantViolationError is raised.
    """
    system = group.system
    corner = _d_x(system, parabolic)
    steps = tuple((d, system.reflection_word(a)) for a, d in _degree_table(system, parabolic)[1])
    ys = {}
    stepped = {}  # (Y(tail), word) -> Y: many points share a step
    for coeffs in box_points(corner.coeffs, pad):
        fit = _first_fit(steps, coeffs)  # None at d = 0 alone: d(alpha_j) is a unit vector, j free
        if fit:
            key = (ys[tuple(map(sub, coeffs, fit[0]))], fit[1])
            y = stepped.get(key)
            if y is None:
                y = stepped[key] = group.hecke_word(*key)
            ys[coeffs] = y
        else:
            ys[coeffs] = group.longest_element(parabolic)
    if z(group, parabolic, corner).z_max != ys[corner.coeffs]:
        raise InvariantViolationError(
            f"box fold and z disagree at d_X on Delta_P = {sorted(parabolic.delta_p)}"
        )
    return ys


def _first_fit(steps: tuple, coeffs: tuple):
    """The first (d(alpha), word) of ``steps`` with d(alpha) <= coeffs, or None."""
    for step in steps:
        if all(map(le, step[0], coeffs)):
            return step
    return None


#: the fold kept per (parabolic, pad) for ``equalwx_criterion``, which reads one box per degree
_kept_box = memoised("hecke-box")(hecke_box)


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
        if in_r_p(system, p_beta, alpha) or not is_cosmall(group, p_beta, alpha):
            return False
    return True


def z_lift_check(group: WeylGroup, parabolic: Parabolic, d: Degree, pad: int = 3) -> bool:
    """Scan for sufficiently large e over B with e_P = d and z_e^B = z_d^P w_P.

    A witness e must have every e' >= e inside the scan box agreeing as well;
    exhausting the box without such a witness is a verification failure.
    """
    system = group.system
    b = Parabolic(system.rank, frozenset())
    target = z(group, parabolic, d).z_max
    base = induce(system, d, b)
    members = sorted(parabolic.delta_p)
    dgb = _coroot_sum(system)
    grid = []
    for extra in box_points(tuple(dgb[m] for m in members), pad):  # caps (d_{G/B})_beta + pad
        coeffs = list(base.coeffs)
        for m, n in zip(members, extra):
            coeffs[m] += n
        grid.append((extra, Degree(b, tuple(coeffs))))
    hits = {extra for extra, e in grid if z(group, b, e).z_min == target}
    for witness in sorted(hits):
        if all(extra in hits for extra, _ in grid if coeffs_leq(witness, extra)):
            return True
    raise VerificationError(
        f"no stable witness for z_d^P w_P = z_e^B within pad {pad} of {d.coeffs}"
    )


def equalwx_criterion(group: WeylGroup, parabolic: Parabolic, d: Degree, pad: int = 3) -> bool:
    """Stationarity in every free direction forces z_d^P = w_X.

    True iff for each free beta some d' >= d + d(beta) in the scan box has
    z_{d'} = z_d; when true the implication z_d = w_X is asserted.

    The box d_X + pad is one kept ``hecke_box``: z_{d'} = z_d iff Y(d') = Y(d),
    and z_d = w_X iff Y(d) is w_o, the maximal element of w_X W_P.  Y(d) is
    read off the box too, and off ``z`` for a d outside it.
    """
    system = group.system
    ys = _kept_box(group, parabolic, pad)
    y = ys[d.coeffs] if d.parabolic == parabolic and d.coeffs in ys else z(group, parabolic, d).z_max
    lowers = [(d + d_of_root(system, parabolic, system.simple_roots[b])).coeffs for b in parabolic.free]
    stationary = all(any(y2 == y and coeffs_leq(low, c) for c, y2 in ys.items()) for low in lowers)
    if stationary and y != group.w_o:
        raise InvariantViolationError(
            f"stationary z_d with z != w_X at d = {d.coeffs}"
        )
    return stationary
