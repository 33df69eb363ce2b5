"""Exceptional roots: the obstruction case in the main theorem's induction.

A positive root alpha is exceptional if it has full support and some
beta in Delta \\ Delta^circ is orthogonal to it while alpha stays a maximal
root of alpha^vee + beta^vee.  The two technical inequalities attached to
exceptional roots are verified here by direct computation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cascade import (
    alpha_beta_phi as _alpha_beta_phi,
    boundary_roots as _boundary_roots,
    coroot_sum as _coroot_sum,
    delta_circ as _delta_circ,
    is_strongly_orthogonal as _is_strongly_orthogonal,
    vec_add as _vec_add,
)
from ..degreelattice import Degree, maximal_roots
from ..errors import DomainError, VerificationError
from ..rootsystem import RootSystem, coeffs_leq
from ..weylgroup import Parabolic, WeylGroup
from ..curveneighborhood import is_cosmall


@dataclass(frozen=True)
class ExceptionalReport:
    root: tuple
    witness_beta: int
    phi: tuple  # locally high root of the component of beta in {gamma : (alpha, gamma) = 0}
    alpha_beta_phi: tuple
    ineq1_holds: bool  # alpha^vee + alpha_{beta,phi}^vee <= theta_1^vee
    ineq1_strict: bool
    ineq3_holds: bool  # alpha^vee + sum d_{G(phi_i)/B(phi_i)} <= d_{G/B}
    ineq3_strict: bool
    strongly_orthogonal: bool  # alpha and beta
    b_cosmall: bool  # alpha
    alt_b_cosmall_agrees: bool  # "B-cosmall" in place of "maximal root of alpha^vee+beta^vee"


def _witnesses(system: RootSystem, alpha) -> list:
    """The beta in Delta \\ Delta^circ certifying alpha exceptional, if any."""
    circ = _delta_circ(system)
    borel = Parabolic(system.rank, frozenset())
    out = []
    for beta in sorted(set(range(system.rank)) - circ):
        simple = system.simple_roots[beta]
        if system.inner(alpha, simple) != 0:
            continue
        e = Degree(borel, _vec_add(system.coroot(alpha), system.coroot(simple)))
        if alpha in maximal_roots(system, borel, e):
            out.append(beta)
    return out


def is_exceptional(system: RootSystem, alpha) -> bool:
    alpha = system.check_root(alpha)
    if system.support(alpha) != frozenset(range(system.rank)):
        return False
    return bool(_witnesses(system, alpha))


def _alt_condition(system: RootSystem, group: WeylGroup, alpha) -> bool:
    """The conjectural replacement: beta orthogonal and alpha B-cosmall."""
    if system.support(alpha) != frozenset(range(system.rank)):
        return False
    circ = _delta_circ(system)
    ortho = any(
        system.inner(alpha, system.simple_roots[b]) == 0
        for b in set(range(system.rank)) - circ
    )
    return ortho and is_cosmall(group, Parabolic(system.rank, frozenset()), alpha)


def orthogonal_components(system: RootSystem, alpha) -> tuple:
    """Connected components of {gamma in Delta : (alpha, gamma) = 0}."""
    ortho = frozenset(
        g for g in range(system.rank) if system.inner(alpha, system.simple_roots[g]) == 0
    )
    return system.components(ortho)


def verify_lemma_technical(system: RootSystem, alpha) -> dict:
    """Type-A shape of the beta-component and the coroot inequality, checked.

    Raises VerificationError when any sub-check fails; otherwise returns the
    computed data.
    """
    alpha = system.check_root(alpha)
    if not is_exceptional(system, alpha):
        raise VerificationError(f"{alpha} is not exceptional")
    circ = _delta_circ(system)
    outside = sorted(set(range(system.rank)) - circ)
    if len(outside) != 1:
        raise VerificationError("Delta \\ Delta^circ is not a single simple root")
    beta = outside[0]
    comp = next(
        (c for c in orthogonal_components(system, alpha) if beta in c), None
    )
    if comp is None:
        raise VerificationError("beta is not orthogonal to alpha")
    phi = system.highest_root_of_support(comp)
    n = len(comp)
    if beta not in _boundary_roots(system, comp):
        raise VerificationError("beta is not a boundary root of its component")
    try:
        interval_root = _alpha_beta_phi(system, phi, beta)
    except DomainError as exc:  # non-A component surfaces here
        raise VerificationError(f"component of beta is not of type A: {exc}") from exc
    theta_cov = system.coroot(system.highest_root)
    lhs = _vec_add(system.coroot(alpha), system.coroot(interval_root))
    ineq1 = coeffs_leq(lhs, theta_cov)
    strict = ineq1 and lhs != theta_cov
    # Remark-level strengthening: alpha^vee + phi^vee < theta_1^vee
    lhs_phi = _vec_add(system.coroot(alpha), system.coroot(phi))
    remark_strict = coeffs_leq(lhs_phi, theta_cov) and lhs_phi != theta_cov
    same_inequality = interval_root == system.simple_roots[beta]
    if same_inequality != (n in (1, 2)):
        raise VerificationError("n in {1, 2} equality criterion failed")
    if not (ineq1 and strict and remark_strict):
        raise VerificationError(f"coroot inequality failed for {alpha}")
    return {
        "beta": beta,
        "phi": phi,
        "alpha_beta_phi": interval_root,
        "ineq1_holds": ineq1,
        "ineq1_strict": strict,
        "remark_strict": remark_strict,
        "component_size": n,
    }


def verify_lemma_technical2(system: RootSystem, alpha) -> dict:
    """alpha^vee + sum of local d_{G/B}'s over the orthogonal components <= d_{G/B}."""
    alpha = system.check_root(alpha)
    if not is_exceptional(system, alpha):
        raise VerificationError(f"{alpha} is not exceptional")
    lhs = system.coroot(alpha)
    for comp in orthogonal_components(system, alpha):
        lhs = _vec_add(lhs, _coroot_sum(system, comp))
    rhs = _coroot_sum(system)
    holds = coeffs_leq(lhs, rhs)
    strict = holds and lhs != rhs
    if not (holds and strict):
        raise VerificationError(f"degree inequality failed for {alpha}")
    return {"lhs": lhs, "rhs": rhs, "ineq3_holds": holds, "ineq3_strict": strict}


def exceptional_roots(system: RootSystem, group: WeylGroup) -> list:
    """All exceptional roots with their verification reports, sorted."""
    out = []
    for alpha in system.positive_roots:
        if not is_exceptional(system, alpha):
            continue
        beta = _witnesses(system, alpha)[0]
        t1 = verify_lemma_technical(system, alpha)
        t2 = verify_lemma_technical2(system, alpha)
        out.append(
            ExceptionalReport(
                root=alpha,
                witness_beta=beta,
                phi=t1["phi"],
                alpha_beta_phi=t1["alpha_beta_phi"],
                ineq1_holds=t1["ineq1_holds"],
                ineq1_strict=t1["ineq1_strict"],
                ineq3_holds=t2["ineq3_holds"],
                ineq3_strict=t2["ineq3_strict"],
                strongly_orthogonal=_is_strongly_orthogonal(
                    system, alpha, system.simple_roots[beta]
                ),
                b_cosmall=is_cosmall(group, Parabolic(system.rank, frozenset()), alpha),
                alt_b_cosmall_agrees=_alt_condition(system, group, alpha)
                == is_exceptional(system, alpha),
            )
        )
    return sorted(out, key=lambda r: r.root)
