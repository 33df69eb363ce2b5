"""Kostant cascades, chain cascades, d_X formulas, and the type-A reduction."""

import importlib

import pytest

from qdeg.cascade import (
    alpha_beta_phi,
    boundary_roots,
    cascade,
    chain_cascade,
    coroot_sum,
    d_gpbeta,
    d_x,
    delta_circ,
    is_locally_high,
    is_strongly_orthogonal,
    w_o_of,
)
from qdeg.degreelattice import Degree, greedy_decomposition
from qdeg.distance import verify_suite
from qdeg.errors import DomainError, InvariantViolationError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group

from conftest import all_parabolics, reduction_identity_holds
from test_rootsystem import all_admissible


def test_delta_circ():
    assert delta_circ(build_root_system("A", 2)) == frozenset()
    assert delta_circ(build_root_system("A", 1)) == frozenset()
    assert delta_circ(build_root_system("G", 2)) == frozenset({0})
    for letter, rank in all_admissible():
        system = build_root_system(letter, rank)
        empty = delta_circ(system) == frozenset()
        assert empty == ((letter, rank) in (("A", 1), ("A", 2)))


def test_cascade_members():
    assert cascade(build_root_system("A", 2)).roots == ((1, 1),)
    g2 = build_root_system("G", 2)
    assert set(cascade(g2).roots) == {(3, 2), (1, 0)}
    a3 = build_root_system("A", 3)
    assert set(cascade(a3).roots) == {(1, 1, 1), (0, 1, 0)}
    casc = cascade(a3)
    assert casc.parent[(1, 1, 1)] is None
    assert casc.parent[(0, 1, 0)] == (1, 1, 1)


def test_cascade_structure():
    for letter, rank in all_admissible():
        system = build_root_system(letter, rank)
        members = cascade(system).roots
        assert system.highest_root == members[0]
        assert len(set(members)) == len(members)
        for a in members:
            assert is_locally_high(system, a)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                assert is_strongly_orthogonal(system, a, b)


def test_orthogonal_complement_components():
    """R(phi_i) over the components of Delta^circ partition R^circ, totally disjointly."""
    for letter, rank in all_admissible():
        system = build_root_system(letter, rank)
        circ = delta_circ(system)
        comps = system.components(circ)
        r_circ = {
            a
            for a in system.positive_roots
            if system.inner(a, system.highest_root) == 0
        }
        union = set()
        for comp in comps:
            union |= {a for a in system.positive_roots if system.support(a) <= set(comp)}
        assert union == r_circ
        for i, c1 in enumerate(comps):
            for c2 in comps[i + 1 :]:
                for a in (x for x in system.positive_roots if system.support(x) <= set(c1)):
                    for b in (x for x in system.positive_roots if system.support(x) <= set(c2)):
                        assert is_strongly_orthogonal(system, a, b)


def test_disjoint_chain_cascades_totally_disjoint():
    for letter, rank in all_admissible():
        system = build_root_system(letter, rank)
        members = cascade(system).roots
        chains = {a: set(chain_cascade(system, a).members) for a in members}
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if a in chains[b] or b in chains[a]:
                    continue
                sub_a = {x for x in system.positive_roots if system.support(x) <= system.support(a)}
                sub_b = {x for x in system.positive_roots if system.support(x) <= system.support(b)}
                for x in sub_a:
                    for y in sub_b:
                        assert is_strongly_orthogonal(system, x, y)


def test_chain_cascades_g2():
    g2 = build_root_system("G", 2)
    theta = g2.highest_root
    assert chain_cascade(g2, theta).members == (theta,)
    assert chain_cascade(g2, g2.simple_roots[1]).members == (theta,)
    assert chain_cascade(g2, g2.simple_roots[0]).members == (theta, (1, 0))


def test_locally_high():
    g2 = build_root_system("G", 2)
    assert is_locally_high(g2, g2.highest_root)
    assert not is_locally_high(g2, g2.highest_short_root)
    assert is_strongly_orthogonal(g2, g2.highest_root, g2.simple_roots[0])


def test_w_o_products():
    g2 = weyl_group("G", 2)
    prod = g2.multiply(
        g2.reflection(g2.system.highest_root), g2.reflection(g2.system.simple_roots[0])
    )
    assert prod == g2.w_o
    for letter, rank in [("A", 1), ("B", 3), ("G", 2)]:
        group = weyl_group(letter, rank)
        for phi in group.system.positive_roots:
            w_o_of(group.system, group, phi)  # raises on mismatch


def test_d_gpbeta():
    assert d_gpbeta(build_root_system("G", 2), 1) == 2
    for n in range(1, 6):
        assert d_gpbeta(build_root_system("A", n), 0) == 1
    assert d_gpbeta(build_root_system("A", 3), 1) == 2


def test_d_x():
    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    assert d_x(g2, b).coeffs == (2, 2)
    full = Parabolic.from_indices(2, {0, 1})
    assert d_x(g2, full).coeffs == ()
    a3 = build_root_system("A", 3)
    p = Parabolic.from_indices(3, {0, 2})
    assert d_x(a3, p).coeffs == (2,)


def published_d_x():
    """(type, rank, beta, d_X) for the (co)minuscule G/P_beta up to rank 8, beta 0-based.

    Gr(k, n+1) = A_n/P_k: min(k, n+1-k) (Buch-Kresch-Tamvakis, JAMS 16, 2003).  The
    quadrics B_n/P_1 and D_n/P_1: 2.  LG(n) = C_n/P_n: n.  P^{2n-1} = C_n/P_1: 1.  The
    spinor varieties D_n/P_n, and D_n/P_{n-1} and B_{n-1}/P_{n-1} isomorphic to them:
    floor(n/2).  E6/P1 and E6/P6: 2.  E7/P7: 3 (Chaput-Manivel-Perrin, Transform.
    Groups 13, 2008).
    """
    cases = []
    for n in range(1, 9):
        cases += [("A", n, k - 1, min(k, n + 1 - k)) for k in range(1, n + 1)]
    for n in range(2, 9):
        cases += [("B", n, 0, 2), ("B", n, n - 1, (n + 1) // 2), ("C", n, n - 1, n), ("C", n, 0, 1)]
    for n in range(3, 9):
        cases += [("D", n, 0, 2), ("D", n, n - 1, n // 2), ("D", n, n - 2, n // 2)]
    return cases + [("E", 6, 0, 2), ("E", 6, 5, 2), ("E", 7, 6, 3)]


def test_d_x_matches_the_published_values_on_the_cominuscule_spaces():
    cases = published_d_x()
    assert len(cases) == 36 + 28 + 18 + 3
    wrong = []
    for letter, rank, beta, expected in cases:
        system = build_root_system(letter, rank)
        got = d_x(system, Parabolic(rank, frozenset(range(rank)) - {beta})).coeffs
        if got != (expected,):
            wrong.append((letter, rank, beta + 1, got, expected))
    assert wrong == []


def test_d_x_is_computed_once_per_parabolic():
    b3 = build_root_system("B", 3)
    for p in all_parabolics(3):
        assert d_x(b3, p) is d_x(b3, Parabolic(3, p.delta_p))


def test_d_x_formulas_still_compared_on_first_call(monkeypatch):
    module = importlib.import_module("qdeg.cascade")  # qdeg.cascade is also a function
    monkeypatch.setattr(module, "d_gpbeta", lambda system, beta: d_gpbeta(system, beta) + 1)
    with pytest.raises(InvariantViolationError):
        d_x(build_root_system("G", 2), Parabolic.from_indices(2, set()))


def test_d_x_formulas_are_compared_over_every_coordinate(monkeypatch):
    """A d_gpbeta wrong only at a coordinate of Delta_P makes d_x of P fail: P restricts the
    Borel's d_X, whose two formulas are compared at every coordinate."""
    module = importlib.import_module("qdeg.cascade")
    monkeypatch.setattr(module, "d_gpbeta", lambda system, beta: d_gpbeta(system, beta) + (beta == 0))
    with pytest.raises(InvariantViolationError, match="d_X formulas disagree"):
        d_x(build_root_system("B", 3), Parabolic.from_indices(3, {0}))


def test_d_x_formulas_run_once_per_system(monkeypatch):
    """Across a `--parabolic all` suite the coroot sum runs once and d_{G/P_beta} once per beta."""
    module = importlib.import_module("qdeg.cascade")
    calls = []
    for name in ("coroot_sum", "d_gpbeta"):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, name=name, real=real: calls.append(name) or real(*a))
    group = WeylGroup(build_root_system("B", 3))
    for p in all_parabolics(3):
        assert verify_suite("uniqueness", "B", 3, p, group=group).passed
    assert sorted(calls) == ["coroot_sum"] + ["d_gpbeta"] * 3


def test_alpha_beta_phi():
    a1 = build_root_system("A", 1)
    assert alpha_beta_phi(a1, a1.highest_root, 0) == (1,)
    a3 = build_root_system("A", 3)
    assert alpha_beta_phi(a3, a3.highest_root, 0) == (1, 1, 0)
    assert alpha_beta_phi(a3, a3.highest_root, 2) == (0, 1, 1)
    with pytest.raises(DomainError):
        alpha_beta_phi(a3, a3.highest_root, 1)  # middle node is not a boundary root
    b3 = build_root_system("B", 3)
    with pytest.raises(DomainError):
        alpha_beta_phi(b3, b3.highest_root, 0)  # not type A


def test_type_a_reduction():
    for n in range(1, 9):
        system = build_root_system("A", n)
        for b in boundary_roots(system, frozenset(range(n))):
            assert reduction_identity_holds(system, b)


def test_greedy_of_dgb_is_cascade():
    for letter, rank in all_admissible(6):
        system = build_root_system(letter, rank)
        b = Parabolic.from_indices(rank, set())
        d_gb = Degree(b, coroot_sum(system))
        entries = greedy_decomposition(system, b, d_gb)
        assert sorted(entries) == sorted(cascade(system).roots)


def test_subset_f_additivity():
    """delta_P over products of cascade reflections is additive, all parabolics."""
    import itertools

    from qdeg.degreelattice import d_of_root
    from qdeg.distance import delta_w

    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        group = weyl_group(letter, rank)
        system = group.system
        members = cascade(system).roots
        for p in all_parabolics(rank):
            for size in range(len(members) + 1):
                for f in itertools.combinations(members, size):
                    u = group.product(group.reflection(a) for a in f)
                    total = Degree.zero(p)
                    for a in f:
                        total = total + d_of_root(system, p, a)
                    assert delta_w(group, p, u).degrees == (total,)
