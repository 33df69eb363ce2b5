"""z_d^P, curve neighborhoods, and the cosmall classifications."""

import random

import pytest

import qdeg.degreelattice as degreelattice
from qdeg.cascade import d_x
from qdeg.curveneighborhood import (
    curve_neighborhood,
    equalwx_criterion,
    is_cosmall,
    is_very_cosmall,
    z,
    z_lift_check,
)
from qdeg.degreelattice import (
    Degree,
    d_of_root,
    degree_box,
    greedy_decomposition,
    in_r_p,
    maximal_roots,
)
from qdeg.distance.core import _z_classes
from qdeg.errors import DomainError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group

from conftest import all_parabolics


def fresh_group(letter, rank):
    """A WeylGroup over a root system of its own, so no memo is shared."""
    return WeylGroup(build_root_system(letter, rank))


def loop_greedy_oracle(system, parabolic, d):
    """The greedy decomposition as a loop of maximal_roots sweeps, without the step memo."""
    out = []
    while not d.is_zero():
        alpha = max(maximal_roots(system, parabolic, d))
        out.append(alpha)
        d = d - d_of_root(system, parabolic, alpha)
    return tuple(out)


def loop_z_oracle(group, parabolic, d):
    """(greedy, z_min, z_max): the Hecke product of the greedy reflections, then w_P."""
    greedy = loop_greedy_oracle(group.system, parabolic, d)
    w = group.identity
    for alpha in greedy:
        w = group.hecke_product(w, group.reflection(alpha))
    z_max = group.hecke_product(w, group.longest_element(parabolic))
    return greedy, group.coset_min(z_max, parabolic), z_max


ORACLE_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4), ("D", 4), ("B", 4)]


def oracle_parabolics(letter, rank):
    """Every parabolic, but only the maximal ones of F4 and E6."""
    if letter in ("F", "E"):
        return [Parabolic(rank, frozenset(range(rank)) - {beta}) for beta in range(rank)]
    return all_parabolics(rank)


@pytest.mark.parametrize("letter,rank", ORACLE_SYSTEMS + [("F", 4), ("E", 6)])
def test_z_and_greedy_match_the_loop_oracle_in_any_order(letter, rank):
    """Every degree of the d_X + 2 box, visited in lex, reversed and shuffled order."""
    shuffle = random.Random(f"{letter}{rank}").shuffle
    oracle_group = fresh_group(letter, rank)
    for p in oracle_parabolics(letter, rank):
        box = list(degree_box(p, d_x(oracle_group.system, p), 2))
        expected = [loop_z_oracle(oracle_group, p, d) for d in box]
        shuffled = list(range(len(box)))
        shuffle(shuffled)
        for order in (range(len(box)), range(len(box) - 1, -1, -1), shuffled):
            group = fresh_group(letter, rank)
            for i in order:
                result = z(group, p, box[i])
                got = (greedy_decomposition(group.system, p, box[i]), result.z_min, result.z_max)
                assert got == expected[i], (p, box[i].coeffs)
                assert result.degree is box[i]


def test_z_and_greedy_answer_on_a_large_g2_degree():
    """The chains are folded in loops: 1,500 steps raise no RecursionError."""
    group = fresh_group("G", 2)
    b = Parabolic(2, frozenset())
    d = Degree(b, (1500, 1500))
    result = z(group, b, d)
    greedy = greedy_decomposition(group.system, b, d)
    assert len(greedy) == 1500
    assert (greedy, result.z_min, result.z_max) == loop_z_oracle(fresh_group("G", 2), b, d)


def test_a_degree_over_another_parabolic_is_refused():
    group = fresh_group("B", 3)
    p = Parabolic.from_indices(3, {0})
    q = Parabolic.from_indices(3, {1})
    z(group, p, Degree(p, (1, 0)))
    with pytest.raises(DomainError):
        z(group, p, Degree(q, (1, 0)))
    with pytest.raises(DomainError):
        greedy_decomposition(group.system, p, Degree.zero(q))
    with pytest.raises(DomainError):
        z(group, p, Degree.zero(q))


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_z_classes_make_one_greedy_step_per_box_degree(monkeypatch):
    group = fresh_group("B", 3)
    calls = _count_calls(monkeypatch, degreelattice, "maximal_roots")
    for p in all_parabolics(3):
        corner = d_x(group.system, p)
        before = len(calls)
        _z_classes(group, p, 2)
        swept = [args[2].coeffs for args in calls[before:]]
        assert len(swept) == len(set(swept))
        assert len(swept) <= len(list(degree_box(p, corner, 3)))


def test_one_z_pays_one_coset_min_and_one_hecke_step_per_greedy_step(monkeypatch):
    group = fresh_group("B", 3)
    b = Parabolic(3, frozenset())
    d = Degree(b, (2, 3, 2))
    k = len(loop_greedy_oracle(fresh_group("B", 3).system, b, d))
    assert k >= 2
    coset_mins = _count_calls(monkeypatch, group, "coset_min")
    hecke_steps = _count_calls(monkeypatch, group, "hecke_product")
    sweeps = _count_calls(monkeypatch, degreelattice, "maximal_roots")
    z(group, b, d)
    assert (len(coset_mins), len(hecke_steps), len(sweeps)) == (1, k, k)
    # each step walks the word of one reflection, from the last greedy root up to the first
    greedy = greedy_decomposition(group.system, b, d)
    assert [v for _, v in hecke_steps] == [group.reflection(a) for a in reversed(greedy)]
    tail = d - d_of_root(group.system, b, greedy[0])
    z(group, b, tail)
    assert (len(coset_mins), len(hecke_steps), len(sweeps)) == (2, k, k)


def test_z_trivial_and_golden():
    g2 = weyl_group("G", 2)
    b = Parabolic.from_indices(2, set())
    assert z(g2, b, Degree.zero(b)).z_min == g2.identity
    result = z(g2, b, Degree(b, (2, 2)))
    assert result.z_min == g2.w_o
    for p in all_parabolics(2):
        for d in degree_box(p, d_x(g2.system, p), 1):
            r = z(g2, p, d)
            assert r.z_max == g2.hecke_product(r.z_min, g2.longest_element(p))
            assert g2.coset_min(r.z_max, p) == r.z_min


def test_z_monotone_b2():
    b2 = weyl_group("B", 2)
    b = Parabolic.from_indices(2, set())
    box = list(degree_box(b, Degree(b, (3, 3)), 0))
    for d in box:
        for d2 in box:
            if d.leq(d2):
                assert b2.bruhat_leq(z(b2, b, d).z_min, z(b2, b, d2).z_min)


def test_curve_neighborhood():
    g2 = weyl_group("G", 2)
    for p in all_parabolics(2):
        for m in g2.cosets(p):
            assert curve_neighborhood(g2, p, m, Degree.zero(p)).element == m
        dx = d_x(g2.system, p)
        assert curve_neighborhood(g2, p, g2.identity, dx).element == g2.w_x(p)


def test_nested_neighborhoods_b2():
    """Composite neighborhoods against the one-shot ones, via the Hecke chain bound."""
    b2 = weyl_group("B", 2)
    b = Parabolic.from_indices(2, set())
    box = list(degree_box(b, Degree(b, (2, 2)), 0))
    for d in box:
        for d2 in box:
            composite = b2.hecke_product(z(b2, b, d2).z_min, z(b2, b, d).z_min)
            assert b2.bruhat_leq(composite, z(b2, b, d + d2).z_max)
            nested = curve_neighborhood(
                b2, b, curve_neighborhood(b2, b, b2.identity, d2).element, d
            ).element
            once = curve_neighborhood(b2, b, b2.identity, d + d2).element
            assert b2.bruhat_leq(nested, once)


def test_cosmall_examples():
    g2 = weyl_group("G", 2)
    b3 = weyl_group("B", 3)
    for group in (g2, b3):
        system = group.system
        for p in all_parabolics(system.rank):
            if in_r_p(system, p, system.highest_root):
                continue
            assert is_cosmall(group, p, system.highest_root)
    for group in (g2, b3):
        system = group.system
        b = Parabolic.from_indices(system.rank, set())
        assert not is_cosmall(group, b, system.highest_short_root)
        long_len = max(system.inner(a, a) for a in system.positive_roots)
        for a in system.positive_roots:
            if sum(a) == 1 or system.inner(a, a) == long_len:
                assert is_cosmall(group, b, a)
    with pytest.raises(DomainError):
        p2 = Parabolic.from_indices(2, {0})
        is_cosmall(g2, p2, g2.system.simple_roots[0])


def test_very_cosmall():
    for group in (weyl_group("B", 3), weyl_group("G", 2)):
        system = group.system
        for p in all_parabolics(system.rank):
            if not p.free:
                continue
            outside = [a for a in system.positive_roots if not in_r_p(system, p, a)]
            very = [a for a in outside if is_very_cosmall(group, p, a)]
            if p.is_maximal():
                assert very == [a for a in outside if is_cosmall(group, p, a)]
            else:
                assert very == [system.highest_root]


def test_z_lift_b2():
    b2 = weyl_group("B", 2)
    for p in all_parabolics(2):
        corner = Degree(p, (3,) * len(p.free))
        for d in degree_box(p, corner, 0):
            assert z_lift_check(b2, p, d)
    b = Parabolic.from_indices(2, set())
    # P = B: e = d is always a witness, found with a zero-dimensional scan
    for d in degree_box(b, Degree(b, (3, 3)), 0):
        assert z_lift_check(b2, b, d)


def test_equalwx():
    g2 = weyl_group("G", 2)
    b = Parabolic.from_indices(2, set())
    dx = d_x(g2.system, b)
    assert equalwx_criterion(g2, b, dx)
    assert not equalwx_criterion(g2, b, Degree.zero(b))
    b2 = weyl_group("B", 2)
    for p in all_parabolics(2):
        if not p.free:
            continue
        corner = d_x(b2.system, p)
        for d in degree_box(p, corner, 1):
            crit = equalwx_criterion(b2, p, d)
            assert crit == (z(b2, p, d).z_min == b2.w_x(p))
