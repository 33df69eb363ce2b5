"""z_d^P, curve neighborhoods, and the cosmall classifications."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import qdeg.curveneighborhood as curveneighborhood
import qdeg.degreelattice as degreelattice
from qdeg.cascade import d_x
from qdeg.curveneighborhood import (
    curve_neighborhood,
    equalwx_criterion,
    hecke_box,
    is_cosmall,
    is_very_cosmall,
    z,
    z_lift_check,
)
from qdeg.degreelattice import (
    Degree,
    all_greedy_decompositions,
    d_of_root,
    degree_box,
    greedy_decomposition,
    in_r_p,
    maximal_roots,
)
from qdeg.distance.core import _z_classes
from qdeg.errors import DomainError, InvariantViolationError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group

from conftest import all_parabolics, hecke_box_oracle, z_classes_oracle


def fresh_group(letter, rank):
    """A WeylGroup over a root system of its own, so no memo is shared."""
    return WeylGroup(build_root_system(letter, rank))


def loop_greedy_oracle(system, parabolic, d):
    """The greedy decomposition as a loop of maximal_roots sweeps, one per step: the walk
    greedy_decomposition replaced, kept as its oracle."""
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


@pytest.mark.parametrize("letter,rank", [("D", 5), ("F", 4), ("E", 6), ("E", 7), ("C", 8)])
def test_the_walk_matches_the_loop_oracle_on_seeded_random_degrees(letter, rank):
    """The point-query groups: 200 seeded (parabolic, degree) pairs each, coefficients 0-4."""
    rng = random.Random(f"walk {letter}{rank}")
    walk, oracle = build_root_system(letter, rank), build_root_system(letter, rank)
    for _ in range(200):
        p = Parabolic(rank, frozenset(i for i in range(rank) if rng.random() < 0.5))
        d = Degree(p, tuple(rng.randint(0, 4) for _ in p.free))
        assert greedy_decomposition(walk, p, d) == loop_greedy_oracle(oracle, p, d), (p, d.coeffs)


def test_a_doctored_sweep_fails_the_check_of_the_first_root(monkeypatch):
    """The walk takes alpha_1 by first fit and the maximal_roots sweep checks it: a sweep
    that answers a smaller root of S(d) raises InvariantViolationError, and z stores nothing."""
    group = fresh_group("B", 3)
    b = Parabolic(3, frozenset())
    monkeypatch.setattr(degreelattice, "maximal_roots", lambda system, parabolic, d: ((1, 0, 0),))
    with pytest.raises(InvariantViolationError, match=r"sweep disagree at \(2, 3, 2\)"):
        z(group, b, Degree(b, (2, 3, 2)))
    assert not any(key[0] == "z-max" for key in group.memo)


@pytest.mark.parametrize("letter,rank", ORACLE_SYSTEMS + [("F", 4), ("E", 6)])
def test_the_box_fold_matches_z_point_by_point(letter, rank):
    """_z_classes against one z call per point of d_X + pad + 1, at pads 0-2: the same
    classes, points and order, on a fresh group and on one warmed by z over the box in
    shuffled order."""
    shuffle = random.Random(f"fold {letter}{rank}").shuffle
    oracle_group = fresh_group(letter, rank)
    for p in oracle_parabolics(letter, rank):
        for pad in range(3):
            expected = z_classes_oracle(oracle_group, p, pad)
            warm = fresh_group(letter, rank)
            box = list(degree_box(p, d_x(warm.system, p), pad + 1))
            shuffle(box)
            for d in box:
                z(warm, p, d)
            for group in (fresh_group(letter, rank), warm):
                got = tuple((c.z, c.points) for c in _z_classes(group, p, pad))
                assert got == expected, (p, pad)


def test_a_wrong_fold_step_fails_the_check_at_d_x(monkeypatch):
    """A fold that steps along alpha_1 in place of the first-fit root misses z_max at d_X."""
    group = fresh_group("B", 3)
    b = Parabolic(3, frozenset())
    first_fit = curveneighborhood._first_fit

    def wrong(steps, coeffs):
        step = first_fit(steps, coeffs)
        return step and (step[0], group.system.reflection_word(group.system.simple_roots[0]))

    monkeypatch.setattr(curveneighborhood, "_first_fit", wrong)
    with pytest.raises(InvariantViolationError, match=r"at d_X on Delta_P = \[\]"):
        _z_classes(group, b, 0)
    assert not any(key[0] == "z-classes" for key in group.memo)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)])
def test_the_fold_steps_along_the_greedy_root_by_first_fit(monkeypatch, letter, rank):
    """At every point of d_X + 3 the fold's first fit is (d(alpha_1), word of s_alpha_1) for
    alpha_1 = max(maximal_roots(d)), the greedy step's root; on A3, B3 and G2 its Y(d) is
    z's z_max at every point."""
    fits = []
    first_fit = curveneighborhood._first_fit

    def recorded(steps, coeffs):
        step = first_fit(steps, coeffs)
        fits.append((coeffs, step))
        return step

    monkeypatch.setattr(curveneighborhood, "_first_fit", recorded)
    group = fresh_group(letter, rank)
    system = group.system
    for p in all_parabolics(rank):
        fits.clear()
        ys = hecke_box(group, p, 3)
        assert [coeffs for coeffs, _ in fits] == list(ys), p
        for coeffs, step in fits:
            if not any(coeffs):
                assert step is None
                continue
            alpha = max(maximal_roots(system, p, Degree(p, coeffs)))
            assert greedy_decomposition(system, p, Degree(p, coeffs))[0] == alpha
            assert step == (d_of_root(system, p, alpha).coeffs, system.reflection_word(alpha)), (
                p,
                coeffs,
            )
        if letter in "ABG":
            for coeffs, y in ys.items():
                assert z(group, p, Degree(p, coeffs)).z_max == y, (p, coeffs)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_the_box_fold_keeps_z_and_hecke_chain_entries_of_d_x_alone(letter, rank):
    """After _z_classes on a fresh group, the only "z-max" entry is d_X's, and no greedy
    tail has an entry of its own: there is no "z" or "hecke-chain" key.  The fold's first
    fits store nothing: the "maximal-roots" keys are those of z at d_X."""
    group = fresh_group(letter, rank)
    at_d_x = fresh_group(letter, rank)
    for p in all_parabolics(rank):
        _z_classes(group, p, 2)
        z(at_d_x, p, d_x(at_d_x.system, p))

        def stored(name):
            return {key[2] for key in group.memo if key[:2] == (name, p.delta_p)}

        assert stored("z-max") == {d_x(group.system, p).coeffs}, p
    assert not any(key[0] in ("z", "hecke-chain") for key in group.memo)

    def degree_keys(g):
        return {key for key in g.system.memo if key[0] == "maximal-roots"}

    assert degree_keys(group) == degree_keys(at_d_x)
    assert degree_keys(group)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_the_stepped_fold_matches_one_hecke_step_per_point(letter, rank):
    """hecke_box, which takes one Hecke step per distinct (Y(tail), word), gives the Y(d) of a
    fold that steps at every point along the greedy decomposition's first root, in the same
    order, on every parabolic at pads 0 to 2."""
    group, oracle_group = fresh_group(letter, rank), fresh_group(letter, rank)
    for p in all_parabolics(rank):
        for pad in range(3):
            expected = hecke_box_oracle(oracle_group, p, pad)
            assert list(hecke_box(group, p, pad).items()) == list(expected.items()), (p, pad)


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


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2)])
def test_z_max_is_an_involution_read_off_the_hecke_chain(letter, rank):
    """z_d^P w_P = its inverse, so the Hecke chain Y(d), here the box fold's, is z_max,
    and its inverse gives z_min."""
    group = fresh_group(letter, rank)
    for p in all_parabolics(rank):
        ys = hecke_box(group, p, 2)
        for d in degree_box(p, d_x(group.system, p), 2):
            result = z(group, p, d)
            y = ys[d.coeffs]
            assert group.inverse(result.z_max) == result.z_max == y, (letter, p, d.coeffs)
            assert result.z_min == group.coset_min(group.inverse(y), p), (letter, p, d.coeffs)


RANK_4_SYSTEMS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_every_greedy_decomposition_gives_z_max(data):
    """w_P . s_alpha_k . ... . s_alpha_1 is z_max for every tie-break of the greedy walk.

    A random type of rank <= 4, parabolic and degree of the d_X + 2 box.  The
    products are folded along shared tails, one Hecke step per new tail.
    """
    letter, rank = data.draw(st.sampled_from(RANK_4_SYSTEMS))
    group = weyl_group(letter, rank)
    p = Parabolic.from_indices(rank, data.draw(st.sets(st.integers(0, rank - 1))))
    d = Degree(p, tuple(data.draw(st.integers(0, c + 2)) for c in d_x(group.system, p).coeffs))
    folded = {(): group.longest_element(p)}

    def fold(decomposition):
        y = folded.get(decomposition)
        if y is None:
            y = group.hecke_product(fold(decomposition[1:]), group.reflection(decomposition[0]))
            folded[decomposition] = y
        return y

    z_max = z(group, p, d).z_max
    for decomposition in all_greedy_decompositions(group.system, p, d):
        assert fold(decomposition) == z_max, (letter, p, d.coeffs, decomposition)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_z_classes_make_one_greedy_step_per_box_degree(monkeypatch):
    """At most one sweep per degree of the box; the fold's first fits make none, so
    these are the sweeps of z at d_X."""
    group = fresh_group("B", 3)
    calls = _count_calls(monkeypatch, degreelattice, "maximal_roots")
    for p in all_parabolics(3):
        corner = d_x(group.system, p)
        before = len(calls)
        _z_classes(group, p, 2)
        swept = [args[2].coeffs for args in calls[before:]]
        assert len(swept) == len(set(swept))
        assert len(swept) <= len(list(degree_box(p, corner, 3)))


class _CountingCache(dict):
    """A system memo that records every key it stores."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_z_classes_sweep_once_per_clamped_bound_and_pay_one_coset_min_per_class(monkeypatch):
    """On a fresh B3, every parabolic's scan box d_X + 3: the fold's first fits sweep
    nothing, so the 7 sweeps are those of z at d_X, one per z (its alpha_1 check), on the
    seven parabolics with d_X != 0; 43 coset_mins."""
    group = fresh_group("B", 3)
    cache = group.system.__dict__["memo"] = _CountingCache()
    calls = _count_calls(monkeypatch, degreelattice, "maximal_roots")
    coset_mins = _count_calls(monkeypatch, group, "coset_min")
    classes = sum(len(_z_classes(group, p, 2)) for p in all_parabolics(3))
    sweeps = [key for key in cache.stored if key[0] == "maximal-roots"]
    bounds = {
        (p.delta_p, tuple(map(min, d.coeffs, degreelattice._degree_table(system, p)[3])))
        for system, p, d in calls
    }
    assert len(calls) == len(sweeps) == len(set(sweeps)) == len(bounds) == 7
    assert len(coset_mins) == classes == 43


def test_one_z_pays_one_coset_min_and_one_hecke_step_per_greedy_step(monkeypatch):
    group = fresh_group("B", 3)
    b = Parabolic(3, frozenset())
    d = Degree(b, (2, 3, 2))
    k = len(loop_greedy_oracle(fresh_group("B", 3).system, b, d))
    assert k >= 2
    coset_mins = _count_calls(monkeypatch, group, "coset_min")
    hecke_steps = _count_calls(monkeypatch, group, "hecke_word")
    reflections = _count_calls(monkeypatch, group, "reflection")
    sweeps = _count_calls(monkeypatch, degreelattice, "maximal_roots")

    def counts():
        return len(coset_mins), len(hecke_steps), len(reflections), len(sweeps)

    z(group, b, d)
    assert counts() == (1, k, 0, 1)  # one sweep per z: the check of its first root
    # each step walks the reduced word of one reflection, from the last greedy root
    # up to the first, and no matrix of a reflection is built
    greedy = greedy_decomposition(group.system, b, d)
    reflection_word = group.system.reflection_word
    assert [word for _, word in hecke_steps] == [reflection_word(a) for a in reversed(greedy)]
    # a second call is one memo read, and Y of a greedy tail is not stored by the walk
    z(group, b, d)
    assert counts() == (1, k, 0, 2)  # the second sweep is the greedy_decomposition call above
    assert not any(key[0] in ("z", "hecke-chain") for key in group.memo)


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


def test_equalwx_reads_the_box_fold_and_z_only_outside_it(monkeypatch):
    """Inside the box the criterion calls z at d_X alone, the fold's own check, and agrees with
    z_d^P = w_X on d_X + 1; a degree outside the box is read off z (B3, every parabolic)."""
    group = fresh_group("B", 3)
    calls = []
    real = curveneighborhood.z
    monkeypatch.setattr(curveneighborhood, "z", lambda g, p, d: calls.append(d.coeffs) or real(g, p, d))
    for p in all_parabolics(3)[:-1]:  # the last one is G itself, a point
        corner = d_x(group.system, p)
        for d in degree_box(p, corner, 1):
            assert equalwx_criterion(group, p, d) == (real(group, p, d).z_min == group.w_x(p)), d
        assert set(calls) == {corner.coeffs}, p
        calls.clear()
        outside = Degree(p, tuple(c + 4 for c in corner.coeffs))
        assert not equalwx_criterion(group, p, outside)
        assert calls == [outside.coeffs], p
        calls.clear()
