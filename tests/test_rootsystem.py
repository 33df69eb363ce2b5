"""Root system construction, coroots, pairings, and sub-root-systems."""

import dataclasses
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qdeg.errors import ConfigurationError, DomainError, InvariantViolationError
from qdeg.rootsystem import (
    POSITIVE_ROOT_COUNT,
    _cartan_matrix,
    _generate_positive_roots,
    _symmetrizer,
    build_root_system,
    coeffs_leq,
    pareto,
    subsystem,
)

from conftest import (
    KERNEL_SYSTEMS,
    full_pairing_word,
    gcd_coroot,
    gram_coroot,
    pair,
    rank_sum_positive_roots,
    reflect_simple,
    word_mismatches,
)


def all_admissible(max_rank=8):
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(2, max_rank + 1)]
    out += [("D", r) for r in range(3, max_rank + 1)]
    out += [("E", r) for r in (6, 7, 8)]
    out += [("F", 4), ("G", 2)]
    return out


@pytest.mark.parametrize("letter,rank", all_admissible())
def test_positive_root_counts(letter, rank):
    system = build_root_system(letter, rank)
    assert len(system.positive_roots) == POSITIVE_ROOT_COUNT[letter](rank)
    assert len(system.positive_set) == len(system.positive_roots)


@pytest.mark.parametrize("letter,rank", all_admissible())
def test_positive_roots_match_the_rank_sum_walk(letter, rank):
    """Each root carries its pairings, updated at j and its Dynkin neighbours on a step s_j;
    the walk that re-sums a rank-length row per (root, j) finds the same tuple."""
    cartan = _cartan_matrix(letter, rank)
    assert _generate_positive_roots(cartan) == rank_sum_positive_roots(cartan)


def hand_symmetrizer(letter, rank):
    """d_i by the Dynkin pictures: long roots of B, C, F and G at their length ratio."""
    if letter == "B":
        return (2,) * (rank - 1) + (1,)
    if letter == "C":
        return (1,) * (rank - 1) + (2,)
    return {"F": (2, 2, 1, 1), "G": (1, 3)}.get(letter, (1,) * rank)


@pytest.mark.parametrize("letter,rank", all_admissible())
def test_symmetrizer_matches_the_hand_table(letter, rank):
    assert _symmetrizer(_cartan_matrix(letter, rank)) == hand_symmetrizer(letter, rank)
    assert build_root_system(letter, rank).symmetrizer == hand_symmetrizer(letter, rank)


@pytest.mark.parametrize(
    "blocks", [(("A", 2), ("A", 1)), (("B", 2), ("G", 2)), (("A", 1), ("C", 3))]
)
def test_a_disconnected_cartan_matrix_has_no_symmetrizer(blocks):
    """A block-diagonal Cartan matrix, one block per simple type, is refused."""
    rank = sum(r for _, r in blocks)
    cartan = [[0] * rank for _ in range(rank)]
    offset = 0
    for letter, r in blocks:
        for i, row in enumerate(_cartan_matrix(letter, r)):
            cartan[offset + i][offset:offset + r] = row
        offset += r
    with pytest.raises(ConfigurationError, match="not connected"):
        _symmetrizer(tuple(map(tuple, cartan)))


def test_small_counts():
    assert len(build_root_system("A", 2).positive_roots) == 3
    assert len(build_root_system("G", 2).positive_roots) == 6
    assert build_root_system("A", 1).positive_roots == ((1,),)


@pytest.mark.parametrize("letter,rank", [("A", 0), ("B", 1), ("D", 2), ("E", 5), ("F", 3), ("G", 3), ("H", 4)])
def test_inadmissible(letter, rank):
    with pytest.raises(ConfigurationError):
        build_root_system(letter, rank)


def test_highest_roots():
    assert build_root_system("G", 2).highest_root == (3, 2)
    assert build_root_system("A", 1).highest_root == (1,)
    for n in range(1, 6):
        system = build_root_system("A", n)
        # coefficientwise maximum over all generated roots
        maxima = tuple(
            max(a[i] for a in system.positive_roots) for i in range(n)
        )
        assert system.highest_root == maxima == (1,) * n


def test_highest_short_roots():
    assert build_root_system("G", 2).highest_short_root == (2, 1)
    assert build_root_system("A", 3).highest_short_root is None
    b2 = build_root_system("B", 2)
    short_len = min(b2.inner(a, a) for a in b2.positive_roots)
    shorts = [a for a in b2.positive_roots if b2.inner(a, a) == short_len]
    expected = max(shorts, key=lambda a: tuple(a))
    assert b2.highest_short_root == (1, 1) == expected


def brute_maximal(roots):
    """The quadratic filter that the sorted sweep replaced (test oracle)."""
    return sorted(
        a for a in roots if not any(b != a and all(x <= y for x, y in zip(a, b)) for b in roots)
    )


@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)), max_size=30))
def test_pareto_matches_the_quadratic_filter_both_ways(items):
    """Minimal items lex-ascending, maximal ones lex-descending, each once; a key is honoured."""
    flipped = lambda t: tuple(3 - c for c in t)
    maximal = brute_maximal(set(items))[::-1]
    assert pareto(items) == sorted(flipped(a) for a in brute_maximal({flipped(a) for a in items}))
    assert pareto(items, maximal=True) == maximal
    keyed = pareto([(flipped(a), a) for a in items], key=lambda pair: pair[1], maximal=True)
    assert [a for _, a in keyed] == maximal


@given(st.lists(st.integers(0, 63), max_size=30), st.booleans())
def test_pareto_keeps_no_dominated_item_with_or_without_a_key(codes, maximal):
    """Against the quadratic filter: minimal or maximal, on repeated items, as tuples and
    as ints keyed by their base-4 digits."""
    digits = lambda n: (n // 16, n // 4 % 4, n % 4)
    items = [digits(n) for n in codes + codes[::2]]
    order = (lambda a, b: a >= b) if maximal else (lambda a, b: a <= b)
    expected = sorted(
        {a for a in items if not any(b != a and all(map(order, b, a)) for b in items)},
        reverse=maximal,
    )
    assert pareto(items, maximal=maximal) == expected
    assert [digits(n) for n in pareto(codes + codes[::2], key=digits, maximal=maximal)] == expected


@pytest.mark.parametrize("letter,rank", [("E", 8), ("F", 4), ("B", 4), ("C", 4), ("G", 2)])
def test_highest_roots_match_the_quadratic_filter(letter, rank):
    system = build_root_system(letter, rank)
    connected = 0
    for n in range(1, rank + 1):
        for s in itertools.combinations(range(rank), n):
            if not system.is_connected(s):
                with pytest.raises(DomainError):
                    system.highest_root_of_support(s)
                continue
            connected += 1
            inside = [a for a in system.positive_roots if system.support(a) <= set(s)]
            assert [system.highest_root_of_support(s)] == brute_maximal(inside), s
    assert connected >= rank
    assert [system.highest_root] == brute_maximal(system.positive_roots)
    lengths = sorted({system.inner(a, a) for a in system.positive_roots})
    if len(lengths) == 1:
        assert system.highest_short_root is None
    else:
        short = [a for a in system.positive_roots if system.inner(a, a) == lengths[0]]
        assert [system.highest_short_root] == brute_maximal(short)


def test_coroots():
    g2 = build_root_system("G", 2)
    assert g2.coroot(g2.highest_root) == (1, 2)
    assert g2.coroot(g2.highest_short_root) == (2, 3)
    for letter, rank in [("B", 3), ("G", 2), ("F", 4)]:
        system = build_root_system(letter, rank)
        for i, beta in enumerate(system.simple_roots):
            assert system.coroot(beta) == tuple(1 if j == i else 0 for j in range(rank))
    with pytest.raises(DomainError):
        g2.coroot((1, 2))
    # a negative root reads its negation, a list reads as its tuple, a non-root is refused
    b3 = build_root_system("B", 3)
    theta = b3.highest_root
    assert b3.coroot([-c for c in theta]) == tuple(-c for c in b3.coroot(theta)) == (-1, -2, -1)
    assert b3.coroot(list(b3.simple_roots[2])) == (0, 0, 1)
    for bad in ((0, 0, 0), (1, 0, 1), (-1, 1, 0), (1, 2)):
        with pytest.raises(DomainError, match="is not a root of B3"):
            b3.coroot(bad)


@pytest.mark.parametrize("letter,rank", all_admissible())
def test_coroot_by_gcd_matches_the_gram_formula_on_every_root(letter, rank):
    """The per-system pass against the per-root gcd and against 2 alpha / (alpha, alpha)."""
    system = build_root_system(letter, rank)
    assert "coroots" not in system.__dict__  # construction builds no coroot
    for a in system.positive_roots:
        for root in (a, tuple(-c for c in a)):
            assert system.coroot(root) == gcd_coroot(system, root) == gram_coroot(system, root), root
    assert len(system.coroots) == len(system.positive_roots)


@pytest.mark.parametrize(
    "letter,rank,doctored",
    [
        ("B", 2, (4, 1)),
        ("G", 2, (1, 4)),
        ("F", 4, (4, 4, 1, 1)),  # a gcd of 2, which is no d_i
        ("F", 4, (2, 2, 1, 2)),  # every gcd is a d_i, but 14 of 24 coroots would be wrong
        ("F", 4, (1, 2, 1, 1)),
    ],
)
def test_a_doctored_symmetrizer_raises(letter, rank, doctored):
    true = build_root_system(letter, rank)
    system = dataclasses.replace(true, symmetrizer=doctored)
    assert not system.symmetrizes
    for _ in range(2):  # the first call raises and keeps nothing, so the second raises too
        with pytest.raises(InvariantViolationError, match="does not fit the Cartan matrix"):
            system.coroot(system.simple_roots[0])
        assert "coroots" not in system.__dict__
    # the gcd is scale-free: a rescaled symmetrizer is still one
    rescaled = dataclasses.replace(true, symmetrizer=tuple(3 * d for d in true.symmetrizer))
    assert [rescaled.coroot(a) for a in true.positive_roots] == [
        true.coroot(a) for a in true.positive_roots
    ]


def test_pairings():
    g2 = build_root_system("G", 2)
    theta_s = g2.highest_short_root
    assert g2.coroot(theta_s)[1] == 3  # (omega_2, theta_s^vee)
    for a in g2.positive_roots:
        assert pair(g2, a, g2.coroot(a)) == 2
    a2 = build_root_system("A", 2)
    assert pair(a2, a2.simple_roots[0], a2.coroot(a2.simple_roots[1])) == -1


def test_support():
    g2 = build_root_system("G", 2)
    assert g2.support(g2.highest_root) == frozenset({0, 1})
    assert g2.support(g2.simple_roots[0]) == frozenset({0})
    b4 = build_root_system("B", 4)
    assert b4.support((1, 2, 2, 2)) == frozenset(range(4))
    assert b4.is_positive_root((1, 2, 2, 2))


def test_coeffs_leq_orders_roots():
    g2 = build_root_system("G", 2)
    assert all(coeffs_leq(a, g2.highest_root) for a in g2.positive_roots)
    assert coeffs_leq(g2.highest_short_root, g2.highest_root)
    assert not coeffs_leq((1, 0), (0, 1)) and not coeffs_leq((0, 1), (1, 0))


def test_reflection_closure():
    for letter, rank in [("B", 3), ("G", 2), ("F", 4)]:
        system = build_root_system(letter, rank)
        for a in system.positive_roots:
            for j in range(rank):
                image = reflect_simple(system, a, j)
                assert system.is_root(image)


@pytest.mark.parametrize("letter,rank", KERNEL_SYSTEMS)
def test_neighbour_table_is_the_sparse_cartan_matrix(letter, rank):
    system = build_root_system(letter, rank)
    for j, row in enumerate(system.cartan):
        dense = [0] * rank
        dense[j] = 2
        for k, a in system.neighbours[j]:
            assert k != j and a < 0
            dense[k] = a
        assert tuple(dense) == row
        assert {k for k, _ in system.neighbours[j]} == system.adjacency[j]


@pytest.mark.parametrize("letter,rank", KERNEL_SYSTEMS)
def test_reflection_word_matches_the_full_pairing_walk_on_every_root(letter, rank):
    system = build_root_system(letter, rank)
    assert word_mismatches(system) == []
    for beta in system.positive_roots:
        negative = tuple(-c for c in beta)
        assert system.reflection_word(negative) == full_pairing_word(system, negative)


def test_coroot_duality():
    for letter, rank in [("B", 2), ("B", 3), ("C", 3), ("G", 2), ("F", 4)]:
        system = build_root_system(letter, rank)
        coroots = [system.coroot(a) for a in system.positive_roots]
        assert len(set(coroots)) == len(coroots)
        # theta_s^vee is the coefficientwise maximum among coroots, above theta_1^vee
        top = system.coroot(system.highest_short_root)
        t1 = system.coroot(system.highest_root)
        assert all(all(x <= y for x, y in zip(c, top)) for c in coroots)
        assert t1 != top and all(x <= y for x, y in zip(t1, top))
        # double dual: (alpha^vee)^vee = alpha, computed with exact arithmetic
        for a, cov in zip(system.positive_roots, coroots):
            in_root_basis = [
                Fraction(c, system.symmetrizer[i]) for i, c in enumerate(cov)
            ]
            sq = sum(
                in_root_basis[i] * in_root_basis[j] * system.symmetrizer[j] * system.cartan[i][j]
                for i in range(rank)
                for j in range(rank)
            )
            double = tuple(2 * c / sq for c in in_root_basis)
            assert double == tuple(Fraction(x) for x in a)


def test_subsystem_components():
    g2 = build_root_system("G", 2)
    comps = subsystem(g2, {0})
    assert len(comps) == 1 and comps[0].system.type_letter == "A"
    a3 = build_root_system("A", 3)
    comps = subsystem(a3, {0, 2})
    assert [c.system.rank for c in comps] == [1, 1]
    b4 = build_root_system("B", 4)
    (comp,) = subsystem(b4, {1, 2, 3})
    assert (comp.system.type_letter, comp.system.rank) == ("B", 3)
    f4 = build_root_system("F", 4)
    (comp,) = subsystem(f4, {1, 2, 3})
    assert (comp.system.type_letter, comp.system.rank) == ("C", 3)
    e6 = build_root_system("E", 6)
    (comp,) = subsystem(e6, {0, 2, 3, 4, 1})
    assert (comp.system.type_letter, comp.system.rank) == ("D", 5)
    assert subsystem(e6, set()) == []


def test_subsystem_embedding_roundtrip():
    e7 = build_root_system("E", 7)
    for nodes in [{0, 2, 3, 1}, {2, 3, 4, 5, 6}, {1, 3, 4}]:
        (comp,) = subsystem(e7, nodes)
        for local in comp.system.positive_roots:
            ambient = [0] * e7.rank
            for node, c in zip(comp.nodes, local):
                ambient[node] = c
            ambient = tuple(ambient)
            assert e7.is_positive_root(ambient)
            assert comp.to_local_root(ambient) == local


def test_d3_is_a3():
    d3 = build_root_system("D", 3)
    a3 = build_root_system("A", 3)
    assert len(d3.positive_roots) == len(a3.positive_roots) == 6
    # D-labeled: node 0 is the center
    assert d3.adjacency[0] == frozenset({1, 2})


def pairing_inner(system, a, b) -> int:
    """(a, b) summed through Cartan pairings: sum_j b_j d_j <a, alpha_j^vee>."""
    return sum(
        b[j] * system.symmetrizer[j] * system.pair_simple_coroot(a, j)
        for j in range(system.rank)
        if b[j]
    )


@pytest.mark.parametrize(
    "letter,rank",
    [("A", 5), ("B", 5), ("C", 8), ("D", 5), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)],
)
def test_gram_inner_matches_the_pairing_formula(letter, rank):
    system = build_root_system(letter, rank)
    gram = system.gram
    assert all(gram[i][j] == gram[j][i] for i in range(rank) for j in range(rank))
    roots = system.positive_roots
    for a in roots:
        for b in roots:
            assert system.inner(a, b) == pairing_inner(system, a, b), (a, b)
