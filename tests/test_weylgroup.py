"""Weyl group actions, Bruhat order (vs. the subword oracle), Hecke basics."""

import pytest
from hypothesis import given, settings, strategies as st

from qdeg.errors import InvariantViolationError, ResourceError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group


def subword_leq(group, u, v):
    """Subword-criterion oracle: products of subwords of word(v) are exactly {x <= v}."""
    reachable = {group.identity}
    for j in group.reduced_word(v):
        s = group.simple_reflection(j)
        reachable |= {group.multiply(x, s) for x in reachable}
    return u in reachable


def general_product(group, u, v):
    """u v computed column by column with apply, bypassing multiply."""
    return tuple(group.apply(u, row) for row in v)


def inversion_count(group, w):
    return sum(1 for a in group.system.positive_roots if group.is_negative(group.apply(w, a)))


def check_kernel(group, w):
    for j in range(group.system.rank):
        s = group.simple_reflection(j)
        assert group.multiply(w, s) == general_product(group, w, s)
        assert group.multiply(s, w) == general_product(group, s, w)
    assert group.length(w) == inversion_count(group, w)


@pytest.mark.parametrize(
    "letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_simple_factor_products_and_length_on_every_element(letter, rank):
    group = weyl_group(letter, rank)
    for w in group.elements():
        check_kernel(group, w)


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from([("E", 7), ("E", 8), ("C", 8)]),
    word=st.lists(st.integers(0, 7), max_size=40),
)
def test_simple_factor_products_and_length_on_random_words(name, word):
    """Groups too large to enumerate: elements drawn as random words."""
    group = weyl_group(*name)
    word = [j % group.system.rank for j in word]
    w = group.identity
    for j in word:
        w = general_product(group, w, group.simple_reflection(j))
    check_kernel(group, w)
    v = group.from_word(reversed(word[: len(word) // 2]))
    assert group.multiply(w, v) == general_product(group, w, v)


def test_coset_max_rep_checks_lengths_without_assert():
    """The length invariant raises InvariantViolationError, which -O cannot strip."""
    group = WeylGroup(build_root_system("A", 2))
    p = Parabolic.from_indices(2, {1})
    group._length[group.identity] = 1  # corrupt one cached length
    with pytest.raises(InvariantViolationError):
        group.coset_max_rep(group.identity, p)


def test_simple_reflections():
    group = weyl_group("B", 2)
    for j in range(2):
        s = group.simple_reflection(j)
        assert group.apply(s, group.system.simple_roots[j]) == tuple(
            -c for c in group.system.simple_roots[j]
        )
        assert group.multiply(s, s) == group.identity
    for a in group.system.positive_roots:
        r = group.reflection(a)
        assert group.multiply(r, r) == group.identity


def test_length_of_theta_reflection_a2():
    group = weyl_group("A", 2)
    theta = group.system.highest_root
    w = group.reflection(theta)
    # inversion count, spelled out independently of length()
    inversions = [a for a in group.system.positive_roots if group.is_negative(group.apply(w, a))]
    assert len(inversions) == 3 == group.length(w)
    assert len(group.reduced_word(w)) == 3


def test_braid_relation_a2():
    group = weyl_group("A", 2)
    s1, s2 = group.simple_reflection(0), group.simple_reflection(1)
    lhs = group.multiply(group.multiply(s1, s2), s1)
    rhs = group.multiply(group.multiply(s2, s1), s2)
    assert lhs == rhs == group.reflection(group.system.highest_root)
    assert group.reduced_word(lhs) == (0, 1, 0)


def test_identity_and_longest():
    group = weyl_group("G", 2)
    assert group.reduced_word(group.identity) == ()
    assert group.length(group.w_o) == 6
    assert group.longest_element(frozenset()) == group.identity
    assert group.longest_element(frozenset({0})) == group.simple_reflection(0)
    a2 = weyl_group("A", 2)
    for a in a2.system.positive_roots:
        assert a2.is_negative(a2.apply(a2.w_o, a))
    for g in (group, a2):
        assert g.multiply(g.w_o, g.w_o) == g.identity


def test_coset_representatives():
    a2 = weyl_group("A", 2)
    p = Parabolic.from_indices(2, {1})
    # coset_min(w_o) for Delta_P = {alpha_2} is the length-2 element using both letters
    # (the word reads [2,1] in our right-to-left composition convention)
    m = a2.coset_min(a2.w_o, p)
    assert m == a2.from_word([1, 0])
    assert a2.length(m) == 2 and set(a2.reduced_word(m)) == {0, 1}
    assert a2.multiply(m, a2.longest_element(p)) == a2.w_o
    assert a2.coset_min(a2.longest_element(p), p) == a2.identity
    b = Parabolic.from_indices(2, set())
    for w in a2.elements():
        assert a2.coset_min(w, b) == w
    top = a2.coset_max_rep(a2.identity, p)
    assert top.element == a2.longest_element(p) and top.flavor == "maximal"
    assert a2.w_x(p) == a2.multiply(a2.w_o, a2.longest_element(p))


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2)])
def test_bruhat_matches_subword_oracle(letter, rank):
    group = weyl_group(letter, rank)
    els = group.elements()
    for u in els:
        for v in els:
            assert group.bruhat_leq(u, v) == subword_leq(group, u, v)


def test_bruhat_basics():
    g2 = weyl_group("G", 2)
    els = g2.elements()
    for w in els:
        assert g2.bruhat_leq(g2.identity, w)
    for u in els:
        for v in els:
            if g2.bruhat_leq(u, v) and g2.bruhat_leq(v, u):
                assert u == v
    s_ts = g2.reflection(g2.system.highest_short_root)
    assert g2.bruhat_leq(s_ts, g2.w_o)
    assert not g2.bruhat_leq(s_ts, g2.simple_reflection(0))


def test_hecke_basics():
    b2 = weyl_group("B", 2)
    p = Parabolic.from_indices(2, {0})
    w_p = b2.longest_element(p)
    for j in range(2):
        s = b2.simple_reflection(j)
        assert b2.hecke_product(s, s) == s
    for w in b2.elements():
        assert b2.hecke_product(w, b2.identity) == w
    assert b2.hecke_product(w_p, w_p) == w_p


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(
        [("A", 2), ("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 4), ("D", 4), ("F", 4), ("G", 2)]
    ),
    words=st.lists(st.lists(st.integers(0, 3), max_size=16), min_size=3, max_size=3),
)
def test_hecke_product_is_associative_and_inverts_in_reverse(name, words):
    """(u.v).w = u.(v.w) and (u.v)^-1 = v^-1 . u^-1: the laws behind z's inverse chain."""
    group = weyl_group(*name)
    u, v, w = (group.from_word(j % group.system.rank for j in word) for word in words)
    hecke, inverse = group.hecke_product, group.inverse
    assert hecke(hecke(u, v), w) == hecke(u, hecke(v, w))
    assert inverse(hecke(u, v)) == hecke(inverse(v), inverse(u))


def test_hecke_coset_rep_laws_rank3():
    """Max rep <=> w.w_P = w; min rep gives ww_P = w.w_P maximal; all parabolics."""
    from conftest import all_parabolics

    for letter, rank in [("A", 3), ("B", 3), ("C", 3)]:
        group = weyl_group(letter, rank)
        for p in all_parabolics(rank):
            w_p = group.longest_element(p)
            for w in group.elements():
                top = group.coset_max_rep(w, p).element
                assert (top == w) == (group.hecke_product(w, w_p) == w)
                if group.coset_min(w, p) == w:
                    assert group.multiply(w, w_p) == group.hecke_product(w, w_p) == top
                assert group.hecke_product(w, w_p) == top
                assert group.multiply(top, w_p) == group.coset_min(w, p)


def test_stabilizer_descriptions_agree():
    for letter, rank in [("A", 2), ("B", 2)]:
        group = weyl_group(letter, rank)
        for p_set in [set(), {0}, {1}, {0, 1}]:
            p = Parabolic.from_indices(rank, p_set)
            for m in group.cosets(p):
                hecke_def = group.stabilizer_delta(m, p)
                bruhat_def = frozenset(
                    j
                    for j in range(rank)
                    if group.bruhat_leq_coset(
                        group.multiply(group.simple_reflection(j), m), m, p
                    )
                )
                assert hecke_def == bruhat_def


def test_stabilizer_extremes():
    b2 = weyl_group("B", 2)
    p = Parabolic.from_indices(2, {1})
    assert b2.stabilizer_delta(b2.w_o, p) == frozenset({0, 1})
    assert b2.stabilizer_delta(b2.identity, p) == p.delta_p


def test_dual():
    a2 = weyl_group("A", 2)
    assert a2.dual(a2.identity) == a2.w_o
    for w in a2.elements():
        assert a2.dual(a2.dual(w)) == w
        assert a2.length(w) + a2.length(a2.dual(w)) == len(a2.system.positive_roots)


def test_enumeration():
    assert len(weyl_group("A", 2).elements()) == 6
    assert len(weyl_group("G", 2).elements()) == 12
    a3 = weyl_group("A", 3)
    p = Parabolic.from_indices(3, {0, 2})
    assert len(a3.cosets(p)) == 6
    with pytest.raises(ResourceError):
        weyl_group("B", 3).elements(cap=7)


@pytest.mark.parametrize("letter,rank", [("B", 3), ("G", 2)])
def test_parabolic_subgroup_enumeration(letter, rank):
    """elements(P) is W_P: |W| / |W/W_P| members, each in the identity coset."""
    from conftest import all_parabolics

    group = weyl_group(letter, rank)
    for p in all_parabolics(rank):
        wp_els = group.elements(p)
        assert len(set(wp_els)) == len(wp_els) == len(group.elements()) // len(group.cosets(p))
        assert all(group.coset_min(w, p) == group.identity for w in wp_els)
        assert group.longest_element(p) in wp_els


def test_inverse_via_word():
    b3 = weyl_group("B", 3)
    for w in b3.elements()[:40]:
        assert b3.multiply(w, b3.inverse(w)) == b3.identity


def test_element_support_definitions_agree():
    """Letters of the canonical word == {beta : s_beta <= w} (word independence)."""
    for letter, rank in [("A", 3), ("B", 2), ("G", 2)]:
        group = weyl_group(letter, rank)
        for w in group.elements():
            from_word = frozenset(group.reduced_word(w))
            from_bruhat = frozenset(
                j for j in range(rank) if group.bruhat_leq(group.simple_reflection(j), w)
            )
            assert from_word == from_bruhat


def test_enumeration_memo_is_keyed_without_the_cap():
    from qdeg.distance import verify_suite

    borel = Parabolic(3, frozenset())
    group = weyl_group("B", 3)
    verify_suite("main", "B", 3, borel)
    verify_suite("delta-props", "B", 3, borel)
    w = group.elements()
    assert len(w) == 48
    assert [k for k, v in group.memo.items() if v == w] == [("elements", frozenset({0, 1, 2}))]
    assert group.cosets(borel) is w
    assert group.elements(cap=48) is w
    with pytest.raises(ResourceError):
        group.elements(cap=47)
    with pytest.raises(ResourceError):
        group.cosets(borel, cap=47)


def test_a_capped_enumeration_is_never_stored():
    group = WeylGroup(build_root_system("B", 3))
    p = Parabolic(3, frozenset({0}))
    with pytest.raises(ResourceError):
        group.elements(cap=47)
    with pytest.raises(ResourceError):
        group.cosets(p, cap=23)
    assert not group.memo
    assert len(group.cosets(p, cap=24)) == 24
    assert len(group.elements(cap=48)) == 48


@pytest.mark.parametrize(
    "letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_closed_form_order_matches_the_enumerations(letter, rank):
    from conftest import all_parabolics

    group = weyl_group(letter, rank)
    assert group.order() == len(group.elements())
    for p in all_parabolics(rank):
        assert group.order(p.delta_p) == len(group.elements(p))
        assert group.order() // group.order(p.delta_p) == len(group.cosets(p))


def test_an_over_cap_enumeration_raises_before_any_bfs(monkeypatch):
    group = WeylGroup(build_root_system("E", 8))
    assert group.order() == 696729600

    def no_products(*args):
        raise AssertionError("the enumeration started")

    monkeypatch.setattr(group, "multiply", no_products)
    monkeypatch.setattr(group, "coset_min", no_products)
    with pytest.raises(ResourceError):
        group.elements()
    with pytest.raises(ResourceError):
        group.cosets(Parabolic(8, frozenset({0})))
    assert not group.memo
