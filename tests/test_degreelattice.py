"""Degrees, c_1, greedy decompositions, supports, restriction and induction."""

from itertools import product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from qdeg.cascade import d_x, vec_add
from qdeg.degreelattice import (
    Degree,
    _degree_table,
    all_greedy_decompositions,
    c1,
    d_of_root,
    box_points,
    degree_box,
    extended_support,
    greedy_decomposition,
    in_r_p,
    induce,
    maximal_roots,
    minimal_elements,
    naive_support,
    restrict,
)
from qdeg.errors import DomainError, ResourceError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic

from conftest import all_parabolics, alpha_of_connected, gram_coroot, is_connected_degree

E_SYSTEMS = {rank: build_root_system("E", rank) for rank in (6, 7, 8)}


def coroot_degree(system, parabolic, a):
    """d(alpha) from the Gram-form coroot, bypassing the per-parabolic table and coroot."""
    cov = gram_coroot(system, a)
    return tuple(cov[i] for i in parabolic.free)


def brute_maximal_roots(system, parabolic, d):
    """The quadratic filter that maximal_roots replaced (test oracle)."""
    inside = [
        a
        for a in system.positive_roots
        if not in_r_p(system, parabolic, a)
        and all(x <= y for x, y in zip(coroot_degree(system, parabolic, a), d.coeffs))
    ]
    out = []
    for a in inside:
        if not any(b != a and all(x <= y for x, y in zip(a, b)) for b in inside):
            out.append(a)
    return tuple(sorted(out))


def brute_greedy(system, parabolic, d):
    """Greedy decomposition stepping through max(brute_maximal_roots) (test oracle)."""
    out = []
    while not d.is_zero():
        alpha = max(brute_maximal_roots(system, parabolic, d))
        out.append(alpha)
        d = Degree(
            parabolic,
            tuple(x - y for x, y in zip(d.coeffs, coroot_degree(system, parabolic, alpha))),
        )
    return tuple(out)


def check_against_oracles(system, parabolic, d):
    assert maximal_roots(system, parabolic, d) == brute_maximal_roots(system, parabolic, d)
    assert greedy_decomposition(system, parabolic, d) == brute_greedy(system, parabolic, d)


def test_d_of_root():
    g2 = build_root_system("G", 2)
    p2 = Parabolic.from_indices(2, {0})
    b = Parabolic.from_indices(2, set())
    assert d_of_root(g2, p2, g2.simple_roots[0]).is_zero()
    assert d_of_root(g2, p2, g2.highest_root).coeffs == (2,)
    for a in g2.positive_roots:
        assert d_of_root(g2, b, a).coeffs == g2.coroot(a)
        assert d_of_root(g2, p2, a).is_zero() == in_r_p(g2, p2, a)


@pytest.mark.parametrize(
    "letter,rank", [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4)]
)
def test_degree_layer_matches_the_oracles_on_the_dx_box(letter, rank):
    """d(alpha), and maximal_roots (memoised on min(d, top)) and the greedy walk past top.

    On a fresh system: the scan box d_X + 3 (d_X + 1 on F4), then every degree
    whose i-th coefficient is top_i - 1, top_i, top_i + 1 or top_i + 4.
    """
    system = build_root_system(letter, rank)
    for p in all_parabolics(rank):
        for a in system.positive_roots:
            assert d_of_root(system, p, a).coeffs == coroot_degree(system, p, a)
        outside = [coroot_degree(system, p, a) for a in system.positive_roots
                   if not in_r_p(system, p, a)]
        top = tuple(map(max, zip(*outside)))
        assert _degree_table(system, p)[3] == top
        around = product(*({max(t - 1, 0), t, t + 1, t + 4} for t in top))
        box = degree_box(p, d_x(system, p), 1 if letter == "F" else 3)
        for d in [*box, *(Degree(p, c) for c in around)]:
            check_against_oracles(system, p, d)


@settings(deadline=None)
@given(st.data())
def test_degree_layer_matches_the_oracles_on_e_types(data):
    system = E_SYSTEMS[data.draw(st.sampled_from(sorted(E_SYSTEMS)))]
    rank = system.rank
    p = Parabolic.from_indices(rank, data.draw(st.sets(st.integers(0, rank - 1))))
    corner = d_x(system, p).coeffs
    d = Degree(p, tuple(data.draw(st.integers(0, c + 3)) for c in corner))
    check_against_oracles(system, p, d)


def test_d_of_root_rejects_everything_but_positive_roots():
    b3 = build_root_system("B", 3)
    for p in all_parabolics(3):
        for bad in [tuple(-c for c in b3.highest_root), (1, 0, 1), (0, 0, 0)]:
            with pytest.raises(DomainError):
                d_of_root(b3, p, bad)


def test_degree_table_is_built_once_on_first_use():
    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    assert ("degrees", b.delta_p) not in g2.memo
    theta = d_of_root(g2, b, g2.highest_root)
    assert ("degrees", b.delta_p) in g2.memo
    assert d_of_root(g2, Parabolic.from_indices(2, set()), g2.highest_root) is theta
    with pytest.raises(DomainError):
        maximal_roots(g2, b, Degree.zero(Parabolic.from_indices(2, {0})))


def test_degree_table_makes_a_degree_only_when_d_of_root_asks(monkeypatch):
    b3 = build_root_system("B", 3)
    made = []
    post_init = Degree.__post_init__

    def counted(self):
        made.append(self.coeffs)
        post_init(self)

    monkeypatch.setattr(Degree, "__post_init__", counted)
    tables = [_degree_table(b3, p) for p in all_parabolics(3)]
    assert made == [] and all(degrees == {} for _, _, degrees, _ in tables)
    p = Parabolic.from_indices(3, {1})
    theta = b3.highest_root
    assert d_of_root(b3, p, theta) is d_of_root(b3, p, theta)
    assert made == [coroot_degree(b3, p, theta)]
    assert list(_degree_table(b3, p)[2]) == [theta]


def test_c1():
    a1 = build_root_system("A", 1)
    b = Parabolic.from_indices(1, set())
    chern = c1(a1, b)
    assert chern.coeffs == (2,)
    assert chern.pair(Degree.zero(b)) == 0
    # cosmallness length characterization is asserted inside is_cosmall for all of B2
    from qdeg.curveneighborhood import is_cosmall
    from qdeg.weylgroup import weyl_group

    group = weyl_group("B", 2)
    for p in all_parabolics(2):
        for a in group.system.positive_roots:
            if not in_r_p(group.system, p, a):
                is_cosmall(group, p, a)  # raises if the two characterizations differ


def test_maximal_roots():
    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    assert maximal_roots(g2, b, Degree.zero(b)) == ()
    theta = g2.highest_root
    assert maximal_roots(g2, b, Degree(b, g2.coroot(theta))) == (theta,)
    theta_s_cov = Degree(b, g2.coroot(g2.highest_short_root))
    assert maximal_roots(g2, b, theta_s_cov) == brute_maximal_roots(g2, b, theta_s_cov)
    assert g2.highest_short_root not in maximal_roots(g2, b, theta_s_cov)
    for d in degree_box(b, Degree(b, (2, 2)), 0):
        assert maximal_roots(g2, b, d) == brute_maximal_roots(g2, b, d)


def test_greedy_golden():
    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    assert greedy_decomposition(g2, b, Degree.zero(b)) == ()
    assert greedy_decomposition(g2, b, Degree(b, (2, 1))) == ((3, 1), (1, 0))


def test_greedy_tiebreak_invariance_b2():
    b2 = build_root_system("B", 2)
    for p in all_parabolics(2):
        corner = Degree(p, (3,) * len(p.free))
        for d in degree_box(p, corner, 0):
            multisets = {
                tuple(sorted(dec)) for dec in all_greedy_decompositions(b2, p, d)
            }
            assert len(multisets) == 1
            assert tuple(sorted(greedy_decomposition(b2, p, d))) in multisets


def test_supports():
    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    zero = Degree.zero(b)
    assert naive_support(b, zero) == frozenset() == extended_support(g2, b, zero)
    for d in degree_box(b, Degree(b, (3, 3)), 0):
        assert naive_support(b, d) == extended_support(g2, b, d)  # P = B: both coincide
    e = Degree(b, (2, 1))
    assert extended_support(g2, b, e) == frozenset({0, 1})


def test_connected_degrees():
    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    theta_deg = Degree(b, g2.coroot(g2.highest_root))
    assert is_connected_degree(g2, b, theta_deg)
    assert alpha_of_connected(g2, b, theta_deg) == g2.highest_root
    a3 = build_root_system("A", 3)
    b3 = Parabolic.from_indices(3, set())
    disc = Degree(b3, (1, 0, 1))
    assert not is_connected_degree(a3, b3, disc)
    with pytest.raises(DomainError):
        alpha_of_connected(a3, b3, disc)
    for d in degree_box(b, Degree(b, (3, 3)), 0):
        if d.is_zero() or not is_connected_degree(g2, b, d):
            continue
        firsts = {dec[0] for dec in all_greedy_decompositions(g2, b, d)}
        assert firsts == {alpha_of_connected(g2, b, d)}


def test_restrict_induce():
    b2 = build_root_system("B", 2)
    parabolics = all_parabolics(2)
    for p in parabolics:
        corner = Degree(p, (3,) * len(p.free))
        for d in degree_box(p, corner, 0):
            assert restrict(d, p) == d
    for p in parabolics:
        for q in parabolics:
            if not q.contains(p):
                continue
            corner = Degree(q, (3,) * len(q.free))
            for e in degree_box(q, corner, 0):
                assert restrict(induce(b2, e, p), q) == e
    with pytest.raises(DomainError):
        restrict(Degree.zero(Parabolic.from_indices(2, {0})), Parabolic.from_indices(2, {1}))


def test_restrict_dgb_is_dx():
    from qdeg.cascade import coroot_sum, d_x

    g2 = build_root_system("G", 2)
    b = Parabolic.from_indices(2, set())
    d_gb = Degree(b, coroot_sum(g2))
    for p in all_parabolics(2):
        assert restrict(d_gb, p) == d_x(g2, p)


def test_minimal_elements_small():
    b = Parabolic.from_indices(2, set())
    zero = Degree.zero(b)
    x = Degree(b, (1, 2))
    assert minimal_elements([zero, x]) == (zero,)
    pair = [Degree(b, (1, 0)), Degree(b, (0, 1))]
    assert set(minimal_elements(pair)) == set(pair)


@given(
    st.sets(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
        max_size=40,
    )
)
def test_minimal_elements_oracle(coeff_set):
    b3 = Parabolic.from_indices(3, set())
    degrees = [Degree(b3, c) for c in coeff_set]
    got = minimal_elements(degrees)
    brute = {
        d for d in degrees if not any(e != d and e.leq(d) for e in degrees)
    }
    assert got == tuple(sorted(brute, key=lambda d: d.coeffs))


def test_box_points_are_the_degree_box_coefficients():
    p = Parabolic.from_indices(4, {1})
    corner = Degree(p, (1, 0, 2))
    for pad in range(3):
        assert list(box_points(corner.coeffs, pad)) == [d.coeffs for d in degree_box(p, corner, pad)]
    with pytest.raises(ResourceError):
        box_points((99, 99, 99), 1)  # 101^3 points, refused before the first


def test_degree_box_over_the_cap_raises_before_it_yields():
    b3 = Parabolic.from_indices(3, set())
    corner = Degree(b3, (99, 99, 99))  # 100^3 points, exactly the cap
    assert next(degree_box(b3, corner)) == Degree.zero(b3)
    with pytest.raises(ResourceError):
        degree_box(b3, corner, 1)  # 101^3 points
    # delta_w's default scan, d_X + 3 with its stability layer, on Borels
    for letter, rank, size in [("D", 5, 10_368), ("E", 6, 138_240), ("A", 8, 2_822_400),
                               ("C", 8, 19_958_400), ("E", 7, 3_991_680), ("E", 8, 278_691_840)]:
        system = build_root_system(letter, rank)
        borel = Parabolic.from_indices(rank, set())
        corner = d_x(system, borel)
        assert prod(c + 4 for c in corner.coeffs) == size
        if size <= 10**6:
            degree_box(borel, corner, 3)
        else:
            with pytest.raises(ResourceError):
                degree_box(borel, corner, 3)


def test_lemma_roots():
    for letter, rank in [("B", 2), ("G", 2), ("F", 4)]:
        system = build_root_system(letter, rank)
        coroot_set = set()
        for a in system.positive_roots:
            coroot_set.add(system.coroot(a))
            coroot_set.add(tuple(-c for c in system.coroot(a)))
        for a in system.positive_roots:
            for b in system.positive_roots:
                total = vec_add(a, b)
                if system.inner(a, b) < 0 or not system.is_positive_root(total):
                    continue
                lhs = system.coroot(total)
                rhs = vec_add(system.coroot(a), system.coroot(b))
                assert all(x <= y for x, y in zip(lhs, rhs)) and lhs != rhs
                assert rhs not in coroot_set
