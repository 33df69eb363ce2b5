"""Weyl group actions, Bruhat order (vs. the subword oracle), Hecke basics.

The package stores w as the weight w^-1(rho).  ``MatrixKernel`` keeps the
representation it replaced as an oracle: w as the matrix of the images of
the simple roots.  Every element of the small groups, and random words in
the large ones, must give the same words, lengths, products, coset
representatives, Bruhat relations, Hecke products and coset tables in both.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qdeg import weylgroup
from qdeg.errors import DomainError, InvariantViolationError, ResourceError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, _descent, weyl_group

from conftest import (
    KERNEL_SYSTEMS, all_parabolics, gram_coroot, pair, reflect_simple, word_mismatches
)


def is_negative(coeffs) -> bool:
    """True for a negative root; roots never mix signs."""
    return min(coeffs) < 0


def act(group, w, beta) -> tuple:
    """w(beta) for beta in the root basis, one simple reflection per letter of w's word."""
    for j in reversed(group.reduced_word(w)):
        beta = reflect_simple(group.system, beta, j)
    return tuple(beta)


class MatrixKernel:
    """Weyl elements as rank x rank matrices: row i is w(alpha_i) in the root basis.

    u s_j negates row j and subtracts a_ij * row j from each Dynkin
    neighbour row i; s_j u changes only column j, by <row, alpha_j^vee>; a
    general product applies u to each row of v.  s_j is a right descent of
    w iff row j is negative, and the length is the inversion count.
    """

    def __init__(self, system):
        self.system = system
        rank = system.rank
        self.identity = tuple(tuple(int(i == j) for j in range(rank)) for i in range(rank))
        self.simple = tuple(
            tuple(reflect_simple(system, a, j) for a in system.simple_roots)
            for j in range(rank)
        )
        self.neighbor_rows = tuple(
            tuple((i, system.cartan[i][j]) for i in sorted(system.adjacency[j]))
            for j in range(rank)
        )
        self.cartan_columns = tuple(zip(*system.cartan))

    def apply(self, w, coeffs) -> tuple:
        out = [0] * self.system.rank
        for c, row in zip(coeffs, w):
            for j, x in enumerate(row):
                out[j] += c * x
        return tuple(out)

    def general_product(self, u, v):
        return tuple(self.apply(u, row) for row in v)

    def times_simple(self, u, j):
        """u s_j by the row update."""
        rows = list(u)
        rows[j] = tuple(-x for x in u[j])
        for i, a in self.neighbor_rows[j]:
            rows[i] = tuple(x - a * y for x, y in zip(u[i], u[j]))
        return tuple(rows)

    def simple_times(self, j, u):
        """s_j u by the column update."""
        column = self.cartan_columns[j]
        return tuple(
            r[:j] + (r[j] - sum(x * c for x, c in zip(r, column)),) + r[j + 1:] for r in u
        )

    def from_word(self, word):
        w = self.identity
        for j in word:
            w = self.times_simple(w, j)
        return w

    def descent(self, w, letters):
        return next((j for j in letters if is_negative(w[j])), None)

    def reduced_word(self, w) -> tuple:
        word = []
        while (j := self.descent(w, range(self.system.rank))) is not None:
            word.append(j)
            w = self.times_simple(w, j)
        assert w == self.identity
        return tuple(reversed(word))

    def length(self, w) -> int:
        return sum(1 for a in self.system.positive_roots if is_negative(self.apply(w, a)))

    def inverse(self, w):
        return self.from_word(reversed(self.reduced_word(w)))

    def coset_min(self, w, parabolic):
        while (j := self.descent(w, sorted(parabolic.delta_p))) is not None:
            w = self.times_simple(w, j)
        return w

    def longest_element(self, subset):
        w = self.identity
        while (j := next((j for j in sorted(subset) if not is_negative(w[j])), None)) is not None:
            w = self.times_simple(w, j)
        return w

    def bruhat_leq(self, u, v) -> bool:
        """The lifting recursion on a right descent of v, as a loop (it never branches)."""
        while u != v:
            j = self.descent(v, range(self.system.rank))
            if j is None:
                return False
            if is_negative(u[j]):
                u = self.times_simple(u, j)
            v = self.times_simple(v, j)
        return True

    def hecke_word(self, u, word):
        for j in word:
            if not is_negative(u[j]):
                u = self.times_simple(u, j)
        return u

    def numbered_cosets(self, parabolic) -> tuple:
        """(cosets, left, lengths) by a BFS with Deodhar's row comparison, sorted by (length, word).

        s_j u W_P = u W_P for u in W^P iff u(alpha_k) = alpha_j for some k in Delta_P.
        """
        rank = self.system.rank
        found = {self.identity: 0}
        order, depth, steps = [self.identity], [0], [[None] * rank]
        for x_pos, x in enumerate(order):
            fixed = {x[k] for k in parabolic.delta_p}
            for j in range(rank):
                if steps[x_pos][j] is not None:
                    continue
                if self.identity[j] in fixed:
                    steps[x_pos][j] = x_pos
                    continue
                y = self.simple_times(j, x)
                if y not in found:
                    found[y] = len(order)
                    order.append(y)
                    depth.append(depth[x_pos] + 1)
                    steps.append([None] * rank)
                steps[x_pos][j] = found[y]
                steps[found[y]][j] = x_pos
        ranked = sorted(range(len(order)), key=lambda p: (depth[p], self.reduced_word(order[p])))
        number = {p: i for i, p in enumerate(ranked)}
        left = tuple(tuple(number[steps[p][j]] for p in ranked) for j in range(rank))
        return tuple(order[p] for p in ranked), left, tuple(depth[p] for p in ranked)


_ORACLES: dict = {}


def oracle_of(group) -> MatrixKernel:
    key = (group.system.type_letter, group.system.rank)
    if key not in _ORACLES:
        _ORACLES[key] = MatrixKernel(group.system)
    return _ORACLES[key]


def as_matrix(group, w):
    """The oracle's element spelled by the package's word of w."""
    return oracle_of(group).from_word(group.reduced_word(w))


def subword_leq(group, u, v):
    """Subword-criterion oracle: products of subwords of word(v) are exactly {x <= v}."""
    reachable = {group.identity}
    for j in group.reduced_word(v):
        s = group.simple_reflection(j)
        reachable |= {group.multiply(x, s) for x in reachable}
    return u in reachable


def left_descent_bruhat_oracle(group, u, v):
    """The left-descent recursion that bruhat_leq ran before, without its memo.

    With s a left descent of v (a right descent of v's inverse), u <= v iff
    su <= sv when su < u, else iff u <= sv; lengths end it at l(u) >= l(v).
    It never branches, so it is written as a loop.
    """
    while u != v:
        lu = group.length(u)
        if lu >= group.length(v):
            return False
        inv_v = group.inverse(v)
        j = next(j for j, c in enumerate(inv_v) if c < 0)
        s = group.simple_reflection(j)
        su = group.multiply(s, u)
        if group.length(su) < lu:
            u = su
        v = group.multiply(s, v)
    return True


def count_multiplies(group) -> list:
    """Route the instance's products through a counter; one entry per call."""
    calls = []
    product = group.multiply

    def counted(u, v):
        calls.append(None)
        return product(u, v)

    group.multiply = counted
    return calls


def check_kernel(group, w):
    """Products with each s_j on both sides, and the length, against the matrix kernel."""
    oracle = oracle_of(group)
    m = as_matrix(group, w)
    assert oracle.reduced_word(m) == group.reduced_word(w)
    for j in range(group.system.rank):
        s = group.simple_reflection(j)
        assert as_matrix(group, group.multiply(w, s)) == oracle.times_simple(m, j) == (
            oracle.general_product(m, oracle.simple[j])
        )
        assert as_matrix(group, group.multiply(s, w)) == oracle.simple_times(j, m) == (
            oracle.general_product(oracle.simple[j], m)
        )
    assert group.length(w) == oracle.length(m)


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
    oracle = oracle_of(group)
    word = [j % group.system.rank for j in word]
    w = group.from_word(word)
    assert as_matrix(group, w) == oracle.from_word(word)
    check_kernel(group, w)
    v = group.from_word(reversed(word[: len(word) // 2]))
    assert as_matrix(group, group.multiply(w, v)) == oracle.general_product(
        as_matrix(group, w), as_matrix(group, v)
    )


def check_against_oracle(group, w, others, parabolics):
    """Inverse, products, coset_min, bruhat_leq and hecke_word of w against the matrix kernel."""
    oracle = oracle_of(group)
    m = as_matrix(group, w)
    assert group.from_word(oracle.reduced_word(m)) == w
    assert as_matrix(group, group.inverse(w)) == oracle.inverse(m)
    for p in parabolics:
        assert as_matrix(group, group.coset_min(w, p)) == oracle.coset_min(m, p)
    words = [group.reduced_word(w), group.reduced_word(group.w_o)]
    for v in others:
        n = as_matrix(group, v)
        assert as_matrix(group, group.multiply(w, v)) == oracle.general_product(m, n)
        assert group.bruhat_leq(w, v) == oracle.bruhat_leq(m, n)
        assert group.bruhat_leq(v, w) == oracle.bruhat_leq(n, m)
        words.append(group.reduced_word(v))
    for word in words:
        assert as_matrix(group, group.hecke_word(w, word)) == oracle.hecke_word(m, word)


EVERY_ELEMENT_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]


@pytest.mark.parametrize("letter,rank", EVERY_ELEMENT_SYSTEMS)
def test_kernel_matches_the_matrix_oracle_on_every_element(letter, rank):
    """Every element against 12 others spread over W, on every parabolic."""
    group = WeylGroup(build_root_system(letter, rank))
    oracle = oracle_of(group)
    elements = group.elements()
    others = elements[:: max(1, len(elements) // 12)]
    parabolics = all_parabolics(rank)
    for w in elements:
        check_against_oracle(group, w, others, parabolics)
    for p in parabolics:
        assert as_matrix(group, group.longest_element(p)) == oracle.longest_element(p.delta_p)


@pytest.mark.parametrize("letter,rank", EVERY_ELEMENT_SYSTEMS)
def test_numbered_cosets_match_the_matrix_oracle(letter, rank):
    """The weight-keyed BFS records the Deodhar BFS's cosets, left table and lengths."""
    group = WeylGroup(build_root_system(letter, rank))
    oracle = oracle_of(group)
    for p in all_parabolics(rank):
        cosets, left, lengths = group.numbered_cosets(p)
        expected = oracle.numbered_cosets(p)
        assert (tuple(as_matrix(group, m) for m in cosets), left, lengths) == expected, p


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernel_matches_the_matrix_oracle_on_random_words(data):
    """Groups too large to check element by element: F4, E6 and C8 words, a parabolic."""
    group = weyl_group(*data.draw(st.sampled_from([("F", 4), ("E", 6), ("C", 8)])))
    rank = group.system.rank
    words = st.lists(st.integers(0, rank - 1), max_size=30)
    w, v = group.from_word(data.draw(words)), group.from_word(data.draw(words))
    p = Parabolic.from_indices(rank, data.draw(st.sets(st.integers(0, rank - 1))))
    check_against_oracle(group, w, [v, group.identity, group.w_o], [p])
    assert as_matrix(group, group.longest_element(p)) == oracle_of(group).longest_element(
        p.delta_p
    )


def test_a_zero_coordinate_raises():
    """A tuple with a 0 is no element: a step on it, or its word, raises."""
    group = WeylGroup(build_root_system("A", 3))
    doctored = (1, 0, 1)
    with pytest.raises(InvariantViolationError):
        group.multiply(doctored, group.simple_reflection(1))
    with pytest.raises(InvariantViolationError):
        group.reduced_word(doctored)


def test_the_zero_coordinate_check_survives_optimization():
    """python -O strips asserts; the check is no assert."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from qdeg.errors import InvariantViolationError\n"
        "from qdeg.rootsystem import build_root_system\n"
        "from qdeg.weylgroup import WeylGroup\n"
        "g = WeylGroup(build_root_system('A', 3))\n"
        "try:\n"
        "    g.multiply((1, 0, 1), g.simple_reflection(1))\n"
        "except InvariantViolationError:\n"
        "    print('raised')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "raised", out.stderr


def dense_step(system, x, j) -> tuple:
    """s_j(x) = x - x_j (row j of the Cartan matrix), every coordinate (test oracle)."""
    return tuple(c - x[j] * a for c, a in zip(x, system.cartan[j]))


def kernel_mismatches(group, seed=0, words=20, length=80) -> list:
    """(x, j) along random words where the sparse step or ``_descent`` differs from its oracle.

    Each walk starts at rho and follows the dense step, so every x is an
    element even where the kernel is wrong.
    """
    rng = random.Random(seed)
    system = group.system
    out = []
    for _ in range(words):
        x = group.identity
        for _ in range(length):
            if _descent(x) != next((j for j, c in enumerate(x) if c < 0), None):
                out.append((x, None))
            j = rng.randrange(system.rank)
            y = dense_step(system, x, j)
            if group.multiply(x, group.simple_reflection(j)) != y:
                out.append((x, j))
            x = y
    return out


@pytest.mark.parametrize("letter,rank", KERNEL_SYSTEMS)
def test_sparse_step_and_descent_match_the_dense_oracles(letter, rank):
    group = WeylGroup(build_root_system(letter, rank))
    assert kernel_mismatches(group) == []
    assert _descent(group.identity) is None


@pytest.mark.parametrize("letter,rank", KERNEL_SYSTEMS)
def test_a_neighbour_table_missing_one_entry_fails_the_oracles(letter, rank):
    """Drop alpha_1's first neighbour: both the Weyl step and the reflection words must notice."""
    system = build_root_system(letter, rank)
    table = list(system.neighbours)
    table[0] = table[0][1:]
    system.__dict__["neighbours"] = tuple(table)  # a cached_property, doctored before use
    assert kernel_mismatches(WeylGroup(system))
    assert word_mismatches(system)


def test_coset_max_rep_checks_lengths_without_assert():
    """The length invariant raises InvariantViolationError, which -O cannot strip."""
    group = WeylGroup(build_root_system("A", 2))
    p = Parabolic.from_indices(2, {1})
    group._word[group.identity] = (0,)  # corrupt one cached word: l(e) reads 1
    with pytest.raises(InvariantViolationError):
        group.coset_max_rep(group.identity, p)


def test_simple_reflections():
    group = weyl_group("B", 2)
    for j in range(2):
        s = group.simple_reflection(j)
        assert act(group, s, group.system.simple_roots[j]) == tuple(
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
    inversions = [a for a in group.system.positive_roots if is_negative(act(group, w, a))]
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
        assert is_negative(act(a2, a2.w_o, a))
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


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from([("D", 5), ("F", 4), ("E", 6), ("E", 7), ("C", 8), ("E", 8)]),
    words=st.lists(st.lists(st.integers(0, 7), max_size=30), min_size=2, max_size=2),
    mask=st.lists(st.booleans(), min_size=30, max_size=30),
)
def test_bruhat_matches_the_left_descent_and_subword_oracles_on_random_words(name, words, mask):
    """Groups too large to enumerate: u, v random words, and a subword of v below v."""
    group = weyl_group(*name)
    u, v = (group.from_word(j % group.system.rank for j in word) for word in words)
    below = group.from_word(j for j, keep in zip(group.reduced_word(v), mask) if keep)
    e = group.identity
    for x, y in [(u, v), (v, u), (below, v), (v, below), (u, u), (e, v), (v, e), (e, e)]:
        expected = left_descent_bruhat_oracle(group, x, y)
        assert group.bruhat_leq(x, y) == expected, (x, y)
        if group.length(y) <= 10:
            assert subword_leq(group, x, y) == expected, (x, y)
    assert group.bruhat_leq(below, v)


def test_bruhat_leq_takes_two_products_per_level_and_no_length():
    """e <= w_o on a fresh E7: at most 2 l(w_o) products, and no length, word or inverse.

    The left-descent recursion needs far more on the same query: it reads a
    length and an inverse, each a full reduced word, at every level.
    """
    bound = 2 * 63
    group = WeylGroup(build_root_system("E", 7))
    w_o, e = group.w_o, group.identity
    calls = count_multiplies(group)
    assert group.bruhat_leq(e, w_o)
    assert len(calls) <= bound
    assert group._word == {e: ()} and group._inverse == {e: e}
    old = WeylGroup(build_root_system("E", 7))
    w_o = old.w_o
    calls = count_multiplies(old)
    assert left_descent_bruhat_oracle(old, e, w_o)
    assert len(calls) > bound


def test_bruhat_leq_recurses_through_e8_longest_element_at_the_default_limit():
    """Depth l(w_o) = 120 fits the interpreter's default recursion limit."""
    assert sys.getrecursionlimit() >= 1000
    group = WeylGroup(build_root_system("E", 8))
    assert group.bruhat_leq(group.identity, group.w_o)
    assert not group.bruhat_leq(group.w_o, group.identity)


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


@pytest.mark.parametrize(
    "letter,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("E", 6), ("G", 2)]
)
def test_reflection_word_is_a_reduced_word_of_the_reflection(letter, rank):
    group = WeylGroup(build_root_system(letter, rank))
    system = group.system
    w_p = group.longest_element(range(1, rank))
    for a in system.positive_roots:
        for root in (a, tuple(-c for c in a)):
            word = system.reflection_word(root)
            s = group.reflection(root)
            # s(alpha_i) = alpha_i - <alpha_i, alpha^vee> alpha, by the pairing
            cov = gram_coroot(system, root)
            for simple in system.simple_roots:
                expected = tuple(e - pair(system, simple, cov) * c for e, c in zip(simple, root))
                assert act(group, s, simple) == expected
            assert group.from_word(word) == s
            assert len(word) == group.length(s)
            for y in (group.identity, w_p, group.w_o):
                assert group.hecke_word(y, word) == group.hecke_product(y, s)
    with pytest.raises(DomainError):
        system.reflection_word((2,) + (0,) * (rank - 1))  # 2 alpha_1 is no root


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


def test_a_capped_enumeration_is_never_stored(monkeypatch):
    group = WeylGroup(build_root_system("B", 3))
    p = Parabolic(3, frozenset({0}))
    monkeypatch.setattr(weylgroup, "ENUMERATION_CAP", 23)
    with pytest.raises(ResourceError, match="enumeration of 48 exceeded the cap of 23"):
        group.elements()
    with pytest.raises(ResourceError, match="enumeration of 24 exceeded the cap of 23"):
        group.cosets(p)
    assert not group.memo
    monkeypatch.setattr(weylgroup, "ENUMERATION_CAP", 24)
    assert len(group.cosets(p)) == 24
    with pytest.raises(ResourceError):
        group.elements()
    monkeypatch.setattr(weylgroup, "ENUMERATION_CAP", 48)
    assert len(group.elements()) == 48


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
