"""Distance fronts, adjacency graphs, witnesses, and exceptional roots."""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qdeg.cascade import d_x
from qdeg.curveneighborhood import z
from qdeg.degreelattice import Degree, c1, d_of_root, degree_box, minimal_elements, outside_roots
from qdeg.distance import (
    adjacency_graph,
    chain_front_exact,
    chain_witness,
    coset_order,
    delta_uv,
    delta_w,
    exceptional_roots,
    is_exceptional,
    verify_lemma_technical,
    verify_lemma_technical2,
)
from qdeg.distance import core
from qdeg.distance.core import (
    DegreeFront,
    _bits,
    _chain_ends,
    _coset_table,
    _search,
    _z_classes,
    coset_duals,
    hecke_rows,
)
from qdeg.distance.suites import _dense, _pairs_table
from qdeg.errors import DomainError, InvariantViolationError, VerificationError
from qdeg.rootsystem import build_root_system, coeffs_leq
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group

from conftest import all_parabolics, hecke_rows_oracle, minima_oracle, scan_front_oracle
from test_curveneighborhood import _count_calls
from test_weylgroup import subword_leq

PAIR_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G", 2)]
ORACLE_SYSTEMS = PAIR_SYSTEMS + [("D", 4)]


def test_delta_w_trivial():
    g2 = weyl_group("G", 2)
    for p in all_parabolics(2):
        assert delta_w(g2, p, g2.identity).degrees == (Degree.zero(p),)
        assert delta_w(g2, p, g2.w_o).degrees == (d_x(g2.system, p),)


def test_delta_w_g2_golden():
    g2 = weyl_group("G", 2)
    p2 = Parabolic.from_indices(2, {0})
    s_ts = g2.reflection(g2.system.highest_short_root)
    assert delta_w(g2, p2, s_ts).degrees == (Degree(p2, (2,)),)
    assert g2.system.coroot(g2.system.highest_short_root)[1] == 3


def scan_oracle(group, parabolic, w, pad):
    """delta_w as a per-point scan: z_d^P and a Bruhat test for every box point."""
    m = group.coset_min(w, parabolic)
    corner = d_x(group.system, parabolic)
    hits = [
        d
        for d in degree_box(parabolic, corner, pad + 1)
        if group.bruhat_leq(m, z(group, parabolic, d).z_min)
    ]
    inner = [
        d for d in hits if all(c <= t + pad for c, t in zip(d.coeffs, corner.coeffs))
    ]
    stable = minimal_elements(hits)
    front = minimal_elements(inner)
    if front != stable:
        extra = next(d for d in stable if d not in front)
        raise VerificationError(
            f"delta_w front unstable at box boundary: degree {extra.coeffs}"
        )
    return front


def _outcome(front, *args):
    try:
        return front(*args)
    except VerificationError as exc:
        return str(exc)


def test_delta_w_matches_the_per_point_scan():
    """Fronts and unstable-box errors agree on both hit paths; pad -1 makes most
    boxes unstable.

    A group that has enumerated W/W_P reads its hits off the coset table and
    makes no Bruhat test; a fresh group never enumerates and tests each class
    by bruhat_leq.  The oracle runs on a third group.
    """
    front = lambda *a: delta_w(*a).degrees
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)]:
        oracle = weyl_group(letter, rank)
        for p in all_parabolics(rank):
            table, recursion = WeylGroup(oracle.system), WeylGroup(oracle.system)
            cosets = table.cosets(p)
            for pad in (-1, 0, 1, 2):
                for m in cosets:
                    expected = _outcome(scan_oracle, oracle, p, m, pad)
                    for group in (table, recursion):
                        assert _outcome(front, group, p, m, pad) == expected, (letter, p, pad, m)
            assert table._bruhat == {}
            assert ("class-masks", p.delta_p, 2) in table.memo
            assert not recursion.enumerated(p)
            assert ("coset-table", p.delta_p) not in recursion.memo


@pytest.mark.parametrize("letter,rank", ORACLE_SYSTEMS)
def test_one_sweep_minima_and_fronts_match_the_two_sweep_oracles(letter, rank):
    """Each z-class's minima, and the front or unstable-box error of every delta_w hit set and
    of every single class, against one minimal_elements sweep per box.  Pad -1 makes most
    boxes unstable, so the error path is compared too."""
    group = weyl_group(letter, rank)
    front = lambda *a: core._scan_front(*a).degrees
    for p in all_parabolics(rank):
        cosets = group.cosets(p)
        for pad in (-1, 0, 1, 2):
            classes = _z_classes(group, p, pad)
            assert [c.minima for c in classes] == [minima_oracle(c) for c in classes], (p, pad)
            hits = {tuple(i for i, c in enumerate(classes) if group.bruhat_leq(m, c.z)) for m in cosets}
            for hit in sorted(hits | {(i,) for i in range(len(classes))}):
                expected = _outcome(scan_front_oracle, group, p, pad, hit)
                assert _outcome(front, group, p, pad, hit) == expected, (p, pad, hit)


@pytest.mark.parametrize("letter,rank", ORACLE_SYSTEMS)
def test_hecke_rows_match_the_per_class_split(letter, rank):
    """Rows split by covering coset, a hit set an int mask, against the split class by class."""
    group = weyl_group(letter, rank)
    for p in all_parabolics(rank):
        for pad in (0, 1, 2):
            assert list(hecke_rows(group, p, pad)) == list(hecke_rows_oracle(group, p, pad)), (p, pad)


@pytest.mark.parametrize("letter,rank,beta", [("E", 7, 6), ("E", 8, 7), ("E", 8, 0)])
def test_delta_w_never_enumerates(letter, rank, beta):
    """w_o on the maximal parabolic P_beta of E7 and E8: d_X by recursion alone."""
    group = WeylGroup(build_root_system(letter, rank))
    p = Parabolic(rank, frozenset(range(rank)) - {beta})
    assert delta_w(group, p, group.w_o).degrees == (d_x(group.system, p),)
    assert not any(key[0] in ("cosets", "elements", "coset-table") for key in group.memo)


def test_delta_w_raises_on_an_unstable_box():
    group = WeylGroup(build_root_system("G", 2))
    borel = Parabolic(2, frozenset())
    with pytest.raises(VerificationError, match="unstable at box boundary"):
        delta_w(group, borel, group.w_o, pad=-1)


def test_a_parabolic_of_another_rank_leaves_the_memos_clean():
    group = WeylGroup(build_root_system("B", 3))
    with pytest.raises(DomainError):
        delta_w(group, Parabolic(2, frozenset({0})), group.w_o)
    p = Parabolic(3, frozenset({0}))
    assert delta_w(group, p, group.w_o).degrees == (Degree(p, (2, 2)),)
    assert d_x(group.system, p).coeffs == (2, 2)
    system = build_root_system("B", 3)
    with pytest.raises(DomainError):
        d_x(system, Parabolic(2, frozenset({0})))
    assert d_x(system, p).coeffs == (2, 2)


def test_adjacency_graph_a2():
    a2 = weyl_group("A", 2)
    b = Parabolic.from_indices(2, set())
    graph = adjacency_graph(a2, b)
    assert len(graph.cosets) == 6
    # brute-force recount: unordered pairs {u, us_alpha} over elements and roots
    pairs = set()
    for u in a2.elements():
        for alpha in a2.system.positive_roots:
            v = a2.multiply(u, a2.reflection(alpha))
            if v != u:
                pairs.add(frozenset((u, v)))
    edges = {
        frozenset((graph.cosets[i], graph.cosets[j]))
        for i in range(6)
        for j, _, _ in graph.edges[i]
    }
    assert edges == pairs
    # every edge connects strictly comparable cosets
    for i in range(6):
        for j, _, _ in graph.edges[i]:
            u, v = graph.cosets[i], graph.cosets[j]
            assert a2.bruhat_leq(u, v) != a2.bruhat_leq(v, u)


def test_adjacency_comparable_everywhere():
    for letter, rank in [("B", 2), ("G", 2)]:
        group = weyl_group(letter, rank)
        for p in all_parabolics(rank):
            graph = adjacency_graph(group, p)
            for i in range(len(graph.cosets)):
                for j, _, _ in graph.edges[i]:
                    u, v = graph.cosets[i], graph.cosets[j]
                    assert group.bruhat_leq(u, v) != group.bruhat_leq(v, u)


def test_delta_uv_zero_iff():
    b2 = weyl_group("B", 2)
    for p in all_parabolics(2):
        for u in b2.cosets(p):
            for v in b2.cosets(p):
                front = delta_uv(b2, p, u, v)
                zero = front.degrees == (Degree.zero(p),)
                assert zero == b2.bruhat_leq_coset(u, b2.dual(v), p)


def test_delta_uv_symmetry_g2():
    g2 = weyl_group("G", 2)
    b = Parabolic.from_indices(2, set())
    cosets = g2.cosets(b)
    for u in cosets:
        for v in cosets:
            assert delta_uv(g2, b, u, v).degrees == delta_uv(g2, b, v, u).degrees


def test_delta_uv_wo_wo_is_dx():
    g2 = weyl_group("G", 2)
    for p in all_parabolics(2):
        front = delta_uv(g2, p, g2.w_o, g2.w_o)
        assert front.degrees == (d_x(g2.system, p),)


def brute_chain_front(group, parabolic, u, v, cap):
    """Enumerate every chain (walk) within the degree cap; no dominance pruning."""
    from qdeg.degreelattice import minimal_elements

    graph = adjacency_graph(group, parabolic)
    n = len(graph.cosets)
    ui = graph.index[group.coset_min(u, parabolic)]
    vstar = graph.index[group.coset_min(group.dual(v), parabolic)]
    seeds = [i for i in range(n) if group.bruhat_leq(graph.cosets[ui], graph.cosets[i])]
    terminal = [group.bruhat_leq(graph.cosets[i], graph.cosets[vstar]) for i in range(n)]
    found = set()
    stack = [(s, (0,) * len(parabolic.free)) for s in seeds]
    seen_states = set(stack)
    while stack:
        i, deg = stack.pop()
        if terminal[i]:
            found.add(deg)
        for j, weight, _ in graph.edges[i]:
            total = tuple(x + y for x, y in zip(deg, weight))
            if any(c > t for c, t in zip(total, cap)):
                continue
            state = (j, total)
            if state not in seen_states:
                seen_states.add(state)
                stack.append(state)
    return minimal_elements(Degree(parabolic, c) for c in found)


def test_delta_uv_against_walk_enumeration():
    for letter, rank in [("A", 2), ("B", 2)]:
        group = weyl_group(letter, rank)
        for p in all_parabolics(rank):
            cap = tuple(c + 1 for c in d_x(group.system, p).coeffs)
            for u in group.cosets(p):
                for v in group.cosets(p):
                    brute = brute_chain_front(group, p, u, v, cap)
                    assert delta_uv(group, p, u, v).degrees == brute


def test_reversed_chain_search_matches_the_forward_one():
    """delta_uv searches from v's chain ends; the forward search from u's up-set agrees."""
    pairs = 0
    for letter, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2)]:
        group = weyl_group(letter, rank)
        for p in all_parabolics(rank):
            cosets = group.cosets(p)
            ends = [_chain_ends(group, p, j) for j in range(len(cosets))]
            for i, u in enumerate(cosets):
                forward = _search(group, p, i, "up", 2)
                unpack = forward.labels.unpack
                for j, v in enumerate(cosets):
                    union = (Degree(p, unpack(t)) for y in ends[j] for t in forward.fronts[y])
                    expected = minimal_elements(union)
                    assert delta_uv(group, p, u, v).degrees == expected, (letter, p, i, j)
                    pairs += 1
    assert pairs == 9848


def union_read_oracle(group, parabolic, u, v, pad):
    """delta_uv read as the union of its search's fronts over the cosets above u (test oracle)."""
    index = adjacency_graph(group, parabolic).index
    result = _search(group, parabolic, index[group.coset_min(v, parabolic)], "ends", pad)
    starts = _bits(coset_order(group, parabolic)[index[group.coset_min(u, parabolic)]])
    unpack = result.labels.unpack
    union = (Degree(parabolic, unpack(t)) for x in starts for t in result.fronts[x])
    return DegreeFront(minimal_elements(union), "chain", result.cap_hit)


def test_delta_uv_read_at_u_alone_matches_the_union_above_u():
    """The front at u alone equals the union read, cap_hit included, at pads 0-2."""
    triples = 0
    for letter, rank in PAIR_SYSTEMS:
        group = WeylGroup(build_root_system(letter, rank))
        for p in all_parabolics(rank):
            cosets = group.cosets(p)
            for pad in range(3):
                for u in cosets:
                    for v in cosets:
                        expected = union_read_oracle(group, p, u, v, pad)
                        assert delta_uv(group, p, u, v, pad) == expected, (letter, p, pad)
                        triples += 1
    assert triples == 3 * 9848


def test_chain_witness_roundtrip():
    g2 = weyl_group("G", 2)
    b = Parabolic.from_indices(2, set())
    graph = adjacency_graph(g2, b)
    for u in g2.cosets(b):
        for d in delta_w(g2, b, u).degrees:
            witness = chain_witness(g2, b, u, g2.w_o, d, exact=True)
            assert witness.total == d
            assert witness.cosets[0] == u
            assert witness.cosets[-1] == g2.identity
            # consecutive cosets really are adjacent with the recorded roots
            for x, y, alpha in zip(witness.cosets, witness.cosets[1:], witness.edge_roots):
                assert g2.coset_min(g2.multiply(x, g2.reflection(alpha)), b) == y


def test_exact_front_contains_delta():
    b2 = weyl_group("B", 2)
    for p in all_parabolics(2):
        for u in b2.cosets(p):
            exact = chain_front_exact(b2, p, u, b2.identity)
            for d in delta_w(b2, p, u).degrees:
                assert d in exact


def test_exceptional_none_small():
    for letter, rank in [("A", 4), ("B", 3), ("C", 4), ("D", 4), ("G", 2)]:
        group = weyl_group(letter, rank)
        assert exceptional_roots(group.system, group) == []


def test_exceptional_f4():
    f4 = weyl_group("F", 4)
    reports = exceptional_roots(f4.system, f4)
    assert [r.root for r in reports] == [(1, 2, 2, 2), (1, 2, 4, 2)]
    for r in reports:
        assert r.ineq1_holds and r.ineq1_strict
        assert r.ineq3_holds and r.ineq3_strict
        assert r.strongly_orthogonal and r.b_cosmall and r.alt_b_cosmall_agrees


def test_exceptional_b5():
    b5 = weyl_group("B", 5)
    reports = exceptional_roots(b5.system, b5)
    assert {r.root for r in reports} == {(1, 1, 1, 2, 2), (1, 1, 1, 1, 2)}


def test_lemma_technical_worked_cases():
    b5 = weyl_group("B", 5)
    report = verify_lemma_technical(b5.system, (1, 1, 1, 2, 2))  # the j = 4 root
    assert report["beta"] == 1
    # phi = alpha_2 + ... + alpha_{j-2} and alpha_{beta,phi} = sum up to floor(j/2)
    assert report["phi"] == (0, 1, 0, 0, 0)
    assert report["alpha_beta_phi"] == (0, 1, 0, 0, 0)
    f4 = weyl_group("F", 4)
    verify_lemma_technical(f4.system, (1, 2, 2, 2))
    e6 = weyl_group("E", 6)
    verify_lemma_technical(e6.system, (1, 1, 1, 2, 1, 1))
    for system in (b5.system, f4.system, e6.system):
        for report in exceptional_roots(system, weyl_group(system.type_letter, system.rank)):
            verify_lemma_technical2(system, report.root)


@pytest.mark.parametrize("error", [InvariantViolationError("broken"), TypeError("bad argument")])
def test_lemma_technical_reports_only_a_domain_error_as_a_non_a_component(monkeypatch, error):
    """A DomainError of alpha_beta_phi is the non-type-A verdict; any other error propagates."""
    from qdeg.distance import exceptional

    system = weyl_group("B", 5).system
    alpha = (1, 1, 1, 2, 2)

    def raising(*args):
        raise error

    monkeypatch.setattr(exceptional, "_alpha_beta_phi", raising)
    with pytest.raises(type(error), match=str(error)):
        verify_lemma_technical(system, alpha)

    def not_type_a(*args):
        raise DomainError("component is not of type A")

    monkeypatch.setattr(exceptional, "_alpha_beta_phi", not_type_a)
    with pytest.raises(VerificationError, match="component of beta is not of type A"):
        verify_lemma_technical(system, alpha)


def test_front_coverage_exploration():
    from qdeg.distance import front_coverage

    g2 = weyl_group("G", 2)
    b = Parabolic.from_indices(2, set())
    coverage = front_coverage(g2, b)
    # the interval [0, d_X] is not covered: (2,1) is never a minimal pair degree
    assert Degree(b, (2, 1)) in coverage.gaps
    assert Degree.zero(b) in coverage.achieved
    assert d_x(g2.system, b) in coverage.achieved
    # on G/B every pair front is one degree (Postnikov 2005)
    assert coverage.nonsingleton_pairs == ()


def test_lemma_technical_b_series_shapes():
    """B_l worked case: phi = alpha_2..alpha_{j-2}, interval root up to floor(j/2)."""
    b6 = weyl_group("B", 6)
    system = b6.system
    for j in (4, 5, 6):
        alpha = tuple(1 if i < j - 1 else 2 for i in range(6))
        report = verify_lemma_technical(system, alpha)
        assert report["beta"] == 1
        phi = tuple(1 if 1 <= i <= j - 3 else 0 for i in range(6))
        assert report["phi"] == phi
        interval = tuple(1 if 1 <= i <= j // 2 - 1 else 0 for i in range(6))
        assert report["alpha_beta_phi"] == interval
        assert report["component_size"] == j - 3


def test_exceptional_alt_condition_reported():
    """The conjectural B-cosmall replacement agrees empirically on all roots."""
    from qdeg.distance.exceptional import _alt_condition

    for letter, rank in [("B", 4), ("B", 5), ("D", 5), ("F", 4), ("E", 6), ("G", 2)]:
        group = weyl_group(letter, rank)
        system = group.system
        for alpha in system.positive_roots:
            assert _alt_condition(system, group, alpha) == is_exceptional(system, alpha)


# -- the integer coset tables against the matrix algorithms -------------------

TABLE_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("A", 4), ("B", 4), ("D", 4)]


def matrix_adjacency_oracle(group, parabolic):
    """(cosets, edges) built by matrices: u s_alpha and its coset_min for every edge."""
    system = group.system
    cosets = group.cosets(parabolic)
    index = {m: i for i, m in enumerate(cosets)}
    edges = []
    for m in cosets:
        seen = {}
        out = []
        for alpha in outside_roots(system, parabolic):
            target = group.coset_min(group.multiply(m, group.reflection(alpha)), parabolic)
            if target == m:
                continue
            weight = d_of_root(system, parabolic, alpha).coeffs
            j = index[target]
            if j in seen:
                assert seen[j] == weight
                continue
            seen[j] = weight
            out.append((j, weight, alpha))
        edges.append(tuple(out))
    return cosets, tuple(edges)


@pytest.mark.parametrize("letter,rank", TABLE_SYSTEMS)
def test_coset_tables_against_descent_recursion(letter, rank):
    """Bitset down-sets, up-sets, chain ends and duals against bruhat_leq and w_o u."""
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        table = _coset_table(group, p)
        cosets = table.cosets
        assert cosets == group.cosets(p)
        leq = [[group.bruhat_leq(u, v) for v in cosets] for u in cosets]
        for i in range(len(cosets)):
            for j in range(len(cosets)):
                assert bool(table.down[j] >> i & 1) == leq[i][j], (letter, p, i, j)
        up = coset_order(group, p)
        assert up == tuple(sum(1 << j for j, below in enumerate(row) if below) for row in leq)
        duals = coset_duals(group, p)
        assert duals == tuple(table.index[group.coset_min(group.dual(m), p)] for m in cosets)
        for j, dual in enumerate(duals):
            assert _chain_ends(group, p, j) == [y for y in range(len(cosets)) if leq[y][dual]]


@pytest.mark.parametrize("letter,rank", TABLE_SYSTEMS + [("F", 4)])
def test_adjacency_walks_against_matrix_products(letter, rank):
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        graph = adjacency_graph(group, p)
        assert (graph.cosets, graph.edges) == matrix_adjacency_oracle(group, p), (letter, p)


HYPOTHESIS_SYSTEMS = [
    ("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_bitset_membership_against_descent_recursion_and_subwords(data):
    """A random (type, parabolic, two words); half the time u is a subword of v."""
    letter, rank = data.draw(st.sampled_from(HYPOTHESIS_SYSTEMS))
    group = weyl_group(letter, rank)
    p = Parabolic.from_indices(rank, data.draw(st.sets(st.integers(0, rank - 1))))
    word_v = data.draw(st.lists(st.integers(0, rank - 1), max_size=24))
    v = group.from_word(word_v)
    if data.draw(st.booleans()):
        word_u = [j for j in word_v if data.draw(st.booleans())]
    else:
        word_u = data.draw(st.lists(st.integers(0, rank - 1), max_size=24))
    u = group.from_word(word_u)
    table = _coset_table(group, p)
    mu, mv = group.coset_min(u, p), group.coset_min(v, p)
    below = bool(table.down[table.index[mv]] >> table.index[mu] & 1)
    assert below == group.bruhat_leq_coset(u, v, p) == subword_leq(group, mu, mv)


def corrupt_recorded(group, parabolic, left, lengths):
    """Replace the left table and lengths that group.cosets(parabolic) recorded."""
    _, *recorded = group.numbered_cosets(parabolic)
    key = next(k for k, v in group.memo.items() if v == tuple(recorded))
    group.memo[key] = (left, lengths)


def left_table_oracle(group, parabolic):
    """left[j][i] by one product per (coset, j): s_j u_i is a minimal representative or
    lies in u_i W_P (Deodhar's lemma), so a product not in the index stays at i."""
    cosets = group.cosets(parabolic)
    index = {m: i for i, m in enumerate(cosets)}
    return tuple(
        tuple(index.get(group.multiply(s, m), i) for i, m in enumerate(cosets))
        for s in map(group.simple_reflection, range(group.system.rank))
    )


@pytest.mark.parametrize("letter,rank", TABLE_SYSTEMS + [("F", 4)])
def test_recorded_left_table_against_products(letter, rank):
    """The table the coset BFS records, and its depths, against products and lengths."""
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        table = _coset_table(group, p)
        assert table.left == left_table_oracle(group, p), (letter, p)
        assert table.lengths == tuple(group.length(m) for m in table.cosets), (letter, p)


def test_coset_tables_and_edges_make_no_products(monkeypatch):
    """After the enumeration, no table or edge multiplies Weyl group elements."""
    group = WeylGroup(build_root_system("B", 3))
    parabolics = all_parabolics(3)
    coset_mins = _count_calls(monkeypatch, group, "coset_min")
    for p in parabolics:
        group.cosets(p)
    assert coset_mins == []
    products = _count_calls(monkeypatch, group, "multiply")
    for p in parabolics:
        _coset_table(group, p)
        adjacency_graph(group, p)
    assert products == []


def test_table_invariants_raise():
    """Corrupted recorded tables: no left descent, a short top down-set, a dual map
    that is no involution or breaks lengths."""
    a1 = WeylGroup(build_root_system("A", 1))
    borel1 = Parabolic(1, frozenset())
    corrupt_recorded(a1, borel1, ((0, 1),), (0, 1))
    with pytest.raises(InvariantViolationError, match="coset #1 has no left descent"):
        _coset_table(a1, borel1)
    group = WeylGroup(build_root_system("A", 2))
    p = Parabolic(2, frozenset({0}))
    corrupt_recorded(group, p, ((1, 0, 2), (2, 1, 0)), (0, 1, 2))
    with pytest.raises(InvariantViolationError, match="top coset"):
        _coset_table(group, p)
    borel = Parabolic(2, frozenset())
    s2 = (2, 4, 0, 5, 1, 3)  # the true row of s_2; s_1's is (1, 0, 3, 2, 5, 4)
    # s_1's row with entries 0, 2 or 4, 5 swapped keeps a descent at every coset
    for s1, message in (((3, 0, 1, 2, 5, 4), "involution"), ((1, 0, 3, 2, 4, 5), "l\\(w_X\\)")):
        group = WeylGroup(build_root_system("A", 2))
        _, left, lengths = group.numbered_cosets(borel)
        assert (left, lengths) == (((1, 0, 3, 2, 5, 4), s2), (0, 1, 1, 2, 2, 3))
        corrupt_recorded(group, borel, (s1, s2), (0, 1, 1, 2, 2, 3))
        with pytest.raises(InvariantViolationError, match=message):
            coset_duals(group, borel)


def test_adjacency_invariants_at_the_identity_coset_raise():
    """A root that fixes eW_P, or two roots with one target and two degrees, in a doctored table."""
    borel = Parabolic(2, frozenset())
    for doctor, message in (
        (lambda left: (tuple(range(6)), left[1]), "fixes eW_P"),
        (lambda left: (left[0], left[0]), "different degrees"),
    ):
        group = WeylGroup(build_root_system("A", 2))
        table = _coset_table(group, borel)
        group.memo[("coset-table", borel.delta_p)] = replace(table, left=doctor(table.left))
        with pytest.raises(InvariantViolationError, match=message):
            adjacency_graph(group, borel)


def pairs_dict(group, parabolic, pad):
    """The streamed pair rows, each expanded by ``_dense``, as one {(i, j): front} dict, in row order."""
    n = len(group.cosets(parabolic))
    rows = _pairs_table(group, parabolic, pad)
    return {(i, j): front for i, parts in rows for j, front in enumerate(_dense(parts, n))}


def direct_pairs_oracle(group, parabolic, pad):
    """The pair table as a direct read: minimal labels over every chain end of each pair."""
    n = len(group.cosets(parabolic))
    ends = [_chain_ends(group, parabolic, j) for j in range(n)]
    table = []
    for i in range(n):
        result = _search(group, parabolic, i, "up", pad)
        for j in range(n):
            union = (result.labels.unpack(t) for y in ends[j] for t in result.fronts[y])
            table.append(((i, j), minimal_elements(union)))
    return table


def row_parts_fault(parts, n):
    """Why the parts of a pair row of n columns break its invariant, or None.

    The masks must be nonempty and disjoint, cover range(n), and be ordered
    by lowest column.
    """
    seen, last = 0, -1
    for mask, _ in parts:
        if not mask:
            return "empty mask"
        if mask & seen:
            return "overlapping masks"
        low = (mask & -mask).bit_length() - 1
        if low <= last:
            return "not ordered by lowest column"
        seen, last = seen | mask, low
    return None if seen == (1 << n) - 1 else "uncovered column"


@pytest.mark.parametrize("letter,rank", PAIR_SYSTEMS + [("D", 4)])
def test_pairs_table_matches_the_direct_read(letter, rank):
    """The Hecke table in value and (i, j) order against the chain read over every chain end;
    every row's parts keep the row invariant."""
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        n = len(group.cosets(p))
        for pad in (0, 1, 2):
            rows = list(_pairs_table(group, p, pad))
            assert [i for i, _ in rows] == list(range(n))
            assert [row_parts_fault(parts, n) for _, parts in rows] == [None] * n, (p, pad)
            dense = [((i, j), f) for i, parts in rows for j, f in enumerate(_dense(parts, n))]
            assert dense == direct_pairs_oracle(group, p, pad)


def test_a_dropped_column_or_an_overlapping_mask_breaks_the_row_invariant():
    """The invariant check sees each fault, on the point row of B3 with the Borel."""
    group = WeylGroup(build_root_system("B", 3))
    borel = Parabolic(3, frozenset())
    n = len(group.cosets(borel))
    *_, parts = hecke_rows(group, borel, 2)
    assert row_parts_fault(parts, n) is None
    k = next(k for k, (mask, _) in enumerate(parts) if mask.bit_count() > 1)
    mask, front = parts[k]
    top = 1 << (mask.bit_length() - 1)  # a column of the part above its lowest one
    faults = {
        "uncovered column": parts[:k] + ((mask ^ top, front),) + parts[k + 1 :],
        "overlapping masks": parts + ((top, front),),
        "not ordered by lowest column": parts[::-1],
        "empty mask": ((0, ()),) + parts,
    }
    for fault, doctored in faults.items():
        assert row_parts_fault(doctored, n) == fault


def test_a_wrong_class_walk_fails_the_point_row_check():
    """The class of degree 0 walked from w_o in place of its z = e covers every column of the
    point row, so the Hecke row reads 0 where the chain search reads more.  The rows above it
    stream first: the check runs before the point row is yielded."""
    group = WeylGroup(build_root_system("B", 2))
    borel = Parabolic(2, frozenset())
    classes = _z_classes(group, borel, 2)
    (zero,) = (i for i, c in enumerate(classes) if (0, 0) in c.points)
    key = ("z-classes", borel.delta_p, 2)
    group.memo[key] = tuple(
        replace(c, z=group.w_o) if i == zero else c for i, c in enumerate(classes)
    )
    rows = _pairs_table(group, borel, 2)
    assert [i for i, _ in itertools.islice(rows, 7)] == list(range(7))
    with pytest.raises(InvariantViolationError, match="chain and Hecke fronts differ at u#7"):
        next(rows)


@pytest.mark.parametrize("letter,rank", PAIR_SYSTEMS + [("D", 4)])
def test_up_search_fronts_are_monotone_in_bruhat_order(letter, rank):
    """For x covered by y, every label at x dominates some label at y.

    This is what lets a pair table read its front at w_o u_j W_P alone: the
    cosets reached within degree d from an up-set form an up-set
    (Buch-Mihalcea 2015, curve neighborhoods of Schubert varieties).
    """
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        cosets = group.cosets(p)
        lengths = [group.length(m) for m in cosets]
        covers = [
            [
                x
                for x, u in enumerate(cosets)
                if lengths[x] == lengths[y] - 1 and group.bruhat_leq(u, v)
            ]
            for y, v in enumerate(cosets)
        ]
        for i in range(len(cosets)):
            result = _search(group, p, i, "up", 2)
            fronts = [[result.labels.unpack(t) for t in front] for front in result.fronts]
            for y, below in enumerate(covers):
                for x in below:
                    for low in fronts[x]:
                        assert any(coeffs_leq(high, low) for high in fronts[y]), (p, i, x, y)


def qbg_pairs_oracle(group, parabolic):
    """For each pair (i, j), the weights of the shortest paths from u_i to w_o u_j W_P.

    The parabolic quantum Bruhat graph (Postnikov 2005; Lam-Shimozono 2010,
    section 10) keeps an adjacency edge (u_i, alpha) to u_k as an edge of
    weight 0 when l(u_k) = l(u_i) + 1, of weight d(alpha) when
    l(u_k) = l(u_i) + 1 - <c_1, d(alpha)>, and drops it otherwise.  Paths are
    shortest by edge count; no cap bounds the weights.
    """
    graph = adjacency_graph(group, parabolic)
    lengths = [group.length(m) for m in graph.cosets]
    chern = c1(group.system, parabolic)
    zero = (0,) * len(parabolic.free)
    arcs = []
    for i, out in enumerate(graph.edges):
        kept = []
        for k, weight, _ in out:
            if lengths[k] == lengths[i] + 1:
                kept.append((k, zero))
            elif lengths[k] == lengths[i] + 1 - chern.pair(Degree(parabolic, weight)):
                kept.append((k, weight))
        arcs.append(kept)
    duals = coset_duals(group, parabolic)
    table = {}
    for i in range(len(arcs)):
        weights = {i: {zero}}
        layer = [i]
        while layer:
            found: dict = {}
            for v in layer:
                for k, weight in arcs[v]:
                    if k not in weights:
                        found.setdefault(k, set()).update(
                            tuple(a + b for a, b in zip(w, weight)) for w in weights[v]
                        )
            weights.update(found)
            layer = list(found)
        for j, dual in enumerate(duals):
            table[(i, j)] = weights[dual]
    return table


@pytest.mark.parametrize("letter,rank", PAIR_SYSTEMS + [("D", 4)])
def test_pairs_table_against_the_quantum_bruhat_graph(letter, rank):
    """The pair table equals the QBG oracle's minimal path weights; every front is one degree."""
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        table = pairs_dict(group, p, 2)
        qbg = qbg_pairs_oracle(group, p)
        assert table.keys() == qbg.keys()
        for pair, front in table.items():
            assert front == tuple(minimal_elements(qbg[pair])), (letter, p, pair)
            assert len(front) == len(qbg[pair]) == 1, (letter, p, pair)


def test_pairs_table_runs_one_chain_search_per_parabolic(monkeypatch):
    """Only the point-class row is searched by chains, for the cross-check."""
    calls = []
    search = core._pareto_search
    monkeypatch.setattr(core, "_pareto_search", lambda *a: calls.append(a) or search(*a))
    group = WeylGroup(build_root_system("B", 3))
    parabolics = list(all_parabolics(3))
    for p in parabolics:
        pairs_dict(group, p, 2)
    assert len(calls) == len(parabolics)
    assert [key for key in group.memo if key[0] == "search"] == [
        ("search", p.delta_p, len(group.cosets(p)) - 1, "up", 2) for p in parabolics
    ]


RANK_3_SYSTEMS = [("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_one_pair_by_the_scan_the_chain_search_and_the_quantum_bruhat_graph(data):
    """delta_w(u) = delta_uv(u, w_o) = the Hecke row of u at w_o = the QBG oracle's pair, for
    a drawn type, parabolic and word u."""
    letter, rank = data.draw(st.sampled_from(RANK_3_SYSTEMS))
    group = weyl_group(letter, rank)
    p = Parabolic.from_indices(rank, data.draw(st.sets(st.integers(0, rank - 1))))
    u = group.from_word(data.draw(st.lists(st.integers(0, rank - 1), max_size=12)))
    scan = tuple(d.coeffs for d in delta_w(group, p, u).degrees)
    chain = tuple(d.coeffs for d in delta_uv(group, p, u, group.w_o).degrees)
    i = _coset_table(group, p).index[group.coset_min(u, p)]
    top = len(group.cosets(p)) - 1
    hecke = _dense(next(itertools.islice(hecke_rows(group, p, 2), i, None)), top + 1)[top]
    qbg = minimal_elements(qbg_pairs_oracle(group, p)[(i, top)])
    assert scan == chain == hecke == qbg, (letter, p, group.reduced_word(u))
