"""Packed degree labels: the codec, and the chain search against its tuple form."""

from collections import deque
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qdeg.cascade import d_x
from qdeg.degreelattice import Degree, coeffs_leq, minimal_elements
from qdeg.distance import adjacency_graph, chain_witness, coset_order, delta_uv
from qdeg.distance.core import (
    PackedLabels,
    _bits,
    _chain_ends,
    _pareto_search,
    _search,
    coset_duals,
)
from qdeg.errors import DomainError, InvariantViolationError, VerificationError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group

from conftest import all_parabolics, ends_search


def tuple_pareto_search(graph, seeds, cap):
    """The chain search on coefficient tuples, as it was before labels were packed.

    cap_hit: some label that survives in the fronts has an edge past the cap.
    """
    n = len(graph.cosets)
    fronts = [set() for _ in range(n)]
    parents = {}
    pruned = []
    zero = (0,) * len(cap)
    queue = deque()
    for s in seeds:
        fronts[s].add(zero)
        parents[(s, zero)] = None
        queue.append((s, zero))
    while queue:
        v, deg = queue.popleft()
        if deg not in fronts[v]:
            continue
        for j, weight, alpha in graph.edges[v]:
            cand = tuple(x + y for x, y in zip(deg, weight))
            if any(c > t for c, t in zip(cand, cap)):
                pruned.append((v, deg))
                continue
            front = fronts[j]
            if cand in front or any(coeffs_leq(old, cand) for old in front):
                continue
            front.difference_update([old for old in front if coeffs_leq(cand, old)])
            front.add(cand)
            parents.setdefault((j, cand), (v, deg, alpha))
            queue.append((j, cand))
    return fronts, parents, any(deg in fronts[v] for v, deg in pruned)


def brute_minimal(tuples):
    return sorted(t for t in set(tuples) if not any(o != t and coeffs_leq(o, t) for o in tuples))


def star_search(labels, weights, cap=None):
    """The chain search on a star: seed 0, one edge per weight to vertex 1.

    Returns the front at vertex 1, unpacked in the order a reader sorts it,
    and cap_hit.  cap defaults to the codec's own.
    """
    star = (tuple((1, labels.pack(w), None) for w in weights), ())
    codec = replace(labels, edges=star, cap=labels.cap if cap is None else labels.pack(cap))
    result = _pareto_search(codec, (0,))
    return [labels.unpack(t) for t in sorted(result.fronts[1])], result.cap_hit


@st.composite
def codecs(draw):
    """A codec for a random cap and heaviest edge weight, 0 to 4 coefficients."""
    size = draw(st.integers(0, 4))
    cap = tuple(draw(st.lists(st.integers(0, 40), min_size=size, max_size=size)))
    weight = tuple(draw(st.lists(st.integers(0, 9), min_size=size, max_size=size)))
    return PackedLabels.build(cap, (((0, weight, None),),)), cap, weight


def coefficients(labels, bound=None):
    """Coefficient tuples for the codec; the field's top value is drawn often."""
    top = (1 << (labels.width - 1)) - 1
    tops = [top] * labels.size if bound is None else list(bound)
    return st.tuples(*(st.one_of(st.just(t), st.just(0), st.integers(0, t)) for t in tops))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_codec_matches_tuple_arithmetic(data):
    labels, cap, weight = data.draw(codecs())
    assert labels.width > (max(cap + weight, default=0)).bit_length()
    a = data.draw(coefficients(labels))
    b = data.draw(coefficients(labels))
    pa, pb = labels.pack(a), labels.pack(b)
    assert labels.unpack(pa) == a and labels.unpack(pb) == b
    assert (pa < pb) == (a < b)  # int order is lex order
    # under a cap no label reaches, the search keeps the lower of two labels exactly when <= holds
    top = (1 << (labels.width - 1)) - 1
    assert (star_search(labels, [a, b], (top,) * labels.size) == ([a], False)) == coeffs_leq(a, b)
    # a label under the cap plus an edge weight stays inside its fields
    x = data.draw(coefficients(labels, cap))
    w = data.draw(coefficients(labels, weight))
    total = tuple(s + t for s, t in zip(x, w))
    assert labels.pack(x) + labels.pack(w) == labels.pack(total)
    assert labels.unpack(labels.pack(x) + labels.pack(w)) == total
    # the cap test prunes a label exactly when it is not <= the cap
    assert star_search(labels, [total])[1] == (not coeffs_leq(total, cap))
    some = data.draw(st.lists(coefficients(labels), max_size=8))
    fits = [t for t in some if coeffs_leq(t, cap)]
    assert star_search(labels, some) == (brute_minimal(fits), len(fits) < len(some))


def test_codec_rejects_what_does_not_fit():
    labels = PackedLabels.build((3, 1), (((0, (1, 2), None),),))
    top = (1 << (labels.width - 1)) - 1
    assert labels.unpack(labels.pack((top, top))) == (top, top)
    for bad in [(top + 1, 0), (0, -1), (1,), (1, 2, 3)]:
        with pytest.raises(DomainError):
            labels.pack(bad)
    empty = PackedLabels.build((), ((),))
    assert (empty.pack(()), empty.unpack(0), empty.guard) == (0, (), 0)
    assert star_search(empty, [(), ()]) == ([()], False)


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("G", 2), ("C", 3)])
def test_packed_search_matches_the_tuple_search(letter, rank):
    """Same fronts, the same parents of the surviving labels (so the same witnesses), same cap hits.

    The tuple search records a parent for every label it ever inserted; the
    packed fronts keep those of the labels that survive, and every such
    parent survives too.
    """
    group = weyl_group(letter, rank)
    for p in all_parabolics(rank):
        graph = adjacency_graph(group, p)
        up = coset_order(group, p)
        for pad in (0, 2, 5):
            cap = tuple(c + pad for c in d_x(group.system, p).coeffs)
            for source in range(len(graph.cosets)):
                # the seeds in the order _search visits them
                for mode, seeds in (("up", frozenset(_bits(up[source]))), ("exact", (source,))):
                    result = _search(group, p, source, mode, pad)
                    unpack = result.labels.unpack
                    fronts, parents, cap_hit = tuple_pareto_search(graph, seeds, cap)
                    assert [{unpack(t) for t in f} for f in result.fronts] == fronts
                    for v, front in enumerate(result.fronts):
                        for t, parent in front.items():
                            assert parent is None or parent[1] in result.fronts[parent[0]]
                            packed = parent and (parent[0], unpack(parent[1]), parent[2])
                            assert packed == parents[(v, unpack(t))]
                    assert result.cap_hit == cap_hit


def test_a_degree_above_the_cap_has_no_chain_and_aliases_nothing():
    group = weyl_group("B", 3)
    p = Parabolic(3, frozenset())
    w_o = group.w_o
    (d,) = delta_uv(group, p, w_o, w_o).degrees
    assert d.coeffs[0] > 0
    assert chain_witness(group, p, w_o, w_o, d).total == d
    labels = _search(group, p, 0, "up", 2).labels
    # borrow one from the first field into the next: the same int under a
    # pack that let a coefficient overflow its field
    alias = (d.coeffs[0] - 1, d.coeffs[1] + (1 << labels.width), *d.coeffs[2:])
    overflowed = sum(c << (labels.width * (labels.size - 1 - k)) for k, c in enumerate(alias))
    assert overflowed == labels.pack(d.coeffs)
    with pytest.raises(VerificationError):
        chain_witness(group, p, w_o, w_o, Degree(p, alias))
    over = Degree(p, tuple(c + 3 for c in d_x(group.system, p).coeffs))
    with pytest.raises(VerificationError):
        chain_witness(group, p, w_o, w_o, over)


def test_build_packs_each_distinct_weight_once(monkeypatch):
    """Every coset repeats eW_P's edge weights: each distinct one is packed, and checked, once."""
    p = Parabolic(3, frozenset())
    edges = adjacency_graph(weyl_group("B", 3), p).edges
    weights = {w for out in edges for _, w, _ in out}
    calls = []
    pack = PackedLabels.pack
    monkeypatch.setattr(PackedLabels, "pack", lambda self, c: calls.append(c) or pack(self, c))
    labels = PackedLabels.build((5, 5, 5), edges)
    assert len(calls) == len(weights) + 1 and set(calls) == weights | {(5, 5, 5)}
    unpacked = tuple(tuple((j, labels.unpack(t), a) for j, t, a in out) for out in labels.edges)
    assert unpacked == edges
    with pytest.raises(DomainError):
        PackedLabels.build((1,), (((0, (-1,), None),), ((0, (-1,), None),)))


def unpacked(result):
    """Each front of a search as a set of coefficient tuples."""
    return [{result.labels.unpack(t) for t in front} for front in result.fronts]


MIRROR_SYSTEMS = [("A", 2), ("B", 2), ("G", 2), ("A", 3), ("B", 3), ("C", 3)]


@pytest.mark.parametrize("letter,rank", MIRROR_SYSTEMS)
def test_a_search_its_mirror_and_its_seeds_reordered_share_fronts_and_cap_hit(letter, rank):
    """w_o maps the graph onto itself, so a search and its mirror have mirrored fronts; cap_hit
    reads the fronts alone, so it is the same for both and for any order of the seeds."""
    group = WeylGroup(build_root_system(letter, rank))
    flagged = 0
    for p in all_parabolics(rank):
        duals = coset_duals(group, p)
        up = coset_order(group, p)
        for pad in range(3):
            for j, dual in enumerate(duals):
                result = _search(group, p, j, "up", pad)
                mirror = ends_search(group, p, j, pad)
                reordered = _pareto_search(result.labels, sorted(_bits(up[j]), reverse=True))
                fronts = unpacked(result)
                assert unpacked(mirror) == [fronts[x] for x in duals], (p, pad, j)
                assert unpacked(reordered) == fronts, (p, pad, j)
                assert mirror.cap_hit == reordered.cap_hit == result.cap_hit, (p, pad, j)
                exact = _search(group, p, j, "exact", pad)
                assert exact.cap_hit == _search(group, p, dual, "exact", pad).cap_hit
                flagged += result.cap_hit
    assert flagged  # the flag is set somewhere, so the comparison can fail


@pytest.mark.parametrize("letter,rank", MIRROR_SYSTEMS)
def test_an_unflagged_search_has_the_fronts_of_its_pad_plus_two_search(letter, rank):
    """A search whose surviving labels all stay within the cap misses no minimal degree.

    The caps run from d_X - 2 (clipped at 0) to d_X + 2, as no front reaches past d_X; a
    flagged search below d_X whose fronts do change shows the check can fail.
    """
    group = WeylGroup(build_root_system(letter, rank))
    unflagged = changed = 0
    for p in all_parabolics(rank):
        graph = adjacency_graph(group, p)
        up = coset_order(group, p)
        for pad in range(-2, 3):
            cap = tuple(max(c + pad, 0) for c in d_x(group.system, p).coeffs)
            narrow = PackedLabels.build(cap, graph.edges)
            wide = PackedLabels.build(tuple(c + 2 for c in cap), graph.edges)
            for source in range(len(graph.cosets)):
                for seeds in (frozenset(_bits(up[source])), (source,)):
                    result = _pareto_search(narrow, seeds)
                    same = unpacked(result) == unpacked(_pareto_search(wide, seeds))
                    assert same or result.cap_hit, (p, cap, source, seeds)
                    unflagged += not result.cap_hit
                    changed += not same
    assert unflagged and changed


def search_front_fault(graph, result, seeds):
    """Why a chain search's fronts break their invariant, or None.

    Each front must be an antichain under coeffs_leq whose sorted read is
    minimal_elements of its labels.  Each label's parent must be a label in
    its vertex's front, one adjacency edge (of weight the label difference)
    back, or None at a seed with label 0.  Edge weights are nonzero, so a
    parent label is smaller and every walk back ends at a seed.
    """
    unpack = result.labels.unpack
    arcs = [{k: (weight, alpha) for k, weight, alpha in out} for out in graph.edges]
    for v, front in enumerate(result.fronts):
        got = [unpack(t) for t in sorted(front)]
        if any(a != b and coeffs_leq(a, b) for a in got for b in got):
            return f"front #{v} is not an antichain"
        if got != list(minimal_elements(got)):
            return f"front #{v} read sorted is not its minimal elements"
        for t, parent in front.items():
            if parent is None:
                if t != 0 or v not in seeds:
                    return f"label {unpack(t)} at #{v} has no parent and is no seed's 0"
                continue
            u, s, alpha = parent
            if s not in result.fronts[u]:
                return f"the parent of {unpack(t)} at #{v} is not in front #{u}"
            step = tuple(x - y for x, y in zip(unpack(t), unpack(s)))
            if arcs[u].get(v) != (step, alpha):
                return f"no edge #{u} -> #{v} of weight {step} by {alpha}"
    return None


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_search_fronts_are_antichains_whose_parents_walk_back_to_a_seed(letter, rank):
    """Every search the package runs, both modes and pad 0-2, and the mirror of "up": the
    fronts are its only record."""
    group = WeylGroup(build_root_system(letter, rank))
    for p in all_parabolics(rank):
        graph = adjacency_graph(group, p)
        up = coset_order(group, p)
        for source in range(len(graph.cosets)):
            for pad in range(3):
                for mode, seeds, result in (
                    ("up", set(_bits(up[source])), _search(group, p, source, "up", pad)),
                    ("ends", set(_chain_ends(group, p, source)), ends_search(group, p, source, pad)),
                    ("exact", {source}, _search(group, p, source, "exact", pad)),
                ):
                    fault = search_front_fault(graph, result, seeds)
                    assert fault is None, (letter, p, source, mode, pad, fault)
        for key in [key for key in group.memo if key[0] == "search"]:
            del group.memo[key]  # keep one parabolic's searches at a time


def test_a_witness_whose_parent_left_the_front_raises():
    """A parent label missing from its front is named, not a bare KeyError."""
    group = WeylGroup(build_root_system("B", 3))
    p = Parabolic(3, frozenset())
    w_o = group.w_o
    (d,) = delta_uv(group, p, w_o, w_o).degrees
    top = adjacency_graph(group, p).index[w_o]
    result = _search(group, p, top, "up", 2)  # the search chain_witness reads
    label = result.labels.pack(d.coeffs)
    y = next(y for y in _chain_ends(group, p, top) if label in result.fronts[y])
    u, _, alpha = result.fronts[y][label]
    assert chain_witness(group, p, w_o, w_o, d).total == d
    result.fronts[y][label] = (u, result.labels.cap + 1, alpha)  # above the cap: in no front
    with pytest.raises(InvariantViolationError, match=f"coset #{u}$"):
        chain_witness(group, p, w_o, w_o, d)
