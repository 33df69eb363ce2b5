"""The distance function delta_P by two independent algorithms.

delta_w scans the up-set {d : wW_P <= z_d^P W_P} over a box and keeps the
Pareto-minimal degrees.  delta_uv runs a multi-objective label-correcting
search on the adjacency graph of W/W_P with edge weights d(alpha) and
collects minimal chain degrees.  Their agreement (for v = w_o) is itself a
theorem and the central cross-check of this package.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..cascade import d_x
from ..curveneighborhood import z
from ..degreelattice import (
    Degree,
    coeffs_leq,
    d_of_root,
    degree_box,
    minimal_elements,
    outside_roots,
)
from ..errors import InvariantViolationError, VerificationError
from ..weylgroup import Parabolic, Weyl, WeylGroup


@dataclass(frozen=True)
class DegreeFront:
    """An antichain of degrees together with the algorithm that produced it."""

    degrees: tuple
    provenance: str  # "scan" (up-set scan) or "chain" (chain search)
    cap_hit: bool = False

    def __post_init__(self):
        for a in self.degrees:
            for b in self.degrees:
                if a != b and a.leq(b):
                    raise InvariantViolationError("front is not an antichain")
        if self.degrees and self.degrees[0].parabolic.is_maximal() and len(self.degrees) != 1:
            raise InvariantViolationError("front over a maximal parabolic must be a singleton")

    def __contains__(self, d: Degree) -> bool:
        return d in self.degrees

    def singleton(self) -> Degree:
        if len(self.degrees) != 1:
            raise InvariantViolationError("front is not a singleton")
        return self.degrees[0]


@dataclass(frozen=True)
class ChainWitness:
    """A chain of pairwise-adjacent cosets realizing a front degree."""

    cosets: tuple  # minimal representatives u_0 ... u_r
    edge_roots: tuple  # alpha_1 ... alpha_r
    total: Degree


@dataclass(frozen=True)
class AdjacencyGraph:
    parabolic: Parabolic
    cosets: tuple  # minimal representatives, sorted by (length, word)
    index: dict
    edges: tuple  # per vertex: tuple of (target index, weight coeffs, root)


def delta_w(group: WeylGroup, parabolic: Parabolic, w: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal degrees d with wW_P <= z_d^P W_P (curve-neighborhood definition).

    Scans the box d_X + pad and re-checks stability at pad + 1; a front that
    changes under the enlargement is reported as a verification failure.
    """
    system = group.system
    m = group.coset_min(w, parabolic)
    key = ("delta_w", parabolic.delta_p, m, pad)
    if key in group.memo:
        return group.memo[key]
    corner = d_x(system, parabolic)
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
    result = DegreeFront(front, "scan")
    group.memo[key] = result
    return result


# -- adjacency graph and chain search ------------------------------------------


def adjacency_graph(group: WeylGroup, parabolic: Parabolic, cap: int = 10**6) -> AdjacencyGraph:
    """The reflection-translation graph on W/W_P with degree-labeled edges."""
    key = ("adjacency", parabolic.delta_p)
    if key in group.memo:
        return group.memo[key]
    system = group.system
    cosets = group.cosets(parabolic, cap)
    index = {m: i for i, m in enumerate(cosets)}
    outside = outside_roots(system, parabolic)
    edges = []
    for m in cosets:
        seen: dict[int, tuple] = {}
        out = []
        for alpha in outside:
            target = group.coset_min(group.multiply(m, group.reflection(alpha)), parabolic)
            j = index[target]
            if target == m:
                continue
            weight = d_of_root(system, parabolic, alpha).coeffs
            if j in seen:
                if seen[j] != weight:
                    raise InvariantViolationError(
                        "two adjacency labels with different degrees"
                    )
                continue
            seen[j] = weight
            out.append((j, weight, alpha))
        edges.append(tuple(out))
    graph = AdjacencyGraph(parabolic, cosets, index, tuple(edges))
    group.memo[key] = graph
    return graph


def coset_order(group: WeylGroup, parabolic: Parabolic) -> tuple:
    """For each coset index, the frozenset of indices of cosets above it."""
    key = ("coset_order", parabolic.delta_p)
    if key in group.memo:
        return group.memo[key]
    cosets = group.cosets(parabolic)
    up = tuple(
        frozenset(
            j for j, n in enumerate(cosets) if group.bruhat_leq(m, n)
        )
        for m in cosets
    )
    group.memo[key] = up
    return up


@dataclass
class _SearchResult:
    fronts: list  # per vertex: set of degree coefficient tuples (an antichain)
    parents: dict  # (vertex, coeffs) -> (prev vertex, prev coeffs, root) or None
    cap_hit: bool = False


def _pareto_search(graph: AdjacencyGraph, seeds, cap) -> _SearchResult:
    """Label-correcting search; labels per vertex form antichains under <=."""
    n = len(graph.cosets)
    fronts: list[set] = [set() for _ in range(n)]
    parents: dict = {}
    result = _SearchResult(fronts, parents)
    zero = (0,) * len(cap)
    queue = deque()
    for s in seeds:
        fronts[s].add(zero)
        parents[(s, zero)] = None
        queue.append((s, zero))
    while queue:
        v, deg = queue.popleft()
        if deg not in fronts[v]:
            continue  # dominated since it was queued
        for j, weight, alpha in graph.edges[v]:
            cand = tuple(x + y for x, y in zip(deg, weight))
            if any(c > t for c, t in zip(cand, cap)):
                result.cap_hit = True
                continue
            front = fronts[j]
            if cand in front or any(coeffs_leq(old, cand) for old in front):
                continue
            front.difference_update([old for old in front if coeffs_leq(cand, old)])
            front.add(cand)
            parents.setdefault((j, cand), (v, deg, alpha))
            queue.append((j, cand))
    return result


def _search(group: WeylGroup, parabolic: Parabolic, source: int, mode: str, pad: int):
    key = ("search", parabolic.delta_p, source, mode, pad)
    if key in group.memo:
        return group.memo[key]
    graph = adjacency_graph(group, parabolic)
    corner = d_x(group.system, parabolic)
    cap = tuple(c + pad for c in corner.coeffs)
    seeds = coset_order(group, parabolic)[source] if mode == "up" else (source,)
    result = _pareto_search(graph, seeds, cap)
    group.memo[key] = result
    return result


def delta_uv(group: WeylGroup, parabolic: Parabolic, u: Weyl, v: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal total degrees of chains from uW_P to vW_P (chain definition)."""
    graph = adjacency_graph(group, parabolic)
    ui = graph.index[group.coset_min(u, parabolic)]
    vstar = graph.index[group.coset_min(group.dual(v), parabolic)]
    up = coset_order(group, parabolic)
    terminals = [y for y in range(len(graph.cosets)) if vstar in up[y]]
    result = _search(group, parabolic, ui, "up", pad)
    candidates = [
        Degree(parabolic, coeffs) for y in terminals for coeffs in result.fronts[y]
    ]
    return DegreeFront(minimal_elements(candidates), "chain", result.cap_hit)


def chain_front_exact(group: WeylGroup, parabolic: Parabolic, x: Weyl, y: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal degrees of chains with first coset exactly xW_P and last exactly yW_P."""
    graph = adjacency_graph(group, parabolic)
    xi = graph.index[group.coset_min(x, parabolic)]
    yi = graph.index[group.coset_min(y, parabolic)]
    result = _search(group, parabolic, xi, "exact", pad)
    front = minimal_elements(Degree(parabolic, c) for c in result.fronts[yi])
    return DegreeFront(front, "chain", result.cap_hit)


def _backtrack(graph: AdjacencyGraph, result: _SearchResult, vertex: int, coeffs) -> tuple:
    cosets = [graph.cosets[vertex]]
    roots = []
    state = (vertex, coeffs)
    while result.parents[state] is not None:
        prev_vertex, prev_coeffs, alpha = result.parents[state]
        cosets.append(graph.cosets[prev_vertex])
        roots.append(alpha)
        state = (prev_vertex, prev_coeffs)
    return tuple(reversed(cosets)), tuple(reversed(roots))


def chain_witness(
    group: WeylGroup,
    parabolic: Parabolic,
    u: Weyl,
    v: Weyl,
    d: Degree,
    exact: bool = False,
    pad: int = 2,
) -> ChainWitness:
    """A chain realizing the front degree d from uW_P to vW_P.

    With exact=True the chain starts at uW_P itself and ends at the coset of
    v* itself, rather than anywhere above / below.
    """
    graph = adjacency_graph(group, parabolic)
    ui = graph.index[group.coset_min(u, parabolic)]
    vstar = graph.index[group.coset_min(group.dual(v), parabolic)]
    up = coset_order(group, parabolic)
    result = _search(group, parabolic, ui, "exact" if exact else "up", pad)
    terminals = [vstar] if exact else [y for y in range(len(graph.cosets)) if vstar in up[y]]
    for y in terminals:
        if d.coeffs in result.fronts[y]:
            cosets, roots = _backtrack(graph, result, y, d.coeffs)
            total = Degree.zero(parabolic)
            for alpha in roots:
                total = total + d_of_root(group.system, parabolic, alpha)
            if total != d:
                raise InvariantViolationError("witness degree mismatch")
            return ChainWitness(cosets, roots, total)
    raise VerificationError(f"no chain of degree {d.coeffs} found")
