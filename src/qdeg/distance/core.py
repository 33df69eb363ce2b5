"""The distance function delta_P by three independent algorithms.

delta_w scans the up-set {d : wW_P <= z_d^P W_P} over a box and keeps the
Pareto-minimal degrees.  delta_uv runs a multi-objective label-correcting
search on the adjacency graph of W/W_P with edge weights d(alpha) and
collects minimal chain degrees.  Their agreement (for v = w_o) is itself a
theorem and the central cross-check of this package.

The scan box d_X + pad + 1 is grouped by z_d^P once per (parabolic, pad):
z is computed once per box point, and each class keeps the raw minima of its
points over the inner box d_X + pad and over the whole box, computed the
first time some coset lies below its z.  delta_w(m) is then the set of
classes whose z lies above m, and one front per distinct set: the minima of
its classes' minima.  When the group has already enumerated W/W_P, a class
is hit iff the bit of m is set in the down-set of its z on the coset table
below; otherwise it is one Bruhat test per class, so a single query such as
w_o builds no table.

The adjacency graph is undirected with equal weights both ways (d(alpha) is
W_P-invariant), so a chain read backwards is a chain of the same degree.
delta_uv(u, v) therefore runs one search per v, seeded at the cosets below
v*, and reads its front at u alone: the cosets it reaches within a degree
form a down-set (Buch-Mihalcea 2015), so no coset above u adds a smaller
degree.  The description suite's delta_P(m, w_o) is one search per
parabolic.  chain_witness keeps the forward searches from u, so its
witnesses are unchanged.

Inside the chain search a degree label is one Python int (``PackedLabels``).
Each coefficient has a bit field wide enough for cap + the largest edge
weight, with a guard bit above it; coefficient 0 sits in the highest field,
so int order is lexicographic order on coefficient tuples.  Adding degrees is
one ``+``, ``a <= b`` coefficientwise is ``((b | G) - a) & G == G`` for the
guard mask G (a field's guard survives the subtraction iff it borrows
nothing), and the cap test is the same check against the packed cap.  Int
order is a linear extension of <=, so a Pareto filter is ``sorted()`` and one
sweep.  ``Degree`` is created only for the labels that survive.  Every
structure built here, codecs included, is kept in ``group.memo`` through
``memoised``, under (name, Delta_P, ...).

The coset structures of W/W_P rest on one table per parabolic, which the
BFS of group.cosets records (``WeylGroup.numbered_cosets``): left[j][i], the
index of s_j u_i W_P in group.cosets order, and l(u_i), the BFS depth.
Nothing here multiplies.  Every coset u_i W_P but eW_P gets one left
descent, the least j with k = left[j][i] < i (so u_i = s_j u_k), and the
down-sets and the adjacency edges both recur along it.  Bruhat down-sets
are int bitsets by the lifting property (Bjorner-Brenti, GTM 231, 2.2),
D(i) = D(k) | s_j D(k), and ``coset_order`` reads their bits.
``_chain_ends`` (the cosets y <= w_o u_j W_P, where a chain to u_j W_P may
end) is the duals of the cosets above u_j W_P, as w_o reverses Bruhat
order; it serves only the "ends" search and ``chain_witness``.
``coset_duals`` walks each index along the word of w_o.  Only eW_P walks
the word of each s_alpha (``RootSystem.reflection_word``, the word ``z``
takes its Hecke steps along) for its adjacency edges; the edges of u_i W_P are
left[j] of those of u_k W_P, as u_i s_alpha W_P = s_j (u_k s_alpha W_P)
(the proof is in ``adjacency_graph``).  ``bruhat_leq`` is left to the
tests and to ``delta_w`` on a group that has not enumerated W/W_P.

Pair tables come from a third algorithm, the parabolic quantum Bruhat graph
(Postnikov, Proc. AMS 133, 2005; Lam-Shimozono, Acta Math. 204, 2010,
section 10): the adjacency edge (u_i, alpha) -> u_k is an arc of weight 0
when l(u_k) = l(u_i) + 1, of weight d(alpha) when
l(u_k) = l(u_i) + 1 - <c_1, d(alpha)>, and no arc otherwise, and the minimal
degree of a pair is the weight of a shortest path by edge count.
``qbg_rows`` runs one BFS per source on packed weights, with the chain
search's codec, and drops any sum over the cap d_X + pad, so a label never
wraps into a neighbouring field and a pair that needs more reads an empty
front.  ``_pairs_table`` checks the point-class row against the chain search
seeded at the cosets above it, read at w_o u_j W_P: the fronts of a search
seeded at an up-set are monotone in Bruhat order (Buch-Mihalcea 2015).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property

from ..cascade import d_x
from ..curveneighborhood import z
from ..degreelattice import Degree, c1, d_of_root, degree_box, minimal_elements, outside_roots
from ..errors import DomainError, InvariantViolationError, VerificationError
from ..rootsystem import coeffs_leq, memoised
from ..weylgroup import Parabolic, Weyl, WeylGroup


@dataclass(frozen=True)
class DegreeFront:
    """An antichain of degrees together with the algorithm that produced it.

    cap_hit is a fact of the chain search the front was read from, not of the
    pair: it is set when that search pruned some label at its cap anywhere in
    the graph.  Fronts read from one search share it.
    """

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


@dataclass(frozen=True)
class _ZClass:
    """The points of a scan box that share one z_d^P, as raw coefficient tuples."""

    z: Weyl  # z_d^P, the minimal representative
    points: tuple  # lex order
    inner: tuple  # corner + pad: the scan box without its stability layer

    @cached_property
    def minima(self) -> tuple:
        """(minima over the inner box, minima over the whole box), on first use."""
        inner = minimal_elements(d for d in self.points if coeffs_leq(d, self.inner))
        return inner, minimal_elements(self.points)


@memoised("z-classes")
def _z_classes(group: WeylGroup, parabolic: Parabolic, pad: int) -> tuple:
    """The box d_X + pad + 1 grouped by z_d^P, in order of first appearance."""
    corner = d_x(group.system, parabolic)
    classes: dict = {}
    for d in degree_box(parabolic, corner, pad + 1):
        classes.setdefault(z(group, parabolic, d).z_min, []).append(d.coeffs)
    inner = tuple(c + pad for c in corner.coeffs)
    return tuple(_ZClass(zd, tuple(ds), inner) for zd, ds in classes.items())


def delta_w(group: WeylGroup, parabolic: Parabolic, w: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal degrees d with wW_P <= z_d^P W_P (curve-neighborhood definition).

    Scans the box d_X + pad and re-checks stability at pad + 1; a front that
    changes under the enlargement is reported as a verification failure.

    A z-class is hit when wW_P <= z W_P.  When this group has already
    enumerated W/W_P, each hit is one bit of the coset table: the class's
    down-set mask (``_class_masks``) at the index of wW_P.  Otherwise it is
    one ``bruhat_leq`` test per class; delta_w never enumerates W/W_P
    itself, as a single query (the uniqueness suite's w_o) costs less by
    recursion than a whole table, and past ENUMERATION_CAP (E7, E8) the
    recursion is the only path.  Both paths stay because each is the faster
    one on its own side of an observable choice, and the tests check both
    against a per-point scan.  Either way the front is built once per hit
    set (``_scan_front``).
    """
    return _delta_w(group, parabolic, group.coset_min(w, parabolic), pad)


@memoised("delta_w")
def _delta_w(group: WeylGroup, parabolic: Parabolic, m: Weyl, pad: int) -> DegreeFront:
    if group.enumerated(parabolic):
        bit = 1 << _coset_table(group, parabolic).index[m]
        hit = tuple(i for i, mask in enumerate(_class_masks(group, parabolic, pad)) if mask & bit)
    else:
        classes = _z_classes(group, parabolic, pad)
        hit = tuple(i for i, c in enumerate(classes) if group.bruhat_leq(m, c.z))
    return _scan_front(group, parabolic, pad, hit)


@memoised("class-masks")
def _class_masks(group: WeylGroup, parabolic: Parabolic, pad: int) -> tuple:
    """Per z-class of the scan box, the bitset of the cosets below its z."""
    table = _coset_table(group, parabolic)
    return tuple(table.down[table.index[c.z]] for c in _z_classes(group, parabolic, pad))


@memoised("scan-front")
def _scan_front(group: WeylGroup, parabolic: Parabolic, pad: int, hit: tuple) -> DegreeFront:
    """The front of the z-classes numbered in hit, memoised per (Delta_P, pad, hit).

    Raises VerificationError, unmemoised, when the minima over the inner box
    and over the whole box differ.
    """
    classes = _z_classes(group, parabolic, pad)
    minima = [classes[i].minima for i in hit]
    front = minimal_elements(d for inner, _ in minima for d in inner)
    stable = minimal_elements(d for _, whole in minima for d in whole)
    if front != stable:
        extra = next(d for d in stable if d not in front)
        raise VerificationError(f"delta_w front unstable at box boundary: degree {extra}")
    return DegreeFront(tuple(Degree(parabolic, d) for d in front), "scan")


# -- adjacency graph and chain search ------------------------------------------


@dataclass(frozen=True)
class _CosetTable:
    """W/W_P numbered in group.cosets order, with the left action of each s_j."""

    cosets: tuple  # minimal representatives, sorted by (length, word)
    index: dict
    left: tuple  # left[j][i]: the index of s_j u_i W_P
    lengths: tuple  # lengths[i]: l(u_i)
    descents: tuple  # descents[i]: the least j with left[j][i] < i (None at eW_P)
    down: tuple  # down[i]: the bitset of the indices x with u_x W_P <= u_i W_P


def _bits(mask: int) -> list:
    """The indices of the set bits of mask, ascending."""
    return [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


def _left_descents(left: tuple) -> tuple:
    """For each coset index i > 0, the least j with k = left[j][i] < i: u_i = s_j u_k."""
    out = [None]
    for i in range(1, len(left[0])):
        j = next((j for j, row in enumerate(left) if row[i] < i), None)
        if j is None:
            raise InvariantViolationError(f"coset #{i} has no left descent")
        out.append(j)
    return tuple(out)


def _down_sets(left: tuple, descents: tuple) -> tuple:
    """Bitset down-sets: D(i) = D(k) | s_j D(k) for the left descent k = left[j][i] < i."""
    n = len(left[0])
    down = [1]
    for i in range(1, n):
        row = left[descents[i]]
        below = down[row[i]]
        down.append(below | sum(1 << row[x] for x in _bits(below)))
    if down[-1] != (1 << n) - 1:
        raise InvariantViolationError("the top coset's down-set is not every coset")
    return tuple(down)


@memoised("coset-table")
def _coset_table(group: WeylGroup, parabolic: Parabolic) -> _CosetTable:
    """The left table, lengths, left descents and down-sets of W/W_P.

    The table and the lengths are the ones group.cosets recorded; nothing
    here multiplies.
    """
    cosets, left, lengths = group.numbered_cosets(parabolic)
    descents = _left_descents(left)
    return _CosetTable(
        cosets,
        {m: i for i, m in enumerate(cosets)},
        left,
        lengths,
        descents,
        _down_sets(left, descents),
    )


@memoised("adjacency")
def adjacency_graph(group: WeylGroup, parabolic: Parabolic) -> AdjacencyGraph:
    """The reflection-translation graph on W/W_P with degree-labeled edges.

    The edges of u_i W_P are (k, d(alpha), alpha) for the roots alpha
    outside R_P in order, u_k W_P = u_i s_alpha W_P, the first root to each
    target kept.  Only eW_P walks the roots: s_alpha W_P is the walk of
    index 0 along the word of s_alpha.  No root fixes eW_P, as s_alpha is
    not in W_P, and two roots with one target must have one d(alpha); both
    raise InvariantViolationError.

    Every other coset maps the edges of its left descent u_i = s_j u_k,
    k = left[j][i] < i: its targets are left[j] of u_k's.  For every root,
    u_i s_alpha W_P = s_j (u_k s_alpha W_P), and left[j] is a bijection of
    W/W_P taking u_k W_P to u_i W_P.  So alpha fixes u_i W_P iff it fixes
    u_k W_P, and two roots share a target from u_i W_P iff they share one
    from u_k W_P.  By induction on i, every coset skips no root and keeps
    the roots eW_P keeps, in the same order and with the same weights: the
    edges are those of the walk from each coset along the word of
    s_beta, beta = u_i(alpha), as u_i s_alpha = s_beta u_i.
    """
    system = group.system
    table = _coset_table(group, parabolic)
    left = table.left
    seen: dict[int, tuple] = {}
    base = []
    for alpha in outside_roots(system, parabolic):
        k = 0
        for s in system.reflection_word(alpha):
            k = left[s][k]
        if k == 0:
            raise InvariantViolationError(f"the outside root {alpha} fixes eW_P")
        weight = d_of_root(system, parabolic, alpha).coeffs
        if k in seen:
            if seen[k] != weight:
                raise InvariantViolationError("two adjacency labels with different degrees")
            continue
        seen[k] = weight
        base.append((k, weight, alpha))
    edges = [tuple(base)]
    for i in range(1, len(table.cosets)):
        row = left[table.descents[i]]
        edges.append(tuple([(row[t], weight, alpha) for t, weight, alpha in edges[row[i]]]))
    return AdjacencyGraph(parabolic, table.cosets, table.index, tuple(edges))


@memoised("coset_order")
def coset_order(group: WeylGroup, parabolic: Parabolic) -> tuple:
    """For each coset index, the frozenset of indices of cosets above it."""
    down = _coset_table(group, parabolic).down
    up: list = [[] for _ in down]
    for i, below in enumerate(down):
        for x in _bits(below):
            up[x].append(i)
    return tuple(map(frozenset, up))


@memoised("coset_duals")
def coset_duals(group: WeylGroup, parabolic: Parabolic) -> tuple:
    """For each coset index j, the index of the coset w_o u_j W_P."""
    table = _coset_table(group, parabolic)
    duals = range(len(table.cosets))
    for j in reversed(group.reduced_word(group.w_o)):
        duals = [table.left[j][i] for i in duals]
    if any(duals[k] != i for i, k in enumerate(duals)):
        raise InvariantViolationError("the dual map on W/W_P is not an involution")
    top = group.length(group.w_x(parabolic))
    lengths = table.lengths
    if any(lengths[k] != top - lengths[i] for i, k in enumerate(duals)):
        raise InvariantViolationError("a dual coset breaks l(w_o u) = l(w_X) - l(u)")
    return tuple(duals)


def _chain_ends(group: WeylGroup, parabolic: Parabolic, j: int) -> list:
    """Where a chain to u_j W_P may end, ascending: y with u_y W_P <= w_o u_j W_P.

    As w_o reverses Bruhat order on W/W_P, these are the duals of the cosets above u_j.
    """
    duals = coset_duals(group, parabolic)
    return sorted(duals[x] for x in coset_order(group, parabolic)[j])


@dataclass(frozen=True)
class PackedLabels:
    """Degree labels as ints for one (parabolic, cap): the codec of the chain search."""

    size: int  # number of coefficients, len(parabolic.free)
    width: int  # bits per field, the guard bit included
    guard: int  # the guard bit of every field
    cap: int  # the packed cap
    edges: tuple  # per vertex: tuple of (target index, packed weight, root)
    tuples: dict = field(default_factory=dict, compare=False)  # unpack memo

    @classmethod
    def build(cls, cap: tuple, edges: tuple) -> "PackedLabels":
        """The codec for labels <= cap on a graph with these (target, coeffs, root) edges.

        Every coset's edges carry the weights of eW_P's, so each distinct
        weight is packed once.
        """
        weights = {w for out in edges for _, w, _ in out}
        heaviest = max((c for w in weights for c in w), default=0)
        width = (max(cap, default=0) + heaviest).bit_length() + 1
        guard = sum(1 << (width * i + width - 1) for i in range(len(cap)))
        labels = cls(len(cap), width, guard, 0, ())
        packed = {w: labels.pack(w) for w in weights}
        return replace(
            labels,
            cap=labels.pack(cap),
            edges=tuple(tuple((j, packed[w], alpha) for j, w, alpha in out) for out in edges),
        )

    def pack(self, coeffs) -> int:
        top = (1 << (self.width - 1)) - 1
        if len(coeffs) != self.size or not all(0 <= c <= top for c in coeffs):
            raise DomainError(f"{tuple(coeffs)} does not fit the label fields")
        out = 0
        for c in coeffs:
            out = (out << self.width) | c
        return out

    def unpack(self, label: int) -> tuple:
        out = self.tuples.get(label)
        if out is None:
            top = (1 << (self.width - 1)) - 1
            out = self.tuples[label] = tuple(
                (label >> (self.width * i)) & top for i in reversed(range(self.size))
            )
        return out

    def minimal(self, labels) -> list:
        """The Pareto-minimal labels, ascending (lex order on their coefficients)."""
        guard = self.guard
        kept: list[int] = []
        for t in sorted(set(labels)):
            high = t | guard
            for k in kept:
                if (high - k) & guard == guard:
                    break
            else:
                kept.append(t)
        return kept


@memoised("labels")
def _labels(group: WeylGroup, parabolic: Parabolic, pad: int) -> PackedLabels:
    """The codec for labels <= d_X + pad, shared by the chain search and the QBG."""
    cap = tuple(c + pad for c in d_x(group.system, parabolic).coeffs)
    return PackedLabels.build(cap, adjacency_graph(group, parabolic).edges)


@dataclass
class _SearchResult:
    labels: PackedLabels
    fronts: list  # per vertex: set of packed labels (an antichain)
    parents: dict  # (vertex, label) -> (prev vertex, prev label, root) or None
    cap_hit: bool = False


def _pareto_search(labels: PackedLabels, seeds) -> _SearchResult:
    """Label-correcting search in FIFO order; labels per vertex form antichains under <=."""
    edges = labels.edges
    guard = labels.guard
    cap = labels.cap | guard
    fronts: list[set] = [set() for _ in edges]
    parents: dict = {}
    result = _SearchResult(labels, fronts, parents)
    queue = deque()
    for s in seeds:
        fronts[s].add(0)
        parents[(s, 0)] = None
        queue.append((s, 0))
    while queue:
        v, deg = queue.popleft()
        if deg not in fronts[v]:
            continue  # dominated since it was queued
        for j, weight, alpha in edges[v]:
            cand = deg + weight
            if (cap - cand) & guard != guard:
                result.cap_hit = True
                continue
            front = fronts[j]
            if cand in front:
                continue
            high = cand | guard
            dominated = []
            for old in front:
                if (high - old) & guard == guard:
                    break  # old <= cand
                if ((old | guard) - cand) & guard == guard:
                    dominated.append(old)
            else:
                front.difference_update(dominated)
                front.add(cand)
                parents.setdefault((j, cand), (v, deg, alpha))
                queue.append((j, cand))
    return result


@memoised("search")
def _search(group: WeylGroup, parabolic: Parabolic, source: int, mode: str, pad: int):
    """The chain search for coset index `source`.

    Its seeds are, by mode, the cosets above the source ("up"), the source
    itself ("exact"), or the cosets below its dual, where a chain to it may
    end ("ends": delta_uv's search, run backwards over the undirected graph).
    """
    if mode == "up":
        seeds = coset_order(group, parabolic)[source]
    elif mode == "ends":
        seeds = _chain_ends(group, parabolic, source)
    else:
        seeds = (source,)
    return _pareto_search(_labels(group, parabolic, pad), seeds)


@memoised("qbg-arcs")
def _qbg_arcs(group: WeylGroup, parabolic: Parabolic, pad: int) -> tuple:
    """The parabolic QBG's arcs, per vertex (target index, packed weight).

    The adjacency edge (u_i, alpha) -> u_k is an arc of weight 0 when
    l(u_k) = l(u_i) + 1, of weight d(alpha) when
    l(u_k) = l(u_i) + 1 - <c_1, d(alpha)>, and no arc otherwise.
    """
    graph = adjacency_graph(group, parabolic)
    packed = _labels(group, parabolic, pad).edges
    lengths = _coset_table(group, parabolic).lengths
    chern = c1(group.system, parabolic).coeffs
    arcs = []
    for i, out in enumerate(graph.edges):
        kept = []
        for (k, weight, _), (_, t, _) in zip(out, packed[i]):
            rise = lengths[k] - lengths[i] - 1
            if rise == 0:
                kept.append((k, 0))
            elif rise == -sum(a * b for a, b in zip(chern, weight)):
                kept.append((k, t))
        arcs.append(tuple(kept))
    return tuple(arcs)


def qbg_rows(group: WeylGroup, parabolic: Parabolic, pad: int):
    """For each source coset index in turn, its packed shortest-path weights to every coset.

    One BFS by edge count per source on the parabolic QBG (``_qbg_arcs``).
    A vertex's weight set is fixed, as a frozenset, at the first layer that
    reaches it.  A sum over the cap d_X + pad is dropped, never packed, so a
    vertex whose shortest paths all weigh more gets the empty set.
    """
    labels = _labels(group, parabolic, pad)
    guard = labels.guard
    cap = labels.cap | guard
    arcs = _qbg_arcs(group, parabolic, pad)
    n = len(arcs)
    for source in range(n):
        weights: list = [None] * n
        weights[source] = frozenset((0,))
        layer = [source]
        while layer:
            found: dict = {}
            for v in layer:
                sums = weights[v]
                for k, w in arcs[v]:
                    if weights[k] is None:
                        reached = found.get(k)
                        if reached is None:
                            reached = found[k] = set()
                        for t in sums:
                            if (cap - t - w) & guard == guard:
                                reached.add(t + w)
            for k, s in found.items():
                weights[k] = frozenset(s)
            layer = list(found)
        yield [frozenset() if w is None else w for w in weights]


def _front(parabolic: Parabolic, result: _SearchResult, packed) -> DegreeFront:
    labels = result.labels
    degrees = tuple(Degree(parabolic, labels.unpack(t)) for t in labels.minimal(packed))
    return DegreeFront(degrees, "chain", result.cap_hit)


def delta_uv(group: WeylGroup, parabolic: Parabolic, u: Weyl, v: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal total degrees of chains from uW_P to vW_P (chain definition).

    One search per v, from the cosets below v*, read at uW_P alone: what it
    reaches within a degree is a down-set, as curve neighborhoods of Schubert
    varieties are Schubert varieties (Buch-Mihalcea, J. Differential Geom.
    99, 2015), so the cosets above u add nothing below the front at u.
    """
    index = adjacency_graph(group, parabolic).index
    result = _search(group, parabolic, index[group.coset_min(v, parabolic)], "ends", pad)
    return _front(parabolic, result, result.fronts[index[group.coset_min(u, parabolic)]])


def chain_front_exact(group: WeylGroup, parabolic: Parabolic, x: Weyl, y: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal degrees of chains with first coset exactly xW_P and last exactly yW_P."""
    graph = adjacency_graph(group, parabolic)
    xi = graph.index[group.coset_min(x, parabolic)]
    yi = graph.index[group.coset_min(y, parabolic)]
    result = _search(group, parabolic, xi, "exact", pad)
    return _front(parabolic, result, result.fronts[yi])


def _backtrack(graph: AdjacencyGraph, result: _SearchResult, vertex: int, label: int) -> tuple:
    cosets = [graph.cosets[vertex]]
    roots = []
    state = (vertex, label)
    while result.parents[state] is not None:
        prev_vertex, prev_label, alpha = result.parents[state]
        cosets.append(graph.cosets[prev_vertex])
        roots.append(alpha)
        state = (prev_vertex, prev_label)
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
    v* itself, rather than anywhere above / below.  A degree above the search
    cap has no chain: it is never packed, so it cannot alias a stored label.
    """
    graph = adjacency_graph(group, parabolic)
    ui = graph.index[group.coset_min(u, parabolic)]
    vi = graph.index[group.coset_min(v, parabolic)]
    result = _search(group, parabolic, ui, "exact" if exact else "up", pad)
    labels = result.labels
    fits = d.parabolic == parabolic and coeffs_leq(d.coeffs, labels.unpack(labels.cap))
    label = labels.pack(d.coeffs) if fits else None  # None is in no front
    terminals = [coset_duals(group, parabolic)[vi]] if exact else _chain_ends(group, parabolic, vi)
    for y in terminals:
        if label in result.fronts[y]:
            cosets, roots = _backtrack(graph, result, y, label)
            total = Degree.zero(parabolic)
            for alpha in roots:
                total = total + d_of_root(group.system, parabolic, alpha)
            if total != d:
                raise InvariantViolationError("witness degree mismatch")
            return ChainWitness(cosets, roots, total)
    raise VerificationError(f"no chain of degree {d.coeffs} found")
