"""The distance function delta_P by two independent algorithms.

delta_w scans the up-set {d : wW_P <= z_d^P W_P} over a box and keeps the
Pareto-minimal degrees.  delta_uv runs a multi-objective label-correcting
search on the adjacency graph of W/W_P with edge weights d(alpha) and
collects minimal chain degrees.  Their agreement (for v = w_o) is itself a
theorem and the central cross-check of this package.

The scan box d_X + pad + 1 is grouped by z_d^P once per (parabolic, pad):
``curveneighborhood.hecke_box`` folds z_d^P w_P over the whole box, one
first-fit lookup per point and one Hecke step per distinct (Y(tail), word)
pair (the two greedy algorithms, first fit and the ``maximal_roots`` sweep,
are compared at d_X), and each class keeps the raw minima of its points, one
sweep the first time some coset lies below its z.  delta_w(m) is then the
set of classes whose z lies above m, and one front per distinct set: one
sweep over its classes' minima.  The inner box d_X + pad is a down-set, so
for any set of degrees the minima inside it are its minima that lie in it:
the pad + 1 stability check fails exactly when a whole-box front degree lies
outside the inner box, and no second sweep is needed.  When the group has
already enumerated W/W_P, a class is hit iff the bit of m is set in the
down-set of its z on the coset table below; otherwise it is one Bruhat test
per class, so a single query such as w_o builds no table.

The adjacency graph is undirected with equal weights both ways (d(alpha) is
W_P-invariant), and left multiplication by w_o maps it onto itself while it
reverses Bruhat order.  So the chains from uW_P to the cosets below v*,
read backwards and mapped by w_o, are the chains from the cosets above vW_P
to w_o uW_P, of the same degrees: delta_uv(u, v) runs one "up" search per v
and reads it at w_o uW_P alone.  The description suite's delta_P(m, w_o) is
one search per parabolic, the one the pair table and chain_witness read.
cap_hit is a fact of a search's fronts (``_pareto_search``), so a search
and its mirror share it.

Inside the chain search a degree label is one Python int (``PackedLabels``).
Each coefficient has a bit field wide enough for cap + the largest edge
weight, with a guard bit above it; coefficient 0 sits in the highest field,
so int order is lexicographic order on coefficient tuples.  Adding degrees is
one ``+``, ``a <= b`` coefficientwise is ``((b | G) - a) & G == G`` for the
guard mask G (a field's guard survives the subtraction iff it borrows
nothing), and the cap test is the same check against the packed cap.  The
search's front at each vertex is an antichain as it is built, each label
mapped to its parent, so the front is the search's only record: a witness
walks back through the fronts, and a reader sorts a front (int order is lex
order) without filtering it again.  ``Degree`` is created only for the
labels read.  Every structure built here, codecs included, is kept in
``group.memo`` through ``memoised``, under (name, Delta_P, ...).

The coset structures of W/W_P rest on one table per parabolic, which the
BFS of group.cosets records (``WeylGroup.numbered_cosets``): left[j][i], the
index of s_j u_i W_P in group.cosets order, and l(u_i), the BFS depth.
Nothing here multiplies.  Every coset u_i W_P but eW_P gets one left
descent, the least j with k = left[j][i] < i (so u_i = s_j u_k), and the
down-sets and the adjacency edges both recur along it.  Bruhat down-sets
are int bitsets by the lifting property (Bjorner-Brenti, GTM 231, 2.2),
D(i) = D(k) | s_j D(k), and the up-sets of ``coset_order`` are the duals of
the down-sets of the duals, as w_o reverses Bruhat order.  ``_chain_ends``
(the y with u_y W_P <= w_o u_j W_P, where a chain to u_j W_P may end) serves
``chain_witness`` alone.
``coset_duals`` walks each index along the word of w_o.  Only eW_P walks
the word of each s_alpha (``RootSystem.reflection_word``, the word ``z``
takes its Hecke steps along) for its adjacency edges; the edges of u_i W_P are
left[j] of those of u_k W_P, as u_i s_alpha W_P = s_j (u_k s_alpha W_P)
(the proof is in ``adjacency_graph``).  ``bruhat_leq`` is left to the
tests and to ``delta_w`` on a group that has not enumerated W/W_P.

Pair tables read the scan: delta_P(u, v) = min{d : vW_P <= (w_o u) . z_d^P W_P}
(Fulton-Woodward, J. Algebraic Geom. 13, 2004, with Buch-Mihalcea 2015),
whose row at u = w_o is delta_w.  ``hecke_rows`` walks each z-class of the
scan box along the left descents of the coset table, one read of ``left``
per (class, coset), and does not spell a row out column by column: a row is
a few parts (mask, front), one per set of covering classes (split once per
covering coset, which its classes share), the mask an int bitset of its
columns and the front read once per set with ``_scan_front``.
A claim over every pair of a row then costs one step per (part, degree),
and counts its pairs by ``mask.bit_count()``.  The suites' ``_pairs_table``
streams these rows and checks the point-class row, expanded into columns,
against the chain search seeded at the cosets above it, read at w_o u_j
W_P: the fronts of a search seeded at an up-set are monotone in Bruhat order.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from functools import cached_property
from operator import itemgetter

from ..cascade import d_x
from ..curveneighborhood import _z_min, hecke_box
from ..degreelattice import Degree, d_of_root, minimal_elements, outside_roots
from ..errors import DomainError, InvariantViolationError, VerificationError
from ..rootsystem import coeffs_leq, memoised
from ..weylgroup import Parabolic, Weyl, WeylGroup


@dataclass(frozen=True)
class DegreeFront:
    """An antichain of degrees together with the algorithm that produced it.

    cap_hit is a fact of the chain search the front was read from, not of the
    pair: it is set when a label surviving in that search has an edge past
    its cap (``_pareto_search``).  Fronts read from one search share it.
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
        """(minima over the inner box, minima over the whole box), on first use: one
        sweep, as the inner box is a down-set, so its minima are the whole box's in it."""
        whole = minimal_elements(self.points)
        return tuple(d for d in whole if coeffs_leq(d, self.inner)), whole


@memoised("z-classes")
def _z_classes(group: WeylGroup, parabolic: Parabolic, pad: int) -> tuple:
    """The box d_X + pad + 1 grouped by z_d^P, in order of first appearance.

    Y(d) = z_d^P w_P for the whole box is one fold (``hecke_box``), and a
    class is keyed by its Y, the maximal representative of z_d^P W_P; its
    z_d^P is one memoised ``coset_min`` per class.
    """
    classes: dict = {}
    for coeffs, y in hecke_box(group, parabolic, pad + 1).items():
        classes.setdefault(y, []).append(coeffs)
    inner = tuple(c + pad for c in d_x(group.system, parabolic).coeffs)
    return tuple(
        _ZClass(_z_min(group, parabolic, y), tuple(ds), inner) for y, ds in classes.items()
    )


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

    One sweep, over the classes' whole-box minima.  The inner box is a
    down-set, so the front over it is the whole-box front's degrees that lie
    in it, and the two differ iff some whole-box front degree lies outside:
    then VerificationError, unmemoised, names the first.
    """
    classes = _z_classes(group, parabolic, pad)
    front = minimal_elements(d for i in hit for d in classes[i].minima[1])
    extra = next((d for d in front if not coeffs_leq(d, classes[0].inner)), None)
    if extra is not None:
        raise VerificationError(f"delta_w front unstable at box boundary: degree {extra}")
    return DegreeFront(tuple(Degree(parabolic, d) for d in front), "scan")


def hecke_rows(group: WeylGroup, parabolic: Parabolic, pad: int):
    """For each coset index i in turn, delta_P(u_i, u_j) for every j, as parts of the row.

    The 0-Hecke monoid acts on W/W_P from the left: s_j . yW_P is s_j yW_P
    when the length rises, else yW_P.  For each z-class c, h_c[r], the index
    of u_r . z_c W_P, follows the left descent u_r = s_j u_k, k = left[j][r]:
    h_c[0] is the index of z_c and h_c[r] = s_j . h_c[k].  Class c covers
    column j of row i when u_j W_P <= (w_o u_i) . z_c W_P, a bit of
    down[h_c[x]], x = duals[i].  Classes with one h_c[x] share its down-set,
    so a row groups its classes by that coset, a set of classes an int mask,
    and splits the columns once per coset.  Each part reads ``_scan_front``,
    with its pad + 1 stability re-check, once per distinct set of classes.

    A row is a tuple of parts (mask, front): mask is the int bitset of the
    columns j covered by one set of classes, front their shared
    delta_P(u_i, u_j) as raw coefficient tuples.  Every column is in exactly
    one part, no mask is empty, and the parts are ordered by lowest column.
    """
    table = _coset_table(group, parabolic)
    left, lengths, down = table.left, table.lengths, table.down
    n = len(lengths)
    walks = []
    for c in _z_classes(group, parabolic, pad):
        h = [table.index[c.z]]
        for r in range(1, n):
            j = table.descents[r]
            y = h[left[j][r]]
            s = left[j][y]
            h.append(s if lengths[s] > lengths[y] else y)
        walks.append(h)
    fronts: dict = {}
    for x in coset_duals(group, parabolic):
        by_coset: dict = {}
        for c, h in enumerate(walks):
            by_coset[h[x]] = by_coset.get(h[x], 0) | 1 << c
        parts = [((1 << n) - 1, 0)]
        for y, classes in by_coset.items():
            cover = down[y]
            split = []
            for mask, hit in parts:
                inside = mask & cover
                if inside:
                    split.append((inside, hit | classes))
                if inside != mask:
                    split.append((mask ^ inside, hit))
            parts = split
        row = []
        for mask, hit in parts:
            front = fronts.get(hit)
            if front is None:
                degrees = _scan_front(group, parabolic, pad, tuple(_bits(hit))).degrees
                front = fronts[hit] = tuple(d.coeffs for d in degrees)
            row.append((mask, front))
        row.sort(key=lambda part: part[0] & -part[0])  # the lowest column's bit
        yield tuple(row)


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


def _bits(mask: int):
    """The indices of the set bits of mask, ascending: a walk that finds its bits, not every digit."""
    bits = bin(mask)[:1:-1]
    i = bits.find("1")
    while i >= 0:
        yield i
        i = bits.find("1", i + 1)


def _left_descents(left: tuple) -> tuple:
    """For each coset index i > 0, the least j with k = left[j][i] < i: u_i = s_j u_k."""
    out = [None]
    for i in range(1, len(left[0])):
        j = next((j for j, row in enumerate(left) if row[i] < i), None)
        if j is None:
            raise InvariantViolationError(f"coset #{i} has no left descent")
        out.append(j)
    return tuple(out)


def _permuted(mask: int, image: itemgetter, n: int) -> int:
    """{y < n : bit image(y) of mask is set}: one pass over the digits, cheaper than a bit walk."""
    return int("".join(image(bin(mask)[:1:-1].ljust(n, "0")))[::-1], 2)


def _down_sets(left: tuple, descents: tuple) -> tuple:
    """Bitset down-sets: D(i) = D(k) | s_j D(k) for the left descent k = left[j][i] < i."""
    n = len(left[0])
    images = [itemgetter(*row) for row in left]  # left[j] is an involution: s_j D = D permuted by it
    down = [1]
    for i in range(1, n):
        below = down[left[descents[i]][i]]
        down.append(below | _permuted(below, images[descents[i]], n))
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
    """For each coset index x, the bitset of the cosets above it: the duals of those below its dual."""
    down = _coset_table(group, parabolic).down
    duals = coset_duals(group, parabolic)
    image = itemgetter(*duals)
    return tuple(_permuted(down[dual], image, len(duals)) for dual in duals)


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
    """Where a chain to u_j W_P may end, ascending: y with u_y W_P <= w_o u_j W_P."""
    return list(_bits(_coset_table(group, parabolic).down[coset_duals(group, parabolic)[j]]))


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


@memoised("labels")
def _labels(group: WeylGroup, parabolic: Parabolic, pad: int) -> PackedLabels:
    """The codec for labels <= d_X + pad of the chain search."""
    cap = tuple(c + pad for c in d_x(group.system, parabolic).coeffs)
    return PackedLabels.build(cap, adjacency_graph(group, parabolic).edges)


@dataclass
class _SearchResult:
    labels: PackedLabels
    fronts: list  # per vertex: {packed label: (prev vertex, prev label, root), or None at a seed}
    cap_hit: bool  # some surviving label has an edge that leaves the cap


def _pareto_search(labels: PackedLabels, seeds) -> _SearchResult:
    """Label-correcting search in FIFO order; each vertex's labels form an antichain under <=.

    Each front maps its labels to their parents, and keeps no other record.
    A label once dominated is never inserted again (some label at most it
    stays in the front), so its first parent is its only one.  The parent
    of a surviving label L at j survives too: had the parent label at v
    been dominated by some smaller one, that one plus the edge weight would
    be below L and at most the cap, and would have removed L from j.  So a
    witness walked back from a front finds every step in a front.

    cap_hit: some surviving label has an edge past the cap, recorded at each
    prune and tested at the end, as a label may be dominated after it was
    expanded.  The fronts are the minimal chain degrees within the cap, so
    the flag is a fact of them, not of the queue order.  A search whose
    fronts miss a minimal degree is flagged: walk a chain of that degree;
    each prefix within the cap lies above a surviving label at its end, so
    were no surviving label's step past the cap, the walk would end within
    the cap, below the missed degree.
    """
    edges = labels.edges
    guard = labels.guard
    cap = labels.cap | guard
    fronts: list[dict] = [{} for _ in edges]
    pruned = []
    queue = deque()
    for s in seeds:
        fronts[s][0] = None
        queue.append((s, 0))
    while queue:
        v, deg = queue.popleft()
        if deg not in fronts[v]:
            continue  # dominated since it was queued
        for j, weight, alpha in edges[v]:
            cand = deg + weight
            if (cap - cand) & guard != guard:
                pruned.append((v, deg))
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
                for old in dominated:
                    del front[old]
                front[cand] = (v, deg, alpha)
                queue.append((j, cand))
    return _SearchResult(labels, fronts, any(deg in fronts[v] for v, deg in pruned))


@memoised("search")
def _search(group: WeylGroup, parabolic: Parabolic, source: int, mode: str, pad: int):
    """The chain search from the cosets above coset index `source` ("up") or from it alone ("exact")."""
    if mode == "up":
        # a frozenset's order: it fixes the FIFO search's parents, so chain_witness's witnesses
        seeds = frozenset(_bits(coset_order(group, parabolic)[source]))
    else:
        seeds = (source,)
    return _pareto_search(_labels(group, parabolic, pad), seeds)


def _front(parabolic: Parabolic, result: _SearchResult, vertex: int) -> DegreeFront:
    """The search's front at vertex, an antichain already, in lex order."""
    unpack = result.labels.unpack
    degrees = tuple(Degree(parabolic, unpack(t)) for t in sorted(result.fronts[vertex]))
    return DegreeFront(degrees, "chain", result.cap_hit)


def delta_uv(group: WeylGroup, parabolic: Parabolic, u: Weyl, v: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal total degrees of chains from uW_P to vW_P (chain definition).

    One search per v, from the cosets above vW_P, read at w_o uW_P alone (the
    mirror under w_o of the chains from uW_P to the cosets below v*): what it
    reaches within a degree is an up-set, as curve neighborhoods of Schubert
    varieties are Schubert varieties (Buch-Mihalcea, J. Differential Geom.
    99, 2015), so the cosets below w_o u add nothing below the front there.
    """
    index = adjacency_graph(group, parabolic).index
    result = _search(group, parabolic, index[group.coset_min(v, parabolic)], "up", pad)
    dual = coset_duals(group, parabolic)[index[group.coset_min(u, parabolic)]]
    return _front(parabolic, result, dual)


def chain_front_exact(group: WeylGroup, parabolic: Parabolic, x: Weyl, y: Weyl, pad: int = 2) -> DegreeFront:
    """Minimal degrees of chains with first coset exactly xW_P and last exactly yW_P."""
    graph = adjacency_graph(group, parabolic)
    xi = graph.index[group.coset_min(x, parabolic)]
    yi = graph.index[group.coset_min(y, parabolic)]
    result = _search(group, parabolic, xi, "exact", pad)
    return _front(parabolic, result, yi)


def _backtrack(graph: AdjacencyGraph, result: _SearchResult, vertex: int, label: int) -> tuple:
    """The cosets and roots of the chain that reached label at vertex, read off the fronts."""
    cosets = [graph.cosets[vertex]]
    roots = []
    while True:
        front = result.fronts[vertex]
        if label not in front:
            raise InvariantViolationError(f"a witness step left the search front at coset #{vertex}")
        if front[label] is None:
            return tuple(reversed(cosets)), tuple(reversed(roots))
        vertex, label, alpha = front[label]
        cosets.append(graph.cosets[vertex])
        roots.append(alpha)


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
