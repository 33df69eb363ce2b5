"""Named verification suites: exhaustive checks of the structural theorems.

Each suite is a generator over one (type, rank, parabolic) triple that yields
one CheckResult per claim, with the first counterexample found.  Reports are
deterministic: iteration orders are fixed and results are sorted.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from ..cascade import (
    d_gpbeta as _d_gpbeta,
    d_x as _d_x,
    is_locally_high as _is_locally_high,
    is_strongly_orthogonal as _is_strongly_orthogonal,
    vec_add as _vec_add,
)
from ..curveneighborhood import (
    equalwx_criterion,
    is_cosmall,
    is_very_cosmall,
    z,
    z_lift_check,
)
from ..degreelattice import (
    Degree,
    all_greedy_decompositions,
    box_points,
    d_of_root,
    degree_box,
    extended_support,
    greedy_decomposition,
    maximal_roots,
    naive_support,
    outside_roots,
    restrict,
    induce,
)
from ..errors import ConfigurationError, InvariantViolationError, ResourceError
from ..rootsystem import coeffs_leq, memoised, subsystem
from ..weylgroup import ENUMERATION_CAP, Parabolic, Weyl, WeylGroup, weyl_group
from .core import (
    adjacency_graph,
    chain_witness,
    chain_front_exact,
    coset_duals,
    coset_order,
    delta_w,
    delta_uv,
    hecke_rows,
    _bits,
    _search,
    _SearchResult,
    _z_classes,
)

#: the largest Weyl group order on which ``main --mode auto``, ``final-cor``
#: and ``front_coverage`` build pair tables unasked (B3 and C3 have 48, A4 120)
PAIR_TABLE_ORDER = 48


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    checked: int
    counterexample: str | None = None

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checked": self.checked,
            "counterexample": self.counterexample,
        }


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    type_letter: str
    rank: int
    parabolic: tuple  # sorted 1-based indices of Delta_P
    passed: bool
    checks: tuple

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "system": {"type": self.type_letter, "rank": self.rank},
            "parabolic": list(self.parabolic),
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _check(name: str, items) -> CheckResult:
    """Count (ok, info) items; the first failing item's info is the counterexample.

    An info may be a callable that builds the text: it is called only for the
    first failure, while its item is current, so passing items format nothing.
    An item (ok, info, count) stands for count checks with one verdict, such
    as the pairs of one part of a pair row, and counts count times.
    """
    n, bad = 0, None
    for item in items:
        n += item[2] if len(item) > 2 else 1
        if not item[0] and bad is None:
            info = item[1]
            bad = str(info() if callable(info) else info)
    return CheckResult(name, bad is None, n, bad)


_Checks = Iterator[CheckResult]


def _word_str(group: WeylGroup, w: Weyl) -> str:
    return "s" + ".".join(str(j + 1) for j in group.reduced_word(w)) if w != group.identity else "e"


def _supersets(parabolic: Parabolic):
    free = parabolic.free
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            yield Parabolic(parabolic.rank, parabolic.delta_p | frozenset(extra))


def _min_tuples(result: _SearchResult, vertex: int) -> tuple:
    """A chain search's front at vertex, unpacked into sorted coefficient tuples."""
    return tuple(map(result.labels.unpack, sorted(result.fronts[vertex])))


def _pairs_table(group: WeylGroup, parabolic: Parabolic, pad: int):
    """(i, parts of row i of ``hecke_rows``) for each coset index i, streamed: nothing n^2 is kept.

    A part (mask, front) gives delta_P(u_i, u_j), as raw coefficient tuples,
    for every column j in the int bitset mask: the minimal degrees d with
    u_j W_P <= (w_o u_i) . z_d^P W_P in the box d_X + pad (Fulton-Woodward,
    On the quantum product of Schubert classes, J. Algebraic Geom. 13, 2004;
    Buch-Mihalcea, Curve neighborhoods of Schubert varieties, J.
    Differential Geom. 99, 2015), re-checked at pad + 1 as ``delta_w`` is, so
    a minimal degree outside the box raises VerificationError.  The parts
    cover every column once, no mask is empty, and they are ordered by
    lowest column, so a claim counts a part's pairs as mask.bit_count() and
    names its lowest column where the per-pair scan would name its first.

    Before it is yielded, the row of the top coset (the point class) is
    expanded into columns (``_dense``) and checked against the chain search
    seeded at the cosets above it, read at w_o u_j W_P; a pair where the two
    differ raises InvariantViolationError.
    The chain read is exact: the curve neighborhood of a Schubert variety is
    a Schubert variety (Buch-Mihalcea 2015), so the cosets reached within
    degree d from an up-set form an up-set, and a chain of degree at most
    the cap has every prefix at most the cap, so the search prunes none of it.

    A table of more than 4 * ENUMERATION_CAP pairs raises ResourceError at
    the first row, before any coset is enumerated.
    """
    n = group.order() // group.order(parabolic.delta_p)
    if n * n > 4 * ENUMERATION_CAP:
        raise ResourceError(f"pair table of {n * n} pairs exceeded the cap of {4 * ENUMERATION_CAP}")
    for i, parts in enumerate(hecke_rows(group, parabolic, pad)):
        if i == n - 1:
            chain = _search(group, parabolic, i, "up", pad)
            row = _dense(parts, n)
            for j, y in enumerate(coset_duals(group, parabolic)):
                if _min_tuples(chain, y) != row[j]:
                    raise InvariantViolationError(f"chain and Hecke fronts differ at u#{i} v#{j}")
        yield i, parts


def _dense(parts, n: int) -> list:
    """The row of n columns that the parts of a pair row describe: row[j] is the front of column j."""
    row = [None] * n
    for mask, front in parts:
        for j in _bits(mask):
            row[j] = front
    return row


def _first(mask: int) -> int:
    """The lowest column of a part's mask."""
    return (mask & -mask).bit_length() - 1


def _empty_fronts(rows):
    """A failing item per empty part of the (i, parts) rows, counting its pairs, so no pair check
    passes on none."""
    for i, parts in rows:
        for mask, front in parts:
            if not front:
                yield False, f"u#{i} v#{_first(mask)} empty front", mask.bit_count()


def _each_pair_degree(rows, ok):
    """(ok(coeffs), info, pairs) for each degree of each part of the streamed rows; an empty
    front fails.

    pairs is the part's mask.bit_count(), and info names its lowest column:
    as the parts are ordered by lowest column, the count and the first
    counterexample are those of a scan of every pair in column order.  ok
    must be pure in coeffs (both callers are): it runs once per distinct
    tuple, and info is formatted only for a failing item.
    """
    verdicts: dict = {}
    for i, parts in rows:
        yield from _empty_fronts([(i, parts)])
        for mask, front in parts:
            pairs = mask.bit_count()
            for coeffs in front:
                good = verdicts.get(coeffs)
                if good is None:
                    good = verdicts[coeffs] = ok(coeffs)
                yield good, None if good else f"u#{i} v#{_first(mask)} d={coeffs}", pairs


@memoised("self-fronts")
def _self_fronts(group: WeylGroup, parabolic: Parabolic, pad: int) -> frozenset:
    """{coefficients of d in the box d_X + pad : d in delta_P(z_d^P)}.

    It is the union of the fronts delta_P(z) of the z-classes with a point in
    the box, one ``delta_w`` each.  A self-front d is in its own class's
    front; conversely, if d is in delta_P(z), then z <= z_d^P, and any d' <= d
    with z_d^P <= z_{d'}^P has z <= z_{d'}^P, so d' = d: d is a self-front.
    """
    out = set()
    for c in _z_classes(group, parabolic, pad):
        if c.minima[0]:  # a point in the box d_X + pad
            out.update(d.coeffs for d in delta_w(group, parabolic, c.z, pad).degrees)
    return frozenset(out)


def _self_front(group: WeylGroup, parabolic: Parabolic, d: Degree, pad: int) -> bool:
    """d in delta_P(z_d^P): the degree is minimal for its own curve neighborhood.

    d must lie in the box d_X + pad, which ``_self_fronts`` covers.
    """
    if not coeffs_leq(d.coeffs, tuple(c + pad for c in _d_x(group.system, parabolic).coeffs)):
        raise InvariantViolationError(f"self-front test of {d.coeffs} outside the box d_X + {pad}")
    return d.coeffs in _self_fronts(group, parabolic, pad)


def _minimal_degrees(group: WeylGroup, parabolic: Parabolic, pad: int) -> list:
    """The self-front degrees of the d_X + pad box, in lex order.

    These are the degrees minimal in some sigma_u * sigma_v; the paper's last
    result makes d_X the unique maximal one.
    """
    return [Degree(parabolic, c) for c in sorted(_self_fronts(group, parabolic, pad))]


def _local_context(group: WeylGroup, parabolic: Parabolic, support) -> tuple:
    """The component on a connected support, its Weyl group, and P restricted to it."""
    comp = subsystem(group.system, support)[0]
    local_group = weyl_group(comp.system.type_letter, comp.system.rank)
    local_p = Parabolic(
        comp.system.rank,
        frozenset(i for i, node in enumerate(comp.nodes) if node in parabolic.delta_p),
    )
    return comp, local_group, local_p


def _to_ambient(group: WeylGroup, comp, local_group: WeylGroup, w: Weyl) -> Weyl:
    """The image in W of an element of the component's Weyl group."""
    return group.from_word(comp.nodes[j] for j in local_group.reduced_word(w))


class _Ambient(dict):
    """``_to_ambient`` for one component, each local element mapped once, on first read."""

    def __init__(self, group: WeylGroup, comp, local_group: WeylGroup):
        super().__init__()
        self.group, self.comp, self.local_group = group, comp, local_group

    def __missing__(self, w: Weyl) -> Weyl:
        image = self[w] = _to_ambient(self.group, self.comp, self.local_group, w)
        return image


def _reflection_fronts(group: WeylGroup, parabolic: Parabolic, pad: int, roots, label="alpha={}".format):
    """(delta_P(s_alpha) == {d(alpha)}, label(alpha)) for each root alpha in roots."""
    for a in roots:
        yield (
            delta_w(group, parabolic, group.reflection(a), pad).degrees
            == (d_of_root(group.system, parabolic, a),),
            label(a),
        )


def _first_entries(system, parabolic: Parabolic, degrees):
    """(d, alpha, d - d(alpha)) for each nonzero d and each maximal root alpha of d."""
    for d in degrees:
        if not d.is_zero():
            for m in maximal_roots(system, parabolic, d):
                yield d, m, d - d_of_root(system, parabolic, m)


# -- individual suites --------------------------------------------------------


def _suite_hecke(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    triples = group.order() ** 3  # associativity walks every triple, the product table every pair
    if triples > ENUMERATION_CAP:
        raise ResourceError(f"hecke suite of {triples} triples exceeded the cap of {ENUMERATION_CAP}")
    els = group.elements()
    w_p = group.longest_element(parabolic)
    table = {(u, v): group.hecke_product(u, v) for u in els for v in els}
    rel = [(u, v) for u in els for v in els if group.bruhat_leq(u, v)]

    yield _check(
        "monoid-identity",
        (
            (table[(u, group.identity)] == u and table[(group.identity, u)] == u, lambda: _word_str(group, u))
            for u in els
        ),
    )
    yield _check(
        "monoid-associative",
        (
            (table[(table[(u, v)], w)] == table[(u, table[(v, w)])], "triple")
            for u in els
            for v in els
            for w in els
        ),
    )
    yield _check(
        "inverse-antihomomorphism",
        (
            (
                group.inverse(table[(u, v)])
                == table[(group.inverse(v), group.inverse(u))],
                "pair",
            )
            for u in els
            for v in els
        ),
    )
    yield _check(
        "bruhat-monotone",
        (
            (
                group.bruhat_leq(table[(table[(u, v)], w)], table[(table[(u, v2)], w)]),
                "triple",
            )
            for (v, v2) in rel
            for u in els
            for w in els
        ),
    )
    yield _check(
        "product-below-hecke",
        ((group.bruhat_leq(group.multiply(u, v), table[(u, v)]), "pair") for u in els for v in els),
    )
    def _hecke_v():
        for u in els:
            for v in els:
                uv = table[(u, v)]
                u2 = group.multiply(uv, group.inverse(v))
                ok = (
                    group.bruhat_leq(u2, u)
                    and group.multiply(u2, v) == uv
                    and table[(u2, v)] == uv
                )
                yield ok, lambda: f"u={_word_str(group, u)} v={_word_str(group, v)}"
    yield _check("hecke-v-reduction", _hecke_v())
    def _max_rep():
        for w in els:
            is_max = group.coset_max_rep(w, parabolic).element == w
            yield (is_max == (table[(w, w_p)] == w)), lambda: _word_str(group, w)
    yield _check("max-rep-fixed-point", _max_rep())
    def _min_rep():
        for w in els:
            if group.coset_min(w, parabolic) != w:
                continue
            top = group.multiply(w, w_p)
            yield (
                top == table[(w, w_p)]
                and group.coset_max_rep(w, parabolic).element == top
            ), lambda: _word_str(group, w)
    yield _check("min-rep-product", _min_rep())
    def _wpodot():
        for w in els:
            top = table[(w, w_p)]
            ok = (
                group.coset_max_rep(w, parabolic).element == top
                and group.coset_min(w, parabolic) == group.multiply(top, w_p)
            )
            yield ok, lambda: _word_str(group, w)
    yield _check("wpodot", _wpodot())
    coset_rel = [
        (v, v2)
        for v in els
        for v2 in els
        if group.bruhat_leq_coset(v, v2, parabolic)
    ]
    yield _check(
        "coset-monotone",
        (
            (
                group.bruhat_leq_coset(table[(u, v)], table[(u, v2)], parabolic),
                "pair",
            )
            for (v, v2) in coset_rel
            for u in els
        ),
    )


def _suite_zd(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    w_p = group.longest_element(parabolic)
    box = list(degree_box(parabolic, Degree.zero(parabolic), 4))

    def _unique():
        for d in box:
            decs = [tuple(sorted(g)) for g in all_greedy_decompositions(system, parabolic, d)]
            ok = len(set(decs)) == 1
            entries = greedy_decomposition(system, parabolic, d)
            ok = ok and all(is_cosmall(group, parabolic, a) for a in entries)
            ok = ok and all(
                maximal_roots(system, parabolic, d_of_root(system, parabolic, a)) == (a,)
                for a in entries
            )
            yield ok, f"d={d.coeffs}"
    yield _check("greedy-unique-and-cosmall", _unique())

    def _removal():
        for d in box:
            entries = greedy_decomposition(system, parabolic, d)
            for i in range(len(entries)):
                rest = entries[:i] + entries[i + 1 :]
                smaller = d - d_of_root(system, parabolic, entries[i])
                ok = sorted(rest) == sorted(greedy_decomposition(system, parabolic, smaller))
                yield ok, f"d={d.coeffs} drop {entries[i]}"
    yield _check("greedy-entry-removal", _removal())

    pairs = [
        (d, a, b)
        for d in box
        for a, b in itertools.combinations(greedy_decomposition(system, parabolic, d), 2)
    ]
    yield _check(
        "greedy-pair-relation",
        (
            (system.inner(a, b) >= 0 and not system.is_root(_vec_add(a, b)), f"d={d.coeffs} {a} {b}")
            for d, a, b in pairs
        ),
    )
    hecke = lambda a, b: group.hecke_product(group.reflection(a), group.reflection(b))
    yield _check("hecke-commute", ((hecke(a, b) == hecke(b, a), f"d={d.coeffs}") for d, a, b in pairs))

    yield _check(
        "z-lift",
        ((z_lift_check(group, parabolic, d), f"d={d.coeffs}") for d in box),
    )

    def _stab():
        for d in box:
            zd = z(group, parabolic, d)
            ok = (
                group.hecke_product(w_p, zd.z_max) == zd.z_max
                and group.hecke_product(zd.z_max, w_p) == zd.z_max
                and parabolic.delta_p <= group.stabilizer_delta(zd.z_min, parabolic)
            )
            yield ok, f"d={d.coeffs}"
    yield _check("z-stabilizer", _stab())

    def _projection():
        for q in _supersets(parabolic):
            for d in box:
                zq = z(group, q, restrict(d, q))
                yield (
                    group.bruhat_leq(z(group, parabolic, d).z_max, zq.z_max),
                    f"d={d.coeffs} Q={sorted(q.delta_p)}",
                )
    yield _check("z-projection", _projection())

    def _inverse():
        for d in box:
            zd = z(group, parabolic, d)
            ok = zd.z_max == group.hecke_product(group.inverse(zd.z_max), w_p)
            if not parabolic.delta_p:
                ok = ok and zd.z_min == group.inverse(zd.z_min)
            yield ok, f"d={d.coeffs}"
    yield _check("z-inverse", _inverse())

    def _monotone():
        for d in box:
            for d2 in box:
                if d.leq(d2):
                    yield (
                        group.bruhat_leq(
                            z(group, parabolic, d).z_min, z(group, parabolic, d2).z_min
                        ),
                        f"{d.coeffs} <= {d2.coeffs}",
                    )
    yield _check("z-monotone", _monotone())

    very = [a for a in outside_roots(system, parabolic) if is_very_cosmall(group, parabolic, a)]

    def _verycosmall():
        for a in very:
            da = d_of_root(system, parabolic, a)
            s_a = group.reflection(a)
            for d in box:
                if group.bruhat_leq_coset(s_a, z(group, parabolic, d).z_min, parabolic):
                    yield da.leq(d), f"alpha={a} d={d.coeffs}"
    yield _check("verycosmall-forces-degree", _verycosmall())

    w_x = group.w_x(parabolic)

    if parabolic.free:  # vacuous when X is a point
        def _wx_start():
            theta = system.highest_root
            for d in box:
                zd = z(group, parabolic, d)
                if zd.z_min != w_x:
                    continue
                entries = greedy_decomposition(system, parabolic, d)
                ok = theta in entries
                for a in entries:
                    rest = z(group, parabolic, d - d_of_root(system, parabolic, a))
                    dual_refl = group.multiply(group.w_o, group.reflection(a))
                    ok = ok and group.bruhat_leq(dual_refl, rest.z_max)
                yield ok, f"d={d.coeffs}"
        yield _check("wx-theta-and-dualsmaller", _wx_start())

    def _support():
        for d in box:
            zd = z(group, parabolic, d)
            got = frozenset(group.reduced_word(zd.z_max))
            want = extended_support(system, parabolic, d) | parabolic.delta_p
            yield got == want, f"d={d.coeffs}"
    yield _check("support-formula", _support())

    def _relation():
        for d, m, rest in _first_entries(system, parabolic, box):
            for b in frozenset(group.reduced_word(z(group, parabolic, rest).z_max)):
                simple = system.simple_roots[b]
                ok = system.inner(m, simple) >= 0 and not system.is_root(_vec_add(m, simple))
                yield ok, f"d={d.coeffs} alpha={m} beta={b + 1}"
    yield _check("first-entry-relation", _relation())

    if not parabolic.delta_p:
        def _local():
            for d in box:
                entries = greedy_decomposition(system, parabolic, d)
                if not entries:
                    continue
                for phi in system.positive_roots:
                    if not all(coeffs_leq(a, phi) for a in entries):
                        continue
                    comp, local_group, local_b = _local_context(
                        group, parabolic, system.support(phi)
                    )
                    local_d = Degree(local_b, comp.to_local_root(d.coeffs))
                    local_z = z(local_group, local_b, local_d)
                    mapped = _to_ambient(group, comp, local_group, local_z.z_min)
                    yield (
                        mapped == z(group, parabolic, d).z_min,
                        f"d={d.coeffs} phi={phi}",
                    )
        yield _check("local-z", _local())

    def _equalwx():
        corner = _d_x(system, parabolic)
        for d in degree_box(parabolic, corner, 1):
            crit = equalwx_criterion(group, parabolic, d, pad=3)
            yield (
                crit == (z(group, parabolic, d).z_min == w_x),
                f"d={d.coeffs}",
            )
    yield _check("equalwx-criterion", _equalwx())


def _suite_uniqueness(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    dx = _d_x(system, parabolic)
    front = delta_w(group, parabolic, group.w_o, pad)
    yield _check(
        "front-singleton-dx",
        [(front.degrees == (dx,), f"front={[d.coeffs for d in front.degrees]}")],
    )
    yield _check(
        "z-at-dx-is-wx",
        [(z(group, parabolic, dx).z_min == group.w_x(parabolic), f"d={dx.coeffs}")],
    )
    def _below():  # the points of w_X's z-class, in the scan box that delta_w(w_o) grouped
        w_x = group.w_x(parabolic)
        top = {d for c in _z_classes(group, parabolic, pad) if c.z == w_x for d in c.points}
        for coeffs in box_points(dx.coeffs):
            if coeffs != dx.coeffs:
                yield coeffs not in top, f"d={coeffs}"
    yield _check("z-below-dx-not-wx", _below())


def _suite_main(group: WeylGroup, parabolic: Parabolic, pad: int, mode: str) -> _Checks:
    system = group.system
    dx = _d_x(system, parabolic)
    if mode == "auto":
        mode = "pairs" if group.order() <= PAIR_TABLE_ORDER else "box"
    if mode == "pairs":
        yield _check(
            "minimal-degrees-bounded-by-dx",
            _each_pair_degree(
                _pairs_table(group, parabolic, pad), lambda c: coeffs_leq(c, dx.coeffs)
            ),
        )
    elif mode == "box":
        yield _check(
            "self-front-degrees-bounded-by-dx",
            ((d.leq(dx), f"d={d.coeffs}") for d in _minimal_degrees(group, parabolic, pad)),
        )
    else:
        raise ConfigurationError(f"unknown main-suite mode {mode!r}")


def _suite_description(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    def _agree():
        for m in group.cosets(parabolic):
            scan = delta_w(group, parabolic, m, pad)
            chain = delta_uv(group, parabolic, m, group.w_o, pad)
            # a front read under cap_hit is read again at pad + 1, as delta2 does
            wide = delta_uv(group, parabolic, m, group.w_o, pad + 1) if chain.cap_hit else chain
            moved = wide.degrees != chain.degrees
            yield scan.degrees == chain.degrees and not moved, lambda: (
                f"u={_word_str(group, m)} scan={[d.coeffs for d in scan.degrees]}"
                f" chain={[d.coeffs for d in chain.degrees]}"
                + (f" chain at pad {pad + 1}={[d.coeffs for d in wide.degrees]}" if moved else "")
            )
    yield _check("delta-w-equals-delta-uv-wo", _agree())


def _suite_delta2(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    yield _check(
        "pair-degrees-are-self-front",
        _each_pair_degree(
            _pairs_table(group, parabolic, pad),
            lambda c: _self_front(group, parabolic, Degree(parabolic, c), pad),
        ),
    )


def _suite_delta_props(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    cosets = group.cosets(parabolic)
    els = group.elements()
    wp_els = group.elements(parabolic)
    front = lambda w: delta_w(group, parabolic, w, pad)

    yield _check(
        "wp-invariance",
        (
            (front(group.multiply(u, m)).degrees == front(m).degrees, lambda: _word_str(group, m))
            for m in cosets
            for u in wp_els
        ),
    )
    yield _check(
        "inverse-invariance",
        (
            (front(w).degrees == front(group.inverse(w)).degrees, lambda: _word_str(group, w))
            for w in els
        ),
    )
    def _monotone():
        for m in cosets:
            for m2 in cosets:
                if not group.bruhat_leq(m, m2):
                    continue
                for d in front(m2).degrees:
                    yield (
                        any(d2.leq(d) for d2 in front(m).degrees),
                        lambda: f"{_word_str(group, m)} <= {_word_str(group, m2)} d={d.coeffs}",
                    )
    yield _check("bruhat-monotone", _monotone())
    def _triangle():
        for u in els:
            fu = front(u).degrees
            for v in els:
                fv = front(v).degrees
                fuv = front(group.hecke_product(u, v)).degrees
                for d in fu:
                    for d2 in fv:
                        total = d + d2
                        yield (
                            any(d3.leq(total) for d3 in fuv),
                            lambda: f"u={_word_str(group, u)} v={_word_str(group, v)}",
                        )
    yield _check("triangle", _triangle())
    def _projection():
        for q in _supersets(parabolic):
            for m in cosets:
                fq = delta_w(group, q, m, pad).degrees
                for d in front(m).degrees:
                    yield (
                        any(e.leq(restrict(d, q)) for e in fq),
                        lambda: f"{_word_str(group, m)} Q={sorted(q.delta_p)}",
                    )
    yield _check("projection", _projection())
    outside = outside_roots(system, parabolic)
    def _cosmall_member():
        for a in outside:
            if not is_cosmall(group, parabolic, a):
                continue
            yield (
                d_of_root(system, parabolic, a) in front(group.reflection(a)),
                f"alpha={a}",
            )
    yield _check("cosmall-membership", _cosmall_member())
    very = (a for a in outside if is_very_cosmall(group, parabolic, a))
    yield _check("verycosmall-singleton", _reflection_fronts(group, parabolic, pad, very))
    yield _check(
        "simple-root-degree",
        _reflection_fronts(
            group, parabolic, pad, system.simple_roots, lambda a: f"beta={a.index(1) + 1}"
        ),
    )
    selfish = _minimal_degrees(group, parabolic, pad)
    def _reduce():
        for d in selfish:
            for a in greedy_decomposition(system, parabolic, d):
                rest = d - d_of_root(system, parabolic, a)
                yield _self_front(group, parabolic, rest, pad), f"d={d.coeffs} alpha={a}"
    yield _check("greedy-reduction", _reduce())
    yield _check(
        "front-degree-self-membership",
        (
            (_self_front(group, parabolic, d, pad), lambda: f"{_word_str(group, m)} d={d.coeffs}")
            for m in cosets
            for d in front(m).degrees
        ),
    )


def _suite_delta2_props(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    graph = adjacency_graph(group, parabolic)
    cosets = graph.cosets
    up = coset_order(group, parabolic)
    rows = list(_pairs_table(group, parabolic, pad))  # kept: (j, i), Bruhat pairs
    table = [_dense(parts, len(cosets)) for _, parts in rows]
    duals = coset_duals(group, parabolic)

    def _rep_independence():
        outside = outside_roots(system, parabolic)
        for m in cosets:
            base = None
            for u in group.elements(parabolic):
                rep = group.multiply(m, u)
                labels = {}
                for alpha in outside:
                    t = group.coset_min(group.multiply(rep, group.reflection(alpha)), parabolic)
                    if t == m:
                        continue
                    labels.setdefault(graph.index[t], set()).add(
                        d_of_root(system, parabolic, alpha).coeffs
                    )
                flat = {(j, c) for j, cs in labels.items() for c in cs}
                if base is None:
                    base = flat
                ok = flat == base and all(len(cs) == 1 for cs in labels.values())
                yield ok, lambda: f"coset={_word_str(group, m)} rep-shift={_word_str(group, u)}"
    yield _check("adjacency-rep-independence", _rep_independence())

    pairs = [(i, j, front) for i, row in enumerate(table) for j, front in enumerate(row)]
    def _symmetry():
        yield from _empty_fronts(rows)
        for i, j, front in pairs:
            yield front == table[j][i], f"u#{i} v#{j}"
    yield _check("symmetry", _symmetry())
    zero = ((0,) * len(parabolic.free),)
    yield _check(
        "zero-iff-dominated",
        (((front == zero) == bool(up[i] >> duals[j] & 1), f"u#{i} v#{j}") for i, j, front in pairs),
    )
    def _pair_monotone():
        yield from _empty_fronts(rows)
        comparable = [(i, i2) for i, above in enumerate(up) for i2 in _bits(above)]
        for i, i2 in comparable:
            for j, j2 in comparable:
                for c2 in table[i2][j2]:
                    yield (
                        any(coeffs_leq(c, c2) for c in table[i][j]),
                        f"({i},{j}) <= ({i2},{j2}) d={c2}",
                    )
    yield _check("pair-monotone", _pair_monotone())
    def _endpoints():
        yield from _empty_fronts(rows)
        for i, j, front in pairs:
            for coeffs in front:
                d = Degree(parabolic, coeffs)
                witness = chain_witness(group, parabolic, cosets[i], cosets[j], d)
                first = graph.index[witness.cosets[0]]
                last_dual = duals[graph.index[witness.cosets[-1]]]
                for i2 in _bits(up[i]):
                    if not up[i2] >> first & 1:
                        continue
                    for j2 in _bits(up[j]):
                        if not up[j2] >> last_dual & 1:
                            continue
                        yield (
                            coeffs in table[i2][j2],
                            f"({i},{j})->({i2},{j2}) d={coeffs}",
                        )
    yield _check("chain-endpoint-transfer", _endpoints())
    def _equalu():
        for i, m in enumerate(cosets):
            exact = chain_front_exact(group, parabolic, m, group.identity, pad)
            for d in delta_w(group, parabolic, m, pad).degrees:
                yield d in exact, f"u#{i} d={d.coeffs}"
    yield _check("equalu-anchored-witness", _equalu())
    def _cor611():
        for i, m in enumerate(cosets):
            for d in delta_w(group, parabolic, m, pad).degrees:
                witness = chain_witness(group, parabolic, m, group.w_o, d, exact=True)
                suffix = Degree.zero(parabolic)
                ok = True
                # strict descent along the chain
                for a, b in zip(witness.cosets, witness.cosets[1:]):
                    ok = ok and group.bruhat_leq(b, a) and a != b
                # suffix degrees are themselves minimal
                for k in range(len(witness.cosets) - 1, -1, -1):
                    ok = ok and suffix in delta_w(group, parabolic, witness.cosets[k], pad)
                    if k:
                        suffix = suffix + d_of_root(
                            system, parabolic, witness.edge_roots[k - 1]
                        )
                yield ok, f"u#{i} d={d.coeffs}"
    yield _check("cor611-suffixes-and-descent", _cor611())


def _suite_inductive(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    dx = _d_x(system, parabolic)
    entries = greedy_decomposition(system, parabolic, dx)
    front = lambda w: delta_w(group, parabolic, w, pad)
    if parabolic.free:  # vacuous when X is a point
        yield _check(
            "theta-in-greedy-of-dx",
            [(system.highest_root in entries, f"entries={entries}")],
        )
    def _identities():
        for a in sorted(set(entries)):
            da = d_of_root(system, parabolic, a)
            rest = dx - da
            z_rest = z(group, parabolic, rest).z_min
            s_a = group.reflection(a)
            yield front(s_a).degrees == (da,), f"delta(s_alpha) alpha={a}"
            yield front(group.dual(s_a)).degrees == (rest,), f"delta(s_alpha^*) alpha={a}"
            yield front(z_rest).degrees == (rest,), f"delta(z) alpha={a}"
            yield front(group.dual(z_rest)).degrees == (da,), f"delta(z^*) alpha={a}"
    yield _check("inductive-identities", _identities())
    def _geqdx():
        for m in group.cosets(parabolic):
            dual_front = front(group.dual(m))
            for d in front(m).degrees:
                for d2 in dual_front.degrees:
                    yield (
                        dx.leq(d + d2),
                        lambda: f"{_word_str(group, m)} d={d.coeffs} d*={d2.coeffs}",
                    )
    yield _check("dual-sum-dominates-dx", _geqdx())
    def _cor():
        for m in group.cosets(parabolic):
            f1, f2 = front(m), front(group.dual(m))
            if any((d + d2) == dx for d in f1.degrees for d2 in f2.degrees):
                yield (
                    len(f1.degrees) == 1 and len(f2.degrees) == 1,
                    lambda: _word_str(group, m),
                )
    yield _check("tight-sum-forces-singletons", _cor())


def _suite_resind(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    selfish = _minimal_degrees(group, parabolic, pad)
    def _checks():
        for q in _supersets(parabolic):
            w_q = group.longest_element(q)
            corner_q = _d_x(system, q)
            for e in degree_box(q, corner_q, pad):
                ze = z(group, q, e)
                lifted = induce(system, e, parabolic)
                ok = ze.z_max == group.hecke_product(
                    z(group, parabolic, lifted).z_min, w_q
                )
                yield ok, f"Q={sorted(q.delta_p)} e={e.coeffs} (hecke formula)"
                witnesses = [
                    d
                    for d in selfish
                    if restrict(d, q).leq(e) and z(group, parabolic, d).z_max == ze.z_max
                ]
                yield bool(witnesses), f"Q={sorted(q.delta_p)} e={e.coeffs} (witness)"
                if _self_front(group, q, e, pad):
                    yield (
                        any(restrict(d, q) == e for d in witnesses),
                        f"Q={sorted(q.delta_p)} e={e.coeffs} (equality)",
                    )
    yield _check("restriction-induction", _checks())


def _suite_simply_laced(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    lengths = {system.inner(a, a) for a in system.positive_roots}
    if len(lengths) != 1:
        raise ConfigurationError("suite simply-laced requires a simply-laced system")
    yield _check(
        "delta-of-reflection-is-d-alpha",
        _reflection_fronts(group, parabolic, pad, system.positive_roots),
    )
    def _lemma514():  # d(alpha) on P_beta read off the coroot, not d_of_root: the lemma's content
        for b in range(system.rank):
            p_b = Parabolic(system.rank, frozenset(range(system.rank)) - {b})
            for a in system.positive_roots:
                expected = Degree(p_b, (system.coroot(a)[b],))
                yield (
                    delta_w(group, p_b, group.reflection(a), pad).degrees == (expected,),
                    f"alpha={a} beta={b + 1}",
                )
    yield _check("lemma-5-14", _lemma514())


def _suite_compatibility(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    supports = sorted({system.support(phi) for phi in system.positive_roots}, key=sorted)
    locally_high = [a for a in system.positive_roots if _is_locally_high(system, a)]
    contexts = []
    for s in supports:
        comp, local_group, local_p = _local_context(group, parabolic, s)
        to_w = _Ambient(group, comp, local_group)
        contexts.append((f"S={sorted(x + 1 for x in s)}", s, comp, local_group, local_p, to_w))

    def _delta_agree():
        for tag, _, comp, local_group, local_p, to_w in contexts:
            for m in local_group.cosets(local_p):
                local_front = delta_w(local_group, local_p, m, pad)
                mapped = []
                for d in local_front.degrees:
                    coeffs = [0] * system.rank
                    for i, c in zip(local_p.free, d.coeffs):
                        coeffs[comp.nodes[i]] = c
                    mapped.append(Degree(parabolic, tuple(coeffs[b] for b in parabolic.free)))
                ambient = delta_w(group, parabolic, to_w[m], pad)
                yield (
                    tuple(sorted(mapped, key=lambda d: d.coeffs)) == ambient.degrees,
                    lambda: f"{tag} u={_word_str(local_group, m)}",
                )
    yield _check("delta-local-equals-global", _delta_agree())

    def _coset_inclusion():
        for tag, _, _, local_group, local_p, to_w in contexts:
            # (local coset, ambient coset) per element, each coset_min taken once per context
            cosets = [
                (local_group.coset_min(u, local_p), group.coset_min(to_w[u], parabolic))
                for u in local_group.elements()
            ]
            for local_u, ambient_u in cosets:
                for local_v, ambient_v in cosets:
                    yield (local_u == local_v) == (ambient_u == ambient_v), tag
    yield _check("coset-inclusion", _coset_inclusion())

    def _hecke_compat():
        for tag, _, _, local_group, _, to_w in contexts:
            els = local_group.elements()
            for u in els:
                for v in els:
                    local = to_w[local_group.hecke_product(u, v)]
                    ambient = group.hecke_product(to_w[u], to_w[v])
                    yield local == ambient, tag
    yield _check("hecke-compatibility", _hecke_compat())

    def _chain_closure():
        outside = outside_roots(system, parabolic)
        for tag, s, _, local_group, local_p, to_w in contexts:
            image = {
                group.coset_min(to_w[m], parabolic)
                for m in local_group.cosets(local_p)
            }
            for m in image:
                for alpha in outside:
                    target = group.coset_min(
                        group.multiply(m, group.reflection(alpha)), parabolic
                    )
                    if target == m or target not in image:
                        continue
                    yield system.support(alpha) <= s, f"{tag} alpha={alpha}"
    yield _check("chain-edge-closure", _chain_closure())

    yield _check("locally-high-delta", _reflection_fronts(group, parabolic, pad, locally_high))


def _suite_orthogonality(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    selfish = _minimal_degrees(group, parabolic, pad)
    yield _check(
        "first-entry-orthogonality",
        (
            (
                _is_strongly_orthogonal(system, m, system.simple_roots[b]),
                f"d={d.coeffs} alpha={m} beta={b + 1}",
            )
            for d, m, rest in _first_entries(system, parabolic, selfish)
            for b in naive_support(parabolic, rest)
        ),
    )
    if not parabolic.delta_p:
        def _pairwise():
            for d in selfish:
                entries = greedy_decomposition(system, parabolic, d)
                if len(set(entries)) != len(entries):
                    yield False, f"repeated entry in d={d.coeffs}"
                    continue
                for a, b in itertools.combinations(entries, 2):
                    yield (
                        _is_strongly_orthogonal(system, a, b),
                        f"d={d.coeffs} {a} {b}",
                    )
        yield _check("pairwise-strong-orthogonality", _pairwise())


def _suite_final_cor(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    # (beta, P_beta, d_X of P_beta: the corner of its box) per free simple root
    maximal = [(b, parabolic.maximal_above(b), _d_gpbeta(group.system, b)) for b in parabolic.free]
    def _restriction():
        for d in _minimal_degrees(group, parabolic, pad):
            for b, p_b, _ in maximal:
                yield _self_front(group, p_b, restrict(d, p_b), pad), f"d={d.coeffs} beta={b + 1}"
    yield _check("maximal-restriction-membership", _restriction())
    def _interval():
        for b, p_b, top in maximal:
            got = {e.coeffs[0] for e in _minimal_degrees(group, p_b, pad)}
            yield got == set(range(top + 1)), f"beta={b + 1} got={sorted(got)}"
    yield _check("interval-identity-box", _interval())
    if group.order() <= PAIR_TABLE_ORDER:
        def _interval_pairs():
            for b, p_b, top in maximal:
                got = set()
                for i, parts in _pairs_table(group, p_b, pad):
                    yield from _empty_fronts([(i, parts)])
                    got.update(c[0] for _, front in parts for c in front)
                yield got == set(range(top + 1)), f"beta={b + 1} got={sorted(got)}"
        yield _check("interval-identity-pairs", _interval_pairs())


def _suite_g2_examples(group: WeylGroup, parabolic: Parabolic, pad: int) -> _Checks:
    system = group.system
    if (system.type_letter, system.rank) != ("G", 2):
        raise ConfigurationError("suite g2-examples requires type G rank 2")
    b = Parabolic(2, frozenset())
    p2 = Parabolic(2, frozenset({0}))  # P_{alpha_2}
    theta_s = system.highest_short_root
    s_ts = group.reflection(theta_s)
    front = delta_w(group, p2, s_ts, pad)
    pairing = system.coroot(theta_s)[1]
    yield _check(
        "example-5-9",
        [
            (
                front.degrees == (Degree(p2, (2,)),) and pairing == 3,
                f"delta={front.degrees[0].coeffs[0]} pairing={pairing}",
            )
        ],
    )
    yield _check(
        "example-5-9-prime",
        [
            (
                Degree(b, system.coroot(theta_s)) not in delta_w(group, b, s_ts, pad),
                f"coroot={system.coroot(theta_s)}",
            )
        ],
    )
    dgb = _d_x(system, b)
    e = Degree(b, (2, 1))
    expected_greedy = ((3, 1), (1, 0))
    absent = all(e.coeffs not in front for _, parts in _pairs_table(group, b, pad) for _, front in parts)
    yield _check(
        "example-inclusionstrict",
        [
            (dgb.coeffs == (2, 2), f"d_GB={dgb.coeffs}"),
            (
                greedy_decomposition(system, b, e) == expected_greedy,
                f"greedy={greedy_decomposition(system, b, e)}",
            ),
            (absent, "degree (2,1) occurred in some delta_B(u,v)"),
            (not _self_front(group, b, e, pad), "degree (2,1) is a self-front degree"),
        ],
    )


@dataclass(frozen=True)
class FrontCoverage:
    """Exploration data: which degrees below d_X occur as minimal pair degrees.

    No theorem asserts the interval [0, d_X] is covered (the G2 instance shows
    a gap), and no claim is made that fronts are singletons; this only reports
    what an exhaustive search finds.
    """

    achieved: tuple  # degrees d <= d_X with d in delta_P(z_d^P)
    gaps: tuple  # degrees d <= d_X never minimal in any pair product
    nonsingleton_pairs: tuple  # coset-index pairs whose front has > 1 element


def front_coverage(group: WeylGroup, parabolic: Parabolic, pad: int = 2) -> FrontCoverage:
    """Scan [0, d_X] for unachieved minimal degrees and non-singleton fronts.

    The self-front characterization (d in delta_P(z_d^P)) drives the coverage
    scan; on groups small enough to enumerate, the union of the streamed pair
    fronts is cross-checked against it.
    """
    selfish = _self_fronts(group, parabolic, pad)
    box = tuple(degree_box(parabolic, _d_x(group.system, parabolic), 0))
    achieved = tuple(d for d in box if d.coeffs in selfish)
    gaps = tuple(d for d in box if d.coeffs not in selfish)
    nonsingleton: list = []
    if group.order() <= PAIR_TABLE_ORDER:
        from_pairs = set()
        for i, parts in _pairs_table(group, parabolic, pad):
            from_pairs.update(c for _, front in parts for c in front)
            wide = sum(mask for mask, front in parts if len(front) > 1)  # the masks are disjoint
            nonsingleton += [(i, j) for j in _bits(wide)]
        if from_pairs != {d.coeffs for d in achieved}:
            raise InvariantViolationError("pair-front union disagrees with the self-front characterization")
    return FrontCoverage(achieved, gaps, tuple(nonsingleton))


_SUITES = {
    "hecke": _suite_hecke,
    "zd": _suite_zd,
    "uniqueness": _suite_uniqueness,
    "main": _suite_main,
    "description": _suite_description,
    "delta2": _suite_delta2,
    "delta-props": _suite_delta_props,
    "delta2-props": _suite_delta2_props,
    "inductive": _suite_inductive,
    "resind": _suite_resind,
    "simply-laced": _suite_simply_laced,
    "compatibility": _suite_compatibility,
    "orthogonality": _suite_orthogonality,
    "final-cor": _suite_final_cor,
    "g2-examples": _suite_g2_examples,
}


def suite_names() -> tuple:
    return tuple(sorted(_SUITES))


def verify_suite(
    name: str,
    type_letter: str,
    rank: int,
    parabolic=None,
    pad: int = 2,
    mode: str = "auto",
    group: WeylGroup | None = None,
) -> SuiteReport:
    """Run one named suite on (type, rank, parabolic) and report per-claim results.

    A group or parabolic of another system is a ConfigurationError.
    """
    if name not in _SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; available: {', '.join(suite_names())}"
        )
    if pad < 0:
        raise ConfigurationError(f"scan box pad must be >= 0, got {pad}")
    if group is None:
        group = weyl_group(type_letter, rank)
    system = group.system
    if (system.type_letter, system.rank) != (str(type_letter).upper(), rank):
        raise ConfigurationError(f"group of {system!r} given for type {type_letter}{rank}")
    if parabolic is None:
        parabolic = Parabolic(system.rank, frozenset())
    if parabolic.rank != rank or not parabolic.delta_p <= set(range(rank)):
        raise ConfigurationError(f"{parabolic!r} of rank {parabolic.rank} given for rank {rank}")
    if name == "main":
        checks = tuple(_SUITES[name](group, parabolic, pad, mode))
    else:
        checks = tuple(_SUITES[name](group, parabolic, pad))
    return SuiteReport(
        suite=name,
        type_letter=system.type_letter,
        rank=system.rank,
        parabolic=tuple(sorted(i + 1 for i in parabolic.delta_p)),
        passed=all(c.passed for c in checks),
        checks=checks,
    )
