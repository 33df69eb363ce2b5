import itertools
from math import gcd
from operator import sub

import pytest

from qdeg.cascade import alpha_beta_phi, coroot_sum, d_x, vec_add
from qdeg.curveneighborhood import z
from qdeg.degreelattice import (
    Degree, d_of_root, degree_box, extended_support, greedy_decomposition, minimal_elements
)
from qdeg.distance import core, delta_w
from qdeg.errors import DomainError, VerificationError
from qdeg.rootsystem import coeffs_leq
from qdeg.weylgroup import Parabolic, weyl_group


@pytest.fixture(scope="session")
def groups():
    """Shared WeylGroup instances so caches amortize across the whole run."""
    return weyl_group


def all_parabolics(rank):
    return [
        Parabolic.from_indices(rank, c)
        for n in range(rank + 1)
        for c in itertools.combinations(range(rank), n)
    ]


def gram_coroot(system, a):
    """alpha^vee = 2 alpha / (alpha, alpha) through the Gram form, checked integral (test oracle)."""
    square = system.inner(a, a)
    out = []
    for c, d in zip(a, system.symmetrizer):
        q, r = divmod(2 * c * d, square)
        assert r == 0, (a, square)
        out.append(q)
    return tuple(out)


def gcd_coroot(system, a):
    """alpha^vee = (c_i d_i / g) with g = gcd(c_i d_i), one root at a time: the per-root formula
    that the per-system pass ``RootSystem.coroots`` replaced (test oracle)."""
    scaled = [c * d for c, d in zip(a, system.symmetrizer)]
    g = gcd(*scaled)
    return tuple(x // g for x in scaled)


def pair(system, x, c):
    """<x, c> for a root x and a coroot vector c, both coefficient tuples (test oracle)."""
    return sum(cj * system.pair_simple_coroot(x, j) for j, cj in enumerate(c) if cj)


def reflect_simple(system, a, j: int) -> tuple:
    """s_j(a) = a - <a, alpha_j^vee> alpha_j, by the full pairing sum (test oracle)."""
    out = list(a)
    out[j] -= system.pair_simple_coroot(a, j)
    return tuple(out)


#: the kernel oracles' systems: every type at rank 8, and each exceptional one
KERNEL_SYSTEMS = [
    ("A", 8), ("B", 8), ("C", 8), ("D", 8), ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)
]


def full_pairing_word(system, beta):
    """reflection_word by the walk it replaced: every pairing re-summed per step (test oracle)."""
    root = tuple(beta)
    if min(root) < 0:
        root = tuple(-c for c in root)
    path = []
    while sum(root) > 1:
        j = next(j for j in range(system.rank) if system.pair_simple_coroot(root, j) > 0)
        path.append(j)
        root = reflect_simple(system, root, j)
    return (*path, root.index(1), *reversed(path))


def word_mismatches(system) -> list:
    """The positive roots whose reflection_word is not the oracle's, raising or not."""
    out = []
    for beta in system.positive_roots:
        try:
            word = system.reflection_word(beta)
        except (IndexError, ValueError):  # a doctored table can walk off the roots
            word = None
        if word != full_pairing_word(system, beta):
            out.append(beta)
    return out


def reduction_identity_holds(system, beta):
    """Type-A reduction: d_{G/B} = alpha^vee + d_{G(theta-beta)/B(theta-beta)} (test oracle)."""
    theta = system.highest_root
    alpha = alpha_beta_phi(system, theta, beta)
    rest = tuple(x - y for x, y in zip(theta, system.simple_roots[beta]))
    if any(rest):
        tail = coroot_sum(system, system.support(rest))
    else:
        tail = (0,) * system.rank  # n = 1: the convention d = 0
    return coroot_sum(system) == vec_add(system.coroot(alpha), tail)


def is_connected_degree(system, parabolic, d):
    """The union of the supports of the greedy entries of d is connected (test oracle)."""
    return system.is_connected(extended_support(system, parabolic, d))


def alpha_of_connected(system, parabolic, d):
    """The first greedy entry of a connected degree, independent of tie-breaks (test oracle)."""
    if d.is_zero() or not is_connected_degree(system, parabolic, d):
        raise DomainError("degree is not a nonzero connected degree")
    return greedy_decomposition(system, parabolic, d)[0]


def z_classes_oracle(group, parabolic, pad):
    """The box d_X + pad + 1 grouped by z_d^P, one z call per point: ((z_min, points), ...)
    in order of first appearance, points as coefficient tuples in lex order (test oracle)."""
    classes = {}
    for d in degree_box(parabolic, d_x(group.system, parabolic), pad + 1):
        classes.setdefault(z(group, parabolic, d).z_min, []).append(d.coeffs)
    return tuple((zd, tuple(points)) for zd, points in classes.items())


def hecke_box_oracle(group, parabolic, pad):
    """hecke_box with no memo: one Hecke step per point of d_X + pad, from the tail's Y, along
    the first root of the greedy decomposition (test oracle)."""
    system = group.system
    ys = {}
    for d in degree_box(parabolic, d_x(system, parabolic), pad):
        if d.is_zero():
            ys[d.coeffs] = group.longest_element(parabolic)
            continue
        alpha = greedy_decomposition(system, parabolic, d)[0]
        tail = tuple(map(sub, d.coeffs, d_of_root(system, parabolic, alpha).coeffs))
        ys[d.coeffs] = group.hecke_word(ys[tail], system.reflection_word(alpha))
    return ys


def rank_sum_positive_roots(cartan):
    """The positive roots by the BFS ``_generate_positive_roots`` replaced: every pairing
    summed over the rank, per root and per j (test oracle)."""
    rank = len(cartan)
    simple = [tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)]
    seen = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for a in frontier:
            for j in range(rank):
                p = sum(a[i] * cartan[i][j] for i in range(rank))
                if p < 0:
                    b = list(a)
                    b[j] -= p
                    b = tuple(b)
                    if b not in seen:
                        seen.add(b)
                        fresh.append(b)
        frontier = fresh
    return tuple(sorted(seen, key=lambda r: (sum(r), r)))


def self_fronts_oracle(group, parabolic, pad):
    """{coefficients of d in the box d_X + pad : d in delta_w(z(d).z_min)}, one z and one
    delta_w call per point (test oracle)."""
    return {
        d.coeffs
        for d in degree_box(parabolic, d_x(group.system, parabolic), pad)
        if d in delta_w(group, parabolic, z(group, parabolic, d).z_min, pad)
    }


def minima_oracle(c):
    """A z-class's (inner-box minima, whole-box minima) by two sweeps, one per box (test oracle)."""
    return minimal_elements(d for d in c.points if coeffs_leq(d, c.inner)), minimal_elements(c.points)


def scan_front_oracle(group, parabolic, pad, hit):
    """The front of the z-classes numbered in hit, by one sweep over each box (test oracle)."""
    minima = [minima_oracle(c) for i, c in enumerate(core._z_classes(group, parabolic, pad)) if i in hit]
    front = minimal_elements(d for inner, _ in minima for d in inner)
    stable = minimal_elements(d for _, whole in minima for d in whole)
    if front != stable:
        extra = next(d for d in stable if d not in front)
        raise VerificationError(f"delta_w front unstable at box boundary: degree {extra}")
    return tuple(Degree(parabolic, d) for d in front)


def hecke_rows_oracle(group, parabolic, pad):
    """hecke_rows with the columns split class by class, a hit set a tuple (test oracle)."""
    table = core._coset_table(group, parabolic)
    left, lengths, down = table.left, table.lengths, table.down
    n = len(lengths)
    walks = []
    for c in core._z_classes(group, parabolic, pad):
        h = [table.index[c.z]]
        for r in range(1, n):
            j = table.descents[r]
            y = h[left[j][r]]
            s = left[j][y]
            h.append(s if lengths[s] > lengths[y] else y)
        walks.append(h)
    fronts = {}
    for x in core.coset_duals(group, parabolic):
        parts = [((1 << n) - 1, ())]
        for c, h in enumerate(walks):
            cover = down[h[x]]
            split = []
            for mask, hit in parts:
                inside = mask & cover
                if inside:
                    split.append((inside, hit + (c,)))
                if inside != mask:
                    split.append((mask ^ inside, hit))
            parts = split
        for _, hit in parts:
            if hit not in fronts:
                fronts[hit] = tuple(d.coeffs for d in scan_front_oracle(group, parabolic, pad, hit))
        row = [(mask, fronts[hit]) for mask, hit in parts]
        yield tuple(sorted(row, key=lambda part: part[0] & -part[0]))


def ends_search(group, parabolic, j, pad):
    """The search from where a chain to u_j W_P may end, the cosets below w_o u_j W_P: the
    mirror under w_o of the "up" search of j, which delta_uv runs."""
    ends = core._chain_ends(group, parabolic, j)
    return core._pareto_search(core._labels(group, parabolic, pad), ends)
