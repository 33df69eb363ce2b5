import itertools

import pytest

from qdeg.cascade import alpha_beta_phi, coroot_sum, d_x, vec_add
from qdeg.curveneighborhood import z
from qdeg.degreelattice import degree_box, extended_support, greedy_decomposition
from qdeg.distance import delta_w
from qdeg.errors import DomainError
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


def self_fronts_oracle(group, parabolic, pad):
    """{coefficients of d in the box d_X + pad : d in delta_w(z(d).z_min)}, one z and one
    delta_w call per point (test oracle)."""
    return {
        d.coeffs
        for d in degree_box(parabolic, d_x(group.system, parabolic), pad)
        if d in delta_w(group, parabolic, z(group, parabolic, d).z_min, pad)
    }
