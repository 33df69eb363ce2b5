import itertools

import pytest

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
