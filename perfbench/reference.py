"""A fixed pure-Python loop that gauges how fast the host runs at the moment.

On a shared host the same work can run at speeds up to 1.7x apart, in phases
that last from seconds to minutes (README.md, "Host noise").  The benchmark
times this loop between the operations of a pass, in the same process, and
reports every timing scaled by ``REFERENCE_S / (the loop's time measured next
to it)``: seconds on a host that runs the loop in ``REFERENCE_S``.  A change to
``src/qdeg`` cannot change the loop, so it moves the scaled times in
proportion to the raw ones.

The loop does what the qdeg kernels do most: products of small integer
matrices held as tuples of tuples, and a dict memo keyed by them.
"""

from __future__ import annotations

from time import perf_counter

SIZE = 6  # matrix order
STEPS = 600  # products per loop; the walk does not repeat within 2,000
REFERENCE_S = 0.025  # the loop's time on the development host at its fast phase


def _generators() -> tuple:
    x, out = 12345, []
    for _ in range(6):
        rows = []
        for _ in range(SIZE):
            row = []
            for _ in range(SIZE):
                x = (x * 1103515245 + 12345) % 2**31
                row.append((x >> 16) % 5 - 2)
            rows.append(tuple(row))
        out.append(tuple(rows))
    return tuple(out)


GENERATORS = _generators()


def reference_loop(steps: int = STEPS) -> int:
    """A walk of products of GENERATORS, reduced mod 11; returns the memo size.

    The walk does not repeat within STEPS, so every step multiplies and every
    lookup misses and inserts.
    """
    memo = {}
    m = GENERATORS[0]
    for i in range(steps):
        g = i % len(GENERATORS)
        key = (m, g)
        r = memo.get(key)
        if r is None:
            cols = tuple(zip(*GENERATORS[g]))
            r = tuple(
                tuple(sum(a * b for a, b in zip(row, col)) % 11 - 5 for col in cols)
                for row in m
            )
            memo[key] = r
        m = r
    return len(memo)


def reference_time() -> float:
    """Seconds one reference loop takes now."""
    start = perf_counter()
    reference_loop()
    return perf_counter() - start
