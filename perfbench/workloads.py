"""The four benchmark workloads, each driven through the public ``qdeg`` API.

A workload is built fresh for every pass (``build``), outside the timed
region, so each pass starts from cold caches exactly as a new ``qdeg verify``
process does.  A pass is a list of operations; each one returns a JSON-able
answer whose digest is compared with the one recorded in ``golden.json``.

Library calls go through attributes of ``qdeg`` looked up at call time, so the
tracer's rebinding reaches them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import random

import qdeg
from qdeg.cli import SCHEMA

PAD = 2  # the CLI's default --box

# Small systems on purpose: a run needs many short passes for its timings to
# hold steady on a noisy host (README.md, "Host noise"); E8 is left out of the
# point queries for the same reason.
VERIFY = {
    # name: (suite, type, rank, mode), i.e. `qdeg verify --suite S --type T
    # --rank R --parabolic all [--mode M]`
    "degree-scan": ("uniqueness", "B", 3, "auto"),
    "chain-fronts": ("description", "B", 3, "auto"),
    "pair-table": ("main", "B", 3, "pairs"),
}

POINT_GROUPS = (("D", 5), ("F", 4), ("E", 6), ("E", 7), ("C", 8))
POINT_POOL = 144  # pool queries per group
POINT_STRATA = 40  # time strata of the whole pool; 720 / 40 = 18 queries each
POINT_PICKS = 1  # queries a seed draws from each stratum


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_group(letter: str, rank: int):
    return qdeg.WeylGroup(qdeg.build_root_system(letter, rank))


def all_subsets(rank: int) -> list:
    """Every Delta_P, in the order `--parabolic all` visits them."""
    return [
        c for r in range(rank + 1) for c in itertools.combinations(range(rank), r)
    ]


def verify_doc(reports: list) -> dict:
    """The document `qdeg verify --json` prints for these reports."""
    return {"schema": SCHEMA, "reports": sorted(reports, key=lambda r: r["parabolic"])}


class VerifyWorkload:
    """One `qdeg verify ... --parabolic all` run; an operation is one parabolic."""

    def __init__(self, name: str, golden: dict | None = None):
        self.name = name
        self.suite, self.letter, self.rank, self.mode = VERIFY[name]
        self.groups = ((self.letter, self.rank),)
        self.golden = golden  # this workload's entry of golden.json

    def build(self):
        return build_group(self.letter, self.rank)

    def operations(self, group) -> list:
        return [
            ("P" + "".join(str(i + 1) for i in s), self._op(group, s))
            for s in all_subsets(self.rank)
        ]

    def _op(self, group, subset):
        def run():
            parabolic = qdeg.Parabolic.from_indices(self.rank, subset)
            report = qdeg.verify_suite(
                self.suite, self.letter, self.rank, parabolic,
                pad=PAD, mode=self.mode, group=group,
            )
            return report.to_json()

        return run

    def answer_ok(self, label: str, answer) -> bool:
        return answer["passed"] and digest(answer) == self.golden["reports"][label]

    def pass_ok(self, answers: list) -> bool:
        """The whole pass must reproduce the recorded `verify --json` document."""
        return digest(verify_doc(answers)) == self.golden["document"]


def word(text: str) -> tuple:
    """A word of 1-based simple reflections, one digit each (rank <= 9)."""
    return tuple(int(j) - 1 for j in text)


def word_text(letters) -> str:
    return "".join(str(j + 1) for j in letters)


def point_query(group, query: dict) -> list:
    """z, the curve neighborhood, bruhat_leq(u, z_max) and a length, as words."""
    rank = group.system.rank
    parabolic = qdeg.Parabolic.from_indices(rank, (i - 1 for i in query["p"]))
    d = qdeg.Degree(parabolic, tuple(query["d"]))
    u = group.from_word(word(query["u"]))
    w = group.from_word(word(query["w"]))
    zd = qdeg.z(group, parabolic, d)
    nbhd = qdeg.curve_neighborhood(group, parabolic, w, d)
    below = group.bruhat_leq(u, zd.z_max)
    return [
        word_text(group.reduced_word(zd.z_min)),
        word_text(group.reduced_word(nbhd.element)),
        below,
        group.length(nbhd.element),
    ]


def select_queries(strata: list, seed: int) -> list:
    """POINT_PICKS queries from each time stratum of the pool, in a seeded order.

    The strata sort the pools of all groups together by recorded time, so
    every seed's set spans the pool's range of times evenly: the seed changes
    the inputs, and the groups they fall in, but hardly the latency
    percentiles or the load.
    """
    rng = random.Random(seed)
    chosen = [
        (query["group"], query)
        for stratum in strata
        for query in rng.sample(stratum, POINT_PICKS)
    ]
    rng.shuffle(chosen)
    return chosen


class PointQueries:
    """Seeded library queries on D5, F4, E6, E7 and C8; an operation is one query.

    Each query runs on a group of its own, so no query warms the caches of
    another and a query's time does not depend on the queries drawn with it.
    """

    name = "point-queries"
    groups = POINT_GROUPS

    def __init__(self, strata: list, seed: int):
        self.queries = select_queries(strata, seed)

    def build(self) -> list:
        return [build_group(name[0], int(name[1:])) for name, _ in self.queries]

    def operations(self, groups: list) -> list:
        return [
            (f"{name}#{i}", functools.partial(point_query, group, query))
            for i, ((name, query), group) in enumerate(zip(self.queries, groups))
        ]

    def answer_ok(self, label: str, answer) -> bool:
        index = int(label.split("#")[1])
        return digest(answer) == self.queries[index][1]["answer"]

    def pass_ok(self, answers: list) -> bool:
        return True


def make(name: str, golden: dict, seed: int):
    if name in VERIFY:
        return VerifyWorkload(name, golden[name])
    if name == PointQueries.name:
        return PointQueries(golden[name]["strata"], seed)
    raise KeyError(name)


NAMES = (*VERIFY, PointQueries.name)
