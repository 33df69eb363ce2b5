"""Record the golden answers every benchmark run is checked against.

    python3 perfbench/record_golden.py

Run it only on a commit whose outputs are known to be right: it overwrites
``perfbench/golden.json`` with what the current ``src/qdeg`` computes.

For each verify workload it stores the digest of every per-parabolic report
and of the whole ``verify --json`` document, after checking that document
against the output of the ``qdeg verify`` command itself.  For
``point-queries`` it generates a fixed pool of queries per group and runs each
on fresh groups, to record its answer digest, its count of
``WeylGroup.multiply`` calls and its time (the median of three runs, scaled by
the reference loop).  The pools of all groups are sorted together by time into
strata of equal size; a run's seed then draws one query per stratum.  The
times are measured once, here: a run's draw depends only on ``golden.json``
and the seed.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qdeg  # noqa: E402
import workloads as W  # noqa: E402
from reference import REFERENCE_S, reference_time  # noqa: E402
from tracer import Target, Tracer  # noqa: E402

POOL_SEED = "qdeg-point-queries-1"
MULTIPLY = Target("weylgroup.multiply", "qdeg.weylgroup", "WeylGroup.multiply", count_only=True)


def record_verify(name: str) -> dict:
    suite, letter, rank, mode = W.VERIFY[name]
    workload = W.VerifyWorkload(name)
    answers = {label: op() for label, op in workload.operations(workload.build())}
    doc = W.verify_doc(list(answers.values()))
    cli = subprocess.run(
        [sys.executable, "-m", "qdeg.cli", "verify", "--suite", suite, "--type", letter,
         "--rank", str(rank), "--parabolic", "all", "--mode", mode, "--json"],
        capture_output=True, text=True, check=True, timeout=600,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    if json.loads(cli.stdout) != doc:
        raise SystemExit(f"{name}: in-process reports differ from `qdeg verify --json`")
    if not all(a["passed"] for a in answers.values()):
        raise SystemExit(f"{name}: a report does not pass; refusing to record it")
    return {
        "command": cli.args[3:],
        "document": W.digest(doc),
        "reports": {label: W.digest(a) for label, a in answers.items()},
    }


def random_query(rng: random.Random, system) -> dict:
    rank = system.rank
    delta_p = [i for i in range(rank) if rng.random() < 0.5]
    corner = qdeg.d_x(system, qdeg.Parabolic.from_indices(rank, delta_p))
    n = len(system.positive_roots)
    return {
        "p": [i + 1 for i in delta_p],
        "d": [rng.randint(0, c) for c in corner.coeffs],
        "u": W.word_text(rng.randrange(rank) for _ in range(rng.randint(0, n))),
        "w": W.word_text(rng.randrange(rank) for _ in range(rng.randint(0, n))),
    }


def scaled_ms(letter: str, rank: int, query: dict) -> float:
    """The query's time on a fresh group, median of three, scaled by the reference loop."""
    samples = []
    for _ in range(3):
        group = W.build_group(letter, rank)
        before = reference_time()
        start = perf_counter()
        W.point_query(group, query)
        elapsed = perf_counter() - start
        samples.append(1e3 * REFERENCE_S * elapsed / ((before + reference_time()) / 2))
    return round(statistics.median(samples), 4)


def record_points() -> dict:
    pool = []
    for letter, rank in W.POINT_GROUPS:
        name = f"{letter}{rank}"
        rng = random.Random(f"{POOL_SEED}-{name}")
        for _ in range(W.POINT_POOL):
            query = random_query(rng, qdeg.build_root_system(letter, rank))
            with Tracer([MULTIPLY]) as tracer:
                answer = W.point_query(W.build_group(letter, rank), query)
            query["group"] = name
            query["answer"] = W.digest(answer)
            query["cost"] = tracer.stats[MULTIPLY.name].calls
            query["ms"] = scaled_ms(letter, rank, query)
            pool.append(query)
        print(f"{name}: {W.POINT_POOL} queries", flush=True)
    pool.sort(key=lambda q: q["ms"])  # stable: ties keep generation order
    k = len(pool) // W.POINT_STRATA
    strata = [pool[i:i + k] for i in range(0, len(pool), k)]
    print(f"{len(strata)} strata of {k}, {pool[0]['ms']}..{pool[-1]['ms']} ms", flush=True)
    return {"pool_seed": POOL_SEED, "strata": strata}


def main() -> None:
    golden = {"qdeg_version": qdeg.__version__}
    for name in W.VERIFY:
        golden[name] = record_verify(name)
        print(f"{name}: {len(golden[name]['reports'])} reports", flush=True)
    golden[W.PointQueries.name] = record_points()
    (HERE / "golden.json").write_text(dump(golden) + "\n")


def dump(obj, depth: int = 0) -> str:
    """JSON with one time stratum per line, so a re-recording diffs legibly."""
    if isinstance(obj, dict) and depth < 3:
        pad = "\n" + " " * (depth + 1)
        items = [f"{json.dumps(k)}: {dump(v, depth + 1)}" for k, v in sorted(obj.items())]
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
    if isinstance(obj, list) and obj and isinstance(obj[0], list):
        pad = "\n" + " " * (depth + 1)
        return "[" + pad + ("," + pad).join(dump(x, depth + 1) for x in obj) + "]"
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


if __name__ == "__main__":
    main()
