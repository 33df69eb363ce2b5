"""Run one qdeg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload degree-scan --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1 --save perfbench/baseline.json

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The line before it, ``detail: {...}``, carries everything
else: sample counts and percentiles, per-pass times, memo ratios with their
bases, module line counts and the machine context.

A run repeats passes over the workload until ``seconds`` have passed (at
least one pass).  Each pass runs on freshly built groups and does identical
work.  A fixed reference loop (``reference.py``) runs between passes, and
every time is scaled by it to a host of fixed speed; the run reports the
median over passes, and over set-up samples taken every few seconds
(README.md explains why).  With ``--trace 1`` the same untraced passes run
first, then one traced pass.
``--workload all`` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, reference_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_EVERY_S = 2.5  # seconds of passes between set-up samples
REFERENCE_EVERY_S = 0.1  # seconds of operations between reference loops
TAIL_LADDER = (99.9, 99, 95, 90, 75)

SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from reference import reference_time
before = reference_time()
start = time.perf_counter()
import qdeg
for spec in sys.argv[3:]:
    qdeg.WeylGroup(qdeg.build_root_system(spec[0], int(spec[1:])))
setup = time.perf_counter() - start
print(setup, (before + reference_time()) / 2)
"""


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- tracing targets and the layer -> workload mapping ---------------------------


def _targets():
    from tracer import Target

    def group_key(group, *args, **kwargs):
        return (id(group), *args, *sorted(kwargs.items()))

    def z_key(group, parabolic, d):
        return id(group), parabolic.delta_p, d.coeffs

    def parabolic_key(group, parabolic, *args, **kwargs):
        return (id(group), parabolic.delta_p, *args, *sorted(kwargs.items()))

    def labels(result):
        return sum(len(front) for front in result.fronts)

    wg, dl, core, suites = (
        "qdeg.weylgroup", "qdeg.degreelattice", "qdeg.distance.core", "qdeg.distance.suites"
    )
    return (
        Target("weylgroup.multiply", wg, "WeylGroup.multiply"),
        Target("weylgroup.coset_min", wg, "WeylGroup.coset_min"),
        Target("weylgroup.hecke_product", wg, "WeylGroup.hecke_product"),
        Target("weylgroup.bruhat_leq", wg, "WeylGroup.bruhat_leq", key=group_key),
        Target("weylgroup.length", wg, "WeylGroup.length", key=group_key),
        Target("weylgroup.cosets", wg, "WeylGroup.cosets"),
        Target("rootsystem.coroot", "qdeg.rootsystem", "RootSystem.coroot"),
        Target("degreelattice.d_of_root", dl, "d_of_root"),
        Target("degreelattice.maximal_roots", dl, "maximal_roots"),
        Target("degreelattice.greedy_decomposition", dl, "greedy_decomposition"),
        Target("degreelattice.minimal_elements", dl, "minimal_elements"),
        Target("degreelattice.Degree", dl, "Degree.__post_init__", count_only=True),
        Target("cascade.d_x", "qdeg.cascade", "d_x"),
        Target("curveneighborhood.z", "qdeg.curveneighborhood", "z", key=z_key),
        Target("distance.core.delta_w", core, "delta_w", key=parabolic_key),
        Target("distance.core.delta_uv", core, "delta_uv"),
        Target("distance.core._search", core, "_search", key=parabolic_key),
        Target("distance.core._pareto_search", core, "_pareto_search", post=labels),
        Target("distance.core.coset_order", core, "coset_order"),
        Target("distance.core.adjacency_graph", core, "adjacency_graph"),
        Target("distance.suites._pairs_table", suites, "_pairs_table"),
        Target("distance.suites._min_tuples", suites, "_min_tuples"),
        Target("distance.suites.verify_suite", suites, "verify_suite"),
    )


#: traced functions that must show calls on each workload (see README.md)
EXERCISED = {
    "degree-scan": (
        "rootsystem.coroot", "degreelattice.d_of_root", "degreelattice.maximal_roots",
        "degreelattice.greedy_decomposition", "degreelattice.minimal_elements",
        "degreelattice.Degree", "cascade.d_x", "curveneighborhood.z",
        "distance.core.delta_w", "distance.suites.verify_suite",
    ),
    "chain-fronts": (
        "weylgroup.cosets", "curveneighborhood.z", "distance.core.delta_w",
        "distance.core.delta_uv", "distance.core._search", "distance.core._pareto_search",
        "distance.core.coset_order", "distance.core.adjacency_graph",
        "distance.suites.verify_suite",
    ),
    "pair-table": (
        "weylgroup.cosets", "distance.core._search", "distance.core._pareto_search",
        "distance.core.coset_order", "distance.core.adjacency_graph",
        "distance.suites._pairs_table", "distance.suites._min_tuples",
        "distance.suites.verify_suite",
    ),
    "point-queries": (
        "weylgroup.multiply", "weylgroup.coset_min", "weylgroup.hecke_product",
        "weylgroup.bruhat_leq", "weylgroup.length", "rootsystem.coroot",
        "degreelattice.d_of_root", "degreelattice.maximal_roots",
        "degreelattice.greedy_decomposition", "degreelattice.Degree", "curveneighborhood.z",
    ),
}


# -- measurements --------------------------------------------------------------------


def percentiles(samples: list) -> dict:
    """Median and the highest ladder percentile with at least ten samples beyond it.

    With fewer than twenty samples no percentile above the median qualifies,
    and the tail is the median itself.
    """
    ordered = sorted(samples)
    n = len(ordered)
    median = statistics.median(ordered)
    q = next((q for q in TAIL_LADDER if n * (100 - q) / 100 >= 10), 50)
    tail = median if q == 50 else ordered[math.ceil(q / 100 * n) - 1]
    return {"n": n, "p50": median, "tail_pct": q, "tail": tail}


def setup_sample(specs: list) -> tuple:
    """(seconds to import qdeg and build the groups, reference loop seconds),
    both measured in one fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), *specs],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if child.returncode != 0:
        raise HarnessError(f"set-up failed: {child.stderr.strip()[-500:]}")
    setup, reference = (float(x) for x in child.stdout.split())
    return setup, reference


def run_pass(workload) -> dict:
    """One timed pass on fresh groups; answers are checked after the clock stops.

    The reference loop runs before the first operation, after the last, and
    between operations whenever REFERENCE_EVERY_S of them have run since the
    last one.  Each operation is scaled by the mean of the loops around it.
    """
    ops = workload.operations(workload.build())
    results, latencies, intervals = [], [], []
    references = [reference_time()]
    since = 0.0  # seconds of operations since the last reference loop
    for label, op in ops:
        if since >= REFERENCE_EVERY_S:
            references.append(reference_time())
            since = 0.0
        t = perf_counter()
        try:
            results.append((label, op(), None))
        except Exception as exc:  # a failed operation is counted, not fatal
            results.append((label, None, f"{type(exc).__name__}: {exc}"))
        latencies.append(perf_counter() - t)
        intervals.append(len(references) - 1)
        since += latencies[-1]
    references.append(reference_time())
    scaled = [
        REFERENCE_S * t / ((references[k] + references[k + 1]) / 2)
        for t, k in zip(latencies, intervals)
    ]
    failures = [
        f"{label}: {error}" if error else f"{label}: answer differs from golden"
        for label, answer, error in results
        if error or not workload.answer_ok(label, answer)
    ]
    document_ok = not failures and workload.pass_ok([a for _, a, _ in results])
    return {
        "wall": sum(latencies), "scaled_wall": sum(scaled), "scaled": scaled,
        "references": references, "attempted": len(ops),
        "failures": failures, "document_ok": document_ok,
    }


def source_lines() -> dict:
    """Non-blank lines of every module under src/qdeg, named like the layers."""
    out = {}
    for path in sorted((SRC / "qdeg").rglob("*.py")):
        parts = path.relative_to(SRC / "qdeg").with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1] or ("qdeg",)
        text = path.read_text()
        out[".".join(parts)] = sum(1 for line in text.splitlines() if line.strip())
    out["total"] = sum(out.values())
    return out


def _cpu_jiffies():
    """(steal, total) jiffies from /proc/stat, or None where it cannot be read."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def _commit():
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10,
            cwd=ROOT, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return git.stdout.strip() if git.returncode == 0 else None


def machine_context(start_jiffies) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "qdeg").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    end = _cpu_jiffies()
    steal = None
    if start_jiffies and end:
        d_steal, d_total = end[0] - start_jiffies[0], end[1] - start_jiffies[1]
        steal = {
            "steal_s": d_steal / os.sysconf("SC_CLK_TCK"),
            "steal_frac": d_steal / d_total if d_total else 0.0,
        }
    return {
        "commit": _commit(),
        "source_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "steal": steal,
    }


def trace_metrics(tracer, targets, traced_wall: float, untraced_wall: float) -> dict:
    out = {}
    for t in targets:
        stat = tracer.stats[t.name]
        out[f"{t.name}.calls"] = stat.calls
        if not t.count_only:
            out[f"{t.name}.self_s"] = stat.self_s
        if t.key is not None:
            out[f"{t.name}.distinct_frac"] = stat.distinct_frac()
        if t.post is not None:
            out[f"{t.name}.labels"] = stat.labels
    out["trace.overhead_s"] = traced_wall - untraced_wall
    return out


# -- one workload ------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple:
    """Returns (result line, detail) for one workload in this process."""
    start_jiffies = _cpu_jiffies()
    golden = json.loads((HERE / "golden.json").read_text())
    import workloads  # imports qdeg

    workload = workloads.make(name, golden, seed)
    specs = [f"{letter}{rank}" for letter, rank in workload.groups]
    setups, passes = [], []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        if perf_counter() - start >= len(setups) * SETUP_EVERY_S:
            setups.append(setup_sample(specs))
        passes.append(run_pass(workload))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    walls = [p["wall"] for p in passes]
    # host speed drifts by up to 1.7x in phases of seconds to minutes; every
    # time is scaled to a host that runs the reference loop in REFERENCE_S,
    # and the median over the passes is kept (see README.md, "Host noise")
    scaled_walls = [p["scaled_wall"] for p in passes]
    scaled_ops = [statistics.median(times) for times in zip(*(p["scaled"] for p in passes))]
    scaled_setups = [REFERENCE_S * setup / ref for setup, ref in setups]
    query = percentiles(scaled_ops)
    end_to_end = {
        "wall_s": statistics.median(scaled_walls),
        "setup_s": statistics.median(scaled_setups),
        "peak_rss_mb": peak_rss_mb,
        "query_p50_ms": query["p50"] * 1e3,
        "query_tail_ms": query["tail"] * 1e3,
    }
    detail = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "reference_s": REFERENCE_S,
        "walls_s": walls, "scaled_walls_s": scaled_walls,
        "reference_loops_s": [p["references"] for p in passes],
        "setup_samples_s": [setup for setup, _ in setups], "scaled_setups_s": scaled_setups,
        "query_ms": {k: v * 1e3 if k in ("p50", "tail") else v for k, v in query.items()},
        "operation_scaled_ms": [x * 1e3 for x in scaled_ops],
    }
    per_layer = None
    if trace:
        from tracer import Tracer

        targets = _targets()
        with Tracer(targets) as tracer:
            traced = run_pass(workload)
        passes.append(traced)
        scaled_traced = traced["scaled_wall"]
        per_layer = trace_metrics(tracer, targets, scaled_traced, end_to_end["wall_s"])
        detail["traced_wall_s"] = traced["wall"]
        detail["scaled_traced_wall_s"] = scaled_traced
        detail["untraced_targets"] = tracer.missing
        detail["zero_call_targets"] = [
            n for n in EXERCISED[name] if per_layer.get(f"{n}.calls", 0) == 0
        ]
        detail["memo"] = {
            t.name: {"distinct_keys": len(tracer.stats[t.name].keys),
                     "calls": tracer.stats[t.name].calls}
            for t in targets if t.key is not None
        }

    failures = [f for p in passes for f in p["failures"]]
    attempted = sum(p["attempted"] for p in passes)
    detail["failed_frac"] = {"failed": len(failures), "attempted": attempted,
                             "value": len(failures) / attempted}
    detail["failures"] = failures[:20]
    detail["lines"] = source_lines()
    if per_layer is not None:
        per_layer.update({f"{k}.lines": v for k, v in detail["lines"].items()})
    detail["end_to_end"] = end_to_end
    detail["per_layer"] = per_layer
    detail["context"] = machine_context(start_jiffies)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = declared["per_layer"] if trace else declared["end_to_end"]
    values = per_layer if trace else end_to_end
    result = {
        "correct": not failures and all(p["document_ok"] for p in passes),
        "attempted": attempted,
        "failed": len(failures),
        # a module deleted since BENCHMARK.json was written has 0 lines
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in chosen
        },
    }
    return result, detail


def print_detail(detail: dict) -> None:
    q = detail["query_ms"]
    e = detail["end_to_end"]
    f = detail["failed_frac"]
    passes = len(detail["walls_s"])
    print(f"{detail['workload']}  seed={detail['seed']}  passes={passes}  trace={detail['trace']}")
    print(f"  wall_s         {e['wall_s']:.4f} s   median of {passes} scaled passes"
          f" (raw median {statistics.median(detail['walls_s']):.4f} s)")
    print(f"  setup_s        {e['setup_s']:.4f} s   median of {len(detail['setup_samples_s'])}"
          f" scaled samples (raw median {statistics.median(detail['setup_samples_s']):.4f} s)")
    print(f"  peak_rss_mb    {e['peak_rss_mb']:.1f} MB")
    print(f"  query_p50_ms   {e['query_p50_ms']:.3f} ms  n={q['n']} operations")
    print(f"  query_tail_ms  {e['query_tail_ms']:.3f} ms  p{q['tail_pct']}, n={q['n']} operations")
    print(f"  failed_frac    {f['value']:.4f}  ({f['failed']} failed / {f['attempted']} attempted)")
    if detail["trace"]:
        print(f"  trace.overhead_s {detail['per_layer']['trace.overhead_s']:.4f} s")
        for problem in ("untraced_targets", "zero_call_targets"):
            if detail[problem]:
                print(f"  WARNING {problem}: {', '.join(detail[problem])}", file=sys.stderr)
    for failure in detail["failures"]:
        print(f"  FAILED {failure}", file=sys.stderr)


# -- all workloads -----------------------------------------------------------------


def run_all(args) -> dict:
    import workloads

    details, summary = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900, cwd=ROOT,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            raise HarnessError(f"{name} exited with {child.returncode}")
        print("\n".join(line for line in lines[:-1] if not line.startswith("detail: ")))
        details += [json.loads(l[8:]) for l in lines if l.startswith("detail: ")]
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    if args.save:
        Path(args.save).write_text(json.dumps(details, indent=1, sort_keys=True) + "\n")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --workload all: write every detail here")
    args = parser.parse_args(argv)
    try:
        if not (SRC / "qdeg" / "__init__.py").is_file():
            raise HarnessError(f"no qdeg sources under {SRC}")
        sys.path[:0] = [str(SRC), str(HERE)]
        import workloads

        if args.workload == "all":
            result = run_all(args)
        elif args.workload in workloads.NAMES:
            result, detail = run_workload(args.workload, args.seed, args.seconds,
                                          bool(args.trace))
            print_detail(detail)
            print("detail: " + json.dumps(detail, sort_keys=True))
        else:
            raise HarnessError(f"unknown workload {args.workload!r}")
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
