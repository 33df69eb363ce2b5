"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q

``test_mapped_functions_are_called`` runs every workload once with tracing
(under a minute on a 2-core host); the other tests take seconds.
"""

from __future__ import annotations

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import qdeg  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def test_rebinding_reaches_imported_aliases_and_is_undone():
    original = importlib.import_module("qdeg.cascade").d_x  # qdeg.cascade is a function
    target = Target("cascade.d_x", "qdeg.cascade", "d_x")
    system = qdeg.build_root_system("B", 3)
    parabolic = qdeg.Parabolic(3, frozenset())
    with Tracer([target]) as tracer:
        assert qdeg.curveneighborhood._d_x is not original
        assert qdeg.distance.suites._d_x is not original
        qdeg.distance.suites._d_x(system, parabolic)
        qdeg.d_x(system, parabolic)
    assert tracer.stats["cascade.d_x"].calls == 2
    assert qdeg.d_x is original
    assert qdeg.curveneighborhood._d_x is original
    assert qdeg.distance.suites._d_x is original


def test_only_the_outermost_recursive_call_counts():
    group = workloads.build_group("B", 3)
    target = Target("weylgroup.bruhat_leq", "qdeg.weylgroup", "WeylGroup.bruhat_leq",
                    key=lambda g, u, v: (u, v))
    with Tracer([target]) as tracer:
        assert group.bruhat_leq(group.identity, group.w_o)
    stat = tracer.stats["weylgroup.bruhat_leq"]
    assert stat.calls == 1 and stat.distinct_frac() == 1.0
    assert len(group._bruhat) > 1  # it did recurse


def test_self_times_exclude_child_spans():
    group = workloads.build_group("C", 4)
    parabolic = qdeg.Parabolic(4, frozenset({1}))
    d = qdeg.Degree(parabolic, (2, 1, 1))
    targets = [
        Target("curveneighborhood.z", "qdeg.curveneighborhood", "z"),
        Target("degreelattice.greedy_decomposition", "qdeg.degreelattice",
               "greedy_decomposition"),
        Target("degreelattice.maximal_roots", "qdeg.degreelattice", "maximal_roots"),
    ]
    with Tracer(targets) as tracer:
        start = run.perf_counter()
        qdeg.z(group, parabolic, d)
        elapsed = run.perf_counter() - start
    stats = tracer.stats
    assert stats["curveneighborhood.z"].calls == 1
    assert stats["degreelattice.maximal_roots"].calls >= 1
    total = sum(s.self_s for s in stats.values())
    assert 0 < total <= elapsed
    assert all(s.self_s > 0 for s in stats.values())


def test_tail_is_the_highest_ladder_percentile_with_ten_samples_beyond():
    assert run.percentiles(list(range(16)))["tail_pct"] == 50
    p = run.percentiles(list(range(1, 217)))
    assert p["tail_pct"] == 95 and p["tail"] == 206  # 10 samples above 206
    assert run.percentiles(list(range(1, 1001)))["tail_pct"] == 99


def test_each_seed_draws_the_same_number_from_every_stratum():
    golden = json.loads((HERE / "golden.json").read_text())
    strata = golden["point-queries"]["strata"]
    a = workloads.select_queries(strata, 7)
    assert a == workloads.select_queries(strata, 7)
    assert a != workloads.select_queries(strata, 8)
    picks = workloads.POINT_PICKS
    assert len(strata) == workloads.POINT_STRATA
    assert len(a) == workloads.POINT_STRATA * picks
    assert all(sum(q in s for _, q in a) == picks for s in strata)
    assert all(group == q["group"] for group, q in a)


def test_declared_metrics_match_what_a_run_computes():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    targets = run._targets()
    names = set(run.trace_metrics(Tracer(targets), targets, 0.0, 0.0))
    names |= {f"{m}.lines" for m in run.source_lines()}
    assert {m["name"] for m in declared["per_layer"]} == names
    assert {w["name"] for w in declared["workloads"]} == set(workloads.NAMES)
    assert set(run.EXERCISED) == set(workloads.NAMES)
    assert set().union(*run.EXERCISED.values()) == {t.name for t in targets}


def test_missing_sources_exit_nonzero_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "degree-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert out.returncode != 0 and out.stdout == ""


@pytest.mark.parametrize("name", workloads.NAMES)
def test_mapped_functions_are_called(name):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    detail = json.loads(next(l for l in lines if l.startswith("detail: "))[8:])
    assert json.loads(lines[-1])["correct"]
    assert detail["untraced_targets"] == []
    assert detail["zero_call_targets"] == []
