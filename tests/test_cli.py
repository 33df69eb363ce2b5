"""CLI verbs, exit codes, JSON round-trips, and output determinism."""

import hashlib
import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qdeg.cli import run


def run_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(argv)
    return code, buf.getvalue()


def test_dx_g2():
    code, out = run_capture(["dx", "--type", "G", "--rank", "2", "--parabolic", ""])
    assert code == 0
    assert "[2, 2]" in out


def test_cascade_a2():
    code, out = run_capture(["cascade", "--type", "A", "--rank", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "qdeg/1"
    assert doc["cascade"] == [[1, 1]]


def test_z_verb():
    code, out = run_capture(
        ["z", "--type", "B", "--rank", "3", "--parabolic", "2", "--degree", "1,0", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["z_max"] and doc["z_min"]


#: sha256 of `qdeg z ... --json`, recorded before z moved onto the inverse Hecke chain
Z_DIGESTS = [
    (("B", "3", "", "2,3,2"), "fb79389e823275f091cc1aa4606fd4925bb0afe567e3852f6d127eae13608283"),
    # F4/P{1,2,3} at d_X + 2 and E6/P{2,...,6} at d_X
    (("F", "4", "1,2,3", "4"), "b33095846df5ce6d9ecdca7c450e47d7c8e1ae6949d4a553d82c15eac38657f7"),
    (("E", "6", "2,3,4,5,6", "2"), "cf6dc2a0f00d20801496f58c1c4ecdfc207c5f51300731fe55e4d69b8a19e969"),
]


@pytest.mark.parametrize("case,digest", Z_DIGESTS)
def test_z_json_matches_pinned_digests(case, digest):
    letter, rank, parabolic, degree = case
    code, out = run_capture(
        ["z", "--type", letter, "--rank", rank, "--parabolic", parabolic, "--degree", degree, "--json"]
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_g2_examples_exit_zero():
    code, _ = run_capture(["verify", "--suite", "g2-examples", "--type", "G", "--rank", "2"])
    assert code == 0


def test_usage_errors_exit_two():
    code, _ = run_capture(["roots", "--type", "X", "--rank", "9"])
    assert code == 2
    code, _ = run_capture(["verify", "--suite", "nonsense", "--type", "A", "--rank", "2"])
    assert code == 2
    code, _ = run_capture(["delta", "--type", "A", "--rank", "2", "--u", "7"])
    assert code == 2
    code, _ = run_capture(["z", "--type", "A", "--rank", "2", "--degree", "1"])
    assert code == 2
    code, out = run_capture(["verify", "--suite", "main", "--type", "G", "--rank", "2", "--box", "-1"])
    assert code == 2 and out == ""


def test_box_and_cap_only_on_the_verbs_that_read_them():
    code, out = run_capture(["roots", "--type", "G", "--rank", "2", "--box", "3"])
    assert code == 2 and out == ""
    code, _ = run_capture(["verify", "--suite", "main", "--type", "G", "--rank", "2", "--cap", "5"])
    assert code == 2
    for verb in (["delta"], ["delta2", "--cap", "100"], ["verify", "--suite", "uniqueness"]):
        code, _ = run_capture(verb + ["--type", "G", "--rank", "2", "--box", "1"])
        assert code == 0
        code, _ = run_capture(verb + ["--type", "G", "--rank", "2", "--box", "-1"])
        assert code == 2


def test_json_round_trip_roots():
    code, out = run_capture(["roots", "--type", "G", "--rank", "2", "--json"])
    assert code == 0
    doc = json.loads(out)
    roots = [tuple(r["root"]) for r in doc["positive_roots"]]
    assert (3, 2) in roots and len(roots) == 6
    assert doc["positive_roots"][-1]["coroot"]


def test_delta_json_and_determinism():
    argv = ["delta", "--type", "G", "--rank", "2", "--parabolic", "1", "--u", "2,1,2,1", "--json"]
    code1, out1 = run_capture(argv)
    code2, out2 = run_capture(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["front"] == [{"coeffs": {"2": 2}, "parabolic": [1]}]


def test_verify_all_parabolics():
    argv = ["verify", "--suite", "uniqueness", "--type", "B", "--rank", "2", "--json"]
    code, out = run_capture(argv + ["--parabolic", "all"])
    assert code == 0
    doc = json.loads(out)
    assert [r["parabolic"] for r in doc["reports"]] == [[], [1], [1, 2], [2]]
    assert all(r["passed"] for r in doc["reports"])
    # "--parabolic all" is the only spelling
    assert run_capture(argv + ["--all-parabolics"]) == (2, "")


def test_scan_box_over_the_cap_exits_two_at_once():
    """A --box whose scan box has more than ENUMERATION_CAP points is refused before the scan."""
    for verb in (["delta"], ["verify", "--suite", "uniqueness"]):
        argv = verb + ["--type", "B", "--rank", "3", "--box", "100000"]
        done = subprocess.run(
            [sys.executable, "-m", "qdeg.cli", *argv], capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 2 and done.stdout == "", argv
        assert "exceeded the cap" in done.stderr


def test_delta2_verb_and_cap():
    code, out = run_capture(
        ["delta2", "--type", "G", "--rank", "2", "--u", "", "--v", "", "--json"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["front"] == [{"coeffs": {"1": 0, "2": 0}, "parabolic": []}]
    code, _ = run_capture(
        ["delta2", "--type", "B", "--rank", "3", "--u", "", "--v", "", "--cap", "5"]
    )
    assert code == 2  # coset enumeration exceeds the requested cap


def test_verify_counterexample_exits_one(monkeypatch):
    from qdeg.distance import suites

    def broken(group, parabolic, pad):
        return (suites.CheckResult("always-fails", False, 1, "planted"),)

    monkeypatch.setitem(suites._SUITES, "planted-failure", broken)
    code, out = run_capture(
        ["verify", "--suite", "planted-failure", "--type", "A", "--rank", "2"]
    )
    assert code == 1
    assert "COUNTEREXAMPLE" in out and "planted" in out


def test_exceptional_verb():
    code, out = run_capture(["exceptional", "--type", "F", "--rank", "4", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert [r["root"] for r in doc["exceptional"]] == [[1, 2, 2, 2], [1, 2, 4, 2]]
    assert doc["delta_minus_circ"] == [1]


def _suite_failing_on_p1(exc_type):
    from qdeg.distance import suites

    def suite(group, parabolic, pad):
        if parabolic.delta_p == {0}:
            raise exc_type("planted at P1")
        return (suites.CheckResult("fine", True, 1),)

    return suite


def test_a_verification_error_in_one_report_keeps_the_others(monkeypatch):
    from qdeg.distance import suites
    from qdeg.errors import InvariantViolationError, VerificationError

    argv = ["verify", "--suite", "planted", "--type", "A", "--rank", "2", "--parabolic", "all"]
    for exc_type in (VerificationError, InvariantViolationError):
        monkeypatch.setitem(suites._SUITES, "planted", _suite_failing_on_p1(exc_type))
        code, out = run_capture(argv + ["--json"])
        assert code == 1
        reports = json.loads(out)["reports"]
        assert [r["parabolic"] for r in reports] == [[], [1], [1, 2], [2]]
        assert [r["passed"] for r in reports] == [True, False, True, True]
        failed = reports[1]
        assert failed["suite"] == "planted" and failed["system"] == {"type": "A", "rank": 2}
        assert failed["checks"] == [
            {
                "name": "exception",
                "passed": False,
                "checked": 1,
                "counterexample": f"{exc_type.__name__}: planted at P1",
            }
        ]
        assert run_capture(argv + ["--json", "--jobs", "2"]) == (code, out)


def test_configuration_resource_and_domain_errors_still_exit_two(monkeypatch):
    from qdeg.distance import suites
    from qdeg.errors import ConfigurationError, DomainError, ResourceError

    argv = ["verify", "--suite", "planted", "--type", "A", "--rank", "2", "--parabolic", "all"]
    for exc_type in (ConfigurationError, ResourceError, DomainError):
        monkeypatch.setitem(suites._SUITES, "planted", _suite_failing_on_p1(exc_type))
        assert run_capture(argv) == (2, "")
        assert run_capture(argv + ["--jobs", "2"]) == (2, "")


def test_jobs_below_one_exit_two():
    argv = ["verify", "--suite", "uniqueness", "--type", "A", "--rank", "2", "--parabolic", "all"]
    for jobs in ("0", "-1"):
        err = io.StringIO()
        with redirect_stderr(err):
            assert run_capture(argv + ["--jobs", jobs]) == (2, "")
        assert f"--jobs must be >= 1, got {jobs}" in err.getvalue()


def test_jobs_start_at_most_one_worker_per_parabolic(monkeypatch):
    """The pool is never larger than the task list; a fake Pool records its size."""
    from qdeg import cli

    started = []

    class RecordingPool:
        def __init__(self, processes):
            started.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(cli, "Pool", RecordingPool)
    argv = ["verify", "--suite", "uniqueness", "--type", "B", "--rank", "2", "--json"]
    code, out = run_capture(argv + ["--parabolic", "all", "--jobs", "100000"])
    assert code == 0 and started == [4]
    assert len(json.loads(out)["reports"]) == 4
    assert run_capture(argv + ["--parabolic", "all", "--jobs", "3"])[0] == 0
    assert started == [4, 3]
