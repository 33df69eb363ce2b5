"""CLI verbs, exit codes, JSON round-trips, and output determinism."""

import hashlib
import importlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

import qdeg
from qdeg.cli import build_parser, run
from qdeg.degreelattice import GREEDY_CAP, Degree
from qdeg.weylgroup import ENUMERATION_CAP

#: the directory this qdeg is imported from, for child interpreters
QDEG_PATH = str(Path(qdeg.__file__).resolve().parents[1])


def child_env():
    """The environment of a child interpreter that imports this qdeg."""
    path = os.pathsep.join(filter(None, [QDEG_PATH, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run_process(argv):
    """`python -m qdeg.cli argv` in a child interpreter that imports this qdeg."""
    return subprocess.run(
        [sys.executable, "-m", "qdeg.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=child_env(),
    )


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


def suite_digest(suite, letter, rank, *options):
    """sha256 of `verify --suite S --type T --rank R [options] --parabolic all --json`, run in a child."""
    argv = ["verify", "--suite", suite, "--type", letter, "--rank", rank, *options]
    done = run_process([*argv, "--parabolic", "all", "--json"])
    assert done.returncode == 0 and done.stderr == ""
    return hashlib.sha256(done.stdout.encode()).hexdigest()


def test_b4_pair_tables_match_the_readme_digest():
    """Every pair front of every B4 parabolic, as the README's `main --mode pairs` run pins it."""
    digest = suite_digest("main", "B", "4", "--mode", "pairs")
    assert digest == "4f05481cf7d5ec2bef755ad3ba25d6a51ab2e6b91cdb32b18dafa954a6c7440e"


@pytest.mark.parametrize(
    "letter,rank,digest",
    [
        ("F", "4", "e5a1cf31af123d42d8b07240f3b378eb523a58548521827ce36775149804f70a"),
        ("D", "5", "fa437338c11c82f1b0bbb3043445cbc05ff0e62281f5c4c6ab6ec2b448f544d2"),
    ],
)
def test_f4_and_d5_pair_tables_match_the_readme_digests(letter, rank, digest):
    """Every pair front of every F4 and D5 parabolic, as the README pins them."""
    assert suite_digest("main", letter, rank, "--mode", "pairs") == digest


@pytest.mark.parametrize(
    "suite,letter,rank,digest",
    [
        ("uniqueness", "F", "4", "add583088e7ea1845a3c20c18c79fdbcc47c14e82310dea25f253cd8f3f7cf52"),
        ("description", "F", "4", "79d4df18c97a3916a50c917101fbd7f0318ad119dd65da01f1f7137dbec9d827"),
        ("description", "B", "4", "083cb867c95a4d9901d3ca6f265d68fb943513b66d094d4a362b58a142f989eb"),
        ("uniqueness", "D", "5", "17f5a5546072d1867880f9738893396a00b4b6fa295d55001765ba5badd09026"),
        ("description", "D", "5", "20651d139b1818e4b4eabba5ca6d9acf1732cde6f3cf1cfa6bb7879088efd5e8"),
    ],
)
def test_rank_four_and_five_suites_match_their_pinned_digests(suite, letter, rank, digest):
    """The scan of claim 1 and the scan-versus-chain description on every F4, B4 and D5 parabolic."""
    assert suite_digest(suite, letter, rank) == digest


def test_d4_delta2_props_matches_its_pinned_digest():
    """Its chain-endpoint-transfer count follows the chain witnesses, so this pins their identity."""
    argv = ["verify", "--suite", "delta2-props", "--type", "D", "--rank", "4", "--parabolic", "1,3"]
    done = run_process([*argv, "--json"])
    assert done.returncode == 0 and done.stderr == ""
    digest = hashlib.sha256(done.stdout.encode()).hexdigest()
    assert digest == "27c7dfd9ec9e5688876d2d586818b953ab1790efd8629c488cdb57a6a3bf457c"


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
    code, _ = run_capture(["delta2", "--type", "G", "--rank", "2", "--cap", "100"])
    assert code == 2
    for verb in (["delta"], ["delta2"], ["verify", "--suite", "uniqueness"]):
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


#: sha256 of `qdeg roots ... --json`, recorded before inner read the Gram matrix
ROOTS_DIGESTS = [
    (("C", "8"), "f65c99f6061124f09346dbdfaba07268b70bbc90193f48d7b874a055b1ad6d42"),
    (("E", "7"), "4d59813f3786adf994581aa9deab0a083ad9b0c4cbe848201ad0230189f5f040"),
]


@pytest.mark.parametrize("case,digest", ROOTS_DIGESTS)
def test_roots_json_matches_pinned_digests(case, digest):
    letter, rank = case
    code, out = run_capture(["roots", "--type", letter, "--rank", rank, "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


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
        done = run_process(argv)
        assert done.returncode == 2 and done.stdout == "", argv
        assert "exceeded the cap" in done.stderr


def test_an_oversized_pair_table_exits_two_at_once():
    """The E6 Borel's 51,840 ** 2 pair table is refused before any search runs."""
    for suite in ("main", "delta2"):
        argv = ["verify", "--suite", suite, "--type", "E", "--rank", "6", "--parabolic", ""]
        done = run_process([*argv, "--mode", "pairs"])
        assert done.returncode == 2 and done.stdout == "", suite
        assert "pair table of 2687385600 pairs exceeded the cap" in done.stderr


def test_a_closed_stdout_exits_one_without_a_traceback():
    """`qdeg exceptional --type F --rank 4 --json | head -c 10`, with the reader gone before
    the child writes a byte: exit 1, and nothing on stderr."""
    child = subprocess.Popen(
        [sys.executable, "-m", "qdeg.cli", "exceptional", "--type", "F", "--rank", "4", "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 1
    assert err == b""


def test_an_oversized_hecke_walk_exits_two_at_once():
    """B4's 384 ** 3 triples are refused before W is enumerated; the walk would run for minutes."""
    argv = ["verify", "--suite", "hecke", "--type", "B", "--rank", "4", "--parabolic", "1,2,3"]
    start = time.perf_counter()
    done = run_process(argv)
    assert time.perf_counter() - start < 5
    assert done.returncode == 2 and done.stdout == ""
    assert f"hecke suite of {384 ** 3} triples exceeded the cap of {ENUMERATION_CAP}" in done.stderr


def test_a_degree_past_the_greedy_cap_exits_two_before_any_step():
    """sum(d) bounds the greedy walk and the decomposition it returns: GREEDY_CAP + 1
    is refused before the walk starts, and GREEDY_CAP itself answers."""
    group = qdeg.weyl_group("B", 3)
    system_memo, memo = dict(group.system.memo), dict(group.memo)
    for first in (GREEDY_CAP + 1, 99999999):
        err = io.StringIO()
        start = time.perf_counter()
        with redirect_stderr(err):
            code, out = run_capture(["z", "--type", "B", "--rank", "3", "--degree", f"{first},0,0"])
        assert time.perf_counter() - start < 5
        assert code == 2 and out == ""
        assert f"greedy walk of ({first}, 0, 0) exceeded the cap of {GREEDY_CAP}" in err.getvalue()
        assert group.system.memo == system_memo and group.memo == memo
    done = run_process(["z", "--type", "B", "--rank", "3", "--degree", f"{GREEDY_CAP},0,0", "--json"])
    assert done.returncode == 0 and done.stderr == ""
    assert len(json.loads(done.stdout)["greedy"]) == GREEDY_CAP  # one alpha_1 per step


def test_options_are_read_against_the_rank_before_the_system_is_built(monkeypatch):
    """A degree, parabolic or word that does not fit --rank exits 2 before any system is built."""
    argv = ["z", "--type", "A", "--rank", "200", "--parabolic", "1", "--degree", "1"]
    start = time.perf_counter()
    done = run_process(argv)
    assert time.perf_counter() - start < 10  # A200 has 20,100 positive roots to generate
    assert done.returncode == 2 and done.stdout == ""
    assert "degree needs 199 coefficients" in done.stderr

    from qdeg import cli

    def unbuilt(*args):
        raise AssertionError("a root system was built")

    monkeypatch.setattr(cli, "build_root_system", unbuilt)
    monkeypatch.setattr(cli, "weyl_group", unbuilt)
    for verb in (
        ["z", "--parabolic", "0", "--degree", "1"],
        ["dx", "--parabolic", "201"],
        ["delta", "--u", "1,201"],
        ["delta2", "--v", "x"],
        ["verify", "--suite", "main", "--parabolic", "all"],
        ["verify", "--suite", "main", "--parabolic", "1,x"],
    ):
        err = io.StringIO()
        with redirect_stderr(err):
            assert run_capture(verb + ["--type", "A", "--rank", "200"]) == (2, ""), verb
        assert err.getvalue().startswith("usage error:"), verb
    # an inadmissible rank is still reported first
    err = io.StringIO()
    with redirect_stderr(err):
        argv = ["z", "--type", "E", "--rank", "9", "--parabolic", "12", "--degree", "x"]
        assert run_capture(argv) == (2, "")
    assert err.getvalue() == "error: inadmissible rank 9 for type E\n"


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
    assert code == 2  # no verb takes --cap: the enumeration cap is not the caller's to set
    args = build_parser().parse_args(["delta2", "--type", "B", "--rank", "3", "--u", "", "--v", ""])
    assert not hasattr(args, "cap")
    done = run_process(["delta2", "--type", "E", "--rank", "7", "--u", "1", "--v", "2"])
    assert done.returncode == 2 and done.stdout == ""
    assert f"enumeration of 2903040 exceeded the cap of {ENUMERATION_CAP}" in done.stderr


def test_delta2_rechecks_a_front_read_under_cap_hit(monkeypatch):
    """G2, u = e, v = s2 s1 s2: a label surviving in the search has an edge past its cap,
    so the front is computed again at --box + 1; it is the same, and so is the output.
    v = s1 s2 s1 is not flagged and is read once.  A front that changes there is a
    verification failure."""
    cli = importlib.import_module("qdeg.cli")
    delta_uv, pads = cli.delta_uv, []

    def counted(group, parabolic, u, v, pad):
        pads.append(pad)
        return delta_uv(group, parabolic, u, v, pad)

    monkeypatch.setattr(cli, "delta_uv", counted)
    argv = ["delta2", "--type", "G", "--rank", "2", "--u", "", "--v", "1,2,1", "--json"]
    assert run_capture(argv) == (0, (
        '{"cap_hit": false, "front": [{"coeffs": {"1": 0, "2": 0}, "parabolic": []}], '
        '"provenance": "chain", "schema": "qdeg/1", "system": {"rank": 2, "type": "G"}, '
        '"u": [], "v": [1, 2, 1]}\n'
    ))
    assert pads == [2]
    pads.clear()
    argv[-2] = "2,1,2"
    assert run_capture(argv) == (0, (
        '{"cap_hit": true, "front": [{"coeffs": {"1": 0, "2": 0}, "parabolic": []}], '
        '"provenance": "chain", "schema": "qdeg/1", "system": {"rank": 2, "type": "G"}, '
        '"u": [], "v": [2, 1, 2]}\n'
    ))
    assert pads == [2, 3]

    def widened(group, parabolic, u, v, pad):
        front = delta_uv(group, parabolic, u, v, pad)
        return front if pad == 2 else replace(front, degrees=(Degree(parabolic, (0, 1)),))

    monkeypatch.setattr(cli, "delta_uv", widened)
    err = io.StringIO()
    with redirect_stderr(err):
        assert run_capture(argv) == (1, "")
    assert err.getvalue() == (
        "verification failure: delta2 front changes from --box 2 to 3: [[0, 0]] -> [[0, 1]]\n"
    )


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


#: sha256 of `exceptional --json` for every admissible type of rank <= 8,
#: recorded while the report fields were still encoded one by one
EXCEPTIONAL_DIGESTS = {
    ("A", 1): "0fa4cf402e43d6e74c99cca34750f2e16ca7e821dbc9dc56719b6b74b7c3af83",
    ("A", 2): "955d0fd14e9036fa30106c4a16b9f0d196ea80fec1882a7d194e07a49bee5c29",
    ("A", 3): "ef96117a92289ad725a5e0d2fc5b9ae60320e08ecc043930b62d92dc15f28b01",
    ("A", 4): "370fe0da8deb7346ad1fd130e0026b76eee02dde4dd69fa91af623d1d763108e",
    ("A", 5): "00f2ec170a6fccf372cd006a94061a15480a31aadad3790f286dc11efe185104",
    ("A", 6): "61ca2c76b33d33b0b4939f67bb601bccb17484bdaa4189dd0a24e81cbb5c9b45",
    ("A", 7): "f01142e3b3ec87d8c85f3197723843cc98da36081b58138cb992f16ffd9e167e",
    ("A", 8): "af390164e08000252156652e9c213aef50e9aa514ef9e26f6528ac2532202bbd",
    ("B", 2): "1fb54f1b041bbb90be2a1195a76ed2430a117ca09cd5650baf1e8eef6250cca5",
    ("B", 3): "a4a5bd464794925d140f5d3039767f318eb5e15855e45295b4cb4ab994ace95b",
    ("B", 4): "4af88d4af8eed844409140ecddc6c5deb70c1c6e585ba7e81d8463bc16c72a17",
    ("B", 5): "7dd6f0163f7a80376d1df97cb129add1bf469ba4911d42d19cba42f5d473f7fb",
    ("B", 6): "6114a8aa84f67d46f6d280bc790c65da6364918f8e4bde6bc6f8016ba78bed0e",
    ("B", 7): "ced033e94dbd1105ddc74624471fed7091380b2247bd70529710e27219b960c9",
    ("B", 8): "2b55f76d7b235dde0245c39eb7a44bc09c49fe204d12a9011cd782455bded8c8",
    ("C", 2): "6b41deddc5de7cdfb03190ef15c23442035300e81260c6e374afbd3fd9484658",
    ("C", 3): "ea5317ee5932addb2231ba5f468b1217b00a432bbdaf822fb2f3fea30247bc89",
    ("C", 4): "1a9f6cfdcbe417c93ffa292e57363536ab753a9462892fa6c42aeb243905ffbd",
    ("C", 5): "ef400ab1d73fa5c23fd2ad279894b544842522d8826642d0f375a349772af861",
    ("C", 6): "d8ea515eb1e2b910b07951a83f6ebe0598bb2b052ec2278e3c19bb83d67fa1e4",
    ("C", 7): "ab603a6e70ce40a2a99d5a99948f79f809eb894c95b78bf7ba2a0b3edf5edc02",
    ("C", 8): "0e49f13097d1c3d3e1b9e2dff57e31e391c5ade11daf63ac3c4bda7ea699d6c9",
    ("D", 3): "a5e53226f32d5ac66182c744827b798e9bab0f0888b2ca23467ca0b9a2dcec8c",
    ("D", 4): "4a3d237cc20a52c5f500cb44c187dd35607f0e38e26da48bb61c32cc72d6f782",
    ("D", 5): "d8ad0de2bb00a2720288ec6f85c41d13aca2e1147ed326f7f0b53aa2735f4b71",
    ("D", 6): "cba37e6bdbaa0a72ae94460968f96b297d8a0ce68768400abc35af7ab9da0eb9",
    ("D", 7): "baaced840a325dc1769102ee678e3449f33f1e59181b6f97207c1e2a4f415511",
    ("D", 8): "8d0d58693c406eff02a0bcf26fed27bc90a4257b37d91e5b07569f0f0bb9e06f",
    ("E", 6): "fbe70635b83ae142e4f1f0c7a326bfcd2a62fa5f787c95671bf0fc368da50311",
    ("E", 7): "02583a1f5f885357116a2ac344baeffb26e90537f7ae48419a5d621b1a5283ef",
    ("E", 8): "73f430f0e4ba644d34623f7758d517f7f4b35a87f84fb4087e04ea069d70fe7f",
    ("F", 4): "c3c3d3de44ea552a29125eeb062df7319fd1194987248717bd1f944cbe14f186",
    ("G", 2): "790747be54d563ff8d72deaf7c73226d24caf3c7c60c409bea0cd6d7d872f9f4",
}


@pytest.mark.parametrize("letter,rank", sorted(EXCEPTIONAL_DIGESTS))
def test_exceptional_json_matches_golden_digests(letter, rank):
    code, out = run_capture(["exceptional", "--type", letter, "--rank", str(rank), "--json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXCEPTIONAL_DIGESTS[(letter, rank)]


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

    monkeypatch.setattr("multiprocessing.Pool", RecordingPool)  # cli imports it under --jobs
    argv = ["verify", "--suite", "uniqueness", "--type", "B", "--rank", "2", "--json"]
    code, out = run_capture(argv + ["--parabolic", "all", "--jobs", "100000"])
    assert code == 0 and started == [4]
    assert len(json.loads(out)["reports"]) == 4
    assert run_capture(argv + ["--parabolic", "all", "--jobs", "3"])[0] == 0
    assert started == [4, 3]
