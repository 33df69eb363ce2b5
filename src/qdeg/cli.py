"""Command-line interface: construction, computation, and verification verbs.

Exit codes: 0 = success / all checks passed, 1 = a verification suite found a counterexample
(printed as JSON) or stdout was closed early (quietly), 2 = usage, configuration, or resource
error.  Output is deterministic for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from .cascade import cascade as _cascade_of, d_x as _d_x, delta_circ as _delta_circ
from .curveneighborhood import z
from .degreelattice import Degree, greedy_decomposition
from .distance import CheckResult, SuiteReport, delta_uv, delta_w, exceptional_roots, verify_suite
from .errors import (
    ConfigurationError,
    DomainError,
    InvariantViolationError,
    QdegError,
    ResourceError,
    VerificationError,
)
from .rootsystem import RootSystem, build_root_system, check_type
from .weylgroup import ENUMERATION_CAP, Parabolic, WeylGroup, weyl_group

SCHEMA = "qdeg/1"


# -- encoding helpers ----------------------------------------------------------


def encode_system(system: RootSystem) -> dict:
    return {"type": system.type_letter, "rank": system.rank}


def encode_element(group: WeylGroup, w) -> list:
    return [j + 1 for j in group.reduced_word(w)]


def encode_parabolic(parabolic: Parabolic) -> list:
    return sorted(i + 1 for i in parabolic.delta_p)


def encode_degree(d: Degree) -> dict:
    return {
        "parabolic": encode_parabolic(d.parabolic),
        "coeffs": {str(b + 1): c for b, c in zip(d.parabolic.free, d.coeffs)},
    }


# -- argument parsing ----------------------------------------------------------


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 2 without argparse's SystemExit noise
        raise _UsageError(message)


# The parsers read only --rank, so a bad option exits before any system is built.


def _parse_parabolic(rank: int, text: str | None) -> Parabolic:
    if not text:
        return Parabolic(rank, frozenset())
    try:
        indices = [int(x) - 1 for x in text.split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad parabolic spec {text!r}") from exc
    if any(not 0 <= i < rank for i in indices):
        raise _UsageError(f"parabolic indices out of range in {text!r}")
    return Parabolic.from_indices(rank, indices)


def _parse_word(rank: int, text: str | None) -> list:
    """The 0-based letters of a 1-based word; empty for the identity."""
    try:
        word = [int(x) - 1 for x in (text or "").split(",") if x.strip()]
    except ValueError as exc:
        raise _UsageError(f"bad word {text!r}") from exc
    if any(not 0 <= j < rank for j in word):
        raise _UsageError(f"word letters out of range in {text!r}")
    return word


def _parse_degree(parabolic: Parabolic, text: str) -> Degree:
    try:
        coeffs = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad degree {text!r}") from exc
    if len(coeffs) != len(parabolic.free):
        raise _UsageError(
            f"degree needs {len(parabolic.free)} coefficients over Delta \\ Delta_P"
        )
    return Degree(parabolic, coeffs)


def _emit(doc: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- verbs ----------------------------------------------------------------------


def _cmd_roots(args) -> int:
    system = build_root_system(args.type, args.rank)
    doc = {
        "schema": SCHEMA,
        "system": encode_system(system),
        "cartan": system.cartan,
        "symmetrizer": system.symmetrizer,
        "positive_roots": [{"root": a, "coroot": system.coroot(a)} for a in system.positive_roots],
        "highest_root": system.highest_root,
        "highest_short_root": system.highest_short_root,
    }
    lines = [f"{system.type_letter}{system.rank}: {len(system.positive_roots)} positive roots"]
    lines += [str(list(a)) for a in system.positive_roots]
    lines.append(f"highest root: {list(system.highest_root)}")
    if system.highest_short_root is not None:
        lines.append(f"highest short root: {list(system.highest_short_root)}")
    _emit(doc, args.json, lines)
    return 0


def _cmd_cascade(args) -> int:
    system = build_root_system(args.type, args.rank)
    casc = _cascade_of(system)
    members = list(casc.roots)
    parent_index = [
        None if casc.parent[m] is None else members.index(casc.parent[m])
        for m in members
    ]
    doc = {
        "schema": SCHEMA,
        "system": encode_system(system),
        "cascade": members,
        "parent": parent_index,
    }
    lines = [f"cascade of {system.type_letter}{system.rank}: {len(members)} roots"]
    for m, p in zip(members, parent_index):
        src = "top" if p is None else f"under {list(members[p])}"
        lines.append(f"{list(m)}  ({src})")
    _emit(doc, args.json, lines)
    return 0


def _cmd_dx(args) -> int:
    parabolic = _parse_parabolic(args.rank, args.parabolic)
    system = build_root_system(args.type, args.rank)
    dx = _d_x(system, parabolic)
    doc = {"schema": SCHEMA, "system": encode_system(system), "d_X": encode_degree(dx)}
    _emit(doc, args.json, [f"d_X = {list(dx.coeffs)} over beta in {[b + 1 for b in parabolic.free]}"])
    return 0


def _cmd_z(args) -> int:
    parabolic = _parse_parabolic(args.rank, args.parabolic)
    d = _parse_degree(parabolic, args.degree)
    group = weyl_group(args.type, args.rank)
    system = group.system
    result = z(group, parabolic, d)
    doc = {
        "schema": SCHEMA,
        "system": encode_system(system),
        "degree": encode_degree(d),
        "greedy": greedy_decomposition(system, parabolic, d),
        "z_min": encode_element(group, result.z_min),
        "z_max": encode_element(group, result.z_max),
    }
    _emit(doc, args.json, [f"z_min reduced word: {doc['z_min']}", f"z_max reduced word: {doc['z_max']}"])
    return 0


def _cmd_delta(args) -> int:
    parabolic = _parse_parabolic(args.rank, args.parabolic)
    word_u = _parse_word(args.rank, args.u)
    group = weyl_group(args.type, args.rank)
    u = group.from_word(word_u)
    front = delta_w(group, parabolic, u, pad=args.box)
    doc = {
        "schema": SCHEMA,
        "system": encode_system(group.system),
        "u": encode_element(group, u),
        "front": [encode_degree(d) for d in front.degrees],
        "provenance": front.provenance,
    }
    _emit(doc, args.json, [f"delta_P(u) = {[list(d.coeffs) for d in front.degrees]}"])
    return 0


def _cmd_delta2(args) -> int:
    parabolic = _parse_parabolic(args.rank, args.parabolic)
    word_u, word_v = _parse_word(args.rank, args.u), _parse_word(args.rank, args.v)
    group = weyl_group(args.type, args.rank)
    u, v = group.from_word(word_u), group.from_word(word_v)
    front = delta_uv(group, parabolic, u, v, pad=args.box)
    if front.cap_hit:  # a label past the cap must not have changed this front
        wider = delta_uv(group, parabolic, u, v, pad=args.box + 1)
        if wider.degrees != front.degrees:
            raise VerificationError(
                f"delta2 front changes from --box {args.box} to {args.box + 1}: "
                f"{[list(d.coeffs) for d in front.degrees]} -> "
                f"{[list(d.coeffs) for d in wider.degrees]}"
            )
    doc = {
        "schema": SCHEMA,
        "system": encode_system(group.system),
        "u": encode_element(group, u),
        "v": encode_element(group, v),
        "front": [encode_degree(d) for d in front.degrees],
        "provenance": front.provenance,
        "cap_hit": front.cap_hit,
    }
    _emit(doc, args.json, [f"delta_P(u,v) = {[list(d.coeffs) for d in front.degrees]}"])
    return 0


def _cmd_exceptional(args) -> int:
    group = weyl_group(args.type, args.rank)
    system = group.system
    reports = exceptional_roots(system, group)
    doc = {
        "schema": SCHEMA,
        "system": encode_system(system),
        "delta_minus_circ": sorted(
            b + 1 for b in set(range(system.rank)) - _delta_circ(system)
        ),
        "exceptional": [{**asdict(r), "witness_beta": r.witness_beta + 1} for r in reports],
    }
    lines = [f"{len(reports)} exceptional roots in {system.type_letter}{system.rank}"]
    lines += [str(list(r.root)) for r in reports]
    _emit(doc, args.json, lines)
    return 0


def _run_one_suite(task) -> dict:
    """One suite report; a failed verification is a failed report, not a lost run."""
    name, letter, rank, delta_p, pad, mode = task
    system = build_root_system(letter, rank)
    parabolic = Parabolic.from_indices(system.rank, delta_p)
    try:
        report = verify_suite(name, letter, rank, parabolic, pad=pad, mode=mode)
    except (VerificationError, InvariantViolationError) as exc:
        check = CheckResult("exception", False, 1, f"{type(exc).__name__}: {exc}")
        parabolic_json = tuple(encode_parabolic(parabolic))
        report = SuiteReport(
            name, system.type_letter, system.rank, parabolic_json, False, (check,)
        )
    return report.to_json()


def _cmd_verify(args) -> int:
    rank = args.rank
    if args.parabolic == "all":
        if rank > 5:
            raise _UsageError("iterating every parabolic is guarded to rank <= 5")
        import itertools

        subsets = [
            tuple(c) for r in range(rank + 1) for c in itertools.combinations(range(rank), r)
        ]
    else:
        subsets = [tuple(sorted(_parse_parabolic(rank, args.parabolic).delta_p))]
    system = build_root_system(args.type, rank)
    tasks = [
        (args.suite, system.type_letter, system.rank, s, args.box, args.mode)
        for s in subsets
    ]
    if args.jobs > 1 and len(tasks) > 1:
        from multiprocessing import Pool  # loaded by --jobs alone

        with Pool(min(args.jobs, len(tasks))) as pool:
            reports = pool.map(_run_one_suite, tasks)
    else:
        reports = [_run_one_suite(t) for t in tasks]
    reports.sort(key=lambda r: r["parabolic"])
    doc = {"schema": SCHEMA, "reports": reports}
    passed = all(r["passed"] for r in reports)
    if args.json:
        print(json.dumps(doc, sort_keys=True))
    else:
        for r in reports:
            tag = "PASS" if r["passed"] else "FAIL"
            print(
                f"[{tag}] suite={r['suite']} {r['system']['type']}{r['system']['rank']}"
                f" parabolic={r['parabolic']}"
            )
            for c in r["checks"]:
                mark = "ok" if c["passed"] else "COUNTEREXAMPLE"
                extra = "" if c["passed"] else f" :: {c['counterexample']}"
                print(f"  {c['name']}: {mark} ({c['checked']} checks){extra}")
    if not passed:
        if not args.json:
            print(json.dumps(doc, sort_keys=True))
        return 1
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="qdeg", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, parabolic=True, box=False):
        p.add_argument("--type", required=True, help="root system type letter A..G")
        p.add_argument("--rank", required=True, type=int)
        if parabolic:
            p.add_argument(
                "--parabolic",
                default="",
                help="comma-separated 1-based simple indices of Delta_P; empty = B; verify takes all",
            )
        p.add_argument("--json", action="store_true")
        if box:
            p.add_argument("--box", type=int, default=2, help="scan box pad over d_X")

    common(sub.add_parser("roots"), parabolic=False)
    common(sub.add_parser("cascade"), parabolic=False)
    common(sub.add_parser("dx"))
    p_z = sub.add_parser("z")
    common(p_z)
    p_z.add_argument("--degree", required=True, help="comma-separated coefficients over Delta \\ Delta_P")
    p_d = sub.add_parser("delta")
    common(p_d, box=True)
    p_d.add_argument("--u", default="", help="reduced word, 1-based comma-separated")
    p_d2 = sub.add_parser(
        "delta2",
        description="delta_P(u, v), the minimal chain degrees from uW_P to vW_P.  The JSON "
        "cap_hit is set when a label surviving in the chain search, one per v, has an edge "
        "past its cap; it is not a fact of this pair alone.  When it is set, the front is "
        "computed again at --box + 1, and a different front is a verification failure.  "
        f"More than {ENUMERATION_CAP} cosets exit 2 before any is enumerated.",
    )
    common(p_d2, box=True)
    p_d2.add_argument("--u", default="")
    p_d2.add_argument("--v", default="")
    common(sub.add_parser("exceptional"), parabolic=False)
    p_v = sub.add_parser("verify")
    common(p_v, box=True)
    p_v.add_argument("--suite", required=True)
    p_v.add_argument("--jobs", type=int, default=1)
    p_v.add_argument("--mode", default="auto", choices=["auto", "pairs", "box"])
    return parser


_COMMANDS = {
    "roots": _cmd_roots,
    "cascade": _cmd_cascade,
    "dx": _cmd_dx,
    "z": _cmd_z,
    "delta": _cmd_delta,
    "delta2": _cmd_delta2,
    "exceptional": _cmd_exceptional,
    "verify": _cmd_verify,
}


def run(argv) -> int:
    """Parse argv (without the program name) and execute; returns the exit code."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "box", 0) < 0:  # only delta, delta2 and verify take --box
            raise _UsageError(f"--box must be >= 0, got {args.box}")
        if getattr(args, "jobs", 1) < 1:  # only verify takes --jobs
            raise _UsageError(f"--jobs must be >= 1, got {args.jobs}")
        check_type(args.type, args.rank)  # before any option is read against the rank
        return _COMMANDS[args.verb](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ResourceError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QdegError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:  # console entry point
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a closed pipe raises here, not at exit
    except BrokenPipeError:  # the Python docs' recipe: the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
