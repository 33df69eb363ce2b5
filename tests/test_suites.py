"""The named verification suites on small systems, plus their error paths."""

import hashlib
import itertools
import json
from dataclasses import replace

import pytest

import qdeg.curveneighborhood as curveneighborhood
from qdeg.cascade import d_x
from qdeg.degreelattice import Degree
from qdeg.distance import core, suite_names, suites, verify_suite
from qdeg.distance.core import DegreeFront, _labels, _search, coset_duals
from qdeg.distance.suites import (
    _check,
    _dense,
    _each_pair_degree,
    _minimal_degrees,
    _pairs_table,
    _self_fronts,
    _suite_delta2,
    _suite_delta2_props,
    _suite_description,
    _suite_final_cor,
    _suite_main,
)
from qdeg.errors import ConfigurationError, InvariantViolationError, ResourceError, VerificationError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup, weyl_group

from conftest import all_parabolics, self_fronts_oracle

SMALL = [("A", 2), ("B", 2), ("G", 2)]


@pytest.mark.parametrize("letter,rank", SMALL)
@pytest.mark.parametrize(
    "name",
    [
        "hecke",
        "zd",
        "uniqueness",
        "main",
        "description",
        "delta2",
        "delta-props",
        "delta2-props",
        "inductive",
        "resind",
        "compatibility",
        "orthogonality",
        "final-cor",
    ],
)
def test_suites_pass_on_small_systems(name, letter, rank):
    for parabolic in all_parabolics(rank):
        report = verify_suite(name, letter, rank, parabolic)
        failed = [c for c in report.checks if not c.passed]
        assert report.passed, (name, letter, rank, parabolic, failed)


def test_g2_examples_suite():
    report = verify_suite("g2-examples", "G", 2)
    assert report.passed
    with pytest.raises(ConfigurationError):
        verify_suite("g2-examples", "A", 2)


def test_simply_laced_suite():
    for parabolic in all_parabolics(3):
        assert verify_suite("simply-laced", "A", 3, parabolic).passed
    with pytest.raises(ConfigurationError):
        verify_suite("simply-laced", "B", 2)


def test_negative_pad_is_rejected():
    with pytest.raises(ConfigurationError):
        verify_suite("main", "G", 2, Parabolic(2, frozenset()), pad=-1, mode="pairs")


def _doctor_pair_fronts(monkeypatch, fronts):
    """Make the suites read fronts[(Delta_P, i, j)] in place of the streamed front of pair (i, j).

    Each doctored column leaves its part and becomes a part of its own, so the
    row keeps its invariant: disjoint masks that cover every column, ordered
    by lowest column.  The rows are doctored after ``_pairs_table`` yields
    them, so after its point-row check."""
    real = suites._pairs_table

    def doctored(group, parabolic, pad):
        for i, parts in real(group, parabolic, pad):
            cut = {j: f for (dp, row, j), f in fronts.items() if (dp, row) == (parabolic.delta_p, i)}
            drop = sum(1 << j for j in cut)
            kept = [(mask & ~drop, front) for mask, front in parts if mask & ~drop]
            kept += [(1 << j, front) for j, front in cut.items()]
            yield i, tuple(sorted(kept, key=lambda part: part[0] & -part[0]))

    monkeypatch.setattr(suites, "_pairs_table", doctored)


def _empty_the_point_front(monkeypatch, group, *parabolics):
    """Stream () at (pt, pt) for these parabolics: a pair with no degree in its box."""
    tops = {p.delta_p: len(group.cosets(p)) - 1 for p in parabolics}
    _doctor_pair_fronts(monkeypatch, {(dp, top, top): () for dp, top in tops.items()})


def test_main_pairs_counts_an_empty_front_as_a_failure(monkeypatch):
    """At pad -1 some pairs need a degree outside the box, and the scan's re-check raises;
    an empty front in a table fails main."""
    group = WeylGroup(build_root_system("G", 2))
    borel = Parabolic(2, frozenset())
    with pytest.raises(VerificationError, match="unstable at box boundary"):
        tuple(_suite_main(group, borel, -1, "pairs"))
    _empty_the_point_front(monkeypatch, group, borel)
    (check,) = _suite_main(group, borel, 2, "pairs")
    assert not check.passed
    assert check.counterexample.endswith("empty front")
    assert check.checked == 144


def test_delta2_counts_an_empty_front_as_a_failure(monkeypatch):
    """The same pairs must not let pair-degrees-are-self-front pass."""
    group = WeylGroup(build_root_system("G", 2))
    borel = Parabolic(2, frozenset())
    with pytest.raises(VerificationError, match="unstable at box boundary"):
        tuple(_suite_delta2(group, borel, -1))
    _empty_the_point_front(monkeypatch, group, borel)
    (check,) = _suite_delta2(group, borel, 2)
    assert not check.passed
    assert check.counterexample.endswith("empty front")
    assert check.checked == 144


def test_pair_properties_count_an_empty_front_as_a_failure(monkeypatch):
    """No claim over the pair fronts may pass on an empty front."""
    group = WeylGroup(build_root_system("G", 2))
    borel = Parabolic(2, frozenset())
    for suite in (_suite_delta2_props, _suite_final_cor):
        with pytest.raises(VerificationError, match="unstable at box boundary"):
            tuple(suite(group, borel, -1))
    # final-cor reads the tables of the maximal parabolics
    maximal = (Parabolic(2, frozenset({0})), Parabolic(2, frozenset({1})))
    _empty_the_point_front(monkeypatch, group, borel, *maximal)
    props = {c.name: c for c in itertools.islice(_suite_delta2_props(group, borel, 2), 5)}
    final = {c.name: c for c in _suite_final_cor(group, borel, 2)}
    for check, checked in (
        (props["symmetry"], 145),
        (props["pair-monotone"], 5186),
        (props["chain-endpoint-transfer"], 477),
        (final["interval-identity-pairs"], 4),
    ):
        assert not check.passed
        assert check.counterexample.endswith("empty front")
        assert check.checked == checked


def test_pair_claims_see_an_overestimated_front(monkeypatch):
    """A front raised to the cap at one pair must fail main and pair-monotone.

    The claims read the streamed rows as they are, so the capped front is put
    into the stream after the table's own cross-check: a corrupted chain
    search is caught by that check (next test).
    """
    group = WeylGroup(build_root_system("B", 2))
    borel = Parabolic(2, frozenset())
    top = len(group.cosets(borel)) - 1
    labels = _labels(group, borel, 2)
    _doctor_pair_fronts(monkeypatch, {(borel.delta_p, top, 1): (labels.unpack(labels.cap),)})
    (check,) = _suite_main(group, borel, 2, "pairs")
    assert not check.passed
    assert (check.checked, check.counterexample) == (64, f"u#{top} v#1 d=(4, 3)")
    props = {c.name: c for c in itertools.islice(_suite_delta2_props(group, borel, 2), 4)}
    assert not props["pair-monotone"].passed
    assert props["pair-monotone"].checked == 1089
    assert props["pair-monotone"].counterexample == f"({top},1) <= ({top},3) d=(1, 1)"


def test_counted_pair_items_match_a_scan_of_every_pair():
    """Parts of several columns, empty or not: the counted items give the count and the first
    counterexample of a scan of every pair in column order."""
    a, b = ((1,), (2,)), ((2,),)
    for rows in (
        [(0, ((0b1001, a), (0b0110, ())))],
        [(0, ((0b1111, ((1,),)),)), (1, ((0b0101, a), (0b1010, b)))],
        [(0, ((0b0001, ((0,),)), (0b1110, b)))],
    ):
        ok = lambda c: c != (2,)
        scanned, first = 0, None
        for i, parts in rows:
            row = _dense(parts, 4)
            bad = [f"u#{i} v#{j} empty front" for j, f in enumerate(row) if not f]
            bad += [f"u#{i} v#{j} d={c}" for j, f in enumerate(row) for c in f if not ok(c)]
            scanned += sum(len(f) or 1 for f in row)
            first = first or next(iter(bad), None)
        check = _check("c", _each_pair_degree(rows, ok))
        assert (check.passed, check.checked, check.counterexample) == (first is None, scanned, first)


def test_an_overestimated_chain_front_trips_the_pair_table_cross_check():
    """The point-class row is searched by chains too; a corrupted search must not pass."""
    group = WeylGroup(build_root_system("B", 2))
    borel = Parabolic(2, frozenset())
    top = len(group.cosets(borel)) - 1
    result = _search(group, borel, top, "up", 2)
    fronts = list(result.fronts)
    fronts[coset_duals(group, borel)[1]] = {result.labels.cap}
    group.memo[("search", borel.delta_p, top, "up", 2)] = replace(result, fronts=fronts)
    with pytest.raises(InvariantViolationError, match=f"u#{top} v#1$"):
        list(_pairs_table(group, borel, 2))


def test_description_names_the_first_coset_whose_fronts_differ():
    """A wrong memoised scan front fails the description check at that coset, with both fronts."""
    group = WeylGroup(build_root_system("B", 2))
    borel = Parabolic(2, frozenset())
    m = group.cosets(borel)[2]
    group.memo[("delta_w", borel.delta_p, m, 2)] = DegreeFront((d_x(group.system, borel),), "scan")
    (check,) = _suite_description(group, borel, 2)
    assert not check.passed
    assert check.checked == 8
    assert check.counterexample == "u=s2 scan=[(2, 1)] chain=[(0, 1)]"


def test_description_reads_a_front_again_at_pad_plus_one_under_cap_hit(monkeypatch):
    """The G2 Borel's search is flagged, so each chain front is read again at pad + 1 and the
    count is unchanged; a front that changes there fails at that coset, naming both fronts.
    G2/P{2}'s search is not flagged, so each front is read once."""
    real, pads = suites.delta_uv, []

    def counted(group, parabolic, u, v, pad):
        pads.append(pad)
        front = real(group, parabolic, u, v, pad)
        return front if pad == 2 else replace(front, degrees=(d_x(group.system, parabolic),))

    monkeypatch.setattr(suites, "delta_uv", counted)
    group = WeylGroup(build_root_system("G", 2))
    (check,) = _suite_description(group, Parabolic(2, frozenset({1})), 2)
    assert check.passed and check.checked == 6 and pads == [2] * 6
    pads.clear()
    (check,) = _suite_description(group, Parabolic(2, frozenset()), 2)
    assert not check.passed and check.checked == 12 and pads == [2, 3] * 12
    assert check.counterexample == "u=e scan=[(0, 0)] chain=[(0, 0)] chain at pad 3=[(2, 2)]"


def test_resind_fails_when_no_degree_is_a_self_front(monkeypatch):
    """With no self-front degree in any box there is no witness: the first degree fails."""
    monkeypatch.setattr(suites, "_self_fronts", lambda *args: frozenset())
    group = WeylGroup(build_root_system("B", 2))
    report = verify_suite("resind", "B", 2, Parabolic(2, frozenset()), group=group)
    (check,) = report.checks
    assert check.name == "restriction-induction" and not check.passed
    assert check.counterexample == "Q=[] e=(0, 0) (witness)"


@pytest.mark.parametrize("letter,rank", [("A", 3), ("B", 3), ("C", 3), ("G", 2), ("D", 4)])
def test_self_fronts_match_the_per_point_definition(letter, rank):
    """One delta_w per z-class gives the self-front degrees of one delta_w per box point."""
    for p in all_parabolics(rank):
        for pad in range(3):
            expected = self_fronts_oracle(WeylGroup(build_root_system(letter, rank)), p, pad)
            group = WeylGroup(build_root_system(letter, rank))
            assert _self_fronts(group, p, pad) == expected, (p, pad)


def test_box_scans_call_z_at_d_x_alone(monkeypatch):
    """_minimal_degrees and uniqueness read the box off the fold: every z call is at d_X."""
    calls = []
    real = curveneighborhood.z

    def counted(group, parabolic, d):
        calls.append((parabolic, d.coeffs))
        return real(group, parabolic, d)

    monkeypatch.setattr(curveneighborhood, "z", counted)
    monkeypatch.setattr(suites, "z", counted)
    for p in all_parabolics(3):
        group = WeylGroup(build_root_system("B", 3))
        corner = d_x(group.system, p).coeffs
        _minimal_degrees(group, p, 2)
        assert calls and set(calls) == {(p, corner)}, p
        calls.clear()
        assert verify_suite("uniqueness", "B", 3, p, group=group).passed
        assert calls and set(calls) == {(p, corner)}, p
        calls.clear()


def test_uniqueness_fails_when_the_fold_reaches_w_o_below_d_x(monkeypatch):
    """A box fold doctored to give Y = w_o at one degree below d_X fails z-below-dx-not-wx
    at that degree."""
    group = WeylGroup(build_root_system("B", 3))
    borel = Parabolic(3, frozenset())
    corner = d_x(group.system, borel).coeffs
    below = (corner[0] - 1,) + corner[1:]
    real = core.hecke_box

    def doctored(group, parabolic, pad):
        ys = real(group, parabolic, pad)
        ys[below] = group.w_o
        return ys

    monkeypatch.setattr(core, "hecke_box", doctored)
    report = verify_suite("uniqueness", "B", 3, borel, group=group)
    check = next(c for c in report.checks if c.name == "z-below-dx-not-wx")
    assert not check.passed and check.counterexample == f"d={below}"


def test_uniqueness_folds_one_box_per_parabolic(monkeypatch):
    """z-below-dx-not-wx reads the z-classes that delta_w(w_o) built: no second fold."""
    calls = []
    real = curveneighborhood.hecke_box
    counted = lambda group, parabolic, pad: calls.append((parabolic, pad)) or real(group, parabolic, pad)
    for module in (curveneighborhood, core, suites):
        if hasattr(module, "hecke_box"):
            monkeypatch.setattr(module, "hecke_box", counted)
    group = WeylGroup(build_root_system("B", 3))
    for p in all_parabolics(3):
        assert verify_suite("uniqueness", "B", 3, p, group=group).passed
    assert calls == [(p, 3) for p in all_parabolics(3)]


def test_a_self_front_test_outside_its_box_is_refused():
    group = WeylGroup(build_root_system("B", 2))
    borel = Parabolic(2, frozenset())
    corner = d_x(group.system, borel).coeffs
    with pytest.raises(InvariantViolationError, match="outside the box"):
        suites._self_front(group, borel, Degree(borel, (corner[0] + 3, 0)), 2)


@pytest.mark.parametrize(
    "name,letter,rank,claim,liar,counterexample",
    [
        ("delta-props", "B", 2, "verycosmall-singleton", (1, 2), "alpha=(1, 2)"),
        ("delta-props", "B", 2, "simple-root-degree", (0, 1), "beta=2"),
        ("simply-laced", "A", 2, "delta-of-reflection-is-d-alpha", (1, 1), "alpha=(1, 1)"),
        ("compatibility", "B", 2, "locally-high-delta", (1, 2), "alpha=(1, 2)"),
    ],
)
def test_reflection_front_claims_fail_on_a_wrong_root_degree(
    monkeypatch, name, letter, rank, claim, liar, counterexample
):
    """With d(alpha) one too high at one root, each reflection-front claim names that root."""
    real = suites.d_of_root

    def lying(system, parabolic, a):
        d = real(system, parabolic, a)
        return replace(d, coeffs=tuple(c + 1 for c in d.coeffs)) if a == liar else d

    monkeypatch.setattr(suites, "d_of_root", lying)
    group = WeylGroup(build_root_system(letter, rank))
    check = next(c for c in suites._SUITES[name](group, Parabolic(rank, frozenset()), 2) if c.name == claim)
    assert not check.passed and check.counterexample == counterexample


def test_one_order_bound_switches_every_unasked_pair_table(monkeypatch):
    """B2 (order 8) builds pair tables unasked until PAIR_TABLE_ORDER drops below 8."""
    borel = Parabolic(2, frozenset())
    calls = []
    real = suites._pairs_table
    monkeypatch.setattr(suites, "_pairs_table", lambda *args: calls.append(args[1]) or real(*args))
    for bound, built in [(8, True), (7, False)]:
        monkeypatch.setattr(suites, "PAIR_TABLE_ORDER", bound)
        group = WeylGroup(build_root_system("B", 2))
        (main,) = _suite_main(group, borel, 2, "auto")
        names = [c.name for c in _suite_final_cor(group, borel, 2)]
        assert (main.name == "minimal-degrees-bounded-by-dx") == built
        assert ("interval-identity-pairs" in names) == built
        calls.clear()
        coverage = suites.front_coverage(WeylGroup(build_root_system("B", 2)), borel)
        assert calls == ([borel] if built else [])
        assert coverage.nonsingleton_pairs == ()


def test_a_cap_below_dx_empties_the_point_front_and_fails_main(monkeypatch):
    """At pad -1 the box stops below d_X, which (pt, pt) needs: the stream raises.  An empty
    (pt, pt) front fails main there."""
    group = WeylGroup(build_root_system("G", 2))
    borel = Parabolic(2, frozenset())
    top = len(group.cosets(borel)) - 1
    with pytest.raises(VerificationError, match="unstable at box boundary"):
        list(_pairs_table(group, borel, -1))
    _empty_the_point_front(monkeypatch, group, borel)
    (check,) = _suite_main(group, borel, 2, "pairs")
    assert not check.passed
    assert (check.checked, check.counterexample) == (144, f"u#{top} v#{top} empty front")


def test_the_hecke_suite_refuses_an_oversized_table_before_enumeration(monkeypatch):
    """|W|^3 past the cap raises ResourceError before W is enumerated (B2: 512 triples)."""
    group = WeylGroup(build_root_system("B", 2))
    monkeypatch.setattr(suites, "ENUMERATION_CAP", 511)
    with pytest.raises(ResourceError, match="hecke suite of 512 triples"):
        verify_suite("hecke", "B", 2, group=group)
    assert not any(key[0] == "elements" for key in group.memo)
    monkeypatch.setattr(suites, "ENUMERATION_CAP", 512)
    assert verify_suite("hecke", "B", 2, group=group).passed


def test_an_oversized_pair_table_is_refused_before_enumeration():
    """The E6 Borel would have 51,840 ** 2 pairs; nothing is enumerated before the refusal."""
    group = WeylGroup(build_root_system("E", 6))
    with pytest.raises(ResourceError, match="pair table"):
        verify_suite("main", "E", 6, Parabolic(6, frozenset()), mode="pairs", group=group)
    assert not any(key[0] == "elements" for key in group.memo)


def test_verify_suite_rejects_a_parabolic_or_group_of_another_system():
    with pytest.raises(ConfigurationError):
        verify_suite("uniqueness", "B", 3, parabolic=Parabolic(2, frozenset({0})))
    with pytest.raises(ConfigurationError):
        verify_suite("uniqueness", "B", 3, parabolic=Parabolic(3, frozenset({3})))
    with pytest.raises(ConfigurationError):
        verify_suite("uniqueness", "A", 2, group=weyl_group("B", 3))
    with pytest.raises(ConfigurationError):
        verify_suite("uniqueness", "C", 3, group=weyl_group("B", 3))
    report = verify_suite("uniqueness", "b", 3, group=weyl_group("B", 3))
    assert report.passed and (report.type_letter, report.rank) == ("B", 3)


def test_unknown_suite_name():
    with pytest.raises(ConfigurationError):
        verify_suite("nonsense", "A", 2)


def test_suite_names_listed():
    names = suite_names()
    for expected in (
        "uniqueness",
        "main",
        "description",
        "delta2",
        "delta-props",
        "delta2-props",
        "inductive",
        "resind",
        "simply-laced",
        "compatibility",
        "orthogonality",
        "final-cor",
        "g2-examples",
    ):
        assert expected in names


def test_report_shape():
    report = verify_suite("uniqueness", "B", 2, Parabolic.from_indices(2, {0}))
    doc = report.to_json()
    assert doc["suite"] == "uniqueness"
    assert doc["system"] == {"type": "B", "rank": 2}
    assert doc["parabolic"] == [1]
    assert doc["passed"] is True
    assert all(set(c) == {"name", "passed", "checked", "counterexample"} for c in doc["checks"])


#: sha256 of the sorted-key JSON report of every suite on every parabolic, in
#: all_parabolics order.  A refactor of the suites must leave these unchanged.
GOLDEN_DIGESTS = {
    ("compatibility", "B", 2): (
        "8083688be60c0d9331dfc125279746dec8a1dfaeefea248ce6420027c33bb591",
        "59ff463dfadbb4789ba74dea8a8521ed61271cc858d9550d7833860db8b49e12",
        "c4e08e5fbf54830cd9ad6bfe6057dbaa85bda49417b888d12ed2fdc349e5ef12",
        "3d92ff9f98f09d664a7bb8b6967c1047562309847b6ad64527e01641367fff72",
    ),
    # B3 pins of compatibility, delta-props, orthogonality and zd (about 1.5 s
    # together), recorded before their claims shared case walks
    ("compatibility", "B", 3): (
        "b7dbbffdd212afc2f119b940eb6e9e700cd805ec4468600294dfdb83e514600b",
        "4393971a623cd6cf3f81d4ed7df858a56b4119d83ddfe84169d67e79d3d049f9",
        "1470dd7ec275374d6dbf68dbb32cf04d00dd6bbcaec06383222182df680cfc85",
        "e673c5fdd46482951d13d2d6aaf3d7c479bf6aaa6d2db128e250318399450193",
        "e4ac3554620cdd93d489dbd6b4e417522768a94e6ecb6903e4bf149600db7446",
        "f53fec691a74a45599c2fd62d0944bcb2d35ff0c6f4ae718db5804b362c4288d",
        "379ac794dec1a63c5fa1aff130bddb10837ae6e91420996d849e6ea108dc8e3e",
        "086acb39d9bde056f830bafe6509b6b04183e275f12ab5652bdc28e492b8411b",
    ),
    ("delta-props", "B", 2): (
        "d0c5cbaae14449df646613ace6c1e2c82454d3bbc5fb68fa2ce75ba6e175d692",
        "84f29594a86d9b819e7d57352632c7f85b888b19cd6dc4a831e4845a641612ab",
        "31202ec4f78359081ffd70e80ec30b623d25b76ce5a2c181b9dfbfd76bca1885",
        "b83b3f956ea949c3ffcd5378e11f9f1169ede054c1006f2d07413e9ea5077941",
    ),
    ("delta-props", "B", 3): (
        "6ca6289d3f2fa9968ebd3941855ae7c261a5d37d2d4d0c5a32193073911309cc",
        "c247329cffeff882706d67000923a9232a7968844a6229a8140f4a3502351c8a",
        "2b606717dbf7289f749ccdde4a0154eba478f7345e7d5b1a7cbd7d0a467e538d",
        "091170069113d81063b6dd53218255eec9b9e62b3a5ff0d18efbe6ac012156d3",
        "5e66ea0fa5bb79f1e4924cfc3100047b8a8a65a1791bc2d893527bb5a5ffc190",
        "5c8967097af0caff248c075cc9970f1c55fb93a1414d1d1bd40f3373be6695c9",
        "f12732a7f356b279d4c0442c7657af019b6836f8783abb59d70561c3b2918173",
        "1735248360788d80bd754d48edb686463d141e8ab97711b4365b02f687c1d261",
    ),
    ("delta2", "B", 2): (
        "3918647933dba340d1947eb782f4311adc34bc89eb14ea853d5f27af2a2fb4ea",
        "c09f4a17e10267b8d5045401cd277fcf24976844976cd9fcb7821be3089f1cf4",
        "1c15cff50b9ea0bf8fb199ac51752aa43b510df2c2f09e17846d458b19ad2c3a",
        "7ca3a3702931b1e5bdca5c94c01deec718c7f62160b5e2efb9624721a2cb4923",
    ),
    # B3 pins of delta2, final-cor, resind and uniqueness, recorded before their
    # box scans were read off the one z_d^P fold
    ("delta2", "B", 3): (
        "3c22dd6ba62ca30787aa5b633ebe0d32c826a63f75721d0d48bdaaaf79c15403",
        "4fbda9da88fb2bea3c4c9420d89a3a5abd102d8f7379904f44ee3437051a8d81",
        "0571a32ce3ed526aa78181b98a7fc3a02cbf876031279087a26b2a51a7e9f89e",
        "2cc2b7ef4b9fb11f6f3d0cee67bd629cc7c54bb4db35b23bf717566996c4e4ed",
        "255c98bdb8e8ce0416c7fa65a214298d7ecc62e5d26895bb7c76a4f4a6df99d8",
        "eaa78b452660e14de1c3e79741e1364c674ca5355de387a49a5dc8c97cdf6efd",
        "6fde1f05d47749783239ce00f515b5170084102e7b2631e0773ef35d4cbd8e52",
        "2746cab4a8bd48633c97b9241bbca5a76c295515ff5636298bc16b9e312f4a3f",
    ),
    ("delta2-props", "B", 2): (
        "11895a4023d9d07a138d98ba89b8fd9c976d6f2ff107ca0d9f06f1b5e89688d8",
        "b038a43a9f4c79482a52cdc99b36876a056ceeeb0cb932ba486f29295c72eac8",
        "b78b7cf4ad42f5be16bd50df8380569fb00917817ec2a5979a0c9e439da530c3",
        "57a677b0a02da945bcbae6cf4b537cedafc926d8f404043fd149754b2b2cbb41",
    ),
    # about 4 s; its chain-endpoint-transfer items follow the search's witness
    # parents, so a change of the search's queue order changes these
    ("delta2-props", "B", 3): (
        "b708454bd3e9d8e57ed1580ae3758e21fca1764b58e4f1367dcd145b20fcdc01",
        "5c1fe7919ea607b07c5bdc293283deaf8654ddc1f1667581cb29343c29d3ba04",
        "ec57b19b61c59db9000d36894f602144f45c4db1102c2a14104de2e500fe3aec",
        "0a94755d46a95bc1a5e62048912408a0c50265f4b68dfc823fdb826b728666ab",
        "11058a01193a52655ccd0fb7d3f6e711ef5f46f5004a4129c84a7aabcf7b43a2",
        "a9616765fd53858c13da9d2090d38ed5dc761b393d2ba30671d231211b8ef233",
        "0c0995b9af6b4300fd86c9b32d0dce613ac3b0102023c21cc5e8f5df289400b5",
        "f2f2c2762291a53e73b6016ae640554c57db5e1aad69fe32b457bf3afbd88733",
    ),
    ("description", "B", 2): (
        "f8fa0763fb6b067ceb74df94d38df2fa30768c97cfadbc0b0c30dd84d32489da",
        "0bff2ee0312ce13feb83cbe57b56794cc498ef20d6651d8687ced00e5de5d62c",
        "5d2a8fd7b3012ecc7fca9ab824aa263187a4dfb12ae4654a6e480bdcfc8a2003",
        "1825528d23a41e3645eb9d780cf1fb219dbe3508cf53d6eb0208cd4012f987e3",
    ),
    # the scan and chain fronts of every coset, on B3 and C3 as well as B2
    ("description", "B", 3): (
        "aed735c580a1ec06fa4a1415016d352b0bcd3fe887cf0b11ec011101efd43014",
        "604b3bb5d81cd494897b828f0f560b3b5f6209bd4d8bbeabdeab69720e96f764",
        "641ff043cfe29474ca859fc9e584491785114db1e9056f9022de344e709c8de1",
        "e122e868b48a226728cd1649702143e41047abefdb1b81fef3c69a978c053484",
        "68fdd22e6c9e5a28e10166766174408cb3dcec72287fec2c8799dc94227333c6",
        "116c9821110c56a56bbbf6703f3aacd04ce73dff07894a78948c172fa3a6c17a",
        "89740bb24f6ee820d28f25c97df9d609f512bc67293e45a884b3aabd01921539",
        "2db024da5061e85e5235cc9c2058c0cd140e82a507138f59cbf6e79edf8fbf3e",
    ),
    # every parabolic of B4 (about 1 s), recorded before the coset tables became
    # bitsets and table walks
    ("description", "B", 4): (
        "3766c0dfff0b342a4ddbd1d866df8b9395db44a4945ab02274eba44be14e206c",
        "50db38832720951fc4097e03174045f5ebe1ba15d869e7d93aa012a60231b256",
        "61eb7204c1e3a740668a88a1a1cfa6fb51ef0b7c2654619a46630996ea402237",
        "508686668359c374a3d61e7c570b05951273cd7be219acd6a0c1ff4e9c91f3f3",
        "059661454c02f6963fe860739a62d46a03a9546d6f57f5957c0b08c2030c1023",
        "413d40544dcdb53ca0cce3acddc8bd4e8cad9fbcbb8a94e7c8feda1b400e72c6",
        "222acb5d4b8b9fa10d264e3ad81895357d7f33d5e4835f49777096febd3d8366",
        "5c69b4ca91e88fcc35a91c8dcabdb774589b10ed8dab51d8108f3947d43acf80",
        "a1679c68b6276d3351666ca6b8610656b6fe58f9e23302c385fbd008acc84685",
        "19ce7c10e337152b63d06b54f4398e8e2d5a50f41466ea286d02c4ff3d767549",
        "589b11525d2adf8609b3759f07941b13b5cea7821b72f8fc7f02457013043031",
        "a1b7ba05ce7192558948b47c355a6e6913594914628d33f1145e7b95b27e77d5",
        "966f41d46c0edfdc69fbd65db3696f48071186c7e4ef81b687f33f3cdca4db1e",
        "a45c69acdf9c59f18c0a9737985d5e13337f4497add9c77cfc06445d40288d28",
        "3f39110e6361e2648e448815a291da9d9ec30a3ac04d331b15add15586e59de7",
        "e82823477be5cd2c7c329505ce442cb1ca1074cb5e5dc2663d66a8431fcc0abb",
    ),
    ("description", "C", 3): (
        "34d3e30d7f0cbff0c1fb8933d458d13dd29dc7c5dd853d360c91ad5c2e4c9228",
        "43c1233b734a1fc9e4dbfbd9dba86eb8a8cdc30d117cd47cc2dc720f22813f60",
        "ece263955fb910fdbf8f84f5f714051c0d039ebc27f62a84528ad8462d9fe091",
        "fa034dc7f83f6db896d9e68b16dd7a1df0f6f0fde16f89dd287c643788abd671",
        "e2148f23c45dd9c225129696d5dee314ab440f13d5da1115524e934b092f0bbc",
        "6c13be68746e521ec6d23c8f74e224ffd6deab2f13e891cc6e3b2d244c1d59ce",
        "efd21e0f11113c6d7ac1ab29ae0ac6368c814c92ec784af4fd98c4b32d393b6a",
        "b77e3d78325806285ca5146f93acc2625bb1389aa5bde9ccd36d71e5494c63c9",
    ),
    ("final-cor", "B", 2): (
        "1cc86c8c51f51b5da836ef0708ed6b5728c4e603a8850e5be0697583974b2985",
        "cea3c48238d7c8250648b702bc75129d49e47d697f0e47a13fadc5638b3cbc96",
        "221659f299d930171caf2fabafd8ae061c5f659334d6219544259664a35f7be6",
        "e84b14a149c1ee4cf9129124067fd3b0adae0e4d891d24029c10596257827f40",
    ),
    ("final-cor", "B", 3): (
        "615b0fbb01c7b75536201fd630daef408522f085b65124503aa0b08d5c1c0153",
        "15cf29c3a5685b99059f861428f6d1238355020906604478afb14f6427e8ae6c",
        "fd951162ef39c670703e2dec31e21626fc1086e9989d4607c48cf75d49b10468",
        "3b63fa390b715058dd261f30c565092f0fc2ab6ba542999e0ef9ba42e9aa8124",
        "0a2db85ac176a7bc37facfce734a29c2e506e7458ee60fa36b15b80c16a862b7",
        "edf4fede4da23f0f5c44f5cf7f280a7c63827836a44d7059101bdd49f39a7e60",
        "ba0aed3bc970c8e3741eb17c03ffadc11dfe162cdc2e684fcbf698c2d385985b",
        "97b60654864a416e506c83a474b0dedaac4a8054c87c82912af0ddde84af0fd9",
    ),
    ("g2-examples", "G", 2): (
        "20573a527e56339da58f3d9977a6d77bf6754fa73b7228ccb2580dee423e9e27",
        "45365b3f150a2737d568f3f37178412003929bbb2276f49882d78c644e37915c",
        "3d5313d940a86643510c2f3e035ff2577cfe218b0e6d7e17dce864220e6652c0",
        "1ae5b63fc46c0f43a69ca59ed3237087833a19ac319212f7d80567cda3d70231",
    ),
    ("hecke", "B", 2): (
        "5cd10ae7d89ffd62a7775890b464e82671c43a9c2423575e99eaa554d82500cc",
        "52062e1ddb1780beb20dca637ca70877c5ce0317f223f55f49b440927f66aee2",
        "67f1cf4e44dc1031f2b302dce49fd08dea24d909c56ab130025f99f27647590c",
        "4f006bf91e54a7d2a753daf097f18338d8c67a8dbfbd61112b025d5639ddbb6f",
    ),
    ("inductive", "B", 2): (
        "84dd2f21356a648305071b63c3025ea06c29a993412c6ba50367565b9131c9ab",
        "a24c96041b03785ea0a2c134253413d17dc209d2dbf8899b7034498d3bb40073",
        "e2e6b029bc5bb55c76aa4cb9e0ab85a49d9243f5ef4c9a1575383e715f15209b",
        "a0db6d93fb34adcccca60684296a78b338b60cf5d20f3961213f070bebc3357e",
    ),
    # A4 and D4 in pairs mode (about 0.5 s and 1.2 s), every parabolic;
    # recorded while pair fronts were still closed over lower Bruhat covers
    ("main", "A", 4): (
        "4093233c69cda4c0b1a22dd66474b67ae054007cec26047ed457d389098e4051",
        "4284aa811384022dd32a6e4dcdd2fad9d7986f029a92d35061ecf47b3db56ad3",
        "975adf47355bda9452e625db4bb0da3e5dbb26a152e2bf4f6676ffe73b9ac2f2",
        "c07814ea6d87e0832c3116733c7874eb0c8a12a750489cb3d8a673a19cec9ee0",
        "dbcc3fe74e52228c75f76fa9b66dab83068aeec50a92d11dbb5a178d0d3dcbfb",
        "78d3dc1022d30af8709d27c754796a0a248e06d1a5156aa388f94b3130fc2668",
        "65afdb9db0732579383c1139d29f371cf4c8aaa07e6282ca269b0d1c3cdaacc4",
        "61898c02f197ab3ffb725b78674acaf415284074fa9e5b3233f762711e2e749c",
        "fd8e3a3a7e3277f9668458336d37f124053067479105aac0070651d86bc8e98d",
        "6bf3a326449bce7cd3776f484762cf4888793034da71d4c5bc201ca995db786f",
        "6ce04d6791d9794c5609f63ea0b6f86f066a2e0ef1134e80183d8c0411936519",
        "31a4a36a13fcba5ed1cc05ac036ec875f69f94807e2257eecd5552852e0024d8",
        "9be639808068021a9feb546cbd289a2e11d3277dbbd9eb431feb8a28398bed32",
        "cadbfd775d072b81b92a202a5f472f89eb91fe19940bce391e2dec07aa542351",
        "909b28eb3dab8599ef809ad3bf09dafecd5ef70fae69e1fb74cec5f85c9411ed",
        "37a084bce25140b086f73b17a88ae06c043721b45775968fa0f08acf3d8e11a6",
    ),
    ("main", "B", 2): (
        "ab76d201eea68b1035b7de525187090155cc7d8046854687984a77998293a1ac",
        "0972174b7c6f1b8a802f5363a5b33f44f8158c6f074eda35b3354ddd624f28c0",
        "fc87ad401654e9edf185d4054d57914440a7ef89f6e02ad810f8d03788bb309a",
        "8588ca2069b7a4db0a6f5e8e9b15aed62b7e45fca85abbfec8c134df775a8ec2",
    ),
    # B4 in pairs mode (about 4 s): every pair front of every parabolic
    ("main", "B", 4): (
        "fcca5e96a8a6252b3381eb8b9f947217761ad2c6c1dc634d1bff90d203d500c9",
        "cfea72f655042362050c6465dd000aad611f3de209c5644b4961cf7757ccd9d1",
        "48bd02429de39acc2b5aefe7f848a8bb036290c7b7663eff51e4ae59917f4016",
        "8de6e8ed4b2f1053582ce565848f7f85863c0aa209fcc861f1425f5cf60f17e8",
        "b53dad82710584cc7994671a69db965d1a704c436fd0032c56ca7f772f6a4ecf",
        "82dc79b15fbaf418287791a072c26c64f193ecfc650ee21d653e2c18048db2f2",
        "72075b3cf32fdccdff0557aaf11e1febb961723fea675ab26a8776aa5f81dc59",
        "3241f896fe20e1f241cefe97b620aeade48035cb444376d4e52c2ba535fb5c41",
        "6c95ad55d87515e12fc905c4d9e9974ad6318df624287acf9097cd1db2b52d59",
        "817cbae2410034736a0ff3077614e70726e22cd48ab378b7dca28b2217ee7d22",
        "f6b7e6176f6b65439a41c8e22082fd32224ae36d496c9bad233ef6765436096b",
        "501a6679b9481aedd2fd89cb6ee9bcc060bea7bd6898cc2389c74608fa196258",
        "1fcab9ed7d3e0e63cf8d004956acf980661e83d820a43e8560b4c9ab8a99692a",
        "0e3ac0f71152b4dc0fd3f9561b9ab4c357e10626c4b53a257fa19449f5247356",
        "efa07e78112d368ebd0cae6a45e54579d91db77e1c008d460b28058bd9d3afef",
        "87dd1caf84bfe181fc14be550d60154b86a2d28960b1a8290e5a2cdaa747c2ca",
    ),
    ("main", "D", 4): (
        "fe8efbc6765f8405e4e9f0b8c1502f985c046912f8e9ff9d0a0a970ec8ecd3b1",
        "1b0ad5c918b6f722de8ace4e51fa54f482dfb58d836fc4e30f68f0a994903cac",
        "6413c243af4dfa7248a12946c099ad16aeae4afb2b8e9f00f62c827a6252ce74",
        "c6f97f2bf0b339210d2aaf12be416c9df32d789706e0a529993fb362a70a3140",
        "39d6b6220f9286b0ee21ce82d39515d69d43d40aa94ee5a0f7638f85f303ffd1",
        "0ee1d29804fa6c062bd0d23e12ac9c822f4408ddac46d17f6c90713ebbc6f408",
        "4737915910cc29dc5848a64f7f0099d6396afe1e9c820d46c4a9875502005047",
        "82620fe256a4179b776cc03d206859611cfc724d027104ecd9432b5c502538b3",
        "9ae9329ee95f1e6c6489f324c595bf4d3c0641e39e0c47ed1dcceb74b2d06960",
        "96cf9f93d0a11c959934ec2d6f821579649d6b5daa56f15d7b211304449fa2a7",
        "643aff92abe521668ae0715ce34a821a487c315b97af377e4b3e54a03fd71b55",
        "bee8fa204c90575c5f9d8ac978a1d6a6110e5c6933ba781dbdd5748d49b64fcd",
        "baede76701c838e9df3b64ded8c744213e74ad91a3f86e895e6ec7960d5fdaf7",
        "2cb299f704e1afaefd047ddcfc4b03c276cfe7784f2e4cd5b5f8bc462d3863d6",
        "da0866cd0b011ed5e97a9b56e4ab9955c9f515a07a7f0e696829c1477e2ba2ed",
        "a14dcf395342b20ccfb3714c7bb92fd7217a55da9ca5c2db6f304279a7bd3c9f",
    ),
    ("orthogonality", "B", 2): (
        "cafdff5206143918647379d95f9676ea1d0927dfc1cb4087bbf965d5b3d39cee",
        "e26a2607e1953d8f4f44495862657d1765f7bf77d4babe091fe3337e0a70faa8",
        "c915b8c2ce65b237e5a01ac32fcf0bbdb05b9fc8e08002c24b61f0cbbb739c45",
        "01013574d96401db3ea1a3bedb7dd41e1c6cac9237fa810e787b44b627021e5f",
    ),
    ("orthogonality", "B", 3): (
        "657be19b1254dc3fe86f33e60c934e46833803635f3c41a33524eed7a4a5cdae",
        "20e78ed4eb49daca5831ce5c8cefcf9764d9317f622c5c50e90d1ccbce49bea8",
        "7ab05ffbcc50e40d99f311a323e02ca317ec7783ce4fb0a86e297a82dc6bfd58",
        "8e91e3fcaaddb9db3c218442a5452f486f83789954010a76f3c6f08618f47a48",
        "4e1029a56db8f22e2879088dbf2b39bc5f2914121355034cb07b27f9da7d2c52",
        "eef6af7f4fa55a9767ba3918a72553f1bdb61d264095f1ef5aedd34ec71e4f7c",
        "1f4e87f80b04bb8707a58fc07353e9bd64c39463a71f4c0c4c38ca3a64c96f48",
        "97907b9a764e32df1736b5a8d57fe9cd2a030ad2f71893fc502c7b7f36e8eee4",
    ),
    ("resind", "B", 2): (
        "38a27ab5e46ae8b2cd1a4a1c2adf2e18de9a331928e2e626de02bee796810545",
        "2fe2de342f2dbb66bee9e126ba9208a9918194777c641475c5a16b39490240d0",
        "099f606fd5eb2a3ec58f03156078c420a12eeb50154232546be44adf81eeb2c5",
        "6cec2224df9d22bc414df88dbee50c687636a6ff06273dce247ce234a38005be",
    ),
    ("resind", "B", 3): (
        "8dbddc61061afd9859bf489c7b0650236df5a9e3a3cabf945a863bf8b68ca9cf",
        "b5d2f394038a26fe1a1b525b362bf1a3b0a52eab4b880c410d68eed0b5b46690",
        "65c6a19100b39ee528a0ec313f5ebfe4a708c9fb1dc23cbc3208f6310a4e5032",
        "7767492d6c458a1eea93bf5d83b780f3bff3c8e41e29e9d6c368e8b4bae58e9b",
        "0a1e9d0b77fe2e91a0140ed44ec5692dd2bbaa7fecdeb30fbc6483ca251a67aa",
        "1c0653a73e095b537978efdd2604031152cf6f840e8d58b5df5be72655aa59a1",
        "351ad9651da3e3f7c39e400fed50e2f2d00000cd5431d11c76c37eb1bc85110f",
        "11d65ce624abb7ba40705f24ac61bb643337af39be8947b78945eb7077ca3634",
    ),
    ("simply-laced", "A", 3): (
        "12e674cba6291bccd7f2b40bb8455b370ed7a3cd8df326a3b7690875ea00003b",
        "84f671aa699f35d51843ab6ef2c96c4e7400344367c147f9f35f352d577bac11",
        "281032d017b150e178f82154a7d4f07b0cb43be0613d1afbab78f65348e3c338",
        "c8e358fa4ef27963f74fedf62453e34a1ed5f8c82812bd49165b4d1c6d0aa608",
        "d062b6d068e07a558d09f17263fcaddb714417582ce477912482a8b657870d29",
        "41202daa774c87006e6617a9e0ba66251f89641b48bfe3bd4153a3a504a29891",
        "100cb51ef850c416c3d5ceaab8ac2fc25d4876f8d6b9218a80eb3666b7976189",
        "e465914831f8917ff8ea5ef8b0c4a8c9b8a4c4712e9d2c13c7dcc7770eae47e2",
    ),
    ("uniqueness", "B", 2): (
        "e80d1dcfff1474166a2eb070bc20c043242963c4c3c8b04daa923354261fef50",
        "990cace91e283c625d07494d28f0a05614bcef3140ac64ab6c3db5d27b699a90",
        "76bc91896de00ea4c7d939beaece7aec3ee91ec7a1fcba91c1d00abb398c54d5",
        "bbd4243a3ada917c879243f77175b3ebf9c5894991b299116d64f2fa7259f865",
    ),
    ("uniqueness", "B", 3): (
        "629b7068f768934cbeab6515a981bd4a75e5b9d094fc5900e4800167fc744dad",
        "33f9f99399cd1d3667f481280bb0ed53de12c1f86843e3e4ad47b29d70b689e7",
        "d32eec3fcf0a984d5990e0e6a67f5d7ff6381e932f45223ca83fc67caa542f56",
        "b352f9dae2c666c912eb6ec67f2cd1dee0c94de8d8d201c698de2c9bbe83e029",
        "d7db56832370d5034cfbbce947ecd3ece7821b899f3ef067242672a381821aaf",
        "08a21adc37479be48b75863fe88010a1f32310a3d8b9ab73c813d55771cae2b4",
        "07d8369004c328f14b72bb0d1c4e87e0b9578de09b4b3344fe739f62aa8d85b0",
        "85d301f433ea5a441c3e6c48dcadede5a858fe145dfd35da60a19e90d2c565a0",
    ),
    ("zd", "B", 2): (
        "b8f165cc179f0b75f04ced8da6645b14ab9292fd24d4226ea4f2001346af7d79",
        "6c146c831b7a2a97acb80d202f7df1e53032d26e13ccf164aec680a6bbfb06c6",
        "3ac3c59460422c4724e57355be4997b21fab12c9d9e6aed53f24bc69b8d9f6a3",
        "fc869f2596c8d5ed35da0092e0d4d520fb22c45ccc1d5742fea84c47ff02d57e",
    ),
    ("zd", "B", 3): (
        "f5774faca2dd6f0dfc4f6dc1fb72cfddf046667292434dc01469ecc33692c337",
        "5525b226f4b3c321cc294bd86f25d05b9646bdb34e559877915e244bee6011ab",
        "d05366d0f2b0337749c5e0c971db8410b1fc00f0ba4390a4051f6ac40c5a849d",
        "60e7729e789db8162259485aa71180f92d038490dc5a3b8f3a49e5258c97f471",
        "9af2c9c0e706429840faa48f8968d9963542cfcfaa9f75f5708f9987ce27a43d",
        "0115ba9121a514a007bec58965dc3150913b171243a40edc509ae3e90727d0d1",
        "346e20a099acc6ed25efe082293798d29fa5f19d9a70ec28829c3f7aa731a2ec",
        "0c907deb69ea1a7266398cfec4ff2bfa53d68a73521513684db160321e2ac307",
    ),
}


#: ``main`` runs in pairs mode, which B2 picks in auto mode as well; box mode
#: is pinned by BOX_MODE_DIGESTS below.  Only ``main`` reads the mode.
@pytest.mark.parametrize("name,letter,rank", sorted(GOLDEN_DIGESTS))
def test_verify_json_matches_golden_digests(name, letter, rank):
    assert set(suite_names()) == {key[0] for key in GOLDEN_DIGESTS}
    got = tuple(
        hashlib.sha256(
            json.dumps(
                verify_suite(name, letter, rank, p, mode="pairs").to_json(), sort_keys=True
            ).encode()
        ).hexdigest()
        for p in all_parabolics(rank)
    )
    assert got == GOLDEN_DIGESTS[(name, letter, rank)]


#: the same digests for ``main --mode box`` on B3, which no entry above runs
#: (``main`` picks pairs on B2); recorded before the box scan was shared.
BOX_MODE_DIGESTS = (
    "a8bd5e2017623c4e1d3705644af66e3dbde08e2b04253249c16a7bf508b68666",
    "eed69160aa442f22ac5a0a4d0259fae432c115fd21582dd7d7fad44b5d8989cd",
    "2a28aa3cbdf3122cb7687736aec120ac224e12e8a60f398dd1b02c744edf17a4",
    "41e3cde60d21c32f7ad584ee4f295cc3ab1894bac12d931e5cdef9ca6f00c1f9",
    "6e4fdc1904948cca43c97e82e20380b19eda98c28a85edf1e3160656b213fe12",
    "b630f2247eda916d4326d52c0d9c37182b77a92fad728cf6735b8d1e8134bb45",
    "a46826644718ff97c2e82370b126ca82b03eb531cb7f4aa3f429b53d6f106a5e",
    "4b25c76ded51f6381a5047329e3bc437946f00129814e3d7490c2b717c1ff14e",
)


def test_main_box_mode_matches_golden_digests():
    got = tuple(
        hashlib.sha256(
            json.dumps(
                verify_suite("main", "B", 3, p, mode="box").to_json(), sort_keys=True
            ).encode()
        ).hexdigest()
        for p in all_parabolics(3)
    )
    assert got == BOX_MODE_DIGESTS
