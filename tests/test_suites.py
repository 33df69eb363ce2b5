"""The named verification suites on small systems, plus their error paths."""

import pytest

from qdeg.distance import suite_names, verify_suite
from qdeg.distance.suites import _suite_main
from qdeg.errors import ConfigurationError
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, WeylGroup

from conftest import all_parabolics

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


def test_main_pairs_counts_an_empty_front_as_a_failure():
    """With pad -1 some pairs are unreachable inside the box and have empty fronts."""
    group = WeylGroup(build_root_system("G", 2))
    (check,) = _suite_main(group, Parabolic(2, frozenset()), -1, "pairs")
    assert not check.passed
    assert check.counterexample.endswith("empty front")


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
