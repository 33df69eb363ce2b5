"""What ``import qdeg`` loads, the names it serves from ``qdeg.distance`` on access, and
what its source may not hold."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qdeg
import qdeg.distance

SRC = Path(__file__).resolve().parent.parent / "src"

#: modules a bare ``import qdeg`` must not load
COLD = ("qdeg.distance", "qdeg.cli", "multiprocessing", "fractions", "decimal")

DISTANCE_NAMES = ("DegreeFront", "delta_uv", "delta_w", "exceptional_roots", "verify_suite")


def loaded_after(*statements):
    """The modules of COLD that a fresh interpreter holds after running the statements."""
    code = "\n".join((*statements, "import sys", f"print(*[m for m in {COLD!r} if m in sys.modules])"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_import_qdeg_loads_the_engine_alone():
    assert loaded_after("import qdeg", "qdeg.WeylGroup(qdeg.build_root_system('E', 6))") == []


def test_the_cli_loads_multiprocessing_only_under_jobs():
    assert loaded_after("import qdeg.cli") == ["qdeg.distance", "qdeg.cli"]


def test_a_distance_name_is_loaded_on_first_access():
    assert loaded_after("import qdeg", "qdeg.verify_suite") == ["qdeg.distance"]


@pytest.mark.parametrize("name", DISTANCE_NAMES)
def test_served_names_are_the_distance_objects(name):
    assert getattr(qdeg, name) is getattr(qdeg.distance, name)


def test_served_names_follow_a_rebinding_in_distance(monkeypatch):
    """Nothing is copied into qdeg: a name rebound in qdeg.distance is the one qdeg serves."""
    marker = object()
    monkeypatch.setattr(qdeg.distance, "verify_suite", marker)
    assert qdeg.verify_suite is marker


def test_the_package_lists_and_exports_every_name():
    assert qdeg.distance.front_coverage is qdeg.distance.suites.front_coverage
    assert set(qdeg.__all__) <= set(dir(qdeg))
    namespace = {}
    exec("from qdeg import *", namespace)
    for name in qdeg.__all__:
        assert namespace[name] is getattr(qdeg, name), name


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        qdeg.no_such_name
    assert not hasattr(qdeg, "core")


def test_no_module_rests_on_an_assert():
    """``python -O`` strips assert statements, so no check of the package may be one."""
    paths = sorted((SRC / "qdeg").rglob("*.py"))
    assert len(paths) > 10
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
