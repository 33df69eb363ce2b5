"""The one memo helper: rank-checked reads, stores only on success, and no second mechanism."""

import ast
import importlib
from pathlib import Path

import pytest

import qdeg
from qdeg.distance import core, suites
from qdeg.errors import DomainError, InvariantViolationError
from qdeg.rootsystem import build_root_system, memoised
from qdeg.weylgroup import Parabolic, WeylGroup

from test_distance import corrupt_recorded

# qdeg.cascade is the function the package re-exports, so the modules are imported by name
cascade, curveneighborhood, degreelattice, rootsystem = (
    importlib.import_module(f"qdeg.{name}")
    for name in ("cascade", "curveneighborhood", "degreelattice", "rootsystem")
)

#: every memoised function, by the name its entries are stored under
MEMOISED = {
    "z-classes": core._z_classes,
    "delta_w": core._delta_w,
    "class-masks": core._class_masks,
    "scan-front": core._scan_front,
    "coset-table": core._coset_table,
    "adjacency": core.adjacency_graph,
    "coset_order": core.coset_order,
    "coset_duals": core.coset_duals,
    "labels": core._labels,
    "search": core._search,
    "degrees": degreelattice._degree_table,
    "maximal-roots": degreelattice._maximal_roots,
    "d_x": cascade.d_x,
    "z-min": curveneighborhood._z_min,
    "z-max": curveneighborhood._z_max,
    "hecke-box": curveneighborhood._kept_box,
    "self-fronts": suites._self_fronts,
}

MODULES = (rootsystem, degreelattice, cascade, curveneighborhood, core, suites)


def test_the_table_names_every_memoised_function():
    """All wrappers share one code object, so a function memoised anywhere else shows up here."""
    code = memoised("probe")(len).__code__
    found = {f for m in MODULES for f in vars(m).values() if getattr(f, "__code__", None) is code}
    assert found == set(MEMOISED.values())


def test_a_parabolic_of_another_rank_reads_and_stores_nothing():
    """B3 warmed on Delta_P = {1}: each memoised function, asked with a rank-2 parabolic of the
    same Delta_P and the arguments of a stored entry, raises DomainError and stores nothing.
    A build that raises stores nothing either: a doctored table fails coset_duals twice."""
    group = WeylGroup(build_root_system("B", 3))
    system = group.system
    p, other = Parabolic(3, frozenset({0})), Parabolic(2, frozenset({0}))
    for m in group.cosets(p):
        qdeg.delta_w(group, p, m)
    for _ in suites._pairs_table(group, p, 2):
        pass
    suites._self_fronts(group, p, 2)
    curveneighborhood.equalwx_criterion(group, p, qdeg.Degree.zero(p))
    asked = set()
    for owner in (system, group):
        for key in list(owner.memo):
            name, *rest = key
            if name in MEMOISED and name not in asked and rest[0] == p.delta_p:
                asked.add(name)
                before = dict(owner.memo)
                with pytest.raises(DomainError, match="rank 2 in a system of rank 3"):
                    MEMOISED[name](owner, other, *rest[1:])
                assert owner.memo == before, name
    assert asked == set(MEMOISED)

    group = WeylGroup(build_root_system("A", 2))
    borel = Parabolic(2, frozenset())
    _, _, lengths = group.numbered_cosets(borel)
    corrupt_recorded(group, borel, ((3, 0, 1, 2, 5, 4), (2, 4, 0, 5, 1, 3)), lengths)
    for _ in range(2):
        with pytest.raises(InvariantViolationError, match="involution"):
            core.coset_duals(group, borel)
        assert ("coset_duals", borel.delta_p) not in group.memo


#: the functions that may still read or alias a memo dict by hand; each is named in
#: memoised's docstring with the reason
HAND_WRITTEN = {
    "memoised",
    "reflection_word",
    "highest_root_of_support",
    "subsystem",
    "cascade",
    "_enumerated",
    "numbered_cosets",
}


def hand_written_memo_reads(source: str) -> list:
    """(function, line) for each x.memo[...], x.memo.get(...), x.memo.setdefault(...) or
    alias y = x.memo, with its outermost enclosing function (None at module level)."""
    found = []

    def is_memo(node):
        return isinstance(node, ast.Attribute) and node.attr == "memo"

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = function or node.name
        if isinstance(node, ast.Subscript):
            hit = is_memo(node.value)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            hit = node.func.attr in ("get", "setdefault") and is_memo(node.func.value)
        else:
            hit = isinstance(node, ast.Assign) and is_memo(node.value)
        if hit:
            found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_no_memo_is_read_by_hand_outside_the_listed_stores():
    src = Path(qdeg.__file__).resolve().parent
    stray = []
    seen = set()
    for path in sorted(src.rglob("*.py")):
        for function, line in hand_written_memo_reads(path.read_text()):
            seen.add(function)
            if function not in HAND_WRITTEN:
                stray.append(f"{path.relative_to(src)}:{line} in {function}")
    assert stray == []
    assert seen == HAND_WRITTEN
    for name in HAND_WRITTEN - {"memoised"}:
        assert f"``{name}``" in memoised.__doc__ or f".{name}``" in memoised.__doc__, name


def test_the_scan_flags_a_second_mechanism():
    source = '''
def table(group, parabolic):
    key = ("table", parabolic.delta_p)
    if key not in group.memo:
        group.memo[key] = build(group, parabolic)
    return group.memo.get(key)

def aliased(system):
    memo = system.memo
    return memo.setdefault("k", 1)
'''
    assert hand_written_memo_reads(source) == [("table", 5), ("table", 6), ("aliased", 9)]
