"""Acceptance criteria, one test per criterion, exact integer equality throughout.

Each test prints a single CRITERION line on success so a `pytest -s` run reads
as a checklist.  Shared WeylGroup caches make the whole module run in minutes.
"""

from qdeg.cascade import (
    boundary_roots,
    cascade,
    d_gpbeta,
    d_x,
    delta_circ,
    w_o_of,
)
from qdeg.degreelattice import Degree, greedy_decomposition
from qdeg.distance import delta_w, exceptional_roots, verify_suite
from qdeg.rootsystem import build_root_system
from qdeg.weylgroup import Parabolic, weyl_group

from conftest import all_parabolics, reduction_identity_holds


def _report(criterion, text):
    print(f"CRITERION {criterion}: PASS — {text}")


# -- criterion 1: G2 golden numbers -------------------------------------------


def test_criterion_1_g2_golden_numbers():
    group = weyl_group("G", 2)
    system = group.system
    b = Parabolic.from_indices(2, set())
    p2 = Parabolic.from_indices(2, {0})  # P_{alpha_2}

    assert d_x(system, b).coeffs == (2, 2)

    s_ts = group.reflection(system.highest_short_root)
    assert delta_w(group, p2, s_ts).degrees == (Degree(p2, (2,)),)
    assert system.coroot(system.highest_short_root)[1] == 3  # (omega_2, theta_s^vee)

    e = Degree(b, (2, 1))
    assert greedy_decomposition(system, b, e) == ((3, 1), (1, 0))
    report = verify_suite("g2-examples", "G", 2)
    assert report.passed, [c for c in report.checks if not c.passed]

    theta_s_cov = Degree(b, system.coroot(system.highest_short_root))
    assert theta_s_cov not in delta_w(group, b, s_ts)
    _report(1, "d_GB=(2,2); delta_P2(s_ts)=2<3; greedy(2,1)=(31,10); ts^vee excluded")


# -- criterion 2: Table 1 regeneration ------------------------------------------

E6_TABLE = ["111211", "112211", "111221", "112221"]
E7_TABLE = [
    "1122111", "1122211", "1122221", "1123211", "1123221",
    "1223211", "1123321", "1223221", "1223321", "1224321",
]
E8_TABLE = [
    "11122221", "11222221", "11232221", "12232221", "11233221", "12233221",
    "11233321", "12243221", "12233321", "12343221", "12243321", "22343221",
    "12343321", "12244321", "22343321", "12344321", "12354321", "22344321",
    "13354321", "22354321", "23354321", "22454321", "23454321", "23464321",
    "23465321", "23465421",
]
F4_TABLE = ["1222", "1242"]


def _b_family(rank):
    out = []
    for j in range(4, rank + 1):
        out.append(tuple(1 if i < j - 1 else 2 for i in range(rank)))
    return out


def _d_family(rank):
    out = []
    for j in range(4, rank):
        root = [0] * rank
        for i in range(rank):
            if i < j - 1:
                root[i] = 1
            elif i < rank - 2:
                root[i] = 2
        root[rank - 2] = 1
        root[rank - 1] = 1
        out.append(tuple(root))
    return out


def _digits(strings, rank):
    return sorted(tuple(int(c) for c in s) for s in strings)


TABLE_1 = {}
for _r in range(1, 9):
    TABLE_1[("A", _r)] = ([], {0, _r - 1})
for _r in range(2, 9):
    TABLE_1[("B", _r)] = (_b_family(_r), {1})
    TABLE_1[("C", _r)] = ([], {0})
for _r in range(3, 9):
    TABLE_1[("D", _r)] = (_d_family(_r), {1})
TABLE_1[("D", 3)] = ([], None)  # D3 = A3 relabeled; no row of its own
TABLE_1[("E", 6)] = (_digits(E6_TABLE, 6), {1})
TABLE_1[("E", 7)] = (_digits(E7_TABLE, 7), {0})
TABLE_1[("E", 8)] = (_digits(E8_TABLE, 8), {7})
TABLE_1[("F", 4)] = (_digits(F4_TABLE, 4), {0})
TABLE_1[("G", 2)] = ([], {1})


def test_criterion_2_table_1_regeneration():
    total = 0
    for (letter, rank), (expected_roots, expected_outside) in sorted(TABLE_1.items()):
        group = weyl_group(letter, rank)
        system = group.system
        reports = exceptional_roots(system, group)
        got = sorted(r.root for r in reports)
        assert got == sorted(expected_roots), (letter, rank, got)
        if expected_outside is not None:
            outside = set(range(rank)) - delta_circ(system)
            assert outside == expected_outside, (letter, rank, outside)
        # structural remarks: all exceptional roots are long; unique maximal one
        if reports:
            long_sq = max(system.inner(a, a) for a in system.positive_roots)
            assert all(system.inner(r.root, r.root) == long_sq for r in reports)
            maxima = [
                r.root
                for r in reports
                if not any(
                    s.root != r.root and all(x <= y for x, y in zip(r.root, s.root))
                    for s in reports
                )
            ]
            assert len(maxima) == 1
        total += len(reports)
    _report(2, f"Table 1 regenerated exactly over {len(TABLE_1)} rows ({total} roots)")


# -- criterion 3: the technical lemmas -------------------------------------------


def test_criterion_3_technical_lemmas():
    from qdeg.distance import verify_lemma_technical, verify_lemma_technical2

    count = 0
    for letter, rank in sorted(TABLE_1):
        group = weyl_group(letter, rank)
        system = group.system
        for report in exceptional_roots(system, group):
            t1 = verify_lemma_technical(system, report.root)  # raises unless A-type etc.
            assert t1["ineq1_holds"] and t1["ineq1_strict"]
            t2 = verify_lemma_technical2(system, report.root)
            assert t2["ineq3_holds"] and t2["ineq3_strict"]
            count += 1
    _report(3, f"both lemmas hold strictly for all {count} exceptional roots")


# -- criterion 4: the uniqueness theorem ------------------------------------------

UNIQUENESS_SYSTEMS = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("C", 3), ("D", 4), ("G", 2), ("F", 4),
]


def test_criterion_4_uniqueness():
    checked = 0
    for letter, rank in UNIQUENESS_SYSTEMS:
        for parabolic in all_parabolics(rank):
            report = verify_suite("uniqueness", letter, rank, parabolic)
            assert report.passed, (letter, rank, parabolic, report.checks)
            checked += 1
    _report(4, f"delta_P(w_o) = {{d_X}} and z_d = w_X first at d_X ({checked} parabolics)")


# -- criterion 5: the main theorem -------------------------------------------------


def test_criterion_5_main_theorem():
    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        for parabolic in all_parabolics(rank):
            report = verify_suite("main", letter, rank, parabolic, mode="pairs")
            assert report.passed, (letter, rank, parabolic)
    for letter, rank in [("A", 4), ("D", 4), ("F", 4)]:
        for parabolic in all_parabolics(rank):
            report = verify_suite("main", letter, rank, parabolic, mode="box")
            assert report.passed, (letter, rank, parabolic)
    _report(5, "all minimal degrees bounded by d_X (pairs: rank<=3+G2; box: A4,D4,F4)")


# -- criterion 6: oracle equivalence -------------------------------------------------


def test_criterion_6_oracle_equivalence():
    checked = 0
    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        for parabolic in all_parabolics(rank):
            report = verify_suite("description", letter, rank, parabolic)
            assert report.passed, (letter, rank, parabolic)
            checked += 1
    _report(6, f"up-set scan front == chain front for every u ({checked} parabolics)")


# -- criterion 7: property suites ------------------------------------------------------


def test_criterion_7_property_suites():
    for letter, rank in [("A", 2), ("B", 2), ("G", 2)]:
        for parabolic in all_parabolics(rank):
            assert verify_suite("hecke", letter, rank, parabolic).passed, (letter, rank)
    rank3 = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]
    for name in ("zd", "delta-props", "delta2-props", "orthogonality", "compatibility"):
        for letter, rank in rank3:
            for parabolic in all_parabolics(rank):
                report = verify_suite(name, letter, rank, parabolic)
                assert report.passed, (
                    name,
                    letter,
                    rank,
                    parabolic,
                    [c for c in report.checks if not c.passed],
                )
    _report(7, "hecke, zd, delta-props, delta2-props, orthogonality, compatibility all pass")


# -- criterion 8: cascade identities ------------------------------------------------------


def _systems(max_rank):
    out = [("A", r) for r in range(1, max_rank + 1)]
    out += [("B", r) for r in range(2, max_rank + 1)]
    out += [("C", r) for r in range(2, max_rank + 1)]
    out += [("D", r) for r in range(3, max_rank + 1)]
    out += [("E", r) for r in (6, 7, 8) if r <= max_rank]
    if max_rank >= 4:
        out.append(("F", 4))
    out.append(("G", 2))
    return out


def test_criterion_8_cascade_identities():
    for letter, rank in _systems(6):
        group = weyl_group(letter, rank)
        for phi in group.system.positive_roots:
            w_o_of(group.system, group, phi)  # raises unless it matches w_o(phi)

    for letter, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("B", 3), ("C", 3), ("G", 2)]:
        group = weyl_group(letter, rank)
        system = group.system
        for b in range(rank):
            parabolic = Parabolic.from_indices(rank, set(range(rank)) - {b})
            front = delta_w(group, parabolic, group.w_o)
            assert front.degrees == (Degree(parabolic, (d_gpbeta(system, b),)),)

    for rank in range(1, 9):
        system = build_root_system("A", rank)
        for b in boundary_roots(system, frozenset(range(rank))):
            assert reduction_identity_holds(system, b)

    for letter, rank in _systems(8):
        system = build_root_system(letter, rank)
        for phi in system.positive_roots:
            support = system.support(phi)
            for b in support:
                local = sum(
                    system.coroot(a)[b]
                    for a in cascade(system, support).roots
                    if all(x <= y for x, y in zip(system.simple_roots[b], a))
                )
                assert local <= d_gpbeta(system, b), (letter, rank, phi, b)
    _report(8, "w_o products (rank<=6), d_GPbeta oracle, type-A reduction, inequalities (rank<=8)")
