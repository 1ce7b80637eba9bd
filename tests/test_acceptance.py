"""Acceptance suite: one test per criterion, exact integer equalities only.

Each test prints a [PASS]/[FAIL] line (visible with pytest -s; the CLI
command `mql verify --suite all` renders the same checks as a table).
Criterion 11 checks the extension-field trace relation over F_121 and
F_961.
"""

import itertools

import numpy as np
import pytest

from mirrorquintic import modularity, singular, symmetry
from mirrorquintic.counting import (
    count_naive,
    count_table,
    points,
    projective_size,
)
from mirrorquintic.families import (
    MonomialMap,
    apply_map,
    points_on_lines_a,
    quintic_x,
    quintic_y,
    unique_points,
)
from mirrorquintic.ffield import make_field
from mirrorquintic.verify import run_suite


def report(criterion: str, passed: bool, detail: str = ""):
    tag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert passed, f"{criterion}{suffix}"


@pytest.fixture(scope="module")
def trace_records():
    return {
        p: modularity.compare_traces(p, algo="table")
        for p in modularity.good_primes(2, 101)
    }


def test_criterion_01_same_newform(trace_records):
    bad = [p for p, r in trace_records.items() if not r.match_ok]
    report(
        "criterion 1: trace(X) = trace(Y) for every good prime p <= 101",
        not bad,
        f"{len(trace_records)} primes" + (f", mismatches at {bad}" if bad else ""),
    )


def test_criterion_02_weil_bound(trace_records):
    bad = [p for p, r in trace_records.items() if not r.weil_ok]
    report(
        "criterion 2: a_p^2 <= 4 p^3 at every good prime p <= 101",
        not bad,
        f"violations at {bad}" if bad else "",
    )


def test_criterion_03_desk_anchor(trace_records):
    # independent hand oracle: over F_2 both equations reduce to
    # sum + product = 0; count the 31 nonzero vectors directly
    hand = 0
    for vec in itertools.product((0, 1), repeat=5):
        if any(vec):
            prod = vec[0] * vec[1] * vec[2] * vec[3] * vec[4]
            if (sum(vec) + prod) % 2 == 0:
                hand += 1
    rec = trace_records[2]
    report(
        "criterion 3: #X(F_2) = #Y(F_2) = 16 by hand, trace 1",
        hand == 16 and rec.count_x == 16 and rec.count_y == 16 and rec.ap_x == 1,
        f"hand={hand}, counts=({rec.count_x}, {rec.count_y}), a_2={rec.ap_x}",
    )


def test_criterion_04_node_census():
    G = symmetry.enumerate_G()
    ok = True
    details = []
    for p in (11, 31, 41):
        F = make_field(p)
        inst = quintic_x(1, F)
        points = singular.singular_points(inst)
        all_nodes = (singular.hessian_ranks(inst, points) == 4).all()
        orb = symmetry.orbit((1,) * 5, G, F)
        ok = ok and len(points) == 125 and all_nodes and np.array_equal(points, orb)
        details.append(f"F_{p}: {len(points)}")
    report(
        "criterion 4: 125 nodes of the quintic, one orbit, over F_11/F_31/F_41",
        ok,
        "; ".join(details),
    )


def test_criterion_05_mirror_singular_locus():
    ok = True
    details = []
    for p in (7, 11, 31):
        F = make_field(p)
        mu = F.element(2)
        is_root = mu**5 == F.one  # true at p = 31 where 2^5 = 32 = 1
        expected = 10 * p - 9 if is_root else 10 * p - 10
        n = len(singular.singular_points(quintic_y(2, F)))
        ok = ok and n == expected
        details.append(f"F_{p} mu=2: {n}/{expected}")
        if p == 31:
            # mu = 2 is a fifth root of unity mod 31; also witness the
            # generic census there with mu = 3 (3^5 = 26 != 1)
            n3 = len(singular.singular_points(quintic_y(3, F)))
            ok = ok and n3 == 10 * p - 10
            details.append(f"F_31 mu=3: {n3}/300")
    for p in (7, 11, 31):
        F = make_field(p)
        inst = quintic_y(1, F)
        points = singular.singular_points(inst)
        ok = ok and len(points) == 10 * p - 9
        ones = [1] * 5
        ok = ok and ones in points.tolist()
        ok = ok and singular.hessian_ranks(inst, [ones])[0] == 4
        details.append(f"F_{p} mu=1: {len(points)}/{10 * p - 9}")
    report(
        "criterion 5: mirror singular counts 10q-10 (generic) and 10q-9 "
        "(extra node, a node at (1:1:1:1:1))",
        ok,
        "; ".join(details),
    )


def test_criterion_06_fiber_degrees():
    F = make_field(11)
    phi = MonomialMap(5, 5)
    X = quintic_x(1, F)
    pts = points(X)
    ys = unique_points(apply_map(phi, pts[pts.all(axis=1)], F), F)  # no zero coordinate

    def on_x(rows):
        return int(X.vanishing_mask(list(rows.T)).sum())

    generic_ok = len(ys) == 11 and all(
        on_x(singular.fiber_points(phi, y, F)) == 125 for y in ys
    )
    a_pts = [pt for pt in points_on_lines_a(F).tolist() if pt.count(0) == 2]
    line_ok = all(
        len(singular.fiber_points(phi, y, F)) == 25
        for y in unique_points(apply_map(phi, a_pts, F), F)
    )
    b_pt = (0, 0, 0, 1, F.element(-1).index)
    rows_b = singular.fiber_points(phi, b_pt, F)
    b_ok = len(rows_b) == 5 and on_x(rows_b) == 5
    total = int(singular.fiber_size_table(phi, F).sum())
    sum_ok = total == 16105 == projective_size(11, 4)
    report(
        "criterion 6: fiber degrees 125 / 25 / 5 and fiber sum 16105 over F_11",
        generic_ok and line_ok and b_ok and sum_ok,
        f"sum={total}",
    )


def test_criterion_07_oracle_equivalence():
    ok = True
    pairs = 0
    for p in (2, 3, 7, 11, 13):
        F = make_field(p)
        for mu in (0, 1, 2):
            ok = ok and (
                count_table(quintic_x(mu, F)).count
                == count_naive(quintic_x(mu, F)).count
            )
            ok = ok and (
                count_table(quintic_y(mu, F)).count
                == count_naive(quintic_y(mu, F)).count
            )
            pairs += 2
    report(
        "criterion 7: table and naive counts agree on 30 instance pairs",
        ok and pairs == 30,
        f"{pairs} pairs",
    )


def test_criterion_08_group_suite():
    results = run_suite("groups")
    failed = [r.name for r in results if not r.passed]
    report(
        "criterion 8: |G| = 125, 81-element group, 27-element kernel, "
        "invariance and residual action",
        not failed,
        f"{len(results)} checks" + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_09_coordinate_change():
    results = run_suite("coordchange")
    failed = [r.name for r in results if not r.passed]
    report(
        "criterion 9: coordinate-change identities over F_7/F_13 and 100 "
        "mapped points over F_19",
        not failed,
        f"{len(results)} checks" + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_10_ledger_suite():
    results = run_suite("ledger")
    failed = [r.name for r in results if not r.passed]
    report(
        "criterion 10: Euler characteristics 0/1/50/200/202, 100 divisors, "
        "60 nodes, defect 24, Hodge audits with the flagged triple",
        not failed,
        f"{len(results)} checks" + (f", failed: {failed}" if failed else ""),
    )


def test_criterion_11_hecke_consistency():
    ok = modularity.hecke_consistency(11)
    ok = ok and modularity.hecke_consistency(31)
    report(
        "criterion 11: trace over F_(p^2) equals t_p^2 - 2 p^3",
        ok,
        "p=11 and p=31",
    )
