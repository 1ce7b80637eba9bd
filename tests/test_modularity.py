import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorquintic import modularity
from mirrorquintic.counting import count, count_naive
from mirrorquintic.errors import BadReduction, UnsupportedDegree
from mirrorquintic.families import FamilyId, quintic_x, quintic_y
from mirrorquintic.ffield import make_field
from mirrorquintic.modularity import (
    compare_traces,
    frobenius_trace,
    hecke_consistency,
    weil_ok,
)

X, Y = FamilyId.QUINTIC_X, FamilyId.QUINTIC_Y


def test_trace_x_branches():
    assert frobenius_trace(X, 2, 16) == 8 + 4 + 4 + 1 - 16 == 1
    c = 100
    assert frobenius_trace(X, 11, c) == 1331 + 25 * 121 - 1100 + 1 - c == 3257 - c
    assert frobenius_trace(X, 19, c) == 19**3 + 19**2 + 1 - c
    assert frobenius_trace(X, 4, 0) == 64 + 16 + 1  # q = 2^2 on the 4-row


def test_trace_y_branches():
    assert frobenius_trace(Y, 2, 16) == 17 - 16 == 1
    c = 50
    assert frobenius_trace(Y, 11, c) == 1331 + 121 + 1 - c == 1453 - c
    assert frobenius_trace(Y, 3, c) == 27 + 9 + 6 + 1 - c


def test_bad_reduction():
    for q in (5, 25):
        for family in (X, Y):
            with pytest.raises(BadReduction):
                frobenius_trace(family, q, 1)
    with pytest.raises(BadReduction):
        compare_traces(5)


def test_trace_of_a_family_without_a_formula_is_refused():
    with pytest.raises(ValueError, match="no trace formula for the CubicsV family"):
        frobenius_trace(FamilyId.CUBICS_V, 11, 100)
    with pytest.raises(ValueError, match="CubicsV"):
        frobenius_trace(FamilyId.CUBICS_V, 5, 100)  # before the residue is read


# patch the ledger's small resolution to h11 = 26 before modularity reads it,
# then print the good primes up to 41 whose traces do not match
_WRONG_H11 = """
from mirrorquintic import ledger
ledger.QUINTIC_SMALL_RESOLUTION = ledger.QUINTIC_SMALL_RESOLUTION._replace(h11=26)
from mirrorquintic import modularity
primes = [2, 3, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
print(*[p for p in primes if not modularity.compare_traces(p).match_ok])
"""


def test_trace_match_fails_on_a_wrong_ledger_h11():
    # the q = 1 mod 5 row of CORRECTION is read from the ledger, so a wrong
    # h11 fails the trace match at exactly p = 1 mod 5
    path = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", _WRONG_H11], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["11", "31", "41"]


def test_extension_traces_match_f8():
    # q = 8 = 2^3 is 3 mod 5: the prime-field 2, 3-row applies over F_8 too
    F = make_field(2, 3)
    tx = frobenius_trace(X, 8, count(quintic_x(1, F)).count)
    ty = frobenius_trace(Y, 8, count(quintic_y(1, F)).count)
    assert tx == ty == -23  # t(2) = 1, t(4) = 1 - 2 * 8, t(8) = t(4) - 8 t(2)


def test_compare_traces_p2():
    rec = compare_traces(2)
    assert rec.count_x == rec.count_y == 16
    assert rec.ap_x == rec.ap_y == 1
    assert rec.match_ok and rec.weil_ok


def test_compare_traces_p7():
    rec = compare_traces(7)
    # both formulas share the 2,3-branch shape, so matching means equal counts
    assert rec.match_ok and rec.count_x == rec.count_y


def test_compare_traces_p11_relation():
    rec = compare_traces(11)
    assert rec.match_ok
    assert rec.count_x - rec.count_y == 24 * 121 - 100 * 11


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13, 17, 19, 23, 29, 31])
def test_match_and_weil_small_primes(p):
    rec = compare_traces(p)
    assert rec.match_ok and rec.weil_ok


@pytest.mark.parametrize("p", [211, 401, 1009])
def test_match_and_weil_large_primes(p):
    rec = compare_traces(p)
    assert rec.match_ok and rec.weil_ok


def test_traces_agree_between_algorithms():
    for p in (2, 3, 7, 11, 13):
        F = make_field(p)
        nx = count_naive(quintic_x(1, F)).count
        tx = count(quintic_x(1, F), "table")
        assert frobenius_trace(X, p, nx) == frobenius_trace(X, p, tx.count)
        ny = count_naive(quintic_y(1, F)).count
        ty = count(quintic_y(1, F), "table")
        assert frobenius_trace(Y, p, ny) == frobenius_trace(Y, p, ty.count)


def test_weil_bound_predicate():
    assert weil_ok(43, 11) and not weil_ok(100, 11)


def test_hecke_consistency_p11():
    assert hecke_consistency(11)


def test_hecke_every_residue():
    # p = 7 is 2 mod 5: F_49 is 4 mod 5 and F_343 is 3 mod 5
    assert hecke_consistency(7)
    assert hecke_consistency(7, 3)
    with pytest.raises(BadReduction):
        hecke_consistency(5)
    with pytest.raises(ValueError):
        hecke_consistency(7, 1)


def test_hecke_refuses_a_degree_above_4_before_any_count(monkeypatch):
    counted = []
    monkeypatch.setattr(modularity, "count", lambda *a, **kw: counted.append(a))
    for p in (2, 11):
        with pytest.raises(UnsupportedDegree, match="extension degree 5"):
            hecke_consistency(p, 5)
    assert counted == []


# the fields of the `verify --suite hecke --long` recurrence row
@pytest.mark.parametrize("p,k", [(2, 4), (3, 4), (7, 3), (11, 3)])
def test_frobenius_recurrence(p, k):
    assert hecke_consistency(p, k)


def test_recurrence_needs_mu_1():
    # at mu = 3 over F_7 (3^5 != 1) the piece is not two-dimensional
    for family, build in ((X, quintic_x), (Y, quintic_y)):
        counts = [count(build(3, make_field(7, k))).count for k in (1, 2)]
        t1, t2 = (frobenius_trace(family, 7**k, n) for k, n in zip((1, 2), counts))
        assert t2 != t1 * t1 - 2 * 7**3
