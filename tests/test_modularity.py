import pytest

from mirrorquintic.counting import CountTask, count_cached, count_naive
from mirrorquintic.errors import BadReduction, UnsupportedBranch
from mirrorquintic.families import quintic_x, quintic_y
from mirrorquintic.ffield import make_field
from mirrorquintic.modularity import (
    compare_traces,
    hecke_consistency,
    trace_x,
    trace_y,
    weil_ok,
)


def test_trace_x_branches():
    assert trace_x(2, 2, 16) == 8 + 4 + 4 + 1 - 16 == 1
    c = 100
    assert trace_x(11, 1, c) == 1331 + 25 * 121 - 1100 + 1 - c == 3257 - c
    assert trace_x(19, 4, c) == 19**3 + 19**2 + 1 - c
    assert trace_x(4, 4, 0) == 64 + 16 + 1  # q = 2^2 is allowed on the 4-branch


def test_trace_y_branches():
    assert trace_y(2, 2, 16) == 17 - 16 == 1
    c = 50
    assert trace_y(11, 1, c) == 1331 + 121 + 1 - c == 1453 - c
    assert trace_y(3, 3, c) == 27 + 9 + 6 + 1 - c


def test_bad_reduction():
    for q in (5, 25):
        with pytest.raises(BadReduction):
            trace_x(q, q % 5, 1)
        with pytest.raises(BadReduction):
            trace_y(q, q % 5, 1)
    with pytest.raises(BadReduction):
        compare_traces(5)


def test_unsupported_branch_on_extensions():
    # q = 8 = 2^3 is 3 mod 5: the node correction over extensions is unknown
    with pytest.raises(UnsupportedBranch):
        trace_x(8, 3, 1)
    with pytest.raises(UnsupportedBranch):
        trace_y(8, 3, 1)


def test_residue_validation():
    with pytest.raises(ValueError):
        trace_x(11, 2, 1)


def test_compare_traces_p2():
    rec = compare_traces(2)
    assert rec.count_x == rec.count_y == 16
    assert rec.a_p_x == rec.a_p_y == 1
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
        tx = count_cached(CountTask(quintic_x(1, F), "table"))
        assert trace_x(p, p % 5, nx) == trace_x(p, p % 5, tx.count)
        ny = count_naive(quintic_y(1, F)).count
        ty = count_cached(CountTask(quintic_y(1, F), "table"))
        assert trace_y(p, p % 5, ny) == trace_y(p, p % 5, ty.count)


def test_weil_bound_predicate():
    assert weil_ok(43, 11) and not weil_ok(100, 11)


def test_hecke_consistency_p11():
    assert hecke_consistency(11)


def test_hecke_rejects_wrong_residues():
    with pytest.raises(UnsupportedBranch):
        hecke_consistency(7)
    with pytest.raises(BadReduction):
        hecke_consistency(5)
