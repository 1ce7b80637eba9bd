import pytest

from mirrorquintic.errors import NonIntegralSolution
from mirrorquintic.families import points_on_lines_a
from mirrorquintic.ffield import make_field
from mirrorquintic.ledger import (
    CUBIC_INTERSECTION_CHI,
    MIRROR_RESOLUTION_GENERIC,
    MIRROR_RESOLUTION_SPECIAL,
    MIRROR_RESOLUTION_STEPS,
    MIRROR_STRATA_GENERIC,
    MIRROR_STRATA_SPECIAL,
    QUINTIC_RESOLUTION_STEPS,
    QUINTIC_SMALL_RESOLUTION,
    QUINTIC_SMOOTH,
    REMAINING_NODES,
    SPECIAL_MIRROR_STEPS,
    HodgeTriple,
    QuotientLedger,
    Stratum,
    hodge_consistency,
    line_census,
    recorded_dataset,
    resolution_chi,
    solve_quotient_chi,
)


def test_generic_stratification():
    chi_unknown, chi_quotient = solve_quotient_chi(MIRROR_STRATA_GENERIC)
    assert chi_unknown == 0 and chi_quotient == 0


def test_special_stratification():
    chi_unknown, chi_quotient = solve_quotient_chi(MIRROR_STRATA_SPECIAL)
    assert chi_unknown == 1 and chi_quotient == 1


def test_identity_cover():
    ledger = QuotientLedger(-7, [Stratum("whole", None, 1)])
    assert solve_quotient_chi(ledger) == (-7, -7)


def test_non_integral_solution():
    ledger = QuotientLedger(
        -201,
        [
            Stratum("unknown", None, 125),
            Stratum("lines", -10, 25),
            Stratum("points", 10, 5),
        ],
    )
    with pytest.raises(NonIntegralSolution):
        solve_quotient_chi(ledger)


def test_exactly_one_unknown_required():
    with pytest.raises(ValueError):
        QuotientLedger(0, [Stratum("a", 1, 1), Stratum("b", 2, 1)])
    with pytest.raises(ValueError):
        QuotientLedger(0, [Stratum("a", None, 1), Stratum("b", None, 1)])


def test_solve_is_linear():
    base = QuotientLedger(
        -200,
        [
            Stratum("unknown", None, 125),
            Stratum("lines", -10, 25),
            Stratum("points", 10, 5),
        ],
    )
    u1, d1 = solve_quotient_chi(base)
    for c in (2, -3, 7):
        scaled = QuotientLedger(
            -200 * c,
            [
                Stratum("unknown", None, 125),
                Stratum("lines", -10 * c, 25),
                Stratum("points", 10 * c, 5),
            ],
        )
        uc, dc = solve_quotient_chi(scaled)
        assert uc == c * u1 and dc == c * d1


def test_mirror_resolution_totals():
    chi, divisors = resolution_chi(0, MIRROR_RESOLUTION_STEPS)
    assert chi == 200 and divisors == 30 + 50 + 20 == 100


def test_special_mirror_resolution():
    chi, _ = resolution_chi(1, SPECIAL_MIRROR_STEPS)
    assert chi == 202


def test_quintic_resolution():
    chi, divisors = resolution_chi(-200, QUINTIC_RESOLUTION_STEPS)
    assert chi == -200 + 2 * 125 == 50 and divisors == 0


def test_remaining_nodes_recorded():
    assert REMAINING_NODES == 60 == 6 * 10
    step = MIRROR_RESOLUTION_STEPS[3]
    assert "60" in step.description and step.divisors_added == 0


def test_hodge_consistency_table():
    assert hodge_consistency(HodgeTriple(-200, 1, 101))
    assert hodge_consistency(HodgeTriple(50, 25, 0))
    assert not hodge_consistency(HodgeTriple(200, 100, 1))  # the flagged triple
    assert hodge_consistency(HodgeTriple(202, 101, 0))


def test_defect_check():
    # the defect is the resolved h11 minus the smooth quintic's h11
    assert QUINTIC_SMALL_RESOLUTION.defect == 24
    assert QUINTIC_SMALL_RESOLUTION.defect == QUINTIC_SMALL_RESOLUTION.h11 - QUINTIC_SMOOTH.h11
    assert hodge_consistency(QUINTIC_SMALL_RESOLUTION)


def test_shipped_triples():
    assert hodge_consistency(QUINTIC_SMOOTH)
    assert hodge_consistency(MIRROR_RESOLUTION_SPECIAL)
    assert not hodge_consistency(MIRROR_RESOLUTION_GENERIC)


def test_cubic_chi_recorded_constant():
    assert CUBIC_INTERSECTION_CHI == -144  # recorded, not recomputed


def test_line_count_identity():
    # ten lines of q + 1 points, glued along ten triple points: 10 q - 10
    for q in (7, 11, 31, 41):
        assert line_census(q) == 10 * (q + 1) - 2 * 10 == 10 * q - 10
        assert len(points_on_lines_a(make_field(q))) == line_census(q)


def test_dataset_dump_shape():
    data = recorded_dataset()
    assert data["version"] == 1
    assert data["node_count"] == 125
    assert data["quintic_smooth"] == {"chi": -200, "h11": 1, "h21": 101}
    assert data["mirror_resolution_generic"] == {"chi": 200, "h11": 100, "h21": 1}
    total_div = sum(s["divisors_added"] for s in data["mirror_resolution_steps"])
    assert total_div == 100
    import json

    json.dumps(data)  # JSON-serializable
