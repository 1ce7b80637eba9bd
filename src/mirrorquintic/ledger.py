"""Integer bookkeeping: quotient stratifications, resolution steps, Hodge data.

The quotient map identifies the Euler characteristic upstairs with a
deck-degree-weighted sum over strata downstairs,

  chi(upstairs) = sum over strata of deck_degree * chi(stratum),

which is solved for one unknown stratum; dropping the degrees gives the
quotient's own Euler characteristic.  Resolution bookkeeping adds recorded
per-step changes.  Hodge triples are audited against the threefold
identity chi = 2 (h11 - h21); the shipped dataset intentionally contains
one recorded triple that fails the audit, so the auditor reports rather
than rejects.

It is the one record of the quintic's nodes and small resolution and the
mirror's lines and triple points; modularity.CORRECTION and the verify
censuses read it, so a wrong value fails a check.

The records are immutable NamedTuples.  Stratum and QuotientLedger check
their data when they are built and raise ValueError: a deck degree below
1, or a ledger without exactly one unknown stratum.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NonIntegralSolution


class _StratumFields(NamedTuple):
    name: str
    chi: int | None  # None marks the single unknown to solve for
    deck_degree: int


class Stratum(_StratumFields):
    __slots__ = ()

    def __new__(cls, name: str, chi: int | None, deck_degree: int):
        if deck_degree < 1:
            raise ValueError("deck degree must be a positive integer")
        return super().__new__(cls, name, chi, deck_degree)


class _LedgerFields(NamedTuple):
    total_chi_upstairs: int
    strata: tuple[Stratum, ...]


class QuotientLedger(_LedgerFields):
    __slots__ = ()

    def __new__(cls, total_chi_upstairs: int, strata):
        strata = tuple(strata)
        if sum(s.chi is None for s in strata) != 1:
            raise ValueError("exactly one stratum must be marked unknown")
        return super().__new__(cls, total_chi_upstairs, strata)


class ResolutionStep(NamedTuple):
    description: str
    delta_chi: int | None  # None when the source states no per-step value
    divisors_added: int


class HodgeTriple(NamedTuple):
    chi: int
    h11: int
    h21: int
    defect: int | None = None


def solve_quotient_chi(ledger: QuotientLedger) -> tuple[int, int]:
    """Solve the single unknown stratum and return (chi_unknown, chi_quotient).

    chi_unknown = (total - sum of known deck * chi) / deck(unknown), which
    must divide exactly; chi_quotient drops the deck degrees.
    """
    known = sum(s.deck_degree * s.chi for s in ledger.strata if s.chi is not None)
    unknown = next(s for s in ledger.strata if s.chi is None)
    num = ledger.total_chi_upstairs - known
    if num % unknown.deck_degree != 0:
        raise NonIntegralSolution(
            f"({ledger.total_chi_upstairs} - {known}) is not divisible by "
            f"{unknown.deck_degree}; the strata data are inconsistent"
        )
    chi_unknown = num // unknown.deck_degree
    chi_quotient = chi_unknown + sum(
        s.chi for s in ledger.strata if s.chi is not None
    )
    return chi_unknown, chi_quotient


def resolution_chi(base_chi: int, steps: list[ResolutionStep]) -> tuple[int, int]:
    """Accumulate recorded steps: returns (chi_total, divisors_total)."""
    chi = base_chi + sum(s.delta_chi for s in steps if s.delta_chi is not None)
    divisors = sum(s.divisors_added for s in steps)
    return chi, divisors


def hodge_consistency(t: HodgeTriple) -> bool:
    """Audit chi = 2 (h11 - h21)."""
    return t.chi == 2 * (t.h11 - t.h21)


# ---------------------------------------------------------------------------
# the shipped dataset: every Euler-characteristic and Hodge computation the
# package reproduces, as recorded constants (version 1)
# ---------------------------------------------------------------------------

QUINTIC_SMOOTH = HodgeTriple(chi=-200, h11=1, h21=101)
QUINTIC_SMALL_RESOLUTION = HodgeTriple(chi=50, h11=25, h21=0, defect=24)
MIRROR_RESOLUTION_GENERIC = HodgeTriple(chi=200, h11=100, h21=1)  # fails the audit
MIRROR_RESOLUTION_SPECIAL = HodgeTriple(chi=202, h11=101, h21=0)
CUBIC_INTERSECTION_CHI = -144  # recorded, not recomputed

NODE_COUNT = 125  # nodes of the mu = 1 quintic
LINES = 10  # the mirror's singular lines A, {x_i = x_j = 0, sum x = 0}
TRIPLE_POINTS = 10  # the set B where three of the lines meet
SPECIAL_TOTAL_CHI = QUINTIC_SMOOTH.chi + NODE_COUNT  # the nodal quintic

# the strata of the quotient by G, the same for the generic and nodal quintic
_MIRROR_STRATA = (
    Stratum("complement of the singular lines", None, 125),
    Stratum("singular lines minus triple points", 2 * LINES - 3 * TRIPLE_POINTS, 25),
    Stratum("triple points", TRIPLE_POINTS, 5),
)
MIRROR_STRATA_GENERIC = QuotientLedger(QUINTIC_SMOOTH.chi, _MIRROR_STRATA)
MIRROR_STRATA_SPECIAL = QuotientLedger(SPECIAL_TOTAL_CHI, _MIRROR_STRATA)

# Per-step Euler changes of the generic mirror resolution are not stated
# individually by the source data; the aggregate +200 is recorded as its
# own entry, the blowup steps carry their divisor counts.
MIRROR_RESOLUTION_STEPS = [
    ResolutionStep("blow up the 10 triple points (3 divisors each)", None, 30),
    ResolutionStep("blow up the 10 quadruple-point lines and 30 double-point lines", None, 50),
    ResolutionStep("blow up the remaining singular curves", None, 20),
    ResolutionStep("small resolution of the 60 remaining nodes", None, 0),
    ResolutionStep("aggregate Euler-characteristic change of the resolution", 200, 0),
]
REMAINING_NODES = 60  # 6 per triple point, 2 on each first-step divisor

SPECIAL_MIRROR_STEPS = [
    ResolutionStep("resolution of the line singularities", 200, 100),
    ResolutionStep("small resolution of the extra node", 1, 0),
]

QUINTIC_RESOLUTION_STEPS = [
    ResolutionStep("nodal degeneration and small resolution of 125 nodes", 2 * NODE_COUNT, 0),
]

DATASET_VERSION = 1


def recorded_dataset() -> dict:
    """The recorded constant table, JSON-serializable."""

    def triple(t: HodgeTriple) -> dict:
        return {k: v for k, v in t._asdict().items() if v is not None}

    def steps(ss: list[ResolutionStep]) -> list[dict]:
        return [s._asdict() for s in ss]

    return {
        "version": DATASET_VERSION,
        "quintic_smooth": triple(QUINTIC_SMOOTH),
        "quintic_small_resolution": triple(QUINTIC_SMALL_RESOLUTION),
        "mirror_resolution_generic": triple(MIRROR_RESOLUTION_GENERIC),
        "mirror_resolution_special": triple(MIRROR_RESOLUTION_SPECIAL),
        "cubic_intersection_chi": CUBIC_INTERSECTION_CHI,
        "node_count": NODE_COUNT,
        "special_total_chi": SPECIAL_TOTAL_CHI,
        "remaining_nodes": REMAINING_NODES,
        "mirror_resolution_steps": steps(MIRROR_RESOLUTION_STEPS),
        "special_mirror_steps": steps(SPECIAL_MIRROR_STEPS),
        "quintic_resolution_steps": steps(QUINTIC_RESOLUTION_STEPS),
    }


def line_census(q: int) -> int:
    """#A(F_q): the lines have q + 1 points each, and each triple point lies
    on three of them, so it is counted twice too often."""
    return LINES * (q + 1) - 2 * TRIPLE_POINTS
