"""Frobenius traces from point counts, and their consistency checks.

For a good field size q = p^k (no factor 5) the middle-cohomology trace of
the resolved mu = 1 quintic X and of the resolved mirror Y come from the
counts by one formula,

  t(q) = q^3 + q^2 + 1 + c(family, q mod 5) - #(F_q),

with the correction c from CORRECTION:

  q mod 5    QuinticX           QuinticY
  1          24 q^2 - 100 q     0
  4          0                  0
  2, 3       2 q                2 q

The correction counts the nodes and the divisor classes of the
resolutions that are defined over F_q.  All of them are defined over
F_p(zeta_5), and the q-power Frobenius acts on that field, and so on them,
through zeta_5 -> zeta_5^q, that is through q mod 5 alone.  So one row
serves prime fields and extension fields alike.  X's q = 1 row is read
from the ledger: a = h11 - 1 (the defect) and b = h11 - N (N nodes).

Both traces are exact integers and everything here is consistency
evidence, not proof: trace(X) = trace(Y), the Weil bound a^2 <= 4 q^3, and
the Frobenius recurrence t(p^k) = t(p) t(p^(k-1)) - p^3 t(p^(k-2)),
t(p^0) = 2, which holds when the piece is two-dimensional (mu = 1).  No
external modular form data is consulted.
"""

from __future__ import annotations

import typing

from .counting import count
from .errors import BadReduction
from .families import FamilyId, quintic_x, quintic_y
from .ffield import is_prime, make_field
from .ledger import NODE_COUNT, QUINTIC_SMALL_RESOLUTION as XHAT

# (family, q mod 5) -> (a, b): the correction is a q^2 + b q
CORRECTION = {
    # q = 1 mod 5: nodes and classes rational, #X + N q = #Xhat = 1 + h11 (q + q^2) + q^3 - t
    (FamilyId.QUINTIC_X, 1): (XHAT.defect, XHAT.h11 - NODE_COUNT),
    (FamilyId.QUINTIC_X, 2): (0, 2),
    (FamilyId.QUINTIC_X, 3): (0, 2),
    (FamilyId.QUINTIC_X, 4): (0, 0),
    (FamilyId.QUINTIC_Y, 1): (0, 0),
    (FamilyId.QUINTIC_Y, 2): (0, 2),
    (FamilyId.QUINTIC_Y, 3): (0, 2),
    (FamilyId.QUINTIC_Y, 4): (0, 0),
}


class TraceRecord(typing.NamedTuple):
    """The mu = 1 pair over F_p: the counts, the traces and their checks.

    An immutable tuple; its fields, in order, are the trace CSV columns.
    """

    p: int
    residue: int
    count_x: int
    count_y: int
    ap_x: int
    ap_y: int
    weil_ok: bool
    match_ok: bool


def good_reduction(q: int) -> bool:
    """Whether the pair has good reduction over F_q: q is not a power of 5."""
    return q % 5 != 0


def good_primes(lo: int, hi: int) -> list[int]:
    """The primes p in [lo, hi] at which the pair has good reduction."""
    return [p for p in range(lo, hi + 1) if is_prime(p) and good_reduction(p)]


def _residue(q: int) -> int:
    """q mod 5; BadReduction when 5 divides q."""
    if not good_reduction(q):
        raise BadReduction(f"q = {q} is a power of 5 (bad reduction)")
    return q % 5


def frobenius_trace(family: FamilyId, q: int, count: int) -> int:
    """Middle-cohomology trace of the resolved mu = 1 family from #(F_q);
    ValueError for a family that has no row in CORRECTION."""
    if (family, 1) not in CORRECTION:
        raise ValueError(f"no trace formula for the {family.value} family")
    a, b = CORRECTION[family, _residue(q)]
    return q**3 + q**2 + 1 + a * q * q + b * q - count


def weil_ok(a: int, q: int) -> bool:
    """The weight-3 bound |a| <= 2 q^(3/2), as the exact inequality a^2 <= 4 q^3."""
    return a * a <= 4 * q**3


def _count_pair(p: int, k: int, cache=None, algo: str = "table"):
    """Count X and Y at mu = 1 over F_(p^k): ((#X, #Y), (t_X, t_Y))."""
    _residue(p)
    F = make_field(p, k)
    pair = (quintic_x(1, F), quintic_y(1, F))
    counts = tuple(count(i, algo, cache).count for i in pair)
    traces = tuple(frobenius_trace(i.id, F.q, n) for i, n in zip(pair, counts))
    return counts, traces


def compare_traces(p: int, cache=None, algo: str = "table") -> TraceRecord:
    """Count both mu = 1 quintics over F_p and compare their traces."""
    (cx, cy), (ax, ay) = _count_pair(p, 1, cache, algo)
    return TraceRecord(
        p, p % 5, cx, cy, ax, ay, weil_ok(ax, p) and weil_ok(ay, p), ax == ay
    )


def hecke_consistency(p: int, k: int = 2) -> bool:
    """Frobenius recurrence t_j = t_1 t_(j-1) - p^3 t_(j-2), t_0 = 2, for
    X and Y at mu = 1, with t_j counted over F_(p^j) (no cache), for every
    2 <= j <= k (k <= 4, the largest extension degree make_field builds).

    k = 2 is the two-dimensionality relation t(p^2) = t(p)^2 - 2 p^3.
    """
    if k < 2:
        raise ValueError(f"k = {k}: the recurrence starts at k = 2")
    make_field(p, k)  # UnsupportedDegree for k > 4, before any count
    pairs = [_count_pair(p, j) for j in range(1, k + 1)]
    t = [(2, 2)] + [traces for _, traces in pairs]
    return all(
        t[j][i] == t[1][i] * t[j - 1][i] - p**3 * t[j - 2][i]
        for j in range(2, k + 1)
        for i in (0, 1)
    )
