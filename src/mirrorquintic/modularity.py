"""Frobenius traces from point counts, and their consistency checks.

For good field sizes q (no factor 5) the middle-cohomology trace of the
resolved quintic and of the resolved mirror come from the counts by

  QuinticX:  q^3 + 25 q^2 - 100 q + 1 - #X   (q = 1 mod 5)
             q^3 +      q^2          + 1 - #X   (q = 4 mod 5)
             q^3 +      q^2 + 2 q    + 1 - #X   (q = 2, 3 mod 5, prime q only)
  QuinticY:  q^3 + q^2         + 1 - #Y        (q = 1, 4 mod 5)
             q^3 + q^2 + 2 q   + 1 - #Y        (q = 2, 3 mod 5)

For prime q every branch applies.  Over proper extensions only q = 1, 4
mod 5 is accepted: there the 125 nodes and the 25 divisor classes are
rational and the same shape holds, which the Hecke check validates; the
q = 2, 3 branch over extensions is refused rather than guessed.

Both traces are exact integers and everything here is internal
consistency: trace(X) = trace(Y), the Weil bound a^2 <= 4 q^3, and the
two-dimensionality relation t(p^2) = t(p)^2 - 2 p^3.  No external modular
form data is consulted.
"""

from __future__ import annotations

from dataclasses import dataclass

from .counting import CountTask, count_cached
from .errors import BadReduction, UnsupportedBranch
from .families import quintic_x, quintic_y
from .ffield import is_prime, make_field


@dataclass
class TraceRecord:
    p: int
    residue: int
    count_x: int
    count_y: int
    a_p_x: int
    a_p_y: int
    weil_ok: bool
    match_ok: bool


def _check_q(q: int, residue: int):
    if q % 5 == 0:
        raise BadReduction(f"q = {q} is a power of 5 (bad reduction)")
    if residue != q % 5 or residue not in (1, 2, 3, 4):
        raise ValueError(f"residue {residue} does not match q = {q} mod 5")


def trace_x(q: int, residue: int, count: int) -> int:
    """Middle-cohomology trace for the 125-nodal quintic from #X(F_q)."""
    _check_q(q, residue)
    if residue == 1:
        return q**3 + 25 * q**2 - 100 * q + 1 - count
    if residue == 4:
        return q**3 + q**2 + 1 - count
    if not is_prime(q):
        raise UnsupportedBranch(
            f"q = {q} = 2, 3 mod 5 is only supported for prime q"
        )
    return q**3 + q**2 + 2 * q + 1 - count


def trace_y(q: int, residue: int, count: int) -> int:
    """Middle-cohomology trace for the resolved mirror from #Y(F_q)."""
    _check_q(q, residue)
    if residue in (1, 4):
        return q**3 + q**2 + 1 - count
    if not is_prime(q):
        raise UnsupportedBranch(
            f"q = {q} = 2, 3 mod 5 is only supported for prime q"
        )
    return q**3 + q**2 + 2 * q + 1 - count


def weil_ok(a: int, q: int) -> bool:
    """The weight-3 bound |a| <= 2 q^(3/2), as the exact inequality a^2 <= 4 q^3."""
    return a * a <= 4 * q**3


def compare_traces(
    p: int, cache=None, algo: str = "table", threads: int = 1
) -> TraceRecord:
    """Count both mu = 1 quintics over F_p and compare their traces."""
    if p == 5:
        raise BadReduction("p = 5 is the prime of bad reduction")
    F = make_field(p)
    rx = count_cached(CountTask(quintic_x(1, F), algo, threads), cache)
    ry = count_cached(CountTask(quintic_y(1, F), algo, threads), cache)
    r = p % 5
    ax = trace_x(p, r, rx.count)
    ay = trace_y(p, r, ry.count)
    return TraceRecord(
        p,
        r,
        rx.count,
        ry.count,
        ax,
        ay,
        weil_ok(ax, p) and weil_ok(ay, p),
        ax == ay,
    )


def hecke_consistency(p: int, cache=None, threads: int = 1) -> bool:
    """Two-dimensionality check: t(p^2) = t(p)^2 - 2 p^3.

    Requires p = 1 or 4 mod 5 so that q = p^2 = 1 mod 5 and the extension
    branch of trace_x applies with all divisor classes and nodes rational.
    """
    if p == 5:
        raise BadReduction("p = 5 is the prime of bad reduction")
    if p % 5 not in (1, 4):
        raise UnsupportedBranch(
            f"p = {p} = {p % 5} mod 5: the F_(p^2) node correction is unknown"
        )
    F_p = make_field(p)
    F_q = make_field(p, 2)
    rp = count_cached(CountTask(quintic_x(1, F_p), "table", threads), cache)
    rq = count_cached(CountTask(quintic_x(1, F_q), "table", threads), cache)
    tp = trace_x(p, p % 5, rp.count)
    tq = trace_x(p * p, 1, rq.count)
    return tq == tp * tp - 2 * p**3
