"""Named verification suites binding the modules into pass/fail checks.

Each suite takes the same keyword arguments (long_run, p_max; a suite
reads those it needs) and returns a list of CheckResult rows; the CLI
renders them as a table and the acceptance tests assert on them.  No
suite reads a count cache: every count a row checks is computed.
SUITES names them in order: nodes, fibers, groups, coordchange, quadric,
ledger, hecke, traces; "all" runs every one.

A suite is a list of _row(name, run) calls, each run at once: run()
returns passed or (passed, detail).  A check that raises is one FAIL row
under its own name and the rest of its suite still runs; a suite that
raises outside its checks is one FAIL row named "suite <name>".

A row that states a fact about the points of an instance checks every
one of them (counting.points), not a sample, and its detail says how many.
"""

from __future__ import annotations

import sys
import traceback
from typing import NamedTuple

from . import ledger, modularity, singular, symmetry
from ._lazy import lazy_numpy
from .counting import count, count_naive, points, projective_size
from .families import (
    MonomialMap,
    Stratum,
    apply_map,
    cubics_v,
    new_coordinates_w,
    points_on_lines_a,
    quadric_q,
    quintic_x,
    quintic_y,
    strata_codes,
    unique_points,
    verify_coordinate_change,
    wtilde_from_lambda,
)
from .ffield import make_field, primitive_nth_root

np = lazy_numpy()


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


def _failed(name: str, exc: Exception) -> CheckResult:
    """The FAIL row of a check or suite that raised; the traceback goes to
    stderr."""
    traceback.print_exception(exc, file=sys.stderr)
    return CheckResult(name, False, f"{type(exc).__name__}: {exc}")


def _row(name: str, run) -> CheckResult:
    """Run one check now: run() returns passed or (passed, detail)."""
    try:
        result = run()
    except Exception as exc:
        return _failed(name, exc)
    passed, detail = result if isinstance(result, tuple) else (result, "")
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------


def suite_nodes(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    """Node census of the quintic and the mirror's singular strata."""
    G = symmetry.enumerate_G()
    ones = [1] * 5  # (1:1:1:1:1); index 1 is one

    def quintic(p):
        F = make_field(p)
        X = quintic_x(1, F)
        points = singular.singular_points(X)
        nodes_ok = (singular.hessian_ranks(X, points) == X.nvars - 1).all()
        one_orbit = np.array_equal(points, symmetry.orbit(ones, G, F))
        ok = len(points) == ledger.NODE_COUNT and nodes_ok and one_orbit
        return ok, f"count={len(points)}"

    def census_row(name, p, extra, tail, run):
        """The row f"{name} {expected}{tail}" of run(expected), where expected
        is ledger.line_census(p) + extra; if the census raises, the row
        fails under f"{name}{tail}", without the count."""
        try:
            expected = ledger.line_census(p) + extra
        except Exception as exc:
            return _failed(f"{name}{tail}", exc)
        return _row(f"{name} {expected}{tail}", lambda: run(expected))

    def mirror(p, mu):
        is_root = pow(mu, 5, p) == 1

        def run(expected):
            Y = quintic_y(mu, make_field(p))
            points = singular.singular_points(Y)
            ok = len(points) == expected
            if is_root:
                ok = ok and (strata_codes(points, Y) == Stratum.EXTRA_NODE).sum() == 1
                ok = ok and singular.hessian_ranks(Y, [ones])[0] == Y.nvars - 1
            return ok, f"count={len(points)}, mu^5=1: {is_root}"

        name = f"mirror mu={mu} over F_{p}: singular count"
        node = f" ({'with' if is_root else 'no'} extra node)"
        return census_row(name, p, is_root, node, run)

    def generic_census(expected):
        n = len(singular.singular_points(quintic_y(3, make_field(31))))
        return n == expected, f"count={n}"

    return [
        *[
            _row(
                f"quintic mu=1 over F_{p}: 125 nodes forming one orbit",
                lambda: quintic(p),
            )
            for p in (11, 31, 41)
        ],
        *[mirror(p, mu) for p in (7, 11, 31) for mu in (2, 1)],
        # mu = 2 is a fifth root of unity mod 31, so also witness the
        # generic 10q - 10 census there with mu = 3
        census_row("mirror mu=3 over F_31: generic census", 31, 0, "", generic_census),
    ]


def suite_fibers(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    """Fiber degrees of the coordinate-fifth-power map over F_11 (and the
    rational witness for the on-line degree over F_31)."""
    F = make_field(11)
    phi = MonomialMap(5, 5)
    X = quintic_x(1, F)
    Y = quintic_y(1, F)

    def fibers(pts):
        """The fiber of every distinct image of the points."""
        imgs = unique_points(apply_map(phi, pts, F), F)
        return [singular.fiber_points(phi, y, F) for y in imgs]

    def on(inst, rows):
        """How many of the rows lie on the instance."""
        return int(inst.vanishing_mask(list(rows.T)).sum())

    def generic():
        pts = points(X)
        pts = pts[pts.all(axis=1)]  # every coordinate nonzero
        fr = fibers(pts)
        ok = all(len(rows) == 625 and on(X, rows) == 125 for rows in fr)
        return ok, f"{len(pts)} points, {len(fr)} images"

    def line_points():
        pts = points_on_lines_a(F)
        a_pts = pts[strata_codes(pts, Y) == Stratum.ON_LINE_A]
        fr = fibers(a_pts)
        return all(len(rows) == 25 for rows in fr), f"{len(a_pts)} points, {len(fr)} images"

    def on_line_witness():
        F31 = make_field(31)
        witness = (0, 0, 1, 5, 25)
        rows = singular.fiber_points(phi, witness, F31)
        on_line = strata_codes([witness], quintic_y(1, F31))[0] == Stratum.ON_LINE_A
        ok = on_line and len(rows) == on(quintic_x(1, F31), rows) == 25
        return ok, f"count={len(rows)}"

    def triple_point():
        b_pt = (0, 0, 0, 1, F.vneg(1))
        rows = singular.fiber_points(phi, b_pt, F)
        in_b = strata_codes([b_pt], Y)[0] == Stratum.IN_POINT_SET_B
        ok = in_b and len(rows) == on(X, rows) == 5
        return ok, f"count={len(rows)}"

    def fiber_sum():
        total = int(singular.fiber_size_table(phi, F).sum())
        return total == projective_size(11, 4) == 16105, f"sum={total}"

    return [
        _row("generic fiber on the quintic is 125 (ambient 625)", generic),
        _row("fiber over images of line points is 25", line_points),
        _row(
            "on-line rational witness over F_31: fiber 25 on the quintic", on_line_witness
        ),
        _row("fiber over the triple point (0:0:0:1:-1) is 5", triple_point),
        _row("fiber sum over P^4(F_11) equals 16105", fiber_sum),
    ]


def suite_groups(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    G = symmetry.enumerate_G()
    Gt = symmetry.enumerate_Gtilde()
    H = symmetry.psi_kernel()
    F11 = make_field(11)
    X2 = quintic_x(2, F11)
    F19 = make_field(19)

    def non_member():
        bad = [1, primitive_nth_root(F11, 5).index, 1, 1, 1]
        return not symmetry.invariance_mask([bad], X2)[0]

    def residual_action():
        # psi(g0 x) = (w3 y0 : w3 y1 : w3 y2 : y3 : y4 : y5) with y = psi(x)
        # coordinate by coordinate, so it holds at every point of P^5 exactly
        # when the cubes of g0's scalars are c (w3, w3, w3, 1, 1, 1), c != 0
        g0 = symmetry.quotient_generator()
        [scalars] = symmetry.element_scalars(Gt, F19, [g0])
        cubes = F19.power_table(MonomialMap(3, 6).exponent)[scalars]
        w3 = primitive_nth_root(F19, 3).index
        c = int(cubes[5])
        ok = (
            symmetry.induced_cube_action(g0) == (1, 1, 1, 0, 0, 0)
            and c != 0
            and np.array_equal(cubes, F19.vmul(np.array([w3, w3, w3, 1, 1, 1]), c))
        )
        n = projective_size(19, 5)
        return ok, f"all {n} points of P^5(F_19), cubes {c} (w3, w3, w3, 1, 1, 1)"

    return [
        _row("scaling group order 125", lambda: len(G) == 125),
        _row("cubic group order 81", lambda: len(Gt) == 81),
        _row("cube-map kernel order 27", lambda: len(H) == 27),
        _row(
            "group axioms (exhaustive)",
            lambda: all(symmetry.verify_axioms(group) for group in (G, Gt, H)),
        ),
        _row(
            "all 125 scalings preserve the quintic over F_11",
            lambda: symmetry.group_invariance(G, X2).all(),
        ),
        _row("a non-member scaling breaks invariance", non_member),
        _row(
            "all 81 elements preserve the cubic pair over F_19",
            lambda: symmetry.group_invariance(Gt, cubics_v(1, F19)).all(),
        ),
        _row(
            "residual action scales x0, x1, x2 by a primitive cube root", residual_action
        ),
        _row(
            "kernel = exactly the elements with mu = 0 mod 3",
            lambda: set(H) == {g for g in Gt if g[4] % 3 == 0},
        ),
    ]


def suite_coordchange(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    F13 = make_field(13)

    def cubes_in_quotient(lam):
        pts = points(new_coordinates_w(lam, F13))
        images = F13.power_table(3)[pts]
        ok = wtilde_from_lambda(lam, F13).vanishing_mask(list(images.T)).all()
        return ok, f"{len(pts)} points"

    return [
        *[
            _row(
                f"coordinate-change identities over F_{p}, lam={lam}",
                lambda: verify_coordinate_change(lam, make_field(p)),
            )
            for p in (7, 13)
            for lam in (1, 2)
        ],
        *[
            _row(
                f"cube map sends every W-point over F_13 into the quotient (lam={lam})",
                lambda: cubes_in_quotient(lam),
            )
            for lam in (1, 2)
        ],
    ]


def suite_quadric(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    """Containment and smoothness evidence for the quadric surface, by
    exhaustive enumeration of its points (singular.surface_points).

    At every prime: (1:1:1:1:1) lies on the surface, every surface point
    lies on the quintic X_1, the surface's Jacobian has full rank 2 there
    (singular.full_rank), and the fifth-power images of its points lie on
    the mirror Y_1.  The images avoid the singular lines and triple points
    (families.strata_codes) except at primes where a primitive cube root
    of unity is a rational fifth power: there the two points of the
    surface on each coordinate plane are rational and map onto the
    cube-root points of the lines.  These line witnesses are normalized
    and sorted (families.unique_points); F_31 is such a prime, and the
    suite verifies the structure of its 20 witnesses exactly there.
    """

    def prime_rows(p):
        F = make_field(p)
        surface, X, Y = quadric_q(F), quintic_x(1, F), quintic_y(1, F)
        fifth = F.power_table(5)
        pts = singular.surface_points(surface)
        imgs = fifth[pts]
        codes = strata_codes(imgs, Y)
        on_lines = (codes == Stratum.ON_LINE_A) | (codes == Stratum.IN_POINT_SET_B)
        ws = unique_points(pts[on_lines], F)

        def surface_row():
            ok = (
                surface.vanishing_mask([1] * 5)  # (1:1:1:1:1); index 1 is one
                and X.vanishing_mask(list(pts.T)).all()
                and singular.full_rank(surface, pts).all()
                and Y.vanishing_mask(list(imgs.T)).all()
            )
            return ok, f"{len(pts)} surface points"

        def cube_root_witnesses():
            # each witness has two zero coordinates, and the fifth powers y
            # of the other three are the roots of t^3 - c: e1 = e2 = 0
            ys = [[int(fifth[x]) for x in w if x] for w in ws.tolist()]
            ok = len(ws) == 20 and all(
                len(y) == 3
                and not F.vadd(F.vadd(y[0], y[1]), y[2])
                and not F.vadd(F.vmul(y[0], F.vadd(y[1], y[2])), F.vmul(y[1], y[2]))
                for y in ys
            )
            return ok, f"{len(ws)} witnesses"

        witnesses_possible = (p - 1) % 3 == 0 and primitive_nth_root(F, 3).index in fifth
        return [
            _row(f"surface over F_{p}: on the quintic, smooth, images on mirror", surface_row),
            _row(
                f"over F_{p} the line witnesses are exactly the 20 "
                "cube-root points (2 per coordinate plane)",
                cube_root_witnesses,
            )
            if witnesses_possible
            else _row(
                f"images avoid the singular lines over F_{p}",
                lambda: not len(ws),
            ),
        ]

    return [row for p in (11, 31, 41) for row in prime_rows(p)]


def suite_ledger(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    solve, resolve = ledger.solve_quotient_chi, ledger.resolution_chi
    smooth, xhat = ledger.QUINTIC_SMOOTH, ledger.QUINTIC_SMALL_RESOLUTION

    def equals(value, expected):
        return value == expected, str(value)

    return [
        _row(
            "generic stratification: chi 0 upstairs complement, 0 downstairs",
            lambda: equals(solve(ledger.MIRROR_STRATA_GENERIC), (0, 0)),
        ),
        _row(
            "special stratification: chi 1 and 1",
            lambda: equals(solve(ledger.MIRROR_STRATA_SPECIAL), (1, 1)),
        ),
        _row(
            "mirror resolution: chi 200 with 100 exceptional divisors",
            lambda: equals(resolve(0, ledger.MIRROR_RESOLUTION_STEPS), (200, 100)),
        ),
        _row(
            "60 remaining nodes recorded",
            lambda: ledger.REMAINING_NODES == 6 * ledger.TRIPLE_POINTS,
        ),
        _row(
            "special mirror resolution: chi 202",
            lambda: equals(resolve(1, ledger.SPECIAL_MIRROR_STEPS)[0], 202),
        ),
        _row(
            "quintic small resolution: chi 50",
            lambda: equals(resolve(smooth.chi, ledger.QUINTIC_RESOLUTION_STEPS)[0], xhat.chi),
        ),
        _row(
            "Hodge audits pass where they should",
            lambda: ledger.hodge_consistency(smooth)
            and ledger.hodge_consistency(xhat)
            and ledger.hodge_consistency(ledger.MIRROR_RESOLUTION_SPECIAL),
        ),
        _row(
            "the recorded generic mirror triple (200, 100, 1) is flagged",
            lambda: not ledger.hodge_consistency(ledger.MIRROR_RESOLUTION_GENERIC),
        ),
        _row(
            "defect 24 = resolved h11 minus generic h11",
            lambda: xhat.defect == xhat.h11 - smooth.h11,
        ),
        _row(
            "line count identity 10(q+1) - 20 = 10q - 10",
            lambda: all(
                len(points_on_lines_a(make_field(q))) == ledger.line_census(q)
                for q in (7, 11, 31)
            ),
        ),
    ]


def suite_hecke(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    hecke = modularity.hecke_consistency
    rows = [_row("trace over F_121 equals t(11)^2 - 2 * 11^3", lambda: hecke(11))]
    if long_run:
        rows += [
            _row("trace over F_961 equals t(31)^2 - 2 * 31^3", lambda: hecke(31)),
            _row(
                "Frobenius recurrence for X and Y over F_4, F_8, F_16, F_9, F_27, "
                "F_81, F_49, F_343, F_1331",
                lambda: all(hecke(p, k) for p, k in ((2, 4), (3, 4), (7, 3), (11, 3))),
            ),
        ]
    return rows


def suite_traces(long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    records = [modularity.compare_traces(p) for p in modularity.good_primes(2, p_max)]

    def desk_anchor():
        anchor = next(r for r in records if r.p == 2)
        ok = anchor.count_x == 16 and anchor.count_y == 16 and anchor.ap_x == 1
        return ok, f"counts ({anchor.count_x}, {anchor.count_y})"

    def table_is_naive():
        return all(
            count_naive(inst).count == count(inst, "table").count
            for p in (2, 3, 7, 11, 13)
            for mu in (0, 1, 2)
            for inst in (quintic_x(mu, make_field(p)), quintic_y(mu, make_field(p)))
        )

    return [
        _row(
            f"trace match for every good prime p <= {p_max}",
            lambda: (all(r.match_ok for r in records), f"{len(records)} primes"),
        ),
        _row(
            "Weil bound a^2 <= 4 p^3 at every good prime",
            lambda: all(r.weil_ok for r in records),
        ),
        _row("desk anchor: #X = #Y = 16 over F_2, trace 1", desk_anchor),
        _row("table and naive counts agree (30 instances, p <= 13)", table_is_naive),
    ]


SUITES = {
    "nodes": suite_nodes,
    "fibers": suite_fibers,
    "groups": suite_groups,
    "coordchange": suite_coordchange,
    "quadric": suite_quadric,
    "ledger": suite_ledger,
    "hecke": suite_hecke,
    "traces": suite_traces,
}


def run_suite(name: str, long_run: bool = False, p_max: int = 101) -> list[CheckResult]:
    """The rows of one suite, or of every suite in order for "all".

    A check that raises is its own FAIL row; a suite that raises outside its
    checks contributes one FAIL row naming it and the error.  Either way the
    traceback goes to stderr and the rows after it still run.  ValueError,
    before any suite runs, for a name that is neither "all" nor in SUITES.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}: choose from all, {', '.join(SUITES)}")

    def rows(key):
        try:
            return SUITES[key](long_run=long_run, p_max=p_max)
        except Exception as exc:
            return [_failed(f"suite {key}", exc)]

    return [row for key in (SUITES if name == "all" else [name]) for row in rows(key)]
