"""Named verification suites binding the modules into pass/fail checks.

Each suite takes the same keyword arguments (threads, cache, long_run,
p_max; a suite reads those it needs) and returns a list of CheckResult
rows; the CLI renders them as a table and the acceptance tests assert on
them.  SUITES names them in order: nodes, fibers, groups, coordchange,
quadric, ledger, hecke, traces; "all" runs every one.
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass

from . import ledger, modularity, singular, symmetry
from ._lazy import lazy_numpy
from .counting import count, count_naive, projective_size
from .families import (
    MonomialMap,
    Stratum,
    apply_map,
    cubics_v,
    new_coordinates_w,
    normalize_point,
    points_on_lines_a,
    quintic_x,
    quintic_y,
    sample_points,
    strata_membership,
    verify_coordinate_change,
    wtilde_from_lambda,
)
from .ffield import element_roots, is_prime, make_field, primitive_nth_root

np = lazy_numpy()


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed: bool, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


def good_primes(bound: int) -> list[int]:
    return [p for p in range(2, bound + 1) if is_prime(p) and p != 5]


# ---------------------------------------------------------------------------


def suite_nodes(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    """Node census of the quintic and the mirror's singular strata."""
    out = []
    G = symmetry.enumerate_G()
    for p in (11, 31, 41):
        F = make_field(p)
        X = quintic_x(1, F)
        rep = singular.singular_points(X, threads=threads)
        nodes_ok = all(c.is_node for c in singular.classify_nodes(X, rep.points))
        orb = symmetry.orbit((F.one,) * 5, G, F)
        out.append(
            _check(
                f"quintic mu=1 over F_{p}: 125 nodes forming one orbit",
                rep.count == 125 and nodes_ok and set(rep.points) == orb,
                f"count={rep.count}",
            )
        )
    for p in (7, 11, 31):
        F = make_field(p)
        for mu in (2, 1):
            is_root = (F.element(mu) ** 5) == F.one
            expected = 10 * p - 9 if is_root else 10 * p - 10
            Y = quintic_y(mu, F)
            rep = singular.singular_points(Y, threads=threads)
            ok = rep.count == expected
            if is_root:
                extra = [
                    pt
                    for pt in rep.points
                    if strata_membership(pt, Y) is Stratum.EXTRA_NODE
                ]
                ok = ok and len(extra) == 1
                ok = ok and singular.classify_node(Y, extra[0]).is_node
            out.append(
                _check(
                    f"mirror mu={mu} over F_{p}: singular count "
                    f"{expected} ({'with' if is_root else 'no'} extra node)",
                    ok,
                    f"count={rep.count}, mu^5=1: {is_root}",
                )
            )
        if p == 31:
            # mu = 2 is a fifth root of unity mod 31, so also witness the
            # generic 10q - 10 census there with mu = 3.
            rep = singular.singular_points(quintic_y(3, F), threads=threads)
            out.append(
                _check(
                    "mirror mu=3 over F_31: generic census 300",
                    rep.count == 300,
                    f"count={rep.count}",
                )
            )
    return out


def suite_fibers(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    """Fiber degrees of the coordinate-fifth-power map over F_11 (and the
    rational witness for the on-line degree over F_31)."""
    out = []
    F = make_field(11)
    phi = MonomialMap(5, 5)
    X = quintic_x(1, F)
    Y = quintic_y(1, F)

    pts = sample_points(X, 5, seed=11, nonzero_coords=True)
    fr = [
        singular.preimage_count(phi, apply_map(phi, x), F, within=X, strata_instance=Y)
        for x in pts
    ]
    out.append(
        _check(
            "generic fiber on the quintic is 125 (ambient 625)",
            all(r.count_within == 125 and r.count == 625 for r in fr),
            f"sampled {len(fr)} image points",
        )
    )

    a_pts = [pt for pt in points_on_lines_a(F) if sum(1 for x in pt if not x) == 2]
    imgs = [apply_map(phi, pt) for pt in a_pts[:10]]
    fr_a = [singular.preimage_count(phi, y, F, strata_instance=Y) for y in imgs]
    out.append(
        _check(
            "fiber over images of line points is 25",
            all(r.count == 25 for r in fr_a),
            f"{len(fr_a)} line points",
        )
    )

    F31 = make_field(31)
    X31 = quintic_x(1, F31)
    Y31 = quintic_y(1, F31)
    witness = (F31.zero, F31.zero, F31.one, F31.element(5), F31.element(25))
    fr_w = singular.preimage_count(phi, witness, F31, within=X31, strata_instance=Y31)
    out.append(
        _check(
            "on-line rational witness over F_31: fiber 25 on the quintic",
            fr_w.stratum is Stratum.ON_LINE_A
            and fr_w.count == 25
            and fr_w.count_within == 25,
            f"count={fr_w.count}",
        )
    )

    b_pt = (F.zero, F.zero, F.zero, F.one, F.element(-1))
    fr_b = singular.preimage_count(phi, b_pt, F, within=X, strata_instance=Y)
    out.append(
        _check(
            "fiber over the triple point (0:0:0:1:-1) is 5",
            fr_b.stratum is Stratum.IN_POINT_SET_B
            and fr_b.count == 5
            and fr_b.count_within == 5,
            f"count={fr_b.count}",
        )
    )

    sizes = singular.fiber_size_table(phi, F)
    total = int(sizes.sum())
    out.append(
        _check(
            "fiber sum over P^4(F_11) equals 16105",
            total == projective_size(11, 4) == 16105,
            f"sum={total}",
        )
    )
    return out


def suite_groups(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    out = []
    G = symmetry.enumerate_G()
    Gt = symmetry.enumerate_Gtilde()
    H = symmetry.psi_kernel()
    out.append(_check("scaling group order 125", len(G) == 125))
    out.append(_check("cubic group order 81", len(Gt) == 81))
    out.append(_check("cube-map kernel order 27", len(H) == 27))
    out.append(
        _check(
            "group axioms (exhaustive)",
            G.verify_axioms() and Gt.verify_axioms() and H.verify_axioms(),
        )
    )
    F11 = make_field(11)
    X2 = quintic_x(2, F11)
    out.append(
        _check(
            "all 125 scalings preserve the quintic over F_11",
            all(symmetry.invariance_check(g, X2) for g in G),
        )
    )
    w5 = primitive_nth_root(F11, 5)
    bad = (F11.one, w5, F11.one, F11.one, F11.one)
    out.append(
        _check(
            "a non-member scaling breaks invariance",
            not symmetry.diagonal_invariance(bad, X2),
        )
    )
    F19 = make_field(19)
    V = cubics_v(1, F19)
    out.append(
        _check(
            "all 81 elements preserve the cubic pair over F_19",
            all(symmetry.invariance_check(g, V) for g in Gt),
        )
    )
    g0 = symmetry.quotient_generator()
    ok_action = symmetry.induced_cube_action(g0) == (1, 1, 1, 0, 0, 0)
    psi = MonomialMap(3, 6)
    w3 = primitive_nth_root(F19, 3)
    sc = symmetry.scalars_for(g0, F19)
    for x in sample_points(V, 50, seed=19):
        lhs = apply_map(psi, symmetry.apply_scalars(sc, x))
        w = apply_map(psi, x)
        rhs = normalize_point((w[0] * w3, w[1] * w3, w[2] * w3, w[3], w[4], w[5]))
        ok_action = ok_action and lhs == rhs
    out.append(
        _check(
            "residual action scales x0, x1, x2 by a primitive cube root",
            ok_action,
            "checked on 50 points over F_19",
        )
    )
    kernel_ok = all(symmetry._cubes_projectively_trivial(h) for h in H) and not any(
        symmetry._cubes_projectively_trivial(g) for g in Gt if g not in H
    )
    out.append(_check("kernel = exactly the elements with mu = 0 mod 3", kernel_ok))
    return out


def suite_coordchange(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    out = []
    for p in (7, 13):
        F = make_field(p)
        for lam in (1, 2):
            out.append(
                _check(
                    f"coordinate-change identities over F_{p}, lam={lam}",
                    verify_coordinate_change(lam, F),
                )
            )
    F19 = make_field(19)
    psi = MonomialMap(3, 6)
    for lam in (1, 2):
        w_new = new_coordinates_w(lam, F19)
        wt = wtilde_from_lambda(lam, F19)
        pts = sample_points(w_new, 100, seed=100 + lam)
        idx = np.array([[x.index for x in pt] for pt in pts], dtype=np.int64)
        images = F19.power_table(psi.exponent)[idx]
        ok = bool(wt.vanishing_mask(list(images.T)).all())
        out.append(
            _check(
                f"cube map sends 100 W-points into the quotient (lam={lam})",
                ok,
            )
        )
    return out


def suite_quadric(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    """Containment and smoothness evidence for the quadric surface.

    The images of surface points avoid the singular lines except at primes
    where a primitive cube root of unity is a rational fifth power: there
    the two points of the surface on each coordinate plane are rational and
    map onto the cube-root points of the lines (20 witnesses).  F_31 is
    such a prime; the suite verifies the witness structure exactly there.
    """
    out = []
    for p in (11, 31, 41):
        ev = singular.quadric_evidence_for_prime(p)
        out.append(
            _check(
                f"surface over F_{p}: on the quintic, smooth, images on mirror",
                ev.special_point_on_surface
                and ev.contained_in_target
                and ev.jacobian_full_rank
                and ev.images_on_mirror,
                f"{ev.surface_points} surface points",
            )
        )
        F = make_field(p)
        witnesses_possible = (p - 1) % 3 == 0 and bool(
            element_roots(F, primitive_nth_root(F, 3), 5)
        )
        if not witnesses_possible:
            out.append(
                _check(
                    f"images avoid the singular lines over F_{p}",
                    ev.images_avoid_singular_lines,
                )
            )
        else:
            ok = len(ev.line_witnesses) == 20
            fifth = F.power_table(5)
            for w in ev.line_witnesses:
                zeros = [x for x in w if not x]
                ok = ok and len(zeros) == 2
                img = [F.from_index(int(fifth[x.index])) for x in w]
                nz = [y for y in img if y]
                e1 = sum(nz, F.zero)
                e2 = nz[0] * nz[1] + nz[0] * nz[2] + nz[1] * nz[2]
                ok = ok and len(nz) == 3 and not e1 and not e2
            out.append(
                _check(
                    f"over F_{p} the line witnesses are exactly the 20 "
                    "cube-root points (2 per coordinate plane)",
                    ok,
                    f"{len(ev.line_witnesses)} witnesses",
                )
            )
    return out


def suite_ledger(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    out = []
    u, d = ledger.solve_quotient_chi(ledger.MIRROR_STRATA_GENERIC)
    out.append(
        _check("generic stratification: chi 0 upstairs complement, 0 downstairs",
               (u, d) == (0, 0), f"({u}, {d})")
    )
    u, d = ledger.solve_quotient_chi(ledger.MIRROR_STRATA_SPECIAL)
    out.append(
        _check("special stratification: chi 1 and 1", (u, d) == (1, 1), f"({u}, {d})")
    )
    chi, div = ledger.resolution_chi(0, ledger.MIRROR_RESOLUTION_STEPS)
    out.append(
        _check(
            "mirror resolution: chi 200 with 100 exceptional divisors",
            (chi, div) == (200, 100),
            f"({chi}, {div})",
        )
    )
    out.append(
        _check("60 remaining nodes recorded", ledger.REMAINING_NODES == 60)
    )
    chi, _ = ledger.resolution_chi(1, ledger.SPECIAL_MIRROR_STEPS)
    out.append(_check("special mirror resolution: chi 202", chi == 202, str(chi)))
    chi, _ = ledger.resolution_chi(-200, ledger.QUINTIC_RESOLUTION_STEPS)
    out.append(_check("quintic small resolution: chi 50", chi == 50, str(chi)))
    out.append(
        _check(
            "Hodge audits pass where they should",
            ledger.hodge_consistency(ledger.QUINTIC_SMOOTH)
            and ledger.hodge_consistency(
                ledger.QUINTIC_SMALL_RESOLUTION, generic_h11=1
            )
            and ledger.hodge_consistency(ledger.MIRROR_RESOLUTION_SPECIAL),
        )
    )
    out.append(
        _check(
            "the recorded generic mirror triple (200, 100, 1) is flagged",
            not ledger.hodge_consistency(ledger.MIRROR_RESOLUTION_GENERIC),
        )
    )
    out.append(
        _check(
            "defect 24 = resolved h11 minus generic h11",
            ledger.QUINTIC_SMALL_RESOLUTION.defect == 24,
        )
    )
    out.append(
        _check(
            "line count identity 10(q+1) - 20 = 10q - 10",
            all(ledger.line_count_identity(q) for q in (7, 11, 31)),
        )
    )
    return out


def suite_hecke(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    out = []
    out.append(
        _check(
            "trace over F_121 equals t(11)^2 - 2 * 11^3",
            modularity.hecke_consistency(11, cache=cache, threads=threads),
        )
    )
    if long_run:
        out.append(
            _check(
                "trace over F_961 equals t(31)^2 - 2 * 31^3",
                modularity.hecke_consistency(31, cache=cache, threads=threads),
            )
        )
        out.append(
            _check(
                "Frobenius recurrence for X and Y over F_4, F_8, F_16, F_9, F_27, "
                "F_81, F_49, F_343, F_1331",
                all(
                    modularity.hecke_consistency(p, k, cache=cache, threads=threads)
                    for p, k in ((2, 4), (3, 4), (7, 3), (11, 3))
                ),
            )
        )
    return out


def suite_traces(
    threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    out = []
    records = [
        modularity.compare_traces(p, cache=cache, algo="table", threads=threads)
        for p in good_primes(p_max)
    ]
    out.append(
        _check(
            f"trace match for every good prime p <= {p_max}",
            all(r.match_ok for r in records),
            f"{len(records)} primes",
        )
    )
    out.append(
        _check(
            "Weil bound a^2 <= 4 p^3 at every good prime",
            all(r.weil_ok for r in records),
        )
    )
    anchor = next(r for r in records if r.p == 2)
    out.append(
        _check(
            "desk anchor: #X = #Y = 16 over F_2, trace 1",
            anchor.count_x == 16 and anchor.count_y == 16 and anchor.ap_x == 1,
            f"counts ({anchor.count_x}, {anchor.count_y})",
        )
    )
    ok7 = True
    for p in (2, 3, 7, 11, 13):
        F = make_field(p)
        for mu in (0, 1, 2):
            nx = count_naive(quintic_x(mu, F)).count
            tx = count(quintic_x(mu, F), "table", threads)
            ny = count_naive(quintic_y(mu, F)).count
            ty = count(quintic_y(mu, F), "table", threads)
            ok7 = ok7 and nx == tx.count and ny == ty.count
    out.append(
        _check("table and naive counts agree (30 instances, p <= 13)", ok7)
    )
    return out


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


def run_suite(
    name: str, threads: int = 1, cache=None, long_run: bool = False, p_max: int = 101
) -> list[CheckResult]:
    """The rows of one suite, or of every suite in order for "all".

    A suite that raises contributes one FAIL row naming it and the error,
    and its traceback goes to stderr; the suites after it still run.
    """
    out = []
    for key in SUITES if name == "all" else [name]:
        suite = SUITES[key]
        try:
            rows = suite(threads=threads, cache=cache, long_run=long_run, p_max=p_max)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            rows = [_check(f"suite {key}", False, f"{type(exc).__name__}: {exc}")]
        out.extend(rows)
    return out
