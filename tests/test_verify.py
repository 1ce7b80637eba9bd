import argparse
import functools

import numpy as np
import pytest

from mirrorquintic import cli, ledger, singular, symmetry, verify
from mirrorquintic.families import Stratum
from mirrorquintic.ffield import FieldElement
from mirrorquintic.verify import SUITES, run_suite


def test_suite_choices_are_the_suites():
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    suite = next(a for a in commands.choices["verify"]._actions if a.dest == "suite")
    assert list(suite.choices) == [*SUITES, "all"]


def test_all_suites_51_rows_pass():
    rows = run_suite("all")
    assert len(rows) == 51
    assert [r.name for r in rows if not r.passed] == []


def test_unknown_suite_is_refused():
    # a misspelt name is the caller's error, not a FAIL row of a suite
    with pytest.raises(ValueError, match=r"unknown suite 'nodez': choose from all, nodes,"):
        run_suite("nodez")


def test_mirror_rows_read_the_extra_node_from_the_scan(monkeypatch):
    # the scan's points classified by strata codes that never give
    # ExtraNode fail exactly the rows with mu^5 = 1: mu = 1 over F_7, F_11,
    # F_31, and mu = 2 over F_31 (2^5 = 1 mod 31)
    codes = verify.strata_codes
    extra = list(Stratum).index(Stratum.EXTRA_NODE)

    def no_extra_node(points, y):
        out = codes(points, y)
        out[out == extra] = 0
        return out

    monkeypatch.setattr(verify, "strata_codes", no_extra_node)
    rows = run_suite("nodes")
    assert len(rows) == 10
    assert [r.name for r in rows if not r.passed] == [
        "mirror mu=1 over F_7: singular count 61 (with extra node)",
        "mirror mu=1 over F_11: singular count 101 (with extra node)",
        "mirror mu=2 over F_31: singular count 301 (with extra node)",
        "mirror mu=1 over F_31: singular count 301 (with extra node)",
    ]


def test_wrong_node_count_fails_the_quintic_rows(monkeypatch):
    monkeypatch.setattr(ledger, "NODE_COUNT", 124)
    assert [r.name for r in run_suite("nodes") if not r.passed] == [
        f"quintic mu=1 over F_{p}: 125 nodes forming one orbit" for p in (11, 31, 41)
    ]


def test_wrong_line_census_fails_the_census_rows(monkeypatch):
    # the six mirror rows, the generic census and the line-count row
    census = ledger.line_census
    monkeypatch.setattr(ledger, "line_census", lambda q: census(q) + 1)
    rows = run_suite("nodes") + run_suite("ledger")
    assert [r.name for r in rows if not r.passed] == [
        "mirror mu=2 over F_7: singular count 61 (no extra node)",
        "mirror mu=1 over F_7: singular count 62 (with extra node)",
        "mirror mu=2 over F_11: singular count 101 (no extra node)",
        "mirror mu=1 over F_11: singular count 102 (with extra node)",
        "mirror mu=2 over F_31: singular count 302 (with extra node)",
        "mirror mu=1 over F_31: singular count 302 (with extra node)",
        "mirror mu=3 over F_31: generic census 301",
        "line count identity 10(q+1) - 20 = 10q - 10",
    ]


def test_raising_suite_is_one_fail_row(monkeypatch, capsys):
    def broken(**kw):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(verify.SUITES, "groups", broken)
    assert cli.run(["verify", "--suite", "all"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" in captured.err and "ZeroDivisionError" in captured.err
    lines = captured.out.splitlines()
    fails = [l for l in lines if l.startswith("FAIL")]
    assert len(fails) == 1
    assert "suite groups" in fails[0] and "ZeroDivisionError: division by zero" in fails[0]
    # the 9 rows of the groups suite are replaced by the one FAIL row
    assert lines[-1] == "42/43 checks passed, 1 FAILED"


def test_raising_check_is_one_fail_row(monkeypatch, capsys):
    def broken(q):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(ledger, "line_census", broken)
    assert cli.run(["verify", "--suite", "ledger"]) == 1
    captured = capsys.readouterr()
    assert "Traceback" in captured.err and "ZeroDivisionError" in captured.err
    lines = captured.out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 9
    (fail,) = [line for line in lines if line.startswith("FAIL")]
    assert fail.split("  ")[1] == "line count identity 10(q+1) - 20 = 10q - 10"
    assert fail.endswith("  [ZeroDivisionError: division by zero]")
    assert lines[-1] == "9/10 checks passed, 1 FAILED"
    # the other suites and the other rows of the ledger suite still run; in
    # the nodes suite the census fails only its own rows, each under its
    # name without the count, while the three quintic rows pass
    assert cli.run(["verify", "--suite", "all"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split("  ")[1] for line in lines if line.startswith("FAIL")] == [
        "mirror mu=2 over F_7: singular count (no extra node)",
        "mirror mu=1 over F_7: singular count (with extra node)",
        "mirror mu=2 over F_11: singular count (no extra node)",
        "mirror mu=1 over F_11: singular count (with extra node)",
        "mirror mu=2 over F_31: singular count (with extra node)",
        "mirror mu=1 over F_31: singular count (with extra node)",
        "mirror mu=3 over F_31: generic census",
        "line count identity 10(q+1) - 20 = 10q - 10",
    ]
    assert sum(line.startswith("PASS  quintic mu=1 over F_") for line in lines) == 3
    assert lines[-1] == "43/51 checks passed, 8 FAILED"


def test_each_parameterized_row_runs_on_its_own_instance(monkeypatch):
    # rows built in a loop check their own parameters, not the last ones:
    # the arguments of each scan, surface and coordinate change, in order
    scans, surfaces, changes = [], [], []
    singular_points = singular.singular_points
    surface_points = singular.surface_points
    coordinate_change = verify.verify_coordinate_change

    def scan(inst):
        scans.append((inst.id.value, inst.param_string(), inst.field.q))
        return singular_points(inst)

    def surface(surface):
        surfaces.append(surface.field.q)
        return surface_points(surface)

    def change(lam, F):
        changes.append((lam, F.q))
        return coordinate_change(lam, F)

    monkeypatch.setattr(singular, "singular_points", scan)
    monkeypatch.setattr(singular, "surface_points", surface)
    monkeypatch.setattr(verify, "verify_coordinate_change", change)
    assert [r.name for r in run_suite("all") if not r.passed] == []
    assert scans == [
        ("QuinticX", "mu=1", 11),
        ("QuinticX", "mu=1", 31),
        ("QuinticX", "mu=1", 41),
        ("QuinticY", "mu=2", 7),
        ("QuinticY", "mu=1", 7),
        ("QuinticY", "mu=2", 11),
        ("QuinticY", "mu=1", 11),
        ("QuinticY", "mu=2", 31),
        ("QuinticY", "mu=1", 31),
        ("QuinticY", "mu=3", 31),
    ]
    assert surfaces == [11, 31, 41]
    assert changes == [(1, 7), (2, 7), (1, 13), (2, 13)]


def _with_extra_point(ctor, extra):
    """ctor whose instances also vanish at the index row extra: a family in
    which one point breaks a statement that holds for the true one."""

    def build(*args):
        inst = ctor(*args)
        mask = inst.vanishing_mask

        def vanishing_mask(coords):
            at_extra = functools.reduce(
                np.logical_and, (np.asarray(c) == v for c, v in zip(coords, extra))
            )
            return mask(coords) | at_extra

        inst.vanishing_mask = vanishing_mask
        return inst

    return build


def _failing(suite):
    return [r.name for r in run_suite(suite) if not r.passed]


def test_generic_fiber_row_fails_on_one_bad_point(monkeypatch):
    # (1:2:3:4:5) is off X_1(F_11) and its image off Y_1: a quintic
    # through it has an image whose fiber on it is that one point
    monkeypatch.setattr(verify, "quintic_x", _with_extra_point(verify.quintic_x, (1, 2, 3, 4, 5)))
    assert _failing("fibers") == ["generic fiber on the quintic is 125 (ambient 625)"]


def test_cube_map_rows_fail_on_one_bad_point(monkeypatch):
    # (1:0:0:0:0:0) is off the nu-form, and its cube off the quotient for
    # every nu != 0
    extra = (1, 0, 0, 0, 0, 0)
    monkeypatch.setattr(
        verify, "new_coordinates_w", _with_extra_point(verify.new_coordinates_w, extra)
    )
    assert _failing("coordchange") == [
        f"cube map sends every W-point over F_13 into the quotient (lam={lam})"
        for lam in (1, 2)
    ]


_RESIDUAL = "residual action scales x0, x1, x2 by a primitive cube root"


def test_residual_action_row_fails_on_a_kernel_element(monkeypatch):
    # the identity acts trivially through the cube map
    monkeypatch.setattr(symmetry, "quotient_generator", lambda: (0, 0, 0, 0, 0))
    assert _failing("groups") == [_RESIDUAL]


def test_residual_action_row_fails_on_perturbed_scalars(monkeypatch):
    # g0 with x0 scaled by 2 more (2^3 = 8 is no cube root of unity mod 19)
    # keeps the induced action, so only the cubes of the scalars catch it
    scalars = symmetry.element_scalars

    def perturbed(group, F, elements=None):
        out = scalars(group, F, elements)
        if elements is not None:
            out[:, 0] = F.vmul(out[:, 0], 2)
        return out

    monkeypatch.setattr(symmetry, "element_scalars", perturbed)
    assert _failing("groups") == [_RESIDUAL]


@pytest.fixture
def scalar_products(monkeypatch):
    """Counts the calls of FieldElement's product and power operators."""
    calls = []
    for name in ("__mul__", "__rmul__", "__pow__"):
        real = getattr(FieldElement, name)

        def counting(self, *args, _real=real):
            calls.append(self.field)
            return _real(self, *args)

        monkeypatch.setattr(FieldElement, name, counting)
    return calls


def test_group_rows_and_orbit_checks_run_on_arrays(scalar_products, monkeypatch):
    # the two invariance rows of the groups suite and the three orbit checks
    # of the nodes suite take every group element in one array pass: a few
    # dozen FieldElement products each (the expansion of the system
    # included), not one batch of them per element as before (thousands)
    per_call = []

    def counted(fn):
        def run(*args):
            before = len(scalar_products)
            out = fn(*args)
            per_call.append((fn.__name__, len(scalar_products) - before))
            return out

        return run

    monkeypatch.setattr(symmetry, "group_invariance", counted(symmetry.group_invariance))
    monkeypatch.setattr(symmetry, "orbit", counted(symmetry.orbit))
    assert all(r.passed for r in run_suite("groups") + run_suite("nodes"))
    assert [name for name, _ in per_call] == ["group_invariance"] * 2 + ["orbit"] * 3
    assert all(n <= 40 for _, n in per_call), per_call
