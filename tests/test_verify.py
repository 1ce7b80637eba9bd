import argparse

from mirrorquintic import cli, verify
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
