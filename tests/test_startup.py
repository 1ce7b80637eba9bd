"""Start-up behaviour that only a fresh interpreter shows: which modules
each command loads and which commands execute numpy."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorquintic.cli import run

SRC = Path(__file__).resolve().parent.parent / "src"

# run the CLI on argv, then print its exit code and whether numpy executed
# (a lazily loaded numpy is in sys.modules, its submodules are not)
_PROBE = """
import sys
from mirrorquintic.cli import run
code = run(sys.argv[1:])
print(code, any(m.startswith("numpy.") for m in sys.modules))
"""


def _env() -> dict:
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def _python(args, cwd):
    done = subprocess.run(
        [sys.executable, *args], cwd=cwd, env=_env(), capture_output=True, text=True, timeout=120
    )
    assert done.stderr == ""
    return done


def _mql(argv, cwd) -> tuple[int, bool]:
    code, executed = _python(["-c", _PROBE, *argv], cwd).stdout.split()
    return int(code), executed == "True"


def test_importing_the_cli_leaves_numpy_unexecuted(tmp_path):
    probe = "import sys, mirrorquintic.cli; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    assert _python(["-c", probe], tmp_path).stdout == "['numpy']\n"


def test_warm_trace_and_ledger_dump_leave_numpy_unexecuted(tmp_path):
    args = ["trace", "--p-range", "2..31", "--cache", "c.jsonl", "--out"]
    assert _mql(args + ["cold.csv"], tmp_path) == (0, True)
    assert _mql(args + ["warm.csv"], tmp_path) == (0, False)
    assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
    assert _mql(["ledger-dump", "--out", "ledger.json"], tmp_path) == (0, False)


# run the CLI on argv, then print the package modules it loaded and the
# other modules it added to those the interpreter started with
_MODULES_PROBE = """
import sys
before = set(sys.modules)
from mirrorquintic.cli import run
run(sys.argv[1:])
added = set(sys.modules) - before
print(*sorted(m for m in added if m.startswith("mirrorquintic.")))
print(*sorted(m for m in added if not m.startswith("mirrorquintic")))
"""

# what importing the cli loads: fields, families, counting, traces and the
# ledger the traces read
_CLI_MODULES = {
    f"mirrorquintic.{m}"
    for m in ["_lazy", "cli", "counting", "errors", "families", "ffield", "ledger", "modularity"]
}


def _loads(argv, cwd) -> tuple[set, set]:
    package, other = _python(["-c", _MODULES_PROBE, *argv], cwd).stdout.splitlines()[-2:]
    return set(package.split()), set(other.split())


def test_modules_each_command_loads(tmp_path):
    # trace and count from the cache run no verify stack and no MPoly, and
    # none of the record types imports dataclasses
    trace = ["trace", "--p-range", "2..31", "--cache", "t.jsonl", "--out", "t.csv"]
    count = ["count", "--family", "Y", "--mu", "2", "--p-range", "2..13",
             "--cache", "c.jsonl", "--out", "c.json"]
    assert _mql(trace, tmp_path) == (0, True) and _mql(count, tmp_path) == (0, True)
    for argv in (trace, count, ["--version"], ["ledger-dump", "--out", "ledger.json"]):
        package, other = _loads(argv, tmp_path)
        assert package == _CLI_MODULES and "dataclasses" not in other


def test_nodes_suite_loads_no_symbolic_layer(tmp_path):
    # the nodes suite runs the builders on arrays and jets and reads no
    # symbolic system, so MPoly stays unloaded
    package, other = _loads(["verify", "--suite", "nodes"], tmp_path)
    assert "mirrorquintic.verify" in package and "mirrorquintic.mvpoly" not in package
    assert "dataclasses" not in other


def test_verify_all_loads_no_numpy_random(tmp_path):
    # no row draws random points (they check every point): numpy.random
    # and the secrets module it imports stay unloaded, about 6 MB of RSS
    package, other = _loads(["verify", "--suite", "all"], tmp_path)
    assert "mirrorquintic.verify" in package
    assert "numpy.random" not in other and "secrets" not in other


def test_verify_all_in_a_fresh_process(tmp_path):
    # verify imports its stack inside the command; the report is unchanged
    golden = (Path(__file__).parent / "data" / "verify-all.txt").read_text()
    assert _python(["-m", "mirrorquintic.cli", "verify", "--suite", "all"], tmp_path).stdout == golden


# run the CLI on argv with a counter on FieldDescriptor.__init__, then print
# its exit code, the descriptors built and the distinct (p, k) among them
_FIELDS_PROBE = """
import sys
from mirrorquintic import ffield
from mirrorquintic.cli import run
built, init = [], ffield.FieldDescriptor.__init__
def counted(self, p, k, modulus):
    built.append((p, k))
    init(self, p, k, modulus)
ffield.FieldDescriptor.__init__ = counted
code = run(sys.argv[1:])
print(code, len(built), len(set(built)))
"""


def test_each_command_builds_one_descriptor_per_field(tmp_path):
    # verify-all reaches 26 fields and a cold trace of 2..101 the 25
    # primes, each field built once however its callers spell make_field
    verify = ["verify", "--suite", "all"]
    trace = ["trace", "--p-range", "2..101", "--cache", "t.jsonl", "--out", "t.csv"]
    for argv, fields in ((verify, 26), (trace, 25)):
        out = _python(["-c", _FIELDS_PROBE, *argv], tmp_path).stdout.split()[-3:]
        assert out == ["0", str(fields), str(fields)]


# cli.main, the mql entry point, ends the process with os._exit once stdout
# and stderr are flushed, so it is only ever run in a subprocess, and with
# PYTHONUNBUFFERED unset, so that its stdout is block-buffered as on a pipe
_MAIN = ["-m", "mirrorquintic.cli"]


def _main(argv, cwd, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, *_MAIN, *argv], cwd=cwd, env=env, stdout=stdout,
        stderr=subprocess.PIPE, timeout=120,
    )


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["count", "--family", "X", "--mu", "1", "--p", "8209", "--algo", "table"], 1),
    (["trace", "--p", "5"], 2),
])
def test_main_exit_codes(tmp_path, argv, code):
    assert _main(argv, tmp_path).returncode == code


def test_main_writes_the_trace_run_writes(tmp_path):
    # stdout and --out both reach the file before the process ends
    trace = ["trace", "--p-range", "2..31"]
    assert run(trace + ["--out", str(tmp_path / "run.csv")]) == 0
    expected = (tmp_path / "run.csv").read_bytes()
    piped = _main(trace + ["--format", "csv"], tmp_path)
    assert piped.returncode == 0 and piped.stdout == expected
    assert _main(trace + ["--out", "main.csv"], tmp_path).returncode == 0
    assert (tmp_path / "main.csv").read_bytes() == expected


def test_main_under_cprofile_prints_the_stats(tmp_path):
    # a profiler writes its report after main returns, so main exits the
    # ordinary way while one is installed
    done = subprocess.run(
        [sys.executable, "-m", "cProfile", *_MAIN, "--version"],
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("mql ") and "function calls" in done.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_main_reports_a_failed_flush_as_python_does(tmp_path):
    # block-buffered stdout on a full device: the flush fails, and the
    # ordinary exit reports it and exits 120
    with open("/dev/full", "w") as full:
        done = _main(["--version"], tmp_path, stdout=full)
    assert done.returncode == 120
    assert done.stderr.decode().startswith("Exception ignored")


# count the mu = 1 X over F_7 with the named algorithm, the first count of
# the process, and print whether numpy had executed when count_table or
# count_naive first read the clock
_TIMER_PROBE = """
import sys, time
from mirrorquintic import counting
from mirrorquintic.families import quintic_x
from mirrorquintic.ffield import make_field
instance = quintic_x(1, make_field(7))
executed, clock = [], time.perf_counter
def perf_counter():
    executed.append(any(m.startswith("numpy.") for m in sys.modules))
    return clock()
time.perf_counter = perf_counter
counting.count(instance, sys.argv[1])
print(executed[0])
"""


@pytest.mark.parametrize("algo", ["table", "naive"])
def test_first_count_times_no_numpy_import(tmp_path, algo):
    # a lazily loaded numpy executes before the timer starts, so its import
    # is not in the first record's elapsed_ms
    assert _python(["-c", _TIMER_PROBE, algo], tmp_path).stdout == "True\n"
