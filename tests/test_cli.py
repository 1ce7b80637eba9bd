import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mirrorquintic import cli, counting, verify
from mirrorquintic.cli import TRACE_COLUMNS, run
from mirrorquintic.errors import CacheCorrupt, InstanceTooLarge, MirrorQuinticError
from mirrorquintic.families import FamilyId, quintic_x
from mirrorquintic.ffield import is_prime, make_field


def test_count_happy_path(tmp_path):
    out = tmp_path / "report.json"
    code = run(
        ["count", "--family", "X", "--mu", "1", "--p", "11", "--algo", "table",
         "--out", str(out)]
    )
    assert code == 0
    env = json.loads(out.read_text())
    assert env["tool"] == "mql"
    (rec,) = env["records"]
    assert rec["count"] == 3300 and rec["algo"] == "table" and rec["status"] == "ok"
    assert rec["family"] == "QuinticX" and rec["q"] == 11


def test_count_non_prime_exits_2(capsys):
    assert run(["count", "--family", "X", "--mu", "1", "--p", "4"]) == 2
    assert "not prime" in capsys.readouterr().err


def test_count_missing_param_exits_2():
    assert run(["count", "--family", "X", "--p", "11"]) == 2
    assert run(["count", "--family", "Q", "--mu", "1", "--p", "11"]) == 2


def test_count_extension_field(tmp_path):
    out = tmp_path / "ext.json"
    code = run(
        ["count", "--family", "X", "--mu", "1", "--p", "11", "--ext", "2",
         "--out", str(out)]
    )
    assert code == 0
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["q"] == 121 and rec["count"] == 2126300


def test_trace_csv_format(tmp_path):
    out = tmp_path / "traces.csv"
    cache = tmp_path / "counts.jsonl"
    code = run(
        ["trace", "--p-range", "2..13", "--cache", str(cache), "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    rows = [l.split(",") for l in lines[1:]]
    assert [r[0] for r in rows] == ["2", "3", "7", "11", "13"]  # 5 skipped
    assert all(r[6] == "true" and r[7] == "true" for r in rows)


def test_trace_json_envelope(tmp_path):
    out = tmp_path / "traces.json"
    code = run(["trace", "--p", "2", "--format", "json", "--out", str(out)])
    assert code == 0
    env = json.loads(out.read_text())
    (rec,) = env["records"]
    assert rec["ap_x"] == rec["ap_y"] == 1 and rec["count_x"] == 16


def test_trace_p5_alone_is_a_usage_error(tmp_path, capsys):
    # a range skips the bad prime (test_trace_csv_format); asked for alone
    # it is refused before the cache is opened
    cache = tmp_path / "counts.jsonl"
    assert run(["trace", "--p", "5", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --p 5") and "bad reduction" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_trace_above_the_table_cap_is_a_usage_error(tmp_path, capsys):
    # 1499 lies under counting.TABLE_CAP and 1511 above it: the whole list
    # is refused before any count, so no cache line is written
    cache = tmp_path / "counts.jsonl"
    assert run(["trace", "--p-range", "1499..1511", "--cache", str(cache)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: p = 1511") and "1500" in captured.err
    assert list(tmp_path.iterdir()) == []


def test_trace_refuses_a_long_range_above_the_cap_before_listing_it(monkeypatch, capsys):
    # the largest prime is found by stepping down from the top of the range
    calls = []

    def counted(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(cli, "is_prime", counted)
    assert run(["trace", "--p-range", "2..1000000000"]) == 2
    assert capsys.readouterr().err.startswith(
        "usage error: p = 999999937: table algorithm capped at q <= 1500"
    )
    assert len(calls) < 1000


def test_trace_naive_cap_admits_313(monkeypatch, capsys):
    # 313^4 <= counting.NAIVE_CAP < 317^4: a naive trace at 313 reaches its count
    def reached(p, **kwargs):
        raise MirrorQuinticError(f"reached p = {p}")

    monkeypatch.setattr(cli, "compare_traces", reached)
    assert run(["trace", "--p", "313", "--algo", "naive"]) == 1
    assert capsys.readouterr().err == "error: reached p = 313\n"


class _Reached(Exception):
    pass


def _count_refuses(monkeypatch, p: int, algo: str) -> bool:
    # count() on the mu = 1 X over F_p, stopped where its engine would start
    # work: True when it refuses the instance with InstanceTooLarge first
    def reached(*args, **kwargs):
        raise _Reached

    with monkeypatch.context() as m:
        m.setattr(counting, "_histogram", reached)
        m.setattr(counting, "iter_projective_chunks", reached)
        try:
            counting.count(quintic_x(1, make_field(p)), algo)
        except InstanceTooLarge:
            return True
        except _Reached:
            return False
    raise AssertionError(f"count ran to the end at p = {p}")


@pytest.mark.parametrize("algo,admitted,refused", [("table", 1499, 1511), ("naive", 313, 317)])
def test_up_front_refusals_follow_the_count(monkeypatch, capsys, algo, admitted, refused):
    # trace, and verify --p-max for the table, exit 2 naming the prime
    # exactly when count refuses that prime's X instance
    def reached(*args, **kwargs):
        raise MirrorQuinticError("reached the count")

    monkeypatch.setattr(cli, "compare_traces", reached)
    monkeypatch.setattr(verify, "run_suite", reached)
    commands = [["trace", "--p", "{p}", "--algo", algo]]
    if algo == "table":
        commands.append(["verify", "--suite", "traces", "--p-max", "{p}"])
    for p in (admitted, refused):
        is_refused = _count_refuses(monkeypatch, p, algo)
        assert is_refused == (p == refused)
        for command in commands:
            code = run([a.format(p=p) for a in command])
            err = capsys.readouterr().err
            if is_refused:
                assert code == 2 and err.startswith(f"usage error: p = {p}: ")
            else:
                assert code == 1 and err == "error: reached the count\n"


def test_reports_byte_identical_with_warm_cache(tmp_path):
    cache = tmp_path / "counts.jsonl"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["trace", "--p-range", "2..11", "--cache", str(cache)]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    jargs = args + ["--format", "json"]
    assert run(jargs + ["--out", str(ja)]) == 0
    assert run(jargs + ["--out", str(jb)]) == 0
    # the out path is the only differing flag; envelopes must agree otherwise
    ea, eb = json.loads(ja.read_text()), json.loads(jb.read_text())
    ea["config"].pop("out"), eb["config"].pop("out")
    assert ea == eb


def test_cache_env_var(tmp_path, monkeypatch):
    cache = tmp_path / "env_cache.jsonl"
    monkeypatch.setenv("MQL_CACHE", str(cache))
    out = tmp_path / "r.json"
    assert run(["count", "--family", "Y", "--mu", "2", "--p", "7", "--out", str(out)]) == 0
    assert cache.exists() and "QuinticY" in cache.read_text()


def test_cache_flag_wins_over_env(tmp_path, monkeypatch):
    env_cache = tmp_path / "env.jsonl"
    flag_cache = tmp_path / "flag.jsonl"
    monkeypatch.setenv("MQL_CACHE", str(env_cache))
    out = tmp_path / "r.json"
    assert (
        run(
            ["count", "--family", "X", "--mu", "1", "--p", "7",
             "--cache", str(flag_cache), "--out", str(out)]
        )
        == 0
    )
    assert flag_cache.exists() and not env_cache.exists()



@pytest.mark.parametrize("command", [
    ["count", "--family", "X", "--mu", "1", "--p", "7"],
    ["trace", "--p", "7"],
])
@pytest.mark.parametrize("bad", ["missing-dir", "directory"])
@pytest.mark.parametrize("via_env", [False, True])
def test_bad_cache_path_is_a_usage_error(tmp_path, monkeypatch, capsys, command, bad, via_env):
    # refused before the first count, whether --cache or MQL_CACHE names it
    path = str(tmp_path / "nowhere" / "c.jsonl" if bad == "missing-dir" else tmp_path)
    if via_env:
        monkeypatch.setenv("MQL_CACHE", path)
    args = command if via_env else command + ["--cache", path]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and repr(path) in captured.err
    assert list(tmp_path.iterdir()) == []

@pytest.mark.parametrize("command", [
    ["count", "--family", "X", "--mu", "1", "--p", "7"],
    ["trace", "--p-range", "2..13"],
    ["verify", "--suite", "traces", "--p-max", "13"],
    ["ledger-dump"],
])
@pytest.mark.parametrize("bad", ["missing-dir", "directory", "empty"])
def test_bad_out_path_is_a_usage_error(tmp_path, monkeypatch, capsys, command, bad):
    # refused as --cache is, before the first count
    _refuse_counts(monkeypatch)
    paths = {"missing-dir": tmp_path / "nowhere" / "r.csv", "directory": tmp_path, "empty": ""}
    path = str(paths[bad])
    assert run(command + ["--out", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: output path") and repr(path) in captured.err
    assert list(tmp_path.iterdir()) == []


def _refuse_counts(monkeypatch):
    def counted(instance):
        raise AssertionError("a count ran")

    monkeypatch.setattr(counting, "count_table", counted)
    monkeypatch.setattr(counting, "count_naive", counted)


@pytest.mark.parametrize("command", [
    ["count", "--family", "X", "--mu", "1", "--p", "7"],
    ["trace", "--p-range", "2..13"],
])
def test_empty_cache_flag_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # an explicit --cache wins over MQL_CACHE even when empty: it is refused
    # before the first count, and the env cache is neither read nor written
    _refuse_counts(monkeypatch)
    monkeypatch.setenv("MQL_CACHE", str(tmp_path / "env.jsonl"))
    assert run(command + ["--cache", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: cache path '' is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_cache_that_is_not_a_regular_file_exits_2(tmp_path):
    # reading a FIFO blocks until a writer comes, so --cache and MQL_CACHE
    # naming one are refused before any read; run in a subprocess with a
    # timeout, since the read would hang the test
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    src = Path(__file__).resolve().parent.parent / "src"
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    env.pop("MQL_CACHE", None)
    trace = [sys.executable, "-m", "mirrorquintic.cli", "trace", "--p", "2"]
    for argv, extra in ((["--cache", str(fifo)], {}), ([], {"MQL_CACHE": str(fifo)})):
        done = subprocess.run(
            trace + argv, env={**env, **extra}, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 2
        assert done.stderr == f"usage error: cache path {str(fifo)!r} is not a regular file\n"


@pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
def test_devices_are_refused_as_cache_but_not_as_out(capsys):
    assert run(["trace", "--p", "2", "--cache", "/dev/null"]) == 2
    assert capsys.readouterr().err == "usage error: cache path '/dev/null' is not a regular file\n"
    assert run(["trace", "--p", "2", "--out", "/dev/null"]) == 0


def test_empty_cache_env_is_no_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("MQL_CACHE", "")
    monkeypatch.chdir(tmp_path)
    assert run(["count", "--family", "X", "--mu", "1", "--p", "7", "--out", "r.json"]) == 0
    assert [f.name for f in tmp_path.iterdir()] == ["r.json"]


def test_verify_counts_what_the_cache_holds(tmp_path, monkeypatch, capsys):
    # verify reads no cache: with X's table counts off by q for q > 13 the
    # traces suite fails, though MQL_CACHE names a cache that a correct
    # trace filled, and the cache file is left byte for byte as it was
    cache = tmp_path / "counts.jsonl"
    trace = ["trace", "--p-range", "2..101", "--out", str(tmp_path / "t.csv")]
    assert run(trace + ["--cache", str(cache)]) == 0
    filled = cache.read_bytes()
    monkeypatch.setenv("MQL_CACHE", str(cache))
    table = counting.count_table

    def off_by_q(instance):
        rec = table(instance)
        q = instance.field.q
        if instance.id is FamilyId.QUINTIC_X and q > 13:
            return rec._replace(count=rec.count + q)
        return rec

    monkeypatch.setattr(counting, "count_table", off_by_q)
    assert run(["verify", "--suite", "traces"]) == 1
    fails = [l for l in capsys.readouterr().out.splitlines() if l.startswith("FAIL")]
    assert len(fails) == 1 and "trace match for every good prime p <= 101" in fails[0]
    assert cache.read_bytes() == filled


@pytest.mark.parametrize("suite", ["traces", "hecke"])
def test_verify_writes_no_cache(tmp_path, monkeypatch, suite):
    cache = tmp_path / "counts.jsonl"
    cache.touch()
    monkeypatch.setenv("MQL_CACHE", str(cache))
    assert run(["verify", "--suite", suite]) == 0
    assert cache.read_bytes() == b""


def test_corrupt_cache_warns_but_succeeds(tmp_path):
    cache = tmp_path / "counts.jsonl"
    cache.write_text("{ not json }\n")
    out = tmp_path / "r.json"
    with pytest.warns(Warning):
        code = run(
            ["count", "--family", "X", "--mu", "1", "--p", "11",
             "--cache", str(cache), "--out", str(out)]
        )
    assert code == 0
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["count"] == 3300


def _trace_p7_lines(tmp_path) -> list[bytes]:
    # the cache lines a cold trace --p 7 writes, X's record first
    cache = tmp_path / "fresh.jsonl"
    assert run(["trace", "--p", "7", "--cache", str(cache)]) == 0
    lines = cache.read_bytes().splitlines(keepends=True)
    assert [json.loads(l)["family"] for l in lines] == ["QuinticX", "QuinticY"]
    return lines


def _corrupt_lines(caught) -> set[str]:
    return {re.search(r"cache line \d+", str(w.message))[0] for w in caught}


def test_non_utf8_cache_line_warns_and_is_skipped(tmp_path, capsys):
    # a line that is not UTF-8 is one corrupt line: the records around it
    # are hits, so nothing is recomputed or appended
    x, y = _trace_p7_lines(tmp_path)
    cache = tmp_path / "counts.jsonl"
    cache.write_bytes(x + b"\xff\xfe garbage\n" + y)
    with pytest.warns(CacheCorrupt) as caught:
        assert run(["trace", "--p", "7", "--cache", str(cache)]) == 0
    assert _corrupt_lines(caught) == {"cache line 2"}
    assert cache.read_bytes() == x + b"\xff\xfe garbage\n" + y


def test_append_after_a_torn_line_keeps_the_record(tmp_path, capsys):
    # a crash mid-append leaves a last line without its newline; the next
    # append ends that line first, so its record is a line of its own
    torn = b'{"algo": "table", "co'
    cache = tmp_path / "counts.jsonl"
    cache.write_bytes(torn)
    written = []
    for _ in range(2):
        with pytest.warns(CacheCorrupt) as caught:
            assert run(["trace", "--p", "7", "--cache", str(cache)]) == 0
        assert _corrupt_lines(caught) == {"cache line 1"}
        written.append(cache.read_bytes())
    assert written[1] == written[0]  # the second run's counts are all hits
    first, *records = written[0].splitlines(keepends=True)
    assert first == torn + b"\n"
    assert [json.loads(l)["family"] for l in records] == ["QuinticX", "QuinticY"]


def test_verify_groups_suite(capsys):
    assert run(["verify", "--suite", "groups"]) == 0
    captured = capsys.readouterr().out
    assert "PASS" in captured and "FAIL" not in captured


def test_verify_ledger_suite():
    assert run(["verify", "--suite", "ledger"]) == 0


@pytest.mark.parametrize(
    "args,rows",
    [(["--suite", "hecke", "--long"], 3), (["--suite", "all"], 51)],
    ids=["hecke-long", "all"],
)
def test_verify_row_counts(args, rows, capsys):
    assert run(["verify", *args]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == rows
    assert lines[-1] == f"{rows}/{rows} checks passed"


def test_verify_all_matches_golden_report(capsys):
    # the default report byte for byte: a change that only makes verify
    # faster leaves it as it is; regenerate it only when a check's name or
    # detail changes on purpose
    golden = (Path(__file__).parent / "data" / "verify-all.txt").read_bytes()
    assert run(["verify", "--suite", "all"]) == 0
    assert capsys.readouterr().out.encode() == golden


def test_verify_all_long_matches_golden_report(capsys):
    # the --long report byte for byte (53 rows), under the same rule
    golden = (Path(__file__).parent / "data" / "verify-all-long.txt").read_bytes()
    assert run(["verify", "--suite", "all", "--long"]) == 0
    assert capsys.readouterr().out.encode() == golden


def test_verify_unknown_suite_exits_2(capsys):
    assert run(["verify", "--suite", "nonsense"]) == 2
    err = capsys.readouterr().err
    assert "argument --suite: invalid choice: 'nonsense'" in err
    assert "(choose from 'nodes', 'fibers', 'groups', 'coordchange', 'quadric', " \
        "'ledger', 'hecke', 'traces', 'all')" in err


def test_verify_help_lists_the_suites(capsys):
    assert run(["verify", "--help"]) == 0
    choices = "{nodes,fibers,groups,coordchange,quadric,ledger,hecke,traces,all}"
    assert f"  --suite {choices}\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "--suite", "traces", "--p-max", "1"],
        ["verify", "--suite", "all", "--p-max", "-3"],
        # a prime above the table count's cap: refused before any count
        ["verify", "--suite", "traces", "--p-max", "1511"],
        ["verify", "--suite", "traces", "--p-max", "1000000000"],
        # above the naive count's cap, 313 < 317: refused before any count
        ["trace", "--p-range", "2..317", "--algo", "naive"],
    ],
)
def test_p_max_and_p_out_of_range_exit_2(args, capsys):
    assert run(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and captured.err.count("\n") == 1


def test_p_max_is_refused_only_for_the_traces_suite(capsys):
    # only the traces suite counts up to --p-max, so a bound above the
    # table's cap leaves the other suites to run
    assert run(["verify", "--suite", "ledger", "--p-max", "2000"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "10/10 checks passed"


def test_count_p_range(tmp_path):
    out = tmp_path / "range.json"
    code = run(
        ["count", "--family", "X", "--mu", "1", "--p-range", "2..7",
         "--out", str(out)]
    )
    assert code == 0
    env = json.loads(out.read_text())
    assert [r["p"] for r in env["records"]] == [2, 3, 5, 7]


def test_count_build_error_is_one_row_per_prime(tmp_path):
    # QuadricQ needs a fifth root of unity: over 2..31 only F_11 and F_31 have one
    out = tmp_path / "q.json"
    assert run(["count", "--family", "Q", "--p-range", "2..31", "--out", str(out)]) == 1
    records = json.loads(out.read_text())["records"]
    assert [r["p"] for r in records] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
    for r in records:
        if r["p"] in (11, 31):
            assert r["status"] == "ok"
        else:
            assert r["status"].startswith("error: ")


def test_count_refuses_extension_field_above_table_cap(tmp_path):
    # F_{1031^2} is built, but its arithmetic needs exp/log tables past the cap
    out = tmp_path / "q.json"
    code = run(["count", "--family", "Q", "--p", "1031", "--ext", "2", "--out", str(out)])
    assert code == 1
    (rec,) = json.loads(out.read_text())["records"]
    assert (rec["p"], rec["k"]) == (1031, 2)
    assert rec["status"] == "error: q = 1062961 exceeds the flat-table cap 1048576"


def test_count_p5_family_falls_back_to_naive(tmp_path):
    out = tmp_path / "v.json"
    code = run(
        ["count", "--family", "V", "--lambda", "1", "--p", "7", "--out", str(out)]
    )
    assert code == 0
    (rec,) = json.loads(out.read_text())["records"]
    assert rec["family"] == "CubicsV" and rec["algo"] == "naive"
    assert rec["params"] == "lam=1"


def test_ledger_dump(tmp_path):
    out = tmp_path / "dataset.json"
    assert run(["ledger-dump", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["node_count"] == 125 and data["version"] == 1


def test_ledger_dump_matches_golden_file(tmp_path, capsys):
    # the recorded dataset byte for byte, written to --out and to stdout;
    # regenerate the file only when a recorded constant changes on purpose
    golden = (Path(__file__).parent / "data" / "ledger-dump.json").read_bytes()
    out = tmp_path / "dataset.json"
    assert run(["ledger-dump", "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    assert run(["ledger-dump"]) == 0
    assert capsys.readouterr().out.encode() == golden


@pytest.mark.parametrize(
    "args",
    [
        ["ledger-dump", "--threads", "2"],
        ["ledger-dump", "--cache", "counts.jsonl"],
        ["ledger-dump", "--format", "json"],
        ["verify", "--suite", "ledger", "--format", "json"],
        # every count and scan runs on one thread
        ["verify", "--suite", "groups", "--threads", "2"],
        ["verify", "--suite", "groups", "--threads", "-1"],
        ["count", "--family", "X", "--mu", "1", "--p", "11", "--threads", "2"],
        ["trace", "--p-range", "2..11", "--threads", "2"],
        # verify computes every count it checks
        ["verify", "--suite", "ledger", "--cache", "counts.jsonl"],
    ],
)
def test_options_a_subcommand_does_not_read_exit_2(args):
    assert run(args) == 2


def test_bad_p_range_exits_2():
    assert run(["trace", "--p-range", "banana"]) == 2
    assert run(["trace"]) == 2


def test_lock_file_cleanup(tmp_path):
    cache = tmp_path / "c.jsonl"
    out = tmp_path / "r.json"
    assert run(["count", "--family", "X", "--mu", "1", "--p", "7",
                "--cache", str(cache), "--out", str(out)]) == 0
    assert not (tmp_path / "c.jsonl.lock").exists()


def test_stale_lock_file_does_not_block(tmp_path):
    # a <cache>.lock left by a killed run of an earlier version is ignored
    cache = tmp_path / "counts.jsonl"
    (tmp_path / "counts.jsonl.lock").touch()
    out = tmp_path / "r.json"
    assert run(["count", "--family", "X", "--mu", "1", "--p", "7",
                "--cache", str(cache), "--out", str(out)]) == 0
    assert "QuinticX" in cache.read_text()


def test_count_record_keys(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["count", "--family", "Y", "--mu", "0", "--p", "7", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    assert header == "family,params,p,k,q,count,algo,elapsed_ms,status"
    out = tmp_path / "r.json"
    assert run(["count", "--family", "Y", "--mu", "0", "--p", "7", "--out", str(out)]) == 0
    (rec,) = json.loads(out.read_text())["records"]
    assert set(rec) == {
        "family", "params", "p", "k", "q", "count", "algo", "elapsed_ms", "status"
    }
    assert (rec["count"], rec["algo"], rec["status"]) == (400, "table", "ok")
