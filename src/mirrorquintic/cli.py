"""Command-line driver: counting runs, trace tables, verification suites.

Subcommands

  count        count points on one family over F_(p^k)
                 mql count --family X --mu 1 --p 11 --algo table
  trace        trace records for the mu = 1 pair over a prime range; a range
               skips p = 5 (bad reduction), and --p 5 is a usage error, as
               is a prime whose count counting.check_size refuses
                 mql trace --p-range 2..101 --cache counts.jsonl --out traces.csv
  verify       run a named check suite and print a pass/fail table
                 mql verify --suite groups
  ledger-dump  write the recorded constant table as JSON

Exit codes: 0 success, 1 any failed verification or record, 2 usage error.
count and trace read and append to a count cache, a JSON-lines file:
MQL_CACHE supplies a default path, and an explicit --cache flag wins.
verify takes no cache and computes every count it checks.  Reports are
single JSON envelopes (or CSV for traces).  With a warm cache and a fixed
configuration, reruns produce byte-identical reports: the envelope's
elapsed_ms is the sum of the per-record values, which cache hits preserve.

Each subcommand imports only the layers it runs.  Importing this module
loads the fields, families, counting, traces and the ledger they read;
count, trace and ledger-dump need nothing more (numpy executes at the
first computed count, MPoly is never loaded).  verify imports the verify
stack (singular, symmetry) inside _cmd_verify, and MPoly loads only for a
suite that reads a symbolic system.  The --suite choices read
verify.SUITES only when a value is checked or the help is printed.
main, the mql entry point, flushes stdout and stderr and ends the process
with os._exit, skipping the interpreter's teardown, unless a flush fails
or a tracer or profiler is installed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .counting import ALGOS, CountCache, CountRecord, check_size, count
from .errors import InstanceTooLarge, MirrorQuinticError
from .families import FamilyId, build_family, param_names, quintic_x
from .ffield import is_prime, make_field
from .ledger import recorded_dataset
from .modularity import TraceRecord, compare_traces, good_primes

_FAMILY_FLAGS = {
    "X": FamilyId.QUINTIC_X,
    "Y": FamilyId.QUINTIC_Y,
    "Q": FamilyId.QUADRIC_Q,
    "V": FamilyId.CUBICS_V,
    "W": FamilyId.CUBICS_W,
    "Wt": FamilyId.CUBICS_WTILDE,
}

# the family parameters in table order (mu, lam, nu); the flag of each is
# --<name>, except --lambda for lam
_PARAMS = list(
    dict.fromkeys(name for fid in _FAMILY_FLAGS.values() for name in param_names(fid))
)


def _param_flag(name: str) -> str:
    return "--lambda" if name == "lam" else f"--{name}"


# a count report row: the CountRecord fields without the cache version, with
# q after k, and a status
_RECORD_FIELDS = [name for name in CountRecord._fields if name != "version"]
_COUNT_COLUMNS = _RECORD_FIELDS[:4] + ["q"] + _RECORD_FIELDS[4:] + ["status"]

TRACE_COLUMNS = list(TraceRecord._fields)

# the options that several subcommands share; each takes only those it reads
_SHARED_OPTIONS = {
    "--cache": {"default": None, "help": "JSON-lines count cache path"},
    "--out": {"default": None, "help": "report output path (default stdout)"},
    "--format": {"choices": ["json", "csv"], "default": None},
}


class _UsageError(Exception):
    pass


class _SuiteChoices:
    """The --suite choices, the keys of verify.SUITES and "all", read when
    argparse first checks a value or formats the help, so that building
    the parser imports nothing of the verify stack."""

    def __iter__(self):
        from .verify import SUITES

        return iter([*SUITES, "all"])

    def __contains__(self, name) -> bool:
        return name in list(self)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mql",
        description="point counts, traces and verification for the quintic "
        "mirror pair over finite fields",
    )
    parser.add_argument("--version", action="version", version=f"mql {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, *flags):
        for flag in flags:
            p.add_argument(flag, **_SHARED_OPTIONS[flag])

    pc = sub.add_parser("count", help="count points on one family")
    pc.add_argument("--family", choices=sorted(_FAMILY_FLAGS), required=True)
    for name in _PARAMS:
        pc.add_argument(_param_flag(name), dest=name, type=int, default=None)
    pc.add_argument("--p", type=int, default=None)
    pc.add_argument("--p-range", default=None, metavar="A..B")
    pc.add_argument("--ext", type=int, default=1, help="extension degree k")
    pc.add_argument("--algo", choices=ALGOS, default="table")
    shared(pc, *_SHARED_OPTIONS)

    pt = sub.add_parser("trace", help="trace records over a prime range")
    pt.add_argument("--p", type=int, default=None)
    pt.add_argument("--p-range", default=None, metavar="A..B")
    pt.add_argument("--algo", choices=ALGOS, default="table")
    shared(pt, *_SHARED_OPTIONS)

    pv = sub.add_parser("verify", help="run a named verification suite")
    # set after add_argument, which would otherwise format (so read) the
    # choices to check the metavar
    pv.add_argument("--suite", required=True).choices = _SuiteChoices()
    pv.add_argument("--p-max", type=int, default=101, help="prime bound for traces")
    pv.add_argument("--long", action="store_true", help="include long-running checks")
    shared(pv, "--out")

    pl = sub.add_parser("ledger-dump", help="dump the recorded constant table")
    shared(pl, "--out")
    return parser


def _prime_bounds(args) -> tuple[int, int]:
    """(a, b) of --p-range a..b, or (p, p) for a prime --p."""
    if args.p is not None and args.p_range is not None:
        raise _UsageError("use either --p or --p-range, not both")
    if args.p is not None:
        if not is_prime(args.p):
            raise _UsageError(f"--p {args.p} is not prime")
        return args.p, args.p
    if args.p_range is not None:
        try:
            lo, hi = args.p_range.split("..")
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise _UsageError(f"--p-range must look like 2..101, got {args.p_range!r}") from exc
        if lo < 2 or hi < lo:
            raise _UsageError("--p-range bounds must satisfy 2 <= a <= b")
        return lo, hi
    raise _UsageError("one of --p or --p-range is required")


def _check_reach(lo: int, hi: int, algo: str):
    """Refuse, before any count, a range whose largest prime's mu = 1
    quintic X the algo's count would refuse.  The prime is found by
    stepping down from hi, so a long range is never listed."""
    top = next((p for p in range(hi, lo - 1, -1) if is_prime(p)), None)
    if top is None:
        return
    try:
        check_size(quintic_x(1, make_field(top)), algo)
    except InstanceTooLarge as exc:
        raise _UsageError(f"p = {top}: {exc}") from exc


def _parse_primes(args) -> list[int]:
    lo, hi = _prime_bounds(args)
    return [p for p in range(lo, hi + 1) if is_prime(p)]


def _check_file_path(path: str, what: str):
    """Refuse, as a usage error raised before any count, a file path that
    is empty, is a directory or whose directory does not exist."""
    if not path:
        raise _UsageError(f"{what} path {path!r} is empty")
    if os.path.isdir(path):
        raise _UsageError(f"{what} path {path!r} is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise _UsageError(f"{what} path {path!r}: directory {parent!r} does not exist")


def _open_cache(args) -> CountCache | None:
    """The --cache file, else the MQL_CACHE one; None when neither is set
    (an empty MQL_CACHE is unset, an empty --cache a usage error).

    A path that exists but is not a regular file (a device, a FIFO) is a
    usage error before any read: reading one may never end.
    """
    path = (os.environ.get("MQL_CACHE") or None) if args.cache is None else args.cache
    if path is None:
        return None
    _check_file_path(path, "cache")
    if os.path.exists(path) and not os.path.isfile(path):
        raise _UsageError(f"cache path {path!r} is not a regular file")
    return CountCache(path)


def _emit(text: str, out_path):
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _envelope(config: dict, records: list[dict]) -> str:
    env = {
        "tool": "mql",
        "version": __version__,
        "config": config,
        "records": records,
        "elapsed_ms": sum(r.get("elapsed_ms", 0) for r in records),
    }
    return json.dumps(env, indent=2, sort_keys=True) + "\n"


def _report(args, columns: list[str], records: list[dict]):
    """Emit the records as CSV (the columns, booleans as true/false) when
    --format csv is given or the out path ends in .csv, else as an envelope."""
    fmt = args.format or ("csv" if args.out and str(args.out).endswith(".csv") else "json")
    if fmt == "json":
        _emit(_envelope(_config_echo(args), records), args.out)
        return
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in records:
        values = (r.get(c, "") for c in columns)
        writer.writerow(str(v).lower() if isinstance(v, bool) else v for v in values)
    _emit(buf.getvalue(), args.out)


def _cmd_count(args) -> int:
    fid = _FAMILY_FLAGS[args.family]
    params = {name: getattr(args, name) for name in param_names(fid)}
    for name in _PARAMS:
        if getattr(args, name) is not None and name not in params:
            flag = _param_flag(name)
            raise _UsageError(f"--family {args.family} does not take {flag}")
    for name, val in params.items():
        if val is None:
            raise _UsageError(f"--family {args.family} requires {_param_flag(name)}")
    if not 1 <= args.ext <= 4:
        raise _UsageError("--ext must be in [1, 4]")
    primes = _parse_primes(args)
    cache = _open_cache(args)
    records = []
    failures = 0
    for p in primes:
        try:
            inst = build_family(fid, params, make_field(p, args.ext))
            rec = count(inst, args.algo, cache)
            row = {c: getattr(rec, c) for c in _COUNT_COLUMNS[:-1]}
            records.append({**row, "status": "ok"})
        except MirrorQuinticError as exc:
            failures += 1
            records.append(
                {"family": fid.value, "p": p, "k": args.ext, "status": f"error: {exc}"}
            )
    _report(args, _COUNT_COLUMNS, records)
    return 1 if failures else 0


def _config_echo(args) -> dict:
    skip = {"command"}
    return {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }


def _cmd_trace(args) -> int:
    # a range skips the bad prime; --p 5 is a usage error
    lo, hi = _prime_bounds(args)
    _check_reach(lo, hi, args.algo)
    primes = good_primes(lo, hi)
    if args.p is not None and not primes:
        raise _UsageError(
            f"--p {args.p}: the quintic pair has bad reduction at 5, so it has no traces"
        )
    cache = _open_cache(args)
    records = []
    for p in primes:
        rec = compare_traces(p, cache=cache, algo=args.algo)
        row = rec._asdict()
        row["status"] = "ok" if (rec.weil_ok and rec.match_ok) else "failed"
        records.append(row)
    _report(args, TRACE_COLUMNS, records)
    return 0 if all(r["status"] == "ok" for r in records) else 1


def _cmd_verify(args) -> int:
    from .verify import run_suite

    # the traces suite counts with the table up to --p-max
    if args.suite in ("traces", "all"):
        _check_reach(2, args.p_max, "table")
    results = run_suite(args.suite, long_run=args.long, p_max=args.p_max)
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        detail = f"  [{r.detail}]" if r.detail else ""
        lines.append(f"{status}  {r.name:<{width}}{detail}")
    n_fail = sum(1 for r in results if not r.passed)
    lines.append(
        f"{len(results) - n_fail}/{len(results)} checks passed"
        + (f", {n_fail} FAILED" if n_fail else "")
    )
    text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    if args.out is not None:
        sys.stdout.write(text)
    return 0 if n_fail == 0 else 1


def _cmd_ledger_dump(args) -> int:
    text = json.dumps(recorded_dataset(), indent=2, sort_keys=True) + "\n"
    _emit(text, args.out)
    return 0


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        if getattr(args, "p_max", 2) < 2:
            raise _UsageError("--p-max must be at least 2")
        if args.out is not None:
            _check_file_path(args.out, "output")
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "ledger-dump":
            return _cmd_ledger_dump(args)
        return 2
    except _UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    except MirrorQuinticError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def _observed() -> bool:
    """Whether a tracer or profiler is installed, which may write its data
    after main returns or at exit (coverage, python -m cProfile)."""
    if sys.gettrace() is not None or sys.getprofile() is not None:
        return True
    monitoring = getattr(sys, "monitoring", None)  # Python >= 3.12
    return monitoring is not None and any(
        monitoring.get_tool(tool) is not None for tool in range(6)
    )


def main():
    """The mql entry point: run sys.argv and end the process with its code.

    main ends the process, usually without raising SystemExit, so tests
    call it in a subprocess and never in-process.
    """
    code = run(sys.argv[1:])
    # Interpreter teardown frees numpy and every module one object at a
    # time, and the OS reclaims all of that memory anyway.  It is safe to
    # skip once stdout and stderr are flushed: run has closed --out in
    # _emit, the cache writes unbuffered through os.write, and no module
    # starts a thread or registers an atexit hook.  A failed flush, or a
    # tracer or profiler, takes the ordinary exit.
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except OSError:
        sys.exit(code)
    if _observed():
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
