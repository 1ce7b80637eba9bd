"""Benchmark of the ``mql`` command line.

    python3 perfbench/run.py --workload trace-cold --seed 1 --seconds 25 --trace 0

Each timed repetition runs one real ``mql`` command as a fresh child
process, one child at a time, with the CLI default ``--threads 1``, because
users pay for imports, field tables and ``make_field``'s cache on every call.

  trace-cold  mql trace --p-range 2..101 --cache <new empty file> --out <csv>
  trace-warm  the same command against a new copy of a cache filled during
              set-up, with seeded history records in a seeded line order
  verify-all  mql verify --suite all

With ``--trace 0`` it reports, from outside the child, the medians over the
repetitions of wall time, user+sys CPU time (``os.wait4``) and peak RSS,
plus the median of several set-ups; the times are in seconds at reference
speed (see ``SpeedProbe``).  With ``--trace 1`` it alternates
untraced repetitions with traced ones (``tracing.py``) and reports the
per-layer metrics of the traced runs and the tracing overhead.  Every
repetition's output is checked; a wrong output counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
give the provenance and each metric with its sample count.  The full record
(provenance, every sample) goes to ``perfbench/results/``, with the spans of
the last traced command.  The metric names and units are those declared in
``BENCHMARK.json``; README.md says which layer metric should move which
end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
RESULTS = BENCH / "results"
REFERENCE_CSV = BENCH / "reference" / "trace-2-101.csv"

TRACE_ARGS = ["trace", "--p-range", "2..101"]
VERIFY_ARGS = ["verify", "--suite", "all"]
VERIFY_PASS_ROWS = 51
SETUPS = 3  # set-ups per untraced run; setup_s is their median
RUN_LIMIT_S = 170.0  # every child is killed past this many seconds into the run
# The speed of each vCPU drifts by tens of percent over seconds to minutes,
# independently of the other vCPU.  So the benchmark and its children run on
# one vCPU, a probe thread times a fixed interpreter loop on that vCPU every
# PROBE_EVERY_S seconds, and each timed step is reported in seconds at
# reference speed: measured seconds * PROBE_REF_S / (mean probe time during
# the step).  The probe takes under 2% of the vCPU.  PROBE_REF_S is the
# loop's typical time on the 2-vCPU Xeon the bounds in BENCHMARK.json were
# set on.
PROBE_EVERY_S = 0.25
PROBE_REF_S = 0.004
# What the installed ``mql`` entry point runs.
MQL = ["-c", "from mirrorquintic.cli import main; main()"]


class SetupFailed(Exception):
    pass


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    stdout: str
    traced: bool = False
    start: float = 0.0  # perf_counter at spawn and at reaping
    end: float = 0.0
    ok: bool = False
    speed: float = 1.0  # SpeedProbe.speed over [start, end]
    layers: dict = field(default_factory=dict)


class SpeedProbe(threading.Thread):
    """Times a fixed interpreter loop, in thread CPU time, every PROBE_EVERY_S.

    Thread CPU time leaves out the time the loop waits while a child holds
    the shared vCPU.  The loop is pure Python so that the benchmark process
    stays small: a child's peak RSS from ``wait4`` can include its parent's.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.stopped = threading.Event()
        self.samples: list[tuple[float, float]] = []  # (perf_counter, loop CPU s)

    @staticmethod
    def _loop():
        table: dict = {}
        for i in range(12000):
            key = (i % 97, i % 89)
            table[key] = table.get(key, 0) + i * i % 7

    def run(self):
        self._loop()  # warm-up pass
        while not self.stopped.wait(PROBE_EVERY_S):
            t0 = time.thread_time()
            self._loop()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def speed(self, start: float, end: float) -> float:
        """Mean loop time over [start, end], widened by one period, / PROBE_REF_S."""
        lo, hi = start - PROBE_EVERY_S, end + PROBE_EVERY_S
        window = [d for t, d in self.samples if lo <= t <= hi]
        if not window and self.samples:
            window = [min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return statistics.mean(window) / PROBE_REF_S if window else 1.0


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("MQL_CACHE", None)  # only the --cache flags below may name a cache
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


ENV = _child_env()


def run_child(cmd_args, cwd: Path, deadline: float, traced: bool = False) -> Sample:
    """Run ``python3 <cmd_args>`` in ``cwd``; time it and read its rusage."""
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *cmd_args], cwd=cwd, env=ENV, stdout=out, stderr=err
        )
        killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            killer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    return Sample(
        t1 - t0,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024,
        proc.returncode,
        out_path.read_text(encoding="utf-8", errors="replace"),
        traced,
        t0,
        t1,
    )


class TraceCold:
    """North-star trace into a new empty cache: counting does the work."""

    def __init__(self):
        self.reference = REFERENCE_CSV.read_bytes()

    def setup(self, work: Path, seed: int, deadline: float):
        return None

    def prepare(self, state, rep: Path) -> list[str]:
        cache = rep / "counts.jsonl"
        cache.touch()
        return TRACE_ARGS + ["--cache", str(cache), "--out", str(rep / "traces.csv")]

    def check(self, sample: Sample, rep: Path) -> bool:
        # byte-identical to the reference, hence to every other trace run
        csv = rep / "traces.csv"
        return sample.code == 0 and csv.is_file() and csv.read_bytes() == self.reference


class TraceWarm(TraceCold):
    """The same trace against a pre-filled cache: the cache only reads."""

    # History sweeps count over the trace's primes (5 is left out) with mu
    # drawn from the primes in (101, 10^4), so no (5 mu)^5 reduces to 0 and
    # no count falls back to the naive enumerator.
    MU_CHOICES = [n for n in range(103, 10**4) if all(n % d for d in range(2, int(n**0.5) + 1))]
    SWEEP_RANGES = ("2..3", "7..101")

    def setup(self, work: Path, seed: int, deadline: float) -> Path:
        fill = work / "fill.jsonl"
        fill.touch()
        cold = run_child(
            MQL + TRACE_ARGS + ["--cache", str(fill), "--out", str(work / "traces.csv")],
            work,
            deadline,
        )
        if not self.check(cold, work):
            raise SetupFailed("the trace that fills the warm cache failed or differs")
        rng = random.Random(seed)
        for family in ("X", "Y"):
            mu = str(rng.choice(self.MU_CHOICES))
            for primes in self.SWEEP_RANGES:
                sweep = run_child(
                    MQL
                    + ["count", "--family", family, "--mu", mu, "--p-range", primes]
                    + ["--cache", str(fill), "--out", str(work / "count.json")],
                    work,
                    deadline,
                )
                if sweep.code != 0:
                    raise SetupFailed(f"mql count --family {family} --mu {mu} failed")
        lines = fill.read_text(encoding="utf-8").splitlines(keepends=True)
        rng.shuffle(lines)
        warm = work / "warm.jsonl"
        warm.write_text("".join(lines), encoding="utf-8")
        return warm

    def prepare(self, warm: Path, rep: Path) -> list[str]:
        cache = rep / "counts.jsonl"
        shutil.copyfile(warm, cache)
        return TRACE_ARGS + ["--cache", str(cache), "--out", str(rep / "traces.csv")]


class VerifyAll:
    """Every verification suite: families, mvpoly and singular do the work."""

    def setup(self, work: Path, seed: int, deadline: float):
        return None

    def prepare(self, state, rep: Path) -> list[str]:
        return list(VERIFY_ARGS)

    def check(self, sample: Sample, rep: Path) -> bool:
        rows = sample.stdout.splitlines()
        passed = sum(1 for r in rows if r.startswith("PASS "))
        failed = sum(1 for r in rows if r.startswith("FAIL "))
        return sample.code == 0 and passed == VERIFY_PASS_ROWS and failed == 0


WORKLOADS = {"trace-cold": TraceCold, "trace-warm": TraceWarm, "verify-all": VerifyAll}


def measure(
    name: str, wl, state, work: Path, seconds: float, trace: bool, deadline: float
) -> list[Sample]:
    """Repeat the workload's command for about ``seconds``, one child at a time.

    A round is one untraced command, followed by one traced command when
    ``trace`` is set.  Rounds go on while the next one is expected to end
    within ``seconds``; the first round always runs.  Measuring stops at the
    first wrong output.
    """
    samples: list[Sample] = []
    start = time.perf_counter()
    rounds = 0
    while True:
        for traced in (False, True) if trace else (False,):
            rep = work / f"rep{len(samples)}"
            rep.mkdir()
            args = wl.prepare(state, rep)
            spans = rep / "spans.json"
            cmd = [str(BENCH / "tracing.py"), str(spans), rep.name, *args] if traced else MQL + args
            sample = run_child(cmd, rep, deadline, traced)
            sample.ok = wl.check(sample, rep)
            if traced and sample.ok:
                doc = json.loads(spans.read_text(encoding="utf-8"))
                sample.layers = tracing.layer_metrics(doc)
                RESULTS.mkdir(exist_ok=True)
                shutil.move(spans, RESULTS / f"{name}.spans.json")
            shutil.rmtree(rep)
            samples.append(sample)
        rounds += 1
        now = time.perf_counter()
        per_round = (now - start) / rounds
        if (
            not all(s.ok for s in samples)
            or now - start + per_round > seconds
            or now + per_round > deadline
        ):
            return samples


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(samples: list[Sample], setup_times: list[float]) -> dict:
    plain = [s for s in samples if not s.traced]
    return {
        "setup_s": _median(setup_times),
        "wall_s": _median([s.wall_s / s.speed for s in plain]),
        "cpu_s": _median([s.cpu_s / s.speed for s in plain]),
        "peak_rss_mb": _median([s.peak_rss_mb for s in plain]),
    }


def per_layer(samples: list[Sample]) -> dict:
    traced = [s for s in samples if s.traced and s.layers]
    plain = [s for s in samples if not s.traced]
    out = {k: _median([s.layers[k] for s in traced]) for k in traced[0].layers} if traced else {}
    out["trace_overhead_s"] = _median([s.wall_s / s.speed for s in traced]) - _median(
        [s.wall_s / s.speed for s in plain]
    )
    out["fail_ratio"] = sum(not s.ok for s in samples) / len(samples)
    return out


def counts_repeat(workload: str, samples: list[Sample]) -> bool:
    """The traced counts agree across this run's traced commands and with
    the last traced run of the same workload on the same source tree."""
    counts = [{k: s.layers[k] for k in tracing.REPEATED_COUNTS} for s in samples if s.layers]
    if not counts:
        return True
    state = RESULTS / f"counts-{workload}-{source_digest()[:16]}.json"
    if state.is_file():
        counts.append(json.loads(state.read_text(encoding="utf-8")))
    else:
        RESULTS.mkdir(exist_ok=True)
        state.write_text(json.dumps(counts[0], sort_keys=True), encoding="utf-8")
    if any(c != counts[0] for c in counts):
        print(f"traced counts differ between runs: {counts}", file=sys.stderr)
        return False
    return True


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int, nproc: int, cpu: int, numpy_version: str, load_before, load_after) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            got = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
            )
            commit = got.stdout.strip() or None
        except OSError:
            pass
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.machine(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = _read(index / "level").strip()
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(index / "size").strip()
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "seed": seed,
        "nproc": nproc,
        "pinned_cpu": cpu,
        "cpu_model": model,
        "l2_cache": caches.get("L2"),
        "l3_cache": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "overloaded": max(load_before[0], load_after[0]) > nproc,
    }


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "mirrorquintic" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'mirrorquintic'} is missing", file=sys.stderr)
        return 2
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[0]})  # inherited by every child and the probe
    probe = SpeedProbe()
    probe.start()
    wl = WORKLOADS[args.workload]()
    (BENCH / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        load_before = os.getloadavg()
        setups = []  # (start, end) of each set-up
        for i in range(1 if args.trace else SETUPS):
            d = work / f"setup{i}"
            d.mkdir()
            t0 = time.perf_counter()
            check = run_child(["-c", "import mirrorquintic.cli, numpy; print(numpy.__version__)"], d, deadline)
            if check.code != 0:
                raise SetupFailed("mirrorquintic.cli does not import")
            state = wl.setup(d, args.seed, deadline)
            setups.append((t0, time.perf_counter()))
        samples = measure(
            args.workload, wl, state, work, args.seconds, bool(args.trace), deadline
        )
        load_after = os.getloadavg()
        time.sleep(2 * PROBE_EVERY_S)  # let the probe cover the end of the last step
    except SetupFailed as exc:
        print(f"set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        probe.stopped.set()
        probe.join()
        shutil.rmtree(work, ignore_errors=True)
    for s in samples:
        s.speed = probe.speed(s.start, s.end)
    setup_times = [(end - start) / probe.speed(start, end) for start, end in setups]

    values = per_layer(samples) if args.trace else end_to_end(samples, setup_times)
    units = declared_units(bool(args.trace))
    failed = sum(not s.ok for s in samples)
    if failed:  # a failed traced command leaves no spans to read
        values = {k: values.get(k, 0.0) for k in units}
    if values.keys() != units.keys():
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(values.keys() ^ units.keys())}")
    correct = failed == 0 and counts_repeat(args.workload, samples)
    prov = provenance(args.seed, len(cpus), cpus[0], check.stdout.strip(), load_before, load_after)
    n_plain = sum(not s.traced for s in samples)
    n_traced = len(samples) - n_plain
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": prov,
        "setup_s": setup_times,
        "samples": [
            {k: v for k, v in vars(s).items() if k != "stdout"} for s in samples
        ],
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": prov}))
    if prov["overloaded"]:
        print(f"warning: load average exceeded the {prov['nproc']} cores during this run")
    for name, value in values.items():
        n = len(setup_times) if name == "setup_s" else n_traced if args.trace else n_plain
        print(f"{name}: {value} {units[name]} (median of {n})")
    if not args.trace:
        raw = _median([s.wall_s for s in samples])
        print(f"raw wall seconds, not scaled to reference speed: median {raw}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(samples),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
