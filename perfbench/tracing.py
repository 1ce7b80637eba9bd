"""Traced run of one ``mql`` command, and the per-layer metrics of its spans.

Run as a program, this file times a fresh ``import mirrorquintic.cli``,
wraps the public functions of the layer modules (and the few methods listed
in ``METHODS``) in a span recorder, runs the command in this process through
``cli.run`` and writes every span as JSON when the command ends:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json RUN_ID trace --p-range 2..101

A span is ``[name, start_s, end_s, parent, run_id, extra]``: ``parent`` is
the index of the enclosing span (-1 at the top) and ``extra`` is the work
count a probe read from the call, or null.  Each function is replaced in its
own module and under every name that another package module imported it as,
and in module-level dicts such as ``verify.SUITES``, so calls made through
any of those names are recorded.  Generator functions are left unwrapped:
their work runs while the caller iterates, so it stays in the caller's self
time.

``run.py`` imports this module only for ``layer_metrics``, which does not
import the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "ffield",
    "families",
    "mvpoly",
    "counting",
    "singular",
    "symmetry",
    "modularity",
    "verify",
    "cli",
)
# Methods recorded besides the module-level functions: field construction
# and power tables, and the count cache's load, lookup and append.
METHODS = {
    "ffield": {"FieldDescriptor": ("__init__", "power_table")},
    "counting": {"CountCache": ("__init__", "get", "append")},
}
SUITES = ("nodes", "fibers", "groups", "coordchange", "quadric", "ledger", "hecke", "traces")


def _points_evaluated(args, kwargs, result):
    # eval_batch(f, coords, F): one value per broadcast coordinate tuple
    import numpy as np

    coords = args[1] if len(args) > 1 else kwargs["coords"]
    return int(np.broadcast(*coords).size) if len(coords) > 1 else int(coords[0].size)


def _cache_hit(args, kwargs, result):
    return int(result is not None)


def _points_scanned(args, kwargs, result):
    # singular_points(instance): the scan covers all of P^dim(F_q), computed
    # from q and dim rather than counted
    inst = args[0] if args else kwargs["instance"]
    q, dim = inst.field.q, inst.ambient_dim
    return (q ** (dim + 1) - 1) // (q - 1)


PROBES = {
    "mvpoly.eval_batch": _points_evaluated,
    "counting.CountCache.get": _cache_hit,
    "singular.singular_points": _points_scanned,
}

# metric -> (kind, span names); a name ending in ".*" matches a prefix.
# Units are declared with the metric names in BENCHMARK.json.
#   self   sum of self time (span minus its direct child spans), in ms
#   total  sum of inclusive span time, in ms
#   calls  number of spans
#   extra  sum of the probe counts
LAYER_METRICS = {
    "ffield.make_field_ms": ("self", ("ffield.make_field", "ffield.FieldDescriptor.__init__")),
    "ffield.fields_built": ("calls", ("ffield.FieldDescriptor.__init__",)),
    "ffield.power_table_ms": ("self", ("ffield.power_table", "ffield.FieldDescriptor.power_table")),
    "families.build_ms": (
        "self",
        (
            "families.build_family",
            "families.template_system",
            "families.quintic_x",
            "families.quintic_y",
            "families.quadric_q",
            "families.cubics_v",
            "families.cubics_w",
            "families.cubics_wtilde",
            "families.wtilde_from_lambda",
        ),
    ),
    "families.builds": ("calls", ("families.build_family",)),
    "mvpoly.eval_batch_ms": ("self", ("mvpoly.eval_batch",)),
    "mvpoly.eval_batch_calls": ("calls", ("mvpoly.eval_batch",)),
    "mvpoly.points_evaluated": ("extra", ("mvpoly.eval_batch",)),
    "counting.table_ms": ("self", ("counting.count_x_table", "counting.count_y_table")),
    "counting.table_calls": ("calls", ("counting.count_x_table", "counting.count_y_table")),
    "counting.naive_ms": ("self", ("counting.count_naive",)),
    "counting.naive_calls": ("calls", ("counting.count_naive",)),
    "counting.cache_load_ms": ("self", ("counting.CountCache.__init__",)),
    "counting.cache_append_ms": ("self", ("counting.CountCache.append",)),
    "counting.cache_hits": ("extra", ("counting.CountCache.get",)),
    "singular.scan_ms": ("self", ("singular.singular_points",)),
    "singular.points_scanned": ("extra", ("singular.singular_points",)),
    "singular.classify_ms": ("self", ("singular.classify_node",)),
    "singular.classify_calls": ("calls", ("singular.classify_node",)),
    "singular.fiber_ms": ("self", ("singular.preimage_count", "singular.fiber_size_table")),
    "singular.surface_ms": ("self", ("singular.surface_evidence", "singular.quadric_evidence_for_prime")),
    "symmetry.ms": ("self", ("symmetry.*",)),
    "modularity.compare_ms": (
        "self",
        ("modularity.compare_traces", "modularity.trace_x", "modularity.trace_y", "modularity.weil_ok"),
    ),
    "modularity.hecke_ms": ("self", ("modularity.hecke_consistency",)),
    # inclusive, not self, time: the suites break the verify-all command down
    **{f"verify.suite_ms.{s}": ("total", (f"verify.suite_{s}",)) for s in SUITES},
    "cli.self_ms": ("self", ("cli.run", "cli.main")),
}
# Counts that must repeat exactly from one traced command to the next.
REPEATED_COUNTS = (
    "families.builds",
    "mvpoly.eval_batch_calls",
    "counting.table_calls",
    "counting.cache_hits",
    "counting.cache_misses",
)


def _matches(name: str, patterns) -> bool:
    return any(
        name.startswith(p[:-1]) if p.endswith("*") else name == p for p in patterns
    )


def layer_metrics(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one traced command from its spans document."""
    spans = doc["spans"]
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    self_ms, total_ms = defaultdict(float), defaultdict(float)
    calls, extra = Counter(), Counter()
    for i, (name, start, end, _, _, x) in enumerate(spans):
        self_ms[name] += (end - start - child_s[i]) * 1e3
        total_ms[name] += (end - start) * 1e3
        calls[name] += 1
        extra[name] += x or 0
    by_kind = {"self": self_ms, "total": total_ms, "calls": calls, "extra": extra}
    out = {}
    for metric, (kind, patterns) in LAYER_METRICS.items():
        out[metric] = sum(by_kind[kind][n] for n in calls if _matches(n, patterns))
    lookups = calls["counting.CountCache.get"]
    out["counting.cache_misses"] = lookups - out["counting.cache_hits"]
    out["counting.cache_hit_ratio"] = out["counting.cache_hits"] / lookups if lookups else 0.0
    out["cli.import_ms"] = doc["import_ms"]
    return out


class SpanRecorder:
    """Wraps callables so that each call appends one span to ``spans``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, run_id = self.spans, self._stack, self.run_id
        probe = PROBES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, run_id, None]
            if probe is not None:
                try:
                    spans[idx][5] = probe(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                    pass  # the call's signature changed: leave the count out
            return result

        return wrapper

    def install(self, package: str):
        # A layer, class or method that a later version of the program drops
        # is skipped, and the metrics that name it read 0.
        replaced = {}
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{package}.{layer}")
            except ModuleNotFoundError:
                continue
            for attr, obj in list(vars(mod).items()):
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or inspect.isgeneratorfunction(obj)
                ):
                    continue
                replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    if hasattr(cls, meth):
                        fn = self.wrap(f"{layer}.{cls_name}.{meth}", getattr(cls, meth))
                        setattr(cls, meth, fn)
        modules = [m for n, m in sys.modules.items() if n.startswith(package + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
                elif type(obj) is dict:
                    for key, val in obj.items():
                        if id(val) in replaced:
                            obj[key] = replaced[id(val)]


def main(argv: list[str]) -> int:
    spans_path, run_id, cmd = argv[0], argv[1], argv[2:]
    t0 = time.perf_counter()
    import mirrorquintic.cli  # noqa: F401  (timed: a fresh import of the CLI)

    import_ms = (time.perf_counter() - t0) * 1e3
    recorder = SpanRecorder(run_id)
    recorder.install("mirrorquintic")
    try:
        return sys.modules["mirrorquintic.cli"].run(cmd)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"run_id": run_id, "import_ms": import_ms, "spans": recorder.spans},
                fh,
                separators=(",", ":"),
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
