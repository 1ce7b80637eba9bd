"""Exact point counting over F_q: generic enumerator, fast table paths, cache.

count_naive enumerates normalized projective representatives chart by chart
(leading coordinate 1, earlier coordinates 0) and evaluates the defining
system on numpy index arrays; it is the oracle every fast path is tested
against.

count_x_table and count_y_table count the affine cone in two stages and
convert with (N_aff - 1) / (q - 1):

  QuinticX   R[A][B] = #{x0 : x0^5 + A x0 + B = 0} built in O(q^2);
             the (x1..x4) block contributes through R[-5 mu prod, powersum].
  QuinticY   S[T][P] = #{x0 : (x0 + T)^5 = (5 mu)^5 P x0} built in O(q^2);
             the block contributes through S[sum, prod].

The degree-4 block scan is aggregated exactly: a pair histogram D2 over
(pair product, pair powersum) (resp. (pair sum, pair product)) turns the
q^4 tuple scan into integer contractions D2 x D2 against the table, which
is the same accumulation reorganized, still exact int64 throughout.

The cache is an append-only JSON-lines file keyed on
(family, params, p, k, version); hits never recompute.
"""

from __future__ import annotations

import collections
import json
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import CacheCorrupt, InstanceTooLarge, InvariantViolated
from .families import (
    FamilyId,
    FamilyInstance,
    enumerate_points,
    param_string,
    quintic_y,
)
from .ffield import FieldDescriptor
from .mvpoly import eval_batch

NAIVE_CAP = 10**10
TABLE_CAP = 8192
CACHE_VERSION = 1
_CHUNK = 1 << 19


@dataclass
class CountRecord:
    family: str
    params: str
    p: int
    k: int
    count: int
    algo: str
    elapsed_ms: int
    version: int = CACHE_VERSION

    @property
    def q(self) -> int:
        return self.p**self.k

    def cache_key(self) -> tuple:
        return (self.family, self.params, self.p, self.k, self.version)

    def to_json(self) -> str:
        return json.dumps(
            {
                "family": self.family,
                "params": self.params,
                "p": self.p,
                "k": self.k,
                "count": self.count,
                "algo": self.algo,
                "elapsed_ms": self.elapsed_ms,
                "version": self.version,
            },
            sort_keys=True,
        )


@dataclass
class CountTask:
    instance: FamilyInstance
    algo: str = "auto"  # auto | naive | table
    threads: int = 1

    def __post_init__(self):
        if self.threads < 1:
            raise ValueError("thread count must be >= 1")


def projective_size(q: int, dim: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def iter_projective_chunks(F: FieldDescriptor, dim: int, chunk: int = _CHUNK):
    """Stream normalized representatives of P^dim(F_q) as index arrays.

    Chart i fixes x_0 .. x_{i-1} = 0, x_i = 1 and lets the remaining
    coordinates run over all of F_q; the union over charts is exactly one
    representative per point, in a deterministic order.
    """
    q = F.q
    nv = dim + 1
    for i in range(nv):
        free = nv - 1 - i
        size = q**free
        for start in range(0, size, chunk):
            stop = min(start + chunk, size)
            ar = np.arange(start, stop, dtype=np.int64)
            coords: list[np.ndarray] = []
            for j in range(nv):
                if j < i:
                    coords.append(np.zeros(stop - start, dtype=np.int64))
                elif j == i:
                    coords.append(np.ones(stop - start, dtype=np.int64))
                else:
                    shift = q ** (nv - 1 - j)
                    coords.append((ar // shift) % q)
            yield coords


def _zero_mask(instance: FamilyInstance, coords, F) -> np.ndarray:
    mask = np.ones(coords[0].shape, dtype=bool)
    for poly in instance.system.polys:
        mask &= eval_batch(poly.to_field(F), coords, F) == 0
    return mask


def count_naive(instance: FamilyInstance, threads: int = 1) -> CountRecord:
    """Exact projective count by chart enumeration; the reference algorithm."""
    F = instance.field
    t0 = time.perf_counter()
    if instance.system is None:
        n = len(enumerate_points(instance))
    else:
        if F.q ** instance.ambient_dim > NAIVE_CAP:
            raise InstanceTooLarge(
                f"q^dim = {F.q ** instance.ambient_dim} exceeds {NAIVE_CAP}"
            )
        chunks = iter_projective_chunks(F, instance.ambient_dim)

        def on_chunk(coords) -> int:
            return int(_zero_mask(instance, coords, F).sum())

        if threads <= 1:
            n = sum(on_chunk(c) for c in chunks)
        else:
            # At most 2 * threads chunks are alive at once: the next chunk is
            # drawn only after the oldest pending one is done.
            n = 0
            pending = collections.deque()
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for c in chunks:
                    pending.append(pool.submit(on_chunk, c))
                    if len(pending) >= 2 * threads:
                        n += pending.popleft().result()
                n += sum(f.result() for f in pending)
    ms = int(round((time.perf_counter() - t0) * 1000))
    return CountRecord(
        instance.id.value, instance.param_string(), F.p, F.k, n, "naive", ms
    )


# ---------------------------------------------------------------------------
# table algorithms
# ---------------------------------------------------------------------------


def _pair_histogram(F: FieldDescriptor, first, second) -> np.ndarray:
    """Histogram over (first(a, b), second(a, b)) for all pairs of indices."""
    q = F.q
    all_idx = np.arange(q, dtype=np.int64)
    hist = np.zeros(q * q, dtype=np.int64)
    rows_per_block = max(1, _CHUNK // q)
    for start in range(0, q, rows_per_block):
        stop = min(start + rows_per_block, q)
        a = all_idx[start:stop, None]
        b = all_idx[None, :]
        keys = (first(a, b) * q + second(a, b)).ravel()
        hist += np.bincount(keys, minlength=q * q)
    return hist.reshape(q, q)


def _pair_scan(
    F: FieldDescriptor,
    table: np.ndarray,
    d2: np.ndarray,
    row_combine,
    col_combine,
    threads: int = 1,
) -> int:
    """sum over (u1,v1,u2,v2) of d2[u1,v1] d2[u2,v2] table[row(u1,u2), col(v1,v2)].

    Exact int64 contraction: for each u1 the table rows are gathered, the
    u2 axis is contracted by an integer matmul and the v axes by indexed
    sums.  Work is O(q^4) in total, all inside numpy.
    """
    q = F.q
    all_idx = np.arange(q, dtype=np.int64)
    d2t = np.ascontiguousarray(d2.T)
    col_block = max(1, min(q, (1 << 21) // q))

    def run(u_range) -> int:
        sub = 0
        for u1 in u_range:
            w1 = d2[u1]
            if not w1.any():
                continue
            rows = table[row_combine(np.int64(u1), all_idx)]
            v = d2t @ rows  # v[s, B] = sum_p d2[p, s] rows[p, B]
            m = np.empty(q, dtype=np.int64)
            for start in range(0, q, col_block):
                stop = min(start + col_block, q)
                cols = col_combine(all_idx[start:stop, None], all_idx[None, :])
                # gather[v1, s] = v[s, cols[v1, s]], summed over s
                m[start:stop] = v[all_idx[None, :], cols].sum(axis=1)
            sub += int(w1 @ m)
        return sub

    if threads <= 1:
        return run(range(q))
    bounds = np.linspace(0, q, threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(lambda i: run(range(bounds[i], bounds[i + 1])), range(threads))
        )
    return sum(parts)


def _cone_to_projective(n_aff: int, q: int) -> int:
    if (n_aff - 1) % (q - 1) != 0:
        raise InvariantViolated(
            f"affine cone count {n_aff} is not 1 mod (q - 1) = {q - 1}"
        )
    return (n_aff - 1) // (q - 1)


def count_x_table(mu, F: FieldDescriptor, threads: int = 1) -> CountRecord:
    """Table count for QuinticX; equals count_naive on the same instance."""
    if F.q > TABLE_CAP:
        raise InstanceTooLarge(f"table algorithm capped at q <= {TABLE_CAP}")
    t0 = time.perf_counter()
    q = F.q
    mu = F.element(mu)
    c = (-(mu * 5)).index
    fifth = F.power_table(5)
    all_idx = np.arange(q, dtype=np.int64)

    # R[A][B] = #{x0 : x0^5 + A x0 + B = 0}
    r_table = np.zeros((q, q), dtype=np.int64)
    for a in range(q):
        b = F.vneg(F.vadd(fifth[all_idx], F.vmul(np.int64(a), all_idx)))
        r_table[a] = np.bincount(b, minlength=q)

    d2 = _pair_histogram(
        F,
        lambda a, b: F.vmul(a, b),
        lambda a, b: F.vadd(fifth[a], fifth[b]),
    )
    n_aff = _pair_scan(
        F,
        r_table,
        d2,
        row_combine=lambda u1, u2: F.vmul(F.vmul(np.int64(c), u1), u2),
        col_combine=lambda v1, v2: F.vadd(v1, v2),
        threads=threads,
    )
    count = _cone_to_projective(n_aff, q)
    ms = int(round((time.perf_counter() - t0) * 1000))
    return CountRecord(
        FamilyId.QUINTIC_X.value, param_string({"mu": mu}), F.p, F.k, count, "table", ms
    )


def count_y_table(mu, F: FieldDescriptor, threads: int = 1) -> CountRecord:
    """Table count for QuinticY; mu = 0 (or characteristic 5) falls back to
    the naive enumerator because (5 mu)^5 must be invertible."""
    if F.q > TABLE_CAP:
        raise InstanceTooLarge(f"table algorithm capped at q <= {TABLE_CAP}")
    mu = F.element(mu)
    c = (mu * 5) ** 5
    if not c:
        return count_naive(quintic_y(mu, F), threads=threads)
    t0 = time.perf_counter()
    q = F.q
    ci = c.index
    fifth = F.power_table(5)
    inv = F.inv_table
    nonzero = np.arange(1, q, dtype=np.int64)
    inv_cx = inv[F.vmul(np.int64(ci), nonzero)]

    # S[T][P] = #{x0 : (x0 + T)^5 = c P x0}
    s_table = np.zeros((q, q), dtype=np.int64)
    for t in range(q):
        p_idx = F.vmul(fifth[F.vadd(nonzero, np.int64(t))], inv_cx)
        s_table[t] = np.bincount(p_idx, minlength=q)
    s_table[0] += 1  # x0 = 0 solves the equation exactly when T = 0, any P

    d2 = _pair_histogram(
        F,
        lambda a, b: F.vadd(a, b),
        lambda a, b: F.vmul(a, b),
    )
    n_aff = _pair_scan(
        F,
        s_table,
        d2,
        row_combine=lambda u1, u2: F.vadd(u1, u2),
        col_combine=lambda v1, v2: F.vmul(v1, v2),
        threads=threads,
    )
    count = _cone_to_projective(n_aff, q)
    ms = int(round((time.perf_counter() - t0) * 1000))
    return CountRecord(
        FamilyId.QUINTIC_Y.value, param_string({"mu": mu}), F.p, F.k, count, "table", ms
    )


def count(task: CountTask) -> CountRecord:
    """Dispatch a counting task to the requested algorithm.

    "table" is honored for QuinticX and QuinticY up to the table cap; other
    families have no specialized path and run the naive enumerator.
    """
    inst = task.instance
    use_table = task.algo in ("table", "auto") and inst.id in (
        FamilyId.QUINTIC_X,
        FamilyId.QUINTIC_Y,
    )
    if use_table and task.algo == "auto" and inst.field.q > TABLE_CAP:
        use_table = False
    if use_table:
        mu = inst.params["mu"]
        if inst.id is FamilyId.QUINTIC_X:
            return count_x_table(mu, inst.field, threads=task.threads)
        return count_y_table(mu, inst.field, threads=task.threads)
    return count_naive(inst, threads=task.threads)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

_CACHE_KEYS = {"family", "params", "p", "k", "count", "algo", "elapsed_ms", "version"}


class CountCache:
    """Append-only JSON-lines store of CountRecords.

    Malformed lines trigger a CacheCorrupt warning with the line number and
    are skipped; computation proceeds as if they were absent.  One writer
    at a time: the CLI wraps appends in a lock file, library callers must
    not share one cache file between concurrent processes.
    """

    def __init__(self, path):
        self.path = path
        self._records: dict[tuple, CountRecord] = {}
        self._load()

    def _load(self):
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return
        for lineno, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                if set(obj) != _CACHE_KEYS:
                    raise ValueError(f"unexpected keys {sorted(obj)}")
                rec = CountRecord(
                    obj["family"],
                    obj["params"],
                    int(obj["p"]),
                    int(obj["k"]),
                    int(obj["count"]),
                    obj["algo"],
                    int(obj["elapsed_ms"]),
                    int(obj["version"]),
                )
            except (ValueError, KeyError, TypeError) as exc:
                warnings.warn(
                    f"{self.path}: cache line {lineno} is corrupt ({exc}); "
                    "recomputing without it",
                    CacheCorrupt,
                    stacklevel=2,
                )
                continue
            self._records[rec.cache_key()] = rec

    def get(self, key: tuple) -> CountRecord | None:
        return self._records.get(key)

    def append(self, rec: CountRecord):
        self._records[rec.cache_key()] = rec
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(rec.to_json() + "\n")


def count_cached(task: CountTask, cache_path=None) -> CountRecord:
    """Return the cached record for the task's key, else compute and append."""
    if cache_path is None:
        return count(task)
    cache = cache_path if isinstance(cache_path, CountCache) else CountCache(cache_path)
    inst = task.instance
    key = (
        inst.id.value,
        inst.param_string(),
        inst.field.p,
        inst.field.k,
        CACHE_VERSION,
    )
    hit = cache.get(key)
    if hit is not None:
        return hit
    rec = count(task)
    cache.append(rec)
    return rec
