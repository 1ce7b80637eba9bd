"""Exact point counting over F_q: generic enumerator, fast table path, cache.

count(instance, algo, cache) is the one entry point: it returns a
cached record when the cache holds one and otherwise runs count_table
("table", QuinticX and QuinticY only) or count_naive.  Both take a
FamilyInstance and first call check_size, the one statement of the size
limits: q^dim <= NAIVE_CAP = 10^10 for count_naive and q <= TABLE_CAP for
count_table.  Anything that must refuse an instance before counting it
(the CLI's trace and verify --p-max) calls check_size too.

count_naive enumerates normalized projective representatives chart by chart
(leading coordinate 1, earlier coordinates 0) in broadcastable grid blocks
of at most _CHUNK points (iter_projective_chunks, which every walk over
projective space shares, the singular scans included) and evaluates the
defining system on them through FamilyInstance.vanishing_mask, in the
compact form the family's builder writes.  It is the oracle every fast
path is tested against; the table path below uses no builder.
points(instance) is the same walk keeping the rows: every point of the
instance as an (n, nvars) index array, and, walking one point per orbit
of the instance's blocks, the zeros that singular.singular_points ranks.

count_table runs one engine for both quintics, which are

  h(x0, V) = k x0 U,   h(x0, V) = (x0^e + V)^(5/e),   k = (5 mu)^(5/e),

with U = x1 x2 x3 x4 and V = x1^e + ... + x4^e: e = 5 for QuinticX and
e = 1 for QuinticY.  The (x1..x4) block is aggregated through a pair
histogram D2 over (pair product, pair key sum).  The block histogram is
D4 = D2 * D2, a convolution on (F_q, x) x (F_q, +), and the affine cone
count reads D4 where each (x0, V) lands, in O(q^2): an x0 with
k x0 != 0 solves h(x0, V) = k x0 U for one U and adds D4[U, V], and an
x0 with k x0 = 0 (x0 = 0, or every x0 when k = 0: mu = 0 or
characteristic 5) solves it for every U when h(x0, V) = 0, that is when
V = -x0^e, and adds D4's column sum there.  The projective count is
(N_aff - 1) / (q - 1).
D2 and D4 hold the product U in the product layout: row t is the unit
g^t and row q - 1 is 0 (F.log_table), so their unit rows are in
discrete-logarithm order.  _square computes D4 with one float64 FFT over
Z/(q - 1) x (Z/p)^k (F_q^* by discrete logarithm, F_q by its base-p
digits), O(q^2 log q); the zero row's spectrum is read off that
spectrum's product-frequency-0 slice and transformed back on the
k additive axes alone.  Every entry is rounded to int64.  At most three
q x q arrays of 8-byte entries (or half-length spectra of 16-byte ones)
are alive at once.

The rounding is exact while the float error stays below 1/2.  To first
order, the error of a square z = x * x of a nonnegative array through an
FFT of size N is at most (3 eta log2 N + u) ||x||_1 ||x||_2: the forward
transform, the product and the inverse transform each add a relative
2-norm error of at most eta log2 N (Higham, "Accuracy and Stability of
Numerical Algorithms", Thm 24.2), with u = 2^-53 and eta = 7u.  That eta is
the radix-2 constant; numpy's mixed-radix and Bluestein passes are taken to
stay within it, which the residual check below watches.  D2 counts q^2
pairs, so ||x||_2 <= ||x||_1 <= q^2, and the worst case is
fft_error_bound(q) = (3 eta log2(q (q - 1)) + u) q^4, about
21 u q^4 log2 N.  check_size refuses a table count with InstanceTooLarge
unless that bound is below 1/4 (q <= TABLE_CAP = 1500).  A count at
q = 1499 peaks at about 24 q^2 bytes of arrays (54 MB) and takes about a
third of a second; numpy's fixed 128 KB of iterator buffers take smaller
fields higher, to 31 q^2 at q = 101 and 29 q^2 over F_121 and F_125.
Two checks guard the result at run time: every
rounded entry must lie within 1/4 of an integer, and the cone count must
be 1 mod (q - 1); either failure raises InvariantViolated.  The observed
residual is about 1e-8 at q = 1499.  Everything after rounding is int64.

The cache is an append-only JSON-lines file keyed on
(family, params, p, k, version), by _cache_key; hits never recompute.
The CountRecord fields are its one schema: to_json writes them and
from_json reads them back, refusing any other keys or value types.  Each
append is one write under an exclusive flock on the cache file, so
concurrent writers, in one process or many, never interleave lines.
"""

from __future__ import annotations

import fcntl
import functools
import itertools
import json
import math
import os
import time
import typing
import warnings

from ._lazy import lazy_numpy
from .errors import CacheCorrupt, InstanceTooLarge, InvariantViolated
from .families import FamilyId, FamilyInstance
from .ffield import FieldDescriptor

np = lazy_numpy()

NAIVE_CAP = 10**10
CACHE_VERSION = 1
# points per grid block of iter_projective_chunks, the one block size of
# every walk over P^dim: count_naive, points (and through it the singular
# scans), fiber_size_table and the quadric surface.  Blocks are filled to
# it, so it sets their size.
# Counts: at 2^19, X over F_101 ran in blocks of 520251 points and took
# 1.7-2.0 s against 1.0-1.4 s in blocks of 10201, with 11 MB more peak
# RSS.  2^14 gives those 10201-point blocks back, and a naive trace of
# 2..73 took 5.6-5.8 s against 5.5-5.6 s with one split value per block
# at 2^19, at 29 instead of 40 MB peak RSS (2-core x86-64 box).
# Scans: a group of interchangeable coordinates is one axis on which each
# of its coordinates is a whole array, so a scan block costs more memory
# per point.  At 2^14, X over F_41 is scanned in 13 blocks, X and Y over
# F_31 in 7, CubicsV over F_13 in 8, and the quadric surface's P^3 over
# F_41 in 8 (chart 0 in 5 runs of 9 values of x1, 15129 points each);
# with one value of the split group per block at 2^15 the same scans took
# 45, 35, 18 and 44 blocks of at most 12341 points.  Filled to 2^15, the
# blocks raised verify-all's peak RSS by about 1 MB; filled to 2^14 the
# F_31 censuses peak about 0.1-0.2 MB above the one-value blocks
# (tracemalloc) and verify-all's peak RSS does not rise.  Unfilled, one
# block per chart (2^19) had cost 6.5 MB, and the quadric's one
# 68921-point chart-0 block 2 MB.
_CHUNK = 1 << 14
# pairs per block of a table count's pair histogram
_HISTOGRAM_CHUNK = 1 << 19
_UNIT_ROUNDOFF = 2.0**-53
_FFT_ETA = 7 * _UNIT_ROUNDOFF
_ROUNDING_MARGIN = 0.25
TABLE_CAP = 1500  # the largest q with fft_error_bound(q) < _ROUNDING_MARGIN

# the names count() takes for its algorithm, and the --algo choices
ALGOS = ("naive", "table")


def fft_error_bound(q: int) -> float:
    """Worst-case absolute float64 error of the block convolution over F_q."""
    log_n = math.log2(q * (q - 1))
    return (3 * _FFT_ETA * log_n + _UNIT_ROUNDOFF) * float(q) ** 4


class CountRecord(typing.NamedTuple):
    """One count, as the cache stores it and count() returns it.

    An immutable tuple whose fields are the cache schema: to_json writes
    them as one JSON object with sorted keys, and from_json reads exactly
    them back.
    """

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
        return _cache_key(self.family, self.params, self.p, self.k, self.version)

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "CountRecord":
        """Parse one cache line; ValueError or TypeError unless it holds
        exactly the record's fields, each of its declared type."""
        obj = json.loads(line)
        if set(obj) != set(_RECORD_TYPES):
            raise ValueError(f"unexpected keys {sorted(obj)}")
        for name, typ in _RECORD_TYPES.items():
            if type(obj[name]) is not typ:
                raise ValueError(f"{name} = {obj[name]!r} is not {typ.__name__}")
        return cls(**obj)


_RECORD_TYPES = typing.get_type_hints(CountRecord)  # field name -> type


def _cache_key(family: str, params: str, p: int, k: int, version: int = CACHE_VERSION) -> tuple:
    """The key of a count in the cache: every record field but the count,
    its algo and its elapsed_ms."""
    return (family, params, p, k, version)


def projective_size(q: int, dim: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def iter_projective_chunks(F: FieldDescriptor, dim: int, blocks: tuple = ()):
    """Stream normalized representatives of P^dim(F_q) as broadcastable grid
    blocks: one index array (or scalar) per coordinate.

    Chart i fixes x_0 .. x_{i-1} = 0, x_i = 1 and lets the remaining
    coordinates run over F_q.  ``blocks`` lists disjoint tuples of
    interchangeable coordinates, and a coordinate in none of them is a block
    of its own (the default).  In chart i the free coordinates of a block
    form a group, and a group of k runs over the nondecreasing k-tuples
    only, C(q + k - 1, k) of them in lexicographic order: every point of
    the chart is a permutation inside its blocks of exactly one
    representative.  A group is one broadcast axis shared by its
    coordinates, coordinate j of shape (1, ..., n, ..., 1), or scalars.
    The trailing groups are axes, as many as keep the block to at most
    _CHUNK points.  Of the leading groups, all but the last are scalars;
    the last is an axis too, cut into consecutive runs of its sorted
    k-tuples (_tuple_run), so that every block of a prefix but its last
    holds exactly _CHUNK // points tuples, where points is the size of the
    trailing axes.

    With the default blocks every group is one coordinate, an arange axis
    or a scalar, so a power of x_j is a lookup on at most q values and only
    the last operations of an equation run over the whole block.  Broadcast
    together and raveled in C order, those blocks list exactly one
    representative per point, chart by chart, each chart in the order of
    its free coordinates read as base-q digits.  The sorted-tuple tables
    are built on first use; the trailing axes are shared by the blocks and
    read-only.
    """
    q = F.q
    nv = dim + 1
    members = [j for b in blocks for j in b]
    if len(set(members)) != len(members) or not set(members) <= set(range(nv)):
        raise ValueError(f"blocks {blocks!r} are not disjoint coordinates of P^{dim}")
    block_of = list(range(nv))  # coordinate -> the least coordinate of its block
    for b in blocks:
        for j in b:
            block_of[j] = min(b)
    for i in range(nv):
        groups = {}
        for j in range(i + 1, nv):
            groups.setdefault(block_of[j], []).append(j)
        groups = list(groups.values())
        n_lead, points = len(groups), 1  # the trailing groups that fit are axes
        while n_lead and points * _n_tuples(q, len(groups[n_lead - 1])) <= _CHUNK:
            n_lead -= 1
            points *= _n_tuples(q, len(groups[n_lead]))
        axes = [(g, _sorted_tuples(q, len(g))) for g in groups[n_lead:]]
        fixed, head = list(range(i + 1)), [0] * i + [1]
        if not n_lead:
            yield _grid_block(nv, fixed, head, axes)
            continue
        *lead, split = groups[:n_lead]
        fixed += [j for g in lead for j in g]
        rows = [itertools.combinations_with_replacement(range(q), len(g)) for g in lead]
        k, n, room = len(split), _n_tuples(q, len(split)), _CHUNK // points
        for prefix in itertools.product(*rows):
            values = head + [v for row in prefix for v in row]
            for start in range(0, n, room):
                # no local keeps the run, so a consumer that drops a block
                # frees it before the next run is built
                yield _grid_block(
                    nv, fixed, values,
                    [(split, _tuple_run(q, k, start, min(start + room, n))), *axes],
                )


def _grid_block(nv: int, fixed, values, axes) -> list:
    """One grid block: the coordinates in fixed at their scalar values, and
    each (coordinates, table) of axes on one broadcast axis, in order."""
    out = [None] * nv
    for j, v in zip(fixed, values):
        out[j] = np.int64(v)
    for a, (coords, table) in enumerate(axes):
        shape = (1,) * a + (-1,) + (1,) * (len(axes) - 1 - a)
        for j, row in zip(coords, table):
            out[j] = row.reshape(shape)
    return out


def _n_tuples(q: int, k: int) -> int:
    """The number of nondecreasing k-tuples over range(q)."""
    return math.comb(q + k - 1, k)


def _tuple_run(q: int, k: int, start: int, stop: int) -> np.ndarray:
    """Columns start .. stop - 1 of the sorted k-tuple table, as a new
    (k, stop - start) array, copied from the (k - 1)-tuple table.

    The n_v tuples that start with v are v followed by the last n_v of the
    (k - 1)-tuples: those whose entries are all at least v.  Only the run
    itself is allocated.
    """
    if k == 1:
        return np.arange(start, stop, dtype=np.int64)[None, :]
    rest = _sorted_tuples(q, k - 1)
    out = np.empty((k, stop - start), dtype=np.int64)
    first = 0  # the column at which v starts
    for v in range(q):
        n_v = _n_tuples(q - v, k - 1)
        lo, hi = max(start, first), min(stop, first + n_v)
        if lo < hi:
            out[0, lo - start : hi - start] = v
            skip = rest.shape[1] - n_v + lo - first
            out[1:, lo - start : hi - start] = rest[:, skip : skip + hi - lo]
        first += n_v
        if first >= stop:
            break
    return out


@functools.lru_cache(maxsize=16)
def _sorted_tuples(q: int, k: int) -> np.ndarray:
    """The nondecreasing k-tuples over range(q) in lexicographic order, as a
    read-only (k, C(q + k - 1, k)) array with one row per coordinate."""
    table = _tuple_run(q, k, 0, _n_tuples(q, k))
    table.flags.writeable = False
    return table


def check_size(instance: FamilyInstance, algo: str):
    """Refuse, with InstanceTooLarge, an instance past the size limit of the
    count that count(instance, algo) runs: q <= TABLE_CAP for the table
    path, under the fft_error_bound estimate, and q^dim <= NAIVE_CAP for
    the enumerator."""
    q, dim = instance.field.q, instance.ambient_dim
    if algo == "table" and instance.id in _KEY_EXPONENT:
        if q > TABLE_CAP:
            raise InstanceTooLarge(
                f"table algorithm capped at q <= {TABLE_CAP}: at q = {q} the "
                f"worst-case FFT rounding error is {fft_error_bound(q):.3g}, not "
                f"below {_ROUNDING_MARGIN}"
            )
    elif q**dim > NAIVE_CAP:
        raise InstanceTooLarge(f"q^dim = {q**dim} exceeds {NAIVE_CAP}")


def rows_where(coords, mask) -> np.ndarray:
    """The points where mask is True as the rows of an (n, nvars) index
    array, in C order of the broadcast block.

    One flat-index pass finds the points and each coordinate is gathered
    there; indexing with the boolean mask would walk the whole block once
    per coordinate.  The last chart's block is 0-d, hence atleast_1d.
    """
    mask = np.atleast_1d(mask)
    nz = np.unravel_index(np.flatnonzero(mask), mask.shape)
    return np.stack([np.broadcast_to(c, mask.shape)[nz] for c in coords], axis=1)


def points(instance: FamilyInstance, blocks: tuple = ()) -> np.ndarray:
    """Every F_q-point of the instance, as the (n, nvars) int64 array of
    the normalized rows that count_naive's walk visits, in its chart order:
    len(points(instance)) == count_naive(instance).count.

    With blocks (the instance's own, for singular.singular_points) the walk
    visits one point per orbit of the permutations inside them, as
    iter_projective_chunks does.  Each block's zeros are gathered
    (rows_where) and the block is dropped before the next is built.  The size
    limit is count_naive's (check_size).
    """
    check_size(instance, "naive")
    chunks = iter_projective_chunks(instance.field, instance.ambient_dim, blocks)
    # map drops each block before the next is built (a comprehension's
    # loop variable would keep it alive meanwhile)
    return np.concatenate(list(map(lambda c: rows_where(c, instance.vanishing_mask(c)), chunks)))


def _timed_record(instance: FamilyInstance, algo: str, run) -> CountRecord:
    """The CountRecord of the count run() returns, after check_size, timed
    from once numpy has executed, so that the first count of a process does
    not time the import of a lazily loaded numpy."""
    check_size(instance, algo)
    np.ndarray  # the first attribute read executes a lazily loaded numpy
    t0 = time.perf_counter()
    n = run()
    ms = int(round((time.perf_counter() - t0) * 1000))
    F = instance.field
    return CountRecord(instance.id.value, instance.param_string(), F.p, F.k, n, algo, ms)


def count_naive(instance: FamilyInstance) -> CountRecord:
    """Exact projective count by chart enumeration; the reference algorithm."""
    return _timed_record(instance, "naive", lambda: sum(
        int(instance.vanishing_mask(c).sum())
        for c in iter_projective_chunks(instance.field, instance.ambient_dim)
    ))


# ---------------------------------------------------------------------------
# table algorithms
# ---------------------------------------------------------------------------


def _pair_sum(q: int, first, second, rows, cols, reduce):
    """The sum of reduce(keys) over blocks of about _HISTOGRAM_CHUNK pairs
    a in rows, b in cols, keys the flat indices first(a, b) q + second(a, b).

    first must return a new array of the block's shape, in which the keys
    are built in place.  The first block's reduce is the running sum, and
    each later one is added to it and freed.
    """
    b = cols[None, :]
    rows_per_block = max(1, _HISTOGRAM_CHUNK // max(1, len(cols)))

    def block(start):
        a = rows[start : start + rows_per_block, None]
        keys = first(a, b)
        keys *= q
        keys += second(a, b)
        return reduce(keys.ravel())

    starts = range(0, len(rows), rows_per_block)
    total = block(0)
    for start in starts[1:]:
        total += block(start)
    return total


def _histogram(F: FieldDescriptor, first, second, rows, cols) -> np.ndarray:
    """q x q int64 histogram of (first(a, b), second(a, b)) over a in rows,
    b in cols, one q^2-long bincount per block of pairs (_pair_sum)."""
    q = F.q
    count = _pair_sum(
        q, first, second, rows, cols, lambda keys: np.bincount(keys, minlength=q * q)
    )
    return count.reshape(q, q)


def _square(F: FieldDescriptor, d2: np.ndarray) -> np.ndarray:
    """D4 = D2 * D2 as a (q, q) int64 array in the product layout.

    d2[t, v] counts the coordinate pairs with product in row t and additive
    key v; D4 counts the four-coordinate blocks.  The unit rows are
    convolved cyclically in t (g^t1 g^t2 = g^(t1 + t2)) and in the base-p
    digits of v (field addition is digit-wise mod p), through one spectrum
    that is transformed back in place along every axis but the last
    (numpy.fft's out argument, new in numpy 2.0).  A zero product needs a
    zero in either pair: D4's zero row is z * z + 2 z * m, with z the zero
    row of d2 and m the sum of its unit rows.  Its spectrum is
    Z (Z + 2 M) on the additive axes, and M, the additive spectrum of m, is
    the units' spectrum at product frequency 0, read before it is squared.
    The float64 rows are rounded into D4; a rounding residual of 1/4 or
    more means the error bound did not hold and raises InvariantViolated.
    """
    n = F.q - 1
    add_shape = (F.p,) * F.k
    spec = np.fft.rfftn(d2[:n].reshape((n,) + add_shape))
    zero = np.fft.rfftn(d2[n].reshape(add_shape))
    zero *= zero + 2 * spec[0]
    spec *= spec
    for axis in range(spec.ndim - 1):
        np.fft.ifft(spec, axis=axis, out=spec)
    units = np.fft.irfft(spec, n=F.p).reshape(n, F.q)
    del spec
    zero = np.fft.irfftn(zero, s=add_shape, axes=range(F.k)).reshape(F.q)
    d4 = np.empty((F.q, F.q), dtype=np.int64)
    residual = 0.0
    for x, rows in (units, d4[:n]), (zero, d4[n]):
        np.rint(x, out=rows, casting="unsafe")
        np.subtract(x, rows, out=x)
        residual = max(residual, float(np.abs(x, out=x).max()))
    if not residual < _ROUNDING_MARGIN:
        raise InvariantViolated(
            f"FFT convolution residual {residual:.3g} is not below "
            f"{_ROUNDING_MARGIN}: the float64 error bound did not hold"
        )
    return d4


def _cone_to_projective(n_aff: int, q: int) -> int:
    if (n_aff - 1) % (q - 1) != 0:
        raise InvariantViolated(
            f"affine cone count {n_aff} is not 1 mod (q - 1) = {q - 1}"
        )
    return (n_aff - 1) // (q - 1)


# the exponent e of each family's coordinate key (see the module docstring)
_KEY_EXPONENT = {FamilyId.QUINTIC_X: 5, FamilyId.QUINTIC_Y: 1}


def _cone_count(F: FieldDescriptor, e: int, k: int) -> int:
    """The affine cone count: the number of (x0, U, V) with
    h(x0, V) = k x0 U, each (U, V) weighted by D4[U, V].

    The row of a * b is wrap[code[a] + code[b]], with code = F.log_table:
    wrap reduces a sum below 2 (q - 1), two units, mod q - 1 and sends the
    rest to the zero row q - 1.  An x0 with k x0 != 0 solves it for the
    one U = h(x0, V) / (k x0), whose row is wrap[h_code[x0^e + V] +
    inv_code[x0]]: each such (x0, V) adds the D4 entry there (_pair_sum).
    An x0 with k x0 = 0 (x0 = 0, or every x0 when k = 0) solves it for
    every U when V = -x0^e, and adds D4's column sum there.  D2 is freed
    once D4 is built, so the sum reads D4 alone.
    """
    n = F.q - 1
    code = F.log_table
    wrap = np.full(4 * n + 1, n, dtype=np.int64)
    wrap[: 2 * n] = np.tile(np.arange(n), 2)
    key = F.power_table(e)
    all_idx = np.arange(F.q, dtype=np.int64)
    d2 = _histogram(
        F,
        lambda a, b: wrap[code[a] + code[b]],
        lambda a, b: F.vadd(key[a], key[b]),
        all_idx,
        all_idx,
    )
    d4 = _square(F, d2)
    del d2
    kx = F.vmul(k, all_idx)
    inv_code = code[F.vpow(kx, -1)]
    h_code = code[F.power_table(5 // e)]  # h_code[x0^e + V] = code[h(x0, V)]
    flat = d4.ravel()
    cone = _pair_sum(
        F.q,
        lambda v, x0: wrap[h_code[F.vadd(key[x0], v)] + inv_code[x0]],
        lambda v, x0: v,
        all_idx,
        all_idx[kx != 0],
        lambda keys: int(flat[keys].sum()),
    )
    return cone + int(d4.sum(axis=0)[F.vneg(key[kx == 0])].sum())


def count_table(instance: FamilyInstance) -> CountRecord:
    """Table count for QuinticX and QuinticY; equals count_naive on the
    same instance.  ValueError for any other family."""
    e = _KEY_EXPONENT.get(instance.id)
    if e is None:
        raise ValueError(f"no table algorithm for {instance.id.value}")
    F = instance.field

    def run() -> int:
        k = ((instance.params["mu"] * 5) ** (5 // e)).index
        return _cone_to_projective(_cone_count(F, e, k), F.q)

    return _timed_record(instance, "table", run)


# ---------------------------------------------------------------------------
# cache
# ---------------------------------------------------------------------------

class CountCache:
    """Append-only JSON-lines store of CountRecords.

    Malformed lines, a line that is not UTF-8 too, trigger a CacheCorrupt
    warning with the line number and are skipped; computation proceeds as
    if they were absent.  Each append is a single write of one whole line
    under an exclusive flock, and the load reads under a shared one, so
    processes may share a cache file.  An append after a torn last line (a
    crash mid-write) ends that line first, so no record is written onto it.
    """

    def __init__(self, path):
        self.path = path
        self._records: dict[tuple, CountRecord] = {}
        self._load()

    def _load(self):
        try:
            with open(self.path, "rb") as fh:
                fcntl.flock(fh, fcntl.LOCK_SH)
                lines = fh.read().splitlines()
        except FileNotFoundError:
            return
        for lineno, line in enumerate(lines, start=1):
            try:  # a line that is not UTF-8 is corrupt too
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                rec = CountRecord.from_json(line)
            except (ValueError, TypeError) as exc:
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
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            line = (rec.to_json() + "\n").encode("utf-8")
            end = os.fstat(fd).st_size
            if end and os.pread(fd, 1, end - 1) != b"\n":
                line = b"\n" + line  # end a torn last line first
            line = memoryview(line)
            while line:  # os.write may write only part of it
                line = line[os.write(fd, line):]
        finally:
            os.close(fd)  # releases the lock


def count(
    instance: FamilyInstance,
    algo: str = "table",
    cache: CountCache | None = None,
) -> CountRecord:
    """The projective count of the instance.

    "table" is honored for QuinticX and QuinticY; other families have no
    specialized path and run the naive enumerator.  With a cache, the
    record stored under the instance's key is returned verbatim, and a
    count computed on a miss is appended.
    """
    if algo not in ALGOS:
        raise ValueError(
            f"unknown algorithm {algo!r}: use {' or '.join(map(repr, ALGOS))}"
        )
    F = instance.field
    if cache is not None:
        hit = cache.get(_cache_key(instance.id.value, instance.param_string(), F.p, F.k))
        if hit is not None:
            return hit
    run = count_table if algo == "table" and instance.id in _KEY_EXPONENT else count_naive
    rec = run(instance)
    if cache is not None:
        cache.append(rec)
    return rec
