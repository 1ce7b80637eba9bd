import itertools
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from mirrorquintic import counting, singular
from mirrorquintic.counting import (
    ALGOS,
    NAIVE_CAP,
    TABLE_CAP,
    CountCache,
    CountRecord,
    check_size,
    count,
    count_naive,
    count_table,
    fft_error_bound,
    points,
    projective_size,
)
from mirrorquintic.errors import CacheCorrupt, InstanceTooLarge, InvariantViolated
from mirrorquintic.families import (
    FamilyId,
    FamilyInstance,
    MonomialMap,
    cubics_v,
    cubics_w,
    cubics_wtilde,
    new_coordinates_w,
    normalize_rows,
    quadric_q,
    quintic_x,
    quintic_y,
    unique_points,
)
from mirrorquintic.ffield import make_field
from mirrorquintic.mvpoly import MPoly
from mirrorquintic.singular import fiber_points


def hyperplane_instance(F):
    f = MPoly.variable(5, 0, F)
    return FamilyInstance(FamilyId.QUINTIC_X, F, {}, 4, lambda x: [f(x)])


def hand_count_f2(kind):
    # independent desk oracle: over F_2 both defining equations reduce to
    # sum of coordinates plus product of coordinates = 0
    n = 0
    for vec in itertools.product((0, 1), repeat=5):
        if not any(vec):
            continue
        s = sum(vec) % 2
        p = 1
        for v in vec:
            p *= v
        if (s + p) % 2 == 0:
            n += 1
    return n


def test_hyperplane_count():
    F3 = make_field(3)
    assert count_naive(hyperplane_instance(F3)).count == 40  # |P^3(F_3)|
    assert projective_size(3, 3) == 40


def test_x1_f2_hand_oracle():
    assert hand_count_f2("X") == 16
    assert count_naive(quintic_x(1, make_field(2))).count == 16
    assert count_naive(quintic_y(1, make_field(2))).count == 16


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_fermat_counts_like_hyperplane(p):
    # gcd(5, q - 1) = 1 makes the fifth power map bijective
    F = make_field(p)
    if (p - 1) % 5 == 0:
        pytest.skip("field has fifth roots of unity")
    assert count_naive(quintic_x(0, F)).count == projective_size(p, 3)


def test_fermat_f7_400():
    assert count_naive(quintic_x(0, make_field(7))).count == 400


@pytest.mark.parametrize("p", [2, 3, 7, 11, 13])
@pytest.mark.parametrize("mu", [0, 1, 2])
def test_table_equals_naive(p, mu):
    F = make_field(p)
    assert count_table(quintic_x(mu, F)).count == count_naive(quintic_x(mu, F)).count
    assert count_table(quintic_y(mu, F)).count == count_naive(quintic_y(mu, F)).count


def test_y_table_mu_zero_uses_table():
    # (5 mu)^5 = 0: the mirror is the fifth power of a hyperplane
    rec = count_table(quintic_y(0, make_field(7)))
    assert rec.count == 400 and rec.algo == "table"


def test_y_table_characteristic_5_is_hyperplane_power():
    rec = count_table(quintic_y(1, make_field(5, 3)))
    assert rec.count == projective_size(125, 3) == 1968876 and rec.algo == "table"


def test_x_table_characteristic_5_is_hyperplane_power():
    # in characteristic 5 the Fermat sum is (x0 + ... + x4)^5 and 5 mu = 0
    rec = count_table(quintic_x(1, make_field(5, 3)))
    assert rec.count == projective_size(125, 3) == 1968876 and rec.algo == "table"


def test_table_on_extension_field():
    F9 = make_field(3, 2)
    assert count_table(quintic_x(1, F9)).count == count_naive(quintic_x(1, F9)).count
    assert count_table(quintic_y(1, F9)).count == count_naive(quintic_y(1, F9)).count


def test_monotone_bound():
    for p, mu in [(7, 1), (11, 2)]:
        F = make_field(p)
        assert count_table(quintic_x(mu, F)).count <= projective_size(p, 4)
        assert count_table(quintic_y(mu, F)).count <= projective_size(p, 4)
    assert count_naive(cubics_v(1, make_field(7))).count <= projective_size(7, 5)


@pytest.mark.parametrize("algo", ["auto", "tabel"])
def test_count_task_rejects_unknown_algo(algo):
    with pytest.raises(ValueError, match="unknown algorithm"):
        count(quintic_x(1, make_field(11)), algo)


def test_instance_too_large():
    with pytest.raises(InstanceTooLarge):
        count_table(quintic_x(1, make_field(8209)))
    with pytest.raises(InstanceTooLarge):
        count_naive(quintic_x(1, make_field(1009)))
    with pytest.raises(InstanceTooLarge):  # the naive count's walk and limit
        points(quintic_x(1, make_field(1009)))


def _oracle_cases():
    # (p, k, mu index): mu = 0, every fifth root of unity of the field (only
    # 1 unless 5 divides q - 1) and one other mu drawn by a fixed seed
    rng = random.Random(20260518)
    cases = []
    for p, k in [(7, 1), (11, 1), (13, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3)]:
        F = make_field(p, k)
        mus = [0] + np.flatnonzero(F.power_table(5) == 1).tolist()
        mus.append(rng.choice([m for m in range(F.q) if m not in mus]))
        cases += [(p, k, m) for m in mus]
    return cases


@pytest.mark.parametrize("p,k,mu", _oracle_cases())
def test_table_equals_naive_randomized(p, k, mu):
    F = make_field(p, k)
    mu = F.from_index(mu)
    assert count_table(quintic_x(mu, F)).count == count_naive(quintic_x(mu, F)).count
    rec = count_table(quintic_y(mu, F))
    assert rec.algo == "table"
    assert rec.count == count_naive(quintic_y(mu, F)).count


def test_table_cap_is_the_error_bound():
    assert fft_error_bound(TABLE_CAP) < 0.25 <= fft_error_bound(TABLE_CAP + 1)
    # the prime 1511 is the first field size past the cap; check_size
    # refuses it with the estimate for the table and admits 1499
    estimate = f"{fft_error_bound(1511):.3g}"
    for family in (quintic_x, quintic_y):
        check_size(family(1, make_field(1499)), "table")
        inst = family(1, make_field(1511))
        for refuse in (lambda: check_size(inst, "table"), lambda: count_table(inst)):
            with pytest.raises(InstanceTooLarge, match=estimate):
                refuse()


@pytest.mark.parametrize("family", [quintic_x, quintic_y])
@pytest.mark.parametrize("p,k,blocks", [(211, 1, 1), (1009, 1, 2), (11, 2, 1), (11, 3, 4)])
def test_table_count_holds_at_most_33_q2_bytes(family, p, k, blocks):
    # at most three q x q arrays of 8-byte entries are alive at once, with
    # the pair histograms in one block of counting._HISTOGRAM_CHUNK pairs
    # and in several, over prime fields and over F_121 and F_1331, whose
    # additive keys are summed digit by digit; the margin holds numpy's
    # fixed buffers (about 9 q^2 at q = 121) and the O(q) tables
    q = p**k
    assert math.ceil(q / (counting._HISTOGRAM_CHUNK // q)) == blocks
    assert _peak_bytes(family(1, make_field(p, k))) <= 33 * q * q


@pytest.mark.parametrize("family", [quintic_x, quintic_y])
def test_large_table_count_holds_at_most_26_q2_bytes(family):
    # at q = 1009 the FFT, not the cone count, sets the peak: the count
    # reads D4 where each (x0, V) lands and builds no second q x q table
    assert _peak_bytes(family(1, make_field(1009))) <= 26 * 1009**2


def _peak_bytes(instance) -> int:
    # the tracemalloc peak of a table count
    count_table(instance)  # loads numpy.fft and the field's tables
    tracemalloc.start()
    try:
        count_table(instance)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("algo", ALGOS)
def test_check_size_states_the_naive_cap(algo):
    # q^dim <= NAIVE_CAP = 10^10 on CubicsV in P^5: 97^5 passes and 101^5
    # does not; it has no table path, so "table" applies the same rule
    check_size(cubics_v(1, make_field(97)), algo)
    with pytest.raises(InstanceTooLarge, match=f"q\\^dim = {101**5} exceeds {NAIVE_CAP}"):
        check_size(cubics_v(1, make_field(101)), algo)


def test_count_table_refuses_a_family_without_a_table_path():
    with pytest.raises(ValueError, match="no table algorithm for CubicsV"):
        count_table(cubics_v(1, make_field(7)))


def _count_with_offset(monkeypatch, transform, offset, ok):
    # adds offset to every entry that np.fft.<transform> returns
    inverse = getattr(np.fft, transform)
    monkeypatch.setattr(np.fft, transform, lambda *a, **kw: inverse(*a, **kw) + offset)
    if ok:  # within the 1/4 margin the rounding still recovers the count
        assert count_table(quintic_x(1, make_field(11))).count == 3300
    else:
        with pytest.raises(InvariantViolated, match="residual 0.3"):
            count_table(quintic_x(1, make_field(11)))


@pytest.mark.parametrize("offset,ok", [(0.2, True), (0.3, False)])
def test_rounding_residual_raises(monkeypatch, offset, ok):
    _count_with_offset(monkeypatch, "irfft", offset, ok)


@pytest.mark.parametrize("offset,ok", [(0.2, True), (0.3, False)])
def test_zero_row_rounding_residual_raises(monkeypatch, offset, ok):
    # D4's zero row is the one array that np.fft.irfftn transforms back;
    # the unit rows go through np.fft.irfft alone
    _count_with_offset(monkeypatch, "irfftn", offset, ok)


@pytest.mark.parametrize("q,mu", [(11, 1), (31, 2)])
def test_fiber_sum_identity(q, mu):
    # sum over mirror points of the on-quintic fiber equals the quintic count
    F = make_field(q)
    X = quintic_x(mu, F)
    Y = quintic_y(mu, F)
    phi = MonomialMap(5, 5)
    rows = np.concatenate([fiber_points(phi, y, F) for y in points(Y).tolist()])
    total = int(X.vanishing_mask(list(rows.T)).sum())
    assert total == count_table(X).count


def test_v_count_matches_integer_brute_force():
    # every point of P^5(F_7), normalized to a leading 1, tested on the two
    # cubics of V at lam = 1 in plain integers mod 7
    p, lam = 7, 1
    points = [
        (0,) * i + (1,) + free
        for i in range(6)
        for free in itertools.product(range(p), repeat=5 - i)
    ]
    assert len(points) == (p**6 - 1) // (p - 1) == 19608
    total = sum(
        (x0**3 + x1**3 + x2**3 - 3 * lam * x3 * x4 * x5) % p == 0
        and (x3**3 + x4**3 + x5**3 - 3 * lam * x0 * x1 * x2) % p == 0
        for x0, x1, x2, x3, x4, x5 in points
    )
    assert count_naive(cubics_v(lam, make_field(p))).count == total


# -- grid-block enumeration ------------------------------------------------


def _flat_chart_order(q, dim):
    """Normalized representatives of P^dim(F_q), chart by chart (x_i = 1 after
    i zeros), each chart in itertools.product order of its free coordinates."""
    return np.array(
        [
            (0,) * i + (1,) + free
            for i in range(dim + 1)
            for free in itertools.product(range(q), repeat=dim - i)
        ],
        dtype=np.int64,
    )


@pytest.mark.parametrize(
    "p,k,dim", [(7, 1, 3), (11, 1, 3), (2, 2, 4), (3, 2, 4), (5, 1, 5), (2, 2, 5)]
)
@pytest.mark.parametrize(
    "chunk_for",
    [lambda q: 1, lambda q: q - 1, lambda q: q**2 + q, lambda q: counting._CHUNK],
    ids=["one", "below_q", "q2_to_q3", "default"],
)
def test_grid_blocks_ravel_to_flat_chart_order(monkeypatch, p, k, dim, chunk_for):
    F = make_field(p, k)
    chunk = chunk_for(F.q)
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    blocks = list(counting.iter_projective_chunks(F, dim))
    assert all(np.broadcast(*b).size <= chunk for b in blocks)
    got = np.concatenate(
        [np.stack([c.ravel() for c in np.broadcast_arrays(*b)], axis=1) for b in blocks]
    )
    assert np.array_equal(got, _flat_chart_order(F.q, dim))


def _sorted_in_blocks(point, blocks):
    """The point with the coordinates of each block after its pivot sorted:
    the representative of its orbit under permutations inside blocks."""
    point = list(point)
    pivot = next(j for j, v in enumerate(point) if v)
    for b in blocks:
        free = [j for j in b if j > pivot]
        for j, v in zip(free, sorted(point[j] for j in free)):
            point[j] = v
    return tuple(point)


@pytest.mark.parametrize(
    "p,k,dim,blocks",
    [
        (7, 1, 4, ((0, 1, 2, 3, 4),)),
        (5, 1, 4, ((1, 2, 3),)),
        (2, 2, 5, ((0, 1, 2), (3, 4, 5))),
        (3, 1, 5, ((1, 2), (4, 5))),
        (3, 1, 5, ((1, 4), (0, 2, 5))),  # blocks need not be runs
    ],
)
@pytest.mark.parametrize(
    "chunk_for",
    [lambda q: 1, lambda q: q - 1, lambda q: q**2 + q, lambda q: counting._CHUNK],
    ids=["one", "below_q", "q2_to_q3", "default"],
)
def test_grid_blocks_list_one_point_per_orbit(monkeypatch, p, k, dim, blocks, chunk_for):
    # every point of P^dim is a permutation inside blocks of exactly one
    # listed point, and at the default size each chart is one grid block
    F = make_field(p, k)
    chunk = chunk_for(F.q)
    default = chunk == counting._CHUNK
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    grid = list(counting.iter_projective_chunks(F, dim, blocks=blocks))
    assert all(np.broadcast(*b).size <= chunk for b in grid)
    if default:
        assert len(grid) == dim + 1
    got = np.concatenate(
        [np.stack([c.ravel() for c in np.broadcast_arrays(*b)], axis=1) for b in grid]
    ).tolist()
    want = {_sorted_in_blocks(pt, blocks) for pt in _flat_chart_order(F.q, dim).tolist()}
    assert len(got) == len(want) and set(map(tuple, got)) == want


def _prefix_runs(grid):
    """The blocks' (tuples, points) shapes grouped by chart and prefix: the
    scalar coordinates of a block name its chart and prefix, its first axis
    holds the tuples of the split group and the other axes the points."""
    runs = {}
    for block in grid:
        key = tuple((j, int(c)) for j, c in enumerate(block) if np.ndim(c) == 0)
        shape = np.broadcast(*block).shape or (1,)
        runs.setdefault(key, []).append((shape[0], int(np.prod(shape[1:]))))
    return runs


def _filled_block_count(q, dim, blocks, chunk):
    """The number of blocks of filled runs, from the docstring's rule: per
    chart, the trailing groups that fit are axes of `points` points, the
    other leading groups are prefixes, and the last leading group is cut
    into runs of chunk // points tuples."""
    total = 0
    for i in range(dim + 1):
        groups = {}
        for j in range(i + 1, dim + 1):
            groups.setdefault(min(next((b for b in blocks if j in b), (j,))), []).append(j)
        sizes = [math.comb(q + len(g) - 1, len(g)) for g in groups.values()]
        points = 1
        while sizes and points * sizes[-1] <= chunk:
            points *= sizes.pop()
        total += math.prod(sizes[:-1]) * -(-sizes[-1] // (chunk // points)) if sizes else 1
    return total


_SMALL_GRIDS = [
    (7, 1, 4, ((0, 1, 2, 3, 4),)),
    (5, 1, 5, ((0, 1, 2), (3, 4, 5))),
    (7, 1, 5, ((1, 2), (4, 5))),
    (11, 1, 3, ()),
    (3, 2, 4, ((1, 2, 3),)),
]
# verify's scans: QuinticX over F_41, CubicsV over F_13, the quadric's P^3
_SCAN_GRIDS = [(41, 1, 4, ((0, 1, 2, 3, 4),)), (13, 1, 5, ((0, 1, 2), (3, 4, 5))), (41, 1, 3, ())]


@pytest.mark.parametrize(
    "p,k,dim,blocks,chunk",
    [(*g, c) for g in _SMALL_GRIDS for c in (1, 7, 100)]
    + [(*g, c) for g in _SCAN_GRIDS for c in (4096, 1 << 14)],
)
def test_grid_blocks_are_filled_to_the_chunk(monkeypatch, p, k, dim, blocks, chunk):
    # every block of a chart and prefix but its last holds exactly
    # chunk // points tuples of the split group, no block exceeds chunk,
    # and a split group is cut only into such runs (one value of it per
    # block would give more blocks)
    F = make_field(p, k)
    monkeypatch.setattr(counting, "_CHUNK", chunk)
    grid = list(counting.iter_projective_chunks(F, dim, blocks=blocks))
    assert all(np.broadcast(*b).size <= chunk for b in grid)
    for key, shapes in _prefix_runs(grid).items():
        for tuples, points in shapes[:-1]:
            assert tuples == chunk // points, key
        assert shapes[-1][0] <= chunk // shapes[-1][1], key
    assert len(grid) == _filled_block_count(F.q, dim, blocks, chunk)


def test_scan_block_counts_at_the_scan_chunk():
    # the orbit scans and the quadric's P^3 at the one block size
    # counting._CHUNK, in filled blocks of at most 2^14 points; with one
    # value of the split group per block (and 2^15) they took 45, 35, 44
    # and 18 blocks
    def blocks(inst_or_field, dim=None):
        if dim is None:
            F, dim, groups = inst_or_field.field, inst_or_field.ambient_dim, inst_or_field.blocks
        else:
            F, groups = inst_or_field, ()
        grid = counting.iter_projective_chunks(F, dim, blocks=groups)
        sizes = [np.broadcast(*b).size for b in grid]
        assert max(sizes) <= counting._CHUNK
        return len(sizes)

    assert counting._CHUNK == 1 << 14
    assert blocks(quintic_x(1, make_field(41))) == 13
    assert blocks(quintic_x(1, make_field(31))) == 7
    assert blocks(quintic_y(1, make_field(31))) == 7
    assert blocks(make_field(41), 3) == 8
    assert blocks(cubics_v(1, make_field(13))) == 8


def test_grid_blocks_must_be_disjoint_coordinates():
    F = make_field(3)
    for blocks in [((0, 1), (1, 2)), ((3, 5),), ((0, 0),)]:
        with pytest.raises(ValueError, match="not disjoint coordinates"):
            next(counting.iter_projective_chunks(F, 4, blocks=blocks))


def test_instances_without_declared_blocks():
    # an instance built directly has no blocks and is scanned in full; so
    # has the hyperplane x0, whose equation is not symmetric
    F = make_field(7)
    X = quintic_x(1, F)
    assert X.blocks == ((0, 1, 2, 3, 4),)
    assert FamilyInstance(X.id, F, X.params, 4, X.equations).blocks == ()
    assert hyperplane_instance(F).blocks == ()


@pytest.fixture(scope="module")
def flat_scans():
    """count_naive's reference counts and points from one flat mask over
    every point, and the default singular scans with one thread."""
    F3, F4, F7 = make_field(3), make_field(2, 2), make_field(7)
    instances = [
        quintic_x(1, F4),
        quintic_y(1, F7),
        cubics_v(1, F3),
        cubics_wtilde(1, F4),  # its first equation misses x1 and x2
    ]
    out = []
    for inst in instances:
        flat = _flat_chart_order(inst.field.q, inst.ambient_dim)
        rows = flat[inst.vanishing_mask(list(flat.T))]
        out.append((inst, rows, singular.singular_points(inst)))
    return out


@pytest.mark.parametrize("chunk", [1, 7, 500, None])
def test_scans_do_not_depend_on_block_size(monkeypatch, flat_scans, chunk):
    # the grid block size (None: the default) changes neither the counts,
    # nor the points and their chart order, nor the singular points
    if chunk is not None:
        monkeypatch.setattr(counting, "_CHUNK", chunk)
    for inst, rows, sing in flat_scans:
        assert count_naive(inst).count == len(rows)
        assert np.array_equal(points(inst), rows)
        assert np.array_equal(singular.singular_points(inst), sing)


def _points_cases():
    # the oracle set of criterion 7, and the cubic families, the nu-form
    # and the quadric (which needs q = 1 mod 5, so F_11 and not F_7)
    for p in (2, 3, 7, 11, 13):
        for mu in (0, 1, 2):
            yield quintic_x, mu, p
            yield quintic_y, mu, p
    for ctor in (cubics_v, cubics_w, cubics_wtilde, new_coordinates_w):
        yield ctor, 1, 7
    yield (lambda _, F: quadric_q(F)), None, 11


@pytest.mark.parametrize("ctor,param,p", _points_cases())
def test_points_are_the_naive_count(ctor, param, p):
    # every point once, normalized, on the instance: as many as it counts
    inst = ctor(param, make_field(p))
    pts = points(inst)
    assert pts.dtype == np.int64 and pts.shape == (count_naive(inst).count, inst.nvars)
    assert np.array_equal(normalize_rows(pts, inst.field), pts)
    assert len(unique_points(pts, inst.field)) == len(pts)
    assert inst.vanishing_mask(list(pts.T)).all()


# -- cache -------------------------------------------------------------------


def test_cache_idempotent(tmp_path):
    path = tmp_path / "counts.jsonl"
    inst = quintic_x(1, make_field(11))
    first = count(inst, "table", cache=CountCache(path))
    second = count(inst, "table", cache=CountCache(path))  # reloaded from disk
    assert first.count == second.count
    assert second.elapsed_ms == first.elapsed_ms  # served from cache
    assert len(path.read_text().strip().splitlines()) == 1


def test_cache_distinct_keys(tmp_path):
    path = tmp_path / "counts.jsonl"
    F = make_field(11)
    cache = CountCache(path)
    count(quintic_x(1, F), cache=cache)
    count(quintic_x(2, F), cache=cache)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    params = {json.loads(l)["params"] for l in lines}
    assert params == {"mu=1", "mu=2"}


def test_cache_line_format(tmp_path):
    path = tmp_path / "counts.jsonl"
    count(quintic_x(1, make_field(11)), cache=CountCache(path))
    obj = json.loads(path.read_text().strip())
    assert set(obj) == {
        "family",
        "params",
        "p",
        "k",
        "count",
        "algo",
        "elapsed_ms",
        "version",
    }
    assert obj["version"] == 1 and obj["family"] == "QuinticX"


def test_cache_corrupt_line_warns_and_recomputes(tmp_path):
    path = tmp_path / "counts.jsonl"
    path.write_text("this is not json\n")
    with pytest.warns(CacheCorrupt):
        rec = count(quintic_x(1, make_field(11)), "table", cache=CountCache(path))
    assert rec.count == 3300


def test_cache_hit_never_recounts(tmp_path):
    path = tmp_path / "counts.jsonl"
    fake = CountRecord("QuinticX", "mu=1", 11, 1, 999999, "table", 1)
    path.write_text(fake.to_json() + "\n")
    rec = count(quintic_x(1, make_field(11)), cache=CountCache(path))
    assert rec.count == 999999  # trusted verbatim, no recount


def test_cone_to_projective_raises_on_bad_cone_count():
    from mirrorquintic.counting import _cone_to_projective
    from mirrorquintic.errors import InvariantViolated, MirrorQuinticError

    assert _cone_to_projective(1 + 3 * 10, 11) == 3
    with pytest.raises(InvariantViolated):
        _cone_to_projective(5, 11)
    assert issubclass(InvariantViolated, MirrorQuinticError)


def test_cone_to_projective_raises_under_python_O():
    # the invariant check must survive the optimizer, which strips asserts
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from mirrorquintic.counting import _cone_to_projective\n"
        "from mirrorquintic.errors import InvariantViolated\n"
        "try:\n"
        "    _cone_to_projective(5, 11)\n"
        "except InvariantViolated:\n"
        "    print('raised')\n"
    )
    # -B: the child's environment drops PYTHONDONTWRITEBYTECODE, and the
    # optimized bytecode must not land in src/
    out = subprocess.run(
        [sys.executable, "-B", "-O", "-c", code],
        env={"PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "raised"


def test_cli_exits_1_on_bad_cone_count(monkeypatch, capsys):
    from mirrorquintic import cli, counting

    monkeypatch.setattr(counting, "_cone_count", lambda *a, **k: 5)
    code = cli.run(["count", "--family", "X", "--mu", "1", "--p", "11", "--algo", "table"])
    assert code == 1
    assert "not 1 mod (q - 1)" in capsys.readouterr().out


def test_record_json_round_trip():
    rec = CountRecord("QuinticY", "mu=2", 11, 1, 1496, "table", 7)
    assert CountRecord.from_json(rec.to_json()) == rec
    assert json.loads(rec.to_json()) == {
        "family": "QuinticY",
        "params": "mu=2",
        "p": 11,
        "k": 1,
        "count": 1496,
        "algo": "table",
        "elapsed_ms": 7,
        "version": 1,
    }


def test_record_json_is_pinned():
    # the cache line format: sorted keys, json.dumps separators
    rec = CountRecord("QuinticX", "mu=1", 11, 1, 3300, "table", 12)
    assert rec.to_json() == (
        '{"algo": "table", "count": 3300, "elapsed_ms": 12, "family": "QuinticX", '
        '"k": 1, "p": 11, "params": "mu=1", "version": 1}'
    )


def _bad_line(case: str) -> str:
    good = json.loads(CountRecord("QuinticX", "mu=1", 11, 1, 999999, "table", 1).to_json())
    if case == "missing-key":
        del good["algo"]
    elif case == "extra-key":
        good["note"] = "x"
    else:
        good["p"] = {"p-str": "11", "p-float": 11.0, "p-null": None, "p-bool": True}[case]
    return json.dumps(good)


@pytest.mark.parametrize(
    "case", ["missing-key", "extra-key", "p-str", "p-float", "p-null", "p-bool"]
)
def test_cache_rejects_line_off_schema(tmp_path, case):
    # each bad line holds the fake count 999999 under the key of the real one
    path = tmp_path / "counts.jsonl"
    path.write_text(_bad_line(case) + "\n")
    with pytest.warns(CacheCorrupt, match="line 1"):
        rec = count(quintic_x(1, make_field(11)), cache=CountCache(path))
    assert rec.count == 3300


def test_cache_append_waits_for_the_file_lock(tmp_path):
    import fcntl
    import threading

    path = tmp_path / "counts.jsonl"
    path.touch()
    cache = CountCache(path)
    rec = CountRecord("QuinticX", "mu=1", 11, 1, 3300, "table", 1)
    with open(path, "a") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        writer = threading.Thread(target=cache.append, args=(rec,))
        writer.start()
        writer.join(0.3)
        assert writer.is_alive() and path.read_text() == ""
        fcntl.flock(holder, fcntl.LOCK_UN)
        writer.join(10)
    assert not writer.is_alive()
    assert path.read_text() == rec.to_json() + "\n"


def test_cache_append_writes_the_whole_line(tmp_path, monkeypatch):
    # os.write may write fewer bytes than asked; the append repeats it
    # until the line is whole, else the next load drops the line as corrupt
    import os

    write = os.write
    sizes = []

    def short_write(fd, data):
        sizes.append(write(fd, bytes(data[:7])))
        return sizes[-1]

    path = tmp_path / "counts.jsonl"
    cache = CountCache(path)
    rec = CountRecord("QuinticX", "mu=1", 11, 1, 3300, "table", 1)
    with monkeypatch.context() as m:
        m.setattr(os, "write", short_write)
        cache.append(rec)
    assert path.read_text() == rec.to_json() + "\n"
    assert len(sizes) > 1 and max(sizes) == 7


def test_concurrent_appends_stay_loadable(tmp_path):
    import subprocess
    import sys
    import warnings
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    path = tmp_path / "counts.jsonl"
    code = (
        "import sys\n"
        "from mirrorquintic.counting import CountCache, CountRecord\n"
        "cache = CountCache(sys.argv[1])\n"
        "start = int(sys.argv[2])\n"
        "for i in range(start, start + 150):\n"
        "    cache.append(CountRecord('QuinticX', f'mu={i}', 11, 1, i, 'table', 0))\n"
    )
    writers = [
        subprocess.Popen(
            [sys.executable, "-B", "-c", code, str(path), str(start)],  # no bytecode in src/
            env={"PYTHONPATH": str(src)},
        )
        for start in range(0, 600, 150)  # more writers than cores
    ]
    assert [w.wait(timeout=60) for w in writers] == [0] * 4
    with warnings.catch_warnings():
        warnings.simplefilter("error", CacheCorrupt)
        cache = CountCache(path)
    for i in range(600):
        assert cache.get(("QuinticX", f"mu={i}", 11, 1, 1)).count == i
    assert len(path.read_text().splitlines()) == 600
