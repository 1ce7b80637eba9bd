import itertools

import numpy as np
import pytest

from mirrorquintic import counting, families, singular
from mirrorquintic.counting import count_naive, iter_projective_chunks, points, projective_size
from mirrorquintic.errors import (
    BadCharacteristic,
    InstanceTooLarge,
    NotSingular,
    RootOfUnityUnavailable,
)
from mirrorquintic.families import (
    FamilyId,
    FamilyInstance,
    MonomialMap,
    Stratum,
    apply_map,
    cubics_v,
    cubics_w,
    cubics_wtilde,
    new_coordinates_w,
    normalize_rows,
    points_on_lines_a,
    quadric_q,
    quintic_x,
    quintic_y,
    strata_codes,
    unique_points,
)
from mirrorquintic.ffield import Jet, make_field
from mirrorquintic.mvpoly import eval_batch
from mirrorquintic.singular import (
    fiber_points,
    fiber_size_table,
    full_rank,
    hessian_ranks,
    singular_points,
    surface_points,
)

F7 = make_field(7)
F11 = make_field(11)


# -- the orbit scan against the full scan ------------------------------------


def _full_scan_instance(inst):
    """The same builder without blocks: its scan visits every point."""
    return FamilyInstance(inst.id, inst.field, inst.params, inst.ambient_dim, inst.equations)


def _orbit_cases(q):
    F = make_field(*{4: (2, 2), 9: (3, 2)}.get(q, (q,)))
    for mu in range(4):
        yield quintic_x(mu, F)
        yield quintic_y(mu, F)
    if q in (2, 3, 4, 7, 13):
        for param in range(3):
            yield cubics_v(param, F)
            yield cubics_w(param, F)
            yield cubics_wtilde(param, F)
        if (q - 1) % 3 == 0:
            yield new_coordinates_w(1, F)  # built directly: no blocks


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9, 11, 13, 31])
def test_orbit_scan_equals_full_scan(monkeypatch, q):
    # the scan over one point per orbit of the declared blocks finds the
    # full scan's points in the same order; on small fields also for tiny
    # grid blocks
    chunks = [counting._CHUNK, 1, 7] if q <= 4 else [counting._CHUNK]
    for inst in _orbit_cases(q):
        full = _full_scan_instance(inst)
        assert inst.blocks or inst.equations.func is families._cubics_nu_form_polys
        want = singular_points(full)
        for chunk in chunks:
            monkeypatch.setattr(counting, "_CHUNK", chunk)
            assert np.array_equal(singular_points(inst), want)


def test_x1_f11_node_census():
    points = singular_points(quintic_x(1, F11))
    assert len(points) == 125
    assert (hessian_ranks(quintic_x(1, F11), points) == 4).all()


def test_scan_without_zeros_reports_nothing():
    # x0^2 = 3 x1^2 has no point over F_7 (3 is not a square): no block
    # gathers a zero, and the Jacobian runs on empty arrays
    conic = FamilyInstance(
        FamilyId.QUINTIC_X, F7, {}, 1, lambda x: [x[0] ** 2 - (x[1] ** 2).scale(3)]
    )
    points = singular_points(conic)
    assert points.shape == (0, 2) and points.dtype == np.int64


def _strata_counts(points, y):
    """The number of points in each Stratum (families.strata_codes)."""
    counts = np.bincount(strata_codes(points, y), minlength=len(Stratum))
    return dict(zip(Stratum, counts.tolist()))


def test_y2_f11_singular_locus_is_lines():
    y = quintic_y(2, F11)
    points = singular_points(y)
    assert len(points) == 10 * 11 - 10
    assert _strata_counts(points, y) == {
        Stratum.GENERIC: 0,
        Stratum.ON_LINE_A: 90,
        Stratum.IN_POINT_SET_B: 10,
        Stratum.EXTRA_NODE: 0,
    }


def test_y1_f11_extra_node():
    y = quintic_y(1, F11)
    points = singular_points(y)
    assert len(points) == 10 * 11 - 9
    assert _strata_counts(points, y)[Stratum.EXTRA_NODE] == 1
    assert [1] * 5 in points.tolist()


@pytest.mark.parametrize("p", [7, 31])
def test_y_singular_counts_other_fields(p):
    F = make_field(p)
    for mu in (1, 2, 3):
        if not F.element(mu):
            continue
        expected = 10 * p - 9 if F.element(mu) ** 5 == F.one else 10 * p - 10
        assert len(singular_points(quintic_y(mu, F))) == expected


def test_nodes_of_other_root_of_unity_member():
    # mu = 3 is a fifth root of unity mod 11; the nodes are the orbit of
    # (1 : mu : mu : mu : mu)
    from mirrorquintic.symmetry import enumerate_G, orbit

    mu = F11.element(3)
    assert mu**5 == F11.one
    points = singular_points(quintic_x(mu, F11))
    seed = (1, mu.index, mu.index, mu.index, mu.index)
    assert len(points) == 125
    assert np.array_equal(points, orbit(seed, enumerate_G(), F11))


def test_classify_node_at_symmetric_point():
    # a node has full rank nvars - 1 = 4
    assert hessian_ranks(quintic_x(1, F11), [(1,) * 5]).tolist() == [4]
    assert hessian_ranks(quintic_y(1, F11), [(1,) * 5]).tolist() == [4]


def test_a_point_is_singular_but_not_node():
    pt = (0, 0, 1, 1, F11.element(-2).index)
    [rank] = hessian_ranks(quintic_y(1, F11), [pt])
    assert rank <= 3


def test_classify_node_rejects_smooth_point():
    with pytest.raises(NotSingular):
        hessian_ranks(quintic_x(2, F11), [(1,) * 5])


def test_classify_node_rejects_small_characteristic():
    F2, F5 = make_field(2), make_field(5)
    with pytest.raises(BadCharacteristic):
        hessian_ranks(quintic_x(1, F2), [(1,) * 5])
    with pytest.raises(BadCharacteristic):
        hessian_ranks(quintic_x(1, F5), [(1,) * 5])


def test_singular_scan_cap():
    # the refusal states the size of the scan it would have run
    with pytest.raises(InstanceTooLarge, match=f"scan {projective_size(43, 4)} points"):
        singular_points(quintic_x(1, make_field(43)))
    with pytest.raises(InstanceTooLarge, match=f"scan {projective_size(17, 5)} points"):
        singular_points(cubics_v(1, make_field(17)))


@pytest.mark.parametrize("walk,q,dim", [
    (lambda F: fiber_size_table(MonomialMap(5, 5), F), 43, 4),
    (lambda F: surface_points(quadric_q(F)), 61, 3),
], ids=["fiber_size_table", "surface_points"])
def test_walks_refuse_past_the_scan_cap(monkeypatch, walk, q, dim):
    # every walk reads the one scan cap before its first block
    def walked(*args, **kwargs):
        raise AssertionError("a block was built")

    monkeypatch.setattr(counting, "iter_projective_chunks", walked)
    monkeypatch.setattr(singular, "iter_projective_chunks", walked)
    size = projective_size(q, dim)
    with pytest.raises(InstanceTooLarge, match=f"P\\^{dim}: .* scan {size} points"):
        walk(make_field(q))


def _on(inst, rows):
    # how many of the index rows lie on the instance
    return int(inst.vanishing_mask(list(rows.T)).sum())


def test_preimage_generic_and_special():
    phi = MonomialMap(5, 5)
    X = quintic_x(1, F11)
    Y = quintic_y(1, F11)
    # every point with no zero coordinate: its image is generic, or the
    # extra node (1:1:1:1:1), and has the full fiber
    pts = points(X)
    imgs = unique_points(apply_map(phi, pts[pts.all(axis=1)], F11), F11)
    strata = []
    for y in imgs:
        rows = fiber_points(phi, y, F11)
        assert len(rows) == 625 and _on(X, rows) == 125
        strata.append(_stratum(y, Y))
    assert strata == [Stratum.EXTRA_NODE] + [Stratum.GENERIC] * 10

    b = (0, 0, 0, 1, F11.element(-1).index)
    rows = fiber_points(phi, b, F11)
    assert len(rows) == 5 == _on(X, rows)
    assert _stratum(b, Y) is Stratum.IN_POINT_SET_B


def _stratum(point, y):
    # the stratum of one index row, by strata_codes
    return tuple(Stratum)[strata_codes([point], y)[0]]


def test_preimage_of_line_image_is_25():
    phi = MonomialMap(5, 5)
    x = (0, 0, 1, 1, F11.element(-2).index)
    [y] = apply_map(phi, [x], F11)
    assert len(fiber_points(phi, y, F11)) == 25


def test_preimage_f31_line_witness():
    F31 = make_field(31)
    phi = MonomialMap(5, 5)
    y = (0, 0, 1, 5, 25)
    rows = fiber_points(phi, y, F31)
    assert _stratum(y, quintic_y(1, F31)) is Stratum.ON_LINE_A
    assert len(rows) == 25 == _on(quintic_x(1, F31), rows)


def test_preimage_empty_when_ratio_not_fifth_power():
    phi = MonomialMap(5, 5)
    y = (1, 2, 1, 1, 1)  # 2 not a 5th power
    rows = fiber_points(phi, y, F11)
    assert rows.shape == (0, 5) and rows.dtype == np.int64


def test_preimage_needs_roots_of_unity():
    with pytest.raises(RootOfUnityUnavailable):
        fiber_points(MonomialMap(5, 5), (1,) * 5, F7)


def test_preimage_count_reads_the_field_off_the_point():
    # a point is taken over the field given with it: over F_7, which lacks
    # the fifth roots of unity, it is refused; index 10 is -1 in F_11, a
    # fifth power, and 10 in F_31, which is none
    phi = MonomialMap(5, 5)
    with pytest.raises(RootOfUnityUnavailable, match="GF\\(7\\)"):
        fiber_points(phi, (1,) * 5, F7)
    rows = fiber_points(phi, (1, 1, 1, 1, 10), F11)
    assert len(rows) == 625 and rows.max() < 11
    assert fiber_points(phi, (1, 1, 1, 1, 10), make_field(31)).shape == (0, 5)


def test_fiber_partition_of_p4():
    sizes = fiber_size_table(MonomialMap(5, 5), F11)
    assert int(sizes.sum()) == projective_size(11, 4) == 16105
    full = {0, 1, 5, 25, 125, 625}
    assert set(int(s) for s in sizes) <= full


def test_fiber_sizes_match_preimage_count_at_every_point():
    # the table against the root lists at every point: P^4(F_11) under
    # x -> x^5, and P^5(F_4) under x -> x^3, an extension field
    for F, m in ((F11, MonomialMap(5, 5)), (make_field(2, 2), MonomialMap(3, 6))):
        sizes = fiber_size_table(m, F)
        pts = np.concatenate([
            np.stack(np.broadcast_arrays(*block), axis=-1).reshape(-1, m.arity)
            for block in iter_projective_chunks(F, m.arity - 1)
        ])
        assert len(sizes) == len(pts) == projective_size(F.q, m.arity - 1)
        counts = [len(fiber_points(m, pt, F)) for pt in pts.tolist()]
        assert counts == sizes.tolist()


def test_fiber_rows_map_onto_their_point_at_every_point():
    # every fiber's rows are normalized and distinct, and the map sends each
    # of them to its point: P^4(F_11) under x -> x^5, and P^5(F_4) under
    # x -> x^3.  The fibers partition the source, so together they list
    # every point of the space once
    for F, m in ((F11, MonomialMap(5, 5)), (make_field(2, 2), MonomialMap(3, 6))):
        pts = np.concatenate([
            np.stack(np.broadcast_arrays(*block), axis=-1).reshape(-1, m.arity)
            for block in iter_projective_chunks(F, m.arity - 1)
        ])
        fibers = [fiber_points(m, pt, F) for pt in pts.tolist()]
        rows = np.concatenate(fibers)
        sizes = [len(f) for f in fibers]
        assert np.array_equal(normalize_rows(rows, F), rows)
        assert np.array_equal(apply_map(m, rows, F), np.repeat(pts, sizes, axis=0))
        assert len(unique_points(rows, F)) == len(rows) == len(pts)


def _line_witnesses(rows, F):
    # the surface points whose fifth powers lie on the mirror's lines or
    # triple points, as the quadric suite lists them
    codes = strata_codes(F.power_table(5)[rows], quintic_y(1, F))
    on_lines = (codes == Stratum.ON_LINE_A) | (codes == Stratum.IN_POINT_SET_B)
    return unique_points(rows[on_lines], F)


def test_surface_evidence_f11():
    surface = quadric_q(F11)
    rows = surface_points(surface)
    assert surface.vanishing_mask([1] * 5)  # (1:1:1:1:1); index 1 is one
    assert len(rows) == 144 == _on(quintic_x(1, F11), rows)
    assert full_rank(surface, rows).all()
    assert _on(quintic_y(1, F11), F11.power_table(5)[rows]) == 144
    assert _line_witnesses(rows, F11).shape == (0, 5)


def test_surface_evidence_f31_witnesses():
    F31 = make_field(31)
    surface = quadric_q(F31)
    rows = surface_points(surface)
    assert surface.vanishing_mask([1] * 5)
    assert len(rows) == 1024 == _on(quintic_x(1, F31), rows)
    assert full_rank(surface, rows).all()
    assert _on(quintic_y(1, F31), F31.power_table(5)[rows]) == 1024
    # a primitive cube root of unity is a fifth power mod 31, so the two
    # surface points on each coordinate plane are rational and map onto
    # the lines: 2 x 10 witnesses
    witnesses = _line_witnesses(rows, F31)
    assert len(witnesses) == 20
    for w in witnesses:
        assert sum(1 for x in w if not x) == 2


def test_surface_evidence_requires_quadric():
    with pytest.raises(ValueError, match="QuadricQ"):
        surface_points(quintic_x(1, F11))


# -- the jet Jacobian against the expanded partials ----------------------------

# F_125: characteristic 5, where every (5 mu) and 5 x^4 factor vanishes
_JET_FIELDS = [(7, 1), (11, 1), (31, 1), (2, 2), (3, 2), (11, 2), (5, 3)]


def _jet_instances(F):
    # every builder family, with an integer parameter (the template path) and
    # a FieldElement outside the prime subfield when F is an extension
    elem = F.from_index(F.q - 1)
    params = [2, elem] if F.element(2) else [elem]
    for param in params:
        for ctor in (quintic_x, quintic_y, cubics_v, cubics_w, cubics_wtilde):
            yield ctor(param, F)
        if (F.q - 1) % 3 == 0:
            yield new_coordinates_w(param, F)
    if (F.q - 1) % 5 == 0:
        yield quadric_q(F)


def _expanded_jacobian(inst, coords):
    return [
        [eval_batch(f.derivative(j), coords, inst.field) for j in range(f.nvars)]
        for f in inst.system
    ]


def _jet_jacobian(inst, coords):
    # the (points, equations, nvars) stack of the equations' Jet.partials()
    eqs = inst.equations(Jet.variables(coords, inst.field))
    return np.stack([eq.partials() for eq in eqs], axis=-2)


@pytest.mark.parametrize("p,k", _JET_FIELDS)
def test_jet_jacobian_equals_expanded_partials(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(1000 * p + k)
    for inst in _jet_instances(F):
        coords = list(rng.integers(0, F.q, size=(inst.nvars, 400)))
        coords[0][:50] = 0  # points with a zero coordinate
        got = _jet_jacobian(inst, coords)
        want = _expanded_jacobian(inst, coords)
        assert got.dtype == np.int64 and got.shape == (400, len(want), inst.nvars)
        for i, wrow in enumerate(want):
            for j, w in enumerate(wrow):
                assert np.array_equal(got[:, i, j], w)


@pytest.mark.parametrize("p,k", _JET_FIELDS)
def test_jet_hessian_equals_expanded_second_partials(p, k):
    # the order-2 stack: row j holds the partials of df/dx_j, and a partial
    # the jets know to vanish (None) reads as zeros
    F = make_field(p, k)
    rng = np.random.default_rng(2000 * p + k)
    vanishing = 0
    for inst in _jet_instances(F):
        n = inst.nvars
        coords = list(rng.integers(0, F.q, size=(n, 100)))
        coords[0][:20] = 0
        for eq, f in zip(inst.equations(Jet.variables(coords, F, order=2)), inst.system):
            got = eq.partials()
            assert got.dtype == np.int64 and got.shape == (100, n, n)
            for i in range(n):
                fi = f.derivative(i)
                for j in range(n):
                    want = eval_batch(fi.derivative(j), coords, F)
                    assert np.array_equal(got[:, i, j], want)
            vanishing += sum(
                row is None or row.d[j] is None for row in eq.d for j in range(n)
            )
    assert vanishing


def test_jet_fields_cover_every_builder():
    builders = {row.builder for row in families._FAMILIES.values() if row.builder is not None}
    builders.add(families._cubics_nu_form_polys)
    covered = {
        inst.equations.func
        for p, k in _JET_FIELDS
        for inst in _jet_instances(make_field(p, k))
    }
    assert covered == builders


def test_jacobian_without_builder_uses_expanded_partials():
    inst = quintic_y(2, F11)
    bare = FamilyInstance(
        inst.id, F11, inst.params, inst.ambient_dim, lambda x: [f(x) for f in inst.system]
    )
    coords = list(np.random.default_rng(3).integers(0, 11, size=(5, 200)))
    assert np.array_equal(_jet_jacobian(bare, coords), _jet_jacobian(inst, coords))


# -- the Jacobian rank and the fiber roots against their references -------------


def _minor_rule(inst, rows):
    """The Jacobian rule that matrix_ranks replaced, kept as the reference:
    full rank when some first partial (one equation) or some 2x2 minor (two
    equations) is nonzero."""
    F = inst.field
    jac = _jet_jacobian(inst, list(rows.T))
    if jac.shape[1] == 1:
        return (jac[:, 0] != 0).any(axis=1)
    mask = np.zeros(len(rows), dtype=bool)
    for c1, c2 in itertools.combinations(range(jac.shape[2]), 2):
        minor = F.vsub(F.vmul(jac[:, 0, c1], jac[:, 1, c2]), F.vmul(jac[:, 0, c2], jac[:, 1, c1]))
        mask |= minor != 0
    return mask


def _rank_cases(p):
    F = make_field(p)
    for param in (0, 1, 2):
        for ctor in (quintic_x, quintic_y, cubics_v, cubics_w, cubics_wtilde):
            yield ctor(param, F)
    for lam in (1, 2):
        yield new_coordinates_w(lam, F)


@pytest.mark.parametrize("p", [7, 13])
def test_full_rank_equals_minor_rule(p):
    deficient = set()
    for inst in _rank_cases(p):
        zeros = points(inst)
        want = _minor_rule(inst, zeros)
        assert np.array_equal(full_rank(inst, zeros), want)
        if not want.all():
            deficient.add(inst.id)
    # the cases include rank-deficient points of V and W (and of X and Y)
    assert deficient >= {FamilyId.CUBICS_V, FamilyId.CUBICS_W}


def test_full_rank_equals_minor_rule_on_the_quadric():
    # the quadric needs q = 1 mod 5, which neither F_7 nor F_13 is
    surface = quadric_q(F11)
    zeros = points(surface)
    want = _minor_rule(surface, zeros)
    assert want.all() and np.array_equal(full_rank(surface, zeros), want)


@pytest.mark.parametrize(
    "p,k,e,arity", [(11, 1, 5, 5), (31, 1, 5, 5), (31, 1, 3, 4), (7, 2, 3, 4)]
)
def test_preimage_roots_equal_exhaustive_search(p, k, e, arity):
    # the fiber's rows against the e-th roots of each coordinate found by
    # trying every element
    F = make_field(p, k)
    m = MonomialMap(e, arity)
    roots = {v.index: [u.index for u in F.elements() if u**e == v] for v in F.elements()}
    rng = np.random.default_rng(p * k + e)
    idx = rng.integers(0, F.q, size=(300, arity))
    idx[rng.random(idx.shape) < 0.2] = 0  # points with zero coordinates
    nonempty = 0
    for n, row in enumerate(idx.tolist()):
        if not any(row):
            continue
        y = tuple(map(F.from_index, row))
        if n % 2:  # the image of a point: a nonempty fiber
            y = tuple(x**e for x in y)
        inv = next(x for x in y if x).inverse()
        y = tuple(x * inv for x in y)
        pivot = next(i for i, x in enumerate(y) if x)
        lists = [[1] if i == pivot else roots[x.index] for i, x in enumerate(y)]
        rows = fiber_points(m, [x.index for x in y], F)
        assert rows.tolist() == [list(t) for t in itertools.product(*lists)]
        nonempty += len(rows) > 0
    assert nonempty >= 140


# -- the hyperplane scan of the quadric surface against a full P^4 scan ---------


def _full_scan_evidence(surface, target):
    """The quadric evidence from a scan of all of P^4, with the Jacobian from
    the expanded partials: the reference for the hyperplane scan."""
    F = surface.field
    mirror = quintic_y(target.params["mu"], F)
    fifth = F.power_table(5)
    points = set()
    contained = smooth = on_mirror = True
    witnesses = []
    for block in iter_projective_chunks(F, 4):
        coords = [c.ravel() for c in np.broadcast_arrays(*block)]
        mask = surface.vanishing_mask(coords)
        sub = [c[mask] for c in coords]
        points |= {tuple(int(c[i]) for c in sub) for i in range(sub[0].shape[0])}
        contained &= bool(target.vanishing_mask(sub).all())
        (a, b) = _expanded_jacobian(surface, sub)
        rank2 = np.zeros(sub[0].shape, dtype=bool)
        for i in range(5):
            for j in range(i + 1, 5):
                rank2 |= F.vsub(F.vmul(a[i], b[j]), F.vmul(a[j], b[i])) != 0
        smooth &= bool(rank2.all())
        imgs = [fifth[c] for c in sub]
        on_mirror &= bool(mirror.vanishing_mask(imgs).all())
        zeros = sum((c == 0).astype(np.int64) for c in imgs)
        total = imgs[0]
        for c in imgs[1:]:
            total = F.vadd(total, c)
        for col in np.nonzero((zeros >= 2) & (total == 0))[0]:
            witnesses.append([int(c[col]) for c in sub])
    return points, contained, smooth, on_mirror, witnesses


@pytest.mark.parametrize("p", [11, 31])
def test_hyperplane_scan_equals_full_scan(p):
    F = make_field(p)
    surface, target = quadric_q(F), quintic_x(1, F)
    points, contained, smooth, on_mirror, witnesses = _full_scan_evidence(
        surface, target
    )
    rows = surface_points(surface)
    hyper = set(map(tuple, normalize_rows(rows, F).tolist()))
    assert len(rows) == len(hyper) == len(points)
    assert hyper == points
    # each claim of the quadric suite on the rows, against the full scan
    assert (_on(target, rows) == len(rows)) == contained
    assert full_rank(surface, rows).all() == smooth
    assert (_on(quintic_y(1, F), F.power_table(5)[rows]) == len(rows)) == on_mirror
    # the scan meets the witnesses in chart order; the suite lists them
    # sorted by index tuple, as singular_points
    assert _line_witnesses(rows, F).tolist() == sorted(witnesses)


@pytest.mark.parametrize("p,chunks", [(11, [1, 7]), (31, [31, 1 << 19]), (41, [41, 1 << 19])])
def test_surface_scan_is_the_same_for_every_block_size(monkeypatch, p, chunks):
    # the surface's points, in chart order, do not depend on counting._CHUNK:
    # blocks of single points, of one axis of q points, and one block per
    # chart (2^19 points hold chart 0 over F_41).  Blocks of 1 or 7 points
    # take seconds over F_31 and F_41, so q is the least there
    surface = quadric_q(make_field(p))
    want = surface_points(surface)
    for chunk in chunks:
        monkeypatch.setattr(counting, "_CHUNK", chunk)
        assert np.array_equal(surface_points(surface), want)


# -- the batched jet Hessians against a scalar MPoly reference ----------------


def _scalar_rank(rows):
    """Rank of a matrix of FieldElements by scalar Gauss-Jordan elimination."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][col].inverse()
        m[rank] = [v * inv for v in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _scalar_ranks(inst, points):
    """The Hessian test one index row at a time: the point normalized in
    FieldElements, the expanded polynomial's symbolic second partials
    evaluated term by term, the pivot row and column deleted, and a scalar
    elimination."""
    (f,) = inst.system
    n = f.nvars
    seconds = {
        (a, b): f.derivative(a).derivative(b).terms() for a in range(n) for b in range(a, n)
    }
    out = []
    for row in np.asarray(points).tolist():
        point = [inst.field.from_index(c) for c in row]
        inv = next(x for x in point if x).inverse()
        point = [x * inv for x in point]
        powers = [[x**e for e in range(6)] for x in point]
        pivot = next(i for i, x in enumerate(point) if x)
        others = [i for i in range(n) if i != pivot]
        hess = {}
        for a, b in itertools.combinations_with_replacement(others, 2):
            value = point[0].field.zero
            for exps, c in seconds[a, b]:
                for i, e in enumerate(exps):
                    if e:
                        c = c * powers[i][e]
                value = value + c
            hess[a, b] = hess[b, a] = value
        out.append(_scalar_rank([[hess[a, b] for b in others] for a in others]))
    return out


@pytest.mark.parametrize("p", [7, 11, 31])
def test_classify_nodes_equal_scalar_hessians(p):
    F = make_field(p)
    ranks = set()
    for ctor in (quintic_x, quintic_y):
        for mu in (1, 2, 3):
            inst = ctor(mu, F)
            points = singular_points(inst)
            got = hessian_ranks(inst, points)
            assert got.dtype == np.int64 and got.tolist() == _scalar_ranks(inst, points)
            ranks |= set(got.tolist())
    assert {0, 2, 4} <= ranks


def test_classify_nodes_over_extension_field():
    F49 = make_field(7, 2)
    ones = [(1,) * 5]
    for ctor in (quintic_x, quintic_y):
        inst = ctor(1, F49)
        got = hessian_ranks(inst, ones)
        assert got.tolist() == _scalar_ranks(inst, ones) == [4]


def test_classify_nodes_without_builder_uses_expanded_partials():
    for inst in (quintic_x(1, F11), quintic_y(1, F11)):
        expanded = inst.system
        bare = FamilyInstance(
            inst.id, F11, inst.params, inst.ambient_dim, lambda x: [f(x) for f in expanded]
        )
        points = singular_points(inst)
        assert np.array_equal(hessian_ranks(bare, points), hessian_ranks(inst, points))


def test_classify_nodes_batch_equals_one_at_a_time():
    F31 = make_field(31)
    inst = quintic_y(2, F31)
    # unnormalized representatives: every point scaled by 3
    normalized = singular_points(inst)
    points = F31.vmul(normalized, 3)
    batch = hessian_ranks(inst, points)
    assert batch.tolist() == [hessian_ranks(inst, [pt])[0] for pt in points]
    assert np.array_equal(batch, hessian_ranks(inst, normalized))
    assert hessian_ranks(inst, np.empty((0, 5), dtype=np.int64)).shape == (0,)


def test_classify_nodes_refusals():
    X = quintic_x(1, F11)
    nodes = singular_points(X)
    smooth = (0, 0, 0, 1, F11.element(-1).index)
    with pytest.raises(NotSingular, match=r"\[0, 0, 0, 1, 10\] is a smooth point"):
        hessian_ranks(X, [*nodes[:3], smooth, *nodes[3:]])
    with pytest.raises(ValueError, match="zero vector"):
        hessian_ranks(X, [*nodes[:3], (0,) * 5])
    F5 = make_field(5)
    with pytest.raises(BadCharacteristic):
        hessian_ranks(quintic_x(1, F5), [(1,) * 5])
    with pytest.raises(ValueError, match="hypersurfaces"):
        hessian_ranks(cubics_v(1, F7), [(1,) * 6])


@pytest.mark.parametrize("p", [11, 31])
def test_hessian_ranks_do_not_depend_on_the_representative(p):
    # H(cx) = c^(d - 2) H(x): every representative of a point has its rank
    F = make_field(p)
    for inst in (quintic_x(1, F), quintic_y(1, F)):
        points = singular_points(inst)
        want = hessian_ranks(inst, points)
        assert set(want.tolist()) >= {4}
        for c in (1, 3, p - 1):
            assert np.array_equal(hessian_ranks(inst, F.vmul(points, c)), want)


def test_point_sets_are_normalized_index_rows():
    # every function that hands out points gives an (n, nvars) int64 array
    # of normalized rows, sorted and distinct where its docstring says so
    from mirrorquintic.symmetry import enumerate_G, orbit

    F31 = make_field(31)
    X = quintic_x(1, F31)
    phi = MonomialMap(5, 5)
    every = points(X)
    cases = [
        (every, False),
        (apply_map(phi, every, F31), False),
        (points_on_lines_a(F31), True),
        (singular_points(quintic_y(1, F31)), True),
        (orbit((1, 3, 3, 3, 3), enumerate_G(), F31), True),
        (fiber_points(phi, apply_map(phi, [(1, 2, 3, 4, 5)], F31)[0], F31), True),
    ]
    for pts, ordered in cases:
        assert pts.dtype == np.int64 and pts.ndim == 2 and pts.shape[1] == 5 and len(pts)
        assert np.array_equal(normalize_rows(pts, F31), pts)
        rows = pts.tolist()
        if ordered:
            assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)
    # points come in chart order, which is not sorted, but once each
    assert len(set(map(tuple, every.tolist()))) == len(every) == count_naive(X).count
