import itertools

import numpy as np
import pytest

from mirrorquintic import families, singular
from mirrorquintic.counting import iter_projective_chunks, projective_size
from mirrorquintic.errors import (
    BadCharacteristic,
    FieldMismatch,
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
    normalize_point,
    quadric_q,
    quintic_x,
    quintic_y,
    sample_points,
    strata_membership,
)
from mirrorquintic.ffield import make_field
from mirrorquintic.mvpoly import eval_batch
from mirrorquintic.singular import (
    _jacobian,
    _surface_points,
    classify_nodes,
    fiber_size_table,
    preimage_count,
    singular_points,
    surface_evidence,
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
    # the report of the scan over one point per orbit of the declared
    # blocks is the full scan's: the same points in the same order and the
    # same strata; on small fields also for tiny grid blocks
    chunks = [singular._SCAN_CHUNK, 1, 7] if q <= 4 else [singular._SCAN_CHUNK]
    for inst in _orbit_cases(q):
        full = _full_scan_instance(inst)
        assert inst.blocks or inst.equations.func is families._cubics_nu_form_polys
        want = singular_points(full)
        for chunk in chunks:
            monkeypatch.setattr(singular, "_SCAN_CHUNK", chunk)
            got = singular_points(inst)
            assert got.points == want.points
            assert got.strata_counts == want.strata_counts


def test_x1_f11_node_census():
    rep = singular_points(quintic_x(1, F11))
    assert rep.count == 125
    assert all(c.is_node for c in classify_nodes(quintic_x(1, F11), rep.points))


def test_scan_without_zeros_reports_nothing():
    # x0^2 = 3 x1^2 has no point over F_7 (3 is not a square): no block
    # gathers a zero, and the Jacobian runs on empty arrays
    conic = FamilyInstance(
        FamilyId.QUINTIC_X, F7, {}, 1, lambda x: [x[0] ** 2 - (x[1] ** 2).scale(3)]
    )
    rep = singular_points(conic)
    assert rep.points == []
    assert rep.strata_counts == dict.fromkeys(Stratum, 0)


def test_y2_f11_singular_locus_is_lines():
    rep = singular_points(quintic_y(2, F11))
    assert rep.count == 10 * 11 - 10
    assert rep.strata_counts[Stratum.ON_LINE_A] == 90
    assert rep.strata_counts[Stratum.IN_POINT_SET_B] == 10
    assert rep.strata_counts[Stratum.GENERIC] == 0


def test_y1_f11_extra_node():
    rep = singular_points(quintic_y(1, F11))
    assert rep.count == 10 * 11 - 9
    assert rep.strata_counts[Stratum.EXTRA_NODE] == 1
    assert (F11.one,) * 5 in set(rep.points)


@pytest.mark.parametrize("p", [7, 31])
def test_y_singular_counts_other_fields(p):
    F = make_field(p)
    for mu in (1, 2, 3):
        if not F.element(mu):
            continue
        rep = singular_points(quintic_y(mu, F))
        expected = 10 * p - 9 if F.element(mu) ** 5 == F.one else 10 * p - 10
        assert rep.count == expected


def test_nodes_of_other_root_of_unity_member():
    # mu = 3 is a fifth root of unity mod 11; the nodes are the orbit of
    # (1 : mu : mu : mu : mu)
    from mirrorquintic.symmetry import enumerate_G, orbit

    mu = F11.element(3)
    assert mu**5 == F11.one
    rep = singular_points(quintic_x(mu, F11))
    seed = (F11.one, mu, mu, mu, mu)
    assert rep.count == 125
    assert set(rep.points) == orbit(seed, enumerate_G())


def test_classify_node_at_symmetric_point():
    [nc] = classify_nodes(quintic_x(1, F11), [(F11.one,) * 5])
    assert nc.is_node and nc.hessian_rank == 4
    [ncy] = classify_nodes(quintic_y(1, F11), [(F11.one,) * 5])
    assert ncy.is_node


def test_a_point_is_singular_but_not_node():
    pt = (F11.zero, F11.zero, F11.one, F11.one, F11.element(-2))
    [nc] = classify_nodes(quintic_y(1, F11), [pt])
    assert not nc.is_node and nc.hessian_rank <= 3


def test_classify_node_rejects_smooth_point():
    with pytest.raises(NotSingular):
        classify_nodes(quintic_x(2, F11), [(F11.one,) * 5])


def test_classify_node_rejects_small_characteristic():
    F2, F5 = make_field(2), make_field(5)
    with pytest.raises(BadCharacteristic):
        classify_nodes(quintic_x(1, F2), [(F2.one,) * 5])
    with pytest.raises(BadCharacteristic):
        classify_nodes(quintic_x(1, F5), [(F5.one,) * 5])


def test_singular_scan_cap():
    # the refusal states the size of the scan it would have run
    with pytest.raises(InstanceTooLarge, match=f"scan {projective_size(43, 4)} points"):
        singular_points(quintic_x(1, make_field(43)))
    with pytest.raises(InstanceTooLarge, match=f"scan {projective_size(17, 5)} points"):
        singular_points(cubics_v(1, make_field(17)))


def test_preimage_generic_and_special():
    phi = MonomialMap(5, 5)
    X = quintic_x(1, F11)
    Y = quintic_y(1, F11)
    x = sample_points(X, 1, seed=5, nonzero_coords=True)[0]
    fr = preimage_count(phi, apply_map(phi, x), within=X)
    assert fr.count == 625 and fr.count_within == 125
    assert fr.predicted == 625 and strata_membership(fr.point, Y) is Stratum.GENERIC

    b = (F11.zero,) * 3 + (F11.one, F11.element(-1))
    frb = preimage_count(phi, b, within=X)
    assert frb.count == 5 == frb.count_within == frb.predicted
    assert strata_membership(frb.point, Y) is Stratum.IN_POINT_SET_B


def test_preimage_of_line_image_is_25():
    phi = MonomialMap(5, 5)
    x = (F11.zero, F11.zero, F11.one, F11.one, F11.element(-2))
    fr = preimage_count(phi, apply_map(phi, x))
    assert fr.count == 25 == fr.predicted


def test_preimage_f31_line_witness():
    F31 = make_field(31)
    phi = MonomialMap(5, 5)
    y = (F31.zero, F31.zero, F31.one, F31.element(5), F31.element(25))
    fr = preimage_count(phi, y, within=quintic_x(1, F31))
    assert strata_membership(fr.point, quintic_y(1, F31)) is Stratum.ON_LINE_A
    assert fr.count == 25 and fr.count_within == 25


def test_preimage_empty_when_ratio_not_fifth_power():
    phi = MonomialMap(5, 5)
    y = (F11.one, F11.element(2), F11.one, F11.one, F11.one)  # 2 not a 5th power
    fr = preimage_count(phi, y)
    assert fr.count == 0 and fr.count < fr.predicted


def test_preimage_needs_roots_of_unity():
    with pytest.raises(RootOfUnityUnavailable):
        preimage_count(MonomialMap(5, 5), (F7.one,) * 5)


def test_preimage_count_reads_the_field_off_the_point():
    # a point over F_7 is counted over F_7, which lacks the fifth roots of
    # unity, and an instance over another field is refused
    phi = MonomialMap(5, 5)
    with pytest.raises(RootOfUnityUnavailable, match="GF\\(7\\)"):
        preimage_count(phi, (F7.one,) * 5, within=quintic_x(1, F11))
    with pytest.raises(FieldMismatch):
        preimage_count(phi, (F11.one,) * 5, within=quintic_x(1, F7))
    with pytest.raises(FieldMismatch):
        preimage_count(phi, (F11.one,) * 5, within=quintic_x(1, make_field(31)))


def test_fiber_partition_of_p4():
    sizes = fiber_size_table(MonomialMap(5, 5), F11)
    assert int(sizes.sum()) == projective_size(11, 4) == 16105
    full = {0, 1, 5, 25, 125, 625}
    assert set(int(s) for s in sizes) <= full


def test_fiber_sizes_match_preimage_count_on_samples():
    import numpy as np

    from mirrorquintic.counting import iter_projective_chunks

    phi = MonomialMap(5, 5)
    sizes = fiber_size_table(phi, F11)
    pts = []
    for block in iter_projective_chunks(F11, 4):
        coords = [c.ravel() for c in np.broadcast_arrays(*block)]
        for col in range(coords[0].shape[0]):
            pts.append(tuple(F11.from_index(int(c[col])) for c in coords))
    rng = np.random.default_rng(8)
    for i in rng.integers(0, len(pts), size=100):
        assert preimage_count(phi, pts[int(i)]).count == int(sizes[int(i)])


def test_surface_evidence_f11():
    ev = surface_evidence(quadric_q(F11), quintic_x(1, F11))
    assert ev.special_point_on_surface and ev.contained_in_target
    assert ev.jacobian_full_rank and ev.images_on_mirror
    assert ev.line_witnesses == []


def test_surface_evidence_f31_witnesses():
    F31 = make_field(31)
    ev = surface_evidence(quadric_q(F31), quintic_x(1, F31))
    assert ev.special_point_on_surface and ev.contained_in_target
    assert ev.jacobian_full_rank and ev.images_on_mirror
    # a primitive cube root of unity is a fifth power mod 31, so the two
    # surface points on each coordinate plane are rational and map onto
    # the lines: 2 x 10 witnesses
    assert len(ev.line_witnesses) == 20
    for w in ev.line_witnesses:
        assert sum(1 for x in w if not x) == 2


def test_surface_evidence_requires_quadric():
    with pytest.raises(ValueError):
        surface_evidence(quintic_x(1, F11), quintic_x(1, F11))


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


@pytest.mark.parametrize("p,k", _JET_FIELDS)
def test_jet_jacobian_equals_expanded_partials(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(1000 * p + k)
    for inst in _jet_instances(F):
        coords = list(rng.integers(0, F.q, size=(inst.nvars, 400)))
        coords[0][:50] = 0  # points with a zero coordinate
        got = _jacobian(inst, coords)
        want = _expanded_jacobian(inst, coords)
        assert len(got) == len(want)
        for grow, wrow in zip(got, want):
            assert len(grow) == len(wrow) == inst.nvars
            for g, w in zip(grow, wrow):
                assert g.dtype == np.int64 and np.array_equal(g, w)


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
    got = _jacobian(bare, coords)
    for grow, wrow in zip(got, _jacobian(inst, coords)):
        for g, w in zip(grow, wrow):
            assert np.array_equal(g, w)


# -- the Jacobian rank and the fiber roots against their references -------------


def _minor_rule(inst, rows):
    """The Jacobian rule that matrix_ranks replaced, kept as the reference:
    full rank when some first partial (one equation) or some 2x2 minor (two
    equations) is nonzero."""
    F = inst.field
    jac = _jacobian(inst, list(rows.T))
    mask = np.zeros(len(rows), dtype=bool)
    if len(jac) == 1:
        for d in jac[0]:
            mask |= d != 0
        return mask
    for c1, c2 in itertools.combinations(range(len(jac[0])), 2):
        minor = F.vsub(F.vmul(jac[0][c1], jac[1][c2]), F.vmul(jac[0][c2], jac[1][c1]))
        mask |= minor != 0
    return mask


def _zeros(inst):
    """Every F_q-point of the instance, as the rows of an index array."""
    F = inst.field
    return np.concatenate(
        [
            singular._gather(coords, inst.vanishing_mask(coords))
            for coords in iter_projective_chunks(F, inst.ambient_dim)
        ]
    )


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
        zeros = _zeros(inst)
        want = _minor_rule(inst, zeros)
        assert np.array_equal(singular._full_rank(inst, zeros), want)
        if not want.all():
            deficient.add(inst.id)
    # the cases include rank-deficient points of V and W (and of X and Y)
    assert deficient >= {FamilyId.CUBICS_V, FamilyId.CUBICS_W}


def test_full_rank_equals_minor_rule_on_the_quadric():
    # the quadric needs q = 1 mod 5, which neither F_7 nor F_13 is
    surface = quadric_q(F11)
    zeros = _zeros(surface)
    want = _minor_rule(surface, zeros)
    assert want.all() and np.array_equal(singular._full_rank(surface, zeros), want)


def _recording_instance(F, nvars, seen):
    """An instance over F whose one equation vanishes everywhere and which
    records, as index rows, every point it is evaluated on."""

    def equations(x):
        coords = np.broadcast_arrays(*(c.a for c in x))
        seen.extend(map(tuple, np.stack(coords, axis=-1).reshape(-1, nvars).tolist()))
        return [x[0] - x[0]]

    return FamilyInstance(FamilyId.QUINTIC_X, F, {}, nvars - 1, equations)


@pytest.mark.parametrize(
    "p,k,e,arity", [(11, 1, 5, 5), (31, 1, 5, 5), (31, 1, 3, 4), (7, 2, 3, 4)]
)
def test_preimage_roots_equal_exhaustive_search(p, k, e, arity):
    # the fiber points preimage_count lists (through within) and its count,
    # against the e-th roots of each coordinate found by trying every element
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
        y = normalize_point(y)
        pivot = next(i for i, x in enumerate(y) if x)
        lists = [[1] if i == pivot else roots[x.index] for i, x in enumerate(y)]
        seen = []
        fr = preimage_count(m, y, within=_recording_instance(F, arity, seen))
        assert fr.count == fr.count_within == len(seen)
        assert seen == list(itertools.product(*lists))
        nonempty += fr.count > 0
    assert nonempty >= 140


# -- the hyperplane scan of the quadric surface against a full P^4 scan ---------


def _full_scan_evidence(surface, target):
    """The quadric evidence from a scan of all of P^4, with the Jacobian from
    the expanded partials: the reference for the hyperplane scan."""
    F = surface.field
    mirror = quintic_y(target.params["mu"], F)
    fifth = F.power_table(5)
    points = set()
    contained = full_rank = on_mirror = True
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
        full_rank &= bool(rank2.all())
        imgs = [fifth[c] for c in sub]
        on_mirror &= bool(mirror.vanishing_mask(imgs).all())
        zeros = sum((c == 0).astype(np.int64) for c in imgs)
        total = imgs[0]
        for c in imgs[1:]:
            total = F.vadd(total, c)
        for col in np.nonzero((zeros >= 2) & (total == 0))[0]:
            witnesses.append(tuple(F.from_index(int(c[col])) for c in sub))
    return points, contained, full_rank, on_mirror, witnesses


@pytest.mark.parametrize("p", [11, 31])
def test_hyperplane_scan_equals_full_scan(p):
    F = make_field(p)
    surface, target = quadric_q(F), quintic_x(1, F)
    points, contained, full_rank, on_mirror, witnesses = _full_scan_evidence(
        surface, target
    )
    rows = _surface_points(surface).tolist()
    hyper = {tuple(x.index for x in normalize_point(map(F.from_index, row))) for row in rows}
    assert len(rows) == len(hyper) == len(points)
    assert hyper == points
    ev = surface_evidence(surface, target)
    assert ev.surface_points == len(points)
    assert ev.contained_in_target == contained
    assert ev.jacobian_full_rank == full_rank
    assert ev.images_on_mirror == on_mirror
    # the scan meets the witnesses in chart order; the evidence lists them
    # sorted by index tuple, as SingularReport.points
    assert ev.line_witnesses == sorted(witnesses, key=lambda w: [x.index for x in w])
    assert ev.special_point_on_surface


@pytest.mark.parametrize("p,chunks", [(11, [1, 7]), (31, [31, 1 << 19]), (41, [41, 1 << 19])])
def test_surface_scan_is_the_same_for_every_block_size(monkeypatch, p, chunks):
    # the surface's points, in chart order, and its evidence do not depend
    # on _SCAN_CHUNK: blocks of single points, of one axis of q points, and
    # one block per chart (2^19 points hold chart 0 over F_41).  Blocks of
    # 1 or 7 points take seconds over F_31 and F_41, so q is the least there
    F = make_field(p)
    surface, target = quadric_q(F), quintic_x(1, F)
    want_rows = _surface_points(surface)
    want = surface_evidence(surface, target)
    for chunk in chunks:
        monkeypatch.setattr(singular, "_SCAN_CHUNK", chunk)
        assert np.array_equal(_surface_points(surface), want_rows)
        assert surface_evidence(surface, target) == want


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


def _scalar_classifications(inst, points):
    """The Hessian test one point at a time: the expanded polynomial's
    symbolic second partials evaluated term by term in FieldElements, the
    pivot row and column deleted, and a scalar elimination."""
    (f,) = inst.system
    n = f.nvars
    seconds = {
        (a, b): f.derivative(a).derivative(b).terms() for a in range(n) for b in range(a, n)
    }
    out = []
    for point in points:
        point = normalize_point(point)
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
        rank = _scalar_rank([[hess[a, b] for b in others] for a in others])
        out.append((point, rank, rank == len(others)))
    return out


def _as_tuples(results):
    return [(c.point, c.hessian_rank, c.is_node) for c in results]


@pytest.mark.parametrize("p", [7, 11, 31])
def test_classify_nodes_equal_scalar_hessians(p):
    F = make_field(p)
    ranks = set()
    for ctor in (quintic_x, quintic_y):
        for mu in (1, 2, 3):
            inst = ctor(mu, F)
            points = singular_points(inst).points
            got = classify_nodes(inst, points)
            assert _as_tuples(got) == _scalar_classifications(inst, points)
            ranks |= {c.hessian_rank for c in got}
    assert {0, 2, 4} <= ranks


def test_classify_nodes_over_extension_field():
    F49 = make_field(7, 2)
    ones = (F49.one,) * 5
    for ctor in (quintic_x, quintic_y):
        inst = ctor(1, F49)
        got = classify_nodes(inst, [ones])
        assert _as_tuples(got) == _scalar_classifications(inst, [ones])
        assert got[0].is_node


def test_classify_nodes_without_builder_uses_expanded_partials():
    for inst in (quintic_x(1, F11), quintic_y(1, F11)):
        expanded = inst.system
        bare = FamilyInstance(
            inst.id, F11, inst.params, inst.ambient_dim, lambda x: [f(x) for f in expanded]
        )
        points = singular_points(inst).points
        assert _as_tuples(classify_nodes(bare, points)) == _as_tuples(
            classify_nodes(inst, points)
        )


def test_classify_nodes_batch_equals_one_at_a_time():
    F31 = make_field(31)
    inst = quintic_y(2, F31)
    # unnormalized representatives: every point scaled by 3
    points = [tuple(x * 3 for x in pt) for pt in singular_points(inst).points]
    batch = classify_nodes(inst, points)
    assert _as_tuples(batch) == [
        (c.point, c.hessian_rank, c.is_node)
        for [c] in (classify_nodes(inst, [pt]) for pt in points)
    ]
    assert [c.point for c in batch] == [normalize_point(pt) for pt in points]
    assert classify_nodes(inst, []) == []


def test_classify_nodes_refusals():
    X = quintic_x(1, F11)
    nodes = singular_points(X).points
    smooth = (F11.zero, F11.zero, F11.zero, F11.one, F11.element(-1))
    with pytest.raises(NotSingular, match=r"\[0, 0, 0, 1, 10\] is a smooth point"):
        classify_nodes(X, [*nodes[:3], smooth, *nodes[3:]])
    F5 = make_field(5)
    with pytest.raises(BadCharacteristic):
        classify_nodes(quintic_x(1, F5), [(F5.one,) * 5])
    with pytest.raises(ValueError, match="hypersurfaces"):
        classify_nodes(cubics_v(1, F7), [(F7.one,) * 6])


def test_classify_nodes_refuses_points_of_another_field():
    # the indices of an F_7 point mean other elements of F_11: (1:1:1:1:1)
    # over F_7 is not the node (1:1:1:1:1) of the F_11 quintic
    X = quintic_x(1, F11)
    with pytest.raises(FieldMismatch):
        classify_nodes(X, [(F7.one,) * 5])
    with pytest.raises(FieldMismatch):
        classify_nodes(X, [(F11.one,) * 5, (F7.one,) * 5])
