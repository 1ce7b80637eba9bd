import functools
import tracemalloc

import numpy as np
import pytest

from mirrorquintic import families
from mirrorquintic.cli import run
from mirrorquintic.counting import count, iter_projective_chunks, points
from mirrorquintic.errors import (
    DimensionMismatch,
    FieldMismatch,
    InstanceTooLarge,
    MissingParameter,
    RootOfUnityUnavailable,
    ZeroDenominator,
)
from mirrorquintic.families import (
    FamilyId,
    MonomialMap,
    Stratum,
    apply_map,
    build_family,
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
    verify_coordinate_change,
    wtilde_from_lambda,
)
from mirrorquintic.ffield import FieldArray, Jet, make_field, primitive_nth_root
from mirrorquintic.mvpoly import MPoly, eval_batch
from mirrorquintic.singular import fiber_points, hessian_ranks, singular_points
from mirrorquintic.symmetry import enumerate_G, orbit

F7 = make_field(7)
F11 = make_field(11)
F13 = make_field(13)


def test_build_x_shape():
    inst = quintic_x(1, F11)
    (f,) = inst.system
    assert inst.ambient_dim == 4
    assert len(f) == 6 and f.degree() == 5 and f.is_homogeneous()


def test_build_y_mu_zero_is_hyperplane_power():
    inst = quintic_y(0, F7)
    x = [MPoly.variable(5, i, F7) for i in range(5)]
    s = x[0] + x[1] + x[2] + x[3] + x[4]
    assert inst.system == [s**5]


def test_build_wtilde_pattern():
    inst = cubics_wtilde(1, F7)
    x = [MPoly.variable(6, i, F7) for i in range(6)]
    f1 = (x[3] + x[4] + x[5] - x[0]) ** 3 - (x[3] * x[4] * x[5]).scale(27)
    assert inst.system[0] == f1
    assert inst.ambient_dim == 5


def test_build_missing_parameter():
    with pytest.raises(MissingParameter):
        build_family(FamilyId.QUINTIC_X, {}, F11)
    with pytest.raises(MissingParameter):
        build_family(FamilyId.QUINTIC_X, {"mu": 1, "nu": 2}, F11)


def test_quadric_needs_fifth_root():
    q = quadric_q(F11)
    assert q.params["xi5"] ** 5 == F11.one
    assert [f.degree() for f in q.system] == [1, 2]
    with pytest.raises(RootOfUnityUnavailable):
        quadric_q(F7)


def test_quadric_over_extension():
    F16 = make_field(2, 4)
    q = quadric_q(F16)
    assert not any(f.eval((F16.one,) * 5) for f in q.system)


def test_wtilde_from_lambda():
    inst = wtilde_from_lambda(2, F7)
    lam = F7.element(2)
    assert inst.params["nu"] == (lam**3).inverse()
    with pytest.raises(ZeroDenominator):
        wtilde_from_lambda(0, F7)


def test_apply_map_fixed_points():
    phi = MonomialMap(5, 5)
    ones = np.ones((1, 5), dtype=np.int64)  # index 1 is one
    assert np.array_equal(apply_map(phi, ones, F11), ones)
    psi = MonomialMap(3, 6)
    ones6 = np.ones((1, 6), dtype=np.int64)
    assert np.array_equal(apply_map(psi, ones6, F7), ones6)
    with pytest.raises(DimensionMismatch):
        apply_map(phi, ones6, F7)


@pytest.mark.parametrize("exponent", [0, -3])
def test_monomial_map_refuses_exponent_below_1(exponent):
    with pytest.raises(ValueError, match="exponent must be >= 1"):
        MonomialMap(exponent, 5)
    assert MonomialMap(1, 5) == MonomialMap(exponent=1, arity=5)


def test_apply_map_fifth_root_of_minus_one():
    a = F11.element(2)  # 2^5 = -1 mod 11
    img = apply_map(MonomialMap(5, 5), [[0, 0, 0, 1, a.index]], F11)
    assert img.tolist() == [[0, 0, 0, 1, F11.element(-1).index]]


def _stratum(point, y):
    # the stratum of one index row, by strata_codes
    return tuple(Stratum)[strata_codes([point], y)[0]]


def test_strata_membership():
    y1 = quintic_y(1, F7)
    b_pt = (0, 0, 0, 1, F7.element(-1).index)
    assert _stratum(b_pt, y1) is Stratum.IN_POINT_SET_B
    y11 = quintic_y(1, F11)
    a_pt = (0, 0, 1, 1, F11.element(-2).index)
    assert _stratum(a_pt, y11) is Stratum.ON_LINE_A
    ones = (1,) * 5
    assert _stratum(ones, y11) is Stratum.EXTRA_NODE
    assert _stratum(ones, quintic_y(2, F11)) is Stratum.GENERIC
    generic = (1, 2, 0, 0, 3)
    assert _stratum(generic, y11) is Stratum.GENERIC


def test_point_sets_a_and_b():
    y11 = quintic_y(1, F11)
    a_pts = points_on_lines_a(F11)
    assert len(a_pts) == 10 * 11 - 10
    strata = [tuple(Stratum)[c] for c in strata_codes(a_pts, y11).tolist()]
    assert strata.count(Stratum.IN_POINT_SET_B) == 10
    assert set(strata) == {Stratum.ON_LINE_A, Stratum.IN_POINT_SET_B}
    assert len(points_on_lines_a(F7)) == 10 * 7 - 10


def _reference_stratum(point, y):
    # the strata written out per point, on FieldElements
    F = y.field
    zeros = sum(1 for x in point if not x)
    total = sum(point, F.zero)
    if zeros == 3 and not total:
        return Stratum.IN_POINT_SET_B
    if zeros >= 2 and not total:
        return Stratum.ON_LINE_A
    if zeros == 0 and y.params["mu"] ** 5 == F.one and len(set(point)) == 1:
        return Stratum.EXTRA_NODE
    return Stratum.GENERIC


@pytest.mark.parametrize(
    "p,k,mu",
    [(11, 1, 1), (11, 1, 2), (7, 1, 0), (2, 2, (0, 1))],
    ids=["F11-mu1", "F11-mu2", "F7-mu0", "F4-mu-t"],
)
def test_strata_codes_match_scalar_reference(p, k, mu):
    # every point of P^4(F_q), normalized and scaled by a unit
    F = make_field(p, k)
    y = quintic_y(mu, F)
    idx = np.concatenate([
        np.stack(np.broadcast_arrays(*c), axis=-1).reshape(-1, 5)
        for c in iter_projective_chunks(F, 4)
    ])
    elems = list(F.elements())
    points = [tuple(elems[c] for c in row) for row in idx.tolist()]
    want = [_reference_stratum(pt, y) for pt in points]
    for rows in (idx, F.vmul(idx, F.q - 1)):
        assert [tuple(Stratum)[c] for c in strata_codes(rows, y).tolist()] == want
    assert set(want) >= {Stratum.GENERIC, Stratum.ON_LINE_A, Stratum.IN_POINT_SET_B}
    assert (Stratum.EXTRA_NODE in want) == (y.params["mu"] ** 5 == F.one)


def test_strata_refusals():
    y = quintic_y(1, F11)
    with pytest.raises(ValueError, match="QuinticY"):
        strata_codes([(1,) * 5], quintic_x(1, F11))
    with pytest.raises(DimensionMismatch):
        strata_codes([(1,) * 4], y)
    with pytest.raises(DimensionMismatch):
        strata_codes(np.ones((3, 6), dtype=np.int64), y)


@pytest.mark.parametrize("fid", list(FamilyId), ids=lambda f: f.value)
def test_every_family_has_equations(fid):
    # F_7 has no primitive 5th root of unity, so QuadricQ is built over F_11 only
    names = families.param_names(fid)
    for F in (F11,) if fid is FamilyId.QUADRIC_Q else (F7, F11):
        inst = build_family(fid, {name: 2 for name in names}, F)
        system = inst.system
        assert isinstance(system, list) and system
        assert all(isinstance(f, MPoly) and f and f.is_homogeneous() for f in system)
        values = inst.evaluate(_random_coords(F, inst.nvars, seed=3))
        assert len(values) == len(system)


@pytest.mark.parametrize(
    "q,p,k", [(4, 2, 2), (7, 7, 1), (9, 3, 2), (11, 11, 1), (13, 13, 1), (121, 11, 2)]
)
def test_y_vanishes_on_all_of_a(q, p, k):
    F = make_field(p, k)
    pts = points_on_lines_a(F)
    assert len(pts) == 10 * q - 10
    coords = list(pts.T)
    for mu in (1, 2):
        inst = quintic_y(mu, F)
        for f in inst.system:
            assert not eval_batch(f, coords, F).any()


@pytest.mark.parametrize("p,lam", [(7, 1), (7, 2), (13, 1), (13, 2)])
def test_verify_coordinate_change(p, lam):
    assert verify_coordinate_change(lam, make_field(p))


def test_coordinate_change_needs_cube_root():
    with pytest.raises(RootOfUnityUnavailable):
        verify_coordinate_change(1, make_field(5))
    with pytest.raises(ZeroDenominator):
        verify_coordinate_change(0, F7)


def test_coordinate_change_fails_without_a_primitive_cube_root(monkeypatch):
    # with w = 1 the six forms are not a change of coordinates, and the
    # rewritten cubics differ from the claimed ones
    monkeypatch.setattr(families, "primitive_nth_root", lambda F, n: F.one)
    assert not verify_coordinate_change(1, F7)
    assert not verify_coordinate_change(2, F13)


@pytest.mark.parametrize("p,lam", [(7, 1), (7, 2), (13, 1), (13, 2)])
def test_coordinate_change_equals_substitution_and_the_claimed_cubics(p, lam):
    # substitution is a ring homomorphism: the CubicsW builder run on the
    # six forms equals its expanded system with the forms substituted, and
    # both equal 27 * base; the nu-form is -nu * base
    F = make_field(p)
    lam = F.element(lam)
    w = primitive_nth_root(F, 3)
    x = [MPoly.variable(6, i, F) for i in range(6)]
    forms = [
        x[a] + x[a + 1].scale(w**s) + x[a + 2].scale(w ** (2 * s))
        for a in (0, 3)
        for s in range(3)
    ]
    t345 = x[3] ** 3 + x[4] ** 3 + x[5] ** 3 - (x[3] * x[4] * x[5]).scale(3)
    t012 = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - (x[0] * x[1] * x[2]).scale(3)
    base = [x[0] ** 3 - t345.scale(lam**3), x[3] ** 3 - t012.scale(lam**3)]
    W = cubics_w(lam, F)
    rewritten = W.equations(forms)
    assert rewritten == [f.substitute(forms) for f in W.system]
    assert rewritten == [b.scale(27) for b in base]
    nu = (lam**3).inverse()
    assert new_coordinates_w(lam, F).equations(x) == [b.scale(-nu) for b in base]


@pytest.mark.parametrize("p,lam", [(7, 1), (7, 2), (13, 1), (13, 2)])
def test_psi_sends_w_points_to_wtilde(p, lam):
    F = make_field(p)
    w_new = new_coordinates_w(lam, F)
    wt = wtilde_from_lambda(lam, F)
    psi = MonomialMap(3, 6)
    for row in apply_map(psi, points(w_new), F).tolist():
        assert not any(f.eval(map(F.from_index, row)) for f in wt.system)


@pytest.mark.parametrize("p", [2, 3, 7, 11, 31])
def test_phi_sends_x_points_to_y(p):
    # exhaustive over F_q: every point of the quintic maps onto the mirror
    from mirrorquintic.counting import iter_projective_chunks
    from mirrorquintic.mvpoly import eval_batch

    F = make_field(p)
    mu = 2
    (fx,) = quintic_x(mu, F).system
    (fy,) = quintic_y(mu, F).system
    fifth = F.power_table(5)
    for block in iter_projective_chunks(F, 4):
        coords = [c.ravel() for c in np.broadcast_arrays(*block)]
        on_x = eval_batch(fx, coords, F) == 0
        if not on_x.any():
            continue
        imgs = [fifth[c[on_x]] for c in coords]
        assert (eval_batch(fy, imgs, F) == 0).all()


# the coordinates each family's equations treat alike
_BLOCKS = {
    FamilyId.QUINTIC_X: ((0, 1, 2, 3, 4),),
    FamilyId.QUINTIC_Y: ((0, 1, 2, 3, 4),),
    FamilyId.QUADRIC_Q: (),
    FamilyId.CUBICS_V: ((0, 1, 2), (3, 4, 5)),
    FamilyId.CUBICS_W: ((0, 1, 2), (3, 4, 5)),
    FamilyId.CUBICS_WTILDE: ((1, 2), (4, 5)),
}


@pytest.mark.parametrize("p,k", [(7, 1), (2, 2)])
@pytest.mark.parametrize("fid", list(FamilyId), ids=lambda f: f.value)
def test_declared_blocks_are_symmetries(fid, p, k):
    # each adjacent transposition inside a declared block maps the builder's
    # system, run on the permuted variables, onto the system
    assert families._FAMILIES[fid].blocks == _BLOCKS[fid]
    F = make_field(p, k)
    if fid is FamilyId.QUADRIC_Q:
        return  # no blocks, and no fifth root of unity over F_7 or F_4
    nvars = families._FAMILIES[fid].nvars
    x = [MPoly.variable(nvars, i, F) for i in range(nvars)]
    for param in (2, F.from_index(F.q - 1)):
        inst = build_family(fid, {families.param_names(fid)[0]: param}, F)
        assert inst.blocks == _BLOCKS[fid]
        for block in inst.blocks:
            for a, b in zip(block, block[1:]):
                swapped = list(x)
                swapped[a], swapped[b] = x[b], x[a]
                assert set(inst.equations(swapped)) == set(inst.system)


# the builders the pencil rows replaced, verbatim, as the reference


def _quintic_x_polys(mu, x):
    powersum = x[0] ** 5 + x[1] ** 5 + x[2] ** 5 + x[3] ** 5 + x[4] ** 5
    return [powersum - (x[0] * x[1] * x[2] * x[3] * x[4]).scale(mu * 5)]


def _quintic_y_polys(mu, x):
    s = x[0] + x[1] + x[2] + x[3] + x[4]
    return [s**5 - (x[0] * x[1] * x[2] * x[3] * x[4]).scale((mu * 5) ** 5)]


def _cubics_v_polys(lam, x):
    f1 = x[0] ** 3 + x[1] ** 3 + x[2] ** 3 - (x[3] * x[4] * x[5]).scale(lam * 3)
    f2 = x[3] ** 3 + x[4] ** 3 + x[5] ** 3 - (x[0] * x[1] * x[2]).scale(lam * 3)
    return [f1, f2]


def _cubics_w_polys(lam, x):
    c = (lam * 3) ** 3
    f1 = (x[0] + x[1] + x[2]) ** 3 - (x[3] * x[4] * x[5]).scale(c)
    f2 = (x[3] + x[4] + x[5]) ** 3 - (x[0] * x[1] * x[2]).scale(c)
    return [f1, f2]


_PENCIL_REFERENCE = {
    FamilyId.QUINTIC_X: _quintic_x_polys,
    FamilyId.QUINTIC_Y: _quintic_y_polys,
    FamilyId.CUBICS_V: _cubics_v_polys,
    FamilyId.CUBICS_W: _cubics_w_polys,
}


class _Logged:
    """A value that logs each operation run on it: a builder run on these
    writes out its operations, in order, by the names of their operands."""

    def __init__(self, name, log):
        self.name, self.log = name, log

    def _op(self, op, other):
        out = _Logged(f"v{len(self.log)}", self.log)
        operand = other.name if isinstance(other, _Logged) else repr(other)
        self.log.append((out.name, self.name, op, operand))
        return out

    def __add__(self, other):
        return self._op("+", other)

    def __sub__(self, other):
        return self._op("-", other)

    def __mul__(self, other):
        return self._op("*", other)

    def __pow__(self, other):
        return self._op("**", other)

    def scale(self, c):
        return self._op("scale", c)


@pytest.mark.parametrize("p,k", [(7, 1), (11, 1), (7, 2)])
@pytest.mark.parametrize("fid", list(_PENCIL_REFERENCE), ids=lambda f: f.value)
def test_pencil_rows_write_the_replaced_builders(fid, p, k):
    # each pencil family's system equals the replaced builder's, and its
    # builder runs the same operations in the same order on its values
    F = make_field(p, k)
    row = families._FAMILIES[fid]
    old = _PENCIL_REFERENCE[fid]
    x = [MPoly.variable(row.nvars, i, F) for i in range(row.nvars)]
    for v in (0, 1, 2):
        inst = build_family(fid, {row.params[0]: v}, F)
        assert inst.system == old(F.element(v), x)
        logs = [], []
        for write, log in zip((inst.equations, functools.partial(old, F.element(v))), logs):
            results = write([_Logged(f"x{i}", log) for i in range(row.nvars)])
            log.append(tuple(r.name for r in results))
        assert logs[0] == logs[1]


@pytest.mark.parametrize("fid", list(_PENCIL_REFERENCE), ids=lambda f: f.value)
def test_pencil_builders_hold_no_more_arrays_than_the_replaced_ones(fid):
    # on whole-block arrays a pencil builder's peak stays within half a
    # block of the replaced builder's: no extra temporary stays alive
    F = make_field(101)
    row = families._FAMILIES[fid]
    rng = np.random.default_rng(5)
    x = [FieldArray(rng.integers(0, F.q, size=1 << 14), F) for _ in range(row.nvars)]

    def peak(write):
        write(x)  # builds the field's power tables outside the trace
        tracemalloc.start()
        try:
            write(x)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    new = peak(build_family(fid, {row.params[0]: 2}, F).equations)
    old = peak(functools.partial(_PENCIL_REFERENCE[fid], F.element(2)))
    assert new < old + x[0].a.nbytes // 2


def test_pencil_rows_derive_their_shape():
    # nvars = d r and the r blocks of d consecutive coordinates, on the
    # row and on each instance; the other families and a directly built
    # instance have no pencil
    for fid, row in families._FAMILIES.items():
        pencil = row.pencil
        inst = build_family(fid, {name: 1 for name in row.params}, make_field(11))
        assert inst.pencil is pencil and inst.blocks == row.blocks == _BLOCKS[fid]
        if fid in _PENCIL_REFERENCE:
            assert row.nvars == pencil.degree * pencil.nblocks == inst.nvars
        else:
            assert pencil is None
    pencils = {fid: families._FAMILIES[fid].pencil[:2] for fid in _PENCIL_REFERENCE}
    assert pencils == {
        FamilyId.QUINTIC_X: (5, 1),
        FamilyId.QUINTIC_Y: (5, 1),
        FamilyId.CUBICS_V: (3, 2),
        FamilyId.CUBICS_W: (3, 2),
    }
    assert new_coordinates_w(1, F7).pencil is None


def test_new_coordinates_w_counts_as_cubics_w_on_the_naive_path():
    # the nu-form has no pencil, so "table" runs the enumerator on it; its
    # points are W_1's in other coordinates
    rec = count(new_coordinates_w(1, F7), "table")
    assert rec.algo == "naive"
    assert rec.count == count(cubics_w(1, F7), "naive").count == 432


def test_param_string_canonical():
    assert quintic_x(1, F11).param_string() == "mu=1"
    F121 = make_field(11, 2)
    inst = quintic_x(F121.element((3, 2)), F121)
    assert inst.param_string() == "mu=3,2"


def test_normalize_point():
    # 3^-1 = 5 mod 7, so (0 : 3 : 5) is (0 : 1 : 4)
    assert normalize_rows(np.array([[0, 3, 5]]), F7).tolist() == [[0, 1, 4]]
    with pytest.raises(ValueError, match="zero vector"):
        normalize_rows(np.array([[0, 3, 5], [0, 0, 0]]), F7)


_PHI = MonomialMap(5, 5)
# every function that takes points, called on a list of index rows over F,
# and whether it fixes the width (the two others read it off the rows)
_POINT_TAKERS = {
    "normalize_rows": (lambda rows, F: normalize_rows(rows, F), False),
    "unique_points": (lambda rows, F: unique_points(rows, F), False),
    "apply_map": (lambda rows, F: apply_map(_PHI, rows, F), True),
    "strata_codes": (lambda rows, F: strata_codes(rows, quintic_y(1, F)), True),
    "hessian_ranks": (lambda rows, F: hessian_ranks(quintic_y(1, F), rows), True),
    "preimage_count": (lambda rows, F: [len(fiber_points(_PHI, r, F)) for r in rows], True),
    "orbit": (lambda rows, F: [orbit(r, enumerate_G(), F) for r in rows], True),
}


@pytest.mark.parametrize(
    "bad", ["index q", "index -1", "wrong width", "zero row", "float row", "bool row"]
)
@pytest.mark.parametrize("q", [11, 9])
@pytest.mark.parametrize("taker", list(_POINT_TAKERS))
def test_point_takers_refuse_bad_rows(taker, q, bad):
    # one check (families.point_rows) for every function that takes points:
    # an index outside [0, q) is no element of F_q, whatever the arithmetic
    # would make of it (over F_11, 12 was a numpy IndexError and 23 read as
    # 1; over F_9, -1 read as 8)
    F = make_field(*{9: (3, 2)}.get(q, (q,)))
    call, width_bound = _POINT_TAKERS[taker]
    rows, error, message = {
        "index q": ([[1, 1, 1, 1, q]], FieldMismatch, f"index {q} is not an element"),
        "index -1": ([[1, 2, 3, 4, -1]], FieldMismatch, "index -1 is not an element"),
        # rows of 4 coordinates, or for a width read off the rows a bare row
        "wrong width": (
            [[1, 1, 1, 1]] if width_bound else [1, 1, 1, 1, 1], DimensionMismatch, "not \\(n, "
        ),
        "zero row": ([[0, 0, 0, 0, 0]], ValueError, "zero vector"),
        # a float was truncated to an index, and a bool read as index 0 or 1
        "float row": ([[1.5, 2, 3, 4, 5]], FieldMismatch, "dtype float64 are not field indices"),
        "bool row": ([[True, False, True, True, True]], FieldMismatch, "dtype bool are not"),
    }[bad]
    # the points are refused before anything else: over F_9 the Hessian
    # test would refuse the characteristic, and orbits and fibers the
    # missing fifth roots of unity
    with pytest.raises(error, match=message):
        call(rows, F)


def test_point_rows_is_the_contract():
    # good rows come back as they are, as int64; over F_11 the fiber of
    # (1, 1, 1, 1, 23) was reported as that of (1, 1, 1, 1, 1)
    F9 = make_field(3, 2)
    rows = families.point_rows([[1, 2, 3, 4, 8]], F9, 5)
    assert rows.dtype == np.int64 and rows.tolist() == [[1, 2, 3, 4, 8]]
    assert families.point_rows(np.empty((0, 6), dtype=np.int64), F9).shape == (0, 6)
    with pytest.raises(FieldMismatch, match="index 23 is not an element of"):
        fiber_points(_PHI, (1, 1, 1, 1, 23), F11)


def _random_coords(F, nvars, seed):
    import numpy as np

    rng = np.random.default_rng(seed)
    coords = rng.integers(0, F.q, size=(nvars, 3000))
    coords[:, :300] *= rng.integers(0, 2, size=(nvars, 300))  # more zeros
    return [np.ascontiguousarray(c) for c in coords]


def _assert_evaluate_matches_eval_batch(inst, seed):
    import numpy as np

    from mirrorquintic.mvpoly import eval_batch

    coords = _random_coords(inst.field, inst.nvars, seed)
    got = inst.evaluate(coords)
    want = [eval_batch(p, coords, inst.field) for p in inst.system]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.int64 and np.array_equal(g, w)
    mask = np.logical_and.reduce([w == 0 for w in want])
    assert np.array_equal(inst.vanishing_mask(coords), mask)


_EVAL_FIELDS = [(7, 1), (11, 1), (31, 1), (2, 2), (3, 2), (11, 2)]


def _field_params(F):
    # integer parameters (including ones that vanish mod p) and a
    # FieldElement, outside the prime subfield when F is an extension
    elem = F.element((2, 1)) if F.k > 1 else F.element(3)
    return [0, 1, 2, 7, 5 * 3 * 11, elem]


@pytest.mark.parametrize("p,k", _EVAL_FIELDS)
@pytest.mark.parametrize(
    "ctor", [quintic_x, quintic_y, cubics_v, cubics_w, cubics_wtilde]
)
def test_evaluate_equals_eval_batch(p, k, ctor):
    F = make_field(p, k)
    for i, param in enumerate(_field_params(F)):
        _assert_evaluate_matches_eval_batch(ctor(param, F), seed=100 * p + 10 * k + i)


@pytest.mark.parametrize("p,k", [(11, 1), (31, 1), (11, 2)])
def test_evaluate_equals_eval_batch_quadric(p, k):
    # QuadricQ needs a fifth root of unity: q = 1 mod 5
    _assert_evaluate_matches_eval_batch(quadric_q(make_field(p, k)), seed=p * k)


@pytest.mark.parametrize("p,k", [(7, 1), (31, 1), (2, 2), (11, 2)])
def test_evaluate_equals_eval_batch_nu_form(p, k):
    # the Vandermonde coordinates need a cube root of unity: q = 1 mod 3
    F = make_field(p, k)
    lams = [lam for lam in (1, 2, 3) if F.element(lam)]
    lams.append(F.element((1, 1)) if k > 1 else F.element(3))
    for i, lam in enumerate(lams):
        _assert_evaluate_matches_eval_batch(new_coordinates_w(lam, F), seed=7 * p + i)



def _read_all(value):
    # read .a of every FieldArray in a (nested) Jet
    if isinstance(value, FieldArray):
        return [value.a]
    return _read_all(value.val) + [a for d in value.d if d is not None for a in _read_all(d)]


@pytest.mark.parametrize("p,k", [(7, 1), (31, 1), (3, 2)])
def test_evaluations_never_write_their_inputs(p, k):
    # reduction in place touches only arrays a FieldArray allocated: the
    # evaluations run on read-only coordinates, broadcast views among them,
    # and leave them as they were
    F = make_field(p, k)
    for inst in (quintic_x(2, F), quintic_y(3, F), cubics_w(2, F), cubics_wtilde(5, F)):
        coords = _random_coords(F, inst.nvars, seed=p + k)
        coords[1] = np.broadcast_to(coords[1][:1], coords[1].shape)
        before = [c.copy() for c in coords]
        for c in coords:
            c.flags.writeable = False
        inst.evaluate(coords)
        inst.vanishing_mask(coords)
        for order in (1, 2):
            for eq in inst.equations(Jet.variables(coords, F, order=order)):
                _read_all(eq)
        for f in inst.system:
            eval_batch(f, coords, F)
        assert all(np.array_equal(c, b) for c, b in zip(coords, before))


def test_evaluate_refuses_int64_overflow():
    # over F_p with (p - 1)^2 > 2^63 - 1 a product of residues would wrap:
    # the evaluation is refused, naming p, instead of returning wrong values
    p = 8589934621  # 1 mod 5, about 2^33
    inst = quadric_q(make_field(p))
    coords = [np.array([1, p - 1], dtype=np.int64)] * 5
    with pytest.raises(InstanceTooLarge, match=f"p = {p}"):
        inst.evaluate(coords)

# -- the symbolic system is expanded on first read, and only then -------------

_DEGREES = {
    FamilyId.QUINTIC_X: (5,),
    FamilyId.QUINTIC_Y: (5,),
    FamilyId.QUADRIC_Q: (1, 2),
    FamilyId.CUBICS_V: (3, 3),
    FamilyId.CUBICS_W: (3, 3),
    FamilyId.CUBICS_WTILDE: (3, 3),
}


@pytest.fixture
def expansions(monkeypatch):
    """Counts the calls of the one function that expands a built family's
    symbolic system."""
    calls = []
    expand = families._expand

    def counting(*args):
        calls.append(args)
        return expand(*args)

    monkeypatch.setattr(families, "_expand", counting)
    return calls


def _eager_system(fid, param, F):
    """The system expanded eagerly, outside the instance: the builder on
    MPoly variables over F."""
    row = families._FAMILIES[fid]
    nvars, builder = row.nvars, row.builder
    return builder(param, [MPoly.variable(nvars, i, F) for i in range(nvars)])


@pytest.mark.parametrize("p,k", [(11, 1), (11, 2)])
@pytest.mark.parametrize("fid", list(_DEGREES), ids=lambda f: f.value)
def test_system_is_expanded_on_first_read(fid, p, k, expansions):
    F = make_field(p, k)
    names = families._FAMILIES[fid].params
    params = [2, F.from_index(F.q - 1)] if names else [None]
    for param in params:
        inst = build_family(fid, {names[0]: param} if names else {}, F)
        assert expansions == []
        source = inst.params["xi5"] if param is None else param
        want = _eager_system(fid, source, F)
        got = inst.system
        assert len(expansions) == 1
        assert got == want and all(g.field == F for g in got)
        assert tuple(g.degree() for g in got) == _DEGREES[fid]
        assert inst.system is got and len(expansions) == 1
        expansions.clear()


def test_evaluations_leave_the_system_unexpanded(expansions, tmp_path):
    F31 = make_field(31)
    for ctor in (quintic_x, quintic_y, cubics_v, cubics_w, cubics_wtilde):
        for param in (2, F7.element(3)):
            inst = ctor(param, F7)
            inst.vanishing_mask(_random_coords(F7, inst.nvars, seed=4))
            count(inst, "naive")
            count(inst, "table")
    singular_points(cubics_v(1, F7))
    for inst in (quintic_x(1, F31), quintic_y(2, F31)):
        hessian_ranks(inst, singular_points(inst))
    assert run(
        ["trace", "--p-range", "2..31", "--cache", str(tmp_path / "c.jsonl"),
         "--out", str(tmp_path / "t.csv")]
    ) == 0
    assert expansions == []
