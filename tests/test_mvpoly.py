import operator

import numpy as np
import pytest

from mirrorquintic.errors import DimensionMismatch, FieldMismatch, InvariantViolated
from mirrorquintic.families import (
    FamilyId,
    FamilyInstance,
    cubics_v,
    cubics_w,
    cubics_wtilde,
    quadric_q,
    quintic_x,
    quintic_y,
)
from mirrorquintic.ffield import FieldArray, Jet, make_field, primitive_nth_root
from mirrorquintic.mvpoly import MPoly, eval_batch


F7 = make_field(7)


def vars_over(n, F=F7):
    return [MPoly.variable(n, i, F) for i in range(n)]


def random_poly(nvars, rng, F, max_terms=6, max_deg=3):
    terms = []
    for _ in range(int(rng.integers(1, max_terms + 1))):
        exps = tuple(int(e) for e in rng.integers(0, max_deg + 1, size=nvars))
        coeff = F.from_index(int(rng.integers(0, F.q)))
        terms.append((exps, coeff))
    return MPoly(nvars, terms, F)


def test_eval_simple():
    F2 = make_field(2)
    x = vars_over(2, F2)
    f = x[0] + x[1]
    assert f.eval((F2.one, F2.one)) == F2.zero


def test_eval_family_symmetry_points():
    F11 = make_field(11)
    assert quintic_x(1, F11).system[0].eval((F11.one,) * 5) == F11.zero
    assert quintic_y(1, F7).system[0].eval((F7.one,) * 5) == F7.zero


def test_eval_dimension_mismatch():
    F = make_field(5)
    f = MPoly.variable(3, 0, F)
    with pytest.raises(DimensionMismatch):
        f.eval((F.one, F.one))


def test_eval_field_mismatch():
    F, G = make_field(5), make_field(7)
    f = MPoly.variable(2, 0, F)
    with pytest.raises(FieldMismatch):
        f.eval((G.one, G.one))


def test_derivative_power_rule():
    x = vars_over(5)
    f = x[0] ** 5
    assert f.derivative(0) == (x[0] ** 4).scale(5)


def test_derivative_of_quintic_template():
    x = vars_over(5)
    f = sum((xi**5 for xi in x), MPoly.zero(5, F7)) - (
        x[0] * x[1] * x[2] * x[3] * x[4]
    ).scale(5)
    expect = (x[0] ** 4).scale(5) - (x[1] * x[2] * x[3] * x[4]).scale(5)
    assert f.derivative(0) == expect


def test_second_derivatives_commute():
    rng = np.random.default_rng(3)
    F = make_field(13)
    for _ in range(100):
        f = random_poly(4, rng, F)
        assert f.derivative(0).derivative(1) == f.derivative(1).derivative(0)


def test_derivative_linear():
    rng = np.random.default_rng(4)
    F = make_field(11)
    for _ in range(50):
        f, g = random_poly(3, rng, F), random_poly(3, rng, F)
        assert (f + g).derivative(1) == f.derivative(1) + g.derivative(1)


def test_substitute_vandermonde_sum():
    w = primitive_nth_root(F7, 3)
    a, b, c = vars_over(3, F7)
    rows = [a + b + c, a + b.scale(w) + c.scale(w**2), a + b.scale(w**2) + c.scale(w)]
    composite = (a + b + c).substitute(rows)
    assert composite == a.scale(3)


@pytest.mark.parametrize("p", [7, 13])
def test_substitute_cube_identity(p):
    # full expansion oracle for the classical three-factor product
    F = make_field(p)
    w = primitive_nth_root(F, 3)
    a, b, c = vars_over(3, F)
    prod = (a + b + c) * (a + b.scale(w) + c.scale(w**2)) * (
        a + b.scale(w**2) + c.scale(w)
    )
    target = a**3 + b**3 + c**3 - (a * b * c).scale(3)
    assert prod == target


def test_substitute_monomial_map():
    # the coordinate fifth-power map, substituted as explicit fifth powers
    x = vars_over(5)
    f = sum(x, MPoly.zero(5, F7))
    fifth = sum((xi**5 for xi in x), MPoly.zero(5, F7))
    assert f.substitute([xi**5 for xi in x]) == fifth


def test_equality_basics():
    x = vars_over(2)
    assert x[0] + x[1] == x[1] + x[0]
    assert x[0] != x[0].scale(2)
    assert x[0] != vars_over(3)[0]


def test_eval_substitute_compatibility():
    # eval(substitute(f, L), x) == eval(f, L(x)) for random matrices L,
    # invertible or not, at random points
    for p in (7, 11):
        F = make_field(p)
        rng = np.random.default_rng(p)
        x = vars_over(3, F)
        for _ in range(100):
            f = random_poly(3, rng, F)
            L = [[F.from_index(int(i)) for i in row] for row in rng.integers(0, F.q, (3, 3))]
            pt = tuple(F.from_index(int(i)) for i in rng.integers(0, F.q, size=3))
            forms = [sum((xj.scale(c) for xj, c in zip(x, row)), MPoly.zero(3, F)) for row in L]
            image = tuple(sum((c * v for c, v in zip(row, pt)), F.zero) for row in L)
            assert f.substitute(forms).eval(pt) == f.eval(image)


def all_family_systems(F_p4, F_p5):
    out = [
        quintic_x(1, F_p4).system,
        quintic_y(2, F_p4).system,
        cubics_v(1, F_p5).system,
        cubics_w(2, F_p5).system,
        cubics_wtilde(1, F_p5).system,
    ]
    out.append(quadric_q(F_p4).system)
    return out


def test_family_polynomials_homogeneous():
    F11, F7 = make_field(11), make_field(7)
    rng = np.random.default_rng(9)
    for system in all_family_systems(F11, F7):
        for f in system:
            F = f.field
            assert f.is_homogeneous()
            d = f.degree()
            for _ in range(10):
                pt = tuple(F.from_index(int(i)) for i in rng.integers(0, F.q, size=f.nvars))
                t = F.from_index(int(rng.integers(1, F.q)))
                scaled = tuple(t * x for x in pt)
                assert f.eval(scaled) == t**d * f.eval(pt)


def test_euler_relation_exact():
    F11, F7 = make_field(11), make_field(7)
    for system in all_family_systems(F11, F7):
        for f in system:
            total = MPoly.zero(f.nvars, f.field)
            for i in range(f.nvars):
                total = total + MPoly.variable(f.nvars, i, f.field) * f.derivative(i)
            assert total == f.scale(f.degree())


def test_eval_batch_matches_scalar():
    F = make_field(11)
    f = quintic_y(2, F).system[0]
    rng = np.random.default_rng(5)
    pts = rng.integers(0, 11, size=(5, 64))
    vals = eval_batch(f, [pts[i] for i in range(5)], F)
    for j in range(64):
        pt = tuple(F.from_index(int(pts[i, j])) for i in range(5))
        assert int(vals[j]) == f.eval(pt).index


@pytest.mark.parametrize("p,k", [(13, 1), (7, 2), (5, 3)])
def test_call_on_every_value_type(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(10 * p + k)
    n, m = 3, 40
    polys = [
        random_poly(n, rng, F) + MPoly.constant(n, F.from_index(int(c)), F)
        for c in rng.integers(1, F.q, size=5)
    ]
    polys.append(MPoly.zero(n, F))
    coords = list(rng.integers(0, F.q, size=(n, m)))
    points = [tuple(F.from_index(int(c[j])) for c in coords) for j in range(m)]
    arrays = [FieldArray(c, F) for c in coords]
    jets = Jet.variables(coords, F)
    inner = [random_poly(2, rng, F) for _ in range(n)]
    outer_points = [
        tuple(F.from_index(int(i)) for i in rng.integers(0, F.q, size=2))
        for _ in range(10)
    ]

    def full(v):
        return np.broadcast_to(v, (m,))

    for f in polys:
        values = full(f(arrays).a)
        assert [int(v) for v in values] == [f(pt).index for pt in points]
        jet = f(jets)
        assert np.array_equal(full(jet.val.a), values)
        for j in range(n):
            d = 0 if jet.d[j] is None else jet.d[j].a
            assert np.array_equal(full(d), full(f.derivative(j)(arrays).a))
        composed = f(inner)
        assert composed.nvars == 2 and composed.field == F
        for pt in outer_points:
            assert composed(pt) == f([g(pt) for g in inner])

    grid = [
        np.arange(F.q).reshape(-1, 1, 1),
        np.arange(4).reshape(1, -1, 1),
        np.zeros((1, 1, 2), dtype=np.int64),
    ]
    out = eval_batch(MPoly.constant(n, 3, F), grid, F)
    assert out.shape == (F.q, 4, 2) and out.dtype == np.int64 and out.flags.writeable
    assert (out == F.element(3).index).all()
    assert eval_batch(MPoly.zero(n, F), grid, F).shape == (F.q, 4, 2)


def test_system_homogeneity_flag_checked():
    # a non-homogeneous builder raises InvariantViolated on .system
    inst = FamilyInstance(FamilyId.QUINTIC_X, F7, {}, 1, lambda x: [x[0] + x[1] ** 2])
    with pytest.raises(InvariantViolated):
        inst.system


def test_mixed_fields_raise():
    x, y = vars_over(2), vars_over(2, make_field(11))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(FieldMismatch):
            op(x[0], y[0])
    with pytest.raises(FieldMismatch):
        x[0].substitute(y)
    with pytest.raises(FieldMismatch):
        eval_batch(x[0], [np.zeros(1, dtype=np.int64)] * 2, make_field(11))


def test_int_coefficients_reduce_into_the_field():
    x = vars_over(2)
    assert MPoly(2, {(1, 0): 8, (0, 1): -7}, F7) == x[0]  # 8 = 1, -7 = 0 mod 7
    assert x[0].scale(8) == x[0] and x[0] * 8 == x[0]
    assert MPoly.constant(2, 7, F7) == MPoly.zero(2, F7) and not MPoly.zero(2, F7)


def test_hash_agrees_with_equality():
    xf = vars_over(2)
    assert xf[0].scale(8) == xf[0] and hash(xf[0].scale(8)) == hash(xf[0])
    assert (xf[0] + xf[1]) == (xf[1] + xf[0])
    assert hash(xf[0] + xf[1]) == hash(xf[1] + xf[0])
    assert xf[0] != vars_over(2, make_field(11))[0]
