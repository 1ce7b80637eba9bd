import functools
import itertools
import math
import operator

import numpy as np
import pytest

from mirrorquintic.errors import (
    CompositeCharacteristic,
    FieldMismatch,
    InstanceTooLarge,
    RootOfUnityUnavailable,
    TableTooLarge,
    UnsupportedDegree,
)
from mirrorquintic.ffield import (
    FieldArray,
    is_prime,
    make_field,
    matrix_ranks,
    primitive_nth_root,
)
from mirrorquintic.families import quintic_x

SMALL_FIELDS = [(11, 1), (2, 2), (7, 2), (2, 3), (3, 4), (11, 2)]


def test_make_field_prime():
    F = make_field(11, 1)
    assert (F.p, F.k, F.q) == (11, 1, 11)
    assert F.modulus == ()


def test_make_field_f4_unique_quadratic():
    F = make_field(2, 2)
    assert F.modulus == (1, 1, 1)  # x^2 + x + 1, the only candidate


def test_make_field_composite_characteristic():
    with pytest.raises(CompositeCharacteristic):
        make_field(4, 1)


def test_make_field_degree_out_of_range():
    for k in (0, 5):
        with pytest.raises(UnsupportedDegree):
            make_field(3, k)


def test_modulus_deterministic():
    a = make_field(11, 2)
    b = make_field(11, 2)
    assert a is b and a.modulus == b.modulus == (1, 0, 1)


def test_every_spelling_of_a_field_is_one_descriptor():
    # the cache keys on (p, k) however a call spells them, so a field is
    # one object: F_11 five ways, F_49 six ways, numpy integers among them
    F11 = make_field(11)
    assert make_field(11, 1) is F11 and make_field(p=11, k=1) is F11
    assert make_field(np.int64(11)) is F11 and make_field(11, np.int32(1)) is F11
    F49 = make_field(7, 2)
    assert make_field(7, k=2) is F49 and make_field(p=7, k=2) is F49
    assert make_field(k=2, p=7) is F49 and F49 is not make_field(7)
    assert make_field(np.int64(7), np.int64(2)) is F49 and make_field(np.uint8(7), 2) is F49
    # a refused call is refused every time, and not cached as a field;
    # a bool or float degree is no spelling of k = 1
    for _ in range(2):
        with pytest.raises(CompositeCharacteristic):
            make_field(4)
        with pytest.raises(UnsupportedDegree):
            make_field(3, 5)
        for k in (True, 1.0):
            with pytest.raises(UnsupportedDegree):
                make_field(11, k)


def test_make_field_refuses_a_float():
    # refused as not an integer, where it was read as a composite p
    for p in (11.0, np.float64(11)):
        with pytest.raises(CompositeCharacteristic, match="is not an integer"):
            make_field(p)
    with pytest.raises(UnsupportedDegree, match="is not an integer"):
        make_field(3, 2.0)


def test_make_field_refuses_a_bool():
    for p in (True, np.True_):
        with pytest.raises(CompositeCharacteristic, match="is not an integer"):
            make_field(p)
    with pytest.raises(UnsupportedDegree, match="is not an integer"):
        make_field(3, np.True_)


def test_element_reads_numpy_integers():
    # a numpy integer is an integer, as a scalar, a coefficient or a
    # family parameter
    F = make_field(11)
    assert F.element(np.int64(3)) == F.element(3) == F.element(np.uint8(14))
    F9 = make_field(3, 2)
    assert F9.element([np.int64(1), np.int32(2)]) == F9.element([1, 2])
    assert quintic_x(np.int64(2), F).params == quintic_x(2, F).params
    # a 0-d integer array is an integer, not a coefficient sequence
    assert F.element(np.array(3)) == F.element(3) == F.element(np.array(14, np.uint8))
    with pytest.raises(FieldMismatch, match="is not an integer"):
        F.element(np.array(3.0))


def test_element_refuses_a_bool():
    F = make_field(11)
    for value in (True, np.True_):
        with pytest.raises(FieldMismatch, match="is not an integer"):
            F.element(value)


def test_element_operators_refuse_a_bool():
    # an operand is read as F.element reads a scalar; numpy integers work
    F = make_field(11)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(FieldMismatch, match="True is not an integer"):
            op(F.one, True)
        with pytest.raises(FieldMismatch, match="True is not an integer"):
            op(True, F.one)
    with pytest.raises(FieldMismatch, match="True is not an integer"):
        F.one.scale(True)
    assert F.one + np.int64(3) == np.int64(3) + F.one == F.element(4)
    assert F.one.scale(np.uint8(14)) == F.element(3)


def test_power_refuses_a_bool_exponent():
    F = make_field(11)
    with pytest.raises(FieldMismatch, match="True is not an integer"):
        F.one ** True
    with pytest.raises(FieldMismatch, match="is not an integer"):
        F.one ** 2.0
    assert F.element(2) ** np.int64(3) == F.element(8)


def test_from_index_refuses_a_bool_or_float():
    F = make_field(11)
    for value in (True, 3.0):
        with pytest.raises(FieldMismatch, match="is not an integer"):
            F.from_index(value)
    assert F.from_index(np.int64(3)) == F.element(3)
    assert type(F.from_index(np.int64(3)).index) is int


def test_element_refuses_a_float():
    # neither a float scalar nor a float coefficient is truncated
    with pytest.raises(FieldMismatch, match="1.5 is not an integer"):
        make_field(3, 2).element([1.5, 2])
    with pytest.raises(FieldMismatch, match="is not an integer"):
        make_field(11).element(3.0)


def test_is_prime_small():
    primes = [p for p in range(2, 60) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_field_axioms_random_triples(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    for _ in range(250):
        a, b, c = (F.from_index(int(i)) for i in rng.integers(0, F.q, size=3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_frobenius_additive(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(p + k)
    for _ in range(100):
        a, b = (F.from_index(int(i)) for i in rng.integers(0, F.q, size=2))
        assert (a + b) ** p == a**p + b**p


@pytest.mark.parametrize("p,k", [(2, 2), (3, 2), (11, 1), (11, 2), (7, 2), (5, 3)])
def test_fermat_lagrange_exhaustive(p, k):
    F = make_field(p, k)
    assert F.q <= 126
    for x in F.elements():
        if x:
            assert x ** (F.q - 1) == F.one


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_inverse_law(p, k):
    F = make_field(p, k)
    for x in F.elements():
        if x:
            assert x * x.inverse() == F.one


def _roots(value, e):
    """The solutions of u^e = value, as the indices where power_table(e)
    reads value, in order."""
    return np.flatnonzero(value.field.power_table(e) == value.index).tolist()


def test_roots_of_unity_f11():
    F = make_field(11)
    assert _roots(F.one, 5) == [1, 3, 4, 5, 9]


def test_roots_of_unity_f7_trivial():
    F = make_field(7)
    assert _roots(F.one, 5) == [1]


def test_roots_of_unity_f4():
    F = make_field(2, 2)
    assert _roots(F.one, 3) == [1, 2, 3]


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (2, 2), (3, 2), (11, 2), (5, 2), (2, 3)])
def test_roots_of_unity_count_scan(p, k):
    # cross-check |x : x^n = 1| = gcd(n, q - 1) by exhaustive scan
    F = make_field(p, k)
    for n in range(1, 11):
        roots = _roots(F.one, n)
        scan = [x.index for x in F.elements() if x and x**n == F.one]
        assert len(roots) == math.gcd(n, F.q - 1) == len(scan)
        assert roots == scan


def test_primitive_root_order():
    F = make_field(11)
    w = primitive_nth_root(F, 5)
    powers = {(w**i).index for i in range(1, 6)}
    assert len(powers) == 5 and (w**5) == F.one
    with pytest.raises(RootOfUnityUnavailable):
        primitive_nth_root(make_field(7), 5)


@pytest.mark.parametrize(
    "n,message",
    [(0, "exact order 0"), (-5, "exact order -5"), (True, "True is not"), (2.0, "2.0 is not")],
)
def test_primitive_root_order_must_be_a_positive_int(n, message):
    # n is read by _integer and must be at least 1: (q - 1) / 0 is no
    # exponent, and over F_11 the generator ** (10 / -5) is F11(3), of
    # order 5, not -5; a bool or a float is no order at all
    with pytest.raises(RootOfUnityUnavailable, match=message):
        primitive_nth_root(make_field(11), n)


def test_power_table_identity_f2():
    F = make_field(2)
    assert list(F.power_table(5)) == [0, 1]


def test_power_table_f11_image():
    F = make_field(11)
    img = sorted(set(int(v) for v in F.power_table(5)))
    assert img == [0, 1, 10]
    assert len(img) == 1 + (11 - 1) // 5


def test_power_table_f7_cubes():
    F = make_field(7)
    img = set(int(v) for v in F.power_table(3))
    assert len(img) == 1 + 6 // 3


def test_power_table_matches_repeated_multiplication():
    rng = np.random.default_rng(42)
    for F in (make_field(11), make_field(3, 2), make_field(2, 3)):
        for _ in range(34):
            e = int(rng.integers(0, 12))
            xi = int(rng.integers(0, F.q))
            x = F.from_index(xi)
            expect = F.one
            for _ in range(e):
                expect = expect * x
            assert int(F.power_table(e)[xi]) == expect.index


def test_power_table_cap():
    F = make_field(1031, 2)  # q = 1062961 > 2^20
    with pytest.raises(TableTooLarge):
        F.power_table(5)


def test_large_prime_scalars_need_no_tables():
    F = make_field(2**31 - 1)  # far above POWER_TABLE_CAP
    x = F.element(123456789)
    assert x * x.inverse() == F.one and x / x == F.one
    assert x ** (F.q - 1) == F.one and (x + 1) ** 2 == x * x + 2 * x + 1
    assert primitive_nth_root(F, 2) == F.element(-1)
    with pytest.raises(TableTooLarge):
        F.vpow(np.arange(3), 2)
    with pytest.raises(TableTooLarge):  # arrays take powers by the same rule
        FieldArray(np.arange(3), F) ** 2


def _digitwise(F, op, a: int, b: int) -> int:
    # the index of a + b, a - b or -b from the definition: op on each base-p
    # coefficient, reduced mod p, without the field's vector code
    p = F.p
    return sum(op(a // p**i % p, b // p**i % p) % p * p**i for i in range(F.k))


def test_vector_ops_match_scalar():
    # the index operations on arrays, on an int broadcast against an array
    # and on two ints, against the definitions written out above
    rng = np.random.default_rng(7)
    for F in (make_field(13), make_field(3, 2), make_field(2, 4)):
        a = rng.integers(0, F.q, size=200)
        b = rng.integers(0, F.q, size=200)
        a[:10] = 0
        s = int(rng.integers(2, F.q))
        for x, y in [(a, b), (0, b), (1, b), (s, b), (a, s)]:
            xs, ys = (np.broadcast_to(v, (200,)).tolist() for v in (x, y))
            pairs = list(zip(xs, ys))
            for op, ref in (
                (F.vadd, lambda u, v: _digitwise(F, operator.add, u, v)),
                (F.vsub, lambda u, v: _digitwise(F, operator.sub, u, v)),
                (F.vmul, lambda u, v: _schoolbook_product(F, u, v)),
            ):
                want = [ref(u, v) for u, v in pairs]
                got = op(x, y)
                assert got.dtype == np.int64 and got.tolist() == want
                assert [op(u, v) for u, v in pairs[:20]] == want[:20]
        neg = [_digitwise(F, operator.sub, 0, u) for u in a.tolist()]
        assert F.vneg(a).tolist() == neg
        assert [F.vneg(u) for u in a.tolist()] == neg


def _schoolbook_product(F, a: int, b: int) -> int:
    # the index of a * b from its definition: multiply the coefficient
    # vectors and reduce modulo F.modulus and p, without the field's tables
    p, k = F.p, F.k
    da = [a // p**i % p for i in range(k)]
    db = [b // p**i % p for i in range(k)]
    prod = [0] * (2 * k - 1)
    for i in range(k):
        for j in range(k):
            prod[i + j] += da[i] * db[j]
    for d in range(2 * k - 2, k - 1, -1):  # x^k = -(m_0 + ... + m_{k-1} x^(k-1))
        for j in range(k):
            prod[d - k + j] -= prod[d] * F.modulus[j]
    return sum(prod[i] % p * p**i for i in range(k))


def _check_products(F, a, b):
    got = F.vmul(a, b)
    for x, y, z in zip(a.tolist(), b.tolist(), got.tolist()):
        want = _schoolbook_product(F, x, y)
        assert z == want
        assert (F.from_index(x) * F.from_index(y)).index == want


# every field make_field builds with q <= 256: the primes, and p^k, k = 2..4
_LOG_FIELDS = [(p, 1) for p in range(2, 257) if is_prime(p)] + [
    (2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2),
]


@pytest.mark.parametrize("p,k", _LOG_FIELDS)
def test_log_table_on_every_small_field(p, k):
    # the generator's discrete logarithm, with 0 at 2 (q - 1); vmul and
    # power_table equal the formulas they had when 0's log was a
    # placeholder 0 and zero factors were masked out
    F = make_field(p, k)
    q, n = F.q, F.q - 1
    log = F.log_table
    assert not log.flags.writeable
    assert log[0] == 2 * n
    units = np.arange(1, q)
    g = F.generator().index
    assert [F.vpow(g, int(t)) for t in log[units]] == units.tolist()
    assert sorted(log[units].tolist()) == list(range(n))
    exp = np.empty(n, dtype=np.int64)
    exp[log[units]] = units
    placeholder = log.copy()
    placeholder[0] = 0
    a, b = np.meshgrid(np.arange(q), np.arange(q), indexing="ij")
    product = exp[(placeholder[a] + placeholder[b]) % n] * ((a != 0) & (b != 0))
    assert np.array_equal(F.vmul(a, b), product)
    for e in range(-2, 7):
        power = np.zeros(q, dtype=np.int64)
        if e == 0:
            power[:] = 1
        else:
            power[exp] = exp[(np.arange(n) * e) % n]
        assert np.array_equal(F.power_table(e), power)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)])
def test_mul_matches_schoolbook_every_pair(p, k):
    F = make_field(p, k)
    a, b = np.divmod(np.arange(F.q * F.q, dtype=np.int64), F.q)
    _check_products(F, a, b)


@pytest.mark.parametrize("p,k", [(3, 4), (11, 2), (7, 3), (7, 4)])
def test_mul_matches_schoolbook_random_pairs(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    a, b = rng.integers(0, F.q, size=(2, 2000))
    a[:20] = 0  # zero is the case the tables encode apart
    _check_products(F, a, b)


def test_inv_table():
    # vpow(0, -1) is 0 on an index array, a numpy integer and an int alike
    for F in (make_field(11), make_field(7, 2), make_field(3, 2)):
        inv = F.vpow(np.arange(F.q), -1)
        for i in range(1, F.q):
            assert F.from_index(int(inv[i])) * F.from_index(i) == F.one
        assert inv[0] == F.vpow(np.int64(0), -1) == F.vpow(0, -1) == 0


@pytest.mark.parametrize("p,k", [(2, 1), (3, 1), (7, 1), (2, 2)])
def test_matrix_ranks_equal_row_space_size(p, k):
    # the rank is log_q of the number of distinct combinations of the rows
    F = make_field(p, k)
    rng = np.random.default_rng(10 * p + k)
    mats = rng.integers(0, F.q, size=(30, 4, 5))
    mats[::3, 2] = mats[::3, 0]
    mats[1::3, 3] = F.vmul(np.int64(F.q - 1), mats[1::3, 1])
    mats[::4, 1] = 0
    mats[5] = 0
    combos = np.array(list(itertools.product(range(F.q), repeat=4)), dtype=np.int64)
    want = []
    for m in mats:
        span = functools.reduce(
            F.vadd, (F.vmul(combos[:, i, None], m[i][None, :]) for i in range(4))
        )
        want.append(round(math.log(len({tuple(r) for r in span.tolist()}), F.q)))
    got = matrix_ranks(F, mats)
    assert got.tolist() == want
    assert set(want) >= {0, 2, 3, 4}
    for m, r in zip(mats, want):
        assert matrix_ranks(F, [m])[0] == r
        assert matrix_ranks(F, [m.T])[0] == r


@pytest.mark.parametrize("p,k", [(11, 1), (41, 1), (3, 2)])
def test_matrix_ranks_of_one_row_stacks(p, k):
    # a stack of one-row matrices, zero rows among them, ranks the same as
    # those rows padded with a zero second row, which takes the elimination
    F = make_field(p, k)
    rng = np.random.default_rng(p + k)
    rows = rng.integers(0, F.q, size=(200, 1, 5))
    rows[::3] = 0
    rows[1::3, 0, :4] = 0
    padded = np.concatenate([rows, np.zeros_like(rows)], axis=1)
    got = matrix_ranks(F, rows)
    assert got.tolist() == matrix_ranks(F, padded).tolist()
    assert set(got.tolist()) == {0, 1}


def test_element_roots():
    F = make_field(11)
    assert _roots(F.element(-1), 5) == [2, 6, 7, 8, 10]
    assert _roots(F.element(2), 5) == []  # 2 is not a fifth power mod 11
    assert _roots(F.zero, 5) == [0]
    # the field is the value's: 3 has the one fifth root 5 in F_7
    F7 = make_field(7)
    assert _roots(F7.element(3), 5) == [5]
    # every solution, against an exhaustive search in each small field
    for p, k in SMALL_FIELDS:
        F = make_field(p, k)
        for e in (2, 3, 5):
            for v in F.elements():
                assert _roots(v, e) == [u.index for u in F.elements() if u**e == v]


def test_canonical_strings():
    F = make_field(11)
    assert F.element(7).canonical_str() == "7"
    G = make_field(11, 2)
    assert G.element((3, 5)).canonical_str() == "3,5"


def test_hash_agrees_with_equality():
    F7 = make_field(7)
    assert F7.element(3) == F7.element(10)
    assert hash(F7.element(3)) == hash(F7.element(10))
    assert F7.element(3) != 3 and 3 != F7.element(3)
    assert F7.element(0) != 0
    assert len({F7.element(3), 3}) == 2
    assert {F7.element(3), F7.element(10)} == {F7.element(3)}
    assert {F7.element(3): "element"}.get(3) is None
    # the same index in another field is another element
    assert make_field(7, 2).element(3) != F7.element(3)


# -- deferred reduction: FieldArray against FieldElement ----------------------

_TREE_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul}


def _random_tree(rng, F, nleaves: int, depth: int):
    # ("x", i) | ("scale", c, t) | ("pow", e, t) | (op, left, right)
    if depth == 0 or rng.random() < 0.15:
        return ("x", int(rng.integers(nleaves)))
    kind = ["add", "sub", "mul", "scale", "pow"][int(rng.integers(5))]
    if kind == "scale":
        c = int(rng.integers(-3 * F.q, 3 * F.q))
        if rng.random() < 0.3:
            c = F.from_index(int(rng.integers(F.q)))
        return ("scale", c, _random_tree(rng, F, nleaves, depth - 1))
    if kind == "pow":
        return ("pow", int(rng.integers(0, 7)), _random_tree(rng, F, nleaves, depth - 1))
    left = _random_tree(rng, F, nleaves, depth - 1)
    return (kind, left, _random_tree(rng, F, nleaves, depth - 1))


def _evaluate_tree(tree, leaves, seen: list):
    # the tree on FieldArrays or FieldElements; every value goes to seen
    kind = tree[0]
    if kind == "x":
        out = leaves[tree[1]]
    elif kind == "scale":
        out = _evaluate_tree(tree[2], leaves, seen).scale(tree[1])
    elif kind == "pow":
        out = _evaluate_tree(tree[2], leaves, seen) ** tree[1]
    else:
        left = _evaluate_tree(tree[1], leaves, seen)
        out = _TREE_OPS[kind](left, _evaluate_tree(tree[2], leaves, seen))
    seen.append(out)
    return out


def _chain(op, leaf_ids):
    tree = ("x", leaf_ids[0])
    for i in leaf_ids[1:]:
        tree = (op, tree, ("x", i))
    return tree


def _long_chains(rng, nleaves: int):
    # products of 40 factors (unreduced, their intervals pass 2^63 at every
    # p here but 2), sums of 40 triple products (past 2^63 at p = 1048573),
    # and differences that go negative feeding powers
    def product(n):
        return _chain("mul", [int(i) for i in rng.integers(nleaves, size=n)])

    sums = product(3)
    for _ in range(39):
        sums = ("add", sums, product(3))
    negative = ("sub", ("sub", ("x", 0), ("x", 1)), ("scale", 5, ("x", 2)))
    return [
        product(40),
        sums,
        ("pow", 5, negative),
        ("mul", ("pow", 3, negative), ("sub", sums, product(40))),
        ("pow", 2, ("sub", product(5), product(40))),
    ]


# 1048573 is the largest prime below POWER_TABLE_CAP = 2^20, where ** still
# has its power tables
@pytest.mark.parametrize("p,k", [(2, 1), (7, 1), (31, 1), (1048573, 1), (7, 2)])
def test_deferred_reduction_matches_scalars(p, k):
    # random expression trees of + - * scale ** on FieldArrays, against the
    # same trees on FieldElements; every intermediate's interval holds its
    # values and stays below 2^62, and F_49 runs the descriptor's operations
    F = make_field(p, k)
    rng = np.random.default_rng(p + k)
    nleaves, ncols = 4, 24
    cols = rng.integers(0, F.q, size=(nleaves, ncols))
    cols[:, :3] = [0, 1, F.q - 1]
    inputs = [c.copy() for c in cols]
    for c in cols:
        c.setflags(write=False)
    arrays = [FieldArray(c, F) for c in cols]
    trees = [_random_tree(rng, F, nleaves, 5) for _ in range(30)] + _long_chains(rng, nleaves)
    for tree in trees:
        seen = []
        got = _evaluate_tree(tree, arrays, seen)
        for v in seen:
            raw = np.asarray(v._a)
            assert v.lo <= raw.min() and raw.max() <= v.hi
            assert -(2**62) < v.lo and v.hi < 2**62
            if k > 1:
                assert (v.lo, v.hi) == (0, F.q - 1)
        want = [
            _evaluate_tree(tree, [F.from_index(int(c[j])) for c in cols], []).index
            for j in range(ncols)
        ]
        assert np.broadcast_to(got.a, (ncols,)).tolist() == want
        assert 0 <= got.lo and got.hi < F.q  # the read reduced it
    assert all(np.array_equal(c, d) for c, d in zip(cols, inputs))


def test_products_that_overflow_int64_are_refused():
    # above p = 2^31.5 a product of two residues can pass 2^63 - 1: arrays
    # refuse it rather than wrap, ints still multiply exactly
    F = make_field(2**61 - 1)
    a = np.array([1, 4], dtype=np.int64)
    b = np.array([F.p - 1, F.p - 2], dtype=np.int64)
    with pytest.raises(InstanceTooLarge, match=f"p = {F.p}"):
        F.vmul(a, b)
    with pytest.raises(InstanceTooLarge, match=f"p = {F.p}"):
        FieldArray(a, F) * FieldArray(b, F)
    with pytest.raises(InstanceTooLarge, match=f"p = {F.p}"):
        FieldArray(a, F).scale(F.p - 1)
    assert F.vmul(4, F.p - 2) == (4 * (F.p - 2)) % F.p
    assert (FieldArray(a, F) + FieldArray(b, F) - FieldArray(a, F)).a.tolist() == b.tolist()


# the largest prime p with (p - 1)^2 <= 2^63 - 1: arrays multiply up to it
_LARGEST_ARRAY_PRIME = 3037000493


@pytest.mark.parametrize("p", [2, 3, 41, _LARGEST_ARRAY_PRIME])
def test_mod_p_matches_remainder_at_the_extremes(p):
    # _mod_p reduces in place as x - p * floor(x / p); on every value of
    # its documented range [-2^62, max(2^62, (p - 1)^2)] it must agree with
    # np.remainder, negative values and the ends included
    assert is_prime(p) and (p - 1) ** 2 <= 2**63 - 1
    past = range(_LARGEST_ARRAY_PRIME + 1, math.isqrt(2**63 - 1) + 2)
    assert not any(is_prime(n) for n in past)
    F = make_field(p)
    top = max(2**62, (p - 1) ** 2)
    edges = [-(2**62), -(2**62) + 1, -p - 1, -p, -p + 1, -1, 0, 1, p - 1, p, p + 1]
    edges += [(p - 1) ** 2 - 1, (p - 1) ** 2, 2**62 - 1, 2**62, top - 1, top]
    rng = np.random.default_rng(p)
    x = np.concatenate(
        [np.array(edges, dtype=np.int64), rng.integers(-(2**62), top, size=1000, endpoint=True)]
    )
    want = np.remainder(x, p)
    out = F._mod_p(x)
    assert out is x  # reduced in place
    assert np.array_equal(out, want)
    assert F._mod_p(np.array(-(2**62), dtype=np.int64)) == (-(2**62)) % p  # 0-d
