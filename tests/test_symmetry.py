import numpy as np
import pytest

from mirrorquintic.counting import iter_projective_chunks, points
from mirrorquintic.errors import DimensionMismatch, RootOfUnityUnavailable, ZeroDenominator
from mirrorquintic.families import (
    _FAMILIES,
    MonomialMap,
    apply_map,
    build_family,
    cubics_v,
    cubics_w,
    cubics_wtilde,
    new_coordinates_w,
    quadric_q,
    quintic_x,
    quintic_y,
)
from mirrorquintic.ffield import make_field, primitive_nth_root
from mirrorquintic.mvpoly import MPoly
from mirrorquintic.singular import singular_points
from mirrorquintic.symmetry import (
    GroupSpec,
    element_scalars,
    enumerate_G,
    enumerate_Gtilde,
    group_invariance,
    induced_cube_action,
    invariance_mask,
    orbit,
    psi_kernel,
    quotient_generator,
    verify_axioms,
)

F11 = make_field(11)
F19 = make_field(19)


def apply_scalars(scalars, point):
    return tuple(s * x for s, x in zip(scalars, point))


def _normalize(point):
    # the canonical representative in FieldElements: first nonzero is one
    inv = next(x for x in point if x).inverse()
    return tuple(x * inv for x in point)


def test_group_orders():
    assert len(enumerate_G()) == 125
    assert len(enumerate_Gtilde()) == 81
    assert len(psi_kernel()) == 27
    assert len(enumerate_Gtilde()) // len(psi_kernel()) == 3


def test_g_membership_rules():
    G = enumerate_G()
    assert (0, 0, 0, 0) in G
    assert (1, 4, 0, 0) in G
    assert (1, 0, 0, 0) not in G  # sum not 0 mod 5


def test_gtilde_membership_rules():
    Gt = enumerate_Gtilde()
    assert (0, 0, 0, 0, 0) in Gt
    assert (1, 2, 0, 0, 0) in Gt
    assert (1, 1, 0, 0, 0) not in Gt  # 1 + 1 != 0 mod 3


def test_group_axioms_exhaustive():
    for group in (enumerate_G(), enumerate_Gtilde(), psi_kernel()):
        assert verify_axioms(group)


def _reference_law(g, h):
    # the composition written out per group, one coordinate at a time
    if len(g) == 4:
        return tuple((x + y) % 5 for x, y in zip(g, h))
    (a, b, d, e, m), (a2, b2, d2, e2, m2) = g, h
    return ((a + a2) % 3, (b + b2) % 3, (d + d2) % 3, (e + e2) % 3, (m + m2) % 9)


def _reference_axioms(elements) -> bool:
    # closure over every pair, the identity and every inverse, by brute force
    members = set(elements)
    identity = (0,) * len(elements[0])
    return (
        identity in members
        and all(_reference_law(g, identity) == g for g in elements)
        and all(any(_reference_law(g, h) == identity for h in elements) for g in elements)
        and all(_reference_law(g, h) in members for g in elements for h in elements)
    )


def _broken_sets():
    G, Gt = enumerate_G(), enumerate_Gtilde()
    g = (1, 4, 0, 0)

    def subset(group, elements):
        return GroupSpec(elements, group.moduli, group.order, group.action)

    return {
        "G minus one element": subset(G, [x for x in G if x != g]),
        "G without its identity": subset(G, [x for x in G if any(x)]),
        # (2, 0, 2, 0, 8) is the inverse of (1, 0, 1, 0, 1)
        "Gtilde missing an inverse": subset(Gt, [x for x in Gt if x != (2, 0, 2, 0, 8)]),
        "three powers of g": subset(G, [(0, 0, 0, 0), g, (2, 3, 0, 0)]),
    }


def test_array_axiom_check_agrees_with_a_reference():
    # the whole-array check against brute force, on the three groups and
    # on sets that are not groups
    for group in (enumerate_G(), enumerate_Gtilde(), psi_kernel()):
        assert verify_axioms(group) and _reference_axioms(group.elements)
    for name, spec in _broken_sets().items():
        assert not _reference_axioms(spec.elements), name
        assert not verify_axioms(spec), name


def test_scalars_match_the_written_out_actions():
    # element_scalars reads each group's action matrix; here the two
    # actions are written out, element by element
    G, Gt = enumerate_G(), enumerate_Gtilde()
    w5 = primitive_nth_root(F11, 5)
    for g, row in zip(G, element_scalars(G, F11).tolist()):
        assert row == [1] + [(w5**l).index for l in g]
    w9 = primitive_nth_root(F19, 9)
    for (a, b, d, e, m), row in zip(Gt, element_scalars(Gt, F19).tolist()):
        exponents = (3 * a + m, 3 * b + m, m, -3 * d - m, -3 * e - m, -m)
        assert row == [(w9 ** (u % 9)).index for u in exponents]


def test_invariance_of_x_under_all_of_g():
    X2 = quintic_x(2, F11)
    G = enumerate_G()
    assert group_invariance(G, X2).tolist() == [True] * len(G)


def test_non_member_scaling_fails():
    X2 = quintic_x(2, F11)
    w = primitive_nth_root(F11, 5)
    bad = (1, w.index, 1, 1, 1)
    assert invariance_mask([bad], X2).tolist() == [False]


def test_diagonal_invariance_needs_one_scalar_per_variable():
    with pytest.raises(DimensionMismatch):
        invariance_mask([(1,) * 4], quintic_x(1, F11))


def _scalar_multiple(g, f) -> bool:
    # g = c f for a nonzero scalar c (the zero polynomial is only a
    # multiple of itself)
    if not g or not f:
        return not g and not f
    (eg, cg), (ef, cf) = g.terms()[0], f.terms()[0]
    return eg == ef and g == f.scale(cg / cf)


def _reference_invariance(scalars, instance) -> bool:
    # the polynomial comparison: each equation composed with the scaling is
    # a nonzero multiple of some equation of the system
    system = instance.system
    for f in system:
        terms = []
        for exps, c in f.terms():
            for s, e in zip(scalars, exps):
                if e:
                    c = c * s**e
            terms.append((exps, c))
        g = MPoly(f.nvars, terms, instance.field)
        if not any(_scalar_multiple(g, h) for h in system):
            return False
    return True


def _oracle_cases():
    # (scalings, instance) pairs, each scaling a tuple of FieldElements, on
    # which the one-factor rule must give the polynomial comparison's answer
    G, Gt = enumerate_G(), enumerate_Gtilde()

    def scalings(group, F):
        return [tuple(map(F.from_index, row)) for row in element_scalars(group, F).tolist()]

    for F in (F11, make_field(31)):
        for mu in (0, 1, 2):
            yield scalings(G, F), quintic_x(mu, F)
    for inst in (cubics_v(1, F19), cubics_w(1, F19), cubics_wtilde(1, F19)):
        yield scalings(Gt, F19), inst
    w5 = primitive_nth_root(F11, 5)
    yield [(F11.one, w5, F11.one, F11.one, F11.one)], quintic_x(2, F11)  # verify's non-member
    # F_181 has the 45th roots of unity, so 5th and 9th roots alike
    F = make_field(181)
    w = primitive_nth_root(F, 45)
    instances = [quintic_x(1, F), quintic_y(2, F), quadric_q(F), cubics_v(1, F),
                 cubics_w(2, F), cubics_wtilde(1, F), new_coordinates_w(1, F)]
    drawn = [[] for _ in instances]
    rng = np.random.default_rng(22)
    for i in range(50):
        inst = instances[i % len(instances)]
        n = inst.nvars
        if i % 5 == 1:  # one common factor: every system is invariant
            scalars = [w ** int(rng.integers(45))] * n
        else:
            scalars = [w ** int(e) for e in rng.integers(0, 45, size=n)]
        if i % 4 == 0:  # one to n zeros
            for j in rng.permutation(n)[: rng.integers(1, n + 1)]:
                scalars[j] = F.zero
        drawn[i % len(instances)].append(tuple(scalars))
    yield from zip(drawn, instances)


def test_one_factor_rule_agrees_with_the_polynomial_comparison():
    # one invariance_mask call per instance
    answers = []
    for scalings, inst in _oracle_cases():
        got = invariance_mask([[s.index for s in row] for row in scalings], inst).tolist()
        assert got == [_reference_invariance(s, inst) for s in scalings], inst
        answers += got
    assert len(answers) == 2 * 3 * 125 + 3 * 81 + 1 + 50
    assert sum(answers) == 843


def _every_system():
    # each family at parameters 0, 1 and 2, and the nu-form, where the
    # field allows it
    for F in (make_field(7), make_field(11), make_field(19), make_field(2, 2), make_field(3, 2)):
        for fid, row in _FAMILIES.items():
            for v in (0, 1, 2):
                try:
                    yield build_family(fid, {name: v for name in row.params}, F)
                except RootOfUnityUnavailable:  # QuadricQ needs a 5th root
                    break
        for lam in (0, 1, 2):
            try:
                yield new_coordinates_w(lam, F)
            except (RootOfUnityUnavailable, ZeroDenominator):  # a cube root, lam != 0
                continue


def test_no_two_equations_share_a_monomial_support():
    # a diagonal scaling keeps each equation's support, so the one-factor
    # rule equals the polynomial comparison exactly when no two equations
    # of a system have the same support
    built = 0
    for inst in _every_system():
        supports = [frozenset(e for e, _ in f.terms()) for f in inst.system]
        assert len(set(supports)) == len(supports), inst
        built += 1
    assert built > 5 * 5


def test_invariance_of_v_under_gtilde():
    V1 = cubics_v(1, F19)
    Gt = enumerate_Gtilde()
    assert group_invariance(Gt, V1).tolist() == [True] * len(Gt)


def test_invariance_needs_roots():
    F7 = make_field(7)
    with pytest.raises(RootOfUnityUnavailable):
        invariance_mask(element_scalars(enumerate_G(), F7, [(1, 4, 0, 0)]), quintic_x(1, F7))
    with pytest.raises(RootOfUnityUnavailable):
        invariance_mask(
            element_scalars(enumerate_Gtilde(), F7, [(0, 0, 0, 0, 0)]), cubics_v(1, F7)
        )


def test_node_orbit_has_125_points():
    orb = orbit((1,) * 5, enumerate_G(), F11)
    assert len(orb) == 125


def test_coordinate_point_is_fixed():
    e0 = [1, 0, 0, 0, 0]
    assert orbit(e0, enumerate_G(), F11).tolist() == [e0]


def test_orbit_sizes_divide_group_order():
    G = enumerate_G()
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = rng.integers(0, 11, size=5)
        if not pt.any():
            continue
        assert 125 % len(orbit(pt, G, F11)) == 0


def test_orbit_equals_singular_locus():
    points = singular_points(quintic_x(1, F11))
    assert np.array_equal(points, orbit((1,) * 5, enumerate_G(), F11))


def test_phi_constant_on_g_orbits_exhaustive():
    # the fifth-power map composed with any scaling equals the map itself,
    # checked on every point of P^4(F_11)
    phi_tab = F11.power_table(5)
    G = enumerate_G()
    for s in element_scalars(G, F11):
        for coords in iter_projective_chunks(F11, 4):
            for i, c in enumerate(coords):
                assert (phi_tab[F11.vmul(np.int64(s[i]), c)] == phi_tab[c]).all()


def test_psi_kernel_is_mu_multiples_of_three():
    H = set(psi_kernel().elements)
    for g in enumerate_Gtilde():
        assert (g in H) == (g[4] % 3 == 0)


def test_psi_invariant_under_kernel_and_only_kernel():
    psi = MonomialMap(3, 6)
    H = set(psi_kernel().elements)
    pts = points(cubics_v(1, F19))
    ones = np.ones((1, 6), dtype=np.int64)
    Gt = enumerate_Gtilde()
    for g, s in zip(Gt, element_scalars(Gt, F19)):
        same_on_ones = np.array_equal(
            apply_map(psi, F19.vmul(ones, s), F19), apply_map(psi, ones, F19)
        )
        if g in H:
            assert same_on_ones
            assert np.array_equal(
                apply_map(psi, F19.vmul(pts, s), F19), apply_map(psi, pts, F19)
            )
        else:
            assert not same_on_ones


def test_quotient_generator_action():
    g0 = quotient_generator()
    assert g0 == (0, 2, 0, 2, 2)
    assert induced_cube_action(g0) == (1, 1, 1, 0, 0, 0)
    w3 = primitive_nth_root(F19, 3)
    psi = MonomialMap(3, 6)
    sc = element_scalars(enumerate_Gtilde(), F19, [g0])
    pts = points(cubics_v(1, F19))[::200]  # 54 of the 10791 points
    lhs = apply_map(psi, F19.vmul(pts, sc), F19)
    for row, got in zip(pts.tolist(), lhs.tolist()):
        w = [F19.from_index(c) ** 3 for c in row]
        rhs = _normalize((w[0] * w3, w[1] * w3, w[2] * w3, w[3], w[4], w[5]))
        assert got == [x.index for x in rhs]



# -- whole-array passes against a per-element reference ----------------------


def _reference_scalars(group, g, F):
    # w^(action . g mod order) for one element, in FieldElement arithmetic
    w = primitive_nth_root(F, group.order)
    return tuple(w ** (sum(a * x for a, x in zip(row, g)) % group.order) for row in group.action)


def _reference_one_factor(scalars, instance) -> bool:
    # the one-factor rule on one scaling, one monomial at a time
    one = instance.field.one
    for f in instance.system:
        factors = set()
        for exps, _ in f.terms():
            factor = one
            for s, e in zip(scalars, exps):
                if e:
                    factor = factor * s**e
            factors.add(factor)
        if len(factors) > 1 or not all(factors):
            return False
    return True


def _reference_orbit(point, group):
    F = point[0].field
    return {
        _normalize(apply_scalars(_reference_scalars(group, g, F), point)) for g in group
    }


def _group_cases():
    G, Gt = enumerate_G(), enumerate_Gtilde()
    for F in (F11, make_field(31), make_field(2, 4)):
        yield pytest.param(G, quintic_x(F.from_index(2), F), id=f"G-X-{F.q}")
    yield pytest.param(G, quintic_y(2, F11), id="G-Y-11")
    for inst in (cubics_v(1, F19), cubics_w(1, F19), cubics_wtilde(1, F19)):
        yield pytest.param(Gt, inst, id=f"Gtilde-{inst.id.value}-19")


@pytest.mark.parametrize("group,inst", list(_group_cases()))
def test_batched_invariance_equals_the_per_element_reference(group, inst):
    F = inst.field
    want = [_reference_one_factor(_reference_scalars(group, g, F), inst) for g in group]
    scalars = element_scalars(group, F)
    assert scalars.tolist() == [
        [x.index for x in _reference_scalars(group, g, F)] for g in group
    ]
    assert group_invariance(group, inst).tolist() == want
    assert [invariance_mask(element_scalars(group, F, [g]), inst)[0] for g in group] == want
    if inst.id.value == "QuinticY":  # only the identity preserves Y
        assert want == [not any(g) for g in group]
    elif inst.id.value in ("QuinticX", "CubicsV"):  # verify's two claims
        assert all(want)
    else:
        assert any(want) and not all(want)


def test_batched_invariance_of_non_member_and_zero_scalings():
    X2 = quintic_x(2, F11)
    w5 = primitive_nth_root(F11, 5)
    one, zero = F11.one, F11.zero
    scalings = [
        (one, w5, one, one, one),  # verify's non-member
        (zero, w5, one, one, one),
        (one, one, one, one, zero),
        (zero,) * 5,
        (w5,) * 5,  # one common factor
        (one, w5, w5**4, one, one),  # a member
    ]
    want = [_reference_one_factor(s, X2) for s in scalings]
    assert want == [False, False, False, False, True, True]
    mask = invariance_mask([[x.index for x in s] for s in scalings], X2)
    assert mask.tolist() == want
    with pytest.raises(DimensionMismatch):
        invariance_mask(np.ones((3, 4), dtype=np.int64), X2)


def test_batched_orbits_equal_the_per_element_reference():
    import random

    G, Gt = enumerate_G(), enumerate_Gtilde()
    rng = random.Random(32)
    cases = [(G, F) for F in (F11, make_field(31), make_field(2, 4))] + [(Gt, F19)]
    for group, F in cases:
        n = len(group.action)
        points = [(F.one,) * n, (F.one,) + (F.zero,) * (n - 1)]
        while len(points) < 12:
            pt = tuple(F.from_index(rng.randrange(F.q)) for _ in range(n))
            if any(pt):
                points.append(pt)
        for pt in points:
            got = orbit([x.index for x in pt], group, F).tolist()
            want = sorted([x.index for x in q] for q in _reference_orbit(pt, group))
            assert got == want, (F, pt)
    assert len(orbit((1,) * 5, G, F11)) == 125
    with pytest.raises(ValueError, match="zero vector"):
        orbit((0,) * 5, G, F11)
