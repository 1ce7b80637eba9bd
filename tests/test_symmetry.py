import numpy as np
import pytest

from mirrorquintic import symmetry
from mirrorquintic.counting import iter_projective_chunks
from mirrorquintic.errors import RootOfUnityUnavailable
from mirrorquintic.families import (
    MonomialMap,
    apply_map,
    cubics_v,
    normalize_point,
    quintic_x,
    sample_points,
)
from mirrorquintic.ffield import make_field, primitive_nth_root
from mirrorquintic.singular import singular_points
from mirrorquintic.symmetry import (
    GroupSpec,
    GtildeElement,
    ScalingElement,
    apply_scalars,
    diagonal_invariance,
    enumerate_G,
    enumerate_Gtilde,
    induced_cube_action,
    invariance_check,
    orbit,
    psi_kernel,
    quotient_generator,
    scalars_for,
)

F11 = make_field(11)
F19 = make_field(19)


def test_group_orders():
    assert len(enumerate_G()) == 125
    assert len(enumerate_Gtilde()) == 81
    assert len(psi_kernel()) == 27
    assert len(enumerate_Gtilde()) // len(psi_kernel()) == 3


def test_g_membership_rules():
    G = enumerate_G()
    assert ScalingElement((0, 0, 0, 0)) in G
    assert ScalingElement((1, 4, 0, 0)) in G
    with pytest.raises(ValueError):
        ScalingElement((1, 0, 0, 0))  # sum not 0 mod 5


def test_gtilde_membership_rules():
    Gt = enumerate_Gtilde()
    assert GtildeElement(0, 0, 0, 0, 0) in Gt
    assert GtildeElement(1, 2, 0, 0, 0) in Gt
    with pytest.raises(ValueError):
        GtildeElement(1, 1, 0, 0, 0)  # 1 + 1 != 0 mod 3


def test_group_axioms_exhaustive():
    for group in (enumerate_G(), enumerate_Gtilde(), psi_kernel()):
        assert group.verify_axioms()
        assert group.is_abelian()


def _reference_law(g, h):
    # the composition written out per type, one coordinate at a time
    if isinstance(g, ScalingElement):
        return ScalingElement(tuple((a + b) % 5 for a, b in zip(g.exponents, h.exponents)))
    return GtildeElement(
        (g.alpha + h.alpha) % 3,
        (g.beta + h.beta) % 3,
        (g.delta + h.delta) % 3,
        (g.epsilon + h.epsilon) % 3,
        (g.mu + h.mu) % 9,
    )


def _reference_axioms(elements, identity) -> bool:
    # closure over every pair, the identity and every inverse, by brute force
    members = set(elements)
    return (
        identity in members
        and all(_reference_law(g, identity) == g for g in elements)
        and all(any(_reference_law(g, h) == identity for h in elements) for g in elements)
        and all(_reference_law(g, h) in members for g in elements for h in elements)
    )


def _broken_sets():
    G, Gt = enumerate_G(), enumerate_Gtilde()
    g = ScalingElement((1, 4, 0, 0))
    t = GtildeElement(1, 0, 1, 0, 1)
    return {
        "G minus one element": GroupSpec([x for x in G if x != g], G.identity),
        "G without its identity": GroupSpec([x for x in G if x != G.identity], G.identity),
        "Gtilde missing an inverse": GroupSpec([x for x in Gt if x != t.inverse()], Gt.identity),
        "three powers of g": GroupSpec([G.identity, g, g.compose(g)], G.identity),
        "G with a wrong identity": GroupSpec(G, g),
    }


def test_array_axiom_check_agrees_with_a_reference():
    # the whole-array check against brute force, on the three groups and
    # on sets that are not groups; compose and inverse agree with the
    # written-out law on every pair
    groups = (enumerate_G(), enumerate_Gtilde(), psi_kernel())
    for group in groups:
        assert group.verify_axioms() and _reference_axioms(group.elements, group.identity)
        for g in group:
            assert _reference_law(g, g.inverse()) == group.identity
            assert all(g.compose(h) == _reference_law(g, h) for h in group)
    for name, spec in _broken_sets().items():
        assert not _reference_axioms(spec.elements, spec.identity), name
        assert not spec.verify_axioms(), name


def test_is_abelian_detects_a_non_commuting_law(monkeypatch):
    # is_abelian compares g*h with h*g through the one law: a law that is
    # not symmetric in its arguments is caught
    real = symmetry._compose
    monkeypatch.setattr(symmetry, "_compose", lambda u, v, m: real(2 * np.asarray(u), v, m))
    assert not enumerate_Gtilde().is_abelian()


def test_g_is_elementary_abelian_of_order_125():
    G = enumerate_G()
    assert all(g.order() in (1, 5) for g in G)


def test_invariance_of_x_under_all_of_g():
    X2 = quintic_x(2, F11)
    assert all(invariance_check(g, X2) for g in enumerate_G())


def test_non_member_scaling_fails():
    X2 = quintic_x(2, F11)
    w = primitive_nth_root(F11, 5)
    bad = (F11.one, w, F11.one, F11.one, F11.one)
    assert not diagonal_invariance(bad, X2)


def test_invariance_of_v_under_gtilde():
    V1 = cubics_v(1, F19)
    assert all(invariance_check(g, V1) for g in enumerate_Gtilde())


def test_invariance_needs_roots():
    with pytest.raises(RootOfUnityUnavailable):
        invariance_check(ScalingElement((1, 4, 0, 0)), quintic_x(1, make_field(7)))
    with pytest.raises(RootOfUnityUnavailable):
        invariance_check(GtildeElement(0, 0, 0, 0, 0), cubics_v(1, make_field(7)))


def test_node_orbit_has_125_points():
    orb = orbit((F11.one,) * 5, enumerate_G())
    assert len(orb) == 125


def test_coordinate_point_is_fixed():
    e0 = (F11.one, F11.zero, F11.zero, F11.zero, F11.zero)
    assert orbit(e0, enumerate_G()) == {e0}


def test_orbit_sizes_divide_group_order():
    G = enumerate_G()
    rng = np.random.default_rng(1)
    for _ in range(10):
        pt = tuple(F11.from_index(int(i)) for i in rng.integers(0, 11, size=5))
        if not any(pt):
            continue
        assert 125 % len(orbit(pt, G)) == 0


def test_orbit_equals_singular_locus():
    rep = singular_points(quintic_x(1, F11))
    assert set(rep.points) == orbit((F11.one,) * 5, enumerate_G())


def test_phi_constant_on_g_orbits_exhaustive():
    # the fifth-power map composed with any scaling equals the map itself,
    # checked on every point of P^4(F_11)
    phi_tab = F11.power_table(5)
    for g in enumerate_G():
        s = np.array([x.index for x in scalars_for(g, F11)], dtype=np.int64)
        for coords in iter_projective_chunks(F11, 4):
            for i, c in enumerate(coords):
                assert (phi_tab[F11.vmul(np.int64(s[i]), c)] == phi_tab[c]).all()


def test_psi_kernel_is_mu_multiples_of_three():
    H = set(psi_kernel().elements)
    for g in enumerate_Gtilde():
        assert (g in H) == (g.mu % 3 == 0)


def test_psi_invariant_under_kernel_and_only_kernel():
    psi = MonomialMap(3, 6)
    H = set(psi_kernel().elements)
    pts = sample_points(cubics_v(1, F19), 25, seed=2)
    ones = (F19.one,) * 6
    for g in enumerate_Gtilde():
        s = scalars_for(g, F19)
        same_on_ones = apply_map(psi, apply_scalars(s, ones)) == apply_map(psi, ones)
        if g in H:
            assert same_on_ones
            for pt in pts:
                assert apply_map(psi, apply_scalars(s, pt)) == apply_map(psi, pt)
        else:
            assert not same_on_ones


def test_quotient_generator_action():
    g0 = quotient_generator()
    assert g0.mu % 3 != 0
    assert induced_cube_action(g0) == (1, 1, 1, 0, 0, 0)
    w3 = primitive_nth_root(F19, 3)
    psi = MonomialMap(3, 6)
    sc = scalars_for(g0, F19)
    for pt in sample_points(cubics_v(1, F19), 50, seed=4):
        lhs = apply_map(psi, apply_scalars(sc, pt))
        w = apply_map(psi, pt)
        rhs = normalize_point((w[0] * w3, w[1] * w3, w[2] * w3, w[3], w[4], w[5]))
        assert lhs == rhs

