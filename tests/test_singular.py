import pytest

from mirrorquintic.counting import projective_size
from mirrorquintic.errors import (
    BadCharacteristic,
    InstanceTooLarge,
    NotSingular,
    RootOfUnityUnavailable,
)
from mirrorquintic.families import (
    MonomialMap,
    Stratum,
    apply_map,
    quintic_x,
    quintic_y,
    sample_points,
)
from mirrorquintic.ffield import make_field
from mirrorquintic.singular import (
    classify_node,
    fiber_size_table,
    preimage_count,
    quadric_evidence_for_prime,
    singular_points,
    surface_evidence,
)

F7 = make_field(7)
F11 = make_field(11)


def test_x1_f11_node_census():
    rep = singular_points(quintic_x(1, F11))
    assert rep.count == 125
    assert all(classify_node(quintic_x(1, F11), pt).is_node for pt in rep.points)


def test_singular_points_threads_same_report():
    inst = quintic_y(2, F11)
    assert singular_points(inst, threads=2) == singular_points(inst, threads=1)


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
    assert set(rep.points) == orbit(seed, enumerate_G(), F11)


def test_classify_node_at_symmetric_point():
    nc = classify_node(quintic_x(1, F11), (F11.one,) * 5)
    assert nc.is_singular and nc.is_node and nc.hessian_rank == 4
    ncy = classify_node(quintic_y(1, F11), (F11.one,) * 5)
    assert ncy.is_node


def test_a_point_is_singular_but_not_node():
    pt = (F11.zero, F11.zero, F11.one, F11.one, F11.element(-2))
    nc = classify_node(quintic_y(1, F11), pt)
    assert nc.is_singular and not nc.is_node and nc.hessian_rank <= 3


def test_classify_node_rejects_smooth_point():
    with pytest.raises(NotSingular):
        classify_node(quintic_x(2, F11), (F11.one,) * 5)


def test_classify_node_rejects_small_characteristic():
    F2, F5 = make_field(2), make_field(5)
    with pytest.raises(BadCharacteristic):
        classify_node(quintic_x(1, F2), (F2.one,) * 5)
    with pytest.raises(BadCharacteristic):
        classify_node(quintic_x(1, F5), (F5.one,) * 5)


def test_singular_scan_cap():
    with pytest.raises(InstanceTooLarge):
        singular_points(quintic_x(1, make_field(43)))


def test_preimage_generic_and_special():
    phi = MonomialMap(5, 5)
    X = quintic_x(1, F11)
    Y = quintic_y(1, F11)
    x = sample_points(X, 1, seed=5, nonzero_coords=True)[0]
    fr = preimage_count(phi, apply_map(phi, x), F11, within=X, strata_instance=Y)
    assert fr.count == 625 and fr.count_within == 125
    assert fr.predicted == 625 and fr.stratum is Stratum.GENERIC

    b = (F11.zero,) * 3 + (F11.one, F11.element(-1))
    frb = preimage_count(phi, b, F11, within=X, strata_instance=Y)
    assert frb.count == 5 == frb.count_within == frb.predicted
    assert frb.stratum is Stratum.IN_POINT_SET_B


def test_preimage_of_line_image_is_25():
    phi = MonomialMap(5, 5)
    x = (F11.zero, F11.zero, F11.one, F11.one, F11.element(-2))
    fr = preimage_count(phi, apply_map(phi, x), F11)
    assert fr.count == 25 == fr.predicted


def test_preimage_f31_line_witness():
    F31 = make_field(31)
    phi = MonomialMap(5, 5)
    y = (F31.zero, F31.zero, F31.one, F31.element(5), F31.element(25))
    fr = preimage_count(
        phi, y, F31, within=quintic_x(1, F31), strata_instance=quintic_y(1, F31)
    )
    assert fr.stratum is Stratum.ON_LINE_A
    assert fr.count == 25 and fr.count_within == 25


def test_preimage_empty_when_ratio_not_fifth_power():
    phi = MonomialMap(5, 5)
    y = (F11.one, F11.element(2), F11.one, F11.one, F11.one)  # 2 not a 5th power
    fr = preimage_count(phi, y, F11)
    assert fr.count == 0 and fr.count < fr.predicted


def test_preimage_needs_roots_of_unity():
    with pytest.raises(RootOfUnityUnavailable):
        preimage_count(MonomialMap(5, 5), (F7.one,) * 5, F7)


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
    for coords in iter_projective_chunks(F11, 4):
        for col in range(coords[0].shape[0]):
            pts.append(tuple(F11.from_index(int(c[col])) for c in coords))
    rng = np.random.default_rng(8)
    for i in rng.integers(0, len(pts), size=100):
        assert preimage_count(phi, pts[int(i)], F11).count == int(sizes[int(i)])


def test_surface_evidence_f11():
    ev = quadric_evidence_for_prime(11)
    assert ev.all_ok() and ev.line_witnesses == []


def test_surface_evidence_f31_witnesses():
    ev = quadric_evidence_for_prime(31)
    assert ev.special_point_on_surface and ev.contained_in_target
    assert ev.jacobian_full_rank and ev.images_on_mirror
    # a primitive cube root of unity is a fifth power mod 31, so the two
    # surface points on each coordinate plane are rational and map onto
    # the lines: 2 x 10 witnesses
    assert not ev.images_avoid_singular_lines
    assert len(ev.line_witnesses) == 20
    F31 = make_field(31)
    for w in ev.line_witnesses:
        assert sum(1 for x in w if not x) == 2


def test_surface_evidence_requires_quadric():
    with pytest.raises(ValueError):
        surface_evidence(quintic_x(1, F11), quintic_x(1, F11))
