import numpy as np
import pytest

from fraclab.domain import (
    _check_connected,
    _grow,
    dilate,
    extend_by_zero,
    make_box,
    make_shape,
    parse_shape_spec,
    random_connected_mask,
    random_nested_masks,
)


def test_make_box_1d_nodes():
    g = make_box(1, 0.5, 3)
    assert g.h == pytest.approx(0.25)
    assert np.allclose(g.axis_nodes(), [-0.25, 0.0, 0.25])


def test_make_box_2d_node_count():
    g = make_box(2, 1.0, 3)
    assert g.size == 9
    assert g.node_coords().shape == (9, 2)


def test_make_box_large_step():
    # h = 80/2048
    g = make_box(1, 40.0, 2047)
    assert g.h == pytest.approx(0.0390625)


def test_make_box_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_box(3, 1.0, 4)
    with pytest.raises(ValueError):
        make_box(1, -1.0, 4)
    with pytest.raises(ValueError):
        make_box(1, 1.0, 0)


def test_make_shape_interval_node_enumeration():
    # grid h=0.125 on (-1,1): nodes strictly inside (-0.25, 0.25) are -0.125, 0, 0.125
    g = make_box(1, 1.0, 15)
    assert g.h == pytest.approx(0.125)
    om = make_shape(g, "interval", (-0.25, 0.25))
    assert om.node_count == 3
    assert np.allclose(om.coords().ravel(), [-0.125, 0.0, 0.125])


def test_make_shape_degenerate_disk_is_error():
    g = make_box(2, 1.0, 9)
    with pytest.raises(ValueError):
        make_shape(g, "disk", (0.0,))


def test_make_shape_whole_box_square():
    g = make_box(2, 1.0, 9)
    om = make_shape(g, "square", (2.0,))
    assert om.mask.all()


def test_make_shape_exceeding_box_is_error():
    g = make_box(1, 1.0, 15)
    with pytest.raises(ValueError):
        make_shape(g, "interval", (-3.0, 3.0))


def test_shape_dimension_mismatch():
    g = make_box(1, 1.0, 15)
    with pytest.raises(ValueError):
        make_shape(g, "disk", (0.5,))


def test_parse_shape_spec():
    assert parse_shape_spec("interval:-0.5,0.5") == ("interval", (-0.5, 0.5))
    assert parse_shape_spec("disk:0.3") == ("disk", (0.3,))
    with pytest.raises(ValueError):
        parse_shape_spec("hexagon:1")
    with pytest.raises(ValueError):
        parse_shape_spec("disk:")
    with pytest.raises(ValueError):
        parse_shape_spec("interval:0.5")


def test_extend_restrict_round_trip():
    g = make_box(1, 1.0, 7)
    om = make_shape(g, "interval", (-0.3, 0.3))
    rng = np.random.default_rng(0)
    u = rng.standard_normal(om.node_count)
    v = extend_by_zero(u, om)
    assert np.count_nonzero(v.values) <= om.node_count
    assert np.allclose(v.values[om.mask], u)


def test_extend_by_zero_constant_counts():
    g = make_box(1, 1.0, 7)
    om = make_shape(g, "interval", (-0.3, 0.3))
    v = extend_by_zero(np.ones(om.node_count), om)
    assert np.sum(v.values == 1.0) == om.node_count
    assert np.sum(v.values == 0.0) == g.size - om.node_count


def test_restrict_then_extend_identity_on_supported():
    g = make_box(2, 1.0, 9)
    om = make_shape(g, "disk", (0.5,))
    rng = np.random.default_rng(1)
    v = extend_by_zero(rng.standard_normal(om.node_count), om)
    again = extend_by_zero(v.values[om.mask], om)
    assert np.array_equal(again.values, v.values)
    assert not np.any(v.values[~om.mask])


def test_extend_by_zero_on_full_box_is_identity():
    g = make_box(1, 1.0, 9)
    om = make_shape(g, "square" if g.dim == 2 else "interval", (-1.0, 1.0))
    rng = np.random.default_rng(2)
    u = rng.standard_normal(9)
    assert np.array_equal(extend_by_zero(u, om).values, u)


def test_dilate_identity():
    g = make_box(1, 1.0, 31)
    om = make_shape(g, "interval", (-0.2, 0.2))
    assert np.array_equal(dilate(om, 1.0).mask, om.mask)


def test_dilate_interval_doubles():
    g = make_box(1, 1.0, 31)
    om = make_shape(g, "interval", (-0.2, 0.2))
    d = dilate(om, 2.0)
    expect = make_shape(g, "interval", (-0.4, 0.4))
    assert np.array_equal(d.mask, expect.mask)


def test_dilate_refuses_to_leave_the_box_or_shrink():
    g = make_box(1, 1.0, 31)
    om = make_shape(g, "interval", (-0.2, 0.2))
    with pytest.raises(ValueError):
        dilate(om, 64.0)
    with pytest.raises(ValueError):
        dilate(om, 0.5)


def test_dilate_names_the_halfwidth_a_dilate_outside_the_box_needs():
    # the 1D sweep defaults before alpha.values = 1,1.5,2,3: 8 * 0.25 + 2h > 1
    om = make_shape(make_box(1, 1.0, 127), "interval", (-0.25, 0.25))
    with pytest.raises(ValueError) as err:
        dilate(om, 8.0)
    assert str(err.value) == ("dilated shape needs box halfwidth 2.03125, "
                              "exceeding the configured maximum 1")


def test_dilate_stays_on_the_box_up_to_a_step_from_its_faces():
    g = make_box(1, 1.0, 31)  # h = 1/16
    om = make_shape(g, "interval", (-0.25, 0.25))
    assert dilate(om, 3.75).grid is g  # extent 15/16 = L - h
    with pytest.raises(ValueError, match="needs box halfwidth 1.125"):
        dilate(om, 3.76)


def test_dilate_lshape_area_scales_quadratically():
    g = make_box(2, 1.0, 48)
    om = make_shape(g, "lshape", (0.4,))
    d = dilate(om, 3.0)
    ratio = d.node_count / om.node_count
    # area scaling 9x, up to a boundary layer of the coarse masks
    assert 7.0 <= ratio <= 11.0


def test_dilate_composition_matches_product():
    g = make_box(1, 1.0, 63)
    om = make_shape(g, "interval", (-0.1, 0.1))
    once = dilate(dilate(om, 2.0), 3.0)
    product = dilate(om, 6.0)
    assert np.array_equal(once.mask, product.mask)


def test_dilate_refuses_a_custom_mask():
    g = make_box(2, 1.0, 24)
    om = random_connected_mask(g, 10, np.random.default_rng(5))
    with pytest.raises(ValueError, match="only named shapes dilate, not a 'custom' mask"):
        dilate(om, 1.0)


def test_disconnected_custom_mask_warns():
    g = make_box(1, 1.0, 9)
    mask = np.zeros(9, dtype=bool)
    mask[[0, 5]] = True
    with pytest.warns(UserWarning):
        _check_connected(g, mask)


def test_random_connected_mask_is_connected_and_sized():
    g = make_box(2, 1.0, 16)
    rng = np.random.default_rng(7)
    for _ in range(5):
        om = random_connected_mask(g, 9, rng)
        assert om.node_count == 9
        # connectivity: BFS from one node reaches all (no warning machinery needed)
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _check_connected(g, om.mask)


def test_random_nested_masks_nest():
    g = make_box(1, 1.0, 32)
    rng = np.random.default_rng(8)
    inner, outer = random_nested_masks(g, 4, 9, rng)
    assert inner.node_count == 4
    assert outer.node_count == 9
    assert np.all(outer.mask[inner.mask])


def test_random_nested_masks_refuse_an_outer_mask_larger_than_the_grid():
    with pytest.raises(ValueError, match="outer mask size 9 exceeds the grid's 5 nodes"):
        random_nested_masks(make_box(1, 1.0, 5), 2, 9, np.random.default_rng(0))


def test_mask_growth_raises_when_it_stalls():
    g = make_box(1, 1.0, 5)
    with pytest.raises(RuntimeError, match="stalled at 5 of 6 nodes after 600 attempts"):
        _grow(g, np.ones(5, dtype=bool), list(range(5)), 6, np.random.default_rng(0))


# Indices drawn from default_rng(2024): one random_connected_mask, then one
# random_nested_masks pair from the same generator.  They pin the neighbour
# order of BoxGrid.neighbors and the order in which growth draws mask nodes.
GOLDEN_MASKS = [
    ((1, 40, 9, 5, 14), [4, 5, 6, 7, 8, 9, 10, 11, 12], [17, 18, 19, 20, 21],
     [12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25]),
    ((2, 12, 9, 5, 14), [20, 21, 22, 33, 34, 35, 45, 46, 47], [128, 129, 140, 141, 142],
     [104, 116, 117, 125, 128, 129, 130, 137, 138, 139, 140, 141, 142, 143]),
    ((2, 4, 9, 5, 14), [1, 2, 3, 5, 6, 7, 9, 10, 11], [1, 2, 3, 5, 6],
     [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15]),
]


@pytest.mark.parametrize("case, single, inner, outer", GOLDEN_MASKS)
def test_random_masks_are_pinned_by_the_seed(case, single, inner, outer):
    dim, n, single_size, inner_size, outer_size = case
    g = make_box(dim, 1.0, n)
    rng = np.random.default_rng(2024)
    assert random_connected_mask(g, single_size, rng).indices.tolist() == single
    pair = random_nested_masks(g, inner_size, outer_size, rng)
    assert [om.indices.tolist() for om in pair] == [inner, outer]


@pytest.mark.parametrize("f, expected", [
    (0, [4, 1]),             # corner: no row above, no column left
    (3, [7, 2]),             # corner at the end of the first row
    (15, [11, 14]),          # last corner
    (2, [6, 1, 3]),          # top edge
    (8, [4, 12, 9]),         # left edge
    (7, [3, 11, 6]),         # right edge
    (5, [1, 9, 4, 6]),       # interior: f-n, f+n, f-1, f+1
])
def test_neighbors_2d_order_and_bounds(f, expected):
    assert make_box(2, 1.0, 4).neighbors(f) == expected


def test_neighbors_1d_order_and_ends():
    g = make_box(1, 1.0, 5)
    assert g.neighbors(0) == [1]
    assert g.neighbors(4) == [3]
    assert g.neighbors(2) == [1, 3]
    assert make_box(1, 1.0, 1).neighbors(0) == []


def test_subdomain_equality_and_hash_go_by_identity():
    g = make_box(2, 1.0, 8)
    d = make_shape(g, "disk", (0.5,))
    twin = make_shape(g, "disk", (0.5,))
    assert d == d and d != twin
    assert hash(d) == hash(d) and len({d, twin}) == 2


@pytest.mark.parametrize("dim, n, shape, params", [
    (1, 16, "interval", (-0.3, 0.5)),   # closed form, 1D
    (2, 12, "square", (0.9,)),          # closed form, Kronecker product
    (2, 12, "lshape", (1.2,)),          # LAPACK
])
def test_subdomain_eigenbasis_diagonalizes_its_laplacian(dim, n, shape, params):
    d = make_shape(make_box(dim, 1.0, n), shape, params)
    a, e = d.laplacian, d.eigen
    q, lam = e.eigenvectors, e.eigenvalues
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(q.T @ q - np.eye(d.node_count))) < 1e-12
    assert np.max(np.abs((q * lam) @ q.T - a)) < 1e-12 * np.max(np.abs(a))
    assert d.laplacian is a and d.eigen is e


@pytest.mark.parametrize("shape, params", [("disk", (0.5,)), ("lshape", (1.2,))])
def test_a_mask_that_is_no_rectangle_reads_its_spectrum_off_the_eigenbasis(shape, params):
    d = make_shape(make_box(2, 1.0, 24), shape, params)
    assert d.spectrum is d.eigen.eigenvalues
    assert np.max(np.abs(d.spectrum - np.linalg.eigvalsh(d.laplacian))) < 1e-12 * d.spectrum[-1]


def test_grid_embedding_requires_alignment():
    g1 = make_box(1, 1.0, 63)  # h = 1/32, halfwidth multiple of h
    g2 = make_box(1, 2.0, 127)
    assert g1.embed_offset(g2) == 32
    g3 = make_box(1, 2.0, 255)  # different h
    with pytest.raises(ValueError):
        g1.embed_offset(g3)
    with pytest.raises(ValueError):
        g2.embed_offset(g1)  # smaller target


def test_grid_function_validation():
    g = make_box(1, 1.0, 7)
    from fraclab.domain import GridFunction

    with pytest.raises(ValueError):
        GridFunction(grid=g, values=np.ones(5))
    with pytest.raises(ValueError):
        GridFunction(grid=g, values=np.full(7, np.nan))
