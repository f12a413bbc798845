"""Matrix-level checks of the two fractional operators and their comparison."""

import tracemalloc

import numpy as np
import pytest

from fraclab.cli import _MAX_BASIS_NODES
from fraclab.domain import make_box, make_shape, random_connected_mask, random_nested_masks
from fraclab import linalg, operators
from fraclab.linalg import eigendecompose
from fraclab.operators import (
    compare_spectra,
    difference_operator,
    dirichlet_operator,
    fourier_form,
    monotonicity_check,
    navier_operator,
)
from fraclab.domain import GridFunction, SubDomain, extend_by_zero


def centered_interval(box, nodes):
    return make_shape(box, "interval", (-nodes / 2 * box.h, nodes / 2 * box.h))


def full_box(grid):
    return SubDomain(grid=grid, mask=np.ones(grid.size, dtype=bool))


# ---------------------------------------------------------------- laplacian

def test_laplacian_1d_three_nodes_closed_form_spectrum():
    # tridiagonal (-1, 2, -1)/h^2 with h = 1/4: eigenvalues 32(1 - cos(j pi/4))
    om = full_box(make_box(1, 0.5, 3))
    expect = [9.372583002030478, 31.999999999999996, 54.62741699796952]
    assert np.allclose(om.eigen.eigenvalues, expect, rtol=1e-12)
    # cross-check against a dense eigensolve of the assembled matrix
    assert np.allclose(eigendecompose(om.laplacian).eigenvalues, expect, rtol=1e-10)


def test_laplacian_single_node():
    a = full_box(make_box(1, 1.0, 1)).laplacian  # h = 1
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(2.0)


def test_laplacian_2d_tensor_spectrum():
    # 2x2 interior with h = 1: tensor sums of {1, 3} -> {2, 4, 4, 6}
    g = make_box(2, 1.5, 2)
    assert g.h == pytest.approx(1.0)
    assert np.allclose(full_box(g).eigen.eigenvalues, [2.0, 4.0, 4.0, 6.0], atol=1e-12)


def test_laplacian_on_mask_equals_restricted_box_matrix():
    box = make_box(1, 1.0, 31)
    om = centered_interval(box, 8)
    a_full = full_box(box).laplacian
    idx = om.indices
    assert np.array_equal(om.laplacian, a_full[np.ix_(idx, idx)])


def test_laplacian_irregular_mask_positive_definite():
    g = make_box(2, 1.0, 12)
    rng = np.random.default_rng(0)
    om = random_connected_mask(g, 17, rng)
    assert om.eigen.eigenvalues[0] > 0
    assert np.max(np.abs(om.laplacian - om.laplacian.T)) <= 1e-12


# ------------------------------------------------------- fractional operators

def test_navier_s1_equals_laplacian_exactly():
    box = make_box(1, 1.0, 32)
    om = centered_interval(box, 8)
    assert np.array_equal(navier_operator(om, 1.0).matrix, om.laplacian)


def test_navier_scalar_power():
    op = navier_operator(full_box(make_box(1, 1.0, 1)), 0.5)
    assert op.matrix[0, 0] == pytest.approx(np.sqrt(2.0), rel=1e-12)


def test_navier_powers_of_closed_form_spectrum():
    op = navier_operator(full_box(make_box(1, 0.5, 3)), 0.5)
    expect = np.sqrt([9.372583002030478, 31.999999999999996, 54.62741699796952])
    assert np.allclose(op.eigen.eigenvalues, expect, rtol=1e-12)


def test_navier_rejects_bad_exponent():
    om = full_box(make_box(1, 1.0, 5))
    for s in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            navier_operator(om, s)


def test_dirichlet_s1_coincides_exactly():
    box = make_box(1, 1.0, 32)
    om = centered_interval(box, 8)
    d = dirichlet_operator(om, box, 1.0)
    n = navier_operator(om, 1.0)
    assert np.array_equal(d.matrix, n.matrix)
    assert np.array_equal(d.eigen.eigenvalues, n.eigen.eigenvalues)


def test_dirichlet_on_full_box_equals_navier():
    box = make_box(1, 1.0, 16)
    om = make_shape(box, "interval", (-1.0, 1.0))
    assert om.mask.all()
    d = dirichlet_operator(om, box, 0.5)
    n = navier_operator(om, 0.5)
    assert np.max(np.abs(d.matrix - n.matrix)) <= 1e-10 * np.max(np.abs(n.matrix))


def test_dirichlet_requires_embedded_domain():
    box = make_box(1, 1.0, 32)
    other = make_box(1, 1.0, 48)
    om = centered_interval(other, 8)
    with pytest.raises(ValueError):
        dirichlet_operator(om, box, 0.5)


def test_dirichlet_form_cross_checked_by_fourier_on_doubled_box():
    # 8 centered nodes in a 63-node box, s = 1/2; the periodic-multiplier form
    # on the doubled (lattice-aligned) box must agree within 2%
    box = make_box(1, 1.0, 63)
    om = centered_interval(box, 8)
    u = om.eigen.eigenvectors[:, 0]
    q_matrix = dirichlet_operator(om, box, 0.5).form(u)
    big = make_box(1, 2.0, 127)
    q_fourier = fourier_form(extend_by_zero(u, om), big, 0.5)
    assert abs(q_matrix - q_fourier) <= 0.02 * q_matrix


# ------------------------------------------------------------- fourier form

def test_fourier_form_zero_function():
    g = make_box(1, 1.0, 15)
    u = GridFunction(grid=g, values=np.zeros(15))
    assert fourier_form(u, g, 0.5) == 0.0


def test_fourier_form_s1_matches_difference_form():
    # for a smooth compactly supported bump the s=1 multiplier form and the
    # stencil form discretize the same gradient integral
    g = make_box(1, 20.0, 1023)
    x = g.axis_nodes()
    vals = np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 4, 0.0)
    u = GridFunction(grid=g, values=vals)
    q_fd = navier_operator(full_box(g), 1.0).form(vals)
    q_f = fourier_form(u, g, 1.0)
    assert abs(q_fd - q_f) <= 0.02 * q_f


def test_fourier_form_self_convergence_under_box_growth():
    def bump(L, N):
        g = make_box(1, L, N)
        x = g.axis_nodes()
        return GridFunction(grid=g, values=np.where(np.abs(x) < 1.0, np.cos(np.pi * x / 2.0) ** 4, 0.0)), g

    u20, g20 = bump(20.0, 1023)
    u40, g40 = bump(40.0, 2047)
    assert g20.h == g40.h
    q20 = fourier_form(u20, g20, 0.5)
    q40 = fourier_form(u40, g40, 0.5)
    assert abs(q20 - q40) <= 0.01 * q40


def test_fourier_form_2d_matches_edge_sum_at_s1():
    # independent oracle: the gradient energy as a plain sum of squared
    # difference quotients over lattice edges (zero exterior values)
    g = make_box(2, 4.0, 127)
    c = g.node_coords()
    r2 = c[:, 0] ** 2 + c[:, 1] ** 2
    vals = np.where(r2 < 1.0, np.cos(np.pi * np.sqrt(r2) / 2.0) ** 4, 0.0)
    u2d = np.pad(vals.reshape(127, 127), 1)
    q_fd = float(np.sum(np.diff(u2d, axis=0) ** 2) + np.sum(np.diff(u2d, axis=1) ** 2))
    u = GridFunction(grid=g, values=vals)
    q_f = fourier_form(u, g, 1.0)
    assert abs(q_fd - q_f) <= 0.02 * q_f


def test_fourier_form_rejects_misaligned_grid():
    g = make_box(1, 1.0, 16)
    u = GridFunction(grid=g, values=np.ones(16))
    with pytest.raises(ValueError):
        fourier_form(u, make_box(1, 2.0, 16), 0.5)


# -------------------------------------------------------- difference operator

def test_difference_s1_is_zero_matrix():
    box = make_box(1, 1.0, 32)
    om = centered_interval(box, 8)
    d = difference_operator(om, box, 1.0)
    assert np.max(np.abs(d)) <= 1e-10


def test_difference_on_full_box_is_zero():
    box = make_box(1, 1.0, 16)
    om = make_shape(box, "interval", (-1.0, 1.0))
    d = difference_operator(om, box, 0.5)
    assert np.max(np.abs(d)) <= 1e-10


def test_difference_min_eigenvalue_strictly_positive_small_mask():
    box = make_box(1, 1.0, 64)
    om = centered_interval(box, 8)
    least = linalg.eigenvalues(difference_operator(om, box, 0.5))[0]
    assert least > 0.0
    assert least == pytest.approx(1.68215e-06, rel=1e-3)


@pytest.mark.parametrize("dim", [1, 2])
def test_form_domination_random_masks_and_exponent_grid(dim):
    # operator concavity of t -> t^s makes the difference PSD exactly at
    # matrix level; verified across random masks and the s grid
    box = make_box(dim, 1.0, 48 if dim == 1 else 12)
    rng = np.random.default_rng(42 + dim)
    for trial in range(6):
        om = random_connected_mask(box, int(rng.integers(2, 9)), rng)
        for s in np.round(np.arange(0.1, 1.0, 0.1), 1):
            d = difference_operator(om, box, float(s))
            assert linalg.eigenvalues(d)[0] >= -1e-10


def test_operators_symmetric_and_definite():
    box = make_box(2, 1.0, 10)
    om = make_shape(box, "disk", (0.5,))
    for op in (navier_operator(om, 1.0), navier_operator(om, 0.5),
               dirichlet_operator(om, box, 0.5)):
        assert np.max(np.abs(op.matrix - op.matrix.T)) <= 1e-12
        assert op.eigen.eigenvalues[0] > 0
    assert linalg.eigenvalues(difference_operator(om, box, 0.5))[0] >= -1e-10


# ------------------------------------------------------------ compare_spectra

def test_compare_spectra_s1_margins_vanish():
    box = make_box(1, 1.0, 32)
    om = centered_interval(box, 8)
    comp = compare_spectra(om, box, 1.0)
    assert np.max(np.abs(comp.margins)) <= 1e-10


def test_compare_spectra_first_eigenvalue_dominates():
    box = make_box(1, 1.0, 64)
    om = centered_interval(box, 8)
    comp = compare_spectra(om, box, 0.5)
    assert comp.margins[0] > 1e-9
    assert comp.navier.size == comp.dirichlet.size == om.node_count


def test_compare_spectra_margins_shrink_toward_coincidence():
    # relative margins vanish in both limits: s -> 1 and Omega -> box
    box = make_box(1, 1.0, 64)
    om = centered_interval(box, 8)

    def rel_margin(domain, s):
        comp = compare_spectra(domain, box, s)
        return float(np.min(comp.margins / comp.navier))

    m_by_s = [rel_margin(om, s) for s in (0.5, 0.9, 1.0)]
    assert m_by_s[0] > m_by_s[1] > m_by_s[2]
    assert m_by_s[2] == pytest.approx(0.0, abs=1e-10)
    m_by_size = [rel_margin(centered_interval(box, n), 0.5) for n in (8, 32, 56)]
    assert m_by_size[0] > m_by_size[1] > m_by_size[2] >= -1e-10


def test_operator_matrices_are_immutable():
    box = make_box(1, 1.0, 32)
    op = navier_operator(centered_interval(box, 8), 0.5)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0
    with pytest.raises(ValueError):
        op.eigen.eigenvalues[0] = 1.0


@pytest.mark.parametrize("dim", [1, 2])
def test_compare_spectra_full_sweep_positive_margins(dim):
    box = make_box(dim, 1.0, 64 if dim == 1 else 16)
    if dim == 1:
        om = centered_interval(box, 8)
    else:
        om = make_shape(box, "square", (8 * box.h,))
    smallest = np.inf
    for s in np.round(np.arange(0.1, 1.0, 0.1), 1):
        comp = compare_spectra(om, box, float(s))
        smallest = min(smallest, float(np.min(comp.margins)))
    assert smallest > 1e-9


SPECTRA_CASES = [(1, 127, "interval", (-0.25, 0.25)), (2, 24, "square", (0.5,)),
                 (2, 24, "disk", (0.5,)), (2, 24, "lshape", (1.0,))]


@pytest.mark.parametrize("dim, nodes, shape, params", SPECTRA_CASES)
@pytest.mark.parametrize("s", [0.05, 0.25, 0.5, 0.75, 0.95, 1.0])
def test_compare_spectra_matches_the_dense_operators(dim, nodes, shape, params, s):
    # the eager operators, with their eigenvectors, are the oracle
    box = make_box(dim, 1.0, nodes)
    om = make_shape(box, shape, params)
    comp = compare_spectra(om, box, s)
    assert np.array_equal(comp.navier, navier_operator(om, s).eigen.eigenvalues)
    dense = dirichlet_operator(om, box, s).eigen.eigenvalues
    assert np.max(np.abs(comp.dirichlet - dense) / dense) <= 1e-11


@pytest.mark.parametrize("dim, nodes, shape, params", SPECTRA_CASES)
def test_eigenvalues_check_catches_a_shifted_eigenvalue(monkeypatch, dim, nodes, shape, params):
    box = make_box(dim, 1.0, nodes)
    om = make_shape(box, shape, params)
    exact = linalg.np.linalg.eigvalsh

    def shifted(matrix):
        w = exact(matrix)
        w[-1] *= 1.0 + 1e-6
        return w

    monkeypatch.setattr(linalg.np.linalg, "eigvalsh", shifted)
    with pytest.raises(RuntimeError, match="eigenvalues miss the"):
        compare_spectra(om, box, 0.5)


SPLIT_S = [0.02, 0.1, 0.5, 0.9]


def _split_spectrum_error(om, box, s):
    whole = np.linalg.eigvalsh(dirichlet_operator(om, box, s).matrix)
    return np.max(np.abs(compare_spectra(om, box, s).dirichlet - whole)) / whole[-1]


@pytest.mark.parametrize("s", SPLIT_S)
@pytest.mark.parametrize("dim, nodes, shape, params, blocks", [
    (1, 63, "interval", (-0.5, 0.5), 2),  # odd N: the centre node is its own mirror
    (1, 64, "interval", (-0.5, 0.5), 2),  # even N: every node has a distinct mirror
    (1, 63, "interval", (-0.5, 0.25), 1),
    (2, 24, "disk", (0.5,), 2),
    (2, 25, "disk", (0.5,), 2),
    (2, 25, "lshape", (1.2,), 1),
])
def test_split_spectrum_matches_the_whole_matrix(dim, nodes, shape, params, blocks, s):
    box = make_box(dim, 1.0, nodes)
    om = make_shape(box, shape, params)
    assert len(operators._restricted_blocks(om, s)[0]) == blocks
    assert _split_spectrum_error(om, box, s) <= 1e-13


@pytest.mark.parametrize("s", SPLIT_S)
@pytest.mark.parametrize("dim, shape, params, blocks", [(1, "interval", (-0.5, 0.5), 2),
                                                        (1, "interval", (-0.5, 0.25), 1),
                                                        (2, "disk", (0.5,), 2),
                                                        (2, "lshape", (1.2,), 1)])
def test_split_spectrum_in_a_padded_box_matches_the_whole_matrix(dim, shape, params, blocks, s):
    box = make_box(dim, 1.25, 19)  # h = 1/8: four empty nodes beyond |x| = 0.75 at each face
    om = make_shape(box, shape, params)
    assert len(operators._restricted_blocks(om, s)[0]) == blocks
    assert _split_spectrum_error(om, box, s) <= 1e-13


def _two_lag_blocks(idx, box, s):
    """The reflection blocks with one lag table per half: the far half gathered at the
    mirrored columns, and the even block weighted by the whole np.outer(W, W)."""
    kernel = operators._restricted_kernel(box, s)
    n = box.nodes_per_axis
    stride = n ** (box.dim - 1)
    twice = 2 * (idx // stride) - (n - 1)
    mirror = idx - twice * stride
    low, fixed = twice < 0, twice == 0
    rows = np.concatenate([idx[low], idx[fixed]])
    k = np.count_nonzero(low)
    near = operators._restricted_entries(kernel, operators._lags(rows, rows, box))
    mirrored = np.concatenate([mirror[low], idx[fixed]])
    far = operators._restricted_entries(kernel, operators._lags(rows, mirrored, box))
    paired = np.arange(rows.size) < k
    w = np.where(paired, 1.0, np.sqrt(0.5))
    even = near + far
    even *= np.outer(w, w)
    blocks = [even, near[:k, :k] - far[:k, :k]] if k else [even]
    copies = np.where(paired, 2.0, 1.0)
    squares = np.sum(near * near, axis=1) + np.sum(far[:, :k] * far[:, :k], axis=1)
    scale = max(np.max(np.abs(near)), np.max(np.abs(far[:, :k]), initial=0.0))
    return blocks, (float(copies @ np.diagonal(near)), float(copies @ squares), float(scale))


@pytest.mark.parametrize("dim, halfwidth, nodes, shape, params, exponents", [
    (1, 1.0, 63, "interval", (-0.5, 0.5), (0.1, 0.5, 0.9)),  # odd N: a fixed centre node
    (1, 1.0, 64, "interval", (-0.5, 0.5), (0.1, 0.5, 0.9)),  # even N: no fixed node
    (1, 1.0, 1535, "interval", (-0.5, 0.5), (0.1, 0.5, 0.9)),  # the spectra-1d benchmark domain
    (2, 1.0, 24, "disk", (0.5,), (0.25, 0.75)),
    (2, 1.0, 25, "disk", (0.5,), (0.25, 0.75)),
    (2, 1.0, 24, "square", (0.5,), (0.25, 0.75)),
    (2, 1.0, 25, "square", (0.5,), (0.25, 0.75)),
])
def test_reflection_blocks_from_one_lag_table_match_the_two_lag_construction(
        dim, halfwidth, nodes, shape, params, exponents):
    box = make_box(dim, halfwidth, nodes)
    om = make_shape(box, shape, params)
    for s in exponents:
        blocks, invariants = operators._restricted_blocks(om, s)
        oracle, oracle_invariants = _two_lag_blocks(om.indices, box, s)
        assert len(blocks) == len(oracle) == 2
        for block, expected in zip(blocks, oracle):
            assert block.shape == expected.shape
            assert np.array_equal(block, expected)
            assert np.array_equal(np.signbit(block), np.signbit(expected))
        assert invariants == oracle_invariants


def _drop_the_odd_block(blocks):
    return blocks[:1]


def _unscale_a_fixed_node(blocks):
    even = blocks[0]  # fixed nodes come last; their 1/sqrt(2) weight is undone
    even[-1, :] *= np.sqrt(2.0)
    even[:, -1] *= np.sqrt(2.0)
    return blocks


@pytest.mark.parametrize("mutate", [_drop_the_odd_block, _unscale_a_fixed_node])
@pytest.mark.parametrize("dim, nodes, shape, params", [(1, 63, "interval", (-0.5, 0.5)),
                                                       (2, 25, "disk", (0.5,))])
def test_a_mis_assembled_split_misses_the_whole_matrix_invariants(monkeypatch, mutate, dim,
                                                                  nodes, shape, params):
    box = make_box(dim, 1.0, nodes)
    om = make_shape(box, shape, params)
    compare_spectra(om, box, 0.5)
    original = operators._restricted_blocks

    def mutated(domain, s):
        blocks, invariants = original(domain, s)
        return mutate([np.array(block) for block in blocks]), invariants

    monkeypatch.setattr(operators, "_restricted_blocks", mutated)
    with pytest.raises(RuntimeError, match="eigenvalues miss the trace"):
        compare_spectra(om, box, 0.5)


@pytest.mark.parametrize("dim, nodes, shape, params", [(1, 63, "interval", (-0.5, 0.5)),
                                                       (1, 63, "interval", (-0.5, 0.25)),
                                                       (2, 24, "square", (0.5,))])
def test_compare_spectra_on_a_rectangle_builds_no_eigenbasis(dim, nodes, shape, params):
    box = make_box(dim, 1.0, nodes)
    om = make_shape(box, shape, params)
    for s in (0.5, 1.0):
        comp = compare_spectra(om, box, s)
        assert "eigen" not in vars(om)
        assert np.array_equal(comp.navier, om.spectrum**s)
    assert np.array_equal(comp.dirichlet, om.spectrum)


def _counting_lags(monkeypatch):
    calls = []
    original = operators._lags

    def counted(rows, cols, box):
        calls.append(rows.size)
        return original(rows, cols, box)

    monkeypatch.setattr(operators, "_lags", counted)
    return calls


@pytest.mark.parametrize("dim, nodes, shape, params", [(1, 63, "interval", (-0.5, 0.5)),
                                                       (2, 24, "square", (0.5,)),
                                                       (2, 25, "disk", (0.5,))])
def test_reflection_split_and_its_lag_table_are_made_once_per_domain(monkeypatch, dim, nodes,
                                                                     shape, params):
    box = make_box(dim, 1.0, nodes)
    om, twin = make_shape(box, shape, params), make_shape(box, shape, params)
    calls = _counting_lags(monkeypatch)
    first = [compare_spectra(om, box, s).dirichlet for s in (0.25, 0.5, 0.75)]
    assert len(calls) == 1 and calls[0] < om.node_count  # one table, of the rows L + F only
    split = operators._reflection_split(om)
    assert all(not lag.flags.writeable for pair in split[1] for lag in pair)
    # a new domain gets its own split; the spectra do not depend on the cache
    again = [compare_spectra(twin, box, s).dirichlet for s in (0.25, 0.5, 0.75)]
    assert len(calls) == 2 and operators._reflection_split(twin) is not split
    for a, b in zip(first, again):
        assert np.array_equal(a, b)


def test_lag_tables_are_int16_on_every_cli_box_and_int32_beyond():
    for dim in (1, 2):
        for nodes in (1, 24, 127, _MAX_BASIS_NODES):
            box = make_box(dim, 1.0, nodes)
            rows = np.array([0, box.size // 2, box.size - 1])
            assert {lag.dtype for pair in operators._lags(rows, rows, box) for lag in pair} == {
                np.dtype(np.int16)}
    # a few rows of a box too large for int16: its lags reach N + 1 = 40,001
    n = 40_000
    rows = np.array([0, 1, n // 2, n - 2, n - 1])
    [(toeplitz, hankel)] = operators._lags(rows, rows, make_box(1, 1.0, n))
    assert toeplitz.dtype == hankel.dtype == np.int32
    total = np.add.outer(rows, rows) + 2  # x + y + 2 in int64, folded at 2(N + 1)
    assert np.array_equal(toeplitz, np.abs(np.subtract.outer(rows, rows)))
    assert np.array_equal(hankel, np.minimum(total, 2 * (n + 1) - total))
    assert hankel.max() == n + 1 and hankel[-1, -1] == 2


def test_a_mask_the_mirror_does_not_map_onto_itself_gathers_its_whole_matrix(monkeypatch):
    box = make_box(2, 1.0, 25)
    om = make_shape(box, "lshape", (1.2,))
    calls = _counting_lags(monkeypatch)
    for s in (0.25, 0.5):
        compare_spectra(om, box, s)
    assert operators._reflection_split(om) is None
    assert calls == [om.node_count] * 2  # not kept: it would raise the peak of every exponent


def test_a_later_spectra_exponent_holds_at_most_three_and_a_half_blocks():
    # the spectra-1d benchmark domain: 767 nodes, blocks of 384^2 doubles; the two halves and
    # the odd block take three, and a symmetry check's two block-sized temporaries would make four
    box = make_box(1, 1.0, 1535)
    om = make_shape(box, "interval", (-0.5, 0.5))
    block = 384 * 384 * 8
    compare_spectra(om, box, 0.5)  # the live set: the lag table and the box spectrum
    tracemalloc.start()  # traces only what is allocated from here on
    try:
        compare_spectra(om, box, 0.55)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * block, f"{peak / block:.2f} blocks"


def test_compare_spectra_refuses_an_indefinite_restricted_operator(monkeypatch):
    box = make_box(1, 1.0, 32)
    om = centered_interval(box, 8)
    monkeypatch.setattr(operators, "eigenvalues", lambda matrix: np.linalg.eigvalsh(matrix) - 1e6)
    with pytest.raises(ValueError, match="dirichlet operator must be positive definite"):
        compare_spectra(om, box, 0.5)


def test_operator_equality_and_hash_go_by_identity():
    box = make_box(2, 1.0, 8)
    om = make_shape(box, "disk", (0.5,))
    op, twin = navier_operator(om, 0.5), navier_operator(om, 0.5)
    assert op == op and op != twin
    assert hash(op) == hash(op) and len({op, twin}) == 2


# ----------------------------------------------------------- positivity check

def test_positivity_zero_input():
    box = make_box(1, 1.0, 32)
    om = centered_interval(box, 8)
    out = difference_operator(om, box, 0.5) @ np.zeros(om.node_count)
    assert out.min() == 0.0


def test_positivity_single_node_indicator():
    box = make_box(1, 1.0, 64)
    om = centered_interval(box, 8)
    u = np.zeros(om.node_count)
    u[3] = 1.0
    out = difference_operator(om, box, 0.5) @ u
    assert out.shape == (om.node_count,)
    assert out.min() >= -1e-10


def test_positivity_ground_state():
    box = make_box(1, 1.0, 64)
    om = centered_interval(box, 8)
    u = np.abs(om.eigen.eigenvectors[:, 0])
    out = difference_operator(om, box, 0.25) @ u
    assert out.min() > 0.0


# -------------------------------------------------------- monotonicity check

def test_monotonicity_equal_masks_middle_equals_right():
    box = make_box(1, 1.0, 64)
    om = centered_interval(box, 8)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(om.node_count)
    q_d, q_outer, q_inner = monotonicity_check(om, om, box, 0.5, u)
    assert q_outer == pytest.approx(q_inner, rel=1e-12)
    assert q_d <= q_outer + 1e-10


def test_monotonicity_s1_all_equal():
    box = make_box(1, 1.0, 64)
    inner = centered_interval(box, 8)
    outer = centered_interval(box, 16)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(inner.node_count)
    q_d, q_outer, q_inner = monotonicity_check(inner, outer, box, 1.0, u)
    assert q_d == pytest.approx(q_inner, rel=1e-10)
    assert q_outer == pytest.approx(q_inner, rel=1e-10)


def test_monotonicity_strict_chain():
    box = make_box(1, 1.0, 128)
    inner = centered_interval(box, 8)
    outer = centered_interval(box, 16)
    rng = np.random.default_rng(5)
    u = rng.standard_normal(inner.node_count)
    q_d, q_outer, q_inner = monotonicity_check(inner, outer, box, 0.5, u)
    assert q_d < q_outer < q_inner


def test_monotonicity_refuses_a_misaligned_inner_or_outer_mask_alike():
    box = make_box(1, 1.0, 64)
    aligned = centered_interval(box, 8)
    misaligned = centered_interval(make_box(1, 1.0, 48), 16)
    u = np.ones(aligned.node_count)
    with pytest.raises(ValueError, match="not embedded in the box grid"):
        monotonicity_check(aligned, misaligned, box, 0.5, u)
    with pytest.raises(ValueError, match="not embedded in the box grid"):
        monotonicity_check(misaligned, aligned, box, 0.5, np.ones(misaligned.node_count))


def test_monotonicity_random_nested_property():
    box = make_box(2, 1.0, 12)
    rng = np.random.default_rng(6)
    for _ in range(10):
        inner, outer = random_nested_masks(box, int(rng.integers(2, 7)), int(rng.integers(8, 16)), rng)
        u = rng.standard_normal(inner.node_count)
        for s in (0.25, 0.5, 0.75):
            q_d, q_outer, q_inner = monotonicity_check(inner, outer, box, s, u)
            assert q_d <= q_outer + 1e-10
            assert q_outer <= q_inner + 1e-10


def test_monotonicity_and_difference_form_the_restricted_matrix_without_its_eigenbasis(monkeypatch):
    box = make_box(2, 1.0, 12)
    rng = np.random.default_rng(8)
    inner, outer = random_nested_masks(box, 6, 12, rng)
    u = rng.standard_normal(inner.node_count)
    restricted = dirichlet_operator(inner, box, 0.5)
    spectral = navier_operator(inner, 0.5).matrix
    calls = []

    def counting(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return eigendecompose(matrix, *args, **kwargs)

    monkeypatch.setattr(operators, "eigendecompose", counting)
    assert monotonicity_check(inner, outer, box, 0.5, u)[0] == restricted.form(u)
    assert calls == []
    diff = difference_operator(inner, box, 0.5)
    assert np.array_equal(diff, spectral - restricted.matrix)
    assert not diff.flags.writeable
    assert calls == []


def test_monotonicity_rejects_non_nested():
    box = make_box(1, 1.0, 64)
    left = make_shape(box, "interval", (-0.5, -0.1))
    right = make_shape(box, "interval", (0.1, 0.5))
    u = np.ones(left.node_count)
    with pytest.raises(ValueError):
        monotonicity_check(left, right, box, 0.5, u)
