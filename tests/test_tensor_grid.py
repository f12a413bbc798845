"""The grid helpers written once over the axes, against their explicit 1D and 2D forms.

Every lattice helper in ``domain``, ``operators`` and ``extension`` handles
both dimensions in one path over the axes of ``BoxGrid.shape``.  The
oracles below are the explicit per-dimension formulas that path replaces:
node coordinates, neighbour lists, the kernel of B^s and its entries, box
analysis and synthesis, the Fourier form, the rectangle eigenbasis and
spectrum, and the named-shape dilation.  Each must agree bit for bit, signed zeros included,
on 1D and 2D boxes of 1, 2, 7 and 10 nodes per axis, on embedded grids, on
non-square sets of rows and columns, and at s = 0.02, 0.1, 0.5, 0.9 and 1.
Box synthesis forms only the bounding box of the rows it returns: its
oracle forms the same products, and the whole-box form must agree with the
synthesis to within 4 eps of the summed magnitudes, on Omega's rows, the
whole box, off-centre masks, masks touching a face and single nodes.
"""

import numpy as np
import pytest

from fraclab.domain import (
    GridFunction,
    SubDomain,
    _interval_eigenbasis,
    _interval_eigenvalues,
    dilate,
    make_box,
    make_shape,
)
from fraclab.extension import _LAYER_BLOCK, _box_analysis, _box_synthesis, _scaled_blocks
from fraclab.operators import (
    _lags,
    _restricted_entries,
    _restricted_kernel,
    fourier_form,
)

S_GRID = (0.02, 0.1, 0.5, 0.9, 1.0)
SIDES = (1, 2, 7, 10)
BOXES = [(dim, n) for dim in (1, 2) for n in SIDES]
# (dim, halfwidth, nodes) of a grid and of the box it embeds in, odd and even
EMBEDDED = [(dim, small, big) for dim in (1, 2)
            for small, big in (((0.5, 7), (1.0, 15)), ((0.5, 9), (1.0, 19)))]


def _same(new, old):
    """Bitwise equality: shape, dtype, values and the sign of every zero."""
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape and new.dtype == old.dtype
    assert np.array_equal(new, old)
    if new.dtype.kind == "f":
        assert np.array_equal(np.signbit(new), np.signbit(old))


# --- the explicit 1D and 2D forms ---------------------------------------

def _node_coords(grid):
    x = grid.axis_nodes()
    if grid.dim == 1:
        return x[:, None]
    xx, yy = np.meshgrid(x, x, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _embed_indices(grid, other):
    axis = np.arange(grid.nodes_per_axis) + grid.embed_offset(other)
    if grid.dim == 1:
        return axis
    return (axis[:, None] * other.nodes_per_axis + axis[None, :]).ravel()


def _neighbors(grid, f):
    n = grid.nodes_per_axis
    if grid.dim == 1:
        return [g for g in (f - 1, f + 1) if 0 <= g < n]
    i, j = divmod(f, n)
    steps = ((i > 0, -n), (i < n - 1, n), (j > 0, -1), (j < n - 1, 1))
    return [f + d for inside, d in steps if inside]


def _cosine_sums(f, axis):
    """sum_j f_j cos(k j pi/(n+1))/(n+1) along ``axis``, k = 0..n+1, from the real FFT
    of the even extension (0, f, 0, reversed f) of length 2(n+1)."""
    zero = np.zeros_like(np.take(f, [0], axis=axis))
    even = np.concatenate([zero, f, zero, np.flip(f, axis=axis)], axis=axis)
    return np.fft.rfft(even, axis=axis).real / even.shape[axis]


def _kernel(box, s):
    lam = _interval_eigenvalues(box.nodes_per_axis, box.h)
    if box.dim == 1:
        return _cosine_sums(lam**s, 0)
    return _cosine_sums(_cosine_sums((lam[:, None] + lam[None, :]) ** s, 1), 0)


def _axis_lags(rows, cols, n):
    """|x - y| and x + y + 2 folded at n + 1: min(x + y + 2, 2(n + 1) - (x + y + 2))."""
    total = np.add.outer(rows, cols) + 2
    return np.abs(np.subtract.outer(rows, cols)), np.minimum(total, 2 * (n + 1) - total)


def _entries(kernel, rows, cols, box):
    n = box.nodes_per_axis
    if box.dim == 1:
        d, h = _axis_lags(rows, cols, n)
        return kernel[d] - kernel[h]
    (ri, rj), (ci, cj) = np.divmod(rows, n), np.divmod(cols, n)
    di, hi = _axis_lags(ri, ci, n)
    dj, hj = _axis_lags(rj, cj, n)
    return kernel[di, dj] - kernel[hi, dj] - kernel[di, hj] + kernel[hi, hj]


def _analysis(datum, grid):
    lam1, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    if grid.dim == 1:
        return lam1, q.T @ datum
    n = grid.nodes_per_axis
    lam = (lam1[:, None] + lam1[None, :]).ravel()
    return lam, (q.T @ datum.reshape(n, n) @ q).ravel()


def _synthesis(coef, grid):
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    if grid.dim == 1:
        return q @ coef
    n = grid.nodes_per_axis
    first = np.tensordot(q, coef.reshape(n, n, -1), axes=(1, 0))
    return (q @ first).reshape(n * n, -1)


def _bounding_box_synthesis(coef, grid, rows):
    """The mode-major lattice ``coef`` synthesized on the bounding box I x J of ``rows``:
    q1[I] C_k q1[J]^T layer by layer in 2D; in 1D, where q1[I] c_k alone would be a
    matrix-vector product and round otherwise, C q1[I]^T on each block of layers."""
    _, q = _interval_eigenbasis(grid.nodes_per_axis, grid.h)
    layers, coef = coef.shape[1], np.ascontiguousarray(coef.T)  # BLAS operands: C_k contiguous
    idx = np.unravel_index(rows, grid.shape)
    box = [slice(i.min(), i.max() + 1) for i in idx]
    local = tuple(i - b.start for i, b in zip(idx, box))
    values = np.empty((rows.size, layers))
    blocks = max(layers // _LAYER_BLOCK, 1)
    for b in range(blocks):
        ks = slice(layers * b // blocks, layers * (b + 1) // blocks)
        if grid.dim == 1:
            values[:, ks] = (coef[ks] @ q[box[0]].T)[:, local[0]].T
            continue
        for k in range(ks.start, ks.stop):
            values[:, k] = (q[box[0]] @ coef[k].reshape(grid.shape) @ q[box[1]].T)[local]
    return values


def _fourier_form(u, box, s):
    offset = u.grid.embed_offset(box)
    n_small, m, h = u.grid.nodes_per_axis, box.nodes_per_axis + 1, box.h
    if box.dim == 1:
        p = np.zeros(m)
        p[offset + 1 : offset + 1 + n_small] = u.values
    else:
        p = np.zeros((m, m))
        sl = slice(offset + 1, offset + 1 + n_small)
        p[sl, sl] = u.values.reshape(n_small, n_small)
    freq = 2.0 * np.pi * np.fft.fftfreq(m, d=h)
    if box.dim == 1:
        xi_sq = freq**2
    else:
        xi_sq = freq[:, None] ** 2 + freq[None, :] ** 2
    mult = xi_sq**s
    mult.flat[0] = 0.0
    f = np.fft.fftn(p)
    return float((h / m) ** box.dim * np.sum(mult * np.abs(f) ** 2))


def _rectangle_eigen(sd):
    grid = sd.grid
    nonzero = np.nonzero(sd.mask.reshape((grid.nodes_per_axis,) * grid.dim))
    sides = [int(axis.max() - axis.min() + 1) for axis in nonzero]
    assert np.prod(sides) == sd.node_count
    if grid.dim == 1:
        lam, q = _interval_eigenbasis(sides[0], grid.h)
    else:
        lam_r, q_r = _interval_eigenbasis(sides[0], grid.h)
        lam_c, q_c = _interval_eigenbasis(sides[1], grid.h)
        lam = (lam_r[:, None] + lam_c[None, :]).ravel()
        order = np.argsort(lam, kind="stable")
        lam, q = lam[order], np.kron(q_r, q_c)[:, order]
    return np.ascontiguousarray(lam), np.ascontiguousarray(q)


def _dilated_shape(grid, alpha):
    """The mask of alpha times ``_SHAPE[dim]`` on ``grid``, or None once it comes within h of a face."""
    if grid.dim == 1:
        a, b = alpha * -0.4, alpha * 0.2
        if max(abs(a), abs(b)) > grid.halfwidth - grid.h:
            return None
        x = grid.axis_nodes()
        return (x > a) & (x < b)
    half = alpha * 0.8 / 2.0
    if half > grid.halfwidth - grid.h:
        return None
    xx, yy = np.meshgrid(grid.axis_nodes(), grid.axis_nodes(), indexing="ij")
    return (np.maximum(np.abs(xx), np.abs(yy)) < half).ravel()


# --- the comparisons ----------------------------------------------------

def _ids(cases):
    return ["-".join(str(v) for v in case) for case in cases]


@pytest.mark.parametrize("dim, n", BOXES, ids=_ids(BOXES))
def test_shape_is_the_row_major_node_lattice(dim, n):
    grid = make_box(dim, 1.0, n)
    assert grid.shape == (n,) * dim
    coords = grid.node_coords()
    x = grid.axis_nodes()
    for f, index in enumerate(np.ndindex(*grid.shape)):
        assert coords[f].tolist() == [x[i] for i in index]


@pytest.mark.parametrize("dim, n", BOXES, ids=_ids(BOXES))
def test_node_coords_neighbors_and_self_embedding(dim, n):
    grid = make_box(dim, 1.0, n)
    _same(grid.node_coords(), _node_coords(grid))
    _same(_embed_indices(grid, grid), np.arange(grid.size))
    for f in range(grid.size):
        assert grid.neighbors(f) == _neighbors(grid, f)


@pytest.mark.parametrize("dim, small, big", EMBEDDED, ids=_ids(EMBEDDED))
def test_embedded_indices(dim, small, big):
    grid, box = make_box(dim, *small), make_box(dim, *big)
    assert grid.embed_offset(box) == round((box.halfwidth - grid.halfwidth) / grid.h)
    idx = _embed_indices(grid, box)
    assert np.allclose(box.node_coords()[idx], grid.node_coords(), rtol=0.0, atol=1e-12)


def _index_sets(box):
    """Row and column node sets: the whole box, a non-square pair, an embedded grid."""
    everything = np.arange(box.size)
    rng = np.random.default_rng(box.size)
    rows = np.sort(rng.choice(box.size, size=max(1, box.size // 2), replace=False))
    cols = np.sort(rng.choice(box.size, size=max(1, box.size - 1), replace=False))
    sets = [(everything, everything), (rows, cols), (cols, rows)]
    if box.nodes_per_axis >= 7:
        side = box.nodes_per_axis - 2  # one node in from each face, same step
        idx = _embed_indices(make_box(box.dim, box.h * (side + 1) / 2.0, side), box)
        sets.append((idx, idx))
    return sets


KERNEL_CASES = [(dim, n, s) for dim, n in BOXES for s in S_GRID]


@pytest.mark.parametrize("dim, n, s", KERNEL_CASES, ids=_ids(KERNEL_CASES))
def test_kernel_and_restricted_entries(dim, n, s):
    _restricted_kernel.cache_clear()
    box = make_box(dim, 1.0, n)
    kernel = _restricted_kernel(box, s)
    _same(kernel, _kernel(box, s))
    for rows, cols in _index_sets(box):
        _same(_restricted_entries(kernel, _lags(rows, cols, box)),
              _entries(kernel, rows, cols, box))


EPS = np.finfo(float).eps


def _synthesized(phi, inv, c0, grid, rows):
    """The dirichlet solve's values of the modes c0_j phi[:, inv_j] on ``rows``, last layer +0.0."""
    values, synthesize = np.zeros((rows.size, phi.shape[0])), _box_synthesis(grid, rows)
    for ks, block in _scaled_blocks(phi, inv, c0):
        synthesize(block, values[:, ks])
    return values


def _check_synthesis(grid, rows, rng):
    """Box synthesis of random profiles against both oracles on ``rows``.

    All take the same scaled lattice C of c0_j phi[k, inv_j].  The bounding-box
    oracle forms the same products, so it agrees bit for bit; the whole-box one
    sums over other shapes, which moves an entry of q1 C q1^T (q1 c in 1D) by at
    most 1.4 eps (|q1| |C| |q1|^T) on these cases: the bound is 4 eps of that.
    """
    n = grid.nodes_per_axis
    lam, _ = _box_analysis(rng.standard_normal(grid.size), grid)
    lam_u, inv = np.unique(lam, return_inverse=True)
    c0 = rng.standard_normal(grid.size)
    _, q = _interval_eigenbasis(n, grid.h)
    abs_basis = np.abs(q) if grid.dim == 1 else np.kron(np.abs(q), np.abs(q))
    for layers in (1, 5, 2 * _LAYER_BLOCK + 1):  # one block, then two: no one-layer tail
        phi = rng.standard_normal((layers + 1, lam_u.size))
        phi[-1] = 0.0  # the truncation layer of every profile
        coef = (phi[:-1, inv] * c0).T
        new = _synthesized(phi, inv, c0, grid, rows)
        assert new.shape == (rows.size, layers + 1)
        _same(new[:, :-1], _bounding_box_synthesis(coef, grid, rows))
        bound = 4.0 * EPS * (abs_basis @ np.abs(coef))[rows]
        assert np.all(np.abs(new[:, :-1] - _synthesis(coef, grid)[rows]) <= bound)
        assert np.all(new[:, -1] == 0.0) and not np.signbit(new[:, -1]).any()


@pytest.mark.parametrize("dim, n", BOXES, ids=_ids(BOXES))
def test_box_analysis_and_synthesis(dim, n):
    grid = make_box(dim, 1.0, n)
    rng = np.random.default_rng(7 * n + dim)
    datum = rng.standard_normal(grid.size)
    for new, old in zip(_box_analysis(datum, grid), _analysis(datum, grid)):
        _same(new, old)
    for rows in (make_shape(grid, *_SHAPE[dim]).indices, np.arange(grid.size)):
        _check_synthesis(grid, rows, rng)


def _bounding_box_rows(dim, name):
    """A box and rows whose bounding box is not the whole box."""
    grid = make_box(dim, 1.0, 40 if dim == 1 else 20)
    n = grid.nodes_per_axis
    first, last = np.arange(grid.size) // n ** (dim - 1), np.arange(grid.size) % n
    if name == "shape":  # an off-centre interval, or the L-shape
        shape = ("interval", (0.3, 0.8)) if dim == 1 else ("lshape", (1.2,))
        return grid, make_shape(grid, *shape).indices
    if name == "face":  # a corner block on the face first = 0 and, in 2D, on last = n - 1
        return grid, np.flatnonzero((first < 3) & ((last >= n - 4) | (dim == 1)))
    return grid, np.array([(3 * n + 11) % grid.size])  # one node


BOUNDING = [(dim, name) for dim in (1, 2) for name in ("shape", "face", "node")]


@pytest.mark.parametrize("dim, name", BOUNDING, ids=_ids(BOUNDING))
def test_bounding_box_synthesis(dim, name):
    grid, rows = _bounding_box_rows(dim, name)
    lo, hi = [[f(a) for a in np.unravel_index(rows, grid.shape)] for f in (np.min, np.max)]
    assert any(a > 0 or b < grid.nodes_per_axis - 1 for a, b in zip(lo, hi))
    if (dim, name) != (2, "shape"):  # off-centre; the L-shape's bounding box is centred
        assert any(a != grid.nodes_per_axis - 1 - b for a, b in zip(lo, hi))
    _check_synthesis(grid, rows, np.random.default_rng(dim))


FOURIER_CASES = [(dim, small, big, s) for dim, small, big in EMBEDDED for s in S_GRID]


@pytest.mark.parametrize("dim, small, big, s", FOURIER_CASES, ids=_ids(FOURIER_CASES))
def test_fourier_form(dim, small, big, s):
    grid, box = make_box(dim, *small), make_box(dim, *big)
    rng = np.random.default_rng(int(100 * s) + dim)
    for u in (GridFunction(grid, rng.standard_normal(grid.size)),
              GridFunction(box, rng.standard_normal(box.size))):
        assert fourier_form(u, box, s) == _fourier_form(u, box, s)


def _block(grid, lo, hi):
    """Custom mask of the nodes whose every axis index lies in [lo[a], hi[a])."""
    inside = np.ones(grid.shape, dtype=bool)
    for axis, (a, b) in enumerate(zip(lo, hi)):
        index = np.arange(grid.nodes_per_axis).reshape([-1 if k == axis else 1
                                                        for k in range(grid.dim)])
        inside &= (index >= a) & (index < b)
    return SubDomain(grid=grid, mask=inside.ravel())


RECTANGLES = [(1, n, (0,), (n,)) for n in SIDES] + [(1, 10, (3,), (8,))] + \
    [(2, n, (0, 0), (n, n)) for n in SIDES] + \
    [(2, 10, (1, 2), (4, 7)), (2, 10, (2, 0), (9, 3)), (2, 7, (3, 3), (4, 6))]


@pytest.mark.parametrize("dim, n, lo, hi", RECTANGLES, ids=_ids(RECTANGLES))
def test_rectangle_eigenbasis(dim, n, lo, hi):
    sd = _block(make_box(dim, 1.0, n), lo, hi)
    lam, q = _rectangle_eigen(sd)
    _same(sd.eigen.eigenvalues, lam)
    _same(sd.eigen.eigenvectors, q)


SPECTRUM_SHAPES = [(1, 63, "interval", (-0.5, 0.5)),  # centred
                   (1, 63, "interval", (-0.5, 0.25)),  # off-centre
                   (2, 24, "square", (0.9,)),  # even N
                   (2, 25, "square", (0.9,))]  # odd N


@pytest.mark.parametrize("dim, n, shape, params", SPECTRUM_SHAPES, ids=_ids(SPECTRUM_SHAPES))
def test_rectangle_spectrum_is_its_eigenbasis_spectrum_without_the_basis(dim, n, shape, params):
    sd = make_shape(make_box(dim, 1.0, n), shape, params)
    lam = sd.spectrum
    assert "eigen" not in vars(sd)
    assert not lam.flags.writeable
    _same(lam, _rectangle_eigen(sd)[0])
    assert sd.eigen.eigenvalues is lam


# an asymmetric interval in 1D, a square in 2D: each holds a node of every box
_SHAPE = {1: ("interval", (-0.4, 0.2)), 2: ("square", (0.8,))}
DILATIONS = [(dim, n, alpha) for dim, n in BOXES for alpha in (1.0, 1.5, 2.0, 3.0)]


@pytest.mark.parametrize("dim, n, alpha", DILATIONS, ids=_ids(DILATIONS))
def test_named_shape_dilation(dim, n, alpha):
    grid = make_box(dim, 1.0, n)
    om = make_shape(grid, *_SHAPE[dim])
    expect = _dilated_shape(grid, alpha)
    if expect is None:
        with pytest.raises(ValueError, match="dilated shape needs box halfwidth"):
            dilate(om, alpha)
        return
    dilated = dilate(om, alpha)
    assert dilated.grid is grid and dilated.shape == om.shape
    _same(dilated.mask, expect)
