"""The restricted operator and the Dirichlet extension against the dense box basis.

The restricted operator is gathered from the closed-form kernel of B^s and
the extension is built from the per-axis sine basis of the box.  The oracle
here is the dense path: the N^dim x N^dim box eigenbasis formed as the
Kronecker product of the 1D bases and sorted by eigenvalue.  The two must
agree to roundoff; in 1D the kernel also meets a long-double sine sum.
"""

import tracemalloc

import numpy as np
import pytest
from extension_lattice import solve

from fraclab import operators
from fraclab.domain import _interval_eigenbasis, make_box, make_shape
from fraclab.extension import _sweep, graded_mesh
from fraclab.linalg import sym_matrix
from fraclab.operators import dirichlet_operator

REL_TOL = 1e-13
S_GRID = (0.1, 0.25, 0.5, 0.75, 0.9)
CASES = {
    "interval": (1, 63, "interval", (-0.3, 0.4)),
    "square": (2, 24, "square", (0.5,)),
    "disk": (2, 24, "disk", (0.5,)),
    "lshape": (2, 20, "lshape", (1.2,)),
}


def _dense_box_basis(box):
    """Sorted eigenbasis of the box Laplacian, built densely."""
    lam1, q1 = _interval_eigenbasis(box.nodes_per_axis, box.h)
    if box.dim == 1:
        return lam1, q1
    lam = (lam1[:, None] + lam1[None, :]).ravel()
    q = np.kron(q1, q1)
    order = np.argsort(lam, kind="stable")
    return np.ascontiguousarray(lam[order]), np.ascontiguousarray(q[:, order])


def _dense_restricted(idx, box, s):
    lam, q = _dense_box_basis(box)
    rows = q[idx]
    return sym_matrix((rows * lam**s) @ rows.T)


def _dense_dirichlet_extension(u, domain, s, mesh):
    """The extension on Omega's rows and its energy, through the dense box basis."""
    lam, q = _dense_box_basis(domain.grid)
    c0 = q[domain.indices].T @ u  # the box coefficients of u extended by zero
    (flux,), blocks = _sweep([(lam, c0, lambda block: q[domain.indices] @ block.T)], mesh, s)
    values = np.zeros((domain.node_count, mesh.layers + 1))
    for ks, (block,) in blocks:
        values[:, ks] = block
    return values, domain.grid.h ** domain.grid.dim * float(c0 @ flux)


def _rel(new, ref):
    return float(np.max(np.abs(np.asarray(new) - ref)) / np.max(np.abs(ref)))


def _case(name):
    dim, nodes, shape, params = CASES[name]
    box = make_box(dim, 1.0, nodes)
    return box, make_shape(box, shape, params)


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("name", sorted(CASES))
def test_restricted_operator_matches_dense_box_basis(name, s):
    box, dom = _case(name)
    new = dirichlet_operator(dom, box, s)
    assert _rel(new, _dense_restricted(dom.indices, box, s)) <= REL_TOL


@pytest.mark.parametrize("dim, shape, params", [(1, "interval", (-0.5, 0.25)),
                                                (2, "disk", (0.5,))])
def test_restricted_operator_in_a_padded_box_matches_dense_box_basis(dim, shape, params):
    box = make_box(dim, 1.25, 19)  # h = 1/8: four empty nodes beyond |x| = 0.75 at each face
    dom = make_shape(box, shape, params)
    for s in S_GRID:
        new = dirichlet_operator(dom, box, s)
        assert _rel(new, _dense_restricted(dom.indices, box, s)) <= REL_TOL


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("s", (0.02,) + S_GRID)
def test_kernel_matches_a_long_double_sine_sum(s):
    box = make_box(1, 1.0, 255)
    dom = make_shape(box, "interval", (-0.5, 0.5))
    n = box.nodes_per_axis
    pi = np.longdouble("3.14159265358979323846264338327950288")
    j = np.arange(1, n + 1, dtype=np.longdouble)
    lam = (2 - 2 * np.cos(j * pi / (n + 1))) * ((n + 1) / np.longdouble(2)) ** 2  # h = 2/(n+1)
    q = np.sqrt(np.longdouble(2) / (n + 1)) * np.sin((dom.indices[:, None] + 1) * j * pi / (n + 1))
    ref = (q * lam ** np.longdouble(s)) @ q.T
    new = dirichlet_operator(dom, box, s)
    assert np.max(np.abs(new - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_2d_kernel_peaks_at_about_four_box_lattices():
    # an N^2 lattice of doubles; holding the power spectrum, its even extension and the
    # complex FFT output at once took about six
    box = make_box(2, 1.0, 500)
    operators._restricted_kernel.cache_clear()
    tracemalloc.start()
    try:
        kernel = operators._restricted_kernel(box, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        operators._restricted_kernel.cache_clear()
    assert kernel.shape == (502, 502)
    assert peak <= 4.25 * box.size * 8, f"{peak / (box.size * 8):.2f} lattices"


MIRRORED = [(1, 63, "interval", (-0.5, 0.5)), (1, 64, "interval", (-0.5, 0.5)),
            (2, 24, "disk", (0.5,)), (2, 25, "disk", (0.5,)), (2, 25, "square", (0.5,))]


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("dim, nodes, shape, params",
                         MIRRORED + [(1, 63, "interval", (-0.5, 0.25)), (2, 25, "lshape", (1.2,))])
def test_kernel_matrix_is_exactly_symmetric_and_centrosymmetric(dim, nodes, shape, params, s):
    box = make_box(dim, 1.0, nodes)
    idx = make_shape(box, shape, params).indices
    m = operators._restricted_entries(operators._restricted_kernel(box, s),
                                      operators._lags(idx, idx, box))
    assert np.array_equal(m, m.T)
    if (dim, nodes, shape, params) in MIRRORED:  # mirror masks: reflecting the first axis
        stride = nodes ** (dim - 1)
        mirror = idx + (nodes - 1 - 2 * (idx // stride)) * stride
        perm = np.searchsorted(idx, mirror)
        assert np.array_equal(idx[perm], mirror)
        assert np.array_equal(m[np.ix_(perm, perm)], m)


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("name", sorted(CASES))
def test_dirichlet_extension_matches_dense_box_basis(name, s):
    _, dom = _case(name)
    mesh = graded_mesh(32, 8.0, 2.0)
    u = np.random.default_rng(7).random(dom.node_count)
    sol = solve(u, dom, "dirichlet", s, mesh)
    values, energy = _dense_dirichlet_extension(u, dom, s, mesh)
    assert sol.values.shape == values.shape == (dom.node_count, mesh.layers + 1)
    assert _rel(sol.values, values) <= REL_TOL
    assert abs(sol.energy - energy) <= REL_TOL * energy
