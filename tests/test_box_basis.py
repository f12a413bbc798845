"""The restricted operator and the Dirichlet extension against the dense box basis.

Both are built from the per-axis sine basis of the box.  The oracle here is
the path they replace: the N^dim x N^dim box eigenbasis formed as the
Kronecker product of the 1D bases and sorted by eigenvalue.  Only the
summation order differs, so the two must agree to roundoff.
"""

import numpy as np
import pytest

from fraclab import operators
from fraclab.domain import extend_by_zero, make_box, make_shape
from fraclab.extension import _solve_modes, graded_mesh, solve_extension
from fraclab.linalg import sym_matrix
from fraclab.operators import _interval_eigenbasis, dirichlet_operator

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
    lam, q = _dense_box_basis(domain.grid)
    coef, energies = _solve_modes(lam, q.T @ extend_by_zero(u, domain).values, mesh, s)
    return q @ coef, domain.grid.h ** domain.grid.dim * float(energies.sum())


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
    new = dirichlet_operator(dom, box, s).matrix
    assert _rel(new, _dense_restricted(dom.indices, box, s)) <= REL_TOL


@pytest.mark.parametrize("modes_per_block", [1, 5])
def test_restricted_operator_in_blocks_matches_dense_box_basis(monkeypatch, modes_per_block):
    box, dom = _case("disk")  # 24 first-axis modes: blocks of 5 leave a short last block
    monkeypatch.setattr(operators, "_ROWS_BLOCK_VALUES",
                        modes_per_block * dom.node_count * box.nodes_per_axis)
    for s in S_GRID:
        new = dirichlet_operator(dom, box, s).matrix
        assert _rel(new, _dense_restricted(dom.indices, box, s)) <= REL_TOL


@pytest.mark.parametrize("dim, shape, params", [(1, "interval", (-0.5, 0.25)),
                                                (2, "disk", (0.5,))])
def test_restricted_operator_on_an_embedded_grid_matches_dense_box_basis(dim, shape, params):
    small = make_box(dim, 0.75, 11)
    dom = make_shape(small, shape, params)
    box = make_box(dim, 0.75 + 4 * small.h, 19)
    idx = small.embed_indices(box)[dom.mask]
    for s in S_GRID:
        new = dirichlet_operator(dom, box, s).matrix
        assert _rel(new, _dense_restricted(idx, box, s)) <= REL_TOL


@pytest.mark.parametrize("s", S_GRID)
@pytest.mark.parametrize("name", sorted(CASES))
def test_dirichlet_extension_matches_dense_box_basis(name, s):
    _, dom = _case(name)
    mesh = graded_mesh(32, 8.0, 2.0)
    u = np.random.default_rng(7).random(dom.node_count)
    sol = solve_extension(u, dom, "dirichlet", s, mesh)
    values, energy = _dense_dirichlet_extension(u, dom, s, mesh)
    assert sol.values.shape == values.shape
    assert _rel(sol.values, values) <= REL_TOL
    assert abs(sol.energy - energy) <= REL_TOL * energy
