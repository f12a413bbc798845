"""Extension-solver checks: closed forms, energy identity, ordering, traces."""

import math
import re
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from extension_lattice import solve

from fraclab import domain, extension, operators
from fraclab.domain import _interval_eigenbasis, make_box, make_shape, random_connected_mask
from fraclab.extension import (
    _LAYER_BLOCK,
    ExtensionMesh,
    _box_analysis,
    _cell_weights,
    _sweep,
    cell_stiffness,
    compare_extensions,
    default_grading,
    extension_constant,
    graded_mesh,
)
from fraclab.operators import (_form, _restricted_matrix, difference_operator, dirichlet_operator,
                               navier_operator)


def _on_box(u, dom):
    """Values u on Omega's nodes, extended by zero to the rest of its box."""
    full = np.zeros(dom.grid.size)
    full[dom.mask] = u
    return full


@pytest.fixture
def unit_interval():
    """127 interior nodes on an interval of length one (shifted to (0,1))."""
    grid = make_box(1, 0.5, 127)
    dom = make_shape(grid, "interval", (-0.5, 0.5))
    x = grid.axis_nodes() + 0.5
    return dom, x


@pytest.fixture
def embedded_interval():
    """16-node centered interval inside a 128-node box with its ground state."""
    box = make_box(1, 1.0, 128)
    dom = make_shape(box, "interval", (-8 * box.h, 8 * box.h))
    u = np.abs(dom.eigen.eigenvectors[:, 0])
    height = 8.0 * (dom.node_count + 1) * box.h
    return box, dom, u, height


def _both_variants(u, dom, s, mesh):
    """The navier and the dirichlet lattice for one datum, in that order."""
    return tuple(solve(u, dom, variant, s, mesh) for variant in ("navier", "dirichlet"))


def _trace_limit(u, dom, variant, s, mesh):
    """The fractional operator applied to u, read off the DtN map: (C_s/2s) times the trace."""
    return extension_constant(s) / (2.0 * s) * solve(u, dom, variant, s, mesh).dtn


def test_mesh_validation():
    m = graded_mesh(16, 4.0, 2.0)
    assert m.layers == 16
    assert m.height == 4.0
    assert m.y[0] == 0.0
    assert np.all(np.diff(m.y) > 0)
    with pytest.raises(ValueError):
        graded_mesh(0, 4.0, 2.0)
    with pytest.raises(ValueError):
        graded_mesh(8, -1.0, 2.0)
    with pytest.raises(ValueError):
        graded_mesh(8, 4.0, 0.5)
    with pytest.raises(ValueError):
        ExtensionMesh(y=np.array([0.1, 0.5]), gamma=2.0)
    # NaN fails every comparison, so each check asks for what holds, not for what fails
    with pytest.raises(ValueError, match="strictly increasing"):
        ExtensionMesh(y=np.array([0.0, np.nan, 1.0]), gamma=2.0)
    with pytest.raises(ValueError, match="grading exponent must be >= 1, got nan"):
        ExtensionMesh(y=np.array([0.0, 0.5, 1.0]), gamma=np.nan)
    with pytest.raises(ValueError, match="y-node 4 is inf, not finite"):
        ExtensionMesh(y=np.array([0.0, 0.5, 1.0, 2.0, np.inf]), gamma=2.0)
    for height in (np.nan, np.inf):  # inf would make y_0 = inf * 0
        with pytest.raises(ValueError, match="truncation height must be positive and finite"):
            graded_mesh(8, height, 2.0)
    for gamma in (np.nan, -1.0):  # refused before y = Y (k/M)^gamma divides by 0 at k = 0
        with pytest.raises(ValueError, match=f"grading exponent must be >= 1, got {gamma}"):
            graded_mesh(8, 4.0, gamma)


def test_default_grading():
    # just above 3/(2s), never below 2
    assert default_grading(0.5) == pytest.approx(3.1)
    assert default_grading(0.25) == pytest.approx(6.1)
    assert default_grading(0.1) == pytest.approx(15.1)
    assert default_grading(0.75) == pytest.approx(2.1)
    assert default_grading(0.9) == 2.0


@pytest.mark.parametrize("s, gamma", [(0.5, 2.0), (0.25, 6.1), (0.02, 75.1), (0.5, 80.0)])
def test_cell_stiffness_is_the_weight_over_the_squared_width(s, gamma):
    mesh = graded_mesh(64, 4.0, gamma)
    expected = _cell_weights(mesh.y, s)[0] / np.diff(mesh.y) ** 2
    assert np.array_equal(cell_stiffness(mesh, s), expected)


@pytest.mark.parametrize("s, gamma, value", [(0.01, 150.1, "nan"), (0.5, 90.0, "inf")])
def test_cell_stiffness_refuses_a_mesh_too_steep_for_floating_point(s, gamma, value):
    # y_1 = 4 / 64^gamma: its weight y_1^(2-2s) underflows to 0 and y_1^2 with it (0/0), or
    # y_1^2 alone does (a positive weight over 0)
    with pytest.raises(ValueError, match=f"^cell 0 has stiffness {value}$"):
        cell_stiffness(graded_mesh(64, 4.0, gamma), s)


@pytest.mark.parametrize("s, height, cell, top", [(0.25, 1e130, 5, "5.35827e+123"),
                                                (0.9, 1e200, 0, "2.44141e+196")])
def test_cell_stiffness_refuses_weights_that_overflow_at_a_large_height(s, height, cell, top):
    # y^(3-2s) overflows from y = 2e123 on at s = 1/4; at s = 0.9 the first cell's width squared
    mesh = graded_mesh(64, height, default_grading(s))
    with pytest.raises(OverflowError, match=f"^cell {cell} below y = {re.escape(top)} has weights"):
        cell_stiffness(mesh, s)
    cell_stiffness(graded_mesh(64, 1e123, default_grading(s)), s)


def test_extension_of_a_zero_datum_is_zero(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(16, 8.0, 2.0)
    sol = solve(np.zeros(dom.node_count), dom, "navier", 0.5, mesh)
    assert np.all(sol.values == 0.0)
    assert sol.energy == 0.0


def test_compare_extensions_rejects_bad_input(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(16, 8.0, 2.0)
    u = np.ones(dom.node_count)
    with pytest.raises(ValueError):
        compare_extensions(u, dom, 1.5, mesh)
    with pytest.raises(ValueError):
        compare_extensions(u, dom, 0.5, graded_mesh(3, 8.0, 2.0))
    with pytest.raises(ValueError):
        compare_extensions(np.ones(3), dom, 0.5, mesh)


def test_half_exponent_closed_form_solution(unit_interval):
    # at s = 1/2 the weight is trivial and sin(pi x) extends to
    # sin(pi x) exp(-pi y); the lattice solution matches within mesh error
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    sol = solve(u, dom, "navier", 0.5, mesh)
    sel = (mesh.y > 0.05) & (mesh.y < 1.5)
    exact = np.outer(np.sin(np.pi * x), np.exp(-np.pi * mesh.y[sel]))
    rel = np.linalg.norm(sol.values[:, sel] - exact) / np.linalg.norm(exact)
    assert rel <= 0.01


def test_half_exponent_energy_converges_to_closed_form(unit_interval):
    # integral of |grad(sin(pi x) e^(-pi y))|^2 over the half strip = pi/2
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    target = np.pi / 2.0
    errors = []
    for layers in (32, 64, 128):
        mesh = graded_mesh(layers, 8.0, 2.0)
        sol = solve(u, dom, "navier", 0.5, mesh)
        errors.append(abs(sol.energy - target))
    assert errors[-1] <= 0.01 * target
    assert errors[0] > errors[1] > errors[2]


def test_energy_identity_half_exponent(unit_interval):
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    chk = compare_extensions(u, dom, 0.5, mesh)
    (row,) = chk.rows
    # C_s/(2s) = 1 at s = 1/2: both sides approximate pi/2
    assert row["form_value"] == pytest.approx(np.pi / 2.0, rel=1e-4)
    assert row["energy_value"] == pytest.approx(np.pi / 2.0, rel=1e-2)
    assert row["rel_gap"] == chk.margins["energy_identity"] <= 0.01


def test_energy_identity_zero_datum(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(16, 8.0, 2.0)
    (row,) = compare_extensions(np.zeros(dom.node_count), dom, 0.5, mesh).rows
    assert row["form_value"] == 0.0
    assert row["energy_value"] == 0.0


def test_energy_identity_quarter_exponent_self_convergence(unit_interval):
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    gaps = {}
    for layers in (64, 128):
        mesh = graded_mesh(layers, 8.0, 2.0)
        gaps[layers] = compare_extensions(u, dom, 0.25, mesh).margins["energy_identity"]
    assert gaps[64] <= 0.05
    assert gaps[128] < gaps[64]


def _dirichlet_form(dom, s, u):
    """D's form h^dim u^T D u, read off its matrix."""
    return _form(_restricted_matrix(dom, s), u, dom.grid)


def test_energy_identity_dirichlet_variant(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(96, height, 2.0)
    form = _dirichlet_form(dom, 0.5, u)
    rhs = extension_constant(0.5) / (2.0 * 0.5) * solve(u, dom, "dirichlet", 0.5, mesh).energy
    assert abs(form - rhs) / abs(form) <= 0.05


def test_dirichlet_energy_identity_reads_the_form_without_an_eigensolve(monkeypatch):
    # D's form is read off its matrix; dirichlet_operator would factor the 120-node D to make it
    dom = make_shape(make_box(2, 1.0, 24), "disk", (0.5,))
    u = np.ones(dom.node_count)
    sizes, original = [], operators.eigendecompose

    def counting(matrix):
        sizes.append(len(matrix))
        return original(matrix)

    for module in (domain, operators):
        monkeypatch.setattr(module, "eigendecompose", counting)
    form = _dirichlet_form(dom, 0.5, u)
    assert sizes == []
    monkeypatch.undo()
    assert form == _form(dirichlet_operator(dom, dom.grid, 0.5), u, dom.grid)


def test_trace_limit_zero_datum(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(32, 8.0, 2.0)
    assert np.all(_trace_limit(np.zeros(dom.node_count), dom, "navier", 0.5, mesh) == 0.0)


def test_trace_limit_half_exponent_closed_form(unit_interval):
    # w = sin(pi x) e^(-pi y) has boundary-layer coefficient -pi sin(pi x)
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    got = _trace_limit(u, dom, "navier", 0.5, mesh)
    target = np.pi * np.sin(np.pi * x)
    assert np.linalg.norm(got - target) / np.linalg.norm(target) <= 0.05


@pytest.mark.parametrize("grading", ["default", 10.0])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_trace_limit_matches_matrix_operators(embedded_interval, s, grading):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(96, height, default_grading(s) if grading == "default" else grading)
    trace_d = _trace_limit(u, dom, "dirichlet", s, mesh)
    trace_n = _trace_limit(u, dom, "navier", s, mesh)
    ref_d = dirichlet_operator(dom, box, s) @ u
    ref_n = navier_operator(dom, s) @ u
    assert np.linalg.norm(trace_d - ref_d) / np.linalg.norm(ref_d) <= 0.02
    assert np.linalg.norm(trace_n - ref_n) / np.linalg.norm(ref_n) <= 0.02
    # the difference of the two co-normal traces recovers the gap operator
    gap_ref = difference_operator(dom, s) @ u
    gap = trace_n - trace_d
    assert np.linalg.norm(gap - gap_ref) / np.linalg.norm(gap_ref) <= 0.02


@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_trace_limit_is_the_energy_density(embedded_interval, variant):
    # energy = h^dim sum_j c0_j^2 E_h(lam_j) = h^dim <u, sum_j c0_j E_h(lam_j) q_j>
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(48, height, 2.0)
    sol = solve(u, dom, variant, 0.5, mesh)
    assert box.h * u @ sol.dtn == pytest.approx(sol.energy, rel=1e-13)
    # C_s/(2s) = 1 at s = 1/2
    assert np.allclose(_trace_limit(u, dom, variant, 0.5, mesh), sol.dtn, rtol=1e-14, atol=0.0)


def test_discrete_maximum_principle(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(48, height, 2.0)
    for variant in ("navier", "dirichlet"):
        sol = solve(u, dom, variant, 0.5, mesh)
        assert sol.values.min() >= -1e-12


def test_energy_monotonicity_between_variants(embedded_interval):
    # the laterally clamped minimization runs over a smaller admissible set,
    # so its energy dominates the whole-box one for the same datum
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(48, height, 2.0)
    for s in (0.25, 0.5, 0.75):
        e_n, e_d = (sol.energy for sol in _both_variants(u, dom, s, mesh))
        assert e_n >= e_d - 1e-12


def test_extension_ordering_zero_datum(embedded_interval):
    box, dom, _, height = embedded_interval
    mesh = graded_mesh(16, height, 2.0)
    chk = compare_extensions(np.zeros(dom.node_count), dom, 0.5, mesh)
    assert chk.margins == {"energy_identity": 0.0, "ordering_lattice": 0.0, "ordering_interior": 0.0}


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_extension_ordering_ground_state(embedded_interval, s):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(64, height, default_grading(s))
    chk = compare_extensions(u, dom, s, mesh)
    assert chk.margins["ordering_lattice"] >= -1e-8
    assert chk.margins["ordering_interior"] > 0.0
    (row,) = chk.rows
    assert (row["s"], row["ordering_lattice_min"], row["ordering_interior_min"]) == (
        s, chk.margins["ordering_lattice"], chk.margins["ordering_interior"])


def test_extension_ordering_rejects_signed_datum(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(16, height, 2.0)
    bad = u.copy()
    bad[0] = -1.0
    with pytest.raises(ValueError, match="entrywise nonnegative"):
        compare_extensions(bad, dom, 0.5, mesh)


def test_extension_constant_values():
    assert extension_constant(0.5) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        extension_constant(1.0)


def _mode_major_sweep(lam, c0, mesh, s, dtype=np.float64):
    """The mode-major Thomas sweep the ratio sweep replaced, kept as its oracle.

    The system's coefficients are formed in double precision; ``dtype`` is
    the precision the sweep then runs in (np.longdouble solves the same
    double system nearly exactly).
    """
    y = mesh.y
    m = mesh.layers
    mu, w_left, w_right = _cell_weights(y, s)
    d = np.diff(y)
    k = mu / d**2
    nm = lam.size
    diag = (k[:-1] + k[1:] + np.outer(lam, w_right[:-1] + w_left[1:])).astype(dtype)
    off = (-k[1:-1]).astype(dtype)
    c0 = c0.astype(dtype)
    rhs = np.zeros((nm, m - 1), dtype)
    rhs[:, 0] = dtype(k[0]) * c0
    cp = np.zeros((nm, m - 2), dtype)
    dp = np.zeros((nm, m - 1), dtype)
    dp[:, 0] = rhs[:, 0] / diag[:, 0]
    cp[:, 0] = off[0] / diag[:, 0]
    for i in range(1, m - 1):
        den = diag[:, i] - off[i - 1] * cp[:, i - 1]
        if i < m - 2:
            cp[:, i] = off[i] / den
        dp[:, i] = (rhs[:, i] - off[i - 1] * dp[:, i - 1]) / den
    sol = np.zeros((nm, m - 1), dtype)
    sol[:, -1] = dp[:, -1]
    for i in range(m - 3, -1, -1):
        sol[:, i] = dp[:, i] - cp[:, i] * sol[:, i + 1]
    coef = np.concatenate([c0[:, None], sol, np.zeros((nm, 1), dtype)], axis=1)
    steps = np.diff(coef, axis=1)
    energies = (steps**2) @ k + lam * ((coef[:, :-1] ** 2) @ w_left + (coef[:, 1:] ** 2) @ w_right)
    return coef, energies


SWEEP_CASES = {
    "interval": (1, 63, "interval", (-0.25, 0.25)),
    "disk": (2, 16, "disk", (0.5,)),
}


def _modes(name, variant):
    """Domain, datum, in-plane eigenvalues and datum coefficients of one case."""
    dim, nodes, shape, params = SWEEP_CASES[name]
    dom = make_shape(make_box(dim, 1.0, nodes), shape, params)
    u = np.random.default_rng(7).random(dom.node_count)
    if variant == "navier":
        lam, c0 = dom.eigen.eigenvalues, dom.eigen.eigenvectors.T @ u
    else:
        lam, c0 = _box_analysis(_on_box(u, dom), dom.grid)
    return dom, u, lam, c0


EPS = np.finfo(float).eps


def _energy_bound(lam, ref_coef, ref_energies, err, mesh, s):
    """First-order propagation of per-mode coefficient errors err_j through the energy sum."""
    mu, w_left, w_right = _cell_weights(mesh.y, s)
    k = mu / np.diff(mesh.y) ** 2
    e = err[:, None]
    c, steps = np.abs(ref_coef), np.abs(np.diff(ref_coef, axis=1))
    return ((4.0 * steps * e + 4.0 * e**2) @ k
            + lam * ((2.0 * c[:, :-1] * e + e**2) @ w_left + (2.0 * c[:, 1:] * e + e**2) @ w_right)
            + 8.0 * EPS * np.abs(ref_energies))


def _basis(dom, variant):
    """Omega's rows of the dense in-plane basis of one variant: Omega's eigenvectors or q1 x q1."""
    if variant == "navier":
        return dom.eigen.eigenvectors
    _, q1 = _interval_eigenbasis(dom.grid.nodes_per_axis, dom.grid.h)
    return reduce(np.kron, [q1] * dom.grid.dim)[dom.indices]


def _mode_lattice(phi, inv, c0):
    """The mode-major (n_modes, M+1) lattice c0_j phi[:, inv_j] that the solve never forms."""
    return np.ascontiguousarray((phi[:, inv] * c0).T)


def _solve_modes(lam, mesh, s):
    """The whole-lattice sigma sweep the streamed one replaced, kept as its oracle.

    The same recurrences as :func:`extension._sweep`, each a few ufunc calls over all rows of
    the layer-major (M+1, n_distinct) lattice at once.  Returns the lattice (row 0 ones, row M
    +0.0), ``inv`` (lam = unique(lam)[inv]) and E_h of the distinct lam.
    """
    m = mesh.layers
    _, w_left, w_right = _cell_weights(mesh.y, s)
    k = cell_stiffness(mesh, s)
    lam_u, inv = np.unique(lam, return_inverse=True)
    phi = np.empty((m + 1, lam_u.size))
    phi[0], phi[m] = 1.0, 0.0
    # interior row i holds v_i, then 1 + sigma_i, then phi_i
    phi[1:m] = lam_u
    phi[1:m] *= ((w_right[:-1] + w_left[1:]) / k[1:])[:, None]
    phi[m - 1] += 1.0  # phi_M = 0: sigma_M is infinite
    rows, tmp = list(phi), np.empty(lam_u.size)
    for i in range(m - 2, 0, -1):
        np.add(rows[i + 1], k[i] / k[i + 1], out=tmp)
        np.divide(rows[i + 1], tmp, out=tmp)
        rows[i] += tmp
    e_unit = k[0] * rows[1] / (k[0] / k[1] + rows[1]) + lam_u * w_left[0]
    phi[1:m] *= (k[1:] / k[:-1])[:, None]
    phi[1:m] += 1.0
    for i in range(1, m):
        np.divide(rows[i - 1], rows[i], out=rows[i])
    return phi, inv, e_unit


def _streamed(lam, mesh, s):
    """What :func:`_solve_modes` returns, gathered from the streamed sweep of the distinct lam."""
    lam_u, inv = np.unique(lam, return_inverse=True)
    (e_unit,), blocks = _sweep([(lam_u, np.ones(lam_u.size), lambda block: block)], mesh, s)
    phi = np.zeros((mesh.layers + 1, lam_u.size))
    for ks, (block,) in blocks:
        phi[ks] = block
    return phi, inv, e_unit


@pytest.mark.parametrize("layers", [4, 5, 64, 1024])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
@pytest.mark.parametrize("grading", ["default", 2.0])
def test_distinct_mode_sweep_matches_the_mode_major_sweep(grading, name, variant, s, layers):
    dom, u, lam, c0 = _modes(name, variant)
    mesh = graded_mesh(layers, 4.0, default_grading(s) if grading == "default" else grading)
    phi, inv, e_unit = _streamed(lam, mesh, s)
    coef, energies = _mode_lattice(phi, inv, c0), c0**2 * e_unit[inv]
    ref_coef, ref_energies = _mode_major_sweep(lam, c0, mesh, s)
    # the layer-major unit profiles, one per distinct lam, obey the discrete maximum principle
    assert phi.shape == (layers + 1, np.unique(lam).size) and phi.flags.c_contiguous
    assert np.array_equal(np.unique(lam)[inv], lam)
    assert np.all(phi[0] == 1.0)
    assert np.all(phi[1:-1] > 0.0) and np.all(phi[1:-1] <= 1.0 + 64.0 * EPS)
    assert np.array_equal(coef[:, 0], c0)
    err = 64.0 * EPS * np.abs(ref_coef).max(axis=1)
    assert np.all(np.abs(energies - ref_energies) <= _energy_bound(lam, ref_coef, ref_energies, err, mesh, s))

    def values_of(c):
        return _basis(dom, variant) @ c

    ref_values = values_of(ref_coef)
    sol = solve(u, dom, variant, s, mesh)
    if layers < 1024:
        assert np.all(np.abs(coef - ref_coef) <= err[:, None])
        assert np.all(np.abs(sol.values - ref_values) <= 64.0 * EPS * np.abs(ref_values).max())
    else:
        # here Thomas itself lies 100-700 eps max|row| from the exact solution of the same
        # double system, so both sweeps are held to that solution, to a bound growing with
        # the layer index as the rounding of the layer-by-layer recurrences does
        assert np.finfo(np.longdouble).eps <= 2.0**-63, "np.longdouble is not extended precision"
        exact = _mode_major_sweep(lam, c0, mesh, s, np.longdouble)[0]
        bound = 64.0 * np.arange(layers + 1) * EPS * np.abs(exact)
        exact_values = values_of(exact.astype(float))
        values_bound = (np.abs(_basis(dom, variant)) @ bound.astype(float)
                        + 64.0 * EPS * np.abs(exact_values).max())
        for sweep, values in ((coef, sol.values), (ref_coef, ref_values)):
            assert np.all(np.abs(sweep - exact) <= bound)
            assert np.all(np.abs(values - exact_values) <= values_bound)
    # the energies read off sigma_1 are the former energy sums to roundoff on both gradings
    assert np.all(np.abs(energies - ref_energies) <= 1e-13 * np.abs(ref_energies))
    ref_energy = float(dom.grid.h**dom.grid.dim * ref_energies.sum())
    assert abs(sol.energy - ref_energy) <= 1e-13 * ref_energy


@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_truncation_layer_is_positive_zero(variant):
    dom, u, lam, c0 = _modes("disk", variant)
    assert np.any(c0 < 0)  # 0.0 * c0 would give -0.0 there
    mesh = graded_mesh(16, 4.0, 2.0)
    phi, _, _ = _streamed(lam, mesh, 0.5)
    sol = solve(u, dom, variant, 0.5, mesh)
    assert sol.values.shape == (dom.node_count, mesh.layers + 1)  # Omega's rows, either variant
    for last in (phi[-1], sol.values[:, -1]):
        assert np.all(last == 0.0) and not np.signbit(last).any()


@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_four_layer_sweep_matches_a_dense_solve(name, variant):
    # stationarity of the mode energy in c_1..c_{M-1}, assembled row by row
    _, _, lam, c0 = _modes(name, variant)
    s = 0.3
    mesh = graded_mesh(4, 4.0, default_grading(s))
    mu, w_left, w_right = _cell_weights(mesh.y, s)
    k = mu / np.diff(mesh.y) ** 2
    j = int(np.argmax(np.abs(c0)))
    system = np.zeros((3, 3))
    for r, i in enumerate(range(1, 4)):
        system[r, r] = k[i - 1] + k[i] + lam[j] * (w_right[i - 1] + w_left[i])
        if r > 0:
            system[r, r - 1] = -k[i - 1]
        if r < 2:
            system[r, r + 1] = -k[i]
    rhs = np.array([k[0] * c0[j], 0.0, 0.0])
    coef = _mode_lattice(*_streamed(lam, mesh, s)[:2], c0)
    expected = np.linalg.solve(system, rhs)
    assert np.allclose(coef[j, 1:4], expected, rtol=1e-13, atol=0.0)
    assert coef[j, 0] == c0[j] and coef[j, 4] == 0.0


def _lattice_residual(lam, k, w_left, w_right, coef):
    """The residual check over whole lattices, as the Thomas sweep ran it: max|res| and its scale."""
    diag = (k[:-1] + k[1:])[:, None] + np.outer(w_right[:-1] + w_left[1:], lam)
    res = diag * coef[1:-1] - k[:-1, None] * coef[:-2] - k[1:, None] * coef[2:]
    return float(np.max(np.abs(res))), max(float(np.max(np.abs(diag)) * np.max(np.abs(coef))), 1.0)


def _perturb_profiles(monkeypatch, edit):
    """Have every block's residual read its profiles after ``edit(phi, lam, layers)``, in place:
    phi[t] is the profile row of layer layers[t] and phi[:, c] that of lam[c]."""
    residual = extension._residual

    def perturbed(phi, lam, k, wsum, i0, *acc):
        edit(phi, lam, range(i0 - 1, i0 + len(phi) - 1))
        return residual(phi, lam, k, wsum, i0, *acc)

    monkeypatch.setattr(extension, "_residual", perturbed)


def _add_at(layer, lam_j, delta):
    """A profile edit adding ``delta`` at ``layer`` of the profile of ``lam_j``."""
    def edit(phi, lam, layers):
        if layer in layers:
            phi[layers.index(layer), np.searchsorted(lam, lam_j)] += delta
    return edit


def _stiffness(mesh, s):
    mu, w_left, w_right = _cell_weights(mesh.y, s)
    return mu / np.diff(mesh.y) ** 2, w_left, w_right


@pytest.mark.parametrize("s", [0.25, 0.75])
@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_residual_check_catches_a_perturbed_coefficient(monkeypatch, variant, s):
    dom, u, lam, _ = _modes("disk", variant)
    mesh = graded_mesh(64, 4.0, default_grading(s))
    k, w_left, w_right = _stiffness(mesh, s)
    lam_u = np.unique(lam)
    diag = (k[:-1] + k[1:])[:, None] + np.outer(w_right[:-1] + w_left[1:], lam_u)
    phi = _solve_modes(lam, mesh, s)[0]
    compare_extensions(u, dom, s, mesh)  # one sweep of both variants passes
    # row r of diag is interior layer r + 1; moving phi there moves its residual by diag * delta
    r, j = np.unravel_index(np.argmax(np.abs(diag)), diag.shape)
    tol = 1e-10
    delta = 200.0 * tol * max(np.abs(diag).max() * np.abs(phi).max(), 1.0) / abs(diag[r, j])
    bad = phi.copy()
    bad[r + 1, j] += delta
    scale = max(np.abs(diag).max() * np.abs(bad).max(), 1.0)
    assert abs(diag[r, j]) * delta >= 100.0 * tol * scale
    _perturb_profiles(monkeypatch, _add_at(r + 1, lam_u[j], delta))
    with pytest.raises(RuntimeError, match="residual"):
        compare_extensions(u, dom, s, mesh)


@pytest.mark.parametrize("layers", [64, 1024])
@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_blocked_residual_is_the_lattice_residual_bit_for_bit(monkeypatch, variant, layers):
    # the streamed check reports the error and the tolerance of the whole-lattice check exactly
    dom, u, lam, _ = _modes("disk", variant)
    mesh = graded_mesh(layers, 4.0, 2.0)
    bad = _solve_modes(lam, mesh, 0.5)[0]
    bad[1] *= 1.0 + 1e-6
    err, scale = _lattice_residual(np.unique(lam), *_stiffness(mesh, 0.5), bad)
    assert err > 1e-10 * scale

    def edit(phi, lam, layers):
        if 1 in layers:
            phi[layers.index(1)] *= 1.0 + 1e-6

    _perturb_profiles(monkeypatch, edit)
    with pytest.raises(RuntimeError) as caught:
        solve(u, dom, variant, 0.5, mesh)
    assert str(caught.value) == (f"extension solve residual {err!r} "
                                 f"exceeds tolerance {1e-10 * scale!r}")


def test_residual_check_catches_a_nan_entry(monkeypatch):
    # a NaN fails every comparison, so it must not be dropped by the running maxima
    dom, u, lam, _ = _modes("disk", "dirichlet")
    mesh = graded_mesh(64, 4.0, 2.0)
    solve(u, dom, "dirichlet", 0.5, mesh)
    _perturb_profiles(monkeypatch, _add_at(10, np.unique(lam)[3], np.nan))
    with pytest.raises(RuntimeError, match="residual"):
        solve(u, dom, "dirichlet", 0.5, mesh)


def test_a_navier_residual_is_held_to_its_own_bound_in_the_joint_sweep(monkeypatch):
    # a 4-node disk: Omega's spectrum tops out 30% below the box's, and on 16 uniform layers
    # max|D| follows lam, so the box profiles' bound is about 30% above Omega's
    dom = make_shape(make_box(2, 1.0, 16), "disk", (0.15,))
    u, s, mesh = np.ones(dom.node_count), 0.5, graded_mesh(16, 4.0, 1.0)
    k, w_left, w_right = _stiffness(mesh, s)
    lam_d = np.unique(_box_analysis(_on_box(u, dom), dom.grid)[0])
    lam_n = np.unique(dom.eigen.eigenvalues)
    phi_d = _solve_modes(lam_d, mesh, s)[0]
    bound_d = 1e-10 * _lattice_residual(lam_d, k, w_left, w_right, phi_d)[1]
    phi = _solve_modes(lam_n, mesh, s)[0]
    j = int(np.flatnonzero(~np.isin(lam_n, lam_d))[-1])  # a column of Omega's alone
    r = 8
    diag = k[r - 1] + k[r] + (w_right[r - 1] + w_left[r]) * lam_n[j]
    delta = math.sqrt(1e-10 * _lattice_residual(lam_n, k, w_left, w_right, phi)[1] * bound_d) / diag
    phi[r, j] += delta
    err, scale = _lattice_residual(lam_n, k, w_left, w_right, phi)
    assert 1e-10 * scale < err < bound_d
    _perturb_profiles(monkeypatch, _add_at(r, lam_n[j], delta))
    with pytest.raises(RuntimeError) as caught:
        compare_extensions(u, dom, s, mesh)
    assert str(caught.value) == (f"extension solve residual {err!r} "
                                 f"exceeds tolerance {1e-10 * scale!r}")


@pytest.mark.parametrize("layers", [16, 129])
def test_one_sweep_checks_every_interior_layer_once(monkeypatch, layers):
    dom, u, lam_d, _ = _modes("disk", "dirichlet")
    seen = []
    _perturb_profiles(monkeypatch, lambda phi, lam, rows: seen.append((rows, lam)))
    compare_extensions(u, dom, 0.5, graded_mesh(layers, 4.0, 2.0))
    checked = [i for rows, _ in seen for i in rows[1:-1]]
    assert checked == list(range(1, layers))
    # one sweep over the distinct eigenvalues of both variants together
    union = np.unique(np.concatenate([lam_d, dom.eigen.eigenvalues]))
    assert all(np.array_equal(lam, union) for _, lam in seen)
    assert np.unique(lam_d).size < union.size < np.unique(lam_d).size + dom.node_count


def _dtn_constant(s):
    """d_s = 2^(1-2s) Gamma(1-s)/Gamma(s): the unit-datum extension energy is d_s lam^s."""
    return 2.0 ** (1.0 - 2.0 * s) * math.gamma(1.0 - s) / math.gamma(s)


@pytest.mark.parametrize("s, grading", [(s, "default") for s in np.arange(1, 10) / 10]
                         + [(0.9, 10.0)])
def test_mode_energies_converge_to_the_continuum_dtn_map_at_second_order(s, grading):
    # 400 in-plane eigenvalues spanning a 2D box's spectrum; exp(-2 sqrt(2.5) 8.6) < 1e-11
    # makes the truncation at Y = 8.6 invisible, so E_h(lam) is held to d_s lam^s itself
    lam = np.geomspace(2.5, 16382.0, 400)
    gamma = default_grading(s) if grading == "default" else grading
    errors = []
    for layers in (64, 256):
        e_unit = _streamed(lam, graded_mesh(layers, 8.6, gamma), s)[2]
        errors.append(np.max(np.abs(e_unit / (_dtn_constant(s) * lam**s) - 1.0)))
    order = np.log(errors[0] / errors[1]) / np.log(4.0)
    assert order >= 1.8, f"errors {errors}, observed order {order:.2f}"


@pytest.mark.parametrize("layers", [16, 64])
def test_mode_solve_at_few_layers_peaks_below_two_and_a_half_profile_lattices(monkeypatch,
                                                                             layers):
    # below 2 x _LAYER_BLOCK layers one block is the whole lattice: through its residual check
    # the stream holds the profiles and the check's two eighths of them; numpy's transient ufunc
    # buffers (one of up to 64 KB per broadcast operand) must stay below the rest of the bound
    dom = make_shape(make_box(2, 1.0, 40), "disk", (0.5,))
    lam, mesh = dom.eigen.eigenvalues, graded_mesh(layers, 4.0, 2.0)
    lattice = (layers + 1) * np.unique(lam).size * 8
    residual, peaks = extension._residual, []

    def checked(*args):
        residual(*args)
        peaks.append(tracemalloc.get_traced_memory()[1])

    monkeypatch.setattr(extension, "_residual", checked)
    modes = [(lam, np.ones(lam.size), lambda block: None)]
    for _ in _sweep(modes, mesh, 0.5)[1]:  # the caches are warm
        pass
    tracemalloc.start()
    try:
        for _ in _sweep(modes, mesh, 0.5)[1]:
            pass
    finally:
        tracemalloc.stop()
    assert dom.node_count == 332 and len(peaks) == 2
    assert peaks[1] < 2.5 * lattice, f"peak {peaks[1] / lattice:.2f} lattices"


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_navier_synthesis_of_degenerate_modes_matches_the_per_mode_product(s):
    # the closed-form basis of a square has pairs of equal eigenvalues lam_a + lam_b = lam_b + lam_a
    dom = make_shape(make_box(2, 1.0, 24), "square", (0.5,))
    q, lam = dom.eigen.eigenvectors, dom.eigen.eigenvalues
    assert np.unique(lam).size < lam.size
    u = np.random.default_rng(7).random(dom.node_count)
    mesh = graded_mesh(64, 4.0, 2.0)
    c0 = q.T @ u
    ref = q @ _mode_lattice(*_streamed(lam, mesh, s)[:2], c0)  # one product per mode
    values = solve(u, dom, "navier", s, mesh).values
    assert np.all(np.abs(values - ref) <= 64.0 * EPS * np.abs(ref).max())


DIFFERENTIAL_CASES = {
    "interval": (1, 63, "interval", (-0.25, 0.25)),
    "random-1d": (1, 63, "random", 20),
    "disk": (2, 16, "disk", (0.5,)),
    "lshape": (2, 20, "lshape", (1.2,)),
    "random-2d": (2, 16, "random", 40),
}
DIFFERENTIAL = [(name, s, layers) for name in DIFFERENTIAL_CASES for s in (0.1, 0.5, 0.9)
                for layers in (4, 5, 63, 64, 65, 1024)]


def _differential_case(name):
    """A domain and a nonnegative datum on it."""
    dim, nodes, shape, params = DIFFERENTIAL_CASES[name]
    box = make_box(dim, 1.0, nodes)
    if shape == "random":
        dom = random_connected_mask(box, params, np.random.default_rng(nodes))
    else:
        dom = make_shape(box, shape, params)
    return dom, np.random.default_rng(3).random(dom.node_count)


@pytest.mark.parametrize("name, s, layers", DIFFERENTIAL)
def test_streamed_blocks_are_the_whole_lattice_rows_bit_for_bit(name, s, layers):
    dom, u = _differential_case(name)
    mesh = graded_mesh(layers, 4.0, default_grading(s))
    lams = [lam for lam, _, _ in extension._analyses(u, dom, s, mesh)[1]]
    fluxes, blocks = _sweep([(lam, np.ones(lam.size), lambda block: block) for lam in lams],
                            mesh, s)
    oracles = [_solve_modes(lam, mesh, s) for lam in lams]  # one whole lattice per variant
    for flux, (_, inv, e_unit) in zip(fluxes, oracles):
        assert flux.tobytes() == e_unit[inv].tobytes()
    stops = [0]
    for ks, values in blocks:
        assert ks.start == stops[-1] and ks.stop - ks.start >= min(_LAYER_BLOCK, layers)
        stops.append(ks.stop)
        for block, (phi, inv, _) in zip(values, oracles):
            assert block.tobytes() == phi[ks][:, inv].tobytes()
    assert stops[-1] == layers  # row M, zero, is left out


@pytest.mark.parametrize("name, s, layers", DIFFERENTIAL)
def test_compare_extensions_is_the_two_solution_path_bit_for_bit(name, s, layers):
    dom, u = _differential_case(name)
    mesh = graded_mesh(layers, 4.0, default_grading(s))
    cert = compare_extensions(u, dom, s, mesh)
    navier, dirichlet = _both_variants(u, dom, s, mesh)
    ident = extension._energy_identity(dom, s, u, navier.energy)
    # the truncation layer's zeros hold the lattice minimum at or below 0; y = 0 is not interior
    w_diff = dirichlet.values - navier.values
    order = {"ordering_lattice": w_diff.min(), "ordering_interior": w_diff[:, 1:-1].min()}
    expected = {**ident.margins, **order}
    assert [(name, m.hex()) for name, m in cert.margins.items()] == [
        (name, m.hex()) for name, m in expected.items()]
    assert cert.rows.dtype.names == ("s", "form_value", "energy_value", "rel_gap",
                                     "ordering_lattice_min", "ordering_interior_min")
    for field in ident.rows.dtype.names:
        assert cert.rows[field].tobytes() == ident.rows[field].tobytes()
    assert [cert.rows[f"{name}_min"][0].hex() for name in order] == [m.hex() for m in order.values()]


def test_compare_extensions_peaks_below_half_a_distinct_profile_lattice():
    # the benchmark's extension-2d solve (2D disk, 40^2 box, 1,024 layers, s = 0.5): a
    # whole-lattice sweep held 1,025 x 803 distinct box profiles, the stream a block of layers
    dom = make_shape(make_box(2, 1.0, 40), "disk", (0.5,))
    u, mesh = np.abs(dom.eigen.eigenvectors[:, 0]), graded_mesh(1024, 8.0, 2.0)
    assert np.unique(_box_analysis(_on_box(u, dom), dom.grid)[0]).size == 803
    lattice = (mesh.layers + 1) * 803 * 8
    compare_extensions(u, dom, 0.5, mesh)  # the caches are warm
    tracemalloc.start()
    try:
        compare_extensions(u, dom, 0.5, mesh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < lattice / 2, f"peak {peak / lattice:.2f} lattices"


def _solve_peak(u, dom, variant, mesh):
    """tracemalloc peak of one variant's streamed sweep and synthesis, each block dropped once
    handed over as compare_extensions drops it, after a first sweep has warmed the caches."""
    _, modes = extension._analyses(u, dom, 0.5, mesh)
    variant_modes = [modes[("dirichlet", "navier").index(variant)]]
    for _ in _sweep(variant_modes, mesh, 0.5)[1]:
        pass
    tracemalloc.start()
    try:
        for _ in _sweep(variant_modes, mesh, 0.5)[1]:
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dirichlet_solve_peak_memory_stays_within_one_lattice():
    # one lattice is N^2 x (M+1) float64, what a mode-major hand-off would take alone; the
    # sweep holds a block of the distinct profiles (803 of the 1,600 modes here) and of Omega's rows
    box = make_box(2, 1.0, 40)
    dom = make_shape(box, "disk", (0.5,))
    mesh = graded_mesh(1024, 8.0, 2.0)
    lattice = box.size * (mesh.layers + 1) * 8
    peak = _solve_peak(np.ones(dom.node_count), dom, "dirichlet", mesh)
    assert peak <= lattice, f"peak {peak / lattice:.2f} lattices"


@pytest.mark.parametrize("layers", [1024, 256])
def test_navier_solve_peak_memory_stays_within_three_omega_lattices(layers):
    # an Omega lattice is |Omega| x (M+1) float64, what the whole navier solution would take;
    # the sweep holds a block of the profiles and of their synthesis at a time
    box = make_box(2, 1.0, 40)
    dom = make_shape(box, "disk", (0.5,))
    mesh = graded_mesh(layers, 8.0, 2.0)
    lattice = dom.node_count * (mesh.layers + 1) * 8
    peak = _solve_peak(np.ones(dom.node_count), dom, "navier", mesh)
    assert peak <= 3 * lattice, f"peak {peak / lattice:.2f} lattices"


def test_navier_solve_at_one_block_holds_no_fourth_omega_lattice():
    # at 64 layers one block is the whole lattice: the profiles, the scaled block and its
    # synthesis take an Omega lattice each; a copy of either block beside them would be a fourth
    dom = make_shape(make_box(2, 1.0, 40), "disk", (0.5,))
    mesh = graded_mesh(64, 8.0, 2.0)
    lattice = dom.node_count * (mesh.layers + 1) * 8
    peak = _solve_peak(np.ones(dom.node_count), dom, "navier", mesh)
    assert peak <= 3.75 * lattice, f"peak {peak / lattice:.2f} lattices"


def test_the_truncation_layer_holds_the_lattice_minimum_at_zero():
    # a 2-node mask whose datum the box synthesis reproduces from above: W > 0 below y = Y,
    # so only the zeros of the truncation layer set ordering_lattice, as in the two lattices
    dom = random_connected_mask(make_box(1, 1.0, 15), 2, np.random.default_rng(2))
    u, mesh = np.ones(dom.node_count), graded_mesh(16, 4.0, 2.0)
    navier, dirichlet = _both_variants(u, dom, 0.5, mesh)
    w_diff = dirichlet.values - navier.values
    assert w_diff[:, :-1].min() > 0.0
    cert = compare_extensions(u, dom, 0.5, mesh)
    assert cert.margins["ordering_lattice"] == w_diff.min() == 0.0
    assert cert.margins["ordering_interior"] == w_diff[:, 1:-1].min() > 0.0
