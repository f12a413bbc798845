"""Extension-solver checks: closed forms, energy identity, ordering, traces."""

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

from fraclab import extension
from fraclab.domain import _interval_eigenbasis, extend_by_zero, make_box, make_shape
from fraclab.extension import (
    ExtensionMesh,
    _box_analysis,
    _cell_weights,
    _residual_check,
    _solve_modes,
    default_grading,
    energy_identity_check,
    extension_constant,
    extension_ordering_check,
    graded_mesh,
    solve_extension,
    trace_limit,
)
from fraclab.operators import difference_operator, dirichlet_operator, navier_operator


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
    """The navier and the dirichlet solution for one datum, in that order."""
    return tuple(solve_extension(u, dom, variant, s, mesh) for variant in ("navier", "dirichlet"))


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


def test_default_grading():
    # just above 3/(2s), never below 2
    assert default_grading(0.5) == pytest.approx(3.1)
    assert default_grading(0.25) == pytest.approx(6.1)
    assert default_grading(0.1) == pytest.approx(15.1)
    assert default_grading(0.75) == pytest.approx(2.1)
    assert default_grading(0.9) == 2.0


def test_solve_extension_zero_datum(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(16, 8.0, 2.0)
    sol = solve_extension(np.zeros(dom.node_count), dom, "navier", 0.5, mesh)
    assert np.all(sol.values == 0.0)
    assert sol.energy == 0.0


def test_solve_extension_rejects_bad_input(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(16, 8.0, 2.0)
    u = np.ones(dom.node_count)
    with pytest.raises(ValueError):
        solve_extension(u, dom, "robin", 0.5, mesh)
    with pytest.raises(ValueError):
        solve_extension(u, dom, "navier", 1.5, mesh)
    with pytest.raises(ValueError):
        solve_extension(u, dom, "navier", 0.5, graded_mesh(3, 8.0, 2.0))
    with pytest.raises(ValueError):
        solve_extension(np.ones(3), dom, "navier", 0.5, mesh)


def test_half_exponent_closed_form_solution(unit_interval):
    # at s = 1/2 the weight is trivial and sin(pi x) extends to
    # sin(pi x) exp(-pi y); the lattice solution matches within mesh error
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    sol = solve_extension(u, dom, "navier", 0.5, mesh)
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
        sol = solve_extension(u, dom, "navier", 0.5, mesh)
        errors.append(abs(sol.energy - target))
    assert errors[-1] <= 0.01 * target
    assert errors[0] > errors[1] > errors[2]


def test_energy_identity_half_exponent(unit_interval):
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    chk = energy_identity_check(solve_extension(u, dom, "navier", 0.5, mesh))
    # C_s/(2s) = 1 at s = 1/2: both sides approximate pi/2
    assert chk.form_value == pytest.approx(np.pi / 2.0, rel=1e-4)
    assert chk.energy_value == pytest.approx(np.pi / 2.0, rel=1e-2)
    assert chk.rel_gap <= 0.01


def test_energy_identity_zero_datum(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(16, 8.0, 2.0)
    sol = solve_extension(np.zeros(dom.node_count), dom, "navier", 0.5, mesh)
    chk = energy_identity_check(sol)
    assert chk.form_value == 0.0
    assert chk.energy_value == 0.0


def test_energy_identity_quarter_exponent_self_convergence(unit_interval):
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    gaps = {}
    for layers in (64, 128):
        mesh = graded_mesh(layers, 8.0, 2.0)
        gaps[layers] = energy_identity_check(solve_extension(u, dom, "navier", 0.25, mesh)).rel_gap
    assert gaps[64] <= 0.05
    assert gaps[128] < gaps[64]


def test_energy_identity_dirichlet_variant(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(96, height, 2.0)
    chk = energy_identity_check(solve_extension(u, dom, "dirichlet", 0.5, mesh))
    assert chk.rel_gap <= 0.05


def test_trace_limit_zero_datum(unit_interval):
    dom, _ = unit_interval
    mesh = graded_mesh(32, 8.0, 2.0)
    sol = solve_extension(np.zeros(dom.node_count), dom, "navier", 0.5, mesh)
    assert np.all(trace_limit(sol) == 0.0)


def test_trace_limit_half_exponent_closed_form(unit_interval):
    # w = sin(pi x) e^(-pi y) has boundary-layer coefficient -pi sin(pi x)
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    sol = solve_extension(u, dom, "navier", 0.5, mesh)
    got = trace_limit(sol)
    target = np.pi * np.sin(np.pi * x)
    assert np.linalg.norm(got - target) / np.linalg.norm(target) <= 0.05


@pytest.mark.parametrize("grading", ["default", 10.0])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_trace_limit_matches_matrix_operators(embedded_interval, s, grading):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(96, height, default_grading(s) if grading == "default" else grading)
    trace_d = trace_limit(solve_extension(u, dom, "dirichlet", s, mesh))
    trace_n = trace_limit(solve_extension(u, dom, "navier", s, mesh))
    ref_d = dirichlet_operator(dom, box, s).apply(u)
    ref_n = navier_operator(dom, s).apply(u)
    assert np.linalg.norm(trace_d - ref_d) / np.linalg.norm(ref_d) <= 0.02
    assert np.linalg.norm(trace_n - ref_n) / np.linalg.norm(ref_n) <= 0.02
    # the difference of the two co-normal traces recovers the gap operator
    gap_ref = difference_operator(dom, box, s) @ u
    gap = trace_n - trace_d
    assert np.linalg.norm(gap - gap_ref) / np.linalg.norm(gap_ref) <= 0.02


@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_trace_limit_is_the_energy_density(embedded_interval, variant):
    # energy = h^dim sum_j c0_j^2 E_h(lam_j) = h^dim <u, sum_j c0_j E_h(lam_j) q_j>
    box, dom, u, height = embedded_interval
    sol = solve_extension(u, dom, variant, 0.5, graded_mesh(48, height, 2.0))
    assert not sol.dtn.flags.writeable
    assert box.h * u @ sol.dtn == pytest.approx(sol.energy, rel=1e-13)
    assert np.allclose(trace_limit(sol), sol.dtn, rtol=1e-14, atol=0.0)  # C_s/(2s) = 1 at s = 1/2


def test_discrete_maximum_principle(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(48, height, 2.0)
    for variant in ("navier", "dirichlet"):
        sol = solve_extension(u, dom, variant, 0.5, mesh)
        assert sol.values.min() >= -1e-12


def test_energy_monotonicity_between_variants(embedded_interval):
    # the laterally clamped minimization runs over a smaller admissible set,
    # so its energy dominates the whole-box one for the same datum
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(48, height, 2.0)
    for s in (0.25, 0.5, 0.75):
        e_n = solve_extension(u, dom, "navier", s, mesh).energy
        e_d = solve_extension(u, dom, "dirichlet", s, mesh).energy
        assert e_n >= e_d - 1e-12


def test_extension_ordering_zero_datum(embedded_interval):
    box, dom, _, height = embedded_interval
    mesh = graded_mesh(16, height, 2.0)
    chk = extension_ordering_check(*_both_variants(np.zeros(dom.node_count), dom, 0.5, mesh))
    assert chk.lattice_min == 0.0
    assert chk.interior_min == 0.0


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_extension_ordering_ground_state(embedded_interval, s):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(64, height, default_grading(s))
    chk = extension_ordering_check(*_both_variants(u, dom, s, mesh))
    assert chk.lattice_min >= -1e-8
    assert chk.interior_min > 0.0


def test_extension_ordering_rejects_signed_datum(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(16, height, 2.0)
    bad = u.copy()
    bad[0] = -1.0
    solutions = _both_variants(bad, dom, 0.5, mesh)
    with pytest.raises(ValueError):
        extension_ordering_check(*solutions)


def test_extension_ordering_refuses_mismatched_solutions(embedded_interval):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(16, height, 2.0)
    navier, dirichlet = _both_variants(u, dom, 0.5, mesh)
    other_s = solve_extension(u, dom, "dirichlet", 0.25, mesh)
    other_mesh = solve_extension(u, dom, "dirichlet", 0.5, graded_mesh(16, 2.0 * height, 2.0))
    other_datum = solve_extension(2.0 * u, dom, "dirichlet", 0.5, mesh)
    twin = make_shape(box, "interval", (-8 * box.h, 8 * box.h))  # same mask, another domain
    other_domain = solve_extension(u, twin, "dirichlet", 0.5, mesh)
    for pair in [(dirichlet, navier), (navier, other_s), (navier, other_mesh),
                 (navier, other_datum), (navier, other_domain)]:
        with pytest.raises(ValueError):
            extension_ordering_check(*pair)


def test_solution_keeps_its_datum_read_only(unit_interval):
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    sol = solve_extension(u, dom, "navier", 0.5, graded_mesh(16, 8.0, 2.0))
    assert np.array_equal(sol.datum, u)
    assert not sol.datum.flags.writeable
    with pytest.raises(ValueError):
        sol.datum[0] = 1.0
    given = u.copy()
    u[0] = 1.0  # the solution holds a copy, not the caller's array
    assert np.array_equal(sol.datum, given)


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
        lam, c0 = _box_analysis(extend_by_zero(u, dom).values, dom.grid)
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


@pytest.mark.parametrize("layers", [4, 5, 64, 1024])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
@pytest.mark.parametrize("grading", ["default", 2.0])
def test_distinct_mode_sweep_matches_the_mode_major_sweep(grading, name, variant, s, layers):
    dom, u, lam, c0 = _modes(name, variant)
    mesh = graded_mesh(layers, 4.0, default_grading(s) if grading == "default" else grading)
    phi, inv, e_unit = _solve_modes(lam, mesh, s)
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
    sol = solve_extension(u, dom, variant, s, mesh)
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
    phi, _, _ = _solve_modes(lam, mesh, 0.5)
    sol = solve_extension(u, dom, variant, 0.5, mesh)
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
    coef = _mode_lattice(*_solve_modes(lam, mesh, s)[:2], c0)
    expected = np.linalg.solve(system, rhs)
    assert np.allclose(coef[j, 1:4], expected, rtol=1e-13, atol=0.0)
    assert coef[j, 0] == c0[j] and coef[j, 4] == 0.0


def _lattice_residual(lam, k, w_left, w_right, coef):
    """The residual check over whole lattices, as the Thomas sweep ran it: max|res| and its scale."""
    diag = (k[:-1] + k[1:])[:, None] + np.outer(w_right[:-1] + w_left[1:], lam)
    res = diag * coef[1:-1] - k[:-1, None] * coef[:-2] - k[1:, None] * coef[2:]
    return float(np.max(np.abs(res))), max(float(np.max(np.abs(diag)) * np.max(np.abs(coef))), 1.0)


@pytest.mark.parametrize("s", [0.25, 0.75])
@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_residual_check_catches_a_perturbed_coefficient(variant, s):
    _, _, lam, c0 = _modes("disk", variant)
    mesh = graded_mesh(64, 4.0, default_grading(s))
    mu, w_left, w_right = _cell_weights(mesh.y, s)
    k = mu / np.diff(mesh.y) ** 2
    diag = (k[:-1] + k[1:])[:, None] + np.outer(w_right[:-1] + w_left[1:], lam)
    coef = np.ascontiguousarray(_mode_major_sweep(lam, c0, mesh, s)[0].T)
    _residual_check(coef, lam, k, w_left, w_right)
    # row r of diag is interior layer r + 1; moving c there moves its residual by diag * delta
    r, j = np.unravel_index(np.argmax(np.abs(diag)), diag.shape)
    tol = 1e-10
    delta = 200.0 * tol * max(np.abs(diag).max() * np.abs(coef).max(), 1.0) / abs(diag[r, j])
    bad = coef.copy()
    bad[r + 1, j] += delta
    scale = max(np.abs(diag).max() * np.abs(bad).max(), 1.0)
    assert abs(diag[r, j]) * delta >= 100.0 * tol * scale
    with pytest.raises(RuntimeError, match="residual"):
        _residual_check(bad, lam, k, w_left, w_right)


@pytest.mark.parametrize("layers", [64, 1024])
@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_blocked_residual_is_the_lattice_residual_bit_for_bit(variant, layers):
    # the blocked pass reports the error and the tolerance of the whole-lattice check exactly
    _, _, lam, c0 = _modes("disk", variant)
    mesh = graded_mesh(layers, 4.0, 2.0)
    mu, w_left, w_right = _cell_weights(mesh.y, 0.5)
    k = mu / np.diff(mesh.y) ** 2
    coef = np.ascontiguousarray(_mode_major_sweep(lam, c0, mesh, 0.5)[0].T)
    bad = coef.copy()
    bad[1] *= 1.0 + 1e-6
    for lattice, tol in ((coef, 0.0), (bad, 1e-10)):
        err, scale = _lattice_residual(lam, k, w_left, w_right, lattice)
        assert err > tol * scale
        with pytest.raises(RuntimeError) as caught:
            _residual_check(lattice, lam, k, w_left, w_right, tol=tol)
        assert str(caught.value) == (f"extension solve residual {err!r} "
                                     f"exceeds tolerance {tol * scale!r}")


def test_residual_check_catches_a_nan_entry():
    # a NaN fails every comparison, so it must not be dropped by the running maxima
    _, _, lam, _ = _modes("disk", "dirichlet")
    mesh = graded_mesh(64, 4.0, 2.0)
    mu, w_left, w_right = _cell_weights(mesh.y, 0.5)
    k = mu / np.diff(mesh.y) ** 2
    phi = np.ascontiguousarray(_mode_major_sweep(lam, np.ones(lam.size), mesh, 0.5)[0].T)
    _residual_check(phi, lam, k, w_left, w_right)
    phi[10, 3] = np.nan
    with pytest.raises(RuntimeError, match="residual"):
        _residual_check(phi, lam, k, w_left, w_right)


@pytest.mark.parametrize("variant", ["navier", "dirichlet"])
def test_every_solve_checks_its_residual(monkeypatch, variant):
    dom, u, lam, _ = _modes("disk", variant)
    mesh = graded_mesh(16, 4.0, 2.0)
    seen = []

    def spy(phi, lam, *args, **kwargs):
        seen.append((phi.shape, lam.shape))
        return _residual_check(phi, lam, *args, **kwargs)

    monkeypatch.setattr(extension, "_residual_check", spy)
    solve_extension(u, dom, variant, 0.5, mesh)
    distinct = np.unique(lam).size
    assert seen == [((mesh.layers + 1, distinct), (distinct,))]
    if variant == "dirichlet":
        # the 2D box spectrum lam_a + lam_b is symmetric in (a, b)
        assert distinct < lam.size == dom.grid.size


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
        e_unit = _solve_modes(lam, graded_mesh(layers, 8.6, gamma), s)[2]
        errors.append(np.max(np.abs(e_unit / (_dtn_constant(s) * lam**s) - 1.0)))
    order = np.log(errors[0] / errors[1]) / np.log(4.0)
    assert order >= 1.8, f"errors {errors}, observed order {order:.2f}"


@pytest.mark.parametrize("layers", [16, 64])
def test_mode_solve_at_few_layers_peaks_below_two_and_a_half_profile_lattices(layers):
    # below 128 layers one block is the whole lattice: the profiles and the residual pass's
    # block buffer take one each; numpy's transient ufunc buffers must stay below half of one
    dom = make_shape(make_box(2, 1.0, 40), "disk", (0.5,))
    lam, mesh = dom.eigen.eigenvalues, graded_mesh(layers, 4.0, 2.0)
    _solve_modes(lam, mesh, 0.5)
    tracemalloc.start()
    try:
        phi = _solve_modes(lam, mesh, 0.5)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dom.node_count == 332
    assert peak < 2.5 * phi.nbytes, f"peak {peak / phi.nbytes:.2f} lattices"


def _solve_peak(u, dom, variant, mesh):
    """tracemalloc peak of one solve, after a first solve has warmed the caches and been dropped."""
    solve_extension(u, dom, variant, 0.5, mesh)
    tracemalloc.start()
    try:
        solve_extension(u, dom, variant, 0.5, mesh)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_dirichlet_solve_peak_memory_stays_within_one_lattice():
    # one lattice is N^2 x (M+1) float64, what a mode-major hand-off would take alone; the
    # solve holds the distinct profiles (803 of the 1,600 modes here) and Omega's rows only
    box = make_box(2, 1.0, 40)
    dom = make_shape(box, "disk", (0.5,))
    mesh = graded_mesh(1024, 8.0, 2.0)
    lattice = box.size * (mesh.layers + 1) * 8
    peak = _solve_peak(np.ones(dom.node_count), dom, "dirichlet", mesh)
    assert peak <= lattice, f"peak {peak / lattice:.2f} lattices"


@pytest.mark.parametrize("layers", [1024, 256])
def test_navier_solve_peak_memory_stays_within_three_omega_lattices(layers):
    # an Omega lattice is |Omega| x (M+1) float64: the profiles and the solution take one each;
    # at 256 layers |Omega| = 332 > M + 1, so an |Omega|^2 temporary would show
    box = make_box(2, 1.0, 40)
    dom = make_shape(box, "disk", (0.5,))
    mesh = graded_mesh(layers, 8.0, 2.0)
    lattice = dom.node_count * (mesh.layers + 1) * 8
    peak = _solve_peak(np.ones(dom.node_count), dom, "navier", mesh)
    assert peak <= 3 * lattice, f"peak {peak / lattice:.2f} lattices"


@pytest.mark.parametrize("s", [0.25, 0.75])
def test_navier_synthesis_of_degenerate_modes_matches_the_per_mode_product(s):
    # the closed-form basis of a square has pairs of equal eigenvalues lam_a + lam_b = lam_b + lam_a
    dom = make_shape(make_box(2, 1.0, 24), "square", (0.5,))
    q, lam = dom.eigen.eigenvectors, dom.eigen.eigenvalues
    assert np.unique(lam).size < lam.size
    u = np.random.default_rng(7).random(dom.node_count)
    mesh = graded_mesh(64, 4.0, 2.0)
    c0 = q.T @ u
    ref = q @ _mode_lattice(*_solve_modes(lam, mesh, s)[:2], c0)  # one product per mode
    values = solve_extension(u, dom, "navier", s, mesh).values
    assert np.all(np.abs(values - ref) <= 64.0 * EPS * np.abs(ref).max())
