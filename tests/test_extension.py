"""Extension-solver checks: closed forms, energy identity, ordering, traces."""

import numpy as np
import pytest

from fraclab.analysis import extension_constant
from fraclab.domain import make_box, make_shape
from fraclab.extension import (
    ExtensionMesh,
    default_grading,
    energy_identity_check,
    extension_ordering_check,
    graded_mesh,
    solve_extension,
    trace_limit,
)
from fraclab.operators import (
    assemble_laplacian,
    difference_operator,
    dirichlet_operator,
    navier_operator,
)


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
    u = np.abs(assemble_laplacian(dom).eigen.eigenvectors[:, 0])
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
    assert default_grading(0.5) == 2.0
    assert default_grading(0.25) == 2.0
    assert default_grading(0.75) == pytest.approx(4.0)


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
    assert np.allclose(trace_limit(sol), 0.0)


def test_trace_limit_half_exponent_closed_form(unit_interval):
    # w = sin(pi x) e^(-pi y) has boundary-layer coefficient -pi sin(pi x)
    dom, x = unit_interval
    u = np.sin(np.pi * x)
    mesh = graded_mesh(128, 8.0, 2.0)
    sol = solve_extension(u, dom, "navier", 0.5, mesh)
    got = trace_limit(sol)
    target = np.pi * np.sin(np.pi * x)
    assert np.linalg.norm(got - target) / np.linalg.norm(target) <= 0.05


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_trace_limit_matches_matrix_operators(embedded_interval, s):
    box, dom, u, height = embedded_interval
    mesh = graded_mesh(96, height, default_grading(s))
    sol_d = solve_extension(u, dom, "dirichlet", s, mesh)
    sol_n = solve_extension(u, dom, "navier", s, mesh)
    trace_d = trace_limit(sol_d)
    trace_n = trace_limit(sol_n)
    ref_d = dirichlet_operator(dom, box, s).apply(u)
    ref_n = navier_operator(dom, s).apply(u)
    assert np.linalg.norm(trace_d - ref_d) / np.linalg.norm(ref_d) <= 0.10
    assert np.linalg.norm(trace_n - ref_n) / np.linalg.norm(ref_n) <= 0.10
    # the fitted boundary-layer difference recovers the gap operator
    gap_ref = difference_operator(dom, box, s).apply(u)
    gap_fit = trace_n - trace_d
    assert np.linalg.norm(gap_fit - gap_ref) / np.linalg.norm(gap_ref) <= 0.15


def test_trace_limit_needs_three_layers(unit_interval):
    dom, x = unit_interval
    mesh = graded_mesh(8, 8.0, 2.0)
    u = np.sin(np.pi * x)
    sol = solve_extension(u, dom, "navier", 0.5, mesh)
    with pytest.raises(ValueError):
        trace_limit(sol, fit_layers=2)


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
