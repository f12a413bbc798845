"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL line
and wall time of every criterion.  Tolerances are pinned here and nowhere
else; random inputs are generated from fixed seeds so reruns are identical.
"""

import time

import numpy as np
import pytest

from fraclab.analysis import (
    dilation_sweep,
    extremal_function,
    gamma,
    minimize_quotient,
    rayleigh_quotient,
    sobolev_constant_closed_form,
)
from fraclab.cli import parse_config, run, write_report
from fraclab.domain import (
    dilate,
    make_box,
    make_shape,
    random_connected_mask,
    random_nested_masks,
)
from fraclab.extension import compare_extensions, default_grading, extension_constant, graded_mesh
from fraclab.linalg import eigenvalues
from fraclab.operators import (
    compare_spectra,
    difference_operator,
    fourier_form,
    monotonicity_check,
    navier_operator,
)

S_GRID = np.round(np.arange(0.1, 1.0, 0.1), 1)


def _verdict(number: int, name: str, ok: bool, detail: str, elapsed: float) -> None:
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {state} {name}: {detail} ({elapsed:.1f}s)")


def centered_interval(box, nodes):
    return make_shape(box, "interval", (-nodes / 2 * box.h, nodes / 2 * box.h))


def ground_state(domain):
    v = domain.eigen.eigenvectors[:, 0]
    if v.sum() < 0:
        v = -v
    return np.maximum(v, 0.0)


def test_criterion_1_eigenvalue_domination():
    start = time.perf_counter()
    box1 = make_box(1, 1.0, 128)
    omega1 = centered_interval(box1, 16)
    box2 = make_box(2, 1.0, 32)
    omega2 = make_shape(box2, "square", (8 * box2.h,))
    worst_margin = np.inf
    worst_coincidence = 0.0
    for omega, box in ((omega1, box1), (omega2, box2)):
        for s in S_GRID:
            comp = compare_spectra(omega, float(s))
            worst_margin = min(worst_margin, float(np.min(comp.rows["margin"])))
        comp1 = compare_spectra(omega, 1.0)
        worst_coincidence = max(worst_coincidence, float(np.max(np.abs(comp1.rows["margin"]))))
    elapsed = time.perf_counter() - start
    ok = worst_margin > 1e-9 and worst_coincidence <= 1e-10 and elapsed <= 120.0
    _verdict(1, "eigenvalue domination",
             ok, f"min margin {worst_margin:.3e} (> 1e-9), "
                 f"s=1 coincidence {worst_coincidence:.1e} (<= 1e-10)", elapsed)
    assert worst_margin > 1e-9
    assert worst_coincidence <= 1e-10
    assert elapsed <= 120.0


def test_criterion_2_form_domination_exactness():
    start = time.perf_counter()
    # mask sizes are capped where the strict margin stays resolvable in
    # double precision (the true minimum decays geometrically with thickness)
    rng = np.random.default_rng(20250810)
    settings = {1: (make_box(1, 1.0, 48), 2, 7), 2: (make_box(2, 1.0, 12), 3, 12)}
    worst = np.inf
    for dim, (box, lo, hi) in settings.items():
        for _ in range(50):
            size = int(rng.integers(lo, hi + 1))
            omega = random_connected_mask(box, size, rng)
            for s in (0.25, 0.5, 0.75):
                worst = min(worst, eigenvalues(difference_operator(omega, s))[0])
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10 and worst > 0.0 and elapsed <= 300.0
    _verdict(2, "form domination (difference PSD, strict for proper masks)",
             ok, f"min eigenvalue over 100 masks x 3 exponents: {worst:.3e}", elapsed)
    assert worst >= -1e-10
    assert worst > 0.0, "strict positivity certified for the sampled mask sizes"
    assert elapsed <= 300.0


def test_criterion_3_positivity_preservation():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    box = make_box(1, 1.0, 128)
    omega = centered_interval(box, 16)
    findings = []
    worst = np.inf
    for s in (0.25, 0.5, 0.75):
        diff = difference_operator(omega, s)
        for trial in range(100):
            u = rng.random(omega.node_count)
            out = diff @ u
            mn = float(out.min())
            worst = min(worst, mn)
            if mn < 0.0:
                findings.append((s, trial, mn))
    elapsed = time.perf_counter() - start
    for s, trial, mn in findings:
        print(f"    finding: negative entry {mn:.3e} at s={s}, trial {trial}")
    ok = worst >= -1e-8
    _verdict(3, "positivity preservation on nonnegative inputs",
             ok, f"min entry over 300 applications: {worst:.3e} "
                 f"({len(findings)} findings logged)", elapsed)
    assert worst >= -1e-8


def test_criterion_4_domain_monotonicity_chain():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = np.inf
    for dim, box_nodes, hi in ((1, 64, 8), (2, 12, 10)):
        box = make_box(dim, 1.0, box_nodes)
        for _ in range(25):
            inner_size = int(rng.integers(2, hi))
            outer_size = inner_size + int(rng.integers(1, hi))
            inner, outer = random_nested_masks(box, inner_size, outer_size, rng)
            u = rng.standard_normal(inner.node_count)
            s = float(rng.choice([0.25, 0.5, 0.75]))
            row = monotonicity_check(inner, outer, s, u).rows[0]
            q_d, q_outer, q_inner = row["q_dirichlet"], row["q_navier_outer"], row["q_navier_inner"]
            worst = min(worst, q_outer - q_d, q_inner - q_outer)
    elapsed = time.perf_counter() - start
    ok = worst >= -1e-10
    _verdict(4, "domain monotonicity chain", ok,
             f"min slack over 50 nested pairs: {worst:.3e} (>= -1e-10)", elapsed)
    assert worst >= -1e-10


def test_criterion_5_dilation_limit():
    start = time.perf_counter()
    box = make_box(1, 24.0, 383)
    omega = make_shape(box, "interval", (-1.0, 1.0))
    u = ground_state(omega)
    (sweep,) = dilation_sweep(u, omega, [0.5], [1.0, 2.0, 4.0, 8.0, 16.0])
    ratios = list(sweep.rows["ratio"])
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    elapsed = time.perf_counter() - start
    ok = decreasing and ratios[-1] <= 1.05 and min(ratios) >= 1.0 - 1e-10
    _verdict(5, "dilation limit", ok,
             "ratios " + " > ".join(f"{r:.5f}" for r in ratios) + " ; final <= 1.05", elapsed)
    assert min(ratios) >= 1.0 - 1e-10
    assert decreasing
    assert ratios[-1] <= 1.05


def test_criterion_6_extension_energy_identity():
    start = time.perf_counter()
    grid = make_box(1, 0.5, 127)
    omega = make_shape(grid, "interval", (-0.5, 0.5))
    x = grid.axis_nodes() + 0.5
    u = np.sin(np.pi * x)
    target = np.pi / 2.0
    gaps = {}
    values = {}
    for layers in (32, 128):
        mesh = graded_mesh(layers, 8.0, default_grading(0.5))
        chk = compare_extensions(u, omega, 0.5, mesh)
        gaps[layers] = chk.margins["energy_identity"]
        values[layers] = chk.rows[0]
    chk = values[128]
    near_form = abs(chk["form_value"] - target) <= 0.03 * target
    near_energy = abs(chk["energy_value"] - target) <= 0.03 * target
    improvement = gaps[32] / gaps[128]
    elapsed = time.perf_counter() - start
    ok = near_form and near_energy and improvement >= 1.5 and elapsed <= 60.0
    _verdict(6, "extension energy identity at s=1/2", ok,
             f"form {chk['form_value']:.6f}, energy side {chk['energy_value']:.6f} "
             f"(target {target:.6f}); gap {gaps[32]:.2e} -> {gaps[128]:.2e} "
             f"(x{improvement:.1f})", elapsed)
    assert near_form and near_energy
    assert improvement >= 1.5
    assert elapsed <= 60.0


def test_criterion_7_extension_ordering():
    start = time.perf_counter()
    box = make_box(1, 1.0, 128)
    omega = centered_interval(box, 16)
    u = ground_state(omega)
    height = 8.0 * (omega.node_count + 1) * box.h
    worst_lattice = np.inf
    worst_interior = np.inf
    for s in (0.25, 0.5, 0.75):
        mesh = graded_mesh(64, height, default_grading(s))
        chk = compare_extensions(u, omega, s, mesh)
        worst_lattice = min(worst_lattice, chk.margins["ordering_lattice"])
        worst_interior = min(worst_interior, chk.margins["ordering_interior"])
    elapsed = time.perf_counter() - start
    ok = worst_lattice >= -1e-8 and worst_interior > 0.0
    _verdict(7, "extension ordering w_dirichlet >= w_navier", ok,
             f"lattice min {worst_lattice:.2e} (>= -1e-8), "
             f"interior min {worst_interior:.2e} (> 0)", elapsed)
    assert worst_lattice >= -1e-8
    assert worst_interior > 0.0


def test_criterion_8_sobolev_constant():
    start = time.perf_counter()
    s = 0.25
    target = sobolev_constant_closed_form(1, s)
    assert target == pytest.approx(0.8472130847939792, rel=1e-12)

    def quotient(halfwidth, nodes):
        grid = make_box(1, halfwidth, nodes)
        u = extremal_function(grid, s)
        fft_box = make_box(1, 2 * halfwidth, 2 * (nodes + 1) - 1)
        return rayleigh_quotient(fourier_form(u, fft_box, s), u, grid, 4.0)

    q1 = quotient(40.0, 2047)
    q2 = quotient(80.0, 4095)
    gap1 = abs(q1 - target) / target
    gap2 = abs(q2 - target) / target
    elapsed = time.perf_counter() - start
    ok = gap1 <= 0.10 and gap2 < gap1 and elapsed <= 180.0
    _verdict(8, "critical-embedding constant from the optimizer profile", ok,
             f"closed form {target:.4f}; quotient {q1:.4f} (gap {gap1:.2%}), "
             f"doubled box {q2:.4f} (gap {gap2:.2%})", elapsed)
    assert gap1 <= 0.10
    assert gap2 < gap1
    assert elapsed <= 180.0


def test_criterion_9_spectral_constant_decreases_toward_closed_form():
    start = time.perf_counter()
    s = 0.25
    target = sobolev_constant_closed_form(1, s)
    box = make_box(1, 10.0, 649)  # h close to 1/32, room for alpha = 8
    omega = make_shape(box, "interval", (-1.0, 1.0))
    values = []
    for alpha in (1.0, 2.0, 4.0, 8.0):
        dom = dilate(omega, alpha)
        op = navier_operator(dom, s)
        seed = extremal_function(dom.grid, s)[dom.mask]
        res = minimize_quotient(op, dom.eigen.eigenvalues[-1] ** s, dom, 4.0, seed, max_iter=3000,
                                tol=1e-10)
        values.append(res.value)
    nonincreasing = all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    final_gap = abs(values[-1] - target) / target
    elapsed = time.perf_counter() - start
    ok = nonincreasing and final_gap <= 0.15
    _verdict(9, "spectral-form constants decrease toward the closed form", ok,
             "values " + " >= ".join(f"{v:.4f}" for v in values)
             + f"; final gap {final_gap:.2%} (<= 15%)", elapsed)
    assert nonincreasing
    assert final_gap <= 0.15


def test_criterion_10_infrastructure(tmp_path):
    start = time.perf_counter()
    # byte-identical reports for identical config + seed
    cfg = parse_config(
        "kind = spectra\nseed = 11\ndim = 1\nshape = interval:-0.125,0.125\n"
        "box.nodes = 64\ns.values = 0.5,1.0\n"
    )
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    write_report(run(cfg), d1)
    write_report(run(cfg), d2)
    identical = all(
        (d1 / name).read_bytes() == (d2 / name).read_bytes()
        for name in ("spectra.csv", "spectra.json")
    )
    # gamma recurrence at 1e-12 across [0.5, 20]
    xs = np.linspace(0.5, 20.0, 391)
    rec = max(abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0) for x in xs)
    # extension constant pinned at the symmetric exponent
    c_half_err = abs(extension_constant(0.5) - 1.0)
    elapsed = time.perf_counter() - start
    ok = identical and rec <= 1e-12 and c_half_err <= 1e-12
    _verdict(10, "infrastructure (determinism, gamma recurrence, C at s=1/2)", ok,
             f"reports identical: {identical}; recurrence residual {rec:.1e}; "
             f"|C(1/2) - 1| = {c_half_err:.1e}", elapsed)
    assert identical
    assert rec <= 1e-12
    assert c_half_err <= 1e-12
