import math
import weakref

import numpy as np
import pytest

from fraclab import analysis
from fraclab.analysis import (
    SobolevSetup,
    dilation_sweep,
    extremal_function,
    gamma,
    lp_norm,
    minimize_quotient,
    rayleigh_quotient,
    sobolev_constant_closed_form,
)
from fraclab.domain import dilate, make_box, make_shape
from fraclab.extension import extension_constant
from fraclab.linalg import eigendecompose
from fraclab.operators import _form, fourier_form, navier_operator


def test_gamma_classical_values():
    assert gamma(1.0) == pytest.approx(1.0, abs=1e-15)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)


def test_gamma_recurrence_oracle():
    # build Gamma(5.5) by the recurrence x Gamma(x) starting from Gamma(0.5)
    value = gamma(0.5)
    x = 0.5
    while x < 5.4:
        value *= x
        x += 1.0
    assert gamma(5.5) == pytest.approx(value, rel=1e-12)


def test_gamma_recurrence_property_on_range():
    for x in np.linspace(0.5, 20.0, 79):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            gamma(bad)


def test_extension_constant_half_is_one():
    assert extension_constant(0.5) == pytest.approx(1.0, abs=1e-12)


def test_extension_constant_quarter():
    # 4^(1/4) Gamma(5/4)/Gamma(3/4), evaluated through the gamma oracle
    assert extension_constant(0.25) == pytest.approx(1.0460496200531018, rel=1e-12)


def test_extension_constant_continuity_at_half():
    gaps = [abs(extension_constant(0.5 + eps) - 1.0) for eps in (1e-3, 1e-4)]
    assert gaps[1] < gaps[0]


def test_extension_constant_range_errors():
    for bad in (0.0, 1.0, -0.25):
        with pytest.raises(ValueError):
            extension_constant(bad)


def test_sobolev_setup_and_critical_exponent():
    setup = SobolevSetup(n=1, s=0.25)
    assert setup.critical_exponent == pytest.approx(4.0)
    with pytest.raises(ValueError):
        SobolevSetup(n=1, s=0.5)  # n = 2s excluded


def test_sobolev_constant_closed_form_value():
    # frozen from the gamma-oracle evaluation of the closed form
    assert sobolev_constant_closed_form(1, 0.25) == pytest.approx(0.8472130847939792, rel=1e-12)


def test_sobolev_constant_rejects_critical_dimension():
    with pytest.raises(ValueError):
        sobolev_constant_closed_form(1, 0.5)


def test_extremal_function_values():
    g = make_box(1, 40.0, 79)  # h = 1, integer nodes
    u = extremal_function(g, 0.25)
    x = g.axis_nodes()
    i3 = int(np.argmin(np.abs(x - 3.0)))
    assert x[i3] == pytest.approx(3.0, abs=1e-12)
    # U(3) = (1+9)^(-1/4)
    assert u[i3] == pytest.approx(0.5623413251903491, rel=1e-12)
    # even symmetry on the symmetric grid, peak value at most U(0) = 1
    assert np.allclose(u, u[::-1], atol=1e-15)
    assert u.max() <= 1.0


def test_extremal_function_at_origin_node():
    g = make_box(1, 1.0, 3)  # odd N puts a node at 0
    u = extremal_function(g, 0.25)
    assert u[1] == pytest.approx(1.0, abs=1e-15)


def test_lp_norm_constant_function():
    g = make_box(1, 1.0, 7)
    om = make_shape(g, "interval", (-0.3, 0.3))
    v = om.mask.astype(float)  # one on Omega, zero off it
    m = om.node_count
    assert lp_norm(v, g, 2.0) == pytest.approx(math.sqrt(m * g.h), rel=1e-12)
    assert lp_norm(np.zeros(7), g, 2.0) == 0.0
    with pytest.raises(ValueError):
        lp_norm(np.ones(7), g, 0.5)


def test_lp_norm_of_extremal_matches_arctan_integral():
    # integral of (1+x^2)^(-1) over [-40, 40] is 2 arctan(40); the discrete
    # fourth power sum must stay within 2% of pi (truncated-box value)
    g = make_box(1, 40.0, 2047)
    u = extremal_function(g, 0.25)
    fourth = lp_norm(u, g, 4.0) ** 4
    assert abs(fourth - math.pi) <= 0.02 * math.pi
    assert fourth == pytest.approx(2.0 * math.atan(40.0), rel=5e-3)


def test_rayleigh_quotient_basics():
    g = make_box(1, 1.0, 7)
    u = np.ones(7)
    denom = lp_norm(u, g, 2.0) ** 2
    assert rayleigh_quotient(2.0 * denom, u, g, 2.0) == pytest.approx(2.0)
    with pytest.raises(ZeroDivisionError):
        rayleigh_quotient(1.0, np.zeros(7), g, 2.0)


def test_rayleigh_quotient_scale_invariance():
    g = make_box(1, 1.0, 31)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(31)
    om = make_shape(g, "interval", (-1.0, 1.0))
    op = navier_operator(om, 0.5)
    q1 = rayleigh_quotient(_form(op, u, g), u, g, 4.0)
    q2 = rayleigh_quotient(_form(op, 2.0 * u, g), 2.0 * u, g, 4.0)
    assert q1 == pytest.approx(q2, rel=1e-12)


def test_extremal_quotient_close_to_constant():
    # sampled optimizer profile, multiplier form on the doubled box
    s = 0.25
    target = sobolev_constant_closed_form(1, s)
    g = make_box(1, 40.0, 2047)
    u = extremal_function(g, s)
    fft_box = make_box(1, 80.0, 2 * 2048 - 1)
    q = rayleigh_quotient(fourier_form(u, fft_box, s), u, g, 4.0)
    assert abs(q - target) <= 0.10 * target


def test_minimize_quotient_p2_recovers_smallest_eigenvalue():
    box = make_box(1, 1.0, 63)
    om = make_shape(box, "interval", (-0.5, 0.5))
    op, lam = navier_operator(om, 0.5), om.eigen.eigenvalues**0.5
    rng = np.random.default_rng(1)
    res = minimize_quotient(op, lam[-1], om, 2.0, rng.standard_normal(om.node_count),
                            max_iter=2000, tol=1e-12)
    # for p = 2 the infimum is the smallest eigenvalue (h factors cancel)
    assert res.value == pytest.approx(lam[0], rel=1e-6)
    assert res.converged


def test_minimize_quotient_monotone_and_bounded_by_seed():
    box = make_box(1, 2.0, 127)
    om = make_shape(box, "interval", (-1.0, 1.0))
    op = navier_operator(om, 0.25)
    rng = np.random.default_rng(2)
    seed = np.abs(rng.standard_normal(om.node_count)) + 0.1
    start = rayleigh_quotient(_form(op, seed, box), seed, box, 4.0)
    res = minimize_quotient(op, om.eigen.eigenvalues[-1] ** 0.25, om, 4.0, seed, max_iter=400)
    assert res.value <= start + 1e-12
    assert res.iterations <= 400
    # minimizer is reported on Omega, normalized in the critical norm
    assert res.minimizer.shape == (om.node_count,)
    assert lp_norm(res.minimizer, box, 4.0) == pytest.approx(1.0, rel=1e-10)
    assert res.value == pytest.approx(_form(op, res.minimizer, box), rel=1e-10)


def test_minimize_quotient_upper_bounds_finer_run():
    # a coarse run must not undershoot the value a finer run reaches
    box = make_box(1, 2.0, 127)
    om = make_shape(box, "interval", (-1.0, 1.0))
    op, largest = navier_operator(om, 0.25), om.eigen.eigenvalues[-1] ** 0.25
    seed = np.abs(np.random.default_rng(9).standard_normal(om.node_count)) + 0.1
    coarse = minimize_quotient(op, largest, om, 4.0, seed, max_iter=40, tol=1e-6)
    fine = minimize_quotient(op, largest, om, 4.0, seed, max_iter=4000, tol=1e-12)
    assert coarse.value >= fine.value - 1e-12


def test_minimize_quotient_converges_immediately_from_minimizer():
    box = make_box(1, 1.0, 63)
    om = make_shape(box, "interval", (-0.5, 0.5))
    op = navier_operator(om, 0.5)
    ground = om.eigen.eigenvectors[:, 0]
    res = minimize_quotient(op, om.eigen.eigenvalues[-1] ** 0.5, om, 2.0, ground, max_iter=50)
    assert res.converged
    assert res.iterations <= 1


def test_minimize_quotient_input_validation():
    box = make_box(1, 1.0, 31)
    om = make_shape(box, "interval", (-0.5, 0.5))
    op, n = navier_operator(om, 0.5), om.node_count
    largest = eigendecompose(op).eigenvalues[-1]
    with pytest.raises(ValueError):
        minimize_quotient(op, largest, om, 2.0, np.zeros(n))
    with pytest.raises(ValueError):
        minimize_quotient(op, largest, om, 1.5, np.ones(n))
    with pytest.raises(ValueError, match="operator size"):
        minimize_quotient(op[1:, 1:], largest, om, 2.0, np.ones(n))


def test_dilation_sweep_single_alpha_ratio_at_least_one():
    box = make_box(1, 8.0, 255)
    om = make_shape(box, "interval", (-1.0, 1.0))
    u = np.abs(om.eigen.eigenvectors[:, 0])
    (sweep,) = dilation_sweep(u, om, [0.5], [1.0])
    assert len(sweep.rows) == 1
    assert sweep.rows[0]["ratio"] >= 1.0 - 1e-10


def test_dilation_sweep_s1_ratios_are_one():
    box = make_box(1, 8.0, 255)
    om = make_shape(box, "interval", (-1.0, 1.0))
    u = np.abs(om.eigen.eigenvectors[:, 0])
    for row in dilation_sweep(u, om, [1.0], [1.0, 2.0, 4.0])[0].rows:
        assert row["ratio"] == pytest.approx(1.0, abs=1e-12)


def test_dilation_sweep_over_exponents_is_the_single_exponent_sweeps_in_turn():
    box = make_box(1, 8.0, 255)
    om = make_shape(box, "interval", (-1.0, 1.0))
    u = np.abs(om.eigen.eigenvectors[:, 0])
    both = dilation_sweep(u, om, [0.5, 1.0], [1.0, 2.0, 4.0])
    singles = dilation_sweep(u, om, [0.5], [1.0, 2.0, 4.0]) + dilation_sweep(u, om, [1.0], [1.0, 2.0, 4.0])
    assert [c.rows.tolist() for c in both] == [c.rows.tolist() for c in singles]
    assert [c.margins for c in both] == [c.margins for c in singles]
    assert [(r["s"], r["alpha"]) for c in both for r in c.rows] == [(s, a) for s in (0.5, 1.0) for a in (1.0, 2.0, 4.0)]


def test_dilation_sweep_ratios_decrease_toward_one():
    box = make_box(1, 24.0, 383)
    om = make_shape(box, "interval", (-1.0, 1.0))
    u = np.abs(om.eigen.eigenvectors[:, 0])
    (sweep,) = dilation_sweep(u, om, [0.5], [1.0, 2.0, 4.0, 8.0, 16.0])
    ratios = list(sweep.rows["ratio"])
    assert all(r >= 1.0 - 1e-10 for r in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] <= 1.05


def test_dilation_sweep_capacity_error():
    box = make_box(1, 4.0, 127)
    om = make_shape(box, "interval", (-1.0, 1.0))
    u = np.ones(om.node_count)
    with pytest.raises(ValueError):
        dilation_sweep(u, om, [0.5], [1.0, 16.0])
    with pytest.raises(ValueError):
        dilation_sweep(u, om, [0.5], [2.0, 2.0])  # not increasing


@pytest.mark.parametrize("s", [0.0, 1.5])
def test_dilation_sweep_refuses_an_exponent_outside_0_1(s):
    om = make_shape(make_box(1, 4.0, 127), "interval", (-1.0, 1.0))
    with pytest.raises(ValueError, match="fractional exponent must lie in"):
        dilation_sweep(np.ones(om.node_count), om, [0.5, s], [1.0, 2.0])


def test_dilation_sweep_holds_one_dilate_at_a_time(monkeypatch):
    om = make_shape(make_box(2, 2.0, 31), "disk", (0.5,))
    made, alive, navier_form = [], [], analysis._navier_form

    def tracked(domain, alpha):
        made.append(weakref.ref(dil := dilate(domain, alpha)))
        return dil

    def counted(domain, s, v):
        alive.append(sum(ref() is not None for ref in made))
        return navier_form(domain, s, v)

    monkeypatch.setattr(analysis, "dilate", tracked)
    monkeypatch.setattr(analysis, "_navier_form", counted)
    analysis.dilation_sweep(np.abs(om.eigen.eigenvectors[:, 0]), om, [0.5, 1.0], [1.0, 1.5, 2.0])
    assert alive == [1] * 6
