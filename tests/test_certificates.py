"""Each claim's certificate against the reductions the CLI runners used to make of raw results.

The oracles below are those reductions, kept verbatim: ``np.min`` of the spectra's margins (their
largest |.| at s = 1), the ``argmin`` of N - D with its box indices, the least chain slack over
the trials, the sweep's ratio reductions and the Sobolev gaps.  Every certificate margin must
equal its oracle bitwise.  The swap mutations exchange N and D where the margins are made.
"""

import numpy as np
import pytest

from fraclab import operators
from fraclab.analysis import (SobolevSetup, dilation_sweep, extremal_function, rayleigh_quotient,
                              sobolev_check, sobolev_constant_closed_form)
from fraclab.cli import main, parse_config, run
from fraclab.domain import make_box, make_shape, random_connected_mask, random_nested_masks
from fraclab.operators import (compare_spectra, difference_operator, fourier_form, monotone_chain,
                               navier_operator, positivity_check)

S_VALUES = [0.05, 0.25, 0.5, 0.75, 0.95, 1.0]


def _random_mask():
    return random_connected_mask(make_box(2, 1.0, 12), 30, np.random.default_rng(11))


DOMAINS = {
    "interval": lambda: make_shape(make_box(1, 1.0, 127), "interval", (-0.25, 0.25)),
    "square": lambda: make_shape(make_box(2, 1.0, 24), "square", (0.5,)),
    "disk": lambda: make_shape(make_box(2, 1.0, 24), "disk", (0.5,)),
    "lshape": lambda: make_shape(make_box(2, 1.0, 24), "lshape", (1.0,)),
    "random": _random_mask,
}


def _bits(value):
    return float(value).hex()


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("s", S_VALUES)
def test_spectra_margin_is_the_least_eigenvalue_gap(name, s):
    dom = DOMAINS[name]()
    cert = compare_spectra(dom, s)
    rows = cert.rows
    assert np.array_equal(rows["lambda_navier"], dom.spectrum**s)
    margins = rows["lambda_navier"] - rows["lambda_dirichlet"]
    assert np.array_equal(rows["margin"], margins)
    assert rows["j"].tolist() == list(range(1, dom.node_count + 1)) and set(rows["s"]) == {s}
    if s == 1.0:
        oracle = {"coincidence": np.max(np.abs(margins))}
    else:
        oracle = {"eigenvalue_domination": np.min(margins)}
    assert list(cert.margins) == list(oracle)
    assert [_bits(m) for m in cert.margins.values()] == [_bits(m) for m in oracle.values()]


@pytest.mark.parametrize("name", DOMAINS)
@pytest.mark.parametrize("s", S_VALUES)
def test_positivity_margin_is_the_least_entry_of_the_difference(name, s):
    dom = DOMAINS[name]()
    cert = positivity_check(dom, s)
    diff = difference_operator(dom, s)
    i, j = np.unravel_index(np.argmin(diff), diff.shape)
    assert cert.rows.tolist() == [(s, diff[i, j], dom.indices[i], dom.indices[j])]
    assert list(cert.margins) == ["positivity_preserving"]
    assert _bits(cert.margins["positivity_preserving"]) == _bits(diff[i, j])


@pytest.mark.parametrize("dim, nodes, grow", [(1, 64, 6), (2, 12, 10)])
@pytest.mark.parametrize("s", S_VALUES)
def test_chain_margin_is_the_least_slack_over_the_trials(dim, nodes, grow, s):
    box, trials = make_box(dim, 1.0, nodes), 6
    cert = monotone_chain(box, s, trials, np.random.default_rng(5))
    rng, rows, worst = np.random.default_rng(5), [], np.inf
    for trial in range(trials):  # the draws and forms of the trial loop, in its order
        inner_size = int(rng.integers(2, grow + 1))
        outer_size = inner_size + int(rng.integers(1, grow + 2))
        inner, outer = random_nested_masks(box, inner_size, outer_size, rng)
        u = rng.standard_normal(inner.node_count)
        q_n_inner = operators._navier_form(inner, s, u)
        v = np.zeros(outer.node_count)
        v[np.searchsorted(outer.indices, inner.indices)] = u
        q_n_outer = operators._navier_form(outer, s, v)
        q_d = operators._form(operators._restricted_matrix(inner, s), u, box)
        slack_lo, slack_hi = q_n_outer - q_d, q_n_inner - q_n_outer
        rows.append((s, trial, q_d, q_n_outer, q_n_inner, slack_lo, slack_hi))
        worst = min(worst, slack_lo, slack_hi)
    assert cert.rows.tolist() == rows
    assert list(cert.margins) == ["monotone_chain"]
    assert _bits(cert.margins["monotone_chain"]) == _bits(worst)


SWEEP_DOMAINS = {
    "interval": (1, 4.0, 255, "interval", (-0.5, 0.5)),
    "square": (2, 2.0, 31, "square", (0.5,)),
    "disk": (2, 2.0, 31, "disk", (0.5,)),
    "lshape": (2, 2.0, 31, "lshape", (1.0,)),
}


@pytest.mark.parametrize("name", SWEEP_DOMAINS)
def test_sweep_margins_are_the_ratio_reductions(name):
    dim, halfwidth, nodes, shape, params = SWEEP_DOMAINS[name]
    dom = make_shape(make_box(dim, halfwidth, nodes), shape, params)
    u = np.abs(dom.eigen.eigenvectors[:, 0])
    alphas = [1.0, 1.5, 2.0]
    certs = dilation_sweep(u, dom, S_VALUES, alphas)
    assert len(certs) == len(S_VALUES)
    for s, cert in zip(S_VALUES, certs):
        assert [row[:2] for row in cert.rows.tolist()] == [(s, a) for a in alphas]
        ratios = np.array([q_n / q_d for q_n, q_d in cert.rows[["q_navier", "q_dirichlet"]]])
        assert np.array_equal(cert.rows["ratio"], ratios)
        oracle = {"ratio_lower_bound": ratios.min() - 1.0, "final_ratio": ratios[-1]}
        if s == 1.0:
            oracle["ratio_coincidence"] = np.max(np.abs(ratios - 1.0))
        else:
            oracle["ratio_decreasing"] = np.min(ratios[:-1] - ratios[1:])
        assert list(cert.margins) == list(oracle)
        assert [_bits(m) for m in cert.margins.values()] == [_bits(m) for m in oracle.values()]


def _quotient(dim, s, halfwidth, nodes, pad):
    grid = make_box(dim, halfwidth, nodes)
    u = extremal_function(grid, s)
    fft_box = make_box(dim, pad * halfwidth, pad * (nodes + 1) - 1)
    form = fourier_form(u.reshape(grid.shape), fft_box, s)
    return rayleigh_quotient(form, u, grid, SobolevSetup(n=dim, s=s).critical_exponent)


@pytest.mark.parametrize("dim, nodes, s", [(dim, nodes, s) for dim, nodes in ((1, 63), (2, 15))
                                            for s in S_VALUES if dim > 2.0 * s])
def test_sobolev_margins_are_the_gaps(dim, nodes, s):
    cert = sobolev_check(dim, s, 1.0, nodes, 2)
    reference = sobolev_constant_closed_form(dim, s)
    q1, q2 = _quotient(dim, s, 1.0, nodes, 2), _quotient(dim, s, 2.0, 2 * (nodes + 1) - 1, 2)
    gap1, gap2 = abs(q1 - reference) / reference, abs(q2 - reference) / reference
    assert cert.rows.tolist() == [("closed_form", s, dim, reference, reference, 0.0),
                                  ("quotient", s, 1.0, q1, reference, gap1),
                                  ("quotient_doubled", s, 2.0, q2, reference, gap2)]
    assert cert.margins == {"quotient_near_constant": gap1, "gap_shrinks_with_box": gap1 - gap2}
    assert [_bits(m) for m in cert.margins.values()] == [_bits(gap1), _bits(gap1 - gap2)]


# --------------------------------------------------------------- swap mutations

def _fails_at_every_exponent(tmp_path, capsys, kind, dim, check):
    path = tmp_path / "defaults.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\n")
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 1
    report = run(parse_config(path.read_text()), kind=kind)
    assert [c.name for c in report.checks] == [f"{check}[s={s:g}]" for s in (0.25, 0.5, 0.75)]
    assert not any(c.passed for c in report.checks)
    assert all(c.margin < 0.0 for c in report.checks)
    assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()[:-1]] == [
        f"FAIL {c.name}" for c in report.checks]


@pytest.mark.parametrize("dim", [1, 2])
def test_domination_fails_with_the_spectra_swapped(monkeypatch, tmp_path, capsys, dim):
    original = operators._spectra_certificate
    monkeypatch.setattr(operators, "_spectra_certificate",
                        lambda s, navier, dirichlet: original(s, dirichlet, navier))
    _fails_at_every_exponent(tmp_path, capsys, "spectra", dim, "eigenvalue_domination")


@pytest.mark.parametrize("dim", [1, 2])
def test_chain_fails_with_the_operators_swapped(monkeypatch, tmp_path, capsys, dim):
    navier, restricted = operators.navier_operator, operators._restricted_matrix
    monkeypatch.setattr(operators, "_navier_form",  # D's form where N's is read
                        lambda domain, s, v: operators._form(restricted(domain, s), v, domain.grid))
    monkeypatch.setattr(operators, "_restricted_matrix", navier)
    _fails_at_every_exponent(tmp_path, capsys, "monotonicity", dim, "monotone_chain")
