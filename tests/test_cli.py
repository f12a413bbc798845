"""Config parsing, experiment runs, report writing, determinism, exit codes."""

import gc
import json
import os
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import fraclab
from fraclab import cli, domain, extension, linalg, operators
from fraclab.cli import (
    Check,
    ConfigError,
    ExperimentConfig,
    ExperimentReport,
    main,
    parse_config,
    run,
    write_report,
)
from fraclab.domain import make_shape

MINIMAL = """
kind = spectra
seed = 7
dim = 1
shape = interval:-0.125,0.125
box.nodes = 64
s.values = 0.5,1.0
"""


def test_parse_minimal_fills_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg.kind == "spectra"
    assert cfg.seed == 7
    assert cfg.box_halfwidth == 1.0  # default
    assert cfg.trials == 50  # default
    assert cfg.tol_margin == 1e-9


def test_parse_rejects_out_of_range_exponent():
    with pytest.raises(ConfigError, match="s.values"):
        parse_config("seed = 1\ns.values = 1.5")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key 'spam'"):
        parse_config("seed = 1\nspam = 2")


def test_parse_requires_seed():
    with pytest.raises(ConfigError, match="seed"):
        parse_config("dim = 1")


@pytest.mark.parametrize("kind", cli.EXPERIMENT_KINDS)
def test_negative_seed_is_a_usage_error(tmp_path, capsys, kind):
    # numpy's generators take no negative seed; 0 is a seed like any other
    assert parse_config("seed = 0").seed == 0
    path = tmp_path / "negative.cfg"
    path.write_text("seed = -1\n")
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{kind}.*"))


def test_parse_collects_every_violation():
    text = "dim = 7\ntrials = 0\nspam = 1"
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    msg = str(err.value)
    assert "dim" in msg and "trials" in msg and "spam" in msg and "seed" in msg


def test_parse_rejects_duplicates_and_garbage_lines():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("seed 1")


# One non-default value per ExperimentConfig field, under its dotted key.
EVERY_KEY = """
kind = sweep
seed = 3
dim = 2
shape = disk:0.4
box.halfwidth = 2.0
box.nodes = 30
s.values = 0.3,0.6
alpha.values = 1,3
trials = 7
extension.layers = 16
extension.height = 3.5
extension.grading = 2.5
sobolev.pad = 3
tol.margin = 2e-9
tol.coincidence = 3e-10
tol.positivity = 4e-8
tol.chain = 5e-10
tol.energy_gap = 0.04
tol.sobolev_gap = 0.2
tol.ratio_final = 1.1
out.dir = results
"""


def test_every_field_is_set_through_its_dotted_key():
    expected = ExperimentConfig(
        kind="sweep", seed=3, dim=2, shape="disk:0.4", box_halfwidth=2.0, box_nodes=30,
        s_values=(0.3, 0.6), alpha_values=(1.0, 3.0), trials=7, extension_layers=16,
        extension_height=3.5, extension_grading=2.5, sobolev_pad=3, tol_margin=2e-9,
        tol_coincidence=3e-10, tol_positivity=4e-8, tol_chain=5e-10, tol_energy_gap=0.04,
        tol_sobolev_gap=0.2, tol_ratio_final=1.1, out_dir="results",
    )
    default = ExperimentConfig()
    assert all(getattr(expected, f.name) != getattr(default, f.name) for f in fields(default))
    assert parse_config(EVERY_KEY) == expected


@pytest.mark.parametrize("line, message", [
    ("box.nodes = 1.5", "box.nodes: cannot parse '1.5' (invalid literal for int()"),
    ("tol.chain = tiny", "tol.chain: cannot parse 'tiny' (could not convert"),
    ("s.values = ,", "s.values: cannot parse ',' (empty list)"),
])
def test_parse_reports_unparsable_values(line, message):
    with pytest.raises(ConfigError) as err:
        parse_config(f"seed = 1\n{line}")
    assert message in str(err.value)


@pytest.mark.parametrize("kind, key, value, rest", [
    ("spectra", "tol.coincidence", "inf", "s.values = 0.5,1"),
    ("spectra", "tol.margin", "nan", "s.values = 0.5,1"),
    ("spectra", "box.halfwidth", "inf", "s.values = 0.5,1"),
    ("extension", "extension.height", "nan", "s.values = 0.5"),
    ("extension", "extension.grading", "nan", "s.values = 0.5"),
    ("sweep", "alpha.values", "1,inf", ""),
    ("spectra", "s.values", "0.5,-inf", ""),
])
def test_non_finite_values_are_refused(tmp_path, capsys, kind, key, value, rest):
    # nan fails no range check and inf makes a tolerance vacuous
    path = tmp_path / "cfg.cfg"
    path.write_text(f"seed = 1\n{rest}\n{key} = {value}\n")
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"{key}: cannot parse {value!r}" in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{kind}.*"))


def test_cli_import_leaves_out_heavy_scipy_modules():
    # every CLI start pays for what fraclab.cli imports
    src = Path(fraclab.__file__).resolve().parents[1]
    code = ("import sys, fraclab.cli; "
            "print(sorted(m for m in ('scipy.linalg', 'scipy.sparse') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_config_echo_round_trips_into_report():
    cfg = parse_config(MINIMAL)
    report = run(cfg)
    for key, value in cfg.echo().items():
        assert report.config[key] == value


def test_run_requires_matching_kind():
    cfg = parse_config(MINIMAL)
    with pytest.raises(ConfigError, match="does not match"):
        run(cfg, kind="sweep")


def test_spectra_run_passes_with_coincidence_and_domination():
    report = run(parse_config(MINIMAL))
    assert report.all_passed
    names = [c.name for c in report.checks]
    assert any("eigenvalue_domination" in n for n in names)
    assert any("coincidence" in n for n in names)
    # margins are recorded as numbers, not booleans
    assert all(isinstance(c.margin, float) for c in report.checks)


def test_report_files_and_determinism(tmp_path):
    cfg = parse_config(MINIMAL)
    r1 = run(cfg)
    r2 = run(cfg)
    d1, d2 = tmp_path / "a", tmp_path / "b"
    write_report(r1, d1)
    write_report(r2, d2)
    for name in ("spectra.csv", "spectra.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_extension_2d_reports_are_byte_identical_on_rerun(tmp_path):
    path = tmp_path / "ext.cfg"
    path.write_text("seed = 1\ndim = 2\nshape = disk:0.5\nextension.grading = 2\n"
                    "s.values = 0.5,0.75\n")
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for out in (d1, d2):
        assert main(["extension", "--config", str(path), "--out", str(out)]) == 0
    for name in ("extension.csv", "extension.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_spectra_csv_schema(tmp_path):
    report = run(parse_config(MINIMAL))
    path, _ = write_report(report, tmp_path)
    header = path.read_text().splitlines()[0]
    assert header == "s,j,lambda_navier,lambda_dirichlet,margin"


def test_json_mirrors_report_structure(tmp_path):
    report = run(parse_config(MINIMAL))
    write_report(report, tmp_path)
    payload = json.loads((tmp_path / "spectra.json").read_text())
    assert payload["kind"] == "spectra"
    assert payload["columns"] == report.columns
    assert len(payload["rows"]) == len(report.rows)
    assert [c["name"] for c in payload["checks"]] == [c.name for c in report.checks]
    assert "wall_time_seconds" not in payload  # volatile fields stay out


def test_empty_table_written_as_header_only(tmp_path):
    report = ExperimentReport(
        kind="spectra",
        config={},
        rows=np.empty(0, dtype=[("j", "i8"), ("lambda_navier", "f8"), ("lambda_dirichlet", "f8"),
                                ("margin", "f8")]),
        checks=[Check(name="noop", margin=0.0, tolerance=1.0, passed=True)],
        wall_time_seconds=0.0,
    )
    path, _ = write_report(report, tmp_path)
    assert path.read_text().splitlines() == ["j,lambda_navier,lambda_dirichlet,margin"]


# Each check's pass rule, stated here apart from cli's own table of senses.
_PASS_RULES = {
    "coincidence": lambda margin, tol: margin <= tol,
    "energy_identity": lambda margin, tol: margin <= tol,
    "quotient_near_constant": lambda margin, tol: margin <= tol,
    "final_ratio": lambda margin, tol: margin <= tol,
    "ratio_coincidence": lambda margin, tol: margin <= tol,
    "eigenvalue_domination": lambda margin, tol: margin > tol,
    "ordering_interior": lambda margin, tol: margin > tol,
    "gap_shrinks_with_box": lambda margin, tol: margin > tol,
    "ratio_decreasing": lambda margin, tol: margin > tol,
    "positivity_preserving": lambda margin, tol: margin >= -tol,
    "monotone_chain": lambda margin, tol: margin >= -tol,
    "ordering_lattice": lambda margin, tol: margin >= -tol,
    "ratio_lower_bound": lambda margin, tol: margin >= -tol,
}


def test_every_verdict_recomputable_from_margins():
    # small runs of all six experiments in both dimensions, between them every check
    exponents = {"spectra": "0.5,1", "positivity": "0.5", "monotonicity": "0.5",
                 "extension": "0.5", "sobolev": "0.25", "sweep": "0.5,1"}
    for dim, nodes in ((1, 63), (2, 15)):
        seen = set()
        for kind, s_values in exponents.items():
            report = run(parse_config(f"seed = 1\ndim = {dim}\nbox.nodes = {nodes}\ntrials = 3\n"
                                      f"extension.layers = 16\ns.values = {s_values}\n"), kind=kind)
            for check in report.checks:
                name, _, s = check.name.partition("[s=")
                assert s[:-1] in s_values.split(",") and check.name.endswith("]"), check.name
                assert type(check.margin) is float and type(check.passed) is bool
                assert check.passed == _PASS_RULES[name](check.margin, check.tolerance), check
                seen.add(name)
        assert seen == set(_PASS_RULES), f"dim {dim}: no run made {set(_PASS_RULES) - seen}"


@pytest.mark.parametrize("sense, passes", [
    ("<= tol", {-1e-9: True, 1e-9: True, 2e-9: False}),
    ("> tol", {-1e-9: False, 1e-9: False, 2e-9: True}),
    (">= -tol", {-2e-9: False, -1e-9: True, 0.0: True}),
])
def test_each_sense_places_its_boundary_and_fails_a_nan_margin(sense, passes):
    for margin, passed in {**passes, float("nan"): False}.items():
        check = cli._verdict("gap", 0.5, margin, 1e-9, sense)
        assert check.name == "gap[s=0.5]" and check.passed is passed, margin


def test_monotonicity_and_positivity_runs_pass():
    base = "seed = 5\ndim = 1\nshape = interval:-0.125,0.125\nbox.nodes = 64\ntrials = 8\n"
    for kind in ("positivity", "monotonicity"):
        report = run(parse_config(base), kind=kind)
        assert report.all_passed, [c for c in report.checks if not c.passed]


def test_sweep_run_and_failure_exit_code(tmp_path):
    cfg_text = (
        "seed = 5\ndim = 1\nshape = interval:-0.5,0.5\nbox.halfwidth = 8\n"
        "box.nodes = 255\ns.values = 0.5\nalpha.values = 1,2,4\n"
    )
    report = run(parse_config(cfg_text), kind="sweep")
    assert report.all_passed
    # an impossible final-ratio tolerance must flip the exit code to 1
    path = tmp_path / "sweep.cfg"
    path.write_text(cfg_text + "tol.ratio_final = 1.0\n")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path)])
    assert code == 1


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "ok.cfg"
    good.write_text(MINIMAL)
    assert main(["spectra", "--config", str(good), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out

    bad = tmp_path / "bad.cfg"
    bad.write_text("seed = 1\ndim = 9\n")
    assert main(["spectra", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["spectra", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_main_kind_mismatch_is_usage_error(tmp_path):
    path = tmp_path / "cfg.cfg"
    path.write_text(MINIMAL)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_resource_guard_reports_hint():
    # the default square:0.5 holds 76^2 = 5776 nodes of a 300^2 box
    text = "seed = 1\ndim = 2\nbox.nodes = 300\n"
    with pytest.raises(ConfigError, match="reduce box.nodes"):
        run(parse_config(text), kind="spectra")


@pytest.mark.parametrize("kind, text, field", [
    ("spectra", "dim = 1\nbox.nodes = 6000\n", "box.nodes"),
    ("monotonicity", "dim = 2\nbox.nodes = 6000\n", "box.nodes"),
    ("positivity", "dim = 2\nbox.nodes = 300\n", "shape"),
    ("extension", "dim = 2\nbox.nodes = 64\nextension.layers = 1100\n", "extension.layers"),
    ("sweep", "dim = 2\nbox.nodes = 100\nalpha.values = 1,3\n", "alpha.values"),
    ("sweep", "dim = 2\nbox.nodes = 24\nalpha.values = 1,8\n", "alpha.values"),
    ("monotonicity", "dim = 1\nbox.nodes = 12\n", "box.nodes"),
    ("spectra", "dim = 2\nshape = interval:-0.2,0.2\n", "shape"),      # 1D shape, 2D grid
    ("positivity", "dim = 1\nshape = interval:-2,2\n", "shape"),       # outside the box
    ("sweep", "dim = 2\nshape = disk:0.05\n", "shape"),                # no node inside
    ("extension", "dim = 2\nbox.nodes = 2\n", "shape"),                # no node inside
])
def test_resource_guard_names_the_field(tmp_path, capsys, kind, text, field):
    path = tmp_path / "big.cfg"
    path.write_text("seed = 1\n" + text)
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{kind}.*"))


def test_box_beyond_the_old_dense_basis_cap_runs(tmp_path, capsys):
    # 128^2 = 16384 box nodes: the restricted operator never forms the box basis
    path = tmp_path / "big_box.cfg"
    path.write_text("seed = 3\ndim = 2\nshape = square:0.1\nbox.nodes = 128\ntrials = 2\n")
    for kind in ("monotonicity", "spectra"):
        assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        verdicts = [line.split()[0] for line in lines if not line.startswith("wrote")]
        assert len(verdicts) == 3 and set(verdicts) == {"PASS"}


def test_sweep_the_lattice_cannot_resolve_is_refused(tmp_path, capsys):
    # at box.nodes = 24, dilating square:0.25 by 1 and by 1.5 gives one 16-node mask
    path = tmp_path / "tied.cfg"
    path.write_text("seed = 8\ndim = 2\nshape = square:0.25\nalpha.values = 1,1.5,2,3\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: alpha.values: alpha=1 and alpha=1.5 give the same")
    assert not list(tmp_path.glob("sweep.*"))


@pytest.mark.parametrize("dim", [1, 2])
def test_sweep_at_its_defaults_passes_for_every_exponent(tmp_path, capsys, dim):
    path = tmp_path / "defaults.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\n")
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "s,alpha,q_navier,q_dirichlet,ratio"
    assert [line.split(",")[0] for line in lines[1:]] == ["0.25"] * 4 + ["0.5"] * 4 + ["0.75"] * 4
    verdicts = [line.split()[0] for line in capsys.readouterr().out.splitlines()
                if not line.startswith("wrote")]
    assert verdicts == ["PASS"] * 9


def test_sweep_over_exponents_is_the_single_exponent_sweeps_in_turn():
    text = "seed = 1\ndim = 2\nalpha.values = 1,1.5,2,3\n"
    both = run(parse_config(text + "s.values = 0.5,1\n"), kind="sweep")
    singles = [run(parse_config(text + f"s.values = {s}\n"), kind="sweep") for s in (0.5, 1)]
    assert both.columns == ["s", "alpha", "q_navier", "q_dirichlet", "ratio"]
    assert both.rows.tolist() == [row for single in singles for row in single.rows.tolist()]
    assert [row[:2] for row in both.rows.tolist()] == [(s, a) for s in (0.5, 1.0)
                                                       for a in (1.0, 1.5, 2.0, 3.0)]
    assert both.checks == [check for single in singles for check in single.checks]
    assert [c.name for c in both.checks] == [
        "ratio_lower_bound[s=0.5]", "final_ratio[s=0.5]", "ratio_decreasing[s=0.5]",
        "ratio_lower_bound[s=1]", "final_ratio[s=1]", "ratio_coincidence[s=1]"]


def _factorizations(monkeypatch, kind, text):
    """The sizes of the matrices ``kind`` eigendecomposes, and the shapes it builds."""
    calls = []
    original = linalg.eigendecompose

    def counting(matrix, *args, **kwargs):
        calls.append(len(matrix))
        return original(matrix, *args, **kwargs)

    for module in (linalg, domain, operators, extension, cli):
        if getattr(module, "eigendecompose", None) is original:
            monkeypatch.setattr(module, "eigendecompose", counting)
    built = []

    def recording_make_shape(*args):
        built.append(make_shape(*args))
        return built[-1]

    monkeypatch.setattr(cli, "make_shape", recording_make_shape)
    run(parse_config(text), kind=kind)
    return calls, built


def test_extension_factors_the_domain_laplacian_once(monkeypatch):
    calls, (disk,) = _factorizations(monkeypatch, "extension",
                                     "seed = 6\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.5,0.75\n")
    assert calls == [disk.node_count]
    assert disk.eigen is disk.eigen


def test_sweep_factors_each_dilate_once_per_run(monkeypatch):
    # Omega's ground state and each of the four dilates once for all three exponents (16
    # factorizations when made per exponent); the restricted form needs only its matrix
    calls, (disk,) = _factorizations(monkeypatch, "sweep", "seed = 1\ndim = 2\nshape = disk:0.3\n"
                                     "box.nodes = 40\ns.values = 0.25,0.5,0.75\n")
    assert len(calls) == 1 + 4
    assert calls[:2] == [disk.node_count] * 2  # the ground state, then the alpha = 1 dilate
    assert all(a < b for a, b in zip(calls[1:], calls[2:]))  # then the larger dilates in turn


def test_positivity_factors_the_domain_laplacian_once(monkeypatch):
    # N - D is applied, never eigendecomposed
    calls, (disk,) = _factorizations(monkeypatch, "positivity", "seed = 6\ndim = 2\nshape = disk:0.5\n"
                                     "s.values = 0.25,0.5,0.75\ntrials = 3\n")
    assert calls == [disk.node_count]


@pytest.mark.parametrize("text, expected", [
    ("seed = 3\ns.values = 0.1,0.5,1\n", []),  # the interval's basis is closed form
    ("seed = 1\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.5,0.75,1\n",
     ["eigendecompose"]),  # the disk's cached basis, read at every exponent
])
def test_spectra_builds_no_operator_and_no_eigenvectors(monkeypatch, text, expected):
    calls = []
    for name in ("eigendecompose", "spectral_power"):
        original = getattr(linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        for module in (linalg, domain, operators, extension, cli):
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counting)
    assert run(parse_config(text), kind="spectra").all_passed
    assert calls == expected


@pytest.mark.parametrize("text", ["dim = 2\n", "dim = 1\nbox.nodes = 24\n"])
def test_sobolev_refuses_a_box_off_the_fft_lattice(tmp_path, capsys, text):
    # the FFT box aligns only when (sobolev.pad - 1) * (box.nodes + 1) is even
    path = tmp_path / "misaligned.cfg"
    path.write_text("seed = 7\ns.values = 0.25\n" + text)
    assert main(["sobolev", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: box.nodes: 24 ")
    assert "sobolev.pad = 2" in err and "box.nodes = 23 and 25" in err
    assert not list(tmp_path.glob("sobolev.*"))


def test_extension_solves_each_variant_once_per_exponent(monkeypatch):
    calls = []
    original = extension.solve_extension

    def counting(u, domain, variant, s, *args, **kwargs):
        calls.append((variant, s))
        return original(u, domain, variant, s, *args, **kwargs)

    for module in (linalg, domain, operators, extension, cli):
        if getattr(module, "solve_extension", None) is original:
            monkeypatch.setattr(module, "solve_extension", counting)
    cfg = parse_config("seed = 6\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.5,0.75\n")
    run(cfg, kind="extension")
    expected = [(v, s) for v in ("navier", "dirichlet") for s in (0.25, 0.5, 0.75)]
    assert sorted(calls) == sorted(expected)


EXTENSION_LOOPS = ["seed = 1\ndim = 1\ns.values = 0.25,0.75\n",
                   "seed = 1\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.75\n"]


@pytest.mark.parametrize("text", EXTENSION_LOOPS, ids=["1d", "2d"])
def test_extension_loop_keeps_one_finished_solution_at_a_time(monkeypatch, text):
    finished, dirichlet_starts, identity_checks = [], [], []
    solve, check = extension.solve_extension, extension.energy_identity_check

    def alive():
        return [(sol.variant, sol.s) for sol in (ref() for ref in finished) if sol is not None]

    def solving(u, domain, variant, s, mesh):
        if variant == "dirichlet":
            dirichlet_starts.append(alive())
        sol = solve(u, domain, variant, s, mesh)
        finished.append(weakref.ref(sol))  # a WeakSet would hash the frozen arrays
        return sol

    def checking(sol):
        identity_checks.append((sol.s, alive()))
        return check(sol)

    monkeypatch.setattr(cli, "solve_extension", solving)
    monkeypatch.setattr(cli, "energy_identity_check", checking)
    run(parse_config(text), kind="extension")
    assert dirichlet_starts == [[], []]
    assert identity_checks == [(s, [("navier", s)]) for s in (0.25, 0.75)]


def test_a_spectra_run_leaves_no_domain_alive(monkeypatch):
    # the reflection split lives as long as its domain, and no longer
    built = []

    def recording(*args):
        built.append(make_shape(*args))
        return built[-1]

    monkeypatch.setattr(cli, "make_shape", recording)
    run(parse_config("seed = 1\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.5,1\n"),
        kind="spectra")
    assert operators._SPLITS[built[0]] is not None  # the disk was split, and the split is kept
    domain = weakref.ref(built.pop())
    gc.collect()
    assert domain() is None


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("text", EXTENSION_LOOPS, ids=["1d", "2d"])
def test_extension_report_matches_the_navier_first_order(text):
    cfg = parse_config(text)
    _, dom = cli._build_domain(cfg)
    u = cli._ground_state(dom)
    expected = []
    for s in cfg.s_values:
        mesh = cli._mesh_for(cfg, dom, s)
        navier = extension.solve_extension(u, dom, "navier", s, mesh)
        ident = extension.energy_identity_check(navier)
        order = extension.extension_ordering_check(
            navier, extension.solve_extension(u, dom, "dirichlet", s, mesh))
        expected.append([s, *ident, *order])
    rows, checks = cli._run_extension(cfg)
    assert [_bits(row) for row in rows.tolist()] == [_bits(row) for row in expected]
    assert [c.name for c in checks] == [f"{name}[s={s:g}]" for s in cfg.s_values
                                        for name in ("energy_identity", "ordering_lattice",
                                                     "ordering_interior")]
    assert _bits(c.margin for c in checks) == _bits(v for row in expected for v in row[3:])


@pytest.mark.parametrize("kind, text, work, message", [
    ("extension", "s.values = 0.25,0.5,0.75,1\n", "solve_extension",
     r"extension experiment needs s strictly inside \(0, 1\)"),
    ("sobolev", "s.values = 0.1,0.2,0.3,0.6\n", "_sobolev_quotient",
     r"sobolev experiment requires dim > 2s, got dim=1, s=0.6;"),
], ids=["extension", "sobolev"])
def test_refused_exponents_are_refused_before_any_work(monkeypatch, kind, text, work, message):
    calls = []
    original = getattr(cli, work)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, work, counting)
    with pytest.raises(ConfigError, match=message):
        run(parse_config("seed = 1\n" + text), kind=kind)
    assert calls == []
