"""Config parsing, experiment runs, report writing, determinism, exit codes."""

import ast
import gc
import json
import os
import re
import subprocess
import sys
import weakref
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from extension_lattice import solve

import fraclab
from fraclab import analysis, cli, domain, extension, linalg, operators
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


@pytest.mark.parametrize("values, entries, name", [
    ("0.25,0.2500001", "0.25, 0.2500001", "0.25"),
    ("0.5,0.75,0.5", "0.5, 0.5", "0.5"),
])
def test_exponents_that_share_a_check_name_are_refused(tmp_path, capsys, values, entries, name):
    path = tmp_path / "clash.cfg"
    path.write_text(f"seed = 1\ns.values = {values}\n")
    assert main(["spectra", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"s.values: entries {entries} all name their checks [s={name}]" in err
    assert "Traceback" not in err and not list(tmp_path.glob("spectra.*"))


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


# scipy, and numpy.random with the hashlib (OpenSSL) it pulls in, loaded in a fresh process
_HEAVY = ("scipy", "numpy.random", "_hashlib")


def _loaded_after(code: str, cwd: Path) -> list[str]:
    src = Path(fraclab.__file__).resolve().parents[1]
    code += f"; import json, sys; print(json.dumps(sorted(m for m in {_HEAVY!r} if m in sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=cwd,
                         check=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    return json.loads(out.stdout.splitlines()[-1])


@pytest.mark.parametrize("kind, dim", [(None, 0)] + [
    (kind, dim) for kind in ("spectra", "positivity", "extension", "sweep") for dim in (1, 2)])
def test_cli_import_leaves_out_heavy_scipy_modules(tmp_path, kind, dim):
    # every CLI start pays for what fraclab.cli imports, and no run but monotonicity draws
    code = "import fraclab.cli"
    if kind is not None:
        (tmp_path / "cfg").write_text(f"seed = 1\ndim = {dim}\n")
        code += f"; assert fraclab.cli.main([{kind!r}, '--config', 'cfg', '--out', 'out']) == 0"
    assert _loaded_after(code, tmp_path) == []
    assert kind is None or (tmp_path / "out" / f"{kind}.json").exists()


def test_a_monotonicity_config_loads_the_generator_when_parsed(tmp_path):
    code = "import fraclab.cli; fraclab.cli.parse_config('kind = monotonicity\\nseed = 1\\n')"
    assert _loaded_after(code, tmp_path) == ["_hashlib", "numpy.random"]


def test_monotonicity_without_a_kind_key_writes_the_same_report(tmp_path):
    # with the key the generator loads when the config is parsed, without it at the first draw
    keys = "seed = 3\ndim = 2\ntrials = 4\ns.values = 0.5\n"
    for name, text in (("keyed", "kind = monotonicity\n" + keys), ("bare", keys)):
        (tmp_path / f"{name}.cfg").write_text(text)
        assert main(["monotonicity", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)]) == 0
    for report in ("monotonicity.csv", "monotonicity.json"):
        assert (tmp_path / "keyed" / report).read_bytes() == (tmp_path / "bare" / report).read_bytes()


# fraclab.__all__ before the package read its names off the layers
PACKAGE_NAMES = (
    "__version__", "BoxGrid", "SubDomain", "make_box", "make_shape", "parse_shape_spec", "dilate",
    "EigenDecomposition", "sym_matrix", "eigendecompose", "eigenvalues", "spectral_power",
    "Certificate", "navier_operator", "dirichlet_operator", "fourier_form", "difference_operator",
    "compare_spectra", "positivity_check", "monotonicity_check", "monotone_chain",
    "ExtensionMesh", "graded_mesh", "default_grading", "compare_extensions",
    "SobolevSetup", "QuotientResult", "gamma", "extension_constant",
    "sobolev_constant_closed_form", "extremal_function", "lp_norm", "rayleigh_quotient",
    "sobolev_check", "minimize_quotient", "dilation_sweep",
)


def test_the_package_exports_each_layers_public_names():
    layers = (domain, linalg, operators, extension, analysis)
    assert fraclab.__all__ == ["__version__", *(name for m in layers for name in m.__all__)]
    assert len(set(fraclab.__all__)) == len(fraclab.__all__)
    for name in fraclab.__all__[1:]:
        owner, = (m for m in layers if name in m.__all__)
        assert getattr(fraclab, name) is getattr(owner, name)
    assert set(PACKAGE_NAMES) <= set(fraclab.__all__) and len(PACKAGE_NAMES) == 36


# Module-level names that no src/ code calls, each with the reason it stays.
UNCALLED = {
    "minimize_quotient": "acceptance criterion 9's descent; ROADMAP item 13 decides its fate",
    "QuotientResult": "minimize_quotient's result",
    "dirichlet_operator": "perfbench's tracer tests call it and pin its re-export; ROADMAP items 5 "
                          "and 21 retire it",
}


def _loaded_names(node, own):
    """The names ``node`` reads or reaches as attributes, but ``own``; an import alone is none."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names - {own}


def test_every_module_level_function_and_class_has_a_caller_in_src():
    # a reference from inside a definition that has no caller does not count, nor one in the
    # definition's own body; __all__ lists strings, so it is no reference either
    refs = {}  # definition (None: the module-level statements) -> the names it references
    for path in Path(fraclab.__file__).parent.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            own = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            refs[own] = refs.get(own, set()) | _loaded_names(node, own)
    uncalled, last = set(), None
    while uncalled != last:
        last, live = uncalled, set().union(*(n for own, n in refs.items() if own not in uncalled))
        uncalled = {own for own in refs if own is not None and own not in live}
    assert uncalled == set(UNCALLED)


README = (Path(__file__).parents[1] / "README.md").read_text()


def _readme_section(heading: str) -> list[str]:
    """The lines of README from ``heading`` up to the next heading of any level."""
    lines = README.split(heading + "\n", 1)[1].splitlines()
    return lines[:next(i for i, line in enumerate(lines) if line.startswith("#"))]


def test_readme_config_reference_lists_every_key_in_order():
    section = _readme_section("### Config reference")
    block = section[section.index("```ini") + 1:]
    block = block[:block.index("```")]
    assert [line.split("=", 1)[0].strip() for line in block] == list(cli._FIELDS)


def test_readme_checks_table_gives_each_check_its_tolerance_and_sense():
    senses = {"margin ≤ tol": "<= tol", "margin > tol": "> tol", "margin ≥ −tol": ">= -tol"}
    rows = []
    for line in _readme_section("### Checks"):
        cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
        if len(cells) != 6 or not cells[1].startswith("`"):
            continue  # prose, the header or the rule under it
        tolerance = cells[4].strip("`")
        rows.append((re.match(r"`(\w+)`", cells[1]).group(1), (
            None if tolerance == "0" else tolerance.replace(".", "_", 1), senses[cells[5]])))
    assert dict(rows) == cli._CHECKS and len(rows) == 13


def test_config_echo_round_trips_into_report():
    cfg = parse_config(MINIMAL)
    report = run(cfg)
    for key, value in asdict(cfg).items():
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


def test_a_config_that_is_not_utf8_is_refused(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"seed = 1\nshape = \xe9\n")
    assert main(["spectra", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xe9")
    assert "Traceback" not in err and not (tmp_path / "out").exists()


def test_a_config_saved_with_a_byte_order_mark_runs_as_without_it(tmp_path):
    text = b"seed = 1\ndim = 1\n"
    for name, data in (("bom", b"\xef\xbb\xbf" + text), ("plain", text)):
        (tmp_path / f"{name}.cfg").write_bytes(data)
        assert main(["spectra", "--config", str(tmp_path / f"{name}.cfg"),
                     "--out", str(tmp_path / name)]) == 0
    for report in ("spectra.csv", "spectra.json"):
        assert (tmp_path / "bom" / report).read_bytes() == (tmp_path / "plain" / report).read_bytes()


# h^2 overflows, h itself overflows, h^2 underflows to 0, and 2/h^2 overflows
@pytest.mark.parametrize("halfwidth", ["1e200", "1e308", "1e-160", "6.4e-153"])
@pytest.mark.parametrize("kind, dim", [("spectra", 1), ("positivity", 1), ("sweep", 1),
                                       ("monotonicity", 2)])
def test_a_box_step_whose_square_overflows_is_refused(tmp_path, capsys, kind, dim, halfwidth):
    path = tmp_path / "wide.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\nbox.halfwidth = {halfwidth}\nbox.nodes = 127\n")
    assert main([kind, "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "\n  box.halfwidth, box.nodes: step h = " in err
    assert err.endswith(" is outside the usable (1/3.4e+38, 3.4e+38)\n")
    assert not (tmp_path / "out").exists()


def test_main_kind_mismatch_is_usage_error(tmp_path):
    path = tmp_path / "cfg.cfg"
    path.write_text(MINIMAL)
    assert main(["sweep", "--config", str(path), "--out", str(tmp_path)]) == 2


def test_resource_guard_reports_hint():
    # the default square:0.5 holds 76^2 = 5776 nodes of a 300^2 box
    text = "seed = 1\ndim = 2\nbox.nodes = 300\n"
    with pytest.raises(ConfigError, match="reduce box.nodes"):
        run(parse_config(text), kind="spectra")


# Masks that hold every node of their box (127 in 1D, 576 in 2D), where N = D.
WHOLE_BOX = [(1, "interval:-1,1"), (1, "interval:-0.99,0.99"), (2, "square:2"), (2, "square:1.88")]


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
    *[(kind, f"dim = {dim}\nshape = {shape}\n", "shape")                # the whole box: N = D
      for kind in ("spectra", "positivity", "extension")
      for dim, shape in WHOLE_BOX],
])
def test_resource_guard_names_the_field(tmp_path, capsys, kind, text, field):
    path = tmp_path / "big.cfg"
    path.write_text("seed = 1\n" + text)
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"error: {field}:" in capsys.readouterr().err
    assert not list(tmp_path.glob(f"{kind}.*"))


@pytest.mark.parametrize("dim, shape, nodes", [(1, "interval:-1,1", 127), (2, "square:2", 576)])
def test_a_whole_box_refusal_names_the_node_count_and_the_way_out(tmp_path, capsys, dim, shape,
                                                                   nodes):
    path = tmp_path / "whole.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\nshape = {shape}\n")
    assert main(["positivity", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: shape: the mask holds all {nodes} nodes of its "
                                       "box; raise box.halfwidth or shrink the shape\n")


@pytest.mark.parametrize("kind", ["spectra", "positivity", "extension"])
def test_a_mask_one_node_short_of_its_box_runs(tmp_path, kind):
    path = tmp_path / "short.cfg"
    path.write_text("seed = 1\nshape = interval:-0.99,0.98\n")
    assert cli._build_domain(parse_config(path.read_text())).node_count == 126
    assert main([kind, "--config", str(path), "--out", str(tmp_path)]) == 0


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


@pytest.mark.parametrize("kind", ["monotonicity", "extension", "sweep"])
@pytest.mark.parametrize("dim", [1, 2])
def test_form_experiments_read_the_spectral_form_without_its_matrix(monkeypatch, kind, dim):
    calls, original = [], operators.spectral_power
    monkeypatch.setattr(operators, "spectral_power",
                        lambda *args: calls.append(args) or original(*args))
    assert run(parse_config(f"seed = 1\ndim = {dim}\n"), kind=kind).all_passed
    assert calls == []


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


EXTENSION_LOOPS = ["seed = 1\ndim = 1\ns.values = 0.25,0.75\n",
                   "seed = 1\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.75\n"]


@pytest.mark.parametrize("text", EXTENSION_LOOPS, ids=["1d", "2d"])
def test_extension_sweeps_both_variants_once_per_exponent(monkeypatch, text):
    sweeps, sweep = [], extension._sweep

    def sweeping(modes, mesh, s):
        sweeps.append((len(modes), s))
        return sweep(modes, mesh, s)

    monkeypatch.setattr(extension, "_sweep", sweeping)
    run(parse_config(text), kind="extension")
    assert sweeps == [(2, 0.25), (2, 0.75)]


def test_a_spectra_run_leaves_no_domain_alive(monkeypatch):
    # nothing, the reflection split included, holds a domain past its run
    built = []

    def recording(*args):
        built.append(make_shape(*args))
        return built[-1]

    monkeypatch.setattr(cli, "make_shape", recording)
    run(parse_config("seed = 1\ndim = 2\nshape = disk:0.5\ns.values = 0.25,0.5,1\n"),
        kind="spectra")
    domain = weakref.ref(built.pop())
    gc.collect()
    assert domain() is None


def _bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("text", EXTENSION_LOOPS, ids=["1d", "2d"])
def test_extension_report_matches_the_navier_first_order(text):
    cfg = parse_config(text)
    dom = cli._build_domain(cfg)
    u = cli._ground_state(dom)
    expected = []
    for s in cfg.s_values:
        mesh = cli._mesh_for(cfg, dom, s)
        navier, dirichlet = (solve(u, dom, variant, s, mesh) for variant in ("navier", "dirichlet"))
        ident = extension._energy_identity(dom, s, u, navier.energy)
        w_diff = dirichlet.values - navier.values
        expected.append([*ident.rows[0].tolist(), w_diff.min(), w_diff[:, 1:-1].min()])
    report = run(cfg, kind="extension")
    rows, checks = report.rows, report.checks
    assert [_bits(row) for row in rows.tolist()] == [_bits(row) for row in expected]
    assert [c.name for c in checks] == [f"{name}[s={s:g}]" for s in cfg.s_values
                                        for name in ("energy_identity", "ordering_lattice",
                                                     "ordering_interior")]
    assert _bits(c.margin for c in checks) == _bits(v for row in expected for v in row[3:])


@pytest.mark.parametrize("kind, text, module, work, message", [
    ("extension", "s.values = 0.25,0.5,0.75,1\n", cli, "compare_extensions",
     r"extension experiment needs s strictly inside \(0, 1\)"),
    ("extension", "s.values = 0.5,0.01\n", cli, "compare_extensions",
     r"extension.grading: the mesh of s = 0.01, grading 150.1 and 64 layers is too steep"),
    ("sobolev", "s.values = 0.1,0.2,0.3,0.6\n", analysis, "_fft_quotient",
     r"sobolev experiment requires dim > 2s, got dim=1, s=0.6;"),
], ids=["extension", "extension-steep-mesh", "sobolev"])
def test_refused_exponents_are_refused_before_any_work(monkeypatch, kind, text, module, work,
                                                       message):
    calls = []
    original = getattr(module, work)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, work, counting)
    with pytest.raises(ConfigError, match=message):
        run(parse_config("seed = 1\n" + text), kind=kind)
    assert calls == []


# The y-node Y (1/M)^gamma of the first layer underflows to 0 (coinciding nodes), or the first
# cell's weight underflows (stiffness NaN) or its stiffness overflows (inf).
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("text, s, gamma, reason", [
    ("s.values = 0.001\n", "0.001", "1500.1", "y-nodes must be strictly increasing"),
    ("s.values = 0.005\n", "0.005", "300.1", "y-nodes must be strictly increasing"),
    ("s.values = 0.008\n", "0.008", "187.6", "y-nodes must be strictly increasing"),
    ("s.values = 0.01\n", "0.01", "150.1", "cell 0 has stiffness nan"),
    ("s.values = 0.5\nextension.grading = 100\n", "0.5", "100", "cell 0 has stiffness inf"),
    ("s.values = 0.5\nextension.grading = 160\n", "0.5", "160", "cell 0 has stiffness inf"),
    ("s.values = 0.5\nextension.grading = 200\n", "0.5", "200",
     "y-nodes must be strictly increasing"),
])
def test_a_mesh_too_steep_for_floating_point_is_refused(tmp_path, capsys, dim, text, s, gamma,
                                                        reason):
    path = tmp_path / "steep.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\n" + text)
    assert main(["extension", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == (f"error: extension.grading: the mesh of s = {s}, grading {gamma} and 64 layers "
                   f"is too steep for floating point ({reason}); set a lower extension.grading\n")
    assert not list(tmp_path.glob("extension.*"))


@pytest.mark.parametrize("dim", [1, 2])
def test_an_extension_height_whose_cell_weights_overflow_is_refused(tmp_path, capsys, dim):
    # at s = 1/4 the weight integral of y^(3-2s) overflows past y = 2e123; 1e123 still runs
    path = tmp_path / "tall.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\nextension.height = 1e130\n")
    assert main(["extension", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: extension.height: the mesh of s = 0.25 and height 1e+130 overflows (cell 5 below "
        "y = 5.35827e+123 has weights or squared width beyond floating point); set a lower "
        "extension.height\n")
    assert not (tmp_path / "out").exists()
    cli._mesh_for(parse_config(f"seed = 1\ndim = {dim}\nextension.height = 1e123\n"),
                  cli._build_domain(parse_config(f"seed = 1\ndim = {dim}\n")), 0.25)


@pytest.mark.parametrize("dim", [1, 2])
def test_an_extension_height_too_low_for_floating_point_is_refused(tmp_path, capsys, dim):
    # Y = 1e-300 squares to 0 on every cell, so no grading, the uniform mesh included, can help
    path = tmp_path / "low.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\nextension.height = 1e-300\n")
    assert main(["extension", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: extension.height: the mesh of s = 0.25 and height 1e-300 underflows (cell 0 has "
        "stiffness nan); set a higher extension.height\n")
    assert not (tmp_path / "out").exists()


def _extension_verdicts(text):
    return [(c.name, c.passed, c.margin) for c in run(parse_config(text), kind="extension").checks]


def test_an_extension_height_whose_profiles_underflow_is_refused(tmp_path, capsys):
    # at Y = 1e8 both extensions underflow to 0 on the top layers, so ordering_interior read
    # a margin of 0 there; at Y = 1e4 the box's lowest profile stays positive, and it passes
    path = tmp_path / "tall.cfg"
    path.write_text("seed = 1\ndim = 1\ns.values = 0.5\nextension.height = 1e8\n")
    assert main(["extension", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: extension.height: every profile underflows to 0 below layer 64 at height 1e+08; "
        "set a lower extension.height\n")
    assert not (tmp_path / "out").exists()
    verdicts = _extension_verdicts("seed = 1\ndim = 1\ns.values = 0.5\nextension.height = 1e4\n")
    assert [v[:2] for v in verdicts] == [("energy_identity[s=0.5]", False),
                                         ("ordering_lattice[s=0.5]", True),
                                         ("ordering_interior[s=0.5]", True)]
    assert 0 < verdicts[2][2] < 1e-250


def test_an_extension_ordering_that_vanishes_without_underflow_still_fails(monkeypatch):
    # the navier modes standing in for the dirichlet ones make W = 0 exactly, at a height
    # where no profile underflows: a FAIL, not a refusal
    analyses = extension._analyses

    def twice_navier(*args):
        vals, (_, navier) = analyses(*args)
        return vals, [navier, navier]

    monkeypatch.setattr(extension, "_analyses", twice_navier)
    verdicts = _extension_verdicts("seed = 1\ndim = 1\ns.values = 0.5\n")
    assert verdicts[1:] == [("ordering_lattice[s=0.5]", True, 0.0),
                            ("ordering_interior[s=0.5]", False, 0.0)]


@pytest.mark.parametrize("dim", [1, 2])
def test_the_steepest_default_mesh_that_holds_is_kept(dim):
    # s = 0.02 at its default grading 75.1: the first cell's right weight underflows to 0, its
    # stiffness does not, and the solve is exact (its energy identity is a y-mesh error)
    cfg = parse_config(f"seed = 1\ndim = {dim}\ns.values = 0.02\n")
    dom = cli._build_domain(cfg)
    mesh = cli._mesh_for(cfg, dom, 0.02)
    assert extension._cell_weights(mesh.y, 0.02)[2][0] == 0.0
    extension.compare_extensions(cli._ground_state(dom), dom, 0.02, mesh)


# ------------------------------------------------------------- positivity certificate

# The least entry of N - D at the positivity defaults (1D: 31 nodes, 2D: 36 nodes).
POSITIVITY_LEAST = {1: [7.916e-3, 2.015e-2, 2.876e-2], 2: [1.820e-3, 4.701e-3, 6.675e-3]}


@pytest.mark.parametrize("dim", [1, 2])
def test_positivity_reads_the_least_entry_of_the_difference(dim):
    cfg = parse_config(f"seed = 1\ndim = {dim}\n")
    dom = cli._build_domain(cfg)
    report = run(cfg, kind="positivity")
    assert report.columns == ["s", "least_entry", "row", "col"] and report.all_passed
    for row, s, least in zip(report.rows.tolist(), cfg.s_values, POSITIVITY_LEAST[dim]):
        diff = operators.difference_operator(dom, s)
        i, j = np.searchsorted(dom.indices, row[2:])
        assert row[0] == s and row[1] == diff.min() == diff[i, j] and i <= j
        assert row[1] == pytest.approx(least, rel=1e-3)
    assert [c.margin for c in report.checks] == list(report.rows["least_entry"])


@pytest.mark.parametrize("dim", [1, 2])
def test_positivity_reads_neither_the_seed_nor_the_trials(tmp_path, capsys, dim):
    outputs = []
    for seed, trials in ((1, 50), (2, 3)):
        path = tmp_path / f"seed{seed}.cfg"
        path.write_text(f"seed = {seed}\ndim = {dim}\ntrials = {trials}\n")
        out = tmp_path / f"out{seed}"
        assert main(["positivity", "--config", str(path), "--out", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        outputs.append(((out / "positivity.csv").read_bytes(), lines[:-1]))
    assert outputs[0] == outputs[1]


def _mutated_difference(monkeypatch, mutate):
    """Make the N - D that positivity_check reads pass through ``mutate`` (a function of a
    writable copy)."""
    original = operators.difference_operator

    def mutated(domain, s):
        diff = np.array(original(domain, s))
        return linalg.sym_matrix(mutate(diff))

    monkeypatch.setattr(operators, "difference_operator", mutated)


@pytest.mark.parametrize("dim", [1, 2])
def test_positivity_fails_on_one_negative_pair_and_names_it(monkeypatch, tmp_path, capsys, dim):
    # one symmetric off-diagonal pair at -1e-6: a sample of (N - D)u over random u >= 0 misses
    # it (margins 0.10-0.77), the least entry does not
    cfg = parse_config(f"seed = 1\ndim = {dim}\n")
    dom = cli._build_domain(cfg)
    i, j = 3, dom.node_count // 2

    def one_negative_pair(diff):
        diff[i, j] = diff[j, i] = -1e-6
        return diff

    _mutated_difference(monkeypatch, one_negative_pair)
    path = tmp_path / "mutant.cfg"
    path.write_text(f"seed = 1\ndim = {dim}\n")
    assert main(["positivity", "--config", str(path), "--out", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    for s in cfg.s_values:
        assert f"FAIL positivity_preserving[s={s:g}]: margin=-1e-06 tolerance=1e-08" in out
    rows = json.loads((tmp_path / "positivity.json").read_text())["rows"]
    assert rows == [[s, -1e-6, int(dom.indices[i]), int(dom.indices[j])] for s in cfg.s_values]


@pytest.mark.parametrize("dim", [1, 2])
def test_positivity_fails_with_the_operators_swapped(monkeypatch, dim):
    _mutated_difference(monkeypatch, np.negative)  # D - N
    report = run(parse_config(f"seed = 1\ndim = {dim}\n"), kind="positivity")
    assert not any(c.passed for c in report.checks)
    assert all(c.margin < -1e-3 for c in report.checks)
