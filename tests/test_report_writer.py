"""The streamed report writer against the two-pass writer it replaced, byte for byte.

``_oracle`` is the former ``write_report``: ``csv.writer`` over
``_format_cell``, then one ``json.dumps(payload, indent=2, sort_keys=True)``.
"""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from fraclab.cli import Check, ExperimentReport, _format_cell, parse_config, run, write_report


def _oracle(report, out):
    out.mkdir(parents=True, exist_ok=True)
    with (out / f"{report.kind}.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(report.columns)
        for row in report.rows:
            writer.writerow([_format_cell(v) for v in row])
    payload = {
        "kind": report.kind,
        "config": report.config,
        "columns": report.columns,
        "rows": report.rows,
        "checks": [{"name": c.name, "margin": c.margin, "tolerance": c.tolerance,
                    "passed": c.passed} for c in report.checks],
        "versions": report.versions,
    }
    (out / f"{report.kind}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _assert_as_oracle(report, tmp_path):
    _oracle(report, tmp_path / "oracle")
    paths = write_report(report, tmp_path / "streamed")
    for path in paths:
        assert path.read_bytes() == (tmp_path / "oracle" / path.name).read_bytes(), path.name


def _synthetic(rows, config=None, columns=("a", "b")):
    return ExperimentReport(
        kind="synthetic", config={"seed": 1} if config is None else config,
        columns=list(columns), rows=rows,
        checks=[Check(name="c[s=0.5]", margin=-0.0, tolerance=1e-9, passed=False),
                Check(name="d", margin=float("nan"), tolerance=float("inf"), passed=True)],
        wall_time_seconds=1.25, versions={"fraclab": "x"})


REAL = {
    "spectra": "dim = 2\nshape = disk:0.3\nbox.nodes = 15\ns.values = 0.25,1\n",
    "positivity": "dim = 1\nbox.nodes = 31\ntrials = 3\ns.values = 0.5\n",
    "monotonicity": "dim = 1\nbox.nodes = 31\ntrials = 3\ns.values = 0.5\n",
    "extension": "dim = 1\nbox.nodes = 31\nextension.layers = 16\ns.values = 0.5\n",
    "sobolev": "dim = 1\nbox.nodes = 31\ns.values = 0.25\n",
    "sweep": "dim = 1\nshape = interval:-0.5,0.5\nbox.halfwidth = 8\nbox.nodes = 63\n"
             "s.values = 0.5\nalpha.values = 1,2\n",
}


@pytest.mark.parametrize("kind", sorted(REAL))
def test_real_report_matches_oracle(tmp_path, kind):
    _assert_as_oracle(run(parse_config("seed = 2\n" + REAL[kind]), kind=kind), tmp_path)


SPECIAL_CELLS = [
    float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    1e-300, 0.1, True, False, None, np.float64(0.1), np.float64("nan"), np.float64(-0.0),
    0, -7, 2**63, -(10**40), "", "a,b", 'say "hi"', "two\nlines", "cr\rlf", "café", " lead",
    [1, 2.5, "x"], {"k": [1, None]},
]

SYNTHETIC = {
    "each special cell in its own row": [[v] for v in SPECIAL_CELLS],
    "every special cell in one row": [SPECIAL_CELLS],
    "mixed rows": [[0.5, 1, 2.25], ["quotient", float("nan"), 3], [], [""], [1.5, True],
                   [np.float64(2.0), -1], [0.1, 0.2, 0.30000000000000004]],
    "zero rows": [],
    "one row": [[0.25, 3]],
    "one empty row": [[]],
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_report_matches_oracle(tmp_path, name):
    _assert_as_oracle(_synthetic(SYNTHETIC[name]), tmp_path)


def test_config_echo_that_looks_like_json_matches_oracle(tmp_path):
    config = {"out_dir": '\n  "rows": []', "shape": '{"rows": [1, 2]}', "rows": [],
              "kind": '"],\n  "versions": {', "s_values": (0.5, 1.0), "seed": None}
    columns = ['"rows": []', "x,y", "ü"]
    _assert_as_oracle(_synthetic([[1.0, 2, "3"]], config, columns), tmp_path)


def test_unserialisable_cell_raises_like_the_oracle(tmp_path):
    report = _synthetic([[np.float32(0.5)]])
    with pytest.raises(TypeError):
        _oracle(report, tmp_path / "oracle")
    with pytest.raises(TypeError):
        write_report(report, tmp_path / "streamed")


def test_writer_holds_no_whole_report_in_memory(tmp_path):
    # the size of the spectra-1d table; the two-pass writer peaked at 8.2 MB here
    rows = np.random.default_rng(0).random((14573, 5)).tolist()
    for j, row in enumerate(rows, start=1):
        row[1] = j
    report = _synthetic(rows, columns=("s", "j", "lambda_navier", "lambda_dirichlet", "margin"))
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
