"""The streamed report writer against the two-pass writer it replaced, byte for byte.

``_oracle`` is the former ``write_report``: ``csv.writer`` over
``_format_cell``, then one ``json.dumps(payload, indent=2, sort_keys=True)``,
both of the typed table's Python rows, ``rows.tolist()``.  Synthetic tables
hold their non-numeric cells in object fields.
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
        for row in report.rows.tolist():
            writer.writerow([_format_cell(v) for v in row])
    payload = {
        "kind": report.kind,
        "config": report.config,
        "columns": report.columns,
        "rows": report.rows.tolist(),
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


def _table(rows, columns=None, types=None):
    """``rows`` as a typed table, one field per column: an object field unless ``types`` names it."""
    columns = columns or [f"c{i}" for i in range(len(rows[0]) if rows else 0)]
    table = np.empty(len(rows), dtype=list(zip(columns, types or ["O"] * len(columns))))
    for i, row in enumerate(rows):
        for name, value in zip(columns, row, strict=True):
            table[name][i] = value  # one cell at a time: a list or dict cell stays one object
    return table


def _synthetic(rows, config=None):
    return ExperimentReport(
        kind="synthetic", config={"seed": 1} if config is None else config, rows=rows,
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
    "each special cell in its own row": _table([[v] for v in SPECIAL_CELLS]),
    "every special cell in one row": _table([SPECIAL_CELLS]),
    "mixed rows": _table([[0.5, 1, 2.25], ["quotient", float("nan"), 3], ["", None, True],
                          [1.5, True, -0.0], [np.float64(2.0), -1, "x"],
                          [0.1, 0.2, 0.30000000000000004]]),
    "typed rows": _table([[0.1, 3, True, "closed_form"], [float("nan"), -7, False, ""],
                          [-0.0, 2**62, True, "a,b"], [float("-inf"), 0, False, "two\nlines"]],
                         ["x", "n", "flag", "record"], ["f8", "i8", "?", "O"]),
    "zero rows": _table([], ["a", "b"], ["f8", "i8"]),
    "one row": _table([[0.25, 3]], ["a", "b"], ["f8", "i8"]),
    "one empty row": np.empty(1, dtype=[]),
    "more rows than a chunk": _table([[j / 7, j] for j in range(2 * 1024 + 3)], ["x", "j"],
                                     ["f8", "i8"]),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_synthetic_report_matches_oracle(tmp_path, name):
    _assert_as_oracle(_synthetic(SYNTHETIC[name]), tmp_path)


def test_config_echo_that_looks_like_json_matches_oracle(tmp_path):
    config = {"out_dir": '\n  "rows": []', "shape": '{"rows": [1, 2]}', "rows": [],
              "kind": '"],\n  "versions": {', "s_values": (0.5, 1.0), "seed": None}
    columns = ['"rows": []', "x,y", "ü"]
    _assert_as_oracle(_synthetic(_table([[1.0, 2, "3"]], columns, ["f8", "i8", "O"]), config),
                      tmp_path)


def test_unserialisable_cell_raises_like_the_oracle(tmp_path):
    report = _synthetic(_table([[np.float32(0.5)]]))
    with pytest.raises(TypeError):
        _oracle(report, tmp_path / "oracle")
    with pytest.raises(TypeError):
        write_report(report, tmp_path / "streamed")


def test_writer_holds_no_whole_report_in_memory(tmp_path):
    # the size of the spectra-1d table; the two-pass writer peaked at 8.2 MB here
    rows = np.empty(14573, dtype=[("s", "f8"), ("j", "i8"), ("lambda_navier", "f8"),
                                  ("lambda_dirichlet", "f8"), ("margin", "f8")])
    for name, values in zip(rows.dtype.names, np.random.default_rng(0).random((5, rows.size))):
        rows[name] = values
    rows["j"] = np.arange(1, rows.size + 1)
    report = _synthetic(rows)
    tracemalloc.start()
    try:
        write_report(report, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
