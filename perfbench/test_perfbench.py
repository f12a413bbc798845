"""Tests for the benchmark harness's own code: tracing and the reference gate."""

from __future__ import annotations

import copy
import importlib
import inspect
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402

REFERENCES = sorted((HERE / "references").glob("*.json.gz"))


def _layers():
    return {layer: importlib.import_module(f"fraclab.{layer}") for layer in tracing.LAYERS}


def test_install_leaves_no_unwrapped_original():
    mods = _layers()
    tracer = tracing.Tracer()
    wrappers = tracer.install()
    try:
        leftovers = [f"{m.__name__}.{attr}" for m in tracing.fraclab_modules()
                     for attr, value in vars(m).items()
                     if inspect.isfunction(value) and value in wrappers]
        assert leftovers == []
        # bindings copied by `from .x import f` are wrapped too
        for module, attr, home in [("cli", "compare_spectra", "operators"),
                                   ("operators", "eigendecompose", "linalg"),
                                   ("extension", "dirichlet_operator", "operators"),
                                   ("analysis", "navier_operator", "operators")]:
            original = inspect.unwrap(getattr(mods[module], attr))
            assert original.__module__ == f"fraclab.{home}"
            assert getattr(mods[module], attr) is wrappers[original]
    finally:
        tracer.uninstall()
    installed = set(wrappers.values())
    assert not [attr for m in tracing.fraclab_modules() for attr, value in vars(m).items()
                if inspect.isfunction(value) and value in installed]


def test_traced_call_records_parent_and_work():
    mods = _layers()
    box = mods["domain"].make_box(1, 1.0, 15)
    sub = mods["domain"].make_shape(box, "interval", (-0.25, 0.25))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mods["operators"].dirichlet_operator(sub, box, 0.5)
    finally:
        tracer.uninstall()
    name, start, end, parent, _ = tracer.spans[0]
    assert (name, parent) == ("operators.dirichlet_operator", -1) and end > start
    eigen = [s for s in tracer.spans if s[0] == "linalg.eigendecompose"]
    assert len(eigen) == 1 and eigen[0][3] == 0 and eigen[0][4] == sub.node_count ** 3


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1, None],
        ["b", 1.0, 4.0, 0, None],
        ["c", 2.0, 3.0, 1, None],
        ["d", 5.0, 9.0, 0, 7],
        ["d", 11.0, 12.0, -1, 3],
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    table = tracing.summarize(spans)
    assert table["d"] == {"calls": 2, "s": 5.0, "self_s": 5.0, "work": 10}
    assert table["a"]["s"] == 10.0 and table["a"]["self_s"] == 3.0


def _scaled(report: dict, factor: float) -> dict:
    out = copy.deepcopy(report)
    for row in out["rows"]:
        row[:] = [v * factor if isinstance(v, float) else v for v in row]
    for check in out["checks"]:
        check["margin"] *= factor
    return out


@pytest.mark.parametrize("path", REFERENCES, ids=lambda p: p.name.split(".json")[0])
def test_gate_admits_roundoff_and_rejects_a_wrong_cell(path):
    reference = gate.load(path)
    assert gate.compare(copy.deepcopy(reference), reference, numbers=True) == []
    assert gate.compare(_scaled(reference, 1 + 1e-14), reference, numbers=True) == []

    wrong = copy.deepcopy(reference)
    k = max(range(len(wrong["rows"])), key=lambda i: abs(wrong["rows"][i][2]))
    wrong["rows"][k][2] *= 1 + 1e-6
    problems = gate.compare(wrong, reference, numbers=True)
    assert len(problems) == 1 and f"row {k} column {reference['columns'][2]}" in problems[0]
    # seeds without a numeric reference gate on structure and verdicts only
    assert gate.compare(wrong, reference, numbers=False) == []


def test_gate_rejects_failed_check_and_changed_structure():
    reference = gate.load(HERE / "references" / "extension-2d.json.gz")
    failed = copy.deepcopy(reference)
    failed["checks"][0]["passed"] = False
    assert gate.compare(failed, reference, numbers=False)
    short = copy.deepcopy(reference)
    short["rows"].pop()
    assert gate.compare(short, reference, numbers=False)


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
