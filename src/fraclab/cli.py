"""Configuration-driven experiment runner and report writer.

Experiments are described by flat key-value text files with dotted
namespaces::

    kind = spectra            # optional; must match the subcommand if given
    seed = 123                # required for reproducibility
    dim = 1
    shape = interval:-0.25,0.25
    box.halfwidth = 1.0
    box.nodes = 127
    s.values = 0.25,0.5,0.75
    alpha.values = 1,1.5,2,3
    trials = 50
    extension.layers = 64
    extension.height = 0      # 0 -> 8 * diam(Omega)
    extension.grading = 0     # 0 -> max(2, 3/(2s) + 0.1)
    sobolev.pad = 2           # FFT box = pad * sampling box
    tol.margin = 1e-9

Each subcommand (spectra, positivity, monotonicity, extension, sobolev,
sweep) runs its experiment, writes ``<kind>.csv`` and ``<kind>.json`` into
the output directory, prints one line per asserted inequality, and exits 0
when all assertions pass, 1 on an assertion failure, and 2 on usage or
configuration errors.  Reports are byte-identical across reruns with the
same config and seed (volatile fields such as wall time stay out of the
files); every pass/fail records its numeric margin alongside the verdict.
Every check is made by one constructor, :func:`_verdict`, which passes its
margin against its tolerance in one of three senses: ``<= tol`` (a gap),
``> tol`` (a strict slack) or ``>= -tol``; a NaN margin fails in each.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field, fields as dc_fields
from pathlib import Path

import numpy as np
import numpy.random  # numpy imports it lazily; load it at start-up, not inside a run
import scipy

from . import __version__
from .analysis import (
    SobolevSetup,
    SweepRow,
    dilation_sweep,
    extremal_function,
    rayleigh_quotient,
    sobolev_constant_closed_form,
)
from .domain import (
    BoxGrid,
    SubDomain,
    dilate,
    make_box,
    make_shape,
    parse_shape_spec,
    random_nested_masks,
)
from .extension import (
    default_grading,
    energy_identity_check,
    extension_ordering_check,
    graded_mesh,
    solve_extension,
)
from .operators import compare_spectra, difference_operator, fourier_form, monotonicity_check

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "ExperimentReport",
    "Check",
    "parse_config",
    "run",
    "write_report",
    "main",
]

EXPERIMENT_KINDS = ("spectra", "positivity", "monotonicity", "extension", "sobolev", "sweep")

# Caps on the dense objects a run builds, so a misconfigured run fails fast
# instead of exhausting memory: the per-axis N x N sine basis of the box, the
# |Omega| x |Omega| matrices and eigenbases of every mask factored densely,
# and the Dirichlet extension's distinct-profile lattice (<= N^dim x (layers + 1)).
_MAX_BASIS_NODES = 5000
_MAX_MASK_NODES = 5000
_MAX_EXTENSION_VALUES = 1 << 22
_MAX_FFT_NODES = 1 << 22


class ConfigError(ValueError):
    """Invalid or unusable experiment configuration."""


@dataclass
class ExperimentConfig:
    kind: str | None = None
    seed: int | None = None
    dim: int = 1
    shape: str = ""
    box_halfwidth: float = 1.0
    box_nodes: int = 0
    s_values: tuple[float, ...] = (0.25, 0.5, 0.75)
    alpha_values: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
    trials: int = 50
    extension_layers: int = 64
    extension_height: float = 0.0
    extension_grading: float = 0.0
    sobolev_pad: int = 2
    tol_margin: float = 1e-9
    tol_coincidence: float = 1e-10
    tol_positivity: float = 1e-8
    tol_chain: float = 1e-10
    tol_energy_gap: float = 0.03
    tol_sobolev_gap: float = 0.10
    tol_ratio_final: float = 1.05
    out_dir: str = ""

    def echo(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dc_fields(self)}


def _parse_float(value: str) -> float:
    parsed = float(value)
    if not math.isfinite(parsed):  # nan passes no range check, and inf voids a tolerance
        raise ValueError("not a finite number")
    return parsed


def _parse_list(value: str) -> tuple[float, ...]:
    parsed = tuple(_parse_float(tok) for tok in value.split(",") if tok.strip())
    if not parsed:
        raise ValueError("empty list")
    return parsed


# Value parser for each ExperimentConfig annotation, as text: the annotations
# are postponed (``from __future__ import annotations``).
_PARSERS = {"str": str, "str | None": str, "int": int, "int | None": int, "float": _parse_float,
            "tuple[float, ...]": _parse_list}

# Config key -> (field name, parser); the key is the field name with its
# first "_" read as ".", e.g. box_nodes -> box.nodes, tol_energy_gap -> tol.energy_gap.
_FIELDS = {f.name.replace("_", ".", 1): (f.name, _PARSERS[f.type])
           for f in dc_fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate config text, reporting every violated field at once."""
    cfg = ExperimentConfig()
    problems: list[str] = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _FIELDS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        name, parse = _FIELDS[key]
        try:
            setattr(cfg, name, parse(value))
        except ValueError as exc:
            problems.append(f"{key}: cannot parse {value!r} ({exc})")

    if cfg.kind is not None and cfg.kind not in EXPERIMENT_KINDS:
        problems.append(f"kind: {cfg.kind!r} is not one of {EXPERIMENT_KINDS}")
    if cfg.seed is None:
        problems.append("seed: required (reproducibility) but missing")
    elif cfg.seed < 0:  # numpy's generators take no negative seed
        problems.append(f"seed: must be >= 0, got {cfg.seed}")
    if cfg.dim not in (1, 2):
        problems.append(f"dim: must be 1 or 2, got {cfg.dim}")
    if not cfg.box_halfwidth > 0:
        problems.append(f"box.halfwidth: must be positive, got {cfg.box_halfwidth}")
    if cfg.box_nodes == 0:
        cfg.box_nodes = 127 if cfg.dim == 1 else 24
    if cfg.box_nodes < 1:
        problems.append(f"box.nodes: must be >= 1, got {cfg.box_nodes}")
    if not cfg.shape:
        cfg.shape = "interval:-0.25,0.25" if cfg.dim == 1 else "square:0.5"
    else:
        try:
            parse_shape_spec(cfg.shape)
        except ValueError as exc:
            problems.append(f"shape: {exc}")
    for s in cfg.s_values:
        if not 0.0 < s <= 1.0:
            problems.append(f"s.values: entries must lie in (0, 1], got {s}")
    if any(a2 <= a1 for a1, a2 in zip(cfg.alpha_values, cfg.alpha_values[1:])):
        problems.append(f"alpha.values: must be strictly increasing, got {cfg.alpha_values}")
    if any(a < 1.0 for a in cfg.alpha_values):
        problems.append(f"alpha.values: entries must be >= 1, got {cfg.alpha_values}")
    if cfg.trials < 1:
        problems.append(f"trials: must be >= 1, got {cfg.trials}")
    if cfg.extension_layers < 4:
        problems.append(f"extension.layers: must be >= 4, got {cfg.extension_layers}")
    if cfg.extension_height < 0:
        problems.append(f"extension.height: must be >= 0 (0 = auto), got {cfg.extension_height}")
    if cfg.extension_grading != 0.0 and cfg.extension_grading < 1.0:
        problems.append(f"extension.grading: must be >= 1 (or 0 = auto), got {cfg.extension_grading}")
    if cfg.sobolev_pad < 1:
        problems.append(f"sobolev.pad: must be >= 1, got {cfg.sobolev_pad}")
    for name in ("tol_margin", "tol_coincidence", "tol_positivity", "tol_chain",
                 "tol_energy_gap", "tol_sobolev_gap"):
        if getattr(cfg, name) <= 0:
            problems.append(f"{name.replace('_', '.', 1)}: must be positive")
    if cfg.tol_ratio_final < 1.0:
        problems.append(f"tol.ratio_final: must be >= 1, got {cfg.tol_ratio_final}")
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return cfg


@dataclass(frozen=True)
class Check:
    """One asserted inequality: its margin (signed slack), tolerance and verdict."""

    name: str
    margin: float
    tolerance: float
    passed: bool


@dataclass
class ExperimentReport:
    """One experiment's results: ``rows`` is one typed table, a NumPy structured
    array whose field names are the report's columns."""

    kind: str
    config: dict
    rows: np.ndarray
    checks: list[Check]
    wall_time_seconds: float
    versions: dict = field(default_factory=dict)

    @property
    def columns(self) -> list[str]:
        return list(self.rows.dtype.names)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


# A check's pass rule: a gap stays within its tolerance (<= tol), a strict slack exceeds it
# (> tol), a slack falls at most tol below zero (>= -tol); a NaN margin fails each.
_SENSES = {"<= tol": lambda m, tol: m <= tol, "> tol": lambda m, tol: m > tol,
           ">= -tol": lambda m, tol: m >= -tol}


def _verdict(check: str, s: float, margin: float, tolerance: float, sense: str) -> Check:
    """The verdict of ``check`` at exponent ``s``: ``margin`` against ``tolerance`` in ``sense``."""
    margin = float(margin)
    return Check(name=f"{check}[s={s:g}]", margin=margin, tolerance=tolerance,
                 passed=bool(_SENSES[sense](margin, tolerance)))


def _versions() -> dict:
    return {"fraclab": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _build_box(cfg: ExperimentConfig) -> BoxGrid:
    if cfg.box_nodes > _MAX_BASIS_NODES:
        raise ConfigError(
            f"box.nodes: {cfg.box_nodes} nodes per axis > {_MAX_BASIS_NODES} for the dense "
            "sine basis; reduce box.nodes or use the sobolev experiment"
        )
    return make_box(cfg.dim, cfg.box_halfwidth, cfg.box_nodes)


def _check_mask(domain: SubDomain, key: str) -> None:
    if domain.node_count > _MAX_MASK_NODES:
        raise ConfigError(
            f"{key}: mask of {domain.node_count} nodes > {_MAX_MASK_NODES} for dense "
            "operators; reduce box.nodes or the shape"
        )


def _build_domain(cfg: ExperimentConfig) -> tuple[BoxGrid, SubDomain]:
    box = _build_box(cfg)
    try:
        domain = make_shape(box, *parse_shape_spec(cfg.shape))
    except ValueError as exc:
        raise ConfigError(f"shape: {exc}") from exc
    _check_mask(domain, "shape")
    return box, domain


def _ground_state(domain: SubDomain) -> np.ndarray:
    """Lowest eigenvector of the domain Laplacian, normalized nonnegative."""
    v = domain.eigen.eigenvectors[:, 0].copy()
    if v.sum() < 0:
        v = -v
    return np.maximum(v, 0.0)


def _domain_diameter(domain: SubDomain) -> float:
    coords = domain.coords()
    spans = coords.max(axis=0) - coords.min(axis=0) + 2.0 * domain.grid.h
    return float(np.max(spans))


def _mesh_for(cfg: ExperimentConfig, domain: SubDomain, s: float):
    height = cfg.extension_height or 8.0 * _domain_diameter(domain)
    gamma = cfg.extension_grading or default_grading(s)
    return graded_mesh(cfg.extension_layers, height, gamma)


def _run_spectra(cfg: ExperimentConfig) -> tuple[np.ndarray, list[Check]]:
    box, domain = _build_domain(cfg)
    n, checks = domain.node_count, []
    rows = np.empty(n * len(cfg.s_values), dtype=[("s", "f8"), ("j", "i8"), ("lambda_navier", "f8"),
                                                   ("lambda_dirichlet", "f8"), ("margin", "f8")])
    for block, s in zip(np.split(rows, len(cfg.s_values)), cfg.s_values):
        comp = compare_spectra(domain, box, s)
        block["s"], block["j"] = s, np.arange(1, n + 1)
        block["lambda_navier"], block["lambda_dirichlet"] = comp.navier, comp.dirichlet
        block["margin"] = comp.margins
        if s == 1.0:
            checks.append(_verdict("coincidence", s, np.max(np.abs(comp.margins)),
                                   cfg.tol_coincidence, "<= tol"))
        else:
            checks.append(_verdict("eigenvalue_domination", s, np.min(comp.margins),
                                   cfg.tol_margin, "> tol"))
    return rows, checks


def _run_positivity(cfg: ExperimentConfig) -> tuple[np.ndarray, list[Check]]:
    box, domain = _build_domain(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows, checks = [], []
    for s in cfg.s_values:
        diff = difference_operator(domain, box, s)
        worst = np.inf
        for trial in range(cfg.trials):
            u = rng.random(domain.node_count)
            out = diff @ u
            witness = int(np.argmin(out))
            rows.append((s, trial, out[witness], witness))
            worst = min(worst, float(out[witness]))
        checks.append(_verdict("positivity_preserving", s, worst, cfg.tol_positivity, ">= -tol"))
    dtype = [("s", "f8"), ("trial", "i8"), ("min_entry", "f8"), ("witness", "i8")]
    return np.array(rows, dtype=dtype), checks


def _run_monotonicity(cfg: ExperimentConfig) -> tuple[np.ndarray, list[Check]]:
    box = _build_box(cfg)  # the random masks stay far below the mask cap
    rng = np.random.default_rng(cfg.seed)
    max_png = 6 if cfg.dim == 1 else 10
    if box.size < 2 * max_png + 1:
        raise ConfigError(f"box.nodes: the random outer masks take up to {2 * max_png + 1} "
                          f"nodes, more than the box's {box.size}; raise box.nodes")
    rows, checks = [], []
    for s in cfg.s_values:
        worst = np.inf
        for trial in range(cfg.trials):
            inner_size = int(rng.integers(2, max_png + 1))
            outer_size = inner_size + int(rng.integers(1, max_png + 2))
            inner, outer = random_nested_masks(box, inner_size, outer_size, rng)
            u = rng.standard_normal(inner.node_count)
            q_d, q_n_outer, q_n_inner = monotonicity_check(inner, outer, box, s, u)
            slack_lo = q_n_outer - q_d
            slack_hi = q_n_inner - q_n_outer
            rows.append((s, trial, q_d, q_n_outer, q_n_inner, slack_lo, slack_hi))
            worst = min(worst, slack_lo, slack_hi)
        checks.append(_verdict("monotone_chain", s, worst, cfg.tol_chain, ">= -tol"))
    dtype = [("s", "f8"), ("trial", "i8"), ("q_dirichlet", "f8"), ("q_navier_outer", "f8"),
             ("q_navier_inner", "f8"), ("slack_lower", "f8"), ("slack_upper", "f8")]
    return np.array(rows, dtype=dtype), checks


def _run_extension(cfg: ExperimentConfig) -> tuple[np.ndarray, list[Check]]:
    lattice = cfg.box_nodes**cfg.dim * (cfg.extension_layers + 1)
    if lattice > _MAX_EXTENSION_VALUES:
        raise ConfigError(f"extension.layers: the Dirichlet extension's distinct-profile lattice "
                          f"could exceed {_MAX_EXTENSION_VALUES} values (box.nodes^dim * "
                          f"(extension.layers + 1) = {lattice} bounds it); "
                          "reduce extension.layers or box.nodes")
    if max(cfg.s_values) >= 1.0:
        raise ConfigError("extension experiment needs s strictly inside (0, 1)")
    _, domain = _build_domain(cfg)
    u = _ground_state(domain)
    rows, checks = [], []
    for s in cfg.s_values:
        # Least memory: Dirichlet solve with no solution alive, identity check with Navier's alone
        mesh = _mesh_for(cfg, domain, s)
        dirichlet = solve_extension(u, domain, "dirichlet", s, mesh)
        navier = solve_extension(u, domain, "navier", s, mesh)
        order = extension_ordering_check(navier, dirichlet)
        del dirichlet
        ident = energy_identity_check(navier)
        del navier
        rows.append((s, ident.form_value, ident.energy_value, ident.rel_gap,
                     order.lattice_min, order.interior_min))
        checks += [_verdict("energy_identity", s, ident.rel_gap, cfg.tol_energy_gap, "<= tol"),
                   _verdict("ordering_lattice", s, order.lattice_min, cfg.tol_positivity,
                            ">= -tol"),
                   _verdict("ordering_interior", s, order.interior_min, 0.0, "> tol")]
    dtype = [("s", "f8"), ("form_value", "f8"), ("energy_value", "f8"), ("rel_gap", "f8"),
             ("ordering_lattice_min", "f8"), ("ordering_interior_min", "f8")]
    return np.array(rows, dtype=dtype), checks


def _sobolev_quotient(dim: int, halfwidth: float, nodes: int, pad: int, s: float) -> float:
    if (pad * (nodes + 1)) ** dim > _MAX_FFT_NODES:
        raise ConfigError(
            f"FFT box too large: (pad*(box.nodes+1))^dim exceeds {_MAX_FFT_NODES}; "
            "reduce box.nodes or sobolev.pad"
        )
    grid = make_box(dim, halfwidth, nodes)
    u = extremal_function(grid, dim, s)
    fft_box = make_box(dim, pad * halfwidth, pad * (nodes + 1) - 1)
    form = fourier_form(u, fft_box, s)
    return rayleigh_quotient(form, u, SobolevSetup(n=dim, s=s).critical_exponent)


def _run_sobolev(cfg: ExperimentConfig) -> tuple[np.ndarray, list[Check]]:
    n, pad = cfg.box_nodes, cfg.sobolev_pad
    if (pad - 1) * (n + 1) % 2:  # the FFT box's lattice would miss the sampling nodes
        raise ConfigError(f"box.nodes: {n} does not align with the FFT box of sobolev.pad = {pad}; "
                          f"the nearest aligned values are box.nodes = {n - 1} and {n + 1}")
    for s in cfg.s_values:
        if cfg.dim <= 2.0 * s:
            raise ConfigError(
                f"sobolev experiment requires dim > 2s, got dim={cfg.dim}, s={s}; "
                "lower s or raise dim"
            )
    rows, checks = [], []
    for s in cfg.s_values:
        reference = sobolev_constant_closed_form(cfg.dim, s)
        rows.append(("closed_form", s, cfg.dim, reference, reference, 0.0))
        q1 = _sobolev_quotient(cfg.dim, cfg.box_halfwidth, cfg.box_nodes, cfg.sobolev_pad, s)
        gap1 = abs(q1 - reference) / reference
        rows.append(("quotient", s, cfg.box_halfwidth, q1, reference, gap1))
        q2 = _sobolev_quotient(cfg.dim, 2.0 * cfg.box_halfwidth, 2 * (cfg.box_nodes + 1) - 1,
                               cfg.sobolev_pad, s)
        gap2 = abs(q2 - reference) / reference
        rows.append(("quotient_doubled", s, 2.0 * cfg.box_halfwidth, q2, reference, gap2))
        checks += [_verdict("quotient_near_constant", s, gap1, cfg.tol_sobolev_gap, "<= tol"),
                   _verdict("gap_shrinks_with_box", s, gap1 - gap2, 0.0, "> tol")]
    dtype = [("record", "O"), ("s", "f8"), ("parameter", "f8"), ("value", "f8"),
             ("reference", "f8"), ("rel_gap", "f8")]
    return np.array(rows, dtype=dtype), checks


def _run_sweep(cfg: ExperimentConfig) -> tuple[np.ndarray, list[Check]]:
    _, domain = _build_domain(cfg)
    try:
        largest = dilate(domain, cfg.alpha_values[-1])
    except ValueError as exc:
        raise ConfigError(f"alpha.values: {exc}; reduce the largest factor") from exc
    _check_mask(largest, "alpha.values")
    u = _ground_state(domain)
    try:
        table = dilation_sweep(u, domain, list(cfg.s_values), list(cfg.alpha_values))
    except ValueError as exc:
        raise ConfigError(f"alpha.values: {exc}") from exc
    checks, n = [], len(cfg.alpha_values)
    for j, s in enumerate(cfg.s_values):  # the rows of exponent j are rows j*n..(j+1)*n-1
        ratios = np.array([r.ratio for r in table[j * n:(j + 1) * n]])
        checks += [_verdict("ratio_lower_bound", s, ratios.min() - 1.0, cfg.tol_coincidence,
                            ">= -tol"),
                   _verdict("final_ratio", s, ratios[-1], cfg.tol_ratio_final, "<= tol")]
        if s == 1.0:
            checks.append(_verdict("ratio_coincidence", s, np.max(np.abs(ratios - 1.0)),
                                   cfg.tol_coincidence, "<= tol"))
        elif len(ratios) > 1:
            checks.append(_verdict("ratio_decreasing", s, np.min(ratios[:-1] - ratios[1:]), 0.0,
                                   "> tol"))
    return np.array(table, dtype=[(name, "f8") for name in SweepRow._fields]), checks


_RUNNERS = {
    "spectra": _run_spectra,
    "positivity": _run_positivity,
    "monotonicity": _run_monotonicity,
    "extension": _run_extension,
    "sobolev": _run_sobolev,
    "sweep": _run_sweep,
}


def run(cfg: ExperimentConfig, kind: str | None = None) -> ExperimentReport:
    """Execute one experiment; deterministic for a fixed config and seed."""
    resolved = kind or cfg.kind
    if resolved is None:
        raise ConfigError("no experiment kind given (set 'kind =' or use a subcommand)")
    if cfg.kind is not None and kind is not None and cfg.kind != kind:
        raise ConfigError(f"config kind {cfg.kind!r} does not match requested {kind!r}")
    if resolved not in _RUNNERS:
        raise ConfigError(f"unknown experiment kind {resolved!r}")
    start = time.perf_counter()
    rows, checks = _RUNNERS[resolved](cfg)
    elapsed = time.perf_counter() - start
    config_echo = cfg.echo()
    config_echo["kind"] = resolved
    return ExperimentReport(
        kind=resolved,
        config=config_echo,
        rows=rows,
        checks=checks,
        wall_time_seconds=elapsed,
        versions=_versions(),
    )


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(float(value))  # shortest round-trip form, numpy scalars included
    return str(value)


def _cell_texts(row: tuple) -> tuple[list[str], list[str]]:
    """A row's CSV fields and JSON values, each cell formatted to text once.

    A finite float or an int (not a bool) is its repr in both files; any
    other cell is :func:`_format_cell` in the CSV and ``json.dumps`` in the
    JSON, indented as a value inside a row.
    """
    fields, values = [], []
    for v in row:
        if type(v) is int or type(v) is float and math.isfinite(v):
            text = repr(v)
            fields.append(text)
            values.append(text)
        else:
            fields.append(_format_cell(v))
            values.append(json.dumps(v, indent=2, sort_keys=True).replace("\n", "\n      "))
    return fields, values


_WRITE_CHUNK = 1024  # table rows turned into Python cells at a time


def write_report(report: ExperimentReport, out_dir: str | Path) -> list[Path]:
    """Write ``<kind>.csv`` and ``<kind>.json``; identical inputs yield byte-identical files.

    The files hold, byte for byte, what ``csv.writer`` over
    :func:`_format_cell` and ``json.dumps(payload, indent=2, sort_keys=True)``
    would write of ``report.rows.tolist()``, but the typed table is streamed in
    one pass to both files, _WRITE_CHUNK rows at a time turned into Python
    cells, each cell formatted to text once (:func:`_cell_texts`), so neither
    a whole-report string nor the table's Python rows are held.  Volatile
    fields (wall time) are kept out of the files on purpose so that reruns
    with the same config and seed compare equal byte for byte.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path, json_path = out / f"{report.kind}.csv", out / f"{report.kind}.json"
    payload = {
        "kind": report.kind,
        "config": report.config,
        "columns": report.columns,
        "rows": [],
        "checks": [asdict(c) for c in report.checks],
        "versions": report.versions,
    }
    # a top-level key starts a line indented by two; no JSON string holds a raw newline
    rows_key = '\n  "rows": ['
    head, _, tail = json.dumps(payload, indent=2, sort_keys=True).partition(rows_key + "]")
    with csv_path.open("w", newline="") as csv_fh, json_path.open("w") as json_fh:
        writer = csv.writer(csv_fh)
        writer.writerow(report.columns)
        json_fh.write(head + rows_key)
        sep = "\n    "
        for i in range(0, len(report.rows), _WRITE_CHUNK):
            for row in report.rows[i:i + _WRITE_CHUNK].tolist():
                fields, values = _cell_texts(row)
                writer.writerow(fields)
                json_fh.write(sep + ("[\n      " + ",\n      ".join(values) + "\n    ]"
                                     if values else "[]"))
                sep = ",\n    "
        json_fh.write(("\n  ]" if len(report.rows) else "]") + tail + "\n")
    return [csv_path, json_path]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fraclab",
        description="Run fractional-Laplacian comparison experiments from a config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", required=True, help="path to the key=value config file")
        p.add_argument("--out", default="", help="output directory (default: out.dir or '.')")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        report = run(cfg, kind=args.command)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or cfg.out_dir or "."
    try:
        paths = write_report(report, out_dir)
    except OSError as exc:
        print(f"error: cannot write report: {exc}", file=sys.stderr)
        return 2
    for check in report.checks:
        verdict = "PASS" if check.passed else "FAIL"
        print(f"{verdict} {check.name}: margin={check.margin:.6g} tolerance={check.tolerance:.6g}")
    print(f"wrote {', '.join(str(p) for p in paths)} "
          f"({report.wall_time_seconds:.2f}s)")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
