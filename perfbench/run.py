"""fraclab benchmark: pinned CLI experiments, timed end to end and per layer.

    python3 perfbench/run.py --workload mono-2d --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all                # every workload in turn
    python3 perfbench/run.py --workload mono-2d --seed 2 --record   # rewrite a reference

Each measured run is a fresh child process (``child.py``) that imports the
checkout's ``src/`` and runs one pinned experiment config through the public
``fraclab.cli`` functions.  Runs repeat until ``--seconds`` is used up and
every metric is the median over runs.  Every run is gated: all checks must
pass and the report must match the committed reference (``gate.py``); a run
that fails the gate, exits non-zero or times out counts as failed.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (child spawn until
``cli.parse_config`` returns), ``run_s`` (``cli.run`` plus
``cli.write_report``) and ``peak_rss_mb`` (the child's ``ru_maxrss``).
``--trace 1`` alternates traced and untraced runs and a run with BLAS on one
thread, and reports per-function spans, layer self times, the tracing
overhead and the single-thread run time.  The last line of standard output
is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gate
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"
DEFAULT_SEED = 1
# a child is killed when it would end the whole run later than this
RUN_LIMIT_S = 170.0


# Every key the experiment reads is set, so a changed default cannot change
# the work.  `predicted` is the span or layer the traced run should find on top.
WORKLOADS = {
    "mono-2d": {
        "seeded": True,
        "predicted": "operators.dirichlet_operator",
        "kind": "monotonicity",
        "keys": """\
dim = 2
shape = square:0.5
box.nodes = 48
s.values = 0.25,0.5,0.75
trials = 10
tol.chain = 1e-10
""",
    },
    "spectra-1d": {
        "seeded": False,
        "predicted": "linalg",
        "kind": "spectra",
        "keys": """\
dim = 1
shape = interval:-0.5,0.5
box.nodes = 1535
s.values = 0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0
tol.margin = 1e-9
tol.coincidence = 1e-10
""",
    },
    "extension-2d": {
        "seeded": False,
        "predicted": "extension.solve_extension",
        "kind": "extension",
        "keys": """\
dim = 2
shape = disk:0.5
box.nodes = 40
extension.layers = 1024
extension.grading = 2
extension.height = 0
s.values = 0.25,0.35,0.45,0.55,0.65,0.75
tol.energy_gap = 0.03
tol.positivity = 1e-8
""",
    },
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# traced function -> statistics reported for it
TRACED = {
    "operators.dirichlet_operator": ("calls", "self_s"),
    "operators.navier_operator": ("calls", "self_s"),
    "operators.assemble_laplacian": ("calls", "self_s"),
    "operators.compare_spectra": ("calls", "self_s"),
    "operators.monotonicity_check": ("calls", "self_s"),
    "linalg.eigendecompose": ("calls", "self_s", "n3"),
    "linalg.spectral_power": ("calls", "self_s"),
    "linalg.sym_matrix": ("calls", "self_s"),
    "extension.solve_extension": ("calls", "self_s", "mode_layers"),
    "extension.energy_identity_check": ("self_s",),
    "extension.extension_ordering_check": ("self_s",),
    "cli.write_report": ("s", "bytes"),
    "cli.parse_config": ("s",),
    "domain.make_shape": ("calls", "s"),
    "domain.random_nested_masks": ("calls", "s"),
}
_STAT_FIELD = {"calls": "calls", "self_s": "self_s", "s": "s",
               "n3": "work", "mode_layers": "work", "bytes": "work"}
_STAT_UNIT = {"calls": "count", "self_s": "s", "s": "s",
              "n3": "count", "mode_layers": "count", "bytes": "bytes"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{fn}.{stat}": _STAT_UNIT[stat] for fn, stats in TRACED.items() for stat in stats}
    units.update({f"{layer}.self_s": "s" for layer in tracing.LAYERS})
    units["trace.overhead_s"] = "s"
    units["run_s.blas1"] = "s"
    return units


def run_facts(threads: int) -> dict:
    head = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            head = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "git_head": head,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": threads,
        "OMP_NUM_THREADS": threads,
        "src_lines": src_lines,
    }


class Session:
    """Spawns, times and gates child runs of one workload and seed."""

    def __init__(self, workload: str, seed: int, work: Path, threads: int):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.work = work
        self.threads = threads
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.facts: dict = {}
        self.config = work / f"{workload}.cfg"
        self.config.write_text(f"kind = {self.spec['kind']}\nseed = {seed}\n"
                               f"box.halfwidth = 1.0\n{self.spec['keys']}")
        exact = REFERENCES / f"{workload}.seed{seed}.json.gz"
        if not self.spec["seeded"]:
            self.reference, self.numbers = REFERENCES / f"{workload}.json.gz", True
        elif exact.exists():
            self.reference, self.numbers = exact, True
        else:
            # other seeds change mono-2d's inputs: gate on structure and verdicts only
            self.reference = REFERENCES / f"{workload}.seed{DEFAULT_SEED}.json.gz"
            self.numbers = False

    def spawn(self, run_dir: Path, flags: list[str], threads: int) -> tuple[int | None, float]:
        """Run child.py into ``run_dir``; its exit code (None on timeout) and spawn time."""
        env = dict(os.environ)
        env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = str(threads)
        cmd = [sys.executable, str(HERE / "child.py"), "--src", str(SRC),
               "--config", str(self.config), "--out", str(run_dir),
               "--result", str(run_dir / "result.json"), *flags]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, cwd=ROOT)
        try:
            return proc.wait(timeout=max(1.0, RUN_LIMIT_S - (spawned - self.started))), spawned
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return None, spawned

    def child(self, *, trace=False, threads=None) -> dict | None:
        """One gated child run; its result, or None when it failed."""
        self.attempted += 1
        run_dir = Path(tempfile.mkdtemp(dir=self.work))
        try:
            code, spawned = self.spawn(run_dir, ["--trace"] * trace, threads or self.threads)
            if code != 0:
                return self._fail("child timed out" if code is None else f"child exited with code {code}")
            try:
                result = json.loads((run_dir / "result.json").read_text())
                report = json.loads((run_dir / f"{self.spec['kind']}.json").read_text())
                problems = gate.compare(report, self.reference_data, self.numbers)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                return self._fail(f"unreadable result or report: {exc!r}")
            if problems:
                return self._fail("; ".join(problems[:5]))
            self.facts = result.pop("facts")
            result["setup_s"] = result["parsed_at"] - spawned
            return result
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    @functools.cached_property
    def reference_data(self) -> dict:
        return gate.load(self.reference)

    def _fail(self, why: str) -> None:
        self.failed += 1
        print(f"{self.name}: run {self.attempted} failed: {why}", file=sys.stderr)
        return None

    def repeat(self, seconds: float, round_fn) -> None:
        """Call ``round_fn`` until another round would overrun ``seconds``."""
        begin = time.monotonic()
        durations = []
        while True:
            t = time.monotonic()
            round_fn()
            durations.append(time.monotonic() - t)
            if time.monotonic() + statistics.median(durations) > begin + seconds:
                return


def measure(session: Session, seconds: float) -> dict:
    runs: list[dict] = []

    def one():
        result = session.child()
        if result is not None:
            runs.append(result)

    session.repeat(seconds, one)
    if not runs:
        return {}
    return {
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024.0 for r in runs),
    }


def layer_metrics(table: dict) -> dict:
    """Per-layer metrics of one traced run from its per-function summary."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
    out = {f"{fn}.{stat}": table.get(fn, empty)[_STAT_FIELD[stat]]
           for fn, stats in TRACED.items() for stat in stats}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(row["self_s"] for fn, row in table.items()
                                     if fn.startswith(layer + "."))
    return out


def measure_traced(session: Session, seconds: float) -> dict:
    """Rounds of a traced, an untraced and a one-thread BLAS run."""
    traced, overheads, single = [], [], []

    def one_round():
        with_spans = session.child(trace=True)
        plain = session.child()
        blas1 = session.child(threads=1)
        if with_spans is not None:
            traced.append(with_spans)
            if plain is not None:
                overheads.append(with_spans["run_s"] - plain["run_s"])
        if blas1 is not None:
            single.append(blas1["run_s"])

    session.repeat(seconds, one_round)
    if not (traced and overheads and single):
        return {}
    tables = [tracing.summarize(r["spans"]) for r in traced]
    per_run = [layer_metrics(table) for table in tables]
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    out["trace.overhead_s"] = statistics.median(overheads)
    out["run_s.blas1"] = statistics.median(single)
    print(dominant(session.name, tables[-1], per_run[-1], traced[-1]["run_s"]))
    return out


def dominant(workload: str, table: dict, layers: dict, run_s: float) -> str:
    """The layer and the function with the most self time, against the prediction."""
    layer = max(tracing.LAYERS, key=lambda name: layers[f"{name}.self_s"])
    fn = max(table, key=lambda name: table[name]["self_s"])
    predicted = WORKLOADS[workload]["predicted"]
    verdict = "holds" if predicted in (layer, fn) else "WRONG"
    return (f"{workload}: dominant layer {layer} "
            f"({layers[f'{layer}.self_s'] / run_s:.0%} of traced run_s), top function {fn} "
            f"({table[fn]['self_s'] / run_s:.0%}); predicted {predicted}: {verdict}")


def run_workload(workload: str, args, work: Path, threads: int, facts: dict):
    session = Session(workload, args.seed, work, threads)
    if args.trace:
        metrics, units = measure_traced(session, args.seconds), per_layer_units()
    else:
        metrics, units = measure(session, args.seconds), END_TO_END
    print(json.dumps({"workload": workload, "seed": args.seed, "facts": facts | session.facts}))
    for name, unit in units.items():
        if name in metrics:
            print(f"  {workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"  {workload} fail_ratio = {session.failed / max(session.attempted, 1):.6g} "
          f"({session.failed} failed / {session.attempted} attempted)")
    reported = {name: {"value": metrics[name], "unit": unit}
                for name, unit in units.items() if name in metrics}
    return session, reported, len(reported) == len(units)


def record(workload: str, seed: int, work: Path, threads: int) -> int:
    """Rewrite the committed reference for this workload and seed from one run."""
    session = Session(workload, seed, work, threads)
    code, _ = session.spawn(work, [], threads)
    if code != 0:
        print(f"error: child exited with code {code}", file=sys.stderr)
        return 1
    report = json.loads((work / f"{session.spec['kind']}.json").read_text())
    name = f"{workload}.seed{seed}" if session.spec["seeded"] else workload
    REFERENCES.mkdir(exist_ok=True)
    gate.save(report, REFERENCES / f"{name}.json.gz")
    print(f"wrote {REFERENCES / f'{name}.json.gz'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the reference report for --workload and --seed")
    args = parser.parse_args()
    if not (SRC / "fraclab" / "cli.py").is_file():
        print(f"error: no fraclab sources under {SRC}", file=sys.stderr)
        return 2

    threads = min(2, len(os.sched_getaffinity(0)))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if args.record:
            return max(record(name, args.seed, work, threads) for name in names)
        facts = run_facts(threads)
        attempted = failed = 0
        complete = True
        metrics = {}
        for name in names:
            session, reported, whole = run_workload(name, args, work, threads, facts)
            attempted += session.attempted
            failed += session.failed
            complete = complete and whole
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + key: value for key, value in reported.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"correct": failed == 0 and complete, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
