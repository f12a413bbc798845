"""In-memory spans around the public functions of the fraclab layers.

A :class:`Tracer` wraps every public function of the six layer modules and
records one span per call: ``[name, start, end, parent, work]``, where
``parent`` is the index of the enclosing wrapped span (-1 at top level) and
``work`` is an optional count computed from the call's inputs or result
(Σ n³ for eigensolves, modes × layers for extension solves, bytes for
reports).  Spans stay in memory; the caller writes them out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from pathlib import Path

LAYERS = ("linalg", "domain", "operators", "extension", "analysis", "cli")


def _eigen_n3(args: dict) -> int:
    return len(args["matrix"]) ** 3


def _mode_layers(args: dict) -> int:
    domain = args["domain"]
    modes = domain.node_count if args["variant"] == "navier" else domain.grid.size
    return modes * args["mesh"].layers


def _bytes_written(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# work counted from the call's bound arguments, and from its result
WORK_IN = {"linalg.eigendecompose": _eigen_n3, "extension.solve_extension": _mode_layers}
WORK_OUT = {"cli.write_report": _bytes_written}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def _wrap(self, name: str, fn):
        work_in, work_out = WORK_IN.get(name), WORK_OUT.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            if work_in is not None:
                span[4] = work_in(signature.bind(*args, **kwargs).arguments)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work_out is not None:
                span[4] = work_out(result)
            return result

        return wrapper

    def install(self) -> dict:
        """Wrap the public functions of every layer; return {original: wrapper}.

        ``from .x import f`` copies the binding, so every fraclab module
        attribute that holds an original is replaced, not only the defining one.
        """
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"fraclab.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for module in fraclab_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._installed.append((module, attr, value))
        return wrappers

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def fraclab_modules() -> list:
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "fraclab" or name.startswith("fraclab."))]


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct child spans."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(end - start) - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def summarize(spans: list) -> dict:
    """Per function: calls, inclusive seconds, self seconds and summed work."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, work = span
        row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        row["calls"] += 1
        row["s"] += end - start
        row["self_s"] += own
        row["work"] += work or 0
    return table
