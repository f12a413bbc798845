"""One measured run of a fraclab experiment, in a fresh process.

Imports fraclab from the given ``src`` directory, then calls the public
``cli.parse_config``, ``cli.run`` and ``cli.write_report`` and times them
from outside.  Writes a JSON result: the clock reading when the config was
parsed (``run.py`` subtracts its spawn time to get the set-up time), the run
time, the peak resident set, library facts and, when traced, the spans.

    python3 child.py --src SRC --config CFG --out DIR --result FILE [--trace]
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import fraclab.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"fraclab imported from {cli.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    cfg = cli.parse_config(Path(args.config).read_text())
    parsed_at = time.monotonic()
    start = time.perf_counter()
    report = cli.run(cfg)
    cli.write_report(report, args.out)
    result = {
        "parsed_at": parsed_at,
        "run_s": time.perf_counter() - start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "facts": _facts(),
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
