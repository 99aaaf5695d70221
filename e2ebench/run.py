"""Benchmark entry point: time to z=0 on one workload.

Usage, from the repository root::

    python3 e2ebench/run.py --workload pm-mesh --seed 1 --seconds 30 \
        --trace 0

Prints a readable summary (metrics with units, work counts, checks,
provenance), writes the run record (and, traced, the span trace) under
``.e2ebench/`` in the working directory, and ends with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
A job that raises is a failed operation: if no job of the kind the run
reports completes, that line has ``correct`` false and no metrics.
Exits non-zero without that line only when the program cannot be
imported.
"""

from __future__ import annotations

import os

# pin every native thread pool before numpy loads: the serial workloads
# run on one thread and the threaded one on exactly its executor workers
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(workload, seed: int) -> dict:
    import numpy
    import scipy

    from repro.instrument.store import git_revision
    from repro.shortrange.backends import resolve_backend

    return {
        "git_rev": git_revision(ROOT) or "unknown",
        "host": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "kernel_backend": resolve_backend("auto").name,
        "seed": seed,
        "workload": workload.name,
        "decomposition": workload.decomposition,
        "config": workload.simulation_config(seed).to_dict(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        from e2ebench.harness import (
            END_TO_END_UNITS,
            end_to_end,
            measure,
            per_layer,
            work,
        )
        from e2ebench.tracing import LAYER_UNITS
        from e2ebench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"e2ebench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    out_dir = Path.cwd() / ".e2ebench"
    m = measure(workload, args.seed, args.seconds, bool(args.trace),
                out_dir / f"work-{os.getpid()}")
    for err in m.errors:
        print(f"job failed: {err}", file=sys.stderr)
    if not m.jobs or (args.trace and not m.traced):
        print(json.dumps(_result(m, {})))
        return 0

    if args.trace:
        values, units = per_layer(m), LAYER_UNITS
    else:
        values, units = end_to_end(m), END_TO_END_UNITS
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "provenance": provenance(workload, args.seed),
        "jobs": {"untraced": len(m.jobs), "traced": len(m.traced)},
        "work": work(m),
        "checks": [c.to_dict() for c in m.checks],
        "errors": m.errors,
        "metrics": metrics,
    }
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if m.tracer is not None:
        (out_dir / f"{stem}.trace.json").write_text(
            json.dumps(m.tracer.chrome_trace())
        )

    print(f"workload {workload.name}  seed {args.seed}  "
          f"jobs {len(m.jobs)} untraced + {len(m.traced)} traced")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:14.6g} {entry['unit']}")
    for c in m.checks:
        print(f"  check {c.name:28s} {'ok  ' if c.ok else 'FAIL'} "
              f"value {c.value:.3g} bound {c.bound:.3g}")
    print("work " + json.dumps(record["work"]))
    print("provenance " + json.dumps(record["provenance"]))
    print(json.dumps(_result(m, metrics)))
    return 0


def _result(m, metrics: dict) -> dict:
    return {
        "correct": m.failed == 0,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
