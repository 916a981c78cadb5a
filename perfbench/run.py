"""Benchmark of the futurity package: four seeded workloads, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 it runs one workload for about S seconds with tracing off
and reports the end-to-end metrics. With --trace 1 it runs every workload,
each once untraced and once traced over the same ops, and reports the
per-layer metrics and the tracing overhead. Every op's output is checked.
A report goes to stdout first; the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("sweep", "long-pattern", "mc-replicate", "mc-trajectory")
WORK_DIR = ".perfbench-work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)


def import_package(root: Path) -> None:
    """Import futurity from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "futurity" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/futurity under {root}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import futurity

    if Path(futurity.__file__).resolve().parent != (src / "futurity").resolve():
        raise SystemExit(f"perfbench: imported futurity from {futurity.__file__}, not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    cap_threads()
    import_package(root)
    import harness

    (root / WORK_DIR).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=root / WORK_DIR))
    try:
        if args.setup_probe:
            runner = harness.Runner()
            harness.setup(args.workload, args.seed, workdir, runner)
            print("ready" if runner.failed == 0 else "failed", flush=True)
            return 0
        return harness.measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
