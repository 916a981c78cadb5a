"""Runs the workloads' ops, checks them, and builds the metrics and the report."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
from tracer import Tracer

from run import THREAD_VARS, WORK_DIR, WORKLOADS

SETUP_PROBES = 3
# p99 and beyond are left out: on a shared 2-vCPU host 1-2% of 12 ms sweep
# ops lose 2-7 ms to preemption (wall minus thread CPU time), so p99 there
# measures the host's scheduling, not the program.
TAIL_LADDER = (50, 75, 90, 95)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Pass:
    """Timings and counts of a sequence of ops."""

    latencies: list[float] = field(default_factory=list)  # seconds, successful ops only
    items: int = 0
    extra: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    cycles: int = 0


class Runner:
    """Executes ops, checks them, and keeps the run's CSV digests and failures."""

    def __init__(self):
        self.digests: dict[str, str] = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def execute(self, op, record: Pass | None = None, tracer=None, op_attrs: dict | None = None) -> float | None:
        """Run and check one op; its timed seconds, or None when it failed."""
        record = record if record is not None else Pass()
        self.attempted += 1
        try:
            start = time.perf_counter()
            with tracer.span("bench", "op") if tracer else nullcontext() as span_id:
                result = op.run()
            elapsed = time.perf_counter() - start
            with tracer.pause() if tracer else nullcontext():
                outcome = op.check(result)
            for key, digest in outcome.digests.items():
                if self.digests.setdefault(key, digest) != digest:
                    raise workloads.CheckFailed(f"CSV digest changed between identical runs: {key}")
        except workloads.CheckFailed as exc:
            self._fail(f"{op.label}: {exc}")
            return None
        except Exception:  # an op that raises is counted as failed, never skipped
            self._fail(f"{op.label}: {traceback.format_exc()}")
            return None
        record.latencies.append(elapsed)
        record.items += outcome.items
        for key, value in outcome.extra.items():
            record.extra[key] += value
        if op_attrs is not None:
            op_attrs[span_id] = op.attrs
        return elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"perfbench: op failed: {message}", file=sys.stderr)

    def run_pass(self, workload, *, seconds=None, cycles=None, tracer=None, op_attrs=None) -> Pass:
        """Whole cycles of ops, until `cycles` are done or `seconds` have passed."""
        record = Pass()
        start = time.perf_counter()
        while True:
            for op in workload.cycle(record.cycles):
                self.execute(op, record, tracer, op_attrs)
            record.cycles += 1
            if (record.cycles >= cycles) if cycles is not None else (time.perf_counter() - start >= seconds):
                return record


def make_workload(name: str, seed: int, workdir: Path):
    if name == "sweep":
        return workloads.Sweep(seed)
    if name == "long-pattern":
        return workloads.LongPattern(seed)
    if name == "mc-replicate":
        return workloads.McReplicate(seed, workdir, workers=nproc())
    return workloads.McTrajectory(seed, workdir)


def setup(name: str, seed: int, workdir: Path, runner: Runner):
    """Input generation plus one untimed warm-up op."""
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, workdir)
    runner.execute(workload.cycle(0)[0])
    return workload


def setup_seconds(name: str, seed: int, root: Path) -> list[float]:
    """Wall time from process start to the end of set-up, in fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", name, "--seed", str(seed), "--setup-probe"]
        start = time.perf_counter()
        with subprocess.Popen(argv, cwd=root, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited with code {code}, reporting {line.strip()!r}")
        times.append(elapsed)
    return times


def percentile(ordered: list[float], pct: float) -> float:
    """Linearly interpolated percentile of sorted samples (the median at 50)."""
    pos = (len(ordered) - 1) * pct / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) at the highest ladder percentile
    with at least ten samples beyond it; the median when none has."""
    ordered = sorted(latencies)
    pct, value = 50, percentile(ordered, 50)
    for p in TAIL_LADDER:
        v = percentile(ordered, p)
        if sum(x > v for x in ordered) >= 10:
            pct, value = p, v
    return pct, value, sum(x > value for x in ordered)


def end_to_end(workload, record: Pass, probes: list[float]) -> tuple[dict, dict]:
    pct, tail_s, beyond = tail(record.latencies)
    busy = sum(record.latencies)
    metrics = {
        "setup_s": (statistics.median(probes), "s"),
        "op_p50_ms": (1e3 * statistics.median(record.latencies), "ms"),
        "op_tail_ms": (1e3 * tail_s, "ms"),
        "throughput_per_s": (record.items / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    details = {
        "ops_timed": len(record.latencies),
        "cycles": record.cycles,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "throughput_unit": f"{workload.items}/s",
        "setup_probes_s": probes,
        **workload.named_rates(record.items, busy, record.extra),
    }
    return metrics, details


def traced_metrics(name: str, seed: int, seconds: float, workdir: Path, runner: Runner) -> tuple[dict, dict]:
    """One workload untraced, then traced over the same ops; its per-layer metrics."""
    workload = setup(name, seed, workdir, runner)
    plain = runner.run_pass(workload, seconds=seconds)
    tracer = Tracer()
    op_attrs: dict[int, dict] = {}
    tracer.install()
    try:
        traced = runner.run_pass(workload, cycles=plain.cycles, tracer=tracer, op_attrs=op_attrs)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    profile = layers.Profile(spans, op_attrs)
    context = {"seed": seed, "plain": plain, "execute": runner.execute}
    metrics = layers.METRICS[name](workload, profile, context)
    ops = len(traced.latencies)
    overhead_ms = 1e3 * (sum(traced.latencies) - sum(plain.latencies)) / ops
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")
    details = {"ops": ops, "cycles": plain.cycles, "spans": len(spans),
               "untraced_ms": 1e3 * sum(plain.latencies), "traced_ms": 1e3 * sum(traced.latencies)}  # fmt: skip
    return {f"{name}.{key}": value for key, value in metrics.items()}, details


def environment(root: Path, seed: int) -> dict:
    import numpy

    def read(path: str) -> str | None:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                if line.startswith("model name")), platform.processor())  # fmt: skip
    l3 = next((read(f"{d}/size") for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
               if read(f"{d}/level") == "3"), None)  # fmt: skip
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas = "unknown"
    head = read(root / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        head = read(root / ".git" / head[5:])
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l3_cache": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": head or "unavailable",
        "seed": seed,
    }


def check_digest_store(root: Path, digests: dict[str, str]) -> list[str]:
    """Compare this run's CSV digests with earlier runs in this checkout, then add them."""
    store = root / WORK_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    mismatches = [key for key, digest in digests.items() if known.setdefault(key, digest) != digest]
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, store)
    return mismatches


def measure(args, root: Path, workdir: Path) -> int:
    runner = Runner()
    report: dict = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        metrics: dict = {}
        report["traced"] = {}
        start = time.perf_counter()
        for name in WORKLOADS:
            # Half of each workload's share goes to the untraced pass, half to the traced one.
            found, details = traced_metrics(name, args.seed, args.seconds / (2 * len(WORKLOADS)), workdir / name, runner)
            metrics.update(found)
            report["traced"][name] = details
        report["wall_s"] = time.perf_counter() - start
    else:
        probes = setup_seconds(args.workload, args.seed, root)
        workload = setup(args.workload, args.seed, workdir, runner)
        record = runner.run_pass(workload, seconds=args.seconds)
        metrics, report["details"] = end_to_end(workload, record, probes)
    mismatches = check_digest_store(root, runner.digests)
    report["csv_digests"] = runner.digests
    report["digest_mismatches_with_earlier_runs"] = mismatches
    report["errors"] = runner.errors
    report["environment"] = environment(root, args.seed)
    correct = runner.failed == 0 and not mismatches
    print(json.dumps(report, indent=2, default=str))
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
