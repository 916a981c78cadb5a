"""Per-layer metrics of each workload, computed from one traced pass.

All `calls` and `self_ms` figures are per op of the traced pass, so they do
not depend on how many ops fit into the run. Self time is a span's duration
minus the time its child spans cover; a layer's self time sums that over all
of the layer's spans.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from collections import defaultdict

import numpy as np

import futurity
from tracer import Span, alloc_probe, root_of, self_times

MIB = 2**20


class Profile:
    """Spans of one traced pass, indexed by function and by owning op."""

    def __init__(self, spans: list[Span], op_attrs: dict[int, dict]):
        self.op_attrs = op_attrs
        self.ops = len(op_attrs)
        self.self_s = self_times(spans)
        self.root = root_of(spans)
        self.by_fn: dict[tuple[str, str], list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        for s in spans:
            self.by_fn[s.layer, s.name].append(s)
            if s.parent is not None:
                self.children[s.parent].append(s)

    def calls(self, layer: str, name: str) -> float:
        return len(self.by_fn[layer, name]) / self.ops

    def self_ms(self, layer: str, name: str | None = None) -> float:
        spans = [s for (lay, fn), group in self.by_fn.items() if lay == layer and name in (None, fn) for s in group]
        return 1e3 * sum(self.self_s[s.id] for s in spans) / self.ops

    def attrs(self, span: Span) -> dict:
        return self.op_attrs.get(self.root[span.id], {})

    def slope(self, layer: str, name: str, size) -> float:
        """Least-squares slope of log(call time) against log(size(op attrs))."""
        points = [(math.log(size(self.attrs(s))), math.log(s.duration)) for s in self.by_fn[layer, name]]
        return float(np.polyfit(*zip(*points), 1)[0])

    def on_worker_threads(self, span: Span) -> bool:
        return any(child.thread != span.thread for child in self.children[span.id])


def _ms_metrics(profile: Profile, layer: str, names: tuple[str, ...], calls: bool) -> dict:
    out = {}
    for name in names:
        if calls:
            out[f"{layer}.{name}.calls"] = (profile.calls(layer, name), "count")
        out[f"{layer}.{name}.self_ms"] = (profile.self_ms(layer, name), "ms")
    return out


def rng_floor_ns_per_coup(coups: int, repeats: int, seed: int) -> float:
    """Median cost per coup of seeding PCG64 and drawing one uniform per coup."""
    times = []
    for k in range(repeats):
        start = time.perf_counter()
        np.random.Generator(np.random.PCG64(seed + k)).random(coups)
        times.append(time.perf_counter() - start)
    return 1e9 * statistics.median(times) / coups


def sweep(workload, profile: Profile, context: dict) -> dict:
    return {
        "strategy.parse_strategy.calls": (profile.calls("strategy", "parse_strategy"), "count"),
        **_ms_metrics(profile, "strategy", ("parse_strategy", "canonical_rotation", "block_vector"), calls=False),
        **_ms_metrics(profile, "formulas", ("exact_profit", "q_factor", "s_factor"), calls=True),
        **_ms_metrics(profile, "chain", ("fair_chain", "oracle_profit"), calls=True),
        "cli.main.calls": (profile.calls("cli", "main"), "count"),
        "cli.self_ms": (profile.self_ms("cli"), "ms"),
    }


def long_pattern(workload, profile: Profile, context: dict) -> dict:
    out = _ms_metrics(
        profile, "formulas", ("q_factor", "futurity_rate_strategy", "block_swap_delta", "profit_via_rates"), calls=False
    )
    out["formulas.q_factor.slope"] = (profile.slope("formulas", "q_factor", lambda a: a["h"]), "exponent")
    out["formulas.futurity_rate_strategy.slope"] = (
        profile.slope("formulas", "futurity_rate_strategy", lambda a: a["n"]),
        "exponent",
    )
    out["chain.oracle_profit.self_ms"] = (profile.self_ms("chain", "oracle_profit"), "ms")
    out["chain.oracle_profit.slope"] = (profile.slope("chain", "oracle_profit", lambda a: 2 * a["n"]), "exponent")
    # The dense solver is a cross-check no CLI path calls; it is timed here
    # only, on the first cycle's chains that fit the dense state limit.
    fits = [op for op in workload.cycle(0) if 2 * op.attrs["n"] <= futurity.chain.DENSE_STATE_LIMIT]
    dense = [context["execute"](workload.dense_op(op)) for op in fits]
    out["chain.dense.self_ms"] = (1e3 * statistics.mean(t for t in dense if t is not None), "ms")
    return out


def mc_replicate(workload, profile: Profile, context: dict) -> dict:
    coups, reps, workers = workload.COUPS, workload.REPS, workload.workers
    # Serial-pass calls run on the main thread, free of pool contention.
    serial = [s for s in profile.by_fn["simulate", "simulate_once"] if s.thread == threading.main_thread().ident]
    kernel = 1e9 * sum(s.duration for s in serial) / (len(serial) * coups)
    floor = rng_floor_ns_per_coup(coups, reps, seed=context["seed"])

    busy = wall = 0.0
    for rep in profile.by_fn["simulate", "replicate"]:
        if profile.on_worker_threads(rep):
            busy += sum(c.duration for c in profile.children[rep.id] if c.name == "simulate_once")
            wall += workers * rep.duration
    plain = context["plain"].extra
    serial_rate = plain["serial_coups"] / plain["serial_s"]
    parallel_rate = plain["parallel_coups"] / plain["parallel_s"]
    mixtures = [s for s in profile.by_fn["simulate", "replicate_mixture"] if not profile.on_worker_threads(s)]

    with alloc_probe(("simulate_once",)) as peaks:
        context["execute"](workload.cycle(0)[0])
    return {
        "simulate.simulate_once.calls": (profile.calls("simulate", "simulate_once"), "count"),
        "simulate.simulate_once.ns_per_coup": (kernel, "ns"),
        "simulate.simulate_once.peak_alloc_mb": (max(peaks["simulate_once"]) / MIB, "MiB"),
        "simulate.worker_busy_share": (busy / wall, "ratio"),
        "simulate.scaling_eff": (parallel_rate / (workers * serial_rate), "ratio"),
        "simulate.replicate_mixture.ns_per_coup": (
            1e9 * sum(s.duration for s in mixtures) / (len(mixtures) * reps * coups),
            "ns",
        ),
        "simulate.rng_floor.ns_per_coup": (floor, "ns"),
        "simulate.kernel_over_floor": (kernel / floor, "ratio"),
    }


def mc_trajectory(workload, profile: Profile, context: dict) -> dict:
    coups = workload.COUPS
    runs = profile.by_fn["simulate", "cumulative_trajectory"]
    kernel = 1e9 * sum(s.duration for s in runs) / (len(runs) * coups)
    floor = rng_floor_ns_per_coup(coups, 3, seed=context["seed"])
    with alloc_probe(("cumulative_trajectory",)) as peaks:
        context["execute"](workload.cycle(0)[0])
    return {
        "simulate.cumulative_trajectory.ns_per_coup": (kernel, "ns"),
        "simulate.cumulative_trajectory.peak_alloc_mb": (max(peaks["cumulative_trajectory"]) / MIB, "MiB"),
        "simulate.rng_floor.ns_per_coup": (floor, "ns"),
        "simulate.kernel_over_floor": (kernel / floor, "ratio"),
        "machines.load_machine_file.self_ms": (profile.self_ms("machines", "load_machine_file"), "ms"),
        "cli.main.calls": (profile.calls("cli", "main"), "count"),
        "cli.self_ms": (profile.self_ms("cli"), "ms"),
    }


METRICS = {"sweep": sweep, "long-pattern": long_pattern, "mc-replicate": mc_replicate, "mc-trajectory": mc_trajectory}
