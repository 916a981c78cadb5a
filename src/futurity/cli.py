"""Command-line interface: exact values, sweeps, simulations, trajectories.

Exit codes: 0 on success, 2 on validation errors (bad flags, flags the
command would ignore, malformed patterns or machine files, oversized runs or
chains, files that cannot be read or written), 3 on internal numeric failure
(stationary solve residual, or closed form and oracle disagreeing beyond
tolerance).

All CSV output is UTF-8 with LF line endings, a header row, and numbers
formatted to 9 significant digits, so identical flags and seed reproduce
byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import secrets
import sys
from pathlib import Path

from .chain import ChainSpec, fair_chain, oracle_profit, rate_profit, single_arm_chain
from .errors import FuturityError, SolverFailure
from .formulas import ArmProbabilities, ProfitReport, exact_profit, random_mix_profit
from .machines import (
    MultipointDistribution,
    empirical_two_point,
    expected_payout,
    fair_two_point,
    load_machine_file,
    mills_modes,
    win_probability,
)
from .simulate import SimConfig, cumulative_trajectory, replicate
from .strategy import Strategy, canonical_rotation, parse_strategy

ORACLE_AGREEMENT_TOL = 1e-9

#: Most points per axis of a sweep grid; a sweep evaluates up to its square.
MAX_GRID_POINTS = 999

SCHEMA_VERSION = 2


class UsageError(FuturityError):
    """Bad flag combination or value; exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _write_text(out: str | None, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_out(out: str | None) -> None:
    """Refuse an --out path that cannot be written, before any row is computed."""
    if out is not None and Path(out).is_dir():
        raise UsageError(f"--out {out} is a directory")
    if out is not None and not Path(out).parent.is_dir():
        raise UsageError(f"--out {out}: no directory {Path(out).parent}")


def _csv(header: list[str], rows: list[list[str]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    """Indented JSON that strict parsers accept: NaN and inf are refused."""
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def _emit_rows(args, header: list[str], rows: list[list[str]]) -> None:
    if args.format == "json":
        _write_text(args.out, _json([dict(zip(header, row)) for row in rows]))
    else:
        _write_text(args.out, _csv(header, rows))


def _grid(step: float) -> list[float]:
    if not 0.0 < step < 0.5:
        raise UsageError(f"--grid-step must lie in (0, 0.5), got {step}")
    if (MAX_GRID_POINTS + 1) * step < 1.0 - 1e-9:  # the loop's test for one point more
        raise UsageError(f"--grid-step {step} gives more than {MAX_GRID_POINTS} points per axis")
    values = []
    k = 1
    while k * step < 1.0 - 1e-9:
        values.append(k * step)
        k += 1
    if len(values) < 2:
        raise UsageError(f"--grid-step {step} leaves fewer than 2 interior points")
    return values


def _probs(args) -> ArmProbabilities:
    if args.pa is None or args.pb is None:
        raise UsageError("--pa and --pb are required when no --machine file is given")
    return ArmProbabilities(args.pa, args.pb)


def _machine_arms(args) -> tuple[dict, dict]:
    """Arm map and a JSON-ready description from --machine/--reduction flags."""
    mode_a, mode_b = load_machine_file(args.machine)
    reduction = args.reduction or "fair"
    if reduction == "fair":
        arms = {"A": fair_two_point(mode_a), "B": fair_two_point(mode_b)}
    elif reduction == "empirical":
        arms = {"A": empirical_two_point(mode_a), "B": empirical_two_point(mode_b)}
    else:
        arms = {"A": mode_a, "B": mode_b}
    description = {
        "machine": str(args.machine),
        "reduction": reduction,
        "win_probability_a": win_probability(arms["A"]),
        "win_probability_b": win_probability(arms["B"]),
    }
    return arms, description


def _spec_from_flags(args, strategy: Strategy) -> tuple[ChainSpec, dict]:
    if args.machine is not None:
        if args.pa is not None or args.pb is not None:
            raise UsageError("--pa and --pb cannot be combined with --machine")
        arms, description = _machine_arms(args)
        return ChainSpec(sequence=strategy.symbols, arms=arms, j=args.j), description
    if args.reduction is not None:
        raise UsageError("--reduction needs a --machine file")
    probs = _probs(args)
    description = {"p_a": probs.p_a, "p_b": probs.p_b}
    return fair_chain(strategy, probs, j=args.j), description


def _seed_from_flags(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = secrets.randbits(63)
    print(f"note: no --seed given, using entropy seed {seed}", file=sys.stderr)
    return seed


def _checked_profit(strategy: Strategy, probs: ArmProbabilities) -> tuple[ProfitReport, float, float]:
    """Closed-form report, oracle profit and their absolute difference."""
    report = exact_profit(strategy, probs)
    oracle = oracle_profit(fair_chain(strategy, probs)).casino_profit
    return report, oracle, abs(report.profit - oracle)


def cmd_exact(args) -> int:
    strategy = parse_strategy(args.strategy)
    probs = _probs(args)
    report, oracle, difference = _checked_profit(strategy, probs)

    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "strategy": strategy.text(),
            "canonical": canonical_rotation(strategy).text(),
            "p_a": probs.p_a,
            "p_b": probs.p_b,
            "profit": report.profit,
            "q_factor": report.q_factor,
            "s_factor": report.s_factor,
            "h": report.h,
            "r": report.r,
            "s": report.s,
            "oracle_profit": oracle,
            "abs_difference": difference,
        }
        if args.paper_sign:
            payload["profit_uncorrected_sign"] = -report.profit
        sys.stdout.write(_json(payload))
    else:
        print(f"strategy   {strategy.text()} (canonical {canonical_rotation(strategy).text()})")
        print(f"p_a, p_b   {_fmt(probs.p_a)}, {_fmt(probs.p_b)}")
        print(f"h, r, s    {report.h}, {report.r}, {report.s}")
        print(f"Q          {_fmt(report.q_factor)}")
        print(f"S          {_fmt(report.s_factor)}")
        print(f"profit R   {_fmt(report.profit)}  (casino coins per coup)")
        print(f"oracle R   {_fmt(oracle)}  |diff| {difference:.3e}")
        if args.paper_sign:
            print(f"uncorrected-sign value: {_fmt(-report.profit)}")

    if difference > ORACLE_AGREEMENT_TOL:
        raise SolverFailure(f"closed form {report.profit!r} and oracle {oracle!r} disagree", difference)
    return 0


def cmd_sweep(args) -> int:
    _check_out(args.out)
    strategies = {s.text(): s for s in map(parse_strategy, args.strategy)}
    p_a_values = _grid(args.grid_step)
    p_b_values = [args.fix_pb] if args.fix_pb is not None else p_a_values

    header = ["strategy", "p_a", "p_b", "r_exact", "q", "s"]
    rows: list[list[str]] = []
    worst = 0.0
    for text, strategy in sorted(strategies.items()):
        for p_a in p_a_values:
            for p_b in p_b_values:
                report, _, difference = _checked_profit(strategy, ArmProbabilities(p_a, p_b))
                worst = max(worst, difference)
                rows.append(
                    [
                        text,
                        _fmt(p_a),
                        _fmt(p_b),
                        _fmt(report.profit),
                        _fmt(report.q_factor),
                        _fmt(report.s_factor),
                    ]
                )
    if worst > ORACLE_AGREEMENT_TOL:
        raise SolverFailure("sweep disagrees with the oracle", worst)
    _emit_rows(args, header, rows)
    print(f"sweep: {len(rows)} rows, worst oracle |diff| {worst:.3e}", file=sys.stderr)
    return 0


def cmd_random_sweep(args) -> int:
    _check_out(args.out)
    gammas = sorted(set(args.gamma)) if args.gamma else [0.1, 0.3, 0.5, 0.7, 0.9]
    values = _grid(args.grid_step)

    header = ["gamma", "p_a", "p_b", "r_c"]
    if args.paper_sign:
        header.append("r_c_uncorrected_sign")
    rows: list[list[str]] = []
    for gamma in gammas:
        for p_a in values:
            for p_b in values:
                r_c = random_mix_profit(gamma, ArmProbabilities(p_a, p_b))
                row = [_fmt(gamma), _fmt(p_a), _fmt(p_b), _fmt(r_c)]
                if args.paper_sign:
                    row.append(_fmt(-r_c))
                rows.append(row)
    _emit_rows(args, header, rows)
    return 0


def cmd_simulate(args) -> int:
    strategy = parse_strategy(args.strategy)
    spec, description = _spec_from_flags(args, strategy)
    if args.reps < 2:
        raise UsageError(f"--reps must be >= 2 to give a standard error, got {args.reps}")
    _check_out(args.out)
    seed = _seed_from_flags(args)
    config = SimConfig(coups=args.coups, replications=args.reps, master_seed=seed)
    oracle = oracle_profit(spec).casino_profit
    rate_value = rate_profit(spec)
    result = replicate(spec, config, workers=args.workers)
    z_score = (
        (result.grand_mean - oracle) / result.standard_error
        if result.standard_error > 0.0
        else None
    )

    header = ["replication", "mean_profit"]
    rows = [[str(k), _fmt(m)] for k, m in enumerate(result.rep_means)]
    _write_text(args.out, _csv(header, rows))

    summary = {
        "schema_version": SCHEMA_VERSION,
        "strategy": strategy.text(),
        **description,
        "j": spec.j,
        "coups": config.coups,
        "replications": config.replications,
        "master_seed": seed,
        "grand_mean": result.grand_mean,
        "sample_sd": result.sample_sd,
        "standard_error": result.standard_error,
        "oracle_value": oracle,
        "rate_value": rate_value,
        "z_score": z_score,
    }
    sys.stdout.write(_json(summary))
    return 0


def cmd_trajectory(args) -> int:
    strategy = parse_strategy(args.strategy)
    spec, _ = _spec_from_flags(args, strategy)
    _check_out(args.out)
    seed = _seed_from_flags(args)
    trajectory = cumulative_trajectory(spec, args.coups, seed, args.stride)
    # One format per row over Python floats: the text of _csv with _fmt, in half the time.
    lines = ["%d,%.9g\n" % (coup, profit) for coup, profit in trajectory.tolist()]
    _write_text(args.out, "".join(["coup,cumulative_profit\n", *lines]))
    return 0


def _mode_report(name: str, dist: MultipointDistribution, j: int) -> dict:
    p = win_probability(dist)
    report = {
        "mode": name,
        "entries": [[reward, prob] for reward, prob in dist.entries],
        "win_probability": p,
        "expected_payout": expected_payout(dist),
        "raw_single_arm_profit": oracle_profit(
            ChainSpec(sequence=("X",), arms={"X": dist}, j=j)
        ).casino_profit,
    }
    if 0.0 < p < 1.0:
        for kind, arm in (("fair", fair_two_point(dist)), ("empirical", empirical_two_point(dist))):
            report[f"{kind}_payout"] = arm.u
            report[f"{kind}_single_arm_profit"] = oracle_profit(
                single_arm_chain(arm.p, arm.u, j=j)
            ).casino_profit
    return report


def cmd_machine_info(args) -> int:
    if args.mills and args.machine is not None:
        raise UsageError("machine-info takes --machine <file> or --mills, not both")
    if args.mills:
        mode_a, mode_b = mills_modes()
        source = "builtin: antique Mills Futurity (modes E, O)"
    elif args.machine is not None:
        mode_a, mode_b = load_machine_file(args.machine)
        source = str(args.machine)
    else:
        raise UsageError("machine-info needs --machine <file> or --mills")

    reports = [
        _mode_report("A", mode_a, args.j),
        _mode_report("B", mode_b, args.j),
    ]
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "source": source, "j": args.j, "modes": reports}
        sys.stdout.write(_json(payload))
    else:
        print(f"machine: {source} (J={args.j})")
        for report in reports:
            print(f"\nmode {report['mode']}:")
            for reward, prob in report["entries"]:
                print(f"  reward {_fmt(reward):>6}  probability {_fmt(prob)}")
            print(f"  win probability      {_fmt(report['win_probability'])}")
            print(f"  expected payout      {_fmt(report['expected_payout'])}")
            print(f"  raw single-arm profit        {_fmt(report['raw_single_arm_profit'])}")
            if "fair_payout" in report:
                print(f"  fair two-point payout        {_fmt(report['fair_payout'])}")
                print(f"  fair single-arm profit       {_fmt(report['fair_single_arm_profit'])}")
                print(f"  empirical two-point payout   {_fmt(report['empirical_payout'])}")
                print(f"  empirical single-arm profit  {_fmt(report['empirical_single_arm_profit'])}")
    return 0


def _add_prob_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pa", type=float, help="win probability of arm A")
    parser.add_argument("--pb", type=float, help="win probability of arm B")


def _add_machine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", type=Path, help="machine description file (two modes)")
    parser.add_argument(
        "--reduction",
        choices=["fair", "empirical", "multipoint"],
        help="how to turn machine modes into arms (default: fair two-point)",
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it unchanged, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="futurity",
        description="Two-armed Futurity machine analysis: closed forms, exact chain oracle, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exact = sub.add_parser("exact", help="closed-form profit of one pattern, cross-checked")
    p_exact.add_argument("--strategy", required=True)
    _add_prob_flags(p_exact)
    p_exact.add_argument("--format", choices=["text", "json"], default="text")
    p_exact.add_argument(
        "--paper-sign",
        action="store_true",
        help="also print the value under the uncorrected sign convention",
    )
    p_exact.set_defaults(func=cmd_exact)

    p_sweep = sub.add_parser("sweep", help="profit surface over a probability grid (CSV)")
    p_sweep.add_argument("--strategy", action="append", required=True)
    p_sweep.add_argument("--grid-step", type=float, default=0.1)
    p_sweep.add_argument("--fix-pb", type=float, help="fix p_b and sweep only p_a")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--format", choices=["csv", "json"], default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_random = sub.add_parser("random-sweep", help="i.i.d. random-mixture profit surface (CSV)")
    p_random.add_argument("--gamma", action="append", type=float)
    p_random.add_argument("--grid-step", type=float, default=0.1)
    p_random.add_argument("--out")
    p_random.add_argument("--format", choices=["csv", "json"], default="csv")
    p_random.add_argument(
        "--paper-sign",
        action="store_true",
        help="add a column with the uncorrected sign convention",
    )
    p_random.set_defaults(func=cmd_random_sweep)

    p_sim = sub.add_parser("simulate", help="replicated Monte Carlo run; CSV of means + JSON summary")
    p_sim.add_argument("--strategy", required=True)
    _add_prob_flags(p_sim)
    _add_machine_flags(p_sim)
    p_sim.add_argument("--coups", type=int, default=100_000)
    p_sim.add_argument("--reps", type=int, default=10_000)
    p_sim.add_argument("--seed", type=int, help="master seed; drawn from entropy if omitted")
    p_sim.add_argument("--j", type=int, default=2)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--out", required=True, help="path for the per-replication means CSV")
    p_sim.set_defaults(func=cmd_simulate)

    p_traj = sub.add_parser("trajectory", help="cumulative-profit trajectory of one run (CSV)")
    p_traj.add_argument("--strategy", required=True)
    _add_prob_flags(p_traj)
    _add_machine_flags(p_traj)
    p_traj.add_argument("--coups", type=int, default=1_000_000)
    p_traj.add_argument("--stride", type=int, default=10_000)
    p_traj.add_argument("--seed", type=int)
    p_traj.add_argument("--j", type=int, default=2)
    p_traj.add_argument("--out")
    p_traj.set_defaults(func=cmd_trajectory)

    p_info = sub.add_parser("machine-info", help="inspect a machine description")
    p_info.add_argument("--machine", type=Path)
    p_info.add_argument("--mills", action="store_true", help="use the builtin Mills machine")
    p_info.add_argument("--j", type=int, default=2)
    p_info.add_argument("--format", choices=["text", "json"], default="text")
    p_info.set_defaults(func=cmd_machine_info)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SolverFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (FuturityError, OSError) as exc:  # OSError: a named file cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
