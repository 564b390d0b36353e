"""Command line interface: analyze, sweep-start, sweep-reward, validate.

``build_parser`` declares each option once, on the commands that read it;
the commands read the parsed namespace, after ``_refuse`` has made, before
any work, the refusals that argparse cannot state (a start state outside
[0, C] among them). Every command gets its outcomes from ``_outcomes``:
sweep-start and sweep-reward run one strategy sweep (``strategies.sweep_*``)
over all their points, which solves each chain once, and analyze and
validate a sweep of one point; gvc runs one search per point.
Reports are deterministic for fixed inputs and seed: CSV with a header row,
LF line endings and 2-decimal BTC amounts, or JSON carrying a schema-version
field. Dust-level bribe entries are rendered as ``1e-8``, never as zero.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import model, simulate, strategies

SCHEMA_VERSION = 1
STRATEGIES = ("bs", "bff", "crb1", "crb2", "gvc")


class CliError(ValueError):
    pass


def fixture_path(name: str) -> Path:
    """Path to a pool file shipped with the package (table2, whale20)."""
    return Path(__file__).parent / "data" / f"{name}.pools"


def format_btc(x: float) -> str:
    if x == 0:
        return "0.00"
    if 0 < x < 0.005:
        return "1e-8"  # dust placeholder, never rendered as zero
    return f"{x:.2f}"


def format_prob(p: float) -> str:
    return f"{p:.4g}"


def _load_scenario(args: argparse.Namespace, reward: float) -> model.Scenario:
    try:
        raw = Path(args.pools).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read pool file: {exc}") from exc
    miner_set = model.load_pool_distribution(raw, args.attacker)
    target = args.target or miner_set.miners[0].id  # biggest main-chain miner
    return model.make_scenario(
        miner_set, target, args.confirmations, args.premined, reward
    )


def _outcomes(args: argparse.Namespace, scenario: model.Scenario, strategy: str,
              starts: list[int | None], rewards: list[float] | None = None) -> list:
    """The strategy's outcomes at every reward (``scenario``'s own without
    ``rewards``) and, within a reward, at every start: one sweep for bs, bff
    and crb, one gvc search per outcome."""
    if strategy == "bs":
        return strategies.sweep_bs(scenario, starts, rewards)
    if strategy == "bff":
        return strategies.sweep_bff(scenario, starts, rewards)
    if strategy != "gvc":
        return strategies.sweep_crb(scenario, strategy, starts, rewards)  # crb1 or crb2
    scenarios = [scenario] if rewards is None else [scenario.at_reward(r) for r in rewards]
    return [strategies.optimize_gvc(sc, args.objective or "ac", start, seed=args.seed)[1]
            for sc in scenarios for start in starts]


def _outcome_record(outcome) -> dict:
    return {
        "strategy": outcome.strategy_tag,
        "start_state": outcome.start_state,
        "success_prob": outcome.success_prob,
        "success_prob_basic": outcome.success_prob_basic,
        "expected_steps": outcome.expected_steps,
        "cost_unconditional": outcome.cost_unconditional,
        "cost_on_success": outcome.cost_on_success,
        "single_visit_cost": outcome.single_visit_cost,
        "attacker_recapture": outcome.attacker_recapture,
        "target_recapture": outcome.target_recapture,
        "schedule": list(outcome.schedule.per_state_bribe),
        "committed": outcome.schedule.committed,
    }


def _summary_lines(outcome) -> list[str]:
    lines = [
        f"strategy                 {outcome.strategy_tag}",
        f"start state              {outcome.start_state}",
        f"success probability      {format_prob(outcome.success_prob * 100)}%",
        f"success (constant view)  {format_prob(outcome.success_prob_basic * 100)}%",
        f"expected steps           {outcome.expected_steps:.2f}",
        f"expected cost            {format_btc(outcome.cost_unconditional)} BTC",
        (
            f"expected cost | success  {format_btc(outcome.cost_on_success)} BTC"
            if outcome.cost_on_success is not None
            else "expected cost | success  n/a (success unreachable)"
        ),
        f"single-visit cost        {format_btc(outcome.single_visit_cost)} BTC",
        f"attacker recapture       {format_btc(outcome.attacker_recapture)} BTC",
        f"target recapture         {format_btc(outcome.target_recapture)} BTC",
        "bribe schedule (totals per gap state; a fork block claims the pot,",
        "a main-chain block leaves it, so backsliding only needs a top-up):",
    ]
    bribes = outcome.schedule.per_state_bribe
    for i in reversed(range(len(bribes))):
        if i == 0:
            topup = "n/a"
        else:
            topup = format_btc(max(bribes[i] - bribes[i - 1], 0.0))
        lines.append(f"  state {i}: total {format_btc(bribes[i])}  rollover top-up {topup}")
    return lines


def _emit(args: argparse.Namespace, table: list[dict], **fields) -> None:
    """Write the report to ``--out``, or to stdout without it: the CSV of
    ``table``, or with ``--format json`` the JSON of ``fields``."""
    if args.out_format == "json":
        payload = {"schema_version": SCHEMA_VERSION, **fields}
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        # every row has the header's keys in its order: a row's values are
        # its CSV fields, with no per-row lookup of the header
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(table[0])
        writer.writerows(map(dict.values, table))
        text = buf.getvalue()
    if args.out_path is None:
        sys.stdout.write(text)
    else:
        Path(args.out_path).write_text(text, encoding="utf-8", newline="")


def _fmt_row_value(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return format_prob(v) if abs(v) < 1 and v != 0 else f"{v:.6g}"
    return str(v)


def _values(text: str, kind: type, option: str) -> list:
    """The values of a comma-separated list option, refused by name."""
    try:
        values = [kind(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise CliError(f"{option} takes comma-separated {kind.__name__}s, got {text!r}") from None
    if not values:
        raise CliError(f"{option} must not be empty")
    return values


def cmd_analyze(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args, args.reward)
    [outcome] = _outcomes(args, scenario, args.strategy, [args.start_state])
    # without --out, the JSON record takes the summary's place on stdout, and
    # the summary stands for the CSV report
    if args.out_path is not None or args.out_format != "json":
        for line in _summary_lines(outcome):
            print(line)
    if args.out_path is not None or args.out_format == "json":
        rec = _outcome_record(outcome)
        rows = [
            {"metric": k, "value": _fmt_row_value(v)}
            for k, v in rec.items()
            if k != "schedule"
        ]
        rows += [
            {"metric": f"bribe_state_{i}", "value": format_btc(b)}
            for i, b in enumerate(outcome.schedule.per_state_bribe)
        ]
        _emit(args, rows, report="analyze", outcome=rec)
    return 0


def cmd_sweep_start(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args, args.reward)
    rows = []
    for strategy in STRATEGIES if args.strategy == "all" else [args.strategy]:
        for outcome in _outcomes(args, scenario, strategy, sorted(args.states)):
            rows.append(
                {
                    "strategy": outcome.strategy_tag,
                    "start_state": outcome.start_state,
                    "success_prob": format_prob(outcome.success_prob),
                    "cost_unconditional": f"{outcome.cost_unconditional:.2f}",
                    "cost_on_success": (
                        f"{outcome.cost_on_success:.2f}"
                        if outcome.cost_on_success is not None
                        else ""
                    ),
                }
            )
    _emit(args, rows, report="sweep-start", rows=rows)
    return 0


def cmd_sweep_reward(args: argparse.Namespace) -> int:
    rewards = sorted(args.rewards)
    scenario = _load_scenario(args, rewards[0])
    outcomes = _outcomes(args, scenario, args.strategy, [args.start_state], rewards)
    rows = [
        {
            "strategy": outcome.strategy_tag,
            "reward_btc": f"{r:.6g}",
            "start_state": outcome.start_state,
            "success_prob": format_prob(outcome.success_prob),
            "cost_unconditional": f"{outcome.cost_unconditional:.2f}",
            "single_visit_cost": f"{outcome.single_visit_cost:.2f}",
        }
        for r, outcome in zip(rewards, outcomes)
    ]
    _emit(args, rows, report="sweep-reward", rows=rows)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args, args.reward)
    [outcome] = _outcomes(args, scenario, args.strategy, [args.start_state])
    policy = simulate.RacePolicy.from_outcome(outcome)
    report = simulate.simulate_race(
        policy, simulate.SimConfig(trials=args.trials, seed=args.seed)
    )
    comparison = simulate.compare_reports(outcome, report, z=3.0)
    # a trial that hits the event cap is dropped from every estimate, so the
    # kept trials are a biased sample: the verdict cannot pass
    passed = comparison.passed and report.discarded == 0
    rows = [
        {
            "metric": m.name,
            "analytic": f"{m.analytic:.6g}",
            "empirical": f"{m.empirical:.6g}",
            "se": f"{m.se:.3g}",
            "z": f"{m.z:.3g}" if m.z != float("inf") else "inf",
            "passed": str(m.passed).lower(),
        }
        for m in comparison.metrics
    ]
    _emit(args, rows, report="validate", passed=passed, rows=rows)
    # without --out, the JSON record is the whole of stdout, as for analyze
    if args.out_path is not None or args.out_format != "json":
        for m in comparison.metrics:
            status = "ok " if m.passed else "FAIL"
            print(f"{status} {m.name}: analytic {m.analytic:.6g} vs empirical "
                  f"{m.empirical:.6g} (z={m.z:.2f})")
        worst = max(comparison.metrics, key=lambda m: m.z)
        print(f"discarded trials {report.discarded} of {report.trials}")
        print(f"events {report.events}, longest kept trial {report.longest} steps")
        print(f"worst |z| {worst.z:.2f} ({worst.name})")
        if report.discarded:
            print(f"FAIL {report.discarded} trials hit the event cap and were discarded")
        print("validation", "PASSED" if passed else "FAILED")
    return 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="briberace",
        description="Fork-race bribery attack analysis and Monte Carlo validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, handler, text in (
        ("analyze", cmd_analyze, "run one strategy and report the outcome"),
        ("sweep-start", cmd_sweep_start, "outcomes across starting gap states"),
        ("sweep-reward", cmd_sweep_reward, "outcomes across block rewards"),
        ("validate", cmd_validate, "cross-check analytics against simulation"),
    ):
        # no abbreviations: sweep-reward would read --reward as --rewards
        commands[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        commands[name].set_defaults(handler=handler)

    def option(*flags, only=tuple(commands), **kwargs):
        """Declare an option once, on the commands that read it."""
        for name in only:
            commands[name].add_argument(*flags, **kwargs)

    option("--pools", required=True, help="pool distribution file")
    option("--attacker", default=None, help="attacker id (default: flagged in file)")
    option("--target", default=None, help="target miner id (default: biggest)")
    option("--confirmations", type=int, default=6)
    option("--premined", type=int, default=1)
    option("--reward", type=float, default=6.25, only=("analyze", "sweep-start", "validate"))
    option("--start-state", type=int, default=None, only=("analyze", "sweep-reward", "validate"))
    option("--strategy", required=True, choices=STRATEGIES + ("all",))
    option("--objective", choices=("ac", "rac"), default=None)
    option("--trials", type=int, default=1_000_000, only=("validate",))
    option("--seed", type=int, default=0)
    option("--format", dest="out_format", choices=("csv", "json"), default="csv")
    option("--out", dest="out_path", default=None)
    option("--states", required=True, help="comma-separated start states", only=("sweep-start",))
    option("--rewards", required=True, help="comma-separated BTC rewards", only=("sweep-reward",))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every ``main`` call in this process, built at the first
    one: parsing keeps no state on it (each call starts a fresh namespace)."""
    return build_parser()


def _refuse(args: argparse.Namespace) -> None:
    """Refuse, before any work, the values and combinations argparse lets
    through, and parse the comma-separated lists."""
    start = getattr(args, "start_state", None)  # sweep-start has --states instead
    if start is not None and not 0 <= start <= args.confirmations:
        raise CliError(f"--start-state must lie in [0, {args.confirmations}] "
                       f"(--confirmations), got {start}")
    if args.seed < 0:
        raise CliError(f"--seed must be nonnegative, got {args.seed}")
    if args.command == "validate" and args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    if args.strategy == "all" and args.command != "sweep-start":
        raise CliError("only sweep-start takes --strategy all")
    if args.strategy == "gvc" and args.objective is None:
        raise CliError("gvc requires --objective ac|rac")
    # with all, the objective applies to the gvc rows (ac when not given)
    if args.strategy not in ("gvc", "all") and args.objective is not None:
        raise CliError("--objective only applies to gvc and all")
    if args.command == "sweep-start":
        args.states = _values(args.states, int, "--states")
        for state in args.states:
            if not 0 <= state <= args.confirmations:
                raise CliError(f"--states must lie in [0, {args.confirmations}] "
                               f"(--confirmations), got {state}")
    if args.command == "sweep-reward":
        text, args.rewards = args.rewards, _values(args.rewards, float, "--rewards")
        if not all(0 < r < float("inf") for r in args.rewards):
            raise CliError(f"--rewards must be positive and finite, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        _refuse(args)
        return args.handler(args)
    except (CliError, model.PoolFileError, model.ScenarioError,
            strategies.StrategyError, simulate.SimulationError, ValueError) as exc:
        sys.stderr.write(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}})
            + "\n"
        )
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
