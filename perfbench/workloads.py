"""Workload definitions: the CLI invocations each workload runs, and the
seed-generated pool files they read.

A workload is a fixed list of operations (one ``briberace`` CLI invocation
each), called a cycle. A run repeats whole cycles, so every cycle of a run
sees identical inputs. Inputs come only from the benchmark seed; the program
receives the generated pool files and flags, never the seed itself, except
where a flag is the program's own Monte Carlo seed.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

STRATEGIES = ("bs", "bff", "crb1", "crb2")

# Monte Carlo trials per validation: the criterion-8 scenarios run at the
# size the acceptance tests use; the generated long-race roster and the
# trials probes are smaller so that one cycle stays near 20 s on 2 cores.
CRITERION8_TRIALS = 1_000_000
LONG_RACE_TRIALS = 100_000
PROBE_TRIALS = 100_000
PROBES_PER_CYCLE = 5
LONG_RACE_MINERS = 8

# Program seeds at which `validate --strategy bff` on whale20 at start 6 is
# run. The verdict fails at 1 and 7 (the one-pass variance of a constant
# cost cancels to exactly zero and the 1e-9 floor rejects a 1.2e-9 gap) and
# passes at the others. The list is fixed so the failure counts in every
# run, rather than in the runs whose benchmark seed happens to hit it.
WHALE20_BFF_SEEDS = (0, 1, 2, 3, 7, 2019)

# sweep-grid corpus per cycle. Attacker power >= 0.5 sends the unbribed
# tail to markov.TAIL_MAX (512 states, 40-100 ms per evaluation) while
# power <= 0.4 keeps chains at h <= 82 (about 1 ms). Powers in between are
# not drawn, so each latency percentile reads one regime: 4 of the 16
# multi-miner rosters (25% of operations) are deep, which puts op_p50_s in
# the short regime and op_p90_s in the deep one. The one-miner roster is
# accepted by the parser and refused by every strategy.
#
# Draws are stratified (one per equal-width band, bands shuffled) and the
# confirmation depths are fixed sets, so every seed gives a different corpus
# with the same spread of chain lengths and row counts; latency percentiles
# then compare across seeds.
SHORT_CONFIRMATIONS = tuple(range(1, 13))
DEEP_CONFIRMATIONS = (2, 5, 8, 11)
SHORT_POWER = (0.05, 0.4)
DEEP_POWER = (0.5, 0.6)
SWEEP_MINERS = (2, 40)
SWEEP_REWARDS = (12.5, 6.25, 3.125, 1.5625)


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its output must satisfy."""

    label: str  # unique within a cycle; keys the recorded digests
    argv: tuple[str, ...]
    report: Path  # CSV report written through --out
    check: str  # name of the invariant check in checks.py
    rows: int  # strategy outcomes the invocation produces
    trials: int = 0  # Monte Carlo trials (validate only)
    main: bool = True  # False for the trials probe, which only feeds trials_per_s
    fixed_input: bool = False  # same inputs at every seed, so its digest is pinned at every seed


def fixture(root: Path, name: str) -> Path:
    return root / "src" / "briberace" / "data" / f"{name}.pools"


def roster_text(rng: random.Random, miners: int, mu: float) -> str:
    """Pool file with an attacker of power ``mu`` and ``miners`` main-chain
    miners sharing ``1 - mu`` in proportion to exponential weights.

    The weights are drawn stratified, so rosters of one size have nearly the
    same spread of powers at every seed and only the details differ.
    """
    weights = [0.01 - math.log(1.0 - u) for u in stratified(rng, 0.0, 0.99, miners)]
    total = sum(weights)
    lines = [f"A {mu:.6f} attacker"]
    lines += [f"M{i + 1} {(1.0 - mu) * w / total:.9f}" for i, w in enumerate(weights)]
    return "\n".join(lines) + "\n"


def stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws, one uniform in each of k equal bands of [lo, hi), shuffled."""
    width = (hi - lo) / k
    values = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(values)
    return values


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _validate(label, pools, strategy, start, trials, seed, work, target=None,
              main=True, fixed_input=False) -> Op:
    report = work / f"{label}.csv"
    argv = ["validate", "--pools", str(pools), "--strategy", strategy,
            "--start-state", str(start), "--trials", str(trials), "--seed", str(seed),
            "--out", str(report)]
    if target is not None:
        argv += ["--target", target]
    return Op(label, tuple(argv), report, "validate", rows=1, trials=trials, main=main,
              fixed_input=fixed_input)


def trials_probes(root: Path, work: Path) -> list[Op]:
    """Fixed small validations (bs, table2, start 4, program seed 0).

    Every workload reports trials_per_s; on workloads without a simulator
    these probes are what it measures. They are kept out of the latency,
    schedule and outcome metrics.
    """
    return [_validate(f"probe{k}-bs-table2", fixture(root, "table2"), "bs", 4, PROBE_TRIALS,
                      0, work, target="P2", main=False, fixed_input=True)
            for k in range(PROBES_PER_CYCLE)]


def interleave(ops: list[Op], probes: list[Op]) -> list[Op]:
    """Spread the probes evenly through the cycle."""
    step = len(ops) / len(probes)
    out = list(ops)
    for k, probe in reversed(list(enumerate(probes))):
        out.insert(int(k * step), probe)
    return out


def one_miner_roster(rng: random.Random, work: Path) -> Path:
    """A roster the parser accepts and every strategy refuses with exit code 2,
    a known defect. Every workload carries it, so fail_ratio counts a real
    failure everywhere and is never 0 while the defect stands."""
    return _write(work / "one-miner.pools", roster_text(rng, 1, rng.uniform(0.05, 0.4)))


def gvc_optimize(root: Path, work: Path, seed: int) -> list[Op]:
    """The criterion-8 table2 scenario through the optimizer, both objectives."""
    rng = random.Random(seed)
    table2 = fixture(root, "table2")
    one = one_miner_roster(rng, work)
    ops = []
    for objective in ("ac", "rac"):
        report = work / f"gvc-{objective}.csv"
        ops.append(Op(
            f"gvc-{objective}",
            ("analyze", "--pools", str(table2), "--strategy", "gvc", "--objective", objective,
             "--target", "P2", "--start-state", "4", "--out", str(report)),
            report, f"analyze_gvc_{objective}", rows=1, fixed_input=True))
    for objective in ("ac", "rac"):
        report = work / f"one-miner-gvc-{objective}.csv"
        ops.append(Op(
            f"one-miner-gvc-{objective}",
            ("analyze", "--pools", str(one), "--strategy", "gvc", "--objective", objective,
             "--out", str(report)),
            report, "analyze", rows=1))
    return interleave(ops, trials_probes(root, work))


def validate_mc(root: Path, work: Path, seed: int) -> list[Op]:
    """Criterion-8 validations without the optimizer, one long-race roster
    and the one-miner roster."""
    rng = random.Random(seed)
    table2, whale20 = fixture(root, "table2"), fixture(root, "whale20")
    long_race = _write(work / "long-race.pools",
                       roster_text(rng, LONG_RACE_MINERS, rng.uniform(0.395, 0.405)))
    one = one_miner_roster(rng, work)
    ops = []
    for strategy in STRATEGIES:
        ops.append(_validate(f"table2-{strategy}", table2, strategy, 4,
                             CRITERION8_TRIALS, seed, work, target="P2"))
        if strategy == "bff":
            for mc_seed in WHALE20_BFF_SEEDS:
                ops.append(_validate(f"whale20-bff-seed{mc_seed}", whale20, strategy, 6,
                                     CRITERION8_TRIALS, mc_seed, work, target="M",
                                     fixed_input=True))
        else:
            ops.append(_validate(f"whale20-{strategy}", whale20, strategy, 6,
                                 CRITERION8_TRIALS, seed, work, target="M"))
    for strategy in STRATEGIES:
        ops.append(_validate(f"long-race-{strategy}", long_race, strategy, 6,
                             LONG_RACE_TRIALS, seed, work))
    for strategy in STRATEGIES:
        ops.append(_validate(f"one-miner-{strategy}", one, strategy, 0, 1000, seed, work))
    return ops


def _sweep_ops(label: str, pools: Path, confirmations: int, work: Path) -> list[Op]:
    ops = []
    states = ",".join(str(s) for s in range(confirmations + 1))
    rewards = ",".join(f"{r:g}" for r in SWEEP_REWARDS)
    for strategy in STRATEGIES:
        common = ("--pools", str(pools), "--strategy", strategy,
                  "--confirmations", str(confirmations))
        report = work / f"{label}-{strategy}-start.csv"
        ops.append(Op(f"{label}-{strategy}-start",
                      ("sweep-start", *common, "--states", states, "--out", str(report)),
                      report, "sweep_start", rows=confirmations + 1))
        report = work / f"{label}-{strategy}-reward.csv"
        ops.append(Op(f"{label}-{strategy}-reward",
                      ("sweep-reward", *common, "--rewards", rewards, "--out", str(report)),
                      report, "sweep_reward", rows=len(SWEEP_REWARDS)))
    return ops


def sweep_grid(root: Path, work: Path, seed: int) -> list[Op]:
    """Start-state and reward sweeps over seed-generated rosters: many small
    chain solves, no optimizer, and no simulator beyond the trials probes."""
    rng = random.Random(seed)
    specs = []
    for kind, confirmations, power in (("short", SHORT_CONFIRMATIONS, SHORT_POWER),
                                       ("deep", DEEP_CONFIRMATIONS, DEEP_POWER)):
        k = len(confirmations)
        c = rng.sample(confirmations, k)
        mu = stratified(rng, *power, k)
        miners = [round(x) for x in stratified(rng, SWEEP_MINERS[0], SWEEP_MINERS[1] + 1, k)]
        specs += [(kind, *spec) for spec in zip(miners, mu, c)]
    specs.append(("one", 1, rng.uniform(SHORT_POWER[0], DEEP_POWER[1]),
                  rng.choice(SHORT_CONFIRMATIONS)))
    rng.shuffle(specs)
    ops = []
    for k, (kind, miners, mu, confirmations) in enumerate(specs):
        label = f"r{k:02d}-{kind}"
        pools = _write(work / f"{label}.pools", roster_text(rng, miners, mu))
        ops += _sweep_ops(label, pools, confirmations, work)
    return interleave(ops, trials_probes(root, work))


WORKLOADS = {
    "gvc-optimize": gvc_optimize,
    "validate-mc": validate_mc,
    "sweep-grid": sweep_grid,
}


def build(name: str, root: Path, work: Path, seed: int) -> list[Op]:
    """Generate the workload's input files under ``work`` and return its cycle."""
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, work, seed)


def pool_files(ops: list[Op]) -> list[Path]:
    """Every pool file the cycle reads, in first-use order."""
    seen: dict[str, None] = {}
    for op in ops:
        seen.setdefault(op.argv[op.argv.index("--pools") + 1], None)
    return [Path(p) for p in seen]
