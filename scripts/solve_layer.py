#!/usr/bin/env python3
"""Layer numbers for one gvc search: microseconds per core solved, by kind,
batched as the search solves them and one by one through ``solve_race``;
and microseconds per candidate of the search's bookkeeping, the time it
spends outside the solves.

    PYTHONPATH=src python3 scripts/solve_layer.py [--repeats 7]

Runs optimize_gvc on table2 (target P2, C 6, objective ac, start 4) and
records its passes and rounds. Each pass (``strategies._Search.answer``)
takes the candidates of every waiting ask of the live descents as one
array: a batch to score, or a target-level probe. Each round solves the
new cores of every live descent as one batch (``markov._solve_cores``), a
first-pass core for its success column alone (``success``), a perturbed or
final core in full (``full``). It prints the rounds and the cores per
round, the passes, the candidates scored and probed, and the search's time
outside ``_solve_cores`` (the winner's evaluation by ``run_gvc`` left out)
per candidate scored or probed. Each round's cores of each kind are then
replayed as one batch, and the same cores one at a time through
``markov.solve_race``, the scalar path on Python floats (it always solves
in full). A time is the best of ``--repeats`` runs or replays, the cases
taking turns: raw wall-clock time on this host, so compare trees on one
host, run after run.

The counts are deterministic: the script prints them and exits 1 unless
the search's rounds, its solves by kind, its passes, candidates scored and
target-level probes equal ROUNDS, SEARCH_SOLVES and PASSES, and the
winner's evaluation by ``run_gvc`` makes WINNER_SOLVES solves, through
one ``_solve_cores`` batch of two cores (its thresholds) and
``solve_starts`` (its outcome).
"""
import argparse
import sys
from time import perf_counter

import numpy as np

import briberace as br
from briberace import markov, strategies
from briberace.cli import fixture_path

ROUNDS = 28
SEARCH_SOLVES = {"success": 6_058, "full": 5_999}
PASSES = {"passes": 206, "scored": 12_801, "probes": 1_638}
WINNER_SOLVES = 3
KINDS = {False: "success", True: "full"}


def table2():
    ms = br.load_pool_distribution(fixture_path("table2").read_text())
    return br.make_scenario(ms, "P2", 6, 1, 6.25)


def record_search():
    """The search's rounds, each as its cores by kind, its pass counts, the
    attacker power, the start state and the cores of the winner's solves."""
    sc = table2()
    rounds: list[dict[str, list[tuple[float, ...]]]] = []
    passes = {"passes": 0, "scored": 0, "probes": 0}
    winner = []
    batch, run_gvc = markov._solve_cores, strategies.run_gvc
    solve_race, solve_starts = markov.solve_race, markov.solve_starts
    answer = strategies._Search.answer

    def record_round(cores, mu, start, full):
        rounds.append({kind: [tuple(core) for core, f in zip(np.asarray(cores).tolist(), full)
                              if bool(f) is flag] for flag, kind in KINDS.items()})
        return batch(cores, mu, start, full)

    def record_pass(search, asks, needs):
        answers = answer(search, asks, needs)
        passes["passes"] += 1
        for a in answers:
            entries, j = asks[a]
            passes["scored" if j is None else "probes"] += len(entries)
        return answers

    def record_winner(solve):
        def record(core, mu, start):
            winner.append(core)
            return solve(core, mu, start)
        return record

    def record_winner_batch(cores, mu, start, full):
        winner.extend(cores)
        return batch(cores, mu, start, full)

    def evaluate_winner(*args):
        markov._solve_cores = record_winner_batch
        markov.solve_race = record_winner(solve_race)
        markov.solve_starts = record_winner(solve_starts)
        return run_gvc(*args)

    markov._solve_cores = record_round
    strategies._Search.answer = record_pass
    strategies.run_gvc = evaluate_winner
    try:
        br.optimize_gvc(sc, "ac", 4)
    finally:
        markov._solve_cores, strategies.run_gvc = batch, run_gvc
        markov.solve_race, markov.solve_starts = solve_race, solve_starts
        strategies._Search.answer = answer
    return rounds, passes, sc.mu, 4, winner


def bookkeeping_s(repeats: int) -> float:
    """The search's time outside ``_solve_cores`` and the winner's
    evaluation: the best of ``repeats`` searches."""
    sc = table2()
    batch, run_gvc = markov._solve_cores, strategies.run_gvc
    best = float("inf")
    for _ in range(repeats):
        outside = [0.0]

        def timed(call):
            def run(*args):
                t0 = perf_counter()
                try:
                    return call(*args)
                finally:
                    outside[0] += perf_counter() - t0
            return run

        markov._solve_cores, strategies.run_gvc = timed(batch), timed(run_gvc)
        try:
            t0 = perf_counter()
            br.optimize_gvc(sc, "ac", 4)
            best = min(best, perf_counter() - t0 - outside[0])
        finally:
            markov._solve_cores, strategies.run_gvc = batch, run_gvc
    return best


def us_per_core(rounds, mu: float, start: int, repeats: int) -> dict[tuple[str, str], float]:
    """Microseconds per core of each kind, solved in the rounds' batches and
    one by one through ``solve_race``: the best of ``repeats`` replays."""
    best: dict[tuple[str, str], float] = {}
    for _ in range(repeats):
        for flag, kind in KINDS.items():
            batches = [r[kind] for r in rounds if r[kind]]
            count = sum(map(len, batches))
            t0 = perf_counter()
            for cores in batches:
                markov._solve_cores(cores, mu, start, [flag] * len(cores))
            t1 = perf_counter()
            for cores in batches:
                for core in cores:
                    markov.solve_race(np.array(core), mu, start)
            t2 = perf_counter()
            for label, t in (("batched", t1 - t0), ("solve_race", t2 - t1)):
                best[kind, label] = min(best.get((kind, label), float("inf")), t / count * 1e6)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    rounds, passes, mu, start, winner = record_search()
    bookkeeping = bookkeeping_s(args.repeats)
    sizes = [sum(map(len, r.values())) for r in rounds]
    print(f"rounds {len(rounds)}; cores per round: median {np.median(sizes):.0f}, "
          f"p90 {np.percentile(sizes, 90):.0f}, max {max(sizes)}")
    candidates = passes["scored"] + passes["probes"]
    print(f"passes {passes['passes']}; candidates scored {passes['scored']}, "
          f"target-level probes {passes['probes']}; outside the solves "
          f"{bookkeeping * 1e3:.1f} ms, {bookkeeping / candidates * 1e6:.2f} us per candidate")
    times = us_per_core(rounds, mu, start, args.repeats)
    counts = {kind: sum(len(r[kind]) for r in rounds) for kind in KINDS.values()}
    print(f"{'kind':<10}{'cores':>8}{'distinct':>10}{'batched us':>12}{'solve_race us':>15}")
    for kind, count in counts.items():
        distinct = len({core for r in rounds for core in r[kind]})
        print(f"{kind:<10}{count:>8}{distinct:>10}{times[kind, 'batched']:>12.2f}"
              f"{times[kind, 'solve_race']:>15.2f}")
    print(f"winner: {len(winner)} solves")
    if (len(rounds) != ROUNDS or counts != SEARCH_SOLVES or passes != PASSES
            or len(winner) != WINNER_SOLVES):
        print(f"rounds {len(rounds)}, search solves {counts}, passes {passes} and winner "
              f"solves {len(winner)} differ from the pinned {ROUNDS}, {SEARCH_SOLVES}, "
              f"{PASSES} and {WINNER_SOLVES}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
