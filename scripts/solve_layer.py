#!/usr/bin/env python3
"""Layer number for the chain solve: microseconds per call, by kind, over
the solves of one gvc search.

    PYTHONPATH=src python3 scripts/solve_layer.py [--repeats 7]

Runs optimize_gvc on table2 (target P2, C 6, objective ac, start 4) once
and records its solves by kind: ``success`` (``markov._success``, the
success column of a first-pass core) and ``full`` (``markov.solve_race``,
a perturbed or final core). Each kind's calls are then replayed, and so
are the success-kind cores through ``solve_race``, which shows what the
success-only entry saves on the same cores. A time is the best chunk of
500 calls over ``--repeats`` replays, the kinds taking turns: raw
wall-clock time on this host, so compare trees on one host, run after run.

The counts are deterministic: the script prints them and exits 1 unless
those of the search equal SEARCH_SOLVES (the winner's evaluation by
``run_gvc`` adds WINNER_SOLVES full solves). On a tree whose ``markov``
has no success-only entry every solve is full, so the counts differ; the
times still read.
"""
import argparse
import sys
from time import perf_counter

import briberace as br
from briberace import markov, strategies
from briberace.cli import fixture_path

SEARCH_SOLVES = {"success": 6_749, "full": 5_999}
WINNER_SOLVES = 3
KINDS = {"success": "_success", "full": "solve_race"}


def record_search(solvers: dict) -> dict[tuple[str, str], list[tuple]]:
    """The solve calls of the search and of the winner's evaluation, by
    (phase, kind)."""
    ms = br.load_pool_distribution(fixture_path("table2").read_text())
    sc = br.make_scenario(ms, "P2", 6, 1, 6.25)
    calls = {(phase, kind): [] for phase in ("search", "winner") for kind in KINDS}
    phase = ["search"]
    run_gvc = strategies.run_gvc

    def recording(kind):
        def record(core, mu, start):
            calls[phase[0], kind].append((core, mu, start))
            return solvers[kind](core, mu, start)
        return record

    def evaluate_winner(*args):
        phase[0] = "winner"
        return run_gvc(*args)

    for kind in solvers:
        setattr(markov, KINDS[kind], recording(kind))
    strategies.run_gvc = evaluate_winner
    br.optimize_gvc(sc, "ac", 4)
    return calls


def us_per_call(cases: dict, repeats: int, chunk: int = 500) -> dict[str, float]:
    """Microseconds per call of each (solve, calls) case: the best chunk of
    ``chunk`` calls over ``repeats`` replays, the cases taking turns, so that
    a slow spell of the host falls on all of them alike."""
    best = {label: float("inf") for label in cases}
    for _ in range(repeats):
        for label, (solve, calls) in cases.items():
            for i in range(0, len(calls), chunk):
                part = calls[i : i + chunk]
                t0 = perf_counter()
                for args in part:
                    solve(*args)
                best[label] = min(best[label], (perf_counter() - t0) / len(part))
    return {label: t * 1e6 for label, t in best.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args()
    solvers = {kind: getattr(markov, name) for kind, name in KINDS.items() if hasattr(markov, name)}
    calls = record_search(solvers)
    cases = {kind: (solvers[kind], calls["search", kind]) for kind in solvers}
    if calls["search", "success"]:
        cases["success via full"] = (solvers["full"], calls["search", "success"])
    print(f"{'kind':<18}{'calls':>8}{'distinct':>10}{'us/call':>10}")
    for label, us in us_per_call(cases, args.repeats).items():
        replayed = cases[label][1]
        distinct = len({core for core, _, _ in replayed})
        print(f"{label:<18}{len(replayed):>8}{distinct:>10}{us:>10.2f}")
    counts = {kind: len(calls["search", kind]) for kind in KINDS}
    winner = sum(len(calls["winner", kind]) for kind in KINDS)
    print(f"winner: {winner} solves")
    if counts != SEARCH_SOLVES or winner != WINNER_SOLVES:
        print(f"search solves {counts} and winner solves {winner} differ from the "
              f"pinned {SEARCH_SOLVES} and {WINNER_SOLVES}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
