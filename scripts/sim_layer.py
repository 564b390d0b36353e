#!/usr/bin/env python3
"""Layer numbers for the Monte Carlo oracle: nanoseconds per trial-event and
trials per second of ``simulate_race``.

    PYTHONPATH=src python3 scripts/sim_layer.py [--repeats 3]

Runs 10**6 trials at seed SEED of two criterion-8 policies, the same ones
``validate`` builds: table2 bs at start 4 (target P2) and whale20 bff at
start 6 (target M), C 6, reward 6.25. A trial-event is one step of one
trial; a run's events are its ``SimReport.events``. A time is the best of
``--repeats`` runs, the cases taking turns: raw wall-clock time on this
host, so compare trees on one host, run after run.

The counts are deterministic: the script prints them and exits 1 unless
every case's events, successes and discarded trials equal PINNED.
"""
import argparse
import sys
from time import perf_counter

import briberace as br
from briberace.cli import fixture_path

TRIALS = 10**6
SEED = 0
PINNED = {
    "table2 bs@4": {"events": 46_022_660, "successes": 33_433, "discarded": 0},
    "whale20 bff@6": {"events": 9_075_626, "successes": 923_338, "discarded": 0},
}


def policies():
    """(name, policy) for each case, in PINNED order."""
    t2 = br.make_scenario(br.load_pool_distribution(fixture_path("table2").read_text()),
                          "P2", 6, 1, 6.25)
    wh = br.make_scenario(br.load_pool_distribution(fixture_path("whale20").read_text()),
                          "M", 6, 1, 6.25)
    return (("table2 bs@4", br.RacePolicy.from_outcome(br.run_bs(t2, 4))),
            ("whale20 bff@6", br.RacePolicy.from_outcome(br.run_bff(wh, 6))))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    cases = policies()
    config = br.SimConfig(trials=TRIALS, seed=SEED)
    best = {name: float("inf") for name, _ in cases}
    counts = {}
    for _ in range(args.repeats):
        for name, policy in cases:
            t0 = perf_counter()
            report = br.simulate_race(policy, config)
            best[name] = min(best[name], perf_counter() - t0)
            counts[name] = {"events": report.events, "successes": report.successes,
                            "discarded": report.discarded}
    print(f"{'case':<15}{'events':>12}{'successes':>11}{'discarded':>11}"
          f"{'best s':>9}{'ns/event':>10}{'trials/s':>12}")
    for name, _ in cases:
        c, t = counts[name], best[name]
        print(f"{name:<15}{c['events']:>12}{c['successes']:>11}{c['discarded']:>11}"
              f"{t:>9.3f}{t / c['events'] * 1e9:>10.2f}{TRIALS / t:>12.0f}")
    if counts != PINNED:
        print(f"counts {counts} differ from the pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
