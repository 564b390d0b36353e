#!/usr/bin/env python3
"""Layer numbers for the Monte Carlo oracle: nanoseconds per trial-event,
trials per second and peak memory of ``simulate_race``.

    PYTHONPATH=src python3 scripts/sim_layer.py [--repeats 3]

Runs at seed SEED the two criterion-8 policies that ``validate`` builds,
table2 bs at start 4 (target P2) and whale20 bff at start 6 (target M),
C 6, reward 6.25, for 10**6 trials each; and one chunk (65,536 trials) of
table2 bs at C 100 from start 1, whose visit counts set the memory. A
trial-event is one step of one trial; a run's events are its
``SimReport.events``. A time is the best of ``--repeats`` runs, the cases
taking turns: raw wall-clock time on this host, so compare trees on one
host, run after run. ``peak MiB`` is the tracemalloc peak of one call,
from a pass of its own after the timed runs, so tracing slows no timed
run.

The counts are deterministic: the script prints them and exits 1 unless
every case's events, successes and discarded trials equal PINNED. Times
and memory are not pinned.
"""
import argparse
import sys
import tracemalloc
from time import perf_counter

import briberace as br
from briberace.cli import fixture_path

SEED = 0
PINNED = {
    "table2 bs@4": {"events": 46_022_660, "successes": 33_433, "discarded": 0},
    "whale20 bff@6": {"events": 9_075_626, "successes": 923_338, "discarded": 0},
    "table2 bs@1 C100": {"events": 16_862_248, "successes": 17_409, "discarded": 0},
}


def policies():
    """(name, policy, trials) for each case, in PINNED order."""
    table2 = br.load_pool_distribution(fixture_path("table2").read_text())
    t2 = br.make_scenario(table2, "P2", 6, 1, 6.25)
    deep = br.make_scenario(table2, "P2", 100, 1, 6.25)
    wh = br.make_scenario(br.load_pool_distribution(fixture_path("whale20").read_text()),
                          "M", 6, 1, 6.25)
    return (("table2 bs@4", br.RacePolicy.from_outcome(br.run_bs(t2, 4)), 10**6),
            ("whale20 bff@6", br.RacePolicy.from_outcome(br.run_bff(wh, 6)), 10**6),
            ("table2 bs@1 C100", br.RacePolicy.from_outcome(br.run_bs(deep, 1)), 1 << 16))


def peak_mib(policy, config) -> float:
    """The tracemalloc peak of one ``simulate_race`` call, in MiB."""
    tracemalloc.start()
    try:
        br.simulate_race(policy, config)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    cases = [(name, policy, br.SimConfig(trials=trials, seed=SEED))
             for name, policy, trials in policies()]
    best = {name: float("inf") for name, _, _ in cases}
    counts = {}
    for _ in range(args.repeats):
        for name, policy, config in cases:
            t0 = perf_counter()
            report = br.simulate_race(policy, config)
            best[name] = min(best[name], perf_counter() - t0)
            counts[name] = {"events": report.events, "successes": report.successes,
                            "discarded": report.discarded}
    peak = {name: peak_mib(policy, config) for name, policy, config in cases}
    print(f"{'case':<18}{'events':>12}{'successes':>11}{'discarded':>11}"
          f"{'best s':>9}{'ns/event':>10}{'trials/s':>12}{'peak MiB':>10}")
    for name, _, config in cases:
        c, t = counts[name], best[name]
        print(f"{name:<18}{c['events']:>12}{c['successes']:>11}{c['discarded']:>11}"
              f"{t:>9.3f}{t / c['events'] * 1e9:>10.2f}{config.trials / t:>12.0f}"
              f"{peak[name]:>10.1f}")
    if counts != PINNED:
        print(f"counts {counts} differ from the pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
