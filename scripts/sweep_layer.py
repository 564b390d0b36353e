#!/usr/bin/env python3
"""Layer numbers for the start-state and reward sweeps: the chain solves of
one sweep-grid cycle, and microseconds per outcome.

    PYTHONPATH=src python3 scripts/sweep_layer.py [--repeats 3]

Builds the benchmark's sweep-grid cycle at seed 0 from
``perfbench/workloads.py`` (its sweep-start and sweep-reward invocations
over seeded rosters; the trials probes are left out) and runs it through
``cli.main`` in this process, each cycle from empty caches of attacker-only
runs and of their per-power forward sweeps. It counts the eliminations
(``markov._columns``: one Thomas sweep of a core up to its trim point, for
the success and failure columns), the visit rows (``markov._visit_row``:
one start row of N each), the attacker-only runs solved (``markov._run``
misses), the per-power forward sweeps they read (``markov._forward``
misses: one per attacker power), the outcomes (report rows of the
invocations that succeed; the one-miner roster's are refused) and the
``model.Miner`` and ``model.Scenario`` objects built: none per pool line
and one scenario per invocation, none per swept reward. Each
invocation writes its report anew, as the benchmark does. A time is the
best of ``--repeats`` cycles, divided by the outcomes, in total and by
kind of invocation (strategy and sweep axis): raw wall-clock time on this
host, so compare trees on one host, run after run. Next to it, the
microseconds per call of ``cli.main`` outside the sweep (its time less
``cli._outcomes``'), over every invocation, split into parsing
(``cli._parse``), loading the scenario (``cli._load_scenario``), writing the
report (``cli._emit``) and the rest, from the cycle where it is least.

The counts are deterministic: the script prints them and exits 1 unless
they equal PINNED.
"""
import argparse
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

from briberace import cli, markov, model

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's corpus, read as it stands)

SEED = 0
PINNED = {"operations": 136, "failed": 8, "outcomes": 736,
          "eliminations": 232, "visit rows": 544, "run misses": 120, "power sweeps": 16,
          "miners built": 0, "scenarios built": 136}
BUILT = {"miners built": model.Miner, "scenarios built": model.Scenario}
PARTS = {"parse": "_parse", "load": "_load_scenario", "emit": "_emit", "sweep": "_outcomes"}


def kind(op) -> str:
    """The invocation's strategy and sweep axis, as ``crb2 start``."""
    return f"{op.argv[op.argv.index('--strategy') + 1]} {op.argv[0].split('-')[1]}"


def run_cycle(ops) -> tuple[dict[str, int], float, dict[str, list], dict[str, float]]:
    """One cycle's counts, its wall-clock seconds, the seconds and outcomes
    of each kind of invocation that succeeds, and the seconds of ``main``
    and of each of its PARTS."""
    counts = dict.fromkeys(PINNED, 0)
    by_kind = {}
    times = dict.fromkeys(["main", *PARTS], 0.0)
    columns, visit_row = markov._columns, markov._visit_row
    parts = {name: getattr(cli, attr) for name, attr in PARTS.items()}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                times[key] += perf_counter() - t
        return wrapper

    markov._run.cache_clear()
    markov._forward.cache_clear()
    markov._columns = counted("eliminations", columns)
    markov._visit_row = counted("visit rows", visit_row)
    inits = {key: cls.__init__ for key, cls in BUILT.items()}
    for key, cls in BUILT.items():
        cls.__init__ = counted(key, inits[key])
    for name, fn in parts.items():
        setattr(cli, PARTS[name], timed(name, fn))
    try:
        t0 = perf_counter()
        for op in ops:
            op.report.unlink(missing_ok=True)  # as perfbench: a report is written anew
            t = perf_counter()
            with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
                rc = cli.main(list(op.argv))
            times["main"] += perf_counter() - t
            counts["operations"] += 1
            if rc == 0:
                counts["outcomes"] += op.rows
                spent = by_kind.setdefault(kind(op), [0.0, 0])
                spent[0] += perf_counter() - t
                spent[1] += op.rows
            else:
                counts["failed"] += 1
        seconds = perf_counter() - t0
    finally:
        markov._columns, markov._visit_row = columns, visit_row
        for key, cls in BUILT.items():
            cls.__init__ = inits[key]
        for name, fn in parts.items():
            setattr(cli, PARTS[name], fn)
    counts["run misses"] = markov._run.cache_info().misses
    counts["power sweeps"] = markov._forward.cache_info().misses
    return counts, seconds, by_kind, times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        ops = [op for op in workloads.sweep_grid(ROOT, Path(work), SEED) if op.main]
        runs = [run_cycle(ops) for _ in range(args.repeats)]
    counts = runs[0][0]
    best = min(seconds for _, seconds, _, _ in runs)
    for key, value in counts.items():
        print(f"{key:<16}{value:>8}")
    print(f"{'us/outcome':<16}{best / counts['outcomes'] * 1e6:>8.1f}")
    for name, (_, rows) in sorted(runs[0][2].items()):
        seconds = min(by_kind[name][0] for _, _, by_kind, _ in runs)
        print(f"  {name:<14}{seconds / rows * 1e6:>8.1f}")
    fastest = min((times for *_, times in runs), key=lambda t: t["main"] - t["sweep"])
    us = {key: value / counts["operations"] * 1e6 for key, value in fastest.items()}
    outside = us["main"] - us["sweep"]
    print(f"{'us/call':<16}{outside:>8.1f}  (cli.main outside the sweep)")
    for key in ("parse", "load", "emit"):
        print(f"  {key:<14}{us[key]:>8.1f}")
    print(f"  {'other':<14}{outside - us['parse'] - us['load'] - us['emit']:>8.1f}")
    if any(c != counts for c, *_ in runs):
        print("counts differ between cycles")
        return 1
    if counts != PINNED:
        print(f"counts {counts} differ from the pinned {PINNED}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
