"""One set-up sample for setup_s, run as its own process by run.py.

It does what a run does before its first timed operation: start the
interpreter, import briberace (and numpy with it), generate the workload's
inputs and load every pool file. The parent times the whole process.

    python3 perfbench/setup_probe.py --workload NAME --seed N --work DIR
"""
from __future__ import annotations

import argparse
from pathlib import Path

import launch


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()
    launch.prepare()
    launch.setup(args.workload, args.seed, args.work)


if __name__ == "__main__":
    main()
