#!/usr/bin/env python3
"""Generate the plot-ready sweep CSVs into ./reports.

Three files per run: success/cost against the starting gap state for every
strategy, the per-state bribe vectors for each start, and the cost of the
single-target strategy across block-reward halvings.
"""
import csv
from pathlib import Path

import briberace as br
from briberace.cli import fixture_path

OUT_DIR = Path("reports")
STARTS = range(1, 7)
REWARDS = [50.0, 25.0, 12.5, 6.25, 3.125, 1.5625]
SEED = 0


def outcomes_by_start(sc):
    """Each strategy's outcomes at every start of STARTS: one sweep for bs,
    bff and crb, one search per start for gvc."""
    starts = list(STARTS)
    return {
        "BS": br.sweep_bs(sc, starts),
        "BFF": br.sweep_bff(sc, starts),
        "CRB1": br.sweep_crb(sc, "crb1", starts),
        "CRB2": br.sweep_crb(sc, "crb2", starts),
        "GVC_AC": [br.optimize_gvc(sc, "ac", start, restarts=8, seed=SEED)[1]
                   for start in starts],
    }


def write_csv(path, header, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def main():
    OUT_DIR.mkdir(exist_ok=True)
    ms = br.load_pool_distribution(fixture_path("table2").read_text())
    sc = br.make_scenario(ms, "P2", 6, 1, 6.25)

    success_rows, bribe_rows = [], []
    by_start = outcomes_by_start(sc)
    for k, start in enumerate(STARTS):
        for tag, outcomes in by_start.items():
            out = outcomes[k]
            success_rows.append(
                [tag, start, f"{out.success_prob:.6f}",
                 f"{out.cost_unconditional:.2f}",
                 f"{out.cost_on_success:.2f}" if out.cost_on_success else ""]
            )
            for state, bribe in enumerate(out.schedule.per_state_bribe):
                bribe_rows.append([tag, start, state, f"{bribe:.8f}"])
    write_csv(OUT_DIR / "success_and_cost_by_start.csv",
              ["strategy", "start_state", "success_prob", "cost", "cost_on_success"],
              success_rows)
    write_csv(OUT_DIR / "bribe_vectors_by_start.csv",
              ["strategy", "start_state", "state", "bribe_btc"], bribe_rows)

    halving_rows = []
    rewards = sorted(REWARDS)
    by_reward = {"BS": br.sweep_bs(sc, [4], rewards), "BFF": br.sweep_bff(sc, [4], rewards)}
    for k, reward in enumerate(rewards):
        for tag, outcomes in by_reward.items():
            out = outcomes[k]
            halving_rows.append(
                [tag, f"{reward:g}", f"{out.cost_unconditional:.2f}",
                 f"{out.single_visit_cost:.2f}"]
            )
    write_csv(OUT_DIR / "cost_by_reward.csv",
              ["strategy", "reward_btc", "cost", "single_visit_cost"], halving_rows)


if __name__ == "__main__":
    main()
