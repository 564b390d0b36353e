#!/usr/bin/env python3
"""Print the headline numbers for both shipped pool fixtures.

Covers the two-party worked example (20% attacker vs 10% target) and the
July-2019 pool snapshot with the largest pool attacking and the second
largest as the bribe target.
"""
import briberace as br
from briberace.cli import fixture_path

START_TABLE2 = 4
PUBLISHED_GVC = (1e-8, 8.6, 37.02, 72.25, 1e-8, 6.43, 25.51)


def worked_example():
    ms = br.load_pool_distribution(fixture_path("whale20").read_text())
    sc = br.make_scenario(ms, "M", 6, 1, 6.25)
    quotes = [br.basic_threshold(i, 0.1, 0.2, 0.8, 6.25) for i in range(7)]
    single = sum(max(q, 0.0) for q in quotes)
    out = br.run_bs(sc)
    print("== two-party worked example (mu=0.20, target 0.10, C=6, l=1, F=6.25)")
    print(f"  first bribe (state 6)      {quotes[6]:10.2f} BTC")
    print(f"  next release (state 5)     {quotes[5]:10.2f} BTC")
    print(f"  single-visit cost          {single:10.2f} BTC")
    print(f"  catch-up success           {br.catchup_prob(0.3, 0.7, 6) * 100:10.4f} %")
    print(f"  attacker / target recapture{out.attacker_recapture:10.2f} / {out.target_recapture:.2f} BTC")
    print()


def table2_anchors():
    ms = br.load_pool_distribution(fixture_path("table2").read_text())
    sc = br.make_scenario(ms, "P2", 6, 1, 6.25)
    print(f"== pool snapshot, attacker P1, target P2, start state {START_TABLE2}")
    bff = br.run_bff(sc, START_TABLE2)
    print(f"  biggest-first success      {bff.success_prob * 100:10.2f} %")
    crb2 = br.run_crb(sc, "crb2", START_TABLE2)
    print(f"  constant-rate (crb2) cost  {crb2.cost_unconditional:10.2f} BTC"
          f"  (constant {crb2.schedule.per_state_bribe[0]:.2f})")
    gvc = br.run_gvc(sc, PUBLISHED_GVC, START_TABLE2)
    print(f"  committed vector cost      {gvc.cost_unconditional:10.2f} BTC"
          f"  success {gvc.success_prob * 100:.2f} %")
    sched, opt = br.optimize_gvc(sc, "ac", START_TABLE2, restarts=8, seed=0)
    entries = ", ".join(f"{b:.2f}" for b in sched.per_state_bribe)
    print(f"  optimized committed vector [{entries}]")
    print(f"  optimized cost             {opt.cost_unconditional:10.2f} BTC"
          f"  success {opt.success_prob * 100:.2f} %")
    print()


def main():
    worked_example()
    table2_anchors()


if __name__ == "__main__":
    main()
