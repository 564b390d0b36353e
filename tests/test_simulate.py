import tracemalloc

import numpy as np
import pytest

from briberace import markov
from briberace.model import load_pool_distribution, make_scenario
from briberace.simulate import (
    RacePolicy,
    SimConfig,
    SimulationError,
    compare_reports,
    simulate_race,
)
from briberace.strategies import run_bff, run_bs, run_crb, run_gvc

TRIALS = 200_000  # module-level runs stay fast; full 1e6 runs live in acceptance


def const_policy(p, h, start, bribe=None):
    bribes = tuple(bribe) if bribe is not None else (0.0,) * h
    return RacePolicy((p,) * h, bribes, start, scheduled_states=h)


def test_single_state_coin_flip():
    rep = simulate_race(const_policy(0.5, 1, 0), SimConfig(trials=TRIALS, seed=11))
    assert rep.empirical_success.mean == pytest.approx(0.5, abs=0.005)
    assert rep.mean_steps.mean == pytest.approx(1.0, abs=1e-12)


def test_matches_absorption_probability():
    chain = markov.AbsorbingChain(np.full(7, 0.3))
    analysis = markov.analyze(chain)
    rep = simulate_race(const_policy(0.3, 7, 6), SimConfig(trials=1_000_000, seed=5))
    want = analysis.B[6, 0]
    assert abs(rep.empirical_success.mean - want) <= 3 * max(rep.empirical_success.se, 1e-9)
    # expected steps and visit counts agree as well
    assert abs(rep.mean_steps.mean - analysis.e[6]) <= 3 * rep.mean_steps.se
    for i, est in enumerate(rep.visit_counts):
        assert abs(est.mean - analysis.N[6, i]) <= 3 * max(est.se, 1e-9)


def test_determinism_same_seed_identical_report():
    cfg = SimConfig(trials=100_000, seed=77)
    a = simulate_race(const_policy(0.3, 7, 6), cfg)
    b = simulate_race(const_policy(0.3, 7, 6), cfg)
    assert a == b
    c = simulate_race(const_policy(0.3, 7, 6), SimConfig(trials=100_000, seed=78))
    assert c != a


def test_bs_cost_cross_validation(whale20_scenario):
    out = run_bs(whale20_scenario, 6)
    rep = simulate_race(RacePolicy.from_outcome(out), SimConfig(trials=400_000, seed=3))
    cmp = compare_reports(out, rep, z=3.0)
    assert cmp.passed, [m for m in cmp.metrics if not m.passed]


def test_crb_and_gvc_policies_roundtrip(table2_scenario):
    for out in (
        run_crb(table2_scenario, "crb2", 4),
        run_gvc(table2_scenario, (1e-8, 8.6, 37.02, 72.25, 1e-8, 6.43, 25.51), 4),
    ):
        rep = simulate_race(RacePolicy.from_outcome(out), SimConfig(trials=TRIALS, seed=21))
        cmp = compare_reports(out, rep, z=3.5)
        assert cmp.passed, [m for m in cmp.metrics if not m.passed]


def test_comparison_flags_perturbed_chain():
    chain = markov.AbsorbingChain(np.full(7, 0.3))
    truth = simulate_race(const_policy(0.3, 7, 6), SimConfig(trials=TRIALS, seed=9))

    class FakeOutcome:
        success_prob = float(markov.analyze(markov.AbsorbingChain(np.full(7, 0.35))).B[6, 0])
        expected_steps = float(markov.analyze(chain).e[6])
        visits = markov.analyze(chain).N[6, :]
        cost_unconditional = 0.0
        cost_on_success = None

    cmp = compare_reports(FakeOutcome(), truth, z=3.0)
    assert not cmp.passed
    failed = {m.name for m in cmp.metrics if not m.passed}
    assert "success_prob" in failed


def test_zero_trials_precondition():
    with pytest.raises(SimulationError):
        SimConfig(trials=0)


def test_small_trial_count_still_passes_with_wide_bands(whale20_scenario):
    out = run_bs(whale20_scenario, 6)
    rep = simulate_race(RacePolicy.from_outcome(out), SimConfig(trials=64, seed=123))
    cmp = compare_reports(out, rep, z=3.0)
    # tiny samples have wide standard errors; the z-scaled gate still holds
    flaky = [m.name for m in cmp.metrics if not m.passed and m.se > 0]
    assert cmp.metrics[0].se > 0.01
    assert not flaky


def test_event_cap_discards_and_reports():
    # cap too low for most walks to finish: trials are dropped, not corrupted
    policy = const_policy(0.5, 9, 4)
    rep = simulate_race(policy, SimConfig(trials=2_000, seed=1, max_events=9))
    assert rep.discarded > 0
    assert rep.trials == 2_000
    with pytest.raises(SimulationError):
        simulate_race(policy, SimConfig(trials=10, seed=1, max_events=2))


def test_bribes_outside_tracked_region_rejected():
    policy = RacePolicy((0.3,) * 7, (0.0,) * 6 + (1.0,), 6, scheduled_states=3)
    with pytest.raises(SimulationError):
        simulate_race(policy, SimConfig(trials=10, seed=0))


def test_sticky_retention_never_hurts_the_fork(table2_scenario):
    out = run_bs(table2_scenario, 4)
    base_policy = RacePolicy.from_outcome(out)
    roster = tuple(m.power for m in table2_scenario.miner_set.miners)
    # the single-target matrix: P2 aboard at every bribed state
    sticky = RacePolicy(
        base_policy.fork_power,
        base_policy.bribe,
        base_policy.start_state,
        scheduled_states=base_policy.scheduled_states,
        mu=table2_scenario.mu,
        sticky_membership=out.membership,
        roster_powers=roster,
    )
    cfg = SimConfig(trials=TRIALS, seed=31)
    rep_state = simulate_race(base_policy, cfg)
    rep_sticky = simulate_race(sticky, cfg)
    # once aboard the target stays past the bribed region, so success can
    # only improve on the state-indexed retention rule
    assert rep_sticky.empirical_success.mean >= rep_state.empirical_success.mean


def test_sticky_retention_on_a_64_miner_roster():
    # 2^64 member subsets: the run must stay linear in the roster size
    weights = 0.93 ** np.arange(64)
    weights *= 0.75 / weights.sum()
    lines = ["atk 0.25 attacker"] + [f"m{i} {w!r}" for i, w in enumerate(weights.tolist())]
    ms = load_pool_distribution("\n".join(lines))
    out = run_bff(make_scenario(ms, "m0", 6, 1, 6.25), 4)
    base_policy = RacePolicy.from_outcome(out)
    sticky = RacePolicy(
        base_policy.fork_power,
        base_policy.bribe,
        base_policy.start_state,
        scheduled_states=base_policy.scheduled_states,
        mu=ms.attacker_power,
        sticky_membership=out.membership,
        roster_powers=tuple(ms.powers),
    )
    cfg = SimConfig(trials=50_000, seed=41)
    tracemalloc.start()
    try:
        rep_sticky = simulate_race(sticky, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    rep_state = simulate_race(base_policy, cfg)
    assert peak < 64 * 2**20
    assert rep_sticky.discarded == 0
    assert rep_sticky.empirical_success.mean >= rep_state.empirical_success.mean
