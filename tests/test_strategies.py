import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from briberace.model import DUST, load_pool_distribution, make_scenario
from briberace.rationality import (
    basic_threshold,
    crb_min_constant,
    general_threshold,
    persuadable_threshold,
    settled_bribe,
)
from briberace.strategies import (
    GVC_QUANTUM,
    MIN_MAIN_SHARE,
    BribeSchedule,
    MembershipMatrix,
    StrategyError,
    bff_membership,
    evaluate_schedule,
    gvc_member_thresholds,
    gvc_new_markov,
    optimize_gvc,
    recapture_split,
    run_bff,
    run_bs,
    run_crb,
    run_gvc,
)
from briberace import markov, strategies

PUBLISHED_GVC = (DUST, 8.6, 37.02, 72.25, DUST, 6.43, 25.51)


def random_miner_set(rng, n):
    mu = rng.uniform(0.1, 0.35)
    weights = rng.uniform(0.05, 1.0, size=n)
    weights = weights / weights.sum() * (1.0 - mu)
    lines = [f"atk {mu} attacker"] + [f"m{i} {w}" for i, w in enumerate(weights)]
    return load_pool_distribution("\n".join(lines))


# ---------------------------------------------------------------------------
# basic strategy

def test_bs_schedule_and_chain(whale20_scenario):
    out = run_bs(whale20_scenario)
    sched = out.schedule.per_state_bribe
    assert len(sched) == 7
    assert sched[0] == DUST  # no payment needed next to the winning edge
    assert sched[6] == pytest.approx(876.2654, abs=1e-3)
    assert out.single_visit_cost == pytest.approx(1495.587, abs=0.01)
    # the target mines the fork at every state
    assert np.allclose(out.fork_power[:7], 0.3, atol=1e-12)
    assert out.memberships == tuple(("M",) for _ in range(7))


def test_bs_recapture_split(whale20_scenario):
    out = run_bs(whale20_scenario)
    assert out.attacker_recapture == pytest.approx(997.06, abs=0.05)
    assert out.target_recapture == pytest.approx(498.53, abs=0.05)


def test_bs_success_views(whale20_scenario):
    out = run_bs(whale20_scenario, start_state=6)
    assert out.success_prob_basic == pytest.approx((0.3 / 0.7) ** 7, rel=1e-12)
    # the attacker-view chain loses the target past the confirmation depth
    assert out.success_prob < out.success_prob_basic


def test_bs_lowest_success_pattern(table2_scenario):
    bs = run_bs(table2_scenario, 4).success_prob
    bff = run_bff(table2_scenario, 4).success_prob
    gvc = run_gvc(table2_scenario, PUBLISHED_GVC, 4).success_prob
    assert bs < bff
    assert bs < gvc


# ---------------------------------------------------------------------------
# biggest fish first

def test_bff_first_recruit_matches_single_target(table2_scenario):
    out = run_bff(table2_scenario)
    c = table2_scenario.confirmations
    assert out.memberships[c] == ("P2",)
    p2 = table2_scenario.miner_set.miner("P2").power
    expected = settled_bribe(basic_threshold(
        c, p2, table2_scenario.mu, table2_scenario.lam, table2_scenario.reward
    ))
    assert out.schedule.per_state_bribe[c] == pytest.approx(expected, rel=1e-12)


def test_bff_membership_grows_toward_the_win(table2_scenario):
    members = bff_membership(table2_scenario).memberships
    sizes = [len(m) for m in members]
    assert sizes == [7, 6, 5, 4, 3, 2, 1]
    power = {m.id: m.power for m in table2_scenario.miner_set.miners}
    recruited = [sum(power[mid] for mid in m) for m in members]
    assert all(a >= b for a, b in zip(recruited, recruited[1:]))


def test_bff_roster_exhaustion(whale20_scenario):
    members = bff_membership(whale20_scenario).memberships
    # only two main-chain miners exist; deep states cannot add a third
    assert all(len(m) <= 2 for m in members)
    assert members[0] == ("H", "M")


def test_bff_bribe_covers_every_recruit(table2_scenario):
    out = run_bff(table2_scenario)
    power = {m.id: m.power for m in table2_scenario.miner_set.miners}
    for i, members in enumerate(out.memberships):
        bribe = out.schedule.per_state_bribe[i]
        for mid in members:
            t = basic_threshold(
                i, power[mid], table2_scenario.mu, table2_scenario.lam,
                table2_scenario.reward,
            )
            assert bribe > t


def test_bff_success_anchor(table2_scenario):
    out = run_bff(table2_scenario, start_state=4)
    assert out.success_prob == pytest.approx(0.60, abs=0.05)


def test_bff_dominates_bs_everywhere(table2_scenario):
    for start in range(7):
        assert (
            run_bff(table2_scenario, start).success_prob
            >= run_bs(table2_scenario, start).success_prob
        )


# ---------------------------------------------------------------------------
# constant-rate bribing

def test_crb_variant_validation(table2_scenario):
    with pytest.raises(StrategyError):
        run_crb(table2_scenario, "crb3")


def test_crb1_schedule_independent_of_start(table2_scenario):
    sched4 = run_crb(table2_scenario, "crb1", 4).schedule.per_state_bribe
    sched6 = run_crb(table2_scenario, "crb1", 6).schedule.per_state_bribe
    assert sched4 == sched6
    assert len(set(sched4)) == 1  # constant at every state


def test_crb2_zero_above_start(table2_scenario):
    out = run_crb(table2_scenario, "crb2", 4)
    sched = out.schedule.per_state_bribe
    assert sched[5] == 0.0 and sched[6] == 0.0
    assert len(set(sched[:5])) == 1
    assert out.schedule.committed


def test_crb2_cost_anchor(table2_scenario):
    out = run_crb(table2_scenario, "crb2", 4)
    assert out.cost_unconditional == pytest.approx(192.0, rel=0.10)


def test_crb_constant_sits_between_extreme_quotes(table2_scenario):
    out = run_crb(table2_scenario, "crb2", 4)
    k = out.schedule.per_state_bribe[0]
    quotes = [
        basic_threshold(i, table2_scenario.target.power, table2_scenario.mu,
                        table2_scenario.lam, table2_scenario.reward)
        for i in range(5)
    ]
    assert min(quotes) < k < max(quotes)


# ---------------------------------------------------------------------------
# committed variable-rate bribing

def test_gvc_requires_commitment(table2_scenario):
    sched = BribeSchedule((1.0,) * 7, False, "BS")
    with pytest.raises(StrategyError):
        gvc_new_markov(table2_scenario, sched)


def test_gvc_dust_everywhere_recruits_only_state_zero(table2_scenario):
    sched = BribeSchedule((DUST,) * 7, True, "GVC_AC")
    recruit = gvc_new_markov(table2_scenario, sched)
    fork = recruit.fork_power(table2_scenario.miner_set.powers, table2_scenario.mu)
    # next to the winning edge the fork is profitable for everyone already
    assert len(recruit.memberships[0]) == 14
    assert fork[0] == pytest.approx(1.0 - 1e-12)
    for i in range(1, 7):
        assert recruit.memberships[i] == ()
        assert fork[i] == pytest.approx(table2_scenario.mu, abs=1e-12)


@pytest.mark.parametrize("fixture", ["table2", "whale20"])
def test_recruit_table_matches_the_bisection_at_every_offered_level(
    fixture, table2_scenario, whale20_scenario
):
    """Every level optimize_gvc offers is dust, a grid step above some
    miner's basic threshold (static candidates and seeds), the target's
    threshold plus dust (a seed), or a grid step above a commitment-aware
    threshold, which may be any grid point. Both membership rules are monotone
    in the bribe, so agreeing on the grid levels on either side of every
    miner's threshold, and on the knife edges a dust away from it, covers the
    whole grid. Zero differences are expected."""
    sc = table2_scenario if fixture == "table2" else whale20_scenario
    exact = sc.thresholds.ravel().tolist()
    steps = {round((np.floor(t / GVC_QUANTUM) + k) * GVC_QUANTUM, 10) for t in exact for k in (0, 1)}
    edges = {t + d for t in exact for d in (-DUST, 0.0, DUST)}
    levels = sorted(b for b in steps | edges | {DUST} if b >= 0.0)
    powers = sc.miner_set.powers
    for i in range(sc.confirmations + 1):
        for bribe in levels:
            floor = persuadable_threshold(i, bribe, sc.mu, sc.lam, sc.reward)
            by_bisection = np.zeros(powers.size, bool) if floor is None else powers >= floor
            by_table = sc.recruit_thresholds[:, i] <= bribe
            assert np.array_equal(by_table, by_bisection), (i, bribe)


def test_threshold_tables_in_roster_order(table2_scenario):
    sc = table2_scenario
    assert sc.thresholds.shape == sc.recruit_thresholds.shape == (14, 7)
    assert not sc.thresholds.flags.writeable
    for r, m in enumerate(sc.miner_set.miners):
        for i in range(7):
            assert sc.thresholds[r, i] == basic_threshold(i, m.power, sc.mu, sc.lam, sc.reward)
    # snapping lowers the power by under one bisection step, so the
    # threshold can only rise, and only by a hair
    assert np.all(sc.recruit_thresholds >= sc.thresholds)
    assert np.allclose(sc.recruit_thresholds, sc.thresholds, rtol=1e-6, atol=1e-6)


def test_committed_schedule_spans_the_bribed_states(table2_scenario):
    with pytest.raises(StrategyError):
        gvc_new_markov(table2_scenario, BribeSchedule((DUST,) * 6, True, "GVC_AC"))


def test_gvc_saturation_capped(table2_scenario):
    sched = BribeSchedule((1e6,) * 7, True, "GVC_AC")
    recruit = gvc_new_markov(table2_scenario, sched)
    fork = recruit.fork_power(table2_scenario.miner_set.powers, table2_scenario.mu)
    assert np.all(fork < 1.0)
    assert np.all(fork >= 1.0 - 1e-12 - 1e-15)


def test_run_gvc_keeps_first_pass_recruits_aboard(table2_scenario):
    for entries in (PUBLISHED_GVC, (DUST,) * 7):
        sched = BribeSchedule(entries, True, "GVC_AC")
        recruit = gvc_new_markov(table2_scenario, sched)
        zeta = run_gvc(table2_scenario, sched, 4).membership.zeta
        # recruited in the first pass -> membership regardless of the entry
        assert np.all(zeta >= recruit.zeta)
        # only the target's row is refined
        others = np.arange(14) != table2_scenario.miner_set.row("P2")
        assert np.array_equal(zeta[others], recruit.zeta[others])


def test_run_gvc_far_behind_unbribed_is_empty(table2_scenario):
    # far behind and unbribed, nobody mines the fork
    zeta = run_gvc(table2_scenario, (DUST,) * 7, 4).membership.zeta
    assert zeta[:, 6].sum() == 0


def test_run_gvc_raising_entry_never_drops_members(table2_scenario):
    z0 = run_gvc(table2_scenario, PUBLISHED_GVC, 4).membership.zeta
    bumped = tuple(b + (5.0 if j == 3 else 0.0) for j, b in enumerate(PUBLISHED_GVC))
    z1 = run_gvc(table2_scenario, bumped, 4).membership.zeta
    assert np.all(z1 >= z0)


def test_gvc_target_thresholds_match_choice_rule(table2_scenario):
    sched = BribeSchedule(PUBLISHED_GVC, True, "GVC_AC")
    recruit = gvc_new_markov(table2_scenario, sched)
    thresholds = gvc_member_thresholds(table2_scenario, recruit, "P2")
    out = run_gvc(table2_scenario, sched, 4)
    first_pass = recruit.zeta[table2_scenario.miner_set.row("P2")]
    assert np.array_equal(np.isnan(thresholds), first_pass)
    for j in range(7):
        joined = "P2" in out.memberships[j]
        assert joined == (first_pass[j] or sched.per_state_bribe[j] >= thresholds[j])


def test_member_thresholds_solve_both_chains_in_one_full_batch(table2_scenario, monkeypatch):
    # the projected chain and the chain with the miner added are solved in
    # one markov._solve_cores batch, both flagged full so that each takes
    # solve_race's checks, visit row included; the thresholds are those of
    # two solve_race calls, bit for bit
    sc = table2_scenario
    ms, mu = sc.miner_set, sc.mu
    batches = []
    batch = markov._solve_cores

    def recording(cores, mu, start, full):
        batches.append((len(cores), start, [bool(f) for f in full]))
        return batch(cores, mu, start, full)

    rng = np.random.default_rng(5)
    schedules = [PUBLISHED_GVC, tuple(DUST for _ in range(7))] + [
        tuple(rng.choice([DUST, 1.0, 10.0, 40.0, 90.0], size=7).tolist()) for _ in range(4)]
    for entries in schedules:
        recruit = gvc_new_markov(sc, BribeSchedule(entries, True, "GVC_AC"))
        core = recruit.fork_power(ms.powers, mu)
        for miner_id in ms.ids:
            r = ms.row(miner_id)
            pert = strategies._with_miner(core, recruit.zeta[r], ms.powers[r])
            want = strategies._commitment_thresholds(
                core, recruit.zeta[r], ms.miners[r].power,
                markov.solve_race(core, mu, 0).success[:7],
                markov.solve_race(pert, mu, 0).success[:7], sc.reward)
            batches.clear()
            monkeypatch.setattr(markov, "_solve_cores", recording)
            got = gvc_member_thresholds(sc, recruit, miner_id)
            monkeypatch.setattr(markov, "_solve_cores", batch)
            assert batches == [(2, 0, [True, True])]
            assert got.tobytes() == want.tobytes()


def test_gvc_final_markov_from_zeta(table2_scenario):
    ms = table2_scenario.miner_set
    empty = MembershipMatrix(ms.ids, np.zeros((14, 7), dtype=int))
    tr = empty.fork_power(ms.powers, table2_scenario.mu)
    assert np.allclose(tr, table2_scenario.mu, atol=1e-15)
    full = MembershipMatrix(ms.ids, np.ones((14, 7), dtype=int))
    tr = full.fork_power(ms.powers, table2_scenario.mu)
    assert np.all(tr <= 1.0 - 1e-12)  # saturation capped, not rejected downstream


@pytest.mark.parametrize(
    "ids, zeta",
    [
        (("a", "b"), [[0.5, 1.0], [0.0, 0.9]]),  # fractional entries
        (("a", "b"), [[1, 1]]),  # a row missing
        (("a",), [[1, 1], [0, 1]]),  # a row too many
    ],
)
def test_membership_matrix_rejects_malformed_input(ids, zeta):
    with pytest.raises(StrategyError):
        MembershipMatrix(ids, np.array(zeta))


@pytest.mark.parametrize("zeta", [
    [[1, 0], [1, 1]], [[1.0, 0.0], [1.0, 1.0]], [[True, False], [True, True]],
])
def test_membership_matrix_is_a_read_only_boolean_matrix(zeta):
    members = MembershipMatrix(("a", "b"), np.array(zeta))
    assert members.zeta.dtype == bool
    assert members.zeta.tolist() == [[True, False], [True, True]]
    with pytest.raises(ValueError, match="read-only"):
        members.zeta[0, 1] = True


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_schedule_entries_must_be_finite_and_nonnegative(bad, table2_scenario):
    # NaN fails every comparison, so a check of ``b < 0`` alone let it
    # through, and with it a NaN cost; +inf made an infinite cost
    with pytest.raises(StrategyError, match="finite and nonnegative"):
        BribeSchedule((DUST, 1.0, bad, 2.0, DUST, DUST, DUST), True, "GVC_AC")
    with pytest.raises(StrategyError, match="finite and nonnegative"):
        run_gvc(table2_scenario, [bad] * 7, 4)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), h=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
def test_fork_power_is_a_left_to_right_roster_sum(n, h, seed):
    rng = np.random.default_rng(seed)
    ms = random_miner_set(rng, n)
    zeta = rng.integers(0, 2, size=(n, h))
    membership = MembershipMatrix(ms.ids, zeta)
    fork = membership.fork_power(ms.powers, ms.attacker_power)
    for j in range(h):
        aboard = [m for r, m in enumerate(ms.miners) if zeta[r, j]]
        joined = 0.0
        for m in aboard:
            joined += m.power
        assert fork[j] == min(ms.attacker_power + joined, 1.0 - MIN_MAIN_SHARE)
        assert membership.memberships[j] == tuple(m.id for m in aboard)


def test_gvc_published_vector_anchor(table2_scenario):
    out = run_gvc(table2_scenario, PUBLISHED_GVC, 4)
    assert out.cost_unconditional == pytest.approx(105.0, rel=0.10)
    assert out.success_prob == pytest.approx(0.4325, abs=0.03)
    # the target rides the fork at every state under the commitment
    assert all("P2" in m for m in out.memberships)


def test_gvc_commitment_beats_single_target_on_same_spend(table2_scenario):
    bs = run_bs(table2_scenario, 4)
    committed = BribeSchedule(bs.schedule.per_state_bribe, True, "GVC_AC")
    gvc = run_gvc(table2_scenario, committed, 4)
    assert gvc.success_prob >= bs.success_prob - 1e-12


def test_published_vector_satisfies_staying_condition(table2_scenario):
    out = run_gvc(table2_scenario, PUBLISHED_GVC, 4)
    fork = out.fork_power
    p_m = table2_scenario.target.power
    analysis = markov.analyze(markov.AbsorbingChain(fork))
    p_xs = analysis.B[:7, 0]
    # failure odds with the target back on the main chain everywhere
    wo = fork.copy()
    for j in range(7):
        if "P2" in out.memberships[j]:
            wo[j] = max(wo[j] - p_m, 1e-9)
    p_yf = 1.0 - markov.analyze(markov.AbsorbingChain(wo)).B[:7, 0]
    fork_wo_m = wo[:7]
    reward = table2_scenario.reward
    # aggregate over the states: the target's expected share of bribe and
    # reward on the fork beats its expected reward on the main chain
    fork_side = sum(
        x * p_m / (f + p_m) * (b + reward)
        for x, f, b in zip(p_xs, fork_wo_m, out.schedule.per_state_bribe)
    )
    main_side = sum(y * p_m / (1.0 - f) * reward for y, f in zip(p_yf, fork_wo_m))
    assert fork_side > main_side


def test_committed_beliefs_cut_below_constant_probability_quote(table2_scenario):
    # beliefs from the biggest-first chain: recruited states lift the win
    # odds, so the per-state minimum drops below the constant-power quote
    out = run_bff(table2_scenario, 4)
    analysis = markov.analyze(markov.AbsorbingChain(out.fork_power))
    p_m = table2_scenario.target.power
    j = 3
    fork_wo_m = out.fork_power[j] - p_m  # target is aboard at 3
    pert = out.fork_power.copy()
    # failure odds with the target elsewhere
    wo = pert.copy()
    wo[: 7] = [
        max(p - (p_m if "P2" in out.memberships[k] else 0.0), 1e-9)
        for k, p in enumerate(pert[:7])
    ]
    p_yf = 1.0 - markov.analyze(markov.AbsorbingChain(wo)).B[j, 0]
    p_xs = analysis.B[j, 0]
    general = general_threshold(
        p_m, fork_wo_m, 1.0 - fork_wo_m, p_xs, p_yf, table2_scenario.reward
    )
    basic = basic_threshold(
        j, p_m, table2_scenario.mu, table2_scenario.lam, table2_scenario.reward
    )
    assert general < basic


# ---------------------------------------------------------------------------
# schedule evaluation and recapture

def nobody_aboard(scenario, states):
    ids = scenario.miner_set.ids
    return MembershipMatrix(ids, np.zeros((len(ids), states), dtype=int))


def test_evaluate_zero_schedule(whale20_scenario):
    sched = BribeSchedule((0.0,) * 7, False, "BS")
    [out] = evaluate_schedule(whale20_scenario, nobody_aboard(whale20_scenario, 7), [(sched, 6)])
    assert out.cost_unconditional == 0.0
    assert out.cost_on_success == 0.0


def test_evaluate_requires_chain_covering_schedule(whale20_scenario, table2_scenario):
    sched = BribeSchedule((1.0,) * 7, False, "BS")
    with pytest.raises(StrategyError):
        evaluate_schedule(whale20_scenario, nobody_aboard(whale20_scenario, 3), [(sched, 2)])
    with pytest.raises(StrategyError):  # a matrix over another roster
        evaluate_schedule(whale20_scenario, nobody_aboard(table2_scenario, 7), [(sched, 2)])


@pytest.mark.parametrize("fixture,start", [("table2", 4), ("whale20", 6)])
def test_every_outcome_chain_is_its_membership_chain(fixture, start, table2_scenario,
                                                     whale20_scenario):
    # RacePolicy.from_outcome hands an outcome's fork powers to the oracle:
    # they must be exactly the chain of the outcome's own membership, and
    # read-only, since the outcomes of one core share them
    sc = table2_scenario if fixture == "table2" else whale20_scenario
    outcomes = [run_bs(sc, start), run_bff(sc, start), run_crb(sc, "crb1", start),
                run_crb(sc, "crb2", start), run_gvc(sc, PUBLISHED_GVC, start)]
    for out in outcomes:
        core = out.membership.fork_power(sc.miner_set.powers, sc.mu)
        want = markov.extend_fork_power(core, sc.mu)
        assert out.fork_power.tobytes() == want.tobytes(), out.strategy_tag
        with pytest.raises(ValueError, match="read-only"):
            out.fork_power[0] = 0.5


def test_costs_match_visit_weighted_sums(table2_scenario):
    out = run_bff(table2_scenario, 4)
    bribes = np.zeros(out.fork_power.size)
    bribes[:7] = out.schedule.per_state_bribe
    assert out.cost_unconditional == pytest.approx(float(out.visits @ bribes), rel=1e-12)
    assert out.cost_on_success is not None and out.cost_on_success > 0


def test_recapture_conservation_per_state():
    powers = np.array([0.3, 0.1])
    spends = [10.0, 4.0]
    members = MembershipMatrix(("a", "b"), np.array([[1, 0], [1, 1]]))
    attacker, target = recapture_split(spends, 0.2, "b", powers, members)
    # state shares: attacker + a + b = spend, so explicit bookkeeping:
    s0_att = 10.0 * 0.2 / 0.6
    s0_a = 10.0 * 0.3 / 0.6
    s0_b = 10.0 * 0.1 / 0.6
    s1_att = 4.0 * 0.2 / 0.3
    s1_b = 4.0 * 0.1 / 0.3
    assert attacker == pytest.approx(s0_att + s1_att, rel=1e-12)
    assert target == pytest.approx(s0_b + s1_b, rel=1e-12)
    assert s0_att + s0_a + s0_b == pytest.approx(10.0, rel=1e-12)
    assert s1_att + s1_b + 4.0 * 0.0 == pytest.approx(4.0 * (0.3 / 0.3) , rel=1e-12)


def test_recapture_equal_powers_split_evenly():
    members = MembershipMatrix(("m",), np.ones((1, 1)))
    attacker, target = recapture_split([8.0], 0.1, "m", np.array([0.1]), members)
    assert attacker == pytest.approx(4.0)
    assert target == pytest.approx(4.0)


def test_recapture_refuses_a_target_outside_the_roster():
    members = MembershipMatrix(("a", "b"), np.ones((2, 2)))
    with pytest.raises(StrategyError, match="'c' is not in"):
        recapture_split([1.0, 1.0], 0.2, "c", np.array([0.3, 0.1]), members)


# ---------------------------------------------------------------------------
# reward halving

def test_halving_affinity_of_schedules(table2_scenario):
    ms = table2_scenario.miner_set
    rewards = [25.0, 12.5, 6.25, 3.125]
    base = {}
    for strategy, runner in (("bs", run_bs), ("bff", run_bff)):
        unit = runner(make_scenario(ms, "P2", 6, 1, 1.0))
        for f in rewards:
            out = runner(make_scenario(ms, "P2", 6, 1, f))
            for r_f, r_1 in zip(out.schedule.per_state_bribe, unit.schedule.per_state_bribe):
                if r_1 <= DUST:
                    assert r_f <= DUST * max(f, 1.0) + 1e-12
                else:
                    want = ((r_1 - DUST) + 1.0) * f - f + DUST
                    assert r_f == pytest.approx(want, rel=1e-9)
        base[strategy] = unit


def test_costs_fall_with_the_reward(table2_scenario):
    ms = table2_scenario.miner_set
    costs = [
        run_bs(make_scenario(ms, "P2", 6, 1, f), 4).cost_unconditional
        for f in (3.125, 6.25, 12.5, 25.0)
    ]
    assert costs == sorted(costs)
    assert costs[0] < costs[-1] / 4  # dramatic drop across three halvings


# ---------------------------------------------------------------------------
# optimizer

def test_optimize_single_state_core():
    # one-state race: the optimum is the single threshold plus one grid step
    ms = load_pool_distribution("atk 0.2 attacker\nm 0.1\nrest 0.7\n")
    sc = make_scenario(ms, "m", 1, 1, 6.25)
    sched, out = optimize_gvc(sc, "ac", start_state=0, restarts=4, seed=1)
    t0 = basic_threshold(0, sc.target.power, sc.mu, sc.lam, sc.reward)
    assert t0 < 0  # state 0 needs no payment at all
    assert sched.per_state_bribe[0] == DUST
    assert "m" in out.memberships[0]


def test_optimize_never_loses_to_published_vector(table2_scenario):
    published = run_gvc(table2_scenario, PUBLISHED_GVC, 4)
    sched, out = optimize_gvc(table2_scenario, "ac", 4, restarts=8, seed=0)
    assert out.cost_unconditional <= published.cost_unconditional + 0.01
    for j in range(5):
        assert "P2" in out.memberships[j]


def test_optimize_deterministic(table2_scenario):
    s1, o1 = optimize_gvc(table2_scenario, "ac", 4, restarts=4, seed=9)
    s2, o2 = optimize_gvc(table2_scenario, "ac", 4, restarts=4, seed=9)
    assert s1.per_state_bribe == s2.per_state_bribe
    assert o1.cost_unconditional == o2.cost_unconditional


def test_optimize_rac_objective(table2_scenario):
    sched, out = optimize_gvc(table2_scenario, "rac", 4, restarts=4, seed=3)
    assert out.cost_on_success is not None
    ac_sched, ac_out = optimize_gvc(table2_scenario, "ac", 4, restarts=4, seed=3)
    assert out.cost_on_success <= ac_out.cost_on_success + 1e-9


def test_run_gvc_evaluates_infeasible_vectors_outside_the_search(table2_scenario):
    # inside optimize_gvc an infeasible candidate is dropped before its
    # evaluation solve; a direct call, before or after a search, still
    # evaluates it
    dust = (DUST,) * 7
    before = run_gvc(table2_scenario, dust, 4)
    optimize_gvc(table2_scenario, "ac", 4, restarts=1, seed=0)
    after = run_gvc(table2_scenario, dust, 4)
    assert not before.membership.zeta[table2_scenario.miner_set.row("P2")].all()
    assert after.cost_unconditional == before.cost_unconditional
    assert after.success_prob == before.success_prob


def test_optimize_solves_each_core_once(table2_scenario, monkeypatch):
    # each round of the search solves its new cores as one batch
    # (markov._solve_cores): a first-pass core, never scored, for its success
    # column alone, and a perturbed or final core in full, each on first
    # sight, and a round solves in full any core it needs both ways;
    # run_gvc then evaluates the winner outside the search, through one
    # markov._solve_cores batch of two cores (its thresholds) and
    # markov.solve_starts (its outcome)
    batch = markov._solve_cores
    search = {False: [], True: []}
    winner: list[bytes] = []
    phase = ["search"]
    run_gvc = strategies.run_gvc

    def recording_batch(cores, mu, start, full):
        for core, flag in zip(cores, full):
            core = np.asarray(core, dtype=float).tobytes()
            (winner if phase[0] == "winner" else search[flag]).append(core)
        return batch(cores, mu, start, full)

    def recording(solve):
        def record(core, mu, start):
            assert phase[0] == "winner"
            winner.append(np.asarray(core, dtype=float).tobytes())
            return solve(core, mu, start)
        return record

    def evaluate_winner(*args):
        phase[0] = "winner"
        return run_gvc(*args)

    monkeypatch.setattr(markov, "_solve_cores", recording_batch)
    monkeypatch.setattr(markov, "solve_race", recording(markov.solve_race))
    monkeypatch.setattr(markov, "solve_starts", recording(markov.solve_starts))
    monkeypatch.setattr(strategies, "run_gvc", evaluate_winner)
    optimize_gvc(table2_scenario, "ac", 4)
    success, full = search[False], search[True]
    # no core is solved twice by the same kind: 6,058 first-pass cores were
    # never needed in full; 5,999 perturbed or final cores were solved in
    # full, every scored final core among them
    assert len(success) == len(set(success)) == 6_058
    assert len(full) == len(set(full)) == 5_999
    # no core is solved both ways: 12,057 distinct cores in all
    assert not set(success) & set(full)
    assert len(set(success) | set(full)) == 12_057
    # the winner's two threshold solves and its evaluation solve are full
    # solves of cores the search has solved
    assert len(winner) == 3
    assert set(winner) <= set(success) | set(full)


def random_scenario():
    """Eight random miners, C = 5, the target mid-roster."""
    ms = random_miner_set(np.random.default_rng(7), 8)
    return make_scenario(ms, ms.miners[4].id, 5, 1, 6.25)


@pytest.mark.parametrize("case, objective, start", [
    ("table2", "ac", 4), ("table2", "ac", 0), ("whale20", "ac", 6), ("whale20", "rac", 6),
    ("random", "rac", 5),
])
def test_search_scores_every_candidate_as_run_gvc_does(
    case, objective, start, table2_scenario, whale20_scenario, monkeypatch
):
    # the search scores candidates from its column tables, in batches; each
    # one must get the feasibility and the exact objective that run_gvc's
    # outcome gives it
    scenario = {"table2": table2_scenario, "whale20": whale20_scenario}.get(case)
    scenario = scenario or random_scenario()
    scores, batch = strategies._Search.scores, markov._solve_cores
    scored: dict[tuple[float, ...], float | None] = {}
    tops: list[float] = []
    trims: list[set[int]] = []

    def recording(search, candidates):
        results = yield from scores(search, candidates)
        scored.update(zip(candidates, results))
        return results

    def recording_batch(cores, mu, start, full):
        tops.extend(core[-1] for core in cores)
        trims.append({
            max([start + 1] + [i + 1 for i, x in enumerate(core) if x != mu]) for core in cores
        })
        return batch(cores, mu, start, full)

    monkeypatch.setattr(strategies._Search, "scores", recording)
    monkeypatch.setattr(markov, "_solve_cores", recording_batch)
    optimize_gvc(scenario, objective, start)
    monkeypatch.undo()
    if case == "random":  # some cores end at mu: the folded run starts inside them
        assert scenario.mu in tops
    if (case, start) == ("table2", 0):  # rounds sweep cores trimmed at 1 to 7, mixed
        assert set().union(*trims) == set(range(1, 8))
        assert max(map(len, trims)) >= 4
    row = scenario.miner_set.row(scenario.target_id)
    tag = "GVC_AC" if objective == "ac" else "GVC_RAC"
    feasible = 0
    for entries, result in scored.items():
        out = run_gvc(scenario, BribeSchedule(entries, True, tag), start)
        want = None
        if out.membership.zeta[row].all():
            want = out.cost_unconditional if objective == "ac" else out.cost_on_success
            feasible += 1
        assert result == want, entries
    assert feasible > 0
    if case == "table2":  # the whale is aboard at every state, P2 is not
        assert feasible < len(scored)


def test_grid_above_is_a_grid_amount_no_smaller_than_the_value():
    # the search needs a grid amount at least the threshold, not one strictly above it
    values = [k * GVC_QUANTUM for k in range(1, 10_000)]
    values += np.random.default_rng(15).uniform(0.0, 200.0, size=10_000).tolist()
    for value in values:
        g = strategies._grid_above(value)
        assert value <= g <= value + GVC_QUANTUM + 1e-9, (value, g)
        assert g == round(round(g / GVC_QUANTUM) * GVC_QUANTUM, 10), (value, g)
    assert [strategies._grid_above(v) for v in (0.29, 0.57, 0.07)] == [0.29, 0.57, 0.08]
    for value in (0.0, -0.0, -1e-12, -3.5):
        assert strategies._grid_above(value) == DUST


@settings(max_examples=15, deadline=None)
@given(n=st.integers(2, 10), c=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_search_columns_are_membership_columns(n, c, seed):
    # each candidate's columns, as a pass builds them from the state tables,
    # are, bit for bit, the first-pass fork power, _with_miner and the fork
    # power with the target's row set of its own membership, whatever the
    # other entries and the other candidates of the pass are
    rng = np.random.default_rng(seed)
    ms = random_miner_set(rng, n)
    for row, target in enumerate(ms.miners):
        sc = make_scenario(ms, target.id, c, 1, 6.25)
        search = strategies._Search(sc, "ac", 0)
        levels = [
            sorted({DUST, strategies._grid_above(settled_bribe(float(sc.thresholds[row, i])))}
                | {strategies._grid_above(t) for t in sc.thresholds[:, i].tolist()})
            for i in range(c + 1)
        ]
        shift = rng.integers(0, n + 2, size=c + 1)
        batch = [tuple(lv[(k + s) % len(lv)] for lv, s in zip(levels, shift))
                 for k in range(max(map(len, levels)))]
        got = search.columns(np.array(batch))
        for k, entries in enumerate(batch):
            recruit = gvc_new_markov(sc, BribeSchedule(entries, True, "GVC_AC"))
            fork = recruit.fork_power(ms.powers, sc.mu)
            aboard = recruit.zeta[row]
            pert = strategies._with_miner(fork, aboard, target.power)
            zeta = recruit.zeta.copy()
            zeta[row] = 1
            final = strategies._fork_power(zeta, ms.powers, sc.mu)
            assert got[1].dtype == bool and np.array_equal(got[1][k], aboard)
            assert (np.array([got[0][k], got[2][k], got[3][k]]).tobytes()
                    == np.array([fork, pert, final]).tobytes())


probabilities = st.floats(0.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), k=st.integers(1, 5), n=st.integers(1, 8))
def test_commitment_thresholds_are_general_thresholds(data, k, n):
    # the thresholds and the feasibility a pass computes on arrays are,
    # element by element, rationality.general_threshold's and the scalar
    # rule's: no threshold where aboard, infinite where aboard the miner
    # cannot win (a success of exactly 0 included), the bits otherwise, and
    # no numpy warning escapes
    def grid(elements):
        return np.array(data.draw(st.lists(elements, min_size=k * n, max_size=k * n))).reshape(k, n)

    fork = grid(st.floats(1e-9, 1.0 - MIN_MAIN_SHARE))
    aboard = grid(st.booleans())
    base = grid(probabilities)
    pert = grid(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)))
    power = data.draw(st.floats(1e-6, 0.99))
    reward = data.draw(st.floats(0.01, 100.0))
    want = [[None if a else float("inf") if x <= 0.0
             else general_threshold(power, f, 1.0 - f, x, 1.0 - b, reward)
             for f, a, b, x in zip(*rows)]
            for rows in zip(fork.tolist(), aboard.tolist(), base.tolist(), pert.tolist())]
    # entries on both sides of the thresholds, and on them
    entries = grid(st.floats(0.0, 1e3))
    for i, j in np.ndindex(k, n):
        if want[i][j] is not None and np.isfinite(want[i][j]) and data.draw(st.booleans()):
            entries[i, j] = want[i][j]
    with warnings.catch_warnings(), np.errstate(all="warn"):
        warnings.simplefilter("error")
        got = strategies._commitment_thresholds(fork, aboard, power, base, pert, reward)
        feasible = strategies._on_fork(entries, aboard, got).all(axis=1)
    for i, j in np.ndindex(k, n):
        if want[i][j] is None:
            assert np.isnan(got[i, j])
        else:
            assert np.array(got[i, j]).tobytes() == np.array(want[i][j]).tobytes()
    assert feasible.tolist() == [
        all(t is None or e >= t for e, t in zip(row, ts))
        for row, ts in zip(entries.tolist(), want)
    ]


def test_a_bribe_equal_to_a_threshold_persuades(table2_scenario):
    # the engine's one tie rule: the recruit table (gvc_new_markov) and the
    # target's commitment rule (_on_fork) join at equality, and one step
    # below a threshold does not persuade
    sc = table2_scenario
    r = sc.miner_set.row("P3")
    recruit = sc.recruit_thresholds[r]
    positive = recruit > 0
    assert positive.sum() >= 3
    for entries, joins in ((recruit, True), (np.nextafter(recruit, 0.0), False)):
        entries = np.where(positive, entries, DUST)
        zeta = gvc_new_markov(sc, BribeSchedule(tuple(entries.tolist()), True, "GVC_AC")).zeta
        assert (zeta[r, positive] == joins).all()
        not_aboard = np.zeros(recruit.size, dtype=bool)
        assert (strategies._on_fork(entries, not_aboard, recruit)[positive] == joins).all()


def test_optimize_rejects_bad_objective(table2_scenario):
    with pytest.raises(StrategyError):
        optimize_gvc(table2_scenario, "cheapest", 4)


# ---------------------------------------------------------------------------
# randomized cross-strategy properties

@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_bff_beats_bs_on_random_rosters(seed):
    rng = np.random.default_rng(seed)
    ms = random_miner_set(rng, int(rng.integers(3, 9)))
    sc = make_scenario(ms, ms.miners[0].id, 6, 1, 6.25)
    for start in (2, 4, 6):
        assert run_bff(sc, start).success_prob >= run_bs(sc, start).success_prob - 1e-12


# ---------------------------------------------------------------------------
# sweeps over start states and rewards

def bits(value):
    """Every field of an outcome, down to its arrays' bytes and its floats'
    hex forms, for comparisons bit for bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return tuple((f.name, bits(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value


@st.composite
def sweep_cases(draw):
    """(scenario, starts, rewards): a roster of 2-40 miners, attacker power
    0.05-0.6 (0.5 and more, the 512-state tail, drawn on purpose), C 1-12,
    any target, starts in any order with duplicates (None is the scenario's
    own start), and one to three rewards."""
    mu = draw(st.one_of(st.floats(0.05, 0.6), st.sampled_from([0.5, 0.55, 0.6])))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=40))
    lines = [f"atk {mu!r} attacker"]
    lines += [f"m{i} {(1.0 - mu) * w / sum(weights)!r}" for i, w in enumerate(weights)]
    ms = load_pool_distribution("\n".join(lines))
    c = draw(st.integers(1, 12))
    target = ms.miners[draw(st.integers(0, len(ms.miners) - 1))].id
    scenario = make_scenario(ms, target, c, draw(st.integers(1, c)), 6.25)
    starts = draw(st.lists(st.one_of(st.integers(0, c), st.none()), min_size=1, max_size=5))
    rewards = draw(st.lists(st.sampled_from([50.0, 12.5, 6.25, 3.125, 1.5625]),
                            min_size=1, max_size=3))
    return scenario, starts, rewards


SWEEPS = {
    "bs": (strategies.sweep_bs, run_bs),
    "bff": (strategies.sweep_bff, run_bff),
    "crb1": (functools.partial(strategies.sweep_crb, variant="crb1"),
             functools.partial(run_crb, variant="crb1")),
    "crb2": (functools.partial(strategies.sweep_crb, variant="crb2"),
             functools.partial(run_crb, variant="crb2")),
}


@settings(max_examples=60, deadline=None)
@given(case=sweep_cases())
def test_sweeps_equal_their_one_point_runs_bit_for_bit(case):
    # a sweep's outcomes are, in every field, the run_* outcomes of its
    # points, start by start at the scenario's reward and reward by reward
    scenario, starts, rewards = case
    for sweep, run in SWEEPS.values():
        got = sweep(scenario, starts=starts)
        assert [bits(o) for o in got] == [bits(run(scenario, start_state=s)) for s in starts]
        got = sweep(scenario, starts=starts, rewards=rewards)
        want = [run(scenario.at_reward(r), start_state=s) for r in rewards for s in starts]
        assert [bits(o) for o in got] == [bits(o) for o in want]


def fork_totals_by_hand(scenario, membership):
    """Each state's fork total, the attacker's power plus each miner aboard
    added in roster order, and its capped form, the core."""
    totals = []
    for column in membership.zeta.T.tolist():
        joined = 0.0
        for aboard, power in zip(column, scenario.miner_set.powers.tolist()):
            if aboard:
                joined += power
        totals.append(scenario.mu + joined)
    return totals, np.minimum(totals, 1.0 - MIN_MAIN_SHARE)


def outcome_by_hand(scenario, membership, schedule, start):
    """The outcome of a schedule from one start, step by step: the core
    from ``fork_totals_by_hand``, the race solved from the start
    (``markov.solve_race``), the costs weighed over its visit row, and the
    recapture summed state by state."""
    mu = scenario.mu
    totals, core = fork_totals_by_hand(scenario, membership)
    solution = markov.solve_race(core, mu, start)
    fork_power = markov.extend_fork_power(core, mu)
    bribes = np.zeros(fork_power.size)
    bribes[: schedule.h] = schedule.per_state_bribe
    success = float(solution.success[start])
    cost_on_success = None
    if success > 0.0:
        cost_on_success = float((solution.success / success * solution.visits * bribes).sum())
    row = scenario.miner_set.row(scenario.target_id)
    p_t = float(scenario.miner_set.powers[row])
    attacker = target = 0.0
    for spend, total, aboard in zip(schedule.per_state_bribe, totals, membership.zeta[row]):
        attacker += spend * mu / total
        if aboard:
            target += spend * p_t / total
    mu_eff = float(core[start])
    return strategies.StrategyOutcome(
        strategy_tag=schedule.strategy_tag,
        start_state=start,
        success_prob=success,
        success_prob_basic=markov.catchup_prob(mu_eff, 1.0 - mu_eff, start),
        expected_steps=solution.steps,
        visits=solution.visits,
        cost_unconditional=float(solution.visits @ bribes),
        cost_on_success=cost_on_success,
        single_visit_cost=float(np.sum(schedule.per_state_bribe)),
        attacker_recapture=attacker,
        target_recapture=target,
        schedule=schedule,
        fork_power=fork_power,
        membership=membership,
    )


def quotes_by_hand(scenario, power):
    """The basic threshold of a miner of ``power`` at every state 0..C."""
    return [basic_threshold(i, power, scenario.mu, scenario.lam, scenario.reward)
            for i in range(scenario.confirmations + 1)]


def bs_by_hand(scenario, start):
    """bs at one start: the target alone aboard at every state, each paid
    its settled basic minimum."""
    quotes = quotes_by_hand(scenario, scenario.target.power)
    schedule = BribeSchedule(tuple(map(settled_bribe, quotes)), False, "BS")
    target_only = strategies._target_only(scenario, range(scenario.confirmations + 1))
    return outcome_by_hand(scenario, target_only, schedule, start)


def bff_by_hand(scenario, start):
    """bff at one start: the top C-i+1 miners aboard at state i, each state
    paid the settled basic minimum of its smallest recruit."""
    roster, c = scenario.miner_set.miners, scenario.confirmations
    entries = tuple(
        settled_bribe(quotes_by_hand(scenario, roster[min(c - i, len(roster) - 1)].power)[i])
        for i in range(c + 1))
    schedule = BribeSchedule(entries, False, "BFF")
    return outcome_by_hand(scenario, bff_membership(scenario), schedule, start)


def crb_by_hand(scenario, start, variant):
    """crb at one start: the target alone aboard up to the pricing state (C
    for crb1, the start for crb2), the constant priced on that chain's
    visit row from the pricing state, and nothing paid above it."""
    c = scenario.confirmations
    calc_from = c if variant == "crb1" else start
    target_only = strategies._target_only(scenario, range(calc_from + 1))
    _, core = fork_totals_by_hand(scenario, target_only)
    pricing = markov.solve_race(core, scenario.mu, calc_from)
    quotes = quotes_by_hand(scenario, scenario.target.power)
    constant = max(crb_min_constant(pricing.visits.tolist(), quotes, calc_from), DUST)
    schedule = BribeSchedule(tuple(constant if i <= calc_from else 0.0 for i in range(c + 1)),
                             True, variant.upper())
    return outcome_by_hand(scenario, target_only, schedule, start)


BY_HAND = {"bs": bs_by_hand, "bff": bff_by_hand,
           "crb1": functools.partial(crb_by_hand, variant="crb1"),
           "crb2": functools.partial(crb_by_hand, variant="crb2")}


@pytest.mark.parametrize("strategy", BY_HAND)
@settings(max_examples=40, deadline=None)
@given(case=sweep_cases())
def test_sweeps_equal_the_strategy_step_by_step(strategy, case):
    # run_bs, run_bff and run_crb are sweeps of one start, so a fault in
    # what they share with the sweeps shows only against the strategy
    # computed on its own: every start and reward, in every field (a crb2
    # sweep also builds every start's chain from one table of the target
    # aboard and runs it beside the other starts)
    scenario, starts, rewards = case
    sweep, _ = SWEEPS[strategy]
    by_hand = BY_HAND[strategy]
    starts = [scenario.d0 if start is None else start for start in starts]
    got = sweep(scenario, starts=starts)
    assert [bits(o) for o in got] == [bits(by_hand(scenario, s)) for s in starts]
    got = sweep(scenario, starts=starts, rewards=rewards)
    want = [by_hand(scenario.at_reward(r), s) for r in rewards for s in starts]
    assert [bits(o) for o in got] == [bits(o) for o in want]


@pytest.mark.parametrize("strategy", ["bs", "bff", "crb1", "crb2", "gvc"])
def test_an_unpayable_threshold_is_refused_before_any_solve(strategy, table2_scenario,
                                                            monkeypatch):
    # at C = 580 the smallest miner's odds of overtaking are subnormal and
    # its basic threshold is +inf (at C = 600 they underflow to 0, the same
    # limit); each strategy that pays it refuses by name, before any chain
    # is solved, rather than build a schedule it cannot pay
    ms, small = table2_scenario.miner_set, table2_scenario.miner_set.miners[-1]
    # bs and crb pay the target alone: make it the smallest miner
    target = small.id if strategy in ("bs", "crb1", "crb2") else ms.miners[0].id
    sc = make_scenario(ms, target, 580, 1, table2_scenario.reward)
    assert basic_threshold(579, small.power, sc.mu, sc.lam, sc.reward) == np.inf
    monkeypatch.setattr(markov, "_columns", None)  # any solve fails with TypeError
    monkeypatch.setattr(markov, "_solve_cores", None)
    with pytest.raises(StrategyError, match="--confirmations or --reward"):
        if strategy == "gvc":
            optimize_gvc(sc, "ac", 0)
        else:
            SWEEPS[strategy][0](sc, starts=[0])


def test_a_bribe_beyond_the_grid_is_refused(table2_scenario):
    # a value whose count of 0.01 BTC steps is not finite has no grid amount
    assert strategies._grid_above(0.07) == 0.08
    for value in (1e307, np.inf, np.nan):
        with pytest.raises(StrategyError, match="--reward"):
            strategies._grid_above(value)


def test_crb2_of_a_capped_attacker_equals_the_strategy_step_by_step():
    # an attacker within 1e-12 of the whole network is capped like any
    # fork: then every pricing chain is the capped power at every bribed
    # state, and the sweep solves each as a row of its cores like any other
    ms = load_pool_distribution("A 0.9999999999995 attacker\nM1 3e-13\nM2 2e-13")
    assert ms.attacker_power > 1.0 - MIN_MAIN_SHARE
    scenario = make_scenario(ms, "M1", 3, 1, 6.25)
    starts, rewards = [3, 0, 2, 2], [6.25, 1.5625]
    sweep, by_hand = SWEEPS["crb2"][0], BY_HAND["crb2"]
    got = sweep(scenario, starts=starts, rewards=rewards)
    want = [by_hand(scenario.at_reward(r), s) for r in rewards for s in starts]
    assert [bits(o) for o in got] == [bits(o) for o in want]


@pytest.mark.parametrize("strategy", SWEEPS)
def test_a_sweep_of_no_starts_or_no_rewards_is_empty(strategy, table2_scenario):
    sweep = SWEEPS[strategy][0]
    assert sweep(table2_scenario, starts=[]) == []
    assert sweep(table2_scenario, starts=[0, 2], rewards=[]) == []
    assert sweep(table2_scenario, starts=[], rewards=[6.25, 1.0]) == []
    assert evaluate_schedule(table2_scenario, nobody_aboard(table2_scenario, 7), []) == []


def test_a_long_crb2_sweep_after_a_short_one_is_the_strategy_step_by_step(table2_scenario):
    # a sweep of one start caches its run; a later sweep of the same
    # attacker power asks for that run first and then for more new runs
    # than the run cache holds
    sc = make_scenario(table2_scenario.miner_set, table2_scenario.target_id, 100, 1,
                       table2_scenario.reward)
    sweep, by_hand = SWEEPS["crb2"][0], BY_HAND["crb2"]
    assert [bits(o) for o in sweep(sc, starts=[0])] == [bits(by_hand(sc, 0))]
    starts = list(range(101))
    assert len(starts) > markov.RUN_CACHE_SIZE + 1
    got = sweep(sc, starts=starts)
    assert [bits(o) for o in got] == [bits(by_hand(sc, s)) for s in starts]


def test_the_engine_builds_no_absorbing_chain(table2_scenario, monkeypatch):
    # only the dense reference (markov.analyze) reads an AbsorbingChain;
    # every sweep and run_gvc hand the chain around as fork powers
    def refuse(fork_power):
        raise AssertionError("the engine built an AbsorbingChain")

    monkeypatch.setattr(markov, "AbsorbingChain", refuse)
    sc = table2_scenario
    states = range(sc.confirmations + 1)
    for sweep, _ in SWEEPS.values():
        assert len(sweep(sc, starts=states, rewards=[3.125, 6.25])) == 2 * len(states)
    assert run_gvc(sc, PUBLISHED_GVC, 4).fork_power.size == 7 + markov.tail_depth(sc.mu)


def count_solves(monkeypatch):
    """Counts of eliminations (``markov._columns``) and visit rows
    (``markov._visit_row``) from here on."""
    counts = {"eliminations": 0, "visit rows": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(markov, "_columns", counted("eliminations", markov._columns))
    monkeypatch.setattr(markov, "_visit_row", counted("visit rows", markov._visit_row))
    return counts


@pytest.mark.parametrize("strategy", ["bs", "bff", "crb1"])
def test_a_start_sweep_makes_one_elimination(strategy, table2_scenario, monkeypatch):
    # every start of a bs, bff or crb1 sweep, and crb1's pricing state C,
    # shares one core and one trim point: one elimination, one visit row
    # per state (a first sweep solves the attacker-only run, whose own
    # visit row is then kept)
    sweep, _ = SWEEPS[strategy]
    states = range(table2_scenario.confirmations + 1)
    sweep(table2_scenario, starts=states)
    counts = count_solves(monkeypatch)
    sweep(table2_scenario, starts=states)
    assert counts == {"eliminations": 1, "visit rows": len(states)}


def test_crb2_prices_and_evaluates_from_one_solve(table2_scenario, monkeypatch):
    # crb2 prices its constant at the start, on the chain the outcome runs
    # on: one solve gives both the pricing visits and the outcome
    run_crb(table2_scenario, "crb2", 4)
    counts = count_solves(monkeypatch)
    run_crb(table2_scenario, "crb2", 4)
    assert counts == {"eliminations": 1, "visit rows": 1}


def test_a_sweep_checks_every_start_before_any_work(table2_scenario, monkeypatch):
    counts = count_solves(monkeypatch)
    for sweep, _ in SWEEPS.values():
        with pytest.raises(StrategyError):
            sweep(table2_scenario, starts=[0, 1, 9])
    assert counts == {"eliminations": 0, "visit rows": 0}
