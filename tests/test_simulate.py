import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import sim_reference
from hypothesis import given, reject, settings, strategies as st

from briberace import markov, simulate
from briberace.cli import fixture_path
from briberace.model import load_pool_distribution, make_scenario
from briberace.simulate import (
    CHUNK,
    RacePolicy,
    SimConfig,
    SimulationError,
    _thresholds,
    compare_reports,
    simulate_race,
)
from briberace.strategies import MembershipMatrix, run_bff, run_bs, run_crb, run_gvc

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


def test_scheduled_states_outside_the_chain_rejected():
    # a tracked region of no states, or of more states than the chain has,
    # is refused rather than clamped to one state or to the whole chain
    fork, bribe, cfg = (0.3,) * 7, (0.0,) * 7, SimConfig(trials=10, seed=0)
    for tracked in (0, 8):
        with pytest.raises(SimulationError):
            simulate_race(RacePolicy(fork, bribe, 3, scheduled_states=tracked), cfg)
    for tracked in (1, 7):
        rep = simulate_race(RacePolicy(fork, bribe, 3, scheduled_states=tracked), cfg)
        assert len(rep.visit_counts) == tracked


# Golden reports: tests/data/sim_reports.txt was written by running this
# module as a script (``PYTHONPATH=src python tests/test_simulate.py``)
# before the event loop was rewritten; every field below must keep its bits.
# Three crb lines were written again when folding the chain solve's tail
# moved the crb constants by one ulp each (to the correctly rounded values).
# The crb cases now pay those constants, pinned below, so the file checks
# the simulator alone and not the last bit of the chain solve.
GOLDEN = Path(__file__).resolve().parent / "data" / "sim_reports.txt"
CRB_CONSTANTS = {  # (roster, variant): run_crb's constant at the golden start
    ("table2", "crb1"): "0x1.67e5d1ec658a0p+7",
    ("table2", "crb2"): "0x1.6e244fd9a23efp+5",
    ("whale20", "crb1"): "0x1.34b1db689b2ffp+9",
    ("whale20", "crb2"): "0x1.34b1db689b2ffp+9",
}
GOLDEN_FIELDS = (
    "trials", "seed", "empirical_success", "mean_steps", "visit_counts",
    "cost_unconditional", "cost_on_success", "successes", "discarded",
)


def _golden_value(v) -> str:
    if v is None:
        return "None"
    if isinstance(v, tuple):
        return "[" + " ".join(_golden_value(x) for x in v) + "]"
    if isinstance(v, int):
        return str(v)
    return f"{v.mean.hex()}/{v.se.hex()}"


def golden_scenarios():
    t2 = make_scenario(load_pool_distribution(fixture_path("table2").read_text()), "P2", 6, 1, 6.25)
    wh = make_scenario(load_pool_distribution(fixture_path("whale20").read_text()), "M", 6, 1, 6.25)
    return (("table2", t2, 4), ("whale20", wh, 6))


def crb_policy(scenario, variant, start, constant):
    """run_crb's policy with its constant given: the target alone is aboard,
    and paid, at every offered state (all of them for crb1, those up to the
    start for crb2)."""
    ms, c = scenario.miner_set, scenario.confirmations
    offered = c + 1 if variant == "crb1" else start + 1
    zeta = np.zeros((len(ms.ids), c + 1), dtype=int)
    zeta[ms.row(scenario.target_id), :offered] = 1
    core = MembershipMatrix(ms.ids, zeta).fork_power(ms.powers, scenario.mu)
    fork = markov.extend_fork_power(core, scenario.mu)
    bribe = (constant,) * offered + (0.0,) * (fork.size - offered)
    return RacePolicy(tuple(fork.tolist()), bribe, start, scheduled_states=c + 1)


def golden_cases():
    """(name, policy, config) for every golden report, in file order."""
    cfg = SimConfig(trials=20_000, seed=5)
    for tag, scenario, start in golden_scenarios():
        yield f"bs-{tag}@{start}", RacePolicy.from_outcome(run_bs(scenario, start)), cfg
        yield f"bff-{tag}@{start}", RacePolicy.from_outcome(run_bff(scenario, start)), cfg
        for variant in ("crb1", "crb2"):
            constant = float.fromhex(CRB_CONSTANTS[tag, variant])
            yield f"{variant}-{tag}@{start}", crb_policy(scenario, variant, start, constant), cfg
    yield "untracked-none", RacePolicy((0.3, 0.45, 0.6, 0.2, 0.5), (1.0, 0.0, 2.5, 0.5, 3.0), 2), cfg
    yield "event-capped", const_policy(0.5, 9, 4, bribe=range(9)), SimConfig(trials=2_000, seed=1, max_events=9)
    yield "coin-flip", const_policy(0.5, 1, 0, bribe=(1.5,)), SimConfig(trials=10_000, seed=11)
    yield "partial-chunk", const_policy(0.3, 7, 6, bribe=(0.5,) * 7), SimConfig(trials=CHUNK + 1, seed=3)


def golden_line(name, report) -> str:
    return name + " " + " ".join(f"{f}={_golden_value(getattr(report, f))}" for f in GOLDEN_FIELDS)


def test_reports_are_bit_identical_to_the_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = [golden_line(name, simulate_race(policy, cfg)) for name, policy, cfg in golden_cases()]
    assert got == want
    assert any(" discarded=0" not in line for line in want)  # the capped case discards


def test_pinned_crb_policies_are_run_crbs():
    # the golden crb cases stand for run_crb's policies: the same fork
    # powers and schedule, with constants equal up to the solver's last bits
    for tag, scenario, start in golden_scenarios():
        for variant in ("crb1", "crb2"):
            want = RacePolicy.from_outcome(run_crb(scenario, variant, start))
            got = crb_policy(scenario, variant, start, float.fromhex(CRB_CONSTANTS[tag, variant]))
            assert got.fork_power == want.fork_power
            assert got.start_state == want.start_state
            assert got.scheduled_states == want.scheduled_states
            assert got.bribe == pytest.approx(want.bribe, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.05, 0.95), min_size=1, max_size=40),
    st.data(),
    st.integers(1, 300),
    st.integers(0, 2**32 - 1),
)
def test_steps_equal_the_sum_of_visits_over_a_fully_tracked_chain(fork, data, trials, seed):
    h = len(fork)
    start = data.draw(st.integers(0, h - 1))
    tracked = data.draw(st.sampled_from([None, h]))
    policy = RacePolicy(tuple(fork), (0.0,) * h, start, scheduled_states=tracked)
    try:
        rep = simulate_race(policy, SimConfig(trials=trials, seed=seed))
    except SimulationError:  # a deep valley can hold every trial past the cap
        reject()
    kept = rep.trials - rep.discarded
    assert rep.successes <= kept
    visits = sum(est.mean for est in rep.visit_counts)
    assert rep.mean_steps.mean == pytest.approx(visits, rel=1e-12)
    assert rep.events == pytest.approx(rep.mean_steps.mean * kept, rel=1e-12)
    assert min(start + 1, h - start) <= rep.longest <= 200 * h


@pytest.mark.parametrize("fork, bribe", [
    ((0.3, math.nan, 0.4), (1.0, 0.0, 0.0)),  # NaN never steps down
    ((0.3, 1.7, -0.4), (1.0, 0.0, 0.0)),
    ((0.3, 1.0 + 2**-52, 0.4), (1.0, 0.0, 0.0)),
    ((0.3, 0.5, -(2**-1074)), (1.0, 0.0, 0.0)),
    ((0.3, 0.5, 0.4), (1.0, math.inf, 0.0)),
    ((0.3, 0.5, 0.4), (-math.inf, 0.0, 0.0)),
    ((0.3, 0.5, 0.4), (1.0, 0.0, math.nan)),
])
def test_bad_policies_rejected(fork, bribe):
    with pytest.raises(SimulationError):
        simulate_race(RacePolicy(fork, bribe, 1), SimConfig(trials=10, seed=0))


def test_fork_powers_of_zero_and_one_accepted():
    # from state 1 a trial steps to 0, where it always steps down (a success
    # in two steps), or to 2, where it always steps up (a failure in two)
    policy = RacePolicy((1.0, 0.5, 0.0), (1.0, 2.0, 0.0), 1)
    rep = simulate_race(policy, SimConfig(trials=1000, seed=4))
    assert rep.discarded == 0
    assert rep.events == 2000 and rep.longest == 2
    assert 0 < rep.successes < 1000
    assert rep.visit_counts[0].mean == rep.successes / 1000
    assert rep.visit_counts[2].mean == 1 - rep.successes / 1000


def _uniform_is_below(words: np.ndarray, f: float) -> np.ndarray:
    """numpy's Philox uniform of each word, ``(raw >> 11) * 2**-53``,
    compared with a fork power as doubles."""
    return (words >> 11) * 2.0**-53 < f


def _near(f: float) -> list[float]:
    """f and its neighbouring doubles that are still fork powers."""
    return [x for x in (np.nextafter(f, -1.0), f, np.nextafter(f, 2.0)) if 0.0 <= x <= 1.0]


@settings(max_examples=300, deadline=None)
@given(st.data(), st.lists(st.integers(0, 2**64 - 1), max_size=20))
def test_integer_thresholds_decide_as_the_uniforms_do(data, words):
    # fork powers on the 2**-53 grid (0 and 1 included), their neighbours
    # and arbitrary ones; words at the edges of the threshold and random ones
    grid = data.draw(st.sampled_from([0, 1, 2**52, 2**53 - 1, 2**53]) | st.integers(0, 2**53))
    fork = data.draw(st.sampled_from(_near(grid * 2.0**-53)) | st.floats(0.0, 1.0))
    t = int(_thresholds(np.array([fork]))[0])
    edge = [w for j in (-1, 0) for w in ((t + j) << 11, ((t + j) << 11) + 2047) if 0 <= w < 2**64]
    raw = np.array(words + edge, dtype=np.uint64)
    assert ((raw >> 11) < np.uint64(t)).tolist() == _uniform_is_below(raw, fork).tolist()


@pytest.mark.parametrize("seed", [0, 3, 2019])
def test_a_uniform_equal_to_the_fork_power_steps_up(seed):
    # one trial on a one-state chain takes one draw: it succeeds iff the
    # uniform is strictly below the fork power, here set on the draw itself
    word = np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(0,))).random_raw(1)
    u = float((word[0] >> 11) * 2.0**-53)
    cfg = SimConfig(trials=1, seed=seed)
    for fork, won in ((u, 0), (np.nextafter(u, 2.0), 1)):
        assert simulate_race(RacePolicy((fork,), (0.0,), 0), cfg).successes == won


@pytest.mark.parametrize("key", [0, 1, 2, 7, 1023])
def test_raw_philox_words_are_the_generator_uniforms(key):
    # the simulator draws raw words where Generator(Philox).random() would
    # draw doubles; pins numpy's contract: one word per double, (raw >> 11)
    # * 2**-53, across calls of any size
    def bits():
        return np.random.Philox(np.random.SeedSequence(entropy=11, spawn_key=(key,)))

    sizes = (1, 5, 2, 997, 3, 64)
    raw, gen = bits(), np.random.Generator(bits())
    for m in sizes:
        words = raw.random_raw(m)
        assert np.array_equal((words >> 11) * 2.0**-53, gen.random(m))


def _report_bits(report) -> dict:
    return {f: _golden_value(getattr(report, f)) for f in report.__dataclass_fields__}


def _check_against_reference(policy, config, chunk):
    with mock.patch.object(simulate, "CHUNK", chunk), \
            mock.patch.object(sim_reference, "CHUNK", chunk):
        try:
            want = sim_reference.simulate_race(policy, config)
        except SimulationError:  # every trial hit the event cap
            with pytest.raises(SimulationError):
                simulate_race(policy, config)
            return None
        got = simulate_race(policy, config)
    assert _report_bits(got) == _report_bits(want)
    return got


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_reports_equal_the_reference_loops(data):
    # fork powers of 0 and 1 (a 0 below a 1 traps trials until the cap),
    # capped runs that discard, tracked regions shorter than the chain,
    # starts at the top, and chunks small enough for several per run with
    # a partial last one
    h = data.draw(st.integers(1, 10), label="h")
    power = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 0.5]))
    fork = data.draw(st.lists(power, min_size=h, max_size=h), label="fork")
    start = data.draw(st.one_of(st.just(h - 1), st.integers(0, h - 1)), label="start")
    tracked = data.draw(st.one_of(st.none(), st.integers(1, h)), label="tracked")
    paid = data.draw(st.lists(st.floats(0.0, 1e3), min_size=h, max_size=h), label="bribe")
    bribe = tuple(b if i < (tracked or h) else 0.0 for i, b in enumerate(paid))
    chunk = data.draw(st.sampled_from([CHUNK, 1, 7, 64]), label="chunk")
    trials = data.draw(st.integers(1, min(chunk, 64) * 3 + 5), label="trials")
    cap = data.draw(st.one_of(st.none(), st.integers(h, 4 * h)), label="max_events")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    policy = RacePolicy(tuple(fork), bribe, start, scheduled_states=tracked)
    _check_against_reference(policy, SimConfig(trials=trials, seed=seed, max_events=cap), chunk)


def test_reports_equal_the_reference_loops_over_full_chunks():
    # two full chunks and a partial one, at CHUNK: a capped run that
    # discards, with a shorter tracked region, a sure step and a top start
    policy = RacePolicy((0.6, 1.0, 0.45, 0.3, 0.5, 0.2), (3.0, 0.5, 7.25, 0.0, 0.0, 0.0), 5,
                        scheduled_states=3)
    rep = _check_against_reference(policy, SimConfig(trials=2 * CHUNK + 9, seed=2, max_events=9), CHUNK)
    assert 0 < rep.discarded < rep.trials


if __name__ == "__main__":
    for case_name, case_policy, case_cfg in golden_cases():
        print(golden_line(case_name, simulate_race(case_policy, case_cfg)))
