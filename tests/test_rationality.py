import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from briberace.model import DUST
from briberace.rationality import (
    RationalityError,
    basic_threshold,
    basic_thresholds,
    crb_min_constant,
    general_threshold,
    persuadable_grid_floor,
    persuadable_threshold,
    settled_bribe,
)

MU, LAM, PM, F = 0.2, 0.8, 0.1, 6.25


def oracle_basic(i, pm, mu, lam, f):
    # spelled out step by step, independent of the implementation's algebra
    fail_if_alone = 1.0 - (mu / lam) ** (i + 1)
    win_if_joined = ((mu + pm) / (lam - pm)) ** (i + 1)
    return fail_if_alone * (pm + mu) / lam / win_if_joined * f - f


def test_worked_example_values():
    assert basic_threshold(6, PM, MU, LAM, F) == pytest.approx(876.2654, abs=1e-3)
    assert basic_threshold(5, PM, MU, LAM, F) == pytest.approx(371.9016, abs=1e-3)
    assert basic_threshold(0, PM, MU, LAM, F) == pytest.approx(-2.1484, abs=1e-3)


def test_basic_matches_independent_oracle():
    for i in range(10):
        for pm in (0.05, 0.1, 0.3):
            assert basic_threshold(i, pm, MU, LAM, F) == pytest.approx(
                oracle_basic(i, pm, MU, LAM, F), rel=1e-12
            )


def test_cumulative_sum_of_positive_quotes():
    total = sum(
        max(basic_threshold(i, PM, MU, LAM, F), 0.0) for i in range(7)
    )
    assert total == pytest.approx(1495.587, abs=1e-2)


def test_settled_amounts():
    q = basic_threshold(0, PM, MU, LAM, F)
    assert q < 0 and settled_bribe(q) == DUST
    assert settled_bribe(0.0) == DUST
    q6 = basic_threshold(6, PM, MU, LAM, F)
    assert settled_bribe(q6) == pytest.approx(q6 + DUST, rel=1e-15)
    assert settled_bribe(q6) > q6


def test_basic_input_validation():
    with pytest.raises(RationalityError):
        basic_threshold(3, 0.9, MU, LAM, F)  # miner bigger than the main chain
    with pytest.raises(RationalityError):
        basic_threshold(3, LAM, MU, LAM, F)  # the whole main chain: a one-miner roster
    with pytest.raises(RationalityError):
        basic_threshold(3, 0.1, 0.3, 0.8, F)  # powers not summing to 1


def test_odds_beyond_float_range_give_the_formulas_value():
    # a hair below the whole main chain, the fork's odds leave float range at
    # deep states; the formula's value there is -F to float precision, as it
    # already is at the shallower states whose odds still fit
    for mu in (0.05, MU, 0.5, 0.6):
        lam = 1.0 - mu
        near = persuadable_grid_floor(lam, lam)
        for i in (12, 15, 20, 60, 400):
            assert basic_threshold(i, near, mu, lam, F) == -F


def test_underflowing_odds_give_an_infinite_threshold():
    # a small miner's odds of overtaking underflow at deep states (to 0
    # here from about state 530, and subnormal just before): no bribe
    # persuades it, the formula's limit +inf
    assert ((MU + 0.0025) / (LAM - 0.0025)) ** 601 == 0.0
    assert basic_threshold(600, 0.0025, MU, LAM, F) == math.inf
    assert basic_threshold(520, 0.0025, MU, LAM, F) == math.inf
    assert math.isfinite(basic_threshold(400, 0.0025, MU, LAM, F))


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(min_value=0.01, max_value=0.7),
    shares=st.lists(st.sampled_from([1e-4, 0.003, 0.2, 0.5, 0.9]), min_size=1, max_size=5),
    size=st.integers(min_value=1, max_value=700),
    rewards=st.lists(st.one_of(st.floats(min_value=1e-300, max_value=1e307), st.just(6.25)),
                     min_size=1, max_size=3),
)
def test_thresholds_at_every_state_are_basic_thresholds(mu, shares, size, rewards):
    # the list form takes each state's factor of the reward once, and gives
    # basic_threshold's bits at every state and reward: overflowing odds
    # (a miner a hair below the whole main chain), underflowing ones (a
    # small miner at deep states) and overflowing rewards included
    lam = 1.0 - mu
    pool = [share * lam for share in shares] + [persuadable_grid_floor(lam, lam)]
    powers = [pool[i % len(pool)] for i in range(size)]
    got = basic_thresholds(powers, mu, lam, rewards)
    want = [[basic_threshold(i, p, mu, lam, r) for i, p in enumerate(powers)] for r in rewards]
    assert [[t.hex() for t in row] for row in got] == [[t.hex() for t in row] for row in want]


@settings(max_examples=300, deadline=None)
@given(
    i=st.integers(min_value=0, max_value=599),
    mu=st.floats(min_value=0.01, max_value=0.7),
    share=st.floats(min_value=1e-6, max_value=1.0, exclude_max=True),
)
def test_general_reduces_to_basic(i, mu, share):
    # the basic threshold is the general one at constant odds, bit for bit
    lam = 1.0 - mu
    p_m = share * lam
    try:
        p_xs = ((mu + p_m) / (lam - p_m)) ** (i + 1)
    except OverflowError:
        p_xs = math.inf
    assume(0.0 < p_m < lam and 0.0 < p_xs < math.inf)
    p_yf = 1.0 - (mu / lam) ** (i + 1)
    g = general_threshold(p_m, mu, lam, p_xs, p_yf, F)
    assert g == basic_threshold(i, p_m, mu, lam, F)


def test_general_zero_failure_means_fork_already_safe():
    assert general_threshold(PM, MU, LAM, 0.5, 0.0, F) == pytest.approx(-F, rel=1e-12)


def test_crb_constant_of_constant_vector():
    visits = [0.3, 1.2, 0.4, 2.0]
    assert crb_min_constant(visits, [7.5] * 4, 3) == pytest.approx(7.5, rel=1e-12)


def test_crb_constant_concentrated_visits():
    visits = [1e-9, 1e-9, 1e6, 1e-9]
    quotes = [1.0, 2.0, 42.0, 3.0]
    assert crb_min_constant(visits, quotes, 3) == pytest.approx(42.0, abs=1e-3)


def test_crb_constant_range_and_errors():
    # only states at or below the current one enter the average
    visits = [1.0, 1.0, 1.0, 1.0]
    quotes = [1.0, 2.0, 100.0, 200.0]
    assert crb_min_constant(visits, quotes, 1) == pytest.approx(1.5)
    with pytest.raises(RationalityError):
        crb_min_constant(visits, quotes, 9)
    with pytest.raises(RationalityError):
        crb_min_constant([0.0, 0.0], [1.0, 1.0], 1)


def test_persuadable_threshold_forward_consistency():
    # bisection runs to 1e-9 absolute, so allow that much slack
    for i in (2, 4, 6):
        quote = basic_threshold(i, PM, MU, LAM, F)
        assert persuadable_threshold(i, quote + 1e-6, MU, LAM, F) <= PM + 2e-9
        assert persuadable_threshold(i, max(quote - 1e-6, 0.0), MU, LAM, F) >= PM - 2e-9


def test_persuadable_threshold_against_grid_scan():
    i, bribe = 4, 25.0
    got = persuadable_threshold(i, bribe, MU, LAM, F)
    # oracle: coarse scan for the first persuaded power on a 1e-4 grid
    scan = next(
        p * 1e-4
        for p in range(1, int(LAM * 1e4))
        if basic_threshold(i, p * 1e-4, MU, LAM, F) <= bribe
    )
    assert abs(got - scan) <= 1e-4


def test_persuadable_threshold_limits():
    assert persuadable_threshold(3, 1e6, MU, LAM, F) == 0.0
    # state 0 persuades anyone for dust: the threshold is identically zero
    assert persuadable_threshold(0, DUST, MU, LAM, F) == 0.0


# ---------------------------------------------------------------------------
# properties

power_pairs = st.tuples(
    st.floats(min_value=0.02, max_value=0.45),  # mu
    st.floats(min_value=2e-3, max_value=0.75),
    st.floats(min_value=2e-3, max_value=0.75),
    st.integers(min_value=0, max_value=12),
)


@settings(max_examples=300, deadline=None)
@given(power_pairs)
def test_bigger_miners_need_strictly_less(params):
    # fractions capped at 0.75 of the main chain: deeper in, quotes saturate
    # toward -F and the strict ordering drops below float resolution
    mu, a, b, i = params
    lam = 1.0 - mu
    p1, p2 = sorted((a * lam, b * lam))
    if p2 - p1 < 1e-6:
        return
    big = basic_threshold(i, p2, mu, lam, 1.0)
    small = basic_threshold(i, p1, mu, lam, 1.0)
    assert big < small


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=0.05, max_value=0.35),
    frac=st.floats(min_value=0.05, max_value=0.9),
    i=st.integers(min_value=0, max_value=10),
)
def test_deeper_states_cost_strictly_more(mu, frac, i):
    lam = 1.0 - mu
    pm = min(frac * lam, 0.49 - mu)
    if pm <= 0:
        return
    a = basic_threshold(i, pm, mu, lam, F)
    b = basic_threshold(i + 1, pm, mu, lam, F)
    assert b > a


@settings(max_examples=200, deadline=None)
@given(
    mu=st.floats(min_value=0.05, max_value=0.4),
    frac=st.floats(min_value=0.05, max_value=0.9),
    i=st.integers(min_value=0, max_value=10),
    f=st.floats(min_value=0.1, max_value=50.0),
)
def test_reward_affinity(mu, frac, i, f):
    lam = 1.0 - mu
    pm = frac * lam * 0.98
    at_unit = basic_threshold(i, pm, mu, lam, 1.0)
    at_f = basic_threshold(i, pm, mu, lam, f)
    assert at_f == pytest.approx((at_unit + 1.0) * f - f, rel=1e-9, abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    mu=st.floats(min_value=0.05, max_value=0.4),
    frac=st.floats(min_value=0.05, max_value=0.9),
    i=st.integers(min_value=0, max_value=8),
)
def test_threshold_inversion_brackets_power(mu, frac, i):
    lam = 1.0 - mu
    pm = frac * lam * 0.98
    quote = basic_threshold(i, pm, mu, lam, F)
    if quote < 0:
        return
    delta = max(abs(quote) * 1e-7, 1e-7)
    low = persuadable_threshold(i, quote + delta, mu, lam, F)
    high = persuadable_threshold(i, max(quote - delta, 0.0), mu, lam, F)
    assert low is not None
    assert low <= pm + 1e-6
    if high is not None:
        assert high >= pm - 1e-6
    assert not math.isnan(low)


@settings(max_examples=300, deadline=None)
@given(
    mu=st.floats(min_value=0.02, max_value=0.7),
    frac=st.floats(min_value=0.0, max_value=1.0),
    i=st.integers(min_value=0, max_value=12),
    rel=st.one_of(st.floats(min_value=-1e-6, max_value=1e-6), st.sampled_from([0.0, 1e-12, -1e-12])),
)
def test_threshold_at_grid_floor_answers_like_the_bisection(mu, frac, i, rel):
    """A bribe recruits a miner by the bisection (power >= floor) exactly when
    it reaches the basic threshold at the miner's power snapped down to the
    bisection's grid, also for bribes within a hair of the miner's own
    threshold and for a miner holding the whole main chain."""
    lam = 1.0 - mu
    pm = max(frac * lam, 1e-12)
    snapped = basic_threshold(i, persuadable_grid_floor(pm, lam), mu, lam, F)
    bribe = max(snapped + rel * max(abs(snapped), 1.0), 0.0)
    floor = persuadable_threshold(i, bribe, mu, lam, F)
    assert (snapped <= bribe) == (floor is not None and pm >= floor)


def test_grid_floor_is_a_bisection_endpoint_at_or_below_the_power():
    for pm in (1e-18, 1e-9, 0.1, 0.25, LAM - 1e-16, LAM):
        floor = persuadable_grid_floor(pm, LAM)
        assert floor <= max(pm, 1e-15)
        assert pm - floor < 1e-9 or pm < 1e-15
    # a bribe exactly at the snapped threshold lands the bisection on the floor
    floor = persuadable_grid_floor(PM, LAM)
    assert persuadable_threshold(4, basic_threshold(4, floor, MU, LAM, F), MU, LAM, F) == floor
    assert persuadable_grid_floor(floor, LAM) == floor  # a grid point is its own floor
