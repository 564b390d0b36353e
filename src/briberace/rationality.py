"""Miner-side calculus: the minimum bribe that persuades a miner.

A rational miner at gap state i compares the expected reward of mining on
the fork (bribe plus block reward, earned only if the fork wins) against
mining on the main chain. Its threshold is the bribe at which the two are
equal, and a bribe equal to the threshold persuades: every membership rule
of the engine joins at equality. Two threshold formulas are provided:

* ``basic``  - transition probabilities assumed constant for the whole race,
  with the miner counting itself into the fork's power (the worst case in
  which no other miner accepts);
* ``general`` - caller supplies per-state success/failure probabilities taken
  from an explicit chain, for committed schedules where miners can predict
  recruitment.

A threshold keeps its raw sign (negative: the fork already pays without a
bribe); ``settled_bribe`` turns it into a schedule amount. A small miner's
basic threshold is +inf at the deep states where its odds of overtaking
underflow: no bribe persuades it there. ``basic_thresholds`` gives the
basic threshold at every state for several rewards, bit for bit, from one
factor of the reward per state.
"""
from __future__ import annotations

import math
import operator
from typing import Sequence

from .model import DUST

THRESHOLD_BISECTION_TOL = 1e-9
PERSUADABLE_MARGIN = 1e-15  # the persuadability bisection brackets (margin, lam - margin)


class RationalityError(ValueError):
    pass


def _check_basic_inputs(p_m: float, mu: float, lam: float) -> None:
    if mu <= 0:
        raise RationalityError("attacker power must be positive")
    if abs(mu + lam - 1.0) > 1e-9:
        raise RationalityError("fork and main powers must sum to 1")
    if not (0 < p_m < lam):
        raise RationalityError("miner power must be in (0, main-chain power)")


def basic_threshold(i: int, p_m: float, mu: float, lam: float, reward: float) -> float:
    """Raw constant-probability threshold value (may be negative): the
    general threshold at the constant-power race's survive and overtake
    odds, by ``general_threshold``'s operations (``_basic_factor``)."""
    _check_basic_inputs(p_m, mu, lam)
    return _basic_factor(i, p_m, mu, lam) * reward - reward


def basic_thresholds(powers: Sequence[float], mu: float, lam: float,
                     rewards: Sequence[float]) -> list[list[float]]:
    """``basic_threshold(i, powers[i], mu, lam, reward)`` at every state i,
    one list per reward of ``rewards``, bit for bit: each state's factor is
    taken once for every reward, and each distinct power checked once."""
    for p_m in dict.fromkeys(powers):
        _check_basic_inputs(p_m, mu, lam)
    factors = [_basic_factor(i, p_m, mu, lam) for i, p_m in enumerate(powers)]
    return [[f * reward - reward for f in factors] for reward in rewards]


def _basic_factor(i: int, p_m: float, mu: float, lam: float) -> float:
    """f of the basic threshold f R - R at state i: f = survive (p_m + mu) /
    (lam overtake), evaluated as ``general_threshold`` evaluates it, so
    f R - R is its value bit for bit. Where the fork's odds with the miner
    aboard overflow a float (a miner within a hair of the whole main chain,
    at deep states), the formula's value is -R to float precision, and f is
    0. Where they underflow to 0 (a small miner at deep states), f is the
    formula's limit, +inf: no bribe persuades the miner."""
    survive = 1.0 - (mu / lam) ** (i + 1)
    try:
        overtake = ((mu + p_m) / (lam - p_m)) ** (i + 1)
    except OverflowError:
        return 0.0
    return math.inf if overtake == 0.0 else survive * (p_m + mu) / (lam * overtake)


def settled_bribe(threshold: float) -> float:
    """Schedule amount for a threshold: one satoshi above it, or dust where
    no payment is needed."""
    return DUST if threshold <= 0 else threshold + DUST


def general_threshold(
    p_m: float, mu_i: float, lam_i: float, p_xs_i: float, p_yf_i: float, reward: float
) -> float:
    """Raw explicit-probability threshold value (may be negative); unchecked,
    and finite only for ``p_xs_i > 0``."""
    return p_yf_i * (p_m + mu_i) / (lam_i * p_xs_i) * reward - reward


def crb_min_constant(
    visits: Sequence[float], quotes: Sequence[float], current_state: int
) -> float:
    """Visit-weighted average of per-state minimum bribes from the current
    state down to the winning boundary; the least constant payment that keeps
    the whole remaining attack profitable in expectation."""
    if not (0 <= current_state < min(len(visits), len(quotes))):
        raise RationalityError("current_state out of range")
    visits, quotes = visits[: current_state + 1], quotes[: current_state + 1]
    total = sum(visits)
    if total <= 0:
        raise RationalityError("empty or unvisited summation range")
    return sum(map(operator.mul, visits, quotes)) / total


def persuadable_threshold(
    i: int, bribe: float, mu: float, lam: float, reward: float
) -> float | None:
    """Smallest miner power persuaded by ``bribe`` at state i (basic formula).

    The threshold is monotone decreasing in miner power, so bisection on
    (0, lam) to 1e-9 applies. Returns 0.0 when any positive power suffices
    and None when even powers approaching the whole main chain are not
    persuaded.
    """
    if bribe < 0:
        raise RationalityError("bribe must be nonnegative")
    lo, hi = PERSUADABLE_MARGIN, lam - PERSUADABLE_MARGIN
    if basic_threshold(i, lo, mu, lam, reward) <= bribe:
        return 0.0
    if basic_threshold(i, hi, mu, lam, reward) > bribe:
        return None
    # invariant: threshold(lo) > bribe >= threshold(hi)
    while hi - lo > THRESHOLD_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if basic_threshold(i, mid, mu, lam, reward) > bribe:
            lo = mid
        else:
            hi = mid
    return hi


def persuadable_grid_floor(p_m: float, lam: float) -> float:
    """The largest power at or below ``p_m`` that persuadable_threshold's
    bisection can return, found by walking its midpoints toward ``p_m``.

    For a threshold monotone in power, ``p_m >= persuadable_threshold(i, b,
    ...)`` holds exactly when ``basic_threshold(i, floor, ...) <= b``: both
    ask on which side of the bisection's final bracket the miner falls. A
    table of thresholds at these floors therefore answers every bribe with
    one comparison and the bisection's own knife edges.
    """
    lo, hi = PERSUADABLE_MARGIN, lam - PERSUADABLE_MARGIN
    if p_m >= hi:
        return hi
    while hi - lo > THRESHOLD_BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if mid > p_m:
            hi = mid
        else:
            lo = mid
    return lo
