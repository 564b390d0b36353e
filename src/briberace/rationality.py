"""Miner-side calculus: minimum bribe thresholds and chain-choice decisions.

A rational miner at gap state i compares the expected reward of mining on
the fork (bribe plus block reward, earned only if the fork wins) against
mining on the main chain. Two threshold formulas are provided:

* ``basic``  - transition probabilities assumed constant for the whole race,
  with the miner counting itself into the fork's power (the worst case in
  which no other miner accepts);
* ``general`` - caller supplies per-state success/failure probabilities taken
  from an explicit chain, for committed schedules where miners can predict
  recruitment.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

from .model import DUST

THRESHOLD_BISECTION_TOL = 1e-9
PERSUADABLE_MARGIN = 1e-15  # the persuadability bisection brackets (margin, lam - margin)


class RationalityError(ValueError):
    pass


class ChainChoice(enum.Enum):
    FORK = "fork"
    MAIN = "main"


@dataclass(frozen=True)
class BribeQuote:
    """Minimum bribe making the fork profitable for one miner at one state.

    ``min_bribe`` keeps its raw sign: negative means the fork is already
    profitable with no payment. ``None`` marks an unpersuadable state (the
    fork cannot win, so no finite bribe works). Clamping to dust happens only
    when a schedule is emitted.
    """

    state: int
    miner_id: str
    min_bribe: float | None
    formula: str  # "basic" | "general"

    @property
    def settled(self) -> float:
        """Schedule amount: one satoshi above the threshold, or dust."""
        if self.min_bribe is None:
            raise RationalityError(f"state {self.state}: no finite bribe persuades")
        return DUST if self.min_bribe <= 0 else self.min_bribe + DUST


def _check_basic_inputs(p_m: float, mu: float, lam: float) -> None:
    if mu <= 0:
        raise RationalityError("attacker power must be positive")
    if abs(mu + lam - 1.0) > 1e-9:
        raise RationalityError("fork and main powers must sum to 1")
    if not (0 < p_m < lam):
        raise RationalityError("miner power must be in (0, main-chain power)")


def basic_threshold(i: int, p_m: float, mu: float, lam: float, reward: float) -> float:
    """Raw constant-probability threshold value (may be negative)."""
    _check_basic_inputs(p_m, mu, lam)
    survive = 1.0 - (mu / lam) ** (i + 1)
    overtake = ((mu + p_m) / (lam - p_m)) ** (i + 1)
    return survive * (p_m + mu) / (lam * overtake) * reward - reward


def min_bribe_basic(
    i: int, p_m: float, mu: float, lam: float, reward: float, miner_id: str = "m"
) -> BribeQuote:
    """Minimum bribe at state i under constant transition probabilities."""
    return BribeQuote(i, miner_id, basic_threshold(i, p_m, mu, lam, reward), "basic")


def general_threshold(
    p_m: float, mu_i: float, lam_i: float, p_xs_i: float, p_yf_i: float, reward: float
) -> float:
    """Raw explicit-probability threshold value (may be negative); unchecked,
    and finite only for ``p_xs_i > 0``."""
    return p_yf_i * (p_m + mu_i) / (lam_i * p_xs_i) * reward - reward


def min_bribe_general(
    i: int,
    p_m: float,
    mu_i: float,
    lam_i: float,
    p_xs_i: float,
    p_yf_i: float,
    reward: float,
    miner_id: str = "m",
) -> BribeQuote:
    """Minimum bribe at state i given explicit per-state race probabilities.

    ``p_xs_i`` is the fork's win probability from i with the miner aboard;
    ``p_yf_i`` the main chain's win probability from i with the miner staying
    put. ``p_xs_i == 0`` marks the state unpersuadable.
    """
    for name, p in (("p_xs_i", p_xs_i), ("p_yf_i", p_yf_i)):
        if not (0.0 <= p <= 1.0):
            raise RationalityError(f"{name} must be a probability, got {p}")
    if p_xs_i == 0.0:
        return BribeQuote(i, miner_id, None, "general")
    value = general_threshold(p_m, mu_i, lam_i, p_xs_i, p_yf_i, reward)
    return BribeQuote(i, miner_id, value, "general")


def staying_condition(
    bribes: Sequence[float],
    p_m: float,
    p_xs: Sequence[float],
    p_yf: Sequence[float],
    fork_power_wo_m: Sequence[float],
    main_power: Sequence[float],
    reward: float,
) -> bool:
    """Aggregate profitability of following the fork across all states.

    Sums the miner's expected fork-side earnings (share of bribe plus block
    reward, conditioned on the fork winning) against its main-chain earnings
    over states 0..h-1. Necessary for the miner to stay aboard; per-state
    persuasion is still required for sufficiency.
    """
    n = len(bribes)
    if not (len(p_xs) == len(p_yf) == len(fork_power_wo_m) == len(main_power) == n):
        raise RationalityError("per-state vectors must have equal length")
    fork_side = sum(
        p_xs[i] * p_m / (fork_power_wo_m[i] + p_m) * (bribes[i] + reward) for i in range(n)
    )
    main_side = sum(p_yf[i] * p_m / main_power[i] * reward for i in range(n))
    return fork_side > main_side


def crb_min_constant(
    visits: Sequence[float], quotes: Sequence[float], current_state: int
) -> float:
    """Visit-weighted average of per-state minimum bribes from the current
    state down to the winning boundary; the least constant payment that keeps
    the whole remaining attack profitable in expectation."""
    if not (0 <= current_state < min(len(visits), len(quotes))):
        raise RationalityError("current_state out of range")
    idx = range(current_state + 1)
    total = sum(visits[i] for i in idx)
    if total <= 0:
        raise RationalityError("empty or unvisited summation range")
    return sum(visits[i] * quotes[i] for i in idx) / total


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


def choose_chain(
    i: int,
    offered_bribe: float,
    p_m: float,
    mu: float,
    lam: float,
    reward: float,
    p_xs_i: float | None = None,
    p_yf_i: float | None = None,
) -> ChainChoice:
    """Per-event decision rule: join the fork iff the offered bribe strictly
    exceeds the applicable threshold (basic by default, general when both
    per-state probabilities are supplied). Indifference stays on the main
    chain."""
    if (p_xs_i is None) != (p_yf_i is None):
        raise RationalityError("supply both p_xs_i and p_yf_i or neither")
    if p_xs_i is None:
        quote = min_bribe_basic(i, p_m, mu, lam, reward)
    else:
        quote = min_bribe_general(i, p_m, mu, lam, p_xs_i, p_yf_i, reward)
    if quote.min_bribe is None:
        return ChainChoice.MAIN
    if not math.isfinite(offered_bribe):
        raise RationalityError("offered bribe must be finite")
    return ChainChoice.FORK if offered_bribe > quote.min_bribe else ChainChoice.MAIN
