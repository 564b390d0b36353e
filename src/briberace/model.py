"""Domain model: miners, pool power distributions, and attack scenarios.

All types are immutable after construction; the functions here are pure.
Powers are fractions of total network hash power and are renormalized on
load so that attacker power plus main-chain power equals one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# One satoshi, the nominal nonzero bribe used where no payment is needed.
DUST = 1e-8

# Pool files whose powers deviate from 1 by more than this are rejected as
# malformed rather than silently renormalized.
POWER_SUM_TOLERANCE = 0.05


class PoolFileError(ValueError):
    """Raised when a pool distribution file cannot be parsed or is inconsistent."""


class ScenarioError(ValueError):
    """Raised when scenario parameters violate the model's constraints."""


@dataclass(frozen=True)
class Miner:
    """A main-chain miner with a fixed share of the network hash power."""

    id: str
    power: float

    def __post_init__(self) -> None:
        if not (0.0 < self.power <= 1.0):
            raise PoolFileError(f"miner {self.id!r}: power must be in (0, 1], got {self.power}")


@dataclass(frozen=True)
class MinerSet:
    """Main-chain miners in non-increasing power order, plus the attacker.

    ``attacker_power + lam == 1`` within 1e-9 after renormalization.
    Ties in power are broken by id so "next biggest miner" is deterministic.
    """

    miners: tuple[Miner, ...]
    attacker_id: str
    attacker_power: float
    lam: float

    def __post_init__(self) -> None:
        if abs(self.attacker_power + self.lam - 1.0) > 1e-9:
            raise PoolFileError("attacker power and main-chain power must sum to 1")
        powers = [m.power for m in self.miners]
        if any(powers[i] < powers[i + 1] for i in range(len(powers) - 1)):
            raise PoolFileError("miners must be sorted by non-increasing power")

    def miner(self, miner_id: str) -> Miner:
        return self.miners[self.row(miner_id)]

    def row(self, miner_id: str) -> int:
        """Position of a miner in the roster."""
        try:
            return self.ids.index(miner_id)
        except ValueError:
            raise ScenarioError(f"unknown miner id {miner_id!r}") from None

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(m.id for m in self.miners)

    @cached_property
    def powers(self) -> np.ndarray:
        """Roster powers in roster order, built once (read-only)."""
        powers = np.array([m.power for m in self.miners], dtype=float)
        powers.flags.writeable = False
        return powers


@dataclass(frozen=True)
class Scenario:
    """One attack instance against a seller transaction.

    ``d0 = confirmations - premined + 1`` is the fork's starting length
    deficit; the race is over when the deficit reaches -1 (success) or the
    fork is abandoned.
    """

    miner_set: MinerSet
    target_id: str
    confirmations: int
    premined: int
    reward: float
    d0: int

    @property
    def mu(self) -> float:
        return self.miner_set.attacker_power

    @property
    def lam(self) -> float:
        return self.miner_set.lam

    @property
    def target(self) -> Miner:
        return self.miner_set.miner(self.target_id)

    def at_reward(self, reward: float) -> Scenario:
        """This scenario at another block reward, checked as ``make_scenario``
        checks it."""
        return make_scenario(
            self.miner_set, self.target_id, self.confirmations, self.premined, reward
        )

    @cached_property
    def thresholds(self) -> np.ndarray:
        """Basic-formula threshold T[miner, state] of every roster miner at
        every bribed state 0..C, rows in roster order, built once (read-only)."""
        return self._threshold_table(snapped=False)

    @cached_property
    def recruit_thresholds(self) -> np.ndarray:
        """The threshold table at each miner's power snapped down to the
        persuadability bisection's grid: a bribe b recruits the miner at state
        i iff ``recruit_thresholds[miner, i] <= b``, which is exactly
        ``power >= persuadable_threshold(i, b, ...)``, knife edges included."""
        return self._threshold_table(snapped=True)

    def _threshold_table(self, snapped: bool) -> np.ndarray:
        from . import rationality  # rationality reads DUST from this module

        powers = [m.power for m in self.miner_set.miners]
        if snapped:
            powers = [rationality.persuadable_grid_floor(p, self.lam) for p in powers]
        states = range(self.confirmations + 1)
        table = np.array(
            [[rationality.basic_threshold(i, p, self.mu, self.lam, self.reward) for i in states]
             for p in powers],
            dtype=float,
        ).reshape(len(powers), len(states))
        table.flags.writeable = False
        return table


def _parse_pool_lines(raw: str):
    for lineno, line in enumerate(raw.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) not in (2, 3):
            raise PoolFileError(f"line {lineno}: expected 'id power [attacker]', got {line!r}")
        ident, power_text = parts[0], parts[1]
        if len(parts) == 3 and parts[2].lower() != "attacker":
            raise PoolFileError(f"line {lineno}: unknown flag {parts[2]!r}")
        try:
            power = float(power_text)
        except ValueError as exc:
            raise PoolFileError(f"line {lineno}: bad power {power_text!r}") from exc
        yield lineno, ident, power, len(parts) == 3


def load_pool_distribution(raw: str, attacker_id: str | None = None) -> MinerSet:
    """Parse a pool file and build a renormalized MinerSet.

    The file is line oriented: ``id power`` records, ``#`` comments, and
    exactly one record flagged ``attacker`` (or an explicit ``attacker_id``
    override). Powers are proportionally renormalized to sum to 1; inputs
    off by more than POWER_SUM_TOLERANCE are rejected.
    """
    entries: list[tuple[str, float]] = []
    seen: set[str] = set()
    flagged: str | None = None
    for lineno, ident, power, is_attacker in _parse_pool_lines(raw):
        if ident in seen:
            raise PoolFileError(f"line {lineno}: duplicate id {ident!r}")
        seen.add(ident)
        if not math.isfinite(power):
            raise PoolFileError(f"line {lineno}: non-finite power for {ident!r}")
        if power <= 0:
            raise PoolFileError(f"line {lineno}: nonpositive power for {ident!r}")
        if is_attacker:
            if flagged is not None:
                raise PoolFileError(f"line {lineno}: second attacker flag on {ident!r}")
            flagged = ident
        entries.append((ident, power))

    if attacker_id is not None:
        if attacker_id not in seen:
            raise PoolFileError(f"designated attacker {attacker_id!r} not in file")
        flagged = attacker_id
    if flagged is None:
        raise PoolFileError("no attacker entry designated")
    if len(entries) < 2:
        raise PoolFileError("need at least one main-chain miner besides the attacker")

    total = sum(p for _, p in entries)
    if abs(total - 1.0) > POWER_SUM_TOLERANCE:
        raise PoolFileError(f"powers sum to {total:.6f}, more than 5% away from 1")

    scale = 1.0 / total
    attacker_power = 0.0
    miners = []
    for ident, power in entries:
        if ident == flagged:
            attacker_power = power * scale
        else:
            miners.append(Miner(ident, power * scale))
    miners.sort(key=lambda m: (-m.power, m.id))
    lam = sum(m.power for m in miners)
    return MinerSet(tuple(miners), flagged, attacker_power, lam)


def make_scenario(
    miner_set: MinerSet,
    target_id: str,
    confirmations: int,
    premined: int,
    reward: float,
) -> Scenario:
    """Validate parameters and derive the starting gap state."""
    if confirmations < 1:
        raise ScenarioError(f"confirmations must be >= 1, got {confirmations}")
    if not (1 <= premined <= confirmations):
        raise ScenarioError(
            f"premined blocks must be in [1, {confirmations}], got {premined}"
        )
    if not (math.isfinite(reward) and reward > 0):
        raise ScenarioError(f"block reward must be positive and finite, got {reward}")
    if target_id == miner_set.attacker_id:
        raise ScenarioError("target must not be the attacker")
    miner_set.miner(target_id)  # raises on unknown id
    d0 = confirmations - premined + 1
    return Scenario(miner_set, target_id, confirmations, premined, reward, d0)
