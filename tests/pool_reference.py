"""Reference pool-file loader for the tests of
``briberace.model.load_pool_distribution``.

This is the loader as it was when the roster was a tuple of ``Miner``
records: it parses each line through a generator, builds, checks and sorts
one frozen ``Miner`` per main-chain line and checks the ``MinerSet`` it
makes of them. ``Miner`` and ``MinerSet`` are kept here in that form, so
the reference does not move when the model's roster does. On every pool
text, ``load_pool_distribution`` must give the same ids, the same powers
bit for bit, the same attacker and λ, or raise the same exception with the
same message. The one change since is the total of the powers, a
``math.fsum`` in both loaders, so that it does not depend on line order.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from briberace.model import POWER_SUM_TOLERANCE, PoolFileError


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
    """Main-chain miners in non-increasing power order, plus the attacker."""

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
    """Parse a pool file and build a renormalized MinerSet."""
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

    total = math.fsum(p for _, p in entries)
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
