"""Attacker bribing strategies and their evaluation.

Four strategy families are implemented over the gap chain:

* ``bs``   - bribe a single target miner with the per-state basic minimum;
* ``bff``  - recruit the next biggest miner at each state while keeping the
  previous, deeper-state catches (one bribe covers all of them, since bigger
  miners need less);
* ``crb1`` / ``crb2`` - a committed constant payment per state, sized so the
  whole remaining attack is profitable for the target in expectation;
* ``gvc``  - a committed per-state bribe vector; the commitment lets miners
  price in future recruitment, which collapses thresholds near the start.

Outcomes are computed from the attacker's view: bribes exist only at gap
states 0..C, and past C the fork is mined by the attacker alone on an
unbribed tail of up to 512 states (``markov.extend_fork_power``). Its wall
stands in for the open-ended race except near an attacker power of 0.5,
where it sets the numbers (see ``markov``). An outcome holds the chain's
fork powers, core then tail, as one read-only array per core
(``fork_power``); the engine builds no ``markov.AbsorbingChain``.

Who mines the fork at each bribed state has one form, a read-only boolean
``MembershipMatrix``; fork powers and recapture (``recapture_split``) read
it, and its ``memberships`` are an id view for reports.
``evaluate_schedule`` takes a matrix and several (schedule, start) pairs,
solves the matrix's core once for every start (``markov.solve_starts``) and
builds the outcomes (``_outcomes``). bs, bff and crb run as sweeps over
start states and block rewards (``sweep_bs``, ``sweep_bff``,
``sweep_crb``), whose cores depend on neither; ``run_bs``, ``run_bff`` and
``run_crb`` are sweeps of one start. A sweep prices every reward's
thresholds from one factor per state (``rationality.basic_thresholds``)
and refuses one that is not finite, naming the miner and state, before any
solve (``_payable``). crb prices its constant on the chain its outcomes run
on, so ``sweep_crb`` makes that one solve itself, from the pricing state
and the starts it prices: crb1 prices every start on one chain, crb2 each
start on its own chain, one row of a table of cores (``markov.solve_each``).
Each pricing state's membership, fork total and fork powers are rows of one
table of the target aboard. A sweep builds its outcomes in one
``_outcomes`` call, with the visit rows, success columns and bribe vectors
as the rows of arrays. The gvc thresholds, which make no outcome, solve
both their chains in one ``markov._solve_cores`` batch.

``optimize_gvc`` scores thousands of candidate schedules and keeps one float
per candidate, so it scores them from tables, not outcomes (``_Search``).
The first-pass membership at state i is ``recruit_thresholds[:, i] <=
entries[i]``, so everything the search reads at i depends on entry i alone,
through the number of miners it recruits there: the fork power
(``_fork_power``), whether the target is aboard, the fork power with the
target added (``_with_miner``) and with its row set. Each is tabulated once
per (count, state) through those helpers, and a candidate's first-pass,
perturbed and final cores are gathered from the tables. The target's
thresholds and membership are ``run_gvc``'s (``_commitment_thresholds``,
``_on_fork``) on arrays, and the score is ``visits @ bribes`` (ac) or the
success-conditioned sum (rac) of the final core.

The search's descents are independent, so they run in lockstep. Each is a
generator that yields its next ask: a batch of candidates to score, or a
target-level probe. A pass takes the candidates of every waiting ask as one
array, builds their cores, thresholds, feasibility and scores in a few
numpy operations, and answers each ask whose cores are all solved; those
descents go on to their next ask. When every live descent waits on cores
not solved yet, the round solves them as one batch of numpy columns
(``markov._solve_cores``: the elimination that ``solve_race`` runs on
Python floats, so the same bits). Each distinct core is solved once per
kind, from the search's start state, and only for what the search reads: a
first-pass core, never scored, for its success column alone, a perturbed or
final core in full, and a core that one round needs both ways in full. The
winner alone is evaluated into an outcome, by ``run_gvc``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Sequence

import numpy as np

from . import markov, rationality
from .model import DUST, Scenario, checked_reward

# Keep at least this much main-chain share at every state so the chain stays
# strictly inside (0, 1) when a schedule recruits the entire roster.
MIN_MAIN_SHARE = 1e-12

GVC_QUANTUM = 0.01  # BTC grid for optimized schedules
GVC_MAX_SWEEPS = 24  # coordinate-descent cap; sweeps reach their fixed point in a handful
GVC_RESTARTS = 32  # random seeds added to the structured seed portfolio by default

STRATEGY_TAGS = ("BS", "BFF", "CRB1", "CRB2", "GVC_AC", "GVC_RAC")


class StrategyError(ValueError):
    pass


@dataclass(frozen=True)
class BribeSchedule:
    """Per-state bribe totals, indexed by gap state (entry 0 belongs to the
    state where the next fork block wins the race). Entries are finite and
    >= 0; dust stands in for "no payment needed"."""

    per_state_bribe: tuple[float, ...]
    committed: bool
    strategy_tag: str

    def __post_init__(self) -> None:
        entries = self.per_state_bribe
        if not (all(map(math.isfinite, entries)) and min(entries, default=0.0) >= 0.0):
            raise StrategyError("schedule entries must be finite and nonnegative")
        if self.strategy_tag not in STRATEGY_TAGS:
            raise StrategyError(f"unknown strategy tag {self.strategy_tag!r}")

    @property
    def h(self) -> int:
        return len(self.per_state_bribe)


@dataclass(frozen=True, eq=False)
class MembershipMatrix:
    """Read-only boolean matrix of miner-by-state fork membership: one row
    per roster miner, in roster order (descending power), one column per
    bribed state. A boolean input is frozen as it is, any other checked 0/1."""

    miner_ids: tuple[str, ...]
    zeta: np.ndarray

    def __post_init__(self) -> None:
        z = np.asarray(self.zeta)
        if z.ndim != 2 or z.shape[0] != len(self.miner_ids):
            raise StrategyError("membership needs one row per roster miner")
        if z.dtype != bool and not ((z == 0) | (z == 1)).all():
            raise StrategyError("membership entries must be 0/1")
        z = z.astype(bool, copy=False)
        z.flags.writeable = False
        object.__setattr__(self, "zeta", z)

    def fork_power(self, powers: np.ndarray, mu: float) -> np.ndarray:
        """Per-state fork power: the attacker plus every recruit, capped."""
        return _fork_power(self.zeta, powers, mu)

    @cached_property
    def memberships(self) -> tuple[tuple[str, ...], ...]:
        """Id view: the recruited miners per state, in roster order."""
        return tuple(
            tuple(self.miner_ids[r] for r in np.flatnonzero(col)) for col in self.zeta.T
        )


def _joined_power(zeta: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Recruited power per state of a boolean (or 0/1) miner-by-state matrix,
    summed left to right in roster order (an accumulation, so the rounding
    never depends on memory layout)."""
    if not zeta.shape[0]:
        return np.zeros(zeta.shape[1])
    return np.cumsum(zeta * powers[:, None], axis=0)[-1]


def _fork_power(zeta: np.ndarray, powers: np.ndarray, mu: float) -> np.ndarray:
    return _capped(mu + _joined_power(zeta, powers))


def _capped(fork_total: np.ndarray) -> np.ndarray:
    """Fork power from the attacker's plus the recruits' power, capped."""
    return np.minimum(fork_total, 1.0 - MIN_MAIN_SHARE)


@dataclass(frozen=True, eq=False)
class StrategyOutcome:
    """Everything the attacker needs to judge a schedule."""

    strategy_tag: str
    start_state: int
    success_prob: float          # absorption into the success state from the start
    success_prob_basic: float    # constant-power catch-up view from the start
    expected_steps: float
    visits: np.ndarray           # expected visits per state, row at the start state
    cost_unconditional: float
    cost_on_success: float | None  # None when success is unreachable
    single_visit_cost: float
    attacker_recapture: float
    target_recapture: float
    schedule: BribeSchedule
    fork_power: np.ndarray       # read-only: the core's fork powers, then the unbribed tail
    membership: MembershipMatrix  # who mines the fork, per bribed state

    @property
    def memberships(self) -> tuple[tuple[str, ...], ...]:
        return self.membership.memberships


# ---------------------------------------------------------------------------
# chain assembly helpers

def _resolve_start(scenario: Scenario, start_state: int | None) -> int:
    start = scenario.d0 if start_state is None else start_state
    if not (0 <= start <= scenario.confirmations):
        raise StrategyError(
            f"start state must be in [0, {scenario.confirmations}], got {start}"
        )
    return start


def _target_only(scenario: Scenario, states: Sequence[int]) -> MembershipMatrix:
    """The target alone aboard at the given states."""
    ms = scenario.miner_set
    zeta = np.zeros((len(ms.ids), scenario.confirmations + 1), dtype=bool)
    zeta[ms.row(scenario.target_id), list(states)] = True
    return MembershipMatrix(ms.ids, zeta)


def evaluate_schedule(
    scenario: Scenario,
    membership: MembershipMatrix,
    runs: Sequence[tuple[BribeSchedule, int | None]],
) -> list[StrategyOutcome]:
    """Expected costs, success probability and recapture of each (schedule,
    start) of ``runs``, run with the given fork membership: one row per
    roster miner, one column per scheduled state. The chain is the
    membership's fork powers followed by the unbribed tail, solved once for
    every start (``markov.solve_starts``)."""
    starts = [_resolve_start(scenario, start) for _, start in runs]
    ms, mu = scenario.miner_set, scenario.mu
    if membership.miner_ids != ms.ids or any(
            schedule.h != membership.zeta.shape[1] for schedule, _ in runs):
        raise StrategyError("membership needs one row per roster miner, one column per state")
    fork_total = mu + _joined_power(membership.zeta, ms.powers)
    core = _capped(fork_total)
    solutions = markov.solve_starts(core, mu, starts)
    fork_power = markov.extend_fork_power(core, mu)
    fork_power.flags.writeable = False
    return _outcomes(scenario, [(membership, fork_total.tolist(), fork_power)], [
        (schedule, start, solution, 0)
        for (schedule, _), start, solution in zip(runs, starts, solutions)])


def _outcomes(
    scenario: Scenario,
    chains: Sequence[tuple[MembershipMatrix, list[float], np.ndarray]],
    runs: Sequence[tuple[BribeSchedule, int, markov.RaceSolution, int]],
) -> list[StrategyOutcome]:
    """The outcome of each (schedule, start, solution, chain) of ``runs``:
    ``chains[chain]`` is a membership, the attacker's plus the recruits'
    power at each of its states (the fork total) and its read-only fork
    powers, core (the capped fork total, ``_capped``) then tail, and the
    solution solves that chain from the start. Cost and success come from
    the solution, recapture from the membership; the schedules share one
    length. The visit rows, success columns and bribe vectors are the rows
    of three arrays, which give every success-weighted and single-visit
    cost at once; the unconditional cost is one ``visits @ bribes`` dot per
    row, whose bits a batched product need not keep. The runs of one
    schedule and chain share its recapture."""
    if not runs:
        return []
    ms, mu, catchup = scenario.miner_set, scenario.mu, markov.catchup_prob
    row = ms.row(scenario.target_id)
    p_t = float(ms.powers[row])
    n = runs[0][0].h
    visits, columns, entries, success, divisors = [], [], [], [], []
    for schedule, start, solution, _ in runs:
        visits.append(solution.visits)
        columns.append(solution.success)
        entries.append(schedule.per_state_bribe)
        s = float(solution.success[start])
        success.append(s)
        # a row whose success is 0 has no success-weighted cost: divide by 1
        divisors.append(s if s > 0.0 else 1.0)
    visits = np.array(visits)
    bribes = np.zeros_like(visits)
    bribes[:, :n] = entries
    weighted = np.array(columns)
    weighted /= np.array(divisors)[:, None]
    weighted *= visits
    weighted *= bribes
    on_success = weighted.sum(axis=1).tolist()
    single_visit = bribes[:, :n].sum(axis=1).tolist()
    recaptures: dict[tuple[int, int], tuple[float, float]] = {}  # by schedule id and chain
    outcomes = []
    for (schedule, start, solution, ch), paid, s, cost_s, single in zip(
            runs, bribes, success, on_success, single_visit):
        membership, fork_total, fork_power = chains[ch]
        key = (id(schedule), ch)  # every schedule lives in ``runs``
        if key not in recaptures:
            recaptures[key] = _recapture(schedule.per_state_bribe, mu, p_t, fork_total,
                                         membership.zeta[row].tolist())
        mu_eff = float(fork_power[start])
        outcomes.append(StrategyOutcome(
            schedule.strategy_tag, start, s, catchup(mu_eff, 1.0 - mu_eff, start),
            solution.steps, solution.visits, float(solution.visits @ paid),
            cost_s if s > 0.0 else None, single, *recaptures[key], schedule, fork_power,
            membership))
    return outcomes


def recapture_split(
    spend_per_state: Sequence[float],
    mu: float,
    target_id: str,
    powers: np.ndarray,
    membership: MembershipMatrix,
) -> tuple[float, float]:
    """Split bribe money won back by mining on the fork.

    At each state the spend is recaptured proportionally to fork power, the
    attacker taking mu and each miner aboard its own share (``powers`` in
    the membership's roster order); the function returns the attacker's and
    the target's aggregate shares.
    """
    if target_id not in membership.miner_ids:
        raise StrategyError(f"target {target_id!r} is not in the membership's roster")
    r = membership.miner_ids.index(target_id)
    fork_total = mu + _joined_power(membership.zeta, powers)
    return _recapture(spend_per_state, mu, float(powers[r]), fork_total.tolist(),
                      membership.zeta[r].tolist())


def _recapture(spend_per_state, mu: float, p_t: float, fork_total: list[float],
               on_fork: list[int]) -> tuple[float, float]:
    """``recapture_split`` of a target of power ``p_t``, from the fork's
    uncapped total power and the target's membership, state by state."""
    attacker = target = 0.0
    for spend, total, aboard in zip(spend_per_state, fork_total, on_fork):
        attacker += spend * mu / total
        if aboard:
            target += spend * p_t / total
    return attacker, target


# ---------------------------------------------------------------------------
# sweeps
#
# bs, bff and crb run as sweeps over start states and block rewards, the
# axes of the paper's figures. A sweep returns its outcomes reward by reward
# (the scenario's own reward alone without ``rewards``) and, within a
# reward, start by start in the order given, duplicates included. Neither
# membership nor fork powers depend on the start or the reward, so one solve
# of a core serves every start and reward that shares it (one per sweep for
# bs, bff and crb1; crb2 prices each start on its own chain, and solves them
# together). ``run_bs``, ``run_bff`` and ``run_crb`` are sweeps of one start.

def _payable(thresholds: list[float], miners: Sequence[str]) -> list[float]:
    """The basic thresholds of ``miners[i]`` at each state i, refused where
    one is not finite: no bribe can be paid there (the miner's odds of
    overtaking underflow at deep states, and a huge reward overflows the
    formula)."""
    if not all(map(math.isfinite, thresholds)):
        i = [math.isfinite(t) for t in thresholds].index(False)
        raise StrategyError(
            f"miner {miners[i]!r} has no finite threshold at state {i} ({thresholds[i]}), "
            "so no bribe persuades it there: lower --confirmations or --reward")
    return thresholds


def _sweep_rewards(scenario: Scenario, rewards: Sequence[float] | None) -> list[float]:
    """The scenario's own reward without ``rewards``, else each of them,
    refused as ``make_scenario`` refuses it."""
    return [scenario.reward] if rewards is None else list(map(checked_reward, rewards))


def _sweep(
    scenario: Scenario,
    membership: MembershipMatrix,
    paid: Sequence[int],
    tag: str,
    starts: Sequence[int | None],
    rewards: Sequence[float] | None,
) -> list[StrategyOutcome]:
    """The sweep of a strategy whose membership is fixed and which pays at
    each state i the settled basic threshold of the miner in roster row
    ``paid[i]``."""
    starts = [_resolve_start(scenario, start) for start in starts]
    rewards = _sweep_rewards(scenario, rewards)
    ms = scenario.miner_set
    powers, ids = ms.powers[paid].tolist(), [ms.ids[r] for r in paid]
    schedules = [
        BribeSchedule(tuple(map(rationality.settled_bribe, _payable(thresholds, ids))), False, tag)
        for thresholds in rationality.basic_thresholds(powers, scenario.mu, scenario.lam, rewards)
    ]
    return evaluate_schedule(
        scenario, membership, [(schedule, start) for schedule in schedules for start in starts])


# ---------------------------------------------------------------------------
# single-target and biggest-first strategies

def run_bs(scenario: Scenario, start_state: int | None = None) -> StrategyOutcome:
    """Bribe only the target, state by state, at its basic minimum."""
    return sweep_bs(scenario, [start_state])[0]


def sweep_bs(
    scenario: Scenario, starts: Sequence[int | None], rewards: Sequence[float] | None = None
) -> list[StrategyOutcome]:
    """``run_bs`` at every reward and start, from one solve."""
    states = range(scenario.confirmations + 1)
    row = scenario.miner_set.row(scenario.target_id)
    return _sweep(scenario, _target_only(scenario, states), [row] * len(states),
                  "BS", starts, rewards)

def bff_membership(scenario: Scenario) -> MembershipMatrix:
    """Fork membership per state: at gap state i the top C-i+1 miners are
    aboard (the newest catch leaves again on every upward transition, so
    membership is a pure function of the state)."""
    ids = scenario.miner_set.ids
    c = scenario.confirmations
    zeta = np.arange(len(ids))[:, None] <= c - np.arange(c + 1)
    return MembershipMatrix(ids, zeta)


def run_bff(scenario: Scenario, start_state: int | None = None) -> StrategyOutcome:
    """Biggest-fish-first with retention of deeper-state catches.

    The bribe at state i is the basic minimum of the newest (smallest)
    recruit; by power monotonicity it covers every bigger miner already
    aboard.
    """
    return sweep_bff(scenario, [start_state])[0]


def sweep_bff(
    scenario: Scenario, starts: Sequence[int | None], rewards: Sequence[float] | None = None
) -> list[StrategyOutcome]:
    """``run_bff`` at every reward and start, from one solve: each state
    pays its newest recruit's threshold."""
    last, c = len(scenario.miner_set.ids) - 1, scenario.confirmations
    newest = [min(c - i, last) for i in range(c + 1)]
    return _sweep(scenario, bff_membership(scenario), newest, "BFF", starts, rewards)


# ---------------------------------------------------------------------------
# constant-rate bribing

def run_crb(
    scenario: Scenario,
    variant: str,
    start_state: int | None = None,
) -> StrategyOutcome:
    """Committed constant payment per state.

    ``crb1`` sizes the constant from the confirmation depth regardless of the
    start; ``crb2`` sizes it from the start state and pays nothing above it.
    The constant is the visit-weighted average of the target's per-state
    minima, with visits taken from the chain the target itself will induce by
    accepting. Other miners stay on the main chain.
    """
    return sweep_crb(scenario, variant, [start_state])[0]


def sweep_crb(
    scenario: Scenario,
    variant: str,
    starts: Sequence[int | None],
    rewards: Sequence[float] | None = None,
) -> list[StrategyOutcome]:
    """``run_crb`` at every reward and start. The chain that prices the
    constant is the one the outcome runs on, so one solve of it, from the
    pricing state and the starts it prices, gives both: crb1 prices every
    start from C, crb2 each start from itself. A pricing state's chain has
    the target aboard up to it and the attacker alone above it, so its
    membership, fork total and fork powers are rows of one table each, and
    crb2 solves each start on its row of the cores (``markov.solve_each``)."""
    if variant not in ("crb1", "crb2"):
        raise StrategyError(f"variant must be crb1 or crb2, got {variant!r}")
    starts = [_resolve_start(scenario, start) for start in starts]
    rewards = _sweep_rewards(scenario, rewards)
    c, mu, lam, ms = scenario.confirmations, scenario.mu, scenario.lam, scenario.miner_set
    p_t = float(ms.powers[ms.row(scenario.target_id)])
    targets = [scenario.target_id] * (c + 1)
    quotes = [_payable(thresholds, targets) for thresholds in
              rationality.basic_thresholds([p_t] * (c + 1), mu, lam, rewards)]
    distinct = list(dict.fromkeys(starts))
    if not distinct:
        return []
    pricing, groups = ([c], [distinct]) if variant == "crb1" else (distinct, [[s] for s in distinct])
    # the target aboard at every state up to each pricing state, a row
    # each; above it nobody is recruited, and an empty column's joined
    # power is 0.0, so the fork total there is mu + 0.0 = mu
    states = np.arange(c + 1)
    aboard = _target_only(scenario, states)
    on = states <= np.array(pricing)[:, None]
    fork_total = np.where(on, mu + _joined_power(aboard.zeta, ms.powers), mu)
    fork_power = np.concatenate(
        [_capped(fork_total), np.full((len(pricing), markov.tail_depth(mu)), mu)], axis=1)
    fork_power.flags.writeable = False
    cores = fork_power[:, : c + 1]
    if variant == "crb1":
        pricings = markov.solve_starts(cores[0], mu, [c, *distinct])
        solutions = pricings[1:]
    else:
        pricings = solutions = markov.solve_each(cores, mu, distinct)
    solution_of = dict(zip(distinct, solutions))
    chains = list(zip(map(MembershipMatrix, repeat(aboard.miner_ids), aboard.zeta & on[:, None, :]),
                      fork_total.tolist(), fork_power))
    tag, runs, keys = variant.upper(), [], []
    for k, reward_quotes in enumerate(quotes):
        for ch, (calc_from, priced, group) in enumerate(zip(pricing, pricings, groups)):
            visits = priced.visits[: calc_from + 1].tolist()  # the same sums, on Python floats
            constant = rationality.crb_min_constant(visits, reward_quotes, calc_from)
            entries = (max(constant, DUST),) * (calc_from + 1) + (0.0,) * (c - calc_from)
            schedule = BribeSchedule(entries, True, tag)
            for start in group:
                runs.append((schedule, start, solution_of[start], ch))
                keys.append((k, start))
    outcomes = dict(zip(keys, _outcomes(scenario, chains, runs)))
    return [outcomes[k, start] for k in range(len(rewards)) for start in starts]


# ---------------------------------------------------------------------------
# committed variable-rate bribing

def gvc_new_markov(scenario: Scenario, schedule: BribeSchedule) -> MembershipMatrix:
    """First pass over a committed schedule: at each state, every miner whose
    power reaches the persuadability floor joins (read off the scenario's
    recruit threshold table)."""
    if not schedule.committed:
        raise StrategyError("recruitment projection requires a committed schedule")
    if schedule.h != scenario.confirmations + 1:
        raise StrategyError("a committed schedule has one entry per state 0..C")
    zeta = scenario.recruit_thresholds <= np.asarray(schedule.per_state_bribe)
    return MembershipMatrix(scenario.miner_set.ids, zeta)


def _with_miner(fork_power: np.ndarray, aboard: np.ndarray, power: float) -> np.ndarray:
    """The core with a miner of ``power`` added at every state it is not aboard."""
    return np.where(aboard, fork_power, _capped(fork_power + power))


def _commitment_thresholds(
    fork_power: np.ndarray,
    aboard: np.ndarray,
    power: float,
    base_success: np.ndarray,
    pert_success: np.ndarray,
    reward: float,
) -> np.ndarray:
    """Per-state threshold of a miner of ``power`` under a commitment: its
    failure odds off the fork (``base_success``, the projected chain) against
    its win odds aboard (``pert_success``, the chain ``_with_miner``), by
    ``rationality.general_threshold`` on arrays of one shape. Infinite where
    aboard it cannot win; NaN (no threshold) where it is aboard already."""
    with np.errstate(all="ignore"):
        t = rationality.general_threshold(
            power, fork_power, 1.0 - fork_power, pert_success, 1.0 - base_success, reward)
    t[pert_success <= 0.0] = np.inf
    t[aboard] = np.nan
    return t


def _on_fork(entries: np.ndarray, aboard: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """Whether the miner mines the fork at each state: aboard already, or
    its entry reaches its commitment threshold (``_commitment_thresholds``)."""
    return aboard | (entries >= thresholds)


def gvc_member_thresholds(
    scenario: Scenario, recruit: MembershipMatrix, miner_id: str
) -> np.ndarray:
    """Commitment-aware membership thresholds for one miner, per state, under
    the first-pass membership ``recruit`` (``gvc_new_markov``).

    Failure odds come from the projected chain without the miner; win odds
    from the same chain with the miner added at every state it has not
    already joined. NaN marks states where the miner is already recruited
    (``_commitment_thresholds``).
    """
    ms, mu = scenario.miner_set, scenario.mu
    r = ms.row(miner_id)
    p_m = float(ms.powers[r])
    aboard = recruit.zeta[r]
    core = recruit.fork_power(ms.powers, mu)
    # both chains in one batch, flagged full so that each takes the checks
    # of solve_race, its visit row's included
    success, _ = markov._solve_cores([core, _with_miner(core, aboard, p_m)], mu, 0, [True, True])
    base_bv, pert_bv = success[:, : core.size]
    return _commitment_thresholds(core, aboard, p_m, base_bv, pert_bv, scenario.reward)


def run_gvc(
    scenario: Scenario,
    schedule: BribeSchedule | Sequence[float],
    start_state: int | None = None,
) -> StrategyOutcome:
    """Evaluate a committed per-state bribe vector.

    Recruitment is projected for the whole roster, then membership is refined
    for the target only, by the search's rule (``_on_fork``): the strategy
    aims at one miner, and everyone else is counted exactly where the first
    pass already recruits them.
    """
    if not isinstance(schedule, BribeSchedule):
        schedule = BribeSchedule(tuple(float(b) for b in schedule), True, "GVC_AC")
    start = _resolve_start(scenario, start_state)
    recruit = gvc_new_markov(scenario, schedule)
    thresholds = gvc_member_thresholds(scenario, recruit, scenario.target_id)
    zeta = recruit.zeta.copy()
    r = scenario.miner_set.row(scenario.target_id)
    zeta[r] = _on_fork(np.asarray(schedule.per_state_bribe), zeta[r], thresholds)
    membership = MembershipMatrix(scenario.miner_set.ids, zeta)
    return evaluate_schedule(scenario, membership, [(schedule, start)])[0]


def _grid_above(value: float) -> float:
    """A schedule amount on the 0.01 BTC grid at least ``value`` and at most
    one step above it (``DUST`` for ``value <= 0``). The float floor of
    ``value / 0.01`` picks the step, so a grid amount may come back as
    itself (0.29) or one step up (0.07 gives 0.08). A value whose step
    count is not finite (near the float range, from a huge reward) has no
    grid amount and is refused."""
    if value <= 0:
        return DUST
    steps = value / GVC_QUANTUM
    if not math.isfinite(steps):
        raise StrategyError(f"a bribe of {value!r} BTC has no step count on the "
                            f"{GVC_QUANTUM} BTC grid: lower --reward")
    return round((int(np.floor(steps)) + 1) * GVC_QUANTUM, 10)


def _keys(cores: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D float array: the search's key of a
    core (fork powers are never -0.0 or NaN, so equal bytes are equal
    cores)."""
    cores = np.ascontiguousarray(cores)
    return cores.view(np.dtype((np.void, cores.itemsize * cores.shape[1]))).ravel().tolist()


class _Search:
    """One optimize_gvc search: it scores candidates as ``run_gvc`` scores
    them from the search's start state (module docstring).

    The search's descents run in lockstep (``lockstep``). Each is a
    generator that asks for the scores of a batch of candidates
    (``scores``) or for a target level (``target_level``). Each pass
    (``answer``) takes the candidates of every waiting ask as one array: it
    gathers their cores from the state tables (``columns``), computes the
    target's thresholds and feasibility, and scores the feasible candidates
    of every ask whose cores are all solved. When every live descent waits
    on cores not solved yet, the round solves them as one batch
    (``markov._solve_cores``). The search keeps, by core, a row of the
    success column over the core of every core it has solved, and a row of
    the score weights of every core it has solved in full (the candidates
    share most of their projected chains)."""

    def __init__(self, scenario: Scenario, objective: str, start: int):
        ms = scenario.miner_set
        self.recruit = scenario.recruit_thresholds
        self.mu = scenario.mu
        self.reward = scenario.reward
        self.row = ms.row(scenario.target_id)
        self.power = float(ms.powers[self.row])
        self.start = start
        self.ac = objective == "ac"
        # an entry recruits, at its state, the miners whose recruit threshold
        # it reaches; their count c picks the membership, the c lowest
        # thresholds. So each state's columns are built once per count
        # through the helpers: tables, by (c, state), of the first-pass fork
        # power, the target aboard, the fork power with the target added
        # (_with_miner) and with its row set.
        n = scenario.confirmations + 1
        cuts = np.vstack([np.full(n, -np.inf), np.sort(self.recruit, axis=0)])
        zeta = (self.recruit[:, None, :] <= cuts).reshape(len(ms.ids), -1)
        fork = _fork_power(zeta, ms.powers, self.mu)
        aboard = zeta[self.row].copy()
        pert = _with_miner(fork, aboard, self.power)
        zeta[self.row] = True
        final = _fork_power(zeta, ms.powers, self.mu)
        self.tables = tuple(x.reshape(cuts.shape) for x in (fork, aboard, pert, final))
        # by core key, its row of ``success``: every core solved
        self.solved: dict[bytes, int] = {}
        self.success = _Rows(n)
        # by key of a core solved in full, its row of ``weights``: the
        # visits (ac) or the success-conditioned visits (rac) that the score
        # weighs the bribes by; -1 where rac's success is 0
        self.scorable: dict[bytes, int] = {}
        self.weights = _Rows(n + markov.tail_depth(self.mu))

    def scores(self, batch: list[tuple[float, ...]]):
        """The objective of each candidate, or None for a candidate that
        leaves the target off the fork at some state (or, for rac, never
        succeeds)."""
        return (yield batch, None)

    def target_level(self, entries: tuple[float, ...], j: int):
        """The target's commitment-aware threshold at j with entry j
        withdrawn (otherwise the first pass hides it); None when the first
        pass recruits the target at j anyway."""
        return (yield [entries[:j] + (DUST,) + entries[j + 1 :]], j)

    def lockstep(self, tasks: list) -> list:
        """Run generators in lockstep and return their results in order. A
        task yields its asks (``scores``, ``target_level``) and returns its
        result. Passes answer every ask whose cores are solved until each
        live task waits on cores that are not; the round then solves them as
        one batch: in full where any ask needs the core in full, else for
        its success column alone."""
        results = [None] * len(tasks)
        asks: dict[int, tuple] = {}

        def resume(k: int, answer) -> None:
            try:
                asks[k] = tasks[k].send(answer)
            except StopIteration as done:
                results[k] = done.value
                asks.pop(k, None)

        for k in range(len(tasks)):
            resume(k, None)
        while asks:
            needs: dict[bytes, bool] = {}
            ready = list(asks)
            while ready:
                answers = self.answer([asks[k] for k in ready], needs)
                for a, answer in answers.items():
                    resume(ready[a], answer)
                ready = [ready[a] for a in answers if ready[a] in asks]
            if needs:
                self.solve(list(needs), list(needs.values()))
        return results

    def solve(self, keys: list[bytes], full: list[bool]) -> None:
        """Solve one round's new cores together and keep what the search
        reads of them."""
        n = self.success.data.shape[1]
        cores = np.frombuffer(b"".join(keys)).reshape(len(keys), n)
        success, visits = markov._solve_cores(cores, self.mu, self.start, full)
        self.solved.update(zip(keys, self.success.extend(success[:, :n]).tolist()))
        rows = np.flatnonzero(full)
        success, visits = success[rows], visits[rows]
        if self.ac:
            at = self.weights.extend(visits)
        else:
            at_start = success[:, self.start]
            wins = at_start > 0.0
            at = np.full(rows.size, -1)
            at[wins] = self.weights.extend(success[wins] / at_start[wins, None] * visits[wins])
        self.scorable.update(zip([keys[k] for k in rows.tolist()], at.tolist()))

    def columns(self, entries: np.ndarray) -> tuple[np.ndarray, ...]:
        """Per candidate (row of ``entries``) and state: the first-pass fork
        power, whether the target is aboard, the fork power with the target
        added (``_with_miner``) and with the target's row set, read from the
        state tables."""
        n = entries.shape[1]
        index = (self.recruit[:, None, :] <= entries).sum(axis=0) * n + np.arange(n)
        return tuple(table.take(index) for table in self.tables)

    def answer(self, asks: list[tuple], needs: dict[bytes, bool]) -> dict:
        """One pass over the candidates of every ask, as arrays. Returns the
        answers, by position, of the asks whose cores are all solved, and
        adds to ``needs`` the unsolved cores of the others: the first-pass
        cores for their success column, the perturbed cores and, once
        those are solved, the feasible candidates' final cores in full."""
        sizes = [len(batch) for batch, _ in asks]
        ask = np.repeat(np.arange(len(asks)), sizes)
        # each distinct candidate once: ``of`` maps the asks' rows to them
        where: dict[tuple[float, ...], int] = {}
        of = [where.setdefault(e, len(where)) for batch, _ in asks for e in batch]
        n = self.tables[0].shape[1]
        entries = np.fromiter(chain.from_iterable(where), float, len(where) * n).reshape(-1, n)
        fork, aboard, pert, final = self.columns(entries)
        # the first-pass cores are read for their success column, the
        # perturbed ones are solved in full
        solved, scorable = self.solved, self.scorable
        forks, perts = _keys(fork), _keys(pert)
        at_fork = np.array([solved.get(k, -1) for k in forks])
        at_pert = np.array([solved[k] if k in scorable else -1 for k in perts])
        for k, at in zip(forks, at_fork.tolist()):
            if at < 0:
                needs.setdefault(k, False)
        for k, at in zip(perts, at_pert.tolist()):
            if at < 0:
                needs[k] = True
        of = np.array(of)
        waits = np.zeros(len(asks), dtype=bool)
        waits[ask[((at_fork < 0) | (at_pert < 0))[of]]] = True
        if waits.all():
            return {}
        # every candidate's thresholds; one whose cores are not solved reads
        # the first row instead, and its ask is not answered
        thresholds = _commitment_thresholds(
            fork, aboard, self.power, self.success.data[np.maximum(at_fork, 0)],
            self.success.data[np.maximum(at_pert, 0)], self.reward)
        feasible = _on_fork(entries, aboard, thresholds).all(axis=1)
        # the feasible candidates of the score asks need their final cores
        scoring = ~waits[ask] & np.array([j is None for _, j in asks])[ask]
        wanted = np.zeros(len(where), dtype=bool)
        wanted[of[scoring]] = True
        rows = np.flatnonzero(wanted & feasible)
        finals = _keys(final[rows])
        at_final = np.array([scorable.get(k, -2) for k in finals], dtype=int)
        missing = np.zeros(len(where), dtype=bool)
        for k, at, r in zip(finals, at_final.tolist(), rows.tolist()):
            if at == -2:
                needs[k] = missing[r] = True
        waits[ask[scoring & missing[of]]] = True
        # one dot product per row, as run_gvc's: an ``@`` of each weights
        # row and its bribes (ac), or the sum of their product (rac)
        take = at_final >= 0
        weights = self.weights.data[at_final[take]]
        bribes = np.zeros_like(weights)
        bribes[:, :n] = entries[rows[take]]
        values = (np.matmul(weights[:, None, :], bribes[:, :, None])[:, 0, 0] if self.ac
                  else (weights * bribes).sum(axis=1))
        results: list[float | None] = [None] * len(where)
        for r, v in zip(rows[take].tolist(), values.tolist()):
            results[r] = v
        answers, lo, of = {}, 0, of.tolist()
        for a, ((batch, j), size, wait) in enumerate(zip(asks, sizes, waits.tolist())):
            if not wait:
                answers[a] = ([results[r] for r in of[lo : lo + size]] if j is None
                              else None if aboard[of[lo], j] else float(thresholds[of[lo], j]))
            lo += size
        return answers


class _Rows:
    """Rows appended in blocks to one array, whose storage doubles when
    full, so that the search gathers them with one index."""

    def __init__(self, width: int):
        self.data = np.empty((256, width))
        self.size = 0

    def extend(self, rows: np.ndarray) -> np.ndarray:
        """Append ``rows``; returns their indices."""
        start, self.size = self.size, self.size + len(rows)
        if self.size > len(self.data):
            data = np.empty((max(self.size, 2 * len(self.data)), self.data.shape[1]))
            data[:start] = self.data[:start]
            self.data = data
        self.data[start : self.size] = rows
        return np.arange(start, self.size)


def optimize_gvc(
    scenario: Scenario,
    objective: str = "ac",
    start_state: int | None = None,
    restarts: int = GVC_RESTARTS,
    seed: int = 0,
) -> tuple[BribeSchedule, StrategyOutcome]:
    """Search for the cheapest committed schedule that keeps the target on the
    fork at every scheduled state (so it stays aboard through any backslide).

    ``objective`` is ``ac`` (expected cost regardless of outcome) or ``rac``
    (expected cost conditioned on success). Coordinate descent over per-state
    recruitment levels, to a fixed point, from a portfolio of seeds with
    seeded random restarts. The descents are independent, so they run in
    lockstep (``_Search.lockstep``): each asks for its next target-level
    probe or the scores of its next coordinate scan, each pass answers the
    asks of every waiting descent as one array, and each round solves the
    cores they wait on as one batch. Each descent keeps its own candidate
    order, tie-breaking and improvement rule. Candidates are scored by
    ``_Search``; the winner is evaluated by ``run_gvc``.
    """
    if objective not in ("ac", "rac"):
        raise StrategyError(f"objective must be 'ac' or 'rac', got {objective!r}")
    start = _resolve_start(scenario, start_state)
    tag = "GVC_AC" if objective == "ac" else "GVC_RAC"
    c = scenario.confirmations
    target_row = scenario.miner_set.row(scenario.target_id)
    thresholds = scenario.thresholds.tolist()
    for miner_id, row in zip(scenario.miner_set.ids, thresholds):
        _payable(row, (miner_id,) * len(row))

    target_minima = [rationality.settled_bribe(t) for t in thresholds[target_row]]
    # static recruitment levels: one candidate per roster prefix, per state
    static_candidates: list[list[float]] = []
    for i in range(c + 1):
        levels = {DUST, _grid_above(target_minima[i])}
        levels.update(_grid_above(row[i]) for row in thresholds)
        static_candidates.append(sorted(levels))

    search = _Search(scenario, objective, start)
    cache: dict[tuple[float, ...], float | None] = {}

    def feasible_and_scores(batch: list[tuple[float, ...]]):
        new = [entries for entries in dict.fromkeys(batch) if entries not in cache]
        if new:
            cache.update(zip(new, (yield from search.scores(new))))
        return [cache[entries] for entries in batch]

    def candidates_for(j: int, entries: tuple[float, ...]):
        cands = list(static_candidates[j])
        t = yield from search.target_level(entries, j)
        if t is not None and np.isfinite(t):
            cands.append(_grid_above(t))
        return sorted(set(cands))

    def descend(entries: tuple[float, ...]):
        score, = yield from feasible_and_scores([entries])
        if score is None:
            return None
        for _ in range(GVC_MAX_SWEEPS):
            improved = False
            # deep states carry the big entries; relax them first, and take
            # the best candidate per coordinate, not the first improvement
            for j in range(c, -1, -1):
                trials = [
                    entries[:j] + (cand,) + entries[j + 1 :]
                    for cand in (yield from candidates_for(j, entries))
                    if cand != entries[j]
                ]
                best_move = None
                for res, trial in zip((yield from feasible_and_scores(trials)), trials):
                    if res is not None and res < score - 1e-12:
                        if best_move is None or res < best_move[0]:
                            best_move = (res, trial)
                if best_move is not None:
                    score, entries = best_move
                    improved = True
            if not improved:
                break
        return score, entries

    def complete_suffix(entries: tuple[float, ...], split: int):
        # replace entries past the split with commitment-minimal levels, in
        # one upward pass: each level feeds the thresholds of the next
        entries = entries[: split + 1] + tuple(DUST for _ in range(split + 1, c + 1))
        for j in range(split + 1, c + 1):
            t = yield from search.target_level(entries, j)
            level = DUST if t is None or t <= 0 else _grid_above(t)
            entries = entries[:j] + (level,) + entries[j + 1 :]
        return entries

    def descend_completed(entries: tuple[float, ...], split: int):
        return (yield from descend((yield from complete_suffix(entries, split))))

    # seed portfolio: single-target minima, roster-prefix recruitment levels
    # (uniform, and completed with commitment-minimal entries past a split
    # state; the cheap schedules concentrate spend below the start and ride
    # the commitment effect above it), plus seeded random combinations
    descents = [descend(tuple(target_minima))]
    splits = sorted({max(start - 1, 0), start, min(start + 1, c)})
    for row in thresholds:
        entries = tuple(_grid_above(t) for t in row)
        descents.append(descend(entries))
        descents.extend(descend_completed(entries, split) for split in splits)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        entries = tuple(
            float(rng.choice(static_candidates[j])) for j in range(c + 1)
        )
        descents.append(descend(entries))

    results = [res for res in search.lockstep(descents) if res is not None]
    if not results:
        raise StrategyError("no feasible schedule persuades the target up to the start state")
    # the cheapest, ties to the smallest entries
    best = run_gvc(scenario, BribeSchedule(min(results)[1], True, tag), start)
    return best.schedule, best
