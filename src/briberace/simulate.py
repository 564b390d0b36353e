"""Independent Monte Carlo oracle for the fork race.

Simulates the race block by block: each event lands on the fork with the
probability given by the current state's fork power (miners re-apply their
chain choice at every event, which for state-indexed policies reduces to a
per-state lookup). Used to validate the absorbing-chain analysis and the
strategy outcomes: success probability, per-state visit counts, step counts
and both cost figures.

Trials run in fixed-size chunks (``CHUNK``). Draw order, which fixes every
report bit for a given seed: iteration k of chunk c draws one uniform per
trial still running, in ascending trial order, from
``Philox(SeedSequence(seed, spawn_key=(c,)))``; a trial steps toward state
0 when its uniform is below the fork power. Any loop that keeps this order
gives the same reports.

The loop draws raw 64-bit words (``Philox.random_raw``), not doubles.
numpy's Philox uniform is ``(raw >> 11) * 2**-53`` of the same word, one
word per uniform, so ``u < fork`` is ``(raw >> 11) < ceil(fork * 2**53)``
exactly (the product is exact and the left side an integer): the same
decision on the same draw order, taken against a per-state integer
threshold. The tests pin that numpy contract.

The loop holds only the running trials, compacted (ids ascending, their
states), so an event costs one draw and a few passes over the trials still
in the race rather than a gather and a scatter over the whole chunk; the
arrays shrink only where a trial absorbed. A trial ending at iteration k
took k + 1 steps, written once. Visit counts are state-major, one int32 row
per tracked state plus a spare row shared by every untracked state, one
column per trial; an event adds one (``np.add.at``) at
``offset[state] + trial``, with ``offset`` the precomputed flat start of
each state's row, so no per-trial row offsets are kept or compacted.

The counts are allocated once per call: one flat int32 buffer of
(n_track + 1) x min(CHUNK, trials), which each chunk views as a contiguous
(n_track + 1, n) array and zeroes in place. A chunk is aggregated along its
rows without copying them unless it discarded trials: visit sums and sums
of squares are exact int64 sums (a square overflows int32 past 46,340
visits), and each trial's cost is its int32 visit column dotted with the
bribes, ``visits.T @ bribe``. numpy casts the int32 operand to a float64
copy for that product, so a chunk whose column count is a multiple of
``COST_BLOCK`` (every full chunk) takes it over blocks of ``COST_BLOCK``
trials, one block of float64 scratch at a time. On every OpenBLAS kernel
tried, power-of-two blocks of a full chunk give the whole product's bits
(the tests hold them to it); the tail of an odd-sized chunk need not, so a
partial chunk takes the whole product.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

CHUNK = 1 << 16
COST_BLOCK = 1 << 12  # trials per float64 cost block; a power of two, as the cost bits need
_ONE = np.int32(1)  # add.at takes its fast path for a scalar of the counts' dtype


class SimulationError(ValueError):
    pass


@dataclass(frozen=True)
class SimConfig:
    trials: int
    seed: int = 0
    max_events: int | None = None  # default: 200 * number of states

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise SimulationError("trials must be >= 1")


@dataclass(frozen=True)
class RacePolicy:
    """State-indexed race description: per-state fork power and bribe."""

    fork_power: tuple[float, ...]
    bribe: tuple[float, ...]  # zero-padded to the same length
    start_state: int
    scheduled_states: int | None = None  # bribed region, 1..h states; default: whole chain

    @classmethod
    def from_outcome(cls, outcome) -> "RacePolicy":
        """An outcome's race: its fork powers, the core and then the
        unbribed tail, and its schedule's bribes, zero over the tail."""
        fork = outcome.fork_power
        bribes = list(outcome.schedule.per_state_bribe)
        bribes += [0.0] * (fork.size - len(bribes))
        return cls(tuple(fork.tolist()), tuple(bribes), outcome.start_state,
                   scheduled_states=outcome.schedule.h)


@dataclass(frozen=True)
class MetricEstimate:
    mean: float
    se: float


@dataclass(frozen=True)
class SimReport:
    trials: int
    seed: int
    empirical_success: MetricEstimate
    mean_steps: MetricEstimate
    visit_counts: tuple[MetricEstimate, ...]  # per state, bribed region only
    cost_unconditional: MetricEstimate
    cost_on_success: MetricEstimate | None  # None when no trial succeeded
    successes: int
    discarded: int  # trials that hit the event cap
    events: int  # steps summed over the kept trials
    longest: int  # most steps of any kept trial (0 when none was kept)


def _mk_estimate(total: float, total_sq: float, n: int) -> MetricEstimate:
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / max(n - 1, 1)
    return MetricEstimate(mean, math.sqrt(var / n))


def _thresholds(fork: np.ndarray) -> np.ndarray:
    """Per-state integer thresholds: ``(raw >> 11) < T`` iff the uniform
    ``(raw >> 11) * 2**-53`` is below the fork power. ``fork * 2**53`` is an
    exact product, and an integer is below it iff it is below its ceiling."""
    return np.ceil(fork * 2.0**53).astype(np.uint64)


def _trial_costs(visits: np.ndarray, bribe: np.ndarray) -> np.ndarray:
    """Each trial's cost, ``visits.T @ bribe`` on the int32 counts, taken
    over blocks of ``COST_BLOCK`` trials when they divide the columns."""
    m = visits.shape[1]
    if m % COST_BLOCK:
        return visits.T @ bribe
    cost = np.empty(m)
    for a in range(0, m, COST_BLOCK):
        cost[a:a + COST_BLOCK] = visits[:, a:a + COST_BLOCK].T @ bribe
    return cost


def simulate_race(policy: RacePolicy, config: SimConfig) -> SimReport:
    """Run independent race trials and aggregate outcome statistics.

    Per-state visits are tracked over the scheduled region, i.e. the states
    with a bribe entry.
    """
    h = len(policy.fork_power)
    if not (0 <= policy.start_state < h):
        raise SimulationError("start state outside the chain")
    if len(policy.bribe) != h:
        raise SimulationError("bribe vector must match the chain length")
    fork = np.asarray(policy.fork_power, dtype=float)
    bribe = np.asarray(policy.bribe, dtype=float)
    if not np.all((fork >= 0.0) & (fork <= 1.0)):  # NaN fails both
        raise SimulationError("fork powers must lie in [0, 1]")
    if not np.all(np.isfinite(bribe)):
        raise SimulationError("bribes must be finite")
    n_track = h if policy.scheduled_states is None else policy.scheduled_states
    if not (1 <= n_track <= h):
        raise SimulationError("scheduled states must number 1 to the chain length")
    if np.any(bribe[n_track:] != 0.0):
        raise SimulationError("bribes outside the tracked region would go uncounted")
    max_events = config.max_events if config.max_events is not None else 200 * h
    if max_events < h:
        raise SimulationError("max_events too small to traverse the chain")

    threshold = _thresholds(fork)
    row_of = np.minimum(np.arange(h), n_track)  # every untracked state shares the spare row
    start = policy.start_state

    succ = 0
    disc = 0
    events = longest = 0
    steps_sum = steps_sq = 0.0
    cost_sum = cost_sq = 0.0
    cost_succ_sum = cost_succ_sq = 0.0
    visit_sum = np.zeros(n_track)
    visit_sq = np.zeros(n_track)

    buffer = np.empty((n_track + 1) * min(CHUNK, config.trials), dtype=np.int32)
    done = 0
    chunk_idx = 0
    while done < config.trials:
        n = min(CHUNK, config.trials - done)
        bits = np.random.Philox(np.random.SeedSequence(entropy=config.seed, spawn_key=(chunk_idx,)))
        # visit counts state-major: row row_of[s], column the trial; flat is a
        # leading slice of the buffer, so counts is a contiguous view of it
        flat = buffer[:(n_track + 1) * n]
        flat.fill(0)
        counts = flat.reshape(n_track + 1, n)
        counts[row_of[start]] = 1
        offset = row_of * n
        steps = np.full(n, max_events, dtype=np.int64)  # a trial ending at iteration k took k + 1
        result = np.full(n, -1, dtype=np.int8)  # -1 running, 1 success, 0 failure

        # running trials only, compacted: trial ids ascending and their states
        active = np.arange(n)
        state = np.full(n, start, dtype=np.intp)
        for k in range(max_events):
            if active.size == 0:
                break
            raw = bits.random_raw(active.size)
            raw >>= 11
            down = raw < threshold[state]
            state += 1
            state -= down
            state -= down

            ended = state.view(np.uintp) >= h  # -1 wraps past h: one test for both ends
            if ended.any():
                ids = active[ended]
                result[ids] = state[ended] < 0
                steps[ids] = k + 1
                keep = np.flatnonzero(~ended)
                active = active[keep]
                state = state[keep]
            np.add.at(flat, offset[state] + active, _ONE)

        visits = counts[:n_track]
        dropped = int(np.count_nonzero(result == -1))
        disc += dropped
        if dropped:
            kept = result != -1
            visits, result, steps = visits[:, kept], result[kept], steps[kept]
        if dropped < n:
            cost = _trial_costs(visits, bribe[:n_track])
            won = result == 1
            succ += int(np.count_nonzero(won))
            events += int(steps.sum())
            longest = max(longest, int(steps.max()))
            steps_k = steps.astype(float)
            steps_sum += steps_k.sum()
            steps_sq += (steps_k**2).sum()
            cost_sum += cost.sum()
            cost_sq += (cost**2).sum()
            on_s = cost[won]
            cost_succ_sum += on_s.sum()
            cost_succ_sq += (on_s**2).sum()
            visit_sum += visits.sum(axis=1)
            visit_sq += np.einsum("ij,ij->i", visits, visits, dtype=np.int64)
        done += n
        chunk_idx += 1

    kept_total = config.trials - disc
    if kept_total == 0:
        raise SimulationError("all trials exceeded the event cap")
    p_hat = succ / kept_total
    # boundary-safe standard error: the plug-in estimate collapses to zero
    # when no (or every) trial succeeds, so widen it toward the adjusted
    # proportion (succ+2)/(n+4)
    p_adj = (succ + 2) / (kept_total + 4)
    se_succ = max(
        math.sqrt(p_hat * (1.0 - p_hat) / kept_total),
        math.sqrt(p_adj * (1.0 - p_adj) / kept_total) if succ in (0, kept_total) else 0.0,
    )
    return SimReport(
        trials=config.trials,
        seed=config.seed,
        empirical_success=MetricEstimate(p_hat, se_succ),
        mean_steps=_mk_estimate(steps_sum, steps_sq, kept_total),
        visit_counts=tuple(
            _mk_estimate(visit_sum[i], visit_sq[i], kept_total) for i in range(n_track)
        ),
        cost_unconditional=_mk_estimate(cost_sum, cost_sq, kept_total),
        cost_on_success=(
            _mk_estimate(cost_succ_sum, cost_succ_sq, succ) if succ > 0 else None
        ),
        successes=succ,
        discarded=disc,
        events=events,
        longest=longest,
    )


@dataclass(frozen=True)
class MetricComparison:
    name: str
    analytic: float
    empirical: float
    se: float
    z: float
    passed: bool


@dataclass(frozen=True)
class ComparisonReport:
    metrics: tuple[MetricComparison, ...]

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)


def compare_reports(outcome, report: SimReport, z: float = 3.0) -> ComparisonReport:
    """Flag every analytic metric farther than z standard errors from its
    Monte Carlo estimate."""
    if report.trials < 1:
        raise SimulationError("empty simulation report")

    rows: list[MetricComparison] = []

    def add(name: str, analytic: float, est: MetricEstimate) -> None:
        tol = max(z * est.se, 1e-9)
        delta = abs(analytic - est.mean)
        zscore = delta / est.se if est.se > 0 else (0.0 if delta <= 1e-9 else math.inf)
        rows.append(MetricComparison(name, analytic, est.mean, est.se, zscore, delta <= tol))

    add("success_prob", outcome.success_prob, report.empirical_success)
    add("expected_steps", outcome.expected_steps, report.mean_steps)
    for i, est in enumerate(report.visit_counts):
        add(f"visits[{i}]", float(outcome.visits[i]), est)
    add("cost_unconditional", outcome.cost_unconditional, report.cost_unconditional)
    if outcome.cost_on_success is not None and report.cost_on_success is not None:
        add("cost_on_success", outcome.cost_on_success, report.cost_on_success)
    return ComparisonReport(tuple(rows))
