"""Reference Monte Carlo loop for the bit-for-bit tests of the simulator.

This is the loop ``briberace.simulate.simulate_race`` ran before it drew
raw Philox words against integer thresholds and kept its visit counts
state-major: it draws doubles with ``Generator.random`` and compares them
with the fork powers, keeps a (trial x state) count table and aggregates
the kept rows through copies. Its draw order is the one the module
docstring of ``briberace.simulate`` fixes, so both must give equal reports
on every policy the simulator accepts. It reads ``CHUNK`` from this module,
so a test can shrink the chunks of both loops together.
"""
from __future__ import annotations

import math

import numpy as np

from briberace.simulate import (
    CHUNK,
    MetricEstimate,
    RacePolicy,
    SimConfig,
    SimReport,
    SimulationError,
    _mk_estimate,
)


def simulate_race(policy: RacePolicy, config: SimConfig) -> SimReport:
    """The event loop and aggregation of ``briberace.simulate.simulate_race``
    before it drew raw words and counted visits state-major."""
    h = len(policy.fork_power)
    if not (0 <= policy.start_state < h):
        raise SimulationError("start state outside the chain")
    if len(policy.bribe) != h:
        raise SimulationError("bribe vector must match the chain length")
    fork = np.asarray(policy.fork_power)
    bribe = np.asarray(policy.bribe)
    n_track = h if policy.scheduled_states is None else policy.scheduled_states
    if not (1 <= n_track <= h):
        raise SimulationError("scheduled states must number 1 to the chain length")
    if np.any(bribe[n_track:] != 0.0):
        raise SimulationError("bribes outside the tracked region would go uncounted")
    max_events = config.max_events if config.max_events is not None else 200 * h
    if max_events < h:
        raise SimulationError("max_events too small to traverse the chain")

    succ = 0
    disc = 0
    events = longest = 0
    steps_sum = steps_sq = 0.0
    cost_sum = cost_sq = 0.0
    cost_succ_sum = cost_succ_sq = 0.0
    visit_sum = np.zeros(n_track)
    visit_sq = np.zeros(n_track)

    done = 0
    chunk_idx = 0
    while done < config.trials:
        n = min(CHUNK, config.trials - done)
        rng = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=config.seed, spawn_key=(chunk_idx,)))
        )
        # per-trial visit counts, one spare column for every state past the
        # tracked region; flat cells of distinct running trials never collide
        width = n_track + 1
        counts = np.zeros((n, width), dtype=np.int32)
        counts[:, min(policy.start_state, n_track)] = 1
        flat = counts.reshape(-1)
        steps = np.full(n, max_events, dtype=np.int64)  # a trial ending at iteration k took k + 1
        result = np.full(n, -1, dtype=np.int8)  # -1 running, 1 success, 0 failure

        # running trials only, compacted: trial ids ascending, their states
        # and the flat offsets of their count rows
        active = np.arange(n)
        state = np.full(n, policy.start_state, dtype=np.int64)
        row = active * width
        for k in range(max_events):
            if active.size == 0:
                break
            down = rng.random(active.size) < fork[state]
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
                row = row[keep]
            flat[row + np.minimum(state, n_track)] += 1
        visits = counts[:, :n_track]

        discarded = result == -1
        kept = ~discarded
        disc += int(discarded.sum())
        nk = int(kept.sum())
        if nk:
            k_visits = visits[kept]
            k_state = result[kept]
            cost = k_visits @ bribe[:n_track]
            succ += int((k_state == 1).sum())
            k_steps = steps[kept]
            events += int(k_steps.sum())
            longest = max(longest, int(k_steps.max()))
            steps_k = k_steps.astype(float)
            steps_sum += steps_k.sum()
            steps_sq += (steps_k**2).sum()
            cost_sum += cost.sum()
            cost_sq += (cost**2).sum()
            on_s = cost[k_state == 1]
            cost_succ_sum += on_s.sum()
            cost_succ_sq += (on_s**2).sum()
            visit_sum += k_visits.sum(axis=0)
            visit_sq += (k_visits.astype(float) ** 2).sum(axis=0)
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
