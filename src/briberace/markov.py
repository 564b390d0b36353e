"""Absorbing chain over the fork-length gap.

Transient states are gap values 0..h-1. From state i the next block lands on
the fork with probability ``fork_power[i]`` (moving to i-1, or into the
success state V when i = 0) and on the main chain otherwise (moving to i+1,
or into the failure state W when i = h-1).

h is configurable: h = C+1 models a race abandoned once the gap exceeds the
confirmation depth, while a deeper wall approximates the open-ended race in
which the attacker keeps mining alone beyond the bribed region.

Two solvers read the same chain. ``analyze`` is the dense reference: it
builds the canonical form and inverts I - Q with an LU solve, giving the
whole fundamental matrix. ``solve_race`` is the hot path: I - Q is
tridiagonal, so Thomas sweeps give in O(h) the three things strategy
evaluation reads, namely the success column of B, the start row of N and
the expected step count from the start (Kemeny & Snell, *Finite Markov
Chains*, for the identities). Both apply the same residual and row-sum
tolerances; the tests pin the second to the first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SOLVER_RESIDUAL_TOL = 1e-8
ROW_SUM_TOL = 1e-6

# Bounds for the unbribed tail appended by extend_fork_power.
TAIL_MIN = 16
TAIL_MAX = 512
TAIL_MASS = 1e-12


class ChainError(ValueError):
    """Raised for structurally invalid chains (degenerate or singular)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).copy()
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """Gap-indexed birth-death chain with success/failure absorption."""

    fork_power: np.ndarray  # per-state probability of the next block extending the fork

    def __post_init__(self) -> None:
        object.__setattr__(self, "fork_power", _frozen(self.fork_power))
        if self.fork_power.ndim != 1 or self.fork_power.size < 1:
            raise ChainError("fork_power must be a non-empty vector")
        if not np.all((self.fork_power > 0.0) & (self.fork_power < 1.0)):
            raise ChainError("fork power must lie strictly inside (0, 1) at every state")

    @property
    def h(self) -> int:
        return self.fork_power.size

    @property
    def main_power(self) -> np.ndarray:
        return 1.0 - self.fork_power


@dataclass(frozen=True, eq=False)
class CanonicalForm:
    """Transient-to-transient block Q and transient-to-absorbing block G.

    G columns are ordered (success, failure).
    """

    Q: np.ndarray
    G: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "Q", _frozen(self.Q))
        object.__setattr__(self, "G", _frozen(self.G))
        rows = np.hstack([self.Q, self.G]).sum(axis=1)
        if np.max(np.abs(rows - 1.0)) > 1e-9:
            raise ChainError("canonical form rows must sum to 1")


@dataclass(frozen=True, eq=False)
class AbsorptionAnalysis:
    """Fundamental matrix N, expected step counts e, absorption probabilities B."""

    N: np.ndarray
    e: np.ndarray
    B: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "N", _frozen(self.N))
        object.__setattr__(self, "e", _frozen(self.e))
        object.__setattr__(self, "B", _frozen(self.B))


@dataclass(frozen=True, eq=False)
class RaceSolution:
    """What strategy evaluation reads of an absorption analysis from one start
    state: B[:, 0], N[start, :] and e[start]."""

    success: np.ndarray  # absorption into the success state, from every state
    visits: np.ndarray  # expected visits per state, from the start state
    steps: float  # expected steps to absorption, from the start state


def build_base_chain(scenario, per_state_fork_power=None) -> AbsorbingChain:
    """Build the race chain for a scenario.

    ``per_state_fork_power`` parameterizes the per-state fork share (length
    may exceed C+1 to model states beyond the bribed region); omitted, it
    defaults to the attacker mining alone at every state 0..C.
    """
    if per_state_fork_power is None:
        per_state_fork_power = np.full(scenario.confirmations + 1, scenario.mu)
    return AbsorbingChain(np.asarray(per_state_fork_power, dtype=float))


def extend_fork_power(core: np.ndarray, mu: float, depth: int | None = None) -> np.ndarray:
    """Append unbribed tail states (attacker mining alone) past the core region.

    The default depth makes the truncated tail mass below TAIL_MASS, so the
    finite wall is numerically indistinguishable from an open-ended race.
    """
    if depth is None:
        rho = mu / (1.0 - mu)
        if rho >= 1.0:
            depth = TAIL_MAX
        else:
            depth = int(min(TAIL_MAX, max(TAIL_MIN, math.ceil(math.log(TAIL_MASS) / math.log(rho)))))
    return np.concatenate([np.asarray(core, dtype=float), np.full(depth, mu)])


def canonical_form(chain: AbsorbingChain) -> CanonicalForm:
    h = chain.h
    Q = np.zeros((h, h))
    G = np.zeros((h, 2))
    for i in range(h):
        down, up = chain.fork_power[i], 1.0 - chain.fork_power[i]
        if i == 0:
            G[i, 0] = down
        else:
            Q[i, i - 1] = down
        if i == h - 1:
            G[i, 1] = up
        else:
            Q[i, i + 1] = up
    return CanonicalForm(Q, G)


def fundamental_matrix(cf: CanonicalForm) -> np.ndarray:
    """Expected visit counts N = (I - Q)^{-1} via a dense LU solve."""
    h = cf.Q.shape[0]
    eye = np.eye(h)
    try:
        N = np.linalg.solve(eye - cf.Q, eye)
    except np.linalg.LinAlgError as exc:
        raise ChainError("transient block is singular; chain is not absorbing") from exc
    residual = np.max(np.abs((eye - cf.Q) @ N - eye))
    if residual >= SOLVER_RESIDUAL_TOL:
        raise ChainError(f"solve residual {residual:.3e} exceeds {SOLVER_RESIDUAL_TOL}")
    return N


def expected_steps(N: np.ndarray) -> np.ndarray:
    return N @ np.ones(N.shape[0])


def absorption_probs(N: np.ndarray, G: np.ndarray) -> np.ndarray:
    B = N @ G
    if np.max(np.abs(B.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise ChainError("absorption probabilities must sum to 1 per start state")
    return B


def analyze(chain: AbsorbingChain) -> AbsorptionAnalysis:
    """Full absorption analysis of a chain."""
    cf = canonical_form(chain)
    N = fundamental_matrix(cf)
    return AbsorptionAnalysis(N, expected_steps(N), absorption_probs(N, cf.G))


def solve_race(chain: AbsorbingChain, start: int) -> RaceSolution:
    """Success column, start row of N and e[start] by tridiagonal sweeps.

    I - Q has 1 on the diagonal, p_i below it and q_i above it, both
    negated (p the fork power, q = 1 - p). Its transpose shares the
    elimination pivots, so one forward pass serves the sweep for the success
    and failure columns of B (right-hand sides p_0 e_0 and q_{h-1} e_{h-1})
    and the sweep for the start row of N, which solves (I - Q)^T x = e_start.
    Scalar floats throughout: at the chain lengths used here a Python loop
    beats numpy's per-call overhead.
    """
    p = chain.fork_power.tolist()
    h = len(p)
    if not (0 <= start < h):
        raise ChainError(f"start state must be in [0, {h - 1}], got {start}")
    q = [1.0 - x for x in p]

    # forward elimination
    piv = [1.0]
    up = [q[0]]  # q_i / pivot_i: eliminated super-diagonal of I - Q
    win = [p[0]]  # reduced right-hand side of the success column
    u, w = q[0], p[0]
    for pi, qi in zip(p[1:], q[1:]):
        d = 1.0 - pi * u
        u = qi / d
        w = pi * w / d
        piv.append(d)
        up.append(u)
        win.append(w)
    down = [pn / d for pn, d in zip(p[1:], piv)]  # p_{i+1} / pivot_i: of (I - Q)^T
    row = [0.0] * h
    x = row[start] = 1.0 / piv[start]
    for i in range(start + 1, h):
        x = row[i] = q[i - 1] * x / piv[i]

    # back substitution; the failure column is a running product of up
    lose = up[:]
    for i in range(h - 2, -1, -1):
        win[i] += up[i] * win[i + 1]
        lose[i] *= lose[i + 1]
        row[i] += down[i] * row[i + 1]

    # O(h) residuals of the three solves, and the row sums of B
    below, above = [0.0] + p[1:], q[:-1] + [0.0]  # Q[i, i-1] and Q[i, i+1]
    res = [
        y - b * y_lo - a * y_hi
        for col in (win, lose)
        for y, b, a, y_lo, y_hi in zip(col, below, above, [0.0] + col[:-1], col[1:] + [0.0])
    ]
    res[0] -= p[0]
    res[-1] -= q[-1]
    res += [
        y - b * y_lo - a * y_hi
        for y, b, a, y_lo, y_hi in zip(row, [0.0] + q[:-1], p[1:] + [0.0],
                                       [0.0] + row[:-1], row[1:] + [0.0])
    ]
    res[2 * h + start] -= 1.0
    residual = max(max(res), -min(res))
    if not residual < SOLVER_RESIDUAL_TOL:
        raise ChainError(f"solve residual {residual:.3e} exceeds {SOLVER_RESIDUAL_TOL}")
    sums = [b + f for b, f in zip(win, lose)]
    if not max(max(sums) - 1.0, 1.0 - min(sums)) <= ROW_SUM_TOL:
        raise ChainError("absorption probabilities must sum to 1 per start state")
    success, visits = np.array(win), np.array(row)
    success.flags.writeable = visits.flags.writeable = False
    return RaceSolution(success, visits, math.fsum(row))


def catchup_prob(mu_eff: float, lambda_eff: float, i: int) -> float:
    """Probability that the fork ever closes a deficit of i+1 blocks when the
    per-block odds stay fixed at mu_eff vs lambda_eff (open-ended race)."""
    if mu_eff <= 0 or lambda_eff < 0:
        raise ValueError("powers must be positive")
    if mu_eff >= lambda_eff:
        return 1.0
    return (mu_eff / lambda_eff) ** (i + 1)
