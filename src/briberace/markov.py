"""Absorbing chain over the fork-length gap.

Transient states are gap values 0..h-1. From state i the next block lands on
the fork with probability ``fork_power[i]`` (moving to i-1, or into the
success state V when i = 0) and on the main chain otherwise (moving to i+1,
or into the failure state W when i = h-1).

A race chain is the bribed states' fork powers followed by the unbribed
tail that ``extend_fork_power`` appends: a deeper wall of states where the
attacker mines alone. That wall stands in for the open-ended race's success
probabilities only away from an attacker power of 0.5. Below about 0.486 a
walk that hits it would have come back to win with probability under
TAIL_MASS; above about 0.514 a walk hits it with probability under 1e-12.
Near 0.5 the wall sets the numbers: at 0.5, with C = 2, the attacker alone
reports from state 2 a success of 1 - 3/516 = 0.99419 and 3 * 513 = 1,539
expected steps, where the open-ended race wins surely in unbounded expected
time. Expected step counts are the wall's at every power up to 0.5, since
the open-ended race then has no finite mean duration.

Two solvers read the same chain. ``analyze`` is the dense reference, one
function: it builds I - Q and the absorbing block from an
``AbsorbingChain``'s fork powers and solves for the whole fundamental
matrix by LU; only its callers build an ``AbsorbingChain``. ``solve_race``
is the hot path: it reads the chain as its bribed core and the attacker's
power, and builds no chain. I - Q is tridiagonal, so Thomas sweeps give in
O(h) the three things strategy evaluation reads, namely the success column
of B, the start row of N and the expected step count from the start (Kemeny
& Snell, *Finite Markov Chains*, for the identities). Both apply the same
residual and row-sum tolerances; the tests pin the second to the first.

One elimination (``_eliminate``, checked by ``_columns``) serves one core
and many, and one start or many: each start then costs one ``_visit_row``,
its row of N, from the same pivots. Its per-state values are Python floats
for one core (``solve_starts``, whose one-start case is ``solve_race``, and
``solve_each``, one core per start: at the core lengths used here a Python
loop beats numpy's per-call overhead)
or numpy columns, an element per core, for a batch (the private
``_solve_cores``, which the gvc search calls once per round with hundreds
of cores). A start sweep or a reward sweep of bs, bff or crb1 solves its
one core once: every start of it shares the elimination. Every step is the
same IEEE operation either way, so a core gets the same bits in a batch as
alone. Each core takes the same checks either way: its input, both
residuals of B, its run's scaled residuals, its row sums and, where its
visit row is solved, that row's residual. A batch solves the visit row only
of the cores it is asked to solve in full; the others get the success
column alone, and so are refused only where that column is: below the top
of a valley the walk almost never leaves (N ~ 1e10), the success column
checks out to about 1e-16 while the start row's residual trips.

The body sweeps state by state only up to the start state and the chain's
last change of fork power, the start's trim point; starts with one trim
point share their elimination, so their rows are the bits each would get
alone. The trailing run of equal powers above both (the attacker alone: 22
of the 29 states of a table2 chain, 512 of about 515 on a deep roster) is
solved on its own and kept in a small bounded cache (RUN_CACHE_SIZE
entries) keyed by the run's exact power and length. An entry holds the
chance g that a walk entering the run at its bottom comes back down, the
run's visit profile and step count from its bottom, its exit-down (success)
profile, and the largest residuals of its three solves and of its row sums.
The core's last row absorbs the run (diagonal 1 - q g, failure right-hand
side q (1 - g)), and the run's part of each result is a boundary value of
the core times a cached profile. The checks still cover every state: the
core's residuals are taken against the run's first values, and at each run
state the full chain's residuals are the run's own scaled by those boundary
values, so the cached maxima, scaled, bound them; the run's row sums are
bounded the same way.

A run's last diagonal is exactly 1, so the forward half of its solve (the
pivots, the reduced success right-hand side and the visit row's forward
half from the bottom) is the same at every length. It is kept per power
(``_forward``, also RUN_CACHE_SIZE entries) and extended on demand, so a
run of a new length costs its three back substitutions on Python floats
and its residual and row-sum maxima as array operations. These are the
IEEE operations of the state-by-state solve, so the bits are its bits (the
tests hold ``_run`` to that solve, kept in ``tests/run_reference.py``).

A crb2 start sweep prices and runs each start s on its own chain: the
target's power up to s and the attacker alone above it. ``solve_each``
solves a table of such cores, one per start, each through ``solve_race``'s
own path: it sweeps states 0..s and folds in a run of h - s - 1 states, a
run of another length per start.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby

import numpy as np

SOLVER_RESIDUAL_TOL = 1e-8
ROW_SUM_TOL = 1e-6

# Bounds for the unbribed tail appended by extend_fork_power.
TAIL_MIN = 16
TAIL_MAX = 512
TAIL_MASS = 1e-12

# Attacker-only runs kept solved by solve_race, by (fork power, length), and
# the forward sweeps they are read from, by fork power: each cache holds at
# most this many entries.
RUN_CACHE_SIZE = 64


class ChainError(ValueError):
    """Raised for structurally invalid chains (degenerate or singular)."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float).copy()
    a.flags.writeable = False
    return a


def _check_fork_power(fork_power: np.ndarray) -> None:
    if fork_power.ndim != 1 or fork_power.size < 1:
        raise ChainError("fork_power must be a non-empty vector")
    if not (fork_power.min() > 0.0 and fork_power.max() < 1.0):  # False on NaN
        raise ChainError("fork power must lie strictly inside (0, 1) at every state")


@dataclass(frozen=True, eq=False)
class AbsorbingChain:
    """Gap-indexed birth-death chain with success/failure absorption."""

    fork_power: np.ndarray  # per-state probability of the next block extending the fork

    def __post_init__(self) -> None:
        object.__setattr__(self, "fork_power", _frozen(self.fork_power))
        _check_fork_power(self.fork_power)

    @property
    def h(self) -> int:
        return self.fork_power.size


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


def extend_fork_power(core: np.ndarray, mu: float) -> np.ndarray:
    """Append unbribed tail states (attacker mining alone) past the core region.

    The tail is ``tail_depth(mu)`` states deep, which keeps the truncated
    tail mass (mu / (1 - mu))^depth below TAIL_MASS where TAIL_MAX states
    suffice, for mu below about 0.486. Above that the tail is TAIL_MAX
    states deep, and near mu = 0.5 the wall sets the success probability
    and the expected steps (module docstring).
    """
    return np.concatenate([np.asarray(core, dtype=float), np.full(tail_depth(mu), mu)])


@lru_cache(maxsize=RUN_CACHE_SIZE)
def tail_depth(mu: float) -> int:
    """The unbribed tail's depth at attacker power ``mu`` (kept per ``mu``)."""
    rho = mu / (1.0 - mu)
    if rho >= 1.0:
        return TAIL_MAX
    return int(min(TAIL_MAX, max(TAIL_MIN, math.ceil(math.log(TAIL_MASS) / math.log(rho)))))


def analyze(chain: AbsorbingChain) -> AbsorptionAnalysis:
    """The dense reference: N = (I - Q)^{-1} by an LU solve, e = N 1 and
    B = N G, G's columns being (success, failure). Refuses a singular I - Q,
    a solve residual of SOLVER_RESIDUAL_TOL or more, and a row of B that
    misses 1 by more than ROW_SUM_TOL."""
    p = chain.fork_power
    eye = np.eye(chain.h)
    transient = eye - (np.diag(1.0 - p[:-1], 1) + np.diag(p[1:], -1))
    G = np.zeros((chain.h, 2))
    G[0, 0], G[-1, 1] = p[0], 1.0 - p[-1]
    try:
        N = np.linalg.solve(transient, eye)
    except np.linalg.LinAlgError as exc:
        raise ChainError("transient block is singular; chain is not absorbing") from exc
    residual = np.max(np.abs(transient @ N - eye))
    if residual >= SOLVER_RESIDUAL_TOL:
        raise ChainError(f"solve residual {residual:.3e} exceeds {SOLVER_RESIDUAL_TOL}")
    B = N @ G
    if np.max(np.abs(B.sum(axis=1) - 1.0)) > ROW_SUM_TOL:
        raise ChainError("absorption probabilities must sum to 1 per start state")
    return AbsorptionAnalysis(N, N @ np.ones(chain.h), B)


@dataclass(frozen=True, eq=False)
class _Run:
    """A run of states at one fork power solved on its own: entered at its
    bottom state, left downward from there or upward (failure) from its top."""

    power: float
    success: np.ndarray  # s_j: leaves downward, from run state j
    visits: np.ndarray  # v_j: expected visits to run state j, entered at the bottom
    steps: float  # sum of v
    g: float  # s_0: a walk that enters the run comes back down
    lose0: float  # l_0: a walk that enters the run fails
    residuals: tuple[float, float, float]  # largest |residual| of s, l and v
    row_sum_error: float  # largest |s_j + l_j - 1|


def _largest(values: list[float]) -> float:
    """The largest of nonnegative Python floats, NaN where any is NaN."""
    total = sum(values)
    return max(values) if total == total else total


def _holds(compare, values: list, tol: float) -> bool:
    """Whether ``compare(value, tol)`` holds for every per-state value:
    Python floats for one core, numpy columns (an element per core) for a
    batch. False where a value is NaN, so every check of a NaN fails."""
    if type(values[0]) is float:
        return compare(_largest(values), tol)
    return bool(compare(np.array(values), tol).all())


def _eliminate(p: list, run: _Run | None):
    """The success and failure columns of B over states 0..n-1 of fork
    powers p (q = 1 - p), by one Thomas sweep.

    Each p_i is a Python float (one core) or a numpy column (a batch of
    cores, one per element, that share the run): every step is the same
    IEEE operation, element by element, so a core gets the same bits either
    way. Entries are rebound, never updated in place, because the failure
    column starts as a copy of the list ``up`` and shares its columns.

    I - Q has 1 on the diagonal, p_i below it and q_i above it, both
    negated; the right-hand sides are p_0 e_0 and q_{n-1} e_{n-1}. With
    ``run`` above the last state, an up-move from it comes back with
    probability g and fails otherwise: the last diagonal is 1 - q_{n-1} g
    and the failure right-hand side q_{n-1} (1 - g). Returns q, the pivots,
    the two columns and the residuals of each, state by state, taken
    against the run's first values."""
    n = len(p)
    q = [1.0 - x for x in p]
    g, lose0 = (0.0, 1.0) if run is None else (run.g, run.lose0)
    diag = [1.0] * n
    diag[-1] = 1.0 - q[-1] * g

    # forward elimination
    d = diag[0]
    u, w = q[0] / d, p[0] / d
    piv, up, win = [d], [u], [w]  # up: q_i / pivot_i; win: reduced success right-hand side
    for pi, qi, di in zip(p[1:], q[1:], diag[1:]):
        d = di - pi * u
        u = qi / d
        w = pi * w / d
        piv.append(d)
        up.append(u)
        win.append(w)

    # back substitution; the failure column is a running product of up
    lose = up[:]
    lose[-1] = q[-1] * (1.0 - g) / d
    for i in range(n - 2, -1, -1):
        win[i] = win[i] + up[i] * win[i + 1]
        lose[i] = lose[i] * lose[i + 1]

    # O(n) residuals. Below state 0 sit the success and failure states,
    # above state n-1 the failure state or the run's first values
    b_hi, f_hi = win[1:] + [win[-1] * g], lose[1:] + [lose[-1] * g + lose0]
    b_lo, f_lo = 1.0, 0.0
    res_b, res_f = [], []
    for pi, qi, b, f, bh, fh in zip(p, q, win, lose, b_hi, f_hi):
        res_b.append(abs(b - pi * b_lo - qi * bh))
        res_f.append(abs(f - pi * f_lo - qi * fh))
        b_lo, f_lo = b, f
    return q, piv, win, lose, res_b, res_f


def _down(p: list, piv: list) -> list:
    """p_{i+1} over pivot i: the elimination of (I - Q)^T, which every start
    of a sweep shares."""
    return [pn / d for pn, d in zip(p[1:], piv)]


def _visit_row(p: list, q: list, piv: list, down: list, start: int, run: _Run | None):
    """The start row of N over the states of ``_eliminate``, floats or
    columns as there: it solves (I - Q)^T x = e_start, whose elimination has
    the same pivots (``_down``). Returns the row and its residuals, state
    by state, taken against the run's first values."""
    n = len(p)
    visits0, mu = (0.0, 0.0) if run is None else (float(run.visits[0]), run.power)
    row = [0.0] * n
    x = row[start] = 1.0 / piv[start]
    for i in range(start + 1, n):
        x = row[i] = q[i - 1] * x / piv[i]
    for i in range(n - 2, -1, -1):
        row[i] = row[i] + down[i] * row[i + 1]

    x_hi, p_hi = row[1:] + [q[-1] * row[-1] * visits0], p[1:] + [mu]
    x_lo = q_lo = 0.0
    res = []
    for i, (x, qi, ph, xh) in enumerate(zip(row, q, p_hi, x_hi)):
        res.append(abs(x - q_lo * x_lo - ph * xh - (i == start)))
        x_lo, q_lo = x, qi
    return row, res


def _check_residuals(residuals: list, of: str) -> None:
    if not _holds(operator.lt, residuals, SOLVER_RESIDUAL_TOL):
        raise ChainError(f"solve residual {np.max(residuals):.3e} of {of} exceeds "
                         f"{SOLVER_RESIDUAL_TOL}")


def _check_start(start: int, h: int) -> None:
    if not (0 <= start < h):
        raise ChainError(f"start state must be in [0, {h - 1}], got {start}")


class _Forward:
    """The forward half of the sweep of a run at one fork power, from its
    bottom: per state, the reduced success right-hand side, ``up`` (q over
    the state's pivot), the forward half of the visit row from the bottom
    and ``down`` (p over the state's pivot), each by ``_eliminate``'s and
    ``_visit_row``'s operations. A run's last diagonal is exactly 1.0, so
    these are the same at every length: a longer run extends them."""

    def __init__(self, power: float):
        p, q = power, 1.0 - power
        self.power, self.q = p, q
        self.states = [(p, q, 1.0, p)]  # the bottom's pivot is 1
        self.up = np.array([q])
        # the coefficients of the state below and above in the success,
        # failure and visit residuals, one row each
        self.lo = np.array([[p], [p], [q]])
        self.hi = np.array([[q], [q], [p]])

    def reach(self, length: int) -> None:
        """Extend the sweep to at least ``length`` states (``up`` last, so a
        sweep cut short is finished by the next call)."""
        if self.up.size >= length:
            return
        states = self.states
        p, q = self.power, self.q
        w, u, x, _ = states[-1]
        for _ in range(length - len(states)):
            d = 1.0 - p * u
            u = q / d
            w = p * w / d
            x = q * x / d
            states.append((w, u, x, p / d))
        self.up = np.array([state[1] for state in states])


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _forward(power: float) -> _Forward:
    return _Forward(power)


@lru_cache(maxsize=RUN_CACHE_SIZE)
def _run(power: float, length: int) -> _Run:
    """A run of ``length`` states at ``power``: the back substitutions of
    its success column, failure column (a running product of ``up`` from
    the top) and visit row from the bottom over its forward sweep
    (``_forward``), then its residuals and row sums as array operations,
    each the same IEEE operation that ``_eliminate`` and ``_visit_row`` take
    state by state."""
    fw = _forward(power)
    fw.reach(length)
    top = length - 1
    b, _, x, _ = fw.states[top]
    s, v = [b], [x]  # from the top state down
    for w, u, r, dn in reversed(fw.states[:top]):
        b = w + u * b
        x = r + dn * x
        s.append(b)
        v.append(x)
    # columns 1..length hold the three solutions by state, columns 0 and
    # length + 1 their values below and above the run
    table = np.empty((3, length + 2))
    table[0, length:0:-1] = np.fromiter(s, float, length)
    np.multiply.accumulate(fw.up[top::-1], out=table[1, length:0:-1])
    table[2, length:0:-1] = np.fromiter(v, float, length)
    b_top, l_top, x_top = table[:, length].tolist()
    table[:, 0] = 1.0, 0.0, 0.0
    table[:, -1] = b_top * 0.0, l_top * 0.0 + 1.0, fw.q * x_top * 0.0
    at, below, above = table[:, 1:-1], table[:, :-2], table[:, 2:]
    residual = at - fw.lo * below
    residual -= fw.hi * above
    residual[2, 0] -= 1.0
    res_s, res_l, res_v = np.abs(residual, out=residual).max(axis=1).tolist()
    row_sum_error = float(np.abs(at[0] + at[1] - 1.0).max())
    table.flags.writeable = False
    return _Run(power, table[0, 1:-1], table[2, 1:-1], math.fsum(reversed(v)), b,
                float(table[1, 1]), (res_s, res_l, res_v), row_sum_error)


def _core_table(cores, mu: float, starts) -> tuple[np.ndarray, int]:
    """``cores`` as a 2-D float array, one core per row, and the length h of
    their race chains, after the input checks of every solve: a non-empty
    table of cores of one length whose fork powers (``_check_fork_power``,
    as ``AbsorbingChain``) and attacker power all lie strictly inside
    (0, 1), and every start a state of the chain."""
    try:
        cores = np.array(cores, dtype=float)
    except ValueError as exc:  # cores of different lengths
        raise ChainError("fork_power must be a non-empty vector") from exc
    if cores.ndim != 2 or cores.size < 1:
        raise ChainError("fork_power must be a non-empty vector")
    _check_fork_power(cores.ravel())
    _check_mu(mu)
    h = cores.shape[1] + tail_depth(mu)
    for start in starts:
        _check_start(start, h)
    return cores, h


def _check_mu(mu: float) -> None:
    if not 0.0 < mu < 1.0:
        raise ChainError("the tail's power must lie strictly inside (0, 1)")


def _columns(p: list, run: _Run | None):
    """The success and failure columns of the swept states p (floats or
    columns), with the run (None when the sweep reaches state h-1) folded
    into the last of them, after their checks: both columns' residuals, the
    run's scaled ones included, and every row sum. A pivot of exactly 0
    refuses the chain, as ``analyze`` does; in a column it refuses the
    batch, with no warning. Returns q, the pivots and the two columns."""
    try:
        if type(p[0]) is float:
            q, piv, win, lose, res_b, res_f = _eliminate(p, run)
        else:
            with np.errstate(divide="raise"):
                q, piv, win, lose, res_b, res_f = _eliminate(p, run)
    except (ZeroDivisionError, FloatingPointError) as exc:
        raise ChainError("transient block is singular; chain is not absorbing") from exc
    residuals = res_b + res_f
    sums = [abs(s + l - 1.0) for s, l in zip(win, lose)]
    if run is not None:
        b, f = win[-1], lose[-1]
        res_s, res_l, _ = run.residuals
        # at run state j the full chain's residuals are b r^s_j and
        # f r^s_j + r^l_j, and its row sum is 1 + (b + f - 1) s_j + (s_j + l_j - 1)
        residuals += (abs(b) * res_s, abs(f) * res_s + res_l)
        sums.append(abs(b + f - 1.0) + run.row_sum_error)
    _check_residuals(residuals, "B")
    if not _holds(operator.le, sums, ROW_SUM_TOL):
        raise ChainError("absorption probabilities must sum to 1 per start state")
    return q, piv, win, lose


def solve_race(core: np.ndarray, mu: float, start: int) -> RaceSolution:
    """Success column, start row of N and e[start] of the race chain
    ``extend_fork_power(core, mu)``, by tridiagonal sweeps, without building
    it. It accepts exactly the chains that ``AbsorbingChain`` accepts.

    The trailing run of equal fork powers above ``start`` is not swept state
    by state: its profile (``_run``) is folded into the last row of the core
    below it, and the run's part of each result is a boundary value times
    that profile. This is ``solve_starts`` from one start."""
    return solve_starts(core, mu, [start])[0]


def solve_starts(core: np.ndarray, mu: float, starts) -> list[RaceSolution]:
    """``solve_race(core, mu, start)`` for each of ``starts``, in order and
    bit for bit, from one elimination per trim point: starts that share it
    share the success column and the pivots, and each distinct start adds
    one visit row. Every start is checked before any work."""
    (core,), h = _core_table([core], mu, starts)
    return _solve(core.tolist(), mu, h, starts)


def solve_each(cores, mu: float, starts) -> list[RaceSolution]:
    """``solve_race(cores[k], mu, starts[k])`` for each k, in order and bit
    for bit: a table of cores of one length, one per start, as a crb2 start
    sweep prices and runs each start on its own chain. The table, mu and
    every start are checked before any work; each row is then solved alone
    through ``solve_race``'s path."""
    cores, h = _core_table(cores, mu, starts)
    if len(cores) != len(starts):
        raise ChainError(f"one core per start: {len(cores)} cores for {len(starts)} starts")
    return [_solve(core, mu, h, [start])[0] for core, start in zip(cores.tolist(), starts)]


def _solve(core: list[float], power: float, h: int, starts) -> list[RaceSolution]:
    """The body of ``solve_starts`` and ``solve_each``, over Python floats,
    after their checks, for a chain of h states whose first len(core) fork
    powers are ``core`` and whose others are ``power``.

    A start's sweep runs up to its trim point: the start state or the
    core's last change of power, whichever is higher. The distinct starts
    are taken in ascending order, so the starts of one trim point come
    together; each trim point gets its checked columns (``_columns``) once,
    and each start its row of N, that row's residuals (the run's scaled)
    and the full-length arrays."""
    last = len(core)
    while last and core[last - 1] == power:
        last -= 1
    solved = {}
    for n, group in groupby(sorted(set(starts)), key=lambda start: max(start + 1, last)):
        p = core[:n]
        p += [power] * (n - len(p))
        run = None if n == h else _run(power, h - n)
        q, piv, win, lose = _columns(p, run)
        success = np.empty(h)
        success[:n] = win
        if run is not None:
            np.multiply(run.success, win[-1], out=success[n:])
        success.flags.writeable = False
        down = _down(p, piv)
        for start in group:
            row, residuals = _visit_row(p, q, piv, down, start, run)
            visits = np.empty(h)
            run_steps = 0.0
            if run is not None:
                # at run state j the full chain's visit residual is c r^v_j
                c = q[-1] * row[-1]
                residuals.append(abs(c) * run.residuals[2])
                np.multiply(run.visits, c, out=visits[n:])
                run_steps = c * run.steps
            _check_residuals(residuals, "the start row of N")
            visits[:n] = row
            visits.flags.writeable = False
            solved[start] = RaceSolution(success, visits, math.fsum(row + [run_steps]))
    return [solved[start] for start in starts]


def _solve_cores(cores, mu: float, start: int, full) -> tuple[np.ndarray, np.ndarray]:
    """``solve_race(core, mu, start)`` of many cores of one length at once,
    bit for bit: the full-length success column of every core, and the
    start row of N of every core flagged in ``full`` (the other rows are
    NaN), as the rows of two arrays. It leaves out the step counts.

    Cores that share their trim point (the start state or the core's last
    change of power, whichever is higher, as in ``_solve``) are swept
    together as numpy columns through the same elimination and visit row as
    ``solve_race``, with their shared run folded in. Every core takes
    ``solve_race``'s input checks and the checks of its columns; a flagged
    core takes those of its visit row too. So a batch of one refuses what
    ``solve_race`` refuses, except that an unflagged core takes no check of
    the row it does not get: below the top of a valley the walk almost never
    leaves (N ~ 1e10), only that row's residual trips, and the success
    column checks out to about 1e-16. One bad core refuses the batch."""
    cores, h = _core_table(cores, mu, [start])
    width, length = cores.shape
    full = np.asarray(full, dtype=bool)
    # each core's last change of power: the highest state (counted from 1)
    # whose power is not mu, 0 when there is none
    last = ((cores != mu) * np.arange(1, length + 1)).max(axis=1)
    trims = np.maximum(last, start + 1)
    success, visits = np.empty((width, h)), np.full((width, h), np.nan)
    for n in sorted(set(trims.tolist())):
        batch = np.flatnonzero(trims == n)
        p = np.full((n, batch.size), mu)
        p[: min(n, length)] = cores[batch, :n].T
        p = list(p)
        run = None if n == h else _run(mu, h - n)
        q, piv, win, lose = _columns(p, run)
        success[batch, :n] = np.array(win).T
        if run is not None:
            success[batch, n:] = win[-1][:, None] * run.success
        flagged = np.flatnonzero(full[batch])
        if not flagged.size:
            continue
        if flagged.size < batch.size:  # the visit row of the flagged cores alone
            batch = batch[flagged]
            p, q, piv = ([x if type(x) is float else x[flagged] for x in v] for v in (p, q, piv))
        row, residuals = _visit_row(p, q, piv, _down(p, piv), start, run)
        visits[batch, :n] = np.array(row).T
        if run is not None:
            c = q[-1] * row[-1]
            residuals.append(abs(c) * run.residuals[2])
            visits[batch, n:] = c[:, None] * run.visits
        _check_residuals(residuals, "the start row of N")
    return success, visits


def catchup_prob(mu_eff: float, lambda_eff: float, i: int) -> float:
    """Probability that the fork ever closes a deficit of i+1 blocks when the
    per-block odds stay fixed at mu_eff vs lambda_eff (open-ended race)."""
    if mu_eff <= 0 or lambda_eff < 0:
        raise ValueError("powers must be positive")
    if mu_eff >= lambda_eff:
        return 1.0
    return (mu_eff / lambda_eff) ** (i + 1)
