"""Reference solve of an attacker-only run for the bit-for-bit tests of
``briberace.markov._run``.

This is the body ``_run`` had before it read a per-power forward sweep:
for each (power, length) it runs the whole Thomas elimination of a run of
``length`` states at one fork power (``_eliminate``) and its visit row from
the bottom (``_visit_row``), state by state on Python floats, and takes the
residual and row-sum maxima over Python lists (``_largest``). The three
helpers are kept here as they were, so the reference does not move when
the engine's core solves do. ``run(power, length)`` must equal
``markov._run(power, length)`` in every field, bit for bit.
"""
from __future__ import annotations

import math

import numpy as np

from briberace.markov import _Run


def _largest(values: list[float]) -> float:
    """The largest of nonnegative Python floats, NaN where any is NaN."""
    total = sum(values)
    return max(values) if total == total else total


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


def _visit_row(p: list, q: list, piv: list, start: int, run: _Run | None):
    """The start row of N over the states of ``_eliminate``, floats or
    columns as there: it solves (I - Q)^T x = e_start, whose elimination has
    the same pivots. Returns the row and its residuals, state by state,
    taken against the run's first values."""
    n = len(p)
    visits0, mu = (0.0, 0.0) if run is None else (float(run.visits[0]), run.power)
    down = [pn / d for pn, d in zip(p[1:], piv)]  # p_{i+1} / pivot_i: of (I - Q)^T
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


def run(power: float, length: int) -> _Run:
    p = [power] * length
    q, piv, s, l, res_s, res_l = _eliminate(p, None)
    v, res_v = _visit_row(p, q, piv, 0, None)
    success, visits = np.array(s), np.array(v)
    success.flags.writeable = visits.flags.writeable = False
    return _Run(power, success, visits, math.fsum(v), s[0], l[0],
                (_largest(res_s), _largest(res_l), _largest(res_v)),
                _largest([abs(a + b - 1.0) for a, b in zip(s, l)]))
