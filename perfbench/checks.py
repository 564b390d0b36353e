"""Output checks for the CSV reports the CLI writes.

Every report is checked for its invariants: a header row, LF line endings,
the expected number of rows, probabilities in [0, 1] and costs >= 0. Where
the inputs are fixed the values are also pinned: the table2 ``gvc``/``ac``
schedule below, and the byte digests recorded in ``expected.json``.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math

# table2, target P2, start 4, objective ac: the published optimized schedule
# (dust entries render as 1e-8 and count as 0.00) and its expected cost.
GVC_AC_SCHEDULE = (0.00, 8.60, 29.19, 71.13, 0.00, 6.40, 25.68)
GVC_AC_COST = 104.00
BTC_TOLERANCE = 0.005  # reports carry 2-decimal amounts

HEADERS = {
    "analyze": ["metric", "value"],
    "validate": ["metric", "analytic", "empirical", "se", "z", "passed"],
    "sweep_start": ["strategy", "start_state", "success_prob", "cost_unconditional",
                    "cost_on_success"],
    "sweep_reward": ["strategy", "reward_btc", "start_state", "success_prob",
                     "cost_unconditional", "single_visit_cost"],
}
PROB_FIELDS = {"success_prob", "success_prob_basic"}
COST_FIELDS = {"cost_unconditional", "cost_on_success", "single_visit_cost",
               "attacker_recapture", "target_recapture"}


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _number(text: str, what: str, problems: list[str]) -> float | None:
    try:
        value = float(text)
    except ValueError:
        problems.append(f"{what}: not a number: {text!r}")
        return None
    if not math.isfinite(value):
        problems.append(f"{what}: not finite: {text!r}")
        return None
    return value


def _in_range(value, lo, hi, what, problems) -> None:
    if value is not None and not (lo <= value <= hi):
        problems.append(f"{what}: {value} outside [{lo}, {hi}]")


def _check_analyze(rows, problems, op, rc):
    values = {r["metric"]: r["value"] for r in rows}
    for key in PROB_FIELDS:
        _in_range(_number(values.get(key, ""), key, problems), 0.0, 1.0, key, problems)
    for key in COST_FIELDS:
        if key == "cost_on_success" and values.get(key) == "None":
            continue  # success unreachable
        _in_range(_number(values.get(key, ""), key, problems), 0.0, math.inf, key, problems)
    bribes = [v for k, v in values.items() if k.startswith("bribe_state_")]
    if not bribes:
        problems.append("no bribe_state rows")
    for i, text in enumerate(bribes):
        _in_range(_number(text, f"bribe_state_{i}", problems), 0.0, math.inf,
                  f"bribe_state_{i}", problems)
    return values


def _check_analyze_gvc_ac(rows, problems, op, rc):
    values = _check_analyze(rows, problems, op, rc)
    schedule = [_number(values.get(f"bribe_state_{i}", ""), f"bribe_state_{i}", [])
                for i in range(len(GVC_AC_SCHEDULE))]
    if any(a is None or not abs(a - b) <= BTC_TOLERANCE
           for a, b in zip(schedule, GVC_AC_SCHEDULE)):
        problems.append(f"schedule {schedule} != pinned {list(GVC_AC_SCHEDULE)}")
    cost = _number(values.get("cost_unconditional", ""), "cost_unconditional", [])
    if cost is None or not abs(cost - GVC_AC_COST) <= BTC_TOLERANCE:
        problems.append(f"cost {cost} != pinned {GVC_AC_COST}")


def _check_validate(rows, problems, op, rc):
    passed = []
    for r in rows:
        name = r["metric"]
        analytic = _number(r["analytic"], f"{name}.analytic", problems)
        empirical = _number(r["empirical"], f"{name}.empirical", problems)
        _in_range(_number(r["se"], f"{name}.se", problems), 0.0, math.inf, f"{name}.se", problems)
        if name in PROB_FIELDS:
            _in_range(analytic, 0.0, 1.0, name, problems)
            _in_range(empirical, 0.0, 1.0, name, problems)
        elif name in COST_FIELDS or name.startswith("visits["):
            _in_range(analytic, 0.0, math.inf, name, problems)
            _in_range(empirical, 0.0, math.inf, name, problems)
        if r["passed"] not in ("true", "false"):
            problems.append(f"{name}.passed: {r['passed']!r}")
        passed.append(r["passed"] == "true")
    if (rc == 0) != all(passed):
        problems.append(f"exit code {rc} disagrees with the per-metric verdicts")


def _check_sweep(rows, problems, op, rc):
    for i, r in enumerate(rows):
        _in_range(_number(r["success_prob"], f"row {i} success_prob", problems),
                  0.0, 1.0, f"row {i} success_prob", problems)
        for key in COST_FIELDS & r.keys():
            if key == "cost_on_success" and r[key] == "":
                continue  # success unreachable
            _in_range(_number(r[key], f"row {i} {key}", problems), 0.0, math.inf,
                      f"row {i} {key}", problems)


CHECKS = {
    "analyze": _check_analyze,
    "analyze_gvc_ac": _check_analyze_gvc_ac,
    "analyze_gvc_rac": _check_analyze,
    "validate": _check_validate,
    "sweep_start": _check_sweep,
    "sweep_reward": _check_sweep,
}


def check_report(op, data: bytes, rc: int) -> list[str]:
    """Problems found in one operation's CSV report (empty when it is fine)."""
    problems: list[str] = []
    if b"\r" in data:
        problems.append("CR in line endings")
    if not data.endswith(b"\n"):
        problems.append("report does not end with LF")
    text = data.decode("utf-8", errors="replace")
    reader = csv.DictReader(io.StringIO(text))
    kind = op.check.removesuffix("_gvc_ac").removesuffix("_gvc_rac")
    if reader.fieldnames != HEADERS[kind]:
        problems.append(f"header {reader.fieldnames} != {HEADERS[kind]}")
        return problems
    rows = list(reader)
    expected_rows = op.rows if kind.startswith("sweep") else None
    if expected_rows is not None and len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    if not rows:
        problems.append("no data rows")
        return problems
    CHECKS[op.check](rows, problems, op, rc)
    return problems
