"""Layer tracing from outside the program.

The tracer replaces each traced function with a wrapper, as an attribute of
its module. Every call between briberace's layers goes through a module
attribute (``strategies.run_gvc``, ``markov.analyze``,
``rationality.basic_threshold``), including the optimizer's inner calls, so
the wrappers see them all without any change to the program.

Each wrapped call becomes a span kept in memory: name, start, end, parent
span and the id of the CLI invocation it belongs to. ``basic_threshold`` is
the exception: it calls nothing traced and runs millions of times per
optimization, so its calls are folded into their parent span as a count and
a covered time instead of one span each, which keeps memory bounded.
A layer's self time is its span's duration minus the time its child spans
(and folded calls) cover.
"""
from __future__ import annotations

import functools
import importlib
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

TRACED = {
    "cli": ("main",),
    "model": ("load_pool_distribution",),
    "rationality": ("basic_threshold", "persuadable_threshold"),
    "markov": ("analyze",),
    "strategies": ("optimize_gvc", "run_gvc", "gvc_new_markov", "gvc_member_thresholds",
                   "evaluate_schedule", "run_bs", "run_bff", "run_crb"),
    "simulate": ("simulate_race", "compare_reports"),
}
FOLDED = {"rationality.basic_threshold"}
SHORT_CHAIN_MAX_H = 64  # markov.analyze timing bands: h <= 64 and h > 64


def _observe_analyze(counters, args, kwargs, result, seconds):
    h = (args[0] if args else kwargs["chain"]).h
    band = "h_le_64" if h <= SHORT_CHAIN_MAX_H else "h_gt_64"
    counters["markov.analyze.states"] += h
    counters[f"markov.analyze.calls.{band}"] += 1
    counters[f"markov.analyze.s.{band}"] += seconds


def _observe_run_gvc(counters, args, kwargs, outcome, seconds):
    scenario = args[0] if args else kwargs["scenario"]
    aboard = all(scenario.target_id in outcome.memberships[j]
                 for j in range(scenario.confirmations + 1))
    counters["strategies.run_gvc.feasible"] += aboard


def _observe_simulate(counters, args, kwargs, report, seconds):
    kept = report.trials - report.discarded
    counters["simulate.trials"] += report.trials
    counters["simulate.discarded"] += report.discarded
    counters["simulate.successes"] += report.successes
    counters["simulate.events"] += report.mean_steps.mean * kept
    counters["simulate.s"] += seconds


OBSERVERS = {
    "markov.analyze": _observe_analyze,
    "strategies.run_gvc": _observe_run_gvc,
    "simulate.simulate_race": _observe_simulate,
}

# Observer counts that must repeat exactly between cycles of one run.
EXACT_COUNTERS = ("markov.analyze.states", "simulate.trials", "simulate.discarded",
                  "simulate.successes", "strategies.run_gvc.feasible")


def work_counts(metrics: dict[str, float], counters: dict[str, float]) -> dict[str, float]:
    """The work counts of one cycle: every call count, the optimizer's
    probes and the EXACT_COUNTERS. They must repeat exactly across cycles."""
    counts = {k: v for k, v in metrics.items() if k.endswith(".calls")}
    counts["strategies.gvc_probes"] = metrics["strategies.gvc_probes"]
    counts.update({k: counters.get(k, 0.0) for k in EXACT_COUNTERS})
    return counts


class Tracer:
    """Span recorder for the functions in TRACED."""

    def __init__(self):
        self.names = [f"{m}.{f}" for m, fs in TRACED.items() for f in fs]
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.folded = array("d")  # time covered by folded calls, per span
        self.stack: list[int] = []
        self.op_id = -1
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for qual in self.names:
            mod_name, fname = qual.split(".")
            module = importlib.import_module(f"briberace.{mod_name}")
            fn = getattr(module, fname)
            self._saved.append((module, fname, fn))
            if qual in FOLDED:
                wrapper = self._folded_wrapper(fn, qual)
            else:
                wrapper = self._span_wrapper(fn, qual)
            setattr(module, fname, functools.wraps(fn)(wrapper))

    def uninstall(self) -> None:
        for module, fname, fn in reversed(self._saved):
            setattr(module, fname, fn)
        self._saved.clear()

    def _span_wrapper(self, fn, qual):
        nid = self.names.index(qual)
        name, parent, op = self.name, self.parent, self.op
        start, end, folded, stack = self.start, self.end, self.folded, self.stack
        observe, counters, tracer = OBSERVERS.get(qual), self.counters, self

        def wrapper(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(tracer.op_id)
            start.append(0.0)
            end.append(0.0)
            folded.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(counters, args, kwargs, result, t1 - t0)
            return result

        return wrapper

    def _folded_wrapper(self, fn, qual):
        folded, stack, counters = self.folded, self.stack, self.counters
        calls_key, time_key = f"{qual}.calls", f"{qual}.s"

        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                if stack:
                    folded[stack[-1]] += dt
                counters[calls_key] += 1
                counters[time_key] += dt

        return wrapper

    def _arrays(self):
        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        op = np.array(self.op, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        self_time = dur - child - np.array(self.folded)
        return name, parent, op, dur, self_time

    def cycle_metrics(self, first_op: int, end_op: int, counters: dict[str, float]) -> dict[str, float]:
        """Per-layer figures for the spans of operations [first_op, end_op),
        with ``counters`` the observer counts accumulated over those operations."""
        name, parent, op, dur, self_time = self._arrays()
        sel = (op >= first_op) & (op < end_op)
        n = len(self.names)
        calls = np.bincount(name[sel], minlength=n)
        self_s = np.bincount(name[sel], weights=self_time[sel], minlength=n)
        nid = {q: i for i, q in enumerate(self.names)}
        out: dict[str, float] = {}
        for qual, i in nid.items():
            if qual in FOLDED:
                out[f"{qual}.calls"] = counters.get(f"{qual}.calls", 0.0)
                out[f"{qual}.self_s"] = counters.get(f"{qual}.s", 0.0)
            else:
                out[f"{qual}.calls"] = float(calls[i])
                out[f"{qual}.self_s"] = float(self_s[i])
        # load_pool_distribution calls nothing traced: its total is its self time
        out["model.load_pool_distribution.s"] = out.pop("model.load_pool_distribution.self_s")

        out["markov.analyze.states"] = counters.get("markov.analyze.states", 0.0)
        for band in ("h_le_64", "h_gt_64"):
            k = counters.get(f"markov.analyze.calls.{band}", 0.0)
            s = counters.get(f"markov.analyze.s.{band}", 0.0)
            out[f"markov.analyze.us_per_call.{band}"] = 1e6 * s / k if k else 0.0

        gvc_calls = out["strategies.run_gvc.calls"]
        out["strategies.run_gvc.feasible_ratio"] = (
            counters.get("strategies.run_gvc.feasible", 0.0) / gvc_calls if gvc_calls else 0.0)
        probe = sel & (name == nid["strategies.gvc_member_thresholds"])
        parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
        out["strategies.gvc_probes"] = float(
            np.count_nonzero(probe & (parent_name != nid["strategies.run_gvc"])))

        trials = counters.get("simulate.trials", 0.0)
        sim_s = counters.get("simulate.s", 0.0)
        out["simulate.trials_per_s"] = trials / sim_s if sim_s else 0.0
        out["simulate.events_per_s"] = counters.get("simulate.events", 0.0) / sim_s if sim_s else 0.0
        out["simulate.discarded"] = counters.get("simulate.discarded", 0.0)
        out["simulate.kept_ratio"] = (
            (trials - out["simulate.discarded"]) / trials if trials else 0.0)
        return out

    def write(self, path: Path) -> None:
        """Write every recorded span, with its name table, as one .npz file."""
        name, parent, op, dur, self_time = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent, op=op,
                 start=np.array(self.start), end=np.array(self.end),
                 folded=np.array(self.folded), self_time=self_time)
