"""briberace benchmark: three workloads driven through ``briberace.cli.main``.

    python3 perfbench/run.py --workload gvc-optimize --seed 0 --seconds 20 --trace 0

Run from the repository root. Each invocation runs one workload in this one
process and thread: it times ``setup_s`` (median of several fresh
interpreters that import briberace and prepare the inputs), sets up once
itself, then repeats the workload's cycle of CLI invocations until
``--seconds`` have passed (always whole cycles, at least one). Every report
is checked (see checks.py) and every repeated cycle must reproduce the
digests of the first.

Times are scaled to a nominal host speed (see hostclock.py): this kind of
shared machine drifts by a third and more between minutes, which would
swamp any difference between two versions of the program. Raw times are
printed next to the scaled ones. Per-layer times from traced runs are raw.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one untraced
reference cycle and then at least two cycles with every layer wrapped from
outside (see tracing.py), and prints the per-layer metrics. Work counts
must repeat exactly between traced cycles, and traced reports must match
the untraced ones byte for byte.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. An operation fails
when the CLI exits nonzero, raises, or its report fails a check; the known
refusals of one-miner rosters and the whale20 ``bff`` verdicts at program
seeds 1 and 7 count as failures. ``correct`` is false when a report breaks
a check, a pinned digest differs, or a repeat does not reproduce.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import launch

DEFAULT_SEED = 0  # the seed at which expected.json pins seed-generated reports
SETUP_REPEATS = 7
MIN_TRACED_CYCLES = 2
EXPECTED = Path(__file__).resolve().parent / "expected.json"



@dataclass
class OpResult:
    op: object
    rc: int | None  # None when the call raised
    start: float
    end: float
    handler_s: float  # host-clock sampling inside the call, not the program's time
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    error: str = ""
    seconds: float = 0.0  # scaled to the nominal host speed once the run is over

    @property
    def raw_s(self) -> float:
        return self.end - self.start - self.handler_s

    @property
    def failed(self) -> bool:
        return self.rc != 0 or bool(self.problems)

    @property
    def completed(self) -> bool:
        """Ran to a report (a validate verdict of FAILED included)."""
        return self.digest is not None

    @property
    def signature(self) -> str:
        return f"{self.rc}:{self.digest}"


def run_op(cli, op, clock, tracer=None, op_id: int = 0) -> OpResult:
    import checks

    op.report.unlink(missing_ok=True)
    if tracer is not None:
        tracer.op_id = op_id
    out, err = io.StringIO(), io.StringIO()
    error = ""
    spent = clock.spent
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit) as exc:  # any escape from the CLI is a failed operation
        rc, error = None, f"{type(exc).__name__}: {exc}"
    t1 = perf_counter()
    result = OpResult(op, rc, t0, t1, clock.spent - spent,
                      error=error or err.getvalue().strip())
    if rc in (0, 1) and op.report.is_file():
        data = op.report.read_bytes()
        result.digest = checks.digest(data)
        result.problems = checks.check_report(op, data, rc)
    elif rc == 0:
        result.problems = ["exit 0 without a report"]
    return result


def run_cycle(cli, ops, clock, tracer=None, first_op_id: int = 0) -> list[OpResult]:
    return [run_op(cli, op, clock, tracer, first_op_id + i) for i, op in enumerate(ops)]


def scale(results: list[OpResult], clock) -> None:
    for r in results:
        r.seconds = r.raw_s * clock.factor(r.start, r.end)


def pin_problems(results: list[OpResult], pinned: dict[str, str], seed: int) -> None:
    """Compare reports with the digests recorded at the default seed."""
    for r in results:
        want = pinned.get(r.op.label)
        if want is None or not (r.op.fixed_input or seed == DEFAULT_SEED):
            continue
        if r.signature != want:
            r.problems.append(f"report {r.signature} differs from recorded {want}")


def repeat_problems(reference: list[OpResult], cycles: list[list[OpResult]], what: str) -> list[str]:
    problems = []
    for k, cycle in enumerate(cycles):
        for a, b in zip(reference, cycle):
            if a.signature != b.signature:
                problems.append(f"{what} {k}: {b.op.label} gave {b.signature}, "
                                f"reference gave {a.signature}")
    return problems


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (linear interpolation between order statistics)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def end_to_end(results: list[OpResult], setup_samples: list[float]) -> dict[str, float]:
    """Latency, schedule and outcome figures come from the workload's own
    operations that ran to a report; refusals count only in fail_ratio, and
    the trials probes only in trials_per_s."""
    done = [r for r in results if r.op.main and r.completed]
    sims = [r for r in results if r.op.trials and r.completed]
    latency = [r.seconds for r in done]
    return {
        "setup_s": statistics.median(setup_samples),
        "fail_ratio": sum(r.failed for r in results) / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "schedule_s": statistics.median(r.seconds / r.op.rows for r in done) if done else 0.0,
        "trials_per_s": (sum(r.op.trials for r in sims) / sum(r.seconds for r in sims)
                         if sims else 0.0),
        "outcomes_per_s": sum(r.op.rows for r in done) / sum(latency) if done else 0.0,
        "op_p50_s": quantile(latency, 5) if done else 0.0,
        "op_p90_s": quantile(latency, 9) if done else 0.0,
    }


def time_setup(args, work: Path) -> tuple[float, float]:
    """Seconds for one set-up in a fresh interpreter, raw and scaled by the
    host speed measured just before and just after it."""
    import hostclock

    probe = Path(__file__).resolve().parent / "setup_probe.py"
    before = hostclock.spot_factor()
    t0 = perf_counter()
    subprocess.run([sys.executable, str(probe), "--workload", args.workload,
                    "--seed", str(args.seed), "--work", str(work)],
                   check=True, capture_output=True)
    raw = perf_counter() - t0
    return raw, raw * 0.5 * (before + hostclock.spot_factor())


def environment(args) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in launch.THREAD_VARS},
    }


def print_ops(results: list[OpResult]) -> None:
    for r in results:
        status = "FAIL" if r.failed else "ok"
        note = "; ".join(r.problems) or (r.error.splitlines()[-1] if r.failed and r.error else "")
        print(f"op {status:4} {r.op.label:28} rc={r.rc} {r.seconds:9.4f}s "
              f"(raw {r.raw_s:9.4f}s) {r.digest} {note}")


def run_untraced(cli, ops, args, pinned, clock):
    cycles = []
    t0 = perf_counter()
    while not cycles or perf_counter() - t0 < args.seconds:
        cycle = run_cycle(cli, ops, clock)
        pin_problems(cycle, pinned, args.seed)
        cycles.append(cycle)
    problems = repeat_problems(cycles[0], cycles[1:], "cycle")
    return cycles, problems


def run_traced(cli, ops, args, pinned, clock, work: Path):
    """An untraced reference cycle, then traced cycles. Returns the cycles
    (reference first), problems, per-layer metrics and the work counts."""
    import tracing

    reference = run_cycle(cli, ops, clock)
    pin_problems(reference, pinned, args.seed)
    tracer = tracing.Tracer()
    cycles, per_cycle = [reference], []
    tracer.install()
    try:
        t_start = perf_counter()
        while len(per_cycle) < MIN_TRACED_CYCLES or perf_counter() - t_start < args.seconds:
            before = dict(tracer.counters)
            first = len(per_cycle) * len(ops)
            cycles.append(run_cycle(cli, ops, clock, tracer, first))
            delta = {k: v - before.get(k, 0.0) for k, v in tracer.counters.items()}
            per_cycle.append((tracer.cycle_metrics(first, first + len(ops), delta), delta))
    finally:
        tracer.uninstall()
    tracer.write(work / "spans.npz")

    problems = repeat_problems(reference, cycles[1:], "traced cycle")
    first_counts = tracing.work_counts(*per_cycle[0])
    for k, (m, d) in enumerate(per_cycle[1:], start=1):
        counts = tracing.work_counts(m, d)
        for key, value in first_counts.items():
            if counts[key] != value:
                problems.append(f"work count {key} was {value} in traced cycle 0 "
                                f"and {counts[key]} in traced cycle {k}")
    metrics = {k: statistics.fmean(m[k] for m, _ in per_cycle) for k in per_cycle[0][0]}
    return cycles, problems, metrics, first_counts


def units(kind: str) -> dict[str, str]:
    """Metric names and units of one kind (end_to_end or per_layer), as
    BENCHMARK.json declares them."""
    spec = json.loads((launch.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    launch.prepare()
    import hostclock

    work = launch.WORK_ROOT / args.workload
    shutil.rmtree(work, ignore_errors=True)
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    pinned = recorded.get(args.workload, {})

    setup = ([] if args.trace else
             [time_setup(args, work / "setup-probe") for _ in range(SETUP_REPEATS)])
    cli, ops = launch.setup(args.workload, args.seed, work / "run")
    with hostclock.HostClock() as clock:
        print(json.dumps({"environment": environment(args)}))
        if args.trace:
            cycles, problems, values, counts = run_traced(cli, ops, args, pinned, clock, work)
        else:
            cycles, problems = run_untraced(cli, ops, args, pinned, clock)
    results = [r for c in cycles for r in c]
    scale(results, clock)
    print_ops(results)

    if args.trace:
        declared = units("per_layer")
        walls = [sum(r.seconds for r in c) for c in cycles]
        values["trace.overhead_ratio"] = statistics.median(walls[1:]) / walls[0]
        print(json.dumps({"reference_s": walls[0], "traced_s": walls[1:],
                          "work_counts": counts}))
    else:
        declared = units("end_to_end")
        values = end_to_end(results, [scaled for _, scaled in setup])
        print(json.dumps({"cycles": len(cycles), "ops_per_cycle": len(ops),
                          "setup_s": [scaled for _, scaled in setup],
                          "setup_raw_s": [raw for raw, _ in setup]}))
    print(json.dumps({"host_clock": clock.summary()}))
    missing = set(declared) - set(values)
    if missing:
        problems.append(f"metrics not measured: {sorted(missing)}")
    problems += [f"{r.op.label}: {p}" for r in results for p in r.problems]
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": {k: {"value": values.get(k, 0.0), "unit": u} for k, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
