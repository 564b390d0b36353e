"""Record the report digests that run.py pins, into expected.json.

    python3 perfbench/record_expected.py

For each workload it runs one cycle at the default seed and records the
exit code and report digest of every operation that succeeded. run.py then
requires the same bytes from fixed-input operations at every seed, and from
seed-generated ones at the default seed. Operations that fail are not
recorded, so fixing a known defect does not trip the pin. Re-record only in
a change that means to alter the reports, and say so in that change.
"""
from __future__ import annotations

import json
import shutil

import launch


def main() -> None:
    launch.prepare()
    import hostclock
    import run
    import workloads

    recorded = {}
    for name in workloads.WORKLOADS:
        work = launch.WORK_ROOT / name / "record"
        cli, ops = launch.setup(name, run.DEFAULT_SEED, work)
        clock = hostclock.HostClock()  # not started: nothing here is timed
        first, second = run.run_cycle(cli, ops, clock), run.run_cycle(cli, ops, clock)
        unstable = run.repeat_problems(first, [second], "repeat")
        if unstable:
            raise SystemExit("reports do not repeat:\n" + "\n".join(unstable))
        recorded[name] = {r.op.label: r.signature for r in first if not r.failed}
        shutil.rmtree(work)
    run.EXPECTED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
