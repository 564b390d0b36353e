"""Process environment and set-up shared by run.py and setup_probe.py.

``prepare`` must run before numpy is imported: it pins the BLAS/OpenMP
thread pools to one thread and puts this checkout's ``src/`` first on the
import path, so the benchmark measures these sources and never an
installed copy of briberace.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = Path(__file__).resolve().parent / "_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def prepare() -> None:
    """Pin thread pools and the import path; exit with code 2 if this
    checkout holds no briberace sources."""
    if not (SRC / "briberace" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no briberace sources under {SRC}\n")
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))


def setup(workload: str, seed: int, work: Path):
    """Import the CLI, generate the workload's inputs and load every pool
    file once. Returns the CLI module and the workload's cycle of operations."""
    import workloads
    from briberace import cli, model

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"briberace imported from {cli.__file__}, not from {SRC}")
    ops = workloads.build(workload, ROOT, work, seed)
    for path in workloads.pool_files(ops):
        model.load_pool_distribution(path.read_text(encoding="utf-8"))
    return cli, ops
