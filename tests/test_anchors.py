"""Golden outputs, pinned byte for byte.

``scripts/reproduce_anchors.py`` prints the headline numbers for both pool
fixtures; the CLI reports cover the optimizer (``analyze --strategy gvc`` on
table2 at start 4, both objectives) and every strategy on a roster whose
attacker holds half the network, so that the unbribed tail runs to the
512-state wall. All were captured before the chain solve moved from a dense
LU to tridiagonal sweeps, so a refactor that is meant to change nothing
shows here if it changes anything. The JSON reports of the optimizer
(table2 at start 4, both objectives; whale20 rac at start 6) keep every
float at full precision; they were captured before the gvc search began to
solve first-pass cores for their success column alone.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from briberace.cli import fixture_path, main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"


def test_reproduce_anchors_output_is_byte_identical():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_anchors.py")],
        capture_output=True,
        env=env,
        check=True,
    )
    assert run.stdout == (DATA / "anchors.txt").read_bytes()


@pytest.mark.parametrize("objective", ["ac", "rac"])
def test_gvc_report_is_byte_identical(objective, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main([
        "analyze", "--pools", str(fixture_path("table2")), "--target", "P2",
        "--start-state", "4", "--strategy", "gvc", "--objective", objective,
        "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / f"analyze_gvc_{objective}_table2_start4.csv").read_bytes()


@pytest.mark.parametrize("pools, target, start, objective", [
    ("table2", "P2", 4, "ac"), ("table2", "P2", 4, "rac"), ("whale20", "M", 6, "rac"),
])
def test_gvc_json_report_is_byte_identical(pools, target, start, objective, tmp_path, capsys):
    # every float at full precision, which the CSV reports round to 6 digits
    out = tmp_path / "report.json"
    code = main([
        "analyze", "--pools", str(fixture_path(pools)), "--target", target,
        "--start-state", str(start), "--strategy", "gvc", "--objective", objective,
        "--format", "json", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    golden = DATA / f"analyze_gvc_{objective}_{pools}_start{start}.json"
    assert out.read_bytes() == golden.read_bytes()


def test_sweep_start_on_the_512_state_wall_is_byte_identical(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep-start", "--pools", str(DATA / "deep512.pools"), "--strategy", "all",
        "--confirmations", "2", "--states", "0,1,2", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    assert out.read_bytes() == (DATA / "sweep_start_all_deep512.csv").read_bytes()
