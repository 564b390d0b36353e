"""Golden output of scripts/reproduce_anchors.py.

The headline numbers for both pool fixtures are pinned byte for byte, so a
refactor that is meant to change nothing shows here if it changes anything.
"""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    assert run.stdout == (ROOT / "tests" / "data" / "anchors.txt").read_bytes()
