"""Smoke runs of the scripts under scripts/ as a shell user starts them."""

import os
import subprocess
import sys
from pathlib import Path

import ifsdim

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_cf_dimension_prints_one_operator_row_per_context():
    env = dict(os.environ, PYTHONPATH=str(Path(ifsdim.__file__).parent.parent))
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "cf_dimension.py"),
            "--digits", "2",
            "--word-depth", "6",
            "--max-context", "3",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    header = lines.index(next(line for line in lines if "operator root" in line))
    rows = [line.split() for line in lines[header + 1 :]]
    assert [row[0] for row in rows] == ["1", "2", "3"]
    assert all(0.5 < float(row[1]) < 0.61 for row in rows)
    # safeguarded Newton steps need a handful of eigen-solves per root
    assert all(int(row[2]) <= 8 for row in rows)
