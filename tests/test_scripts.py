"""The scripts under scripts/ run from a bare checkout, as README
documents them: with no installed package and no PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize("script", ["make_benchmark.py", "run_benchmark.py", "run_sweep.py"])
def test_bare_script_imports_the_checkout(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), "--help"],
        cwd=tmp_path,  # not the checkout: its src must come from the script
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_sweep_error_outside_the_skip_rule_reaches_the_caller(tmp_path):
    # the benchmark has too few unlabeled mentions for 5000 negatives: the
    # script fails on the first cell and writes no CSV
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_sweep.py"), "--n-values", "5000", "--out", str(out)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert "need 5000 negatives" in proc.stderr
    assert not out.exists()
