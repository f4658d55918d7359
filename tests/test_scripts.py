"""The scripts under scripts/ run from a bare checkout, as README
documents them: with no installed package and no PYTHONPATH."""

import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from reldistill.synthetic import generate_benchmark

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
    # the first variant in name order, RsCs, feeds only the Both strategy
    assert "ValueError: sweep cell RsCs/Both/N=5000: need 5000 negatives" in proc.stderr
    assert not out.exists()


def test_make_benchmark_writes_the_generators_inputs(tmp_path):
    # CI runs the staged commands on the script's output, while the golden
    # hashes pin generate_benchmark's: with only --seed given they agree
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "make_benchmark.py"), str(tmp_path / "script"),
         "--seed", "0"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    paths = generate_benchmark(str(tmp_path / "function"), seed=0)
    inputs = {key: value for key, value in asdict(paths).items() if isinstance(value, str)}
    config = json.loads((tmp_path / "script" / "config.json").read_text())
    assert config == {
        **{key: str(tmp_path / "script" / Path(value).name) for key, value in inputs.items()},
        "variant": ["Rs", "Rt"],
    }
    assert len(inputs) == 7
    for value in inputs.values():
        script_file = tmp_path / "script" / Path(value).name
        assert script_file.read_bytes() == Path(value).read_bytes(), value
