"""The contract between the package and `studybench/tracing.py`.

The tracer wraps package functions by name and reads their arguments and
results, so a renamed layer or a changed return type shows only in a traced
run.  This runs one traced `opinfer run` through the benchmark's worker on a
small Burgers study and checks what the benchmark reads from it.
"""

import importlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STUDYBENCH = os.path.join(ROOT, "studybench")


def test_traced_run_reports_the_data_matrix_and_the_fits(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "benchmark": "burgers",
        "state_dim": 32,
        "param_values": [0.1, 1.0],
        "num_inputs": 2,
        "num_steps": 200,
        "nbar": 4,
        "truncation_dims": [2, 4],
        "num_test_params": 1,
    }))
    result = tmp_path / "result.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, os.path.join(STUDYBENCH, "worker.py"), "--command", "run",
         "--config", str(config), "--out", str(tmp_path / "csv"), "--result", str(result),
         "--trace"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    run = json.loads(result.read_text())
    assert run["exit"] == 0

    monkeypatch.syspath_prepend(STUDYBENCH)
    metrics = importlib.import_module("tracing").layer_metrics(run["trace"])
    assert metrics["opinf.assemble_data_matrix.data_mb"] > 0
    assert metrics["opinf.infer_operators.fits"] > 0
    # `cli.rom_eval` wraps `cli._rom_histories`, which no longer exists
    assert metrics["trace.absent_layers"] <= 1, run["trace"]["absent"]
