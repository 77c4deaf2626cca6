"""The package loads numpy and scipy.linalg and no other part of scipy: the
heavy subpackages below cost every command about 0.2 s and 23 MiB at start.

Each check runs in a fresh interpreter, since the test session itself
imports scipy.interpolate and scipy.sparse for its oracles.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEAVY = ("scipy.interpolate", "scipy.sparse", "scipy.optimize", "scipy.special", "scipy.spatial")


def _modules_after(code, cwd):
    """The names in sys.modules after running `code` in a fresh interpreter
    that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _check_scipy_parts(modules):
    parts = {".".join(name.split(".")[:2]) for name in modules if name.startswith("scipy.")}
    assert "scipy.linalg" in parts
    assert parts.isdisjoint(HEAVY)
    # scipy's own start-up modules are private (_lib, __config__, ...) or `version`
    public = {part for part in parts if not part.split(".")[1].startswith("_")}
    assert public <= {"scipy.linalg", "scipy.version"}


def test_cli_import_loads_no_scipy_subpackage_but_linalg(tmp_path):
    _check_scipy_parts(_modules_after("import opinfer.cli", tmp_path))


def test_parametric_study_run_loads_no_scipy_subpackage_but_linalg(tmp_path):
    # three training parameters, so the test parameters are interpolated
    code = f"""
from opinfer import cli
config = cli.default_config("burgers")
config.state_dim, config.num_steps, config.dt = 24, 300, 2e-4
config.param_count, config.num_inputs, config.nbar = 3, 2, 3
config.truncation_dims, config.num_test_params = [1, 2, 3], 3
config.out_dir = {str(tmp_path / "burgers")!r}
cli.run_study(config).write(config.out_dir)
"""
    _check_scipy_parts(_modules_after(code, tmp_path))
    assert (tmp_path / "burgers" / "metrics.csv").exists()
