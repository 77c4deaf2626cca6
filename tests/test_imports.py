"""The package loads numpy and no part of scipy: scipy.linalg alone cost every
command about 0.2 s and 28 MiB at start, for factorizations numpy has.

Each check runs in a fresh interpreter, since the test session itself
imports scipy for its oracles.  With `blocked`, the interpreter first sets
sys.modules["scipy"] to None, so that any import of scipy raises, even one
that would be undone before the check reads sys.modules.

The public names of `opinfer` are pinned as well.
"""

import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import opinfer

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _modules_after(code, cwd, blocked):
    """The names in sys.modules after running `code` in a fresh interpreter
    that imports the package from src/."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    block = 'import sys\nsys.modules["scipy"] = None\n' if blocked else ""
    script = f"{block}{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


def _check_no_scipy(modules, blocked):
    loaded = [name for name in modules if name == "scipy" or name.startswith("scipy.")]
    assert loaded == (["scipy"] if blocked else []), loaded


@pytest.mark.parametrize("blocked", [False, True])
def test_cli_import_loads_no_scipy(tmp_path, blocked):
    _check_no_scipy(_modules_after("import opinfer.cli", tmp_path, blocked), blocked)


@pytest.mark.parametrize("blocked", [False, True])
def test_parametric_study_run_loads_no_scipy(tmp_path, blocked):
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
    _check_no_scipy(_modules_after(code, tmp_path, blocked), blocked)
    assert (tmp_path / "burgers" / "metrics.csv").exists()


def test_public_names_are_pinned():
    """The names that `import opinfer` offers, its submodules aside: a name
    leaves the API only together with this list."""
    names = {
        name
        for name, value in vars(opinfer).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "Basis", "DataMatrix", "FullOrderModel", "MZDecomposition", "PolynomialModel",
        "RecoveryCertificate", "Trajectory", "assemble_data_matrix", "closure_error",
        "closure_error_per_step", "compressed_dim", "galerkin_project", "infer_operators",
        "interpolate", "learn_with_reprojection", "lift", "make_burgers", "make_chafee_infante",
        "make_diffusion_reaction_2d", "make_random_polynomial", "make_toy_linear",
        "mori_zwanzig_decompose", "multiplicity", "pod_basis", "project",
        "random_input_trajectory", "reduced_simulate", "reproject_sample", "simulate",
        "truncate",
    }
