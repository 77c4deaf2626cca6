import errno
import io
import json
import sys
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from opinfer import cli, diagnostics, fom, opinf, rom, subspace


def _write_config(tmp_path, **entries):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(entries))
    return str(path)


def test_default_configs_validate():
    for benchmark in cli.BENCHMARKS:
        for scale in ("desk", "paper"):
            config = cli.default_config(benchmark, scale)
            config.validate()


def test_desk_presets_shrink_only_chafee_and_reaction2d():
    assert cli.default_config("chafee", "desk").num_steps == 40_000
    assert cli.default_config("chafee", "paper").num_steps == 400_000
    assert cli.default_config("reaction2d", "desk").grid_points_per_dim == 32
    assert cli.default_config("reaction2d", "paper").grid_points_per_dim == 64
    for benchmark in ("toy", "burgers"):
        desk = cli.default_config(benchmark, "desk")
        paper = cli.default_config(benchmark, "paper")
        assert desk.num_steps == paper.num_steps


def test_burgers_defaults_match_study_setup():
    config = cli.default_config("burgers", "paper")
    assert config.state_dim == 128
    assert config.num_steps == 10_000
    assert config.dt == 1e-4
    assert config.param_count == 10
    assert config.num_inputs == 5
    assert config.input_range == (0.0, 10.0)
    assert config.nbar == 10


def test_chafee_defaults():
    config = cli.default_config("chafee", "paper")
    assert config.num_inputs == 25
    assert config.input_range == (0.0, 10.0)
    assert config.dt == 1e-5
    assert config.num_steps == 400_000


def test_reaction2d_defaults():
    config = cli.default_config("reaction2d", "paper")
    assert config.param_count == 10
    assert config.input_range == (1.0, 1000.0)
    assert config.nbar == 10
    assert config.reproj_horizon == 500
    assert config.dt == 1e-2


def test_toy_defaults_match_setup():
    config = cli.default_config("toy", "desk")
    assert config.state_dim == 10
    assert config.num_steps == 100
    # the toy's closure and norm curves are written at the first dimension
    assert config.truncation_dims[0] == 2


def test_load_config_overrides_and_validation(tmp_path):
    path = _write_config(
        tmp_path, schema_version=1, benchmark="burgers", num_steps=500, seed=9
    )
    config = cli.load_config(path=path, benchmark="burgers")
    assert config.num_steps == 500
    assert config.seed == 9
    # CLI flags win over the file
    config = cli.load_config(path=path, benchmark="burgers", seed=11, out_dir="x")
    assert config.seed == 11
    assert config.out_dir == "x"


def test_load_config_rejects_unknown_keys(tmp_path):
    path = _write_config(tmp_path, benchmark="toy", num_stepz=5)
    with pytest.raises(cli.ConfigError):
        cli.load_config(path=path, benchmark="toy")


def test_load_config_rejects_benchmark_mismatch(tmp_path):
    path = _write_config(tmp_path, benchmark="toy")
    with pytest.raises(cli.ConfigError):
        cli.load_config(path=path, benchmark="burgers")


def test_load_config_rejects_bad_schema_version(tmp_path):
    # only the integer 1: not a bool, a float or a string that equal it
    for version in (99, True, 1.0, "1"):
        path = _write_config(tmp_path, schema_version=version, benchmark="toy")
        with pytest.raises(cli.ConfigError, match=f"schema_version {version!r}$"):
            cli.load_config(path=path, benchmark="toy")


# the config fields that every study held at one value, now constants, with
# the values the toy took for them
_REMOVED_KEYS = {"num_basis_inputs": 1, "reaction_degree": 3, "custom_degree": 2,
                 "custom_input_dim": 1, "main_dim": 2, "cond_steps": [25, 50, 75, 100]}


@pytest.mark.parametrize("key", sorted(_REMOVED_KEYS))
def test_main_refuses_a_removed_config_key(tmp_path, capsys, key):
    path = _write_config(tmp_path, benchmark="toy", **{key: _REMOVED_KEYS[key]})
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and key in err[0], err
    assert not (tmp_path / "out").exists()


def test_config_invariants():
    config = cli.default_config("burgers")
    config.truncation_dims = [11]
    with pytest.raises(cli.ConfigError):
        config.validate()
    config = cli.default_config("burgers")
    config.param_values = [2.0]
    with pytest.raises(cli.ConfigError):
        config.validate()
    config = cli.default_config("burgers")
    config.input_range = (3.0, 1.0)
    with pytest.raises(cli.ConfigError):
        config.validate()
    for benchmark, entries in _BAD_CONFIG_ENTRIES:
        config = cli.default_config(benchmark)
        for key, value in entries.items():
            setattr(config, key, value)
        with pytest.raises(cli.ConfigError):
            config.validate()


# (benchmark, entries): each set of entries makes a preset invalid
_BAD_CONFIG_ENTRIES = [
    ("custom", {"input_range": [1]}),
    ("custom", {"num_inputs": 0}),
    ("burgers", {"param_count": 0}),
    ("burgers", {"seed": -1}),
    ("burgers", {"reproj_horizon": "x"}),
    ("custom", {"nbar": 17}),  # state_dim is 16
    ("reaction2d", {"nbar": 32 * 32 + 1}),
    ("burgers", {"dt": "abc"}),
    ("custom", {"require_recovery": "no"}),
    ("toy", {"out_dir": 5}),
    ("custom", {"input_range": [0.0, float("inf")]}),
    ("custom", {"input_range": [0, 10**400]}),  # beyond the float range
    ("reaction2d", {"reproj_start_kick": float("inf")}),
    ("burgers", {"dt": float("inf")}),
    ("custom", {"truncation_dims": [2, 2, 4]}),  # a repeat would repeat metrics.csv rows
    # a grid of one node: the constructors need two
    ("burgers", {"state_dim": 1, "nbar": 1, "truncation_dims": [1], "param_count": 2}),
    ("chafee", {"state_dim": 1, "nbar": 1, "truncation_dims": [1], "snapshot_stride": 1}),
    ("reaction2d", {"grid_points_per_dim": 1, "nbar": 1, "truncation_dims": [1]}),
]


def test_main_exit_codes(tmp_path, capsys):
    # config error: unreadable file
    code = cli.main(["toy", "--config", str(tmp_path / "missing.json")])
    assert code == cli.EXIT_CONFIG
    # config error: run without config
    assert cli.main(["run"]) == cli.EXIT_CONFIG
    # config error: an invalid entry in the file
    capsys.readouterr()
    for benchmark, entries in _BAD_CONFIG_ENTRIES:
        path = _write_config(tmp_path, benchmark=benchmark, **entries)
        assert cli.main(["run", "--config", path]) == cli.EXIT_CONFIG, entries
        assert len(capsys.readouterr().err.splitlines()) == 1, entries
    # success
    out = tmp_path / "out"
    assert cli.main(["toy", "--out", str(out), "--seed", "1"]) == cli.EXIT_OK
    assert (out / "metrics.csv").exists()
    assert (out / "certify.csv").exists()
    capsys.readouterr()


def test_main_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    # too few time steps for exact recovery: K = 4 < 6 required columns
    path = _write_config(
        tmp_path,
        benchmark="custom",
        num_steps=4,
        num_inputs=1,
        state_dim=8,
        nbar=2,
        truncation_dims=[1],
        require_recovery=True,
    )
    code = cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERICAL
    # the full model diverges on a training input (after the snapshots that
    # the basis needs)
    path = _write_config(
        tmp_path,
        benchmark="custom",
        num_steps=50,
        num_inputs=2,
        input_range=[50.0, 100.0],
        state_dim=8,
        nbar=2,
        truncation_dims=[1],
    )
    capsys.readouterr()
    # the snapshot stage stops first: no POD, no overflow in a norm of huge states
    monkeypatch.setattr(subspace, "pod_basis", lambda *args: pytest.fail("POD ran"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    monkeypatch.undo()
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: full model diverged at step 17")
    assert err.count("\n") == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # two steps from the zero state give one snapshot direction, nbar = 2
    path = _write_config(
        tmp_path, benchmark="custom", num_steps=2, num_inputs=1, state_dim=8, nbar=2,
        truncation_dims=[1],
    )
    code = cli.main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERICAL
    assert "numerical rank is 1" in capsys.readouterr().err
    # inputs so small that the fit's squared singular values underflow
    for tiny in (1e-200, 1e-250):
        path = _write_config(
            tmp_path, benchmark="custom", input_range=[0.0, tiny], num_steps=20
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["run", "--config", path, "--out", str(tmp_path / "o")])
        assert code == cli.EXIT_NUMERICAL, tiny
        err = capsys.readouterr().err
        assert err == "numerical failure: least-squares fit gave non-finite operators\n"
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_main_names_the_earliest_diverged_step_of_a_block(tmp_path, capsys, monkeypatch):
    """The inputs of a parameter are simulated side by side as one block; when
    a later input diverges first, the message names its step."""
    path = _write_config(
        tmp_path, benchmark="custom", num_steps=50, num_inputs=2,
        input_range=[50.0, 100.0], state_dim=8, nbar=2, truncation_dims=[1],
    )
    unscaled = cli._CustomAdapter.reproj_inputs
    monkeypatch.setattr(
        cli._CustomAdapter,
        "reproj_inputs",
        lambda self, j: [U * c for U, c in zip(unscaled(self, j), (0.5, 3.0))],
    )
    config = cli.load_config(path)
    adapter = cli._CustomAdapter(config)
    model = adapter.factory(None)
    first, second = (
        fom.simulate(model, np.zeros(8), U).diverged_at for U in adapter.reproj_inputs(0)
    )
    assert 0 < second < first
    capsys.readouterr()
    code = cli.main(["run", "--config", path, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err == f"numerical failure: full model diverged at step {second}\n"


def test_test_parameters_outside_the_training_range_exit_two(tmp_path, capsys, monkeypatch):
    """Interpolated test models refuse to extrapolate, so a config whose
    test parameters leave the range of several training parameters exits 2
    with one stderr line before anything runs."""
    path = _write_config(
        tmp_path, benchmark="burgers", param_values=[0.3, 0.5], num_test_params=3
    )
    monkeypatch.setattr(cli, "run_study", lambda config: pytest.fail("the study ran"))
    assert cli.main(["run", "--config", path, "--out", str(tmp_path / "o")]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: test parameters [0.1, 0.55, 1.0] lie outside")
    assert err.count("\n") == 1
    # one training parameter is not interpolated; inside the range is fine
    for values, count in (([0.3], 3), ([0.1, 0.5, 1.0], 3)):
        path = _write_config(
            tmp_path, benchmark="burgers", param_values=values, num_test_params=count
        )
        assert cli.load_config(path).param_values == values


def test_main_with_an_unusable_out_exits_two_before_the_study(tmp_path, capsys, monkeypatch):
    """An --out that names a file, or a path under a file, cannot be made:
    exit 2 with one stderr line, before the study runs.  An output file
    that cannot be written after the study exits 2 the same way."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "run_toy", lambda config: pytest.fail("the study ran"))
        for out in (blocker, blocker / "sub"):
            assert cli.main(["toy", "--out", str(out)]) == cli.EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("output error: ") and err.count("\n") == 1
    (tmp_path / "out" / "metrics.csv").mkdir(parents=True)
    assert cli.main(["toy", "--out", str(tmp_path / "out")]) == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("output error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


class _ClosedStdout(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


def test_main_with_a_closed_stdout_exits_zero(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    out = tmp_path / "out"
    assert cli.main(["toy", "--out", str(out)]) == cli.EXIT_OK
    assert (out / "metrics.csv").exists() and (out / "toy_diff.csv").exists()


def test_toy_runner_outputs(tmp_path):
    config = cli.default_config("toy")
    config.out_dir = str(tmp_path / "toy")
    report = cli.run_toy(config)
    paths = report.write(config.out_dir)
    names = {p.rsplit("/", 1)[-1] for p in paths}
    assert names == {
        "metrics.csv",
        "certify.csv",
        "toy_closure.csv",
        "toy_norms.csv",
        "toy_cond.csv",
        "toy_diff.csv",
    }
    # one row per (n, method); three methods per dimension
    assert len(report.metric_rows) == 3 * len(config.truncation_dims)
    methods = {row["method"] for row in report.metric_rows}
    assert methods == {"intrusive", "opinf-reproj", "opinf-plain"}
    assert all(row["method"] != "intrusive" or row["residual"] is None
               for row in report.metric_rows)
    closure = np.loadtxt(tmp_path / "toy" / "toy_closure.csv", delimiter=",", skiprows=1)
    assert closure.shape == (config.num_steps, 2)
    assert closure[:, 1].max() > 0.0


def test_toy_runner_is_byte_identical(tmp_path):
    config = cli.default_config("toy")
    for name in ("a", "b"):
        config.out_dir = str(tmp_path / name)
        cli.run_toy(config).write(config.out_dir)
    for name in ("metrics.csv", "certify.csv", "toy_cond.csv", "toy_diff.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_toy_default_cond_steps_are_positive():
    config = cli.default_config("toy")
    config.num_steps = 3
    header, rows = cli.run_toy(config).extras["toy_cond.csv"]
    assert header == "n,K,cond"
    for n in config.truncation_dims:
        assert [K for m, K, _ in rows if m == n] == [1, 2, 3]
    assert all(np.isfinite(cond) for _, _, cond in rows)


def test_toy_cond_is_the_certificate_of_a_fit_to_the_leading_transitions(tmp_path):
    """Each cond of toy_cond.csv is, bit for bit, that of the certificate of
    `infer_operators` on the leading K transitions of the toy's re-projected
    trajectory on V_n."""
    config = cli.default_config("toy")
    cli.run_toy(config).write(str(tmp_path))
    rows = np.loadtxt(tmp_path / "toy_cond.csv", delimiter=",", skiprows=1)
    assert sorted({int(n) for n in rows[:, 0]}) == config.truncation_dims
    N = config.state_dim
    model = fom.make_toy_linear(N, seed=config.seed)
    for n, K, cond in rows:
        basis = subspace.Basis(np.eye(N)[:, : int(n)])
        bar = opinf.reproject_sample(model, basis, np.eye(N)[:, 0], num_steps=config.num_steps)
        certificate = opinf.infer_operators([(bar.states[:, : int(K) + 1], None)], 1)[2]
        assert cond == certificate.condition_number, (n, K)


def test_avg_rel_error_pools_the_training_pieces(monkeypatch):
    """On a training split of two pieces of unequal norm, the avg_rel_error
    of metrics.csv pools the same full and lifted reduced pieces,
    sqrt(sum_l ||V_n Z_l - X_l||^2 / sum_l ||X_l||^2); the mean of the
    per-piece ratios differs."""
    config = cli.default_config("custom")
    config.num_inputs = 2
    unscaled = cli._CustomAdapter.reproj_inputs
    monkeypatch.setattr(
        cli._CustomAdapter,
        "reproj_inputs",
        lambda self, j: [U * c for U, c in zip(unscaled(self, j), (1.0, 3.0))],
    )
    report = cli.run_study(config)
    errors = {
        row["n"]: row["avg_rel_error"]
        for row in report.metric_rows
        if row["split"] == "train" and row["method"] == "intrusive"
    }

    adapter = cli._CustomAdapter(config)
    model = adapter.factory(None)
    inputs = adapter.reproj_inputs(0)
    x0 = np.zeros(model.state_dim)
    basis, _ = opinf.snapshot_basis([model], [x0], [inputs], config.nbar)
    intrusive = rom.galerkin_project(model, basis)
    full = [fom.simulate(model, x0, U).X for U in inputs]
    norms = [np.linalg.norm(X) for X in full]
    assert max(norms) > 2.0 * min(norms)
    for n in config.truncation_dims:
        reduced = [
            rom.reduced_simulate(rom.truncate(intrusive, n), np.zeros(n), U).X for U in inputs
        ]
        gaps = [np.linalg.norm(basis.matrix[:, :n] @ Z - X) for X, Z in zip(full, reduced)]
        pooled = np.sqrt(sum(g**2 for g in gaps) / sum(v**2 for v in norms))
        assert errors[n] == pytest.approx(pooled, rel=1e-12)
        ratios = [g / norm for g, norm in zip(gaps, norms)]
        assert abs(np.mean(ratios) - pooled) > 1e-6 * pooled


def test_evaluate_in_piece_groups_matches_single_runs(monkeypatch):
    """`_evaluate` gives each (n, method) the pooled metrics of its single
    runs, one per piece, whether the stack is stepped in one window or in
    many; a model that diverges on one piece only is flagged."""
    config = cli.default_config("custom")
    config.num_steps, config.nbar, config.truncation_dims = 60, 4, [1, 2, 4]
    K, dims = config.num_steps, config.truncation_dims
    basis = subspace.Basis(np.eye(5)[:, :4])
    models = [
        rom.galerkin_project(fom.make_random_polynomial(5, 2, input_dim=2, seed=j), basis)
        for j in range(3)
    ]
    # a large input matrix blows the second model up on the middle piece and,
    # at n = 4, on the last: each window must keep the flags of the one before
    models[1] = replace(models[1], input_matrix=200.0 * models[1].input_matrix)
    rng = np.random.default_rng(40)
    U = rng.uniform(-1.0, 1.0, (2, K, 3))
    inputs = [a * U[:, :, l] for l, a in enumerate((0.1, 1.0, 0.5))]
    pieces = [diagnostics.project_piece(basis, rng.normal(size=(5, K + 1)), K) for _ in range(3)]

    expected = []
    for n in dims:
        runs = [
            [rom.reduced_simulate(rom.truncate(model, n), np.zeros(n), V, K) for V in inputs]
            for model in models
        ]
        diverged = [any(r.diverged for r in piece_runs) for piece_runs in runs]
        for j, piece_runs in enumerate(runs):
            avg_rel = traj_diff = float("nan")
            if not diverged[j]:
                Z = [r.states[:, :K] for r in piece_runs]
                avg_rel = diagnostics.pooled_rel_state_error(pieces, Z)
                if j and not diverged[0]:
                    R = [r.states[:, :K] for r in runs[0]]
                    traj_diff = diagnostics.pooled_rel_difference(R, Z)
            expected.append((diverged[j], avg_rel, traj_diff))
    assert [e[0] for e in expected] == [False] * 4 + [True] + [False] * 2 + [True, False]

    def evaluate():
        rows = cli._evaluate(config, [("train", None, models, (None,) * 3, pieces, inputs)])
        return [(r["diverged"], r["avg_rel_error"], r["traj_diff"]) for r in rows]

    def windows():
        return len(list(rom.simulate_truncations([(models, inputs)], dims, K)))

    assert windows() == 1
    whole = evaluate()
    # windows of 7 steps of the (4, 27) stack: the blown-up model has sums
    # from the windows before it diverges, which must be dropped
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 7 * 8 * 4 * 27)
    assert windows() == 9
    grouped = evaluate()
    for rows in (whole, grouped):
        assert [r[0] for r in rows] == [e[0] for e in expected]
        for r, e in zip(rows, expected):
            assert np.allclose(r[1:], e[1:], rtol=1e-10, atol=0.0, equal_nan=True)


def test_evaluate_over_several_groups_matches_one_call_per_group():
    """One stack over several (split, mu) groups of different piece counts
    gives the rows of one `_evaluate` per group, in the same order, with the
    same diverged flags; a model that diverges in one group only is
    flagged there."""
    config = cli.default_config("custom")
    config.num_steps, config.nbar, config.truncation_dims = 50, 4, [2, 4]
    K = config.num_steps
    basis = subspace.Basis(np.eye(5)[:, :4])
    rng = np.random.default_rng(41)
    groups = []
    for g, (split, count) in enumerate((("train", 3), ("train", 2), ("test", 1), ("test", 1))):
        full = [fom.make_random_polynomial(5, 2, input_dim=2, seed=4 * g + j) for j in range(3)]
        models = [rom.galerkin_project(model, basis) for model in full]
        scale = 60.0 if g == 2 else 1.0  # blows the learned models of one group up
        models[1:] = [replace(m, input_matrix=scale * m.input_matrix) for m in models[1:]]
        inputs = [rng.uniform(-1.0, 1.0, (2, K)) for _ in range(count)]
        pieces = [diagnostics.project_piece(basis, rng.normal(size=(5, K + 1)), K) for _ in inputs]
        groups.append((split, 0.1 * g, models, (None, 0.5, 0.25), pieces, inputs))

    def values(rows):
        keys = ("split", "mu", "n", "method", "diverged", "residual")
        return [tuple(row[key] for key in keys) for row in rows]

    stacked = cli._evaluate(config, groups)
    single = [row for group in groups for row in cli._evaluate(config, [group])]
    assert values(stacked) == values(single)
    diverged = {(r["mu"], r["method"]) for r in stacked if r["diverged"]}
    assert diverged and {mu for mu, _ in diverged} == {0.2}
    for a, b in zip(stacked, single):
        got, expected = ([row["avg_rel_error"], row["traj_diff"]] for row in (a, b))
        assert np.allclose(got, expected, rtol=1e-12, atol=0.0, equal_nan=True)


def _traced_peak(fn):
    """fn() and the tracemalloc peak of the allocations it makes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_passes_over_full_states_hold_one_window_whatever_k(monkeypatch):
    """The snapshot pass, the projected pieces and the evaluation hold one
    window of states: with N >> nbar, doubling K raises their tracemalloc
    peaks by less than a tenth of the N K m doubles of the full states it
    adds."""
    # windows of 1 MiB: 256 steps of the full block, 1365 of the model stack
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 1 << 20)
    N, nbar, m = 256, 4, 2
    model = fom.make_burgers(0.1, dt=1e-4, num_nodes=N)
    config = cli.default_config("burgers")
    config.nbar, config.truncation_dims = nbar, [1, 2, 3, 4]
    x0 = np.zeros(N)
    peaks = []
    for K in (2000, 4000):
        config.num_steps = K
        inputs = [fom.random_input_trajectory(K, 1, 0.0, 10.0, seed=l) for l in range(m)]
        (basis, _), snapshot_peak = _traced_peak(
            lambda: opinf.snapshot_basis([model], [x0], [inputs], nbar)
        )
        pieces, pieces_peak = _traced_peak(
            lambda: cli._project_pieces([model], [[x0] * m], [inputs], basis, K)[0]
        )
        models = (rom.galerkin_project(model, basis),) * 3
        _, evaluate_peak = _traced_peak(
            lambda: cli._evaluate(config, [("train", 0.1, models, (None,) * 3, pieces, inputs)])
        )
        peaks.append(np.array([snapshot_peak, pieces_peak, evaluate_peak]))
    added = N * 2000 * m * 8
    assert np.all(peaks[1] - peaks[0] < added / 10), (peaks, added)


def _small_burgers_config(tmp_path, seed=1):
    config = cli.default_config("burgers")
    config.state_dim = 24
    config.num_steps = 300
    config.dt = 2e-4
    config.param_count = 3
    config.num_inputs = 2
    config.nbar = 3
    config.truncation_dims = [1, 2, 3]
    config.num_test_params = 3
    config.seed = seed
    config.out_dir = str(tmp_path / "burgers")
    return config


def test_parametric_pipeline_row_structure(tmp_path):
    config = _small_burgers_config(tmp_path)
    report = cli.run_study(config)
    # train rows: m params x dims x 3 methods; test rows: m_test x dims x 3
    expected = 3 * 3 * 3 + 3 * 3 * 3
    assert len(report.metric_rows) == expected
    seen = {
        (row["n"], row["mu"], row["method"], row["split"])
        for row in report.metric_rows
    }
    assert len(seen) == expected
    assert len(report.certificate_rows) == 3
    assert all(row["satisfied"] for row in report.certificate_rows)
    # re-projection recovery: learned model tracks the intrusive one
    for row in report.metric_rows:
        if row["method"] == "opinf-reproj" and not row["diverged"]:
            assert row["traj_diff"] <= 1e-8


def test_parametric_pipeline_byte_identical(tmp_path):
    for name in ("a", "b"):
        config = _small_burgers_config(tmp_path)
        config.out_dir = str(tmp_path / name)
        cli.run_study(config).write(config.out_dir)
    for name in ("metrics.csv", "certify.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_pipeline_simulates_each_training_input_twice(tmp_path, monkeypatch):
    # Once for the snapshots and once for the plain fit and the training
    # evaluation together; once per test parameter, with the training
    # evaluation.  Each pass steps every input of every parameter as one
    # block of starts (N, m): m trajectories.  Full-model runs are the
    # stepping loops whose starts have N rows.
    calls = []
    windows = cli.fom._windows
    config = _small_burgers_config(tmp_path)

    def counting_windows(step, x0, *args, **kwargs):
        if np.shape(x0)[0] == config.state_dim:
            calls.append(np.shape(x0)[1] if np.ndim(x0) == 2 else 1)
        return windows(step, x0, *args, **kwargs)

    monkeypatch.setattr(cli.fom, "_windows", counting_windows)
    cli.run_study(config)
    assert sum(calls) == 2 * 3 * 2 + 3  # 3 parameters x 2 inputs, 3 test parameters
    assert len(calls) == 2  # one block for the snapshots, one for the evaluation pieces


def test_learn_with_reprojection_matches_the_certify_pipeline(tmp_path):
    config = _small_burgers_config(tmp_path)
    config.snapshot_stride = 3
    config.reproj_horizon = 120
    adapter = cli._BurgersAdapter(config)
    params = adapter.train_params()
    _, _, certificates = opinf.learn_with_reprojection(
        adapter.factory,
        params,
        [np.zeros(config.state_dim)] * len(params),
        [adapter.reproj_inputs(j) for j in range(len(params))],
        config.nbar,
        reproj_horizon=config.reproj_horizon,
        snapshot_stride=config.snapshot_stride,
    )
    rows = cli.run_certify(config).certificate_rows
    assert [cli._certificate_row("burgers", mu, c) for mu, c in zip(params, certificates)] == rows


def test_kicked_pipeline_fits_plain_models_from_the_kicked_starts(tmp_path):
    # Non-zero start kicks give one start per piece; the plain fit must take
    # the same per-piece starts as the re-projected fit.
    config = cli.default_config("reaction2d")
    config.grid_points_per_dim = 8
    config.num_steps = 300
    config.param_count = 2
    config.num_inputs = 3
    config.nbar = 3
    config.truncation_dims = [1, 2, 3]
    config.reproj_horizon = 100
    config.snapshot_stride = 1
    config.num_test_params = 2
    config.reproj_start_kick = 0.02
    config.seed = 123
    report = cli.run_study(config)
    # train: 2 params x 3 dims x 3 methods; test: 2 params x 3 dims x 3 methods
    assert len(report.metric_rows) == 36
    assert [(row["rank"], row["required"]) for row in report.certificate_rows] == [
        (21, 21),
        (21, 21),
    ]
    assert all(row["satisfied"] for row in report.certificate_rows)
    reproj = [row for row in report.metric_rows if row["method"] == "opinf-reproj"]
    assert all(not row["diverged"] and row["traj_diff"] <= 1e-8 for row in reproj)


def test_certify_only_pipeline(tmp_path):
    config = _small_burgers_config(tmp_path)
    report = cli.run_certify(config)
    assert report.metric_rows == []
    assert len(report.certificate_rows) == 3
    row = report.certificate_rows[0]
    assert row["K"] == 2 * 300  # m' = 2 pieces
    assert row["required"] == 3 + 6 + 1  # n1 + n2 + p
    assert row["rank"] == row["required"]


def test_certify_detects_too_few_columns(tmp_path):
    config = _small_burgers_config(tmp_path)
    config.num_steps = 4  # 2 pieces x 4 steps = 8 < 10 required
    report = cli.run_certify(config)
    assert all(not row["satisfied"] for row in report.certificate_rows)


def test_float_formatting_has_17_significant_digits():
    assert cli._fmt(1.0 / 3.0) == "0.33333333333333331"
    assert cli._fmt(float("nan")) == "nan"
    assert cli._fmt(True) == "true"
    assert cli._fmt(None) == "nan"
    assert cli._fmt(7) == "7"
