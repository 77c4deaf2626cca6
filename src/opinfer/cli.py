"""Config-driven experiment runners that write benchmark results as CSV.

Commands: ``opinfer <toy|burgers|chafee|reaction2d|certify|run> --config
<path> [--scale desk|paper] [--seed N] [--out DIR]``.  Output schemas are
fixed: ``metrics.csv`` has header ``benchmark,nbar,n,mu,method,split,
avg_rel_error,traj_diff,diverged,residual`` and ``certify.csv`` has header
``benchmark,mu,K,required,rank,cond,satisfied``; floats are printed with 17
significant digits, so a rerun with the same config and seed is
byte-identical.  The toy benchmark runs `run_toy`, which additionally writes
its per-step series at the first truncation dimension (``toy_closure.csv``,
``toy_norms.csv``) and the conditioning/difference studies (``toy_cond.csv``
at the quarter points of K, ``toy_diff.csv``); the other benchmarks share
one pipeline, `run_study`.

Randomness derives from one base seed: the toy/custom system matrices use the
seed itself, training input trajectory l of parameter j uses seed + 1000 +
j * m' + l, the reaction2d basis input of parameter j uses seed + 700000 + j,
and test inputs use offset 500000 + i.  Exit codes: 0 success, 2 config
error (test parameters outside the range of several training parameters,
and an output directory that cannot be made or written, included; both are
found before the study runs), 3 numerical failure: an unsatisfied recovery
certificate when the config demands exact recovery, a full model that
diverges on a training or test input, or snapshots whose numerical rank is
below nbar.  Either error prints one line to stderr.
"""

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import diagnostics, fom, opinf, rom, subspace
from .fom import NumericalFailure

METRICS_HEADER = "benchmark,nbar,n,mu,method,split,avg_rel_error,traj_diff,diverged,residual"
CERTIFY_HEADER = "benchmark,mu,K,required,rank,cond,satisfied"
SCHEMA_VERSION = 1
BENCHMARKS = ("toy", "burgers", "chafee", "reaction2d", "custom")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

_TRAIN_SEED_OFFSET = 1000
_TEST_SEED_OFFSET = 500000
_BASIS_SEED_OFFSET = 700000
_KICK_SEED_OFFSET = 900000


class ConfigError(ValueError):
    """Invalid experiment configuration."""


class RecoveryError(NumericalFailure):
    """Exact recovery was requested but a certificate is unsatisfied."""


@dataclass
class ExperimentConfig:
    """Everything a benchmark run needs; JSON files override the presets.

    `param_values` overrides the equidistant grid of `param_count` values in
    the benchmark's parameter domain.  `truncation_dims` are the reduced
    dimensions evaluated, distinct and at most `nbar`; the toy writes its
    closure and norm curves at the first of them.  `reproj_horizon` caps the
    length of re-projected (and matching plain-projected) training pieces.
    `snapshot_stride` thins the POD snapshot matrix.  Every study uses the
    cubic reaction of reaction2d, a quadratic custom system with one input,
    and one basis input per parameter.
    """

    benchmark: str
    scale: str = "desk"
    seed: int = 0
    out_dir: str = "results"
    state_dim: int = None
    grid_points_per_dim: int = None
    num_steps: int = None
    dt: float = None
    param_count: int = None
    param_values: list = None
    num_inputs: int = None
    input_range: tuple = None
    nbar: int = None
    truncation_dims: list = None
    reproj_horizon: int = None
    snapshot_stride: int = 1
    num_test_params: int = None
    reproj_start_kick: float = 0.0
    require_recovery: bool = False

    def validate(self):
        if self.benchmark not in BENCHMARKS:
            raise ConfigError(f"unknown benchmark {self.benchmark!r}")
        if self.scale not in ("desk", "paper"):
            raise ConfigError(f"scale must be 'desk' or 'paper', got {self.scale!r}")
        # a field that the benchmark's preset leaves None is unused by it
        preset = default_config(self.benchmark, self.scale)
        for name, low in _INTEGER_FIELDS.items():
            value = getattr(self, name)
            used = value is not None or getattr(preset, name) is not None
            if used and not (_is_integer(value) and value >= low):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if (self.dt is not None or preset.dt is not None) and not (
            _is_real(self.dt) and self.dt > 0
        ):
            raise ConfigError(f"dt must be a finite positive number, got {self.dt!r}")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError(f"out_dir must be a non-empty string, got {self.out_dir!r}")
        if not isinstance(self.require_recovery, bool):
            raise ConfigError(f"require_recovery must be a boolean, got {self.require_recovery!r}")
        if not (_is_real(self.reproj_start_kick) and self.reproj_start_kick >= 0):
            raise ConfigError(
                f"reproj_start_kick must be a finite number >= 0, got {self.reproj_start_kick!r}"
            )
        state_dim = (
            self.grid_points_per_dim**2 if self.benchmark == "reaction2d" else self.state_dim
        )
        if self.nbar > state_dim:
            raise ConfigError(f"nbar={self.nbar} exceeds the state dimension {state_dim}")
        if not _are_integers_upto(self.truncation_dims, self.nbar):
            raise ConfigError(
                f"truncation_dims must be distinct integers in 1..nbar={self.nbar}, "
                f"got {self.truncation_dims!r}"
            )
        r = self.input_range
        if (r is not None or preset.input_range is not None) and not (
            isinstance(r, (list, tuple)) and len(r) == 2 and all(map(_is_real, r)) and r[0] < r[1]
        ):
            raise ConfigError(f"input_range must be finite [low, high] with low < high, got {r!r}")
        domain = _PARAM_DOMAINS.get(self.benchmark)
        values = self.param_values
        if domain and values is not None and not (
            isinstance(values, (list, tuple))
            and values
            and all(_is_real(mu) and domain[0] <= mu <= domain[1] for mu in values)
            and len(set(values)) == len(values)
        ):
            raise ConfigError(
                f"param_values must be distinct numbers in the {self.benchmark} "
                f"domain {domain}, got {values!r}"
            )
        # the test models interpolate between several training parameters,
        # which refuses to extrapolate (`rom.interpolate`)
        adapter = _ADAPTERS.get(self.benchmark)
        train = adapter(self).train_params() if adapter else [None]
        if len(train) > 1:
            low, high = min(train), max(train)
            outside = [mu for mu in adapter(self).test_params() if not low <= mu <= high]
            if outside:
                raise ConfigError(
                    f"test parameters {[float(mu) for mu in outside]} lie outside the "
                    f"training range [{low}, {high}]"
                )
        return self


# smallest allowed value of each integer field
_INTEGER_FIELDS = {
    "seed": 0,
    "state_dim": 1,
    "grid_points_per_dim": 1,
    "num_steps": 1,
    "param_count": 1,
    "num_inputs": 1,
    "nbar": 1,
    "reproj_horizon": 1,
    "snapshot_stride": 1,
    "num_test_params": 0,
}


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _are_integers_upto(values, high):
    """Whether `values` is a non-empty list of distinct integers in 1..high."""
    if not isinstance(values, (list, tuple)):
        return False
    in_range = all(_is_integer(v) and 1 <= v <= high for v in values)
    return in_range and 0 < len(set(values)) == len(values)


def _is_real(value):
    """A finite float or an int within the float range (not JSON Infinity)."""
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    return number and abs(value) <= sys.float_info.max


_PARAM_DOMAINS = {"burgers": (0.1, 1.0), "reaction2d": (1.0, 1.5)}


def default_config(benchmark, scale="desk"):
    """Preset configuration for a benchmark at the requested scale.

    Desk-scale presets shrink the Chafee-Infante horizon to K = 4e4 and the
    2-D grid to 32 x 32; everything else matches the full-scale study.
    """
    base = ExperimentConfig(benchmark=benchmark, scale=scale)
    if benchmark == "toy":
        base.state_dim = 10
        base.num_steps = 100
        base.nbar = 6
        base.truncation_dims = [2, 4, 6]
    elif benchmark == "burgers":
        base.state_dim = 128
        base.num_steps = 10_000
        base.dt = 1e-4
        base.param_count = 10
        base.num_inputs = 5
        base.input_range = (0.0, 10.0)
        base.nbar = 10
        base.truncation_dims = list(range(1, 11))
        base.num_test_params = 7
    elif benchmark == "chafee":
        base.state_dim = 128
        base.num_steps = 400_000 if scale == "paper" else 40_000
        base.dt = 1e-5
        base.num_inputs = 25
        base.input_range = (0.0, 10.0)
        base.nbar = 6
        base.truncation_dims = list(range(1, 7))
        base.snapshot_stride = 100 if scale == "paper" else 10
    elif benchmark == "reaction2d":
        base.grid_points_per_dim = 64 if scale == "paper" else 32
        base.num_steps = 10_000
        base.dt = 1e-2
        base.param_count = 10
        base.num_inputs = 10
        base.input_range = (1.0, 1000.0)
        base.nbar = 10
        base.truncation_dims = list(range(1, 11))
        base.reproj_horizon = 500
        base.snapshot_stride = 8 if scale == "paper" else 2
        base.num_test_params = 7
        # trajectories from the zero state leave the slaved trailing modes
        # unexplored; a small subspace kick on each piece restores full rank
        base.reproj_start_kick = 0.02
    elif benchmark == "custom":
        base.state_dim = 16
        base.num_steps = 300
        base.num_inputs = 3
        base.input_range = (-1.0, 1.0)
        base.nbar = 4
        base.truncation_dims = [1, 2, 3, 4]
    else:
        raise ConfigError(f"unknown benchmark {benchmark!r}")
    return base


def load_config(path=None, benchmark=None, scale=None, seed=None, out_dir=None):
    """Build a validated config from presets, a JSON file, and CLI overrides."""
    overrides = {}
    if path is not None:
        try:
            with open(path) as fh:
                overrides = json.load(fh)
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        except json.JSONDecodeError as err:
            raise ConfigError(f"config file is not valid JSON: {err}") from err
        if not isinstance(overrides, dict):
            raise ConfigError("config file must hold a JSON object")
        version = overrides.pop("schema_version", SCHEMA_VERSION)
        if not (_is_integer(version) and version == SCHEMA_VERSION):
            raise ConfigError(f"unsupported schema_version {version!r}")
    file_benchmark = overrides.pop("benchmark", None)
    if benchmark is None:
        benchmark = file_benchmark
    elif file_benchmark is not None and file_benchmark != benchmark:
        raise ConfigError(
            f"config file is for benchmark {file_benchmark!r}, command asked for {benchmark!r}"
        )
    if benchmark is None:
        raise ConfigError("no benchmark given (use a subcommand or a config file)")
    if scale is None:
        scale = overrides.pop("scale", "desk")
    else:
        overrides.pop("scale", None)

    config = default_config(benchmark, scale)
    known = set(asdict(config))
    unknown = set(overrides) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        if isinstance(value, list) and key == "input_range":
            value = tuple(value)
        setattr(config, key, value)
    if seed is not None:
        config.seed = seed
    if out_dir is not None:
        config.out_dir = out_dir
    return config.validate()


# ---------------------------------------------------------------------------
# Report
# ---------------------------------------------------------------------------

def _fmt(value):
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


@dataclass
class ExperimentReport:
    """All rows of one run plus provenance (config echo, seed, wall clock)."""

    benchmark: str
    config: dict
    seed: int
    metric_rows: list = field(default_factory=list)
    certificate_rows: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_clock: float = 0.0

    def write(self, out_dir):
        """Write all CSV files; returns the written paths."""
        os.makedirs(out_dir, exist_ok=True)
        tables = {
            name: (header, [[row[c] for c in header.split(",")] for row in rows])
            for name, header, rows in (
                ("metrics.csv", METRICS_HEADER, self.metric_rows),
                ("certify.csv", CERTIFY_HEADER, self.certificate_rows),
            )
            if rows
        }
        paths = []
        for name, (header, rows) in {**tables, **self.extras}.items():
            path = os.path.join(out_dir, name)
            with open(path, "w", newline="") as fh:
                fh.write(header + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
            paths.append(path)
        return paths


def _metric_row(*values):
    """A metrics.csv row from its values in header order."""
    return dict(zip(METRICS_HEADER.split(","), values))


def _certificate_row(benchmark, mu, c):
    """A certify.csv row of one recovery certificate."""
    values = (benchmark, mu, c.num_columns, c.required_columns, c.numerical_rank,
              c.condition_number, c.satisfied)
    return dict(zip(CERTIFY_HEADER.split(","), values))


# ---------------------------------------------------------------------------
# Benchmark adapters
# ---------------------------------------------------------------------------

class _Adapter:
    """Per-benchmark wiring: parameters, model factory, and seeded inputs.

    A benchmark without a parameter trains and tests at the one value None.
    """

    def __init__(self, config):
        self.config = config

    def train_params(self):
        return [None]

    def test_params(self):
        return [None]

    def factory(self, mu):
        raise NotImplementedError

    def _uniform(self, seed):
        return fom.random_input_trajectory(self.config.num_steps, 1, *self.config.input_range, seed)

    def reproj_inputs(self, j):
        seed = self.config.seed + _TRAIN_SEED_OFFSET
        return [
            self._wrap(self._uniform(seed + j * self.config.num_inputs + l))
            for l in range(self.config.num_inputs)
        ]

    def basis_inputs(self, j):
        """Inputs of the snapshot and training-evaluation simulations; None
        means the re-projection inputs."""
        return None

    def test_input(self, i):
        raise NotImplementedError

    def _wrap(self, U):
        return U


class _ParametricAdapter(_Adapter):
    """A benchmark over the scalar parameter domain _PARAM_DOMAINS[benchmark]."""

    def train_params(self):
        if self.config.param_values is not None:
            return [float(v) for v in self.config.param_values]
        return list(np.linspace(*_PARAM_DOMAINS[self.benchmark], self.config.param_count))

    def test_params(self):
        return list(np.linspace(*_PARAM_DOMAINS[self.benchmark], self.config.num_test_params))


class _BurgersAdapter(_ParametricAdapter):
    benchmark = "burgers"

    def factory(self, mu):
        return fom.make_burgers(mu, dt=self.config.dt, num_nodes=self.config.state_dim)

    def test_input(self, i):
        return np.ones((1, self.config.num_steps))


class _ChafeeAdapter(_Adapter):
    benchmark = "chafee"

    def factory(self, mu):
        return fom.make_chafee_infante(dt=self.config.dt, num_nodes=self.config.state_dim)

    def test_input(self, i):
        t = np.arange(self.config.num_steps) * self.config.dt
        return 25.0 * (np.sin(np.pi * t) + 1.0)[None, :]


class _Reaction2dAdapter(_ParametricAdapter):
    benchmark = "reaction2d"

    def factory(self, mu):
        return fom.make_diffusion_reaction_2d(
            mu,
            grid_points_per_dim=self.config.grid_points_per_dim,
            dt=self.config.dt,
        )

    def _wrap(self, U):
        return fom.with_constant_channel(U)

    def basis_inputs(self, j):
        return [self._wrap(self._uniform(self.config.seed + _BASIS_SEED_OFFSET + j))]

    def test_input(self, i):
        return self._wrap(self._uniform(self.config.seed + _TEST_SEED_OFFSET + i))


class _CustomAdapter(_Adapter):
    benchmark = "custom"

    def factory(self, mu):
        return fom.make_random_polynomial(
            self.config.state_dim, 2, input_dim=1, seed=self.config.seed
        )

    def test_input(self, i):
        return self._uniform(self.config.seed + _TEST_SEED_OFFSET + i)


_ADAPTERS = {
    "burgers": _BurgersAdapter,
    "chafee": _ChafeeAdapter,
    "reaction2d": _Reaction2dAdapter,
    "custom": _CustomAdapter,
}


# ---------------------------------------------------------------------------
# Shared pipeline machinery
# ---------------------------------------------------------------------------

def _project_pieces(models, starts, input_sets, basis, num_steps):
    """Simulate model j for `num_steps` steps from each start of starts[j]
    under the matching input of input_sets[j], and keep only each piece's
    `diagnostics.project_piece`: the projected states (nbar, steps + 1) and
    the norms the metrics need.  Returns one list of pieces per model.  All
    pieces of all models are stepped side by side as one block
    (`fom._stacked`) in windows of `fom._windows`; V^T of each window is
    written into the projected states and its squared norms are added up,
    so no more than one window of full states is held.  A diverging full
    model raises NumericalFailure naming the earliest diverged step."""
    M = basis.matrix
    step, x0, U, num_steps = fom._stacked(models, starts, input_sets, num_steps)
    count = x0.shape[1]
    # allocated before the window: allocated after it, it would sit above
    # the hole the window leaves in the heap, which malloc keeps resident
    proj = np.empty((M.shape[1], num_steps + 1, count))
    x_norms_sq = np.zeros(count)
    for k, states, diverged_at in fom._windows(step, x0, U, num_steps):
        fom._fail_if_diverged(diverged_at)
        w = states.shape[1] - 1
        proj[:, k : k + w + 1] = (M.T @ states.reshape(len(M), -1)).reshape(-1, w + 1, count)
        # x_k .. x_{k+w-1}: x_{k+w} starts the next window
        x_norms_sq += np.einsum("ikl,ikl->l", states[:, :w], states[:, :w])
    mode_norms_sq = np.einsum("ikl,ikl->il", proj[:, :num_steps], proj[:, :num_steps])
    pieces = [(proj[:, :, l], x_norms_sq[l], mode_norms_sq[:, l]) for l in range(count)]
    bounds = np.cumsum([0] + [len(inputs) for inputs in input_sets])
    return [pieces[a:b] for a, b in zip(bounds, bounds[1:])]


_METHODS = ("intrusive", "opinf-reproj", "opinf-plain")


def _evaluate(config, groups):
    """Metric rows of every group (split, mu, models, residuals, pieces,
    inputs), in turn: every model of `models` (one per method in _METHODS)
    truncated to each dimension and run from zero on `inputs`, whose
    projected full trajectories are `pieces`.  All groups are one stack of
    `rom.simulate_truncations`.  The sums of the pooled metrics of
    `diagnostics` are taken row by row over its windows, for every column
    at once: the squared errors of a column of dimension n to its projected
    piece count on its first n rows, and its differences from the intrusive
    column of its group and piece on all rows, since the rows from n on are
    zero in both.  A model has diverged when any of its pieces did;
    its sums are dropped.  The learned models are compared with the
    intrusive one unless that diverged."""
    K, dims = config.num_steps, config.truncation_dims
    n_max = max(dims)
    pieces = [piece for group in groups for piece in group[4]]
    # the stack holds the columns of each n side by side, and among them the
    # (method, piece) columns of each group, from bounds[g] on
    shapes = [(len(models), len(group_pieces)) for _, _, models, _, group_pieces, _ in groups]
    bounds = np.cumsum([0] + [J * P for J, P in shapes])
    firsts = np.cumsum([0] + [P for _, P in shapes])  # the first piece of each group
    # the piece of each column of one n, and the intrusive column of that piece
    piece_of, reference_of = (
        np.concatenate([start + np.tile(np.arange(P), J) for start, (J, P) in zip(starts, shapes)])
        for starts in (firsts, bounds)
    )
    error_sq = np.zeros((n_max, len(dims), bounds[-1]))  # per row
    diff_sq = np.zeros((len(dims), bounds[-1]))
    norm_sq = np.zeros((len(dims), bounds[-1]))
    diverged = np.zeros((len(dims), bounds[-1]), dtype=bool)
    stack = [(models, inputs) for _, _, models, _, _, inputs in groups]
    for k, states, diverged_at in rom.simulate_truncations(stack, dims, K):
        w = states.shape[1] - 1
        if diverged_at is not None:
            diverged = diverged_at.reshape(len(dims), -1) > 0
        projected = np.stack([proj[:n_max, k : k + w] for proj, _, _ in pieces], axis=-1)
        # the sums of a model that diverges, which may overflow, are dropped
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(n_max):
                # x_k .. x_{k+w-1} of row r as a (step, n, column of that n) view
                row = states[r, :w].reshape(w, len(dims), -1)
                gap = row - projected[r][:, None, piece_of]
                error_sq[r] += np.einsum("knc,knc->nc", gap, gap)
                gap = row - row[:, :, reference_of]
                diff_sq += np.einsum("knc,knc->nc", gap, gap)
                norm_sq += np.einsum("knc,knc->nc", row, row)

    # a column of dimension n errs on its first n rows only
    error_sq = np.stack([error_sq[:n, d].sum(axis=0) for d, n in enumerate(dims)])
    rows = []
    for (split, mu, _, residuals, group_pieces, _), (J, P), a, b in zip(
        groups, shapes, bounds, bounds[1:]
    ):
        def per_model(sums):
            """(n, method) sums of the (n, column) ones: over the pieces."""
            return sums[:, a:b].reshape(len(dims), J, P).sum(axis=2)

        dead = per_model(diverged) > 0
        errors = per_model(error_sq)
        diffs = per_model(diff_sq)
        references = per_model(norm_sq)[:, 0]
        ref_sq = sum(x_norm_sq for _, x_norm_sq, _ in group_pieces)
        for d, n in enumerate(dims):
            # the terms ||X_l||^2 - ||V_n^T X_l||^2 of `pooled_rel_state_error`
            rest = sum(x_norm_sq - float(np.sum(modes[:n])) for _, x_norm_sq, modes in group_pieces)
            for j, (method, residual) in enumerate(zip(_METHODS, residuals)):
                avg_rel = traj_diff = float("nan")
                if not dead[d, j]:
                    avg_rel = diagnostics.pooled_ratio((errors[d, j] + rest, ref_sq))
                    if method != "intrusive" and not dead[d, 0]:
                        traj_diff = diagnostics.pooled_ratio((diffs[d, j], references[d]))
                rows.append(
                    _metric_row(
                        config.benchmark, config.nbar, n, mu, method, split,
                        avg_rel, traj_diff, bool(dead[d, j]), residual,
                    )
                )
    return rows


def run_study(config, certify_only=False):
    """The study of the burgers, chafee, reaction2d and custom benchmarks.

    Learns with `opinf.snapshot_basis` and `opinf.fit_reprojected` (one
    certificate per training parameter), then fits the plain models to
    projected full trajectories and evaluates all three methods on the
    training inputs and, interpolated between the training parameters where
    there are several, on the test parameters.  Each pass steps every
    parameter side by side: one full-model block for the evaluation pieces
    of both splits, one for the kicked plain-fit pieces when there is a
    kick, and one reduced-model stack (`_evaluate`).  With `certify_only` it
    stops after the certificates.
    """
    start = time.perf_counter()
    adapter = _ADAPTERS[config.benchmark](config)
    params = adapter.train_params()
    report = ExperimentReport(
        benchmark=config.benchmark, config=asdict(config), seed=config.seed
    )

    foms = [adapter.factory(mu) for mu in params]
    x0 = np.zeros(foms[0].state_dim)
    reproj_inputs = [adapter.reproj_inputs(j) for j in range(len(params))]
    basis_inputs = [adapter.basis_inputs(j) or reproj_inputs[j] for j in range(len(params))]
    basis, state_scales = opinf.snapshot_basis(
        foms, [x0] * len(foms), basis_inputs, config.nbar, config.snapshot_stride
    )

    def reproj_starts(j):
        """Per-piece starts: the zero state, optionally kicked inside span(V).

        A kick of a few percent of the state scale on every reduced mode lets
        the sampled pieces explore directions that trajectories from the zero
        state leave numerically unexcited (slaved trailing modes), which is
        what keeps the data matrix at full rank.
        """
        count = len(reproj_inputs[j])
        if config.reproj_start_kick == 0.0:
            return [x0] * count
        rng = np.random.default_rng(config.seed + _KICK_SEED_OFFSET + j)
        return [
            basis.matrix
            @ (config.reproj_start_kick * state_scales[j] * rng.standard_normal(config.nbar))
            for _ in range(count)
        ]

    # the plain fit reuses the same starts so the two fits differ only in how
    # the data was sampled
    starts = [reproj_starts(j) for j in range(len(foms))]
    reproj_models, reproj_residuals, certificates = opinf.fit_reprojected(
        foms, basis, starts, reproj_inputs, config.reproj_horizon
    )
    for mu, certificate in zip(params, certificates):
        report.certificate_rows.append(_certificate_row(config.benchmark, mu, certificate))
    bad = sum(not c.satisfied for c in certificates)
    if config.require_recovery and bad:
        raise RecoveryError(f"{bad} recovery certificate(s) unsatisfied for {config.benchmark}")
    if certify_only:
        report.wall_clock = time.perf_counter() - start
        return report

    intrusive_models = [rom.galerkin_project(model, basis) for model in foms]
    K = config.num_steps
    horizon = min(config.reproj_horizon or K, K)
    test_mus = adapter.test_params()
    test_inputs = [[adapter.test_input(i)] for i in range(len(test_mus))]
    # a test parameter that is also a training one steps with its model
    by_mu = dict(zip(params, foms))
    test_foms = [by_mu[mu] if mu in by_mu else adapter.factory(mu) for mu in test_mus]
    pieces = _project_pieces(
        foms + test_foms,
        [[x0] * len(inputs) for inputs in basis_inputs + test_inputs],
        basis_inputs + test_inputs,
        basis,
        K,
    )
    # unkicked plain-fit pieces driven by the evaluation inputs are the
    # leading steps of the evaluation pieces: one full simulation serves both
    unkicked = config.reproj_start_kick == 0.0
    if unkicked and all(b is r for b, r in zip(basis_inputs, reproj_inputs)):
        plain_pieces = pieces
    else:
        plain_pieces = _project_pieces(foms, starts, reproj_inputs, basis, horizon)
    groups, plain_models = [], []
    for j, (mu, model) in enumerate(zip(params, foms)):
        projected = [proj[:, : horizon + 1] for proj, _, _ in plain_pieces[j]]
        plain, plain_residual, _ = opinf.infer_operators(
            zip(projected, reproj_inputs[j]), model.degree
        )
        plain = replace(plain, parameter=model.parameter)
        plain_models.append(plain)
        methods = (intrusive_models[j], reproj_models[j], plain)
        residuals = (None, reproj_residuals[j], plain_residual)
        groups.append(("train", mu, methods, residuals, pieces[j], basis_inputs[j]))
    del plain_pieces

    by_method = (intrusive_models, reproj_models, plain_models)
    for mu, model_pieces, inputs in zip(test_mus, pieces[len(foms) :], test_inputs):
        if len(params) > 1:
            at_mu = [rom.interpolate(params, models, mu) for models in by_method]
        else:
            at_mu = [models[0] for models in by_method]
        groups.append(("test", mu, at_mu, (None,) * len(_METHODS), model_pieces, inputs))
    report.metric_rows += _evaluate(config, groups)

    report.wall_clock = time.perf_counter() - start
    return report


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def run_toy(config):
    """Closure error, trajectory norms, conditioning, and recovery study on
    the random stable linear system."""
    start = time.perf_counter()
    N, K = config.state_dim, config.num_steps
    report = ExperimentReport(benchmark="toy", config=asdict(config), seed=config.seed)
    model = fom.make_toy_linear(N, seed=config.seed)
    x0 = np.eye(N)[:, 0]
    full = fom.simulate(model, x0, num_steps=K)
    cond_steps = sorted({max(1, q * K // 4) for q in range(1, 5)})

    cond_rows, diff_rows = [], []
    for n in config.truncation_dims:
        basis = subspace.Basis(np.eye(N)[:, :n])
        intrusive = rom.galerkin_project(model, basis)
        piece = diagnostics.project_piece(basis, full.states, K)
        proj = piece[0]
        tilde = rom.reduced_simulate(intrusive, proj[:, 0], num_steps=K)

        bar = opinf.reproject_sample(model, basis, x0, num_steps=K)
        model_r, resid_r, certificate = opinf.infer_operators(
            [(bar.states, None)], 1, "re-projected"
        )
        model_p, resid_p, _ = opinf.infer_operators([(proj, None)], 1)

        Z_r = rom.reduced_simulate(model_r, proj[:, 0], num_steps=K)
        Z_p = rom.reduced_simulate(model_p, proj[:, 0], num_steps=K)

        report.certificate_rows.append(_certificate_row("toy", None, certificate))
        for method, traj, residual in (
            ("intrusive", tilde, None),
            ("opinf-reproj", Z_r, resid_r),
            ("opinf-plain", Z_p, resid_p),
        ):
            avg_rel = traj_diff = float("nan")
            if not traj.diverged:
                Z = traj.states[:, :K]
                avg_rel = diagnostics.pooled_rel_state_error([piece], [Z])
                if method != "intrusive" and not tilde.diverged:
                    traj_diff = diagnostics.pooled_rel_difference([tilde.states[:, :K]], [Z])
            report.metric_rows.append(
                _metric_row("toy", n, n, None, method, "train",
                            avg_rel, traj_diff, traj.diverged, residual)
            )
            if method != "intrusive":
                diff_rows.append([n, method, traj_diff])

        for K_sub in cond_steps:
            sub = opinf.infer_operators([(bar.states[:, : K_sub + 1], None)], 1)[2]
            cond_rows.append([n, K_sub, sub.condition_number])

        if n == config.truncation_dims[0]:
            closure = np.linalg.norm(proj[:, :K] - tilde.states[:, :K], axis=0)
            report.extras["toy_closure.csv"] = (
                "k,closure",
                [[k, closure[k]] for k in range(K)],
            )
            norm_rows = [
                [k, np.linalg.norm(proj[:, k]), np.linalg.norm(tilde.states[:, k]),
                 _norm_or_nan(Z_p.states, k), _norm_or_nan(Z_r.states, k)]
                for k in range(K + 1)
            ]
            report.extras["toy_norms.csv"] = (
                "k,projected,intrusive,opinf_plain,opinf_reproj",
                norm_rows,
            )

    report.extras["toy_cond.csv"] = ("n,K,cond", cond_rows)
    report.extras["toy_diff.csv"] = ("n,method,diff", diff_rows)
    if config.require_recovery and any(
        not row["satisfied"] for row in report.certificate_rows
    ):
        raise RecoveryError("recovery certificate unsatisfied for toy")
    report.wall_clock = time.perf_counter() - start
    return report


def _norm_or_nan(states, k):
    return float(np.linalg.norm(states[:, k])) if k < states.shape[1] else float("nan")


def run_certify(config):
    """Certificates of the re-projected data matrices, before any learning."""
    if config.benchmark == "toy":
        report = run_toy(config)
        report.metric_rows = []
        report.extras = {}
        return report
    return run_study(config, certify_only=True)


# ---------------------------------------------------------------------------
# Command line entry point
# ---------------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="opinfer",
        description="Benchmark runners for reduced-model recovery from re-projected data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "toy": "random stable linear system study",
        "burgers": "viscous Burgers benchmark",
        "chafee": "Chafee-Infante benchmark",
        "reaction2d": "2-D diffusion-reaction benchmark",
        "certify": "recovery certificates only (benchmark from config)",
        "run": "generic pipeline (benchmark from config)",
    }
    for name, text in descriptions.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--scale", choices=("desk", "paper"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
    args = parser.parse_args(argv)

    benchmark = None if args.command in ("certify", "run") else args.command
    try:
        if benchmark is None and args.config is None:
            raise ConfigError(f"'{args.command}' needs --config naming a benchmark")
        config = load_config(
            path=args.config,
            benchmark=benchmark,
            scale=args.scale,
            seed=args.seed,
            out_dir=args.out,
        )
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG

    if args.command == "certify":
        runner = run_certify
    else:
        runner = run_toy if config.benchmark == "toy" else run_study
    try:
        # an output directory that cannot be made fails before the study
        os.makedirs(config.out_dir, exist_ok=True)
        report = runner(config)
        paths = report.write(config.out_dir)
    except OSError as err:
        print(f"output error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalFailure, subspace.RankError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL

    try:
        print(f"{config.benchmark} ({config.scale}, seed {config.seed}): "
              f"{len(report.metric_rows)} metric rows, "
              f"{len(report.certificate_rows)} certificates, "
              f"{report.wall_clock:.1f}s")
        for path in paths:
            print(f"  wrote {path}")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early (`opinfer run ... | head -1`); the
        # files are complete.  Send what is left to devnull, or the flush at
        # exit fails again.
        with contextlib.suppress(OSError, ValueError):  # no file descriptor
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
