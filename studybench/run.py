"""Study benchmark: wall time and memory of opinfer studies through `cli.main`.

    python3 studybench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`.  One run repeats whole rounds of operations for about S seconds
(see `repeat_rounds`), each operation in a fresh worker process with BLAS
pinned to one thread, one worker at a time, and checks every output (see
checks.py).

- `--trace 0`: a round is `certify` then `run`.  Prints the medians over the
  run of `setup_s` (both workers), `learn_s` (certify), `study_s` and
  `peak_rss_mb` (run).
- `--trace 1`: a round is one untraced and one traced `run`, in alternating
  order.  Prints the medians of the per-layer metrics of the traced runs
  (see tracing.py) and `trace.overhead_s`, the median traced study time
  minus the median untraced one.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  An operation fails when its
worker exits non-zero or its outputs fail the checks; `correct` is false
when any output failed the checks.  Metric names and units come from
BENCHMARK.json.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from checks import Expected, check_certify, check_metrics
from tracing import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
OUTPUT = ".studybench"  # under the checkout root; listed in .gitignore
WORKER_TIMEOUT_S = 150

BURGERS_TRAIN = [0.1, 0.55, 1.0]
REACTION_TRAIN = [1.0, 1.25, 1.5]

# Each workload is a config for `opinfer run/certify --config` (the seed is
# added per run) and what its outputs must look like.  The make-up of each
# and the layer it stresses are recorded in README.md.
WORKLOADS = {
    "burgers-sweep": (
        {
            "benchmark": "burgers",
            "param_values": BURGERS_TRAIN,
            "num_inputs": 3,
            "num_steps": 1500,
            "snapshot_stride": 10,
            "truncation_dims": [2, 4, 6, 8, 10],
            "num_test_params": 4,
        },
        Expected(
            train_mus=tuple(BURGERS_TRAIN),
            test_mus=(0.1, 0.4, 0.7, 1.0),
            dims=(2, 4, 6, 8, 10),
            nbar=10,
            degree=2,
            input_dim=1,
            pieces=3,
            horizon=1500,
            traj_diff_max=1e-8,
        ),
    ),
    "reaction2d-wide": (
        {
            "benchmark": "reaction2d",
            "param_values": REACTION_TRAIN,
            "num_steps": 1600,
            "num_inputs": 10,
            "reproj_horizon": 300,
            "snapshot_stride": 2,
            "truncation_dims": [10],
            "num_test_params": 2,
        },
        Expected(
            train_mus=tuple(REACTION_TRAIN),
            test_mus=(1.0, 1.5),
            dims=(10,),
            nbar=10,
            degree=3,
            input_dim=2,
            pieces=10,
            horizon=300,
            traj_diff_max=1e-6,
        ),
    ),
    "chafee-long": (
        {
            "benchmark": "chafee",
            "num_inputs": 4,
            "num_steps": 8000,
            "truncation_dims": [5, 6],
        },
        Expected(
            train_mus=(None,),
            test_mus=(None,),
            dims=(5, 6),
            nbar=6,
            degree=3,
            input_dim=1,
            pieces=4,
            horizon=8000,
            traj_diff_max=1e-6,
        ),
    ),
}


class Runner:
    """Runs the operations of one benchmark run and keeps their results."""

    def __init__(self, root, out, config_path, expected):
        self.root = root
        self.out = out
        self.config_path = config_path
        self.expected = expected
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
        )
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self._sequence = 0

    def spawn(self, command, trace=False):
        """Run one worker; returns (result dict or None, problems, log path)."""
        op_dir = os.path.join(self.out, f"op{self._sequence:03d}-{command}")
        self._sequence += 1
        os.makedirs(op_dir)
        result_path = os.path.join(op_dir, "result.json")
        log_path = os.path.join(op_dir, "worker.log")
        argv = [sys.executable, WORKER, "--command", command, "--config", self.config_path,
                "--out", os.path.join(op_dir, "csv"), "--result", result_path]
        if trace:
            argv.append("--trace")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            try:
                proc = subprocess.run(argv, env=self.env, cwd=self.root, stdout=log,
                                      stderr=subprocess.STDOUT, timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                return None, [f"worker timed out after {WORKER_TIMEOUT_S} s"], log_path
        if proc.returncode != 0:
            return None, [f"worker exit {proc.returncode}"], log_path
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["setup_done"] - spawned
        result["csv"] = os.path.join(op_dir, "csv")
        expected_module = os.path.join(self.root, "src", "opinfer", "cli.py")
        if result["module"] != expected_module:
            return None, [f"imported {result['module']}, not {expected_module}"], log_path
        if result["exit"] != 0:
            return None, [f"opinfer {command} exit {result['exit']}"], log_path
        return result, [], log_path

    def operation(self, command, trace=False):
        """One checked `certify` or `run`; returns its result, or None if it failed."""
        self.attempted += 1
        result, problems, log_path = self.spawn(command, trace)
        if result is not None:
            csv_dir = result["csv"]
            problems = check_certify(os.path.join(csv_dir, "certify.csv"), self.expected)
            if command == "run":
                problems += check_metrics(os.path.join(csv_dir, "metrics.csv"), self.expected)
            if problems:
                self.wrong += 1
            else:
                shutil.rmtree(csv_dir)
        if problems:
            self.failed += 1
            print(f"{command} failed (log {log_path}):", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return None
        return result


def medians(samples):
    """Median of each metric's samples; a metric without samples is left out."""
    return {name: statistics.median(values) for name, values in samples.items() if values}


def repeat_rounds(seconds, round_fn):
    """Call round_fn(index) for whole rounds until the next round, taken to
    last as long as the one before, would end more than `seconds` after the
    first began; at least one round."""
    begin = time.monotonic()
    index = 0
    while True:
        start = time.monotonic()
        round_fn(index)
        index += 1
        now = time.monotonic()
        if 2 * now - start - begin > seconds:
            return


def measure(runner, seconds):
    samples = {"setup_s": [], "learn_s": [], "study_s": [], "peak_rss_mb": []}

    def one_round(index):
        for command in ("certify", "run"):
            result = runner.operation(command)
            if result is None:
                continue
            samples["setup_s"].append(result["setup_s"])
            span = result["end"] - result["start"]
            if command == "certify":
                samples["learn_s"].append(span)
            else:
                samples["study_s"].append(span)
                samples["peak_rss_mb"].append(result["peak_rss_mb"])

    repeat_rounds(seconds, one_round)
    return medians(samples)


def measure_traced(runner, seconds):
    traced, plain, layers = [], [], []

    def one_round(index):
        for trace in (False, True) if index % 2 == 0 else (True, False):
            result = runner.operation("run", trace=trace)
            if result is None:
                continue
            span = result["end"] - result["start"]
            if trace:
                traced.append(span)
                layers.append(layer_metrics(result["trace"]))
            else:
                plain.append(span)

    repeat_rounds(seconds, one_round)
    names = layers[0] if layers else {}
    metrics = medians({name: [layer[name] for layer in layers] for name in names})
    if traced and plain:
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "opinfer", "cli.py")):
        print("studybench: run from the root of an opinfer checkout (no src/opinfer/cli.py)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    config, expected = WORKLOADS[args.workload]
    out = os.path.join(root, OUTPUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config_path = os.path.join(out, "config.json")
    with open(config_path, "w") as fh:
        json.dump(dict(config, seed=args.seed), fh)

    runner = Runner(root, out, config_path, expected)
    # untimed warm-up: byte-compiles the package, which users pay only once
    _, problems, log_path = runner.spawn("setup")
    if problems:
        print(f"set-up failed (log {log_path}): {problems[0]}", file=sys.stderr)
        return 1
    if args.trace:
        values = measure_traced(runner, args.seconds)
    else:
        values = measure(runner, args.seconds)

    names = [metric["name"] for metric in wanted]
    if not set(values) <= set(names):
        raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json names {sorted(names)}")
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in wanted
        if metric["name"] in values
    }
    for name, metric in metrics.items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": runner.wrong == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    missing = [name for name in names if name not in metrics]
    if missing:
        print(f"studybench: no successful operation measured {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
