"""Spans around the layers of an opinfer study, installed from outside.

`install` replaces each layer function by a wrapper through attribute
assignment on its module or class, so nothing in the package changes.  A
span records its name, start, end, its parent span and the counts measured
at that boundary; spans are kept in memory and written out by the worker at
the end.  A layer whose function no longer exists is listed as absent.

`layer_metrics` turns the spans of one traced `run` into the per-layer
metrics named in BENCHMARK.json.  Self time is a span's duration minus the
durations of its child spans; the self times of all spans add up to the
root span, which is the traced study time.
"""

import importlib
import os
import time

MIB = 2.0**20

ROOT = "cli"  # the span around `cli.main`, parent of every layer span


def _steps(args, kwargs, trajectory):
    return {"steps": trajectory.states.shape[1] - 1}


def _snapshot_mb(args, kwargs, basis):
    snapshots = args[0] if args else kwargs["snapshots"]
    rows, cols = snapshots.shape
    return {"snapshot_mb": rows * cols * 8 / MIB}


def _data_mb(args, kwargs, data):
    rows, cols = data.matrix.shape
    return {"data_mb": rows * cols * 8 / MIB}


def _fit(args, kwargs, result):
    certificate = result[2]
    return {
        "fits": 1,
        "columns": certificate.num_columns,
        "full_rank": int(certificate.numerical_rank == certificate.required_columns),
    }


def _rom_eval(args, kwargs, result):
    history, diverged_at = result
    _, width, stored = history.shape
    return {"model_steps": width * (stored - 1), "early_stops": int(diverged_at is not None)}


def _report_bytes(args, kwargs, paths):
    return {"bytes": sum(os.path.getsize(path) for path in paths)}


# (span name, module, attribute path, counts taken from (args, kwargs, result))
# for every wrapped layer
LAYERS = (
    ("fom.simulate", "opinfer.fom", "simulate", _steps),
    ("subspace.pod_basis", "opinfer.subspace", "pod_basis", _snapshot_mb),
    ("opinf.reproject_sample", "opinfer.opinf", "reproject_sample", _steps),
    ("opinf.assemble_data_matrix", "opinfer.opinf", "assemble_data_matrix", _data_mb),
    ("opinf.infer_operators", "opinfer.opinf", "infer_operators", _fit),
    ("rom.galerkin_project", "opinfer.rom", "galerkin_project", None),
    ("rom.interpolate", "opinfer.rom", "interpolate", None),
    ("cli.rom_eval", "opinfer.cli", "_rom_histories", _rom_eval),
    ("cli.project_pieces", "opinfer.cli", "_project_pieces", None),
    ("cli.report", "opinfer.cli", "ExperimentReport.write", _report_bytes),
)


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self):
        self.spans = []  # dicts: name, start, end, parent, counts
        self._open = []  # indices of the spans that enclose the current call
        self.absent = []

    def call(self, name, fn, args=(), kwargs=None, count=None):
        kwargs = kwargs or {}
        span = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
        }
        index = len(self.spans)
        self.spans.append(span)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()
        span["counts"] = count(args, kwargs, result) if count else {}
        return result

    def install(self):
        """Wrap every layer in LAYERS that exists; note the others as absent."""
        for name, module_name, path, count in LAYERS:
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrapper(name, fn, count))

    def _wrapper(self, name, fn, count):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, count)

        traced.__wrapped__ = fn
        return traced

    def dump(self):
        return {"spans": self.spans, "absent": self.absent}


def layer_metrics(trace):
    """Per-layer metrics of one traced study from its dumped spans.

    Busy time sums each layer's span durations; counts sum over calls,
    except the computed sizes (`snapshot_mb`, `data_mb`), which take the
    largest call since peak memory follows the largest array.  Raises
    ValueError when the spans do not nest or their self times do not add up
    to the root span.
    """
    spans = trace["spans"]
    self_s = [span["end"] - span["start"] for span in spans]
    for span in spans:
        parent = span["parent"]
        if parent is None:
            continue
        outer = spans[parent]
        if not outer["start"] <= span["start"] <= span["end"] <= outer["end"]:
            raise ValueError(f"span {span['name']} is not inside {outer['name']}")
        self_s[parent] -= span["end"] - span["start"]
    roots = [i for i, span in enumerate(spans) if span["parent"] is None]
    if [spans[i]["name"] for i in roots] != [ROOT]:
        raise ValueError(f"expected one root span {ROOT!r}, got {len(roots)}")
    study_s = spans[roots[0]]["end"] - spans[roots[0]]["start"]
    if abs(sum(self_s) - study_s) > 1e-9 * max(study_s, 1.0):
        raise ValueError(f"self times add to {sum(self_s)}, study took {study_s}")

    busy, own, counts = {}, {}, {}
    for span, own_s in zip(spans, self_s):
        name = span["name"]
        busy[name] = busy.get(name, 0.0) + span["end"] - span["start"]
        own[name] = own.get(name, 0.0) + own_s
        for key, value in span["counts"].items():
            if key.endswith("_mb"):
                counts[(name, key)] = max(counts.get((name, key), 0.0), value)
            else:
                counts[(name, key)] = counts.get((name, key), 0) + value

    sim_steps = counts.get(("fom.simulate", "steps"), 0)
    sim_busy = busy.get("fom.simulate", 0.0)
    return {
        "fom.simulate.steps": sim_steps,
        "fom.simulate.busy_s": sim_busy,
        "fom.simulate.us_per_step": 1e6 * sim_busy / sim_steps if sim_steps else 0.0,
        "subspace.pod_basis.busy_s": busy.get("subspace.pod_basis", 0.0),
        "subspace.pod_basis.snapshot_mb": counts.get(("subspace.pod_basis", "snapshot_mb"), 0.0),
        "opinf.reproject_sample.steps": counts.get(("opinf.reproject_sample", "steps"), 0),
        "opinf.reproject_sample.busy_s": busy.get("opinf.reproject_sample", 0.0),
        "opinf.assemble_data_matrix.busy_s": busy.get("opinf.assemble_data_matrix", 0.0),
        "opinf.assemble_data_matrix.data_mb": counts.get(
            ("opinf.assemble_data_matrix", "data_mb"), 0.0
        ),
        "opinf.infer_operators.busy_s": busy.get("opinf.infer_operators", 0.0),
        "opinf.infer_operators.fits": counts.get(("opinf.infer_operators", "fits"), 0),
        "opinf.infer_operators.columns": counts.get(("opinf.infer_operators", "columns"), 0),
        "opinf.infer_operators.full_rank": counts.get(("opinf.infer_operators", "full_rank"), 0),
        "rom.galerkin_project.busy_s": busy.get("rom.galerkin_project", 0.0),
        "rom.interpolate.busy_s": busy.get("rom.interpolate", 0.0),
        "cli.rom_eval.busy_s": busy.get("cli.rom_eval", 0.0),
        "cli.rom_eval.model_steps": counts.get(("cli.rom_eval", "model_steps"), 0),
        "cli.rom_eval.early_stops": counts.get(("cli.rom_eval", "early_stops"), 0),
        "cli.project_pieces.self_s": own.get("cli.project_pieces", 0.0),
        "cli.report.write_s": busy.get("cli.report", 0.0),
        "cli.report.bytes": counts.get(("cli.report", "bytes"), 0),
        "cli.self_s": own[ROOT],
        "trace.study_s": study_s,
        "trace.absent_layers": len(trace["absent"]),
    }
