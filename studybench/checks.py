"""Output checks for one `certify` or `run` operation of the study benchmark.

Every expected value is computed here from the workload's make-up or taken
from the recovery guarantee of re-projection sampling; nothing is compared
against a stored copy of earlier CSVs.  Each check returns a list of
problems, empty when the output is right.
"""

import csv
import math
from dataclasses import dataclass

METHODS = ("intrusive", "opinf-reproj", "opinf-plain")


@dataclass(frozen=True)
class Expected:
    """What a workload's outputs must look like.

    `train_mus` and `test_mus` hold the parameter values (None for a system
    without a parameter), `pieces` the re-projected pieces per parameter and
    `horizon` their length, `traj_diff_max` the acceptance bound on the
    re-projected model's trajectory difference against the intrusive one.
    """

    train_mus: tuple
    test_mus: tuple
    dims: tuple
    nbar: int
    degree: int
    input_dim: int
    pieces: int
    horizon: int
    traj_diff_max: float

    @property
    def required(self):
        """Data rows p + sum_i C(nbar + i - 1, i): the exact-recovery column count."""
        return self.input_dim + sum(
            math.comb(self.nbar + i - 1, i) for i in range(1, self.degree + 1)
        )


def _rows(path):
    try:
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh)), None
    except OSError as err:
        return None, f"cannot read {path}: {err}"


def _mu(value):
    """Parameter key: None for 'nan', else the value rounded to 12 digits."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else round(value, 12)


def check_certify(path, expected):
    """certify.csv: one satisfied, full-rank certificate per training mu."""
    rows, problem = _rows(path)
    if problem:
        return [problem]
    problems = []
    mus = sorted((_mu(row["mu"]) for row in rows), key=str)
    want = sorted((_mu(mu) for mu in expected.train_mus), key=str)
    if mus != want:
        problems.append(f"certify.csv mus {mus}, expected {want}")
    columns = expected.pieces * expected.horizon
    for row in rows:
        label = f"certify.csv mu={row['mu']}"
        if int(row["required"]) != expected.required:
            problems.append(f"{label}: required {row['required']}, expected {expected.required}")
        if int(row["K"]) != columns:
            problems.append(f"{label}: K {row['K']}, expected {columns}")
        if int(row["rank"]) != expected.required:
            problems.append(f"{label}: rank {row['rank']} of {expected.required}")
        if row["satisfied"] != "true":
            problems.append(f"{label}: certificate not satisfied")
    return problems


def check_metrics(path, expected):
    """metrics.csv: exactly one row per (split, mu, n, method); no intrusive
    or re-projected model diverged; every re-projected model's trajectory
    difference to the intrusive model is within the acceptance bound.

    A diverged `opinf-plain` row is allowed: plain fits to projected data
    carry the closure error and can be unstable.
    """
    rows, problem = _rows(path)
    if problem:
        return [problem]
    problems = []
    want = {
        (split, _mu(mu), n, method)
        for split, mus in (("train", expected.train_mus), ("test", expected.test_mus))
        for mu in mus
        for n in expected.dims
        for method in METHODS
    }
    seen = {}
    for row in rows:
        key = (row["split"], _mu(row["mu"]), int(row["n"]), row["method"])
        seen[key] = seen.get(key, 0) + 1
        label = f"metrics.csv {key}"
        if row["method"] in ("intrusive", "opinf-reproj") and row["diverged"] != "false":
            problems.append(f"{label}: diverged")
        if row["method"] == "opinf-reproj":
            diff = float(row["traj_diff"])
            if not diff <= expected.traj_diff_max:  # also catches nan
                problems.append(
                    f"{label}: traj_diff {diff:.3g} above {expected.traj_diff_max:g}"
                )
    duplicates = sorted(key for key, count in seen.items() if count > 1)
    if duplicates:
        problems.append(f"metrics.csv repeats rows {duplicates[:3]}")
    missing = sorted(want - set(seen), key=str)
    extra = sorted(set(seen) - want, key=str)
    if missing:
        problems.append(f"metrics.csv lacks {len(missing)} rows, e.g. {missing[0]}")
    if extra:
        problems.append(f"metrics.csv has {len(extra)} unexpected rows, e.g. {extra[0]}")
    return problems
