"""Reduced polynomial models: Galerkin projection, simulation, truncation and
parameter interpolation."""

from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from . import fom as _fom
from .polytensor import (
    compressed_dim,
    compressed_power_matrix,
    multiset_indices,
    multiplicity,
    truncation_mask,
)
from .subspace import basis_matrix

PROVENANCES = ("intrusive", "inferred-reprojected", "inferred-plain", "interpolated")


@dataclass(frozen=True)
class PolynomialModel:
    """Reduced system x_{k+1} = sum_i A_i x_k^i + B u_k on compressed powers.

    `operators[i-1]` has shape (n, compressed_dim(n, i)); `provenance` records
    how the model was obtained (one of PROVENANCES).
    """

    operators: tuple
    input_matrix: np.ndarray = None
    provenance: str = "intrusive"
    parameter: float = None

    def __post_init__(self):
        object.__setattr__(
            self, "operators", tuple(np.asarray(A, dtype=float) for A in self.operators)
        )
        if self.input_matrix is not None:
            object.__setattr__(self, "input_matrix", np.asarray(self.input_matrix, float))
        if self.provenance not in PROVENANCES:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        n = self.operators[0].shape[0]
        for i, A in enumerate(self.operators, start=1):
            expected = (n, compressed_dim(n, i))
            if A.shape != expected:
                raise ValueError(f"degree-{i} operator must have shape {expected}, got {A.shape}")
            if not np.isfinite(A).all():
                raise ValueError(f"degree-{i} operator has non-finite entries")
        if self.input_matrix is not None:
            if self.input_matrix.shape[0] != n:
                raise ValueError("input matrix row count must equal the reduced dimension")
            if not np.isfinite(self.input_matrix).all():
                raise ValueError("input matrix has non-finite entries")

    @property
    def degree(self):
        return len(self.operators)

    @property
    def reduced_dim(self):
        return self.operators[0].shape[0]

    @property
    def input_dim(self):
        return 0 if self.input_matrix is None else self.input_matrix.shape[1]

    def step(self, z, u=None):
        """One reduced time step of a state (n,) or of each column of a block
        (n, m), whose inputs are then (p, m)."""
        z = np.asarray(z, dtype=float)
        out = self.operators[0] @ z
        for i in range(2, self.degree + 1):
            out += self.operators[i - 1] @ compressed_power_matrix(z, i)
        if self.input_matrix is not None:
            out += self.input_matrix @ np.atleast_1d(np.asarray(u, dtype=float))
        return out

    def stacked(self):
        """The block matrix [A_1, ..., A_ell, B]."""
        blocks = list(self.operators)
        if self.input_matrix is not None:
            blocks.append(self.input_matrix)
        return np.hstack(blocks)


def galerkin_project(model, V):
    """Intrusive reduced operators of a full-order model on span(V).

    Column alpha = (a_1, ..., a_i) of the degree-i reduced operator is
    multiplicity(alpha) * V^T L_i(v_{a_1}, ..., v_{a_i}), which needs only
    compressed_dim(n, i) applications of the model's multilinear forms and
    never materializes a full Kronecker-space operator.
    """
    M = basis_matrix(V)
    if M.shape[0] != model.state_dim:
        raise ValueError(
            f"basis has {M.shape[0]} rows, model state dimension is {model.state_dim}"
        )
    n = M.shape[1]
    operators = []
    for i in range(1, model.degree + 1):
        idx = multiset_indices(n, i)
        A = np.empty((n, idx.shape[0]))
        for col, alpha in enumerate(idx):
            w = model.forms[i - 1](*(M[:, a] for a in alpha))
            A[:, col] = multiplicity(alpha) * (M.T @ w)
        operators.append(A)
    B = None if model.input_matrix is None else M.T @ model.input_matrix
    return PolynomialModel(
        operators=tuple(operators),
        input_matrix=B,
        provenance="intrusive",
        parameter=model.parameter,
    )


def reduced_simulate(model, z0, U=None, num_steps=None):
    """Time step a reduced model; same conventions as `fom.simulate`.

    z0 is one start (n,) with inputs (p, K), or a block of m starts (n, m)
    with inputs (p, K, m), stepped side by side into states (n, K+1, m); a
    column that turns non-finite is frozen and the others go on (see
    `fom.Trajectory`).
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.ndim not in (1, 2) or z0.shape[0] != model.reduced_dim:
        raise ValueError(f"z0 must have {model.reduced_dim} rows and 1 or 2 axes, got {z0.shape}")
    U, num_steps = _fom._input_columns(model, U, num_steps, z0)
    return _fom._run(model.step, z0, U, num_steps)


def simulate_truncations(models, dims, U, num_steps):
    """Every model of `models` truncated to every n of `dims`, stepped from
    zero as one stack in one time loop.

    Each truncated model is padded to n_max = max(dims) modes: its rows from
    n on are zero, and so are its columns outside `truncation_mask(n_max, i,
    n)`.  The M = len(dims) * len(models) padded operators are stacked in the
    order (n, model), and their states side by side as an (n_max, M * m)
    block, m being the number of input columns U (p, K, m) holds; the inputs
    broadcast over the models.  Returns the windows (k, states, diverged_at)
    of `fom._windows`, states (n_max, w+1, M * m): columns s*m .. s*m + m-1
    are stack entry s, whose trailing modes stay exactly zero, so that its
    leading n rows are the run of `truncate(model, n)`.  A diverged entry
    only freezes its own columns.
    """
    template = models[0]
    if any((mod.degree, mod.input_dim) != (template.degree, template.input_dim) for mod in models):
        raise ValueError("models disagree in degree or input dimension")
    U, num_steps = _fom._input_columns(template, U, num_steps)
    if U is not None and U.ndim != 3:
        raise ValueError(f"inputs must have shape (p, K, m), got {U.shape}")
    n_max, M = max(dims), len(dims) * len(models)
    m = 1 if U is None else U.shape[2]
    operators = [
        np.zeros((M, n_max, compressed_dim(n_max, i))) for i in range(1, template.degree + 1)
    ]
    B = None if U is None else np.zeros((M, n_max, template.input_dim))
    for s, small in enumerate(truncate(model, n) for n in dims for model in models):
        n = small.reduced_dim
        for i, (A, A_n) in enumerate(zip(operators, small.operators), start=1):
            A[s, :n][:, truncation_mask(n_max, i, n)] = A_n
        if B is not None:
            B[s, :n] = small.input_matrix

    def per_model(block):
        """Column block (rows, M*m) as one (rows, m) view per stack entry."""
        return block.reshape(-1, M, m).transpose(1, 0, 2)

    def step(z, u):
        out = np.matmul(operators[0], per_model(z))
        for i in range(2, template.degree + 1):
            out += np.matmul(operators[i - 1], per_model(compressed_power_matrix(z, i)))
        if B is not None:
            out += np.matmul(B, u)
        return out.transpose(1, 0, 2).reshape(n_max, M * m)

    return _fom._windows(step, np.zeros((n_max, M * m)), U, num_steps)


def truncate(model, new_dim):
    """Restrict a reduced model to its leading `new_dim` modes.

    Keeps the first new_dim rows of every operator and exactly the columns
    whose monomials use only the surviving modes; the surviving columns are
    already in canonical order over new_dim modes.
    """
    n = model.reduced_dim
    if not 1 <= new_dim <= n:
        raise ValueError(f"need 1 <= new_dim <= {n}, got {new_dim}")
    operators = tuple(
        A[:new_dim][:, truncation_mask(n, i, new_dim)]
        for i, A in enumerate(model.operators, start=1)
    )
    B = None if model.input_matrix is None else model.input_matrix[:new_dim]
    return PolynomialModel(
        operators=operators,
        input_matrix=B,
        provenance=model.provenance,
        parameter=model.parameter,
    )


def interpolate(parameters, models, target):
    """Entrywise spline interpolation of reduced operators over a scalar grid.

    Natural cubic splines through each operator entry (linear when only two
    parameter values are given); `target` must lie inside the parameter range,
    extrapolation is refused.
    """
    parameters = np.asarray(parameters, dtype=float)
    if parameters.ndim != 1 or parameters.size < 2:
        raise ValueError("need at least two scalar parameter values")
    if np.unique(parameters).size != parameters.size:
        raise ValueError("parameter values must be distinct")
    if len(models) != parameters.size:
        raise ValueError("one model per parameter value required")
    shapes = {(m.degree, m.reduced_dim, m.input_dim) for m in models}
    if len(shapes) != 1:
        raise ValueError(f"models disagree in (degree, n, p): {sorted(shapes)}")
    if not parameters.min() <= target <= parameters.max():
        raise ValueError(
            f"target {target} outside the sampled range "
            f"[{parameters.min()}, {parameters.max()}]; extrapolation is refused"
        )

    order = np.argsort(parameters)
    grid = parameters[order]
    table = np.array([models[j].stacked() for j in order])
    if grid.size == 2:
        w = (grid[1] - target) / (grid[1] - grid[0])
        stacked = w * table[0] + (1.0 - w) * table[1]
    else:
        stacked = CubicSpline(grid, table, axis=0, bc_type="natural")(target)

    template = models[0]
    operators, start = [], 0
    for i in range(1, template.degree + 1):
        ni = compressed_dim(template.reduced_dim, i)
        operators.append(stacked[:, start : start + ni])
        start += ni
    B = stacked[:, start:] if template.input_dim else None
    return PolynomialModel(
        operators=tuple(operators),
        input_matrix=B,
        provenance="interpolated",
        parameter=float(target),
    )
