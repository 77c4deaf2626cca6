"""Reduced polynomial models: Galerkin projection, simulation, truncation and
parameter interpolation."""

from dataclasses import dataclass

import numpy as np

from . import fom as _fom
from .polytensor import (
    compressed_dim,
    compressed_powers,
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
    how the model was obtained (one of PROVENANCES).  The operators and the
    input matrix are stored C-ordered: a product with a Fortran-ordered one,
    such as a slice of a transposed fit, rounds by the alignment of the
    vector it multiplies, so a step's bits would depend on where its state
    happens to lie.
    """

    operators: tuple
    input_matrix: np.ndarray = None
    provenance: str = "intrusive"
    parameter: float = None

    def __post_init__(self):
        object.__setattr__(
            self, "operators", tuple(np.ascontiguousarray(A, dtype=float) for A in self.operators)
        )
        if self.input_matrix is not None:
            object.__setattr__(
                self, "input_matrix", np.ascontiguousarray(self.input_matrix, dtype=float)
            )
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
        powers = compressed_powers(z, self.degree)
        out, start = self.operators[0] @ powers[: self.reduced_dim], self.reduced_dim
        for A in self.operators[1:]:
            out += A @ powers[start : start + A.shape[1]]
            start += A.shape[1]
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


def simulate_truncations(groups, dims, num_steps):
    """Every model of every group truncated to every n of `dims`, stepped
    from zero as one stack in one time loop.

    `groups` holds pairs (models, inputs): each model of a group runs on each
    of the group's m input trajectories (p, >= num_steps), or on one column
    without inputs (inputs None).  The inputs of all groups are cut to
    `num_steps` columns and stacked once, into one (p, num_steps, sum m)
    block.  The stack entries, one per (n, group, model) in that order, take
    m columns each, their own inputs, side by side in an (n_max, C) block of
    states, n_max = max(dims): C is len(dims) times the sum of
    len(models) * m over the groups.  An entry steps `truncate(model, n)`
    on the leading n rows of its columns and leaves the rows from n on
    exactly zero.

    Each model is truncated once, to n_max, and steps its columns of every
    n with those operators; after each step the rows from n on of a column
    of dimension n are set back to zero.  That is `truncate(model, n)`: the
    monomials of the trailing modes are then exactly zero, so the operator
    columns that truncation drops add exact zeros, and only the order of
    the sums in the product can round differently.  Each step forms the
    monomials and inputs [z; z^2; ..; u] of every column once, and the
    models of all groups of one input width m step as one batched product
    of their `stacked` operators [A_1 .. A_ell B], stored once per model.
    Returns the windows (k, states, diverged_at) of `fom._windows`, states
    (n_max, w+1, C).  A diverged entry only freezes its own columns.
    """
    template = groups[0][0][0]
    models = [model for group, _ in groups for model in group]
    if any((mod.degree, mod.input_dim) != (template.degree, template.input_dim) for mod in models):
        raise ValueError("models disagree in degree or input dimension")
    U = None
    widths = [1] * len(groups)
    if template.input_dim:
        if any(inputs is None for _, inputs in groups):
            raise ValueError("models have inputs; provide them for every group")
        widths = [len(inputs) for _, inputs in groups]
        U = _fom._input_block([u for _, inputs in groups for u in inputs], num_steps)
        U = _fom._input_columns(template, U, num_steps)[0]
    n_max, degree = max(dims), template.degree
    firsts = np.cumsum([0, *widths])  # the first input column of each group
    # the first state column of each group at one n
    starts = np.cumsum([0] + [len(group) * m for (group, _), m in zip(groups, widths)])
    per_n = starts[-1]  # the state columns of one n

    # per width m: the stacked operators of its models, and the state
    # columns of each model, m for each n
    products = []
    for m in sorted(set(widths)):
        members = [g for g, width in enumerate(widths) if width == m]
        operators = np.stack(
            [truncate(model, n_max).stacked() for g in members for model in groups[g][0]]
        )
        cols = np.stack([
            (per_n * np.arange(len(dims))[:, None] + starts[g] + j * m + np.arange(m)).ravel()
            for g in members
            for j in range(len(groups[g][0]))
        ])
        products.append((operators, cols))
    # the input column of every state column, and the rows to reset to zero
    input_cols = np.tile(
        np.concatenate([np.tile(first + np.arange(m), len(group))
                        for (group, _), first, m in zip(groups, firsts, widths)]),
        len(dims),
    )
    trailing = np.arange(n_max)[:, None] >= np.repeat(dims, per_n)

    def step(z, u):
        data = compressed_powers(z, degree)
        if u is not None:
            data = np.concatenate([data, u[:, input_cols]])
        out = np.empty_like(z)
        for operators, cols in products:
            # one (rows, len(dims) * m) block per model
            own = data[:, cols].transpose(1, 0, 2)
            out[:, cols] = np.matmul(operators, own).transpose(1, 0, 2)
        np.copyto(out, 0.0, where=trailing)
        return out

    return _fom._windows(step, np.zeros((n_max, per_n * len(dims))), U, num_steps)


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

    Natural cubic splines through each operator entry (`_natural_spline_weights`;
    linear when only two parameter values are given); at a parameter value
    the result is that value's model exactly.  `target` must lie inside the
    parameter range, extrapolation is refused.
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
    table = np.array([models[j].stacked() for j in order])
    stacked = np.tensordot(_natural_spline_weights(parameters[order], target), table, axes=1)

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


def _natural_spline_weights(grid, target):
    """Weights w (q,) such that sum_k w[k] y_k is the natural cubic spline
    through the points (grid[k], y_k) at `target`, for any values y_k.

    `grid` is increasing and holds `target`; h_k = grid[k+1] - grid[k].
    The second derivatives M = G y solve M_0 = M_{q-1} = 0 and, for
    0 < k < q-1,
    h_{k-1} M_{k-1} + 2 (h_{k-1} + h_k) M_k + h_k M_{k+1}
    = 6 ((y_{k+1} - y_k) / h_k - (y_k - y_{k-1}) / h_{k-1}).
    On the interval [grid[j], grid[j+1]] that holds `target` the spline is
    a y_j + b y_{j+1} + (a^3 - a) h_j^2 / 6 M_j + (b^3 - b) h_j^2 / 6 M_{j+1}
    with b = (target - grid[j]) / h_j and a = (grid[j+1] - target) / h_j;
    at a node, a or b is exactly 1 and the rest are exactly 0.
    """
    q = grid.size
    h = np.diff(grid)
    lhs, rhs = np.eye(q), np.zeros((q, q))
    for k in range(1, q - 1):
        lhs[k, k - 1 : k + 2] = h[k - 1], 2.0 * (h[k - 1] + h[k]), h[k]
        rhs[k, k - 1 : k + 2] = 6.0 / h[k - 1], -6.0 / h[k - 1] - 6.0 / h[k], 6.0 / h[k]
    G = np.linalg.solve(lhs, rhs)
    j = min(np.searchsorted(grid, target, side="right") - 1, q - 2)
    a = (grid[j + 1] - target) / h[j]
    b = (target - grid[j]) / h[j]
    w = (a**3 - a) * h[j] ** 2 / 6.0 * G[j] + (b**3 - b) * h[j] ** 2 / 6.0 * G[j + 1]
    w[j] += a
    w[j + 1] += b
    return w
