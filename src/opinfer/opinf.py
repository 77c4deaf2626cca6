"""Operator inference from trajectory data, with and without re-projection.

Re-projection sampling alternates a single full-model time step with a
projection onto the reduced space, so the sampled sequence obeys exactly the
Markovian reduced dynamics.  Fitting operators to such data by least squares
recovers the intrusive Galerkin operators whenever the recovery certificate
holds: enough columns (K >= p + sum_i n_i) and a full-rank data matrix.
The fit streams: the data matrix is built and folded one column chunk at a
time into a triangle whose size does not depend on K (`infer_operators`).
"""

from dataclasses import dataclass, replace

import numpy as np

from . import fom as _fom
from . import subspace as _subspace
from .polytensor import compressed_dim, compressed_power_matrix
from .rom import PolynomialModel
from .subspace import basis_matrix

RANK_TOL = 1e-12  # singular values below RANK_TOL * sigma_1 do not count as rank
MEMBERSHIP_TOL = 1e-10  # relative residual allowed for x0 in span(V)
# rows of [D^T | Y^T] folded at a time, in widths of the triangle: a fold costs
# about (1 + 1 / _CHUNK_WIDTHS) times a single QR of all rows
_CHUNK_WIDTHS = 12
_SOURCES = ("projected", "re-projected")  # how the regression states were sampled


@dataclass(frozen=True)
class DataMatrix:
    """Stacked blocks [X; X^2; ...; X^ell; U] of shape (p + sum n_i, K).

    `source` records whether the states came from plain projection of a full
    trajectory or from re-projection sampling.
    """

    matrix: np.ndarray
    reduced_dim: int
    degree: int
    input_dim: int
    source: str = "projected"

    def __post_init__(self):
        if self.source not in _SOURCES:
            raise ValueError(f"unknown data source {self.source!r}")
        rows = self.input_dim + sum(
            compressed_dim(self.reduced_dim, i) for i in range(1, self.degree + 1)
        )
        if self.matrix.shape[0] != rows:
            raise ValueError(f"data matrix must have {rows} rows, got {self.matrix.shape[0]}")

    @property
    def num_columns(self):
        return self.matrix.shape[1]

    @property
    def required_columns(self):
        """Column count demanded by the exact-recovery condition."""
        return self.matrix.shape[0]


@dataclass(frozen=True)
class RecoveryCertificate:
    """Checkable conditions under which least squares returns the intrusive
    operators: enough data columns and a full-rank data matrix.

    Rank and conditioning are read off the row-equilibrated data matrix
    D_s = diag(1/w) D, where w holds the row norms of D (zero rows keep
    weight 1), so the rank decision does not depend on how the rows of X,
    X^2, ..., U happen to be scaled.  D^T = Q R11 folds chunk by chunk into
    the triangle R11 (`infer_operators`, `certify`), whose column norms are w,
    so D_s has the spectrum of R11 diag(1/w).  `singular_values` holds those
    min(K, rows) values and `condition_number` is (sigma_1 / sigma_rank)^2
    of them; the raw cond of D^T D is `diagnostics.condition_number`.
    """

    num_columns: int
    required_columns: int
    numerical_rank: int
    condition_number: float
    satisfied: bool
    singular_values: np.ndarray = None


def reproject_sample(model, V, x0, U=None, num_steps=None):
    """Sample a trajectory of the exactly-Markovian reduced dynamics.

    Starting from x0 (which must lie in span(V) up to MEMBERSHIP_TOL), each
    iteration queries the full model for a single time step at the lifted
    current reduced state and projects the result back:

        xbar_{k+1} = V^T f(V xbar_k, u_k).

    x0 is one start (N,) with inputs (p, K), or a block of m starts (N, m),
    each checked for span(V) membership, with inputs (p, K, m); a block is
    sampled side by side through the model's unchecked `block_step`.
    Returns a reduced-dimension Trajectory holding xbar_0 .. xbar_K (states
    (n, K+1) or (n, K+1, m)); its X / Y views are the regression data.
    Divergence mid-sampling yields a partial trajectory with the flag set,
    or in a block a frozen column, as in `fom.simulate`.
    """
    M = basis_matrix(V)
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != model.state_dim or M.shape[0] != model.state_dim:
        raise ValueError("x0 and basis must match the model's state dimension")
    z0 = M.T @ x0
    residual = np.linalg.norm(x0 - M @ z0, axis=0)
    outside = residual > MEMBERSHIP_TOL * (1.0 + np.linalg.norm(x0, axis=0))
    if outside.any():
        raise ValueError(
            f"x0 lies outside span(V): relative residual {residual.max():.2e}"
        )
    U, num_steps = _fom._input_columns(model, U, num_steps, x0)
    step = model.block_step

    def reduced_step(z, u):
        return M.T @ step(M @ z, u)

    return _fom._run(reduced_step, z0, U, num_steps)


def assemble_data_matrix(states, U, degree, source="projected"):
    """Stack compressed state powers and inputs into a data matrix.

    `states` holds the regression inputs x_0 .. x_{K-1} (n, K); U holds the
    matching input columns (p, K) or None.  Blocks are stacked in the order
    X, X^2, ..., X^ell, U.
    """
    states = np.asarray(states, dtype=float)
    if states.ndim != 2:
        raise ValueError(f"states must be 2-D, got shape {states.shape}")
    if not np.isfinite(states).all():
        raise ValueError("states must be finite")
    blocks = [compressed_power_matrix(states, i) for i in range(1, degree + 1)]
    p = 0
    if U is not None:
        U = np.asarray(U, dtype=float)
        if U.shape[1] != states.shape[1]:
            raise ValueError(
                f"states have {states.shape[1]} columns but U has {U.shape[1]}"
            )
        blocks.append(U)
        p = U.shape[0]
    return DataMatrix(
        matrix=np.vstack(blocks),
        reduced_dim=states.shape[0],
        degree=degree,
        input_dim=p,
        source=source,
    )


def concat_trajectories(pieces):
    """Concatenate (trajectory, inputs) pieces into one (X, Y, U) data set.

    Each piece is a pair (states, U) where states is a Trajectory or an
    (n, K_j + 1) array of consecutive states and U has at least K_j input
    columns (None for input-free systems).  The X/Y pairing is preserved per
    piece; no transition across piece boundaries is fabricated.
    """
    if not pieces:
        raise ValueError("no pieces to concatenate")
    xs, ys, us = [], [], []
    for states, U in pieces:
        if isinstance(states, _fom.Trajectory):
            states = states.states
        states = np.asarray(states, dtype=float)
        k = states.shape[1] - 1
        xs.append(states[:, :-1])
        ys.append(states[:, 1:])
        if U is not None:
            us.append(np.asarray(U, dtype=float)[:, :k])
    dims = {x.shape[0] for x in xs}
    if len(dims) != 1:
        raise ValueError(f"pieces disagree in state dimension: {sorted(dims)}")
    if us and len(us) != len(xs):
        raise ValueError("either all pieces carry inputs or none do")
    X = np.hstack(xs)
    Y = np.hstack(ys)
    U = np.hstack(us) if us else None
    return X, Y, U


def _fold(chunks, width):
    """Triangular factor R, shape (min(M, width), width), of the QR
    factorization of the M rows [A_1^T B_1^T ...; A_2^T B_2^T ...; ...] of
    the column chunks (A_c, B_c, ...) that `chunks` yields.

    Each chunk's rows are copied as it comes, since a chunk may view a
    buffer that its producer overwrites next.  Once at least `width` rows
    wait, they are stacked under R and folded into it by
    `subspace.fold_rows`, and once more at the end, so only R, fewer than
    `width` waiting rows and one chunk are held at a time.
    """
    blocks = [np.empty((0, width))]  # R, then the rows that wait
    for parts in chunks:
        blocks.append(np.hstack([part.T for part in parts]))
        del parts  # or it keeps the producer's buffer while the next is made
        if sum(map(len, blocks[1:])) >= width:
            blocks.append(_fold_rows(blocks))  # blocks is [R] again
    return _fold_rows(blocks) if any(map(len, blocks[1:])) else blocks[0]


def _fold_rows(blocks):
    """`subspace.fold_rows` of the row blocks stacked in one Fortran-ordered
    matrix; `blocks` is emptied first, so only that matrix is held in the QR."""
    rows = np.empty((sum(map(len, blocks)), blocks[0].shape[1]), order="F")
    np.concatenate(blocks, out=rows)
    blocks.clear()
    return _subspace.fold_rows(rows)


def _equilibrated_svd(R11):
    """Row norms w of D (zero rows: 1) and the thin SVD U, s, W^T of
    R11 diag(1/w), where D^T = Q R11 with orthonormal Q.

    The columns of R11 have the norms of the rows of D, and R11 diag(1/w)
    has the singular values of the row-equilibrated D_s = diag(1/w) D.
    """
    w = np.linalg.norm(R11, axis=0)
    w[w == 0.0] = 1.0
    return (w, *np.linalg.svd(R11 / w, full_matrices=False))


def certify(data):
    """Recovery certificate of a data matrix (column count, rank, conditioning).

    Rank and conditioning are those of the row-equilibrated data matrix (see
    `RecoveryCertificate`): the spectrum of R11 diag(1/w), where R11 is the
    triangle that the columns of D fold into chunk by chunk, as in
    `infer_operators`.
    """
    D = data.matrix
    length = _CHUNK_WIDTHS * len(D)
    R = _fold(((D[:, k : k + length],) for k in range(0, data.num_columns, length)), len(D))
    s = _equilibrated_svd(R)[2]
    return _certificate(s, data.num_columns, data.required_columns)


def _certificate(singular_values, num_columns, required):
    s = np.asarray(singular_values, dtype=float)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    if rank == 0:
        cond = float("inf")
    else:
        cond = float((s[0] / s[rank - 1]) ** 2)
    return RecoveryCertificate(
        num_columns=num_columns,
        required_columns=required,
        numerical_rank=rank,
        condition_number=cond,
        satisfied=bool(num_columns >= required and rank == required),
        singular_values=s,
    )


def _correction(Ot, W, s, chunks):
    """One step of corrected semi-normal equations (Bjorck, Linear Algebra
    Appl. 88/89, 1987) for O^T: with the residual gradient
    g = sum_c D_c (Y_c - O D_c)^T over the chunks (D_c, Y_c), returns
    W diag(1/s^2) W^T g, where W = diag(1/w) W_k and s = s_k.

    The correction lies in span(W), so a rank-deficient fit keeps the
    minimum norm of its equilibrated coordinates.
    """
    g = np.zeros_like(Ot)
    for D_c, Y_c in chunks:
        g += D_c @ (Y_c.T - D_c.T @ Ot)
    return W @ ((W.T @ g) / s[:, None] ** 2)


def infer_operators(X, Y, U, degree, source="projected"):
    """Least-squares operator fit min ||D^T O^T - Y^T||_F for the data matrix
    D of the states X (n, K) and inputs U (p, K) or None (see
    `assemble_data_matrix`), without forming D.

    The rows [D_c^T | Y_c^T] of each column chunk of _CHUNK_WIDTHS (r + n)
    columns, with r the rows of D, fold into one (r + n)-wide triangle
    R = [R11 R12; 0 R22] (`_fold`).  The rows of D are equilibrated,
    D_s = diag(1/w) D with w the row norms, which are the column norms of
    R11, so the rank decision (RANK_TOL * sigma_1) sees the data and not the
    relative scale of the monomial and input blocks.  With the SVD
    R11 diag(1/w) = U S W^T, cut at that rank k,
    O^T = diag(1/w) W_k S_k^-1 U_k^T R12, the minimum-norm solution in the
    equilibrated coordinates (min ||O_s||_F, not min ||O||_F); one second
    pass over the chunks refines it by `_correction`.  The normal equations,
    whose condition number is squared, are never solved alone.  The same
    spectrum gives the certificate, which is always attached, so a
    rank-deficient fit comes with an unsatisfied certificate and silent bad
    fits cannot occur.

    Returns (model, residual, certificate) where residual is the Frobenius
    norm of the regression misfit, sqrt(||R11 O^T - R12||^2 + ||R22||^2).
    """
    if source not in _SOURCES:
        raise ValueError(f"unknown data source {source!r}")
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"states must be 2-D, got shape {X.shape}")
    if Y.shape != X.shape:
        raise ValueError(f"Y must have shape {X.shape}, got {Y.shape}")
    n, K = X.shape
    p = 0
    if U is not None:
        U = np.asarray(U, dtype=float)
        if U.ndim != 2 or U.shape[1] != K:
            raise ValueError(f"states have {K} columns but U has shape {U.shape}")
        p = U.shape[0]
    r = p + sum(compressed_dim(n, i) for i in range(1, degree + 1))
    length = _CHUNK_WIDTHS * (r + n)

    def chunks():
        for k in range(0, K, length):
            cut = slice(k, k + length)
            data = assemble_data_matrix(X[:, cut], None if U is None else U[:, cut], degree)
            yield data.matrix, Y[:, cut]

    R = _fold(chunks(), r + n)
    R11, R12, R22 = R[:r, :r], R[:r, r:], R[r:, r:]
    w, U_s, s, Wt = _equilibrated_svd(R11)
    certificate = _certificate(s, K, r)
    k = certificate.numerical_rank
    W = Wt[:k].T / w[:, None]
    Ot = W @ ((U_s[:, :k].T @ R12) / s[:k, None])
    Ot += _correction(Ot, W, s[:k], chunks())
    residual = float(np.hypot(np.linalg.norm(R11 @ Ot - R12), np.linalg.norm(R22)))

    O = Ot.T
    operators, start = [], 0
    for i in range(1, degree + 1):
        ni = compressed_dim(n, i)
        operators.append(O[:, start : start + ni])
        start += ni
    B = O[:, start:] if p else None
    provenance = "inferred-reprojected" if source == "re-projected" else "inferred-plain"
    model = PolynomialModel(operators=tuple(operators), input_matrix=B, provenance=provenance)
    return model, residual, certificate


def snapshot_basis(models, starts, input_sets, nbar, snapshot_stride=1):
    """Snapshot-and-POD stage: simulate, then cut a POD basis of dimension nbar.

    Model j is simulated from starts[j] once per input trajectory in
    input_sets[j] (all of one length), all inputs side by side as one block
    stepped in windows of `fom._windows`.  The snapshot matrix S of every
    `snapshot_stride`-th column of x_0 .. x_{K-1} is never formed: each
    window's columns become rows of S^T that `_fold` folds into the
    triangular factor R of the rows so far.  Since S = R^T Q^T with
    orthonormal Q, the POD of R^T (N x min(N, width)) has the modes and the
    singular values of S.  Thinning trades basis quality for memory only:
    recovery does not depend on how the basis was obtained.

    Returns (basis, state_scales) where state_scales[j] is the largest state
    norm max_k ||x_k|| over the trajectories of model j.  A diverged
    trajectory raises `fom.NumericalFailure` at the window it diverges in,
    naming the earliest diverged step of its block, before any POD.
    """
    N = models[0].state_dim
    state_scales = np.zeros(len(models))

    def snapshot_rows():
        for j, (model, x0, inputs) in enumerate(zip(models, starts, input_sets)):
            X0 = np.column_stack([x0] * len(inputs))
            run = _fom._checked(model, X0, _fom._input_block(inputs), None)
            for k, states, diverged_at in _fom._windows(model.block_step, *run):
                _fom._fail_if_diverged(diverged_at)
                # squared norms of the columns without a temporary of the window's size
                sq_norms = np.einsum("ikl,ikl->kl", states, states)
                state_scales[j] = max(state_scales[j], float(np.sqrt(sq_norms.max())))
                # the strided columns of x_k .. x_{k+w-1}; x_{k+w} starts the next window
                yield (states[:, -k % snapshot_stride : -1 : snapshot_stride].reshape(N, -1),)
            del states  # before the next model's window buffer is made

    R = _fold(snapshot_rows(), N)
    return _subspace.pod_basis(R.T, nbar), state_scales


def fit_reprojected(models, basis, starts, input_sets, reproj_horizon=None):
    """Re-projected fit stage: one least-squares fit per model.

    Model j is sampled with re-projection from starts[j] under input_sets[j]
    (see `reprojected_data`) and its operators are fitted by
    `infer_operators`, which folds the data chunk by chunk and never forms
    the data matrix.

    Returns (models, residuals, certificates), one each per model; each
    learned model carries its full model's parameter.
    """
    learned, residuals, certificates = [], [], []
    for model, x0, inputs in zip(models, starts, input_sets):
        X, Y, U = reprojected_data(model, basis, x0, inputs, reproj_horizon)
        fitted, residual, certificate = infer_operators(X, Y, U, model.degree, "re-projected")
        learned.append(replace(fitted, parameter=model.parameter))
        residuals.append(residual)
        certificates.append(certificate)
    return learned, residuals, certificates


def learn_with_reprojection(
    fom_factory,
    parameters,
    initial_conditions,
    input_sets,
    nbar,
    reproj_horizon=None,
    snapshot_stride=1,
    basis_input_sets=None,
):
    """End-to-end pipeline: `snapshot_basis`, then `fit_reprojected`.

    For each parameter the full model is simulated once per input trajectory
    and the POD basis of dimension `nbar` is cut from all simulated states;
    each (parameter, input) pair is then re-sampled with re-projection
    (optionally only for the first `reproj_horizon` steps, which is cheaper)
    and the per-parameter concatenated data feed one least-squares problem
    each.  An initial condition is one state or one start per piece; the
    snapshot simulations use the first.

    `snapshot_stride` thins the snapshot matrix column-wise before the POD.
    When `basis_input_sets` is given, those inputs drive the basis-building
    simulations while `input_sets` drive the re-projection sampling (the 2-D
    benchmark uses one long trajectory per parameter for the basis but many
    short ones for re-projection).

    Returns (basis, models, certificates), one model and one certificate per
    parameter.  A full model that diverges in a snapshot simulation raises
    `fom.NumericalFailure`; divergence during re-projection sampling shortens
    the affected data piece and surfaces as an unsatisfied certificate
    rather than an exception.
    """
    parameters = list(parameters)
    if not (len(parameters) == len(initial_conditions) == len(input_sets)):
        raise ValueError("parameters, initial_conditions, and input_sets must align")
    if basis_input_sets is None:
        basis_input_sets = input_sets
    elif len(basis_input_sets) != len(parameters):
        raise ValueError("basis_input_sets must align with parameters")

    models = [fom_factory(mu) for mu in parameters]
    snapshot_starts = [
        x0[0] if isinstance(x0, (list, tuple)) else x0 for x0 in initial_conditions
    ]
    basis, _ = snapshot_basis(
        models, snapshot_starts, basis_input_sets, nbar, snapshot_stride
    )
    learned, _, certificates = fit_reprojected(
        models, basis, initial_conditions, input_sets, reproj_horizon
    )
    return basis, learned, certificates


def reprojected_data(model, basis, x0, inputs, reproj_horizon=None):
    """Re-projected regression data for one parameter: (X, Y, U).

    Samples one re-projected piece per input trajectory (optionally capped at
    `reproj_horizon` steps; the capped inputs must share their length), all
    side by side as one block of `reproject_sample` (whose states have only
    nbar rows), and concatenates them (`concat_trajectories`).  A piece that
    diverges is cut at its own `diverged_at`, as its single run would be;
    the others keep all their steps.  `x0` is either one initial condition
    shared by all pieces or a sequence with one start per piece (each must
    lie in span(V); varied starts enrich the data when trajectories from a
    single start leave monomial directions unexplored).
    """
    starts = list(x0) if isinstance(x0, (list, tuple)) else [x0] * len(inputs)
    if len(starts) != len(inputs):
        raise ValueError("one initial condition per input trajectory required")
    U = _fom._input_block(inputs, reproj_horizon)
    bar = reproject_sample(model, basis, np.column_stack(starts), U)
    ends = bar.diverged_at if bar.diverged else np.zeros(len(inputs), dtype=int)
    pieces = [
        (bar.states[:, : end or None, l], U[:, :, l]) for l, end in enumerate(ends)
    ]
    return concat_trajectories(pieces)
