"""Operator inference from trajectory data, with and without re-projection.

Re-projection sampling alternates a single full-model time step with a
projection onto the reduced space, so the sampled sequence obeys exactly the
Markovian reduced dynamics.  Fitting operators to such data by least squares
recovers the intrusive Galerkin operators whenever the recovery certificate
holds: enough columns (K >= p + sum_i n_i) and a full-rank data matrix.
The fit takes the trajectory pieces and streams: the data matrix is built
from views of the pieces and folded one column chunk at a time into a
triangle whose size does not depend on K (`infer_operators`).
"""

from dataclasses import dataclass, replace

import numpy as np

from . import fom as _fom
from . import subspace as _subspace
from .polytensor import compressed_dim, compressed_powers
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
    """Stacked blocks [X; X^2; ...; X^ell; U] of shape (p + sum n_i, K)."""

    matrix: np.ndarray
    reduced_dim: int
    degree: int
    input_dim: int

    def __post_init__(self):
        rows = self.input_dim + sum(
            compressed_dim(self.reduced_dim, i) for i in range(1, self.degree + 1)
        )
        if self.matrix.shape[0] != rows:
            raise ValueError(f"data matrix must have {rows} rows, got {self.matrix.shape[0]}")


@dataclass(frozen=True)
class RecoveryCertificate:
    """Checkable conditions under which least squares returns the intrusive
    operators: enough data columns and a full-rank data matrix.

    Rank and conditioning are read off the row-equilibrated data matrix
    D_s = diag(1/w) D, where w holds the row norms of D (zero rows keep
    weight 1), so the rank decision does not depend on how the rows of X,
    X^2, ..., U happen to be scaled.  D^T = Q R11 folds chunk by chunk into
    the triangle R11, whose column norms are w, so D_s has the spectrum of
    R11 diag(1/w).  `singular_values` holds those min(K, rows) values and
    `condition_number` is (sigma_1 / sigma_rank)^2 of them.  Only
    `infer_operators` makes certificates, from the triangle it solves with.
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
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != model.state_dim:
        raise ValueError("x0 and basis must match the model's state dimension")
    return _reprojected(model.block_step, V, x0, *_fom._input_columns(model, U, num_steps, x0))


def _reprojected(step, V, x0, U, num_steps):
    """`reproject_sample` of the full-model `step` from the checked starts x0
    with inputs U."""
    M = basis_matrix(V)
    if M.shape[0] != x0.shape[0]:
        raise ValueError("x0 and basis must match the model's state dimension")
    z0 = M.T @ x0
    residual = np.linalg.norm(x0 - M @ z0, axis=0)
    outside = residual > MEMBERSHIP_TOL * (1.0 + np.linalg.norm(x0, axis=0))
    if outside.any():
        raise ValueError(
            f"x0 lies outside span(V): relative residual {residual.max():.2e}"
        )

    def reduced_step(z, u):
        return M.T @ step(M @ z, u)

    return _fom._run(reduced_step, z0, U, num_steps)


def assemble_data_matrix(states, U, degree):
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
    matrix = compressed_powers(states, degree)
    p = 0
    if U is not None:
        U = np.asarray(U, dtype=float)
        if U.shape[1] != states.shape[1]:
            raise ValueError(
                f"states have {states.shape[1]} columns but U has {U.shape[1]}"
            )
        matrix = np.vstack([matrix, U])
        p = U.shape[0]
    return DataMatrix(
        matrix=matrix,
        reduced_dim=states.shape[0],
        degree=degree,
        input_dim=p,
    )


def _fold(chunks, width, waiting=None):
    """Triangular factor R, shape (min(M, width), width), of the QR
    factorization of the M rows [A_1^T B_1^T ...; A_2^T B_2^T ...; ...] of
    the column chunks (A_c, B_c, ...) that `chunks` yields.

    The rows are copied as they come, since a chunk may view a buffer that
    its producer overwrites next, straight into one preallocated
    Fortran-ordered buffer that holds `width` + `waiting` rows: by default as
    many waiting rows as fill one window of `fom._WINDOW_BYTES`, but at least
    `width`, since a fold costs about (1 + width / waiting) times the QR of
    its waiting rows alone.  Whenever the buffer is full and more rows come,
    which may split a chunk, its filled rows are folded in place by
    `subspace.fold_rows`, which leaves R at the top of the buffer.  When
    `waiting` exceeds `width`, the first fold takes the first `waiting` rows
    alone, so that chunks of `waiting` rows fold one by one; otherwise the
    first fold comes once the buffer is full: up to `width` rows fold alike
    whether or not they are folded first.  The rows that wait at the end are
    folded too.  So only the buffer and one chunk are held at a time, and
    the R returned is a view of the buffer, which lives as long as R does.
    The buffer has 8 rows more, never filled, which keep geqrf's leading
    dimension off a power of two (2N rows when `waiting` is N), where
    OpenBLAS geqrf is about a tenth slower.
    """
    waiting = waiting or max(width, _fom._WINDOW_BYTES // (8 * width))
    capacity = width + waiting
    rows = np.empty((capacity + 8, width), order="F")
    top = filled = 0  # rows of R, and of R and the rows that wait
    limit = waiting if waiting > width else capacity  # rows of the next fold
    for parts in chunks:
        done, count = 0, parts[0].shape[1]
        while done < count:
            if filled == limit:
                top = filled = len(_subspace.fold_rows(rows, filled))
                limit = capacity
            take = min(count - done, limit - filled)
            col = 0
            for part in parts:
                rows[filled : filled + take, col : col + len(part)] = part[:, done : done + take].T
                col += len(part)
            done += take
            filled += take
        # or they keep the producer's buffer while the next is made
        parts = part = None
    return _subspace.fold_rows(rows, filled) if filled > top else rows[:top]


def _equilibrated_svd(R11):
    """Row norms w of D (zero rows: 1) and the thin SVD U, s, W^T of
    R11 diag(1/w), where D^T = Q R11 with orthonormal Q.

    The columns of R11 have the norms of the rows of D, and R11 diag(1/w)
    has the singular values of the row-equilibrated D_s = diag(1/w) D.
    """
    w = np.linalg.norm(R11, axis=0)
    w[w == 0.0] = 1.0
    return (w, *np.linalg.svd(R11 / w, full_matrices=False))


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


def infer_operators(pieces, degree, source="projected"):
    """Least-squares operator fit min ||D^T O^T - Y^T||_F to the transitions
    of trajectory pieces, without forming D.

    Each piece is a pair (states, U) of consecutive states x_0 .. x_{K_l}
    (n, K_l + 1) and their inputs (p, >= K_l), or None on every piece of an
    input-free system.  Its K_l transitions pair x_k with x_{k+1}, so no
    pair crosses two pieces; a one-state piece adds none.  D holds the data
    columns of all transitions (see `assemble_data_matrix`) and Y their
    next states.

    Each piece is cut into chunks of at most _CHUNK_WIDTHS (r + n)
    transitions, with r the rows of D; D_c is built from the view
    states[:, a:b], Y_c is the view states[:, a+1:b+1], and the rows
    [D_c^T | Y_c^T] fold into one (r + n)-wide triangle
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
    rank-deficient fit (or one without transitions) comes with an
    unsatisfied certificate and silent bad fits cannot occur.

    Returns (model, residual, certificate) where residual is the Frobenius
    norm of the regression misfit, sqrt(||R11 O^T - R12||^2 + ||R22||^2).
    A fit whose operators are not finite, as from data so small that s^2
    underflows, raises `fom.NumericalFailure`.
    """
    if source not in _SOURCES:
        raise ValueError(f"unknown data source {source!r}")
    pieces = [
        (np.asarray(states, dtype=float), None if U is None else np.asarray(U, dtype=float))
        for states, U in pieces
    ]
    if not pieces:
        raise ValueError("no pieces to fit")
    for states, U in pieces:
        if states.ndim != 2 or states.shape[1] == 0:
            raise ValueError(f"piece states must be 2-D and non-empty, got shape {states.shape}")
        if U is not None and (U.ndim != 2 or U.shape[1] < states.shape[1] - 1):
            raise ValueError(
                f"a piece of {states.shape[1] - 1} transitions has inputs of shape {U.shape}"
            )
    dims = {(states.shape[0], None if U is None else U.shape[0]) for states, U in pieces}
    if len(dims) != 1:
        raise ValueError(
            f"pieces must share one state dimension and carry inputs of one dimension "
            f"or none, got (state, input) dimensions {dims}"
        )
    ((n, p),) = dims
    p = p or 0
    K = sum(states.shape[1] - 1 for states, _ in pieces)
    r = p + sum(compressed_dim(n, i) for i in range(1, degree + 1))
    length = _CHUNK_WIDTHS * (r + n)

    def chunks():
        for states, U in pieces:
            K_l = states.shape[1] - 1
            for a in range(0, K_l, length):
                b = min(a + length, K_l)
                if not np.isfinite(states[:, a : b + 1]).all():
                    raise ValueError("states must be finite")
                data = assemble_data_matrix(states[:, a:b], None if U is None else U[:, a:b], degree)
                yield data.matrix, states[:, a + 1 : b + 1]

    # a C-ordered copy of the small triangle: the column norms and products
    # below then reduce in the same order whatever layout the fold leaves
    R = np.ascontiguousarray(_fold(chunks(), r + n, length))
    R11, R12, R22 = R[:r, :r], R[:r, r:], R[r:, r:]
    w, U_s, s, Wt = _equilibrated_svd(R11)
    certificate = _certificate(s, K, r)
    k = certificate.numerical_rank
    # data near the underflow limit can leave s^2 zero: the fit then fails below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        W = Wt[:k].T / w[:, None]
        Ot = W @ ((U_s[:, :k].T @ R12) / s[:k, None])
        Ot += _correction(Ot, W, s[:k], chunks())
    if not np.isfinite(Ot).all():
        raise _fom.NumericalFailure("least-squares fit gave non-finite operators")
    residual = float(np.hypot(np.linalg.norm(R11 @ Ot - R12), np.linalg.norm(R22)))

    provenance = "inferred-reprojected" if source == "re-projected" else "inferred-plain"
    model = PolynomialModel.from_stacked(Ot.T, degree, p, provenance=provenance)
    return model, residual, certificate


def snapshot_basis(models, starts, input_sets, nbar, snapshot_stride=1):
    """Snapshot-and-POD stage: simulate, then cut a POD basis of dimension nbar.

    Model j is simulated from starts[j] once per input trajectory in
    input_sets[j] (all inputs of all models of one length), every input of
    every model side by side as one block (`fom._stacked`) stepped in
    windows of `fom._windows`.  The snapshot matrix S of every
    `snapshot_stride`-th column of x_0 .. x_{K-1} is never formed: each
    window's columns become rows of S^T that `_fold` folds into the
    triangular factor R of the rows so far.  Since S = R^T Q^T with
    orthonormal Q, R^T (N x min(N, width)) has the left singular vectors and
    the singular values of S, and `subspace.pod_basis` computes only the
    leading ones from it.  Thinning trades basis quality for memory only:
    recovery does not depend on how the basis was obtained.

    Returns (basis, state_scales) where state_scales[j] is the largest state
    norm max_k ||x_k|| over the trajectories of model j.  A diverged
    trajectory raises `fom.NumericalFailure` at the window it diverges in,
    naming the earliest diverged step of the block, before any POD.
    """
    N = models[0].state_dim
    starts = [[x0] * len(inputs) for x0, inputs in zip(starts, input_sets)]
    run = _fom._stacked(models, starts, input_sets)
    sq_scales = np.zeros(run[1].shape[1])  # the largest squared state norm of each column

    def snapshot_rows():
        for k, states, diverged_at in _fom._windows(*run):
            _fom._fail_if_diverged(diverged_at)
            # squared norms of the columns without a temporary of the window's size
            sq_norms = np.einsum("ikl,ikl->kl", states, states)
            np.maximum(sq_scales, sq_norms.max(axis=0), out=sq_scales)
            # the strided columns of x_k .. x_{k+w-1}; x_{k+w} starts the next window
            yield (states[:, -k % snapshot_stride : -1 : snapshot_stride].reshape(N, -1),)

    R = _fold(snapshot_rows(), N)
    first = np.cumsum([0] + [len(inputs) for inputs in input_sets[:-1]])
    return _subspace.pod_basis(R.T, nbar), np.sqrt(np.maximum.reduceat(sq_scales, first))


def fit_reprojected(models, basis, starts, input_sets, reproj_horizon=None):
    """Re-projected fit stage: one least-squares fit per model.

    Every model is sampled with re-projection from its starts[j] under
    input_sets[j], all side by side as one block (see `reprojected_data`),
    and the operators of each are fitted by `infer_operators`, which folds
    the data chunk by chunk and never forms the data matrix.

    Returns (models, residuals, certificates), one each per model; each
    learned model carries its full model's parameter.
    """
    learned, residuals, certificates = [], [], []
    data = reprojected_data(models, basis, starts, input_sets, reproj_horizon)
    for model, pieces in zip(models, data):
        fitted, residual, certificate = infer_operators(pieces, model.degree, "re-projected")
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
    and the pieces of each parameter feed one least-squares problem each.
    Each stage steps every parameter side by side, so the input trajectories
    of all parameters share one length.  An initial condition is one state
    or one start per piece; the snapshot simulations use the first.

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


def reprojected_data(models, basis, starts, input_sets, reproj_horizon=None):
    """The re-projected pieces (states, U) of each model, one list per model
    yielded in turn: the data of `infer_operators`.

    Samples one re-projected piece per input trajectory of input_sets[j] for
    model j (optionally capped at `reproj_horizon` steps; the capped inputs
    of all models must share their length), all pieces of all models side
    by side as one block of `fom._stacked` whose states have only nbar rows;
    each piece's states and inputs (None for an input-free model) are views
    of that block.  A piece that diverges is cut at its own `diverged_at`,
    as its single run would be; the others keep all their steps.  starts[j]
    is either one initial condition shared by the pieces of model j or a
    sequence with one start per piece (each must lie in span(V); varied
    starts enrich the data when trajectories from a single start leave
    monomial directions unexplored).
    """
    starts = [
        list(x0) if isinstance(x0, (list, tuple)) else [x0] * len(inputs)
        for x0, inputs in zip(starts, input_sets)
    ]
    step, x0, U, num_steps = _fom._stacked(models, starts, input_sets, reproj_horizon)
    bar = _reprojected(step, basis, x0, U, num_steps)
    ends = bar.diverged_at if bar.diverged else np.zeros(x0.shape[1], dtype=int)
    first = 0
    for inputs in input_sets:
        cols = range(first, first + len(inputs))
        first += len(inputs)
        yield [
            (bar.states[:, : ends[l] or None, l], None if U is None else U[:, :, l]) for l in cols
        ]
