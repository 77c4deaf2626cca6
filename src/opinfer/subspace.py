"""POD bases from snapshot matrices and projection onto reduced coordinates."""

import numpy as np

RANK_TOL = 1e-13  # singular values below RANK_TOL * sigma_1 do not count as rank
SIGN_TOL = 1e-8  # entries within this relative distance of a mode's largest magnitude tie
OVERSAMPLE = 10  # pod_basis finds n + OVERSAMPLE leading pairs for n modes
ITERATE_FACTOR = 8  # ... by iteration once the factor's smaller side exceeds this many times that
MAX_POWER_STEPS = 20  # an iteration not converged after this many steps gives way to the SVD
RESIDUAL_TOL = 1e-12  # relative residuals below this have reached round-off


class RankError(ValueError):
    """The snapshots have fewer independent directions than requested modes."""


class Basis:
    """Orthonormal reduced basis: columns of `matrix` ordered by singular value.

    `singular_values` keeps the leading singular values of the snapshot
    matrix the basis was cut from, for truncation diagnostics: `pod_basis`
    keeps n + OVERSAMPLE of them (fewer if the matrix is narrower).
    """

    def __init__(self, matrix, singular_values=None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] > matrix.shape[0]:
            raise ValueError(f"basis matrix must be tall, got shape {matrix.shape}")
        gram_err = np.abs(matrix.T @ matrix - np.eye(matrix.shape[1])).max()
        if gram_err > 1e-10:
            raise ValueError(f"basis columns not orthonormal (deviation {gram_err:.2e})")
        self.matrix = matrix
        self.singular_values = (
            None if singular_values is None else np.asarray(singular_values, dtype=float)
        )

    @property
    def state_dim(self):
        return self.matrix.shape[0]

    @property
    def reduced_dim(self):
        return self.matrix.shape[1]

    def truncated(self, n):
        """The leading-n-columns sub-basis."""
        if not 1 <= n <= self.reduced_dim:
            raise ValueError(f"need 1 <= n <= {self.reduced_dim}, got {n}")
        return Basis(self.matrix[:, :n], self.singular_values)


def fold_rows(rows, count=None):
    """Triangular factor R, shape (min(M, N), N), of the QR factorization of
    the leading M = `count` rows (default all) of `rows` (L, N), which are
    overwritten: R is the view of their leading min(M, N) rows.  Rows from
    M on are left as they are.

    Any rows [R_old; A] fold into the R of [S_old^T; A] when R_old is the R
    factor of S_old^T, since both have the same Gram matrix.  The rows must
    be a Fortran-ordered float64 array, which LAPACK geqrf factorizes in
    place, leaving R on and above the diagonal; the Householder vectors
    below it are zeroed column by column, so R needs no memory of its own.
    With L as geqrf's leading dimension, the M rows are factorized where
    they lie, at any M.  `np.linalg.qr` would first copy them, which doubles
    the memory of `opinf._fold`'s buffer, so geqrf is called here through
    numpy's own `numpy.linalg.lapack_lite`, a module numpy ships but does
    not list as public.  It takes C-contiguous arrays only, hence `rows.T`:
    the same memory, read by LAPACK as the L x N matrix.
    """
    from numpy.linalg import lapack_lite

    if not (isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == np.float64
            and rows.flags.f_contiguous and rows.flags.writeable):
        raise ValueError("fold_rows needs a writeable Fortran-ordered 2-D float64 array")
    L, N = rows.shape
    M = L if count is None else count
    if not 0 <= M <= L:
        raise ValueError(f"need 0 <= count <= {L}, got {count}")
    tau = np.empty(min(M, N))

    def geqrf(work, lwork):
        info = lapack_lite.dgeqrf(M, N, rows.T, L, tau, work, lwork, 0)["info"]
        if info:
            raise ValueError(f"LAPACK dgeqrf failed with info {info}")

    if M and N:
        work = np.empty(1)
        geqrf(work, -1)  # the workspace query writes the optimal size to work[0]
        lwork = max(N, int(work[0]))
        geqrf(np.empty(lwork), lwork)
    R = rows[: min(M, N)]
    for j in range(len(R) - 1):
        R[j + 1 :, j] = 0.0
    return R


def _leading_svd(A, n, k):
    """Leading left singular vectors U (N, k) and values s (k,) of A by block
    subspace iteration, or None if the n leading pairs have not converged
    within MAX_POWER_STEPS steps.

    Each step orthonormalizes Y = A W (thin QR), takes the Rayleigh-Ritz
    pairs from the thin SVD of the k x c matrix Q^T A = U~ diag(s) W^T,
    sets U = Q U~ and Y = A W for the next step (Halko, Martinsson & Tropp,
    SIAM Rev. 53(2), 2011, Alg. 4.4).  Since A^T U = W diag(s) exactly, the
    residual of a pair is ||A w_i - s_i u_i||, read off Y.  The iteration
    stops once the largest residual of the n leading pairs, relative to s_1,
    is below RESIDUAL_TOL and the step cut it by less than tenfold: it has
    reached round-off.  The start is seeded here, so a factor always gets
    the same basis.
    """
    Y = A @ np.random.default_rng(0).standard_normal((A.shape[1], k))
    previous = np.inf
    for _ in range(MAX_POWER_STEPS):
        Q = np.linalg.qr(Y)[0]
        Ut, s, Wt = np.linalg.svd(Q.T @ A, full_matrices=False)
        U = Q @ Ut
        Y = A @ Wt.T
        if s[0] == 0.0:
            return U, s
        residual = np.linalg.norm(Y[:, :n] - U[:, :n] * s[:n], axis=0).max() / s[0]
        if residual <= RESIDUAL_TOL and 10.0 * residual >= previous:
            return U, s
        previous = residual
    return None


def pod_basis(snapshots, n):
    """Leading n left singular vectors of a snapshot matrix.

    The modes come from the snapshot matrix itself, not from a Gram matrix;
    `opinf.snapshot_basis` passes R^T, the transposed R factor of S^T
    (`fold_rows`), which has the left singular vectors and the singular
    values of S.  Only the k = n + OVERSAMPLE leading pairs are computed.  A
    factor of more than ITERATE_FACTOR * k rows and columns gets them by
    subspace iteration (`_leading_svd`); a smaller factor, or one whose
    iteration does not converge, gets a thin SVD (`np.linalg.svd`, LAPACK
    gesdd), which costs about as much there.  The basis keeps the k leading
    singular values.  After an iteration the n leading ones are exact to
    round-off; the others are Ritz values, which converge more slowly and
    never exceed the true ones.
    Requesting more modes than the numerical rank (sigma_n not above
    RANK_TOL * sigma_1) is an error.  Each column's sign makes positive its
    first entry whose magnitude is within SIGN_TOL of the largest, so that
    mirror-symmetric modes, whose largest magnitudes tie up to rounding, get
    the same sign from any factorization.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.ndim != 2:
        raise ValueError(f"snapshots must be 2-D, got shape {snapshots.shape}")
    if not np.isfinite(snapshots).all():
        raise ValueError("snapshots must be finite")
    k = n + OVERSAMPLE
    leading = None
    if n >= 1 and min(snapshots.shape) > ITERATE_FACTOR * k:
        leading = _leading_svd(snapshots, n, k)
    U, s = leading or np.linalg.svd(snapshots, full_matrices=False)[:2]
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    if not 1 <= n <= rank:
        raise RankError(f"requested {n} modes but numerical rank is {rank}")
    s = s[:k]
    V = U[:, :n].copy()
    magnitudes = np.abs(V)
    lead = np.argmax(magnitudes >= (1.0 - SIGN_TOL) * magnitudes.max(axis=0), axis=0)
    V *= np.where(V[lead, np.arange(n)] < 0, -1.0, 1.0)
    return Basis(V, singular_values=s)


def basis_matrix(V):
    """The plain ndarray behind a Basis (arrays pass through unchanged)."""
    return V.matrix if isinstance(V, Basis) else np.asarray(V, dtype=float)


def project(V, X):
    """Reduced coordinates V^T X of full-dimension columns X."""
    M = basis_matrix(V)
    X = np.asarray(X, dtype=float)
    if X.shape[0] != M.shape[0]:
        raise ValueError(f"X has {X.shape[0]} rows, basis has {M.shape[0]}")
    return M.T @ X

def lift(V, Z):
    """Full-dimension reconstruction V Z of reduced columns Z."""
    M = basis_matrix(V)
    Z = np.asarray(Z, dtype=float)
    if Z.shape[0] != M.shape[1]:
        raise ValueError(f"Z has {Z.shape[0]} rows, basis has {M.shape[1]} columns")
    return M @ Z


def orthonormal_complement(V):
    """Orthonormal basis of the complement of span(V), shape (N, N - n)."""
    M = basis_matrix(V)
    return np.linalg.svd(M.T, full_matrices=True)[2][M.shape[1]:].T
