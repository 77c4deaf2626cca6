"""POD bases from snapshot matrices and projection onto reduced coordinates."""

import numpy as np
import scipy.linalg as la

RANK_TOL = 1e-13  # singular values below RANK_TOL * sigma_1 do not count as rank
SIGN_TOL = 1e-8  # entries within this relative distance of a mode's largest magnitude tie


class RankError(ValueError):
    """The snapshots have fewer independent directions than requested modes."""


class Basis:
    """Orthonormal reduced basis: columns of `matrix` ordered by singular value.

    `singular_values` keeps the spectrum of the snapshot matrix the basis was
    cut from (all min(N, width) values that the factorization produced, not
    just the leading ones) for truncation diagnostics.
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


def fold_rows(rows):
    """Triangular factor R, shape (min(M, N), N), of the QR factorization of
    the rows (M, N), which are overwritten.

    Any rows [R_old; A] fold into the R of [S_old^T; A] when R_old is the R
    factor of S_old^T, since both have the same Gram matrix.  A
    Fortran-ordered `rows` is factorized in place by LAPACK geqrf; only the
    triangle is copied out, so nothing of the M x N factorization stays
    alive.
    """
    _, R = la.qr(rows, mode="raw", overwrite_a=True, check_finite=False)
    return R


def pod_basis(snapshots, n):
    """Leading n left singular vectors of a snapshot matrix.

    A thin SVD of the snapshot matrix itself (not of a Gram matrix) supplies
    the modes; `opinf.snapshot_basis` passes R^T, the transposed R factor of
    S^T (`fold_rows`), which has the left singular vectors and the singular
    values of S.  Requesting more modes than the numerical rank (singular
    values above RANK_TOL * sigma_1) is an error.  Each column's sign makes
    positive its first entry whose magnitude is within SIGN_TOL of the
    largest, so that mirror-symmetric modes, whose largest magnitudes tie up
    to rounding, get the same sign from any factorization.
    """
    snapshots = np.asarray(snapshots, dtype=float)
    if snapshots.ndim != 2:
        raise ValueError(f"snapshots must be 2-D, got shape {snapshots.shape}")
    if not np.isfinite(snapshots).all():
        raise ValueError("snapshots must be finite")
    U, s, _ = la.svd(snapshots, full_matrices=False)
    rank = int(np.count_nonzero(s > RANK_TOL * s[0])) if s.size and s[0] > 0 else 0
    if not 1 <= n <= rank:
        raise RankError(f"requested {n} modes but numerical rank is {rank}")
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
    return la.null_space(M.T)
