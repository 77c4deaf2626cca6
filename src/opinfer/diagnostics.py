"""Error metrics, closure error, and the Mori-Zwanzig split of projected
linear dynamics.

The metrics are pooled over the pieces of one model
(`pooled_rel_state_error`, `pooled_rel_difference`); `cli._evaluate` takes
the same sums over the time windows of its stack and shares `pooled_ratio`
with them.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fom as _fom
from .subspace import basis_matrix, orthonormal_complement


def _states(traj):
    return traj.states if isinstance(traj, _fom.Trajectory) else np.asarray(traj, dtype=float)


def closure_error(projected, reduced):
    """Frobenius norm of the gap between a projected and a reduced trajectory.

    Non-zero in general: projected full dynamics are non-Markovian in the
    reduced space, the reduced model is Markovian.  Zero (to round-off) when
    the first argument is a re-projected trajectory.
    """
    P, R = _states(projected), _states(reduced)
    if P.shape != R.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {R.shape}")
    return float(np.linalg.norm(P - R))


def closure_error_per_step(projected, reduced):
    """2-norm of the per-column gap, one value per time step."""
    P, R = _states(projected), _states(reduced)
    if P.shape != R.shape:
        raise ValueError(f"shape mismatch: {P.shape} vs {R.shape}")
    return np.linalg.norm(P - R, axis=0)


def project_piece(V, X, num_steps):
    """(V^T X, ||X||_F^2, squared row norms of V^T X) of a full trajectory X
    (N, K+1), norms over its leading `num_steps` columns: all that
    `pooled_rel_state_error` needs of X."""
    X = np.asarray(X, dtype=float)
    proj = basis_matrix(V).T @ X
    return proj, float(np.sum(X[:, :num_steps] ** 2)), np.sum(proj[:, :num_steps] ** 2, axis=1)


def pooled_rel_state_error(pieces, reduced):
    """Relative state error sqrt(sum_l ||V_n Z_l - X_l||_F^2 / sum_l ||X_l||_F^2)
    of reduced trajectories Z_l (n, K_l): the paper's ||X - V_n Z||_F / ||X||_F
    with the pieces l of one model side by side.  `pieces` holds `project_piece`
    of each X_l, and V_n is the leading n columns of their orthonormal basis.

    The split ||V_n Z - X||^2 = ||Z - V_n^T X||^2 + ||X||^2 - ||V_n^T X||^2
    never lifts Z, but its last two terms cancel: relative errors below about
    1e-8 are lost in round-off, and a negative sum is clamped to 0.
    `cli._evaluate` takes the same sums over the windows of its stack.
    """
    err_sq = ref_sq = 0.0
    for (proj, x_norm_sq, mode_norms_sq), Z in zip(pieces, reduced):
        n, K = Z.shape
        if n > proj.shape[0]:
            raise ValueError(f"Z has {n} rows, basis has {proj.shape[0]} columns")
        err_sq += float(np.sum((Z - proj[:n, :K]) ** 2))
        err_sq += x_norm_sq - float(np.sum(mode_norms_sq[:n]))
        ref_sq += x_norm_sq
    return pooled_ratio((err_sq, ref_sq))


def pooled_rel_difference(references, candidates):
    """sqrt(sum_l ||Z_l - R_l||_F^2 / sum_l ||R_l||_F^2) of candidate
    trajectories Z_l from references R_l, pooled as above."""
    diff_sq = ref_sq = 0.0
    for R, Z in zip(references, candidates):
        diff_sq += float(np.sum((Z - R) ** 2))
        ref_sq += float(np.sum(R**2))
    return pooled_ratio((diff_sq, ref_sq))


def pooled_ratio(sums):
    """sqrt(max(a, 0) / b) of the sums (a, b) of a pooled metric."""
    num_sq, ref_sq = sums
    if ref_sq == 0.0:
        raise ValueError("reference trajectories have zero norm")
    return math.sqrt(max(num_sq, 0.0) / ref_sq)


@dataclass(frozen=True)
class MZDecomposition:
    """Split of a projected linear trajectory into Markovian, memory
    (non-Markovian), and initial-condition terms.

    Column k of each sequence is its contribution to the projected state at
    time k + 1, so markovian + memory + initial equals the projected
    trajectory columns x_1 .. x_K.  The four blocks are the restrictions of
    the system matrix to span(V) and its orthogonal complement.
    """

    markovian: np.ndarray
    memory: np.ndarray
    initial: np.ndarray
    block_vv: np.ndarray  # V^T  A V
    block_vc: np.ndarray  # V^T  A Vperp
    block_cv: np.ndarray  # Vperp^T A V
    block_cc: np.ndarray  # Vperp^T A Vperp

    def total(self):
        return self.markovian + self.memory + self.initial


def mori_zwanzig_decompose(A1, V, x0, num_steps):
    """Decompose the projected dynamics of x_{k+1} = A1 x_k over span(V).

    Propagates the coupled recurrences for the in-space component, the memory
    accumulator, and the complement flow; no explicit matrix power is ever
    formed.  With a full basis (n = N) the complement is empty and the memory
    and initial sequences are identically zero.
    """
    A1 = np.asarray(A1, dtype=float)
    if A1.ndim != 2 or A1.shape[0] != A1.shape[1]:
        raise ValueError(f"A1 must be square, got shape {A1.shape}")
    M = basis_matrix(V)
    if M.shape[0] != A1.shape[0]:
        raise ValueError("basis rows must match the system dimension")
    C = orthonormal_complement(M)
    a_vv = M.T @ A1 @ M
    a_vc = M.T @ A1 @ C
    a_cv = C.T @ A1 @ M
    a_cc = C.T @ A1 @ C

    x0 = np.asarray(x0, dtype=float)
    xpar = M.T @ x0
    mem_acc = np.zeros(C.shape[1])  # sum_{i<k} (A_cc)^{k-1-i} A_cv xpar_i
    ini_acc = C.T @ x0              # (A_cc)^k xperp_0

    markovian = np.empty((M.shape[1], num_steps))
    memory = np.empty((M.shape[1], num_steps))
    initial = np.empty((M.shape[1], num_steps))
    for k in range(num_steps):
        markovian[:, k] = a_vv @ xpar
        memory[:, k] = a_vc @ mem_acc
        initial[:, k] = a_vc @ ini_acc
        xpar_next = markovian[:, k] + memory[:, k] + initial[:, k]
        mem_acc = a_cc @ mem_acc + a_cv @ xpar
        ini_acc = a_cc @ ini_acc
        xpar = xpar_next
    return MZDecomposition(
        markovian=markovian,
        memory=memory,
        initial=initial,
        block_vv=a_vv,
        block_vc=a_vc,
        block_cv=a_cv,
        block_cc=a_cc,
    )
