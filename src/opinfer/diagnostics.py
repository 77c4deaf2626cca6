"""Error metrics, closure error, and the Mori-Zwanzig split of projected
linear dynamics.

`cli._evaluate` computes its metrics with the pooled sums.  No run calls the
paired metrics `avg_rel_state_error` and `rel_trajectory_difference` (with
`_paired_metric`, `_is_diverged` and `ErrorSummary`); they stay as demo 03's
API and as the per-trajectory oracle of `cli._evaluate`
(`test_cli.py::test_avg_rel_error_pools_the_training_pieces`).
"""

import math
from collections import namedtuple
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


ErrorSummary = namedtuple("ErrorSummary", ["value", "used", "excluded"])


def _is_diverged(reduced, expected_columns):
    if reduced is None:
        return True
    if isinstance(reduced, _fom.Trajectory):
        if reduced.diverged:
            return True
        reduced = reduced.states
    return np.asarray(reduced).shape[1] < expected_columns


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


def avg_rel_state_error(full_trajectories, reduced_trajectories, V):
    """`pooled_rel_state_error` of reduced trajectories against full ones on
    the orthonormal basis V.

    Pairs whose reduced trajectory diverged (divergence flag set, or fewer
    columns than the full trajectory) are left out of the sums and counted
    separately; the paper's plots show them as missing values.  Returns an
    ErrorSummary(value, used, excluded); value is NaN if every pair diverged.
    """
    def pooled(Xs, Zs):
        return pooled_rel_state_error([project_piece(V, X, X.shape[1]) for X in Xs], Zs)

    return _paired_metric(full_trajectories, reduced_trajectories, pooled)


def rel_trajectory_difference(reduced_trajectories, reference_trajectories):
    """`pooled_rel_difference` of learned-model trajectories from the
    intrusive reduced model's; divergence handling as in `avg_rel_state_error`.
    """
    return _paired_metric(reference_trajectories, reduced_trajectories, pooled_rel_difference)


def _paired_metric(references, candidates, pooled):
    if len(references) == 0:
        raise ValueError("empty trajectory list")
    if len(references) != len(candidates):
        raise ValueError("trajectory lists must have equal length")
    refs, cands, excluded = [], [], 0
    for ref, cand in zip(references, candidates):
        R = _states(ref)
        if _is_diverged(cand, R.shape[1]):
            excluded += 1
            continue
        C = _states(cand)
        if C.shape[1] != R.shape[1]:
            raise ValueError(f"column mismatch: {C.shape[1]} vs {R.shape[1]}")
        refs.append(R)
        cands.append(C)
    value = pooled(refs, cands) if refs else float("nan")
    return ErrorSummary(value=value, used=len(refs), excluded=excluded)


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
