import tracemalloc

import numpy as np
import scipy.linalg as la
import pytest
from numpy.linalg import lapack_lite

from opinfer import subspace


def test_pod_dominant_direction_with_sign_fix():
    S = np.zeros((3, 2))
    S[0, 0] = 2.0
    S[1, 1] = 1.0
    basis = subspace.pod_basis(S, 1)
    assert np.allclose(basis.matrix[:, 0], [1.0, 0.0, 0.0], atol=1e-14)


def test_pod_full_rank_reconstructs_snapshots():
    rng = np.random.default_rng(0)
    S = rng.normal(size=(6, 4))
    basis = subspace.pod_basis(S, 4)
    V = basis.matrix
    assert np.linalg.norm(V @ (V.T @ S) - S) <= 1e-12 * np.linalg.norm(S)


def test_pod_orthonormal_columns():
    rng = np.random.default_rng(1)
    basis = subspace.pod_basis(rng.normal(size=(20, 50)), 5)
    gram = basis.matrix.T @ basis.matrix
    assert np.abs(gram - np.eye(5)).max() <= 1e-12


def test_pod_eckart_young_energy():
    # Reconstruction error must equal the tail singular-value energy.
    rng = np.random.default_rng(2)
    S = rng.normal(size=(20, 50))
    sigma = np.linalg.svd(S, compute_uv=False)
    basis = subspace.pod_basis(S, 5)
    V = basis.matrix
    err2 = np.linalg.norm(S - V @ (V.T @ S)) ** 2
    tail = float(np.sum(sigma[5:] ** 2))
    assert err2 == pytest.approx(tail, rel=1e-10)


def test_pod_rejects_rank_overflow():
    S = np.outer(np.arange(1.0, 5.0), np.ones(6))  # rank 1
    with pytest.raises(ValueError):
        subspace.pod_basis(S, 2)
    basis = subspace.pod_basis(S, 1)
    assert basis.reduced_dim == 1


def test_pod_truncation_consistency():
    rng = np.random.default_rng(3)
    S = rng.normal(size=(15, 30))
    small = subspace.pod_basis(S, 3)
    large = subspace.pod_basis(S, 8)
    assert np.allclose(small.matrix, large.matrix[:, :3], atol=1e-12)


def test_project_and_lift_roundtrip_in_span():
    rng = np.random.default_rng(4)
    basis = subspace.pod_basis(rng.normal(size=(10, 20)), 4)
    Z = rng.normal(size=(4, 7))
    X = subspace.lift(basis, Z)
    assert np.allclose(subspace.project(basis, X), Z, atol=1e-12)
    assert np.allclose(subspace.lift(basis, subspace.project(basis, X)), X, atol=1e-12)


def test_project_identity_basis():
    X = np.arange(12.0).reshape(3, 4)
    basis = subspace.Basis(np.eye(3))
    assert np.array_equal(subspace.project(basis, X), X)
    assert np.array_equal(subspace.lift(basis, X), X)


def test_project_against_naive_multiply():
    rng = np.random.default_rng(5)
    V = subspace.pod_basis(rng.normal(size=(8, 12)), 3).matrix
    X = rng.normal(size=(8, 5))
    naive = np.zeros((3, 5))
    for i in range(3):
        for k in range(5):
            for j in range(8):
                naive[i, k] += V[j, i] * X[j, k]
    assert np.allclose(subspace.project(V, X), naive, rtol=1e-13)


def test_lift_adjoint_consistency():
    rng = np.random.default_rng(6)
    basis = subspace.pod_basis(rng.normal(size=(9, 14)), 4)
    a = rng.normal(size=(4, 1))
    b = rng.normal(size=(9, 1))
    lhs = (subspace.lift(basis, a).T @ b).item()
    rhs = (a.T @ subspace.project(basis, b)).item()
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_dimension_mismatches_raise():
    rng = np.random.default_rng(7)
    basis = subspace.pod_basis(rng.normal(size=(6, 9)), 2)
    with pytest.raises(ValueError):
        subspace.project(basis, np.zeros((5, 3)))
    with pytest.raises(ValueError):
        subspace.lift(basis, np.zeros((3, 3)))


def test_basis_rejects_non_orthonormal_matrix():
    with pytest.raises(ValueError):
        subspace.Basis(np.ones((4, 2)))


def test_orthonormal_complement():
    rng = np.random.default_rng(8)
    basis = subspace.pod_basis(rng.normal(size=(7, 10)), 3)
    C = subspace.orthonormal_complement(basis)
    assert C.shape == (7, 4)
    assert np.abs(C.T @ C - np.eye(4)).max() <= 1e-12
    assert np.abs(basis.matrix.T @ C).max() <= 1e-12


@pytest.mark.parametrize("shape, n", [((7, 10), 3), ((60, 80), 12)])
def test_orthonormal_complement_matches_scipy_null_space(shape, n):
    basis = subspace.pod_basis(np.random.default_rng(8).normal(size=shape), n)
    C = subspace.orthonormal_complement(basis)
    oracle = la.null_space(basis.matrix.T)
    assert C.shape == oracle.shape
    assert np.abs(C @ C.T - oracle @ oracle.T).max() <= 1e-13


@pytest.mark.parametrize("seed", range(20))
def test_pod_sign_of_mirror_symmetric_modes_ignores_column_order(seed):
    # x_{15-i} = -x_i in every column, so the two largest magnitudes of each
    # mode tie up to rounding; their order must not decide the sign
    rng = np.random.default_rng(seed)
    H = rng.normal(size=(8, 40))
    S = np.vstack([H, -H[::-1]])
    perm = rng.permutation(40)
    basis = subspace.pod_basis(S, 4)
    shuffled = subspace.pod_basis(S[:, perm], 4)
    assert np.abs(basis.matrix - shuffled.matrix).max() <= 1e-12


def _is_leading_rows(R, rows):
    """R views the leading len(R) rows of `rows`, in their layout."""
    return (
        R.__array_interface__["data"][0] == rows.__array_interface__["data"][0]
        and R.strides == rows.strides
        and R.shape == (min(rows.shape), rows.shape[1])
    )


@pytest.mark.parametrize("rows", [4, 30])
def test_fold_rows_gives_the_r_factor_in_the_leading_rows(rows):
    A = np.random.default_rng(9).normal(size=(rows, 6))
    work = np.asfortranarray(A)
    R = subspace.fold_rows(work)
    assert R.shape == (min(rows, 6), 6)
    assert np.array_equal(R, np.triu(R))
    assert _is_leading_rows(R, work)
    assert np.allclose(R.T @ R, A.T @ A, rtol=0.0, atol=1e-12 * np.linalg.norm(A) ** 2)


# (buffer rows, columns, filled rows, default all): wide, tall, and large
# enough for geqrf's blocked code path, then tall and wide leading blocks of
# a taller buffer, which geqrf reads with the buffer's rows as its leading
# dimension
@pytest.mark.parametrize(
    "shape",
    [(4, 6, None), (30, 6, None), (300, 200, None), (200, 300, None), (40, 10, 25),
     (40, 10, 5), (40, 10, 0), (300, 200, 150), (500, 200, 499)],
)
def test_fold_rows_equals_numpy_qr_bitwise_and_overwrites_the_rows(shape):
    L, N, count = shape
    M = L if count is None else count
    A = np.random.default_rng(10).normal(size=(L, N))
    work = np.asfortranarray(A)
    R = subspace.fold_rows(work, count)
    assert np.array_equal(R, np.linalg.qr(A[:M].copy(), mode="r"))
    assert M == 0 or not np.array_equal(work[:M], A[:M])
    assert np.array_equal(work[M:], A[M:])
    # R is the top of the overwritten rows, its strict lower triangle zero
    assert _is_leading_rows(R, work[:M])
    assert np.all(np.tril(work[: len(R)], -1) == 0.0)


@pytest.mark.parametrize("shape", [(40, 10, 25), (300, 200, 290), (2048, 512, 1500)])
def test_fold_rows_gives_the_same_bits_whatever_its_leading_dimension(shape):
    """The same rows folded in buffers of L and L + 8 rows, which geqrf reads
    as its leading dimension: `opinf._fold` pads its buffer and relies on
    this."""
    L, N, count = shape
    A = np.random.default_rng(12).normal(size=(count, N))
    folds = []
    for rows in (L, L + 8):
        work = np.empty((rows, N), order="F")
        work[:count] = A
        folds.append(subspace.fold_rows(work, count))
    assert np.array_equal(*folds)


@pytest.mark.parametrize("count", [-1, 6])
def test_fold_rows_refuses_a_count_outside_its_rows(count):
    rows = np.asfortranarray(np.ones((5, 3)))
    with pytest.raises(ValueError, match="count"):
        subspace.fold_rows(rows, count)
    assert np.array_equal(rows, np.ones((5, 3)))


def test_fold_rows_holds_tau_the_workspace_and_r():
    M, N = 600, 300
    work = np.asfortranarray(np.random.default_rng(11).normal(size=(M, N)))
    query = np.empty(1)
    lapack_lite.dgeqrf(M, N, np.empty((N, M)), M, np.empty(N), query, -1, 0)
    tracemalloc.start()
    try:
        R = subspace.fold_rows(work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # tau and the workspace: R lives in the rows
    held = 8 * (N + max(N, int(query[0])))
    assert peak <= held + 4096, (peak, held)
    assert _is_leading_rows(R, work)


@pytest.mark.parametrize(
    "rows", [np.ones((5, 3)), np.ones((5, 3), dtype=np.int64, order="F")],
    ids=["c-ordered", "integer"],
)
def test_fold_rows_refuses_rows_it_would_have_to_copy(rows):
    kept = rows.copy()
    with pytest.raises(ValueError, match="Fortran-ordered"):
        subspace.fold_rows(rows)
    assert np.array_equal(rows, kept)


def _signed(U):
    """U with the sign rule of `pod_basis`: each column's first entry within
    SIGN_TOL of its largest magnitude is positive."""
    magnitudes = np.abs(U)
    lead = np.argmax(magnitudes >= (1.0 - subspace.SIGN_TOL) * magnitudes.max(axis=0), axis=0)
    return U * np.where(U[lead, np.arange(U.shape[1])] < 0, -1.0, 1.0)


def _with_spectrum(rng, N, c, sigma):
    """An N x c matrix with singular values sigma and random singular vectors."""
    r = len(sigma)
    U = np.linalg.qr(rng.normal(size=(N, r)))[0]
    W = np.linalg.qr(rng.normal(size=(c, r)))[0]
    return (U * sigma) @ W.T


def _assert_matches_svd(S, basis, n):
    U, sigma, _ = np.linalg.svd(S, full_matrices=False)
    assert np.abs(basis.matrix - _signed(U[:, :n])).max() <= 1e-12
    held = basis.singular_values
    assert held.shape == (n + subspace.OVERSAMPLE,)
    assert np.abs(held[:n] - sigma[:n]).max() <= 1e-13 * sigma[0]


# factors of more than ITERATE_FACTOR * (n + OVERSAMPLE) rows and columns, n <= 8
ITERATED = (200, 160)


def test_pod_iteration_matches_the_svd_with_nearly_tied_values():
    rng = np.random.default_rng(10)
    n = 6
    sigma = 0.6 ** np.arange(40.0)
    sigma[3] = sigma[2] * (1.0 - 1e-3)  # a near tie inside the leading block
    S = _with_spectrum(rng, *ITERATED, sigma)
    assert subspace._leading_svd(S, n, n + subspace.OVERSAMPLE) is not None
    _assert_matches_svd(S, subspace.pod_basis(S, n), n)


def test_pod_iteration_rejects_rank_overflow():
    rng = np.random.default_rng(11)
    S = _with_spectrum(rng, *ITERATED, [3.0, 2.0, 1.0])
    with pytest.raises(subspace.RankError, match="numerical rank is 3"):
        subspace.pod_basis(S, 5)
    assert subspace.pod_basis(S, 3).reduced_dim == 3


def test_pod_slow_decay_falls_back_to_the_svd():
    # a Gaussian factor's spectrum barely decays, so the iteration does not
    # converge within MAX_POWER_STEPS and the thin SVD gives the modes
    S = np.random.default_rng(12).normal(size=ITERATED)
    n = 6
    assert subspace._leading_svd(S, n, n + subspace.OVERSAMPLE) is None
    _assert_matches_svd(S, subspace.pod_basis(S, n), n)


def test_pod_iteration_is_reproducible():
    S = _with_spectrum(np.random.default_rng(13), *ITERATED, 0.5 ** np.arange(30.0))
    first, second = subspace.pod_basis(S, 8), subspace.pod_basis(S.copy(), 8)
    assert np.array_equal(first.matrix, second.matrix)
    assert np.array_equal(first.singular_values, second.singular_values)


def test_pod_of_a_factor_at_the_size_rule_takes_the_svd():
    # 8 * (6 + OVERSAMPLE) = 128: the N = 128 Chafee factor with 6 modes
    # keeps the thin SVD, bit for bit
    S = _with_spectrum(np.random.default_rng(14), 128, 128, 0.5 ** np.arange(40.0))
    assert subspace.ITERATE_FACTOR * (6 + subspace.OVERSAMPLE) == 128
    U = la.svd(S, full_matrices=False)[0]
    assert np.array_equal(subspace.pod_basis(S, 6).matrix, _signed(U[:, :6]))
