import numpy as np
import pytest

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


@pytest.mark.parametrize("rows", [4, 30])
def test_fold_rows_gives_the_r_factor_and_keeps_no_view(rows):
    A = np.random.default_rng(9).normal(size=(rows, 6))
    work = np.asfortranarray(A)
    R = subspace.fold_rows(work)
    assert R.shape == (min(rows, 6), 6)
    assert np.array_equal(R, np.triu(R))
    assert not np.shares_memory(R, work)
    assert np.allclose(R.T @ R, A.T @ A, rtol=0.0, atol=1e-12 * np.linalg.norm(A) ** 2)
