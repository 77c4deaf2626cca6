import numpy as np
import pytest

from opinfer import diagnostics, fom, opinf, rom, subspace


def test_closure_error_zero_for_identical_inputs():
    X = np.random.default_rng(0).normal(size=(3, 8))
    assert diagnostics.closure_error(X, X.copy()) == 0.0


def test_closure_error_single_column_is_two_norm():
    a = np.array([[3.0], [4.0]])
    b = np.zeros((2, 1))
    assert diagnostics.closure_error(a, b) == pytest.approx(5.0)
    assert diagnostics.closure_error_per_step(a, b)[0] == pytest.approx(5.0)


def test_closure_error_positive_for_projected_burgers():
    model = fom.make_burgers(0.5, num_nodes=32)
    U = fom.random_input_trajectory(200, 1, 0.0, 10.0, seed=1)
    full = fom.simulate(model, np.zeros(32), U)
    basis = subspace.pod_basis(full.X, 4)
    intrusive = rom.galerkin_project(model, basis)
    projected = subspace.project(basis, full.states)
    tilde = rom.reduced_simulate(intrusive, projected[:, 0], U)
    err = diagnostics.closure_error(projected, tilde.states)
    assert err > 0.0  # magnitude recorded, not asserted


def test_closure_error_vanishes_for_reprojected_data():
    model = fom.make_burgers(0.5, num_nodes=32)
    U = fom.random_input_trajectory(150, 1, 0.0, 10.0, seed=2)
    full = fom.simulate(model, np.zeros(32), U)
    basis = subspace.pod_basis(full.X, 4)
    bar = opinf.reproject_sample(model, basis, np.zeros(32), U)
    intrusive = rom.galerkin_project(model, basis)
    tilde = rom.reduced_simulate(intrusive, np.zeros(4), U)
    err = diagnostics.closure_error(bar.states, tilde.states)
    assert err <= 1e-10 * (1.0 + np.linalg.norm(tilde.states))


def test_closure_error_shape_mismatch():
    with pytest.raises(ValueError):
        diagnostics.closure_error(np.zeros((2, 3)), np.zeros((2, 4)))


def test_avg_rel_state_error_zero_in_span():
    rng = np.random.default_rng(3)
    basis = subspace.pod_basis(rng.normal(size=(8, 12)), 3)
    Z = rng.normal(size=(3, 6))
    X = subspace.lift(basis, Z)
    result = diagnostics.avg_rel_state_error([X], [Z], basis)
    assert result.value <= 1e-13
    assert result.used == 1 and result.excluded == 0


def test_avg_rel_state_error_single_pair_formula():
    rng = np.random.default_rng(4)
    basis = subspace.pod_basis(rng.normal(size=(5, 8)), 2)
    X = rng.normal(size=(5, 4))
    Z = rng.normal(size=(2, 4))
    result = diagnostics.avg_rel_state_error([X], [Z], basis)
    expected = np.linalg.norm(basis.matrix @ Z - X) / np.linalg.norm(X)
    assert result.value == pytest.approx(expected, rel=1e-14)


def test_metrics_exclude_diverged_and_count_them():
    rng = np.random.default_rng(5)
    basis = subspace.pod_basis(rng.normal(size=(5, 8)), 2)
    X = rng.normal(size=(5, 6))
    good = rng.normal(size=(2, 6))
    diverged = fom.Trajectory(states=np.zeros((2, 3)), diverged_at=3)
    result = diagnostics.avg_rel_state_error([X, X], [good, diverged], basis)
    single = diagnostics.avg_rel_state_error([X], [good], basis)
    assert result.used == 1 and result.excluded == 1
    assert result.value == pytest.approx(single.value)

    diff = diagnostics.rel_trajectory_difference([good, None], [good, good])
    assert diff.value == pytest.approx(0.0)
    assert diff.excluded == 1


def test_metrics_error_cases():
    with pytest.raises(ValueError):
        diagnostics.rel_trajectory_difference([], [])
    with pytest.raises(ValueError):
        diagnostics.rel_trajectory_difference([np.ones((2, 2))], [np.zeros((2, 2))])


def test_rel_trajectory_difference_zero_and_value():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(3, 5))
    B = rng.normal(size=(3, 5))
    assert diagnostics.rel_trajectory_difference([A], [A.copy()]).value == 0.0
    two = diagnostics.rel_trajectory_difference([A, B], [A, A])
    # pooled over both pairs: sqrt((0 + ||B - A||^2) / (||A||^2 + ||A||^2))
    expected = np.linalg.norm(A - B) / (np.sqrt(2.0) * np.linalg.norm(A))
    assert two.value == pytest.approx(expected, rel=1e-13)


def test_metrics_invariant_under_list_permutation():
    rng = np.random.default_rng(7)
    refs = [rng.normal(size=(3, 4)) for _ in range(4)]
    cands = [rng.normal(size=(3, 4)) for _ in range(4)]
    forward = diagnostics.rel_trajectory_difference(cands, refs)
    perm = [2, 0, 3, 1]
    shuffled = diagnostics.rel_trajectory_difference(
        [cands[i] for i in perm], [refs[i] for i in perm]
    )
    assert forward.value == pytest.approx(shuffled.value, rel=1e-14)


def test_condition_number_toy_trend():
    # The cond of the fit's certificate grows with n on re-projected toy data.
    model = fom.make_toy_linear(seed=8)
    conds = []
    for n in (2, 4, 6):
        basis = subspace.Basis(np.eye(10)[:, :n])
        bar = opinf.reproject_sample(model, basis, np.eye(10)[:, 0], num_steps=100)
        certificate = opinf.infer_operators([(bar.states, None)], 1)[2]
        conds.append(certificate.condition_number)
    assert conds[0] <= conds[1] <= conds[2]


def _random_linear_setup(seed, N=10, n=2, in_span=False):
    rng = np.random.default_rng(seed)
    A1 = rng.uniform(0.0, 1.0, (N, N))
    A1 *= 0.95 / np.abs(np.linalg.eigvals(A1)).max()
    basis = subspace.pod_basis(rng.normal(size=(N, N + 2)), n)
    if in_span:
        x0 = basis.matrix @ rng.normal(size=n)
    else:
        x0 = rng.normal(size=N)
    return A1, basis, x0


def test_mz_identity_matches_projected_trajectory():
    for seed in range(5):
        A1, basis, x0 = _random_linear_setup(seed, N=12, n=3)
        K = 60
        mz = diagnostics.mori_zwanzig_decompose(A1, basis, x0, K)
        model = fom.FullOrderModel(
            state_dim=12, input_dim=0, degree=1, forms=(lambda w, A=A1: A @ w,)
        )
        full = fom.simulate(model, x0, num_steps=K)
        projected = subspace.project(basis, full.states[:, 1:])
        total = mz.total()
        assert np.linalg.norm(total - projected) <= 1e-11 * (1 + np.linalg.norm(projected))


def test_mz_memory_first_column_zero():
    A1, basis, x0 = _random_linear_setup(21)
    mz = diagnostics.mori_zwanzig_decompose(A1, basis, x0, 10)
    assert np.array_equal(mz.memory[:, 0], np.zeros(2))
    # first projected step: Markovian plus initial-condition term only
    first = mz.markovian[:, 0] + mz.initial[:, 0]
    assert np.allclose(mz.total()[:, 0], first, atol=1e-15)


def test_mz_initial_vanishes_for_x0_in_span():
    A1, basis, x0 = _random_linear_setup(22, in_span=True)
    mz = diagnostics.mori_zwanzig_decompose(A1, basis, x0, 50)
    assert np.abs(mz.initial).max() <= 1e-12


def test_mz_full_basis_has_no_memory():
    A1, _, _ = _random_linear_setup(23, N=6)
    basis = subspace.Basis(np.eye(6))
    mz = diagnostics.mori_zwanzig_decompose(A1, basis, np.ones(6), 12)
    assert np.abs(mz.memory).max() == 0.0
    assert np.abs(mz.initial).max() == 0.0
    assert mz.block_cc.shape == (0, 0)


def test_mz_toy_dimensions():
    model = fom.make_toy_linear(seed=24)
    basis = subspace.Basis(np.eye(10)[:, :2])
    x0 = np.eye(10)[:, 0]
    K = 100
    mz = diagnostics.mori_zwanzig_decompose(model.compressed_operators[0], basis, x0, K)
    full = fom.simulate(model, x0, num_steps=K)
    projected = subspace.project(basis, full.states[:, 1:])
    assert np.linalg.norm(mz.total() - projected) <= 1e-11 * (1 + np.linalg.norm(projected))


def test_mz_rejects_non_square():
    with pytest.raises(ValueError):
        diagnostics.mori_zwanzig_decompose(
            np.zeros((3, 2)), subspace.Basis(np.eye(3)[:, :1]), np.zeros(3), 2
        )
