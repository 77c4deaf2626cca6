import tracemalloc

import numpy as np
import scipy.linalg as la
import pytest

from opinfer import fom, opinf, rom, subspace


def _random_basis(N, n, seed):
    rng = np.random.default_rng(seed)
    return subspace.pod_basis(rng.normal(size=(N, N + n)), n)


def _transitions(pieces):
    """(X, Y, U): the transitions of all (states, U) pieces side by side, the
    explicit data of the oracles."""
    X = np.hstack([states[:, :-1] for states, _ in pieces])
    Y = np.hstack([states[:, 1:] for states, _ in pieces])
    if pieces[0][1] is None:
        return X, Y, None
    return X, Y, np.hstack([U[:, : states.shape[1] - 1] for states, U in pieces])


def test_reproject_full_basis_equals_plain_trajectory():
    model = fom.make_random_polynomial(6, 2, input_dim=1, seed=0)
    U = fom.random_input_trajectory(30, 1, -0.5, 0.5, seed=1)
    x0 = 0.2 * np.ones(6)
    bar = opinf.reproject_sample(model, subspace.Basis(np.eye(6)), x0, U)
    plain = fom.simulate(model, x0, U)
    assert np.allclose(bar.states, plain.states, atol=1e-13)


def test_reproject_equals_intrusive_reduced_trajectory():
    # The re-projected trajectory is the intrusive reduced trajectory.
    for seed in range(5):
        model = fom.make_random_polynomial(10, 3, input_dim=1, seed=seed)
        basis = _random_basis(10, 3, seed + 50)
        rng = np.random.default_rng(seed + 100)
        z0 = rng.normal(size=3)
        x0 = subspace.lift(basis, z0[:, None]).ravel()
        U = fom.random_input_trajectory(60, 1, -0.5, 0.5, seed=seed + 200)
        bar = opinf.reproject_sample(model, basis, x0, U)
        reduced = rom.galerkin_project(model, basis)
        tilde = rom.reduced_simulate(reduced, basis.matrix.T @ x0, U)
        gap = np.linalg.norm(bar.states - tilde.states)
        assert gap <= 1e-11 * (1.0 + np.linalg.norm(tilde.states))


def test_reproject_single_step():
    model = fom.make_random_polynomial(5, 2, input_dim=1, seed=3)
    basis = _random_basis(5, 2, 4)
    z0 = np.array([0.3, -0.4])
    x0 = subspace.lift(basis, z0[:, None]).ravel()
    U = np.array([[0.7]])
    bar = opinf.reproject_sample(model, basis, x0, U)
    assert bar.states.shape == (2, 2)
    expected = basis.matrix.T @ model.step(x0, U[:, 0])
    assert np.allclose(bar.Y[:, 0], expected, atol=1e-13)


def test_reproject_rejects_x0_outside_subspace():
    model = fom.make_random_polynomial(6, 1, seed=5)
    basis = _random_basis(6, 2, 6)
    comp = subspace.orthonormal_complement(basis)
    x0 = basis.matrix[:, 0] + 0.01 * comp[:, 0]
    with pytest.raises(ValueError):
        opinf.reproject_sample(model, basis, x0, num_steps=3)


def test_assemble_data_matrix_blocks():
    states = np.array([[2.0, 3.0]])
    U = np.array([[1.0, 1.0]])
    data = opinf.assemble_data_matrix(states, U, degree=2)
    assert np.array_equal(data.matrix, [[2.0, 3.0], [4.0, 9.0], [1.0, 1.0]])

    no_input = opinf.assemble_data_matrix(states, None, degree=1)
    assert np.array_equal(no_input.matrix, states)

    rng = np.random.default_rng(7)
    X = rng.normal(size=(3, 10))
    data3 = opinf.assemble_data_matrix(X, None, degree=3)
    assert data3.matrix.shape[0] == 3 + 6 + 10


def test_assemble_data_matrix_power_consistency():
    from opinfer.polytensor import compressed_power_matrix

    rng = np.random.default_rng(8)
    X = rng.normal(size=(4, 6))
    data = opinf.assemble_data_matrix(X, None, degree=3)
    for k in range(6):
        col = np.concatenate([compressed_power_matrix(X[:, k], i) for i in (1, 2, 3)])
        assert np.allclose(data.matrix[:, k], col, rtol=1e-13)


def test_assemble_rejects_column_mismatch():
    with pytest.raises(ValueError):
        opinf.assemble_data_matrix(np.zeros((2, 5)), np.zeros((1, 4)), degree=1)


def test_infer_counts_the_transitions_of_each_piece():
    # pieces of 3, 4 and 0 transitions whose inputs have spare columns: the
    # fit sees 7 columns, and the one-state piece adds none
    rng = np.random.default_rng(13)
    pieces = [
        (rng.normal(size=(2, 4)), rng.normal(size=(1, 5))),
        (rng.normal(size=(2, 5)), rng.normal(size=(1, 6))),
        (rng.normal(size=(2, 1)), rng.normal(size=(1, 2))),
    ]
    fitted, residual, certificate = opinf.infer_operators(pieces, 1)
    assert (certificate.num_columns, certificate.required_columns) == (7, 3)
    X, Y, U = _transitions(pieces)
    D = opinf.assemble_data_matrix(X, U, 1).matrix
    expected = np.linalg.lstsq(D.T, Y.T, rcond=None)[0].T
    assert np.abs(fitted.stacked() - expected).max() <= 1e-12 * np.abs(expected).max()
    assert residual == pytest.approx(np.linalg.norm(D.T @ expected.T - Y.T), rel=1e-10)


def test_infer_never_pairs_states_across_pieces():
    # x_{k+1} = a x_k on each piece; a pair (a^2, 100) across the two pieces
    # would leave a residual of order 100
    a = 0.8
    pieces = [(np.array([[1.0, a, a**2]]), None), (np.array([[100.0, 100.0 * a]]), None)]
    model, residual, certificate = opinf.infer_operators(pieces, 1)
    assert certificate.num_columns == 3
    assert model.operators[0][0, 0] == pytest.approx(a, rel=1e-14)
    assert residual <= 1e-13


@pytest.mark.parametrize(
    "pieces",
    [
        [],
        [(np.ones((2, 3)), None), (np.ones((3, 3)), None)],  # two state dimensions
        [(np.ones((2, 3)), np.ones((1, 2))), (np.ones((2, 3)), None)],  # inputs on one
        [(np.ones((2, 3)), np.ones((1, 2))), (np.ones((2, 3)), np.ones((2, 2)))],
        [(np.ones((2, 4)), np.ones((1, 2)))],  # fewer input columns than transitions
        [(np.array([[1.0, np.inf, 1.0]]), None)],
        [(np.array([[1.0, 1.0, np.nan]]), None)],  # the last state only
        [(np.ones((2, 0)), None)],
        [(np.ones(3), None)],
    ],
)
def test_infer_rejects_inconsistent_pieces(pieces):
    with pytest.raises(ValueError):
        opinf.infer_operators(pieces, 1)


def test_infer_scalar_linear_system_exactly():
    a = 0.8
    states = np.array([[1.0, a, a**2, a**3]])
    model, residual, certificate = opinf.infer_operators([(states, None)], 1)
    assert model.operators[0][0, 0] == pytest.approx(a, rel=1e-14)
    assert residual <= 1e-14
    assert certificate.satisfied


def test_infer_recovers_intrusive_operators_from_reprojected_data():
    model = fom.make_random_polynomial(12, 2, input_dim=1, seed=10)
    basis = _random_basis(12, 3, 11)
    intrusive = rom.galerkin_project(model, basis)

    rng = np.random.default_rng(12)
    pieces = []
    for l in range(6):
        z0 = rng.normal(size=3)
        x0 = subspace.lift(basis, z0[:, None]).ravel()
        U = fom.random_input_trajectory(10, 1, -0.5, 0.5, seed=100 + l)
        bar = opinf.reproject_sample(model, basis, x0, U)
        pieces.append((bar.states, U))
    learned, residual, certificate = opinf.infer_operators(pieces, model.degree, "re-projected")

    assert certificate.satisfied
    gap = np.linalg.norm(learned.stacked() - intrusive.stacked())
    assert gap <= 1e-8 * np.linalg.norm(intrusive.stacked())
    assert residual <= 1e-10
    assert learned.provenance == "inferred-reprojected"


def test_infer_rank_decision_ignores_row_scaling():
    # An input row 1e12 times larger than the state rows must not cost rank:
    # the fit and the certificate see the row-equilibrated data matrix.
    model = fom.make_random_polynomial(12, 2, input_dim=1, seed=10)
    basis = _random_basis(12, 3, 11)
    intrusive = rom.galerkin_project(model, basis)

    rng = np.random.default_rng(12)
    scale = 1e12
    pieces = []
    for l in range(6):
        z0 = rng.normal(size=3)
        x0 = subspace.lift(basis, z0[:, None]).ravel()
        U = fom.random_input_trajectory(10, 1, -0.5, 0.5, seed=100 + l)
        pieces.append((opinf.reproject_sample(model, basis, x0, U).states, scale * U))
    learned, _, certificate = opinf.infer_operators(pieces, model.degree, "re-projected")

    assert (certificate.numerical_rank, certificate.required_columns) == (10, 10)
    assert certificate.satisfied
    unscaled = np.hstack(learned.operators + (scale * learned.input_matrix,))
    gap = np.linalg.norm(unscaled - intrusive.stacked())
    assert gap <= 1e-10 * np.linalg.norm(intrusive.stacked())


def test_infer_from_plain_projection_carries_closure_error():
    # Same system, data without re-projection: the fit cannot be exact.
    model = fom.make_random_polynomial(12, 2, input_dim=1, seed=10)
    basis = _random_basis(12, 3, 11)
    intrusive = rom.galerkin_project(model, basis)

    pieces = []
    for l in range(6):
        U = fom.random_input_trajectory(10, 1, -0.5, 0.5, seed=100 + l)
        traj = fom.simulate(model, np.zeros(12), U)
        pieces.append((subspace.project(basis, traj.states), U))
    learned, residual, _ = opinf.infer_operators(pieces, model.degree)

    assert learned.provenance == "inferred-plain"
    assert residual > 1e-10
    gap = np.linalg.norm(learned.stacked() - intrusive.stacked())
    assert gap >= 1e-3 * np.linalg.norm(intrusive.stacked())


def test_infer_rank_deficient_returns_min_norm_and_unsatisfied():
    states = np.zeros((2, 5))  # all-zero data: rank 0
    model, residual, certificate = opinf.infer_operators([(states, None)], 1)
    assert not certificate.satisfied
    assert certificate.numerical_rank == 0
    assert np.array_equal(model.operators[0], np.zeros((2, 2)))
    assert residual == 0.0


def test_infer_perturbation_never_improves_residual():
    model = fom.make_random_polynomial(8, 2, input_dim=1, seed=20)
    basis = _random_basis(8, 2, 21)
    rng = np.random.default_rng(22)
    pieces = []
    for l in range(4):
        z0 = rng.normal(size=2)
        U = fom.random_input_trajectory(8, 1, -0.5, 0.5, seed=300 + l)
        bar = opinf.reproject_sample(
            model, basis, subspace.lift(basis, z0[:, None]).ravel(), U
        )
        pieces.append((bar.states, U))
    X, Y, U = _transitions(pieces)
    data = opinf.assemble_data_matrix(X, U, model.degree)
    fitted, residual, _ = opinf.infer_operators(pieces, model.degree)
    O = fitted.stacked()
    for trial in range(20):
        O_pert = O.copy()
        i = rng.integers(O.shape[0])
        j = rng.integers(O.shape[1])
        O_pert[i, j] += rng.choice([-1e-3, 1e-3])
        perturbed = np.linalg.norm(data.matrix.T @ O_pert.T - Y.T)
        assert perturbed >= residual - 1e-12


def test_certify_orthonormal_rows():
    # one piece whose 10 transitions have the data matrix D = eye(3, 10)
    certificate = opinf.infer_operators([(np.eye(3, 11), None)], 1)[2]
    assert certificate.condition_number == pytest.approx(1.0)
    assert certificate.satisfied
    assert certificate.numerical_rank == 3


def test_certify_too_few_columns():
    # D = eye(3, 2): two transitions for three unknowns per row
    certificate = opinf.infer_operators([(np.eye(3, 3), None)], 1)[2]
    assert not certificate.satisfied
    assert certificate.num_columns == 2
    assert certificate.required_columns == 3


def test_certify_condition_number_grows_with_dimension():
    # Re-projected toy data: conditioning worsens as n grows.
    model = fom.make_toy_linear(seed=30)
    conds = []
    for n in (2, 4, 6):
        basis = subspace.Basis(np.eye(10)[:, :n])
        bar = opinf.reproject_sample(model, basis, np.eye(10)[:, 0], num_steps=100)
        certificate = opinf.infer_operators([(bar.states, None)], 1, "re-projected")[2]
        conds.append(certificate.condition_number)
    assert conds[0] <= conds[1] <= conds[2]


def test_learn_with_reprojection_invariant_subspace():
    # Dynamics confined to span(V): the learned model reproduces the full
    # dynamics on the training inputs.
    rng = np.random.default_rng(31)
    N, n = 10, 3
    W = subspace.pod_basis(rng.normal(size=(N, 12)), n).matrix
    G = 0.5 * rng.normal(size=(n, n))
    A1 = W @ G @ W.T
    B = W @ rng.normal(size=(n, 1))
    model = fom.FullOrderModel(
        state_dim=N, input_dim=1, degree=1, forms=(lambda w: A1 @ w,), input_matrix=B
    )
    inputs = [fom.random_input_trajectory(40, 1, -1.0, 1.0, seed=s) for s in (1, 2)]
    basis, models, certificates = opinf.learn_with_reprojection(
        lambda mu: model, [None], [np.zeros(N)], [inputs], nbar=n
    )
    assert certificates[0].satisfied
    learned = models[0]
    U = inputs[0]
    full = fom.simulate(model, np.zeros(N), U)
    red = rom.reduced_simulate(learned, basis.matrix.T @ np.zeros(N), U)
    lifted = subspace.lift(basis, red.states)
    assert np.linalg.norm(lifted - full.states) <= 1e-10 * (1 + np.linalg.norm(full.states))


def test_learn_with_reprojection_of_an_input_free_model():
    # An input-free full model takes its step count from the empty (0, K)
    # input columns: 50 steps per piece, three starts inside span(V).
    rng = np.random.default_rng(32)
    N, n = 10, 3
    W = subspace.pod_basis(rng.normal(size=(N, 12)), n).matrix
    G = rng.normal(size=(n, n))
    A1 = W @ (0.9 * G / np.abs(np.linalg.eigvals(G)).max()) @ W.T
    model = fom.FullOrderModel(state_dim=N, input_dim=0, degree=1, forms=(lambda w: A1 @ w,))
    starts = list((W @ rng.normal(size=(n, 3))).T)
    basis, models, certificates = opinf.learn_with_reprojection(
        lambda mu: model, [None], [starts], [[np.zeros((0, 50))] * 3], nbar=n
    )
    assert certificates[0].satisfied
    assert certificates[0].num_columns == 150
    assert models[0].input_matrix is None
    intrusive = rom.galerkin_project(model, basis)
    gap = np.linalg.norm(models[0].stacked() - intrusive.stacked())
    assert gap <= 1e-10 * np.linalg.norm(intrusive.stacked())


def test_learn_with_reprojection_is_deterministic():
    def factory(mu):
        return fom.make_random_polynomial(8, 2, input_dim=1, seed=77)

    inputs = [[fom.random_input_trajectory(25, 1, 0.0, 1.0, seed=s) for s in (5, 6)]]
    runs = [
        opinf.learn_with_reprojection(factory, [0.5], [np.zeros(8)], inputs, nbar=3)
        for _ in range(2)
    ]
    (b1, m1, c1), (b2, m2, c2) = runs
    assert np.array_equal(b1.matrix, b2.matrix)
    assert np.array_equal(m1[0].stacked(), m2[0].stacked())
    assert c1[0].condition_number == c2[0].condition_number


def test_learn_with_reprojection_shorter_horizon():
    def factory(mu):
        return fom.make_random_polynomial(9, 2, input_dim=1, seed=mu)

    inputs = [[fom.random_input_trajectory(50, 1, -0.5, 0.5, seed=s) for s in range(4)]]
    basis, models, certs = opinf.learn_with_reprojection(
        factory, [3], [np.zeros(9)], inputs, nbar=2, reproj_horizon=10
    )
    assert certs[0].num_columns == 40  # 4 pieces x 10 steps
    assert certs[0].satisfied
    intrusive = rom.galerkin_project(factory(3), basis)
    gap = np.linalg.norm(models[0].stacked() - intrusive.stacked())
    assert gap <= 1e-7 * np.linalg.norm(intrusive.stacked())


def _block_starts(basis, rng, m, scale=0.5):
    return subspace.lift(basis, scale * rng.normal(size=(basis.matrix.shape[1], m)))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_reproject_block_equals_single_start_runs(degree):
    model = fom.make_random_polynomial(10, degree, input_dim=2, seed=degree)
    basis = _random_basis(10, 3, 60)
    rng = np.random.default_rng(61)
    X0 = _block_starts(basis, rng, 4)
    U = rng.uniform(-0.5, 0.5, (2, 50, 4))
    block = opinf.reproject_sample(model, basis, X0, U)
    assert block.states.shape == (3, 51, 4) and not block.diverged
    for l in range(4):
        single = opinf.reproject_sample(model, basis, X0[:, l], U[:, :, l])
        scale = np.abs(single.states).max()
        assert np.abs(block.states[:, :, l] - single.states).max() <= 1e-14 * scale


def test_reproject_block_rejects_one_start_outside_subspace():
    model = fom.make_random_polynomial(6, 2, input_dim=1, seed=5)
    basis = _random_basis(6, 2, 6)
    X0 = _block_starts(basis, np.random.default_rng(62), 3)
    X0[:, 1] += 0.01 * subspace.orthonormal_complement(basis)[:, 0]
    with pytest.raises(ValueError, match="outside span"):
        opinf.reproject_sample(model, basis, X0, np.zeros((1, 3, 3)))
    with pytest.raises(ValueError):
        opinf.reproject_sample(model, basis, X0, np.zeros((1, 3, 2)))


def test_reprojected_data_cuts_a_diverging_piece_like_its_single_run():
    """A piece that diverges mid-sampling is shortened to the finite states of
    its single run; the pieces next to it keep all their steps."""
    model = fom.make_random_polynomial(8, 2, input_dim=1, seed=2)
    basis = _random_basis(8, 3, 63)
    starts = list(_block_starts(basis, np.random.default_rng(64), 3, scale=0.1).T)
    inputs = [np.full((1, 40), a) for a in (0.1, 1000.0, -0.2)]
    singles = [opinf.reproject_sample(model, basis, x0, U) for x0, U in zip(starts, inputs)]
    assert [s.diverged for s in singles] == [False, True, False]
    assert 1 < singles[1].diverged_at < 40
    pieces, = opinf.reprojected_data([model], basis, [starts], [inputs])
    X, Y, U = _transitions(pieces)
    data = opinf.assemble_data_matrix(X, U, model.degree)
    X_ref, Y_ref, U_ref = _transitions([(s.states, U) for s, U in zip(singles, inputs)])
    ref = opinf.assemble_data_matrix(X_ref, U_ref, model.degree)
    assert data.matrix.shape[1] == 80 + singles[1].diverged_at - 1
    # the blow-up before the overflow amplifies rounding, so entrywise
    assert np.allclose(data.matrix, ref.matrix, rtol=1e-10, atol=0.0)
    assert np.allclose(Y, Y_ref, rtol=1e-10, atol=0.0)


# (state dim, models, inputs per model, steps, stride, window length or None
# for the default): one window per model; windows of 7 steps; windows of
# fewer columns than N, folded once N rows wait; fewer columns than N in all
# (a trapezoidal R); a snapshot stride; a stride that does not divide the
# window length
SNAPSHOT_CASES = {
    "one group": (12, 2, 3, 40, 1, None),
    "piece groups": (12, 2, 3, 40, 1, 7),
    "short groups": (30, 2, 5, 8, 1, 1),
    "narrow": (30, 1, 2, 8, 1, 1),
    "stride": (12, 2, 3, 40, 3, None),
    "stride across windows": (12, 2, 3, 40, 3, 7),
}


@pytest.mark.parametrize("case", sorted(SNAPSHOT_CASES))
def test_snapshot_basis_equals_pod_of_explicit_snapshots(monkeypatch, case):
    N, count, pieces, K, stride, window = SNAPSHOT_CASES[case]
    if window:
        monkeypatch.setattr(fom, "_WINDOW_BYTES", window * 8 * N * pieces)
    models = [fom.make_random_polynomial(N, 2, input_dim=1, seed=s) for s in range(count)]
    starts = [0.2 * np.ones(N) for _ in models]
    input_sets = [
        [fom.random_input_trajectory(K, 1, -0.5, 0.5, seed=10 * j + l) for l in range(pieces)]
        for j in range(count)
    ]
    S = np.hstack(
        [
            fom.simulate(model, x0, U).X[:, ::stride]
            for model, x0, inputs in zip(models, starts, input_sets)
            for U in inputs
        ]
    )
    expected = subspace.pod_basis(S, 4)

    pod_basis = subspace.pod_basis
    received = []

    def capture(snapshots, n):
        received.append(np.shape(snapshots))
        return pod_basis(snapshots, n)

    monkeypatch.setattr(subspace, "pod_basis", capture)
    basis, _ = opinf.snapshot_basis(models, starts, input_sets, 4, stride)
    assert received == [(N, min(N, S.shape[1]))]
    # the bases keep the leading singular values only
    s = np.linalg.svd(S, compute_uv=False)
    held = basis.singular_values
    assert held.shape == expected.singular_values.shape == (min(4 + subspace.OVERSAMPLE, s.size),)
    assert np.abs(held - s[: held.size]).max() <= 1e-13 * s[0]
    assert np.abs(basis.matrix - expected.matrix).max() <= 1e-12


def _equilibrated(X, U, degree):
    """The row-equilibrated data matrix diag(1/w) D and the row norms w
    (zero rows: 1), formed explicitly."""
    D = opinf.assemble_data_matrix(X, U, degree).matrix
    w = np.linalg.norm(D, axis=1)
    w[w == 0.0] = 1.0
    return D / w[:, None], w


def _fits(monkeypatch, pieces, degree):
    """The fit and certificate of `infer_operators`, and its fit without the
    refining second pass."""
    fitted, residual, certificate = opinf.infer_operators(pieces, degree, "re-projected")
    with monkeypatch.context() as patch:
        patch.setattr(opinf, "_correction", lambda Ot, *args: 0.0)
        unrefined = opinf.infer_operators(pieces, degree, "re-projected")[0]
    return fitted, residual, certificate, unrefined


def _check_spectrum(certificate, pieces, degree):
    """The certificate's spectrum, and that of a fit to the same transitions
    with each piece cut in two at its middle state, are the singular values
    of the row-equilibrated data matrix."""
    X, _, U = _transitions(pieces)
    s = la.svdvals(_equilibrated(X, U, degree)[0])
    halves = []
    for states, U_l in pieces:
        m = states.shape[1] // 2
        halves += [(states[:, : m + 1], U_l), (states[:, m:], None if U_l is None else U_l[:, m:])]
    split = opinf.infer_operators(halves, degree, "re-projected")[2]
    for values in (certificate.singular_values, split.singular_values):
        assert values.shape == s.shape
        assert np.abs(values - s).max(initial=0.0) <= 1e-13 * s.max(initial=0.0)


def test_streamed_fit_over_many_chunks_of_ill_conditioned_reprojected_data(monkeypatch):
    # Chafee-Infante re-projected from the zero state: 84 unknowns per row and
    # cond(D_s^T D_s) about 1e12; chunks of one triangle width (90 rows) make
    # the 2000 columns 23 folds
    monkeypatch.setattr(opinf, "_CHUNK_WIDTHS", 1)
    model = fom.make_chafee_infante(dt=1e-5, num_nodes=32)
    inputs = [fom.random_input_trajectory(1000, 1, 0.0, 10.0, seed=l) for l in range(2)]
    x0 = np.zeros(32)
    basis, _ = opinf.snapshot_basis([model], [x0], [inputs], 6)
    pieces, = opinf.reprojected_data([model], basis, [x0], [inputs])
    fitted, residual, certificate, unrefined = _fits(monkeypatch, pieces, model.degree)

    assert certificate.satisfied and certificate.condition_number > 1e10
    intrusive = rom.galerkin_project(model, basis).stacked()
    gap = np.linalg.norm(fitted.stacked() - intrusive)
    assert gap <= 1e-8 * np.linalg.norm(intrusive)
    assert gap < np.linalg.norm(unrefined.stacked() - intrusive)
    assert residual <= 1e-10
    _check_spectrum(certificate, pieces, model.degree)


@pytest.mark.parametrize("K", [6, 0])
def test_streamed_fit_of_fewer_columns_than_unknowns(monkeypatch, K):
    # K < r = 10 columns: the triangle has K rows (trapezoidal, or none), the
    # fit interpolates the data with the minimum equilibrated norm, and the
    # certificate holds K singular values and is not satisfied
    model = fom.make_random_polynomial(12, 2, input_dim=1, seed=10)
    basis = _random_basis(12, 3, 11)
    rng = np.random.default_rng(12)
    x0 = subspace.lift(basis, rng.normal(size=(3, 1))).ravel()
    U = fom.random_input_trajectory(6, 1, -0.5, 0.5, seed=100)[:, :K]
    bar = opinf.reproject_sample(model, basis, x0, U, num_steps=K)
    X, Y = bar.X, bar.Y
    fitted, residual, certificate, unrefined = _fits(monkeypatch, [(bar.states, U)], model.degree)

    assert (certificate.num_columns, certificate.required_columns) == (K, 10)
    assert certificate.numerical_rank == K and not certificate.satisfied
    D_s, w = _equilibrated(X, U, model.degree)
    expected = (np.linalg.pinv(D_s.T) @ Y.T).T / w
    scale = max(np.linalg.norm(expected), 1.0)
    assert np.linalg.norm(fitted.stacked() - expected) <= 1e-12 * scale
    assert residual <= 1e-12 * max(np.linalg.norm(Y), 1.0)
    # consistent data: the correction is round-off, and it lies in span(W_k),
    # so the refined fit keeps the minimum norm
    assert np.linalg.norm(fitted.stacked() - unrefined.stacked()) <= 1e-12 * scale
    intrusive = rom.galerkin_project(model, basis).stacked()
    gap = np.linalg.norm(fitted.stacked() - intrusive)
    assert gap <= np.linalg.norm(unrefined.stacked() - intrusive) + 1e-12 * scale
    _check_spectrum(certificate, [(bar.states, U)], model.degree)


def test_streamed_fit_memory_does_not_grow_with_columns():
    # chafee sizes: nbar = 6, degree 3, one input (84 unknowns per row)
    peaks = []
    for K in (20_000, 40_000):
        rng = np.random.default_rng(K)
        states = rng.uniform(-1.0, 1.0, (6, K + 1))
        U = rng.uniform(0.0, 10.0, (1, K))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opinf.infer_operators([(states, U)], 3)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
    assert peaks[0] < 84 * 20_000 * 8 / 4  # far below one data matrix


def test_reprojected_fit_memory_does_not_grow_beyond_its_samples():
    # chafee sizes: nbar = 6, degree 3, one input; two pieces of K steps.
    # Past the re-projected states and the input block they are sampled
    # with, the fit holds chunks of its pieces only, whatever K
    model = fom.make_chafee_infante(dt=1e-5, num_nodes=32)
    x0 = np.zeros(32)
    snapshot_inputs = [fom.random_input_trajectory(1000, 1, 0.0, 10.0, seed=0)]
    basis, _ = opinf.snapshot_basis([model], [x0], [snapshot_inputs], 6)
    peaks, sampled = [], []
    for K in (5_000, 10_000):
        inputs = [fom.random_input_trajectory(K, 1, 0.0, 10.0, seed=l) for l in range(2)]
        sampled.append(8 * (6 * (K + 1) + K) * len(inputs))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            certificate = opinf.fit_reprojected([model], basis, [x0], [inputs])[2][0]
            peaks.append(tracemalloc.get_traced_memory()[1] - before - sampled[-1])
        finally:
            tracemalloc.stop()
        assert certificate.num_columns == 2 * K
    # a copy of the states would grow the rest by 8 * 6 * K * 2 bytes
    assert peaks[1] - peaks[0] <= 0.05 * (sampled[1] - sampled[0]), (peaks, sampled)


def test_fold_holds_r_one_buffer_and_one_chunk(monkeypatch):
    """`_fold` of N-wide rows that come in chunks smaller than N, so that
    folds split them: its tracemalloc peak stays within its one buffer of R
    and N waiting rows, where R stays, and one chunk, plus the QR's small
    workspace (a few percent at these sizes); its R has the Gram matrix of
    all rows."""
    N, rows, count = 400, 300, 12
    # windows of N rows of N doubles: N rows wait under R
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 8 * N * N)

    def chunks(rng):
        for _ in range(count):
            yield (rng.standard_normal((N, rows)),)

    # made before tracing, which would count the import of numpy.random
    rng = np.random.default_rng(70)
    tracemalloc.start()
    try:
        R = opinf._fold(chunks(rng), N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = 8 * (2 * N * N + N * rows)
    assert peak <= 1.1 * held, (peak, held)
    A = np.hstack([part for part, in chunks(np.random.default_rng(70))]).T
    gram = A.T @ A
    assert R.shape == (N, N)
    assert np.abs(R.T @ R - gram).max() <= 1e-13 * np.abs(gram).max()


def test_snapshot_basis_holds_the_fold_buffer_and_one_window(monkeypatch):
    """`snapshot_basis` of N = 529 >= 512 states, whose buffer has N waiting
    rows and folds full: its tracemalloc peak, POD included, stays within
    the buffer, one window of states and the chunk copied from it, plus a
    quarter of R for the QR's workspace; R itself stays in the buffer."""
    g, m, K, steps = 23, 2, 800, 16
    N = g * g
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 8 * N * m * steps)
    model = fom.make_diffusion_reaction_2d(1.0, grid_points_per_dim=g)
    inputs = [
        fom.with_constant_channel(fom.random_input_trajectory(K, 1, 0.0, 1.0, seed=l))
        for l in range(m)
    ]
    tracemalloc.start()
    try:
        basis, _ = opinf.snapshot_basis([model], [np.zeros(N)], [inputs], 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    buffer, R, window = 8 * 2 * N * N, 8 * N * N, 8 * N * m * (steps + 1)
    assert peak <= buffer + 2 * window + R / 4, (peak, buffer, R, window)
    assert basis.reduced_dim == 4


@pytest.mark.parametrize("degree", [1, 2])
def test_learned_model_steps_alike_on_strided_and_contiguous_states(degree):
    """The operators that `infer_operators` returns are stored C-ordered, so
    a step of a state that is a strided column of a window equals, bit for
    bit, the step of a contiguous copy (an F-ordered operator's product
    rounds by the alignment of the vector it multiplies)."""
    rng = np.random.default_rng(80)
    states = rng.uniform(-1.0, 1.0, (6, 301))
    model = opinf.infer_operators([(states, rng.uniform(-1.0, 1.0, (1, 300)))], degree)[0]
    assert all(A.flags.c_contiguous for A in (*model.operators, model.input_matrix))
    # a window of states (n, w+1, m) and its inputs (p, w, m)
    window = rng.uniform(-1.0, 1.0, (6, 41, 3))
    inputs = rng.uniform(-1.0, 1.0, (1, 40, 3))
    for j in range(40):
        for z, u in ((window[:, j, 1], inputs[:, j, 1]), (window[:, j], inputs[:, j])):
            assert np.array_equal(model.step(z, u), model.step(z.copy(), u.copy()))
