from dataclasses import replace

import kron_oracles
import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from opinfer import fom, polytensor, rom, subspace


def _dense_projection_oracle(model, V):
    """Galerkin operators via zero-padded Kronecker operators and the
    selection/duplication matrices (dense; oracle scale only)."""
    N = model.state_dim
    n = V.shape[1]
    out = []
    for i in range(1, model.degree + 1):
        # symmetric zero-padded operator: column at full index (j_1..j_i) is
        # the form applied to the matching unit vectors
        A_full = np.zeros((N, N**i))
        for q, tup in enumerate(np.indices((N,) * i).reshape(i, -1).T):
            A_full[:, q] = model.multilinear(i, [np.eye(N)[:, j] for j in tup])
        V_kron = V
        for _ in range(i - 1):
            V_kron = np.kron(V_kron, V)
        dup = kron_oracles.duplication_matrix(n, i).toarray()
        out.append(V.T @ A_full @ V_kron @ dup)
    return out


def test_galerkin_identity_map():
    model = fom.FullOrderModel(
        state_dim=6, input_dim=0, degree=1, forms=(lambda w: w.copy(),)
    )
    rng = np.random.default_rng(0)
    V = subspace.pod_basis(rng.normal(size=(6, 8)), 3)
    reduced = rom.galerkin_project(model, V)
    assert np.allclose(reduced.operators[0], np.eye(3), atol=1e-13)


def test_galerkin_full_basis_reproduces_operators():
    model = fom.make_random_polynomial(5, 3, input_dim=2, seed=3)
    reduced = rom.galerkin_project(model, subspace.Basis(np.eye(5)))
    for A, A_ref in zip(reduced.operators, model.compressed_operators):
        assert np.allclose(A, A_ref, atol=1e-12)
    assert np.allclose(reduced.input_matrix, model.input_matrix, atol=1e-14)


def test_galerkin_matches_dense_kronecker_oracle():
    rng = np.random.default_rng(1)
    for seed, (N, degree, n) in enumerate([(6, 3, 3), (5, 2, 2), (4, 3, 4)]):
        model = fom.make_random_polynomial(N, degree, input_dim=1, seed=seed)
        V = subspace.pod_basis(rng.normal(size=(N, 2 * N)), n)
        reduced = rom.galerkin_project(model, V)
        oracle = _dense_projection_oracle(model, V.matrix)
        for A, A_oracle in zip(reduced.operators, oracle):
            assert np.abs(A - A_oracle).max() <= 1e-12


def test_galerkin_defining_property():
    # sum_i A~_i z^i + B~ u == V^T f(V z, u)
    model = fom.make_random_polynomial(8, 3, input_dim=2, seed=5)
    rng = np.random.default_rng(2)
    V = subspace.pod_basis(rng.normal(size=(8, 12)), 4)
    reduced = rom.galerkin_project(model, V)
    for _ in range(20):
        z = rng.normal(size=4)
        u = rng.normal(size=2)
        lhs = reduced.step(z, u)
        rhs = subspace.project(V, model.step(subspace.lift(V, z[:, None]).ravel(), u)[:, None]).ravel()
        assert np.linalg.norm(lhs - rhs) <= 1e-11 * (1.0 + np.linalg.norm(rhs))


def test_reduced_simulate_zero_operators():
    n = 3
    model = rom.PolynomialModel(
        operators=(np.zeros((n, n)), np.zeros((n, polytensor.compressed_dim(n, 2)))),
        provenance="intrusive",
    )
    traj = rom.reduced_simulate(model, np.array([1.0, 2.0, 3.0]), num_steps=4)
    assert np.array_equal(traj.states[:, 0], [1.0, 2.0, 3.0])
    assert np.array_equal(traj.states[:, 1:], np.zeros((3, 4)))


def test_reduced_simulate_full_basis_equals_full_model():
    model = fom.make_random_polynomial(6, 2, input_dim=1, seed=7)
    reduced = rom.galerkin_project(model, subspace.Basis(np.eye(6)))
    U = fom.random_input_trajectory(30, 1, -1.0, 1.0, seed=8)
    x0 = 0.1 * np.ones(6)
    full = fom.simulate(model, x0, U)
    red = rom.reduced_simulate(reduced, x0, U)
    assert np.linalg.norm(full.states - red.states) <= 1e-12 * (1 + np.linalg.norm(full.states))


def test_reduced_simulate_on_invariant_subspace():
    # Dynamics that preserve span(V): lifting the reduced trajectory
    # reproduces the full trajectory exactly.
    rng = np.random.default_rng(9)
    N, n = 8, 3
    V = subspace.pod_basis(rng.normal(size=(N, 10)), n).matrix
    G = 0.4 * rng.normal(size=(n, n))
    A1 = V @ G @ V.T  # maps span(V) into itself, kills the complement

    model = fom.FullOrderModel(
        state_dim=N, input_dim=0, degree=1, forms=(lambda w: A1 @ w,)
    )
    reduced = rom.galerkin_project(model, subspace.Basis(V))
    z0 = rng.normal(size=n)
    x0 = V @ z0
    full = fom.simulate(model, x0, num_steps=20)
    red = rom.reduced_simulate(reduced, z0, num_steps=20)
    assert np.allclose(V @ red.states, full.states, atol=1e-12)


def test_reduced_simulate_divergence_flag():
    model = rom.PolynomialModel(
        operators=(np.array([[3.0]]), np.array([[2.0]])), provenance="intrusive"
    )
    traj = rom.reduced_simulate(model, np.array([10.0]), num_steps=500)
    assert traj.diverged
    assert np.isfinite(traj.states).all()


def _block_and_single_runs(reduced, Z0, U, num_steps):
    block = rom.reduced_simulate(reduced, Z0, U, num_steps)
    singles = [
        rom.reduced_simulate(reduced, Z0[:, l], None if U is None else U[:, :, l], num_steps)
        for l in range(Z0.shape[1])
    ]
    return block, singles


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("input_dim", [0, 2])
def test_reduced_simulate_block_equals_single_column_runs(degree, input_dim):
    model = fom.make_random_polynomial(5, degree, input_dim=input_dim, seed=degree)
    reduced = rom.galerkin_project(model, subspace.Basis(np.eye(5)[:, :4]))
    rng = np.random.default_rng(20 + degree)
    m, K = 3, 40
    Z0 = 0.3 * rng.standard_normal((4, m))
    U = rng.uniform(-1.0, 1.0, (input_dim, K, m)) if input_dim else None
    block, singles = _block_and_single_runs(reduced, Z0, U, K)
    assert block.states.shape == (4, K + 1, m) and not block.diverged
    assert block.X.shape == block.Y.shape == (4, K, m)
    # A block goes through matrix-matrix products and a single run through
    # matrix-vector products; BLAS may sum the two in different orders, so
    # the columns agree to rounding, not bit for bit.
    for l, single in enumerate(singles):
        assert not single.diverged
        diff = np.abs(block.states[:, :, l] - single.states).max()
        assert diff <= 1e-14 * (1.0 + np.abs(single.states).max())


def test_reduced_simulate_block_freezes_each_diverged_column():
    # z -> 0.5 z + 0.1 z^2 per mode: starts above 5 blow up, starts below decay
    model = rom.PolynomialModel(
        operators=(0.5 * np.eye(2), np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.1]])),
        provenance="intrusive",
    )
    Z0 = np.array([[1.0, 20.0, -1.0], [0.5, 0.5, 0.5]])
    block, singles = _block_and_single_runs(model, Z0, None, 200)
    assert [s.diverged for s in singles] == [False, True, False]
    assert list(block.diverged_at) == [s.diverged_at or 0 for s in singles]
    assert block.states.shape == (2, 201, 3)
    for l in (0, 2):
        assert np.allclose(block.states[:, :, l], singles[l].states)
    stop = singles[1].diverged_at
    assert np.allclose(block.states[:, :stop, 1], singles[1].states)
    last = singles[1].states[:, -1]
    assert np.array_equal(block.states[:, stop:, 1], np.repeat(last[:, None], 201 - stop, axis=1))


def test_reduced_simulate_rejects_mismatched_blocks():
    model = fom.make_random_polynomial(3, 2, input_dim=1, seed=1)
    reduced = rom.galerkin_project(model, subspace.Basis(np.eye(3)))
    with pytest.raises(ValueError):
        rom.reduced_simulate(reduced, np.zeros((3, 2)), np.zeros((1, 5)))
    with pytest.raises(ValueError):
        rom.reduced_simulate(reduced, np.zeros((3, 2)), np.zeros((1, 5, 3)))
    with pytest.raises(ValueError):
        rom.reduced_simulate(reduced, np.zeros(3), np.zeros((1, 5, 1)))


def _stack_and_single_runs(models, dims, U, num_steps):
    """`simulate_truncations` of one group, all models on the inputs U, and
    per stack entry (n, model), the pair of n and the single runs of
    `reduced_simulate(truncate(model, n), ...)` from zero, one per piece."""
    inputs = None if U is None else list(np.moveaxis(U, 2, 0))
    (_, states, diverged_at), = rom.simulate_truncations([(models, inputs)], dims, num_steps)
    stack = fom.Trajectory(states, diverged_at)  # one window at these sizes
    m = 1 if U is None else U.shape[2]
    singles = [
        (n, [
            rom.reduced_simulate(
                rom.truncate(model, n), np.zeros(n), None if U is None else U[:, :, l], num_steps
            )
            for l in range(m)
        ])
        for n in dims
        for model in models
    ]
    return stack, singles


@pytest.mark.parametrize("degree", [1, 2, 3])
@pytest.mark.parametrize("input_dim", [0, 2])
def test_simulate_truncations_equals_truncated_single_runs(degree, input_dim):
    models = [
        rom.galerkin_project(
            fom.make_random_polynomial(5, degree, input_dim=input_dim, seed=10 * degree + j),
            subspace.Basis(np.eye(5)[:, :4]),
        )
        for j in range(3)
    ]
    dims, m, K = [1, 2, 4], 2, 40
    rng = np.random.default_rng(30 + degree)
    # without inputs the stack starts and stays at zero, like its oracle
    U = rng.uniform(-1.0, 1.0, (input_dim, K, m)) if input_dim else None
    stack, singles = _stack_and_single_runs(models, dims, U, K)
    width = len(dims) * len(models) * (m if input_dim else 1)
    assert stack.states.shape == (4, K + 1, width) and not stack.diverged
    cols = stack.states.reshape(4, K + 1, len(singles), -1)
    scale = 1.0 + max(np.abs(r.states).max() for _, runs in singles for r in runs)
    for s, (n, runs) in enumerate(singles):
        for l, single in enumerate(runs):
            assert not single.diverged
            assert np.abs(cols[:n, :, s, l] - single.states).max() <= 1e-12 * scale
            assert np.all(cols[n:, :, s, l] == 0.0)


def test_simulate_truncations_diverged_entry_leaves_the_others():
    models = [
        rom.galerkin_project(
            fom.make_random_polynomial(5, 2, input_dim=2, seed=j), subspace.Basis(np.eye(5)[:, :4])
        )
        for j in range(3)
    ]
    # a large input on the quadratic model of seed 1 blows it up from zero
    models[1] = replace(models[1], input_matrix=200.0 * models[1].input_matrix)
    dims, m, K = [1, 2, 4], 2, 60
    U = np.random.default_rng(40).uniform(-1.0, 1.0, (2, K, m))
    stack, singles = _stack_and_single_runs(models, dims, U, K)
    assert stack.diverged
    assert stack.states.shape == (4, K + 1, len(singles) * m)
    assert np.isfinite(stack.states).all()
    cols = stack.states.reshape(4, K + 1, len(singles), m)
    steps = stack.diverged_at.reshape(len(singles), m)
    diverged = [s for s, (_, runs) in enumerate(singles) if any(r.diverged for r in runs)]
    assert diverged and all(s % len(models) == 1 for s in diverged)
    for s, (n, runs) in enumerate(singles):
        for l, single in enumerate(runs):
            assert steps[s, l] == (single.diverged_at or 0)
            if not single.diverged:
                diff = np.abs(cols[:n, :, s, l] - single.states).max()
                assert diff <= 1e-12 * (1.0 + np.abs(single.states).max())
                assert np.all(cols[n:, :, s, l] == 0.0)


def test_simulate_truncations_with_inputs_per_group_equals_single_runs():
    """Groups of different widths in one stack: each truncated model runs on
    its own group's input columns, like its `reduced_simulate` on each."""
    basis = subspace.Basis(np.eye(5)[:, :4])
    models = [
        rom.galerkin_project(fom.make_random_polynomial(5, 2, input_dim=2, seed=50 + j), basis)
        for j in range(3)
    ]
    dims, K = [1, 3, 4], 30
    rng = np.random.default_rng(51)
    # widths 2, 1, 1, 2: three runs of consecutive groups of one width per n
    groups = [
        (models[:2], rng.uniform(-1.0, 1.0, (2, K, 2))),
        (models[2:], rng.uniform(-1.0, 1.0, (2, K, 1))),
        (models[:1], rng.uniform(-1.0, 1.0, (2, K, 1))),
        (models[1:], rng.uniform(-1.0, 1.0, (2, K, 2))),
    ]
    stack = [(group, list(np.moveaxis(U, 2, 0))) for group, U in groups]
    (_, states, diverged_at), = rom.simulate_truncations(stack, dims, K)
    assert diverged_at is None
    col = 0
    for n in dims:
        for group, U in groups:
            for model in group:
                for l in range(U.shape[2]):
                    single = rom.reduced_simulate(rom.truncate(model, n), np.zeros(n), U[:, :, l])
                    scale = 1.0 + np.abs(single.states).max()
                    assert np.abs(states[:n, :, col] - single.states).max() <= 1e-12 * scale
                    assert np.all(states[n:, :, col] == 0.0)
                    col += 1
    assert col == states.shape[2] == len(dims) * (2 * 2 + 1 + 1 + 2 * 2)


def test_truncate_identity_and_shapes():
    model = fom.make_random_polynomial(6, 3, input_dim=2, seed=11)
    reduced = rom.galerkin_project(model, subspace.Basis(np.eye(6)))
    same = rom.truncate(reduced, 6)
    for A, B in zip(same.operators, reduced.operators):
        assert np.array_equal(A, B)
    smaller = rom.truncate(reduced, 2)
    assert smaller.operators[0].shape == (2, 2)
    assert smaller.operators[1].shape == (2, 3)
    assert smaller.operators[2].shape == (2, 4)
    assert smaller.input_matrix.shape == (2, 2)
    with pytest.raises(ValueError):
        rom.truncate(reduced, 7)


def test_truncate_linear_block_is_leading_submatrix():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(5, 5))
    model = rom.PolynomialModel(operators=(A,), provenance="intrusive")
    assert np.array_equal(rom.truncate(model, 3).operators[0], A[:3, :3])


def test_truncate_degree2_column_selection():
    n = 3
    A2 = np.arange(3 * 6, dtype=float).reshape(3, 6)
    model = rom.PolynomialModel(operators=(np.eye(n), A2), provenance="intrusive")
    small = rom.truncate(model, 2)
    # multisets over 3 modes: (0,0),(0,1),(0,2),(1,1),(1,2),(2,2); keep 0,1,3
    assert np.array_equal(small.operators[1], A2[:2][:, [0, 1, 3]])


def test_truncate_commutes_with_projection():
    model = fom.make_random_polynomial(7, 3, input_dim=1, seed=13)
    rng = np.random.default_rng(13)
    basis = subspace.pod_basis(rng.normal(size=(7, 12)), 4)
    direct = rom.galerkin_project(model, basis.truncated(2))
    via_truncate = rom.truncate(rom.galerkin_project(model, basis), 2)
    for A, B in zip(direct.operators, via_truncate.operators):
        assert np.abs(A - B).max() <= 1e-12
    assert np.abs(direct.input_matrix - via_truncate.input_matrix).max() <= 1e-12


def _affine_models(grid):
    models = []
    for mu in grid:
        A1 = (2.0 * mu + 1.0) * np.ones((2, 2))
        A2 = (0.5 * mu - 2.0) * np.ones((2, 3))
        B = np.full((2, 1), mu)
        models.append(
            rom.PolynomialModel(operators=(A1, A2), input_matrix=B, provenance="intrusive",
                                parameter=mu)
        )
    return models


def test_interpolate_reproduces_nodes():
    grid = np.array([0.1, 0.4, 0.7, 1.0])
    models = _affine_models(grid)
    at_node = rom.interpolate(grid, models, 0.4)
    assert np.allclose(at_node.operators[0], models[1].operators[0], atol=1e-13)
    assert at_node.provenance == "interpolated"
    assert at_node.parameter == pytest.approx(0.4)


def test_interpolate_exact_for_affine_entries():
    grid = np.array([0.2, 0.5, 0.8, 1.1])
    models = _affine_models(grid)
    mid = rom.interpolate(grid, models, 0.65)
    assert np.allclose(mid.operators[0], (2.0 * 0.65 + 1.0) * np.ones((2, 2)), rtol=1e-10)
    assert np.allclose(mid.input_matrix, np.full((2, 1), 0.65), rtol=1e-10)


def test_interpolate_two_nodes_is_linear_blend():
    grid = np.array([1.0, 3.0])
    models = _affine_models(grid)
    blended = rom.interpolate(grid, models, 1.5)
    w = (3.0 - 1.5) / (3.0 - 1.0)
    expected = w * models[0].operators[0] + (1 - w) * models[1].operators[0]
    assert np.allclose(blended.operators[0], expected, rtol=1e-14)


@pytest.mark.parametrize("q", [3, 4, 10])
def test_interpolate_matches_the_natural_cubic_spline(q):
    # unequally spaced grids, given out of order; ten parameters is the
    # paper-scale Burgers study
    rng = np.random.default_rng(q)
    grid = 0.1 + np.cumsum(rng.uniform(0.5, 1.5, q)) / q
    models = [
        rom.PolynomialModel(
            operators=(rng.normal(size=(3, 3)), rng.normal(size=(3, 6))),
            input_matrix=rng.normal(size=(3, 1)),
            parameter=mu,
        )
        for mu in grid
    ]
    oracle = CubicSpline(grid, np.array([m.stacked() for m in models]), axis=0, bc_type="natural")
    order = rng.permutation(q)
    shuffled = [models[k] for k in order]
    between = grid[:-1] + rng.uniform(0.05, 0.95, q - 1) * np.diff(grid)
    for target in [*grid, *between]:
        got = rom.interpolate(grid[order], shuffled, target).stacked()
        expected = oracle(target)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    # at a node, that node's model exactly
    for mu, model in zip(grid, models):
        assert np.array_equal(rom.interpolate(grid[order], shuffled, mu).stacked(), model.stacked())


def test_interpolate_refuses_extrapolation_and_mismatch():
    grid = np.array([0.1, 0.9])
    models = _affine_models(grid)
    with pytest.raises(ValueError):
        rom.interpolate(grid, models, 1.5)
    bad = _affine_models([0.1])[0]
    bad = rom.truncate(bad, 1)
    with pytest.raises(ValueError):
        rom.interpolate(grid, [models[0], bad], 0.5)
    with pytest.raises(ValueError):
        rom.interpolate([0.1], [models[0]], 0.1)


def test_polynomial_model_validation():
    with pytest.raises(ValueError):
        rom.PolynomialModel(operators=(np.zeros((2, 2)), np.zeros((2, 4))))
    with pytest.raises(ValueError):
        rom.PolynomialModel(operators=(np.full((2, 2), np.nan),))
    with pytest.raises(ValueError):
        rom.PolynomialModel(operators=(np.eye(2),), provenance="guessed")
