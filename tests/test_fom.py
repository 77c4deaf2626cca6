import math
import warnings

import numpy as np
import pytest

from opinfer import fom


def _random_state_input(model, rng, scale=1.0):
    x = scale * rng.normal(size=model.state_dim)
    u = scale * rng.normal(size=model.input_dim) if model.input_dim else None
    return x, u


BENCHMARKS = [
    lambda: fom.make_toy_linear(seed=4),
    lambda: fom.make_random_polynomial(9, 3, input_dim=2, seed=1),
    lambda: fom.make_burgers(0.5, num_nodes=32),
    lambda: fom.make_chafee_infante(num_nodes=24),
    lambda: fom.make_diffusion_reaction_2d(1.2, grid_points_per_dim=8),
    lambda: fom.make_diffusion_reaction_2d(1.2, grid_points_per_dim=8, degree=2),
]


def _mixed_reaction2d_block(model):
    """The five models and the `fom._block_step` of a reaction2d block with
    one mu per column (its Taylor coefficients as rows), on `model`'s grid
    and degree."""
    g = math.isqrt(model.state_dim)
    models = [
        fom.make_diffusion_reaction_2d(mu, grid_points_per_dim=g, degree=model.degree)
        for mu in (1.0, 1.1, 1.25, 1.4, 1.5)
    ]
    return models, fom._block_step(models, [1] * 5)


@pytest.mark.parametrize("build", BENCHMARKS)
def test_step_matches_multilinear_expansion(build):
    """Single states, and an (N, 5) block column by column: reaction2d's
    with one mu per column, every other model's of the model alone."""
    model = build()
    rng = np.random.default_rng(20)
    for _ in range(100):
        x, u = _random_state_input(model, rng)
        fast = model.step(x, u)
        poly = model.polynomial_step(x, u)
        assert np.linalg.norm(fast - poly) <= 1e-12 * (1.0 + np.linalg.norm(fast))
    models, step = [model] * 5, model.block_step
    if model.label == "diffusion-reaction-2d":
        models, step = _mixed_reaction2d_block(model)
    X = rng.normal(size=(model.state_dim, 5))
    U = rng.normal(size=(model.input_dim, 5)) if model.input_dim else None
    block = step(X, U)
    for l, column_model in enumerate(models):
        poly = column_model.polynomial_step(X[:, l], None if U is None else U[:, l])
        assert np.linalg.norm(block[:, l] - poly) <= 1e-12 * (1.0 + np.linalg.norm(block[:, l]))


def _layouts(A):
    """A C-ordered (rows, 5) array as a step may be given it: the block, its
    Fortran-ordered copy, a strided view of a wider array, and one column
    as a 1-D state, contiguous and strided."""
    wide = np.zeros((A.shape[0], 2 * A.shape[1]))
    wide[:, ::2] = A
    return [A, np.asfortranarray(A), wide[:, ::2], A[:, 2].copy(), A[:, 2]]


@pytest.mark.parametrize("build", BENCHMARKS)
def test_step_ignores_layout_and_writes_nothing_into_its_arguments(build):
    """Every layout of a state steps to the bits of its C-ordered copy, and
    the state, the input and the coefficient rows are left bitwise as they
    were: the model's own step, and for reaction2d the coefficient-row step
    of a mixed-mu block too (on blocks only, as its rows have five
    columns)."""
    model = build()
    rng = np.random.default_rng(31)
    X = rng.normal(size=(model.state_dim, 5))
    U = rng.normal(size=(model.input_dim, 5)) if model.input_dim else None
    states = _layouts(X)
    inputs = [None] * len(states) if U is None else _layouts(U)
    cases = [(model.block_step, len(states))]
    if model.label == "diffusion-reaction-2d":
        cases.append((_mixed_reaction2d_block(model)[1], 3))
    for step, count in cases:
        rows = getattr(step, "keywords", {}).get("c")
        kept_rows = None if rows is None else rows.copy()
        for x, u in zip(states[:count], inputs[:count]):
            kept_x, kept_u = x.copy(), None if u is None else u.copy()
            out = step(x, u)
            assert np.array_equal(x, kept_x)
            assert u is None or np.array_equal(u, kept_u)
            assert rows is None or np.array_equal(rows, kept_rows)
            assert not np.shares_memory(out, x)
            expected = step(np.ascontiguousarray(x), None if u is None else np.ascontiguousarray(u))
            assert np.array_equal(out, expected)


@pytest.mark.parametrize("build", BENCHMARKS)
def test_multilinear_forms_are_symmetric(build):
    model = build()
    rng = np.random.default_rng(21)
    for i in range(2, model.degree + 1):
        args = [rng.normal(size=model.state_dim) for _ in range(i)]
        base = model.multilinear(i, args)
        for _ in range(3):
            perm = rng.permutation(i)
            permuted = model.multilinear(i, [args[j] for j in perm])
            assert np.linalg.norm(permuted - base) <= 1e-14 * max(1.0, np.linalg.norm(base))


def test_toy_linear_spectral_radius_below_one():
    model = fom.make_toy_linear(seed=3)
    (A1,) = model.compressed_operators
    assert A1.shape == (10, 10)
    assert np.abs(np.linalg.eigvals(A1)).max() < 1.0


def test_toy_linear_is_deterministic():
    a = fom.make_toy_linear(seed=12).compressed_operators[0]
    b = fom.make_toy_linear(seed=12).compressed_operators[0]
    assert np.array_equal(a, b)
    c = fom.make_toy_linear(seed=13).compressed_operators[0]
    assert not np.array_equal(a, c)


def test_toy_linear_zero_fixed_point():
    model = fom.make_toy_linear(seed=1)
    assert np.array_equal(model.step(np.zeros(10)), np.zeros(10))


def test_simulate_zero_steps_returns_initial_state():
    model = fom.make_toy_linear(seed=0)
    x0 = np.arange(10.0)
    traj = fom.simulate(model, x0, num_steps=0)
    assert traj.states.shape == (10, 1)
    assert np.array_equal(traj.states[:, 0], x0)
    assert not traj.diverged


def test_simulate_identity_dynamics_is_constant():
    model = fom.FullOrderModel(
        state_dim=3, input_dim=0, degree=1, forms=(lambda w: w.copy(),)
    )
    traj = fom.simulate(model, np.array([1.0, -2.0, 0.5]), num_steps=5)
    assert np.all(traj.states == traj.states[:, :1])


def test_simulate_norm_bounded_by_matrix_power():
    model = fom.make_toy_linear(seed=9)
    (A1,) = model.compressed_operators
    x0 = np.ones(10)
    K = 100
    traj = fom.simulate(model, x0, num_steps=K)
    bound = np.linalg.norm(np.linalg.matrix_power(A1, K), 2) * np.linalg.norm(x0)
    assert np.linalg.norm(traj.states[:, -1]) <= bound * (1.0 + 1e-12)


def test_simulate_is_bitwise_deterministic():
    model = fom.make_burgers(0.4, num_nodes=32)
    U = fom.random_input_trajectory(50, 1, 0.0, 10.0, seed=5)
    a = fom.simulate(model, np.zeros(32), U)
    b = fom.simulate(model, np.zeros(32), U)
    assert np.array_equal(a.states, b.states)


def test_simulate_flags_divergence_and_truncates():
    calls = {"k": 0}

    def exploding(w):
        calls["k"] += 1
        return np.full(2, np.inf) if calls["k"] == 3 else 2.0 * w

    model = fom.FullOrderModel(state_dim=2, input_dim=0, degree=1, forms=(exploding,))
    traj = fom.simulate(model, np.ones(2), num_steps=10)
    # x_3 is the first non-finite state: flag it, keep x_0..x_2 only.
    assert traj.diverged_at == 3
    assert traj.states.shape == (2, 3)
    assert np.isfinite(traj.states).all()
    assert traj.X.shape == (2, 2) and traj.Y.shape == (2, 2)


def test_simulate_rejects_dimension_mismatch():
    model = fom.make_toy_linear(seed=0)
    with pytest.raises(ValueError):
        fom.simulate(model, np.zeros(7), num_steps=1)
    burgers = fom.make_burgers(0.5, num_nodes=16)
    with pytest.raises(ValueError):
        fom.simulate(burgers, np.zeros(16), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        fom.simulate(burgers, np.zeros(16), np.zeros((1, 3)), num_steps=5)


def test_burgers_constants():
    with pytest.raises(ValueError):
        fom.make_burgers(0.05)
    model = fom.make_burgers(1.0)
    assert model.state_dim == 128
    assert model.input_dim == 1
    assert model.degree == 2


def test_burgers_zero_state_step_is_input_injection():
    model = fom.make_burgers(0.3, num_nodes=16)
    out = model.step(np.zeros(16), np.array([2.5]))
    expected = np.zeros(16)
    expected[0], expected[-1] = 2.5, -2.5
    assert np.array_equal(out, expected)


def test_burgers_quadratic_is_step_minus_linear_minus_input():
    model = fom.make_burgers(0.7, num_nodes=24)
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=24)
        u = rng.normal(size=1)
        residual = model.step(x, u) - model.multilinear(1, [x]) - model.input_term(u)
        quad = model.multilinear(2, [x, x])
        assert np.allclose(residual, quad, atol=1e-13)


def test_burgers_quadratic_and_input_are_parameter_independent():
    rng = np.random.default_rng(8)
    m1 = fom.make_burgers(0.1, num_nodes=20)
    m2 = fom.make_burgers(1.0, num_nodes=20)
    w, z = rng.normal(size=(2, 20))
    assert np.array_equal(m1.multilinear(2, [w, z]), m2.multilinear(2, [w, z]))
    assert np.array_equal(m1.input_matrix, m2.input_matrix)


def test_chafee_infante_cubic_is_pointwise():
    model = fom.make_chafee_infante(num_nodes=16)
    w = np.linspace(-1.0, 2.0, 16)
    assert np.allclose(model.multilinear(3, [w, w, w]), -1e-5 * w**3, rtol=1e-13)
    assert np.array_equal(model.multilinear(2, [w, w]), np.zeros(16))


def test_chafee_infante_shapes():
    model = fom.make_chafee_infante()
    assert model.state_dim == 128
    assert (model.degree, model.input_dim) == (3, 1)


def test_chafee_infante_test_input_profile():
    # u(t) = 25 (sin(pi t) + 1) evaluated on the discrete time grid
    dt = 1e-5
    t = np.arange(10) * dt
    u = 25.0 * (np.sin(np.pi * t) + 1.0)
    assert u[0] == 25.0
    assert np.all((0.0 <= u) & (u <= 50.0))


def test_reaction_taylor_coeff_oracle():
    # direct evaluation of the k-th derivative of the reaction at 0
    mu = 1.0
    base = -(0.1 * np.sin(mu) + 2.0) * np.exp(-2.7 * mu**2)
    assert fom.reaction_taylor_coeff(mu, 0) == pytest.approx(base, rel=1e-14)
    assert fom.reaction_taylor_coeff(mu, 1) == pytest.approx(base * 1.8, rel=1e-14)
    assert fom.reaction_taylor_coeff(mu, 2) == pytest.approx(base * 1.8**2 / 2, rel=1e-14)
    assert fom.reaction_taylor_coeff(mu, 3) == pytest.approx(base * 1.8**3 / 6, rel=1e-14)


def test_reaction2d_finite_difference_of_reaction_matches_coeffs():
    # Finite-difference the scalar reaction against the model's pointwise terms.
    mu, g = 1.25, 8
    model = fom.make_diffusion_reaction_2d(mu, grid_points_per_dim=g)
    dt = 1e-2
    e = np.zeros(g * g)
    e[5] = 1.0
    c2 = (model.multilinear(2, [e, e]) / dt)[5]
    c3 = (model.multilinear(3, [e, e, e]) / dt)[5]

    def reaction(x):
        return -(0.1 * np.sin(mu) + 2.0) * np.exp(-2.7 * mu**2) * np.exp(1.8 * mu * x)

    h = 1e-3
    d2 = (reaction(h) - 2 * reaction(0.0) + reaction(-h)) / h**2
    d3 = (reaction(2 * h) - 2 * reaction(h) + 2 * reaction(-h) - reaction(-2 * h)) / (2 * h**3)
    assert c2 == pytest.approx(d2 / 2.0, rel=1e-5)
    assert c3 == pytest.approx(d3 / 6.0, rel=1e-4)


def test_reaction2d_zero_state_driven_by_constant_channel():
    model = fom.make_diffusion_reaction_2d(1.0, grid_points_per_dim=8)
    out = model.step(np.zeros(64), np.array([0.0, 1.0]))
    assert np.allclose(out, 1e-2 * fom.reaction_taylor_coeff(1.0, 0) * np.ones(64))


def test_reaction2d_validation():
    with pytest.raises(ValueError):
        fom.make_diffusion_reaction_2d(0.9)
    with pytest.raises(ValueError):
        fom.make_diffusion_reaction_2d(1.2, degree=4)


def test_reaction2d_default_size():
    model = fom.make_diffusion_reaction_2d(1.0)
    assert model.state_dim == 4096
    assert model.input_dim == 2


def test_random_input_trajectory_range_and_determinism():
    a = fom.random_input_trajectory(200, 2, -1.0, 3.0, seed=42)
    b = fom.random_input_trajectory(200, 2, -1.0, 3.0, seed=42)
    assert np.array_equal(a, b)
    assert a.shape == (2, 200)
    assert a.min() >= -1.0 and a.max() < 3.0
    with pytest.raises(ValueError):
        fom.random_input_trajectory(10, 1, 2.0, 2.0, seed=0)


def test_random_input_trajectory_mean_converges():
    U = fom.random_input_trajectory(10**6, 1, 0.0, 10.0, seed=7)
    assert abs(U.mean() - 5.0) < 0.05


def test_with_constant_channel():
    U = fom.random_input_trajectory(5, 1, 0.0, 1.0, seed=0)
    augmented = fom.with_constant_channel(U)
    assert augmented.shape == (2, 5)
    assert np.array_equal(augmented[1], np.ones(5))


@pytest.mark.parametrize("build", BENCHMARKS)
def test_block_step_equals_its_column_steps(build):
    """A block (N, m) steps like each of its columns: bitwise for the
    stencils, to rounding where B @ u is a matrix product on the block."""
    model = build()
    rng = np.random.default_rng(22)
    X = rng.normal(size=(model.state_dim, 5))
    U = rng.normal(size=(model.input_dim, 5)) if model.input_dim else None
    block = model.block_step(X, U)
    cols = np.column_stack(
        [model.step(X[:, l], None if U is None else U[:, l]) for l in range(5)]
    )
    if model.label in ("burgers", "chafee-infante"):
        assert np.array_equal(block, cols)
    else:
        assert np.abs(block - cols).max() <= 1e-14 * np.abs(cols).max()


def test_reaction2d_laplacian_equals_the_reflect_pad():
    """The sliced ghost rows give bitwise the five-point sum of np.pad's
    reflect padding, in the same order."""
    mu, g, dt = 1.3, 8, 1e-2
    model = fom.make_diffusion_reaction_2d(mu, grid_points_per_dim=g, dt=dt)
    w = np.random.default_rng(23).normal(size=g * g)
    W = np.pad(w.reshape(g, g), 1, mode="reflect")
    lap = (
        W[:-2, 1:-1] + W[2:, 1:-1] + W[1:-1, :-2] + W[1:-1, 2:] - 4.0 * W[1:-1, 1:-1]
    ).ravel()
    expected = w + dt * (lap + fom.reaction_taylor_coeff(mu, 1) * w)
    assert np.array_equal(model.multilinear(1, [w]), expected)


def test_simulate_block_equals_single_runs():
    model = fom.make_burgers(0.4, num_nodes=32)
    rng = np.random.default_rng(24)
    X0 = 0.1 * rng.normal(size=(32, 3))
    U = rng.uniform(0.0, 10.0, (1, 40, 3))
    block = fom.simulate(model, X0, U)
    assert block.states.shape == (32, 41, 3) and not block.diverged
    for l in range(3):
        single = fom.simulate(model, X0[:, l], U[:, :, l])
        assert np.array_equal(block.states[:, :, l], single.states)
    with pytest.raises(ValueError):
        fom.simulate(model, X0, U[:, :, :2])
    with pytest.raises(ValueError):
        fom.simulate(model, X0[:, 0], U)


def test_block_divergence_names_the_earliest_step():
    """The earliest diverged column of a block names the step, whichever
    column of the block it is."""
    model = fom.make_random_polynomial(6, 2, input_dim=1, seed=2)
    U = np.stack([np.full((1, 60), a) for a in (0.1, 40.0, 100.0)], axis=-1)
    singles = [fom.simulate(model, np.zeros(6), U[:, :, l]).diverged_at for l in range(3)]
    assert singles[0] is None and 0 < singles[2] < singles[1]
    block = fom.simulate(model, np.zeros((6, 3)), U)
    assert list(block.diverged_at) == [0] + singles[1:]
    with pytest.raises(fom.NumericalFailure, match=f"diverged at step {singles[2]}$"):
        fom._fail_if_diverged(block.diverged_at)


def _joined(windows):
    """The states x_0 .. x_K joined from the windows of `fom._windows`, each
    copied as it is yielded, and the diverged_at of the last window."""
    copies, diverged_at = [], None
    for k, states, diverged_at in windows:
        assert k == sum(c.shape[1] - 1 for c in copies)
        copies.append(states.copy())
        diverged_at = np.copy(diverged_at) if diverged_at is not None else None
    return np.concatenate([c[:, :-1] for c in copies[:-1]] + copies[-1:], axis=1), diverged_at


@pytest.mark.parametrize("steps", [1, 7])
def test_windows_joined_equal_simulate(monkeypatch, steps):
    model = fom.make_burgers(0.4, num_nodes=32)
    rng = np.random.default_rng(25)
    X0 = 0.1 * rng.normal(size=(32, 3))
    U = rng.uniform(0.0, 10.0, (1, 40, 3))
    for x0, u in ((X0[:, 0], U[:, :, 0]), (X0, U)):
        expected = fom.simulate(model, x0, u)
        monkeypatch.setattr(fom, "_WINDOW_BYTES", steps * 8 * x0.size)
        windows = list(fom._windows(model.block_step, x0, u, 40))
        assert len(windows) == -(-40 // steps)
        states, diverged_at = _joined(fom._windows(model.block_step, x0, u, 40))
        assert np.array_equal(states, expected.states) and diverged_at is None
        # a window is a view of one reused buffer
        assert all(np.shares_memory(w[1], windows[0][1]) for w in windows)


def test_window_of_a_diverging_single_run_ends_at_its_last_finite_state(monkeypatch):
    model = fom.make_random_polynomial(6, 2, input_dim=1, seed=2)
    U = np.full((1, 60), 100.0)
    expected = fom.simulate(model, np.zeros(6), U)
    assert expected.diverged_at == 12
    # windows of 7 steps: x_7 .. x_14 would be the second, which stops at x_11
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 7 * 8 * 6)
    windows = [(k, states.copy(), d) for k, states, d in fom._windows(model.block_step, np.zeros(6), U, 60)]
    assert [(k, states.shape[1], d) for k, states, d in windows] == [(0, 8, None), (7, 5, 12)]
    assert np.isfinite(windows[-1][1]).all()
    states, diverged_at = _joined(fom._windows(model.block_step, np.zeros(6), U, 60))
    assert np.array_equal(states, expected.states) and diverged_at == 12


def test_block_column_diverged_in_an_earlier_window_stays_frozen(monkeypatch):
    model = fom.make_random_polynomial(6, 2, input_dim=1, seed=2)
    U = np.stack([np.full((1, 60), a) for a in (0.1, 100.0)], axis=-1)
    expected = fom.simulate(model, np.zeros((6, 2)), U)
    assert list(expected.diverged_at) == [0, 12]
    last_finite = expected.states[:, 11, 1]
    # windows of 7 steps: the second column diverges in the second window
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 7 * 8 * 12)
    later = 0
    for k, states, diverged_at in fom._windows(model.block_step, np.zeros((6, 2)), U, 60):
        assert np.array_equal(states, expected.states[:, k : k + states.shape[1]])
        if k + states.shape[1] - 1 < 12:
            assert diverged_at is None
        else:
            assert list(diverged_at) == [0, 12]
        if k > 12:
            later += 1
            assert np.all(states[:, :, 1] == last_finite[:, None])
    assert later == 7  # the windows at k = 14, 21, ..., 56
    states, diverged_at = _joined(fom._windows(model.block_step, np.zeros((6, 2)), U, 60))
    assert np.array_equal(states, expected.states) and list(diverged_at) == [0, 12]


def _mixed_block(models, counts, rng, K, scale):
    """A block of counts[j] random starts and inputs for models[j] in turn,
    its `fom._run`, and the per-model (starts, inputs) it was made of."""
    per_model = [
        (
            scale * rng.normal(size=(model.state_dim, m)),
            rng.uniform(-1.0, 1.0, (model.input_dim, K, m)),
        )
        for model, m in zip(models, counts)
    ]
    starts = [list(X0.T) for X0, _ in per_model]
    inputs = [[U[:, :, l] for l in range(U.shape[2])] for _, U in per_model]
    block = fom._run(*fom._stacked(models, starts, inputs))
    return block, per_model


@pytest.mark.parametrize(
    "build, mus, tol",
    [
        (lambda mu: fom.make_burgers(mu, num_nodes=32), (0.3, 1.0, 0.6), 0.0),
        # no shared parameter row: each model steps its own column slice
        (lambda mu: fom.make_random_polynomial(7, 2, input_dim=2, seed=mu), (1, 2, 3), 0.0),
        (lambda mu: fom.make_diffusion_reaction_2d(mu, grid_points_per_dim=8), (1.5, 1.0, 1.2),
         1e-14),
    ],
)
def test_mixed_parameter_block_equals_per_parameter_simulate(build, mus, tol):
    """One block of three parameters' columns steps like each parameter's
    own `simulate`: bitwise for Burgers' mu row and for column slices, to
    rounding for reaction2d's coefficient rows."""
    models = [build(mu) for mu in mus]
    counts = (2, 1, 3)
    block, per_model = _mixed_block(models, counts, np.random.default_rng(26), 30, 0.1)
    assert block.states.shape == (models[0].state_dim, 31, 6) and not block.diverged
    first = 0
    for model, (X0, U), m in zip(models, per_model, counts):
        single = fom.simulate(model, X0, U).states
        mixed = block.states[:, :, first : first + m]
        assert np.abs(mixed - single).max() <= tol * np.abs(single).max()
        first += m


def test_mixed_block_divergence_freezes_only_its_own_columns():
    """Under the same time step, Burgers with a large mu is unstable and
    with a small one is not: the unstable parameter's columns freeze at
    their own last finite states, the stable ones step on bitwise."""
    models = [fom.make_burgers(mu, dt=4e-3, num_nodes=32) for mu in (0.9, 0.2)]
    counts = (2, 2)
    block, per_model = _mixed_block(models, counts, np.random.default_rng(27), 80, 0.01)
    singles = [fom.simulate(model, X0, U) for model, (X0, U) in zip(models, per_model)]
    assert singles[1].diverged_at is None and np.all(singles[0].diverged_at > 0)
    assert list(block.diverged_at) == list(singles[0].diverged_at) + [0, 0]
    assert np.array_equal(block.states[:, :, 2:], singles[1].states)
    for l, end in enumerate(singles[0].diverged_at):
        assert np.array_equal(block.states[:, :end, l], singles[0].states[:, :end, l])
        assert np.all(block.states[:, end:, l] == block.states[:, end - 1, l : l + 1])


def test_mixed_block_failure_names_the_earliest_step_of_any_parameter():
    """The full-model passes raise NumericalFailure at the earliest diverged
    step of the whole block, here in the second parameter's columns."""
    models = [fom.make_random_polynomial(6, 2, input_dim=1, seed=2 + j) for j in range(2)]
    inputs = [[np.full((1, 60), 0.1)], [np.full((1, 60), a) for a in (0.2, 100.0)]]
    block = fom._run(*fom._stacked(models, [[np.zeros(6)]] * 1 + [[np.zeros(6)] * 2], inputs))
    single = fom.simulate(models[1], np.zeros(6), inputs[1][1]).diverged_at
    assert list(block.diverged_at) == [0, 0, single]
    with pytest.raises(fom.NumericalFailure, match=f"diverged at step {single}$"):
        fom._fail_if_diverged(block.diverged_at)


def _contiguity_recorded(step, seen):
    """`step` that records, per call, whether its state and input arrays are
    C-contiguous (an input-free call counts as contiguous)."""

    def recorded(x, u):
        seen.append(x.flags.c_contiguous and (u is None or u.flags.c_contiguous))
        return step(x, u)

    return recorded


def test_windows_step_only_contiguous_states_and_inputs(monkeypatch):
    """The step never sees a strided view of the window buffer: not for a
    single run, not for a block, not across windows and not once a column of
    the block is frozen.  Two input rows make an input column strided in
    the (p, K[, m]) inputs.  Nothing warns."""
    model = fom.make_random_polynomial(6, 2, input_dim=2, seed=2)
    rng = np.random.default_rng(28)
    X0 = 0.1 * rng.normal(size=(6, 3))
    U = rng.uniform(-1.0, 1.0, (2, 40, 3))
    U[:, :, 2] = 100.0  # this column diverges at step 13
    cases = [(X0[:, 0], U[:, :, 0], False), (X0[:, :2], U[:, :, :2], False), (X0, U, True)]
    for x0, u, freezes in cases:
        for steps in (7, 40):  # several windows, and one
            monkeypatch.setattr(fom, "_WINDOW_BYTES", steps * 8 * x0.size)
            seen = []
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                states, diverged_at = _joined(
                    fom._windows(_contiguity_recorded(model.block_step, seen), x0, u, 40)
                )
            assert len(seen) == 40 and all(seen)
            assert np.array_equal(states, fom.simulate(model, x0, u).states)
            assert np.count_nonzero(diverged_at) == freezes
    assert list(fom.simulate(model, X0, U).diverged_at) == [0, 0, 13]


@pytest.mark.parametrize("steps", [7, 30])
def test_block_columns_diverging_inside_one_window_equal_their_single_runs(monkeypatch, steps):
    """Columns that diverge at steps 17 and 18 of the window x_14 .. x_21,
    and one that diverges at its last state x_21, each stop as their own
    `simulate` does, bit for bit (Burgers steps a block column by column
    like a single run), and the finite column steps on; nothing warns."""
    model = fom.make_burgers(0.9, dt=4e-3, num_nodes=32)  # unstable step
    v = np.random.default_rng(29).normal(size=32)
    X0 = np.column_stack([scale * v for scale in (1e-12, 0.5, 0.2, 0.02)])
    U = np.zeros((1, 30, 4))
    singles = [fom.simulate(model, X0[:, l], U[:, :, l]) for l in range(4)]
    assert [single.diverged_at for single in singles] == [None, 17, 18, 21]
    monkeypatch.setattr(fom, "_WINDOW_BYTES", steps * 8 * X0.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        states, diverged_at = _joined(fom._windows(model.block_step, X0, U, 30))
        block = fom.simulate(model, X0, U)
    assert list(diverged_at) == list(block.diverged_at) == [0, 17, 18, 21]
    assert np.array_equal(states, block.states)
    assert np.array_equal(states[:, :, 0], singles[0].states)
    for l, single in enumerate(singles[1:], start=1):
        end = single.diverged_at
        assert np.array_equal(states[:, :end, l], single.states)
        assert np.all(states[:, end:, l] == single.states[:, -1:])


def test_window_sum_overflow_of_finite_states_is_no_divergence(monkeypatch):
    """States near the largest double are finite though the sum of a
    window of them overflows: no run diverges, and nothing warns."""
    model = fom._model_from_compressed([np.eye(3)], None)
    x0 = np.full(3, 1.5e308)
    X0 = np.column_stack([x0, -x0, np.ones(3)])
    monkeypatch.setattr(fom, "_WINDOW_BYTES", 5 * 8 * X0.size)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in (x0, X0):
            single = fom.simulate(model, start, num_steps=12)
            assert single.diverged_at is None
            assert np.all(single.states == np.expand_dims(start, 1))
            states, diverged_at = _joined(fom._windows(model.block_step, start, None, 12))
            assert diverged_at is None and np.array_equal(states, single.states)
