"""Full-order polynomial dynamical systems and the benchmark discretizations.

A full-order model is a time-discrete system

    x_{k+1} = f(x_k, u_k) = sum_i L_i(x_k, ..., x_k) + B u_k

with symmetric multilinear forms L_i of degree i = 1..ell acting on the state
and an input matrix B.  The constructors below build the four benchmark
systems (a random stable linear map, viscous Burgers, Chafee-Infante, and a
2-D diffusion-reaction problem) plus generic random polynomial systems for
testing.  `step` evaluates f through a direct (stencil) path when one is
attached; `polynomial_step` always goes through the multilinear forms, which
gives an independent cross-check of each discretization.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .polytensor import compressed_dim, compressed_powers, symmetrized_compressed_power


class NumericalFailure(RuntimeError):
    """A study failed numerically, e.g. a full model diverged where a finite
    trajectory is needed (exit code 3 of the command line)."""


@dataclass(frozen=True)
class Trajectory:
    """A simulated state sequence, columns x_0 .. x_K (full or reduced).

    `simulate` stores K+1 columns for K requested steps.  If a non-finite
    state appears, storage stops before it: `diverged_at` is the sequence
    index of the first non-finite state and only the finite columns x_0 ..
    x_{diverged_at - 1} are kept.  The `X`/`Y` views pair valid one-step
    transitions.

    A block of m sequences stepped side by side has states of shape
    (dim, K+1, m): time stays on axis 1, and all K+1 steps are kept.  A
    sequence of the block that diverges is frozen at its last finite state
    while the others go on, so its frozen columns are no transitions;
    `diverged_at` is then an (m,) integer array of each sequence's first
    non-finite index, 0 for the sequences that stayed finite, and None if
    all of them did.  The study passes, which reduce their states, take them
    window by window from `_windows` instead and never hold all K+1.
    """

    states: np.ndarray
    diverged_at: int | np.ndarray | None = None

    def __post_init__(self):
        if self.states.ndim not in (2, 3):
            raise ValueError(f"states must be 2-D or 3-D, got shape {self.states.shape}")
        if not np.isfinite(self.states).all():
            raise ValueError("stored trajectory columns must be finite")

    @property
    def diverged(self):
        return self.diverged_at is not None

    @property
    def X(self):
        """Columns x_0 .. x_{K-1} (inputs of each stored transition)."""
        return self.states[:, :-1]

    @property
    def Y(self):
        """Columns x_1 .. x_K (outputs of each stored transition)."""
        return self.states[:, 1:]


@dataclass(frozen=True)
class FullOrderModel:
    """Polynomial system of degree `degree` with `state_dim` states.

    `forms[i-1]` is the degree-i symmetric multilinear form, callable on i
    state-dimension vectors.  `compressed_operators`, when present, holds the
    matrices A_i acting on compressed powers (kept for models that are built
    from explicit operators; stencil-based benchmarks leave it None).
    `coefficients`, when present, holds the parameter-dependent scalars c
    (q,) that `step_impl(x, u, c)` takes as its third argument; models of one
    benchmark discretization share `step_impl`, so a block of several of
    them steps with c as rows (q, m), one per column (`_block_step`).
    """

    state_dim: int
    input_dim: int
    degree: int
    forms: tuple
    input_matrix: np.ndarray = None
    parameter: float = None
    label: str = "fom"
    step_impl: object = None
    compressed_operators: tuple = None
    coefficients: np.ndarray = None

    def multilinear(self, i, args):
        """Apply the degree-i form to i argument vectors."""
        if not 1 <= i <= self.degree:
            raise ValueError(f"degree {i} outside 1..{self.degree}")
        if len(args) != i:
            raise ValueError(f"degree-{i} form takes {i} arguments, got {len(args)}")
        return self.forms[i - 1](*args)

    def input_term(self, u):
        return self.input_matrix @ np.asarray(u, dtype=float)

    def step(self, x, u=None):
        """One time step f(x, u); uses the direct evaluation path if attached."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.state_dim,):
            raise ValueError(f"state must have shape ({self.state_dim},), got {x.shape}")
        return self.block_step(x, _check_input(self, u))

    def polynomial_step(self, x, u=None):
        """f(x, u) evaluated strictly through the multilinear forms."""
        return self._forms_step(np.asarray(x, dtype=float), _check_input(self, u))

    @property
    def block_step(self):
        """Unchecked f(x, u) of a state (N,) with inputs (p,), or of each
        column of a block (N, m) with inputs (p, m): `step_impl` if attached
        (given the model's `coefficients`, if any), else the multilinear
        forms (which must then accept blocks)."""
        if self.step_impl is None:
            return self._forms_step
        if self.coefficients is None:
            return self.step_impl
        return functools.partial(self.step_impl, c=self.coefficients)

    def _forms_step(self, x, u):
        out = np.zeros(x.shape)
        for i in range(1, self.degree + 1):
            out += self.forms[i - 1](*([x] * i))
        if self.input_dim:
            out += self.input_matrix @ u
        return out


def _check_input(model, u):
    if model.input_dim == 0:
        return None
    if u is None:
        raise ValueError(f"model expects inputs of dimension {model.input_dim}")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.shape != (model.input_dim,):
        raise ValueError(f"input must have shape ({model.input_dim},), got {u.shape}")
    return u


def simulate(model, x0, U=None, num_steps=None):
    """Time step a model for `num_steps` steps from x0.

    x0 is one start (N,) with input columns u_0 .. (at least num_steps of
    them) as a (p, K) array, or a block of m starts (N, m) with inputs
    (p, K, m), stepped side by side into states (N, K+1, m); an input-free
    model takes only the number of columns of U, if given.  The arguments
    are checked once here (`_checked`) and the model's unchecked
    `block_step` goes to `_run`.  A single run stops early with the
    divergence flag set; in a block a diverged column is frozen and the
    others go on (see `Trajectory`).
    """
    return _run(model.block_step, *_checked(model, x0, U, num_steps))


def _checked(model, x0, U, num_steps):
    """The arguments (x0, U, num_steps) of a run of `model` for `_run` or
    `_windows`, checked as `simulate` describes them."""
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim not in (1, 2) or x0.shape[0] != model.state_dim:
        raise ValueError(
            f"x0 must have {model.state_dim} rows and 1 or 2 axes, got {x0.shape}"
        )
    return (x0, *_input_columns(model, U, num_steps, x0))


def _input_columns(model, U, num_steps, x0=None):
    """Checked input columns (None for an input-free model) and the number of
    steps: `num_steps`, by default one per column of U (an input-free model
    given no U takes none).  Given the starts x0, inputs (p, K) must go with
    one start (dim,) and inputs (p, K, m) with a block (dim, m)."""
    if model.input_dim == 0:
        if num_steps is None and U is not None:
            num_steps = np.shape(U)[1]
        return None, num_steps or 0
    if U is None:
        raise ValueError("model has inputs; provide U")
    U = np.asarray(U, dtype=float)
    if U.shape[0] != model.input_dim:
        raise ValueError(f"U must have {model.input_dim} rows, got {U.shape[0]}")
    if num_steps is not None and U.shape[1] < num_steps:
        raise ValueError(f"U has {U.shape[1]} columns, need at least {num_steps}")
    if x0 is not None and U.shape[2:] != x0.shape[1:]:
        raise ValueError(f"inputs of shape {U.shape} do not match starts of shape {x0.shape}")
    return U, U.shape[1] if num_steps is None else num_steps


def _input_block(inputs, num_steps=None):
    """The (p, K, m) inputs of a block of m starts: one (p, K_l) array per
    start, each cut to its first `num_steps` columns (all by default)."""
    cut = [np.asarray(U, dtype=float)[:, :num_steps] for U in inputs]
    shapes = sorted({U.shape for U in cut})
    if len(shapes) != 1:
        raise ValueError(f"the inputs of one block must share a shape, got {shapes}")
    return np.stack(cut, axis=-1)


def _stacked(models, starts, input_sets, num_steps=None):
    """The arguments (step, x0, U, num_steps) of `_windows` for one block in
    which model j runs from each start of starts[j] under the matching input
    trajectory of input_sets[j], every run of every model side by side in
    that order.  All inputs are cut to their first `num_steps` columns (all
    by default) and must then share a shape; the runs take one step per
    input column.  The step is `_block_step`."""
    if len({(model.state_dim, model.input_dim) for model in models}) != 1:
        raise ValueError("the models of one block must share state and input dimensions")
    counts = [len(inputs) for inputs in input_sets]
    if [len(x0s) for x0s in starts] != counts:
        raise ValueError("one start per input trajectory required")
    x0 = np.column_stack([x0 for x0s in starts for x0 in x0s])
    U = _input_block([U for inputs in input_sets for U in inputs], num_steps)
    return (_block_step(models, counts), *_checked(models[0], x0, U, None))


def _block_step(models, counts):
    """The unchecked step of a block whose columns belong to the models in
    turn, counts[j] columns to models[j].

    One model steps the whole block.  Models that share a `step_impl` with
    `coefficients` step it once, with the coefficients of each column's
    model as rows.  Other models each step their own column slice.
    """
    first = models[0]
    if all(model is first for model in models):
        return first.block_step
    if first.coefficients is not None and all(
        model.step_impl is first.step_impl for model in models
    ):
        rows = np.repeat(np.column_stack([model.coefficients for model in models]), counts, axis=1)
        return functools.partial(first.step_impl, c=rows)
    bounds = np.cumsum([0, *counts])
    slices = [(model.block_step, slice(a, b)) for model, a, b in zip(models, bounds, bounds[1:])]

    def step(x, u):
        out = np.empty_like(x)
        for model_step, cut in slices:
            out[:, cut] = model_step(x[:, cut], None if u is None else u[:, cut])
        return out

    return step


def _fail_if_diverged(diverged_at):
    """Raise NumericalFailure naming the earliest step at which a run (one
    run or a block) with this `diverged_at` diverged; None passes."""
    if diverged_at is not None:
        steps = np.atleast_1d(diverged_at)
        raise NumericalFailure(f"full model diverged at step {steps[steps > 0].min()}")


# bytes of the states of one window of `_windows` (which holds at least one step)
_WINDOW_BYTES = 2 << 20


def _windows(step, x0, U, num_steps, width=None):
    """The one stepping loop: x_{k+1} = step(x_k, u_k) for k < num_steps,
    in windows of `width` steps, by default as many as fit in _WINDOW_BYTES.

    x0 is one start (dim,) with inputs (p, K), or a block of m starts
    (dim, m) with inputs (p, K, m) that `step` advances side by side; U is
    None for an input-free model.  Yields (k, states, diverged_at) at least
    once: states (dim, w+1[, m]) holds x_k .. x_{k+w}, the next window's
    first state included, in one buffer that the next window overwrites.  A
    non-finite single run stops at its last finite state, diverged_at being
    the index of the first non-finite one.  In a block only a non-finite
    column stops, frozen at its last finite state from then on, so its
    overflow never reaches the states; diverged_at is the (m,) array of
    `Trajectory` so far, or None while every column is finite.

    `step` gets the current state and input as C-contiguous arrays of their
    own, not as strided views of the window.  Finiteness is screened once
    per window, by the sum of its states: only a window whose sum is not
    finite is scanned step by step (`_cut_at_divergence`).  A column that
    diverges is stepped on until the window ends, so this needs `step` to
    advance the columns of a block independently of one another, which
    every step of the package does: a column's inf or nan never reaches
    another column.  It also costs the steps left in the window; `_run`
    has a single window, so a diverging run of it steps to its end.
    """
    x = np.array(x0, dtype=float, order="C")
    if not np.isfinite(x).all():
        raise ValueError("x0 must be finite")
    if width is None:
        width = max(_WINDOW_BYTES // (8 * x.size), 1)
    width = min(width, num_steps)
    states = np.empty((x.shape[0], width + 1) + x.shape[1:])
    states[:, 0] = x
    diverged_at = np.zeros(x.shape[1], dtype=int) if x.ndim == 2 else None
    frozen = None
    k = 0
    while True:
        w = min(width, num_steps - k)
        # an input column (p[, m]) is copied only where it is strided (p > 1),
        # never the inputs of a whole window: `_run` has only one
        inputs = None if U is None else np.moveaxis(U[:, k : k + w], 1, 0)
        # divergence is detected, not propagated: overflow warnings are
        # expected (the error state is left before each yield)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(w):
                stepped = step(x, None if inputs is None else np.ascontiguousarray(inputs[j]))
                if frozen is not None:
                    np.copyto(stepped, x, where=frozen)
                x = np.ascontiguousarray(stepped)
                states[:, j + 1] = x
            # any inf or nan makes the sum non-finite; a sum that overflows
            # from finite states only costs the scan
            finite = np.isfinite(states[:, 1 : w + 1].sum())
        if not finite:
            stop = _cut_at_divergence(states[:, : w + 1], k, diverged_at)
            if stop is not None:  # the single run stopped
                yield k, states[:, :stop], k + stop
                return
            x = states[:, w].copy()
            if diverged_at is not None and diverged_at.any():
                frozen = diverged_at > 0
        yield k, states[:, : w + 1], None if frozen is None else diverged_at
        k += w
        if k == num_steps:
            return
        states[:, 0] = x


def _cut_at_divergence(states, k, diverged_at):
    """Scan the window states x_k .. x_{k+w} of `_windows` step by step for
    the first non-finite state.  A single run (diverged_at None) returns
    its index in the window, or None if all are finite.  In a block each
    column found non-finite gets its index k + j in diverged_at, and from
    there on to the window's end it holds its last finite state; returns
    None."""
    for j in range(1, states.shape[1]):
        finite = np.isfinite(states[:, j]).all(axis=0)
        if diverged_at is None:
            if not finite:
                return j
            continue
        diverged_at[~finite & (diverged_at == 0)] = k + j
        np.copyto(states[:, j], states[:, j - 1], where=diverged_at > 0)
    return None


def _run(step, x0, U, num_steps):
    """`_windows` in one window: the whole `Trajectory` of a run or a block."""
    ((_, states, diverged_at),) = _windows(step, x0, U, num_steps, width=num_steps)
    if np.ndim(diverged_at) == 0 and diverged_at:
        states = states.copy()  # a single run cut short frees its unused steps
    return Trajectory(states=states, diverged_at=diverged_at)


def random_input_trajectory(num_steps, input_dim, low, high, seed):
    """I.i.d. uniform input columns in [low, high) from a seeded generator,
    shape (input_dim, num_steps)."""
    if not low < high:
        raise ValueError(f"need low < high, got [{low}, {high})")
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, (input_dim, num_steps))


def with_constant_channel(U):
    """Append a constant-one input row (used for constant forcing terms)."""
    U = np.asarray(U, dtype=float)
    return np.vstack([U, np.ones(U.shape[1])])


# ---------------------------------------------------------------------------
# Benchmark systems
# ---------------------------------------------------------------------------

def make_toy_linear(state_dim=10, seed=0, radius=0.95):
    """Random stable linear map x_{k+1} = A1 x_k.

    A1 entries are uniform in [0, 1], then rescaled by radius / rho(A1) so the
    spectral radius is below one.
    """
    rng = np.random.default_rng(seed)
    A1 = rng.uniform(0.0, 1.0, (state_dim, state_dim))
    A1 *= radius / np.abs(np.linalg.eigvals(A1)).max()
    return FullOrderModel(
        state_dim=state_dim,
        input_dim=0,
        degree=1,
        forms=(lambda w: A1 @ w,),
        label="toy-linear",
        compressed_operators=(A1,),
    )


def make_random_polynomial(
    state_dim, degree, input_dim=0, seed=0, linear_radius=0.6, nonlinear_scale=0.25
):
    """Random polynomial system with bounded short-horizon dynamics.

    The linear operator is rescaled to spectral radius `linear_radius`; the
    degree-i operators (i >= 2) get entries of size nonlinear_scale / n_i so
    that order-one states stay bounded over a few hundred steps.  Used by the
    recovery test suites.
    """
    rng = np.random.default_rng(seed)
    ops = []
    A1 = rng.uniform(-1.0, 1.0, (state_dim, state_dim))
    A1 *= linear_radius / np.abs(np.linalg.eigvals(A1)).max()
    ops.append(A1)
    for i in range(2, degree + 1):
        ni = compressed_dim(state_dim, i)
        ops.append(rng.uniform(-1.0, 1.0, (state_dim, ni)) * (nonlinear_scale / ni))
    B = rng.uniform(-0.5, 0.5, (state_dim, input_dim)) if input_dim else None
    return _model_from_compressed(ops, B, label="random-polynomial")


def _model_from_compressed(operators, input_matrix, parameter=None, label="fom"):
    """Model whose forms and step come from explicit compressed operators."""
    operators = tuple(np.asarray(A, dtype=float) for A in operators)
    state_dim = operators[0].shape[0]
    degree = len(operators)

    def make_form(A, i):
        if i == 1:
            return lambda w: A @ w
        return lambda *ws: A @ symmetrized_compressed_power(ws)

    def step_impl(x, u):
        powers = compressed_powers(x, degree)
        out, start = operators[0] @ powers[:state_dim], state_dim
        for A in operators[1:]:
            out += A @ powers[start : start + A.shape[1]]
            start += A.shape[1]
        if input_matrix is not None:
            out += input_matrix @ u
        return out

    return FullOrderModel(
        state_dim=state_dim,
        input_dim=0 if input_matrix is None else input_matrix.shape[1],
        degree=degree,
        forms=tuple(make_form(A, i + 1) for i, A in enumerate(operators)),
        input_matrix=None if input_matrix is None else np.asarray(input_matrix, float),
        parameter=parameter,
        label=label,
        step_impl=step_impl,
        compressed_operators=operators,
    )


def make_burgers(mu, dt=1e-4, num_nodes=128):
    """Viscous Burgers on (-1, 1), Dirichlet x(-1)=u, x(1)=-u, forward Euler.

    The state holds all `num_nodes` grid values including the two boundary
    nodes; their next value is injected from the input (rows of A1 and the
    quadratic term are zero there), which keeps the quadratic operator and
    the input matrix independent of the diffusion parameter.  Interior nodes
    use central differences for both diffusion and the convection term
    x * dx/dxi.  The step takes mu as its one coefficient (`_burgers_step`).
    """
    if not 0.1 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0.1, 1], got {mu}")
    N = num_nodes
    h = 2.0 / (N - 1)

    A1 = np.zeros((N, N))
    inner = np.arange(1, N - 1)
    A1[inner, inner] = 1.0 - 2.0 * dt * mu / h**2
    A1[inner, inner - 1] = dt * mu / h**2
    A1[inner, inner + 1] = dt * mu / h**2

    B = np.zeros((N, 1))
    B[0, 0] = 1.0
    B[-1, 0] = -1.0

    conv = dt / (2.0 * h)

    def quad(w, z):
        out = np.zeros(N)
        out[1:-1] = -0.5 * conv * (
            w[1:-1] * (z[2:] - z[:-2]) + z[1:-1] * (w[2:] - w[:-2])
        )
        return out

    return FullOrderModel(
        state_dim=N,
        input_dim=1,
        degree=2,
        forms=(lambda w: A1 @ w, quad),
        input_matrix=B,
        parameter=mu,
        label="burgers",
        step_impl=_burgers_step(dt, N),
        coefficients=np.array([mu], dtype=float),
    )


@functools.cache
def _burgers_step(dt, num_nodes):
    """The Burgers step f(x, u, c) of one grid and time step, mu = c[0] a
    scalar or a row (m,) of one mu per column; shared by every mu."""
    h = 2.0 / (num_nodes - 1)

    def step_impl(x, u, c):
        mu = c[0]
        out = np.empty_like(x)
        out[1:-1] = x[1:-1] + dt * (
            mu * (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h**2
            - x[1:-1] * (x[2:] - x[:-2]) / (2.0 * h)
        )
        out[0] = u[0]
        out[-1] = -u[0]
        return out

    return step_impl


def make_chafee_infante(dt=1e-5, num_nodes=128):
    """Chafee-Infante on (0, 1): x_t = x_xx - x^3 + x, forward Euler.

    Dirichlet x(0) = u(t) is eliminated into the input matrix; the Neumann
    condition at xi = 1 uses a mirrored ghost node.  Parameter-free; the
    degree-2 slot is present but identically zero.

    The step is one fused stencil, a x + c s - dt x x x with
    a = 1 + dt - 2 dt/h^2 and c = dt/h^2: s is the sum of the two
    neighbours, written into the output, with its boundary rows patched
    (the input u at xi = 0, the mirrored ghost 2 x_{N-2} at xi = 1).  It
    cubes by products, as the degree-3 form does: numpy's float power calls
    libm `pow`, which is many times slower on negative entries, and the
    lifted states V z of re-projection have both signs.
    """
    N = num_nodes
    h = 1.0 / N
    a, c = 1.0 + dt * (1.0 - 2.0 / h**2), dt / h**2

    A1 = np.zeros((N, N))
    idx = np.arange(N)
    A1[idx, idx] = a
    A1[idx[:-1], idx[:-1] + 1] = c
    A1[idx[1:], idx[1:] - 1] = c
    A1[-1, -2] = 2.0 * c  # mirrored ghost at the Neumann end

    B = np.zeros((N, 1))
    B[0, 0] = c

    zero2 = lambda w, z: np.zeros(N)
    cubic = lambda w, z, y: -dt * (w * z * y)

    def step_impl(x, u):
        # leading slices, never x[0]: a 1-D state's row is a scalar, no view
        out = np.empty_like(x)
        np.add(x[2:], x[:-2], out=out[1:-1])
        np.add(x[1:2], u[:1], out=out[:1])
        np.add(x[-2:-1], x[-2:-1], out=out[-1:])
        out *= c
        term = a * x
        out += term
        np.multiply(x, x, out=term)
        term *= x
        term *= dt
        out -= term
        return out

    return FullOrderModel(
        state_dim=N,
        input_dim=1,
        degree=3,
        forms=(lambda w: A1 @ w, zero2, cubic),
        input_matrix=B,
        label="chafee-infante",
        step_impl=step_impl,
    )


def reaction_taylor_coeff(mu, k, a=0.1, b=2.7, c=1.8):
    """k-th Taylor coefficient about 0 of -(a sin(mu)+2) exp(-mu^2 b) exp(mu x c)."""
    return -(a * math.sin(mu) + 2.0) * math.exp(-b * mu * mu) * (c * mu) ** k / math.factorial(k)


def make_diffusion_reaction_2d(mu, grid_points_per_dim=64, dt=1e-2, degree=3):
    """2-D diffusion-reaction problem on the unit square, forward Euler.

    Homogeneous Neumann boundary everywhere (mirrored ghost nodes), source
    0.1 sin(2 pi xi1) sin(2 pi xi2) driven by the physical input, and a
    pointwise reaction given by the Taylor expansion about 0 of
    -(0.1 sin(mu)+2) exp(-2.7 mu^2) exp(1.8 mu x), truncated at `degree`
    (2 or 3).  The expansion's constant term is routed through a second,
    constant-one input channel, so input_dim is 2.  The five-point Laplacian
    is applied in grid units (unscaled); with the 1/h^2 scaling the stated
    forward-Euler step size would be unstable.  The step takes the Taylor
    coefficients as its coefficients (`_reaction_step`).
    """
    if not 1.0 <= mu <= 1.5:
        raise ValueError(f"mu must lie in [1, 1.5], got {mu}")
    if degree not in (2, 3):
        raise ValueError(f"reaction degree must be 2 or 3, got {degree}")
    g = grid_points_per_dim
    N = g * g
    step_impl = _reaction_step(g, dt, degree)
    coeff = [reaction_taylor_coeff(mu, k) for k in range(degree + 1)]
    B = np.column_stack([step_impl.source, dt * coeff[0] * np.ones(N)])

    def linear(w):
        return w + dt * (step_impl.lap(w) + coeff[1] * w)

    forms = [linear, lambda w, z: dt * coeff[2] * (w * z)]
    if degree == 3:
        forms.append(lambda w, z, y: dt * coeff[3] * (w * z * y))

    return FullOrderModel(
        state_dim=N,
        input_dim=2,
        degree=degree,
        forms=tuple(forms),
        input_matrix=B,
        parameter=mu,
        label="diffusion-reaction-2d",
        step_impl=step_impl,
        coefficients=np.array(coeff),
    )


@functools.cache
def _reaction_step(grid_points_per_dim, dt, degree):
    """The diffusion-reaction step f(x, u, c) of one grid, time step and
    degree, shared by every mu.  c holds the Taylor coefficients c_0 ..
    c_degree, each a scalar or a row (m,) of one per column; c_0 scales the
    constant input channel, the column of B that depends on mu.  Its
    `lap` and `source` (dt times the source term, the first column of B)
    are attributes.

    The step is one fused stencil, x + dt (s + r(x)) + B u: the sum s of
    the four neighbours is written from slices of the grid into the output,
    a boundary's mirrored ghost being the neighbour on its other side, with
    no padded copy; r(x) = ((c_3 x + c_2) x + c_1 - 4) x by Horner
    ((c_2 x + c_1 - 4) x at degree 2), the Laplacian's -4 x folded into the
    linear coefficient; the input term is added last.  `lap`, the padded five-point sum, serves the linear form,
    so the forms stay an independent check of the step."""
    g = grid_points_per_dim
    xi = np.linspace(0.0, 1.0, g)
    s1, s2 = np.meshgrid(np.sin(2 * np.pi * xi), np.sin(2 * np.pi * xi), indexing="ij")
    source = dt * (0.1 * (s1 * s2).ravel())

    def lap(w):
        """Five-point Laplacian of a state (N,) or of each column of (N, m):
        the grid padded by its mirrored neighbours (numpy's "reflect" pad)."""
        W = np.empty((g + 2, g + 2) + w.shape[1:])
        W[1:-1, 1:-1] = w.reshape((g, g) + w.shape[1:])
        W[0, 1:-1], W[-1, 1:-1] = W[2, 1:-1], W[-3, 1:-1]
        W[:, 0], W[:, -1] = W[:, 2], W[:, -3]
        return (
            W[:-2, 1:-1] + W[2:, 1:-1] + W[1:-1, :-2] + W[1:-1, 2:] - 4.0 * W[1:-1, 1:-1]
        ).reshape(w.shape)

    def step_impl(x, u, c):
        out = np.empty(x.shape)
        grid = (g, g) + x.shape[1:]
        S, X = out.reshape(grid), x.reshape(grid)
        # the four neighbours, a boundary's mirrored ghost being the
        # neighbour on its other side
        np.add(X[:-2], X[2:], out=S[1:-1])
        np.add(X[1:2], X[1:2], out=S[:1])
        np.add(X[-2:-1], X[-2:-1], out=S[-1:])
        S[:, 1:] += X[:, :-1]
        S[:, :-1] += X[:, 1:]
        S[:, :1] += X[:, 1:2]
        S[:, -1:] += X[:, -2:-1]
        # the reaction by Horner, the Laplacian's -4 x folded into its
        # linear coefficient
        react = c[degree] * x
        if degree == 3:
            react += c[2]
            react *= x
        react += c[1] - 4.0
        react *= x
        out += react
        out *= dt
        out += x
        # B u, B = [source, dt c_0 1]
        out += np.multiply.outer(source, u[0])
        out += dt * c[0] * u[1]
        return out

    step_impl.lap, step_impl.source = lap, source
    return step_impl
