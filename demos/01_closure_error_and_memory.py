#!/usr/bin/env python3
"""Why fitting operators to projected trajectories goes wrong.

A stable random linear system x_{k+1} = A1 x_k is projected onto the span of
the first two canonical unit vectors.  The projected trajectory is NOT
generated by any 2-dimensional Markovian model: its dynamics carry a memory
term (Mori-Zwanzig).  The script quantifies that memory, shows the closure
error between the projected trajectory and the intrusive reduced model, and
demonstrates how the closure error pollutes least-squares operator fits.

Run:  python3 demos/01_closure_error_and_memory.py
"""

import numpy as np

from opinfer import (
    closure_error,
    closure_error_per_step,
    galerkin_project,
    infer_operators,
    make_toy_linear,
    mori_zwanzig_decompose,
    project,
    reduced_simulate,
    reproject_sample,
    simulate,
)
from opinfer.subspace import Basis

N, n, K, SEED = 10, 2, 100, 0

model = make_toy_linear(N, seed=SEED)
(A1,) = model.compressed_operators
x0 = np.eye(N)[:, 0]
basis = Basis(np.eye(N)[:, :n])

full = simulate(model, x0, num_steps=K)
projected = project(basis, full.states)

intrusive = galerkin_project(model, basis)
tilde = reduced_simulate(intrusive, projected[:, 0], num_steps=K)

print(f"linear system: N = {N}, reduced dimension n = {n}, {K} time steps")
print(f"closure error ||Xbreve - Xtilde||_F = {closure_error(projected, tilde.states):.4f}")
per_step = closure_error_per_step(projected, tilde.states)
print(f"per-step closure: 0 at k=0 (same start), {per_step[10]:.4f} at k=10, "
      f"{per_step[50]:.4f} at k=50")

# The projected dynamics split into a Markovian term, a memory term that
# depends on the whole history, and an initial-condition term.
mz = mori_zwanzig_decompose(A1, basis, x0, K)
print("\nMori-Zwanzig split of the projected dynamics (Frobenius norms):")
print(f"  Markovian term     {np.linalg.norm(mz.markovian):9.4f}")
print(f"  memory term        {np.linalg.norm(mz.memory):9.4f}   <- invisible to any Markovian fit")
print(f"  initial-cond term  {np.linalg.norm(mz.initial):9.4f}   (x0 lies in the subspace)")
gap = np.linalg.norm(mz.total() - project(basis, full.states[:, 1:]))
print(f"  split reassembles the projected trajectory to {gap:.2e}")

# Operator inference on the projected data absorbs the memory term into the
# fitted operator; on re-projected data there is nothing to absorb.
plain, plain_residual, _ = infer_operators([(projected, None)], 1)

bar = reproject_sample(model, basis, x0, num_steps=K)
reproj, reproj_residual, certificate = infer_operators([(bar.states, None)], 1, "re-projected")

print("\noperator fits against the intrusive (Galerkin) operator:")
ref = intrusive.operators[0]
for name, fitted, residual in (
    ("without re-projection", plain, plain_residual),
    ("with re-projection   ", reproj, reproj_residual),
):
    err = np.linalg.norm(fitted.operators[0] - ref) / np.linalg.norm(ref)
    print(f"  {name}: operator error {err:.2e}, regression residual {residual:.2e}")
print(f"recovery certificate satisfied: {certificate.satisfied} "
      f"(K = {certificate.num_columns} >= {certificate.required_columns} required, "
      f"rank {certificate.numerical_rank})")
