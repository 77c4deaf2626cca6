#!/usr/bin/env python3
"""Exact recovery of intrusive reduced operators for a nonlinear system.

A random cubic system is reduced onto a POD basis.  Sampling with
re-projection (one full-model step, project, repeat) produces trajectories of
exactly the intrusive reduced dynamics, so a least-squares fit with enough
independent data returns the Galerkin operators to machine precision.  The
recovery conditions are checkable: enough data columns and a full-rank data
matrix, summarized in the certificate (rank and conditioning of the data
matrix Ds with each row scaled to unit norm).

Run:  python3 demos/02_exact_recovery_polynomial.py
"""

import numpy as np

from opinfer import (
    galerkin_project,
    infer_operators,
    lift,
    make_random_polynomial,
    pod_basis,
    random_input_trajectory,
    reproject_sample,
    simulate,
)

N, n, SEED = 12, 3, 42
model = make_random_polynomial(N, degree=3, input_dim=1, seed=SEED)
print(f"random cubic system: N = {N}, inputs p = 1")

# POD basis from a handful of simulated trajectories
snapshots = []
for l in range(4):
    U = random_input_trajectory(50, 1, -0.5, 0.5, seed=100 + l)
    snapshots.append(simulate(model, np.zeros(N), U).X)
basis = pod_basis(np.hstack(snapshots), n)
print(f"POD basis: n = {n}, leading singular values "
      + ", ".join(f"{s:.3f}" for s in basis.singular_values[:4]))

intrusive = galerkin_project(model, basis)
required = sum(op.shape[1] for op in intrusive.operators) + 1
print(f"unknowns per reduced equation: {required} (needs K >= {required} data columns)")

# Re-projected pieces from several short runs with different inputs and
# different start points inside the subspace; the fit pairs each state with
# the next one of its own piece only.
rng = np.random.default_rng(SEED)
pieces = []
for l in range(8):
    z0 = rng.normal(size=n)
    x0 = lift(basis, z0[:, None]).ravel()
    U = random_input_trajectory(8, 1, -0.5, 0.5, seed=200 + l)
    bar = reproject_sample(model, basis, x0, U)
    pieces.append((bar.states, U))
learned, residual, certificate = infer_operators(pieces, model.degree, "re-projected")

print(f"\ncertificate: K = {certificate.num_columns}, rank = {certificate.numerical_rank}"
      f"/{certificate.required_columns}, cond(Ds^T Ds) = {certificate.condition_number:.2e},"
      f" satisfied = {certificate.satisfied}")
print(f"least-squares residual: {residual:.2e}")

gap = np.linalg.norm(learned.stacked() - intrusive.stacked())
rel = gap / np.linalg.norm(intrusive.stacked())
print(f"recovered vs intrusive operators: relative error {rel:.2e}")
for i, (A_hat, A_tilde) in enumerate(zip(learned.operators, intrusive.operators), start=1):
    err = np.abs(A_hat - A_tilde).max()
    print(f"  degree-{i} operator ({A_tilde.shape[0]}x{A_tilde.shape[1]}): "
          f"max entry difference {err:.2e}")
