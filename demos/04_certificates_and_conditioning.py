#!/usr/bin/env python3
"""The two checkable recovery conditions, and what conditioning does to them.

Recovery of the intrusive operators from re-projected data holds exactly when
(a) the data has at least p + sum_i n_i columns and (b) the data matrix has
full row rank.  Both are cheap to verify: every fit returns its certificate,
and to certify some data is to fit it.  This script shows a certificate
flipping from unsatisfied to satisfied as data accumulates, and the
practical caveat: the condition number of Ds^T Ds grows with the reduced
dimension, amplifying round-off in the recovered operators.
Ds = diag(1/w) D is the data matrix with each row scaled to unit norm; the
certificates decide rank on it, so the scale of the rows does not matter.
`infer_operators` never forms Ds: the columns of D fold chunk by chunk into
a triangle R11 with D^T = Q R11, and Ds has the spectrum of R11 diag(1/w).

Run:  python3 demos/04_certificates_and_conditioning.py
"""

import numpy as np

from opinfer import (
    galerkin_project,
    lift,
    make_random_polynomial,
    make_toy_linear,
    infer_operators,
    pod_basis,
    random_input_trajectory,
    reproject_sample,
    simulate,
)
from opinfer.subspace import Basis

# Part 1: the column-count condition flips the certificate -----------------
N, n = 10, 3
model = make_random_polynomial(N, degree=2, input_dim=1, seed=7)
snapshots = np.hstack(
    [simulate(model, np.zeros(N),
              random_input_trajectory(40, 1, -0.5, 0.5, seed=s)).X
     for s in (1, 2)]
)
basis = pod_basis(snapshots, n)
required = 1 + n + n * (n + 1) // 2
print(f"quadratic system, n = {n}: recovery needs K >= {required} independent columns\n")

rng = np.random.default_rng(0)
pieces = []
print(f"{'pieces':>7} {'K':>5} {'rank':>5} {'required':>9} {'satisfied':>10} {'cond(Ds^T Ds)':>14}")
for l in range(6):
    z0 = rng.normal(size=n)
    U = random_input_trajectory(4, 1, -0.5, 0.5, seed=50 + l)
    bar = reproject_sample(model, basis, lift(basis, z0[:, None]).ravel(), U)
    pieces.append((bar.states, U))
    learned, residual, c = infer_operators(pieces, 2, "re-projected")
    print(f"{l + 1:>7} {c.num_columns:>5} {c.numerical_rank:>5} {c.required_columns:>9} "
          f"{str(c.satisfied):>10} {c.condition_number:>14.3e}")

intrusive = galerkin_project(model, basis)
rel = np.linalg.norm(learned.stacked() - intrusive.stacked()) / np.linalg.norm(
    intrusive.stacked()
)
print(f"\nwith the final data set: residual {residual:.2e}, "
      f"operator recovery error {rel:.2e}")

# Part 2: conditioning grows with the reduced dimension --------------------
toy = make_toy_linear(10, seed=3)
x0 = np.eye(10)[:, 0]
print("\nlinear toy system: conditioning of the re-projected data vs dimension")
print(f"{'n':>3} {'cond(Ds^T Ds)':>14} {'recovery error':>15}")
for n in (2, 4, 6):
    V = Basis(np.eye(10)[:, :n])
    bar = reproject_sample(toy, V, x0, num_steps=100)
    learned, _, c = infer_operators([(bar.states, None)], 1, "re-projected")
    ref = galerkin_project(toy, V)
    rel = np.linalg.norm(learned.operators[0] - ref.operators[0]) / np.linalg.norm(
        ref.operators[0]
    )
    print(f"{n:>3} {c.condition_number:>14.3e} {rel:>15.3e}")
print("\nhigher condition numbers amplify round-off in the recovered operators;"
      "\nfitting varied pieces together keeps the conditioning in check.")
