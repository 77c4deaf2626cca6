#!/usr/bin/env python3
"""Parametric Burgers study at demo scale: learn once per parameter, then
interpolate to unseen parameters.

Runs the whole pipeline (simulate, POD, re-project, infer, certify) on a
coarsened viscous Burgers discretization over a grid of diffusion parameters,
then compares three reduced models on a held-out parameter: the intrusive
Galerkin model, the model learned from re-projected data, and the model
learned from plain projected data.  At full scale (N = 128, K = 10^4) the
same study is available as `opinfer burgers`.

Run:  python3 demos/03_burgers_parametric_study.py
"""

import numpy as np

from opinfer import (
    diagnostics,
    galerkin_project,
    interpolate,
    learn_with_reprojection,
    make_burgers,
    random_input_trajectory,
    reduced_simulate,
    simulate,
    truncate,
)
from opinfer.opinf import infer_operators
from opinfer.subspace import project

N, K, DT = 48, 1500, 2e-4
M, M_PRIME, NBAR = 5, 3, 6
params = list(np.linspace(0.1, 1.0, M))

factory = lambda mu: make_burgers(mu, dt=DT, num_nodes=N)
inputs = [
    [random_input_trajectory(K, 1, 0.0, 10.0, seed=1000 + j * M_PRIME + l)
     for l in range(M_PRIME)]
    for j in range(M)
]
x0 = np.zeros(N)

print(f"Burgers demo: N = {N}, K = {K}, {M} training parameters, "
      f"{M_PRIME} input trajectories each")
basis, reproj_models, certificates = learn_with_reprojection(
    factory, params, [x0] * M, inputs, nbar=NBAR
)
print("certificates: "
      + ", ".join("ok" if c.satisfied else "RANK DEFICIENT" for c in certificates))

intrusive_models, plain_models = [], []
for j, mu in enumerate(params):
    model = factory(mu)
    intrusive_models.append(galerkin_project(model, basis))
    pieces = []
    for U in inputs[j]:
        traj = simulate(model, x0, U)
        pieces.append((project(basis, traj.states), U))
    fitted, _, _ = infer_operators(pieces, 2)
    plain_models.append(fitted)

# evaluate on a parameter between training nodes, constant input.
mu_test = 0.325
test_model = factory(mu_test)
U_test = np.ones((1, K))
full = simulate(test_model, x0, U_test)
piece = diagnostics.project_piece(basis.matrix, full.X, full.X.shape[1])
print(f"\ntest parameter mu = {mu_test} (between nodes), constant input 1")
print(f"{'n':>3} {'intrusive err':>14} {'re-proj err':>14} {'plain err':>14} "
      f"{'re-proj vs intrusive':>21}")
for n in (2, 4, 6):
    rows = {}
    tilde = None
    for name, models in (
        ("intrusive", intrusive_models),
        ("re-proj", reproj_models),
        ("plain", plain_models),
    ):
        at_mu = truncate(interpolate(params, models, mu_test), n)
        z = reduced_simulate(at_mu, np.zeros(n), U_test)
        rows[name] = z
        if name == "intrusive":
            tilde = z
    errs = {
        name: float("nan") if z.diverged else diagnostics.pooled_rel_state_error([piece], [z.X])
        for name, z in rows.items()
    }
    diff = diagnostics.pooled_rel_difference([tilde.X], [rows["re-proj"].X])
    print(f"{n:>3} {errs['intrusive']:>14.4e} {errs['re-proj']:>14.4e} "
          f"{errs['plain']:>14.4e} {diff:>21.3e}")

print("\nthe re-projection-learned model tracks the intrusive one to round-off;"
      "\nthe plain fit carries the closure error into its operators.")
