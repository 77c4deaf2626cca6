"""Learning reduced models of polynomial dynamical systems that exactly match
intrusive Galerkin projection, via operator inference on re-projected data."""

from .diagnostics import (
    MZDecomposition,
    avg_rel_state_error,
    closure_error,
    closure_error_per_step,
    mori_zwanzig_decompose,
    rel_trajectory_difference,
)
from .fom import (
    FullOrderModel,
    Trajectory,
    make_burgers,
    make_chafee_infante,
    make_diffusion_reaction_2d,
    make_random_polynomial,
    make_toy_linear,
    random_input_trajectory,
    simulate,
)
from .opinf import (
    DataMatrix,
    RecoveryCertificate,
    assemble_data_matrix,
    infer_operators,
    learn_with_reprojection,
    reproject_sample,
)
from .polytensor import compressed_dim, multiplicity
from .rom import (
    PolynomialModel,
    galerkin_project,
    interpolate,
    reduced_simulate,
    truncate,
)
from .subspace import Basis, lift, pod_basis, project

__version__ = "0.1.0"
