"""Dense Kronecker-side oracles of the compressed powers (test scale only).

The full i-fold Kronecker power of a length-N vector has N**i entries; the
selection and duplication matrices map it to and from the compressed power of
`opinfer.polytensor`.  The tests check the compressed kernel and the Galerkin
column formula against them; nothing in the package builds an N**i object.
"""

from functools import reduce

import numpy as np
import scipy.sparse as sparse

from opinfer.polytensor import multiplicity, multiset_indices

# Largest N**i these helpers will materialize.
MAX_FULL_KRON_SIZE = 1 << 22


def multiplicities(base_dim, degree):
    """Vector of `multiplicity` over the canonical enumeration."""
    idx = multiset_indices(base_dim, degree)
    return np.array([multiplicity(row) for row in idx], dtype=float)


def kron_power(x, degree):
    """Dense i-fold Kronecker power x (x) ... (x) x of length N**i (oracle scale)."""
    x = np.asarray(x, dtype=float)
    _guard_full_size(x.size, degree)
    return reduce(np.kron, [x] * degree)


def selection_matrix(base_dim, degree):
    """Sparse 0/1 map from the full Kronecker power to the compressed power.

    Shape (N_i, N**i).  Row alpha has its single 1 at the position of the
    sorted representative of alpha inside the full Kronecker index space, so
    compressed_power_matrix(x, i) == selection_matrix(N, i) @ kron_power(x, i).
    Oracle scale only; guarded by MAX_FULL_KRON_SIZE.
    """
    full = _guard_full_size(base_dim, degree)
    idx = multiset_indices(base_dim, degree)
    weights = base_dim ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    rep = idx @ weights
    nc = idx.shape[0]
    return sparse.csr_matrix(
        (np.ones(nc), (np.arange(nc), rep)), shape=(nc, full)
    )


def duplication_matrix(base_dim, degree):
    """Sparse 0/1 map from the compressed power back to the full Kronecker power.

    Shape (N**i, N_i).  Row q has its 1 in the column of the multiset obtained
    by sorting q's index tuple, so kron_power(x, i) == duplication_matrix(N, i)
    @ compressed_power_matrix(x, i).  Column sums equal `multiplicity`.
    """
    full = _guard_full_size(base_dim, degree)
    idx = multiset_indices(base_dim, degree)
    weights = base_dim ** np.arange(degree - 1, -1, -1, dtype=np.int64)
    # Rank lookup over representative positions, then gather for every
    # full-space tuple after sorting its indices.
    lut = np.full(full, -1, dtype=np.intp)
    lut[idx @ weights] = np.arange(idx.shape[0])
    grids = np.indices((base_dim,) * degree).reshape(degree, -1).T
    cols = lut[np.sort(grids, axis=1) @ weights]
    return sparse.csr_matrix(
        (np.ones(full), (np.arange(full), cols)), shape=(full, idx.shape[0])
    )


def _guard_full_size(base_dim, degree):
    full = base_dim**degree
    if full > MAX_FULL_KRON_SIZE:
        raise ValueError(
            f"full Kronecker space of size {base_dim}**{degree} exceeds the "
            f"oracle guard ({MAX_FULL_KRON_SIZE}); these helpers are test-scale only"
        )
    return full
