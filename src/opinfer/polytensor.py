"""Compressed Kronecker powers of state vectors and their monomial ordering.

The i-th power of a vector x of length N is the i-fold Kronecker product
x (x) ... (x) x with duplicate entries (equal up to commutativity) removed.
Every operation in this package that touches polynomial terms relies on the
single ordering convention fixed here: monomials are indexed by sorted index
tuples, enumerated lexicographically (`multiset_indices`), and
`compressed_powers` evaluates them.
"""

import math
from functools import lru_cache, reduce
from itertools import combinations_with_replacement, permutations

import numpy as np


def compressed_dim(base_dim, degree):
    """Number of degree-`degree` monomials in `base_dim` variables.

    Equals binomial(base_dim + degree - 1, degree); exact integer arithmetic,
    so large arguments raise on resource exhaustion rather than wrap around.
    """
    if base_dim < 1 or degree < 1:
        raise ValueError(f"need base_dim >= 1 and degree >= 1, got ({base_dim}, {degree})")
    return math.comb(base_dim + degree - 1, degree)


@lru_cache(maxsize=None)
def multiset_indices(base_dim, degree):
    """All sorted index tuples of length `degree` over [0, base_dim).

    Returns a read-only integer array of shape (compressed_dim, degree) whose
    rows are in lexicographic order.  Row k is the index tuple of monomial k
    in every compressed power and operator column in this package.
    """
    if base_dim < 1 or degree < 1:
        raise ValueError(f"need base_dim >= 1 and degree >= 1, got ({base_dim}, {degree})")
    idx = np.array(
        list(combinations_with_replacement(range(base_dim), degree)), dtype=np.intp
    )
    idx.setflags(write=False)
    return idx


def multiplicity(alpha):
    """Number of distinct orderings of the sorted index tuple `alpha`.

    The multinomial coefficient degree! / prod(repetition counts!).
    """
    count = math.factorial(len(alpha))
    run = 1
    for a, b in zip(alpha, alpha[1:]):
        run = run + 1 if a == b else 1
        if run > 1:
            count //= run
    return count


def compressed_powers(X, degree):
    """The stacked compressed powers [X; X^2; ..; X^degree] of a state vector
    (n,) or of each column of an (n, K) block, shape (sum_i n_i[, K]): the
    one monomial kernel of the package.

    The entry at index tuple (a_1, ..., a_i) is the monomial
    x[a_1] * ... * x[a_i], multiplied in that order.  Each degree is built
    from the one before with one gather and one product (`_power_plan`), in
    place in the output, so every degree equals the factor-by-factor
    product bit for bit and no (n_i, degree, K) intermediate is formed.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2):
        raise ValueError(f"expected a vector or a matrix, got shape {X.shape}")
    if degree < 1:
        raise ValueError(f"need degree >= 1, got {degree}")
    rows, plan = _power_plan(X.shape[0], degree)
    out = np.empty((rows,) + X.shape[1:])
    out[: X.shape[0]] = X
    for lower, block, prefix, last in plan:
        # mode="clip" writes straight into `out`; the indices are in range
        np.take(out[lower], prefix, axis=0, out=out[block], mode="clip")
        out[block] *= X[last]
    return out


def compressed_power_matrix(X, degree):
    """The degree-`degree` block of `compressed_powers`, shape (n_i,) or
    (n_i, K); for degree 1 the values are x itself."""
    powers = compressed_powers(X, degree)
    return powers[len(powers) - compressed_dim(np.shape(X)[0], degree) :]


@lru_cache(maxsize=None)
def _power_plan(base_dim, degree):
    """The rows of `compressed_powers` and, per degree i = 2 .. degree, the
    slices of the degree-(i-1) and degree-i blocks and index arrays
    (prefix, last): monomial k of degree i is monomial prefix[k] of degree
    i - 1 times x[last[k]].

    In the lexicographic order of `multiset_indices` the tuples that share
    their leading i - 1 indices are consecutive, in the order of those
    prefixes, and a prefix ending in a is followed by a, a+1, .., n-1.
    """
    offsets = [0]
    for i in range(1, degree + 1):
        offsets.append(offsets[-1] + compressed_dim(base_dim, i))
    plan = []
    for i in range(2, degree + 1):
        lead = multiset_indices(base_dim, i - 1)[:, -1]
        counts = base_dim - lead
        prefix = np.repeat(np.arange(lead.size), counts)
        # runs lead[k], .., base_dim - 1, one after the other
        last = np.arange(prefix.size) + np.repeat(lead - (np.cumsum(counts) - counts), counts)
        for a in (prefix, last):
            a.setflags(write=False)
        lower, block = slice(*offsets[i - 2 : i]), slice(*offsets[i - 1 : i + 1])
        plan.append((lower, block, prefix, last))
    return offsets[-1], tuple(plan)


def symmetrized_compressed_power(vectors):
    """Symmetrized compressed product of several vectors of equal length.

    The entry at index tuple alpha is the average over all argument
    permutations of prod_j vectors[j][alpha_{sigma(j)}].  With identical
    arguments this reduces to `compressed_power_matrix`.  Applying a compressed
    operator matrix to this vector realizes the symmetric multilinear form
    that the operator induces.
    """
    ws = [np.asarray(w, dtype=float) for w in vectors]
    n = ws[0].size
    if any(w.shape != (n,) for w in ws):
        raise ValueError("all vectors must share one length")
    idx = multiset_indices(n, len(ws))
    out = np.zeros(idx.shape[0])
    for sigma in permutations(range(len(ws))):
        out += reduce(np.multiply, (ws[j][idx[:, k]] for k, j in enumerate(sigma)))
    return out / math.factorial(len(ws))


def truncation_mask(base_dim, degree, new_dim):
    """Boolean mask of monomials that only use modes below `new_dim`.

    The surviving subsequence of the canonical enumeration over `base_dim`
    modes is exactly the canonical enumeration over `new_dim` modes.
    """
    if not 1 <= new_dim <= base_dim:
        raise ValueError(f"need 1 <= new_dim <= {base_dim}, got {new_dim}")
    idx = multiset_indices(base_dim, degree)
    return idx[:, -1] < new_dim
