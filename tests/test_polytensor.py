from functools import reduce

import kron_oracles as ko
import numpy as np
import pytest

from opinfer import polytensor as pt


def test_compressed_dim_known_values():
    assert pt.compressed_dim(3, 2) == 6
    assert pt.compressed_dim(128, 2) == 8256
    for N in (1, 2, 7, 50):
        assert pt.compressed_dim(N, 1) == N


def test_compressed_dim_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pt.compressed_dim(0, 2)
    with pytest.raises(ValueError):
        pt.compressed_dim(3, 0)


def test_compressed_dim_huge_arguments_are_exact():
    # Python integer arithmetic: no wraparound, value stays exact.
    value = pt.compressed_dim(10**6, 3)
    assert value == (10**6 + 2) * (10**6 + 1) * 10**6 // 6


def _tuples(base_dim, degree):
    return [tuple(row) for row in pt.multiset_indices(base_dim, degree).tolist()]


def test_multiset_indices_small_cases():
    assert _tuples(2, 2) == [(0, 0), (0, 1), (1, 1)]
    assert _tuples(3, 1) == [(0,), (1,), (2,)]
    assert _tuples(2, 3) == [
        (0, 0, 0),
        (0, 0, 1),
        (0, 1, 1),
        (1, 1, 1),
    ]


def test_enumeration_is_a_bijection():
    for N, i in [(2, 2), (3, 3), (5, 2), (4, 4), (8, 3)]:
        seen = set(_tuples(N, i))
        assert len(seen) == pt.compressed_dim(N, i)
        assert all(tuple(sorted(t)) == t and max(t) < N for t in seen)


def test_compressed_power_examples():
    assert np.array_equal(pt.compressed_power_matrix([1.0, 2.0], 2), [1.0, 2.0, 4.0])
    for i in range(1, 5):
        assert np.allclose(pt.compressed_power_matrix([3.0], i), [3.0**i])
    assert np.array_equal(
        pt.compressed_power_matrix([1.0, 0.0, 2.0], 2), [1.0, 0.0, 2.0, 0.0, 0.0, 4.0]
    )


def test_compressed_power_degree_one_returns_state():
    x = np.array([0.5, -2.0, 3.0])
    assert np.array_equal(pt.compressed_power_matrix(x, 1), x)


def test_compressed_power_monomial_values():
    rng = np.random.default_rng(7)
    for N, i in [(2, 2), (3, 3), (5, 2), (4, 4)]:
        x = rng.normal(size=N)
        cp = pt.compressed_power_matrix(x, i)
        for k, alpha in enumerate(_tuples(N, i)):
            assert cp[k] == pytest.approx(np.prod([x[a] for a in alpha]), rel=1e-14)


def test_compressed_power_homogeneity():
    rng = np.random.default_rng(11)
    for i in range(1, 5):
        x = rng.normal(size=6)
        c = rng.normal()
        scaled = pt.compressed_power_matrix(c * x, i)
        assert np.allclose(scaled, c**i * pt.compressed_power_matrix(x, i), rtol=1e-12)


def test_multiplicity_examples():
    assert pt.multiplicity((0, 0)) == 1
    assert pt.multiplicity((0, 1)) == 2
    assert pt.multiplicity((0, 0, 1)) == 3
    assert pt.multiplicity((0, 1, 2)) == 6


def test_multiplicities_sum_to_full_kron_dimension():
    for N, i in [(2, 2), (3, 3), (4, 2), (5, 3), (2, 5)]:
        assert ko.multiplicities(N, i).sum() == N**i


def test_selection_matrix_picks_representatives():
    S = ko.selection_matrix(2, 2).toarray()
    expected = np.zeros((3, 4))
    expected[0, 0] = expected[1, 1] = expected[2, 3] = 1.0
    assert np.array_equal(S, expected)


def test_selection_times_duplication_is_identity():
    for N, i in [(2, 2), (3, 2), (2, 3), (4, 3)]:
        S = ko.selection_matrix(N, i)
        D = ko.duplication_matrix(N, i)
        assert np.array_equal((S @ D).toarray(), np.eye(pt.compressed_dim(N, i)))


def test_duplication_matrix_rows_and_column_sums():
    D = ko.duplication_matrix(2, 2).toarray()
    assert np.array_equal(D, [[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]])
    for N, i in [(3, 2), (2, 4), (4, 3)]:
        sums = np.asarray(ko.duplication_matrix(N, i).sum(axis=0)).ravel()
        assert np.array_equal(sums, ko.multiplicities(N, i))


def test_duplication_expands_compressed_power():
    x = np.array([1.0, 2.0])
    assert np.array_equal(
        ko.duplication_matrix(2, 2) @ pt.compressed_power_matrix(x, 2), [1.0, 2.0, 2.0, 4.0]
    )


def test_compressed_power_matches_kron_side_exactly():
    # Elementwise exact: selection only reorders, it never rounds.
    rng = np.random.default_rng(3)
    for N in range(1, 9):
        for i in range(1, 5):
            x = rng.normal(size=N)
            picked = ko.selection_matrix(N, i) @ ko.kron_power(x, i)
            assert np.array_equal(picked, pt.compressed_power_matrix(x, i))


def test_full_kron_size_guard():
    with pytest.raises(ValueError):
        ko.selection_matrix(300, 4)
    with pytest.raises(ValueError):
        ko.duplication_matrix(300, 4)


def test_compressed_power_matrix_is_the_columnwise_power():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((5, 4))
    for i in (1, 2, 3):
        block = pt.compressed_power_matrix(X, i)
        assert block.shape == (pt.compressed_dim(5, i), 4)
        for j in range(4):
            column = pt.compressed_power_matrix(X[:, j], i)
            assert np.array_equal(column, ko.selection_matrix(5, i) @ ko.kron_power(X[:, j], i))
            assert np.array_equal(block[:, j], column)
    with pytest.raises(ValueError):
        pt.compressed_power_matrix(np.zeros((2, 2, 2)), 2)


def test_compressed_powers_stack_every_degree_bitwise():
    """[X; X^2; ..] equals the stacked single degrees and, bit for bit, the
    factor-by-factor products ((x_a x_b) x_c) .. over the index tuples."""
    rng = np.random.default_rng(7)
    for n in range(1, 11):
        for degree in range(1, 5):
            for X in (rng.normal(size=n), rng.normal(size=(n, 3))):
                powers = pt.compressed_powers(X, degree)
                stacked = [pt.compressed_power_matrix(X, i) for i in range(1, degree + 1)]
                assert np.array_equal(powers, np.concatenate(stacked))
                products = [
                    reduce(np.multiply, (X[idx] for idx in pt.multiset_indices(n, i).T))
                    for i in range(1, degree + 1)
                ]
                assert np.array_equal(powers, np.concatenate(products))
    with pytest.raises(ValueError):
        pt.compressed_powers(np.zeros((2, 2, 2)), 2)
    with pytest.raises(ValueError):
        pt.compressed_powers(np.zeros(2), 0)


def test_symmetrized_compressed_power_reduces_to_power():
    rng = np.random.default_rng(5)
    x = rng.normal(size=4)
    for i in (2, 3):
        sym = pt.symmetrized_compressed_power([x] * i)
        assert np.allclose(sym, pt.compressed_power_matrix(x, i), rtol=1e-13)


def test_symmetrized_compressed_power_is_symmetric():
    rng = np.random.default_rng(6)
    w, z, y = rng.normal(size=(3, 5))
    assert np.allclose(
        pt.symmetrized_compressed_power([w, z, y]),
        pt.symmetrized_compressed_power([y, w, z]),
        rtol=1e-13,
    )


def test_truncation_mask_filters_low_modes():
    mask = pt.truncation_mask(3, 2, 2)
    kept = [alpha for alpha, keep in zip(_tuples(3, 2), mask) if keep]
    assert kept == [(0, 0), (0, 1), (1, 1)]
    assert kept == _tuples(2, 2)
