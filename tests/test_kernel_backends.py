"""The mod-p kernel checked against independent facts, not against itself.

There is one kernel, so the agreement tests compare its output with
properties any correct reduced row echelon form has: the echelon shape,
reconstruction of every input row from the reduced rows, and the rank from
the fraction-free elimination in ``helpers``.
"""

import random

import pytest

from gmalie import _kernel, kernel_backend

from helpers import modp_rank, random_int_matrix

PRIMES = [2, 3, 5, 97, 32749, 2**31 - 1]
SHAPES = [(1, 1), (3, 3), (4, 7), (7, 4), (12, 5), (20, 20)]


def _assert_reduced_echelon(reduced, pivots):
    assert pivots == sorted(set(pivots))
    for r, c in enumerate(pivots):
        assert all(x == 0 for x in reduced[r][:c])
        assert reduced[r][c] == 1
        for other in range(len(reduced)):
            if other != r:
                assert reduced[other][c] == 0
    for row in reduced[len(pivots) :]:
        assert all(x == 0 for x in row)


def _assert_reconstructs(data, reduced, pivots, p):
    # in a reduced form the coefficient of reduced row r is the entry at its
    # pivot column, so each input row is sum_r row[c_r] * reduced[r] mod p
    for row in data:
        combo = [0] * len(row)
        for r, c in enumerate(pivots):
            f = row[c]
            combo = [(x + f * y) % p for x, y in zip(combo, reduced[r])]
        assert combo == [x % p for x in row]


def test_backend_reports_a_known_name():
    assert _kernel.backend() == "pure"
    assert kernel_backend() == "pure"


@pytest.mark.parametrize("p", PRIMES)
def test_backends_agree_on_random_matrices(p):
    rng = random.Random(p)
    for rows, cols in SHAPES:
        data = random_int_matrix(rng, rows, cols, p)
        reduced, pivots = _kernel.rref_mod_p(data, p)
        assert len(reduced) == rows and all(len(r) == cols for r in reduced)
        _assert_reduced_echelon(reduced, pivots)
        _assert_reconstructs(data, reduced, pivots, p)
        assert len(pivots) == modp_rank(data, p)


@pytest.mark.parametrize("p", PRIMES)
def test_pivot_count_matches_independent_rank(p):
    rng = random.Random(p + 1)
    for _ in range(15):
        rows, cols = rng.randint(1, 10), rng.randint(1, 10)
        # low-rank products exercise dependent rows and skipped columns
        k = rng.randint(1, min(rows, cols))
        left = random_int_matrix(rng, rows, k, p)
        right = random_int_matrix(rng, k, cols, p)
        data = [
            [sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)]
            for i in range(rows)
        ]
        reduced, pivots = _kernel.rref_mod_p(data, p)
        assert len(pivots) == modp_rank(data, p)
        _assert_reconstructs(data, reduced, pivots, p)


def test_reduced_form_properties():
    p = 5
    rng = random.Random(42)
    data = random_int_matrix(rng, 8, 6, p)
    reduced, pivots = _kernel.rref_mod_p(data, p)
    _assert_reduced_echelon(reduced, pivots)
    assert data == random_int_matrix(random.Random(42), 8, 6, p)  # input untouched


def test_empty_inputs():
    assert _kernel.rref_mod_p([], 3) == ([], [])
    assert _kernel.rref_mod_p([[], []], 3) == ([[], []], [])
