import random
from fractions import Fraction

import pytest

from gmalie.errors import DimensionMismatch
from gmalie.fields import GF, QQ
from gmalie.linalg import (
    Matrix,
    Subspace,
    inverse,
    kernel,
    rref,
    solve,
    subspace_intersect,
    subspace_sum,
)

from helpers import random_fraction_matrix, random_int_matrix


def test_rref_already_reduced_identity():
    m = Matrix.identity(QQ, 2)
    r, rank = rref(m)
    assert r == m and rank == 2


def test_rref_dependent_rows():
    r, rank = rref(Matrix(QQ, [[1, 2], [2, 4]]))
    assert r.to_lists() == [[1, 2], [0, 0]]
    assert rank == 1


def test_rref_pads_the_rows_past_the_rank_with_zeros():
    # the eliminations return the rank rows only; rref keeps the input's shape
    r, rank = rref(Matrix(GF(5), [[0, 0, 0], [1, 2, 3], [2, 4, 0], [3, 1, 4]]))
    assert r.to_lists() == [[1, 2, 0], [0, 0, 1], [0, 0, 0], [0, 0, 0]]
    assert rank == 2
    assert rref(Matrix(QQ, [[], []]))[0].shape == (2, 0)


def test_rref_gf3_hand_elimination():
    r, rank = rref(Matrix(GF(3), [[1, 1], [1, 2]]))
    assert r.to_lists() == [[1, 0], [0, 1]]
    assert rank == 2


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_rref_idempotent(field):
    rng = random.Random(7)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if field is QQ:
            data = random_fraction_matrix(rng, rows, cols)
        else:
            data = random_int_matrix(rng, rows, cols, field.p)
        m = Matrix(field, data)
        r1, k1 = rref(m)
        r2, k2 = rref(r1)
        assert r1 == r2 and k1 == k2


def test_kernel_trivial_and_full():
    assert kernel(Matrix.identity(QQ, 3)).dim == 0
    assert kernel(Matrix.zeros(QQ, 2, 3)) == Subspace.full(QQ, 3)


def test_kernel_canonicalized_line():
    k = kernel(Matrix(QQ, [[1, 2]]))
    assert k.basis.to_lists() == [[1, Fraction(-1, 2)]]
    # same line as the span of (-2, 1)
    assert k == Subspace(QQ, 2, [[-2, 1]])


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_rank_nullity(field):
    rng = random.Random(11)
    for _ in range(20):
        rows, cols = rng.randint(0, 5), rng.randint(1, 5)
        if field is QQ:
            data = random_fraction_matrix(rng, rows, cols)
        else:
            data = random_int_matrix(rng, rows, cols, field.p)
        m = Matrix(field, data, cols=cols)
        _, rank = rref(m)
        assert kernel(m).dim + rank == cols


def test_solve_identity_and_pivot_solution():
    assert solve(Matrix.identity(QQ, 2), [3, 4]) == (Fraction(3), Fraction(4))
    assert solve(Matrix(QQ, [[1, 1]]), [2]) == (Fraction(2), Fraction(0))


def test_solve_inconsistent():
    assert solve(Matrix(QQ, [[1], [1]]), [1, 2]) is None


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_solve_verified_on_random_systems(field):
    rng = random.Random(3)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        if field is QQ:
            data = random_fraction_matrix(rng, rows, cols)
            x = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        else:
            data = random_int_matrix(rng, rows, cols, field.p)
            x = [rng.randrange(field.p) for _ in range(cols)]
        m = Matrix(field, data)
        b = m.apply(x)
        got = solve(m, b)
        assert got is not None
        assert m.apply(got) == b


def test_subspace_canonical_equality():
    u = Subspace(QQ, 3, [[1, 1, 0], [0, 2, 2]])
    v = Subspace(QQ, 3, [[2, 2, 0], [1, 3, 2], [1, 1, 0]])
    assert u == v
    assert u.basis == v.basis


def test_sum_with_zero_and_intersections():
    u = Subspace(QQ, 2, [[1, 0]])
    zero = Subspace.zero(QQ, 2)
    assert subspace_sum(u, zero) == u
    e1 = Subspace(QQ, 2, [[1, 0]])
    e2 = Subspace(QQ, 2, [[0, 1]])
    assert subspace_intersect(e1, e2).dim == 0


def test_zassenhaus_plane_intersection():
    u = Subspace(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    v = Subspace(QQ, 3, [[0, 1, 0], [0, 0, 1]])
    got = subspace_intersect(u, v)
    assert got == Subspace(QQ, 3, [[0, 1, 0]])


@pytest.mark.parametrize("field", [QQ, GF(3)])
def test_dimension_formula_random(field):
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 6)
        if field is QQ:
            u = Subspace(field, n, random_fraction_matrix(rng, rng.randint(0, n), n))
            v = Subspace(field, n, random_fraction_matrix(rng, rng.randint(0, n), n))
        else:
            u = Subspace(field, n, random_int_matrix(rng, rng.randint(0, n), n, field.p))
            v = Subspace(field, n, random_int_matrix(rng, rng.randint(0, n), n, field.p))
        s = subspace_sum(u, v)
        i = subspace_intersect(u, v)
        assert u.dim + v.dim == s.dim + i.dim
        assert s.contains(u) and s.contains(v)
        assert u.contains(i) and v.contains(i)


def test_membership_operator_matches_membership():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 5)
        u = Subspace(QQ, n, random_fraction_matrix(rng, rng.randint(0, n), n))
        op = u.membership_operator()
        assert kernel(op) == u


def test_coordinates_roundtrip():
    u = Subspace(QQ, 3, [[1, 0, 2], [0, 1, 1]])
    vec = u.from_coordinates([2, -1])
    assert u.coordinates(vec) == (Fraction(2), Fraction(-1))
    assert u.coordinates((0, 0, 1)) is None


def test_inverse():
    m = Matrix(GF(5), [[1, 2], [3, 4]])
    inv = inverse(m)
    assert (m @ inv) == Matrix.identity(GF(5), 2)
    assert inverse(Matrix(QQ, [[1, 2], [2, 4]])) is None


def test_matrix_shape_errors():
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1, 2], [1]])
    with pytest.raises(DimensionMismatch):
        Matrix(QQ, [[1]]) @ Matrix(QQ, [[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.zero(QQ, 2), Subspace.zero(QQ, 3))
    with pytest.raises(DimensionMismatch):
        subspace_sum(Subspace.zero(QQ, 2), Subspace.zero(GF(3), 2))


def test_flatten_roundtrip():
    m = Matrix(QQ, [[1, 2], [3, 4]])
    assert Matrix.from_flat(QQ, m.flatten(), 2, 2) == m
    assert m.flatten() == (Fraction(1), Fraction(2), Fraction(3), Fraction(4))


def test_empty_shapes():
    empty = Matrix(QQ, [], cols=3)
    r, rank = rref(empty)
    assert rank == 0 and r.shape == (0, 3)
    assert kernel(empty).dim == 3
    assert solve(empty, []) == (Fraction(0),) * 3
