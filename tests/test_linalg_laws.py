"""Core laws of the exact linear algebra as hypothesis properties.

Each law is checked over QQ, GF(3), GF(5) and GF(2**31 - 1) on small random
matrices, biased towards zeros so that rank-deficient shapes, zero rows and
zero columns come up often:

- row operations that are invertible leave the canonical basis unchanged;
- the kernel is annihilated, and its dimension is cols - rank;
- ``solve`` and ``inverse`` results check out by multiplication;
- dim(U + V) + dim(U ∩ V) = dim U + dim V;
- over QQ, ``rref`` agrees with sympy's (skipped where sympy is missing);
- ``kernel`` equals the two-pass reference entry for entry, the bases of
  ``kernel`` and ``subspace_intersect`` are unchanged by a second
  reduction, and over QQ ``kernel`` agrees with sympy's null space;
- over QQ every scalar these routines return is canonical: an int, or a
  Fraction that is not integral (never a float, a bool or Fraction(3)),
  and the rational elimination of int rows is exact.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from gmalie._kernel import _rref_support
from gmalie.fields import GF, QQ
from gmalie.linalg import (
    Matrix,
    Subspace,
    inverse,
    kernel,
    rref,
    solve,
    sparse_kernel,
    subspace_intersect,
    subspace_sum,
)

from helpers import is_canonical_rational, reference_kernel, reference_rref_mod_p

FIELDS = [QQ, GF(3), GF(5), GF(2**31 - 1)]
SMALL_FIELDS = [QQ, GF(3), GF(5)]

LAWS = settings(max_examples=40, deadline=None)


def _scalars(field):
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    else:
        nonzero = st.integers(1, field.p - 1)
    return st.one_of(st.just(field.zero), nonzero)


def _rows(field, rows, cols):
    return st.lists(
        st.lists(_scalars(field), min_size=cols, max_size=cols), min_size=rows, max_size=rows
    )


@st.composite
def _matrices(draw, field, rows=None, cols=None):
    rows = draw(st.integers(0, 6)) if rows is None else rows
    cols = draw(st.integers(1, 6)) if cols is None else cols
    return Matrix(field, draw(_rows(field, rows, cols)), cols=cols)


@st.composite
def _row_operations(draw, field, m):
    """``m`` after a random sequence of invertible row operations."""
    f = field
    rows = [list(r) for r in m.entries]
    if not rows:
        return m
    nonzero = _scalars(field).filter(lambda x: x != f.zero)
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(("swap", "scale", "add")))
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        if kind == "swap":
            rows[i], rows[j] = rows[j], rows[i]
        elif kind == "scale":
            c = draw(nonzero)
            rows[i] = [f.mul(c, x) for x in rows[i]]
        elif i != j:
            c = draw(_scalars(field))
            rows[i] = [f.add(x, f.mul(c, y)) for x, y in zip(rows[i], rows[j])]
    return Matrix(f, rows, cols=m.cols)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@LAWS
@given(data=st.data())
def test_invertible_row_operations_keep_the_canonical_basis(field, data):
    m = data.draw(_matrices(field))
    moved = data.draw(_row_operations(field, m))
    assert Subspace(field, m.cols, moved.entries) == Subspace(field, m.cols, m.entries)
    assert rref(moved) == rref(m)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@LAWS
@given(data=st.data())
def test_the_kernel_is_annihilated_and_has_the_nullity(field, data):
    m = data.draw(_matrices(field))
    k = kernel(m)
    _, rank = rref(m)
    assert k.dim == m.cols - rank
    zero = (field.zero,) * m.rows
    for v in k.basis.entries:
        assert m.apply(v) == zero


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@LAWS
@given(data=st.data())
def test_solve_and_inverse_check_out_by_products(field, data):
    m = data.draw(_matrices(field))
    x = data.draw(st.lists(_scalars(field), min_size=m.cols, max_size=m.cols))
    b = m.apply(x)
    found = solve(m, b)
    assert found is not None and m.apply(found) == b
    # an arbitrary right-hand side is solvable exactly when it adds no rank
    b = data.draw(st.lists(_scalars(field), min_size=m.rows, max_size=m.rows))
    found = solve(m, b)
    augmented = Matrix(field, [list(r) + [y] for r, y in zip(m.entries, b)], cols=m.cols + 1)
    if found is None:
        assert rref(augmented)[1] > rref(m)[1]
    else:
        assert m.apply(found) == tuple(b)

    n = data.draw(st.integers(1, 5))
    square = data.draw(_matrices(field, n, n))
    inv = inverse(square)
    if inv is None:
        assert rref(square)[1] < n
    else:
        one = Matrix.identity(field, n)
        assert square @ inv == one and inv @ square == one


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@LAWS
@given(data=st.data())
def test_sum_and_intersection_dimensions_add_up(field, data):
    n = data.draw(st.integers(1, 6))
    u = Subspace(field, n, data.draw(_matrices(field, cols=n)).entries)
    v = Subspace(field, n, data.draw(_matrices(field, cols=n)).entries)
    total, meet = subspace_sum(u, v), subspace_intersect(u, v)
    assert total.dim + meet.dim == u.dim + v.dim
    assert total.contains(u) and total.contains(v)
    assert u.contains(meet) and v.contains(meet)


@LAWS
@given(m=_matrices(QQ))
def test_rref_agrees_with_sympy_over_the_rationals(m):
    sympy = pytest.importorskip("sympy")
    reduced, rank = rref(m)
    theirs, pivots = sympy.Matrix(m.rows, m.cols, list(m.flatten())).rref()
    assert rank == len(pivots)
    assert reduced.to_lists() == [
        [Fraction(int(x.p), int(x.q)) for x in theirs.row(i)] for i in range(m.rows)
    ]


def _entries(space):
    """Basis entries with their scalar types, for comparison bit for bit."""
    return [[(type(x), x) for x in row] for row in space.basis.entries]


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
@LAWS
@given(data=st.data())
def test_the_kernel_equals_the_two_pass_reference(field, data):
    m = data.draw(_matrices(field, cols=data.draw(st.integers(0, 7))))
    assert _entries(kernel(m)) == _entries(reference_kernel(m))


@pytest.mark.parametrize("field", SMALL_FIELDS, ids=repr)
@LAWS
@given(data=st.data())
def test_kernel_and_intersection_bases_are_already_reduced(field, data):
    m = data.draw(_matrices(field))
    k = kernel(m)
    assert _entries(Subspace(field, m.cols, k.basis.entries)) == _entries(k)
    n = data.draw(st.integers(1, 6))
    u = Subspace(field, n, data.draw(_matrices(field, cols=n)).entries)
    v = Subspace(field, n, data.draw(_matrices(field, cols=n)).entries)
    meet = subspace_intersect(u, v)
    assert _entries(Subspace(field, n, meet.basis.entries)) == _entries(meet)


@LAWS
@given(m=_matrices(QQ))
def test_kernel_agrees_with_sympy_over_the_rationals(m):
    sympy = pytest.importorskip("sympy")
    theirs = sympy.Matrix(m.rows, m.cols, list(m.flatten())).nullspace()
    if theirs:
        reduced, _ = sympy.Matrix.hstack(*theirs).T.rref()
        expected = [
            [Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(theirs))
        ]
    else:
        expected = []
    assert kernel(m).basis.to_lists() == expected


@LAWS
@given(data=st.data())
def test_rational_results_are_canonical(data):
    m = data.draw(_matrices(QQ))
    n = m.cols
    u = Subspace(QQ, n, data.draw(_matrices(QQ, cols=n)).entries)
    v = Subspace(QQ, n, data.draw(_matrices(QQ, cols=n)).entries)
    sparse = [tuple(zip(*[(c, x) for c, x in enumerate(row) if x])) for row in m.entries]
    x = data.draw(st.lists(_scalars(QQ), min_size=n, max_size=n))
    square = data.draw(_matrices(QQ, n, n))
    found = [
        *rref(m)[0].entries,
        *kernel(m).basis.entries,
        *sparse_kernel(QQ, n, [row for row in sparse if row]).basis.entries,
        *subspace_intersect(u, v).basis.entries,
        solve(m, m.apply(x)),
        *(inverse(square) or square).entries,
    ]
    assert all(is_canonical_rational(y) for row in found for y in row), found


_INT_ROWS = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols), min_size=1, max_size=5
    )
)


@LAWS
@given(rows=_INT_ROWS)
# pivots 2, 3 and -4: an inexact inverse would leave floats behind
@example(rows=[[2, 3, 0], [0, 3, 6], [-4, 0, 1]])
@example(rows=[[2, 3], [4, 6]])
def test_rational_elimination_of_int_rows_is_exact(rows):
    found, pivots = _rref_support(rows, 0)
    assert (found, pivots) == reference_rref_mod_p(rows, 0)
    assert all(is_canonical_rational(y) for row in found for y in row), found
