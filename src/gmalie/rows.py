"""Linear conditions on maps as tagged sparse rows over vec(L).

vec(L) is the row-major flattening of a map's d x d matrix: entry (r, c)
sits at r*d + c.  A condition is a tuple of rows (tag, columns,
coefficients), and a map obeys it iff every row has a zero product with
vec(L); the rows of one tag (one basis tuple) are adjacent.  This module
builds such rows -- the rules of an algebra, whose tag is a basis pair
(i, j) or ("value", s) or ("commutator", r), and equations between blocks
of a map -- lifts a block algebra's rows onto the assembled map, solves
them and reads the failing tags of one vector.  A block's place in vec(L)
is (start, stride, rows, cols): its entry (s, t) sits at start + s*stride + t.
"""

from __future__ import annotations

from .algebra import (
    FDAlgebra,
    TensorTerms,
    _bracket_terms,
    _memo,
    _product_terms,
    commutator_span,
)
from .linalg import Subspace, sparse_kernel


def add_row(rows: list, f, tag, terms):
    """Append the row sum_t x_t e_{c_t} of (c_t, x_t) terms under ``tag``;
    repeated columns add up, and a row that comes out zero is dropped."""
    row = {}
    for c, x in terms:
        row[c] = f.add(row[c], x) if c in row else x
    cols = tuple(c for c, x in row.items() if x)
    if cols:
        rows.append((tag, cols, tuple(row[c] for c in cols)))


def leibniz_rows(a: FDAlgebra, terms: TensorTerms, pairs) -> tuple:
    """T(x_i x_j) = T(x_i) x_j + x_i T(x_j) over the product whose nonzero
    terms are ``terms``: one row per output coordinate k, tagged (i, j)."""
    f, d, neg = a.field, a.dim, a.field.neg
    # -T_{p i} t[p][j][k] and -T_{q j} t[i][q][k], as (p*d, -s) and (q*d, -s)
    left = [[[(p * d, neg(s)) for p, s in col] for col in plane] for plane in terms.left]
    right = [[[(q * d, neg(s)) for q, s in col] for col in plane] for plane in terms.right]
    rows = []
    for i, j in pairs:
        tag = (i, j)
        product, by_left, by_right = terms.out[i][j], left[j], right[i]
        for k in range(d):
            row = [(k * d + l, s) for l, s in product]
            row += [(pd + i, s) for pd, s in by_left[k]]
            row += [(qd + j, s) for qd, s in by_right[k]]
            add_row(rows, f, tag, row)
    return tuple(rows)


def product_system(a: FDAlgebra, members) -> tuple:
    """Product-rule rows of the pairs (s, j), s in ``members``, all j."""
    pairs = [(s, j) for s in members for j in range(a.dim)]
    return leibniz_rows(a, _product_terms(a), pairs)


def bracket_system(a: FDAlgebra, members) -> tuple:
    """Bracket-rule rows of the pairs i < j with i or j in ``members``; the
    pair (j, i) gives the negated rows, and (i, i) none."""
    members = set(members)
    pairs = [
        (i, j)
        for i in range(a.dim)
        for j in range(i + 1, a.dim)
        if i in members or j in members
    ]
    return leibniz_rows(a, _bracket_terms(a), pairs)


@_memo
def product_rows(a: FDAlgebra) -> tuple:
    return product_system(a, range(a.dim))


@_memo
def bracket_rows(a: FDAlgebra) -> tuple:
    return bracket_system(a, range(a.dim))


@_memo
def central_rows(a: FDAlgebra) -> tuple:
    """Every value commuting with every basis vector, [e_i, T(e_s)] = 0,
    tagged ("value", s); then every commutator killed, T(w) = 0, tagged
    ("commutator", r) for the r-th basis vector w of the commutator span."""
    f, d, z = a.field, a.dim, a.field.zero
    right = _bracket_terms(a).right
    rows = []
    for s in range(d):
        tag = ("value", s)
        for i in range(d):
            for k in range(d):
                add_row(rows, f, tag, [(m * d + s, c) for m, c in right[i][k]])
    for r, w in enumerate(commutator_span(a).basis.entries):
        tag = ("commutator", r)
        for k in range(d):
            add_row(rows, f, tag, [(k * d + s, ws) for s, ws in enumerate(w) if ws != z])
    return tuple(rows)


def unit(f, n, i, x=None) -> tuple:
    """x e_i in F^n, with x = 1 by default."""
    return tuple((f.one if x is None else x) if t == i else f.zero for t in range(n))


def equation(rows, f, tag, dim, terms):
    """Append under ``tag`` the ``dim`` rows of sum U X v = 0 over the
    ``terms`` (place, U, v): X is the block at ``place`` in vec(L), U a
    matrix given by its columns (None for the identity) and v a vector."""
    z = f.zero
    for k in range(dim):
        row = []
        for (at, d, _, _), u, v in terms:
            left = [(k, f.one)] if u is None else [(s, c[k]) for s, c in enumerate(u) if c[k] != z]
            right = [(t, y) for t, y in enumerate(v) if y != z]
            row += [(at + s * d + t, f.mul(x, y)) for s, x in left for t, y in right]
        add_row(rows, f, tag, row)


def leibniz(rows, f, at, tag, b, out, d1, d2, i, j, extra):
    """Append the rows of out(b(x_i, y_j)) - b(d1(x_i), y_j) - b(x_i, d2(y_j))
    + sum(extra) = 0, for the bilinear map with b[i][j] = b(x_i, y_j); ``at``
    maps the names ``out``, ``d1`` and ``d2`` to their places."""
    minus = f.neg(f.one)
    terms = [
        (at[out], None, b[i][j]),
        (at[d1], [by_x[j] for by_x in b], unit(f, len(b), i, minus)),
        (at[d2], b[i], unit(f, len(b[i]), j, minus)),
        *extra,
    ]
    equation(rows, f, tag, len(b[i][j]), terms)


def lift(rows, n, d, off, tag) -> tuple:
    """The ``rows`` over vec(X) of an n x n map X moved onto vec(L) of a
    d x d map L whose diagonal block at offset ``off`` is X: column r*n + c
    goes to (off + r)*d + off + c, and each row's tag t becomes tag(t)."""
    return tuple(
        (tag(t), tuple((off + c // n) * d + off + c % n for c in cols), coeffs)
        for t, cols, coeffs in rows
    )


def solutions(a: FDAlgebra, rows) -> Subspace:
    """vec(L) of the maps L of ``a`` that every row annihilates, solved one
    independent block of rows at a time."""
    return sparse_kernel(a.field, a.dim**2, ((c, x) for _, c, x in rows))


def failing_tags(f, rows, flat):
    """Yield the tag of every row with a nonzero product against the
    vector ``flat``, once per tag and in row order.  The rows of one tag
    must be adjacent; those after its first failing row are skipped."""
    failed = None
    for tag, cols, coeffs in rows:
        if tag == failed:
            continue
        acc = f.zero
        for c, x in zip(cols, coeffs):
            v = flat[c]
            if v:
                acc = f.add(acc, f.mul(x, v))
        if acc:
            failed = tag
            yield tag
