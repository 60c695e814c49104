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
Over GF(p) it also solves a rule for the values of L on a generating set,
composing the rule's rows with the map from those values to vec(L).
"""

from __future__ import annotations

import struct

from ._kernel import _slot_width
from .algebra import (
    FDAlgebra,
    TensorTerms,
    _bracket_terms,
    _memo,
    _product_terms,
    commutator_span,
)
from .errors import ConsistencyError
from .linalg import Subspace, _echelon, sparse_kernel


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


# -- solving over the values on a generating set -------------------------------
#
# A map L that obeys the rule on the pairs (s, j), s in a generating set S,
# obeys it everywhere, and it is fixed by its values X on S: the greedy walk
# (``algebra.Walk``) writes every basis vector as a word in S, and
# L(e_s w) = L(e_s) w + e_s L(w) carries X along each word.  So the
# solutions are Phi X for the X in the kernel of the rows composed with Phi,
# a kernel |S| d wide instead of d^2.  A linear form in the n = |S| d
# unknowns is one int with b-bit slots, unknown u in bits [b*u, b*(u+1)), as
# in ``_kernel._rref_packed``; unknown t*d + m is coordinate m of L(e_s) for
# the t-th member s.  Every coefficient added is in [0, p), a difference is
# added as (p - x) times a form, and a form is reduced mod p only when it is
# stored, so a slot never exceeds (p - 1) + max(3d, n) (p - 1)^2: a form
# sums at most d products for each of three terms, and a vector mapped back
# at most n.  When no 64-bit slot holds that, the caller solves the rows.


def _left_forms(terms: TensorTerms, bits) -> list:
    """left[l][k]: coordinate k of X e_l, packed, for the map X with X(e_m)
    in slot m."""
    return [[sum(x << bits * m for m, x in by_left) for by_left in plane] for plane in terms.left]


def _value_forms(p, d, terms: TensorTerms, walk, bits, code) -> list:
    """values[l][k]: coordinate k of L(e_l), a packed form in the values of
    L on ``walk.members``, carried along the walk by the product whose
    nonzero terms are ``terms``; every slot reduced mod p."""
    members, steps = walk
    layout = struct.Struct(f"<{len(members) * d}{code}")
    size, pack, unpack = layout.size, layout.pack, layout.unpack

    def canonical(x, scale=1):
        vals = unpack(x.to_bytes(size, "little"))
        return int.from_bytes(pack(*[v * scale % p for v in vals]), "little")

    left = _left_forms(terms, bits)
    shift = {s: bits * t * d for t, s in enumerate(members)}
    stored, forms = {}, {}
    for pivot, vector, s, word, reductions, scale in steps:
        at = shift[s]
        if word is None:
            raw = [1 << at + bits * k for k in range(d)]
        else:
            # L(e_s w) = L(e_s) w + e_s L(w)
            raw = [0] * d
            for l, x in stored[word]:
                raw = [r + x * y for r, y in zip(raw, left[l])]
            lw = forms[word]
            raw = [
                (r << at) + sum(x * lw[q] for q, x in by_right)
                for r, by_right in zip(raw, terms.right[s])
            ]
        for c, x in reductions:
            m = p - x
            raw = [r + m * y for r, y in zip(raw, forms[c])]
        stored[pivot] = vector
        forms[pivot] = [canonical(r, scale) for r in raw]
    # the stored vectors are unitriangular: e_k is stored[k] minus x e_c for
    # its entries x at c > k, whose values are already known
    values = [None] * d
    for k in range(d - 1, -1, -1):
        raw = forms[k]
        for c, x in stored[k]:
            if c != k:
                m = p - x
                raw = [r + m * y for r, y in zip(raw, values[c])]
        values[k] = [canonical(r) for r in raw]
    return values


def _unpacked(values, d, n, code) -> list:
    """Phi's rows: row r*d + c lists the coefficients of vec(L)[r*d + c],
    coordinate r of L(e_c), over the n unknowns."""
    layout = struct.Struct(f"<{n}{code}")
    size, unpack = layout.size, layout.unpack
    return [unpack(values[c][r].to_bytes(size, "little")) for r in range(d) for c in range(d)]


def value_solutions(a: FDAlgebra, terms: TensorTerms, walk, pairs, floor) -> Subspace | None:
    """vec(L) of the maps L with L(e_s e_j) = L(e_s) e_j + e_s L(e_j) for the
    (s, j) in ``pairs``, s a member of ``walk``, over the product whose
    nonzero terms are ``terms``: the kernel of those rows composed with Phi,
    mapped back by Phi, in one canonical RREF basis.  GF(p) only; None when
    no slot width holds the packing bound.

    ``floor`` is a subspace of the solutions known beforehand.  Phi is one
    to one on the solutions, so the rows have rank at most n - dim floor,
    and once the rows taken so far reach it the solutions are ``floor``:
    the rows are composed and eliminated a batch of pairs at a time, and
    the rest go unbuilt."""
    f, d = a.field, a.dim
    p, n = f.p, len(walk.members) * d
    width = _slot_width(p, max(3 * d, n))
    if width is None:
        return None
    bits, code = width
    values = _value_forms(p, d, terms, walk, bits, code)
    layout = struct.Struct(f"<{n}{code}")
    size, unpack = layout.size, layout.unpack
    # the forms of -(L(e_s) e_j)_k, before the shift to the slots of s
    minus = [[(p - 1) * x for x in plane] for plane in _left_forms(terms, bits)]
    shift = {s: bits * t * d for t, s in enumerate(walk.members)}

    def composed(s, j):
        # L(e_s e_j) - L(e_s) e_j - e_s L(e_j), one row per coordinate k
        at, lj = shift[s], values[j]
        raw = [x << at for x in minus[j]]
        for l, x in terms.out[s][j]:
            raw = [r + x * y for r, y in zip(raw, values[l])]
        for r, by_right in zip(raw, terms.right[s]):
            r += sum((p - x) * lj[q] for q, x in by_right)
            if r:
                yield [v % p for v in unpack(r.to_bytes(size, "little"))]

    rank = n - floor.dim
    rows, pivots = [], []
    # on the benchmark's twins a pair's d rows raised the rank by about d/2
    done, batch = 0, 2 * rank // d + 1
    while len(pivots) < rank and done < len(pairs):
        data = rows + [row for pair in pairs[done : done + batch] for row in composed(*pair)]
        rows, pivots = _echelon(f, data)
        done, batch = done + batch, 2 * batch
    if len(pivots) > rank:
        raise ConsistencyError("a map of the known solutions fails the rule")
    if len(pivots) == rank:
        return floor
    # Phi's column u packed over the d^2 entries of vec(L); the kernel vector
    # of free unknown u maps to column u minus the pivot columns it pays for
    wide = struct.Struct(f"<{d * d}{code}")
    columns = [
        int.from_bytes(wide.pack(*column), "little")
        for column in zip(*_unpacked(values, d, n, code))
    ]
    taken = set(pivots)
    vectors = []
    for u in range(n):
        if u in taken:
            continue
        acc = columns[u]
        for row, c in zip(rows, pivots):
            if row[u]:
                acc += (p - row[u]) * columns[c]
        vectors.append([v % p for v in wide.unpack(acc.to_bytes(wide.size, "little"))])
    return Subspace(f, d * d, vectors)
