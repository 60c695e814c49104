"""Exact dense linear algebra: matrices, canonical RREF, kernels, solving,
and the subspace calculus (sum, Zassenhaus intersection, membership).

Subspaces are always stored with a reduced-row-echelon basis, so two equal
subspaces have identical basis matrices and equality is plain comparison.
Pivoting is deterministic: leftmost pivot column, first nonzero row.
"""

from __future__ import annotations

from . import _kernel
from .errors import ConsistencyError, DimensionMismatch
from .fields import Field

__all__ = [
    "Matrix",
    "Subspace",
    "rref",
    "kernel",
    "sparse_kernel",
    "solve",
    "inverse",
    "subspace_sum",
    "subspace_intersect",
]


class Matrix:
    """Immutable dense matrix; entries are canonical scalars of ``field``."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries, cols: int | None = None):
        grid = tuple(map(field.vector, entries))
        n_rows = len(grid)
        if n_rows:
            n_cols = len(grid[0])
            if any(len(r) != n_cols for r in grid):
                raise DimensionMismatch("ragged rows in matrix")
            if cols is not None and cols != n_cols:
                raise DimensionMismatch(f"expected {cols} columns, got {n_cols}")
        else:
            n_cols = 0 if cols is None else cols
        self.field = field
        self.rows = n_rows
        self.cols = n_cols
        self.entries = grid

    @classmethod
    def _raw(cls, field, grid, cols):
        """Internal constructor for already-canonical row tuples."""
        m = object.__new__(cls)
        m.field = field
        m.rows = len(grid)
        m.cols = cols
        m.entries = grid
        return m

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls._raw(field, tuple((z,) * cols for _ in range(rows)), cols)

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls._raw(
            field, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)), n
        )

    @classmethod
    def from_columns(cls, field, columns, rows: int | None = None):
        cols = list(columns)
        if cols:
            n = len(cols[0])
        else:
            if rows is None:
                raise DimensionMismatch("row count needed for a matrix with no columns")
            n = rows
        return cls(field, [[col[i] for col in cols] for i in range(n)], cols=len(cols))

    # -- shape and access ---------------------------------------------------

    @property
    def shape(self):
        return (self.rows, self.cols)

    def row(self, i):
        return self.entries[i]

    def column(self, j):
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix._raw(
            self.field,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
            self.rows,
        )

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    # -- arithmetic -----------------------------------------------------------

    def _check_same(self, other):
        if self.field != other.field or self.shape != other.shape:
            raise DimensionMismatch("matrix shape/field mismatch")

    def __add__(self, other):
        self._check_same(other)
        add = self.field.add
        return Matrix._raw(
            self.field,
            tuple(tuple(map(add, ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.cols,
        )

    def __sub__(self, other):
        self._check_same(other)
        sub = self.field.sub
        return Matrix._raw(
            self.field,
            tuple(tuple(map(sub, ra, rb)) for ra, rb in zip(self.entries, other.entries)),
            self.cols,
        )

    def scale(self, c):
        c = self.field.of(c)
        mul = self.field.mul
        return Matrix._raw(
            self.field, tuple(tuple(mul(c, x) for x in row) for row in self.entries), self.cols
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field or self.cols != other.rows:
            raise DimensionMismatch("matrix product shape/field mismatch")
        f = self.field
        z = f.zero
        out = []
        for row in self.entries:
            acc = [z] * other.cols
            for k, x in enumerate(row):
                if x == z:
                    continue
                orow = other.entries[k]
                for j, y in enumerate(orow):
                    if y != z:
                        acc[j] = f.add(acc[j], f.mul(x, y))
            out.append(tuple(acc))
        return Matrix._raw(f, tuple(out), other.cols)

    def apply(self, vec) -> tuple:
        """Matrix-vector product on a coordinate column."""
        if len(vec) != self.cols:
            raise DimensionMismatch(f"vector length {len(vec)} != {self.cols} columns")
        f = self.field
        z = f.zero
        acc = [z] * self.rows
        for j, x in enumerate(vec):
            if x == z:
                continue
            for i in range(self.rows):
                e = self.entries[i][j]
                if e != z:
                    acc[i] = f.add(acc[i], f.mul(e, x))
        return tuple(acc)

    # -- reshaping ------------------------------------------------------------

    @classmethod
    def vstack(cls, field, mats, cols: int | None = None):
        grid = []
        for m in mats:
            if m.field != field:
                raise DimensionMismatch("field mismatch in vstack")
            if cols is None:
                cols = m.cols
            elif m.cols != cols:
                raise DimensionMismatch("column mismatch in vstack")
            grid.extend(m.entries)
        if cols is None:
            raise DimensionMismatch("column count needed for empty vstack")
        return cls._raw(field, tuple(grid), cols)

    def flatten(self) -> tuple:
        """Row-major flattening: entry (r, c) lands at index r*cols + c."""
        return tuple(x for row in self.entries for x in row)

    @classmethod
    def from_flat(cls, field, vec, rows, cols):
        if len(vec) != rows * cols:
            raise DimensionMismatch("flat vector length mismatch")
        return cls(field, [vec[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)

    def to_lists(self):
        return [list(r) for r in self.entries]

    # -- identity -------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


# -- elimination core ---------------------------------------------------------


def _echelon(field, data):
    """Dispatch to the field-appropriate elimination; returns (rows, pivots),
    the nonzero rows of the reduced row echelon form and their pivots."""
    if not data or not data[0]:
        return [], []
    if field.is_prime_field:
        return _kernel.rref_mod_p(data, field.p)
    return _kernel._rref_support(data, 0)


def rref(m: Matrix):
    """Reduced row echelon form (same shape, zero rows at the bottom) and rank."""
    rows, pivots = _echelon(m.field, m.entries)
    rows += [[m.field.zero] * m.cols for _ in range(m.rows - len(rows))]
    out = Matrix(m.field, rows, cols=m.cols)
    return out, len(pivots)


def kernel(m: Matrix) -> "Subspace":
    """Canonical basis of the right null space {x : m.apply(x) = 0}."""
    rows, pivots = _echelon(m.field, m.entries)
    f = m.field
    z, o = f.zero, f.one
    pivot_set = set(pivots)
    basis = []
    for j in range(m.cols):
        if j in pivot_set:
            continue
        vec = [z] * m.cols
        vec[j] = o
        for r, c in enumerate(pivots):
            coeff = rows[r][j]
            if coeff != z:
                vec[c] = f.neg(coeff)
        basis.append(vec)
    return Subspace(f, m.cols, basis)


def sparse_kernel(field, n: int, rows) -> "Subspace":
    """Canonical basis of {x in F^n : every row annihilates x}, the rows
    given sparse as (columns, coefficients) pairs.

    Rows that share a column are joined into one block by a union-find over
    the columns, and each block is solved by :func:`kernel` over its own
    columns only.  The lifted block kernels have disjoint supports, and a
    column that no row touches is free, so these vectors together with the
    unit vectors of the free columns, sorted by pivot, are already the RREF
    basis that one dense elimination of all the rows would give.
    """
    parent = list(range(n))

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    rows = [(cols, coeffs) for cols, coeffs in rows if cols]
    for cols, _ in rows:
        first = root(cols[0])
        for c in cols[1:]:
            parent[root(c)] = first
    blocks = {}
    for row in rows:
        blocks.setdefault(root(row[0][0]), []).append(row)

    z, o = field.zero, field.one
    touched = set()
    vectors = []
    for block in blocks.values():
        cols = sorted({c for row_cols, _ in block for c in row_cols})
        touched.update(cols)
        local = {c: t for t, c in enumerate(cols)}
        dense = Matrix(field, _dense_rows(block, local, len(cols), z), cols=len(cols))
        for v in kernel(dense).basis.entries:
            vec = [z] * n
            for c, x in zip(cols, v):
                vec[c] = x
            vectors.append(vec)
    for c in range(n):
        if c not in touched:
            vec = [z] * n
            vec[c] = o
            vectors.append(vec)
    vectors.sort(key=lambda vec: next(j for j, x in enumerate(vec) if x != z))
    return Subspace(field, n, vectors, _reduced=True)


def _dense_rows(block, local, width, z):
    """A block's sparse rows as dense lists over its own columns, made one
    at a time: the matrix built from them is the only copy held during the
    elimination."""
    for row_cols, coeffs in block:
        row = [z] * width
        for c, x in zip(row_cols, coeffs):
            row[local[c]] = x
        yield row


def solve(m: Matrix, vec):
    """One solution of ``m.apply(x) = vec``, or None when inconsistent.

    The particular solution sets all free variables to zero; the result is
    re-verified by multiplication before being returned.
    """
    if len(vec) != m.rows:
        raise DimensionMismatch(f"rhs length {len(vec)} != {m.rows} rows")
    f = m.field
    vec = f.vector(vec)
    augmented = [list(row) + [b] for row, b in zip(m.entries, vec)]
    if not augmented:
        return (f.zero,) * m.cols
    rows, pivots = _echelon(f, augmented)
    if pivots and pivots[-1] == m.cols:
        return None
    x = [f.zero] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][m.cols]
    x = tuple(x)
    if m.apply(x) != vec:
        raise ConsistencyError("solver returned an unverified solution")
    return x


def inverse(m: Matrix):
    """Inverse of a square matrix, or None when singular."""
    if m.rows != m.cols:
        raise DimensionMismatch("only square matrices can be inverted")
    if m.rows == 0:
        return m
    f = m.field
    n = m.rows
    augmented = [
        list(row) + list(idrow)
        for row, idrow in zip(m.entries, Matrix.identity(f, n).entries)
    ]
    rows, pivots = _echelon(f, augmented)
    if len(pivots) != n or pivots != list(range(n)):
        return None
    return Matrix(f, [row[n:] for row in rows], cols=n)


# -- subspaces -----------------------------------------------------------------


class Subspace:
    """Linear subspace of F^n with a canonical RREF basis (rows, no zero rows)."""

    __slots__ = ("field", "ambient_dim", "basis", "_pivots")

    def __init__(self, field: Field, ambient_dim: int, vectors=(), *, _reduced=False):
        vectors = list(map(field.vector, vectors))
        for v in vectors:
            if len(v) != ambient_dim:
                raise DimensionMismatch(
                    f"vector length {len(v)} != ambient dimension {ambient_dim}"
                )
        if _reduced:
            grid = tuple(vectors)
        else:
            grid = tuple(tuple(r) for r in _echelon(field, vectors)[0])
        self.field = field
        self.ambient_dim = ambient_dim
        self.basis = Matrix._raw(field, grid, ambient_dim)
        self._pivots = None

    @classmethod
    def zero(cls, field, ambient_dim):
        return cls(field, ambient_dim, (), _reduced=True)

    @classmethod
    def full(cls, field, ambient_dim):
        return cls(
            field, ambient_dim, Matrix.identity(field, ambient_dim).entries, _reduced=True
        )

    @property
    def dim(self) -> int:
        return self.basis.rows

    def pivot_columns(self):
        """Column of each basis row's leading entry, found once."""
        if self._pivots is None:
            z = self.field.zero
            self._pivots = tuple(
                next(j for j, x in enumerate(row) if x != z) for row in self.basis.entries
            )
        return self._pivots

    # -- membership ------------------------------------------------------------

    def reduce_vector(self, vec) -> tuple:
        """Residual of ``vec`` after clearing the basis pivots; zero iff member."""
        f = self.field
        v = list(f.vector(vec))
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector/ambient dimension mismatch")
        z = f.zero
        for row, piv in zip(self.basis.entries, self.pivot_columns()):
            c = v[piv]
            if c != z:
                for j in range(piv, self.ambient_dim):
                    if row[j] != z:
                        v[j] = f.sub(v[j], f.mul(c, row[j]))
        return tuple(v)

    def contains_vector(self, vec) -> bool:
        z = self.field.zero
        return all(x == z for x in self.reduce_vector(vec))

    def contains(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        return all(self.contains_vector(v) for v in other.basis.entries)

    def coordinates(self, vec):
        """Coefficients of ``vec`` over the canonical basis, or None if outside."""
        if not self.contains_vector(vec):
            return None
        v = self.field.vector(vec)
        return tuple(v[piv] for piv in self.pivot_columns())

    def from_coordinates(self, coords) -> tuple:
        if len(coords) != self.dim:
            raise DimensionMismatch("coordinate length != subspace dimension")
        f = self.field
        z = f.zero
        acc = [z] * self.ambient_dim
        for c, row in zip(f.vector(coords), self.basis.entries):
            if c != z:
                for j, x in enumerate(row):
                    if x != z:
                        acc[j] = f.add(acc[j], f.mul(c, x))
        return tuple(acc)

    def membership_operator(self) -> Matrix:
        """Matrix R with kernel exactly this subspace (R = I - B^T E)."""
        f = self.field
        n = self.ambient_dim
        rows = [list(r) for r in Matrix.identity(f, n).entries]
        for brow, piv in zip(self.basis.entries, self.pivot_columns()):
            for i in range(n):
                rows[i][piv] = f.sub(rows[i][piv], brow[i])
        return Matrix(f, rows, cols=n)

    # -- identity ----------------------------------------------------------------

    def _check_compatible(self, other):
        if self.field != other.field or self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("subspace field/ambient mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient_dim == other.ambient_dim
            and self.basis.entries == other.basis.entries
        )

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.basis.entries))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of F^{self.ambient_dim} over {self.field!r})"


def subspace_sum(u: Subspace, v: Subspace) -> Subspace:
    u._check_compatible(v)
    return Subspace(u.field, u.ambient_dim, u.basis.entries + v.basis.entries)


def subspace_intersect(u: Subspace, v: Subspace) -> Subspace:
    """Zassenhaus block method: reduce [[U U], [V 0]]; rows whose left half
    vanished carry an intersection basis in their right half."""
    u._check_compatible(v)
    f = u.field
    n = u.ambient_dim
    z = f.zero
    stacked = [list(row) + list(row) for row in u.basis.entries]
    stacked += [list(row) + [z] * n for row in v.basis.entries]
    rows, pivots = _echelon(f, stacked)
    vectors = []
    for r in range(len(pivots)):
        row = rows[r]
        if all(x == z for x in row[:n]):
            vectors.append(row[n:])
    return Subspace(f, n, vectors)
