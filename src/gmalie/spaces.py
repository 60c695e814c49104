"""The brute-force oracle: spaces of derivations, Lie derivations, and
central maps vanishing on commutators, their sum, and properness decisions
with verified witness decompositions.

A linear self-map is a square matrix acting on coordinate columns; a space
of maps is a subspace of F^(d*d) under row-major flattening (the matrix
entry (r, c) lands at flat index r*d + c).  All operations here refuse to
run over fields of characteristic two: the decomposition theory needs
two-torsion free modules, and over GF(2) nothing nonzero is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FDAlgebra,
    TensorTerms,
    _bracket_terms,
    _generators,
    _lie_generators,
    _memo,
    _product_terms,
    commutator_span,
)
from .errors import CharacteristicTwoError, ConsistencyError, DimensionMismatch, PreconditionError
from .gma import GMAlgebra
from .linalg import Matrix, Subspace, solve, sparse_kernel, subspace_sum

__all__ = [
    "EndoMap",
    "MapSpace",
    "ProperSplit",
    "derivation_space",
    "lie_derivation_space",
    "central_map_space",
    "proper_space",
    "derivation_defect",
    "lie_defect",
    "is_derivation",
    "is_lie_derivation",
    "is_central_commutator_free",
    "is_proper",
    "has_lie_derivation_property",
]


@dataclass(frozen=True)
class EndoMap:
    """A linear self-map of an algebra, as a matrix on coordinate columns."""

    matrix: Matrix

    def __post_init__(self):
        if self.matrix.rows != self.matrix.cols:
            raise DimensionMismatch("an endomorphism matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def apply(self, vec) -> tuple:
        return self.matrix.apply(vec)

    def flatten(self) -> tuple:
        return self.matrix.flatten()

    @classmethod
    def from_flat(cls, field, vec, dim):
        return cls(Matrix.from_flat(field, vec, dim, dim))

    @classmethod
    def zero(cls, field, dim):
        return cls(Matrix.zeros(field, dim, dim))

    def __add__(self, other):
        return EndoMap(self.matrix + other.matrix)

    def __sub__(self, other):
        return EndoMap(self.matrix - other.matrix)

    def scale(self, c):
        return EndoMap(self.matrix.scale(c))


@dataclass(frozen=True)
class MapSpace:
    """A linear space of endomorphisms of a fixed d-dimensional algebra."""

    algebra_dim: int
    space: Subspace

    def __post_init__(self):
        if self.space.ambient_dim != self.algebra_dim**2:
            raise DimensionMismatch("map space must live in F^(d*d)")

    @property
    def dim(self) -> int:
        return self.space.dim

    def contains(self, endo: EndoMap) -> bool:
        return self.space.contains_vector(endo.flatten())

    def basis_maps(self) -> tuple:
        f = self.space.field
        d = self.algebra_dim
        return tuple(EndoMap.from_flat(f, v, d) for v in self.space.basis.entries)


def _algebra_of(x) -> FDAlgebra:
    return x.algebra if isinstance(x, GMAlgebra) else x


def _require_odd(a: FDAlgebra):
    if a.field.characteristic == 2:
        raise CharacteristicTwoError(
            "this analysis requires a two-torsion free field (characteristic != 2)"
        )


# -- rules as tagged rows -------------------------------------------------------
#
# Each rule is a tuple of sparse rows (tag, columns, coefficients) over the
# flattened map: a map obeys the rule iff every row has a zero product with
# its flattening.  The tag is shared by the rows of one basis pair (product
# and bracket rules) or one value or commutator (central rule).  The
# pointwise checks read every row of a rule, memoized; the spaces solve only
# the rows of a generating set (see below).


def _add_row(rows: list, f, tag, terms):
    """Append the row sum_t x_t e_{c_t} of (c_t, x_t) terms under ``tag``;
    repeated columns add up, and a row that comes out zero is dropped."""
    row = {}
    for c, x in terms:
        row[c] = f.add(row[c], x) if c in row else x
    cols = tuple(c for c, x in row.items() if x != f.zero)
    if cols:
        rows.append((tag, cols, tuple(row[c] for c in cols)))


def _leibniz_rows(a: FDAlgebra, terms: TensorTerms, pairs) -> tuple:
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
            _add_row(rows, f, tag, row)
    return tuple(rows)


def _product_system(a: FDAlgebra, members) -> tuple:
    """Product-rule rows of the pairs (s, j), s in ``members``, all j."""
    pairs = [(s, j) for s in members for j in range(a.dim)]
    return _leibniz_rows(a, _product_terms(a), pairs)


def _bracket_system(a: FDAlgebra, members) -> tuple:
    """Bracket-rule rows of the pairs i < j with i or j in ``members``; the
    pair (j, i) gives the negated rows, and (i, i) none."""
    members = set(members)
    pairs = [
        (i, j)
        for i in range(a.dim)
        for j in range(i + 1, a.dim)
        if i in members or j in members
    ]
    return _leibniz_rows(a, _bracket_terms(a), pairs)


def _central_system(a: FDAlgebra, members) -> tuple:
    """Every value commuting with the basis vectors of ``members``,
    [e_i, T(e_s)] = 0 for i in ``members``, tagged ("value", s); then every
    commutator killed, T(w) = 0, tagged ("commutator", r) for the r-th basis
    vector w of the commutator span."""
    f, d, z = a.field, a.dim, a.field.zero
    right = _bracket_terms(a).right
    rows = []
    for s in range(d):
        tag = ("value", s)
        for i in members:
            for k in range(d):
                _add_row(rows, f, tag, [(m * d + s, c) for m, c in right[i][k]])
    for r, w in enumerate(commutator_span(a).basis.entries):
        tag = ("commutator", r)
        for k in range(d):
            _add_row(rows, f, tag, [(k * d + s, ws) for s, ws in enumerate(w) if ws != z])
    return tuple(rows)


@_memo
def _product_rows(a: FDAlgebra) -> tuple:
    return _product_system(a, range(a.dim))


@_memo
def _bracket_rows(a: FDAlgebra) -> tuple:
    return _bracket_system(a, range(a.dim))


@_memo
def _central_rows(a: FDAlgebra) -> tuple:
    return _central_system(a, range(a.dim))


def _solutions(a: FDAlgebra, rows) -> MapSpace:
    """The maps whose flattening every row annihilates, solved one
    independent block of rows at a time."""
    return MapSpace(a.dim, sparse_kernel(a.field, a.dim**2, ((c, x) for _, c, x in rows)))


# The spaces solve only the rows of a generating set.  The x that obey the
# product rule against every y form a subalgebra, and for the bracket rule a
# Lie subalgebra (Jacobi); the centralizer of a Lie generating set is the
# center.  So pairs (s, j) with s in S, pairs i < j meeting S_Lie, and values
# commuting with S_Lie cut out the same spaces as every row of the rule.


@_memo
def _derivation_space(a: FDAlgebra) -> MapSpace:
    return _solutions(a, _product_system(a, _generators(a)))


@_memo
def _lie_derivation_space(a: FDAlgebra) -> MapSpace:
    return _solutions(a, _bracket_system(a, _lie_generators(a)))


@_memo
def _central_map_space(a: FDAlgebra) -> MapSpace:
    """Maps with all values central that kill every commutator."""
    return _solutions(a, _central_system(a, _lie_generators(a)))


def derivation_space(g) -> MapSpace:
    """Solutions of the product rule T(xy) = T(x)y + xT(y)."""
    a = _algebra_of(g)
    _require_odd(a)
    return _derivation_space(a)


def lie_derivation_space(g) -> MapSpace:
    """Solutions of the bracket rule T([x,y]) = [T(x),y] + [x,T(y)]."""
    a = _algebra_of(g)
    _require_odd(a)
    return _lie_derivation_space(a)


def central_map_space(g) -> MapSpace:
    """Center-valued maps vanishing on all commutators."""
    a = _algebra_of(g)
    _require_odd(a)
    return _central_map_space(a)


@_memo
def _proper_space(a: FDAlgebra) -> MapSpace:
    return MapSpace(
        a.dim, subspace_sum(_derivation_space(a).space, _central_map_space(a).space)
    )


def proper_space(g) -> MapSpace:
    """Sum of the derivation space and the central-map space."""
    a = _algebra_of(g)
    _require_odd(a)
    return _proper_space(a)


# -- pointwise identity checks -------------------------------------------------


def _failing_tags(f, rows, flat):
    """Yield the tag of every row with a nonzero product against the
    vector ``flat``, once per tag and in row order.  The rows of one tag
    must be adjacent; those after its first failing row are skipped."""
    z = f.zero
    failed = None
    for tag, cols, coeffs in rows:
        if tag == failed:
            continue
        acc = z
        for c, x in zip(cols, coeffs):
            v = flat[c]
            if v != z:
                acc = f.add(acc, f.mul(x, v))
        if acc != z:
            failed = tag
            yield tag


def _first_failure(a: FDAlgebra, rule, endo: EndoMap):
    """Tag of the first row of ``rule(a)`` with a nonzero product against the
    flattened map, or None when the map obeys the rule."""
    _check_shape(a, endo)
    return next(_failing_tags(a.field, rule(a), endo.flatten()), None)


def derivation_defect(g, endo: EndoMap):
    """First basis pair violating the product rule, or None."""
    return _first_failure(_algebra_of(g), _product_rows, endo)


def lie_defect(g, endo: EndoMap):
    """First basis pair violating the bracket rule, or None."""
    return _first_failure(_algebra_of(g), _bracket_rows, endo)


def is_derivation(g, endo: EndoMap) -> bool:
    return derivation_defect(g, endo) is None


def is_lie_derivation(g, endo: EndoMap) -> bool:
    return lie_defect(g, endo) is None


def is_central_commutator_free(g, endo: EndoMap) -> bool:
    """Are all values central and all commutators killed?"""
    return _first_failure(_algebra_of(g), _central_rows, endo) is None


def _check_shape(a: FDAlgebra, endo: EndoMap):
    if endo.dim != a.dim or endo.matrix.field != a.field:
        raise DimensionMismatch("endomorphism does not match the algebra")


# -- properness ------------------------------------------------------------------


@dataclass(frozen=True)
class ProperSplit:
    """Outcome of a properness decision, with a verified witness on success."""

    proper: bool
    derivation: EndoMap | None = None
    central: EndoMap | None = None


def is_proper(g, endo: EndoMap) -> ProperSplit:
    """Decide membership of a Lie derivation in derivations + central maps.

    On success returns one witness pair (re-validated against the product
    rule and the centrality conditions before returning); the pair is a
    particular solution and is not unique.
    """
    a = _algebra_of(g)
    _require_odd(a)
    _check_shape(a, endo)
    defect = lie_defect(a, endo)
    if defect is not None:
        raise PreconditionError(
            f"not a Lie derivation: bracket rule fails on basis pair {defect}"
        )
    der = _derivation_space(a)
    cen = _central_map_space(a)
    # derivation basis first: leftmost pivoting then gives a pure derivation
    # a witness with zero central part
    stacked = Matrix.vstack(
        a.field,
        [der.space.basis, cen.space.basis],
        cols=a.dim**2,
    )
    coeffs = solve(stacked.transpose(), endo.flatten())
    if coeffs is None:
        return ProperSplit(proper=False)
    f, d = a.field, a.dim
    d_map = EndoMap.from_flat(f, der.space.from_coordinates(coeffs[: der.dim]), d)
    c_map = EndoMap.from_flat(f, cen.space.from_coordinates(coeffs[der.dim :]), d)
    _validate_witness(a, endo, d_map, c_map)
    return ProperSplit(proper=True, derivation=d_map, central=c_map)


def _validate_witness(a, endo, d_map, c_map):
    if d_map.matrix + c_map.matrix != endo.matrix:
        raise ConsistencyError("witness parts do not sum to the map")
    if derivation_defect(a, d_map) is not None:
        raise ConsistencyError("witness derivation violates the product rule")
    if not is_central_commutator_free(a, c_map):
        raise ConsistencyError("witness central part violates its conditions")


@_memo
def _has_property(a: FDAlgebra) -> bool:
    return _proper_space(a).space.contains(_lie_derivation_space(a).space)


def has_lie_derivation_property(g) -> bool:
    """Is every Lie derivation proper (containment of the two subspaces)?"""
    a = _algebra_of(g)
    _require_odd(a)
    return _has_property(a)
