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

from .algebra import FDAlgebra, _bracket_tensor, _memo, center, commutator_span
from .errors import CharacteristicTwoError, DimensionMismatch, PreconditionError
from .gma import GMAlgebra
from .linalg import Matrix, Subspace, kernel, solve, subspace_sum

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


def _leibniz_kernel(a: FDAlgebra, tensor, pairs) -> Subspace:
    """Kernel of T(x_i x_j) = T(x_i) x_j + x_i T(x_j) over the given product
    tensor, as a subspace of flattened matrices."""
    f = a.field
    z = f.zero
    d = a.dim
    rows = []
    for i, j in pairs:
        plane_ij = tensor[i][j]
        for k in range(d):
            row = [z] * (d * d)
            for l in range(d):
                s = plane_ij[l]
                if s != z:
                    row[k * d + l] = f.add(row[k * d + l], s)
            for p in range(d):
                s = tensor[p][j][k]
                if s != z:
                    row[p * d + i] = f.sub(row[p * d + i], s)
            for q in range(d):
                s = tensor[i][q][k]
                if s != z:
                    row[q * d + j] = f.sub(row[q * d + j], s)
            if any(x != z for x in row):
                rows.append(row)
    if not rows:
        return Subspace.full(f, d * d)
    return kernel(Matrix(f, rows, cols=d * d))


@_memo
def _derivation_space(a: FDAlgebra) -> MapSpace:
    pairs = [(i, j) for i in range(a.dim) for j in range(a.dim)]
    return MapSpace(a.dim, _leibniz_kernel(a, a.structure, pairs))


@_memo
def _lie_derivation_space(a: FDAlgebra) -> MapSpace:
    pairs = [(i, j) for i in range(a.dim) for j in range(i + 1, a.dim)]
    return MapSpace(a.dim, _leibniz_kernel(a, _bracket_tensor(a), pairs))


@_memo
def _central_map_space(a: FDAlgebra) -> MapSpace:
    """Maps with all values central that kill every commutator."""
    f = a.field
    z = f.zero
    d = a.dim
    bracket = _bracket_tensor(a)
    rows = []
    # centrality of every image column: [e_i, T(e_s)] = 0
    for s in range(d):
        for i in range(d):
            for k in range(d):
                row = [z] * (d * d)
                nonzero = False
                for m in range(d):
                    coeff = bracket[i][m][k]
                    if coeff != z:
                        row[m * d + s] = coeff
                        nonzero = True
                if nonzero:
                    rows.append(row)
    # vanishing on the commutator span
    for w in commutator_span(a).basis.entries:
        for k in range(d):
            row = [z] * (d * d)
            nonzero = False
            for s, ws in enumerate(w):
                if ws != z:
                    row[k * d + s] = ws
                    nonzero = True
            if nonzero:
                rows.append(row)
    if not rows:
        return MapSpace(d, Subspace.full(f, d * d))
    return MapSpace(d, kernel(Matrix(f, rows, cols=d * d)))


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


def derivation_defect(g, endo: EndoMap):
    """First basis pair violating the product rule, or None."""
    a = _algebra_of(g)
    _check_shape(a, endo)
    f = a.field
    for i in range(a.dim):
        ei = a.basis_vector(i)
        ti = endo.apply(ei)
        for j in range(a.dim):
            ej = a.basis_vector(j)
            lhs = endo.apply(a.structure[i][j])
            rhs1 = a.multiply(ti, ej)
            rhs2 = a.multiply(ei, endo.apply(ej))
            if lhs != tuple(f.add(x, y) for x, y in zip(rhs1, rhs2)):
                return (i, j)
    return None


def lie_defect(g, endo: EndoMap):
    """First basis pair violating the bracket rule, or None."""
    a = _algebra_of(g)
    _check_shape(a, endo)
    f = a.field
    for i in range(a.dim):
        ei = a.basis_vector(i)
        ti = endo.apply(ei)
        for j in range(i + 1, a.dim):
            ej = a.basis_vector(j)
            lhs = endo.apply(a.bracket(ei, ej))
            rhs1 = a.bracket(ti, ej)
            rhs2 = a.bracket(ei, endo.apply(ej))
            if lhs != tuple(f.add(x, y) for x, y in zip(rhs1, rhs2)):
                return (i, j)
    return None


def is_derivation(g, endo: EndoMap) -> bool:
    return derivation_defect(g, endo) is None


def is_lie_derivation(g, endo: EndoMap) -> bool:
    return lie_defect(g, endo) is None


def is_central_commutator_free(g, endo: EndoMap) -> bool:
    """Are all values central and all commutators killed?"""
    a = _algebra_of(g)
    _check_shape(a, endo)
    z_a = center(a)
    for s in range(a.dim):
        if not z_a.contains_vector(endo.apply(a.basis_vector(s))):
            return False
    zero = a.zero()
    for w in commutator_span(a).basis.entries:
        if endo.apply(w) != zero:
            return False
    return True


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
    f = a.field
    d = a.dim
    der_flat = [f.zero] * (d * d)
    cen_flat = [f.zero] * (d * d)
    for c, row in zip(coeffs[: der.dim], der.space.basis.entries):
        if c != f.zero:
            for t, x in enumerate(row):
                if x != f.zero:
                    der_flat[t] = f.add(der_flat[t], f.mul(c, x))
    for c, row in zip(coeffs[der.dim :], cen.space.basis.entries):
        if c != f.zero:
            for t, x in enumerate(row):
                if x != f.zero:
                    cen_flat[t] = f.add(cen_flat[t], f.mul(c, x))
    d_map = EndoMap.from_flat(f, tuple(der_flat), d)
    c_map = EndoMap.from_flat(f, tuple(cen_flat), d)
    _validate_witness(a, endo, d_map, c_map)
    return ProperSplit(proper=True, derivation=d_map, central=c_map)


def _validate_witness(a, endo, d_map, c_map):
    from .errors import ConsistencyError

    if d_map.matrix + c_map.matrix != endo.matrix:
        raise ConsistencyError("witness parts do not sum to the map")
    if derivation_defect(a, d_map) is not None:
        raise ConsistencyError("witness derivation violates the product rule")
    if not is_central_commutator_free(a, c_map):
        raise ConsistencyError("witness central part violates its conditions")


def has_lie_derivation_property(g) -> bool:
    """Is every Lie derivation proper (containment of the two subspaces)?"""
    a = _algebra_of(g)
    _require_odd(a)
    return _proper_space(a).space.contains(_lie_derivation_space(a).space)
