"""The brute-force oracle: spaces of derivations, Lie derivations, and
central maps vanishing on commutators, their sum, and properness decisions
with verified witness decompositions.

A linear self-map is a square matrix acting on coordinate columns; a space
of maps is a subspace of F^(d*d) under row-major flattening (the matrix
entry (r, c) lands at flat index r*d + c).  The rules are tagged rows over
that flattening, built, solved and read by ``rows``: the derivation and
Lie-derivation spaces solve the rows of a generating set (over GF(p) on a
dense basis, for the values on that set; on a basis that shows a Peirce
grading, for the maps of weight zero only, the rest being inner), the
central maps are built in closed form from the center and the commutator
span, and the pointwise checks read every row.  All operations here refuse
to run over fields of characteristic two: the decomposition theory needs
two-torsion free modules, and over GF(2) nothing nonzero is.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    FDAlgebra,
    _bracket_tensor,
    _bracket_terms,
    _bracket_walk,
    _memo,
    _peirce_weights,
    _product_terms,
    _product_walk,
    center,
    commutator_span,
)
from .errors import CharacteristicTwoError, ConsistencyError, DimensionMismatch, PreconditionError
from .gma import GMAlgebra
from .linalg import Matrix, Subspace, _echelon, kernel, solve, subspace_sum
from .rows import (
    bracket_rows,
    bracket_system,
    central_rows,
    failing_tags,
    product_rows,
    product_system,
    solutions,
    value_solutions,
)

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
    "require_lie",
    "validate_split",
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
        if endo.dim != self.algebra_dim or endo.matrix.field != self.space.field:
            raise DimensionMismatch("endomorphism does not match the algebra")
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


# The derivation and Lie-derivation spaces solve only the rows of a
# generating set.  The x that obey the product rule against every y form a
# subalgebra, and for the bracket rule a Lie subalgebra (Jacobi).  So pairs
# (s, j) with s in S and pairs i < j meeting S_Lie cut out the same spaces
# as every row of the rule.  The central maps need no rows: they are the
# maps from A/[A, A] to the center, which is the centralizer of S_Lie.
#
# Such a map is also fixed by its values on S, so over GF(p) a dense
# algebra solves for those |S| d values instead of the d^2 entries
# (``rows.value_solutions``).  A dense basis needs few generators, 2 to 5
# on the benchmark's random-basis twins, and its rows fill in when
# eliminated, so the narrow system wins.  A sparse basis needs many, up to
# all d on T_n in matrix units, and ``sparse_kernel`` splits its d^2-wide
# rows into small independent blocks, which win there.  The share of
# nonzero terms in the rule's tensor tells the two apart: at least 0.58 on
# every random-basis twin the benchmark runs, at most 0.07 on its
# matrix-unit and block bases.  Rationals, primes too large for a 64-bit
# slot, and algebras of dimension 1 or 2 keep the row solve: on the 1- and
# 2-dimensional algebras that the fuzz and cli workloads build, the values
# solve's fixed costs made it no faster (d = 2) or slower (d = 1).
#
# The values solve starts from a floor of solutions known in advance: the
# inner derivations for the product rule, the derivations plus the central
# maps for the bracket rule.  When the floor is all of the solutions (every
# derivation inner, every Lie derivation proper), a few batches of rows
# prove it and the rest are never built.
#
# Every other algebra takes the row solve, graded by the idempotents its
# basis shows (``algebra._peirce_weights``): matrix units, triangular
# matrix units and the block bases of assembled contexts whose corners show
# their units.  The map entry (r, c) has the weight wt(r) - wt(c), and each
# row of either rule holds the entries of one weight, so both spaces split
# by weight.  A Lie derivation L of weight w != 0 is inner: for i with
# w_i != 0, [ad(e_i), L] = w_i L, and [L, ad(x)] = ad(L(x)) for every Lie
# derivation, so L = -ad(L(e_i)) / w_i, where w_i is +-1 or +-2 and
# characteristic != 2 inverts it.  So Der = ad(A) + Der_0 and Lie =
# ad(A) + Lie_0: only the rows and entries of weight zero are solved, 45
# of 625 entries on M_5 in matrix units, and each A_w, w != 0, gives its
# ad(A_w) with no solve.  The weights hold disjoint columns, so the RREF
# bases merge by pivot.  A basis that shows no grading has E = {1}: every
# entry has weight zero, and the solve is the plain row solve.

_DENSE_SHARE = 4  # solve over the values when nonzeros * 4 >= d^3
_DENSE_MIN_DIM = 3


def _dense(a: FDAlgebra, terms) -> bool:
    if not a.field.is_prime_field or a.dim < _DENSE_MIN_DIM:
        return False
    nonzero = sum(len(products) for plane in terms.out for products in plane)
    return nonzero * _DENSE_SHARE >= a.dim**3


def _rule(a: FDAlgebra, lie: bool) -> tuple:
    """(terms, walk, pairs, system) of the product rule, or of the bracket
    rule when ``lie``: the rule's tensor terms, the greedy walk over them,
    the pairs (s, j) with s in its generating set that cut the rule out,
    and the builder of its rows on a generating set."""
    walk = _bracket_walk(a) if lie else _product_walk(a)
    # for each (s, j) here the walk stored a vector made from e_s w, w the
    # stored vector with pivot j, and Phi builds L(e_s w) as L(e_s) w +
    # e_s L(w): the rule holds on (s, w) whatever the values on S.  As w is
    # e_j plus terms past j, the rule on (s, e_j) follows, from j = d - 1
    # down, so these pairs are left out
    carried = {(step.s, step.word) for step in walk.steps}
    pairs = [(s, j) for j in range(a.dim) for s in walk.members if (s, j) not in carried]
    if not lie:
        return _product_terms(a), walk, pairs, product_system
    members = set(walk.members)
    # each pair meeting S_Lie once, its member first: (j, s) gives the
    # negated rows of (s, j), and (s, s) none
    pairs = [(s, j) for s, j in pairs if j > s or j not in members]
    return _bracket_terms(a), walk, pairs, bracket_system


def _floor(a: FDAlgebra, lie: bool) -> Subspace:
    """Solutions of the rule known before it is solved: the inner
    derivations ad(x), x in A, for the product rule, and the derivations
    plus the central maps for the bracket rule."""
    if lie:
        return _proper_space(a).space
    return _inner_derivations(a)


@_memo
def _inner_derivations(a: FDAlgebra) -> Subspace:
    # ad(e_i) has column c = [e_i, e_c], so vec(ad(e_i))[r*d + c] = [e_i, e_c]_r
    bracket, d = _bracket_tensor(a), a.dim
    vectors = [[plane[c][r] for r in range(d) for c in range(d)] for plane in bracket]
    return Subspace(a.field, d * d, vectors)


@_memo
def _graded_inner(a: FDAlgebra) -> tuple:
    """(pivot, vector) for every vector of the RREF bases of ad(A_w) over
    the weights w != 0 of ``_peirce_weights``, in vec(L).  ad(e_b) has the
    weight of b, and its vector [e_b, e_c]_r at r*d + c is zero off the
    columns of that weight, so each A_w is eliminated over its own
    columns."""
    weights, bracket, d, z = _peirce_weights(a), _bracket_tensor(a), a.dim, a.field.zero
    columns, members = {}, {}
    for col in range(d * d):
        w = weights[col // d] - weights[col % d]
        if w:
            columns.setdefault(w, []).append(col)
    for b, w in enumerate(weights):
        if w:
            members.setdefault(w, []).append(b)
    out = []
    for w, group in members.items():
        cols = columns[w]
        data = [[bracket[b][col % d][col // d] for col in cols] for b in group]
        for row, pivot in zip(*_echelon(a.field, data)):
            vec = [z] * (d * d)
            for col, x in zip(cols, row):
                vec[col] = x
            out.append((cols[pivot], tuple(vec)))
    return tuple(out)


def _rule_space(a: FDAlgebra, lie: bool) -> MapSpace:
    terms, walk, pairs, system = _rule(a, lie)
    if _dense(a, terms):
        space = value_solutions(a, terms, walk, pairs, _floor(a, lie))
        if space is not None:
            return MapSpace(a.dim, space)
    weights = _peirce_weights(a)
    space = solutions(a, system(a, walk.members, weights), weights)
    if weights is not None:
        # the weights hold disjoint columns: the RREF bases merge by pivot
        rows = sorted([*zip(space.pivot_columns(), space.basis.entries), *_graded_inner(a)])
        space = Subspace(a.field, a.dim**2, [vec for _, vec in rows], _reduced=True)
    return MapSpace(a.dim, space)


@_memo
def _derivation_space(a: FDAlgebra) -> MapSpace:
    return _rule_space(a, lie=False)


@_memo
def _lie_derivation_space(a: FDAlgebra) -> MapSpace:
    return _rule_space(a, lie=True)


@_memo
def _central_map_space(a: FDAlgebra) -> MapSpace:
    """Maps with all values central that kill every commutator: the maps
    z w^T, z in Z(A) and w in ann([A, A]), so vec(L)[r*d + c] = z[r] w[c].
    Nested in basis order, z outer, these are already the RREF basis:
    z_k w_j has its leading 1 at p_k*d + q_j, for the pivots p_k of z_k and
    q_j of w_j, and every other product is zero there."""
    f, d = a.field, a.dim
    mul, z = f.mul, f.zero
    ann = kernel(Matrix(f, commutator_span(a).basis.entries, cols=d))
    vectors = [
        tuple(mul(zr, wc) if zr and wc else z for zr in zv for wc in wv)
        for zv in center(a).basis.entries
        for wv in ann.basis.entries
    ]
    return MapSpace(d, Subspace(f, d * d, vectors, _reduced=True))


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


def _first_failure(a: FDAlgebra, rule, endo: EndoMap):
    """Tag of the first row of ``rule(a)`` with a nonzero product against the
    flattened map, or None when the map obeys the rule."""
    _check_shape(a, endo)
    return next(failing_tags(a.field, rule(a), endo.flatten()), None)


def derivation_defect(g, endo: EndoMap):
    """First basis pair violating the product rule, or None."""
    return _first_failure(_algebra_of(g), product_rows, endo)


def lie_defect(g, endo: EndoMap):
    """First basis pair violating the bracket rule, or None."""
    return _first_failure(_algebra_of(g), bracket_rows, endo)


def is_derivation(g, endo: EndoMap) -> bool:
    return derivation_defect(g, endo) is None


def is_lie_derivation(g, endo: EndoMap) -> bool:
    return lie_defect(g, endo) is None


def is_central_commutator_free(g, endo: EndoMap) -> bool:
    """Are all values central and all commutators killed?"""
    return _first_failure(_algebra_of(g), central_rows, endo) is None


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
    require_lie(a, endo)
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
    validate_split(a, endo, d_map, c_map)
    return ProperSplit(proper=True, derivation=d_map, central=c_map)


def require_lie(a, endo: EndoMap):
    """Refuse a map that breaks the bracket rule, naming the first pair."""
    defect = lie_defect(a, endo)
    if defect is not None:
        raise PreconditionError(
            f"not a Lie derivation: bracket rule fails on basis pair {defect}"
        )


def validate_split(a, endo: EndoMap, d_map: EndoMap, c_map: EndoMap):
    """Check that ``endo`` = ``d_map`` + ``c_map``, a derivation plus a central map."""
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
