"""Bimodules and Morita contexts, the block product of their generalized
matrix algebra, and the faithfulness conditions that gate every
sufficient-condition theorem.

Actions and pairings are stored as basis-indexed rank-3 tensors.  A context
is valid exactly when its block product is associative with unit 1_A + 1_B,
so validation is that one check, each failure named by the context law it
breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter

from .algebra import (
    DEFAULT_BUDGET,
    FDAlgebra,
    _bilinear,
    _canonical_tensor,
    _memo,
    _no_annihilating_pair,
    structure_violations,
)
from .errors import DimensionMismatch, Violation
from .linalg import Matrix, kernel
from .tristate import TriState, tri_all, tri_any

__all__ = [
    "Bimodule",
    "MoritaContext",
    "FaithfulnessReport",
    "validate_bimodule",
    "validate_context",
    "left_action_kernel",
    "right_action_kernel",
    "strongly_faithful",
    "faithfulness",
    "two_torsion_free",
]


@dataclass(frozen=True)
class Bimodule:
    """A (left, right)-bimodule by action tensors.

    left_action[i][j][k]:  (left basis i) . (module basis j) -> module basis k
    right_action[i][j][k]: (module basis i) . (right basis j) -> module basis k

    Zero-dimensional modules are allowed (the triangular case); all axioms
    are then vacuous.  Construction checks shapes only; the module axioms
    are checked by :func:`validate_bimodule`.
    """

    left: FDAlgebra
    right: FDAlgebra
    dim: int
    left_action: tuple
    right_action: tuple

    def __post_init__(self):
        if self.left.field != self.right.field:
            raise DimensionMismatch("bimodule algebras live over different fields")
        if self.dim < 0:
            raise DimensionMismatch("bimodule dimension must be non-negative")
        f = self.field
        object.__setattr__(
            self,
            "left_action",
            _named_tensor(f, self.left_action, (self.left.dim, self.dim, self.dim), "left_action"),
        )
        object.__setattr__(
            self,
            "right_action",
            _named_tensor(f, self.right_action, (self.dim, self.right.dim, self.dim), "right_action"),
        )

    @property
    def field(self):
        return self.left.field

    def zero(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_vector(self, j) -> tuple:
        z, o = self.field.zero, self.field.one
        return tuple(o if k == j else z for k in range(self.dim))

    def act_left(self, a, m) -> tuple:
        if len(a) != self.left.dim or len(m) != self.dim:
            raise DimensionMismatch("left action coordinate mismatch")
        return _bilinear(self.field, self.left_action, a, m, self.dim)

    def act_right(self, m, b) -> tuple:
        if len(m) != self.dim or len(b) != self.right.dim:
            raise DimensionMismatch("right action coordinate mismatch")
        return _bilinear(self.field, self.right_action, m, b, self.dim)


def _named_tensor(f, tensor, shape, label):
    try:
        return _canonical_tensor(f, tensor, shape)
    except DimensionMismatch as exc:
        raise DimensionMismatch(f"{label}: {exc}") from exc


@dataclass(frozen=True)
class MoritaContext:
    """(A, B, M, N) with balanced pairings M x N -> A and N x M -> B.

    pair_mn[i][j][k]: (M basis i, N basis j) -> A basis k
    pair_nm[i][j][k]: (N basis i, M basis j) -> B basis k
    """

    a: FDAlgebra
    b: FDAlgebra
    m: Bimodule
    n: Bimodule
    pair_mn: tuple
    pair_nm: tuple

    def __post_init__(self):
        if self.m.left != self.a or self.m.right != self.b:
            raise DimensionMismatch("module M must be an (A, B)-bimodule")
        if self.n.left != self.b or self.n.right != self.a:
            raise DimensionMismatch("module N must be a (B, A)-bimodule")
        f = self.field
        object.__setattr__(
            self,
            "pair_mn",
            _named_tensor(f, self.pair_mn, (self.m.dim, self.n.dim, self.a.dim), "pair_mn"),
        )
        object.__setattr__(
            self,
            "pair_nm",
            _named_tensor(f, self.pair_nm, (self.n.dim, self.m.dim, self.b.dim), "pair_nm"),
        )

    @property
    def field(self):
        return self.a.field

    def pair_mn_apply(self, mvec, nvec) -> tuple:
        return _bilinear(self.field, self.pair_mn, mvec, nvec, self.a.dim)

    def pair_nm_apply(self, nvec, mvec) -> tuple:
        return _bilinear(self.field, self.pair_nm, nvec, mvec, self.b.dim)

    @property
    def block_dims(self) -> tuple:
        return (self.a.dim, self.m.dim, self.n.dim, self.b.dim)


# -- the block product and its laws -------------------------------------------

# e_x e_y for basis vectors of the blocks x and y of [[A, M], [N, B]]: the block
# the product lands in and the tensor that gives it.  Every other pair of blocks
# multiplies to zero.
_BLOCK_PRODUCT = {
    "aa": ("a", "a.structure"), "bb": ("b", "b.structure"),
    "am": ("m", "m.left_action"), "bn": ("n", "n.left_action"),
    "mb": ("m", "m.right_action"), "na": ("n", "n.right_action"),
    "mn": ("a", "pair_mn"), "nm": ("b", "pair_nm"),
}

# A unit or associativity failure of the block product, keyed by the blocks of
# its basis indices ("1m" is 1 * e_m, "m1" is e_m * 1), is exactly one context
# law at the same local indices; each line pairs an M law with its N mirror.
# The "aaa" and "bbb" triples and the units at A and B indices are checked
# when A and B are built.
_LAWS = {
    "1m": "m.module_left_unit", "1n": "n.module_left_unit",
    "m1": "m.module_right_unit", "n1": "n.module_right_unit",
    "aam": "m.module_left_assoc", "bbn": "n.module_left_assoc",
    "mbb": "m.module_right_assoc", "naa": "n.module_right_assoc",
    "amb": "m.module_balance", "bna": "n.module_balance",
    "amn": "pair_mn_left_linear", "bnm": "pair_nm_left_linear",
    "mna": "pair_mn_right_linear", "nmb": "pair_nm_right_linear",
    "mbn": "pair_mn_balanced", "nam": "pair_nm_balanced",
    "mnm": "diagram_m", "nmn": "diagram_n",
}
_KEYS = {"left_unit": "1{}", "right_unit": "{}1", "associativity": "{}{}{}"}


def gma_structure_tensor(c: MoritaContext) -> tuple:
    """Structure tensor of the block product over the (A, M, N, B) basis.

    Nothing is checked here, so a corrupted context has a tensor too;
    :func:`validate_context` and ``gma.assemble`` check it.
    """
    z = c.field.zero
    d = sum(c.block_dims)
    dims = dict(zip("amnb", c.block_dims))
    start = {x: sum(c.block_dims[:k]) for k, x in enumerate("amnb")}
    tensor = []
    for x in "amnb":
        for i in range(dims[x]):
            plane = []
            for y in "amnb":
                if x + y in _BLOCK_PRODUCT:
                    out, part = _BLOCK_PRODUCT[x + y]
                    before, after = (z,) * start[out], (z,) * (d - start[out] - dims[out])
                    plane += [before + row + after for row in attrgetter(part)(c)[i]]
                else:
                    plane += [(z,) * d] * dims[y]
            tensor.append(tuple(plane))
    return tuple(tensor)


def gma_unit(c: MoritaContext) -> tuple:
    """The unit 1_A + 1_B of the block product."""
    return c.a.unit + (c.field.zero,) * (c.m.dim + c.n.dim) + c.b.unit


def context_laws(c: MoritaContext, violations) -> list[Violation]:
    """Each unit or associativity violation of the block product of ``c``,
    renamed to the context law it breaks, at local indices."""
    blocks = [(x, i) for x, dim in zip("amnb", c.block_dims) for i in range(dim)]
    out = []
    for v in violations:
        kinds, where = zip(*(blocks[i] for i in v.where))
        out.append(Violation(_LAWS[_KEYS[v.law].format(*kinds)], where, v.detail))
    return out


def validate_context(c: MoritaContext) -> list[Violation]:
    """Every violated context law.

    The block product is associative with unit 1_A + 1_B exactly when every
    module, pairing and diagram law holds, so this is its unit and
    associativity check, uncapped and named through ``_LAWS``.  Violations
    come in that check's order: unit laws first, then the triples.
    """
    tensor = gma_structure_tensor(c)
    bad = structure_violations(c.field, sum(c.block_dims), tensor, gma_unit(c), cap=None)
    return context_laws(c, bad)


def validate_bimodule(m: Bimodule) -> list[Violation]:
    """Every violated module axiom: the check of the context (A, M, 0, B)
    with zero pairings, with the ``m.`` prefix dropped."""
    zero = Bimodule(m.right, m.left, 0, ((),) * m.right.dim, ())
    c = MoritaContext(m.left, m.right, m, zero, ((),) * m.dim, ())
    return [Violation(v.law[2:], v.where, v.detail) for v in validate_context(c)]


# -- faithfulness -------------------------------------------------------------


def _action_kernel(m: Bimodule, algebra: FDAlgebra, act):
    """Subspace of ``algebra`` annihilating the whole module: the kernel of
    x -> (x.p_j)_j, where ``act[i][j]`` is x_i acting on the module basis
    vector p_j, so row (j, k) holds coordinate k of each x_i.p_j."""
    dim = range(m.dim)
    rows = [[act[i][j][k] for i in range(algebra.dim)] for j in dim for k in dim]
    return kernel(Matrix(m.field, rows, algebra.dim))


@_memo
def left_action_kernel(m: Bimodule):
    """Subspace of the left algebra annihilating the whole module."""
    return _action_kernel(m, m.left, m.left_action)


@_memo
def right_action_kernel(m: Bimodule):
    """Subspace of the right algebra annihilating the whole module."""
    return _action_kernel(m, m.right, tuple(zip(*m.right_action)))


def strongly_faithful(m: Bimodule, budget: int = DEFAULT_BUDGET) -> TriState:
    """Either clause of strong faithfulness, Kleene-combined.

    Clause one: faithful as a right module and no annihilating left pair.
    Clause two: faithful as a left module and no annihilating right pair.
    """
    right_faithful = TriState.from_bool(right_action_kernel(m).dim == 0)
    left_faithful = TriState.from_bool(left_action_kernel(m).dim == 0)
    left_pairs = _no_annihilating_pair(m.left, m.dim, m.act_left, budget)
    right_pairs = _no_annihilating_pair(m.right, m.dim, lambda b, p: m.act_right(p, b), budget)
    clause_one = tri_all((right_faithful, left_pairs))
    clause_two = tri_all((left_faithful, right_pairs))
    return tri_any((clause_one, clause_two))


@dataclass(frozen=True)
class FaithfulnessReport:
    """Faithfulness facts about the module M of a context."""

    left_faithful: bool
    right_faithful: bool
    strongly_faithful: TriState
    two_torsion_free: bool

    @property
    def faithful(self) -> bool:
        return self.left_faithful and self.right_faithful


def faithfulness(c: MoritaContext, budget: int = DEFAULT_BUDGET) -> FaithfulnessReport:
    return FaithfulnessReport(
        left_faithful=left_action_kernel(c.m).dim == 0,
        right_faithful=right_action_kernel(c.m).dim == 0,
        strongly_faithful=strongly_faithful(c.m, budget),
        two_torsion_free=two_torsion_free(c),
    )


def two_torsion_free(c: MoritaContext) -> bool:
    return c.field.characteristic != 2
