"""Bimodules and Morita contexts with full axiom validation, plus the
faithfulness conditions that gate every sufficient-condition theorem.

Actions and pairings are stored as basis-indexed rank-3 tensors, so every
axiom is a finite identity check over basis tuples.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .algebra import DEFAULT_BUDGET, FDAlgebra, _bilinear, _canonical_tensor, _no_annihilating_pair
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


def validate_bimodule(m: Bimodule) -> list[Violation]:
    """Check the five module axiom families on all basis tuples."""
    bad = []
    a, b = m.left, m.right
    for j in range(m.dim):
        ej = m.basis_vector(j)
        if m.act_left(a.unit, ej) != ej:
            bad.append(Violation("module_left_unit", (j,)))
        if m.act_right(ej, b.unit) != ej:
            bad.append(Violation("module_right_unit", (j,)))
    for i, i2, j in itertools.product(range(a.dim), range(a.dim), range(m.dim)):
        ei, ei2, ej = a.basis_vector(i), a.basis_vector(i2), m.basis_vector(j)
        if m.act_left(a.multiply(ei, ei2), ej) != m.act_left(ei, m.act_left(ei2, ej)):
            bad.append(Violation("module_left_assoc", (i, i2, j)))
    for j, i, i2 in itertools.product(range(m.dim), range(b.dim), range(b.dim)):
        ej, ei, ei2 = m.basis_vector(j), b.basis_vector(i), b.basis_vector(i2)
        if m.act_right(ej, b.multiply(ei, ei2)) != m.act_right(m.act_right(ej, ei), ei2):
            bad.append(Violation("module_right_assoc", (j, i, i2)))
    for i, j, k in itertools.product(range(a.dim), range(m.dim), range(b.dim)):
        ei, ej, ek = a.basis_vector(i), m.basis_vector(j), b.basis_vector(k)
        if m.act_right(m.act_left(ei, ej), ek) != m.act_left(ei, m.act_right(ej, ek)):
            bad.append(Violation("module_balance", (i, j, k)))
    return bad


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


def validate_context(c: MoritaContext) -> list[Violation]:
    """Module axioms, pairing balance/homomorphism laws, and the two
    associativity diagrams, each checked on all basis tuples."""
    bad = []
    bad += [Violation("m." + v.law, v.where, v.detail) for v in validate_bimodule(c.m)]
    bad += [Violation("n." + v.law, v.where, v.detail) for v in validate_bimodule(c.n)]
    a, b, m, n = c.a, c.b, c.m, c.n
    da, dm, dn, db = c.block_dims

    for i, j, k in itertools.product(range(da), range(dm), range(dn)):
        ea, em, en = a.basis_vector(i), m.basis_vector(j), n.basis_vector(k)
        if c.pair_mn_apply(m.act_left(ea, em), en) != a.multiply(ea, c.pair_mn_apply(em, en)):
            bad.append(Violation("pair_mn_left_linear", (i, j, k)))
        if c.pair_mn_apply(em, n.act_right(en, ea)) != a.multiply(c.pair_mn_apply(em, en), ea):
            bad.append(Violation("pair_mn_right_linear", (j, k, i)))
    for i, j, k in itertools.product(range(dm), range(db), range(dn)):
        em, eb, en = m.basis_vector(i), b.basis_vector(j), n.basis_vector(k)
        if c.pair_mn_apply(m.act_right(em, eb), en) != c.pair_mn_apply(em, n.act_left(eb, en)):
            bad.append(Violation("pair_mn_balanced", (i, j, k)))
    for i, j, k in itertools.product(range(db), range(dn), range(dm)):
        eb, en, em = b.basis_vector(i), n.basis_vector(j), m.basis_vector(k)
        if c.pair_nm_apply(n.act_left(eb, en), em) != b.multiply(eb, c.pair_nm_apply(en, em)):
            bad.append(Violation("pair_nm_left_linear", (i, j, k)))
        if c.pair_nm_apply(en, m.act_right(em, eb)) != b.multiply(c.pair_nm_apply(en, em), eb):
            bad.append(Violation("pair_nm_right_linear", (j, k, i)))
    for i, j, k in itertools.product(range(dn), range(da), range(dm)):
        en, ea, em = n.basis_vector(i), a.basis_vector(j), m.basis_vector(k)
        if c.pair_nm_apply(n.act_right(en, ea), em) != c.pair_nm_apply(en, m.act_left(ea, em)):
            bad.append(Violation("pair_nm_balanced", (i, j, k)))

    for i, j, k in itertools.product(range(dm), range(dn), range(dm)):
        em, en, em2 = m.basis_vector(i), n.basis_vector(j), m.basis_vector(k)
        if m.act_left(c.pair_mn_apply(em, en), em2) != m.act_right(em, c.pair_nm_apply(en, em2)):
            bad.append(Violation("diagram_m", (i, j, k)))
    for i, j, k in itertools.product(range(dn), range(dm), range(dn)):
        en, em, en2 = n.basis_vector(i), m.basis_vector(j), n.basis_vector(k)
        if n.act_left(c.pair_nm_apply(en, em), en2) != n.act_right(en, c.pair_mn_apply(em, en2)):
            bad.append(Violation("diagram_n", (i, j, k)))
    return bad


# -- faithfulness -------------------------------------------------------------


def _action_kernel(m: Bimodule, algebra: FDAlgebra, act):
    """Subspace of ``algebra`` annihilating the whole module, where
    ``act(x, p)`` is the action of x on the module element p."""
    blocks = []
    for j in range(m.dim):
        cols = [act(algebra.basis_vector(i), m.basis_vector(j)) for i in range(algebra.dim)]
        blocks.append(Matrix.from_columns(m.field, cols, rows=m.dim))
    if not blocks:
        return kernel(Matrix.zeros(m.field, 0, algebra.dim))
    return kernel(Matrix.vstack(m.field, blocks, cols=algebra.dim))


def left_action_kernel(m: Bimodule):
    """Subspace of the left algebra annihilating the whole module."""
    return _action_kernel(m, m.left, m.act_left)


def right_action_kernel(m: Bimodule):
    """Subspace of the right algebra annihilating the whole module."""
    return _action_kernel(m, m.right, lambda b, p: m.act_right(p, b))


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
