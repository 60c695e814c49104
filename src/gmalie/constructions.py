"""Reusable builders for algebras, bimodules, and Morita contexts: matrix
and triangular algebras, small commutative algebras, trivial (zero-pairing)
contexts, and combinators (direct sums, pairing twists, transposes) used by
the bundled example library and the fuzzer."""

from __future__ import annotations

from itertools import product
from operator import attrgetter

from .algebra import FDAlgebra
from .errors import DimensionMismatch
from .fields import Field
from .gma import _induced_structure, induced_bimodule
from .linalg import Subspace
from .morita import Bimodule, MoritaContext

__all__ = [
    "field_algebra",
    "matrix_algebra",
    "upper_triangular_algebra",
    "dual_numbers",
    "split_pair_algebra",
    "truncated_polynomial_algebra",
    "two_nilpotents_algebra",
    "regular_bimodule",
    "left_regular_bimodule",
    "right_regular_bimodule",
    "zero_bimodule",
    "trivial_context",
    "triangular_context",
    "ambient_commutative_context",
    "direct_sum_context",
    "scale_pairings",
    "transpose_context",
]


# -- algebras --------------------------------------------------------------------


def field_algebra(f: Field) -> FDAlgebra:
    """The base field as a one-dimensional algebra."""
    return FDAlgebra(f, 1, (((f.one,),),), (f.one,))


def matrix_algebra(f: Field, n: int) -> FDAlgebra:
    """Full matrix algebra with matrix-unit basis e_(r,c) at index r*n + c."""
    if n < 1:
        raise DimensionMismatch("matrix algebra size must be positive")
    d = n * n
    z, o = f.zero, f.one
    tensor = [[[z] * d for _ in range(d)] for _ in range(d)]
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for e in range(n):
                    if b == c:
                        tensor[a * n + b][c * n + e][a * n + e] = o
    unit = [z] * d
    for r in range(n):
        unit[r * n + r] = o
    return FDAlgebra(f, d, tensor, unit)


def upper_triangular_algebra(f: Field, n: int) -> FDAlgebra:
    """Upper-triangular matrices; basis e_(r,c) for r <= c in row order."""
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    index = {rc: k for k, rc in enumerate(pairs)}
    d = len(pairs)
    z, o = f.zero, f.one
    tensor = [[[z] * d for _ in range(d)] for _ in range(d)]
    for (a, b), i in index.items():
        for (c, e), j in index.items():
            if b == c:
                tensor[i][j][index[(a, e)]] = o
    unit = [z] * d
    for r in range(n):
        unit[index[(r, r)]] = o
    return FDAlgebra(f, d, tensor, unit)


def dual_numbers(f: Field) -> FDAlgebra:
    """F[x] / (x^2) with basis (1, x)."""
    return truncated_polynomial_algebra(f, 2)


def truncated_polynomial_algebra(f: Field, k: int) -> FDAlgebra:
    """F[x] / (x^k) with basis (1, x, ..., x^(k-1))."""
    z, o = f.zero, f.one
    tensor = [[[z] * k for _ in range(k)] for _ in range(k)]
    for i in range(k):
        for j in range(k):
            if i + j < k:
                tensor[i][j][i + j] = o
    unit = [o] + [z] * (k - 1)
    return FDAlgebra(f, k, tensor, unit)


def split_pair_algebra(f: Field) -> FDAlgebra:
    """F x F with componentwise product; basis of the two idempotents."""
    z, o = f.zero, f.one
    tensor = (((o, z), (z, z)), ((z, z), (z, o)))
    return FDAlgebra(f, 2, tensor, (o, o))


def two_nilpotents_algebra(f: Field) -> FDAlgebra:
    """Commutative algebra with basis (1, x, y) where x and y square to zero
    and annihilate each other."""
    z, o = f.zero, f.one
    tensor = [[[z] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        tensor[0][i][i] = o
        tensor[i][0][i] = o
    return FDAlgebra(f, 3, tensor, (o, z, z))


# -- bimodules --------------------------------------------------------------------


def regular_bimodule(alg: FDAlgebra) -> Bimodule:
    """The algebra as a bimodule over itself by multiplication."""
    return Bimodule(alg, alg, alg.dim, alg.structure, alg.structure)


def left_regular_bimodule(alg: FDAlgebra, right: FDAlgebra) -> Bimodule:
    """The algebra as a left module over itself; the right algebra must be
    one-dimensional and acts by scalars (its unit acting as the identity)."""
    if right.dim != 1:
        raise DimensionMismatch("scalar right action needs a one-dimensional algebra")
    f = alg.field
    lam = f.inv(right.unit[0])
    right_action = tuple(
        (tuple(f.mul(lam, x) for x in alg.basis_vector(i)),) for i in range(alg.dim)
    )
    return Bimodule(alg, right, alg.dim, alg.structure, right_action)


def right_regular_bimodule(left: FDAlgebra, alg: FDAlgebra) -> Bimodule:
    """The algebra as a right module over itself with a scalar left action."""
    if left.dim != 1:
        raise DimensionMismatch("scalar left action needs a one-dimensional algebra")
    f = alg.field
    lam = f.inv(left.unit[0])
    left_action = (
        tuple(tuple(f.mul(lam, x) for x in alg.basis_vector(j)) for j in range(alg.dim)),
    )
    return Bimodule(left, alg, alg.dim, left_action, alg.structure)


def zero_bimodule(left: FDAlgebra, right: FDAlgebra) -> Bimodule:
    return Bimodule(left, right, 0, tuple(() for _ in range(left.dim)), ())


def _zero_pairing(f: Field, d1: int, d2: int, out: int):
    z = f.zero
    return tuple(tuple((z,) * out for _ in range(d2)) for _ in range(d1))


# -- contexts ---------------------------------------------------------------------


def trivial_context(a, b, m: Bimodule, n: Bimodule) -> MoritaContext:
    """Context with both pairings zero."""
    f = a.field
    return MoritaContext(
        a,
        b,
        m,
        n,
        _zero_pairing(f, m.dim, n.dim, a.dim),
        _zero_pairing(f, n.dim, m.dim, b.dim),
    )


def triangular_context(a, m: Bimodule, b) -> MoritaContext:
    """Upper-triangular context: lower module zero, pairings zero."""
    return trivial_context(a, b, m, zero_bimodule(b, a))


def ambient_commutative_context(f: Field) -> MoritaContext:
    """The trivial context built inside the two-nilpotents algebra: both
    diagonal algebras are two-dimensional subalgebras (spanned by the unit
    and one nilpotent each), both modules are the full three-dimensional
    ambient algebra with multiplication actions, and the pairings vanish."""
    amb = two_nilpotents_algebra(f)
    s_a, s_b = (Subspace(f, 3, [amb.unit, amb.basis_vector(k)]) for k in (1, 2))
    # (r + s*nil)^2 = r^2 + 2rs*nil forces r in {0,1} and s = 0, so the
    # idempotents are exactly 0 and 1 over any two-torsion free field
    complete = f.characteristic != 2
    alg_a, alg_b = (
        FDAlgebra(f, 2, *_induced_structure(amb, s, amb.unit, what), idempotents_complete=complete)
        for s, what in ((s_a, "corner A"), (s_b, "corner B"))
    )
    full = Subspace.full(f, 3)
    mod_m = induced_bimodule(amb, full, alg_a, s_a, alg_b, s_b, "module M")
    mod_n = induced_bimodule(amb, full, alg_b, s_b, alg_a, s_a, "module N")
    return trivial_context(alg_a, alg_b, mod_m, mod_n)


def direct_sum_context(c1: MoritaContext, c2: MoritaContext) -> MoritaContext:
    """Blockwise direct sum; every axiom holds componentwise."""
    if c1.field != c2.field:
        raise DimensionMismatch("direct sum needs a common field")
    f = c1.field
    dims = [dict(zip("amnb", c.block_dims)) for c in (c1, c2)]

    def size(block):
        return dims[0][block] + dims[1][block]

    def join(path, axes):
        """The rank-3 tensor at ``path`` of both contexts as the two diagonal
        blocks of one tensor, its axes over the blocks named by ``axes``."""
        shapes = [[d[x] for x in axes] for d in dims]
        rows, cols, depth = map(size, axes)
        out = [[[f.zero] * depth for _ in range(cols)] for _ in range(rows)]
        for c, at, shape in zip((c1, c2), ((0, 0, 0), shapes[0]), shapes):
            t = attrgetter(path)(c)
            for i, j, k in product(*map(range, shape)):
                out[at[0] + i][at[1] + j][at[2] + k] = t[i][j][k]
        return out

    a = FDAlgebra(f, size("a"), join("a.structure", "aaa"), c1.a.unit + c2.a.unit)
    b = FDAlgebra(f, size("b"), join("b.structure", "bbb"), c1.b.unit + c2.b.unit)
    m = Bimodule(a, b, size("m"), join("m.left_action", "amm"), join("m.right_action", "mbm"))
    n = Bimodule(b, a, size("n"), join("n.left_action", "bnn"), join("n.right_action", "nan"))
    return MoritaContext(a, b, m, n, join("pair_mn", "mna"), join("pair_nm", "nmb"))


def scale_pairings(c: MoritaContext, factor) -> MoritaContext:
    """Scale both pairings by the same factor; the axioms are preserved
    because each appearance of a pairing is linear."""
    f = c.field
    factor = f.of(factor)

    def scaled(tensor):
        return tuple(
            tuple(tuple(f.mul(factor, x) for x in row) for row in plane)
            for plane in tensor
        )

    return MoritaContext(c.a, c.b, c.m, c.n, scaled(c.pair_mn), scaled(c.pair_nm))


def transpose_context(c: MoritaContext) -> MoritaContext:
    """Swap the roles of the two diagonal algebras and the two modules."""
    return MoritaContext(c.b, c.a, c.n, c.m, c.pair_nm, c.pair_mn)
