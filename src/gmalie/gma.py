"""Assembly of the generalized matrix algebra of a Morita context, block
bookkeeping, center analysis with the induced isomorphism between the
projected centers, Peirce decompositions, and triviality.

Coordinates of the assembled algebra are blocked in the fixed order
(A, M, N, B).
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import FDAlgebra, _memo, center
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    PreconditionError,
    ValidationFailure,
)
from .linalg import Matrix, Subspace, rref
from .morita import (
    Bimodule,
    MoritaContext,
    context_laws,
    gma_structure_tensor,
    gma_unit,
    left_action_kernel,
    right_action_kernel,
)

__all__ = [
    "GMAlgebra",
    "CenterAnalysis",
    "assemble",
    "center_analysis",
    "peirce",
    "induced_algebra",
    "induced_bimodule",
    "is_trivial",
    "gma_structure_tensor",
]


@dataclass(frozen=True)
class GMAlgebra:
    """A Morita context assembled into one structure-constant algebra."""

    context: MoritaContext
    algebra: FDAlgebra

    @property
    def field(self):
        return self.algebra.field

    @property
    def block_dims(self):
        return self.context.block_dims

    @property
    def offsets(self):
        da, dm, dn, _ = self.block_dims
        return (0, da, da + dm, da + dm + dn)

    @property
    def is_direct_sum(self) -> bool:
        """Both modules zero: a plain product of algebras, not a genuine
        generalized matrix algebra."""
        return self.context.m.dim == 0 and self.context.n.dim == 0

    def project(self, x):
        """Split a coordinate column into its (a, m, n, b) blocks."""
        if len(x) != self.algebra.dim:
            raise DimensionMismatch("element length mismatch")
        da, dm, dn, db = self.block_dims
        oa, om, on, ob = self.offsets
        return (
            tuple(x[oa : oa + da]),
            tuple(x[om : om + dm]),
            tuple(x[on : on + dn]),
            tuple(x[ob : ob + db]),
        )

    def embed(self, a, m, n, b) -> tuple:
        da, dm, dn, db = self.block_dims
        if (len(a), len(m), len(n), len(b)) != (da, dm, dn, db):
            raise DimensionMismatch("block coordinate length mismatch")
        return tuple(a) + tuple(m) + tuple(n) + tuple(b)


def assemble(c: MoritaContext) -> GMAlgebra:
    """Build the generalized matrix algebra of a context.

    The block product is associative with unit 1_A + 1_B exactly when the
    context is valid, so the algebra's own check validates the context; a
    failure is re-raised with the context laws it breaks.
    """
    try:
        algebra = FDAlgebra(c.field, sum(c.block_dims), gma_structure_tensor(c), gma_unit(c))
    except ValidationFailure as exc:
        raise ValidationFailure("invalid Morita context", context_laws(c, exc.violations)) from exc
    return GMAlgebra(context=c, algebra=algebra)


@dataclass(frozen=True)
class CenterAnalysis:
    """Center of the assembled algebra and its block projections.

    ``center_iso`` maps coordinates over the canonical basis of ``proj_a``
    to coordinates over the canonical basis of ``proj_b``; it exists (and is
    an algebra isomorphism) when the module M is faithful on both sides.
    """

    center: Subspace
    proj_a: Subspace
    proj_b: Subspace
    proj_a_is_center_a: bool
    proj_b_is_center_b: bool
    center_iso: Matrix | None


@_memo
def center_analysis(g: GMAlgebra) -> CenterAnalysis:
    """Computed once per context value and shared by every caller."""
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    z_g = center(g.algebra)
    zero_m = (f.zero,) * dm
    zero_n = (f.zero,) * dn
    a_parts, b_parts = [], []
    for vec in z_g.basis.entries:
        a, m, n, b = g.project(vec)
        if m != zero_m or n != zero_n:
            raise ConsistencyError(
                "central element with a nonzero off-diagonal block; "
                "the context cannot be valid"
            )
        a_parts.append(a)
        b_parts.append(b)
    proj_a = Subspace(f, da, a_parts)
    proj_b = Subspace(f, db, b_parts)
    center_a = center(c.a)
    center_b = center(c.b)

    iso = None
    faithful = left_action_kernel(c.m).dim == 0 and right_action_kernel(c.m).dim == 0
    if faithful:
        iso = _center_iso(g, proj_a, proj_b, a_parts, b_parts)
    return CenterAnalysis(
        center=z_g,
        proj_a=proj_a,
        proj_b=proj_b,
        proj_a_is_center_a=proj_a == center_a,
        proj_b_is_center_b=proj_b == center_b,
        center_iso=iso,
    )


def _center_iso(g: GMAlgebra, proj_a: Subspace, proj_b: Subspace, a_parts, b_parts) -> Matrix:
    """Read phi off the center's canonical basis.  With M faithful on both
    sides a central a + b with a = 0 has b = 0, so every basis row has its
    pivot in the first block, the A-parts are the canonical basis of
    ``proj_a``, and phi sends the i-th of them to the i-th B-part."""
    if tuple(a_parts) != proj_a.basis.entries:
        raise ConsistencyError("center basis has a pivot outside the first diagonal block")
    cols = [proj_b.coordinates(b) for b in b_parts]
    iso = Matrix.from_columns(g.field, cols, rows=proj_b.dim)
    _verify_center_iso(g, proj_a, proj_b, iso)
    return iso


def _verify_center_iso(g, proj_a, proj_b, iso):
    if iso.rows != iso.cols:
        raise ConsistencyError("projected centers have different dimensions")
    _, rank = rref(iso)
    if rank != iso.rows:
        raise ConsistencyError("center isomorphism is not bijective")
    c = g.context
    f = g.field
    for i in range(proj_a.dim):
        for j in range(proj_a.dim):
            x = proj_a.basis.entries[i]
            y = proj_a.basis.entries[j]
            prod = c.a.multiply(x, y)
            coords = proj_a.coordinates(prod)
            if coords is None:
                raise ConsistencyError("projected center is not multiplicatively closed")
            lhs = iso.apply(coords)
            xi = iso.apply(proj_a.coordinates(x))
            yj = iso.apply(proj_a.coordinates(y))
            rhs = proj_b.coordinates(
                c.b.multiply(proj_b.from_coordinates(xi), proj_b.from_coordinates(yj))
            )
            if lhs != rhs:
                raise ConsistencyError("center isomorphism is not multiplicative")
    # every a + phi(a) must be central in the assembled algebra
    z_g = center(g.algebra)
    for i in range(proj_a.dim):
        avec = proj_a.basis.entries[i]
        bvec = proj_b.from_coordinates(iso.column(i))
        pair = g.embed(avec, (f.zero,) * g.block_dims[1], (f.zero,) * g.block_dims[2], bvec)
        if not z_g.contains_vector(pair):
            raise ConsistencyError("center isomorphism pair is not central")


def is_trivial(c: MoritaContext) -> bool:
    """Both pairings identically zero (module products vanish)."""
    z = c.field.zero
    flat = [x for plane in c.pair_mn for row in plane for x in row]
    flat += [x for plane in c.pair_nm for row in plane for x in row]
    return all(x == z for x in flat)


def _peirce_corners(a: FDAlgebra, idem):
    """The idempotent p, q = 1 - p, and the corners p.A.p, p.A.q, q.A.p, q.A.q
    as canonical subspaces of A; p must be a nontrivial idempotent."""
    f = a.field
    p = f.vector(idem)
    if len(p) != a.dim:
        raise DimensionMismatch("idempotent coordinate length mismatch")
    if a.multiply(p, p) != p:
        raise PreconditionError("peirce requires an idempotent: p*p != p")
    if p == a.zero() or p == a.unit:
        raise PreconditionError("peirce requires a nontrivial idempotent")
    q = tuple(f.sub(x, y) for x, y in zip(a.unit, p))

    def corner(left, right):
        vecs = [a.multiply(left, a.multiply(a.basis_vector(i), right)) for i in range(a.dim)]
        return Subspace(f, a.dim, vecs)

    return p, q, (corner(p, p), corner(p, q), corner(q, p), corner(q, q))


def _block_coords(space: Subspace, vec, what):
    out = space.coordinates(vec)
    if out is None:
        raise ConsistencyError(f"peirce block product escaped its block ({what})")
    return out


def induced_algebra(a: FDAlgebra, space: Subspace, unit, what) -> FDAlgebra:
    """The algebra that A's product induces on the subalgebra ``space``, in
    its canonical RREF basis, with unit ``unit`` (a vector of A in
    ``space``).  A product outside ``space`` raises ConsistencyError naming
    ``what``."""
    return FDAlgebra(a.field, space.dim, *_induced_structure(a, space, unit, what))


def _induced_structure(a: FDAlgebra, space: Subspace, unit, what) -> tuple:
    """The structure tensor and unit of ``induced_algebra``, unvalidated,
    for a caller that builds the algebra with further fields set."""
    basis = space.basis.entries
    tensor = [[_block_coords(space, a.multiply(x, y), what) for y in basis] for x in basis]
    return tensor, _block_coords(space, unit, what)


def induced_bimodule(
    a: FDAlgebra, space: Subspace, left_alg, left_space, right_alg, right_space, what
) -> Bimodule:
    """The bimodule that A's product induces on ``space`` over the algebras
    ``left_alg`` and ``right_alg`` induced on ``left_space`` and
    ``right_space``, each in its canonical RREF basis.  A product outside
    ``space`` raises ConsistencyError naming ``what``."""
    basis = space.basis.entries
    left_action = [
        [_block_coords(space, a.multiply(x, m), what) for m in basis]
        for x in left_space.basis.entries
    ]
    right_action = [
        [_block_coords(space, a.multiply(m, y), what) for y in right_space.basis.entries]
        for m in basis
    ]
    return Bimodule(left_alg, right_alg, space.dim, left_action, right_action)


def peirce(a: FDAlgebra, idem) -> MoritaContext:
    """Peirce decomposition of a unital algebra at a nontrivial idempotent.

    Returns the Morita context with corner algebras p.A.p and q.A.q and
    off-diagonal bimodules p.A.q, q.A.p (q = 1 - p); actions and pairings
    are induced by multiplication in A.  Bases are the canonical RREF bases
    of the four block subspaces.
    """
    p, q, (s_a, s_m, s_n, s_b) = _peirce_corners(a, idem)
    alg_a = induced_algebra(a, s_a, p, "corner A")
    alg_b = induced_algebra(a, s_b, q, "corner B")
    mod_m = induced_bimodule(a, s_m, alg_a, s_a, alg_b, s_b, "module M")
    mod_n = induced_bimodule(a, s_n, alg_b, s_b, alg_a, s_a, "module N")
    pair_mn = [
        [_block_coords(s_a, a.multiply(m, n), "pairing MN") for n in s_n.basis.entries]
        for m in s_m.basis.entries
    ]
    pair_nm = [
        [_block_coords(s_b, a.multiply(n, m), "pairing NM") for m in s_m.basis.entries]
        for n in s_n.basis.entries
    ]
    return MoritaContext(alg_a, alg_b, mod_m, mod_n, pair_mn, pair_nm)


def peirce_embedding(a: FDAlgebra, idem) -> Matrix:
    """Change-of-basis matrix from assembled Peirce coordinates back to A.

    Columns are the block basis representatives inside A, in (A, M, N, B)
    order; the map is an algebra isomorphism onto A.
    """
    _, _, corners = _peirce_corners(a, idem)
    cols = [vec for space in corners for vec in space.basis.entries]
    return Matrix.from_columns(a.field, cols, rows=a.dim)
