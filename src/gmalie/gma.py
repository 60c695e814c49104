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
from .linalg import Matrix, Subspace, solve
from .morita import Bimodule, MoritaContext, left_action_kernel, right_action_kernel, validate_context

__all__ = [
    "GMAlgebra",
    "CenterAnalysis",
    "assemble",
    "center_analysis",
    "peirce",
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

    def embed_a(self, a) -> tuple:
        da, dm, dn, db = self.block_dims
        z = self.field.zero
        return tuple(a) + (z,) * (dm + dn + db)

    def embed_b(self, b) -> tuple:
        da, dm, dn, db = self.block_dims
        z = self.field.zero
        return (z,) * (da + dm + dn) + tuple(b)

    def embed_m(self, m) -> tuple:
        da, dm, dn, db = self.block_dims
        z = self.field.zero
        return (z,) * da + tuple(m) + (z,) * (dn + db)

    def embed_n(self, n) -> tuple:
        da, dm, dn, db = self.block_dims
        z = self.field.zero
        return (z,) * (da + dm) + tuple(n) + (z,) * db


def gma_structure_tensor(c: MoritaContext):
    """Structure tensor of the 2x2 block product over the (A, M, N, B) basis.

    Exposed separately so tests can inspect tensors of deliberately corrupted
    contexts without constructing a validated algebra.
    """
    f = c.field
    da, dm, dn, db = c.block_dims
    d = da + dm + dn + db
    z = f.zero

    def blocks_of(i):
        if i < da:
            return ("a", i)
        if i < da + dm:
            return ("m", i - da)
        if i < da + dm + dn:
            return ("n", i - da - dm)
        return ("b", i - da - dm - dn)

    def emb(kind, vec):
        out = [z] * d
        base = {"a": 0, "m": da, "n": da + dm, "b": da + dm + dn}[kind]
        for t, x in enumerate(vec):
            out[base + t] = x
        return tuple(out)

    zero_row = (z,) * d
    tensor = []
    for i in range(d):
        ki, ii = blocks_of(i)
        plane = []
        for j in range(d):
            kj, jj = blocks_of(j)
            pair = ki + kj
            if pair == "aa":
                row = emb("a", c.a.structure[ii][jj])
            elif pair == "am":
                row = emb("m", c.m.left_action[ii][jj])
            elif pair == "mb":
                row = emb("m", c.m.right_action[ii][jj])
            elif pair == "mn":
                row = emb("a", c.pair_mn[ii][jj])
            elif pair == "na":
                row = emb("n", c.n.right_action[ii][jj])
            elif pair == "nm":
                row = emb("b", c.pair_nm[ii][jj])
            elif pair == "bn":
                row = emb("n", c.n.left_action[ii][jj])
            elif pair == "bb":
                row = emb("b", c.b.structure[ii][jj])
            else:
                row = zero_row
            plane.append(row)
        tensor.append(tuple(plane))
    return tuple(tensor)


def assemble(c: MoritaContext) -> GMAlgebra:
    """Build the generalized matrix algebra of a validated context.

    The block product encodes the Morita axioms, so the assembled tensor
    passes the associativity validation exactly when the context is valid.
    """
    bad = validate_context(c)
    if bad:
        raise ValidationFailure("invalid Morita context", bad)
    da, dm, dn, db = c.block_dims
    d = da + dm + dn + db
    z = c.field.zero
    unit = tuple(c.a.unit) + (z,) * (dm + dn) + tuple(c.b.unit)
    algebra = FDAlgebra(c.field, d, gma_structure_tensor(c), unit)
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

    @property
    def iso_exists(self) -> bool:
        return self.center_iso is not None


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
        iso = _center_iso(g, proj_a, proj_b)
    return CenterAnalysis(
        center=z_g,
        proj_a=proj_a,
        proj_b=proj_b,
        proj_a_is_center_a=proj_a == center_a,
        proj_b_is_center_b=proj_b == center_b,
        center_iso=iso,
    )


def _center_iso(g: GMAlgebra, proj_a: Subspace, proj_b: Subspace) -> Matrix:
    """Solve a.m = m.phi(a), phi(a).n = n.a for each basis element of the
    projected center; faithfulness makes the solution unique, and the pair
    a + phi(a) is central by construction, so phi lands in proj_b."""
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    # rows: for each module basis m_j the map b -> m_j.b, and for each
    # n_j the map b -> b.n_j; stacked into one system over b
    cols_cache_m = [
        [c.m.act_right(c.m.basis_vector(j), c.b.basis_vector(i)) for i in range(db)]
        for j in range(dm)
    ]
    cols_cache_n = [
        [c.n.act_left(c.b.basis_vector(i), c.n.basis_vector(j)) for i in range(db)]
        for j in range(dn)
    ]
    rows = []
    for j in range(dm):
        rows.append(Matrix.from_columns(f, cols_cache_m[j], rows=dm))
    for j in range(dn):
        rows.append(Matrix.from_columns(f, cols_cache_n[j], rows=dn))
    if rows:
        system = Matrix.vstack(f, rows, cols=db)
    else:
        system = Matrix.zeros(f, 0, db)
    image_cols = []
    for avec in proj_a.basis.entries:
        rhs = []
        for j in range(dm):
            rhs.extend(c.m.act_left(avec, c.m.basis_vector(j)))
        for j in range(dn):
            rhs.extend(c.n.act_right(c.n.basis_vector(j), avec))
        b = solve(system, rhs)
        if b is None:
            raise ConsistencyError("projected-center element without a central partner")
        coords = proj_b.coordinates(b)
        if coords is None:
            raise ConsistencyError("center isomorphism image escaped the projected center")
        image_cols.append(coords)
    iso = Matrix.from_columns(f, image_cols, rows=proj_b.dim)
    _verify_center_iso(g, proj_a, proj_b, iso)
    return iso


def _verify_center_iso(g, proj_a, proj_b, iso):
    from .linalg import rref

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
    p = tuple(f.of(x) for x in idem)
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


def peirce(a: FDAlgebra, idem) -> MoritaContext:
    """Peirce decomposition of a unital algebra at a nontrivial idempotent.

    Returns the Morita context with corner algebras p.A.p and q.A.q and
    off-diagonal bimodules p.A.q, q.A.p (q = 1 - p); actions and pairings
    are induced by multiplication in A.  Bases are the canonical RREF bases
    of the four block subspaces.
    """
    f = a.field
    p, q, (s_a, s_m, s_n, s_b) = _peirce_corners(a, idem)

    def coords(space, vec, what):
        out = space.coordinates(vec)
        if out is None:
            raise ConsistencyError(f"peirce block product escaped its block ({what})")
        return out

    def algebra_from(space, unit_vec, what):
        basis = space.basis.entries
        tensor = [
            [coords(space, a.multiply(x, y), what) for y in basis]
            for x in basis
        ]
        return FDAlgebra(f, space.dim, tensor, coords(space, unit_vec, what))

    alg_a = algebra_from(s_a, p, "corner A")
    alg_b = algebra_from(s_b, q, "corner B")

    def bimodule_from(space, left_alg, left_space, right_alg, right_space, what):
        basis = space.basis.entries
        left_action = [
            [coords(space, a.multiply(x, m), what) for m in basis]
            for x in left_space.basis.entries
        ]
        right_action = [
            [coords(space, a.multiply(m, y), what) for y in right_space.basis.entries]
            for m in basis
        ]
        return Bimodule(left_alg, right_alg, space.dim, left_action, right_action)

    mod_m = bimodule_from(s_m, alg_a, s_a, alg_b, s_b, "module M")
    mod_n = bimodule_from(s_n, alg_b, s_b, alg_a, s_a, "module N")

    pair_mn = [
        [coords(s_a, a.multiply(m, n), "pairing MN") for n in s_n.basis.entries]
        for m in s_m.basis.entries
    ]
    pair_nm = [
        [coords(s_b, a.multiply(n, m), "pairing NM") for m in s_m.basis.entries]
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
