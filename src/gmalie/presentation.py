"""Block presentations of maps on a generalized matrix algebra.

Every Lie derivation of the assembled algebra decomposes into diagonal maps
on the block algebras, module maps, two cross maps with central values, and
a pair of off-diagonal shift elements; derivations and central maps have
the analogous presentations.  This module extracts the components from a
map, rebuilds maps from components, validates the defining conditions of
each presentation, and evaluates the properness criteria against them.
A derivation presentation is a Lie presentation whose cross maps are zero.

Extraction reads each component from the image of a block-embedded basis
element (every component appears alone in some block of some probe);
probe order is fixed: first-diagonal, second-diagonal, upper, lower.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .algebra import (
    DEFAULT_BUDGET,
    center,
    commutation_operator,
    commutator_span,
    enumerate_idempotents,
)
from .errors import ConsistencyError, DimensionMismatch, PreconditionError, Violation
from .gma import GMAlgebra, center_analysis
from .linalg import Matrix, Subspace, inverse, kernel
from .morita import left_action_kernel, right_action_kernel
from .spaces import (
    EndoMap,
    derivation_defect,
    is_central_commutator_free,
    is_derivation,
    is_lie_derivation,
    is_proper,
    lie_defect,
)

__all__ = [
    "LiePresentation",
    "CentralPresentation",
    "PresentationReport",
    "extract_lie",
    "extract_derivation",
    "extract_central",
    "rebuild_lie",
    "rebuild_derivation",
    "rebuild_central",
    "check_lie_parts",
    "check_derivation_parts",
    "check_central_parts",
    "companion_central_maps",
    "CriteriaReport",
    "properness_criteria",
    "CentralPairReport",
    "central_pair_subalgebra",
]


@dataclass(frozen=True)
class LiePresentation:
    """Components of a Lie derivation of the assembled algebra.

    on_a/on_b act on the diagonal blocks, on_m/on_n on the modules;
    a_to_center_b and b_to_center_a are the cross maps (their values are
    central in the opposite block); shift_m/shift_n generate the inner
    off-diagonal part.  Derivations use the same presentation with both
    cross maps zero.
    """

    on_a: Matrix
    on_b: Matrix
    on_m: Matrix
    on_n: Matrix
    a_to_center_b: Matrix
    b_to_center_a: Matrix
    shift_m: tuple
    shift_n: tuple


@dataclass(frozen=True)
class CentralPresentation:
    """Components of a central-valued map vanishing on commutators: four
    block-diagonal maps into the two block centers."""

    a_to_center_a: Matrix
    b_to_center_a: Matrix
    a_to_center_b: Matrix
    b_to_center_b: Matrix


@dataclass(frozen=True)
class PresentationReport:
    """Per-condition violations; empty everywhere means the presentation
    conditions hold."""

    kind: str
    violations: dict

    @property
    def ok(self) -> bool:
        return all(not v for v in self.violations.values())

    @property
    def failed(self) -> tuple:
        return tuple(name for name, v in self.violations.items() if v)

    def first_violation(self):
        for name in self.violations:
            if self.violations[name]:
                return self.violations[name][0]
        return None


def _check_parts_shapes(g: GMAlgebra, shapes):
    for mat, rows, cols, what in shapes:
        if mat.rows != rows or mat.cols != cols or mat.field != g.field:
            raise DimensionMismatch(f"component {what} must be {rows}x{cols}")


# -- extraction -----------------------------------------------------------------


def _probe_images(g: GMAlgebra, endo: EndoMap):
    c = g.context
    da, dm, dn, db = g.block_dims
    a_imgs = [g.project(endo.apply(g.embed_a(c.a.basis_vector(i)))) for i in range(da)]
    b_imgs = [g.project(endo.apply(g.embed_b(c.b.basis_vector(i)))) for i in range(db)]
    m_imgs = [g.project(endo.apply(g.embed_m(c.m.basis_vector(i)))) for i in range(dm)]
    n_imgs = [g.project(endo.apply(g.embed_n(c.n.basis_vector(i)))) for i in range(dn)]
    unit_img = g.project(endo.apply(g.embed_a(c.a.unit)))
    return a_imgs, b_imgs, m_imgs, n_imgs, unit_img


def _read_lie_parts(g: GMAlgebra, endo: EndoMap) -> LiePresentation:
    f = g.field
    da, dm, dn, db = g.block_dims
    a_imgs, b_imgs, m_imgs, n_imgs, unit_img = _probe_images(g, endo)
    return LiePresentation(
        on_a=Matrix.from_columns(f, [img[0] for img in a_imgs], rows=da),
        on_b=Matrix.from_columns(f, [img[3] for img in b_imgs], rows=db),
        on_m=Matrix.from_columns(f, [img[1] for img in m_imgs], rows=dm),
        on_n=Matrix.from_columns(f, [img[2] for img in n_imgs], rows=dn),
        a_to_center_b=Matrix.from_columns(f, [img[3] for img in a_imgs], rows=db),
        b_to_center_a=Matrix.from_columns(f, [img[0] for img in b_imgs], rows=da),
        shift_m=unit_img[1],
        shift_n=unit_img[2],
    )


def _verified(g: GMAlgebra, endo: EndoMap, parts, matrix_of, check):
    """Return the extracted ``parts`` after checking that they rebuild ``endo``
    and satisfy their presentation conditions; a failure of either, for a
    verified input map, indicates an implementation bug."""
    if matrix_of(g, parts) != endo.matrix:
        raise ConsistencyError("presentation rebuild does not reproduce the map")
    report = check(g, parts)
    if not report.ok:
        raise ConsistencyError(
            f"extracted components violate condition {report.failed[0]}: "
            f"{report.first_violation()}"
        )
    return parts


def extract_lie(g: GMAlgebra, endo: EndoMap) -> LiePresentation:
    """Extract the presentation components of a Lie derivation.

    The rebuilt map must reproduce the input exactly and the extracted
    components must satisfy all presentation conditions; a failure of
    either, for a verified Lie derivation, indicates an implementation bug
    and raises :class:`ConsistencyError`.
    """
    defect = lie_defect(g.algebra, endo)
    if defect is not None:
        raise PreconditionError(
            f"not a Lie derivation: bracket rule fails on basis pair {defect}"
        )
    return _verified(g, endo, _read_lie_parts(g, endo), _lie_matrix, check_lie_parts)


def extract_derivation(g: GMAlgebra, endo: EndoMap) -> LiePresentation:
    """Extract the presentation of a derivation (cross maps are necessarily zero)."""
    defect = derivation_defect(g.algebra, endo)
    if defect is not None:
        raise PreconditionError(
            f"not a derivation: product rule fails on basis pair {defect}"
        )
    return _verified(g, endo, _read_lie_parts(g, endo), _lie_matrix, check_derivation_parts)


def extract_central(g: GMAlgebra, endo: EndoMap) -> CentralPresentation:
    """Extract the four center-valued components of a central map."""
    if not is_central_commutator_free(g.algebra, endo):
        raise PreconditionError("map is not central-valued vanishing on commutators")
    f = g.field
    da, dm, dn, db = g.block_dims
    a_imgs, b_imgs, _, _, _ = _probe_images(g, endo)
    parts = CentralPresentation(
        a_to_center_a=Matrix.from_columns(f, [img[0] for img in a_imgs], rows=da),
        b_to_center_a=Matrix.from_columns(f, [img[0] for img in b_imgs], rows=da),
        a_to_center_b=Matrix.from_columns(f, [img[3] for img in a_imgs], rows=db),
        b_to_center_b=Matrix.from_columns(f, [img[3] for img in b_imgs], rows=db),
    )
    return _verified(g, endo, parts, _central_matrix, check_central_parts)


# -- reconstruction ---------------------------------------------------------------


def _lie_matrix(g: GMAlgebra, parts: LiePresentation) -> Matrix:
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    neg = f.neg
    zero_m = (f.zero,) * dm
    zero_n = (f.zero,) * dn
    cols = []
    for t in range(da):
        ea = c.a.basis_vector(t)
        cols.append(
            g.embed(
                parts.on_a.column(t),
                c.m.act_left(ea, parts.shift_m),
                c.n.act_right(parts.shift_n, ea),
                parts.a_to_center_b.column(t),
            )
        )
    for t in range(dm):
        em = c.m.basis_vector(t)
        cols.append(
            g.embed(
                tuple(neg(x) for x in c.pair_mn_apply(em, parts.shift_n)),
                parts.on_m.column(t),
                zero_n,
                c.pair_nm_apply(parts.shift_n, em),
            )
        )
    for t in range(dn):
        en = c.n.basis_vector(t)
        cols.append(
            g.embed(
                tuple(neg(x) for x in c.pair_mn_apply(parts.shift_m, en)),
                zero_m,
                parts.on_n.column(t),
                c.pair_nm_apply(en, parts.shift_m),
            )
        )
    for t in range(db):
        eb = c.b.basis_vector(t)
        cols.append(
            g.embed(
                parts.b_to_center_a.column(t),
                tuple(neg(x) for x in c.m.act_right(parts.shift_m, eb)),
                tuple(neg(x) for x in c.n.act_left(eb, parts.shift_n)),
                parts.on_b.column(t),
            )
        )
    return Matrix.from_columns(f, cols, rows=g.algebra.dim)


def _central_matrix(g: GMAlgebra, parts: CentralPresentation) -> Matrix:
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    zero_m = (f.zero,) * dm
    zero_n = (f.zero,) * dn
    cols = []
    for t in range(da):
        cols.append(
            g.embed(
                parts.a_to_center_a.column(t), zero_m, zero_n, parts.a_to_center_b.column(t)
            )
        )
    for _ in range(dm + dn):
        cols.append((f.zero,) * g.algebra.dim)
    for t in range(db):
        cols.append(
            g.embed(
                parts.b_to_center_a.column(t), zero_m, zero_n, parts.b_to_center_b.column(t)
            )
        )
    return Matrix.from_columns(f, cols, rows=g.algebra.dim)


def _rebuild(g: GMAlgebra, parts, report, matrix_of, holds, what) -> EndoMap:
    """Assemble ``parts``; when ``report`` says their conditions hold, the
    result must have the property ``holds`` tests."""
    endo = EndoMap(matrix_of(g, parts))
    if report.ok and not holds(g.algebra, endo):
        raise ConsistencyError(f"valid components rebuilt into a non-{what}")
    return endo


def rebuild_lie(g: GMAlgebra, parts: LiePresentation) -> EndoMap:
    """Assemble the block formula; when the presentation conditions hold the
    result is verified to satisfy the bracket rule."""
    report = check_lie_parts(g, parts)
    return _rebuild(g, parts, report, _lie_matrix, is_lie_derivation, "Lie-derivation")


def rebuild_derivation(g: GMAlgebra, parts: LiePresentation) -> EndoMap:
    report = check_derivation_parts(g, parts)
    return _rebuild(g, parts, report, _lie_matrix, is_derivation, "derivation")


def rebuild_central(g: GMAlgebra, parts: CentralPresentation) -> EndoMap:
    report = check_central_parts(g, parts)
    return _rebuild(g, parts, report, _central_matrix, is_central_commutator_free, "central map")


def _check_lie_shapes(g, parts):
    da, dm, dn, db = g.block_dims
    _check_parts_shapes(
        g,
        [
            (parts.on_a, da, da, "on_a"),
            (parts.on_b, db, db, "on_b"),
            (parts.on_m, dm, dm, "on_m"),
            (parts.on_n, dn, dn, "on_n"),
            (parts.a_to_center_b, db, da, "a_to_center_b"),
            (parts.b_to_center_a, da, db, "b_to_center_a"),
        ],
    )
    if len(parts.shift_m) != dm or len(parts.shift_n) != dn:
        raise DimensionMismatch("shift element length mismatch")


def _check_central_shapes(g, parts):
    da, dm, dn, db = g.block_dims
    _check_parts_shapes(
        g,
        [
            (parts.a_to_center_a, da, da, "a_to_center_a"),
            (parts.b_to_center_a, da, db, "b_to_center_a"),
            (parts.a_to_center_b, db, da, "a_to_center_b"),
            (parts.b_to_center_b, db, db, "b_to_center_b"),
        ],
    )


# -- condition validation ----------------------------------------------------------


def _vec_add(f, *vecs):
    out = list(vecs[0])
    for v in vecs[1:]:
        for i, x in enumerate(v):
            out[i] = f.add(out[i], x)
    return tuple(out)


def _vec_sub(f, u, v):
    return tuple(f.sub(x, y) for x, y in zip(u, v))


def _module_compat(module, left: bool, diag: Matrix, phi: Matrix, chi: Matrix) -> list:
    """Basis pairs breaking phi(x.p) = delta(x).p + x.phi(p) - p.chi(x), for x
    acting on the module from the left, or the mirror rule
    phi(p.x) = p.delta(x) + phi(p).x - chi(x).p when ``left`` is false; delta
    is ``diag`` and the cross value chi(x) acts from the opposite side.  A
    left pair is located as (x, p), a right pair as (p, x)."""
    f = module.field
    if left:
        algebra, law = module.left, "left_product"
        act, cross_act = module.act_left, lambda h, p: module.act_right(p, h)
    else:
        algebra, law = module.right, "right_product"
        act, cross_act = lambda x, p: module.act_right(p, x), module.act_left
    bad = []
    for i in range(algebra.dim):
        x = algebra.basis_vector(i)
        dx = diag.column(i)
        hx = chi.column(i)
        for j in range(module.dim):
            p = module.basis_vector(j)
            lhs = phi.apply(act(x, p))
            rhs = _vec_sub(f, _vec_add(f, act(dx, p), act(x, phi.column(j))), cross_act(hx, p))
            if lhs != rhs:
                bad.append(Violation(law, (i, j) if left else (j, i)))
    return bad


def _check_block_parts(g, parts, kind, defect, rule, cross) -> PresentationReport:
    """The presentation conditions shared by Lie derivations and derivations.

    ``defect`` is the rule the diagonal maps must obey (named ``rule`` in the
    report) and ``cross`` returns the conditions on the two cross maps; the
    module and pairing conditions carry the cross terms, which vanish for a
    derivation.
    """
    _check_lie_shapes(g, parts)
    c = g.context
    f = g.field
    _, dm, dn, _ = g.block_dims
    diagonal = []
    for side, algebra, on in (("a", c.a, parts.on_a), ("b", c.b, parts.on_b)):
        where = defect(algebra, EndoMap(on))
        if where is not None:
            diagonal.append(Violation(f"{rule}_on_{side}", where))
    bad = {f"diagonal_{kind}": diagonal, **cross(g, parts)}
    bad["m_compat"] = _module_compat(
        c.m, True, parts.on_a, parts.on_m, parts.a_to_center_b
    ) + _module_compat(c.m, False, parts.on_b, parts.on_m, parts.b_to_center_a)
    bad["n_compat"] = _module_compat(
        c.n, False, parts.on_a, parts.on_n, parts.a_to_center_b
    ) + _module_compat(c.n, True, parts.on_b, parts.on_n, parts.b_to_center_a)

    pairing = []
    for i in range(dm):
        em = c.m.basis_vector(i)
        fm = parts.on_m.column(i)
        for j in range(dn):
            en = c.n.basis_vector(j)
            gn = parts.on_n.column(j)
            mn = c.pair_mn_apply(em, en)
            nm = c.pair_nm_apply(en, em)
            lhs1 = _vec_sub(f, parts.on_a.apply(mn), parts.b_to_center_a.apply(nm))
            rhs1 = _vec_add(f, c.pair_mn_apply(em, gn), c.pair_mn_apply(fm, en))
            if lhs1 != rhs1:
                pairing.append(Violation("first_block", (i, j)))
            lhs2 = _vec_sub(f, parts.on_b.apply(nm), parts.a_to_center_b.apply(mn))
            rhs2 = _vec_add(f, c.pair_nm_apply(gn, em), c.pair_nm_apply(en, fm))
            if lhs2 != rhs2:
                pairing.append(Violation("second_block", (i, j)))
    bad["pairing_compat"] = pairing
    return PresentationReport(kind, {k: tuple(v) for k, v in bad.items()})


def _cross_central(g, parts) -> dict:
    """Lie cross maps: values central in the opposite block, commutators killed."""
    c = g.context
    central, kill = [], []
    for side, name, cross, source, target in (
        ("a", "a_to_center_b", parts.a_to_center_b, c.a, c.b),
        ("b", "b_to_center_a", parts.b_to_center_a, c.b, c.a),
    ):
        center_t = center(target)
        for i in range(cross.cols):
            if not center_t.contains_vector(cross.column(i)):
                central.append(Violation(f"{name}_value", (i,)))
        for idx, w in enumerate(commutator_span(source).basis.entries):
            if any(cross.apply(w)):
                kill.append(Violation(f"{side}_commutator", (idx,)))
    return {"cross_central": central, "cross_kill_commutators": kill}


def _cross_zero(g, parts) -> dict:
    """Derivation cross maps: every value is zero."""
    crosses = (("a_to_center_b", parts.a_to_center_b), ("b_to_center_a", parts.b_to_center_a))
    nonzero = [
        Violation(f"{name}_value", (i,))
        for name, cross in crosses
        for i in range(cross.cols)
        if any(cross.column(i))
    ]
    return {"cross_zero": nonzero}


def check_lie_parts(g: GMAlgebra, parts: LiePresentation) -> PresentationReport:
    """Check the Lie presentation conditions on all basis tuples."""
    return _check_block_parts(g, parts, "lie", lie_defect, "bracket_rule", _cross_central)


def check_derivation_parts(g: GMAlgebra, parts: LiePresentation) -> PresentationReport:
    """Check the derivation presentation conditions on all basis tuples:
    those of a Lie presentation with zero cross maps and the product rule on
    the diagonal maps."""
    return _check_block_parts(
        g, parts, "derivation", derivation_defect, "product_rule", _cross_zero
    )


def check_central_parts(g: GMAlgebra, parts: CentralPresentation) -> PresentationReport:
    """Check the central presentation: commutators killed, block pairs
    central in the assembled algebra, pairings matched."""
    _check_central_shapes(g, parts)
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    bad = {"kill_commutators": [], "central_pairs": [], "pairing_match": []}

    zero_a = (f.zero,) * da
    zero_b = (f.zero,) * db
    for idx, w in enumerate(commutator_span(c.a).basis.entries):
        if parts.a_to_center_a.apply(w) != zero_a:
            bad["kill_commutators"].append(Violation("a_to_center_a", (idx,)))
        if parts.a_to_center_b.apply(w) != zero_b:
            bad["kill_commutators"].append(Violation("a_to_center_b", (idx,)))
    for idx, w in enumerate(commutator_span(c.b).basis.entries):
        if parts.b_to_center_a.apply(w) != zero_a:
            bad["kill_commutators"].append(Violation("b_to_center_a", (idx,)))
        if parts.b_to_center_b.apply(w) != zero_b:
            bad["kill_commutators"].append(Violation("b_to_center_b", (idx,)))

    z_g = center(g.algebra)
    zero_m = (f.zero,) * dm
    zero_n = (f.zero,) * dn
    for i in range(da):
        pair = g.embed(
            parts.a_to_center_a.column(i), zero_m, zero_n, parts.a_to_center_b.column(i)
        )
        if not z_g.contains_vector(pair):
            bad["central_pairs"].append(Violation("first_diagonal", (i,)))
    for j in range(db):
        pair = g.embed(
            parts.b_to_center_a.column(j), zero_m, zero_n, parts.b_to_center_b.column(j)
        )
        if not z_g.contains_vector(pair):
            bad["central_pairs"].append(Violation("second_diagonal", (j,)))

    for i in range(dm):
        em = c.m.basis_vector(i)
        for j in range(dn):
            en = c.n.basis_vector(j)
            mn = c.pair_mn_apply(em, en)
            nm = c.pair_nm_apply(en, em)
            if parts.a_to_center_a.apply(mn) != parts.b_to_center_a.apply(nm):
                bad["pairing_match"].append(Violation("first_block", (i, j)))
            if parts.a_to_center_b.apply(mn) != parts.b_to_center_b.apply(nm):
                bad["pairing_match"].append(Violation("second_block", (i, j)))
    return PresentationReport("central", {k: tuple(v) for k, v in bad.items()})


# -- properness criteria -------------------------------------------------------------


def companion_central_maps(g: GMAlgebra, parts: LiePresentation):
    """Center-valued diagonal companions of the cross maps, composed through
    the center isomorphism (and its inverse).

    Requires a faithful module (the isomorphism exists) and both cross-map
    ranges inside the projected centers; a range failure names the first
    violating basis element.
    """
    analysis = center_analysis(g)
    if analysis.center_iso is None:
        raise PreconditionError(
            "companion maps need the center isomorphism (module not faithful)"
        )
    f = g.field
    da, dm, dn, db = g.block_dims
    iso = analysis.center_iso
    iso_inv = inverse(iso)
    if iso_inv is None:
        raise ConsistencyError("center isomorphism is singular")
    a_cols = []
    for i in range(da):
        coords = analysis.proj_b.coordinates(parts.a_to_center_b.column(i))
        if coords is None:
            raise PreconditionError(
                f"cross-map image of first-diagonal basis element {i} "
                "is outside the projected center"
            )
        a_cols.append(analysis.proj_a.from_coordinates(iso_inv.apply(coords)))
    b_cols = []
    for j in range(db):
        coords = analysis.proj_a.coordinates(parts.b_to_center_a.column(j))
        if coords is None:
            raise PreconditionError(
                f"cross-map image of second-diagonal basis element {j} "
                "is outside the projected center"
            )
        b_cols.append(analysis.proj_b.from_coordinates(iso.apply(coords)))
    return (
        Matrix.from_columns(f, a_cols, rows=da),
        Matrix.from_columns(f, b_cols, rows=db),
    )


@dataclass(frozen=True)
class CriteriaReport:
    """Evaluation of the properness criteria for extracted components.

    ``verdict`` is "proper" or "not_proper"; it stays None when both
    necessary conditions hold but the module is not faithful (the converse
    direction needs faithfulness).  Whenever a verdict is reached it has
    been cross-checked against the subspace oracle.
    """

    range_a_ok: bool
    range_a_witness: int | None
    range_b_ok: bool
    range_b_witness: int | None
    central_pairs_ok: bool
    central_pairs_witness: tuple | None
    m_faithful: bool
    verdict: str | None
    derivation: EndoMap | None
    central: EndoMap | None
    oracle_agrees: bool | None


def _criteria_witnesses(g: GMAlgebra, parts: LiePresentation) -> tuple:
    """First failing index of each properness criterion, or None where it
    holds: the first-diagonal basis element whose cross image leaves
    ``proj_b``, the second-diagonal one whose cross image leaves ``proj_a``,
    and the (M, N) basis pair whose cross-mapped pairings are not a central
    pair.  Every criterion is linear in the map."""
    an = center_analysis(g)
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    cross_a, cross_b = parts.a_to_center_b, parts.b_to_center_a
    zero_m = (f.zero,) * dm
    zero_n = (f.zero,) * dn

    def central_pair(i, j):
        em, en = c.m.basis_vector(i), c.n.basis_vector(j)
        pair = g.embed(
            cross_b.apply(c.pair_nm_apply(en, em)),
            zero_m,
            zero_n,
            cross_a.apply(c.pair_mn_apply(em, en)),
        )
        return an.center.contains_vector(pair)

    return (
        next((i for i in range(da) if not an.proj_b.contains_vector(cross_a.column(i))), None),
        next((j for j in range(db) if not an.proj_a.contains_vector(cross_b.column(j))), None),
        next(((i, j) for i in range(dm) for j in range(dn) if not central_pair(i, j)), None),
    )


def properness_criteria(g: GMAlgebra, parts: LiePresentation) -> CriteriaReport:
    """Evaluate the cross-map range conditions and the central-pair pairing
    condition; conclude properness when the module is faithful.

    A failed necessary condition concludes not-proper unconditionally; the
    proper conclusion additionally builds the explicit decomposition into a
    derivation plus a central map and re-validates it.  Every verdict is
    compared against the subspace oracle; disagreement raises
    :class:`ConsistencyError`.
    """
    c = g.context
    range_a, range_b, pairs = _criteria_witnesses(g, parts)
    m_faithful = (
        left_action_kernel(c.m).dim == 0 and right_action_kernel(c.m).dim == 0
    )

    verdict = None
    d_map = None
    c_map = None
    if (range_a, range_b, pairs) != (None, None, None):
        verdict = "not_proper"
    elif m_faithful:
        verdict = "proper"
        d_map, c_map = _build_decomposition(g, parts)

    oracle_agrees = None
    if verdict is not None:
        endo = EndoMap(_lie_matrix(g, parts))
        oracle = is_proper(g, endo)
        oracle_agrees = oracle.proper == (verdict == "proper")
        if not oracle_agrees:
            raise ConsistencyError(
                f"criteria verdict {verdict!r} disagrees with the subspace oracle"
            )
    return CriteriaReport(
        range_a_ok=range_a is None,
        range_a_witness=range_a,
        range_b_ok=range_b is None,
        range_b_witness=range_b,
        central_pairs_ok=pairs is None,
        central_pairs_witness=pairs,
        m_faithful=m_faithful,
        verdict=verdict,
        derivation=d_map,
        central=c_map,
        oracle_agrees=oracle_agrees,
    )


def _build_decomposition(g: GMAlgebra, parts: LiePresentation):
    """Derivation + central map splitting, built from the companion maps; each
    part must satisfy its presentation conditions."""
    f = g.field
    da, _, _, db = g.block_dims
    comp_a, comp_b = companion_central_maps(g, parts)
    d_parts = replace(
        parts,
        on_a=parts.on_a - comp_a,
        on_b=parts.on_b - comp_b,
        a_to_center_b=Matrix.zeros(f, db, da),
        b_to_center_a=Matrix.zeros(f, da, db),
    )
    c_parts = CentralPresentation(
        a_to_center_a=comp_a,
        b_to_center_a=parts.b_to_center_a,
        a_to_center_b=parts.a_to_center_b,
        b_to_center_b=comp_b,
    )
    d_report = check_derivation_parts(g, d_parts)
    c_report = check_central_parts(g, c_parts)
    for report in (d_report, c_report):
        if not report.ok:
            raise ConsistencyError(
                f"companion {report.kind} part violates condition {report.failed[0]}: "
                f"{report.first_violation()}"
            )
    d_map = _rebuild(g, d_parts, d_report, _lie_matrix, is_derivation, "derivation")
    c_map = _rebuild(
        g, c_parts, c_report, _central_matrix, is_central_commutator_free, "central map"
    )
    if d_map.matrix + c_map.matrix != _lie_matrix(g, parts):
        raise ConsistencyError("decomposition parts do not sum to the map")
    return d_map, c_map


# -- the compatibility subalgebra ------------------------------------------------------


@dataclass(frozen=True)
class CentralPairReport:
    """The subalgebra of first-diagonal elements whose companion/cross images
    form a central pair, with its containment facts."""

    space: Subspace
    cross_preimage: Subspace
    contains_commutators: bool
    contains_idempotents: bool
    within_cross_preimage: bool
    equals_cross_preimage: bool
    derivation_compatible: bool


def central_pair_subalgebra(
    g: GMAlgebra,
    center_map_a: Matrix,
    parts: LiePresentation,
    budget: int = DEFAULT_BUDGET,
) -> CentralPairReport:
    """Solve the linear conditions for membership and report the containment
    facts.  Containment of commutators and idempotents is asserted whenever
    the supplied center-valued map is derivation-compatible with the
    diagonal component; the preimage containment is asserted always.
    Equality with the preimage is reported, not asserted: it depends on the
    choice of companion map.
    """
    c = g.context
    f = g.field
    da, dm, dn, db = g.block_dims
    if center_map_a.rows != da or center_map_a.cols != da:
        raise DimensionMismatch("companion map must be square on the first diagonal")
    zero_m = (f.zero,) * dm
    zero_n = (f.zero,) * dn
    embed_cols = [
        g.embed(center_map_a.column(i), zero_m, zero_n, parts.a_to_center_b.column(i))
        for i in range(da)
    ]
    pair_map = Matrix.from_columns(f, embed_cols, rows=g.algebra.dim)
    space = kernel(commutation_operator(g.algebra) @ pair_map)

    analysis = center_analysis(g)
    preimage = kernel(analysis.proj_b.membership_operator() @ parts.a_to_center_b)

    within = preimage.contains(space)
    if not within:
        raise ConsistencyError(
            "central-pair subalgebra escaped the cross-map preimage"
        )
    comm_ok = all(
        space.contains_vector(w) for w in commutator_span(c.a).basis.entries
    )
    idems = enumerate_idempotents(c.a, budget)
    idem_ok = all(space.contains_vector(e) for e in idems.elements)
    compatible = (
        derivation_defect(c.a, EndoMap(parts.on_a - center_map_a)) is None
    )
    if compatible and not (comm_ok and idem_ok):
        raise ConsistencyError(
            "central-pair subalgebra misses commutators or idempotents "
            "despite a derivation-compatible companion map"
        )
    return CentralPairReport(
        space=space,
        cross_preimage=preimage,
        contains_commutators=comm_ok,
        contains_idempotents=idem_ok,
        within_cross_preimage=within,
        equals_cross_preimage=space == preimage,
        derivation_compatible=compatible,
    )
