"""Block presentations of maps on a generalized matrix algebra.

Every Lie derivation of the assembled algebra decomposes into diagonal maps
on the block algebras, module maps, two cross maps with central values, and
a pair of off-diagonal shift elements; derivations and central maps have
the analogous presentations.  This module extracts the components from a
map, rebuilds maps from components, validates the defining conditions of
each presentation, and evaluates the properness criteria on a Lie
derivation's components, each verdict cross-checked by the map's membership
in the oracle's proper space.  A derivation presentation is a Lie
presentation whose cross maps are zero.

Every component is one block of the map's own matrix, so extraction slices
the blocks out of vec(L), the flattened map, and rebuilding places them back
and adds the inner derivation by s = shift_m - shift_n, which fills only the
remaining blocks; extraction is verified on vec(L).  The conditions and the
criteria are rows over vec(L), built and read by ``rows``; the diagonal
conditions are the block algebras' own rules lifted into vec(L).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, product

from .algebra import (
    DEFAULT_BUDGET,
    _memo,
    center,
    commutation_operator,
    commutator_span,
    enumerate_idempotents,
)
from .errors import ConsistencyError, DimensionMismatch, PreconditionError, Violation
from .gma import GMAlgebra, center_analysis
from .linalg import Matrix, Subspace, inverse, kernel
from .rows import bracket_rows, equation, failing_tags, leibniz, lift, product_rows, unit
from .spaces import (
    EndoMap,
    derivation_defect,
    is_central_commutator_free,
    is_derivation,
    is_lie_derivation,
    lie_defect,
    proper_space,
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
    "proper_maps_meet_criteria",
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
        return next((v[0] for v in self.violations.values() if v), None)


# -- components as blocks of the map's matrix ------------------------------------
#
# Every component is one block of the map's own d x d matrix L, its rows in
# the target block and its columns in the source block.  ``_layout`` places
# each block in vec(L), the row-major flattening of L: entry (s, t) of a
# component sits at start + s * d + t.  Extraction slices the blocks out of
# vec(L) and rebuilding places them back; the shifts generate the inner
# derivation x -> [x, s], s = shift_m - shift_n, which fills only the other
# blocks.

# component, and the blocks of its rows and columns (0 A, 1 M, 2 N, 3 B)
_LIE_SHAPES = (
    ("on_a", 0, 0), ("on_b", 3, 3), ("on_m", 1, 1), ("on_n", 2, 2),
    ("a_to_center_b", 3, 0), ("b_to_center_a", 0, 3),
)
_CENTRAL_SHAPES = (
    ("a_to_center_a", 0, 0), ("b_to_center_a", 0, 3),
    ("a_to_center_b", 3, 0), ("b_to_center_b", 3, 3),
)
# the blocks of L(1_A) = on_a(1_A) + [1_A, s] + a_to_center_b(1_A) that
# hold the shifts
_SHIFT_SHAPES = (("shift_m", 1, 0), ("shift_n", 2, 0))


def _layout(g: GMAlgebra, shapes) -> dict:
    """Component -> (start, stride, rows, cols) of its block in vec(L)."""
    d, offsets, dims = g.algebra.dim, g.offsets, g.block_dims
    return {name: (offsets[r] * d + offsets[c], d, dims[r], dims[c]) for name, r, c in shapes}


def _slices(g: GMAlgebra, flat, shapes) -> dict:
    """Component -> its block of the map whose flattening is ``flat``."""
    return {
        name: Matrix(g.field, [flat[at + s * d : at + s * d + cols] for s in range(rows)], cols)
        for name, (at, d, rows, cols) in _layout(g, shapes).items()
    }


def _flat(g: GMAlgebra, parts, shapes) -> tuple:
    """vec(L) of the map with the components of ``parts`` as its blocks,
    each checked against its shape, and zero elsewhere."""
    flat = [g.field.zero] * g.algebra.dim**2
    for name, (at, d, rows, cols) in _layout(g, shapes).items():
        mat = getattr(parts, name)
        if mat.rows != rows or mat.cols != cols or mat.field != g.field:
            raise DimensionMismatch(f"component {name} must be {rows}x{cols}")
        for s, row in enumerate(mat.entries):
            flat[at + s * d : at + s * d + cols] = row
    return tuple(flat)


# -- extraction -----------------------------------------------------------------


def _read_lie_parts(g: GMAlgebra, endo: EndoMap) -> LiePresentation:
    flat = endo.flatten()
    unit = g.context.a.unit
    shifts = {name: m.apply(unit) for name, m in _slices(g, flat, _SHIFT_SHAPES).items()}
    return LiePresentation(**_slices(g, flat, _LIE_SHAPES), **shifts)


def _verified(g: GMAlgebra, endo: EndoMap, parts, flat_of, check):
    """Return the extracted ``parts`` after checking that they rebuild vec(L)
    of ``endo`` and satisfy their presentation conditions; a failure of
    either, for a verified input map, indicates an implementation bug."""
    if flat_of(g, parts) != endo.flatten():
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
    _require_lie(g, endo)
    return _verified(g, endo, _read_lie_parts(g, endo), _lie_flat, check_lie_parts)


def _require_lie(g: GMAlgebra, endo: EndoMap):
    defect = lie_defect(g.algebra, endo)
    if defect is not None:
        raise PreconditionError(
            f"not a Lie derivation: bracket rule fails on basis pair {defect}"
        )


def extract_derivation(g: GMAlgebra, endo: EndoMap) -> LiePresentation:
    """Extract the presentation of a derivation (cross maps are necessarily zero)."""
    defect = derivation_defect(g.algebra, endo)
    if defect is not None:
        raise PreconditionError(
            f"not a derivation: product rule fails on basis pair {defect}"
        )
    return _verified(g, endo, _read_lie_parts(g, endo), _lie_flat, check_derivation_parts)


def extract_central(g: GMAlgebra, endo: EndoMap) -> CentralPresentation:
    """Extract the four center-valued components of a central map."""
    if not is_central_commutator_free(g.algebra, endo):
        raise PreconditionError("map is not central-valued vanishing on commutators")
    parts = CentralPresentation(**_slices(g, endo.flatten(), _CENTRAL_SHAPES))
    return _verified(g, endo, parts, _central_flat, check_central_parts)


# -- reconstruction ---------------------------------------------------------------


def _lie_flat(g: GMAlgebra, parts: LiePresentation) -> tuple:
    """vec(L) of the placed components plus the inner derivation x -> [x, s]."""
    f, d = g.field, g.algebra.dim
    placed = _flat(g, parts, _LIE_SHAPES)
    da, _, _, db = g.block_dims
    s = g.embed((f.zero,) * da, parts.shift_m, tuple(map(f.neg, parts.shift_n)), (f.zero,) * db)
    # entry c*d + r: the e_r coefficient of [e_c, s], entry (r, c) of x -> [x, s]
    ad = commutation_operator(g.algebra).apply(s)
    return tuple(f.add(placed[r * d + c], ad[c * d + r]) for r in range(d) for c in range(d))


def _central_flat(g: GMAlgebra, parts: CentralPresentation) -> tuple:
    return _flat(g, parts, _CENTRAL_SHAPES)


def _rebuild(g: GMAlgebra, parts, report, flat_of, holds, what) -> EndoMap:
    """Assemble ``parts``; when ``report`` says their conditions hold, the
    result must have the property ``holds`` tests."""
    endo = EndoMap.from_flat(g.field, flat_of(g, parts), g.algebra.dim)
    if report.ok and not holds(g.algebra, endo):
        raise ConsistencyError(f"valid components rebuilt into a non-{what}")
    return endo


def rebuild_lie(g: GMAlgebra, parts: LiePresentation) -> EndoMap:
    """Assemble the block formula; when the presentation conditions hold the
    result is verified to satisfy the bracket rule."""
    report = check_lie_parts(g, parts)
    return _rebuild(g, parts, report, _lie_flat, is_lie_derivation, "Lie-derivation")


def rebuild_derivation(g: GMAlgebra, parts: LiePresentation) -> EndoMap:
    report = check_derivation_parts(g, parts)
    return _rebuild(g, parts, report, _lie_flat, is_derivation, "derivation")


def rebuild_central(g: GMAlgebra, parts: CentralPresentation) -> EndoMap:
    report = check_central_parts(g, parts)
    return _rebuild(g, parts, report, _central_flat, is_central_commutator_free, "central map")


# -- conditions as tagged rows -------------------------------------------------------
#
# Every presentation condition is linear in the components, so each is a
# tuple of sparse rows (tag, columns, coefficients) over vec(L), the
# flattened map, reading only the blocks of the components (the shifts
# enter no condition).  A tag is (condition, Violation), shared by the rows
# of one basis tuple.  Each group is built once per context, in the order of
# the element-wise checks it replaced, and read by ``rows.failing_tags``.  The
# diagonal conditions are the block algebras' own rules lifted into vec(L).

_COMPAT = ("m_compat", "n_compat", "pairing_compat")
_LIE_CONDITIONS = ("diagonal_lie", "cross_central", "cross_kill_commutators", *_COMPAT)
_DERIVATION_CONDITIONS = ("diagonal_derivation", "cross_zero", *_COMPAT)
_CENTRAL_CONDITIONS = ("kill_commutators", "central_pairs", "pairing_match")


@_memo
def _compat_rows(g: GMAlgebra) -> tuple:
    """Module compatibility, phi(x.p) = delta(x).p + x.phi(p) - p.chi(x) for
    x acting from the left and the mirror rule from the right: phi is the
    module map, delta the diagonal map and chi the cross map, whose values
    act from the other side.  On M the left pairs (x, p) come first, on N
    the right pairs (p, x).  Then pairing compatibility for each (m, n):
    on_a(mn) - b_to_center_a(nm) = m.on_n(n) + on_m(m).n in A (the first
    block), and on_b(nm) - a_to_center_b(mn) = on_n(n).m + n.on_m(m) in B
    (the second)."""
    c, f = g.context, g.field
    at = _layout(g, _LIE_SHAPES)
    rows = []
    for condition, module, phi, left, delta, chi in (
        ("m_compat", c.m, "on_m", True, "on_a", "a_to_center_b"),
        ("m_compat", c.m, "on_m", False, "on_b", "b_to_center_a"),
        ("n_compat", c.n, "on_n", False, "on_a", "a_to_center_b"),
        ("n_compat", c.n, "on_n", True, "on_b", "b_to_center_a"),
    ):
        # act[i][j]: x_i acting on p_j; cross[h][j]: h acting from the other side
        swapped = tuple(zip(*module.right_action))
        act, cross = (module.left_action, swapped) if left else (swapped, module.left_action)
        law = "left_product" if left else "right_product"
        for i, j in product(range(len(act)), range(module.dim)):
            tag = (condition, Violation(law, (i, j) if left else (j, i)))
            extra = [(at[chi], [h[j] for h in cross], unit(f, len(act), i))]
            leibniz(rows, f, at, tag, act, phi, delta, phi, i, j, extra)
    P, Q = c.pair_mn, c.pair_nm
    nm_by_m = tuple(zip(*Q))
    for i, j in product(range(len(P)), range(len(Q))):
        neg_mn, neg_nm = (tuple(map(f.neg, v)) for v in (P[i][j], Q[j][i]))
        tag = ("pairing_compat", Violation("first_block", (i, j)))
        extra = [(at["b_to_center_a"], None, neg_nm)]
        leibniz(rows, f, at, tag, P, "on_a", "on_m", "on_n", i, j, extra)
        tag = ("pairing_compat", Violation("second_block", (i, j)))
        extra = [(at["a_to_center_b"], None, neg_mn)]
        leibniz(rows, f, at, tag, nm_by_m, "on_b", "on_m", "on_n", i, j, extra)
    return tuple(rows)


@_memo
def _cross_central_rows(g: GMAlgebra) -> tuple:
    """Lie cross maps: every value central in the opposite block, then every
    commutator of the source block killed; the first cross map first."""
    c, f = g.context, g.field
    at = _layout(g, _LIE_SHAPES)
    crosses = (("a", "a_to_center_b", c.a, c.b), ("b", "b_to_center_a", c.b, c.a))
    rows = []
    for _, name, source, target in crosses:
        membership = center(target).membership_operator().transpose().entries
        for i in range(source.dim):
            tag = ("cross_central", Violation(f"{name}_value", (i,)))
            equation(rows, f, tag, target.dim, [(at[name], membership, unit(f, source.dim, i))])
    for side, name, source, target in crosses:
        for r, w in enumerate(commutator_span(source).basis.entries):
            tag = ("cross_kill_commutators", Violation(f"{side}_commutator", (r,)))
            equation(rows, f, tag, target.dim, [(at[name], None, w)])
    return tuple(rows)


@_memo
def _cross_zero_rows(g: GMAlgebra) -> tuple:
    """Derivation cross maps: every value zero."""
    f = g.field
    at = _layout(g, _LIE_SHAPES)
    rows = []
    for name in ("a_to_center_b", "b_to_center_a"):
        _, _, dim, cols = at[name]
        for i in range(cols):
            tag = ("cross_zero", Violation(f"{name}_value", (i,)))
            equation(rows, f, tag, dim, [(at[name], None, unit(f, cols, i))])
    return tuple(rows)


def _center_membership(g: GMAlgebra) -> tuple:
    """The columns of the membership operator of the assembled algebra's
    center on the first and on the second diagonal block."""
    cols = center(g.algebra).membership_operator().transpose().entries
    return cols[: g.block_dims[0]], cols[g.offsets[3] :]


@_memo
def _central_rows(g: GMAlgebra) -> tuple:
    """The central presentation: commutators killed (A's, then B's), block
    pairs central in the assembled algebra (first diagonal, then second) and
    pairings matched (first block, then second, for each basis pair)."""
    c, f = g.context, g.field
    da, dm, dn, db = g.block_dims
    at = _layout(g, _CENTRAL_SHAPES)
    rows = []
    for source, names in (
        (c.a, ("a_to_center_a", "a_to_center_b")),
        (c.b, ("b_to_center_a", "b_to_center_b")),
    ):
        for r, w in enumerate(commutator_span(source).basis.entries):
            for name in names:
                tag = ("kill_commutators", Violation(name, (r,)))
                equation(rows, f, tag, at[name][2], [(at[name], None, w)])
    on_a, on_b = _center_membership(g)
    for law, n, upper, lower in (
        ("first_diagonal", da, "a_to_center_a", "a_to_center_b"),
        ("second_diagonal", db, "b_to_center_a", "b_to_center_b"),
    ):
        for i in range(n):
            e = unit(f, n, i)
            terms = [(at[upper], on_a, e), (at[lower], on_b, e)]
            equation(rows, f, ("central_pairs", Violation(law, (i,))), g.algebra.dim, terms)
    for i, j in product(range(dm), range(dn)):
        mn, neg_nm = c.pair_mn[i][j], tuple(map(f.neg, c.pair_nm[j][i]))
        for law, by_mn, by_nm, dim in (
            ("first_block", "a_to_center_a", "b_to_center_a", da),
            ("second_block", "a_to_center_b", "b_to_center_b", db),
        ):
            terms = [(at[by_mn], None, mn), (at[by_nm], None, neg_nm)]
            equation(rows, f, ("pairing_match", Violation(law, (i, j))), dim, terms)
    return tuple(rows)


def _report(kind, bad, failing) -> PresentationReport:
    """``bad`` with the failing (condition, Violation) tags added."""
    for name, violation in failing:
        bad[name].append(violation)
    return PresentationReport(kind, {name: tuple(v) for name, v in bad.items()})


@_memo
def _diagonal_rows(g: GMAlgebra) -> tuple:
    """Each diagonal condition with the block rule it asks of on_a and on_b,
    lifted into vec(L): the first block's rows, then the second's, tagged
    (condition, Violation(rule_on_side, basis pair))."""
    c, d = g.context, g.algebra.dim
    blocks = (("a", c.a, g.offsets[0]), ("b", c.b, g.offsets[3]))
    out = []
    for condition, rule, law in (
        ("diagonal_lie", bracket_rows, "bracket_rule"),
        ("diagonal_derivation", product_rows, "product_rule"),
    ):
        lifted = tuple(
            lift(rule(x), x.dim, d, off, partial(_tag, condition, f"{law}_on_{side}"))
            for side, x, off in blocks
        )
        out.append((condition, lifted))
    return tuple(out)


def _tag(condition, law, where) -> tuple:
    return condition, Violation(law, where)


def _check_block_parts(g, parts, kind, conditions, cross_rows) -> PresentationReport:
    """The conditions shared by Lie derivations and derivations: the first,
    diagonal, condition reports only the first failing pair per block, and
    ``cross_rows`` are the conditions on the two cross maps."""
    flat = _flat(g, parts, _LIE_SHAPES)
    if (len(parts.shift_m), len(parts.shift_n)) != g.block_dims[1:3]:
        raise DimensionMismatch("shift element length mismatch")
    f, diagonal = g.field, dict(_diagonal_rows(g))[conditions[0]]
    firsts = (next(failing_tags(f, rows, flat), None) for rows in diagonal)
    rest = failing_tags(f, chain(cross_rows(g), _compat_rows(g)), flat)
    return _report(kind, {name: [] for name in conditions}, chain(filter(None, firsts), rest))


def check_lie_parts(g: GMAlgebra, parts: LiePresentation) -> PresentationReport:
    """Check the Lie presentation conditions on all basis tuples."""
    return _check_block_parts(g, parts, "lie", _LIE_CONDITIONS, _cross_central_rows)


def check_derivation_parts(g: GMAlgebra, parts: LiePresentation) -> PresentationReport:
    """Check the derivation presentation conditions on all basis tuples:
    those of a Lie presentation with zero cross maps and the product rule on
    the diagonal maps."""
    return _check_block_parts(g, parts, "derivation", _DERIVATION_CONDITIONS, _cross_zero_rows)


def check_central_parts(g: GMAlgebra, parts: CentralPresentation) -> PresentationReport:
    """Check the central presentation: commutators killed, block pairs
    central in the assembled algebra, pairings matched."""
    failing = failing_tags(g.field, _central_rows(g), _flat(g, parts, _CENTRAL_SHAPES))
    return _report("central", {name: [] for name in _CENTRAL_CONDITIONS}, failing)


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
    iso = analysis.center_iso
    iso_inv = inverse(iso)
    if iso_inv is None:
        raise ConsistencyError("center isomorphism is singular")
    companions = []
    for which, cross, source, target, through in (
        ("first", parts.a_to_center_b, analysis.proj_b, analysis.proj_a, iso_inv),
        ("second", parts.b_to_center_a, analysis.proj_a, analysis.proj_b, iso),
    ):
        cols = []
        for i in range(cross.cols):
            coords = source.coordinates(cross.column(i))
            if coords is None:
                raise PreconditionError(
                    f"cross-map image of {which}-diagonal basis element {i} "
                    "is outside the projected center"
                )
            cols.append(target.from_coordinates(through.apply(coords)))
        companions.append(Matrix.from_columns(g.field, cols, rows=cross.cols))
    return tuple(companions)


@dataclass(frozen=True)
class CriteriaReport:
    """Evaluation of the properness criteria for a Lie derivation.

    ``verdict`` is "proper" or "not_proper"; it stays None when both
    necessary conditions hold but the module is not faithful (the converse
    direction needs faithfulness).  Whenever a verdict is reached it has
    been cross-checked by the map's membership in the proper space.
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


_CRITERIA = ("range_a", "range_b", "central_pairs")


@_memo
def _criteria_rows(g: GMAlgebra) -> tuple:
    """The properness criteria over vec(L), reading only the blocks of the
    two cross maps: each first-diagonal cross image in ``proj_b``, tagged
    ("range_a", i); each second-diagonal one in ``proj_a``, ("range_b", j);
    and, for each (M, N) basis pair (m, n), b_to_center_a(nm) +
    a_to_center_b(mn) central, ("central_pairs", (i, j))."""
    an = center_analysis(g)
    c, f = g.context, g.field
    at = _layout(g, _LIE_SHAPES)
    rows = []
    for name, cross, proj in (
        ("range_a", "a_to_center_b", an.proj_b),
        ("range_b", "b_to_center_a", an.proj_a),
    ):
        membership = proj.membership_operator().transpose().entries
        _, _, dim, cols = at[cross]
        for i in range(cols):
            equation(rows, f, (name, i), dim, [(at[cross], membership, unit(f, cols, i))])
    on_a, on_b = _center_membership(g)
    for i, j in product(range(len(c.pair_mn)), range(len(c.pair_nm))):
        nm, mn = c.pair_nm[j][i], c.pair_mn[i][j]
        terms = [(at["b_to_center_a"], on_a, nm), (at["a_to_center_b"], on_b, mn)]
        equation(rows, f, ("central_pairs", (i, j)), g.algebra.dim, terms)
    return tuple(rows)


def _criteria_witnesses(g: GMAlgebra, flat) -> tuple:
    """First failing index of each properness criterion on the map with
    vec(L) ``flat``, or None where it holds: the first-diagonal basis
    element whose cross image leaves ``proj_b``, the second-diagonal one
    whose cross image leaves ``proj_a``, and the (M, N) basis pair whose
    cross-mapped pairings are not a central pair."""
    first = {}
    for name, where in failing_tags(g.field, _criteria_rows(g), flat):
        first.setdefault(name, where)
    return tuple(first.get(name) for name in _CRITERIA)


def properness_criteria(g: GMAlgebra, endo: EndoMap) -> CriteriaReport:
    """Evaluate the cross-map range conditions and the central-pair pairing
    condition on the components of the Lie derivation ``endo``; conclude
    properness when the module is faithful.

    A failed necessary condition concludes not-proper unconditionally; the
    proper conclusion additionally builds the explicit decomposition into a
    derivation plus a central map and re-validates it.  Every verdict is
    compared against membership of ``endo`` in the memoized proper space;
    disagreement raises :class:`ConsistencyError`.
    """
    _require_lie(g, endo)
    return _criteria(g, endo)


def _criteria(g: GMAlgebra, endo: EndoMap) -> CriteriaReport:
    """``properness_criteria`` of a map already known to be a Lie derivation."""
    parts = _verified(g, endo, _read_lie_parts(g, endo), _lie_flat, check_lie_parts)
    range_a, range_b, pairs = _criteria_witnesses(g, endo.flatten())
    # the center isomorphism exists exactly when M is faithful on both sides
    m_faithful = center_analysis(g).center_iso is not None

    verdict = None
    d_map = None
    c_map = None
    if (range_a, range_b, pairs) != (None, None, None):
        verdict = "not_proper"
    elif m_faithful:
        verdict = "proper"
        d_map, c_map = _build_decomposition(g, parts, endo)

    oracle_agrees = None
    if verdict is not None:
        oracle_agrees = proper_space(g).contains(endo) == (verdict == "proper")
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


def proper_maps_meet_criteria(g: GMAlgebra) -> bool:
    """The necessary direction on every proper map of the assembled algebra:
    both cross-map ranges lie inside the projected centers and the
    cross-mapped pairings are central pairs.  The criteria are rows over
    vec(L), linear in it, so the flat basis of the memoized proper space
    covers every proper map."""
    basis = proper_space(g).space.basis.entries
    return all(_criteria_witnesses(g, vec) == (None,) * len(_CRITERIA) for vec in basis)


def _build_decomposition(g: GMAlgebra, parts: LiePresentation, endo: EndoMap):
    """Derivation + central map splitting of ``endo``, built from the
    companion maps of its components ``parts``; each part must satisfy its
    presentation conditions."""
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
    d_map = _rebuild(g, d_parts, d_report, _lie_flat, is_derivation, "derivation")
    c_map = _rebuild(
        g, c_parts, c_report, _central_flat, is_central_commutator_free, "central map"
    )
    if d_map.matrix + c_map.matrix != endo.matrix:
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
    space = kernel(center(g.algebra).membership_operator() @ pair_map)

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
