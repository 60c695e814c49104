import random
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from gmalie.catalog import EXAMPLE_NAMES, load_example
from gmalie.constructions import (
    field_algebra,
    matrix_algebra,
    regular_bimodule,
    triangular_context,
)
from gmalie.errors import PreconditionError, Violation
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble, center_analysis, is_trivial, peirce
from gmalie.linalg import Matrix
from gmalie.presentation import (
    CentralPresentation,
    LiePresentation,
    _central_matrix,
    _criteria_witnesses,
    _lie_matrix,
    _read_lie_parts,
    central_pair_subalgebra,
    check_central_parts,
    check_derivation_parts,
    check_lie_parts,
    companion_central_maps,
    extract_central,
    extract_derivation,
    extract_lie,
    properness_criteria,
    rebuild_central,
    rebuild_derivation,
    rebuild_lie,
)
from gmalie.spaces import (
    EndoMap,
    central_map_space,
    derivation_space,
    is_proper,
    lie_defect,
    lie_derivation_space,
)

from helpers import (
    reference_center_iso,
    reference_central_matrix,
    reference_central_parts_report,
    reference_criteria_witnesses,
    reference_derivation_parts_report,
    reference_lie_matrix,
    reference_lie_parts_report,
)


def _e11(f, n):
    vec = [f.zero] * (n * n)
    vec[0] = f.one
    return tuple(vec)


def _sec4():
    ws = load_example("example_sec4")
    return ws.assembled("G"), EndoMap(ws.maps["L_paper"].matrix)


def _mat2_peirce(field=GF(3)):
    return assemble(peirce(matrix_algebra(field, 2), _e11(field, 2)))


def test_zero_map_has_zero_components():
    g, _ = _sec4()
    parts = extract_lie(g, EndoMap(Matrix.zeros(QQ, 10, 10)))
    assert parts.on_a.is_zero() and parts.on_b.is_zero()
    assert parts.on_m.is_zero() and parts.on_n.is_zero()
    assert parts.a_to_center_b.is_zero() and parts.b_to_center_a.is_zero()
    assert all(x == 0 for x in parts.shift_m + parts.shift_n)


def test_bundled_map_components():
    g, endo = _sec4()
    parts = extract_lie(g, endo)
    # the nilpotent of the first block maps to the nilpotent of the second
    assert parts.a_to_center_b.column(1) == (Fraction(0), Fraction(1))
    assert parts.b_to_center_a.column(1) == (Fraction(0), Fraction(1))
    assert parts.a_to_center_b.column(0) == (Fraction(0), Fraction(0))
    assert parts.shift_m == (Fraction(0),) * 3
    assert parts.shift_n == (Fraction(0),) * 3
    assert check_lie_parts(g, parts).ok


def test_inner_derivation_extraction():
    g = _mat2_peirce()
    rng = random.Random(31)
    for _ in range(5):
        x = tuple(rng.randrange(3) for _ in range(4))
        ad = EndoMap(g.algebra.left_mult(x) - g.algebra.right_mult(x))
        parts = extract_derivation(g, ad)
        _, mx, nx, _ = g.project(x)
        f = g.field
        assert parts.shift_m == tuple(f.neg(v) for v in mx)
        assert parts.shift_n == nx
        assert check_derivation_parts(g, parts).ok
        lie_parts = extract_lie(g, ad)
        assert lie_parts.a_to_center_b.is_zero()
        assert lie_parts.b_to_center_a.is_zero()


@pytest.mark.parametrize(
    "make",
    [
        lambda: _sec4()[0],
        _mat2_peirce,
        lambda: assemble(
            triangular_context(
                field_algebra(QQ), regular_bimodule(field_algebra(QQ)), field_algebra(QQ)
            )
        ),
    ],
)
def test_round_trip_on_every_basis_lie_derivation(make):
    g = make()
    for endo in lie_derivation_space(g).basis_maps():
        parts = extract_lie(g, endo)
        assert rebuild_lie(g, parts).matrix == endo.matrix
        assert check_lie_parts(g, parts).ok
    for endo in derivation_space(g).basis_maps():
        parts = extract_derivation(g, endo)
        assert rebuild_derivation(g, parts).matrix == endo.matrix
        assert check_derivation_parts(g, parts).ok


def test_central_extraction_round_trip():
    g, _ = _sec4()
    for endo in central_map_space(g).basis_maps():
        parts = extract_central(g, endo)
        assert rebuild_central(g, parts).matrix == endo.matrix
        assert check_central_parts(g, parts).ok


def test_extract_rejects_non_lie_maps():
    g = _mat2_peirce()
    bad = [[0] * 4 for _ in range(4)]
    bad[1][2] = 1  # sends the lower corner into the upper: not a Lie derivation
    with pytest.raises(PreconditionError):
        extract_lie(g, EndoMap(Matrix(GF(3), bad)))


def test_perturbed_module_map_breaks_pairing_condition():
    g = _mat2_peirce()
    base = extract_lie(g, lie_derivation_space(g).basis_maps()[0])
    bumped = [list(r) for r in base.on_m.entries]
    bumped[0][0] = (bumped[0][0] + 1) % 3
    parts = LiePresentation(
        on_a=base.on_a,
        on_b=base.on_b,
        on_m=Matrix(GF(3), bumped),
        on_n=base.on_n,
        a_to_center_b=base.a_to_center_b,
        b_to_center_a=base.b_to_center_a,
        shift_m=base.shift_m,
        shift_n=base.shift_n,
    )
    report = check_lie_parts(g, parts)
    assert "pairing_compat" in report.failed
    rebuilt = rebuild_lie(g, parts)
    assert lie_defect(g.algebra, rebuilt) is not None


def test_companion_maps_zero_and_identity_cases():
    g = _mat2_peirce()
    zero_parts = extract_lie(g, EndoMap(Matrix.zeros(GF(3), 4, 4)))
    comp_a, comp_b = companion_central_maps(g, zero_parts)
    assert comp_a.is_zero() and comp_b.is_zero()

    tri = assemble(
        triangular_context(
            field_algebra(QQ), regular_bimodule(field_algebra(QQ)), field_algebra(QQ)
        )
    )
    an = center_analysis(tri)
    assert an.center_iso.to_lists() == [[1]]
    for endo in lie_derivation_space(tri).basis_maps():
        parts = extract_lie(tri, endo)
        comp_a, comp_b = companion_central_maps(tri, parts)
        # the isomorphism is the identity scalar, so companions equal crosses
        assert comp_a.entries == parts.a_to_center_b.entries
        assert comp_b.entries == parts.b_to_center_a.entries


def test_companion_maps_fail_on_the_counterexample():
    g, endo = _sec4()
    parts = extract_lie(g, endo)
    with pytest.raises(PreconditionError, match="element 1"):
        companion_central_maps(g, parts)


def test_criteria_on_the_counterexample():
    g, endo = _sec4()
    crit = properness_criteria(g, endo)
    assert not crit.range_a_ok and crit.range_a_witness == 1
    assert not crit.range_b_ok and crit.range_b_witness == 1
    assert crit.central_pairs_ok  # zero pairings make this vacuous
    assert crit.m_faithful
    assert crit.verdict == "not_proper"
    assert crit.oracle_agrees is True


def test_criteria_refuse_a_map_that_is_not_a_lie_derivation():
    g = _mat2_peirce()
    # e12 -> e11, everything else to zero
    not_lie = Matrix(g.field, [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
    with pytest.raises(PreconditionError, match=r"bracket rule fails on basis pair \(0, 1\)"):
        properness_criteria(g, EndoMap(not_lie))


def test_criteria_on_derivations_have_clean_ranges():
    g = _mat2_peirce()
    for endo in derivation_space(g).basis_maps():
        crit = properness_criteria(g, endo)
        assert crit.range_a_ok and crit.range_b_ok and crit.central_pairs_ok
        assert crit.verdict == "proper"
        assert crit.derivation is not None and crit.central is not None


def test_criteria_agree_with_oracle_on_peirce_basis():
    g = _mat2_peirce()
    for endo in lie_derivation_space(g).basis_maps():
        crit = properness_criteria(g, endo)
        assert crit.oracle_agrees is True
        split = is_proper(g, endo)
        assert (crit.verdict == "proper") == split.proper
        if crit.verdict == "proper":
            assert crit.derivation.matrix + crit.central.matrix == endo.matrix


@lru_cache(maxsize=None)
def _paired_contexts():
    """The two matrix Peirce examples, and the contexts of a GF(3) and a QQ
    fuzz slice with nonzero pairings and a projected center smaller than its
    block (elsewhere no range criterion can fail)."""
    out = [load_example(name).assembled("G") for name in ("mat2_GF3_peirce", "mat3_GF3_peirce")]
    for f, count in ((GF(3), 40), (QQ, 20)):
        for _, ctx in generate_contexts(FuzzConfig(seed=1, count=count, field=f, max_dims=(3,) * 4)):
            g = assemble(ctx)
            an = center_analysis(g)
            smaller = (an.proj_a.dim, an.proj_b.dim) != (ctx.a.dim, ctx.b.dim)
            if smaller and not is_trivial(ctx):
                out.append(g)
    return tuple(out)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_criteria_witnesses_match_the_per_criterion_loops(data):
    g = data.draw(st.sampled_from(_paired_contexts()))
    f = g.field
    start = lie_derivation_space(g).basis_maps() + (EndoMap.zero(f, g.algebra.dim),)
    parts = _read_lie_parts(g, data.draw(st.sampled_from(start)))
    crosses = {"a_to_center_b": parts.a_to_center_b, "b_to_center_a": parts.b_to_center_a}
    for name, cross in crosses.items():
        rows = cross.to_lists()
        for _ in range(data.draw(st.integers(0, 2))):
            r = data.draw(st.integers(0, cross.rows - 1))
            c = data.draw(st.integers(0, cross.cols - 1))
            rows[r][c] = f.add(rows[r][c], f.of(data.draw(st.integers(-2, 2))))
        crosses[name] = Matrix(f, rows, cols=cross.cols)
    parts = replace(parts, **crosses)
    assert _criteria_witnesses(g, parts) == reference_criteria_witnesses(g, parts)


def test_central_pairs_witness_is_the_first_pair_in_row_major_order():
    # on M_3 at e11 the off-diagonal pairs (0, 1) and (1, 0) fail exactly
    # when the second cross map is nonzero on the matching units of B; here
    # both fail and (0, 0) holds
    g = load_example("mat3_GF3_peirce").assembled("G")
    parts = _read_lie_parts(g, EndoMap.zero(g.field, g.algebra.dim))
    parts = replace(parts, b_to_center_a=Matrix(g.field, [[0, 1, 1, 0]], cols=4))
    assert reference_criteria_witnesses(g, parts) == (None, None, (0, 1))
    assert _criteria_witnesses(g, parts) == (None, None, (0, 1))


def test_central_pair_subalgebra_everything_when_maps_vanish():
    g = _mat2_peirce()
    parts = extract_lie(g, EndoMap(Matrix.zeros(GF(3), 4, 4)))
    rep = central_pair_subalgebra(g, Matrix.zeros(GF(3), 1, 1), parts)
    assert rep.space.dim == g.context.a.dim
    assert rep.contains_commutators and rep.contains_idempotents
    assert rep.equals_cross_preimage


def test_central_pair_subalgebra_on_counterexample():
    g, endo = _sec4()
    parts = extract_lie(g, endo)
    rep = central_pair_subalgebra(g, Matrix.zeros(QQ, 2, 2), parts)
    assert rep.space.basis.to_lists() == [[1, 0]]
    assert rep.cross_preimage == rep.space
    assert rep.equals_cross_preimage
    assert rep.contains_commutators and rep.contains_idempotents
    assert rep.derivation_compatible  # diagonal part is zero


def test_rebuild_checks_reject_shape_mismatches():
    from gmalie.errors import DimensionMismatch

    g = _mat2_peirce()
    with pytest.raises(DimensionMismatch):
        rebuild_central(
            g,
            CentralPresentation(
                a_to_center_a=Matrix.zeros(GF(3), 2, 2),
                b_to_center_a=Matrix.zeros(GF(3), 1, 1),
                a_to_center_b=Matrix.zeros(GF(3), 1, 1),
                b_to_center_b=Matrix.zeros(GF(3), 1, 1),
            ),
        )


# -- pinned condition reports ---------------------------------------------------

LIE_CONDITIONS = (
    "diagonal_lie",
    "cross_central",
    "cross_kill_commutators",
    "m_compat",
    "n_compat",
    "pairing_compat",
)
DERIVATION_CONDITIONS = (
    "diagonal_derivation",
    "cross_zero",
    "m_compat",
    "n_compat",
    "pairing_compat",
)
BUMPED = ("on_a", "on_b", "on_m", "on_n", "shift_m", "a_to_center_b", "b_to_center_a")

# (example, kind, bumped component) -> the nonempty conditions of the report,
# each as its (law, where) list.  The base presentation is that of the sum of
# the basis Lie derivations (kind "lie") or derivations (kind "derivation");
# the bump adds one to the first entry of the component.
PINNED_REPORTS = {
    ("mat2_GF3_peirce", "lie", "on_a"): {
        "m_compat": [("left_product", (0, 0))],
        "n_compat": [("right_product", (0, 0))],
        "pairing_compat": [("first_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "lie", "on_b"): {
        "m_compat": [("right_product", (0, 0))],
        "n_compat": [("left_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "lie", "on_m"): {
        "pairing_compat": [("first_block", (0, 0)), ("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "lie", "on_n"): {
        "pairing_compat": [("first_block", (0, 0)), ("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "lie", "shift_m"): {},
    ("mat2_GF3_peirce", "lie", "a_to_center_b"): {
        "m_compat": [("left_product", (0, 0))],
        "n_compat": [("right_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "lie", "b_to_center_a"): {
        "m_compat": [("right_product", (0, 0))],
        "n_compat": [("left_product", (0, 0))],
        "pairing_compat": [("first_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "derivation", "on_a"): {
        "diagonal_derivation": [("product_rule_on_a", (0, 0))],
        "m_compat": [("left_product", (0, 0))],
        "n_compat": [("right_product", (0, 0))],
        "pairing_compat": [("first_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "derivation", "on_b"): {
        "diagonal_derivation": [("product_rule_on_b", (0, 0))],
        "m_compat": [("right_product", (0, 0))],
        "n_compat": [("left_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "derivation", "on_m"): {
        "pairing_compat": [("first_block", (0, 0)), ("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "derivation", "on_n"): {
        "pairing_compat": [("first_block", (0, 0)), ("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "derivation", "shift_m"): {},
    ("mat2_GF3_peirce", "derivation", "a_to_center_b"): {
        "cross_zero": [("a_to_center_b_value", (0,))],
        "m_compat": [("left_product", (0, 0))],
        "n_compat": [("right_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "derivation", "b_to_center_a"): {
        "cross_zero": [("b_to_center_a_value", (0,))],
        "m_compat": [("right_product", (0, 0))],
        "n_compat": [("left_product", (0, 0))],
        "pairing_compat": [("first_block", (0, 0))],
    },
    ("mat3_GF3_peirce", "lie", "on_a"): {
        "m_compat": [("left_product", (0, 0)), ("left_product", (0, 1))],
        "n_compat": [("right_product", (0, 0)), ("right_product", (1, 0))],
        "pairing_compat": [("first_block", (0, 0)), ("first_block", (1, 1))],
    },
    ("mat3_GF3_peirce", "lie", "on_b"): {
        "diagonal_lie": [("bracket_rule_on_b", (0, 1))],
        "m_compat": [("right_product", (0, 0))],
        "n_compat": [("left_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0))],
    },
    ("mat3_GF3_peirce", "lie", "on_m"): {
        "m_compat": [("right_product", (0, 1)), ("right_product", (1, 2))],
        "pairing_compat": [
            ("first_block", (0, 0)),
            ("second_block", (0, 0)),
            ("second_block", (0, 1)),
        ],
    },
    ("mat3_GF3_peirce", "lie", "on_n"): {
        "n_compat": [("left_product", (1, 1)), ("left_product", (2, 0))],
        "pairing_compat": [
            ("first_block", (0, 0)),
            ("second_block", (0, 0)),
            ("second_block", (1, 0)),
        ],
    },
    ("mat3_GF3_peirce", "lie", "shift_m"): {},
    ("mat3_GF3_peirce", "lie", "a_to_center_b"): {
        "cross_central": [("a_to_center_b_value", (0,))],
        "m_compat": [("left_product", (0, 0))],
        "n_compat": [("right_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0)), ("second_block", (1, 1))],
    },
    ("mat3_GF3_peirce", "lie", "b_to_center_a"): {
        "cross_kill_commutators": [("b_commutator", (0,))],
        "m_compat": [("right_product", (0, 0)), ("right_product", (1, 0))],
        "n_compat": [("left_product", (0, 0)), ("left_product", (0, 1))],
        "pairing_compat": [("first_block", (0, 0))],
    },
    ("mat3_GF3_peirce", "derivation", "on_a"): {
        "diagonal_derivation": [("product_rule_on_a", (0, 0))],
        "m_compat": [("left_product", (0, 0)), ("left_product", (0, 1))],
        "n_compat": [("right_product", (0, 0)), ("right_product", (1, 0))],
        "pairing_compat": [("first_block", (0, 0)), ("first_block", (1, 1))],
    },
    ("mat3_GF3_peirce", "derivation", "on_b"): {
        "diagonal_derivation": [("product_rule_on_b", (0, 0))],
        "m_compat": [("right_product", (0, 0))],
        "n_compat": [("left_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0))],
    },
    ("mat3_GF3_peirce", "derivation", "on_m"): {
        "m_compat": [("right_product", (0, 1)), ("right_product", (1, 2))],
        "pairing_compat": [
            ("first_block", (0, 0)),
            ("second_block", (0, 0)),
            ("second_block", (0, 1)),
        ],
    },
    ("mat3_GF3_peirce", "derivation", "on_n"): {
        "n_compat": [("left_product", (1, 1)), ("left_product", (2, 0))],
        "pairing_compat": [
            ("first_block", (0, 0)),
            ("second_block", (0, 0)),
            ("second_block", (1, 0)),
        ],
    },
    ("mat3_GF3_peirce", "derivation", "shift_m"): {},
    ("mat3_GF3_peirce", "derivation", "a_to_center_b"): {
        "cross_zero": [("a_to_center_b_value", (0,))],
        "m_compat": [("left_product", (0, 0))],
        "n_compat": [("right_product", (0, 0))],
        "pairing_compat": [("second_block", (0, 0)), ("second_block", (1, 1))],
    },
    ("mat3_GF3_peirce", "derivation", "b_to_center_a"): {
        "cross_zero": [("b_to_center_a_value", (0,))],
        "m_compat": [("right_product", (0, 0)), ("right_product", (1, 0))],
        "n_compat": [("left_product", (0, 0)), ("left_product", (0, 1))],
        "pairing_compat": [("first_block", (0, 0))],
    },
    ("example_sec4", "lie", "on_a"): {
        "m_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
        "n_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
    },
    ("example_sec4", "lie", "on_b"): {
        "m_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
        "n_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
    },
    ("example_sec4", "lie", "on_m"): {
        "m_compat": [("left_product", (1, 0)), ("right_product", (0, 1))],
    },
    ("example_sec4", "lie", "on_n"): {
        "n_compat": [("right_product", (0, 1)), ("left_product", (1, 0))],
    },
    ("example_sec4", "lie", "shift_m"): {},
    ("example_sec4", "lie", "a_to_center_b"): {
        "m_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
        "n_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
    },
    ("example_sec4", "lie", "b_to_center_a"): {
        "m_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
        "n_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
    },
    ("example_sec4", "derivation", "on_a"): {
        "diagonal_derivation": [("product_rule_on_a", (0, 0))],
        "m_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
        "n_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
    },
    ("example_sec4", "derivation", "on_b"): {
        "diagonal_derivation": [("product_rule_on_b", (0, 0))],
        "m_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
        "n_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
    },
    ("example_sec4", "derivation", "on_m"): {
        "m_compat": [("left_product", (1, 0)), ("right_product", (0, 1))],
    },
    ("example_sec4", "derivation", "on_n"): {
        "n_compat": [("right_product", (0, 1)), ("left_product", (1, 0))],
    },
    ("example_sec4", "derivation", "shift_m"): {},
    ("example_sec4", "derivation", "a_to_center_b"): {
        "cross_zero": [("a_to_center_b_value", (0,))],
        "m_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
        "n_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
    },
    ("example_sec4", "derivation", "b_to_center_a"): {
        "cross_zero": [("b_to_center_a_value", (0,))],
        "m_compat": [
            ("right_product", (0, 0)),
            ("right_product", (1, 0)),
            ("right_product", (2, 0)),
        ],
        "n_compat": [("left_product", (0, 0)), ("left_product", (0, 1)), ("left_product", (0, 2))],
    },
}


CENTRAL_CONDITIONS = ("kill_commutators", "central_pairs", "pairing_match")
CENTRAL_BUMPED = ("a_to_center_a", "b_to_center_a", "a_to_center_b", "b_to_center_b")

# (example, bumped component) -> the nonempty conditions of the central
# report, as above; the base presentation is that of the sum of the basis
# central maps.
PINNED_CENTRAL_REPORTS = {
    ("mat2_GF3_peirce", "a_to_center_a"): {
        "central_pairs": [("first_diagonal", (0,))],
        "pairing_match": [("first_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "b_to_center_a"): {
        "central_pairs": [("second_diagonal", (0,))],
        "pairing_match": [("first_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "a_to_center_b"): {
        "central_pairs": [("first_diagonal", (0,))],
        "pairing_match": [("second_block", (0, 0))],
    },
    ("mat2_GF3_peirce", "b_to_center_b"): {
        "central_pairs": [("second_diagonal", (0,))],
        "pairing_match": [("second_block", (0, 0))],
    },
    ("mat3_GF3_peirce", "a_to_center_a"): {
        "central_pairs": [("first_diagonal", (0,))],
        "pairing_match": [("first_block", (0, 0)), ("first_block", (1, 1))],
    },
    ("mat3_GF3_peirce", "b_to_center_a"): {
        "kill_commutators": [("b_to_center_a", (0,))],
        "central_pairs": [("second_diagonal", (0,))],
        "pairing_match": [("first_block", (0, 0))],
    },
    ("mat3_GF3_peirce", "a_to_center_b"): {
        "central_pairs": [("first_diagonal", (0,))],
        "pairing_match": [("second_block", (0, 0)), ("second_block", (1, 1))],
    },
    ("mat3_GF3_peirce", "b_to_center_b"): {
        "kill_commutators": [("b_to_center_b", (0,))],
        "central_pairs": [("second_diagonal", (0,))],
        "pairing_match": [("second_block", (0, 0))],
    },
    ("example_sec4", "a_to_center_a"): {"central_pairs": [("first_diagonal", (0,))]},
    ("example_sec4", "b_to_center_a"): {"central_pairs": [("second_diagonal", (0,))]},
    ("example_sec4", "a_to_center_b"): {"central_pairs": [("first_diagonal", (0,))]},
    ("example_sec4", "b_to_center_b"): {"central_pairs": [("second_diagonal", (0,))]},
}


def _bumped(f, parts, component):
    value = getattr(parts, component)
    if isinstance(value, tuple):
        return replace(parts, **{component: (f.add(value[0], f.one),) + value[1:]})
    rows = [list(r) for r in value.entries]
    rows[0][0] = f.add(rows[0][0], f.one)
    return replace(parts, **{component: Matrix(f, rows)})


def _sum_of_basis(g, space):
    total = EndoMap(Matrix.zeros(g.field, g.algebra.dim, g.algebra.dim))
    for endo in space.basis_maps():
        total = total + endo
    return total


@pytest.mark.parametrize("example", ["mat2_GF3_peirce", "mat3_GF3_peirce", "example_sec4"])
def test_perturbed_presentation_reports_are_pinned(example):
    g = load_example(example).assembled("G")
    cases = (
        ("lie", check_lie_parts, LIE_CONDITIONS, extract_lie, lie_derivation_space),
        (
            "derivation",
            check_derivation_parts,
            DERIVATION_CONDITIONS,
            extract_derivation,
            derivation_space,
        ),
    )
    for kind, check, conditions, extract, space in cases:
        base = extract(g, _sum_of_basis(g, space(g)))
        for component in BUMPED:
            report = check(g, _bumped(g.field, base, component))
            pinned = PINNED_REPORTS[(example, kind, component)]
            got = [(k, [(v.law, v.where) for v in vs]) for k, vs in report.violations.items()]
            assert got == [(k, pinned.get(k, [])) for k in conditions], (kind, component)


@pytest.mark.parametrize("example", ["mat2_GF3_peirce", "mat3_GF3_peirce", "example_sec4"])
def test_perturbed_central_reports_are_pinned(example):
    g = load_example(example).assembled("G")
    base = extract_central(g, _sum_of_basis(g, central_map_space(g)))
    assert check_central_parts(g, base).ok
    for component in CENTRAL_BUMPED:
        report = check_central_parts(g, _bumped(g.field, base, component))
        pinned = PINNED_CENTRAL_REPORTS[(example, component)]
        got = [(k, [(v.law, v.where) for v in vs]) for k, vs in report.violations.items()]
        assert got == [(k, pinned.get(k, [])) for k in CENTRAL_CONDITIONS], component


def test_derivation_check_flags_nonzero_cross_maps():
    g, endo = _sec4()
    report = check_derivation_parts(g, extract_lie(g, endo))
    assert report.kind == "derivation"
    assert report.failed[0] == "cross_zero"
    assert report.violations["cross_zero"] == (
        Violation("a_to_center_b_value", (1,)),
        Violation("b_to_center_a_value", (1,)),
    )
    assert check_lie_parts(g, extract_lie(g, endo)).ok
    with pytest.raises(PreconditionError, match="not a derivation"):
        extract_derivation(g, endo)


@lru_cache(maxsize=None)
def _report_contexts():
    """The six examples, then the contexts of the GF(3) and QQ fuzz slices
    whose algebras the rule pins use."""
    out = []
    for name in EXAMPLE_NAMES:
        ws = load_example(name)
        out.append(ws.assembled(ws.sole_context_name()))
    for f in (GF(3), QQ):
        contexts = generate_contexts(FuzzConfig(seed=1, count=30, field=f))
        out.extend(assemble(ctx) for _, ctx in contexts)
    return tuple(out)


# the components the Lie and derivation conditions read: all but the shifts
LIE_COMPONENTS = ("on_a", "on_b", "on_m", "on_n", "a_to_center_b", "b_to_center_a")
REPORT_CASES = {
    "lie": (check_lie_parts, reference_lie_parts_report, lie_derivation_space),
    "derivation": (check_derivation_parts, reference_derivation_parts_report, derivation_space),
    "central": (check_central_parts, reference_central_parts_report, central_map_space),
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_reports_agree_with_the_element_wise_loops(data):
    g = data.draw(st.sampled_from(_report_contexts()))
    kind = data.draw(st.sampled_from(sorted(REPORT_CASES)))
    check, reference, space = REPORT_CASES[kind]
    f = g.field
    endo = data.draw(st.sampled_from(space(g).basis_maps() + (EndoMap.zero(f, g.algebra.dim),)))
    parts = extract_central(g, endo) if kind == "central" else _read_lie_parts(g, endo)
    entries = st.integers(-2, 2).map(f.of)
    changed = {}
    for name in CENTRAL_BUMPED if kind == "central" else LIE_COMPONENTS:
        mat = getattr(parts, name)
        if not mat.rows or not mat.cols:
            continue
        if data.draw(st.booleans()):
            # a random component
            rows = [[data.draw(entries) for _ in range(mat.cols)] for _ in range(mat.rows)]
        else:
            rows = mat.to_lists()
            for _ in range(data.draw(st.integers(0, 2))):
                r = data.draw(st.integers(0, mat.rows - 1))
                c = data.draw(st.integers(0, mat.cols - 1))
                rows[r][c] = f.add(rows[r][c], data.draw(entries))
        changed[name] = Matrix(f, rows, cols=mat.cols)
    parts = replace(parts, **changed)
    got, expected = check(g, parts), reference(g, parts)
    assert got.kind == expected.kind
    assert list(got.violations.items()) == list(expected.violations.items())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_placed_blocks_match_the_column_by_column_rebuild(data):
    g = data.draw(st.sampled_from(_report_contexts()))
    f = g.field
    dims = dict(zip("amnb", g.block_dims))
    entries = st.integers(-2, 2).map(f.of)

    def matrix(rows, cols):
        grid = [[data.draw(entries) for _ in range(dims[cols])] for _ in range(dims[rows])]
        return Matrix(f, grid, cols=dims[cols])

    def vector(block):
        return tuple(data.draw(entries) for _ in range(dims[block]))

    parts = LiePresentation(
        matrix("a", "a"), matrix("b", "b"), matrix("m", "m"), matrix("n", "n"),
        matrix("b", "a"), matrix("a", "b"), vector("m"), vector("n"),
    )
    lie = _lie_matrix(g, parts)
    assert lie == reference_lie_matrix(g, parts)
    assert _read_lie_parts(g, EndoMap(lie)) == parts
    central = CentralPresentation(matrix("a", "a"), matrix("a", "b"), matrix("b", "a"), matrix("b", "b"))
    assert _central_matrix(g, central) == reference_central_matrix(g, central)


def test_center_iso_matches_the_module_action_solve():
    faithful = 0
    for g in _report_contexts():
        expected = reference_center_iso(g)
        assert center_analysis(g).center_iso == expected
        faithful += expected is not None
    assert faithful >= 50
