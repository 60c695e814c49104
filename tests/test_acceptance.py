"""End-to-end acceptance checks.

One test per criterion; each prints a single pass/fail line (run with -s to
see them live).  All arithmetic is exact, so every equality below is exact:
the only tolerances are the stated wall-clock bounds.
"""

import time
from fractions import Fraction

import pytest

from gmalie.catalog import load_example
from gmalie.constructions import matrix_algebra
from gmalie.fields import GF
from gmalie.fuzzing import FuzzConfig, fuzz, generate_contexts
from gmalie.gma import assemble, center_analysis
from gmalie.morita import left_action_kernel, right_action_kernel
from gmalie.presentation import (
    check_derivation_parts,
    check_lie_parts,
    extract_derivation,
    extract_lie,
    properness_criteria,
    rebuild_derivation,
    rebuild_lie,
)
from gmalie.spaces import (
    EndoMap,
    derivation_space,
    has_lie_derivation_property,
    is_central_commutator_free,
    is_derivation,
    is_proper,
    lie_derivation_space,
)
from gmalie.theorems import all_theorem_checks
from gmalie.tristate import TriState

from helpers import derivation_nullity, matrix_unit_tensor


def _report(num, detail):
    print(f"criterion {num}: PASS ({detail})")


@pytest.fixture(scope="module")
def fuzzed_contexts():
    """The acceptance corpus: 200 generated contexts, half over GF(3) and
    half over GF(5), seed 1, every block dimension at most 2."""
    out = []
    for field in (GF(3), GF(5)):
        config = FuzzConfig(seed=1, count=100, field=field, max_dims=(2, 2, 2, 2))
        for label, ctx in generate_contexts(config):
            out.append((f"{field!r}:{label}", ctx, assemble(ctx)))
    return out


def test_criterion_1_counterexample_reproduced():
    start = time.monotonic()
    ws = load_example("example_sec4")
    g = ws.assembled("G")
    assert g.algebra.dim == 10
    assert g.field.characteristic == 0
    endo = EndoMap(ws.maps["L_paper"].matrix)
    assert lie_derivation_space(g).contains(endo)
    split = is_proper(g, endo)
    assert split.proper is False
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _report(1, f"non-proper Lie derivation reproduced in {elapsed:.2f}s")


def test_criterion_2_counterexample_structure_facts():
    ws = load_example("example_sec4")
    g = ws.assembled("G")
    ctx = ws.context("G")
    an = center_analysis(g)
    assert an.center.dim == 1
    assert an.proj_a.dim == 1
    from gmalie.algebra import analyze_algebra, center

    assert center(ctx.a).dim == 2
    assert not an.proj_a_is_center_a
    rep = analyze_algebra(ctx.a)
    assert rep.generated.space.dim == 1
    assert rep.generated.spans(ctx.a) is TriState.FAILS
    parts = extract_lie(g, EndoMap(ws.maps["L_paper"].matrix))
    # the nilpotent basis vectors sit at index 1 of each diagonal block
    assert parts.a_to_center_b.column(1) == (Fraction(0), Fraction(1))
    assert parts.b_to_center_a.column(1) == (Fraction(0), Fraction(1))
    range_a_ok = all(
        an.proj_b.contains_vector(parts.a_to_center_b.column(i)) for i in range(2)
    )
    assert not range_a_ok
    _report(2, "center, projections, generated subalgebra, cross maps")


def test_criterion_3_theorem_soundness_at_desk_scale():
    start = time.monotonic()
    for name in ("tri2_Q", "tri2_GF5", "mat2_GF3_peirce", "mat3_GF3_peirce"):
        g = load_example(name).assembled("G")
        verdicts = all_theorem_checks(g)
        held = [v for v in verdicts if v.overall is TriState.HOLDS]
        assert held, name
        assert all(v.oracle_agrees is True for v in held), name
        assert has_lie_derivation_property(g), name
        for endo in lie_derivation_space(g).basis_maps():
            split = is_proper(g, endo)
            assert split.proper, name
            assert is_derivation(g, split.derivation)
            assert is_central_commutator_free(g, split.central)
            assert split.derivation.matrix + split.central.matrix == endo.matrix
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(3, f"four contexts checked with witnesses in {elapsed:.2f}s")


def test_criterion_4_derivation_space_dimensions():
    for n, expected in ((2, 3), (3, 8)):
        a = matrix_algebra(GF(3), n)
        assert derivation_space(a).dim == expected
        assert derivation_nullity(matrix_unit_tensor(n, 3), 3) == expected
        assert expected == n * n - 1
    _report(4, "full matrix algebras have the classical inner-derivation count")


def test_criterion_5_presentation_round_trip(fuzzed_contexts):
    assert len(fuzzed_contexts) == 200
    checked = 0
    for label, ctx, g in fuzzed_contexts:
        for endo in lie_derivation_space(g).basis_maps():
            parts = extract_lie(g, endo)
            assert rebuild_lie(g, parts).matrix == endo.matrix, label
            assert check_lie_parts(g, parts).ok, label
            checked += 1
        for endo in derivation_space(g).basis_maps():
            parts = extract_derivation(g, endo)
            assert rebuild_derivation(g, parts).matrix == endo.matrix, label
            assert check_derivation_parts(g, parts).ok, label
    _report(5, f"round trips on {checked} basis Lie derivations of 200 contexts")


def test_criterion_6_cross_maps_kill_commutators_when_faithful(fuzzed_contexts):
    from gmalie.algebra import commutator_span

    checked = 0
    for label, ctx, g in fuzzed_contexts:
        faithful = (
            left_action_kernel(ctx.m).dim == 0 and right_action_kernel(ctx.m).dim == 0
        )
        if not faithful:
            continue
        comm_a = commutator_span(ctx.a).basis.entries
        comm_b = commutator_span(ctx.b).basis.entries
        zero_a = (g.field.zero,) * ctx.a.dim
        zero_b = (g.field.zero,) * ctx.b.dim
        for endo in lie_derivation_space(g).basis_maps():
            parts = extract_lie(g, endo)
            for w in comm_a:
                assert parts.a_to_center_b.apply(w) == zero_b, label
            for w in comm_b:
                assert parts.b_to_center_a.apply(w) == zero_a, label
            checked += 1
    assert checked > 0
    _report(6, f"{checked} extractions on faithful contexts")


def test_criterion_7_torsion_identity(fuzzed_contexts):
    checked = 0
    for label, ctx, g in fuzzed_contexts:
        assert g.field.characteristic != 2
        for endo in lie_derivation_space(g).basis_maps():
            parts = extract_lie(g, endo)
            for i in range(ctx.m.dim):
                em = ctx.m.basis_vector(i)
                for j in range(ctx.n.dim):
                    en = ctx.n.basis_vector(j)
                    lhs = ctx.m.act_left(
                        parts.b_to_center_a.apply(ctx.pair_nm_apply(en, em)), em
                    )
                    rhs = ctx.m.act_right(
                        em, parts.a_to_center_b.apply(ctx.pair_mn_apply(em, en))
                    )
                    assert lhs == rhs, label
                    checked += 1
    assert checked > 0
    _report(7, f"{checked} basis-pair identities")


def test_criterion_8_criteria_agree_with_oracle(fuzzed_contexts):
    checked = 0
    for label, ctx, g in fuzzed_contexts:
        faithful = (
            left_action_kernel(ctx.m).dim == 0 and right_action_kernel(ctx.m).dim == 0
        )
        if not faithful:
            continue
        for endo in lie_derivation_space(g).basis_maps():
            # a verdict/oracle mismatch raises ConsistencyError inside
            crit = properness_criteria(g, endo)
            assert crit.verdict is not None, label
            assert crit.oracle_agrees is True, label
            assert (crit.verdict == "proper") == is_proper(g, endo).proper, label
            checked += 1
    assert checked > 0
    _report(8, f"{checked} verdicts matched the oracle")


def test_criterion_9_fuzz_soundness():
    start = time.monotonic()
    report = fuzz(FuzzConfig(seed=1, count=100, field=GF(3), max_dims=(2, 2, 2, 2)))
    elapsed = time.monotonic() - start
    assert report.ok, report.soundness_violations
    assert len(report.entries) == 100
    assert elapsed < 300.0
    _report(9, f"100 contexts, zero soundness violations, {elapsed:.2f}s")
