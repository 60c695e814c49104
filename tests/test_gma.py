import random
from fractions import Fraction

import pytest

from gmalie.algebra import center, structure_violations
from gmalie.constructions import (
    ambient_commutative_context,
    field_algebra,
    matrix_algebra,
    regular_bimodule,
    scale_pairings,
    triangular_context,
    trivial_context,
    upper_triangular_algebra,
)
from gmalie.errors import PreconditionError, ValidationFailure
from gmalie.fields import GF, QQ
from gmalie.gma import (
    assemble,
    center_analysis,
    gma_structure_tensor,
    is_trivial,
    peirce,
    peirce_embedding,
)
from gmalie.linalg import rref
from gmalie.morita import MoritaContext

from helpers import record_structure_checks


def _e11(f, n):
    vec = [f.zero] * (n * n)
    vec[0] = f.one
    return tuple(vec)


def _tri2_context(field):
    one = field_algebra(field)
    return triangular_context(one, regular_bimodule(one), one)


def test_triangular_assembly_equals_upper_triangular_algebra():
    g = assemble(_tri2_context(QQ))
    t2 = upper_triangular_algebra(QQ, 2)
    assert g.algebra.dim == 3
    assert g.algebra.structure == t2.structure
    assert g.algebra.unit == t2.unit


def test_counterexample_assembles_to_dimension_ten():
    g = assemble(ambient_commutative_context(QQ))
    assert g.algebra.dim == 10
    assert g.block_dims == (2, 3, 3, 2)
    assert is_trivial(g.context)


def test_invalid_context_rejected_with_report():
    ctx = peirce(matrix_algebra(QQ, 2), _e11(QQ, 2))
    doubled = tuple(
        tuple(tuple(x * 2 for x in row) for row in plane) for plane in ctx.pair_mn
    )
    corrupt = MoritaContext(ctx.a, ctx.b, ctx.m, ctx.n, doubled, ctx.pair_nm)
    with pytest.raises(ValidationFailure, match="invalid Morita context: diagram_m") as info:
        assemble(corrupt)
    laws = [v.law for v in info.value.violations]
    assert laws[0] == "diagram_m"
    assert "associativity" not in laws
    # and the raw block tensor is genuinely non-associative
    tensor = gma_structure_tensor(corrupt)
    unit = tuple(ctx.a.unit) + (QQ.zero,) * 2 + tuple(ctx.b.unit)
    bad = structure_violations(QQ, 4, tensor, unit)
    assert any(v.law == "associativity" for v in bad)


def test_valid_contexts_assemble_associatively():
    for ctx in (
        peirce(matrix_algebra(GF(3), 2), _e11(GF(3), 2)),
        scale_pairings(peirce(matrix_algebra(GF(5), 2), _e11(GF(5), 2)), 3),
        ambient_commutative_context(GF(7)),
    ):
        tensor = gma_structure_tensor(ctx)
        da, dm, dn, db = ctx.block_dims
        unit = (
            tuple(ctx.a.unit)
            + (ctx.field.zero,) * (dm + dn)
            + tuple(ctx.b.unit)
        )
        assert structure_violations(ctx.field, sum(ctx.block_dims), tensor, unit) == []


def test_project_embed_roundtrip():
    g = assemble(ambient_commutative_context(QQ))
    rng = random.Random(4)
    vec = tuple(Fraction(rng.randint(-3, 3)) for _ in range(10))
    a, m, n, b = g.project(vec)
    assert g.embed(a, m, n, b) == vec
    assert g.project(g.algebra.unit) == (
        g.context.a.unit,
        (Fraction(0),) * 3,
        (Fraction(0),) * 3,
        g.context.b.unit,
    )


def test_block_product_formula_on_random_elements():
    ctx = peirce(matrix_algebra(GF(3), 2), _e11(GF(3), 2))
    g = assemble(ctx)
    rng = random.Random(8)
    for _ in range(10):
        x = tuple(rng.randrange(3) for _ in range(4))
        y = tuple(rng.randrange(3) for _ in range(4))
        ax, mx, nx, bx = g.project(x)
        ay, my, ny, by = g.project(y)
        prod_a, _, _, _ = g.project(g.algebra.multiply(x, y))
        f = g.field
        expect = tuple(
            f.add(u, v)
            for u, v in zip(ctx.a.multiply(ax, ay), ctx.pair_mn_apply(mx, ny))
        )
        assert prod_a == expect


def test_center_analysis_triangular():
    g = assemble(_tri2_context(QQ))
    an = center_analysis(g)
    # the center is the diagonal pairs (a, 0, a)
    assert an.center.basis.to_lists() == [[1, 0, 1]]
    assert an.proj_a_is_center_a and an.proj_b_is_center_b
    assert an.center_iso.to_lists() == [[1]]


def test_center_analysis_counterexample():
    g = assemble(ambient_commutative_context(QQ))
    an = center_analysis(g)
    assert an.center.dim == 1
    assert an.proj_a.dim == 1 and an.proj_b.dim == 1
    assert not an.proj_a_is_center_a and not an.proj_b_is_center_b
    assert center(g.context.a).dim == 2
    assert an.center_iso is not None  # the module is faithful
    assert an.center_iso.to_lists() == [[1]]


def test_center_analysis_peirce_projections_surject():
    g = assemble(peirce(matrix_algebra(GF(3), 2), _e11(GF(3), 2)))
    an = center_analysis(g)
    assert an.proj_a_is_center_a and an.proj_b_is_center_b
    assert an.center_iso is not None


def test_peirce_block_dimensions():
    ctx = peirce(matrix_algebra(QQ, 2), _e11(QQ, 2))
    assert ctx.block_dims == (1, 1, 1, 1)
    ctx3 = peirce(matrix_algebra(GF(3), 3), _e11(GF(3), 3))
    assert ctx3.block_dims == (1, 2, 2, 4)


def test_peirce_rejects_trivial_or_fake_idempotents():
    a = matrix_algebra(QQ, 2)
    with pytest.raises(PreconditionError):
        peirce(a, a.unit)
    with pytest.raises(PreconditionError):
        peirce(a, a.zero())
    with pytest.raises(PreconditionError):
        peirce(a, a.basis_vector(1))  # e12 is nilpotent


def test_peirce_embedding_rejects_trivial_idempotents():
    # at 0 or 1 one corner is all of A and the others vanish: the identity
    # matrix, silently, if the idempotent went unchecked
    a = matrix_algebra(QQ, 2)
    for idem in (a.unit, a.zero()):
        with pytest.raises(PreconditionError, match="nontrivial idempotent"):
            peirce_embedding(a, idem)


@pytest.mark.parametrize(
    "algebra,idem_index",
    [
        (matrix_algebra(GF(3), 2), None),
        (matrix_algebra(GF(3), 3), None),
        (upper_triangular_algebra(QQ, 2), 0),
    ],
)
def test_peirce_assembles_isomorphically(algebra, idem_index):
    f = algebra.field
    if idem_index is None:
        p = [f.zero] * algebra.dim
        p[0] = f.one
        p = tuple(p)
    else:
        p = algebra.basis_vector(idem_index)
    ctx = peirce(algebra, p)
    g = assemble(ctx)
    t = peirce_embedding(algebra, p)
    assert t.shape == (algebra.dim, g.algebra.dim)
    _, rank = rref(t)
    assert rank == algebra.dim
    for i in range(g.algebra.dim):
        for j in range(g.algebra.dim):
            lhs = t.apply(g.algebra.structure[i][j])
            rhs = algebra.multiply(t.column(i), t.column(j))
            assert lhs == rhs


def test_is_trivial():
    one = field_algebra(QQ)
    ctx = trivial_context(one, one, regular_bimodule(one), regular_bimodule(one))
    assert is_trivial(ctx)
    assert is_trivial(ambient_commutative_context(QQ))
    assert not is_trivial(peirce(matrix_algebra(QQ, 2), _e11(QQ, 2)))


def test_direct_sum_flag():
    one = field_algebra(QQ)
    from gmalie.constructions import zero_bimodule

    ctx = trivial_context(one, one, zero_bimodule(one, one), zero_bimodule(one, one))
    g = assemble(ctx)
    assert g.is_direct_sum
    assert not assemble(_tri2_context(QQ)).is_direct_sum


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_ambient_context_checks_each_corner_algebra_once(monkeypatch, field):
    # each corner is built with its idempotents marked complete, not built
    # and then copied with the flag set, which would check its tensor again
    calls = record_structure_checks(monkeypatch)
    ctx = ambient_commutative_context(field)
    assert ctx.a.idempotents_complete and ctx.b.idempotents_complete
    # both corners are the dual numbers, in the same basis
    assert ctx.a.structure == ctx.b.structure
    assert calls.count(ctx.a.structure) == 2
