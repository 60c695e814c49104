import pytest

from gmalie.constructions import (
    ambient_commutative_context,
    dual_numbers,
    field_algebra,
    left_regular_bimodule,
    matrix_algebra,
    regular_bimodule,
    transpose_context,
    trivial_context,
    triangular_context,
    zero_bimodule,
)
from gmalie.algebra import DEFAULT_BUDGET, FDAlgebra
from gmalie.fields import GF, QQ
from gmalie.fuzzing import _catalog
from gmalie.gma import peirce
from gmalie.morita import (
    Bimodule,
    MoritaContext,
    _no_annihilating_pair,
    faithfulness,
    left_action_kernel,
    right_action_kernel,
    strongly_faithful,
    two_torsion_free,
    validate_bimodule,
    validate_context,
)
from gmalie.tristate import TriState


def _e11(f, n):
    vec = [f.zero] * (n * n)
    vec[0] = f.one
    return tuple(vec)


def test_regular_bimodule_valid():
    assert validate_bimodule(regular_bimodule(matrix_algebra(GF(3), 2))) == []


def test_unit_acting_as_zero_is_flagged():
    a = field_algebra(QQ)
    zero_action = (((0,),),)  # 1 acts as 0 on the 1-dim module
    mod = Bimodule(a, a, 1, zero_action, regular_bimodule(a).right_action)
    bad = validate_bimodule(mod)
    assert any(v.law == "module_left_unit" for v in bad)


def test_ambient_modules_valid():
    ctx = ambient_commutative_context(QQ)
    assert validate_bimodule(ctx.m) == []
    assert validate_bimodule(ctx.n) == []
    assert validate_context(ctx) == []


def test_zero_pairings_always_pass_the_pairing_laws():
    one = field_algebra(QQ)
    ctx = trivial_context(one, one, regular_bimodule(one), regular_bimodule(one))
    assert validate_context(ctx) == []


def test_peirce_context_of_matrix_algebra_valid():
    ctx = peirce(matrix_algebra(QQ, 2), _e11(QQ, 2))
    assert validate_context(ctx) == []


def test_scaled_pairing_mismatch_breaks_a_diagram():
    ctx = peirce(matrix_algebra(QQ, 2), _e11(QQ, 2))
    doubled = tuple(
        tuple(tuple(x * 2 for x in row) for row in plane) for plane in ctx.pair_mn
    )
    corrupt = MoritaContext(ctx.a, ctx.b, ctx.m, ctx.n, doubled, ctx.pair_nm)
    bad = validate_context(corrupt)
    assert any(v.law.startswith("diagram") for v in bad)


def test_faithfulness_of_scalar_context():
    one = field_algebra(QQ)
    ctx = trivial_context(one, one, regular_bimodule(one), regular_bimodule(one))
    rep = faithfulness(ctx)
    assert rep.left_faithful and rep.right_faithful and rep.faithful
    assert rep.strongly_faithful is TriState.HOLDS
    assert rep.two_torsion_free


def test_faithfulness_of_counterexample_module():
    ctx = ambient_commutative_context(QQ)
    rep = faithfulness(ctx)
    assert rep.faithful
    # one nilpotent annihilates the other: both strong clauses fail
    assert rep.strongly_faithful is TriState.FAILS


def test_zero_left_action_kills_faithfulness():
    a = dual_numbers(QQ)
    one = field_algebra(QQ)
    mod = left_regular_bimodule(a, one)
    zero_left = tuple(
        tuple((QQ.zero, QQ.zero) for _ in range(2)) for _ in range(2)
    )
    broken = Bimodule(a, one, 2, zero_left, mod.right_action)
    assert left_action_kernel(broken).dim == a.dim
    assert left_action_kernel(mod).dim == 0


def test_zero_module_is_never_faithful_for_nonzero_algebras():
    a = field_algebra(QQ)
    mod = zero_bimodule(a, a)
    assert left_action_kernel(mod).dim == 1
    assert right_action_kernel(mod).dim == 1
    assert strongly_faithful(mod) is TriState.FAILS


def test_strong_faithfulness_exhaustive_over_small_prime_field():
    ctx = peirce(matrix_algebra(GF(5), 2), _e11(GF(5), 2))
    assert strongly_faithful(ctx.m) is TriState.HOLDS
    tri = triangular_context(
        field_algebra(GF(5)),
        regular_bimodule(field_algebra(GF(5))),
        field_algebra(GF(5)),
    )
    assert strongly_faithful(tri.m) is TriState.HOLDS


def test_one_dimensional_side_is_decided_without_enumeration():
    # the left algebra of the peirce module below is one-dimensional, so the
    # verdict is exact even with a budget too small for any scan
    ctx = peirce(matrix_algebra(GF(3), 3), _e11(GF(3), 3))
    assert strongly_faithful(ctx.m, budget=0) is TriState.HOLDS
    ctx_q = peirce(matrix_algebra(QQ, 3), _e11(QQ, 3))
    assert strongly_faithful(ctx_q.m) is TriState.HOLDS
    # the dual numbers have an annihilating pair, so only the clause through
    # the one-dimensional right algebra can hold, on either side of the mirror
    m = left_regular_bimodule(dual_numbers(QQ), field_algebra(QQ))
    assert strongly_faithful(m) is TriState.HOLDS
    assert strongly_faithful(_opposite(m)) is TriState.HOLDS


def _quadratic_extension(field):
    tensor = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    tensor[0][0] = [1, 0]
    tensor[0][1] = [0, 1]
    tensor[1][0] = [0, 1]
    tensor[1][1] = [2, 0]  # x * x = 2
    return FDAlgebra(field, 2, tensor, (1, 0))


def test_strong_faithfulness_budget_and_unknown():
    # x^2 = 2 splits over GF(7), so the regular module has annihilating
    # pairs, but no basis pair vanishes: the exhaustive scan is needed
    a7 = _quadratic_extension(GF(7))
    reg7 = regular_bimodule(a7)
    assert strongly_faithful(reg7) is TriState.FAILS
    assert strongly_faithful(reg7, budget=3) is TriState.UNKNOWN
    # over the rationals the same algebra is a field; no finite criterion
    aq = _quadratic_extension(QQ)
    assert strongly_faithful(regular_bimodule(aq)) is TriState.UNKNOWN
    # witness pairs still decide over the rationals
    ctx = ambient_commutative_context(QQ)
    assert strongly_faithful(transpose_context(ctx).m) is TriState.FAILS


def test_two_torsion_free_is_a_characteristic_test():
    one_q = field_algebra(QQ)
    ctx_q = trivial_context(one_q, one_q, regular_bimodule(one_q), regular_bimodule(one_q))
    assert two_torsion_free(ctx_q)
    one2 = field_algebra(GF(2))
    ctx2 = trivial_context(one2, one2, regular_bimodule(one2), regular_bimodule(one2))
    assert not two_torsion_free(ctx2)
    one3 = field_algebra(GF(3))
    ctx3 = trivial_context(one3, one3, regular_bimodule(one3), regular_bimodule(one3))
    assert two_torsion_free(ctx3)


def test_context_validation_agrees_with_assembly():
    # valid context assembles; a corrupted pairing breaks associativity of
    # the block product (see test_gma for the tensor-level counterpart)
    from gmalie.gma import assemble

    ctx = peirce(matrix_algebra(GF(3), 2), _e11(GF(3), 2))
    assert validate_context(ctx) == []
    assemble(ctx)


def _opposite_algebra(a):
    structure = [[a.structure[j][i] for j in range(a.dim)] for i in range(a.dim)]
    return FDAlgebra(a.field, a.dim, structure, a.unit)


def _opposite(m):
    """M as a (right^op, left^op)-bimodule: b acts on the left as x -> x.b and
    a on the right as x -> a.x, so both action tensors are transposed."""
    left = [[m.right_action[j][i] for j in range(m.dim)] for i in range(m.right.dim)]
    right = [[m.left_action[j][i] for j in range(m.left.dim)] for i in range(m.dim)]
    return Bimodule(_opposite_algebra(m.right), _opposite_algebra(m.left), m.dim, left, right)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=["GF3", "QQ"])
def test_right_side_checks_are_left_checks_on_the_opposite_module(field):
    one_dimensional_sides = 0
    for label, _, build in _catalog(field):
        ctx = build()
        for m in (ctx.m, ctx.n):
            op = _opposite(m)
            assert validate_bimodule(op) == [], label
            assert right_action_kernel(m) == left_action_kernel(op), label
            assert left_action_kernel(m) == right_action_kernel(op), label
            # the two clauses of strong faithfulness trade places
            assert strongly_faithful(m) is strongly_faithful(op), label
            right_pairs = _no_annihilating_pair(
                m.right, m.dim, lambda b, p: m.act_right(p, b), DEFAULT_BUDGET
            )
            assert right_pairs is _no_annihilating_pair(op.left, op.dim, op.act_left, DEFAULT_BUDGET)
            one_dimensional_sides += (m.left.dim == 1) + (m.right.dim == 1)
    assert one_dimensional_sides > 0

