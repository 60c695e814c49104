import random
from fractions import Fraction

import pytest

from gmalie.algebra import FDAlgebra, _facts
from gmalie.catalog import load_example
from gmalie.constructions import (
    dual_numbers,
    field_algebra,
    matrix_algebra,
    regular_bimodule,
    triangular_context,
    upper_triangular_algebra,
)
from gmalie.errors import CharacteristicTwoError, PreconditionError
from gmalie.fields import GF, QQ, Field
from gmalie.gma import assemble, peirce
from gmalie import spaces
from gmalie.linalg import Matrix, kernel, sparse_kernel
from gmalie.rows import value_solutions
from gmalie.spaces import (
    EndoMap,
    central_map_space,
    derivation_space,
    has_lie_derivation_property,
    is_central_commutator_free,
    is_derivation,
    is_lie_derivation,
    is_proper,
    lie_derivation_space,
    proper_space,
)

from helpers import derivation_nullity, matrix_unit_tensor, random_basis_tensor, record_calls


def _e11(f, n):
    vec = [f.zero] * (n * n)
    vec[0] = f.one
    return tuple(vec)


def _ad(algebra, c):
    return EndoMap(algebra.left_mult(c) - algebra.right_mult(c))


def _sec4():
    ws = load_example("example_sec4")
    return ws.assembled("G"), EndoMap(ws.maps["L_paper"].matrix)


def test_inner_maps_are_derivations():
    a = matrix_algebra(GF(5), 2)
    rng = random.Random(17)
    space = derivation_space(a)
    for _ in range(6):
        c = tuple(rng.randrange(5) for _ in range(4))
        assert space.contains(_ad(a, c))
        assert is_derivation(a, _ad(a, c))


def test_one_dimensional_algebra_has_no_derivations():
    assert derivation_space(field_algebra(QQ)).dim == 0


@pytest.mark.parametrize("n,expected", [(2, 3), (3, 8)])
def test_full_matrix_derivation_dimensions(n, expected):
    a = matrix_algebra(GF(3), n)
    assert derivation_space(a).dim == expected
    # independent assembly of the same linear condition, and the classical
    # inner-derivation count as an anchor
    assert derivation_nullity(matrix_unit_tensor(n, 3), 3) == expected
    assert expected == n * n - 1


def test_commutative_algebras_make_every_map_a_lie_derivation():
    a = dual_numbers(GF(3))
    assert lie_derivation_space(a).dim == 4
    assert central_map_space(a).dim == 4


def test_bundled_map_is_a_lie_derivation():
    g, endo = _sec4()
    assert lie_derivation_space(g).contains(endo)
    assert is_lie_derivation(g, endo)


def test_central_map_space_dimensions():
    assert central_map_space(matrix_algebra(GF(3), 2)).dim == 1
    assert central_map_space(upper_triangular_algebra(QQ, 2)).dim == 2


@pytest.mark.parametrize(
    "algebra",
    [
        matrix_algebra(GF(3), 2),
        upper_triangular_algebra(QQ, 2),
        dual_numbers(QQ),
        matrix_algebra(GF(5), 2),
    ],
)
def test_space_containments(algebra):
    der = derivation_space(algebra)
    lie = lie_derivation_space(algebra)
    cen = central_map_space(algebra)
    pro = proper_space(algebra)
    assert lie.space.contains(der.space)
    assert lie.space.contains(cen.space)
    assert pro.space.contains(der.space)
    assert pro.space.contains(cen.space)
    for endo in cen.basis_maps():
        assert is_central_commutator_free(algebra, endo)


def test_derivations_split_with_zero_central_part():
    g, _ = _sec4()
    for endo in derivation_space(g).basis_maps():
        split = is_proper(g, endo)
        assert split.proper
        assert split.central.matrix.is_zero()
        assert split.derivation.matrix == endo.matrix


def test_bundled_map_is_not_proper():
    g, endo = _sec4()
    assert not proper_space(g).contains(endo)
    split = is_proper(g, endo)
    assert not split.proper
    assert split.derivation is None and split.central is None


def test_triangular_basis_maps_all_proper():
    g = assemble(
        triangular_context(
            field_algebra(QQ), regular_bimodule(field_algebra(QQ)), field_algebra(QQ)
        )
    )
    basis = lie_derivation_space(g).basis_maps()
    assert len(basis) == 4
    for endo in basis:
        split = is_proper(g, endo)
        assert split.proper
        assert is_derivation(g, split.derivation)
        assert is_central_commutator_free(g, split.central)
        assert split.derivation.matrix + split.central.matrix == endo.matrix


def test_lie_derivation_property_verdicts():
    g, _ = _sec4()
    assert not has_lie_derivation_property(g)
    assert has_lie_derivation_property(matrix_algebra(GF(3), 2))
    tri = assemble(
        triangular_context(
            field_algebra(QQ), regular_bimodule(field_algebra(QQ)), field_algebra(QQ)
        )
    )
    assert has_lie_derivation_property(tri)


def test_properness_is_scale_invariant():
    g, endo = _sec4()
    for lam in (2, -1, Fraction(1, 3)):
        assert not is_proper(g, endo.scale(lam)).proper
    d = derivation_space(g).basis_maps()[0]
    for lam in (2, -1, Fraction(1, 3)):
        assert is_proper(g, d.scale(lam)).proper


def test_non_lie_maps_are_rejected_with_a_pair():
    a = matrix_algebra(QQ, 2)
    bad = EndoMap(Matrix(QQ, [[0] * 4, [0] * 4, [0] * 4, [0, 1, 0, 0]]))
    assert not is_lie_derivation(a, bad)
    with pytest.raises(PreconditionError, match=r"basis pair \(\d, \d\)"):
        is_proper(a, bad)


def test_characteristic_two_gate():
    a = matrix_algebra(GF(2), 2)
    for op in (
        derivation_space,
        lie_derivation_space,
        central_map_space,
        proper_space,
        has_lie_derivation_property,
    ):
        with pytest.raises(CharacteristicTwoError):
            op(a)
    with pytest.raises(CharacteristicTwoError):
        is_proper(a, EndoMap(Matrix.zeros(GF(2), 4, 4)))


def test_gma_and_algebra_arguments_are_interchangeable():
    g = assemble(peirce(matrix_algebra(GF(3), 2), _e11(GF(3), 2)))
    assert derivation_space(g).dim == derivation_space(g.algebra).dim
    assert lie_derivation_space(g).dim == lie_derivation_space(g.algebra).dim


def test_derived_facts_are_computed_once_per_algebra_value(monkeypatch):
    import gmalie.algebra as algebra
    import gmalie.rows as rows

    a = matrix_algebra(GF(3), 2)
    assert algebra.center(a) is algebra.center(a)
    twin = matrix_algebra(GF(3), 2)
    assert twin is not a and twin == a
    assert derivation_space(twin) is derivation_space(a)
    for rule in (rows.product_rows, rows.bracket_rows, rows.central_rows):
        assert rule(twin) is rule(a)

    g = load_example("mat3_GF3_peirce").assembled("G")
    algebra._facts.cache_clear()
    kernels = []
    real_kernel = algebra.kernel

    def counting(m):
        kernels.append(m.cols)
        return real_kernel(m)

    monkeypatch.setattr(algebra, "kernel", counting)
    basis = lie_derivation_space(g).basis_maps()
    assert len(basis) > 1
    for endo in basis:
        assert is_proper(g, endo).proper
    # the rule rows read the bracket tensor; the central maps are built
    # from the center, whose kernel is the one taken in gmalie.algebra
    assert kernels == [g.algebra.dim]


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=repr)
def test_oracle_canonicalizes_no_scalar_inside_sparse_kernel(monkeypatch, field):
    # structure constants that are canonical already (ints below p, or
    # Fractions): the oracle's block matrices go through the public
    # Matrix(...) once per block, and not one entry through Field.of.  A
    # random basis over GF(p) is dense, so the oracle solves it over the
    # values on a generating set: the row solve is forced first, and the
    # values solve is held to the same rule after it
    t4 = upper_triangular_algebra(field, 4)
    tensor = [[list(row) for row in plane] for plane in t4.structure]
    unit = list(t4.unit)
    if field.is_prime_field:
        tensor, unit = random_basis_tensor(tensor, unit, field.p, random.Random(7))
    a = FDAlgebra(field, t4.dim, tensor, unit)
    _facts.cache_clear()
    dense = spaces._dense
    monkeypatch.setattr(spaces, "_dense", lambda a, terms: False)
    calls = record_calls(
        monkeypatch,
        (Field, Field.of),
        (Matrix, Matrix.__init__),
        kernel,
        sparse_kernel,
        value_solutions,
    )

    def solves(name="sparse_kernel"):
        return sum(c[0] == name for c in calls)

    # the central maps are built in closed form, with no row solve
    central_map_space(a)
    assert solves() == 0
    derivation_space(a)
    lie_derivation_space(a)
    proper_space(a)
    has_lie_derivation_property(a)

    def inside(name, solve="sparse_kernel"):
        return [c for c in calls if c[0] == name and c[2] and c[2][-1] == solve]

    assert solves() == 2
    assert [c for c in calls if c[0] == "of" and "sparse_kernel" in c[2]] == []
    blocks = inside("kernel")
    assert len(blocks) >= 2
    assert len(inside("__init__")) == len(blocks)

    if field.is_prime_field:
        monkeypatch.setattr(spaces, "_dense", dense)
        _facts.cache_clear()
        calls.clear()
        derivation_space(a)
        lie_derivation_space(a)
        assert (solves(), solves("value_solutions")) == (0, 2)
        assert [c for c in calls if "value_solutions" in c[2]] == []
