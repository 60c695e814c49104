"""Generator-reduced constraint systems against every row of each rule.

The derivation and Lie-derivation spaces are solved from the rows of a
generating set only (``algebra._generators`` and ``_lie_generators``), and
the central-map space is built in closed form from the center, which is
the centralizer of the Lie generators; ``helpers.reference_solutions``
solves all rows of each rule at once.  Both must give the same canonical
basis.  Over GF(p) the derivations and Lie derivations of a dense basis
are solved for their values on the generating set; that solve is run on
every GF(p) algebra here, whatever the routing picks, and must equal
``helpers.reference_generator_solve``, the generating set's rows solved
by ``sparse_kernel``.  The generating sets themselves are checked by an
independent closure, the center and the central ideals against kernels of
every bracket row, and the full rows against the earlier builders that
scan the whole tensor.
"""

import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmalie import rows, spaces
from gmalie._kernel import _slot_width
from gmalie.algebra import (
    FDAlgebra,
    _facts,
    _generators,
    _lie_generators,
    _peirce_weights,
    center,
    central_ideal_subspace,
    commutation_operator,
    commutator_span,
)
from gmalie.catalog import EXAMPLE_NAMES, load_example
from gmalie.constructions import (
    field_algebra,
    matrix_algebra,
    split_pair_algebra,
    trivial_context,
    truncated_polynomial_algebra,
    two_nilpotents_algebra,
    upper_triangular_algebra,
    zero_bimodule,
)
from gmalie.errors import ConsistencyError
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble, peirce
from gmalie.linalg import Matrix, Subspace, kernel, sparse_kernel
from gmalie.rows import (
    bracket_rows,
    bracket_system,
    central_rows,
    product_rows,
    product_system,
    solutions,
    value_solutions,
)
from gmalie.spaces import (
    EndoMap,
    _central_map_space,
    _derivation_space,
    _lie_derivation_space,
    derivation_defect,
    derivation_space,
    is_central_commutator_free,
    lie_derivation_space,
)

from helpers import (
    closure,
    random_basis_tensor,
    record_calls,
    reference_central_ideal_subspace,
    reference_generator_solve,
    reference_rule_rows,
    reference_solutions,
)

# (space, full rows, rows it is solved from); the central-map space is
# built in closed form, so no reduced central system exists and its full
# rows stand in for both
SYSTEMS = (
    (_derivation_space, product_rows, lambda a: product_system(a, _generators(a))),
    (_lie_derivation_space, bracket_rows, lambda a: bracket_system(a, _lie_generators(a))),
    (_central_map_space, central_rows, central_rows),
)


def _assert_reduced_solves_match(a):
    for space, rows, _ in SYSTEMS:
        expected = reference_solutions(a.field, a.dim**2, [(c, x) for _, c, x in rows(a)])
        assert space(a).space == expected, space.__name__


def _values_solve(a, lie, floor=None):
    """The space solved over the values on the generating set, whatever the
    oracle's routing picks for ``a``, from ``floor`` or else from the
    oracle's floor of known solutions; None when no slot width fits."""
    terms, walk, pairs, _ = spaces._rule(a, lie)
    if floor is None:
        floor = spaces._floor(a, lie)
    return value_solutions(a, terms, walk, pairs, floor)


def _assert_values_solve_matches(a):
    # from the oracle's floor, which may end the solve early, and from the
    # zero floor, which builds every row and maps the kernel back by Phi
    zero = Subspace.zero(a.field, a.dim**2)
    for lie in (False, True):
        expected = reference_generator_solve(a, lie)
        assert _values_solve(a, lie) == expected, lie
        assert _values_solve(a, lie, zero) == expected, lie


def _assert_center_and_commutators(a):
    """The center from the Lie generators' bracket rows is the kernel of
    all d^2 of them, the central ideals read off the center are those of
    every bracket row, and the commutator span is spanned by every
    bracket."""
    assert center(a) == kernel(commutation_operator(a))
    assert central_ideal_subspace(a) == reference_central_ideal_subspace(a)
    basis = [a.basis_vector(i) for i in range(a.dim)]
    brackets = [a.bracket(x, y) for x in basis for y in basis]
    assert commutator_span(a) == Subspace(a.field, a.dim, brackets)


def _assert_generating_sets(a):
    """Words in S and iterated brackets of S_Lie span F^d, and each set is
    the greedy one: index i is a member iff e_i lies outside what the
    members before it generate."""
    for members, op in ((_generators(a), a.multiply), (_lie_generators(a), a.bracket)):
        assert closure(a, members, op).dim == a.dim
        for i in range(a.dim):
            earlier = closure(a, [s for s in members if s < i], op)
            assert (i in members) != earlier.contains_vector(a.basis_vector(i)), i


@lru_cache(maxsize=None)
def _fuzz_algebras(field):
    seen = {}
    for _, ctx in generate_contexts(FuzzConfig(seed=2, count=20, field=field)):
        a = assemble(ctx).algebra
        seen.setdefault(a, None)
    return tuple(seen)


def _example(name):
    ws = load_example(name)
    return ws.assembled(ws.sole_context_name()).algebra


def _twin(make, n, p, seed):
    a = make(GF(p), n)
    tensor, unit = random_basis_tensor(a.structure, a.unit, p, random.Random(seed))
    return FDAlgebra(GF(p), a.dim, tensor, unit)


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_examples(name):
    a = _example(name)
    _assert_reduced_solves_match(a)
    if a.field.is_prime_field:
        _assert_values_solve_matches(a)
    _assert_generating_sets(a)
    _assert_center_and_commutators(a)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_fuzz_slice(field):
    for a in _fuzz_algebras(field):
        _assert_reduced_solves_match(a)
        if field.is_prime_field:
            _assert_values_solve_matches(a)
        _assert_generating_sets(a)
        _assert_center_and_commutators(a)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
@pytest.mark.parametrize("make, n", [(matrix_algebra, 3), (upper_triangular_algebra, 4)])
def test_matrix_unit_bases(field, make, n):
    a = make(field, n)
    _assert_reduced_solves_match(a)
    _assert_generating_sets(a)
    if field.is_prime_field:
        _assert_values_solve_matches(a)


def _assert_reduced_solves_obey_full_rows(a):
    """The same equality as ``_assert_reduced_solves_match`` without a
    dense elimination of all rows: the reduced rows are full rows, so the
    full kernel lies in the reduced one, and every reduced basis vector is
    annihilated by every full row (numpy products mod p)."""
    p, n = a.field.p, a.dim**2
    for space, rows, reduced in SYSTEMS:
        full = rows(a)
        assert set(reduced(a)) <= set(full)
        dense = np.zeros((len(full), n), dtype=np.int64)
        for r, (_, cols, coeffs) in enumerate(full):
            dense[r, list(cols)] = coeffs
        basis = np.array(space(a).space.basis.entries, dtype=np.int64).reshape(-1, n)
        assert not (dense @ basis.T % p).any(), space.__name__


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize(
    "make, n", [(matrix_algebra, 3), (upper_triangular_algebra, 4), (upper_triangular_algebra, 5)]
)
def test_random_basis_twins(make, n, p):
    a = _twin(make, n, p, seed=n * p)
    # a random basis needs few generators: the rows shrink, not only split
    assert len(_generators(a)) < a.dim // 2
    _assert_reduced_solves_obey_full_rows(a)
    if n < 5:  # T_5's 3375 x 225 full systems take seconds to eliminate
        _assert_reduced_solves_match(a)
    _assert_values_solve_matches(a)
    assert closure(a, _generators(a), a.multiply).dim == a.dim
    assert closure(a, _lie_generators(a), a.bracket).dim == a.dim
    _assert_center_and_commutators(a)


SMALL = (
    (matrix_algebra, 2),
    (upper_triangular_algebra, 3),
    (truncated_polynomial_algebra, 3),
    (lambda f, _: two_nilpotents_algebra(f), 3),
    (lambda f, _: split_pair_algebra(f), 2),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from([3, 5]), st.integers(0, 2**32))
def test_hypothesis_random_bases(small, p, seed):
    make, n = small
    a = _twin(make, n, p, seed)
    _assert_reduced_solves_match(a)
    _assert_values_solve_matches(a)
    _assert_generating_sets(a)
    _assert_center_and_commutators(a)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(SMALL), st.sampled_from([3, 5]), st.integers(0, 2**32))
def test_central_maps_are_center_valued_maps_of_the_abelianization(small, p, seed):
    # Cen = Hom(A / [A, A], Z(A)), so dim Cen = dim Z * (d - dim [A, A])
    make, n = small
    a = _twin(make, n, p, seed)
    cen = _central_map_space(a)
    assert cen.dim == center(a).dim * (a.dim - commutator_span(a).dim)
    for endo in cen.basis_maps():
        assert is_central_commutator_free(a, endo)


@pytest.mark.parametrize(
    "a",
    [_example(name) for name in EXAMPLE_NAMES]
    + list(_fuzz_algebras(GF(3)))
    + list(_fuzz_algebras(QQ))
    + [_twin(matrix_algebra, 3, 3, seed=1)],
    ids=lambda a: f"{a.field!r}-d{a.dim}",
)
def test_full_rows_match_the_scanning_builders(a):
    assert (product_rows(a), bracket_rows(a), central_rows(a)) == reference_rule_rows(a)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_central_ideal_of_a_noncommutative_product(field):
    # T_2(F) x F: the center is F*1 x F, and A*c stays central only for
    # c in 0 x F, so the central ideal space is neither 0 nor everything
    one = field_algebra(field)
    t2 = upper_triangular_algebra(field, 2)
    ctx = trivial_context(t2, one, zero_bimodule(t2, one), zero_bimodule(one, t2))
    a = assemble(ctx).algebra
    assert not a.is_commutative()
    assert central_ideal_subspace(a) == Subspace(field, 4, [(0, 0, 0, 1)])
    _assert_center_and_commutators(a)


def test_no_unit_is_adjoined():
    # in F x F the unit e1 + e2 and e1 generate everything; e1 alone does not
    a = split_pair_algebra(GF(3))
    assert _generators(a) == (0, 1)
    # T(e1) = 0, T(e2) = e2 obeys every product row of the pairs (e1, e_j)
    # but is no derivation: T(e2 e2) = e2 differs from 2 e2
    endo = EndoMap(Matrix(a.field, [[0, 0], [0, 1]], cols=2))
    assert solutions(a, product_system(a, (0,))).contains_vector(endo.flatten())
    assert not _derivation_space(a).contains(endo)
    assert derivation_defect(a, endo) == (1, 1)


@pytest.mark.parametrize(
    "a",
    [
        split_pair_algebra(GF(5)),
        truncated_polynomial_algebra(GF(3), 4),
        two_nilpotents_algebra(QQ),
        matrix_algebra(GF(3), 1),
    ],
    ids=lambda a: f"{a.field!r}-d{a.dim}",
)
def test_commutative_algebras_need_every_basis_vector_as_lie_generator(a):
    assert _lie_generators(a) == tuple(range(a.dim))
    _assert_reduced_solves_match(a)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(SMALL),
    st.sampled_from([3, 5]),
    st.integers(0, 2**32),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_phi_gives_back_the_values_on_the_generating_set(small, p, seed, lie, rng):
    # Phi X is the map carried along the walk from the values X; on the
    # members themselves it must return X unchanged: vec(L)[r*d + s] is
    # coordinate r of L(e_s), and X holds it at t*d + r for the t-th member
    make, n = small
    a = _twin(make, n, p, seed)
    terms, walk, _, _ = spaces._rule(a, lie)
    d, width = a.dim, len(walk.members) * a.dim
    bits, code = _slot_width(p, max(3 * d, width))
    phi = rows._unpacked(rows._value_forms(p, d, terms, walk, bits, code), d, width, code)
    assert len(phi) == d * d and all(len(row) == width for row in phi)
    x = [rng.randrange(p) for _ in range(width)]
    mapped = Matrix(a.field, phi, cols=width).apply(x)
    for t, s in enumerate(walk.members):
        assert [mapped[r * d + s] for r in range(d)] == x[t * d : (t + 1) * d]


@pytest.mark.parametrize("a", [field_algebra(GF(3)), matrix_algebra(GF(5), 1)], ids=repr)
def test_values_solve_on_a_one_dimensional_algebra(a):
    # the unit is the only generator, and every map of F is a Lie
    # derivation while only zero is a derivation
    assert a.dim == 1
    assert _values_solve(a, lie=False) == Subspace.zero(a.field, 1)
    assert _values_solve(a, lie=True) == Subspace.full(a.field, 1)
    _assert_values_solve_matches(a)


@pytest.mark.parametrize("make, n", [(matrix_algebra, 2), (upper_triangular_algebra, 3)])
def test_values_solve_over_a_large_prime(make, n):
    # (p - 1)^2 is past 32 bits, so the forms take 64-bit slots
    a = _twin(make, n, 65521, seed=n)
    assert spaces._dense(a, spaces._rule(a, False)[0])
    _assert_values_solve_matches(a)
    assert _derivation_space(a).space == reference_generator_solve(a)


def test_values_solve_falls_back_when_no_slot_fits(monkeypatch):
    # over GF(2^31 - 1) a slot would need (p - 1) + 3d (p - 1)^2 < 2^64,
    # which fails from d = 2 on: the dense algebra keeps the row solve
    p = 2**31 - 1
    a = _twin(matrix_algebra, 2, p, seed=1)
    for lie in (False, True):
        terms, walk, _, _ = spaces._rule(a, lie)
        assert spaces._dense(a, terms)
        assert _values_solve(a, lie) is None
    expected = [reference_generator_solve(a, lie) for lie in (False, True)]
    _facts.cache_clear()
    calls = record_calls(monkeypatch, value_solutions, sparse_kernel)
    assert [_derivation_space(a).space, _lie_derivation_space(a).space] == expected
    assert [name for name, _, _ in calls] == ["value_solutions", "sparse_kernel"] * 2


def _t2_over_its_unit(f):
    """T_2 in the basis 1, e12, e22: two idempotent basis vectors that are
    not orthogonal, so the basis shows no grading."""
    e, z = ((1, 0, 0), (0, 1, 0), (0, 0, 1)), (0, 0, 0)
    tensor = [[e[0], e[1], e[2]], [e[1], z, e[1]], [e[2], z, e[2]]]
    return FDAlgebra(f, 3, tensor, e[0])


def _peirce_m5(f):
    e11 = tuple(f.one if i == 0 else f.zero for i in range(25))
    return assemble(peirce(matrix_algebra(f, 5), e11)).algebra


def test_dense_bases_take_the_values_solve_and_sparse_bases_the_rows(monkeypatch):
    # T_5 over GF(3) in a random basis, as the benchmark's T5_GF3~rand, has
    # 3 generators and a tensor three fifths nonzero; the Peirce context of
    # M_5 over GF(3) in its block basis has 9 and is 1% nonzero
    dense = _twin(upper_triangular_algebra, 5, 3, seed=15)
    sparse = _peirce_m5(GF(3))
    _facts.cache_clear()
    calls = record_calls(monkeypatch, value_solutions, sparse_kernel)
    for a, solve in ((dense, "value_solutions"), (sparse, "sparse_kernel")):
        del calls[:]
        _derivation_space(a)
        _lie_derivation_space(a)
        assert [name for name, _, _ in calls] == [solve, solve]
    # the row solve takes the entries of weight zero in the grading that the
    # basis shows, 2n^2 - n of the n^4 on M_n in matrix units (the Peirce
    # context's block basis is M_5's); with no grading shown, E = {1} and
    # every entry is an unknown
    graded = [(sparse, 45), (matrix_algebra(GF(5), 3), 15), (matrix_algebra(QQ, 4), 28)]
    flat = [(truncated_polynomial_algebra(GF(3), 4), None), (_t2_over_its_unit(QQ), None)]
    for a, unknowns in graded + flat:
        _facts.cache_clear()
        del calls[:]
        _derivation_space(a)
        _lie_derivation_space(a)
        assert (_peirce_weights(a) is None) == (unknowns is None)
        assert [name for name, _, _ in calls] == ["sparse_kernel"] * 2
        solved = [args[3] and len(args[3]) for _, args, _ in calls]
        assert solved == [unknowns] * 2


def test_a_floor_larger_than_the_solutions_is_refused():
    # the Lie derivations of M_3 are the derivations plus the scalars, one
    # more than the derivations: as a floor for the product rule they would
    # cap the rank one below what the rows reach
    a = _twin(matrix_algebra, 3, 3, seed=1)
    lie = _lie_derivation_space(a).space
    assert lie.dim == _derivation_space(a).dim + 1
    with pytest.raises(ConsistencyError, match="known solutions"):
        _values_solve(a, lie=False, floor=lie)


def _rows_failing_a_vector(rows, vectors, p, chunk=1024) -> list:
    """Tags of the rows with a nonzero product mod p against some vector:
    every vector in one pass over the rows, a chunk of rows at a time as a
    dense numpy block."""
    basis = np.array(vectors, dtype=np.int64).T
    failing = []
    for start in range(0, len(rows), chunk):
        part = rows[start : start + chunk]
        block = np.zeros((len(part), basis.shape[0]), dtype=np.int64)
        for r, (_, cols, coeffs) in enumerate(part):
            block[r, list(cols)] = coeffs
        bad = (block @ basis % p).any(axis=1)
        failing += [part[r][0] for r in np.flatnonzero(bad)]
    return failing


@pytest.mark.parametrize("seed", [None, 1, 2], ids=["block_basis", "random_1", "random_2"])
def test_peirce_m5_spaces_obey_every_rule_row(seed):
    # M_5's Peirce context over GF(3), d = 25: in its block basis, the
    # graded solve's largest case, and in two random bases, which take the
    # values solve; dim Der M_n = n^2 - 1 and dim Lie M_n = n^2 in any basis
    f = GF(3)
    a = _peirce_m5(f)
    if seed is not None:
        tensor, unit = random_basis_tensor(a.structure, a.unit, 3, random.Random(seed))
        a = FDAlgebra(f, 25, tensor, unit)
    der, lie = derivation_space(a), lie_derivation_space(a)
    assert (der.dim, lie.dim) == (24, 25)
    for space, rows in ((der, product_rows(a)), (lie, bracket_rows(a))):
        assert _rows_failing_a_vector(rows, space.space.basis.entries, 3) == []
