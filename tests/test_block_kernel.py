"""The oracle's block-wise solve against one dense elimination of all rows.

``sparse_kernel`` eliminates each independent block of a row system on its
own; ``helpers.reference_solutions`` eliminates every row at once.  Both
must return the same canonical basis, on the three rules of real algebras
(sparse matrix-unit bases split into many blocks, a random basis into one)
and on generated systems whose columns are a permuted block diagonal.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gmalie.algebra import FDAlgebra
from gmalie.catalog import EXAMPLE_NAMES, load_example
from gmalie.constructions import matrix_algebra, upper_triangular_algebra
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble
from gmalie.linalg import sparse_kernel
from gmalie.rows import bracket_rows, central_rows, product_rows, solutions

from helpers import matrix_unit_tensor, random_basis_tensor, reference_solutions

RULES = (product_rows, bracket_rows, central_rows)


def _assert_same_spaces(a):
    for rule in RULES:
        rows = rule(a)
        expected = reference_solutions(a.field, a.dim**2, [(c, x) for _, c, x in rows])
        assert solutions(a, rows) == expected, rule.__name__


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_examples(name):
    ws = load_example(name)
    _assert_same_spaces(ws.assembled(ws.sole_context_name()).algebra)


@pytest.mark.parametrize("field", [GF(3), QQ], ids=repr)
def test_fuzz_slice(field):
    seen = set()
    for _, ctx in generate_contexts(FuzzConfig(seed=2, count=20, field=field)):
        a = assemble(ctx).algebra
        if a not in seen:
            seen.add(a)
            _assert_same_spaces(a)


@pytest.mark.parametrize("field", [GF(5), QQ], ids=repr)
@pytest.mark.parametrize("make, n", [(matrix_algebra, 3), (upper_triangular_algebra, 4)])
def test_matrix_unit_bases(field, make, n):
    _assert_same_spaces(make(field, n))


def test_random_basis_twin():
    p = 3
    tensor, unit = random_basis_tensor(
        matrix_unit_tensor(3, p).tolist(), [1, 0, 0, 0, 1, 0, 0, 0, 1], p, random.Random(7)
    )
    a = FDAlgebra(GF(p), 9, tensor, unit)
    # dense rows: in matrix units no product row touches more than three unknowns
    assert any(len(cols) > 9 for _, cols, _ in product_rows(a))
    _assert_same_spaces(a)
    assert solutions(a, product_rows(a)).dim == 8


@st.composite
def block_systems(draw):
    """(field, n, rows): rows confined to blocks of a random column
    permutation, some blocks without rows, some columns in no block, the
    rows of all blocks interleaved."""
    field = draw(st.sampled_from([GF(3), GF(5), GF(2**31 - 1), QQ]))
    widths = draw(st.lists(st.integers(0, 5), max_size=5))
    n = sum(widths) + draw(st.integers(0, 3))
    perm = draw(st.permutations(range(n)))
    rows, start = [], 0
    for w in widths:
        cols, start = perm[start : start + w], start + w
        if not cols:
            continue
        for _ in range(draw(st.integers(0, 2 * w))):
            chosen = draw(st.lists(st.sampled_from(cols), min_size=1, unique=True))
            coeffs = [field.of(draw(st.integers(-3, 3))) for _ in chosen]
            rows.append((tuple(chosen), tuple(coeffs)))
    return field, n, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(block_systems())
def test_generated_block_systems(system):
    field, n, rows = system
    assert sparse_kernel(field, n, rows) == reference_solutions(field, n, rows)


def test_untouched_columns_are_unit_vectors():
    f = GF(5)
    space = sparse_kernel(f, 4, [((2, 0), (1, 1))])
    assert space.basis.entries == ((1, 0, 4, 0), (0, 1, 0, 0), (0, 0, 0, 1))
