"""Metamorphic law of the oracle: a change of basis conjugates every space.

Write the algebra in the basis of the columns of a random invertible P over
GF(p).  A map with matrix T in the old basis has matrix P^-1 T P in the new
one, so the derivation, Lie-derivation, central-map and proper spaces of the
new structure tensor must be the P-conjugates of the old spaces: the same
subspaces of F^(d*d), not only of the same dimension.  Spans are compared by
``helpers.modp_rank``, a fraction-free numpy elimination.
"""

import random

import numpy as np
import pytest

from gmalie.algebra import FDAlgebra
from gmalie.constructions import matrix_algebra, upper_triangular_algebra
from gmalie.fields import GF
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble
from gmalie.spaces import central_map_space, derivation_space, lie_derivation_space, proper_space

from helpers import change_basis, modp_rank, random_change_of_basis

SPACES = (derivation_space, lie_derivation_space, central_map_space, proper_space)


def _largest_fuzz_algebra():
    """The largest assembled algebra of a GF(3) fuzz slice."""
    algebras = [assemble(ctx).algebra for _, ctx in generate_contexts(FuzzConfig(seed=2, count=20))]
    return max(algebras, key=lambda a: a.dim)


CASES = {
    "M3_GF3": lambda: matrix_algebra(GF(3), 3),
    "T4_GF5": lambda: upper_triangular_algebra(GF(5), 4),
    "fuzz_GF3": _largest_fuzz_algebra,
}


def _basis_array(space, n) -> np.ndarray:
    return np.array(space.space.basis.entries, dtype=np.int64).reshape(-1, n)


def _same_span(x, y, p) -> bool:
    rank = modp_rank(x, p)
    return rank == modp_rank(y, p) == modp_rank(np.vstack([x, y]), p)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_change_of_basis_conjugates_every_space(name, seed):
    a = CASES[name]()
    p, d = a.field.p, a.dim
    P, Q = random_change_of_basis(d, p, random.Random(f"{name}:{seed}"))
    tensor, unit = change_basis(a.structure, a.unit, P, Q, p)
    b = FDAlgebra(a.field, d, tensor, unit)
    P, Q = np.array(P, dtype=np.int64), np.array(Q, dtype=np.int64)
    for space in SPACES:
        old = _basis_array(space(a), d * d).reshape(-1, d, d)
        conjugated = (Q @ old @ P % p).reshape(-1, d * d)
        assert _same_span(conjugated, _basis_array(space(b), d * d), p), space.__name__


def test_a_wrong_conjugation_is_caught():
    # conjugating by P^T instead of P moves the derivations of M_3 off the
    # new derivation space, so the law has teeth on this case
    a = CASES["M3_GF3"]()
    p, d = 3, a.dim
    P, Q = random_change_of_basis(d, p, random.Random("M3_GF3:1"))
    b = FDAlgebra(a.field, d, *change_basis(a.structure, a.unit, P, Q, p))
    P, Q = np.array(P, dtype=np.int64), np.array(Q, dtype=np.int64)
    old = _basis_array(derivation_space(a), d * d).reshape(-1, d, d)
    wrong = (P.T @ old @ Q.T % p).reshape(-1, d * d)
    assert not _same_span(wrong, _basis_array(derivation_space(b), d * d), p)
