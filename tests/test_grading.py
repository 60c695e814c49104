"""The graded solve of the derivation and Lie-derivation spaces.

On a basis that shows orthogonal idempotents summing to the unit, the
oracle solves only the rows and map entries of weight zero and takes every
other weight from ad(A).  These tests hold that solve to the generating
set's rows solved whole (``helpers.reference_generator_solve``), pin the
weight lemma it rests on against that reference alone, and check every
returned basis at random points with the algebra's own product.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from gmalie.algebra import FDAlgebra, _facts, _peirce_weights
from gmalie.constructions import matrix_algebra, upper_triangular_algebra
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble, peirce
from gmalie.linalg import Subspace
from gmalie.spaces import derivation_space, lie_derivation_space

from helpers import reference_generator_solve

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@lru_cache(maxsize=None)
def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _oracle_algebras(seed=None):
    """(name, algebra) of the benchmark's 16 oracle cases in their own
    bases, or with ``seed`` also its 7 GF(p) twins in random bases drawn
    from that seed."""
    workloads = _workloads()
    rng = random.Random(seed)
    out = []
    for name, field, tensor, unit, _, twin in workloads.oracle_cases():
        out.append((name, FDAlgebra(field, len(tensor), tensor, unit)))
        if twin and seed is not None:
            t, u = workloads.random_basis(tensor, unit, field.p, rng)
            out.append((f"{name}~rand", FDAlgebra(field, len(t), t, u)))
    return out


def _fuzz_algebras(seed, field):
    """The assembled algebras of a max-dim-4 fuzz slice of 60 contexts, as
    CI runs over GF(3), once each."""
    config = FuzzConfig(seed=seed, count=60, field=field, max_dims=(4, 4, 4, 4))
    seen = {}
    for label, ctx in generate_contexts(config):
        seen.setdefault(assemble(ctx).algebra, label)
    return [(label, a) for a, label in seen.items()]


def _e11(f, n):
    return tuple(f.one if i == 0 else f.zero for i in range(n * n))


def _peirce_m(f, n):
    return assemble(peirce(matrix_algebra(f, n), _e11(f, n))).algebra


# -- the reference solve ----------------------------------------------------------


def _assert_matches_the_row_solve(algebras):
    for name, a in algebras:
        _facts.cache_clear()
        assert derivation_space(a).space == reference_generator_solve(a), name
        assert lie_derivation_space(a).space == reference_generator_solve(a, lie=True), name


def test_oracle_cases_match_the_row_solve():
    # every case in its own basis is graded
    algebras = _oracle_algebras()
    assert len(algebras) == 16
    assert all(_peirce_weights(a) is not None for _, a in algebras)
    _assert_matches_the_row_solve(algebras)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_oracle_twins_match_the_row_solve(seed):
    # the cases in their own bases do not depend on the seed; a random
    # basis shows no grading
    twins = [(name, a) for name, a in _oracle_algebras(seed) if name.endswith("~rand")]
    assert len(twins) == 7
    assert all(_peirce_weights(a) is None for _, a in twins)
    _assert_matches_the_row_solve(twins)


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=repr)
@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_slices_match_the_row_solve(seed, field):
    _assert_matches_the_row_solve(_fuzz_algebras(seed, field))


# -- the weight lemma, on the reference alone -------------------------------------


def _basis_weights(a):
    """The weight of each basis vector in Z^|E|, E the idempotent basis
    vectors, found with the algebra's own product; None unless they are
    orthogonal, sum to the unit and put every basis vector in one block."""
    basis = [a.basis_vector(b) for b in range(a.dim)]
    idem = [b for b in range(a.dim) if a.multiply(basis[b], basis[b]) == basis[b]]
    total = [sum(col) for col in zip(*[basis[b] for b in idem])]
    if tuple(a.field.vector(total)) != a.unit:
        return None
    if any(a.multiply(basis[i], basis[j]) != a.zero() for i in idem for j in idem if i != j):
        return None
    weights = []
    for x in basis:
        (i,) = [t for t, e in enumerate(idem) if a.multiply(basis[e], x) == x]
        (j,) = [t for t, e in enumerate(idem) if a.multiply(x, basis[e]) == x]
        weights.append(tuple((t == i) - (t == j) for t in range(len(idem))))
    return weights


def _vec_ad(a, x):
    """vec(ad(x)): entry r*d + c is coordinate r of [x, e_c]."""
    d = a.dim
    columns = [a.bracket(x, a.basis_vector(c)) for c in range(d)]
    return [columns[c][r] for r in range(d) for c in range(d)]


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=repr)
@pytest.mark.parametrize(
    "make",
    [
        lambda f: matrix_algebra(f, 3),
        lambda f: upper_triangular_algebra(f, 4),
        lambda f: _peirce_m(f, 3),
    ],
    ids=["M3", "T4", "peirce_M3"],
)
def test_nonzero_weights_of_der_and_lie_are_inner(make, field):
    # a map entry (r, c) has the weight wt(r) - wt(c); both solution spaces
    # split by weight, and each component of nonzero weight w is ad(A_w)
    a = make(field)
    weights = _basis_weights(a)
    assert weights is not None and any(any(w) for w in weights)
    d, n = a.dim, a.dim**2

    def weight(col):
        r, c = divmod(col, d)
        return tuple(x - y for x, y in zip(weights[r], weights[c]))

    by_weight = {}
    for col in range(n):
        by_weight.setdefault(weight(col), []).append(col)
    for lie in (False, True):
        space = reference_generator_solve(a, lie)
        split = 0
        for w, cols in by_weight.items():
            kept = set(cols)
            part = [
                [x if c in kept else field.zero for c, x in enumerate(v)]
                for v in space.basis.entries
            ]
            component = Subspace(field, n, part)
            split += component.dim
            if any(w):
                inner = [_vec_ad(a, a.basis_vector(b)) for b in range(d) if weights[b] == w]
                assert component == Subspace(field, n, inner), (lie, w)
        assert split == space.dim, lie


# -- random points ------------------------------------------------------------------


def _scalar(f, rng):
    if f.is_prime_field:
        return rng.randrange(f.p)
    return f.of(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def _assert_rule_at_random_points(a, space, op, rng, points=8):
    """L(op(x, y)) = op(L(x), y) + op(x, L(y)) for a random combination L
    of the basis and random x and y, ``points`` times.  The defect of the
    combination is multilinear of degree 3 in the random scalars, so when a
    basis vector breaks the rule one point misses it with probability at
    most 1 - (1 - 1/p)^3 over GF(p) (19/27 for p = 3)."""
    f, d = a.field, a.dim
    for _ in range(points):
        flat = [f.zero] * (d * d)
        for v in space.basis.entries:
            c = _scalar(f, rng)
            flat = [f.add(x, f.mul(c, y)) for x, y in zip(flat, v)]

        def apply(x):
            out = []
            for r in range(d):
                acc = f.zero
                for m, xc in zip(flat[r * d : (r + 1) * d], x):
                    acc = f.add(acc, f.mul(m, xc))
                out.append(acc)
            return tuple(out)

        x = tuple(_scalar(f, rng) for _ in range(d))
        y = tuple(_scalar(f, rng) for _ in range(d))
        assert apply(op(x, y)) == tuple(map(f.add, op(apply(x), y), op(x, apply(y))))


def _assert_bases_at_random_points(a, rng):
    _assert_rule_at_random_points(a, derivation_space(a).space, a.multiply, rng)
    _assert_rule_at_random_points(a, lie_derivation_space(a).space, a.bracket, rng)


def test_oracle_bases_obey_their_rules_at_random_points():
    rng = random.Random(1)
    for _, a in _oracle_algebras(1):
        _assert_bases_at_random_points(a, rng)


def test_fuzz_bases_obey_their_rules_at_random_points():
    rng = random.Random(2)
    for _, a in _fuzz_algebras(1, GF(3)):
        _assert_bases_at_random_points(a, rng)
