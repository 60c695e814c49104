import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gmalie.algebra import (
    FDAlgebra,
    _associator_fails,
    _facts,
    _generators,
    analyze_algebra,
    center,
    central_ideal_free,
    central_ideal_subspace,
    commutator_idempotent_subalgebra,
    commutator_span,
    domain_scan,
    enumerate_idempotents,
    subalgebra_closure,
    structure_violations,
)
from gmalie.constructions import (
    ambient_commutative_context,
    dual_numbers,
    field_algebra,
    matrix_algebra,
    split_pair_algebra,
    truncated_polynomial_algebra,
    two_nilpotents_algebra,
    upper_triangular_algebra,
)
from gmalie.errors import ValidationFailure, Violation
from gmalie.fields import GF, QQ
from gmalie.fuzzing import _catalog
from gmalie.gma import assemble
from gmalie.linalg import Subspace
from gmalie.tristate import TriState

from helpers import (
    associativity_failures,
    center_size_brute,
    idempotent_count_brute,
    matrix_unit_tensor,
    random_basis_tensor,
    record_calls,
    reference_structure_violations,
)


def test_unit_law():
    a = matrix_algebra(QQ, 2)
    rng = random.Random(1)
    for _ in range(5):
        x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        assert a.multiply(a.unit, x) == x
        assert a.multiply(x, a.unit) == x


def test_bracket_alternating_and_matrix_units():
    a = matrix_algebra(QQ, 2)
    rng = random.Random(2)
    x = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
    assert a.bracket(x, x) == a.zero()
    # basis order e11, e12, e21, e22: [e11, e12] = e12
    e11, e12 = a.basis_vector(0), a.basis_vector(1)
    assert a.bracket(e11, e12) == e12


def _half_square(f):
    """F[x]/(x^2 - 1/4) with basis (1, x): a structure constant that stays a
    Fraction over QQ, so hashing the tensor calls ``Fraction.__hash__``."""
    x2 = (Fraction(1, 4), 0)
    return FDAlgebra(f, 2, (((1, 0), (0, 1)), ((0, 1), x2)), (1, 0))


def test_algebra_hash_is_cached_and_agrees_between_equal_algebras(monkeypatch):
    a = _half_square(QQ)
    twin = _half_square(QQ)
    assert twin is not a and hash(twin) == hash(a)
    walked = []
    real = Fraction.__hash__

    def counting(x):
        walked.append(x)
        return real(x)

    monkeypatch.setattr(Fraction, "__hash__", counting)
    hash(a)
    assert walked == []  # the second hash does not walk the structure again
    assert hash(_half_square(QQ)) == hash(a)
    assert walked == [Fraction(1, 4)]  # a fresh instance walks it once


def test_integral_fractions_and_ints_build_one_algebra():
    # Q[x]/(x^2 - 3), once from ints and once from integral Fractions
    a = FDAlgebra(QQ, 2, (((1, 0), (0, 1)), ((0, 1), (3, 0))), (1, 0))
    one, zero = Fraction(1), Fraction(0)
    tensor = (((one, zero), (zero, one)), ((zero, one), (Fraction(3), zero)))
    b = FDAlgebra(QQ, 2, tensor, (one, zero))
    assert a == b and hash(a) == hash(b)
    assert {type(x) for plane in b.structure for row in plane for x in row + b.unit} == {int}
    assert _facts(a) is _facts(b)  # one memo entry
    assert commutator_span(b) is commutator_span(a)


def test_algebra_hash_does_not_depend_on_the_string_hash_seed():
    code = (
        "from gmalie.constructions import matrix_algebra; from gmalie.fields import GF;"
        "print(hash(matrix_algebra(GF(3), 2)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = {
        subprocess.run(
            [sys.executable, "-c", code],
            env=dict(env, PYTHONHASHSEED=seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("1", "2")
    }
    assert len(out) == 1


def test_invalid_structure_names_indices():
    bad = [[[0, 0], [1, 0]], [[0, 1], [0, 0]]]  # e0 is not a unit for anything
    violations = structure_violations(QQ, 2, bad, (1, 0))
    assert violations
    with pytest.raises(ValidationFailure):
        FDAlgebra(QQ, 2, bad, (1, 0))


def test_nonassociative_tensor_rejected_with_triple():
    a = matrix_algebra(GF(3), 2)
    tensor = [[list(row) for row in plane] for plane in a.structure]
    tensor[1][2][0] = 2  # corrupt e12 * e21
    violations = structure_violations(GF(3), 4, tensor, a.unit)
    assert any(v.law == "associativity" and len(v.where) == 3 for v in violations)


@pytest.mark.parametrize("seed", range(6))
def test_associativity_violations_in_order_and_capped(seed):
    rng = random.Random(seed)
    f = GF(5) if seed % 2 else GF(3)
    a = matrix_algebra(f, 2) if seed < 3 else upper_triangular_algebra(f, 3)
    tensor = [[list(row) for row in plane] for plane in a.structure]
    for _ in range(rng.randint(1, 3)):
        i, j, k = (rng.randrange(a.dim) for _ in range(3))
        tensor[i][j][k] = (tensor[i][j][k] + rng.randrange(1, f.p)) % f.p
    found = structure_violations(f, a.dim, tensor, a.unit, cap=10**6)
    triples = [v.where for v in found if v.law == "associativity"]
    assert triples == associativity_failures(tensor, f.p)
    assert structure_violations(f, a.dim, tensor, a.unit) == found[:8]


@pytest.mark.parametrize("p, seed", [(3, 0), (5, 1), (97, 2)])
def test_capped_associativity_violations_in_a_dense_basis(p, seed):
    # corrupt products of two off-diagonal matrix units only, so the unit
    # laws still hold, then move to a random basis: every coordinate sum
    # has many terms, and the capped list is a prefix of the reference's
    rng = random.Random(seed)
    n = 3
    off_diagonal = [i for i in range(n * n) if i // n != i % n]
    tensor = matrix_unit_tensor(n, p).tolist()
    for _ in range(3):
        i, j = rng.choice(off_diagonal), rng.choice(off_diagonal)
        k = rng.randrange(n * n)
        tensor[i][j][k] = (tensor[i][j][k] + rng.randrange(1, p)) % p
    unit = [int(i // n == i % n) for i in range(n * n)]
    tensor, unit = random_basis_tensor(tensor, unit, p, rng)
    expected = associativity_failures(tensor, p)
    assert len(expected) > 8
    f = GF(p)
    found = structure_violations(f, n * n, tensor, unit, cap=10**6)
    assert found == [Violation("associativity", t) for t in expected]
    assert structure_violations(f, n * n, tensor, unit) == found[:8]


def _validation_cases(f, rng):
    """(label, tensor, unit) of the catalog's assembled algebras and a few
    named algebras over ``f``, with a random-basis twin of each over GF(p)."""
    algebras = [(label, assemble(build()).algebra) for label, _, build in _catalog(f)]
    algebras += [
        ("M2", matrix_algebra(f, 2)),
        ("M3", matrix_algebra(f, 3)),
        ("T3", upper_triangular_algebra(f, 3)),
    ]
    for label, a in algebras:
        tensor = [[list(row) for row in plane] for plane in a.structure]
        yield label, tensor, list(a.unit)
        if f.is_prime_field:
            yield (f"{label}~rand", *random_basis_tensor(tensor, a.unit, f.p, rng))


@pytest.mark.parametrize("field", [GF(3), GF(5), QQ], ids=repr)
def test_reduced_associativity_check_matches_the_full_scan(field):
    # a valid tensor passes the check on generators alone; a tensor with one
    # entry bumped gets the full scan's list, capped or not
    rng = random.Random(field.characteristic)
    checked = associative_only = 0
    for label, tensor, unit in _validation_cases(field, rng):
        d = len(tensor)
        assert structure_violations(field, d, tensor, unit, cap=None) == [], label
        for _ in range(12):
            i, j, k = (rng.randrange(d) for _ in range(3))
            shift = rng.randrange(1, field.p) if field.is_prime_field else rng.choice((-1, 1, 2))
            bumped = [[list(row) for row in plane] for plane in tensor]
            bumped[i][j][k] = field.add(bumped[i][j][k], field.of(shift))
            for cap in (8, None):
                expected = reference_structure_violations(field, d, bumped, unit, cap=cap)
                assert structure_violations(field, d, bumped, unit, cap=cap) == expected, label
            laws = {v.law for v in expected}
            checked += 1
            associative_only += laws == {"associativity"}
    assert checked >= 150
    # bumps that keep the unit laws, so only the associators can catch them
    assert associative_only >= 20


def test_valid_algebra_checks_associators_on_generators_only(monkeypatch):
    rng = random.Random(5)
    f = GF(3)
    t5 = upper_triangular_algebra(f, 5)
    tensor, unit = random_basis_tensor(
        [[list(row) for row in plane] for plane in t5.structure], t5.unit, f.p, rng
    )
    calls = record_calls(monkeypatch, _associator_fails)
    a = FDAlgebra(f, 15, tensor, unit)
    gens = _generators(a)
    assert 1 < len(gens) < a.dim
    triples = [args[2:] for _, args, _ in calls]
    assert triples == [(i, j, k) for i in gens for j in range(15) for k in range(15)]
    # one bumped entry: the check on generators fails, and the full scan runs
    bumped = [[list(row) for row in plane] for plane in tensor]
    bumped[gens[-1]][0][0] = f.add(bumped[gens[-1]][0][0], 1)
    del calls[:]
    found = structure_violations(f, 15, bumped, unit, cap=None)
    assert found == reference_structure_violations(f, 15, bumped, unit, cap=None)
    assert any(v.law == "associativity" for v in found)
    triples = [args[2:] for _, args, _ in calls]
    assert triples[-(15**3) :] == list(itertools.product(range(15), repeat=3))


def test_center_of_commutative_is_everything():
    a = dual_numbers(QQ)
    assert center(a) == Subspace.full(QQ, 2)


def test_center_of_full_matrix_algebra_vs_brute_force():
    a = matrix_algebra(GF(3), 2)
    dim = center(a).dim
    assert dim == 1
    assert 3**dim == center_size_brute(2, 3)


def test_commutator_spans():
    assert commutator_span(dual_numbers(QQ)).dim == 0
    assert commutator_span(matrix_algebra(QQ, 2)).dim == 3
    t2 = upper_triangular_algebra(QQ, 2)
    # basis order e11, e12, e22; all brackets land on e12
    assert commutator_span(t2).basis.to_lists() == [[0, 1, 0]]


def test_central_ideals():
    assert not central_ideal_free(dual_numbers(QQ))
    assert central_ideal_free(matrix_algebra(GF(3), 2))
    assert central_ideal_free(upper_triangular_algebra(QQ, 2))


def test_central_ideal_witness_is_a_central_ideal():
    a = dual_numbers(QQ)
    k = central_ideal_subspace(a)
    assert k.dim > 0
    z = center(a)
    witness = k.basis.entries[0]
    assert any(x != QQ.zero for x in witness)
    assert z.contains_vector(witness)
    for i in range(a.dim):
        assert z.contains_vector(a.multiply(a.basis_vector(i), witness))


def test_domain_scan_cases():
    assert domain_scan(field_algebra(GF(5))) is TriState.HOLDS
    assert domain_scan(matrix_algebra(GF(3), 2)) is TriState.FAILS
    ctx = ambient_commutative_context(QQ)
    assert domain_scan(ctx.a) is TriState.FAILS  # nilpotent squares to zero
    assert domain_scan(truncated_polynomial_algebra(QQ, 3)) is TriState.FAILS
    assert domain_scan(split_pair_algebra(QQ)) is TriState.FAILS


def test_domain_scan_budget_and_unknown():
    # x^2 = 2 over GF(7): 2 is a square (3^2), so zero divisors exist but no
    # basis pair vanishes; the exhaustive scan finds them, a tiny budget cannot
    f = GF(7)
    tensor = [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]
    tensor[0][0] = [1, 0]
    tensor[0][1] = [0, 1]
    tensor[1][0] = [0, 1]
    tensor[1][1] = [2, 0]
    a = FDAlgebra(f, 2, tensor, (1, 0))
    assert domain_scan(a) is TriState.FAILS
    assert domain_scan(a, budget=3) is TriState.UNKNOWN
    # the same construction over the rationals is a field, but only an
    # exhaustive scan could tell: stays unknown
    b = FDAlgebra(QQ, 2, tensor, (1, 0))
    assert domain_scan(b) is TriState.UNKNOWN


def test_idempotents_full_matrix_vs_brute_force():
    a = matrix_algebra(GF(3), 2)
    scan = enumerate_idempotents(a)
    assert scan.complete
    assert len(scan.elements) == 14
    assert len(scan.elements) == idempotent_count_brute(2, 3)
    for e in scan.elements:
        assert a.multiply(e, e) == e


def test_idempotents_of_nilpotent_extension():
    ctx = ambient_commutative_context(GF(3))
    scan = enumerate_idempotents(ctx.a)
    assert scan.complete
    assert scan.elements == ((0, 0), (1, 0))


def test_idempotents_over_rationals_flagging():
    a = dual_numbers(QQ)
    scan = enumerate_idempotents(a)
    assert not scan.complete
    assert set(scan.elements) == {(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))}
    assert enumerate_idempotents(field_algebra(QQ)).complete  # one-dimensional


def test_declared_idempotents_are_validated():
    a = split_pair_algebra(QQ)
    ok = FDAlgebra(QQ, 2, a.structure, a.unit, declared_idempotents=((1, 0),))
    assert (Fraction(1), Fraction(0)) in enumerate_idempotents(ok).elements
    with pytest.raises(ValidationFailure):
        FDAlgebra(QQ, 2, a.structure, a.unit, declared_idempotents=((1, 2),))


def test_budget_exceeded_partial_scan():
    a = matrix_algebra(GF(3), 2)
    scan = enumerate_idempotents(a, budget=10)
    assert not scan.complete
    assert set(scan.elements) >= {a.zero(), a.unit}


def test_closure_of_basis_is_whole_algebra():
    a = matrix_algebra(GF(3), 2)
    gens = [a.basis_vector(i) for i in range(a.dim)]
    assert subalgebra_closure(a, gens).dim == a.dim


def test_closure_is_monotone_idempotent():
    a = upper_triangular_algebra(QQ, 3)
    rng = random.Random(9)
    for _ in range(5):
        gens = [
            tuple(Fraction(rng.randint(-2, 2)) for _ in range(a.dim)) for _ in range(2)
        ]
        first = subalgebra_closure(a, gens)
        again = subalgebra_closure(a, first.basis.entries)
        assert first == again
        assert first.contains(Subspace(QQ, a.dim, gens))


def test_commutator_idempotent_subalgebra():
    m2 = matrix_algebra(GF(3), 2)
    gen = commutator_idempotent_subalgebra(m2)
    assert gen.exact and gen.space.dim == 4
    assert gen.spans(m2) is TriState.HOLDS

    ctx = ambient_commutative_context(QQ)
    gen_a = commutator_idempotent_subalgebra(ctx.a)
    assert gen_a.space.dim == 1
    assert gen_a.spans(ctx.a) is TriState.FAILS  # completeness was declared

    plain = dual_numbers(QQ)
    gen_d = commutator_idempotent_subalgebra(plain)
    assert gen_d.spans(plain) is TriState.UNKNOWN


def test_center_is_closed_under_multiplication():
    for a in (matrix_algebra(GF(3), 2), upper_triangular_algebra(QQ, 2)):
        z = center(a)
        assert z.contains_vector(a.unit)
        for x in z.basis.entries:
            for y in z.basis.entries:
                assert z.contains_vector(a.multiply(x, y))


def test_analyze_algebra_bundles_everything():
    rep = analyze_algebra(matrix_algebra(GF(3), 2))
    assert rep.center.dim == 1
    assert rep.commutator_span.dim == 3
    assert rep.central_ideal_free
    assert rep.domain is TriState.FAILS
    assert len(rep.idempotents.elements) == 14
    assert rep.generated.space.dim == 4


def test_two_nilpotents_algebra_shape():
    c = two_nilpotents_algebra(QQ)
    x, y = c.basis_vector(1), c.basis_vector(2)
    assert c.multiply(x, x) == c.zero()
    assert c.multiply(x, y) == c.zero()
    assert c.multiply(y, x) == c.zero()
    assert c.is_commutative()
