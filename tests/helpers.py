"""Test-local oracles, kept independent of the library's code paths.

The rank routine uses fraction-free elimination on numpy arrays (no modular
inverses, no Gauss-Jordan); the structure tensors for matrix algebras are
rebuilt from numpy matrix products rather than the library's constructors.
The properness references decide one map at a time through the library's
per-map entry points, independently of the subspace path they check.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import numpy as np

from gmalie.gma import center_analysis
from gmalie.presentation import extract_lie
from gmalie.spaces import is_proper, lie_derivation_space


def modp_rank(rows, p) -> int:
    """Rank over GF(p) by fraction-free forward elimination."""
    a = np.array([list(r) for r in rows], dtype=np.int64) % p
    if a.size == 0:
        return 0
    nr, nc = a.shape
    rank = 0
    for c in range(nc):
        piv = None
        for r in range(rank, nr):
            if a[r, c] % p:
                piv = r
                break
        if piv is None:
            continue
        a[[rank, piv]] = a[[piv, rank]]
        below = a[rank + 1 :, c] % p != 0
        if below.any():
            a[rank + 1 :][below] = (
                a[rank + 1 :][below] * int(a[rank, c]) - np.outer(a[rank + 1 :, c][below], a[rank])
            ) % p
        rank += 1
        if rank == nr:
            break
    return rank


def matrix_unit_tensor(n, p):
    """Structure tensor of the n x n matrix algebra over GF(p), computed by
    multiplying numpy matrix units."""
    d = n * n
    units = []
    for r in range(n):
        for c in range(n):
            e = np.zeros((n, n), dtype=np.int64)
            e[r, c] = 1
            units.append(e)
    tensor = np.zeros((d, d, d), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            prod = (units[i] @ units[j]) % p
            tensor[i, j] = prod.reshape(d)
    return tensor


def derivation_nullity(tensor, p) -> int:
    """Dimension of the solution space of the product rule for the given
    structure tensor, assembled with einsum over all basis pairs."""
    d = tensor.shape[0]
    eye = np.eye(d, dtype=np.int64)
    block = (
        np.einsum("ijs,kr->ijkrs", tensor, eye)
        - np.einsum("rjk,si->ijkrs", tensor, eye)
        - np.einsum("irk,sj->ijkrs", tensor, eye)
    ) % p
    system = block.reshape(d * d * d, d * d)
    return d * d - modp_rank(system, p)


def all_gf_matrices(n, p):
    """Every n x n matrix over GF(p) as a numpy array."""
    for flat in itertools.product(range(p), repeat=n * n):
        yield np.array(flat, dtype=np.int64).reshape(n, n)


def center_size_brute(n, p) -> int:
    """Number of n x n matrices over GF(p) commuting with all matrices
    (checked against the n*n matrix units, which span)."""
    basis = []
    for r in range(n):
        for c in range(n):
            e = np.zeros((n, n), dtype=np.int64)
            e[r, c] = 1
            basis.append(e)
    count = 0
    for x in all_gf_matrices(n, p):
        if all(((x @ e - e @ x) % p == 0).all() for e in basis):
            count += 1
    return count


def idempotent_count_brute(n, p) -> int:
    return sum(1 for x in all_gf_matrices(n, p) if ((x @ x - x) % p == 0).all())


def random_fraction_matrix(rng: random.Random, rows, cols, span=6):
    return [
        [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(cols)]
        for _ in range(rows)
    ]


def random_int_matrix(rng: random.Random, rows, cols, p):
    return [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]


# -- the three pointwise rules as per-pair loops ---------------------------------
# Reference forms of derivation_defect, lie_defect and is_central_commutator_free
# that multiply basis elements directly instead of reading the library's rows.


def _leibniz_defect(a, endo, op, pairs):
    f = a.field
    for i, j in pairs:
        ei, ej = a.basis_vector(i), a.basis_vector(j)
        lhs = endo.apply(op(ei, ej))
        rhs1 = op(endo.apply(ei), ej)
        rhs2 = op(ei, endo.apply(ej))
        if lhs != tuple(f.add(x, y) for x, y in zip(rhs1, rhs2)):
            return (i, j)
    return None


def reference_derivation_defect(a, endo):
    """First basis pair (i, j), in row-major order, where T(e_i e_j) differs
    from T(e_i) e_j + e_i T(e_j); None for a derivation."""
    pairs = [(i, j) for i in range(a.dim) for j in range(a.dim)]
    return _leibniz_defect(a, endo, a.multiply, pairs)


def reference_lie_defect(a, endo):
    """First basis pair i < j where the bracket rule fails; None for a Lie
    derivation."""
    pairs = [(i, j) for i in range(a.dim) for j in range(i + 1, a.dim)]
    return _leibniz_defect(a, endo, a.bracket, pairs)


def reference_central_commutator_free(a, endo):
    """Does every value T(e_s) commute with every basis element, and T(x) = 0
    for every commutator [e_i, e_j]?"""
    basis = [a.basis_vector(i) for i in range(a.dim)]
    zero = a.zero()
    values = [endo.apply(e) for e in basis]
    if any(a.bracket(e, v) != zero for e in basis for v in values):
        return False
    return all(endo.apply(a.bracket(x, y)) == zero for x in basis for y in basis)


# -- the properness criteria, one map at a time -----------------------------------
# Reference forms of presentation._criteria_witnesses (three loops) and of the
# trivial check's necessity scan (every basis Lie derivation that is_proper
# accepts, extracted and tested on both cross-map ranges).


def reference_criteria_witnesses(g, parts):
    """First failing index of the range-a, range-b and central-pairs
    criteria, or None where the criterion holds."""
    an = center_analysis(g)
    c, f = g.context, g.field
    da, dm, dn, db = g.block_dims
    range_a = range_b = pairs = None
    for i in range(da):
        if not an.proj_b.contains_vector(parts.a_to_center_b.column(i)):
            range_a = i
            break
    for j in range(db):
        if not an.proj_a.contains_vector(parts.b_to_center_a.column(j)):
            range_b = j
            break
    zero_m, zero_n = (f.zero,) * dm, (f.zero,) * dn
    for i in range(dm):
        em = c.m.basis_vector(i)
        for j in range(dn):
            en = c.n.basis_vector(j)
            pair = g.embed(
                parts.b_to_center_a.apply(c.pair_nm_apply(en, em)),
                zero_m,
                zero_n,
                parts.a_to_center_b.apply(c.pair_mn_apply(em, en)),
            )
            if not an.center.contains_vector(pair):
                pairs = (i, j)
                break
        if pairs is not None:
            break
    return range_a, range_b, pairs


def reference_necessity_on_basis(g) -> bool:
    """Do both cross-map ranges of every proper basis Lie derivation lie in
    the projected centers?"""
    for endo in lie_derivation_space(g).basis_maps():
        if not is_proper(g, endo).proper:
            continue
        if reference_criteria_witnesses(g, extract_lie(g, endo))[:2] != (None, None):
            return False
    return True
