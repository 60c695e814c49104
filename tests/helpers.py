"""Test-local oracles, kept independent of the library's code paths.

The rank routine uses fraction-free elimination on numpy arrays (no modular
inverses, no Gauss-Jordan); the structure tensors for matrix algebras are
rebuilt from numpy matrix products rather than the library's constructors.
The properness references decide one map at a time through the library's
per-map entry points, independently of the subspace path they check.  The
elimination references are the library's earlier single-pass forms: the
Gauss-Jordan loop that scans the pivot row's whole tail, the oracle's
solve of every row at once as one dense matrix, and its solve of a
generating set's rows by ``sparse_kernel``, which the solve for the values
on that set must match; the row references are its
earlier row builders, which scan every tensor entry; the presentation
references are its earlier checkers, which evaluate every condition on basis
vectors, and its earlier rebuilds, which assemble a map column by column
through the module actions; the context references are its earlier
validators, which check each module, pairing and diagram law on basis tuples;
the structure reference is its earlier validation, which tests the
associator on every basis triple; the central-ideal and central-pair
references are its earlier solves against every bracket row.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from fractions import Fraction

import numpy as np

import gmalie.algebra
import gmalie.morita
from gmalie.algebra import (
    _bilinear,
    _generators,
    _lie_generators,
    center,
    commutation_operator,
    commutator_span,
)
from gmalie.errors import Violation
from gmalie.gma import center_analysis
from gmalie.linalg import Matrix, Subspace, kernel, solve
from gmalie.morita import left_action_kernel, right_action_kernel
from gmalie.presentation import LiePresentation, PresentationReport, extract_lie
from gmalie.rows import bracket_system, product_system, solutions
from gmalie.spaces import EndoMap, is_proper, lie_derivation_space


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


def reference_rref_mod_p(data, p):
    """Gauss-Jordan over GF(p), or over the rationals when ``p`` is 0, that
    reads the pivot row's entries column by column for every row it clears;
    same contract as ``_kernel.rref_mod_p``: the rank rows only."""

    def reduce(x):
        return x % p if p else x

    rows = [list(r) for r in data]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    pivots = []
    r = 0
    for c in range(nc):
        pr = -1
        for i in range(r, nr):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        pv = prow[c]
        if pv != 1:
            inv = pow(pv, -1, p) if p else 1 / Fraction(pv)
            for j in range(c, nc):
                if prow[j]:
                    prow[j] = reduce(prow[j] * inv)
        for i in range(nr):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                ri = rows[i]
                for j in range(c, nc):
                    pj = prow[j]
                    if pj:
                        ri[j] = reduce(ri[j] - f * pj)
        pivots.append(c)
        r += 1
        if r == nr:
            break
    del rows[r:]
    return rows, pivots


def reference_solutions(field, n, rows) -> Subspace:
    """Kernel of sparse (columns, coefficients) rows over F^n, solved as one
    dense len(rows) x n matrix."""
    if not rows:
        return Subspace.full(field, n)

    def dense(cols, coeffs):
        row = [field.zero] * n
        for c, x in zip(cols, coeffs):
            row[c] = x
        return row

    return kernel(Matrix(field, (dense(c, x) for c, x in rows), cols=n))


def reference_generator_solve(a, lie=False) -> Subspace:
    """The derivation space, or the Lie-derivation space when ``lie``, as
    the rule's rows on the pairs meeting a generating set solved by
    ``sparse_kernel``: the oracle's solve for every algebra it does not
    solve over the values on that set."""
    if lie:
        return solutions(a, bracket_system(a, _lie_generators(a)))
    return solutions(a, product_system(a, _generators(a)))


def _inverse_mod(m, p):
    n = len(m)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] % p), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        inv = pow(int(a[c][c]), -1, p)
        a[c] = [x * inv % p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def random_change_of_basis(d, p, rng: random.Random):
    """A random invertible d x d matrix P over GF(p) and its inverse Q, as
    lists of rows; the new basis vectors are the columns of P."""
    while True:
        change = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        back = _inverse_mod(change, p)
        if back is not None:
            return change, back


def change_basis(tensor, unit, P, Q, p):
    """Structure tensor and unit in the basis of P's columns, by numpy
    einsum; Q is the inverse of P.  Past 16-bit primes the entries are
    Python ints, whose products do not overflow."""
    dtype = np.int64 if p < 2**16 else object
    t = np.array(tensor, dtype=dtype)
    P, Q = np.array(P, dtype=dtype), np.array(Q, dtype=dtype)
    products = np.einsum("ai,bj,abk->ijk", P, P, t) % p
    new = np.einsum("ck,ijk->ijc", Q, products) % p
    return new.tolist(), (Q.dot(np.array(unit, dtype=dtype)) % p).tolist()


def random_basis_tensor(tensor, unit, p, rng: random.Random):
    """Structure tensor and unit of the same algebra over GF(p) in the basis
    of a random invertible matrix's columns."""
    P, Q = random_change_of_basis(len(tensor), p, rng)
    return change_basis(tensor, unit, P, Q, p)


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


def associativity_failures(tensor, p) -> list:
    """Every (i, j, k), in lexicographic order, where (e_i e_j) e_k and
    e_i (e_j e_k) differ over GF(p), from two einsums over the whole tensor."""
    t = np.array(tensor, dtype=np.int64) % p
    left = np.einsum("ijm,mkn->ijkn", t, t) % p
    right = np.einsum("jkm,imn->ijkn", t, t) % p
    return [tuple(int(x) for x in idx) for idx in np.argwhere((left != right).any(axis=3))]


def reference_structure_violations(field, dim, structure, unit, cap=8):
    """The library's earlier validation: unit laws, then every basis triple
    (i, j, k) in lexicographic order, with the same ``cap``."""
    if cap is None:
        cap = math.inf
    f = field
    z = f.zero
    bad = []
    basis = [tuple(f.one if j == i else z for j in range(dim)) for i in range(dim)]
    for i, e in enumerate(basis):
        if _bilinear(f, structure, unit, e, dim) != e:
            bad.append(Violation("left_unit", (i,)))
        if _bilinear(f, structure, e, unit, dim) != e:
            bad.append(Violation("right_unit", (i,)))
        if len(bad) >= cap:
            return bad
    support = [
        [[(m, s) for m, s in enumerate(row) if s != z] for row in plane] for plane in structure
    ]
    p = f.characteristic
    for i in range(dim):
        row_i = support[i]
        for j in range(dim):
            ij, row_j = row_i[j], support[j]
            for k in range(dim):
                acc = {}
                for m, s in ij:
                    for n, t in support[m][k]:
                        st = s * t
                        acc[n] = acc[n] + st if n in acc else st
                for m, s in row_j[k]:
                    for n, t in row_i[m]:
                        st = s * t
                        acc[n] = acc[n] - st if n in acc else -st
                if any(x % p for x in acc.values()) if p else any(acc.values()):
                    bad.append(Violation("associativity", (i, j, k)))
                    if len(bad) >= cap:
                        return bad
    return bad


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


# -- the rules' rows by scanning the whole tensor ------------------------------------
# The library's earlier row builders: every row scans all d entries of the
# tensor for its nonzero terms.  The bracket tensor is rebuilt from a.bracket.


def _append_row(rows, f, tag, terms):
    row = {}
    for c, x in terms:
        row[c] = f.add(row[c], x) if c in row else x
    cols = tuple(c for c, x in row.items() if x != f.zero)
    if cols:
        rows.append((tag, cols, tuple(row[c] for c in cols)))


def _scanned_leibniz_rows(a, tensor, pairs):
    f, d, z, neg = a.field, a.dim, a.field.zero, a.field.neg
    rows = []
    for i, j in pairs:
        for k in range(d):
            terms = [(k * d + l, s) for l, s in enumerate(tensor[i][j]) if s != z]
            terms += [(p * d + i, neg(s)) for p in range(d) if (s := tensor[p][j][k]) != z]
            terms += [(q * d + j, neg(s)) for q in range(d) if (s := tensor[i][q][k]) != z]
            _append_row(rows, f, (i, j), terms)
    return tuple(rows)


def reference_rule_rows(a):
    """(product, bracket, central) rows of every basis pair, value and
    commutator, in the library's tag order."""
    f, d, z = a.field, a.dim, a.field.zero
    basis = [a.basis_vector(i) for i in range(d)]
    bracket = [[a.bracket(x, y) for y in basis] for x in basis]
    product = _scanned_leibniz_rows(a, a.structure, [(i, j) for i in range(d) for j in range(d)])
    lie = _scanned_leibniz_rows(a, bracket, [(i, j) for i in range(d) for j in range(i + 1, d)])
    central = []
    for s in range(d):
        for i in range(d):
            for k in range(d):
                terms = [(m * d + s, c) for m in range(d) if (c := bracket[i][m][k]) != z]
                _append_row(central, f, ("value", s), terms)
    for r, w in enumerate(commutator_span(a).basis.entries):
        for k in range(d):
            terms = [(k * d + s, ws) for s, ws in enumerate(w) if ws != z]
            _append_row(central, f, ("commutator", r), terms)
    return product, lie, tuple(central)


def reference_central_ideal_subspace(a) -> Subspace:
    """K = {c : [e_i, c] = 0 and [e_i, e_j c] = 0 for all i, j}, the kernel
    of every bracket row stacked with their products by each left
    multiplication: (d^3 + d^2) rows."""
    comm = commutation_operator(a)
    blocks = [comm] + [comm @ a.left_mult(a.basis_vector(j)) for j in range(a.dim)]
    return kernel(Matrix.vstack(a.field, blocks, cols=a.dim))


def reference_central_pair_space(g, center_map_a, parts) -> Subspace:
    """The a in A with a + center_map_a(a) + a_to_center_b(a) central in
    the assembled algebra, as the kernel of every bracket row after the
    pair map."""
    f = g.field
    zero_m, zero_n = ((f.zero,) * k for k in g.block_dims[1:3])
    cols = [
        g.embed(center_map_a.column(i), zero_m, zero_n, parts.a_to_center_b.column(i))
        for i in range(center_map_a.cols)
    ]
    pair_map = Matrix.from_columns(f, cols, rows=g.algebra.dim)
    return kernel(commutation_operator(g.algebra) @ pair_map)


def closure(a, members, op) -> Subspace:
    """Span of the basis vectors ``members`` grown by span + op(span, span)
    until it stops growing: for ``a.multiply`` the words of length >= 1 in
    the members, for ``a.bracket`` their iterated brackets."""
    span = Subspace(a.field, a.dim, [a.basis_vector(i) for i in members])
    while True:
        vectors = span.basis.entries
        grown = Subspace(
            a.field, a.dim, list(vectors) + [op(x, y) for x in vectors for y in vectors]
        )
        if grown.dim == span.dim:
            return span
        span = grown


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


# -- the presentation conditions, element by element --------------------------------
# The library's earlier presentation checkers: every condition evaluated on
# basis vectors through the module actions and pairings, instead of reading
# the library's rows.  The diagonal conditions use the per-pair rule loops.


def _vec_add(f, *vecs):
    out = list(vecs[0])
    for v in vecs[1:]:
        for i, x in enumerate(v):
            out[i] = f.add(out[i], x)
    return tuple(out)


def _vec_sub(f, u, v):
    return tuple(f.sub(x, y) for x, y in zip(u, v))


def _module_compat(module, left, diag, phi, chi):
    """Basis pairs breaking phi(x.p) = delta(x).p + x.phi(p) - p.chi(x), or
    the mirror rule from the right; a left pair is located as (x, p), a right
    pair as (p, x)."""
    f = module.field
    if left:
        algebra, law = module.left, "left_product"
        act, cross_act = module.act_left, lambda h, p: module.act_right(p, h)
    else:
        algebra, law = module.right, "right_product"
        act, cross_act = lambda x, p: module.act_right(p, x), module.act_left
    bad = []
    for i in range(algebra.dim):
        x = algebra.basis_vector(i)
        dx = diag.column(i)
        hx = chi.column(i)
        for j in range(module.dim):
            p = module.basis_vector(j)
            lhs = phi.apply(act(x, p))
            rhs = _vec_sub(f, _vec_add(f, act(dx, p), act(x, phi.column(j))), cross_act(hx, p))
            if lhs != rhs:
                bad.append(Violation(law, (i, j) if left else (j, i)))
    return bad


def _reference_block_report(g, parts, kind, defect, rule, cross):
    c, f = g.context, g.field
    _, dm, dn, _ = g.block_dims
    diagonal = []
    for side, algebra, on in (("a", c.a, parts.on_a), ("b", c.b, parts.on_b)):
        where = defect(algebra, EndoMap(on))
        if where is not None:
            diagonal.append(Violation(f"{rule}_on_{side}", where))
    bad = {f"diagonal_{kind}": diagonal, **cross(g, parts)}
    bad["m_compat"] = _module_compat(
        c.m, True, parts.on_a, parts.on_m, parts.a_to_center_b
    ) + _module_compat(c.m, False, parts.on_b, parts.on_m, parts.b_to_center_a)
    bad["n_compat"] = _module_compat(
        c.n, False, parts.on_a, parts.on_n, parts.a_to_center_b
    ) + _module_compat(c.n, True, parts.on_b, parts.on_n, parts.b_to_center_a)
    pairing = []
    for i in range(dm):
        em = c.m.basis_vector(i)
        fm = parts.on_m.column(i)
        for j in range(dn):
            en = c.n.basis_vector(j)
            gn = parts.on_n.column(j)
            mn = c.pair_mn_apply(em, en)
            nm = c.pair_nm_apply(en, em)
            lhs1 = _vec_sub(f, parts.on_a.apply(mn), parts.b_to_center_a.apply(nm))
            rhs1 = _vec_add(f, c.pair_mn_apply(em, gn), c.pair_mn_apply(fm, en))
            if lhs1 != rhs1:
                pairing.append(Violation("first_block", (i, j)))
            lhs2 = _vec_sub(f, parts.on_b.apply(nm), parts.a_to_center_b.apply(mn))
            rhs2 = _vec_add(f, c.pair_nm_apply(gn, em), c.pair_nm_apply(en, fm))
            if lhs2 != rhs2:
                pairing.append(Violation("second_block", (i, j)))
    bad["pairing_compat"] = pairing
    return PresentationReport(kind, {k: tuple(v) for k, v in bad.items()})


def _cross_central(g, parts):
    c = g.context
    central, kill = [], []
    for side, name, cross, source, target in (
        ("a", "a_to_center_b", parts.a_to_center_b, c.a, c.b),
        ("b", "b_to_center_a", parts.b_to_center_a, c.b, c.a),
    ):
        center_t = center(target)
        for i in range(cross.cols):
            if not center_t.contains_vector(cross.column(i)):
                central.append(Violation(f"{name}_value", (i,)))
        for idx, w in enumerate(commutator_span(source).basis.entries):
            if any(cross.apply(w)):
                kill.append(Violation(f"{side}_commutator", (idx,)))
    return {"cross_central": central, "cross_kill_commutators": kill}


def _cross_zero(g, parts):
    crosses = (("a_to_center_b", parts.a_to_center_b), ("b_to_center_a", parts.b_to_center_a))
    nonzero = [
        Violation(f"{name}_value", (i,))
        for name, cross in crosses
        for i in range(cross.cols)
        if any(cross.column(i))
    ]
    return {"cross_zero": nonzero}


def reference_lie_parts_report(g, parts):
    """``check_lie_parts`` as loops over basis vectors."""
    return _reference_block_report(
        g, parts, "lie", reference_lie_defect, "bracket_rule", _cross_central
    )


def reference_derivation_parts_report(g, parts):
    """``check_derivation_parts`` as loops over basis vectors."""
    return _reference_block_report(
        g, parts, "derivation", reference_derivation_defect, "product_rule", _cross_zero
    )


def reference_central_parts_report(g, parts):
    """``check_central_parts`` as loops over basis vectors."""
    c, f = g.context, g.field
    da, dm, dn, db = g.block_dims
    bad = {"kill_commutators": [], "central_pairs": [], "pairing_match": []}
    zero_a, zero_b = (f.zero,) * da, (f.zero,) * db
    for idx, w in enumerate(commutator_span(c.a).basis.entries):
        if parts.a_to_center_a.apply(w) != zero_a:
            bad["kill_commutators"].append(Violation("a_to_center_a", (idx,)))
        if parts.a_to_center_b.apply(w) != zero_b:
            bad["kill_commutators"].append(Violation("a_to_center_b", (idx,)))
    for idx, w in enumerate(commutator_span(c.b).basis.entries):
        if parts.b_to_center_a.apply(w) != zero_a:
            bad["kill_commutators"].append(Violation("b_to_center_a", (idx,)))
        if parts.b_to_center_b.apply(w) != zero_b:
            bad["kill_commutators"].append(Violation("b_to_center_b", (idx,)))
    z_g = center(g.algebra)
    zero_m, zero_n = (f.zero,) * dm, (f.zero,) * dn
    for law, count, upper, lower in (
        ("first_diagonal", da, parts.a_to_center_a, parts.a_to_center_b),
        ("second_diagonal", db, parts.b_to_center_a, parts.b_to_center_b),
    ):
        for i in range(count):
            if not z_g.contains_vector(g.embed(upper.column(i), zero_m, zero_n, lower.column(i))):
                bad["central_pairs"].append(Violation(law, (i,)))
    for i in range(dm):
        em = c.m.basis_vector(i)
        for j in range(dn):
            en = c.n.basis_vector(j)
            mn = c.pair_mn_apply(em, en)
            nm = c.pair_nm_apply(en, em)
            if parts.a_to_center_a.apply(mn) != parts.b_to_center_a.apply(nm):
                bad["pairing_match"].append(Violation("first_block", (i, j)))
            if parts.a_to_center_b.apply(mn) != parts.b_to_center_b.apply(nm):
                bad["pairing_match"].append(Violation("second_block", (i, j)))
    return PresentationReport("central", {k: tuple(v) for k, v in bad.items()})


# -- presentations rebuilt column by column -------------------------------------------
# The library's earlier rebuild: each column of the map assembled from the
# components through the module actions and pairings, rather than placing
# the components as blocks of the matrix and adding the inner derivation by
# the shifts; and its earlier center isomorphism, solved through the module
# actions rather than read off the center's basis.


def reference_lie_matrix(g, parts):
    """The map that a Lie presentation presents, one basis column at a time."""
    c, f, p = g.context, g.field, parts
    sm, sn = p.shift_m, p.shift_n
    mn, nm = c.pair_mn_apply, c.pair_nm_apply

    def neg(v):
        return tuple(f.neg(x) for x in v)

    cols = []
    for t in range(c.a.dim):
        e = c.a.basis_vector(t)
        m, n = c.m.act_left(e, sm), c.n.act_right(sn, e)
        cols.append(g.embed(p.on_a.column(t), m, n, p.a_to_center_b.column(t)))
    for t in range(c.m.dim):
        e = c.m.basis_vector(t)
        cols.append(g.embed(neg(mn(e, sn)), p.on_m.column(t), c.n.zero(), nm(sn, e)))
    for t in range(c.n.dim):
        e = c.n.basis_vector(t)
        cols.append(g.embed(neg(mn(sm, e)), c.m.zero(), p.on_n.column(t), nm(e, sm)))
    for t in range(c.b.dim):
        e = c.b.basis_vector(t)
        m, n = neg(c.m.act_right(sm, e)), neg(c.n.act_left(e, sn))
        cols.append(g.embed(p.b_to_center_a.column(t), m, n, p.on_b.column(t)))
    return Matrix.from_columns(f, cols, rows=g.algebra.dim)


def reference_central_matrix(g, parts):
    """A central presentation rebuilt as the Lie presentation with zero
    module maps and shifts."""
    f = g.field
    _, dm, dn, _ = g.block_dims
    lie = LiePresentation(
        parts.a_to_center_a, parts.b_to_center_b, Matrix.zeros(f, dm, dm), Matrix.zeros(f, dn, dn),
        parts.a_to_center_b, parts.b_to_center_a, (f.zero,) * dm, (f.zero,) * dn,
    )
    return reference_lie_matrix(g, lie)


def reference_center_iso(g):
    """None unless M is faithful on both sides; otherwise solve a.m = m.phi(a)
    and phi(a).n = n.a for each basis element a of the projected center, and
    give phi over the canonical bases of the two projected centers."""
    c, f = g.context, g.field
    if left_action_kernel(c.m).dim or right_action_kernel(c.m).dim:
        return None
    an = center_analysis(g)
    _, dm, dn, db = g.block_dims
    # for each module basis m_j the map b -> m_j.b, and for each n_j the map
    # b -> b.n_j, stacked into one system over b
    blocks = [
        Matrix.from_columns(
            f, [c.m.act_right(c.m.basis_vector(j), c.b.basis_vector(i)) for i in range(db)], rows=dm
        )
        for j in range(dm)
    ]
    blocks += [
        Matrix.from_columns(
            f, [c.n.act_left(c.b.basis_vector(i), c.n.basis_vector(j)) for i in range(db)], rows=dn
        )
        for j in range(dn)
    ]
    system = Matrix.vstack(f, blocks, cols=db) if blocks else Matrix.zeros(f, 0, db)
    cols = []
    for avec in an.proj_a.basis.entries:
        rhs = []
        for j in range(dm):
            rhs.extend(c.m.act_left(avec, c.m.basis_vector(j)))
        for j in range(dn):
            rhs.extend(c.n.act_right(c.n.basis_vector(j), avec))
        cols.append(an.proj_b.coordinates(solve(system, rhs)))
    return Matrix.from_columns(f, cols, rows=an.proj_b.dim)


def reference_bimodule_violations(m) -> list:
    """The five module axiom families of a bimodule, each checked on all
    basis tuples by acting with basis vectors."""
    bad = []
    a, b = m.left, m.right
    for j in range(m.dim):
        ej = m.basis_vector(j)
        if m.act_left(a.unit, ej) != ej:
            bad.append(Violation("module_left_unit", (j,)))
        if m.act_right(ej, b.unit) != ej:
            bad.append(Violation("module_right_unit", (j,)))
    for i, i2, j in itertools.product(range(a.dim), range(a.dim), range(m.dim)):
        ei, ei2, ej = a.basis_vector(i), a.basis_vector(i2), m.basis_vector(j)
        if m.act_left(a.multiply(ei, ei2), ej) != m.act_left(ei, m.act_left(ei2, ej)):
            bad.append(Violation("module_left_assoc", (i, i2, j)))
    for j, i, i2 in itertools.product(range(m.dim), range(b.dim), range(b.dim)):
        ej, ei, ei2 = m.basis_vector(j), b.basis_vector(i), b.basis_vector(i2)
        if m.act_right(ej, b.multiply(ei, ei2)) != m.act_right(m.act_right(ej, ei), ei2):
            bad.append(Violation("module_right_assoc", (j, i, i2)))
    for i, j, k in itertools.product(range(a.dim), range(m.dim), range(b.dim)):
        ei, ej, ek = a.basis_vector(i), m.basis_vector(j), b.basis_vector(k)
        if m.act_right(m.act_left(ei, ej), ek) != m.act_left(ei, m.act_right(ej, ek)):
            bad.append(Violation("module_balance", (i, j, k)))
    return bad


def reference_context_violations(c) -> list:
    """Module axioms of both modules, pairing balance and homomorphism laws,
    and the two associativity diagrams, each checked on all basis tuples."""
    bad = []
    bad += [Violation("m." + v.law, v.where) for v in reference_bimodule_violations(c.m)]
    bad += [Violation("n." + v.law, v.where) for v in reference_bimodule_violations(c.n)]
    a, b, m, n = c.a, c.b, c.m, c.n
    da, dm, dn, db = c.block_dims

    for i, j, k in itertools.product(range(da), range(dm), range(dn)):
        ea, em, en = a.basis_vector(i), m.basis_vector(j), n.basis_vector(k)
        if c.pair_mn_apply(m.act_left(ea, em), en) != a.multiply(ea, c.pair_mn_apply(em, en)):
            bad.append(Violation("pair_mn_left_linear", (i, j, k)))
        if c.pair_mn_apply(em, n.act_right(en, ea)) != a.multiply(c.pair_mn_apply(em, en), ea):
            bad.append(Violation("pair_mn_right_linear", (j, k, i)))
    for i, j, k in itertools.product(range(dm), range(db), range(dn)):
        em, eb, en = m.basis_vector(i), b.basis_vector(j), n.basis_vector(k)
        if c.pair_mn_apply(m.act_right(em, eb), en) != c.pair_mn_apply(em, n.act_left(eb, en)):
            bad.append(Violation("pair_mn_balanced", (i, j, k)))
    for i, j, k in itertools.product(range(db), range(dn), range(dm)):
        eb, en, em = b.basis_vector(i), n.basis_vector(j), m.basis_vector(k)
        if c.pair_nm_apply(n.act_left(eb, en), em) != b.multiply(eb, c.pair_nm_apply(en, em)):
            bad.append(Violation("pair_nm_left_linear", (i, j, k)))
        if c.pair_nm_apply(en, m.act_right(em, eb)) != b.multiply(c.pair_nm_apply(en, em), eb):
            bad.append(Violation("pair_nm_right_linear", (j, k, i)))
    for i, j, k in itertools.product(range(dn), range(da), range(dm)):
        en, ea, em = n.basis_vector(i), a.basis_vector(j), m.basis_vector(k)
        if c.pair_nm_apply(n.act_right(en, ea), em) != c.pair_nm_apply(en, m.act_left(ea, em)):
            bad.append(Violation("pair_nm_balanced", (i, j, k)))

    for i, j, k in itertools.product(range(dm), range(dn), range(dm)):
        em, en, em2 = m.basis_vector(i), n.basis_vector(j), m.basis_vector(k)
        if m.act_left(c.pair_mn_apply(em, en), em2) != m.act_right(em, c.pair_nm_apply(en, em2)):
            bad.append(Violation("diagram_m", (i, j, k)))
    for i, j, k in itertools.product(range(dn), range(dm), range(dn)):
        en, em, en2 = n.basis_vector(i), m.basis_vector(j), n.basis_vector(k)
        if n.act_left(c.pair_nm_apply(en, em), en2) != n.act_right(en, c.pair_mn_apply(em, en2)):
            bad.append(Violation("diagram_n", (i, j, k)))
    return bad


def record_structure_checks(monkeypatch) -> list:
    """Patch ``structure_violations`` wherever the library calls it; the
    returned list collects the structure tensor of every later call."""
    calls = []
    original = gmalie.algebra.structure_violations

    def recording(field, dim, structure, unit, *args, **kwargs):
        calls.append(structure)
        return original(field, dim, structure, unit, *args, **kwargs)

    for module in (gmalie.algebra, gmalie.morita):
        monkeypatch.setattr(module, "structure_violations", recording)
    return calls


def patch_every_binding(monkeypatch, fn, replacement):
    """Replace ``fn`` wherever a gmalie module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gmalie" or mod_name.startswith("gmalie."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def record_calls(monkeypatch, *targets) -> list:
    """Wrap each target wherever the library calls it: a function, patched
    wherever a gmalie module binds it, or a (class, function) pair, patched
    on the class.  The returned list collects, for every later call, the
    function's name, the call's arguments and the names of the recorded
    calls still open around it, outermost first."""
    calls, open_calls = [], []
    for target in targets:
        owner, fn = target if isinstance(target, tuple) else (None, target)

        def wrapper(*args, _fn=fn, **kwargs):
            calls.append((_fn.__name__, args, tuple(open_calls)))
            open_calls.append(_fn.__name__)
            try:
                return _fn(*args, **kwargs)
            finally:
                open_calls.pop()

        if owner is None:
            patch_every_binding(monkeypatch, fn, wrapper)
        else:
            monkeypatch.setattr(owner, fn.__name__, wrapper)
    return calls
