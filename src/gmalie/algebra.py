"""Finite-dimensional unital associative algebras from structure constants,
and the structural analyses every hypothesis check quantifies over: center,
commutator span, central ideals, zero divisors, idempotents, and the
subalgebra generated by commutators and idempotents.

Elements are coordinate columns (tuples) in the fixed basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from functools import lru_cache, wraps
from typing import NamedTuple

from .errors import DimensionMismatch, ValidationFailure, Violation
from .fields import Field
from .linalg import Matrix, Subspace, kernel, rref
from .tristate import TriState

DEFAULT_BUDGET = 10**6

__all__ = [
    "FDAlgebra",
    "IdempotentScan",
    "GeneratedSubalgebra",
    "StructureReport",
    "structure_violations",
    "commutation_operator",
    "center",
    "commutator_span",
    "central_ideal_subspace",
    "central_ideal_free",
    "domain_scan",
    "enumerate_idempotents",
    "subalgebra_closure",
    "commutator_idempotent_subalgebra",
    "analyze_algebra",
    "DEFAULT_BUDGET",
]


def _canonical_tensor(field, tensor, shape):
    """Coerce a rank-3 tensor to canonical nested tuples, checking its shape."""
    d0, d1, d2 = shape
    if len(tensor) != d0:
        raise DimensionMismatch(f"tensor has {len(tensor)} slices, expected {d0}")
    out = []
    for i, plane in enumerate(tensor):
        if len(plane) != d1:
            raise DimensionMismatch(f"tensor slice {i} has {len(plane)} rows, expected {d1}")
        rows = []
        for j, row in enumerate(plane):
            if len(row) != d2:
                raise DimensionMismatch(
                    f"tensor entry [{i}][{j}] has length {len(row)}, expected {d2}"
                )
            rows.append(field.vector(row))
        out.append(tuple(rows))
    return tuple(out)


@dataclass(frozen=True)
class FDAlgebra:
    """Unital associative algebra: e_i * e_j = sum_k structure[i][j][k] e_k.

    Associativity and the unit laws are validated at construction; an
    invalid tensor raises :class:`ValidationFailure` naming the indices.
    ``declared_idempotents`` feed the enumeration over infinite fields;
    ``idempotents_complete`` is a caller assertion that the declared list
    (plus 0 and 1) is exhaustive.
    """

    field: Field
    dim: int
    structure: tuple
    unit: tuple
    declared_idempotents: tuple = ()
    idempotents_complete: bool = False

    def __post_init__(self):
        f = self.field
        d = self.dim
        if d < 1:
            raise DimensionMismatch("algebra dimension must be positive")
        object.__setattr__(
            self, "structure", _canonical_tensor(f, self.structure, (d, d, d))
        )
        if len(self.unit) != d:
            raise DimensionMismatch("unit coordinate length mismatch")
        object.__setattr__(self, "unit", f.vector(self.unit))
        object.__setattr__(
            self, "declared_idempotents", tuple(map(f.vector, self.declared_idempotents))
        )
        bad = structure_violations(f, d, self.structure, self.unit)
        for e in self.declared_idempotents:
            if len(e) != d:
                raise DimensionMismatch("declared idempotent length mismatch")
            if self.multiply(e, e) != e:
                bad.append(Violation("declared_idempotent", (e,), "e*e != e"))
        if bad:
            raise ValidationFailure("invalid algebra", bad)

    def __hash__(self):
        # memo lookups hash the algebra: walk the d^3 entries once per
        # instance.  The field enters as its characteristic, an int, so the
        # value does not depend on the process's string-hash seed.
        if "_hash" not in self.__dict__:
            fields = (self.field.characteristic, self.dim, self.structure, self.unit)
            extra = (self.declared_idempotents, self.idempotents_complete)
            object.__setattr__(self, "_hash", hash(fields + extra))
        return self.__dict__["_hash"]

    # -- element operations ----------------------------------------------------

    def zero(self) -> tuple:
        return (self.field.zero,) * self.dim

    def basis_vector(self, i) -> tuple:
        z, o = self.field.zero, self.field.one
        return tuple(o if j == i else z for j in range(self.dim))

    def multiply(self, x, y) -> tuple:
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element coordinate length mismatch")
        return _bilinear(self.field, self.structure, x, y, self.dim)

    def bracket(self, x, y) -> tuple:
        sub = self.field.sub
        xy = self.multiply(x, y)
        yx = self.multiply(y, x)
        return tuple(sub(a, b) for a, b in zip(xy, yx))

    def left_mult(self, x) -> Matrix:
        """Matrix of y -> x*y."""
        cols = [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols, rows=self.dim)

    def right_mult(self, x) -> Matrix:
        """Matrix of y -> y*x."""
        cols = [self.multiply(self.basis_vector(j), x) for j in range(self.dim)]
        return Matrix.from_columns(self.field, cols, rows=self.dim)

    def is_commutative(self) -> bool:
        d = self.dim
        return all(
            self.structure[i][j] == self.structure[j][i]
            for i in range(d)
            for j in range(i + 1, d)
        )


def _bilinear(f, tensor, x, y, out_dim) -> tuple:
    """sum_{i,j} x_i y_j tensor[i][j], the product that a rank-3 structure or
    action tensor defines."""
    acc = [f.zero] * out_dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        plane = tensor[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = f.mul(xi, yj)
            for k, s in enumerate(plane[j]):
                if s:
                    acc[k] = f.add(acc[k], f.mul(c, s))
    return tuple(acc)


def structure_violations(field, dim, structure, unit, cap=8):
    """Unit-law and associativity violations of a structure tensor.

    Stops collecting after ``cap`` entries, or never when ``cap`` is None;
    an empty list means valid.  Associators are first checked on S x A x A
    for a generating set S: the left nucleus {x : (xy)z = x(yz)} is a
    subalgebra and the words in S span A, so it is all of A once it holds
    S.  Only when that check fails are all d^3 basis triples scanned, in
    order.
    """
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
    # support[i][j] lists the (m, s) with e_i e_j = sum s e_m
    support = [
        [[(m, s) for m, s in enumerate(row) if s != z] for row in plane] for plane in structure
    ]
    p = f.characteristic
    span = range(dim)
    gens = _greedy_generators(f, dim, support)
    if not any(_associator_fails(support, p, i, j, k) for i in gens for j in span for k in span):
        return bad
    for i, j, k in itertools.product(span, repeat=3):
        if _associator_fails(support, p, i, j, k):
            bad.append(Violation("associativity", (i, j, k)))
            if len(bad) >= cap:
                return bad
    return bad


def _associator_fails(support, p, i, j, k) -> bool:
    """Is (e_i e_j) e_k != e_i (e_j e_k)?  Summed over the nonzero terms of
    ``support`` only; the difference of the two sides accumulates as plain
    scalars, and over GF(p) each coordinate is reduced once, at the zero
    test."""
    acc = {}
    for m, s in support[i][j]:
        for n, t in support[m][k]:
            st = s * t
            acc[n] = acc[n] + st if n in acc else st
    for m, s in support[j][k]:
        for n, t in support[i][m]:
            st = s * t
            acc[n] = acc[n] - st if n in acc else -st
    return any(x % p for x in acc.values()) if p else any(acc.values())


# -- structural analyses ----------------------------------------------------


@lru_cache(maxsize=256)
def _facts(a) -> dict:
    """The derived facts computed so far for one algebra (or assembled
    context) value, by builder."""
    return {}


def _memo(build):
    """Run ``build(a)`` once per value of ``a``: an algebra, or an assembled
    context.

    Equal values built separately share one entry, and every caller gets
    the same result object, so builders must return immutable values.
    """

    @wraps(build)
    def cached(a):
        facts = _facts(a)
        if build not in facts:
            facts[build] = build(a)
        return facts[build]

    return cached


@_memo
def _bracket_tensor(a: FDAlgebra):
    """Structure tensor of the bracket: [e_i, e_j] = sum_k t[i][j][k] e_k.
    Zero entries share one zero scalar, which keeps the memoized tensor small."""
    st = a.structure
    sub, z = a.field.sub, a.field.zero
    return tuple(
        tuple(
            tuple(sub(x, y) if x != y else z for x, y in zip(st[i][j], st[j][i]))
            for j in range(a.dim)
        )
        for i in range(a.dim)
    )


class TensorTerms(NamedTuple):
    """The nonzero entries of a product tensor t, with e_i e_j = sum_k
    t[i][j][k] e_k, listed three ways, each list in increasing index order:
    ``out[i][j]`` holds the (k, s) with s = t[i][j][k], ``left[j][k]`` the
    (p, s) with s = t[p][j][k], and ``right[i][k]`` the (q, s) with
    s = t[i][q][k]."""

    out: tuple
    left: tuple
    right: tuple


def _tensor_terms(f: Field, d: int, tensor) -> TensorTerms:
    z = f.zero
    out = tuple(
        tuple(tuple((k, s) for k, s in enumerate(row) if s != z) for row in plane)
        for plane in tensor
    )
    left = [[[] for _ in range(d)] for _ in range(d)]
    right = [[[] for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            for k, s in out[i][j]:
                left[j][k].append((i, s))
                right[i][k].append((j, s))

    def freeze(lists):
        return tuple(tuple(tuple(terms) for terms in plane) for plane in lists)

    return TensorTerms(out, freeze(left), freeze(right))


@_memo
def _product_terms(a: FDAlgebra) -> TensorTerms:
    return _tensor_terms(a.field, a.dim, a.structure)


@_memo
def _bracket_terms(a: FDAlgebra) -> TensorTerms:
    return _tensor_terms(a.field, a.dim, _bracket_tensor(a))


def _greedy_generators(f: Field, d: int, out, steps=None) -> tuple:
    """Basis indices, in increasing order, whose basis vectors generate F^d
    under the products ``out`` (a ``TensorTerms.out``).

    Index i joins when e_i is outside the span W of what the earlier
    members generate; W is kept closed under x -> e_s x for every member s
    by a worklist of (member, stored vector) pairs, so W is spanned by the
    words of length >= 1 in the members.  No unit is adjoined.

    When ``steps`` is a list, the walk appends one ``Step`` per stored
    vector, in the order they are stored: each is a word in the members
    and the earlier stored vectors, which is how a map fixed by its values
    on the members is carried onto the whole basis.
    """
    z, one = f.zero, f.one
    add, sub, mul = f.add, f.sub, f.mul
    echelon = {}  # pivot -> sparse vector (dict) with a 1 at the pivot
    members, work = [], []

    def reduce(v: dict, trail) -> dict:
        for c in sorted(echelon):
            x = v.get(c)
            if x is not None:
                if trail is not None:
                    trail.append((c, x))
                for t, b in echelon[c].items():
                    y = sub(v.get(t, z), mul(x, b))
                    if y != z:
                        v[t] = y
                    else:
                        del v[t]
        return v

    def store(v: dict, s, w, trail):
        c = min(v)
        scale = one
        if v[c] != one:
            scale = f.inv(v[c])
            v = {t: mul(scale, x) for t, x in v.items()}
        echelon[c] = v
        if steps is not None:
            steps.append(Step(c, tuple(v.items()), s, w, tuple(trail), scale))
        work.extend((m, c) for m in members)

    def times(s, v: dict) -> dict:
        acc = {}
        for m, x in v.items():
            for k, t in out[s][m]:
                acc[k] = add(acc[k], mul(x, t)) if k in acc else mul(x, t)
        return {k: x for k, x in acc.items() if x != z}

    for i in range(d):
        if len(echelon) == d:
            break
        trail = None if steps is None else []
        v = reduce({i: one}, trail)
        if not v:
            continue
        members.append(i)
        work.extend((i, c) for c in echelon)
        store(v, i, None, trail)
        while work and len(echelon) < d:
            s, c = work.pop()
            trail = None if steps is None else []
            v = reduce(times(s, echelon[c]), trail)
            if v:
                store(v, s, c, trail)
    return tuple(members)


class Step(NamedTuple):
    """One stored vector of the greedy walk, with its (index, coordinate)
    pairs in ``vector``: a 1 at ``pivot`` and nothing before it.  It is
    ``scale`` * (u - sum of x * stored[c] over the (c, x) in
    ``reductions``), with u = e_s when ``word`` is None and u = e_s times
    stored[word] otherwise; stored[c] is the vector stored earlier with
    pivot c."""

    pivot: int
    vector: tuple
    s: int
    word: int | None
    reductions: tuple
    scale: object


class Walk(NamedTuple):
    """A generating set and the steps of the greedy walk that found it."""

    members: tuple
    steps: tuple


def _walk(a: FDAlgebra, terms) -> Walk:
    steps = []
    members = _greedy_generators(a.field, a.dim, terms.out, steps)
    return Walk(members, tuple(steps))


@_memo
def _product_walk(a: FDAlgebra) -> Walk:
    return _walk(a, _product_terms(a))


@_memo
def _bracket_walk(a: FDAlgebra) -> Walk:
    return _walk(a, _bracket_terms(a))


def _generators(a: FDAlgebra) -> tuple:
    """A generating set S of the algebra, without its unit: the derivations
    are fixed by the product rule on the pairs (s, j), s in S."""
    return _product_walk(a).members


def _lie_generators(a: FDAlgebra) -> tuple:
    """A generating set of the algebra's Lie algebra: iterated brackets of
    its members span the algebra, and its centralizer is the center."""
    return _bracket_walk(a).members


@_memo
def _peirce_weights(a: FDAlgebra) -> tuple | None:
    """The weight of each basis vector in the Peirce grading that the basis
    shows, or None when every weight is zero.

    E is the set of idempotent basis vectors.  When they are pairwise
    orthogonal, at least two and sum to the unit, and every basis vector b
    lies in one Peirce block e_i A e_j (e_i b = b = b e_j for one i and one
    j in E), b has the weight eps_i - eps_j in Z^|E|, and products and
    brackets add weights.  Otherwise E = {1}, and every weight is zero.  A
    weight w is stored as the int sum w_t 5^t: a sum of two weights has
    entries in [-2, 2], which base 5 keeps apart.  Below 3 dimensions a
    grading has no room for a nonzero weight, so none is looked for."""
    st, d, f = a.structure, a.dim, a.field
    if d < 3:
        return None
    basis = [a.basis_vector(b) for b in range(d)]
    idem = [b for b in range(d) if st[b][b] == basis[b]]
    if (
        len(idem) < 2
        or a.unit != tuple(f.one if b in idem else f.zero for b in range(d))
        or any(st[i][j] != a.zero() for i in idem for j in idem if i != j)
    ):
        return None
    weights = []
    for b in range(d):
        left = [t for t, i in enumerate(idem) if st[i][b] == basis[b]]
        right = [t for t, j in enumerate(idem) if st[b][j] == basis[b]]
        if len(left) != 1 or len(right) != 1:
            return None
        weights.append(5 ** left[0] - 5 ** right[0])
    return tuple(weights) if any(weights) else None


def _commutation_rows(a: FDAlgebra, members) -> Matrix:
    """Stacked matrix of x -> [e_i, x] over the i in ``members``.

    Row t*d + k, for the t-th member i, column m holds the e_k coefficient
    of [e_i, e_m], so the matrix shares its scalars with the bracket tensor.
    """
    bracket = _bracket_tensor(a)
    d = a.dim
    rows = [[bracket[i][m][k] for m in range(d)] for i in members for k in range(d)]
    return Matrix(a.field, rows, cols=d)


@_memo
def commutation_operator(a: FDAlgebra) -> Matrix:
    """Stacked matrix of x -> ([e_0, x], ..., [e_{d-1}, x]); kernel = center.

    The d^2 rows serve ad(s), the inner derivation that a presentation's
    rebuild adds; centrality itself is asked of the memoized ``center``."""
    return _commutation_rows(a, range(a.dim))


@_memo
def center(a: FDAlgebra) -> Subspace:
    """The centralizer of the Lie generators: whatever commutes with each
    member commutes with their iterated brackets, which span the algebra."""
    return kernel(_commutation_rows(a, _lie_generators(a)))


@_memo
def commutator_span(a: FDAlgebra) -> Subspace:
    bracket = _bracket_tensor(a)
    vectors = [bracket[i][j] for i in range(a.dim) for j in range(i + 1, a.dim)]
    return Subspace(a.field, a.dim, vectors)


def central_ideal_subspace(a: FDAlgebra) -> Subspace:
    """K = {c in Z(A) : A*c contained in Z(A)}.

    For a unital algebra the two-sided ideal generated by central c is A*c,
    so K is nonzero exactly when A contains a nonzero central ideal.  A*c in
    Z(A) already puts c = 1*c there, so K is the kernel of R*L(e_i) stacked
    over every i, where R is the center's membership operator (kernel
    exactly Z(A)) and L(e_i) left multiplication: d^2 rows.
    """
    r = center(a).membership_operator()
    blocks = [r @ a.left_mult(a.basis_vector(i)) for i in range(a.dim)]
    return kernel(Matrix.vstack(a.field, blocks, cols=a.dim))


def central_ideal_free(a: FDAlgebra) -> bool:
    return central_ideal_subspace(a).dim == 0


def _all_elements(a: FDAlgebra):
    p = a.field.p
    return itertools.product(range(p), repeat=a.dim)


def _no_annihilating_pair(acting: FDAlgebra, module_dim: int, act, budget) -> TriState:
    """Does x.p = 0 force x = 0 or p = 0, for x in ``acting`` acting through
    ``act(x, p)`` on a module of dimension ``module_dim``?

    Exact over GF(p) when p^dim fits the enumeration budget (x annihilates a
    nonzero p iff its action operator is singular), and for a one-dimensional
    acting algebra over any field (every nonzero element acts as a scalar
    times the single basis operator).  Otherwise only a basis-pair witness
    scan runs, so the positive answer degrades to Unknown.
    """
    f = acting.field
    z, o = f.zero, f.one
    module_basis = [
        tuple(o if k == j else z for k in range(module_dim)) for j in range(module_dim)
    ]

    def operator(x) -> Matrix:
        return Matrix.from_columns(f, [act(x, p) for p in module_basis], rows=module_dim)

    if acting.dim == 1:
        _, rank = rref(operator(acting.basis_vector(0)))
        return TriState.from_bool(rank == module_dim)
    zero = (z,) * module_dim
    for i in range(acting.dim):
        x = acting.basis_vector(i)
        if any(act(x, p) == zero for p in module_basis):
            return TriState.FAILS
    if f.is_prime_field and f.p ** acting.dim <= budget:
        for coords in _all_elements(acting):
            if any(coords) and rref(operator(coords))[1] < module_dim:
                return TriState.FAILS
        return TriState.HOLDS
    return TriState.UNKNOWN


def domain_scan(a: FDAlgebra, budget: int = DEFAULT_BUDGET) -> TriState:
    """Decide absence of zero divisors: ``_no_annihilating_pair`` for a acting
    on itself by left multiplication.  One-dimensional unital algebras are
    fields and therefore domains."""
    return _no_annihilating_pair(a, a.dim, a.multiply, budget)


@dataclass(frozen=True)
class IdempotentScan:
    """Idempotent elements found, and whether the list is provably complete."""

    elements: tuple
    complete: bool


def enumerate_idempotents(a: FDAlgebra, budget: int = DEFAULT_BUDGET) -> IdempotentScan:
    """All solutions of x*x = x within budget; otherwise {0, 1} plus the
    declared idempotents, flagged incomplete unless the algebra asserts
    completeness (or is one-dimensional, where {0, 1} is provably all)."""
    if a.field.is_prime_field and a.field.p ** a.dim <= budget:
        found = []
        for coords in _all_elements(a):
            if a.multiply(coords, coords) == coords:
                found.append(coords)
        return IdempotentScan(tuple(found), True)
    known = {a.zero(), a.unit}
    known.update(a.declared_idempotents)
    complete = a.idempotents_complete or a.dim == 1
    return IdempotentScan(tuple(sorted(known)), complete)


def subalgebra_closure(a: FDAlgebra, generators) -> Subspace:
    """Smallest multiplicatively closed subspace containing the generators.

    Iterates span <- span + span*span; the dimension strictly increases or
    the iteration stops, so at most dim rounds run.
    """
    span = Subspace(a.field, a.dim, generators)
    while True:
        basis = span.basis.entries
        products = [a.multiply(x, y) for x in basis for y in basis]
        grown = Subspace(a.field, a.dim, list(basis) + products)
        if grown.dim == span.dim:
            return span
        span = grown


@dataclass(frozen=True)
class GeneratedSubalgebra:
    """Subalgebra generated by all commutators and (known) idempotents.

    ``exact`` is False when the idempotent list was incomplete, in which
    case ``space`` is only a lower bound.
    """

    space: Subspace
    exact: bool

    def spans(self, a: FDAlgebra) -> TriState:
        """Does the subalgebra exhaust the whole algebra?

        A full lower bound already proves Holds; a proper subspace proves
        Fails only when the generating set was exhaustive.
        """
        if self.space.dim == a.dim:
            return TriState.HOLDS
        return TriState.FAILS if self.exact else TriState.UNKNOWN


def commutator_idempotent_subalgebra(
    a: FDAlgebra, budget: int = DEFAULT_BUDGET
) -> GeneratedSubalgebra:
    return _generated_subalgebra(a, enumerate_idempotents(a, budget))


def _generated_subalgebra(a: FDAlgebra, scan: IdempotentScan) -> GeneratedSubalgebra:
    generators = list(commutator_span(a).basis.entries) + list(scan.elements)
    return GeneratedSubalgebra(subalgebra_closure(a, generators), scan.complete)


@dataclass(frozen=True)
class StructureReport:
    """Everything the sufficient-condition checks ask of one algebra."""

    center: Subspace
    commutator_span: Subspace
    central_ideal_free: bool
    domain: TriState
    idempotents: IdempotentScan
    generated: GeneratedSubalgebra
    budget: int = dc_field(default=DEFAULT_BUDGET, compare=False)


def analyze_algebra(a: FDAlgebra, budget: int = DEFAULT_BUDGET) -> StructureReport:
    scan = enumerate_idempotents(a, budget)
    return StructureReport(
        center=center(a),
        commutator_span=commutator_span(a),
        central_ideal_free=central_ideal_free(a),
        domain=domain_scan(a, budget),
        idempotents=scan,
        generated=_generated_subalgebra(a, scan),
        budget=budget,
    )
