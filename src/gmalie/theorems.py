"""Mechanical hypothesis checkers for the sufficient-condition theorems.

Each named hypothesis maps to exactly one structural operation
(``_EVALUATORS``); a verdict is the check's formula over those names
(``_CHECKS``), Kleene-evaluated so an Unknown hypothesis in a required
position can never produce Holds.  Whenever a check concludes Holds, the
brute-force oracle is consulted and its agreement recorded: the theorems
are one-directional, so disagreement would mean a bug (or a broken theorem)
and is surfaced by the callers as a fatal condition.

Hypothesis name conventions: ``proj_center_a`` means the center of the
assembled algebra projects onto the full center of the first diagonal
block; ``ci_generates_a`` means commutators and idempotents generate the
first block; ``ldp_a`` means the first block itself has the property that
every Lie derivation is proper.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .algebra import DEFAULT_BUDGET, central_ideal_free, commutator_idempotent_subalgebra, domain_scan
from .errors import CharacteristicTwoError, PreconditionError
from .gma import GMAlgebra, center_analysis, is_trivial
from .morita import left_action_kernel, right_action_kernel, strongly_faithful
from .presentation import extract_lie
from .spaces import has_lie_derivation_property, is_proper, lie_derivation_space
from .tristate import TriState, tri_all, tri_any

DEFAULT_LDP_DIM_CAP = 6

__all__ = [
    "TheoremVerdict", "check_central_ideal", "check_domains", "check_strong_faithfulness",
    "check_combined", "check_trivial", "all_theorem_checks", "DEFAULT_LDP_DIM_CAP",
]


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one sufficient-condition check.

    ``hypotheses`` preserves evaluation order; ``oracle_agrees`` is filled
    only when ``overall`` is Holds (the conditions are sufficient, not
    necessary).  ``extras`` carries informational side checks.
    """

    check_id: str
    hypotheses: tuple
    overall: TriState
    oracle_agrees: bool | None
    extras: tuple = ()

    def hypothesis(self, name: str) -> TriState:
        for key, value in self.hypotheses:
            if key == name:
                return value
        raise KeyError(name)


def _gate(g: GMAlgebra):
    if g.field.characteristic == 2:
        raise CharacteristicTwoError(
            "sufficient-condition checks need characteristic != 2"
        )
    if g.is_direct_sum:
        raise PreconditionError(
            "both modules are zero: a direct sum of algebras, not a "
            "generalized matrix algebra"
        )


def _ldp_tristate(algebra, dim_cap: int) -> TriState:
    if algebra.field.characteristic == 2 or algebra.dim > dim_cap:
        return TriState.UNKNOWN
    return TriState.from_bool(has_lie_derivation_property(algebra))


def _necessity_on_basis(facts) -> TriState:
    """The necessary direction, on every basis Lie derivation of the
    assembled algebra: a proper one must have both cross-map ranges inside
    the projected centers."""
    g, an = facts.g, facts.center
    da, db = g.block_dims[0], g.block_dims[3]
    for endo in lie_derivation_space(g).basis_maps():
        if not is_proper(g, endo).proper:
            continue
        parts = extract_lie(g, endo)
        range_a = all(
            an.proj_b.contains_vector(parts.a_to_center_b.column(i)) for i in range(da)
        )
        range_b = all(
            an.proj_a.contains_vector(parts.b_to_center_a.column(j)) for j in range(db)
        )
        if not (range_a and range_b):
            return TriState.FAILS
    return TriState.HOLDS


# Fact name -> evaluator of one context's ``_Facts``.  Every entry is a
# hypothesis except ``necessity_on_basis``, the trivial check's side scan.
_EVALUATORS = {
    "m_left_faithful": lambda c: TriState.from_bool(left_action_kernel(c.ctx.m).dim == 0),
    "m_right_faithful": lambda c: TriState.from_bool(right_action_kernel(c.ctx.m).dim == 0),
    "proj_center_a": lambda c: TriState.from_bool(c.center.proj_a_is_center_a),
    "proj_center_b": lambda c: TriState.from_bool(c.center.proj_b_is_center_b),
    "central_ideal_free_a": lambda c: TriState.from_bool(central_ideal_free(c.ctx.a)),
    "central_ideal_free_b": lambda c: TriState.from_bool(central_ideal_free(c.ctx.b)),
    "domain_a": lambda c: domain_scan(c.ctx.a, c.budget),
    "domain_b": lambda c: domain_scan(c.ctx.b, c.budget),
    "strongly_faithful_m": lambda c: strongly_faithful(c.ctx.m, c.budget),
    "strongly_faithful_n": lambda c: strongly_faithful(c.ctx.n, c.budget),
    "ci_generates_a": lambda c: commutator_idempotent_subalgebra(c.ctx.a, c.budget).spans(c.ctx.a),
    "ci_generates_b": lambda c: commutator_idempotent_subalgebra(c.ctx.b, c.budget).spans(c.ctx.b),
    "ldp_a": lambda c: _ldp_tristate(c.ctx.a, c.ldp_dim_cap),
    "ldp_b": lambda c: _ldp_tristate(c.ctx.b, c.ldp_dim_cap),
    "necessity_on_basis": _necessity_on_basis,
}

# A formula is a fact name or ("all" | "any", formula, ...).
_FAITHFUL = ("m_left_faithful", "m_right_faithful")
_PROJ = ("proj_center_a", "proj_center_b")
_CIF = ("central_ideal_free_a", "central_ideal_free_b")
_DOMAIN = ("domain_a", "domain_b")
_SF = ("strongly_faithful_m", "strongly_faithful_n")
_DIAGONAL = _PROJ + _FAITHFUL + ("ci_generates_a", "ci_generates_b", "ldp_a", "ldp_b")
_CLAUSE_ONE = ("any", ("all", "proj_center_b", "m_left_faithful"),
               ("all", "ci_generates_a", "m_left_faithful"), ("all", "ldp_a", "ci_generates_a"))
_CLAUSE_TWO = ("any", ("all", "proj_center_a", "m_right_faithful"),
               ("all", "ci_generates_b", "m_right_faithful"), ("all", "ldp_b", "ci_generates_b"))
_CLAUSE_THREE = ("any", ("any", *_CIF), ("all", *_DOMAIN), ("any", *_SF))
_DIAGONAL_CLAUSES = (("clause_one", _CLAUSE_ONE), ("clause_two", _CLAUSE_TWO))

# Check id -> (hypotheses in report order, overall formula, named extra
# formulas), in the order ``all_theorem_checks`` reports them.
_CHECKS = {
    "central_ideal": (_FAITHFUL + _PROJ + _CIF, ("all", *_FAITHFUL, *_PROJ, ("any", *_CIF)), ()),
    "domains": (_FAITHFUL + _PROJ + _DOMAIN, ("all", *_FAITHFUL, *_PROJ, *_DOMAIN), ()),
    "strong_faithfulness": (
        _PROJ + ("strongly_faithful_m",), ("all", *_PROJ, "strongly_faithful_m"), ()
    ),
    "combined": (
        _DIAGONAL + _CIF + _DOMAIN + _SF,
        ("all", _CLAUSE_ONE, _CLAUSE_TWO, _CLAUSE_THREE),
        _DIAGONAL_CLAUSES + (("clause_three", _CLAUSE_THREE),),
    ),
    "trivial": (
        _DIAGONAL,
        ("all", _CLAUSE_ONE, _CLAUSE_TWO),
        _DIAGONAL_CLAUSES + (("necessity_on_basis", "necessity_on_basis"),),
    ),
}


class _Facts:
    """One context's facts, each evaluated at most once and only on demand."""

    def __init__(self, g: GMAlgebra, budget: int, ldp_dim_cap: int):
        self.g, self.ctx, self.budget, self.ldp_dim_cap = g, g.context, budget, ldp_dim_cap
        self._states = {}

    @cached_property
    def center(self):
        return center_analysis(self.g)

    @cached_property
    def oracle(self) -> bool:
        return has_lie_derivation_property(self.g)

    def formula(self, tree) -> TriState:
        if not isinstance(tree, str):
            op, *terms = tree
            return (tri_all if op == "all" else tri_any)([self.formula(t) for t in terms])
        if tree not in self._states:
            self._states[tree] = _EVALUATORS[tree](self)
        return self._states[tree]

    def verdict(self, check_id: str) -> TheoremVerdict:
        names, overall, extras = _CHECKS[check_id]
        hypotheses = tuple((name, self.formula(name)) for name in names)
        result = self.formula(overall)
        return TheoremVerdict(
            check_id=check_id,
            hypotheses=hypotheses,
            overall=result,
            oracle_agrees=self.oracle if result is TriState.HOLDS else None,
            extras=tuple((name, self.formula(tree)) for name, tree in extras),
        )


def _verdicts(g: GMAlgebra, budget: int, ldp_dim_cap: int, check_ids) -> tuple:
    _gate(g)
    if "trivial" in check_ids and not is_trivial(g.context):
        raise PreconditionError("check_trivial requires a zero-pairing context")
    for name, value in (("budget", budget), ("ldp_dim_cap", ldp_dim_cap)):
        if value < 0:
            raise PreconditionError(f"{name} must be non-negative, got {value}")
    facts = _Facts(g, budget, ldp_dim_cap)
    return tuple(facts.verdict(check_id) for check_id in check_ids)


def check_central_ideal(g: GMAlgebra, budget: int = DEFAULT_BUDGET) -> TheoremVerdict:
    """Faithful module, both center projections full, and one diagonal block
    free of nonzero central ideals."""
    return _verdicts(g, budget, DEFAULT_LDP_DIM_CAP, ("central_ideal",))[0]


def check_domains(g: GMAlgebra, budget: int = DEFAULT_BUDGET) -> TheoremVerdict:
    """Faithful module, both center projections full, and both diagonal
    blocks free of zero divisors."""
    return _verdicts(g, budget, DEFAULT_LDP_DIM_CAP, ("domains",))[0]


def check_strong_faithfulness(g: GMAlgebra, budget: int = DEFAULT_BUDGET) -> TheoremVerdict:
    """Both center projections full and the upper module strongly faithful."""
    return _verdicts(g, budget, DEFAULT_LDP_DIM_CAP, ("strong_faithfulness",))[0]


def check_combined(
    g: GMAlgebra,
    budget: int = DEFAULT_BUDGET,
    ldp_dim_cap: int = DEFAULT_LDP_DIM_CAP,
) -> TheoremVerdict:
    """The three-clause combination: both diagonal clauses plus one of the
    central-ideal, domain, or strong-faithfulness alternatives."""
    return _verdicts(g, budget, ldp_dim_cap, ("combined",))[0]


def check_trivial(
    g: GMAlgebra,
    budget: int = DEFAULT_BUDGET,
    ldp_dim_cap: int = DEFAULT_LDP_DIM_CAP,
) -> TheoremVerdict:
    """For zero-pairing contexts only: the two diagonal clauses suffice.
    The extra ``necessity_on_basis`` checks the necessary direction."""
    return _verdicts(g, budget, ldp_dim_cap, ("trivial",))[0]


def all_theorem_checks(
    g: GMAlgebra,
    budget: int = DEFAULT_BUDGET,
    ldp_dim_cap: int = DEFAULT_LDP_DIM_CAP,
) -> tuple:
    """Every applicable checker, in a fixed order, over one context's facts."""
    check_ids = [check_id for check_id in _CHECKS if check_id != "trivial"]
    if is_trivial(g.context):
        check_ids.append("trivial")
    return _verdicts(g, budget, ldp_dim_cap, check_ids)
