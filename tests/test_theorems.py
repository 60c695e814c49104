import sys
from dataclasses import replace

import pytest

import gmalie.gma
import gmalie.presentation
import gmalie.spaces
from gmalie.algebra import FDAlgebra, _facts
from gmalie.catalog import load_example
from gmalie.constructions import (
    dual_numbers,
    field_algebra,
    left_regular_bimodule,
    triangular_context,
    trivial_context,
    zero_bimodule,
)
from gmalie.errors import CharacteristicTwoError, PreconditionError
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble, is_trivial
from gmalie.linalg import Subspace
from gmalie.morita import Bimodule
from gmalie.spaces import has_lie_derivation_property
from gmalie.theorems import (
    all_theorem_checks,
    check_central_ideal,
    check_combined,
    check_domains,
    check_strong_faithfulness,
    check_trivial,
)
from gmalie.tristate import TriState

from helpers import reference_necessity_on_basis


def _g(name):
    return load_example(name).assembled("G")


def test_central_ideal_check_on_triangular():
    v = check_central_ideal(_g("tri2_Q"))
    # one-dimensional commutative blocks are their own central ideals
    assert v.hypothesis("central_ideal_free_a") is TriState.FAILS
    assert v.hypothesis("central_ideal_free_b") is TriState.FAILS
    for name in ("m_left_faithful", "m_right_faithful", "proj_center_a", "proj_center_b"):
        assert v.hypothesis(name) is TriState.HOLDS
    assert v.overall is TriState.FAILS
    assert v.oracle_agrees is None


def test_central_ideal_check_on_mat3_peirce():
    v = check_central_ideal(_g("mat3_GF3_peirce"))
    assert v.hypothesis("central_ideal_free_b") is TriState.HOLDS
    assert v.overall is TriState.HOLDS
    assert v.oracle_agrees is True


def test_domain_check():
    assert check_domains(_g("tri2_Q")).overall is TriState.HOLDS
    assert check_domains(_g("tri2_Q")).oracle_agrees is True
    assert check_domains(_g("mat2_GF3_peirce")).overall is TriState.HOLDS
    v = check_domains(_g("example_sec4"))
    assert v.hypothesis("domain_a") is TriState.FAILS
    assert v.overall is TriState.FAILS


def test_strong_faithfulness_check():
    assert check_strong_faithfulness(_g("tri2_GF5")).overall is TriState.HOLDS
    assert check_strong_faithfulness(_g("mat2_GF3_peirce")).overall is TriState.HOLDS
    v = check_strong_faithfulness(_g("example_sec4"))
    assert v.hypothesis("strongly_faithful_m") is TriState.FAILS
    assert v.overall is TriState.FAILS


def _sqrt2_triangular():
    """Triangular context over Q(sqrt 2), Q: the scans over the rationals
    cannot finish, so domain_a and ci_generates_a stay unknown."""
    tensor = [[[1, 0], [0, 1]], [[0, 1], [2, 0]]]
    ext = FDAlgebra(QQ, 2, tensor, (1, 0))
    return assemble(
        triangular_context(ext, left_regular_bimodule(ext, field_algebra(QQ)), field_algebra(QQ))
    )


def _dual_quotient_triangular():
    """Triangular context of the dual numbers over GF(3) and GF(3), with M =
    GF(3) on which eps acts as 0: only the domain alternative of clause
    three splits, domain_a failing and domain_b holding."""
    a, b = dual_numbers(GF(3)), field_algebra(GF(3))
    return assemble(triangular_context(a, Bimodule(a, b, 1, [[[1]], [[0]]], [[[1]]]), b))


def test_unknown_hypotheses_propagate():
    # a quadratic extension over the rationals: domains stay unknown, so the
    # domain check cannot conclude
    v = check_domains(_sqrt2_triangular())
    assert v.hypothesis("domain_a") is TriState.UNKNOWN
    assert v.overall is not TriState.HOLDS
    assert v.oracle_agrees is None


def test_combined_check_on_mat3_peirce():
    v = check_combined(_g("mat3_GF3_peirce"))
    assert v.overall is TriState.HOLDS
    assert v.oracle_agrees is True
    extras = dict(v.extras)
    assert extras["clause_one"] is TriState.HOLDS
    assert extras["clause_two"] is TriState.HOLDS
    assert extras["clause_three"] is TriState.HOLDS
    assert v.hypothesis("ci_generates_a") is TriState.HOLDS


def test_combined_check_fails_everywhere_on_counterexample():
    v = check_combined(_g("example_sec4"))
    assert v.overall is TriState.FAILS
    extras = dict(v.extras)
    assert extras["clause_one"] is TriState.FAILS
    assert extras["clause_two"] is TriState.FAILS
    assert extras["clause_three"] is TriState.FAILS
    # every alternative of the first clause fails individually
    assert v.hypothesis("proj_center_b") is TriState.FAILS
    assert v.hypothesis("ci_generates_a") is TriState.FAILS
    assert v.hypothesis("ldp_a") is TriState.HOLDS  # commutative block


def test_combined_check_on_triangular():
    v = check_combined(_g("tri2_Q"))
    assert v.overall is TriState.HOLDS
    assert v.oracle_agrees is True


def test_trivial_check():
    v = check_trivial(_g("tri2_Q"))
    assert v.overall is TriState.HOLDS and v.oracle_agrees is True
    v4 = check_trivial(_g("example_sec4"))
    assert v4.overall is TriState.FAILS
    assert dict(v4.extras)["necessity_on_basis"] is TriState.HOLDS
    v5 = check_trivial(_g("trivial_QQQ"))
    assert v5.overall is TriState.HOLDS and v5.oracle_agrees is True


def test_trivial_check_requires_zero_pairings():
    with pytest.raises(PreconditionError):
        check_trivial(_g("mat2_GF3_peirce"))


def test_all_checks_lists_trivial_only_when_applicable():
    ids = [v.check_id for v in all_theorem_checks(_g("tri2_Q"))]
    assert ids == ["central_ideal", "domains", "strong_faithfulness", "combined", "trivial"]
    ids = [v.check_id for v in all_theorem_checks(_g("mat2_GF3_peirce"))]
    assert "trivial" not in ids


def test_every_bundled_example_with_a_holding_check_has_the_property():
    for name in ("tri2_Q", "tri2_GF5", "mat2_GF3_peirce", "mat3_GF3_peirce", "trivial_QQQ"):
        g = _g(name)
        verdicts = all_theorem_checks(g)
        held = [v for v in verdicts if v.overall is TriState.HOLDS]
        assert held, name
        assert all(v.oracle_agrees for v in held), name
        assert has_lie_derivation_property(g)


def test_counterexample_fails_every_check():
    g = _g("example_sec4")
    for v in all_theorem_checks(g):
        assert v.overall is not TriState.HOLDS
    assert not has_lie_derivation_property(g)


def test_checks_reject_characteristic_two():
    one = field_algebra(GF(2))
    from gmalie.constructions import regular_bimodule, triangular_context

    g = assemble(triangular_context(one, regular_bimodule(one), one))
    with pytest.raises(CharacteristicTwoError):
        check_central_ideal(g)


def test_checks_reject_plain_direct_sums():
    one = field_algebra(QQ)
    ctx = trivial_context(one, one, zero_bimodule(one, one), zero_bimodule(one, one))
    g = assemble(ctx)
    with pytest.raises(PreconditionError):
        check_combined(g)


# Hypothesis names in report order, then extra names, for every check.
_PINNED_NAMES = {
    "central_ideal": (
        "m_left_faithful m_right_faithful proj_center_a proj_center_b "
        "central_ideal_free_a central_ideal_free_b",
        "",
    ),
    "domains": (
        "m_left_faithful m_right_faithful proj_center_a proj_center_b domain_a domain_b",
        "",
    ),
    "strong_faithfulness": ("proj_center_a proj_center_b strongly_faithful_m", ""),
    "combined": (
        "proj_center_a proj_center_b m_left_faithful m_right_faithful "
        "ci_generates_a ci_generates_b ldp_a ldp_b central_ideal_free_a "
        "central_ideal_free_b domain_a domain_b strongly_faithful_m strongly_faithful_n",
        "clause_one clause_two clause_three",
    ),
    "trivial": (
        "proj_center_a proj_center_b m_left_faithful m_right_faithful "
        "ci_generates_a ci_generates_b ldp_a ldp_b",
        "clause_one clause_two necessity_on_basis",
    ),
}

# "check: overall oracle_agrees hypotheses [extras]", one letter per state
# (H holds, F fails, U unknown) in the order of _PINNED_NAMES.
_PINNED = {
    "example_sec4": (
        "central_ideal: F None HHFFFF",
        "domains: F None HHFFFF",
        "strong_faithfulness: F None FFF",
        "combined: F None FFHHFFHHFFFFFF FFF",
        "trivial: F None FFHHFFHH FFH",
    ),
    "tri2_Q": (
        "central_ideal: F None HHHHFF",
        "domains: H True HHHHHH",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHHHFFHHHF HHH",
        "trivial: H True HHHHHHHH HHH",
    ),
    "tri2_GF5": (
        "central_ideal: F None HHHHFF",
        "domains: H True HHHHHH",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHHHFFHHHF HHH",
        "trivial: H True HHHHHHHH HHH",
    ),
    "mat2_GF3_peirce": (
        "central_ideal: F None HHHHFF",
        "domains: H True HHHHHH",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHHHFFHHHH HHH",
    ),
    "mat3_GF3_peirce": (
        "central_ideal: H True HHHHFH",
        "domains: F None HHHHHF",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHHHFHHFHH HHH",
    ),
    "trivial_QQQ": (
        "central_ideal: F None HHHHFF",
        "domains: H True HHHHHH",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHHHFFHHHH HHH",
        "trivial: H True HHHHHHHH HHH",
    ),
    "tri2_Q-ldp_dim_cap=0": (
        "central_ideal: F None HHHHFF",
        "domains: H True HHHHHH",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHUUFFHHHF HHH",
        "trivial: H True HHHHHHUU HHH",
    ),
    "mat2_GF3_peirce-budget=0": (
        "central_ideal: F None HHHHFF",
        "domains: H True HHHHHH",
        "strong_faithfulness: H True HHH",
        "combined: H True HHHHHHHHFFHHHH HHH",
    ),
    "sqrt2_QQ": (
        "central_ideal: F None HHFHFF",
        "domains: F None HHFHUH",
        "strong_faithfulness: F None FHH",
        "combined: H True FHHHUHHHFFUHHF HHH",
        "trivial: H True FHHHUHHH HHH",
    ),
    "dual_quotient_GF3": (
        "central_ideal: F None FHHHFF",
        "domains: F None FHHHFH",
        "strong_faithfulness: F None HHF",
        "combined: F None HHFHFHHHFFFHFF FHF",
        "trivial: F None HHFHFHHH FHH",
    ),
}

_LETTER = {TriState.HOLDS: "H", TriState.FAILS: "F", TriState.UNKNOWN: "U"}


_BUILT = {"sqrt2_QQ": _sqrt2_triangular, "dual_quotient_GF3": _dual_quotient_triangular}


def _pinned_context(case):
    if case in _BUILT:
        return _BUILT[case](), {}
    name, _, setting = case.partition("-")
    kwargs = {}
    if setting:
        key, value = setting.split("=")
        kwargs[key] = int(value)
    return _g(name), kwargs


@pytest.mark.parametrize("case", list(_PINNED))
def test_verdicts_are_pinned(case):
    g, kwargs = _pinned_context(case)
    got = []
    for v in all_theorem_checks(g, **kwargs):
        hyp_names, extra_names = _PINNED_NAMES[v.check_id]
        assert " ".join(k for k, _ in v.hypotheses) == hyp_names
        assert " ".join(k for k, _ in v.extras) == extra_names
        line = f"{v.check_id}: {_LETTER[v.overall]} {v.oracle_agrees} "
        line += "".join(_LETTER[s] for _, s in v.hypotheses)
        if v.extras:
            line += " " + "".join(_LETTER[s] for _, s in v.extras)
        got.append(line)
    assert tuple(got) == _PINNED[case]


_COUNTED = (
    "center_analysis",
    "left_action_kernel",
    "right_action_kernel",
    "strongly_faithful",
    "central_ideal_free",
    "domain_scan",
    "commutator_idempotent_subalgebra",
    "has_lie_derivation_property",
)


@pytest.mark.parametrize("name", ["tri2_Q", "mat3_GF3_peirce"])
def test_each_fact_is_evaluated_once_per_context(name, monkeypatch):
    import gmalie.theorems as theorems

    calls = {}

    def counting(fn_name, fn):
        def wrapper(*args):
            key = (fn_name,) + tuple(map(id, args))
            calls[key] = calls.get(key, 0) + 1
            return fn(*args)

        return wrapper

    for fn_name in _COUNTED:
        monkeypatch.setattr(theorems, fn_name, counting(fn_name, getattr(theorems, fn_name)))
    g = _g(name)
    verdicts = all_theorem_checks(g)
    assert max(calls.values()) == 1, {k[0]: n for k, n in calls.items() if n > 1}
    called = {key[0] for key in calls}
    assert called == set(_COUNTED)
    # one oracle call on the assembled algebra, shared by every holding check
    assert calls[("has_lie_derivation_property", id(g))] == 1
    assert sum(v.oracle_agrees is True for v in verdicts) >= 2


def _patch_every_binding(monkeypatch, fn, replacement):
    """Replace ``fn`` wherever a gmalie module binds it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "gmalie" or mod_name.startswith("gmalie."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def _necessity(g):
    return dict(check_trivial(g).extras)["necessity_on_basis"]


@pytest.mark.parametrize("name", ["trivial_QQQ", "example_sec4"])
def test_theorem_checks_decide_no_single_map(name, monkeypatch):
    # the necessity scan reads the criteria rows straight off the flat basis
    # of the proper space, so no presentation is sliced out of a map either
    called = []
    for fn in (
        gmalie.spaces.is_proper,
        gmalie.spaces.lie_defect,
        gmalie.presentation.extract_lie,
        gmalie.presentation._read_lie_parts,
    ):

        def wrapper(*args, _fn=fn, **kwargs):
            called.append(_fn.__name__)
            return _fn(*args, **kwargs)

        _patch_every_binding(monkeypatch, fn, wrapper)
    verdicts = all_theorem_checks(_g(name))
    assert verdicts[-1].check_id == "trivial"
    assert called == []


@pytest.mark.parametrize("name", ["trivial_QQQ", "example_sec4"])
def test_necessity_fails_when_the_projected_centers_are_zero(name, monkeypatch):
    # every proper map with a nonzero cross map now breaks a range
    # criterion; a scan over the derivations (zero cross maps) or over no
    # maps would still report Holds
    g = _g(name)
    assert _necessity(g) is TriState.HOLDS
    original = gmalie.gma.center_analysis

    def zero_projections(h):
        an = original(h)
        da, _, _, db = h.block_dims
        return replace(an, proj_a=Subspace.zero(h.field, da), proj_b=Subspace.zero(h.field, db))

    _patch_every_binding(monkeypatch, original, zero_projections)
    # the criteria rows are memoized per context: build them again from the
    # patched projections, and drop those rows afterwards
    _facts.cache_clear()
    try:
        assert _necessity(g) is TriState.FAILS
    finally:
        _facts.cache_clear()


def test_necessity_scan_matches_the_per_map_reference():
    # the GF(5) slice has contexts where some Lie derivation is not proper,
    # where the reference skips basis maps that the proper space covers
    checked = failing_property = 0
    for config in (
        FuzzConfig(seed=2, count=30, field=GF(5), max_dims=(3, 3, 3, 3)),
        FuzzConfig(seed=1, count=12, field=QQ),
    ):
        for label, ctx in generate_contexts(config):
            if not is_trivial(ctx):
                continue
            g = assemble(ctx)
            expected = TriState.from_bool(reference_necessity_on_basis(g))
            assert _necessity(g) is expected, label
            failing_property += not has_lie_derivation_property(g)
            checked += 1
    assert checked >= 30 and failing_property >= 1


def test_negative_budget_and_cap_are_refused():
    g = _g("tri2_Q")
    calls = (
        lambda: all_theorem_checks(g, -1),
        lambda: all_theorem_checks(g, ldp_dim_cap=-1),
        lambda: check_domains(g, -5),
        lambda: check_trivial(g, ldp_dim_cap=-1),
    )
    for call in calls:
        with pytest.raises(PreconditionError, match="must be non-negative"):
            call()
