import json
import sys
import time

import pytest

from gmalie.algebra import commutation_operator
from gmalie.catalog import build_document, load_example
from gmalie.cli import main
from gmalie.gma import center_analysis, gma_structure_tensor
from gmalie.morita import left_action_kernel, right_action_kernel
from gmalie.presentation import _criteria, _lie_flat
from gmalie.spaces import is_proper, lie_defect, validate_split
from gmalie.workspace import render_json

from helpers import record_calls, record_structure_checks


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_bundled_example(capsys):
    code, out, _ = run(capsys, "validate", "--input", "example_sec4")
    assert code == 0
    assert "ok" in out


def test_validate_json_is_byte_identical(capsys):
    code1, out1, _ = run(capsys, "validate", "--input", "tri2_Q", "--format", "json")
    code2, out2, _ = run(capsys, "validate", "--input", "tri2_Q", "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_analyze_mat2_peirce(capsys):
    code, out, _ = run(capsys, "analyze", "--input", "mat2_GF3_peirce", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["spaces"]["derivations"] == 3
    assert doc["center"]["dim"] == 1
    assert doc["lie_derivation_property"] is True


def test_analyze_counterexample(capsys):
    code, out, _ = run(capsys, "analyze", "--input", "example_sec4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["center"]["dim"] == 1
    assert doc["center"]["proj_a_dim"] == 1
    assert doc["center"]["proj_a_is_center_a"] is False
    assert doc["algebras"]["a"]["generated_spans_algebra"] == "fails"
    assert doc["lie_derivation_property"] is False


def test_proper_on_bundled_map(capsys):
    code, out, _ = run(capsys, "proper", "--input", "example_sec4", "--map", "L_paper")
    assert code == 0
    assert "not proper" in out
    code, out, _ = run(
        capsys, "proper", "--input", "example_sec4", "--map", "L_paper", "--format", "json"
    )
    doc = json.loads(out)
    assert doc["verdict"] == "not_proper"
    assert doc["criteria"]["range_a_ok"] is False
    assert doc["criteria"]["oracle_agrees"] is True
    assert doc["witness"] is None


# ad(e12) + trace on M_2(GF(3)) in the Peirce basis e11, e12, e21, e22, and
# the map sending e12 to e11 and the rest to zero, which breaks the bracket
# rule on (e11, e12)
_PEIRCE_MAPS = {
    "ad_e12_plus_trace": [[1, 0, 1, 1], [2, 0, 0, 1], [0, 0, 0, 0], [1, 0, 2, 1]],
    "not_lie": [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]],
}


def _peirce_workspace(tmp_path) -> str:
    ws = json.loads(render_json(build_document("mat2_GF3_peirce")))
    maps = ws.setdefault("maps", {})
    maps.update({name: {"context": "G", "matrix": m} for name, m in _PEIRCE_MAPS.items()})
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    return str(path)


def test_proper_on_a_proper_map(capsys, tmp_path):
    # the criteria build the split into a derivation plus the trace
    path = _peirce_workspace(tmp_path)
    code, out, _ = run(
        capsys, "proper", "--input", path, "--map", "ad_e12_plus_trace", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "proper"
    assert doc["witness"]["central"] == [[1, 0, 0, 1], [0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 1]]
    assert doc["criteria"]["verdict"] == "proper"
    assert doc["criteria"]["oracle_agrees"] is True


def test_proper_text_reports_an_inconclusive_criteria_verdict(capsys, tmp_path):
    # tri2_GF5 transposed: M = 0 is not faithful, so the criteria cannot
    # decide the zero map that the oracle splits
    ws = json.loads(render_json(build_document("tri2_GF5")))
    c = ws["contexts"]["G"]
    c["a"], c["b"], c["m"], c["n"] = c["b"], c["a"], c["n"], c["m"]
    c["pair_mn"], c["pair_nm"] = c["pair_nm"], c["pair_mn"]
    ws["maps"] = {"zero": {"context": "G", "matrix": [[0] * 3] * 3}}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(ws))
    code, out, _ = run(capsys, "proper", "--input", str(path), "--map", "zero")
    assert code == 0
    assert "verdict: proper\n" in out
    assert "criteria verdict: inconclusive (module not faithful)\n" in out


def test_proper_refuses_a_map_that_is_not_a_lie_derivation(capsys, tmp_path):
    code, out, err = run(capsys, "proper", "--input", _peirce_workspace(tmp_path), "--map", "not_lie")
    assert code == 2
    assert out == ""
    assert "not a Lie derivation: bracket rule fails on basis pair (0, 1)" in err


@pytest.mark.parametrize(
    "workspace, map_name, splits",
    [("peirce", "ad_e12_plus_trace", 2), ("example_sec4", "L_paper", 0)],
)
def test_proper_decides_each_fact_once(capsys, tmp_path, monkeypatch, workspace, map_name, splits):
    # one oracle decision, which is also the one bracket-rule check: the
    # criteria run ungated; the map is rebuilt once, to verify its
    # extraction, as the derivation part is L - C; on a proper verdict the
    # oracle's witness and the criteria's split each pass the split check
    # once; the criteria read M's faithfulness off the center analysis
    path = _peirce_workspace(tmp_path) if workspace == "peirce" else workspace
    calls = record_calls(
        monkeypatch,
        is_proper,
        lie_defect,
        _lie_flat,
        _criteria,
        validate_split,
        center_analysis,
        left_action_kernel,
        right_action_kernel,
    )
    assert run(capsys, "proper", "--input", path, "--map", map_name)[0] == 0
    names = [name for name, _, _ in calls]
    assert names.count("is_proper") == 1
    assert names.count("lie_defect") == 1
    assert names.count("_lie_flat") == 1
    assert names.count("validate_split") == splits
    assert names.count("_criteria") == 1
    inside = [name for name, _, around in calls if around[-1:] == ("_criteria",)]
    assert not any(name.endswith("_action_kernel") for name in inside), inside


def test_theorems_command(capsys):
    code, out, _ = run(capsys, "theorems", "--input", "tri2_Q", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    by_id = {v["id"]: v for v in doc["verdicts"]}
    assert by_id["domains"]["overall"] == "holds"
    assert by_id["domains"]["oracle_agrees"] is True
    assert doc["lie_derivation_property"] is True


def test_theorems_command_checks_the_context_once(capsys, monkeypatch):
    tensor = gma_structure_tensor(load_example("example_sec4").context("G"))
    calls = record_structure_checks(monkeypatch)
    assert run(capsys, "theorems", "--input", "example_sec4", "--format", "json")[0] == 0
    assert calls.count(tensor) == 1


def test_fuzz_command(capsys):
    code, out, _ = run(
        capsys, "fuzz", "--seed", "1", "--count", "8", "--field", "3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["soundness_violations"] == []
    assert len(doc["contexts"]) == 8


def test_examples_listing_and_emission(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    assert "example_sec4" in out
    code, out, _ = run(capsys, "examples", "tri2_GF5")
    assert code == 0
    assert out == render_json(build_document("tri2_GF5"))


def test_usage_errors_exit_one(capsys):
    assert run(capsys, "analyze", "--input", "no_such_thing")[0] == 1
    assert run(capsys, "proper", "--input", "tri2_Q", "--map", "missing")[0] == 1
    assert run(capsys, "fuzz", "--field", "six")[0] == 1
    assert run(capsys, "examples", "nope")[0] == 1


@pytest.mark.parametrize(
    "contexts, message",
    [({}, "has no context"), ({"G": "G", "H": "G"}, "has 2 contexts; pick one explicitly")],
    ids=["none", "two"],
)
def test_analyze_without_a_sole_context_exits_one(capsys, tmp_path, contexts, message):
    doc = build_document("tri2_GF5")
    doc["contexts"] = {name: doc["contexts"][src] for name, src in contexts.items()}
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "analyze", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"usage error: {path} {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--input", "example_sec4"),
        ("analyze", "--input", "mat3_GF3_peirce", "--format", "json"),
        ("theorems", "--input", "example_sec4"),
        ("theorems", "--input", "mat2_GF3_peirce", "--format", "json"),
        ("fuzz", "--seed", "1", "--count", "12", "--max-dim", "4", "--field", "3"),
    ],
    ids=["analyze-sec4", "analyze-mat3", "theorems-sec4", "theorems-mat2", "fuzz"],
)
def test_centrality_is_asked_of_the_center_not_the_full_bracket_rows(capsys, monkeypatch, argv):
    # central ideals and the central-pair subalgebra read the memoized
    # center; only a presentation rebuild (the proper command) needs ad(s)
    calls = record_calls(monkeypatch, commutation_operator)
    assert run(capsys, *argv)[0] == 0
    assert calls == []


def test_validation_failures_exit_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    doc = build_document("tri2_Q")
    text = render_json(doc).replace('"dim": 1', '"dim": 2', 1)
    bad.write_text(text)
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert "validation failure" in err


def test_broken_context_names_the_diagram(capsys, tmp_path):
    doc = build_document("mat2_GF3_peirce")
    doc["contexts"]["G"]["pair_mn"] = [[[2]]]
    bad = tmp_path / "doubled.json"
    bad.write_text(render_json(doc))
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert f"validation failure: {bad}.contexts.G: context identity violated: diagram_m" in err


_UNREADABLE = {
    "directory": lambda path: path.mkdir(),
    "not-utf8": lambda path: path.write_bytes(b"\xff\xfe{"),
    "deep-nesting": lambda path: path.write_text("[" * 100000),
}


@pytest.mark.parametrize("make", _UNREADABLE.values(), ids=_UNREADABLE.keys())
def test_unreadable_input_exits_two(capsys, tmp_path, make):
    path = tmp_path / "input"
    make(path)
    code, out, err = run(capsys, "validate", "--input", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"validation failure: {path}")
    assert "Traceback" not in err


def _set(*path_and_value):
    """A mutation of a workspace document: set the entry at ``path``."""
    *path, key, value = path_and_value

    def apply(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value

    return apply


def _map_on_algebra(doc):
    doc["maps"] = {"L": {"algebra": ["A"], "matrix": [[1, 0], [0, 1]]}}


_MALFORMED = {
    "algebra-entry-not-object": (_set("algebras", "A", 5), "algebras.A: expected dict"),
    "idempotents-not-list": (
        _set("algebras", "A", "idempotents", 5),
        "algebras.A.idempotents: expected list",
    ),
    "maps-int": (_set("maps", 5), "maps: expected dict"),
    "maps-list": (_set("maps", []), "maps: expected dict"),
    "bimodules-int": (_set("bimodules", 5), "bimodules: expected dict"),
    "bimodules-list": (_set("bimodules", []), "bimodules: expected dict"),
    "context-entry-not-object": (_set("contexts", "G", 7), "contexts.G: expected dict"),
    "map-algebra-list": (_map_on_algebra, "maps.L.algebra: expected str"),
    "dim-bool": (_set("algebras", "A", "dim", True), "algebras.A.dim: expected int"),
    "rationals-with-modulus": (_set("field", "p", 3), "field: the rationals take no modulus"),
    "idempotents-complete-str": (
        _set("algebras", "A", "idempotents_complete", "yes"),
        "algebras.A.idempotents_complete: expected bool",
    ),
}


@pytest.mark.parametrize("mutate, named", _MALFORMED.values(), ids=_MALFORMED.keys())
def test_malformed_workspace_sections_exit_two(capsys, tmp_path, mutate, named):
    doc = build_document("tri2_Q")
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert f"validation failure: {bad}.{named}" in err
    assert "Traceback" not in err


def _extra_bimodule(doc):
    doc["bimodules"]["X"] = dict(doc["bimodules"]["M"], right_action=[[[2]]])


@pytest.mark.parametrize(
    "mutate, lines",
    [
        (
            _set("bimodules", "M", "left_action", [[[2]]]),
            ["bimodules.M: module axiom violated: module_left_unit at (0,)",
             "  module_left_unit at (0,)", "  module_left_assoc at (0, 0, 0)"],
        ),
        (
            _extra_bimodule,
            ["bimodules.X: module axiom violated: module_right_unit at (0,)",
             "  module_right_unit at (0,)", "  module_right_assoc at (0, 0, 0)"],
        ),
    ],
    ids=["used-by-the-context", "used-by-no-context"],
)
def test_invalid_bimodule_is_named_by_its_own_path(capsys, tmp_path, mutate, lines):
    # every bimodule is checked on its own, whether a context uses it or not
    doc = build_document("tri2_GF5")
    mutate(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"validation failure: {bad}.{lines[0]}", *lines[1:]]


def test_large_modulus_exits_two(capsys, tmp_path, monkeypatch):
    def no_trial_division(n):
        raise AssertionError(f"is_prime({n}) called for an out-of-range modulus")

    # the document needs GF(5), so it is built before the patch
    doc = build_document("tri2_GF5")
    monkeypatch.setattr("gmalie.fields.is_prime", no_trial_division)
    doc["field"]["p"] = 2**61 - 1
    bad = tmp_path / "big.json"
    bad.write_text(render_json(doc))
    code, _, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert "validation failure" in err
    assert "below 2**31" in err


# a JSON integer literal past the digit limit that int(str) enforces (4300
# digits by default), written in place of a placeholder string
_LONG_LITERAL = "9" * 5000


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="int(str) has no digit limit here"
)
@pytest.mark.parametrize(
    "example, mutate",
    [
        ("tri2_Q", _set("algebras", "A", "unit", ["LONG"])),
        ("tri2_GF5", _set("field", "p", "LONG")),
    ],
    ids=["unit", "modulus"],
)
def test_long_integer_literal_exits_two(capsys, tmp_path, example, mutate):
    doc = build_document(example)
    mutate(doc)
    bad = tmp_path / "long.json"
    bad.write_text(json.dumps(doc).replace('"LONG"', _LONG_LITERAL))
    code, out, err = run(capsys, "validate", "--input", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith(f"validation failure: {bad}: parse error: ")
    assert f"longer than {sys.get_int_max_str_digits()} digits" in err
    # Python's own advice, to raise the limit, is not for a user to act on
    assert "set_int_max_str_digits" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "scalar", ["1e999999999", "1.5", "1e5", " 1", "1_000", "\u0661", "one half"]
)
def test_scalar_strings_outside_the_grammar_exit_two(capsys, tmp_path, scalar):
    doc = build_document("tri2_Q")
    doc["algebras"]["A"]["unit"] = [scalar]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    started = time.perf_counter()
    code, out, err = run(capsys, "validate", "--input", str(bad))
    assert time.perf_counter() - started < 5
    assert code == 2
    assert out == ""
    assert f"validation failure: {bad}.algebras.A.unit: bad scalar (" in err
    assert "Traceback" not in err


def test_characteristic_two_fuzz_exits_two(capsys):
    code, _, err = run(capsys, "fuzz", "--field", "2", "--count", "1")
    assert code == 2
    assert "torsion" in err


def test_file_input_roundtrip(capsys, tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(render_json(build_document("mat2_GF3_peirce")))
    code, out, _ = run(capsys, "analyze", "--input", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["spaces"]["lie_derivations"] == 4


@pytest.mark.parametrize(
    "argv",
    [("--max-dim", "0"), ("--max-dim", "-1"), ("--count", "-1")],
    ids=["max-dim-0", "max-dim-negative", "count-negative"],
)
def test_fuzz_out_of_range_bounds_exit_two(capsys, argv):
    code, out, err = run(capsys, "fuzz", "--seed", "1", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("precondition failure: ")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("theorems", "--input", "tri2_Q", "--ldp-dim-cap", "-1"),
        ("theorems", "--input", "tri2_Q", "--budget", "-5"),
        ("analyze", "--input", "tri2_Q", "--budget", "-5"),
        ("fuzz", "--count", "3", "--budget", "-1"),
    ],
    ids=["theorems-cap", "theorems-budget", "analyze-budget", "fuzz-budget"],
)
def test_negative_budget_and_cap_exit_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("precondition failure: --")
    assert "must be non-negative" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--input", "tri2_Q", "--budget", "-1"),
        ("proper", "--input", "example_sec4", "--map", "L_paper", "--budget", "-1"),
    ],
    ids=["validate-budget", "proper-budget"],
)
def test_budget_is_refused_where_no_scan_reads_it(capsys, argv):
    # validate and proper enumerate nothing, so they take no --budget
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments: --budget")


def test_zero_budget_and_cap_are_accepted(capsys):
    code, out, _ = run(
        capsys, "theorems", "--input", "tri2_Q", "--budget", "0", "--ldp-dim-cap", "0",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["verdicts"][3]["hypotheses"]["ldp_a"] == "unknown"
