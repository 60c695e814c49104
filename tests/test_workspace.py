import copy
import json
from fractions import Fraction

import pytest

from gmalie.catalog import EXAMPLE_NAMES, build_document, load_example
from gmalie.errors import ValidationFailure
from gmalie.gma import gma_structure_tensor
from gmalie.workspace import load_workspace, parse_workspace, render_json

from helpers import record_structure_checks


def test_every_bundled_example_loads():
    for name in EXAMPLE_NAMES:
        ws = load_example(name)
        assert "G" in ws.contexts
        ws.assembled("G")


# in a triangular context the module check of M, on (A, M, 0, B), is the
# context's own block tensor, so only examples with two nonzero modules count
@pytest.mark.parametrize(
    "name", ["example_sec4", "mat2_GF3_peirce", "mat3_GF3_peirce", "trivial_QQQ"]
)
def test_loading_checks_the_context_once(monkeypatch, name):
    # the document builds M_n, whose tensor is its Peirce context's
    doc = build_document(name)
    calls = record_structure_checks(monkeypatch)
    ws = parse_workspace(doc)
    g = ws.assembled("G")
    assert ws.assembled("G") is g
    assert ws.context("G") is g.context
    assert calls.count(gma_structure_tensor(g.context)) == 1


def test_bundled_counterexample_shape():
    ws = load_example("example_sec4")
    assert ws.context("G").block_dims == (2, 3, 3, 2)
    assert ws.maps["L_paper"].target == "G"
    assert ws.maps["L_paper"].matrix.shape == (10, 10)


def test_load_from_file_roundtrip(tmp_path):
    doc = build_document("tri2_GF5")
    path = tmp_path / "tri.json"
    path.write_text(render_json(doc))
    ws = load_workspace(str(path))
    assert ws.context("G").block_dims == (1, 1, 0, 1)
    assert ws.field.p == 5


def test_parse_error_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"field": {"kind": "Q"}\n  "algebras": {}}')
    with pytest.raises(ValidationFailure, match="line"):
        load_workspace(str(path))


def test_unreduced_fractions_are_reduced_on_load():
    # e0 * e0 = (1/2) e0 written unreduced, so the unit is 2 e0
    doc = {
        "field": {"kind": "Q"},
        "algebras": {"A": {"dim": 1, "structure": [[["2/4"]]], "unit": ["4/2"]}},
    }
    ws = parse_workspace(doc)
    assert ws.algebras["A"].structure[0][0][0] == Fraction(1, 2)
    assert ws.algebras["A"].unit[0] == Fraction(2)


def test_nonassociative_structure_rejected_with_indices():
    doc = copy.deepcopy(build_document("mat2_GF3_peirce"))
    # corrupt a structure entry of the assembled block algebra A (1x1): make
    # the unit law fail instead, which is also named
    doc["algebras"]["A"]["structure"] = [[[2]]]
    with pytest.raises(ValidationFailure, match="unit"):
        parse_workspace(doc)


def test_bad_pairing_shape_is_located():
    doc = copy.deepcopy(build_document("mat2_GF3_peirce"))
    doc["contexts"]["G"]["pair_mn"] = [[[1, 2]]]
    with pytest.raises(ValidationFailure, match="pair_mn"):
        parse_workspace(doc)


def test_invalid_context_identity_is_reported():
    doc = copy.deepcopy(build_document("mat2_GF3_peirce"))
    doc["contexts"]["G"]["pair_mn"] = [[[2]]]  # scaled pairing breaks a diagram
    with pytest.raises(ValidationFailure, match="context identity"):
        parse_workspace(doc)


def test_unknown_references_are_rejected():
    doc = copy.deepcopy(build_document("tri2_Q"))
    doc["contexts"]["G"]["m"] = "missing"
    with pytest.raises(ValidationFailure, match="missing"):
        parse_workspace(doc)


def test_map_shape_and_target_checks():
    doc = copy.deepcopy(build_document("example_sec4"))
    doc["maps"]["L_paper"]["matrix"] = [[0]]
    with pytest.raises(ValidationFailure, match="10x10"):
        parse_workspace(doc)
    doc = copy.deepcopy(build_document("example_sec4"))
    doc["maps"]["L_paper"]["algebra"] = "A"
    with pytest.raises(ValidationFailure, match="exactly one"):
        parse_workspace(doc)


def test_map_on_plain_algebra():
    doc = copy.deepcopy(build_document("tri2_Q"))
    doc["maps"] = {"zero": {"algebra": "A", "matrix": [[0]]}}
    ws = parse_workspace(doc)
    assert ws.maps["zero"].target_kind == "algebra"


def test_render_json_is_deterministic():
    a = render_json(build_document("example_sec4"))
    b = render_json(json.loads(render_json(build_document("example_sec4"))))
    assert a == b
    assert a.endswith("\n")


def test_missing_context_lookup_raises_keyerror():
    ws = load_example("tri2_Q")
    with pytest.raises(KeyError):
        ws.context("H")


def test_build_document_returns_a_fresh_document():
    first = build_document("tri2_GF5")
    first["field"]["p"] = 7
    first["contexts"].clear()
    second = build_document("tri2_GF5")
    assert second["field"] == {"kind": "GF", "p": 5}
    assert "G" in second["contexts"]
    assert load_example("tri2_GF5").field.p == 5
