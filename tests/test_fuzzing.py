import pytest

from gmalie.errors import CharacteristicTwoError, PreconditionError
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, fuzz, generate_contexts
from gmalie.morita import validate_context


def test_generation_is_deterministic():
    config = FuzzConfig(seed=5, count=30, field=GF(3))
    first = generate_contexts(config)
    second = generate_contexts(config)
    assert [label for label, _ in first] == [label for label, _ in second]
    for (_, c1), (_, c2) in zip(first, second):
        assert c1 == c2


def test_different_seeds_differ():
    a = [label for label, _ in generate_contexts(FuzzConfig(seed=1, count=30))]
    b = [label for label, _ in generate_contexts(FuzzConfig(seed=2, count=30))]
    assert a != b


def test_generated_contexts_are_valid_and_bounded():
    config = FuzzConfig(seed=3, count=40, field=GF(5), max_dims=(2, 2, 2, 2))
    for label, ctx in generate_contexts(config):
        assert validate_context(ctx) == []
        assert all(d <= 2 for d in ctx.block_dims), label
        assert ctx.m.dim > 0 or ctx.n.dim > 0


def test_wider_bounds_reach_bigger_entries():
    config = FuzzConfig(seed=3, count=60, field=GF(3), max_dims=(2, 3, 3, 4))
    labels = {label.split("~")[0] for label, _ in generate_contexts(config)}
    assert any(lab.startswith("mat3_peirce") or "+" in lab for lab in labels)


def test_fuzz_report_soundness_and_shape():
    report = fuzz(FuzzConfig(seed=1, count=20, field=GF(3)))
    assert report.ok
    assert len(report.entries) == 20
    doc = report.to_doc()
    assert doc["soundness_violations"] == []
    assert len(doc["contexts"]) == 20
    assert doc["config"]["seed"] == 1
    # holds verdict lists are consistent with the per-context oracle flag
    for entry in doc["contexts"]:
        if entry["holds"]:
            assert entry["lie_derivation_property"]


def test_fuzz_over_gf5():
    report = fuzz(FuzzConfig(seed=2, count=10, field=GF(5)))
    assert report.ok


def test_fuzz_rejects_characteristic_two():
    with pytest.raises(CharacteristicTwoError):
        generate_contexts(FuzzConfig(seed=1, count=1, field=GF(2)))
    with pytest.raises(CharacteristicTwoError):
        fuzz(FuzzConfig(seed=1, count=1, field=GF(2)))


def test_fuzz_over_the_rationals_small():
    report = fuzz(FuzzConfig(seed=4, count=6, field=QQ))
    assert report.ok


@pytest.mark.parametrize("bound", [0, -1])
def test_bounds_excluding_every_entry_are_refused(bound):
    with pytest.raises(PreconditionError, match="exclude every catalog entry"):
        generate_contexts(FuzzConfig(seed=1, count=3, max_dims=(bound,) * 4))


def test_negative_count_is_refused():
    with pytest.raises(PreconditionError, match="non-negative"):
        generate_contexts(FuzzConfig(seed=1, count=-1))
    assert generate_contexts(FuzzConfig(seed=1, count=0)) == []
