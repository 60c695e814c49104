import pytest

import gmalie.fuzzing
import gmalie.morita
from gmalie.algebra import _facts
from gmalie.errors import CharacteristicTwoError, ConsistencyError, PreconditionError
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, fuzz, generate_contexts
from gmalie.gma import gma_structure_tensor
from gmalie.linalg import Subspace
from gmalie.morita import (
    MoritaContext,
    _action_kernel,
    left_action_kernel,
    right_action_kernel,
    validate_context,
)
from gmalie.spaces import _algebra_of, has_lie_derivation_property

from helpers import record_calls, record_structure_checks


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


@pytest.mark.parametrize("setting", ["budget", "ldp_dim_cap"])
def test_negative_budget_and_cap_are_refused(setting):
    with pytest.raises(PreconditionError, match=f"{setting} must be non-negative"):
        generate_contexts(FuzzConfig(seed=1, count=3, **{setting: -1}))


def test_fuzz_checks_each_context_once(monkeypatch):
    config = FuzzConfig(count=6)

    def refuse(*args):
        raise AssertionError("the generator checked a context")

    # the generator builds and checks building blocks only: no context
    with monkeypatch.context() as patch:
        patch.setattr(gmalie.morita, "validate_context", refuse)
        patch.setattr(gmalie.fuzzing, "assemble", refuse)
        contexts = generate_contexts(config)
    tensors = [gma_structure_tensor(ctx) for _, ctx in contexts]
    # a building block can share a context's tensor (M_2 and its Peirce
    # context), so the checks that generation makes are counted apart
    with monkeypatch.context() as patch:
        generation = record_structure_checks(patch)
        generate_contexts(config)
    calls = record_structure_checks(monkeypatch)
    fuzz(config)
    for tensor in tensors:
        assert calls.count(tensor) == generation.count(tensor) + tensors.count(tensor)


def test_an_invalid_generated_context_is_a_consistency_error(monkeypatch):
    (label, ctx), = generate_contexts(FuzzConfig(count=1))
    doubled = tuple(tuple(tuple(2 * x for x in row) for row in plane) for plane in ctx.pair_mn)
    corrupt = MoritaContext(ctx.a, ctx.b, ctx.m, ctx.n, doubled, ctx.pair_nm)
    assert validate_context(corrupt) != []
    monkeypatch.setattr(gmalie.fuzzing, "generate_contexts", lambda config: [(label, corrupt)])
    with pytest.raises(ConsistencyError, match="invalid context"):
        fuzz(FuzzConfig(count=1))


def test_fuzz_decides_each_algebra_and_module_fact_once(monkeypatch):
    # the containment of the Lie derivations in the proper maps is decided
    # once per algebra value, and each action kernel once per module value,
    # however many theorem checks and fuzz steps ask; the caches start
    # empty for each fuzz call
    calls = record_calls(
        monkeypatch,
        has_lie_derivation_property,
        (Subspace, Subspace.contains),
        left_action_kernel,
        right_action_kernel,
        _action_kernel,
    )
    for field in (GF(3), GF(5), QQ):
        for seed in (1, 2):
            _facts.cache_clear()
            calls.clear()
            assert fuzz(FuzzConfig(seed=seed, count=6, field=field)).ok
            asked = [args[0] for name, args, _ in calls if name == "has_lie_derivation_property"]
            decided = [
                1 for name, _, around in calls
                if name == "contains" and around[-1:] == ("has_lie_derivation_property",)
            ]
            assert len(asked) > len({_algebra_of(g) for g in asked})
            assert len(decided) == len({_algebra_of(g) for g in asked})
            # (side, module) of each kernel asked for and of each one built
            sides = ("left_action_kernel", "right_action_kernel")
            asked = [(name, args[0]) for name, args, _ in calls if name in sides]
            built = [(around[-1], args[0]) for name, args, around in calls if name == "_action_kernel"]
            assert len(asked) > len(set(asked))
            assert len(built) == len(set(built)) and set(built) == set(asked)
