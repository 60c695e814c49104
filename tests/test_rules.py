"""Pointwise rule checks: derivation_defect, lie_defect and
is_central_commutator_free on perturbed basis maps of the bundled examples
and a fuzz slice, pinned in defect_pins.json and compared with the per-pair
loops of helpers.py on generated maps.

Rerun ``PYTHONPATH=src python tests/test_rules.py`` to re-record the pins,
only for an intended change of what a defect reports.
"""

import json
import random
from functools import lru_cache
from pathlib import Path

from hypothesis import given, settings, strategies as st

from gmalie.catalog import EXAMPLE_NAMES, load_example
from gmalie.fields import GF, QQ
from gmalie.fuzzing import FuzzConfig, generate_contexts
from gmalie.gma import assemble
from gmalie.linalg import Matrix
from gmalie.spaces import (
    EndoMap,
    central_map_space,
    derivation_defect,
    is_central_commutator_free,
    lie_defect,
    lie_derivation_space,
)

from helpers import (
    reference_central_commutator_free,
    reference_derivation_defect,
    reference_lie_defect,
)

PINS = Path(__file__).with_name("defect_pins.json")


@lru_cache(maxsize=None)
def _pin_algebras():
    """(label, algebra): the six examples, then the distinct algebras of two
    30-context fuzz slices."""
    out = []
    for name in EXAMPLE_NAMES:
        ws = load_example(name)
        out.append((name, ws.assembled(ws.sole_context_name()).algebra))
    for f in (GF(3), QQ):
        seen = set()
        for label, ctx in generate_contexts(FuzzConfig(seed=1, count=30, field=f)):
            a = assemble(ctx).algebra
            if a not in seen:
                seen.add(a)
                out.append((f"{f!r}:{label}", a))
    return tuple(out)


def _pin_maps(label, a):
    """Up to four Lie-derivation and two central basis maps, each also with
    one entry bumped, and two maps with small random entries."""
    rng = random.Random(label)
    f, d = a.field, a.dim
    basis = lie_derivation_space(a).basis_maps()[:4] + central_map_space(a).basis_maps()[:2]
    maps = []
    for endo in basis:
        maps.append(endo)
        rows = endo.matrix.to_lists()
        r, c = rng.randrange(d), rng.randrange(d)
        rows[r][c] = f.add(rows[r][c], f.one)
        maps.append(EndoMap(Matrix(f, rows, cols=d)))
    for _ in range(2):
        rows = [[rng.randrange(-1, 2) for _ in range(d)] for _ in range(d)]
        maps.append(EndoMap(Matrix(f, rows, cols=d)))
    return maps


def _records():
    out = {}
    for label, a in _pin_algebras():
        out[label] = [
            [derivation_defect(a, endo), lie_defect(a, endo), is_central_commutator_free(a, endo)]
            for endo in _pin_maps(label, a)
        ]
    return out


def test_defects_match_the_pins():
    # the JSON round trip turns defect pairs into lists, as in the file
    assert json.loads(json.dumps(_records())) == json.loads(PINS.read_text())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rows_agree_with_the_per_pair_loops(data):
    _, a = data.draw(st.sampled_from(_pin_algebras()))
    f, d = a.field, a.dim
    start = lie_derivation_space(a).basis_maps() + central_map_space(a).basis_maps()
    flat = list(data.draw(st.sampled_from(start + (EndoMap.zero(f, d),))).flatten())
    bumps = st.tuples(st.integers(0, d * d - 1), st.integers(-2, 2))
    for t, x in data.draw(st.lists(bumps, max_size=3)):
        flat[t] = f.add(flat[t], f.of(x))
    endo = EndoMap.from_flat(f, flat, d)
    assert derivation_defect(a, endo) == reference_derivation_defect(a, endo)
    assert lie_defect(a, endo) == reference_lie_defect(a, endo)
    assert is_central_commutator_free(a, endo) == reference_central_commutator_free(a, endo)


if __name__ == "__main__":
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(_records().items())]
    PINS.write_text("{\n" + ",\n".join(lines) + "\n}\n")
