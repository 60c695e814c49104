"""Randomized search over valid Morita contexts.

Raw random tensors essentially never satisfy the context axioms, so the
generator composes known-valid building blocks instead: Peirce contexts of
small matrix and triangular algebras, triangular and zero-pairing contexts
over small commutative algebras, direct sums, pairing twists, and
transposes.  The catalog is one table of (label, dims, builder) rows over
three building blocks (the field itself, the dual numbers and the split
pair F x F), which are built once per run.  Each builder runs at most once
per run too, so every draw of an entry shares one context object, with
its cached hashes and memo entries.  A new family goes in under a new
catalog or config name: a new row in this table changes what existing
seeds generate.  The generator checks nothing itself: :func:`fuzz` assembles
every context, which validates it, and an invalid one is a
:class:`ConsistencyError`.

The fuzz loop runs every theorem checker and the subspace oracle on each
context.  A checker that Holds while the oracle finds a non-proper Lie
derivation is a soundness violation (must never happen); an oracle Holds
with no checker Holds is a completeness gap (informational: the conditions
are sufficient, not necessary).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .algebra import DEFAULT_BUDGET
from .constructions import (
    ambient_commutative_context,
    direct_sum_context,
    dual_numbers,
    field_algebra,
    left_regular_bimodule,
    matrix_algebra,
    regular_bimodule,
    right_regular_bimodule,
    scale_pairings,
    split_pair_algebra,
    transpose_context,
    triangular_context,
    trivial_context,
    upper_triangular_algebra,
)
from .errors import CharacteristicTwoError, ConsistencyError, PreconditionError, ValidationFailure
from .fields import GF, Field
from .gma import assemble, is_trivial, peirce
from .spaces import has_lie_derivation_property
from .theorems import DEFAULT_LDP_DIM_CAP, all_theorem_checks
from .tristate import TriState

__all__ = ["FuzzConfig", "FuzzReport", "generate_contexts", "fuzz"]


@dataclass(frozen=True)
class FuzzConfig:
    """Reproducible generator configuration: the same seed and settings
    produce the identical context stream."""

    seed: int = 1
    count: int = 100
    field: Field = GF(3)
    max_dims: tuple = (2, 2, 2, 2)
    budget: int = DEFAULT_BUDGET
    ldp_dim_cap: int = DEFAULT_LDP_DIM_CAP


def _catalog(f: Field):
    """Fixed-order list of (label, block_dims, builder).  The three building
    blocks are built once per call, and each builder runs at most once: a
    later call returns the context it built first."""
    one, dual, split = field_algebra(f), dual_numbers(f), split_pair_algebra(f)
    table = [
        ("mat2_peirce", (1, 1, 1, 1), lambda: _peirce_e11(matrix_algebra(f, 2))),
        ("mat2_peirce_skew", (1, 1, 1, 1),
         lambda: peirce(matrix_algebra(f, 2), _skew_idempotent(f))),
        ("tri2_peirce", (1, 1, 0, 1), lambda: _peirce_e11(upper_triangular_algebra(f, 2))),
        ("tri_scalar", (1, 1, 0, 1), lambda: triangular_context(one, regular_bimodule(one), one)),
        ("tri_dual_left", (2, 2, 0, 1),
         lambda: triangular_context(dual, left_regular_bimodule(dual, one), one)),
        ("tri_dual_right", (1, 2, 0, 2),
         lambda: triangular_context(one, right_regular_bimodule(one, dual), dual)),
        ("trivial_dual_pair", (2, 2, 2, 2),
         lambda: trivial_context(dual, dual, regular_bimodule(dual), regular_bimodule(dual))),
        ("trivial_split_pair", (2, 2, 2, 2),
         lambda: trivial_context(split, split, regular_bimodule(split), regular_bimodule(split))),
        ("trivial_mixed", (2, 2, 2, 1),
         lambda: trivial_context(
             dual, one, left_regular_bimodule(dual, one), right_regular_bimodule(one, dual))),
        ("tri3_peirce", (1, 2, 0, 3), lambda: _peirce_e11(upper_triangular_algebra(f, 3))),
        ("mat3_peirce", (1, 2, 2, 4), lambda: _peirce_e11(matrix_algebra(f, 3))),
        ("ambient_nilpotents", (2, 3, 3, 2), lambda: ambient_commutative_context(f)),
    ]
    return [(label, dims, cache(builder)) for label, dims, builder in table]


def _peirce_e11(a):
    # e11, the first basis vector of the matrix and triangular algebras
    return peirce(a, a.basis_vector(0))


def _skew_idempotent(f):
    # e11 + e12 in the 2x2 matrix-unit basis
    z, o = f.zero, f.one
    return (o, o, z, z)


def _fits(dims, bounds):
    return all(d <= b for d, b in zip(dims, bounds))


def _fitting_pair(rng, base, bounds):
    """The first of up to 16 drawn pairs of entries whose summed dims fit
    the bounds, or None."""
    for _ in range(16):
        first, second = base[rng.randrange(len(base))], base[rng.randrange(len(base))]
        if _fits([x + y for x, y in zip(first[1], second[1])], bounds):
            return first, second
    return None


def generate_contexts(config: FuzzConfig):
    """Deterministic stream of (label, context) pairs within the dim bounds.
    Draws of one catalog entry share one context object."""
    f = config.field
    if f.characteristic == 2:
        raise CharacteristicTwoError(
            "fuzzing over characteristic two is rejected by the torsion gate"
        )
    for name in ("count", "budget", "ldp_dim_cap"):
        value = getattr(config, name)
        if value < 0:
            raise PreconditionError(f"{name} must be non-negative, got {value}")
    rng = random.Random(config.seed)
    base = [entry for entry in _catalog(f) if _fits(entry[1], config.max_dims)]
    if not base:
        raise PreconditionError(
            f"dimension bounds {config.max_dims} exclude every catalog entry"
        )
    out = []
    for _ in range(config.count):
        # below 0.60 a plain draw, below 0.85 a twist or a transpose, else a
        # direct sum; with one entry, or no fitting pair, a plain draw
        roll = rng.random()
        if len(base) < 2:
            roll = 0.0
        pair = _fitting_pair(rng, base, config.max_dims) if roll >= 0.85 else None
        if pair:
            (first, _, build_first), (second, _, build_second) = pair
            ctx = direct_sum_context(build_first(), build_second())
            out.append((f"{first}+{second}", ctx))
            continue
        label, _, builder = base[rng.randrange(len(base))]
        ctx = builder()
        if 0.60 <= roll < 0.85:
            if rng.random() < 0.5 and not is_trivial(ctx) and f.is_prime_field and f.p > 2:
                lam = rng.randrange(2, f.p)
                ctx = scale_pairings(ctx, lam)
                label = f"{label}~twist{lam}"
            else:
                ctx = transpose_context(ctx)
                label = f"{label}~transpose"
        out.append((label, ctx))
    return out


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a fuzz run; ``soundness_violations`` must stay empty."""

    config: FuzzConfig
    entries: tuple
    soundness_violations: tuple
    completeness_gaps: tuple

    @property
    def ok(self) -> bool:
        return not self.soundness_violations

    def to_doc(self) -> dict:
        return {
            "config": {
                "seed": self.config.seed,
                "count": self.config.count,
                "field": self.config.field.to_doc(),
                "max_dims": list(self.config.max_dims),
                "budget": self.config.budget,
                "ldp_dim_cap": self.config.ldp_dim_cap,
            },
            "contexts": [
                {
                    "index": idx,
                    "label": label,
                    "block_dims": list(dims),
                    "holds": sorted(holds),
                    "lie_derivation_property": ldp,
                }
                for idx, label, dims, holds, ldp in self.entries
            ],
            "soundness_violations": [dict(v) for v in self.soundness_violations],
            "completeness_gaps": list(self.completeness_gaps),
        }


def fuzz(config: FuzzConfig) -> FuzzReport:
    """Generate contexts, run every checker plus the oracle, and collect
    soundness violations and completeness gaps (sorted by context index)."""
    entries = []
    violations = []
    gaps = []
    for idx, (label, ctx) in enumerate(generate_contexts(config)):
        try:
            g = assemble(ctx)
        except ValidationFailure as exc:
            first = exc.violations[0]
            raise ConsistencyError(f"generator produced an invalid context: {first}") from exc
        verdicts = all_theorem_checks(g, config.budget, config.ldp_dim_cap)
        ldp = has_lie_derivation_property(g)
        holds = [v.check_id for v in verdicts if v.overall is TriState.HOLDS]
        entries.append((idx, label, ctx.block_dims, tuple(holds), ldp))
        if holds and not ldp:
            violations.append(
                (
                    ("index", idx),
                    ("label", label),
                    ("checkers", tuple(holds)),
                )
            )
        if ldp and not holds:
            gaps.append(idx)
    return FuzzReport(
        config=config,
        entries=tuple(entries),
        soundness_violations=tuple(violations),
        completeness_gaps=tuple(gaps),
    )
