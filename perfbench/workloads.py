"""Inputs, operations and output checks of the three workloads.

Every input is made from the benchmark's seed.  A workload is a cycle of
operations ("ops"), each a callable that the runner times in a freshly
forked process; its output is reduced to a small summary there, untimed,
and the runner compares that summary with the op's expected one.  Library
calls go through module attributes (``gmalie.spaces.derivation_space``),
never through names bound here, so the tracer's rebinding reaches them.

Expected outputs come from two independent sources: isomorphism invariants
(full and upper-triangular matrix algebras have known space dimensions in
any basis) and ``expected.json``, recorded from the program by
``record_expected.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import gmalie
import gmalie.cli
import gmalie.constructions as cons
import gmalie.fuzzing
import gmalie.gma
import gmalie.spaces

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
WORKLOADS = ("oracle", "fuzz", "cli")

# Named oracle cases: ROADMAP's baseline figures are read from these.
BASELINE_CASES = ("M4_GF5", "peirce_M3_GF3", "peirce_M4_GF3", "peirce_M5_GF3", "M4_QQ")

FUZZ_FIELDS = (3, 5, 0)  # 0 stands for the rationals
FUZZ_COUNT = 6
FUZZ_MAX_DIMS = (2, 2, 2, 2)  # the CLI's default --max-dim
FUZZ_POOL = tuple(range(1, 9))  # fuzz seeds with recorded reports
FUZZ_PER_FIELD = 4  # fuzz seeds per field in a cycle, one per cost stratum

CLI_EXAMPLES = (
    "example_sec4",
    "tri2_Q",
    "tri2_GF5",
    "mat2_GF3_peirce",
    "mat3_GF3_peirce",
    "trivial_QQQ",
)


@dataclass
class Op:
    """One timed operation; ``items`` is what it completes for items/s."""

    name: str
    items: int
    run: Callable[[], object]
    summarize: Callable[[object], object]
    expect: object


def field_of(key: int):
    return gmalie.QQ if key == 0 else gmalie.GF(key)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- oracle ---------------------------------------------------------------------


def _e11(f, n):
    vec = [f.zero] * (n * n)
    vec[0] = f.one
    return tuple(vec)


def _label(f) -> str:
    return f"GF{f.p}" if f.is_prime_field else "QQ"


def _assembled(ctx):
    return gmalie.gma.assemble(ctx).algebra


def _square_trivial(f, make):
    """Zero-pairing context of an algebra with itself, through its regular
    bimodule."""
    a = make(f)
    return cons.trivial_context(a, a, cons.regular_bimodule(a), cons.regular_bimodule(a))


def _oracle_algebras():
    """(name, algebra, invariant dims or None, random-basis twin?) in
    matrix-unit or assembled-block bases.  Dims are (derivations, Lie
    derivations, central maps, proper, property holds)."""
    gf3, gf5, qq = gmalie.GF(3), gmalie.GF(5), gmalie.QQ
    out = []
    matrix = ((3, gf3, True), (3, gf5, True), (4, gf5, False), (3, qq, False), (4, qq, False))
    for n, f, twin in matrix:
        inv = (n * n - 1, n * n, 1, n * n, True)
        out.append((f"M{n}_{_label(f)}", cons.matrix_algebra(f, n), inv, twin))
    triangular = ((3, gf3, False), (4, gf5, True), (5, gf3, True), (4, qq, False))
    for n, f, twin in triangular:
        d = n * (n + 1) // 2
        inv = (d - 1, d - 1 + n, n, d - 1 + n, True)
        out.append((f"T{n}_{_label(f)}", cons.upper_triangular_algebra(f, n), inv, twin))
    for n in (3, 4, 5):
        ctx = gmalie.peirce(cons.matrix_algebra(gf3, n), _e11(gf3, n))
        inv = (n * n - 1, n * n, 1, n * n, True)
        out.append((f"peirce_M{n}_GF3", _assembled(ctx), inv, n == 3))
    contexts = (
        ("ambient_GF3", cons.ambient_commutative_context(gf3), True),
        ("ambient_QQ", cons.ambient_commutative_context(qq), False),
        ("trivial_dual_pair_GF5", _square_trivial(gf5, cons.dual_numbers), True),
        ("trivial_split_pair_QQ", _square_trivial(qq, cons.split_pair_algebra), False),
    )
    for name, ctx, twin in contexts:
        out.append((name, _assembled(ctx), None, twin))
    return out


def _raw(x):
    """Plain ints (or Fractions) out of canonical scalars."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


def _raw_tensor(alg):
    tensor = [[[_raw(x) for x in row] for row in plane] for plane in alg.structure]
    return tensor, [_raw(x) for x in alg.unit]


def _inverse_mod(m, p):
    n = len(m)
    a = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c] % p), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        inv = pow(a[c][c], -1, p)
        a[c] = [x * inv % p for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[c])]
    return [r[n:] for r in a]


def random_basis(tensor, unit, p, rng):
    """Structure constants of the same algebra in a random basis over GF(p).

    The new basis vectors are the columns of a random invertible matrix, so
    the structure tensor comes out dense.  Plain modular arithmetic, so the
    change of basis does not depend on the library under test.
    """
    d = len(tensor)
    while True:
        change = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        back = _inverse_mod(change, p)
        if back is not None:
            break
    basis = [[change[j][i] for j in range(d)] for i in range(d)]

    def times(x, y):
        acc = [0] * d
        for i, xi in enumerate(x):
            if xi:
                plane = tensor[i]
                for j, yj in enumerate(y):
                    if yj:
                        c = xi * yj
                        for k, s in enumerate(plane[j]):
                            if s:
                                acc[k] += c * s
        return acc

    def coords(v):
        return [sum(b * x for b, x in zip(row, v)) % p for row in back]

    new = [[coords(times(basis[i], basis[j])) for j in range(d)] for i in range(d)]
    return new, coords(unit)


def oracle_op(field, tensor, unit):
    """Build the algebra from raw structure constants and decide it."""
    a = gmalie.FDAlgebra(field, len(tensor), tensor, unit)
    spaces = gmalie.spaces
    return (
        spaces.derivation_space(a).dim,
        spaces.lie_derivation_space(a).dim,
        spaces.central_map_space(a).dim,
        spaces.proper_space(a).dim,
        spaces.has_lie_derivation_property(a),
    )


def oracle_cases():
    """(name, field, tensor, unit, invariant dims or None, twin?) in the
    algebras' own bases."""
    return [
        (name, alg.field, *_raw_tensor(alg), inv, twin)
        for name, alg, inv, twin in _oracle_algebras()
    ]


def _oracle_ops(rng, expected):
    ops = []
    for name, field, tensor, unit, inv, twin in oracle_cases():
        dims = list(inv) if inv is not None else expected["oracle"][name]
        variants = [(name, tensor, unit)]
        if twin:
            variants.append((f"{name}~rand", *random_basis(tensor, unit, field.p, rng)))
        for label, t, u in variants:
            ops.append(Op(label, 1, lambda f=field, t=t, u=u: oracle_op(f, t, u), list, dims))
    return ops


# -- fuzz -------------------------------------------------------------------------


def fuzz_config(key: int, seed: int):
    return gmalie.fuzzing.FuzzConfig(
        seed=seed, count=FUZZ_COUNT, field=field_of(key), max_dims=FUZZ_MAX_DIMS
    )


def fuzz_summary(report):
    doc = json.dumps(report.to_doc(), sort_keys=True)
    return {"sha256": _digest(doc), "violations": len(report.soundness_violations)}


def _stratified(by_cost, k, rng):
    """``k`` seeds, one from each of ``k`` equal cost strata of the pool: a
    fuzz op's cost depends strongly on its seed, and one draw per stratum
    gives every run the same spread of cheap and dear ops."""
    n = len(by_cost)
    bounds = [i * n // k for i in range(k + 1)]
    return [rng.choice(by_cost[lo : max(hi, lo + 1)]) for lo, hi in zip(bounds, bounds[1:])]


def _fuzz_op(key, seed, expected):
    expect = {"sha256": expected["fuzz"][str(key)][str(seed)], "violations": 0}
    return Op(
        f"fuzz_{_label(field_of(key))}/{seed}",
        FUZZ_COUNT,
        lambda: gmalie.fuzzing.fuzz(fuzz_config(key, seed)),
        fuzz_summary,
        expect,
    )


# -- cli ----------------------------------------------------------------------------


def cli_commands():
    cmds = []
    for name in CLI_EXAMPLES:
        for command in ("validate", "analyze", "theorems"):
            cmds.append((command, "--input", name, "--format", "json"))
        cmds.append(("examples", name, "--format", "json"))
    cmds.append(("proper", "--input", "example_sec4", "--map", "L_paper", "--format", "json"))
    return cmds


def cli_run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = gmalie.cli.main(list(argv))
    return code, out.getvalue()


def cli_summary(result):
    code, text = result
    try:
        verdict = json.loads(text).get("verdict")
    except ValueError:
        verdict = None
    return {"exit": code, "sha256": _digest(text), "verdict": verdict}


# -- cycles ---------------------------------------------------------------------------


def build(workload: str, seed: int):
    """The ops of one cycle of ``workload``, made from ``seed``.  A run
    repeats the cycle, so every op kind runs several times."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    expected = load_expected()
    if workload == "oracle":
        return _oracle_ops(rng, expected)
    if workload == "fuzz":
        return [
            _fuzz_op(key, fuzz_seed, expected)
            for key in FUZZ_FIELDS
            for fuzz_seed in _stratified(expected["fuzz_by_cost"][str(key)], FUZZ_PER_FIELD, rng)
        ]
    ops = []
    for argv in cli_commands():
        name = " ".join(argv)
        ops.append(Op(name, 1, lambda argv=argv: cli_run(argv), cli_summary, expected["cli"][name]))
    return ops
