"""Bundled example workspaces.

Each example is a complete workspace document (the same JSON shape accepted
from files): the ten-dimensional zero-pairing counterexample with its
non-proper Lie derivation, two triangular contexts, two Peirce contexts of
full matrix algebras, and a one-dimensional trivial context.
"""

from __future__ import annotations

from .constructions import (
    ambient_commutative_context,
    field_algebra,
    matrix_algebra,
    regular_bimodule,
    triangular_context,
    trivial_context,
)
from .fields import GF, QQ
from .gma import peirce
from .workspace import (
    Workspace,
    algebra_doc,
    bimodule_doc,
    context_doc,
    parse_workspace,
)

EXAMPLE_NAMES = (
    "example_sec4",
    "tri2_Q",
    "tri2_GF5",
    "mat2_GF3_peirce",
    "mat3_GF3_peirce",
    "trivial_QQQ",
)

__all__ = ["EXAMPLE_NAMES", "build_document", "load_example"]


def _context_document(ctx, maps=None) -> dict:
    doc = {
        "field": ctx.field.to_doc(),
        "algebras": {"A": algebra_doc(ctx.a), "B": algebra_doc(ctx.b)},
        "bimodules": {
            "M": bimodule_doc(ctx.m, "A", "B"),
            "N": bimodule_doc(ctx.n, "B", "A"),
        },
        "contexts": {"G": context_doc(ctx, "A", "B", "M", "N")},
    }
    if maps:
        doc["maps"] = maps
    return doc


def _sec4_document() -> dict:
    ctx = ambient_commutative_context(QQ)
    # blocks: A = (1, x), M = N = (1, x, y), B = (1, y); the bundled map sends
    # the B-block nilpotent to the A-block one and back, and swap-negates the
    # two nilpotents inside each module block
    d = 10
    rows = [[0] * d for _ in range(d)]
    rows[9][1] = 1
    rows[1][9] = 1
    rows[4][3] = -1
    rows[3][4] = -1
    rows[7][6] = -1
    rows[6][7] = -1
    return _context_document(
        ctx, maps={"L_paper": {"context": "G", "matrix": rows}}
    )


def _tri2_document(field) -> dict:
    one = field_algebra(field)
    ctx = triangular_context(one, regular_bimodule(one), one)
    return _context_document(ctx)


def _peirce_document(field, n) -> dict:
    alg = matrix_algebra(field, n)
    corner = [field.zero] * (n * n)
    corner[0] = field.one
    ctx = peirce(alg, corner)
    return _context_document(ctx)


def _trivial_qqq_document() -> dict:
    one = field_algebra(QQ)
    ctx = trivial_context(one, one, regular_bimodule(one), regular_bimodule(one))
    return _context_document(ctx)


def build_document(name: str) -> dict:
    if name == "example_sec4":
        return _sec4_document()
    if name == "tri2_Q":
        return _tri2_document(QQ)
    if name == "tri2_GF5":
        return _tri2_document(GF(5))
    if name == "mat2_GF3_peirce":
        return _peirce_document(GF(3), 2)
    if name == "mat3_GF3_peirce":
        return _peirce_document(GF(3), 3)
    if name == "trivial_QQQ":
        return _trivial_qqq_document()
    raise KeyError(f"no bundled example named {name!r} (have {', '.join(EXAMPLE_NAMES)})")


def load_example(name: str) -> Workspace:
    return parse_workspace(build_document(name), source=f"example:{name}")
