"""Workspace files: the JSON input schema, loading with validation, and
canonical serialization.

A workspace document holds one scalar field and named algebras, bimodules,
contexts, and maps.  Scalars are JSON ints or fraction strings "a/b"
(reduced on load); tensors are nested arrays indexed [i][j][k].  Every
referenced object is validated on load, and a failure names the JSON path
and the first violated identity.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .algebra import FDAlgebra
from .errors import DimensionMismatch, ValidationFailure
from .fields import Field, field_from_doc
from .gma import GMAlgebra, assemble
from .linalg import Matrix
from .morita import Bimodule, MoritaContext, validate_bimodule

__all__ = [
    "Workspace",
    "MapEntry",
    "load_workspace",
    "parse_workspace",
    "algebra_doc",
    "bimodule_doc",
    "context_doc",
    "matrix_doc",
    "render_json",
]


@dataclass(frozen=True)
class MapEntry:
    """A named linear self-map of a context's assembled algebra or of a
    plain algebra."""

    target_kind: str  # "context" | "algebra"
    target: str
    matrix: Matrix


class Workspace:
    """Validated contents of one workspace document."""

    def __init__(self, field, algebras, bimodules, assembled, maps, source="<doc>"):
        self.field = field
        self.algebras = algebras
        self.bimodules = bimodules
        self.contexts = {name: g.context for name, g in assembled.items()}
        self.maps = maps
        self.source = source
        self._assembled = assembled

    def context(self, name: str) -> MoritaContext:
        return self.assembled(name).context

    def assembled(self, name: str) -> GMAlgebra:
        if name not in self._assembled:
            raise KeyError(f"no context named {name!r} in {self.source}")
        return self._assembled[name]

    def sole_context_name(self) -> str:
        if not self.contexts:
            raise KeyError(f"{self.source} has no context")
        if len(self.contexts) != 1:
            raise KeyError(
                f"{self.source} has {len(self.contexts)} contexts; pick one explicitly"
            )
        return next(iter(self.contexts))


_REQUIRED = object()


def _expect(doc, key, kind, path, default=_REQUIRED):
    """``doc[key]`` checked to be a ``kind``; ``default`` when the key is
    optional and absent."""
    if key not in doc:
        if default is _REQUIRED:
            raise ValidationFailure(f"{path}: missing required key {key!r}")
        return default
    value = doc[key]
    # bool is a subclass of int, but true is never a dimension
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValidationFailure(f"{path}.{key}: expected {kind.__name__}")
    return value


def _entries(doc, key, path, default=_REQUIRED):
    """``(name, path, entry)`` for each named entry of section ``key``, every
    entry checked to be an object."""
    for name, entry in _expect(doc, key, dict, path, default).items():
        entry_path = f"{path}.{key}.{name}"
        if not isinstance(entry, dict):
            raise ValidationFailure(f"{entry_path}: expected dict")
        yield name, entry_path, entry


def _parse_vector(field, data, path):
    if not isinstance(data, list):
        raise ValidationFailure(f"{path}: expected an array of scalars")
    try:
        return tuple(field.parse(x) for x in data)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValidationFailure(f"{path}: bad scalar ({exc})") from exc


def _parse_matrix(field, data, path) -> Matrix:
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ValidationFailure(f"{path}: expected an array of rows")
    rows = [_parse_vector(field, r, f"{path}[{i}]") for i, r in enumerate(data)]
    try:
        return Matrix(field, rows)
    except DimensionMismatch as exc:
        raise ValidationFailure(f"{path}: {exc}") from exc


def _parse_tensor(field, data, path):
    if not isinstance(data, list):
        raise ValidationFailure(f"{path}: expected a rank-3 array")
    out = []
    for i, plane in enumerate(data):
        if not isinstance(plane, list):
            raise ValidationFailure(f"{path}[{i}]: expected an array of rows")
        out.append(
            tuple(_parse_vector(field, row, f"{path}[{i}][{j}]") for j, row in enumerate(plane))
        )
    return tuple(out)


def parse_workspace(doc: dict, source: str = "<doc>") -> Workspace:
    if not isinstance(doc, dict):
        raise ValidationFailure(f"{source}: workspace must be a JSON object")
    try:
        field = field_from_doc(_expect(doc, "field", dict, source))
    except (DimensionMismatch, ValueError) as exc:
        raise ValidationFailure(f"{source}.field: {exc}") from exc

    algebras = {}
    for name, path, entry in _entries(doc, "algebras", source):
        dim = _expect(entry, "dim", int, path)
        structure = _parse_tensor(field, _expect(entry, "structure", list, path), f"{path}.structure")
        unit = _parse_vector(field, _expect(entry, "unit", list, path), f"{path}.unit")
        declared = tuple(
            _parse_vector(field, e, f"{path}.idempotents[{i}]")
            for i, e in enumerate(_expect(entry, "idempotents", list, path, []))
        )
        complete = _expect(entry, "idempotents_complete", bool, path, False)
        try:
            algebras[name] = FDAlgebra(
                field,
                dim,
                structure,
                unit,
                declared_idempotents=declared,
                idempotents_complete=complete,
            )
        except (ValidationFailure, DimensionMismatch) as exc:
            raise ValidationFailure(f"{path}: {exc}") from exc

    def algebra_ref(entry, key, path):
        ref = _expect(entry, key, str, path)
        if ref not in algebras:
            raise ValidationFailure(f"{path}.{key}: unknown algebra {ref!r}")
        return algebras[ref]

    bimodules = {}
    for name, path, entry in _entries(doc, "bimodules", source, {}):
        left = algebra_ref(entry, "left", path)
        right = algebra_ref(entry, "right", path)
        dim = _expect(entry, "dim", int, path)
        la = _parse_tensor(field, _expect(entry, "left_action", list, path), f"{path}.left_action")
        ra = _parse_tensor(field, _expect(entry, "right_action", list, path), f"{path}.right_action")
        try:
            mod = Bimodule(left, right, dim, la, ra)
        except DimensionMismatch as exc:
            raise ValidationFailure(f"{path}: {exc}") from exc
        bad = validate_bimodule(mod)
        if bad:
            raise ValidationFailure(f"{path}: module axiom violated", bad)
        bimodules[name] = mod

    assembled = {}
    for name, path, entry in _entries(doc, "contexts", source, {}):
        a = algebra_ref(entry, "a", path)
        b = algebra_ref(entry, "b", path)
        m_ref = _expect(entry, "m", str, path)
        n_ref = _expect(entry, "n", str, path)
        for ref in (m_ref, n_ref):
            if ref not in bimodules:
                raise ValidationFailure(f"{path}: unknown bimodule {ref!r}")
        pair_mn = _parse_tensor(field, _expect(entry, "pair_mn", list, path), f"{path}.pair_mn")
        pair_nm = _parse_tensor(field, _expect(entry, "pair_nm", list, path), f"{path}.pair_nm")
        try:
            ctx = MoritaContext(a, b, bimodules[m_ref], bimodules[n_ref], pair_mn, pair_nm)
        except DimensionMismatch as exc:
            raise ValidationFailure(f"{path}: {exc}") from exc
        try:
            assembled[name] = assemble(ctx)
        except ValidationFailure as exc:
            raise ValidationFailure(f"{path}: context identity violated", exc.violations) from exc

    maps = {}
    for name, path, entry in _entries(doc, "maps", source, {}):
        has_ctx = "context" in entry
        has_alg = "algebra" in entry
        if has_ctx == has_alg:
            raise ValidationFailure(
                f"{path}: exactly one of 'context' or 'algebra' must be named"
            )
        matrix = _parse_matrix(field, _expect(entry, "matrix", list, path), f"{path}.matrix")
        if has_ctx:
            ref = _expect(entry, "context", str, path)
            if ref not in assembled:
                raise ValidationFailure(f"{path}.context: unknown context {ref!r}")
            target_dim = assembled[ref].algebra.dim
            kind = "context"
        else:
            ref = _expect(entry, "algebra", str, path)
            if ref not in algebras:
                raise ValidationFailure(f"{path}.algebra: unknown algebra {ref!r}")
            target_dim = algebras[ref].dim
            kind = "algebra"
        if matrix.shape != (target_dim, target_dim):
            raise ValidationFailure(
                f"{path}.matrix: expected {target_dim}x{target_dim}, got "
                f"{matrix.rows}x{matrix.cols}"
            )
        maps[name] = MapEntry(kind, ref, matrix)

    return Workspace(field, algebras, bimodules, assembled, maps, source)


def load_workspace(path: str) -> Workspace:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationFailure(f"{path}: parse error at line {exc.lineno}: {exc.msg}")
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise ValidationFailure(f"{path}: unreadable ({type(exc).__name__}: {exc})") from exc
    except ValueError as exc:
        # an integer literal longer than int(str) accepts; Python's message
        # advises raising the limit, which a user of this tool cannot do
        raise ValidationFailure(
            f"{path}: parse error: an integer literal is longer than "
            f"{sys.get_int_max_str_digits()} digits"
        ) from exc
    return parse_workspace(doc, source=path)


# -- serialization ---------------------------------------------------------------


def matrix_doc(field: Field, matrix: Matrix):
    return [[field.format(x) for x in row] for row in matrix.entries]


def _tensor_doc(field, tensor):
    return [[[field.format(x) for x in row] for row in plane] for plane in tensor]


def algebra_doc(alg: FDAlgebra) -> dict:
    f = alg.field
    doc = {
        "dim": alg.dim,
        "structure": _tensor_doc(f, alg.structure),
        "unit": [f.format(x) for x in alg.unit],
    }
    if alg.declared_idempotents:
        doc["idempotents"] = [[f.format(x) for x in e] for e in alg.declared_idempotents]
    if alg.idempotents_complete:
        doc["idempotents_complete"] = True
    return doc


def bimodule_doc(mod: Bimodule, left_name: str, right_name: str) -> dict:
    f = mod.field
    return {
        "left": left_name,
        "right": right_name,
        "dim": mod.dim,
        "left_action": _tensor_doc(f, mod.left_action),
        "right_action": _tensor_doc(f, mod.right_action),
    }


def context_doc(ctx: MoritaContext, a: str, b: str, m: str, n: str) -> dict:
    f = ctx.field
    return {
        "a": a,
        "b": b,
        "m": m,
        "n": n,
        "pair_mn": _tensor_doc(f, ctx.pair_mn),
        "pair_nm": _tensor_doc(f, ctx.pair_nm),
    }


def render_json(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline.
    Identical inputs always produce byte-identical output."""
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
