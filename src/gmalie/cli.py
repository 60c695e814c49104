"""Command-line surface.

Commands: validate, analyze, proper, theorems, fuzz, examples.  Input files
are workspace JSON documents; ``--input`` also accepts the name of a
bundled example.  Exit codes: 0 success, 1 usage, 2 validation or
precondition failure, 3 internal consistency failure (a criteria/oracle
mismatch means either a broken theorem or a bug).
"""

from __future__ import annotations

import argparse
import os
import sys

from .algebra import DEFAULT_BUDGET, analyze_algebra
from .catalog import EXAMPLE_NAMES, build_document, load_example
from .errors import (
    ConsistencyError,
    PreconditionError,
    ValidationFailure,
    WorkbenchError,
)
from .fields import GF, QQ
from .fuzzing import FuzzConfig, fuzz
from .gma import center_analysis, is_trivial
from .morita import faithfulness
from .presentation import properness_criteria
from .spaces import (
    EndoMap,
    central_map_space,
    derivation_space,
    has_lie_derivation_property,
    is_proper,
    lie_derivation_space,
    proper_space,
)
from .theorems import DEFAULT_LDP_DIM_CAP, all_theorem_checks
from .workspace import load_workspace, matrix_doc, render_json

USAGE_EXIT = 1
VALIDATION_EXIT = 2
CONSISTENCY_EXIT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmalie", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, context=True):
        p.add_argument("--input", required=True, help="workspace file or bundled example name")
        if context:
            p.add_argument("--context", help="context name (default: the only one)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="enumeration budget for exhaustive scans")

    p = sub.add_parser("validate", help="load a workspace and report validity")
    common(p, context=False)

    p = sub.add_parser("analyze", help="structure reports, center analysis, space dims")
    common(p)

    p = sub.add_parser("proper", help="properness of a stored map, with witness and criteria")
    common(p)
    p.add_argument("--map", required=True, dest="map_name", help="map name in the workspace")

    p = sub.add_parser("theorems", help="run every sufficient-condition check")
    common(p)
    p.add_argument("--ldp-dim-cap", type=int, default=DEFAULT_LDP_DIM_CAP)

    p = sub.add_parser("fuzz", help="randomized soundness search over generated contexts")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--field", default="3", help='"q" for the rationals or a prime modulus')
    p.add_argument("--max-dim", type=int, default=2, help="per-block dimension bound")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("examples", help="list bundled examples or emit one as JSON")
    p.add_argument("name", nargs="?", help="example to emit")
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load(args):
    path = args.input
    if os.path.exists(path):
        return load_workspace(path)
    if path in EXAMPLE_NAMES:
        return load_example(path)
    raise _UsageError(f"--input {path!r}: no such file or bundled example")


def _pick_context(ws, args):
    name = getattr(args, "context", None)
    if name is None:
        try:
            return ws.sole_context_name()
        except KeyError as exc:
            raise _UsageError(str(exc))
    if name not in ws.contexts:
        raise _UsageError(f"no context named {name!r} in {ws.source}")
    return name


def _emit(doc, fmt, text_renderer):
    if fmt == "json":
        sys.stdout.write(render_json(doc))
    else:
        sys.stdout.write(text_renderer(doc))
    return 0


# -- command implementations -------------------------------------------------


def _cmd_validate(args) -> int:
    ws = _load(args)
    doc = {
        "command": "validate",
        "source": ws.source,
        "ok": True,
        "counts": {
            "algebras": len(ws.algebras),
            "bimodules": len(ws.bimodules),
            "contexts": len(ws.contexts),
            "maps": len(ws.maps),
        },
        "objects": sorted(
            [f"algebra:{n}" for n in ws.algebras]
            + [f"bimodule:{n}" for n in ws.bimodules]
            + [f"context:{n}" for n in ws.contexts]
            + [f"map:{n}" for n in ws.maps]
        ),
    }

    def text(d):
        counts = d["counts"]
        return (
            f"{d['source']}: ok "
            f"({counts['algebras']} algebras, {counts['bimodules']} bimodules, "
            f"{counts['contexts']} contexts, {counts['maps']} maps)\n"
        )

    return _emit(doc, args.format, text)


def _structure_doc(alg, budget):
    rep = analyze_algebra(alg, budget)
    idem = [[alg.field.format(x) for x in e] for e in rep.idempotents.elements[:32]]
    return {
        "dim": alg.dim,
        "center_dim": rep.center.dim,
        "commutator_dim": rep.commutator_span.dim,
        "central_ideal_free": rep.central_ideal_free,
        "domain": rep.domain.value,
        "idempotent_count": len(rep.idempotents.elements),
        "idempotents_complete": rep.idempotents.complete,
        "idempotents": idem,
        "idempotents_truncated": len(rep.idempotents.elements) > 32,
        "generated_subalgebra_dim": rep.generated.space.dim,
        "generated_spans_algebra": rep.generated.spans(alg).value,
    }


def _cmd_analyze(args) -> int:
    ws = _load(args)
    name = _pick_context(ws, args)
    ctx = ws.context(name)
    g = ws.assembled(name)
    an = center_analysis(g)
    fr = faithfulness(ctx, args.budget)
    da, dm, dn, db = ctx.block_dims
    doc = {
        "command": "analyze",
        "source": ws.source,
        "context": name,
        "field": ctx.field.to_doc(),
        "block_dims": {"a": da, "m": dm, "n": dn, "b": db},
        "trivial_pairings": is_trivial(ctx),
        "algebras": {
            "a": _structure_doc(ctx.a, args.budget),
            "b": _structure_doc(ctx.b, args.budget),
        },
        "module_m": {
            "left_faithful": fr.left_faithful,
            "right_faithful": fr.right_faithful,
            "strongly_faithful": fr.strongly_faithful.value,
            "two_torsion_free": fr.two_torsion_free,
        },
        "center": {
            "dim": an.center.dim,
            "proj_a_dim": an.proj_a.dim,
            "proj_b_dim": an.proj_b.dim,
            "proj_a_is_center_a": an.proj_a_is_center_a,
            "proj_b_is_center_b": an.proj_b_is_center_b,
            "iso": matrix_doc(g.field, an.center_iso) if an.center_iso else None,
        },
        "spaces": {
            "derivations": derivation_space(g).dim,
            "lie_derivations": lie_derivation_space(g).dim,
            "central_maps": central_map_space(g).dim,
            "proper": proper_space(g).dim,
        },
        "lie_derivation_property": has_lie_derivation_property(g),
    }

    def text(d):
        bd = d["block_dims"]
        lines = [
            f"context {d['context']} ({d['source']}): blocks a={bd['a']} m={bd['m']} "
            f"n={bd['n']} b={bd['b']}, zero pairings: {_yn(d['trivial_pairings'])}",
        ]
        for key, label in (("a", "first diagonal"), ("b", "second diagonal")):
            s = d["algebras"][key]
            lines.append(
                f"{label}: dim {s['dim']}, center {s['center_dim']}, "
                f"commutators {s['commutator_dim']}, "
                f"central-ideal-free {_yn(s['central_ideal_free'])}, "
                f"domain {s['domain']}, idempotents {s['idempotent_count']}"
                f"{'' if s['idempotents_complete'] else ' (maybe more)'}, "
                f"commutator+idempotent subalgebra {s['generated_subalgebra_dim']} "
                f"(spans: {s['generated_spans_algebra']})"
            )
        m = d["module_m"]
        lines.append(
            f"module m: left faithful {_yn(m['left_faithful'])}, right faithful "
            f"{_yn(m['right_faithful'])}, strongly faithful {m['strongly_faithful']}, "
            f"two-torsion free {_yn(m['two_torsion_free'])}"
        )
        c = d["center"]
        iso = "exists" if c["iso"] is not None else "absent"
        lines.append(
            f"center: dim {c['dim']}; projections a={c['proj_a_dim']} "
            f"(= center: {_yn(c['proj_a_is_center_a'])}), b={c['proj_b_dim']} "
            f"(= center: {_yn(c['proj_b_is_center_b'])}); center isomorphism {iso}"
        )
        s = d["spaces"]
        lines.append(
            f"spaces: derivations {s['derivations']}, lie derivations "
            f"{s['lie_derivations']}, central maps {s['central_maps']}, "
            f"proper {s['proper']}"
        )
        lines.append(f"lie derivation property: {_yn(d['lie_derivation_property'])}")
        return "\n".join(lines) + "\n"

    return _emit(doc, args.format, text)


def _yn(flag) -> str:
    return "yes" if flag else "no"


def _cmd_proper(args) -> int:
    ws = _load(args)
    if args.map_name not in ws.maps:
        raise _UsageError(f"no map named {args.map_name!r} in {ws.source}")
    entry = ws.maps[args.map_name]
    if entry.target_kind != "context":
        raise _UsageError("the proper command needs a map on a context")
    name = getattr(args, "context", None) or entry.target
    if name != entry.target:
        raise _UsageError(
            f"map {args.map_name!r} targets context {entry.target!r}, not {name!r}"
        )
    g = ws.assembled(entry.target)
    endo = EndoMap(entry.matrix)
    split = is_proper(g, endo)
    crit = properness_criteria(g, endo)
    f = g.field
    doc = {
        "command": "proper",
        "source": ws.source,
        "context": entry.target,
        "map": args.map_name,
        "is_lie_derivation": True,
        "verdict": "proper" if split.proper else "not_proper",
        "witness": (
            {
                "derivation": matrix_doc(f, split.derivation.matrix),
                "central": matrix_doc(f, split.central.matrix),
            }
            if split.proper
            else None
        ),
        "criteria": {
            "range_a_ok": crit.range_a_ok,
            "range_a_witness": crit.range_a_witness,
            "range_b_ok": crit.range_b_ok,
            "range_b_witness": crit.range_b_witness,
            "central_pairs_ok": crit.central_pairs_ok,
            "central_pairs_witness": (
                list(crit.central_pairs_witness) if crit.central_pairs_witness else None
            ),
            "m_faithful": crit.m_faithful,
            "verdict": crit.verdict,
            "oracle_agrees": crit.oracle_agrees,
        },
    }

    def text(d):
        lines = [
            f"map {d['map']} on context {d['context']} ({d['source']})",
            "lie derivation: yes",
            f"verdict: {d['verdict'].replace('_', ' ')}",
        ]
        c = d["criteria"]
        lines.append(
            f"criteria: cross-range a {_ok(c['range_a_ok'], c['range_a_witness'])}, "
            f"cross-range b {_ok(c['range_b_ok'], c['range_b_witness'])}, "
            f"central pairs {_ok(c['central_pairs_ok'], c['central_pairs_witness'])}, "
            f"module faithful {_yn(c['m_faithful'])}"
        )
        verdict = c["verdict"] or "inconclusive (module not faithful)"
        agree = "" if c["oracle_agrees"] is None else f" (oracle agrees: {_yn(c['oracle_agrees'])})"
        lines.append(f"criteria verdict: {verdict}{agree}")
        if d["witness"]:
            lines.append("witness derivation and central part verified")
        return "\n".join(lines) + "\n"

    return _emit(doc, args.format, text)


def _ok(flag, witness) -> str:
    if flag:
        return "ok"
    return f"FAIL (at {witness})"


def _cmd_theorems(args) -> int:
    ws = _load(args)
    name = _pick_context(ws, args)
    g = ws.assembled(name)
    verdicts = all_theorem_checks(g, args.budget, args.ldp_dim_cap)
    ldp = has_lie_derivation_property(g)
    doc = {
        "command": "theorems",
        "source": ws.source,
        "context": name,
        "lie_derivation_property": ldp,
        "verdicts": [
            {
                "id": v.check_id,
                "overall": v.overall.value,
                "oracle_agrees": v.oracle_agrees,
                "hypotheses": {k: s.value for k, s in v.hypotheses},
                "extras": {k: s.value for k, s in v.extras},
            }
            for v in verdicts
        ],
    }

    def text(d):
        lines = [
            f"context {d['context']} ({d['source']}): lie derivation property "
            f"{_yn(d['lie_derivation_property'])}"
        ]
        for v in d["verdicts"]:
            agree = "" if v["oracle_agrees"] is None else f", oracle agrees: {_yn(v['oracle_agrees'])}"
            hyp = ", ".join(f"{k}={s}" for k, s in sorted(v["hypotheses"].items()))
            lines.append(f"{v['id']}: {v['overall']}{agree}")
            lines.append(f"    {hyp}")
        return "\n".join(lines) + "\n"

    code = _emit(doc, args.format, text)
    if any(v.oracle_agrees is False for v in verdicts):
        raise ConsistencyError("a checker held but the oracle found a non-proper map")
    return code


def _cmd_fuzz(args) -> int:
    if args.field.lower() == "q":
        field = QQ
    else:
        try:
            field = GF(int(args.field))
        except (ValueError, TypeError) as exc:
            raise _UsageError(f"--field must be 'q' or a prime: {exc}")
    config = FuzzConfig(
        seed=args.seed,
        count=args.count,
        field=field,
        max_dims=(args.max_dim,) * 4,
        budget=args.budget,
    )
    report = fuzz(config)
    doc = {"command": "fuzz", **report.to_doc()}

    def text(d):
        lines = [
            f"fuzz: {len(d['contexts'])} contexts over "
            f"{'QQ' if d['config']['field']['kind'] == 'Q' else 'GF(%d)' % d['config']['field']['p']} "
            f"(seed {d['config']['seed']})",
            f"soundness violations: {len(d['soundness_violations'])}",
            f"completeness gaps: {len(d['completeness_gaps'])} "
            f"(oracle holds, no checker holds)",
        ]
        return "\n".join(lines) + "\n"

    code = _emit(doc, args.format, text)
    if not report.ok:
        raise ConsistencyError(
            f"{len(report.soundness_violations)} fuzz soundness violation(s)"
        )
    return code


def _cmd_examples(args) -> int:
    if args.name is None:
        doc = {"command": "examples", "names": list(EXAMPLE_NAMES)}

        def text(d):
            return "\n".join(d["names"]) + "\n"

        return _emit(doc, args.format, text)
    if args.name not in EXAMPLE_NAMES:
        raise _UsageError(f"no bundled example named {args.name!r}")
    sys.stdout.write(render_json(build_document(args.name)))
    return 0


_COMMANDS = {
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
    "proper": _cmd_proper,
    "theorems": _cmd_theorems,
    "fuzz": _cmd_fuzz,
    "examples": _cmd_examples,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        for name in ("budget", "ldp_dim_cap"):
            value = getattr(args, name, 0)
            if value < 0:
                flag = "--" + name.replace("_", "-")
                raise PreconditionError(f"{flag} must be non-negative, got {value}")
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        for v in getattr(exc, "violations", ())[:8]:
            print(f"  {v}", file=sys.stderr)
        return VALIDATION_EXIT
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return CONSISTENCY_EXIT
    except PreconditionError as exc:
        print(f"precondition failure: {exc}", file=sys.stderr)
        return VALIDATION_EXIT
    except WorkbenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return VALIDATION_EXIT


if __name__ == "__main__":
    sys.exit(main())
