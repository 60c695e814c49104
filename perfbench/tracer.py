"""Outside-in tracing of gmalie's layer boundaries.

Nothing in the library is edited.  ``install`` rebinds each boundary
function at every place it is reachable by name -- its defining module and
every ``gmalie`` module (the package included) that imported it -- to a
wrapper that records a span; ``uninstall`` puts the originals back.  The
hot per-scalar methods (``Field.of``, ``Matrix.__init__``) run millions of
times per operation, so they are only counted, in a separate pass, to keep
their wrapper cost out of the span pass's self times.

Spans live in memory in the process running one operation: one list per
operation, each span ``[function_id, parent_index, start, end, rows, cols,
prime]`` (the last three are set for eliminations only).  A parent always
precedes its children in the list, because a span is appended when its call
starts.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# layer -> boundary functions as "module:qualname" inside the gmalie package
LAYERS = {
    "elimination": ("linalg:_echelon", "_kernel:rref_mod_p"),
    "oracle": (
        "spaces:derivation_space",
        "spaces:lie_derivation_space",
        "spaces:central_map_space",
        "spaces:proper_space",
        "spaces:has_lie_derivation_property",
    ),
    "per_map": (
        "spaces:is_proper",
        "spaces:lie_defect",
        "spaces:derivation_defect",
        "spaces:is_central_commutator_free",
        "presentation:extract_lie",
        "presentation:check_lie_parts",
        "presentation:properness_criteria",
    ),
    "structure": (
        "algebra:center",
        "algebra:commutator_span",
        "algebra:commutation_operator",
        "algebra:central_ideal_free",
        "algebra:domain_scan",
        "algebra:enumerate_idempotents",
        "algebra:subalgebra_closure",
        "algebra:analyze_algebra",
    ),
    "assembly": ("gma:assemble", "gma:peirce", "gma:center_analysis"),
    "contexts": (
        "morita:validate_context",
        "morita:validate_bimodule",
        "morita:strongly_faithful",
        "morita:left_action_kernel",
        "morita:right_action_kernel",
        "morita:faithfulness",
    ),
    "theorems": (
        "theorems:all_theorem_checks",
        "theorems:check_central_ideal",
        "theorems:check_domains",
        "theorems:check_strong_faithfulness",
        "theorems:check_combined",
        "theorems:check_trivial",
    ),
    "fuzzing": ("fuzzing:generate_contexts",),
    "io": ("workspace:parse_workspace", "workspace:render_json", "catalog:build_document"),
}
HOT = ("fields:Field.of", "linalg:Matrix.__init__")
ECHELON = "linalg:_echelon"
ORACLE_LAYER = "oracle"


def metric_name(target: str) -> str:
    """``"_kernel:rref_mod_p"`` -> ``"kernel.rref_mod_p"``: metric names
    may not start with an underscore, so leading ones are dropped."""
    module, qualname = target.split(":")
    parts = [module] + qualname.split(".")
    return ".".join(p if p.startswith("__") else p.lstrip("_") for p in parts)


SPAN_TARGETS = tuple(t for targets in LAYERS.values() for t in targets)
NAMES = tuple(metric_name(t) for t in SPAN_TARGETS)
LAYER_OF = tuple(layer for layer, targets in LAYERS.items() for _ in targets)
ECHELON_ID = SPAN_TARGETS.index(ECHELON)
ROOT_ID = -1


class Recorder:
    """Per-operation span list and counters; reset at the start of each op."""

    def __init__(self):
        self.spans = []
        self.stack = [ROOT_ID]
        self.counts = defaultdict(int)

    def reset(self):
        # cleared in place: the count wrappers hold on to ``counts``
        self.spans.clear()
        self.stack[:] = [ROOT_ID]
        self.counts.clear()

    def open_root(self):
        self.spans.append([ROOT_ID, ROOT_ID, 0.0, 0.0, 0, 0, False])
        self.stack[:] = [ROOT_ID, 0]

    def close_root(self, start, end):
        self.spans[0][2] = start
        self.spans[0][3] = end


RECORDER = Recorder()


def _span_wrapper(fid, fn):
    rec = RECORDER
    clock = time.perf_counter

    def traced(*args, **kwargs):
        spans = rec.spans
        stack = rec.stack
        span = [fid, stack[-1], 0.0, 0.0, 0, 0, False]
        stack.append(len(spans))
        spans.append(span)
        span[2] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = clock()
            stack.pop()

    return traced


def _echelon_span_wrapper(fid, fn):
    rec = RECORDER
    clock = time.perf_counter

    def traced(field, data):
        spans = rec.spans
        stack = rec.stack
        rows = len(data)
        span = [fid, stack[-1], 0.0, 0.0, rows, len(data[0]) if rows else 0, field.is_prime_field]
        stack.append(len(spans))
        spans.append(span)
        span[2] = clock()
        try:
            return fn(field, data)
        finally:
            span[3] = clock()
            stack.pop()

    return traced


def _count_wrapper(name, fn):
    counts = RECORDER.counts

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _echelon_count_wrapper(fn):
    counts = RECORDER.counts

    def counted(field, data):
        counts["linalg.echelon.nnz"] += sum(1 for row in data for x in row if x)
        return fn(field, data)

    return counted


def _gmalie_modules():
    return [m for n, m in list(sys.modules.items()) if n == "gmalie" or n.startswith("gmalie.")]


def _rebind(target, make, restore):
    module_name, qualname = target.split(":")
    owner = importlib.import_module(f"gmalie.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(owner, cls_name)
        orig = cls.__dict__[attr]
        setattr(cls, attr, make(orig))
        restore.append((cls, attr, orig))
        return
    orig = getattr(owner, qualname)
    wrapper = make(orig)
    for module in _gmalie_modules():
        for key, value in list(vars(module).items()):
            if value is orig:
                setattr(module, key, wrapper)
                restore.append((module, key, orig))


def install(mode: str) -> list:
    """Wrap the boundaries for ``mode`` ("spans" or "count"); returns the
    bindings to hand back to :func:`uninstall`."""
    restore = []
    if mode == "spans":
        for fid, target in enumerate(SPAN_TARGETS):
            factory = _echelon_span_wrapper if target == ECHELON else _span_wrapper
            _rebind(target, lambda fn, fid=fid, factory=factory: factory(fid, fn), restore)
    elif mode == "count":
        for target in HOT:
            name = metric_name(target) + ".calls"
            _rebind(target, lambda fn, name=name: _count_wrapper(name, fn), restore)
        _rebind(ECHELON, _echelon_count_wrapper, restore)
    else:
        raise ValueError(f"unknown trace mode {mode!r}")
    return restore


def uninstall(restore: list) -> None:
    for owner, key, orig in reversed(restore):
        setattr(owner, key, orig)


# -- aggregation ------------------------------------------------------------------


class LayerStats:
    """Per-layer metrics summed over the ops of one pass."""

    def __init__(self):
        self.calls = [0] * len(NAMES)
        self.busy = [0.0] * len(NAMES)
        self.self_time = [0.0] * len(NAMES)
        self.layer_busy = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.op_busy = 0.0
        self.cells = 0
        self.gfp_busy = 0.0
        self.qq_busy = 0.0
        self.oracle_calls = 0
        self.oracle_built = 0
        self.counts = defaultdict(int)

    def add_spans(self, spans):
        """Fold one operation's spans (root first) into the totals."""
        n = len(spans)
        dur = [s[3] - s[2] for s in spans]
        child = [0.0] * n
        eliminated = [False] * n
        for i in range(n - 1, 0, -1):
            s = spans[i]
            parent = s[1]
            child[parent] += dur[i]
            if eliminated[i] or s[0] == ECHELON_ID:
                eliminated[parent] = True
        self.op_busy += dur[0]
        for i in range(1, n):
            s = spans[i]
            fid = s[0]
            own = dur[i] - child[i]
            layer = LAYER_OF[fid]
            self.calls[fid] += 1
            self.self_time[fid] += own
            self.layer_self[layer] += own
            same_fn = same_layer = False
            parent = s[1]
            while parent > 0:
                pfid = spans[parent][0]
                same_fn = same_fn or pfid == fid
                same_layer = same_layer or LAYER_OF[pfid] == layer
                parent = spans[parent][1]
            if not same_fn:
                self.busy[fid] += dur[i]
            if not same_layer:
                self.layer_busy[layer] += dur[i]
            if fid == ECHELON_ID:
                self.cells += s[4] * s[5]
                if s[6]:
                    self.gfp_busy += dur[i]
                else:
                    self.qq_busy += dur[i]
            if layer == ORACLE_LAYER:
                self.oracle_calls += 1
                self.oracle_built += eliminated[i]

    def add_counts(self, counts):
        for key, value in counts.items():
            self.counts[key] += value

    def table(self) -> dict:
        """Every per-function and per-layer figure, by metric name."""
        out = {}
        for fid, name in enumerate(NAMES):
            out[f"{name}.calls"] = self.calls[fid]
            out[f"{name}.busy_s"] = self.busy[fid]
            out[f"{name}.self_s"] = self.self_time[fid]
        busy = self.op_busy or 1.0
        for layer in LAYERS:
            out[f"layer.{layer}.busy_s"] = self.layer_busy[layer]
            out[f"layer.{layer}.self_s"] = self.layer_self[layer]
            out[f"layer.{layer}.busy_share"] = self.layer_busy[layer] / busy
        out["linalg.echelon.cells"] = self.cells
        out["linalg.echelon.gfp.busy_s"] = self.gfp_busy
        out["linalg.echelon.qq.busy_s"] = self.qq_busy
        out["spaces.oracle.self_s"] = self.layer_self[ORACLE_LAYER]
        out["spaces.oracle.self_share"] = self.layer_self[ORACLE_LAYER] / busy
        out["spaces.oracle.build_ratio"] = self.oracle_built / max(1, self.oracle_calls)
        out["op.busy_s"] = self.op_busy
        out.update(self.counts)
        return out
