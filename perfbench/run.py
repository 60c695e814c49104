"""End-to-end and per-layer benchmark of gmalie.

    python3 perfbench/run.py --workload {oracle,fuzz,cli} --seed N \
        --seconds S --trace {0,1}

Load is a closed loop with one client: this process runs one operation
("op") at a time, each in a child forked after ``import gmalie`` and input
generation have finished, so every op starts with the library's caches as
cold as a fresh process has them, while set-up and fork costs stay outside
the op timing.  A run executes whole cycles of its workload (see
``workloads.build``), so every run of a workload times the same mix of ops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
ops three times -- untraced, with spans at every layer boundary, and with
the hot per-scalar methods counted -- and reports the per-layer metrics,
plus the tracing overhead and a raw elimination-kernel probe.

Output: one line per metric with its unit, a ``{"detail": ...}`` JSON line
(per-case times, environment fingerprint, every per-layer figure), and as
the last line the result object ``{"correct", "attempted", "failed",
"metrics"}``.  Metric names and units are those declared in
``BENCHMARK.json``.  The process exits with code 2, printing no result,
when the library source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import random
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Seconds one cycle of each workload takes at the seed commit (pure-Python
# kernel, 2-vCPU x86-64 VM).  A run executes round(seconds / cycle) whole
# cycles, a traced run half as many per pass: a fixed op count per run keeps
# the tail percentile at the same rank on every run and every commit.
CYCLE_S = {"oracle": 12.0, "fuzz": 5.0, "cli": 1.6}
# The fuzz tail falls among its four QQ kinds: with six runs of each, the
# ten ops beyond it are the two dearest kinds' runs, whose cost strata are
# narrower than the cheaper ones'.
MIN_CYCLES = {"fuzz": 6}
SETUP_PROBES = 2  # before the first op; one more follows every cycle
TAIL_BEYOND = 10
OP_TIMEOUT_S = 150
RUN_BUDGET_S = 150
RAW_KERNEL_CASES = ((324, 81, 3, 0.05), (729, 81, 3, 0.5), (450, 100, 5, 0.5), (1000, 144, 97, 0.5))
RAW_KERNEL_REPEATS = 3


def _read_all(fd) -> bytes:
    chunks = []
    while True:
        chunk = os.read(fd, 1 << 20)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks)


def _in_child(body):
    """Fork; the child runs ``body(write_fd)`` and exits.  Returns the bytes
    the child wrote, its wait status and its peak RSS in KiB."""
    sys.stdout.flush()
    sys.stderr.flush()
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            body(w)
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(w)
    data = _read_all(r)
    _, status, usage = os.wait4(pid, 0)
    return data, status, usage.ru_maxrss


def _write(fd, payload: bytes):
    with os.fdopen(fd, "wb") as f:
        f.write(payload)


# -- set-up --------------------------------------------------------------------------


class SetupProbe:
    """Times set-up -- ``import gmalie`` plus input generation -- in fresh
    processes, at any point of a run.

    A server process is forked before this process imports gmalie; for each
    sample it forks a child that imports and generates from scratch.  Samples
    taken between cycles spread set-up measurement over the whole run, so a
    moment of machine noise moves one sample, not the median.
    """

    def __init__(self, workload, seed):
        req_r, self._req = os.pipe()
        self._res, res_w = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        self._pid = os.fork()
        if self._pid == 0:
            code = 1
            try:
                os.close(self._req)
                os.close(self._res)
                while os.read(req_r, 1):
                    os.write(res_w, self._sample(workload, seed) + b"\n")
                code = 0
            except BaseException:
                traceback.print_exc()
            finally:
                sys.stderr.flush()
                os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self._replies = os.fdopen(self._res, "rb")

    @staticmethod
    def _sample(workload, seed) -> bytes:
        def body(fd):
            start = time.perf_counter()
            import workloads

            workloads.build(workload, seed)
            _write(fd, repr(time.perf_counter() - start).encode())

        data, status, _ = _in_child(body)
        return data if status == 0 and data else b"nan"

    def sample(self) -> float:
        os.write(self._req, b"s")
        value = float(self._replies.readline() or "nan")
        if value != value:
            raise RuntimeError("set-up probe failed")
        return value

    def close(self):
        os.close(self._req)
        self._replies.close()
        os.waitpid(self._pid, 0)


# -- ops -------------------------------------------------------------------------------


@dataclass
class Record:
    """One op run: its time (None if the child died), whether its output
    was right, and the child's peak RSS."""

    op: object
    elapsed: float | None
    ok: bool
    rss_kb: int
    error: str | None


def _run_op(op, mode):
    def body(fd):
        signal.alarm(OP_TIMEOUT_S)
        rec = tracer.RECORDER
        rec.reset()
        if mode == "spans":
            rec.open_root()
        error = None
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # an op that raises is a counted failure
            error = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
        if mode == "spans":
            rec.close_root(start, end)
        summary = None
        if error is None:
            summary = op.summarize(out)
        payload = {
            "elapsed": end - start,
            "error": error,
            "summary": summary,
            "spans": rec.spans,
            "counts": dict(rec.counts),
        }
        _write(fd, pickle.dumps(payload))

    data, status, rss_kb = _in_child(body)
    if status != 0 or not data:
        return Record(op, None, False, rss_kb, f"child exited with status {status}"), None
    result = pickle.loads(data)  # written by our own child above
    error = result["error"]
    if error is None and result["summary"] != op.expect:
        error = f"wrong output {result['summary']!r}, expected {op.expect!r}"
    return Record(op, result["elapsed"], error is None, rss_kb, error), result


def _run_pass(plan, mode, deadline, after_cycle=None):
    """Run every op of ``plan`` (a list of cycles) under trace ``mode``."""
    records = []
    stats = tracer.LayerStats()
    restore = tracer.install(mode) if mode else []
    try:
        for cycle in plan:
            for op in cycle:
                if time.monotonic() > deadline:
                    return records, stats, True
                record, result = _run_op(op, mode)
                records.append(record)
                if result is not None and mode == "spans":
                    stats.add_spans(result["spans"])
                elif result is not None and mode == "count":
                    stats.add_counts(result["counts"])
            if after_cycle is not None:
                after_cycle()
    finally:
        tracer.uninstall(restore)
    return records, stats, False


# -- metrics ---------------------------------------------------------------------------


def _tail(times):
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(times)
    ordered = sorted(times)
    idx = max(0, n - TAIL_BEYOND - 1)
    return ordered[idx], 100.0 * (idx + 1) / n, n - idx - 1


def _runs_by_kind(records):
    kinds = {}
    for r in records:
        if r.elapsed is not None:
            kinds.setdefault(r.op.name, []).append(r.elapsed)
    return kinds


def _fastest(records):
    """A record's latency taken as its kind's fastest run.  Every kind runs
    once per cycle, and the shared host slows the whole VM in bursts lasting
    seconds to minutes, so the fastest run is the least disturbed one."""
    best = {name: min(ts) for name, ts in _runs_by_kind(records).items()}
    return lambda r: best[r.op.name]


def _items_per_s(records, latency):
    busy = sum(latency(r) for r in records if r.elapsed is not None)
    items = sum(r.op.items for r in records if r.ok)
    return items / busy if busy > 0 else 0.0


def _end_to_end(records, setup_samples):
    """The end-to-end metrics, each op timed as its kind's fastest run; the
    same figures over every run's own time go to the detail."""
    fastest = _fastest(records)
    times = [fastest(r) for r in records if r.elapsed is not None] or [0.0]
    every = [r.elapsed for r in records if r.elapsed is not None] or [0.0]
    tail, pct, beyond = _tail(times)
    metrics = {
        "items_per_s": _items_per_s(records, fastest),
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": tail * 1e3,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(r.rss_kb for r in records) / 1024.0,
    }
    info = {
        "op_tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(times)},
        "every_run": {
            "items_per_s": _items_per_s(records, lambda r: r.elapsed),
            "op_p50_ms": statistics.median(every) * 1e3,
            "op_tail_ms": _tail(every)[0] * 1e3,
        },
    }
    return metrics, info


def _per_kind(records):
    return {
        name: {
            "runs": len(ts),
            "fastest_ms": min(ts) * 1e3,
            "median_ms": statistics.median(ts) * 1e3,
        }
        for name, ts in sorted(_runs_by_kind(records).items())
    }


def _raw_kernel_probe(seed):
    """cells/s of the GF(p) elimination kernel alone on four random systems."""

    def body(fd):
        import gmalie._kernel

        rng = random.Random(f"kernel:{seed}")
        cases = []
        for rows, cols, p, density in RAW_KERNEL_CASES:
            data = [
                [rng.randrange(p) if rng.random() < density else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            runs = []
            for _ in range(RAW_KERNEL_REPEATS):
                start = time.perf_counter()
                gmalie._kernel.rref_mod_p(data, p)
                runs.append(time.perf_counter() - start)
            cases.append((f"{rows}x{cols}_p{p}_d{density}", rows * cols, statistics.median(runs)))
        _write(fd, json.dumps(cases).encode())

    data, status, _ = _in_child(body)
    if status != 0 or not data:
        raise RuntimeError("raw kernel probe failed")
    cases = json.loads(data)
    cells = sum(c for _, c, _ in cases)
    seconds = sum(t for _, _, t in cases)
    per_case = {name: {"cells": c, "ms": t * 1e3, "cells_per_s": c / t} for name, c, t in cases}
    return cells / seconds, per_case


def _fingerprint():
    import gmalie

    backend = getattr(gmalie, "kernel_backend", None)
    return {
        "kernel_backend": backend() if backend else "n/a",
        "GMALIE_PURE": os.environ.get("GMALIE_PURE", ""),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def _print_metric(name, value, unit, note=""):
    print(f"  {name:<44} {value:>16.6g} {unit}{note}")


# -- main --------------------------------------------------------------------------------


def _untraced_run(args, plan, probe, setup_samples, deadline, detail):
    """End-to-end metrics; one set-up sample is taken after every cycle."""

    def sample_setup():
        setup_samples.append(probe.sample())

    records, _, truncated = _run_pass(plan, None, deadline, sample_setup)
    metrics, info = _end_to_end(records, setup_samples)
    detail.update(info, cycles=len(plan), cases=_per_kind(records))
    per_cycle = len(plan[0])
    detail["cycle_busy_s"] = [
        sum(r.elapsed or 0.0 for r in records[i : i + per_cycle])
        for i in range(0, len(records), per_cycle)
    ]
    if args.workload == "oracle":
        import workloads

        detail["baseline_ms"] = {
            name: detail["cases"][name]["fastest_ms"]
            for name in workloads.BASELINE_CASES
            if name in detail["cases"]
        }
    tail = info["op_tail"]
    notes = {
        "op_tail_ms": f" (p{tail['percentile']:.1f}, {tail['samples_beyond']} of "
        f"{tail['samples']} ops beyond)"
    }
    return metrics, notes, records, truncated


def _traced_run(args, plan, deadline, detail):
    """Per-layer metrics from three passes over the same ops: untraced,
    spans, and counts of the hot methods."""
    trace_plan = plan[: max(1, len(plan) // 2)]
    untraced, _, t1 = _run_pass(trace_plan, None, deadline)
    spanned, stats, t2 = _run_pass(trace_plan, "spans", deadline)
    counted, count_stats, t3 = _run_pass(trace_plan, "count", deadline)
    table = stats.table()
    table.update(count_stats.counts)
    items = sum(r.op.items for r in spanned if r.ok) or 1
    table["gma.center_analysis.calls_per_item"] = table["gma.center_analysis.calls"] / items
    fast = _items_per_s(untraced, _fastest(untraced))
    traced = _items_per_s(spanned, _fastest(spanned))
    table["trace.items_per_s.untraced"] = fast
    table["trace.items_per_s.traced"] = traced
    table["trace.overhead_pct"] = (fast / traced - 1.0) * 100.0 if traced else 0.0
    table["kernel.raw.cells_per_s"], detail["kernel_raw"] = _raw_kernel_probe(args.seed)
    detail.update(cycles=len(trace_plan), layers=table)
    return table, {}, untraced + spanned + counted, t1 or t2 or t3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "fuzz", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gmalie" / "__init__.py").is_file():
        print(f"library source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = spec["per_layer"] if args.trace else spec["end_to_end"]
    started = time.monotonic()
    cycles = round(args.seconds / CYCLE_S[args.workload])
    cycles = max(MIN_CYCLES.get(args.workload, 1), cycles)

    probe = SetupProbe(args.workload, args.seed) if args.trace == 0 else None
    try:
        setup_samples = [probe.sample() for _ in range(SETUP_PROBES)] if probe else []
        start = time.perf_counter()
        import workloads

        ops = workloads.build(args.workload, args.seed)
        setup_samples.append(time.perf_counter() - start)
        order = random.Random(f"order:{args.seed}")
        plan = [order.sample(ops, len(ops)) for _ in range(cycles)]
        fingerprint = _fingerprint()
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"backend={fingerprint['kernel_backend']}")
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "fingerprint": fingerprint,
            "setup_samples_s": setup_samples,
        }
        deadline = started + RUN_BUDGET_S
        if args.trace:
            metrics, notes, records, truncated = _traced_run(args, plan, deadline, detail)
        else:
            metrics, notes, records, truncated = _untraced_run(
                args, plan, probe, setup_samples, deadline, detail
            )
    finally:
        if probe is not None:
            probe.close()

    attempted = len(records)
    failed = sum(not r.ok for r in records)
    failures = [f"{r.op.name}: {r.error}" for r in records if not r.ok]
    failed_ratio = failed / max(1, attempted)
    detail.update(truncated=truncated, failed_ratio=failed_ratio, failures=failures[:10])
    out = {}
    for m in specs:
        name = m["name"]
        out[name] = {"value": metrics[name], "unit": m["unit"]}
        _print_metric(name, metrics[name], m["unit"], notes.get(name, ""))
    _print_metric("failed_ratio", failed_ratio, "ratio", f" ({failed} of {attempted} ops)")
    for line in failures[:10]:
        print(f"  FAILED {line}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    result = {
        "correct": failed == 0 and not truncated,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
