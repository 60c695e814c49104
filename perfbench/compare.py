"""Summarise benchmark runs, or compare two sets of them.

    python3 perfbench/compare.py RUNS.txt            # spreads of one set
    python3 perfbench/compare.py BASE.txt HEAD.txt   # HEAD against BASE

Each file holds the standard output of one or more ``run.py`` runs,
concatenated.  For every workload and end-to-end metric it prints the
median and the quartile spread ((q3 - q1) / median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound from ``BENCHMARK.json``; with two sets it prints how far HEAD's
median moved from BASE's, in the "worse" direction, against that bound.
Runs whose environment fingerprints differ (kernel backend,
``GMALIE_PURE``, Python version, CPU count, or a 1-minute load average
that differs by more than one) are flagged, because their figures are not
comparable.  Traced runs (``--trace 1``) are summarised the same way over
their per-layer metrics, without bounds.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IDENTITY = ("kernel_backend", "GMALIE_PURE", "python", "nproc")
LOAD_TOLERANCE = 1.0


def load_runs(path):
    """(detail, result) pairs in file order."""
    runs = []
    detail = None
    for line in Path(path).read_text().splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "detail" in obj:
            detail = obj["detail"]
        elif "metrics" in obj and detail is not None:
            runs.append((detail, obj))
            detail = None
    return runs


def _group(runs):
    groups = defaultdict(list)
    for detail, result in runs:
        groups[(detail["workload"], detail["trace"])].append((detail, result))
    return groups


def _stats(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else None


def fingerprint_issues(runs):
    """Describe every way the runs' fingerprints differ from the first's."""
    if not runs:
        return []
    first = runs[0][0]["fingerprint"]
    issues = set()
    for detail, _ in runs[1:]:
        fp = detail["fingerprint"]
        for key in IDENTITY:
            if fp.get(key) != first.get(key):
                issues.add(f"{key}: {first.get(key)!r} vs {fp.get(key)!r}")
        if abs(fp["loadavg"][0] - first["loadavg"][0]) > LOAD_TOLERANCE:
            issues.add(f"1-minute load average differs by more than {LOAD_TOLERANCE}")
    return sorted(issues)


def _specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def summarise(runs, specs):
    for (workload, trace), group in sorted(_group(runs).items()):
        failed = sum(r["failed"] for _, r in group)
        attempted = sum(r["attempted"] for _, r in group)
        correct = all(r["correct"] for _, r in group)
        print(f"{workload} trace={trace}: {len(group)} runs, {failed}/{attempted} ops failed, "
              f"correct={correct}")
        for name in group[0][1]["metrics"]:
            values = [r["metrics"][name]["value"] for _, r in group]
            med, spread = _stats(values)
            bound = specs.get(name, {}).get("bound")
            verdict = ""
            if bound is not None and spread is not None:
                verdict = "TOO WIDE" if spread > bound else "within bound"
                verdict = "ok" if spread <= bound / 3 else verdict
            spread_txt = "n/a" if spread is None else f"{spread:.3f}"
            bound_txt = "" if bound is None else f" bound {bound}"
            print(f"  {name:<44} median {med:<14.6g} spread {spread_txt}{bound_txt} {verdict}")


def compare(base, head, specs):
    base_groups, head_groups = _group(base), _group(head)
    issues = fingerprint_issues(base + head)
    for issue in issues:
        print(f"FINGERPRINTS DIFFER: {issue}")
    regressions = 0
    for key in sorted(set(base_groups) & set(head_groups)):
        workload, trace = key
        print(f"{workload} trace={trace}: {len(base_groups[key])} base runs, "
              f"{len(head_groups[key])} head runs")
        for name in head_groups[key][0][1]["metrics"]:
            b = [r["metrics"][name]["value"] for _, r in base_groups[key] if name in r["metrics"]]
            h = [r["metrics"][name]["value"] for _, r in head_groups[key]]
            if not b:
                continue
            bm, hm = statistics.median(b), statistics.median(h)
            spec = specs.get(name, {})
            sign = 1 if spec.get("better", "lower") == "lower" else -1
            worse = sign * (hm - bm) / bm if bm else 0.0
            bound = spec.get("bound")
            verdict = ""
            if bound is not None:
                verdict = "REGRESSION" if worse > bound else "ok"
                regressions += worse > bound
            print(f"  {name:<44} base {bm:<12.6g} head {hm:<12.6g} worse by {worse:+.3f} {verdict}")
    return 1 if regressions or issues else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    specs = _specs()
    runs = [load_runs(p) for p in argv]
    if len(runs) == 1:
        for issue in fingerprint_issues(runs[0]):
            print(f"FINGERPRINTS DIFFER: {issue}")
        summarise(runs[0], specs)
        return 0
    return compare(runs[0], runs[1], specs)


if __name__ == "__main__":
    sys.exit(main())
