"""Record the reference outputs the benchmark checks against.

Writes ``perfbench/expected.json``: space dimensions of the oracle cases
without a closed-form invariant, the report digest of every fuzz
configuration in the pool with the pool's seeds ordered by the work their
op does from cold caches (the strata ``workloads.build`` samples from), and the exit code,
stdout digest and verdict of every CLI command.  Record it once, from a
commit whose outputs are trusted; the oracle cases that have invariants are
checked against them here too.

Run from the repository root: python3 perfbench/record_expected.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402  (needs the src path above)

COST = "fields.Field.of.calls"


def _cold_fuzz(key, seed):
    """Summary of one fuzz op run with cold caches, in a child, and its
    count of scalar canonicalizations: a measure of the op's work that,
    unlike its run time on a shared host, is the same on every run."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            tracer.install("count")
            report = workloads.gmalie.fuzzing.fuzz(workloads.fuzz_config(key, seed))
            with os.fdopen(w, "w") as f:
                json.dump([workloads.fuzz_summary(report), tracer.RECORDER.counts[COST]], f)
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    with os.fdopen(r) as f:
        data = f.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise SystemExit(f"fuzz field {key} seed {seed}: child failed")
    return json.loads(data)


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    doc = {"oracle": {}, "fuzz": {}, "fuzz_by_cost": {}, "cli": {}}
    # fuzz first: its children must fork from a process with cold caches
    for key in workloads.FUZZ_FIELDS:
        digests, costs = {}, {}
        for seed in workloads.FUZZ_POOL:
            summary, costs[seed] = _cold_fuzz(key, seed)
            if summary["violations"]:
                raise SystemExit(f"fuzz field {key} seed {seed}: soundness violation")
            digests[str(seed)] = summary["sha256"]
        doc["fuzz"][str(key)] = digests
        doc["fuzz_by_cost"][str(key)] = sorted(costs, key=costs.get)
    for name, field, tensor, unit, inv, _ in workloads.oracle_cases():
        dims = list(workloads.oracle_op(field, tensor, unit))
        if inv is not None and dims != list(inv):
            raise SystemExit(f"{name}: dims {dims} contradict the invariants {list(inv)}")
        if inv is None:
            doc["oracle"][name] = dims
    for argv in workloads.cli_commands():
        summary = workloads.cli_summary(workloads.cli_run(argv))
        if summary["exit"] != 0:
            raise SystemExit(f"{' '.join(argv)}: exit code {summary['exit']}")
        if argv[0] == "proper" and summary["verdict"] != "not_proper":
            raise SystemExit(f"{' '.join(argv)}: verdict {summary['verdict']}, expected not_proper")
        doc["cli"][" ".join(argv)] = summary
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
