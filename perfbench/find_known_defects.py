#!/usr/bin/env python3
"""Writes perfbench/known_defects.json: the entries of the design model pool
that fail a design check on the library as it stands.  The workloads leave
these entries out, so that every run reads correct; the known-defect probe
of every run evaluates them again and reports how many still fail.

Run from the root of a source checkout, after a change to the library, the
model pool or the checks (takes a few minutes):

    python3 perfbench/find_known_defects.py
"""
import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
for name in run.BLAS_ENV:   # as in a benchmark run
    os.environ[name] = "1"

import checks  # noqa: E402
import inputs  # noqa: E402
import phases  # noqa: E402
import spans  # noqa: E402


def pool_targets() -> list:
    """Every (kind, agent count) any workload draws pool models for."""
    targets = set()
    for size in ("full", "smoke"):
        for count, kinds, agent_range in (
                (run.DESIGN_ITEMS[size], inputs.MODEL_KINDS, inputs.MODEL_AGENTS),
                (run.COMPANION_ITEMS[size], inputs.COMPANION_KINDS, inputs.COMPANION_AGENTS)):
            per_kind = inputs.kinds_per_model_count(count // inputs.MODEL_EVERY, kinds)
            for kind, count_k in per_kind.items():
                targets.update((kind, n) for n in inputs.agent_targets(count_k, agent_range).tolist())
    return sorted(targets)


def main() -> int:
    L = spans.bind_layers(spans.Tracer(False))
    entries = []
    for kind, n in pool_targets():
        for j in range(inputs.POOL_DEPTH):
            model = inputs.pool_model(kind, n, j)
            bad = checks.check_design_record(phases._design_one(L, ("model", model)))
            if bad:
                entries.append({"kind": kind, "n": n, "j": j, "model": model.to_dict(),
                                "reason": bad[0]})
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), inputs.KNOWN_DEFECTS_FILE)
    with open(path, "w") as fh:
        json.dump({"pool_entries": entries}, fh, indent=1)
        fh.write("\n")
    print(f"{len(entries)} pool entries fail a design check; written to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
