#!/usr/bin/env python3
"""peerpredict benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload design --seed 1 --seconds 30 --trace 0

Workloads: design, scale, cli (see perfbench/README.md).  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.  The
line before it records the machine.  Spans of a traced run and a full record
of every run are written under .perfbench_out/ in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

from spans import LAYER_FUNCTIONS, Tracer, bind_layers, summarize

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("design", "scale", "cli")
SETUP_REPS = 5          # set-up is repeated and its median reported
MIN_ITERATIONS = 2      # executions of every phase per run, at least
# seconds between two runs of a phase as a companion: the cheap in-process
# phases often, the CLI pass (~2.5 s of subprocesses) less often
COMPANION_EVERY_S = {"design": 2.0, "scale": 2.0, "cli": 4.0}
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Items in the design workload's own prior set, and in the companion set the
# other workloads run.  The companion has uniform and discrete models only,
# kept small (inputs.COMPANION_AGENTS), so that its percentiles rest on many
# priors.  Every workload runs the known-defect probe after its timed region.
DESIGN_ITEMS = {"full": 1152, "smoke": 24}
COMPANION_ITEMS = {"full": 128, "smoke": 16}
DEFECT_PROBE_MODELS = {"full": 48, "smoke": 4}   # as many as the design set's beta models

END_TO_END = {
    "setup_s": "s", "ok_ratio": "ratio", "peak_rss_mib": "MiB",
    "design_per_s": "1/s", "design_ms_p50": "ms", "design_ms_p99": "ms",
    "mc_payments_per_s": "1/s", "pay_payments_per_s": "1/s", "scan_s": "s",
    "cli_ms_p50": "ms", "cli_ms_p90": "ms",
}
LAYER_SPANS = tuple(span for span, _ in LAYER_FUNCTIONS.values())
COMPUTED = {
    "mechanism.quadrature_node_products": "count.computed",
    "verify.monte_carlo.blocks": "count.computed",
    "verify.monte_carlo.block_bytes_computed": "B.computed",
    "verify.grid_cells_scanned": "count.computed",
}
DEFECT_PROBE = {
    "known_defect.beta_quadrature.models_off": "count.computed",
    "known_defect.beta_quadrature.max_rel_err": "ratio",
    "known_defect.pool_entries.models_off": "count.computed",
}
CLI_VERBS = ("analyze", "equilibria", "design", "gap", "verify", "plot", "simulate", "min-agents")


def per_layer_units() -> dict:
    units = {}
    for name in LAYER_SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_ms"] = "ms"
    units.update(COMPUTED)
    units.update(DEFECT_PROBE)
    units["bench.design.self_ms"] = "ms"
    units["cli.import_ms"] = "ms"
    for verb in CLI_VERBS:
        units[f"cli.{verb}.ms"] = "ms"
        units[f"cli.main.{verb}.inproc_ms"] = "ms"
    units["trace.overhead_ratio"] = "ratio"
    return units


@dataclass
class Context:
    root: str
    env: dict


def machine_record() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
            "peerpredict_threads": os.environ.get("PEERPREDICT_THREADS")}


def build_inputs(workload: str, seed: int, size: str) -> dict:
    import numpy as np
    import inputs

    rng = np.random.default_rng(seed)
    if workload == "design":
        design = inputs.design_items(rng, DESIGN_ITEMS[size])
    else:
        design = inputs.design_items(rng, COMPANION_ITEMS[size], inputs.COMPANION_KINDS,
                                     inputs.COMPANION_AGENTS)
    scale_size = "smoke" if size == "smoke" else ("full" if workload == "scale" else "light")
    return {
        "design": design,
        "scale": inputs.scale_inputs(rng, scale_size),
        "cli": inputs.cli_inputs(rng, size),
        "defect_probe": inputs.defect_probe_models(rng, DEFECT_PROBE_MODELS[size]),
    }


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


class Runner:
    """Executes phases and keeps what the checks need: the outputs of each
    phase's first execution, and for every repeat whether it reproduced them
    (its outputs are then dropped, so memory does not grow with the run)."""

    def __init__(self, ctx, inp):
        self.ctx = ctx
        self.inp = inp
        self.runs = {"design": [], "scale": [], "cli": [], "cli_inproc": []}
        self._count = 0

    def phase(self, name: str, L, tracer, tick=None):
        import checks
        import phases
        tag = f"{name}:{self._count}"
        self._count += 1
        if name == "design":
            run = phases.run_design(L, tracer, self.inp["design"], tag, tick)
        elif name == "scale":
            run = phases.run_scale(L, tracer, self.inp["scale"], tag, tick)
        elif name == "cli":
            run = phases.run_cli(self.ctx, tracer, self.inp["cli"].verbs, tag, tick)
        else:
            run = phases.run_cli_inproc(tracer, self.inp["cli"].verbs, tag)
        runs = self.runs[name]
        if runs:
            run.reproduced = checks.reproduced(runs[0], run)
            run.outputs = None
        runs.append(run)
        return run

    def companion_ticker(self, companions, L, tracer):
        """A callback for the main phase: between two of its operations, run
        each companion phase whose interval (COMPANION_EVERY_S) has passed
        since it last ran.  Companion calls thus spread over the whole run."""
        last = {name: time.perf_counter() for name in companions}

        def tick():
            for name in companions:
                if time.perf_counter() - last[name] >= COMPANION_EVERY_S[name]:
                    self.phase(name, L, tracer)
                    last[name] = time.perf_counter()
        return tick

    def verdicts(self):
        """(attempted, failed, ok_ratio, failure reasons, named outcomes).
        attempted and failed count every execution; ok_ratio is over one
        execution of each phase, so it does not depend on how many repeats
        fit in the run."""
        import checks
        attempted, failed, reasons, outcomes = 0, 0, {}, {}
        per_exec_attempted, per_exec_failed = 0.0, 0.0
        expected = checks.cli_expected(self.inp["cli"])
        for name, runs in self.runs.items():
            if not runs:
                continue
            first = runs[0]
            if name == "design":
                base = {op: checks.check_design_record(rec) for op, rec in first.outputs.items()}
                for rec in first.outputs.values():
                    for key in ("error", "n_star_error"):
                        if key in rec:
                            outcomes[rec[key]] = outcomes.get(rec[key], 0) + len(runs)
            elif name == "scale":
                base = checks.check_scale(first, self.inp["scale"])
            elif name == "cli":
                base = checks.check_cli(first, expected)
            else:
                base = checks.check_cli_inproc(first, self.runs["cli"][0])
            phase_attempted, phase_failed = 0, 0
            for run in runs:
                for op, bad in (base if run is first else run.reproduced).items():
                    bad = bad or base.get(op, [])
                    phase_attempted += 1
                    if bad:
                        phase_failed += 1
                        key = f"{name}: {bad[0].split(':')[0]}"
                        reasons.setdefault(key, {"count": 0, "example": bad[0]})["count"] += 1
            attempted += phase_attempted
            failed += phase_failed
            per_exec_attempted += phase_attempted / len(runs)
            per_exec_failed += phase_failed / len(runs)
        return attempted, failed, 1.0 - per_exec_failed / per_exec_attempted, reasons, outcomes


def total_ms(run) -> float:
    return sum(sum(calls) for calls in run.op_ms.values())


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # ru_maxrss is in KiB on Linux


def typical(runs) -> dict:
    """Per operation, the median of all its calls in the run (ms).  Calls of
    one operation are spread over the run, so the median discounts both
    slow spells and brief fast spells of a shared host."""
    return {op: statistics.median(ms for r in runs for ms in r.op_ms[op])
            for op in runs[0].op_ms}


def end_to_end(runner: Runner, setup_s: float, ok_ratio: float) -> dict:
    op_ms = {phase: typical(runner.runs[phase]) for phase in WORKLOADS}

    def rate(phase: str, unit: str) -> float:
        count, ops = runner.runs[phase][0].work[unit]
        return count / (sum(op_ms[phase][op] for op in ops) / 1e3)

    design_ms = list(op_ms["design"].values())
    cli_ms = list(op_ms["cli"].values())
    values = {
        "setup_s": setup_s,
        "ok_ratio": ok_ratio,
        "peak_rss_mib": peak_rss_mib(),
        "design_per_s": rate("design", "priors"),
        "design_ms_p50": percentile(design_ms, 50),
        "design_ms_p99": percentile(design_ms, 99),
        "mc_payments_per_s": rate("scale", "mc_payments"),
        "pay_payments_per_s": rate("scale", "pay_payments"),
        "scan_s": 1.0 / rate("scale", "scans"),
        "cli_ms_p50": percentile(cli_ms, 50),
        "cli_ms_p90": percentile(cli_ms, 90),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(runner: Runner, tracer, traced_slices, inproc_slice, import_ms,
              overhead: float, defect: dict) -> dict:
    """Per-layer metrics of one iteration (every phase once): call counts
    from the spans, busy and self ms as the median over traced iterations."""
    units = per_layer_units()
    iterations = [summarize(tracer.spans, a, b) for a, b in traced_slices]
    inproc = summarize(tracer.spans, *inproc_slice)

    def calls(name: str) -> int:
        return iterations[0].get(name, {}).get("calls", 0)

    def median(name: str, field: str = "busy_ms") -> float:
        return statistics.median(it.get(name, {}).get(field, 0.0) for it in iterations)

    values = {}
    for name in LAYER_SPANS:
        values[f"{name}.calls"] = calls(name)
        values[f"{name}.busy_ms"] = median(name)
    values["bench.design.self_ms"] = median("bench.design.prior", "self_ms")
    for name in COMPUTED:
        values[name] = sum(runner.runs[phase][0].counts.get(name, 0)
                           for phase in ("design", "scale"))
    values["known_defect.beta_quadrature.models_off"] = defect["beta_quadrature"]["off"]
    values["known_defect.beta_quadrature.max_rel_err"] = defect["beta_quadrature"]["max_rel_err"]
    values["known_defect.pool_entries.models_off"] = defect["pool_entries"]["off"]
    values["cli.import_ms"] = import_ms
    for verb in CLI_VERBS:
        values[f"cli.{verb}.ms"] = median(f"cli.{verb}")
        values[f"cli.main.{verb}.inproc_ms"] = inproc[f"cli.main.{verb}"]["busy_ms"]
    values["trace.overhead_ratio"] = overhead
    return {k: {"value": values[k], "unit": units[k]} for k in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "peerpredict", "__init__.py")):
        sys.stderr.write(f"no peerpredict sources under {SRC}; run from a source checkout\n")
        return 2
    os.environ.pop("PEERPREDICT_THREADS", None)   # measure the default worker count
    for name in BLAS_ENV:                          # one thread per process, children too
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import peerpredict
    if not os.path.realpath(peerpredict.__file__).startswith(os.path.realpath(SRC)):
        sys.stderr.write(f"imported peerpredict from {peerpredict.__file__}, not {SRC}\n")
        return 2
    import checks
    import phases

    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    ctx = Context(root=ROOT, env=env)
    machine = machine_record()

    # set-up: import the package in a fresh process and build the inputs, repeated
    setup, import_ms = [], []
    for _ in range(SETUP_REPS if args.size == "full" else 1):
        ms = phases.import_probe_ms(ctx)
        t0 = time.perf_counter()
        inp = build_inputs(args.workload, args.seed, args.size)
        import_ms.append(ms)
        setup.append(ms / 1e3 + time.perf_counter() - t0)

    plain = Tracer(False)
    L = bind_layers(plain)
    runner = Runner(ctx, inp)
    phases.run_design(L, plain, inp["design"][:32], "warmup")   # untimed, not kept

    # Untraced: the workload's own phase repeats until --seconds have passed,
    # with companion phases run between its operations.  Traced: each
    # iteration runs every phase once untraced, then once traced, so the
    # per-layer counts of an iteration repeat exactly and the two passes of
    # the own phase give the tracing overhead.
    own = args.workload
    companions = [p for p in WORKLOADS if p != own]
    min_runs = MIN_ITERATIONS if args.size == "full" else 1
    tracer = Tracer(True) if args.trace else None
    traced_L = bind_layers(tracer) if tracer else None
    tick = runner.companion_ticker(companions, L, plain) if tracer is None else None
    traced_slices, own_ms = [], {"plain": [], "traced": []}
    start, iterations, elapsed = time.perf_counter(), 0, 0.0
    # stop before an iteration that would end past --seconds
    while iterations < min_runs or elapsed * (iterations + 1) / iterations <= args.seconds:
        own_ms["plain"].append(total_ms(runner.phase(own, L, plain, tick)))
        if tracer is not None:
            for phase in companions:
                runner.phase(phase, L, plain)
            a = tracer.mark()
            own_ms["traced"].append(total_ms(runner.phase(own, traced_L, tracer)))
            for phase in companions:
                runner.phase(phase, traced_L, tracer)
            traced_slices.append((a, tracer.mark()))
        iterations += 1
        elapsed = time.perf_counter() - start
    for phase in companions:
        while len(runner.runs[phase]) < min_runs:
            runner.phase(phase, L, plain)
    if tracer is not None:
        a = tracer.mark()
        runner.phase("cli_inproc", None, tracer)
        inproc_slice = (a, tracer.mark())

    attempted, failed, ok_ratio, reasons, outcomes = runner.verdicts()
    defect = checks.known_defects(inp["defect_probe"], L)
    if tracer is None:
        metrics = end_to_end(runner, statistics.median(setup), ok_ratio)
    else:
        overhead = statistics.median(own_ms["traced"]) / statistics.median(own_ms["plain"]) - 1.0
        metrics = per_layer(runner, tracer, traced_slices, inproc_slice,
                            statistics.median(import_ms), overhead, defect)

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "size": args.size, "iterations": iterations, "machine": machine,
              "executions_ms": {name: [round(total_ms(r), 3) for r in runs]
                                for name, runs in runner.runs.items()},
              "attempted": attempted, "failed": failed, "failures": reasons,
              "named_outcomes": outcomes, "known_defects": defect,
              "metrics": metrics}
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    for key, info in sorted(reasons.items()):
        sys.stderr.write(f"failed {info['count']}x {key} (e.g. {info['example']})\n")
    beta, pool = defect["beta_quadrature"], defect["pool_entries"]
    sys.stderr.write(f"known defect, beta quadrature (ROADMAP item 4): {beta['off']} of "
                     f"{beta['models']} probe models off, by up to {beta['max_rel_err']:.3g}\n"
                     f"known defects, listed pool entries: {pool['off']} of {pool['listed']} "
                     f"still fail a design check\n")
    print(json.dumps({"machine": machine, "named_outcomes": outcomes, "known_defects": defect}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
