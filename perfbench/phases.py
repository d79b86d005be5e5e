"""The timed phases.  Each call into the library goes through `L`, the layer
namespace from spans.bind_layers, so a traced run records one span per call.
Outputs are kept, keyed by operation id, and checked after the timed region.
"""
from __future__ import annotations

import io
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

from peerpredict import BRIER, PeerPredictError
from peerpredict.cli import main as cli_main

from inputs import r3_epsilon

MC_BLOCK = 1 << 16   # trials per Monte Carlo block in verify.monte_carlo
PAY_REPEATS = 4      # payment sections per scale phase, see run_scale


@dataclass
class PhaseRun:
    """Outputs and timings of one execution of one phase."""

    phase: str
    outputs: dict = field(default_factory=dict)    # op id -> output
    op_ms: dict = field(default_factory=dict)      # op id -> wall ms of each call
    work: dict = field(default_factory=dict)       # unit of work -> (count, op ids)
    counts: dict = field(default_factory=dict)     # computed counts
    reproduced: dict = None                        # op id -> reasons, for a repeat
    tick: object = None                            # called between operations

    def timed(self, op, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.op_ms.setdefault(op, []).append((time.perf_counter() - t0) * 1e3)
        self.outputs[op] = out
        if self.tick is not None:
            self.tick()
        return out


def _design_one(L, item) -> dict:
    kind, payload = item
    rec = {"kind": kind}
    try:
        if kind == "conditionals":
            prior = L.prior_from_conditionals(*payload)
            model = None
        else:
            model = payload
            prior = L.prior_from_model(model)
        rec["prior"] = prior
        region = L.classify_region(prior)
        eps = r3_epsilon(prior) if region.tag == "R3" else None
        report = L.optimal_mechanism(prior, epsilon=eps)
        brier = L.matrix_from_rule(BRIER, prior)
        rec.update(region=region, epsilon=eps, report=report, brier=brier,
                   eq_opt=L.equilibrium_set(prior, report.mechanism),
                   eq_brier=L.equilibrium_set(prior, brier),
                   gap_opt=L.gap(prior, report.mechanism),
                   gap_brier=L.gap(prior, brier))
        if model is not None:
            try:
                rec["n_star"] = L.min_agents_focal(model, report.truth_payoff, report.delta_star)
            except PeerPredictError as exc:
                rec["n_star_error"] = type(exc).__name__
            spec = L.build_mppm(model, epsilon=eps)
            rec["spec"] = spec
            rec["pays"] = L.mppm_equilibrium_payoffs(spec)
    except PeerPredictError as exc:
        rec["error"] = type(exc).__name__
    except Exception as exc:  # a crash is an outcome to count, not a reason to stop
        rec["unexpected"] = f"{type(exc).__name__}: {exc}"
    return rec


def _quadrature_nodes(model, m: int) -> int:
    return len(model.points) if model.kind == "discrete" else max(96, m + 1)


def run_design(L, tracer, items, tag: str, tick=None) -> PhaseRun:
    run = PhaseRun("design", tick=tick)
    nodes = 0
    for idx, item in enumerate(items):
        tracer.group = f"{tag}:{idx}"
        span = tracer.begin("bench.design.prior")
        rec = run.timed(("prior", idx), _design_one, L, item)
        tracer.end(span)
        if "pays" in rec:
            m = rec["spec"].n_agents - 1
            nodes += len(rec["pays"]) * m * _quadrature_nodes(rec["spec"].model, m)
    run.work["priors"] = (len(items), list(run.op_ms))
    run.counts["mechanism.quadrature_node_products"] = nodes
    return run


def run_scale(L, tracer, inp, tag: str, tick=None) -> PhaseRun:
    """Monte Carlo, payments and scans.  The payment operations take
    milliseconds, so the payment section runs PAY_REPEATS times, between the
    long operations, to sample them across the whole phase."""
    run = PhaseRun("scale", tick=tick)
    size = inp.size
    n = inp.spec100.n_agents
    prior, matrix = inp.prior, inp.report.mechanism
    pn, pres = size.product

    def pay_round(pay, spec, text, rid):
        rnd = L.from_csv(text, inp.pay_seed, rid)
        return rnd, [pay(spec, rnd, i) for i in range(n)]

    def payments():
        for rid, text in enumerate(inp.rounds):
            tracer.group = f"{tag}:mppm:{rid}"
            run.timed(("mppm", rid), pay_round, L.mppm_pay, inp.spec100, text, rid)
        for i in range(size.pay_agents_rounds):
            tracer.group = f"{tag}:rounds:{i}"
            run.timed(("rounds", i), L.ppm_pay_rounds, inp.spec100, inp.fixed_reports, i,
                      inp.pay_seed, inp.round_ids)
        for rid, text in enumerate(inp.rounds_d2):
            tracer.group = f"{tag}:multidim:{rid}"
            run.timed(("multidim", rid), pay_round, L.multidim_pay, inp.spec_d2, text, rid)

    long_ops = (
        (("mc10",), L.monte_carlo_n10, inp.model, inp.spec10, [(0.0, 1.0)] * 10,
         size.mc10_trials, inp.mc_seed),
        (("mc200",), L.monte_carlo_n200, inp.model, inp.spec200, [(0.0, 1.0)] * 200,
         size.mc200_trials, inp.mc_seed),
        (("deviation_report",), L.deviation_report, prior, matrix,
         [(0.0, 1.0)] * size.deviation_n),
        (("grid_scan",), L.grid_scan, prior, matrix, size.grid_resolution),
        (("product_scan",), L.product_scan, prior, matrix, pn, pres),
        (("plot_data",), L.plot_data, prior, inp.lineset, size.plot_resolution),
        (("xi",), lambda: [L.xi(inp.xi_prior, k, qs) for k, qs in inp.xi_pairs]),
    )
    pay_after = {len(long_ops) * k // PAY_REPEATS for k in range(PAY_REPEATS)}
    for pos, (op, fn, *args) in enumerate(long_ops):
        if pos in pay_after:
            payments()
        tracer.group = f"{tag}:{op[0]}"
        run.timed(op, fn, *args)

    mc = ((inp.spec10, size.mc10_trials), (inp.spec200, size.mc200_trials))
    run.work["mc_payments"] = (sum(trials * spec.n_agents for spec, trials in mc),
                               [("mc10",), ("mc200",)])
    run.counts["verify.monte_carlo.blocks"] = sum(-(-trials // MC_BLOCK) for _, trials in mc)
    run.counts["verify.monte_carlo.block_bytes_computed"] = sum(
        trials * spec.n_agents * spec.dimensions * 8 for spec, trials in mc)
    run.work["pay_payments"] = (
        n * (len(inp.rounds) + len(inp.rounds_d2)) + size.pay_agents_rounds * len(inp.round_ids),
        [op for op in run.op_ms if op[0] in ("mppm", "rounds", "multidim")])
    run.work["scans"] = (1, [op for op, *_ in long_ops[2:]])
    cells = pres * pres
    run.counts["verify.grid_cells_scanned"] = (
        size.grid_resolution ** 2 + size.plot_resolution ** 2
        + cells * (cells if pn == 2 else cells * (cells + 1) // 2))
    return run


def import_probe_ms(ctx) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import peerpredict"], cwd=ctx.root, env=ctx.env,
                   check=True, capture_output=True, timeout=120)
    return (time.perf_counter() - t0) * 1e3


def run_cli(ctx, tracer, verbs, tag: str, tick=None) -> PhaseRun:
    """Each verb once as a fresh `python -m peerpredict.cli` process, one at a time."""
    run = PhaseRun("cli", tick=tick)
    for verb, argv in verbs:
        tracer.group = f"{tag}:{verb}"
        span = tracer.begin(f"cli.{verb}")
        run.timed(("proc", verb), _subprocess, ctx, argv)
        tracer.end(span)
    return run


def run_cli_inproc(tracer, verbs, tag: str) -> PhaseRun:
    """Each verb once through cli.main in this process, stdout captured."""
    run = PhaseRun("cli_inproc")
    for verb, argv in verbs:
        tracer.group = f"{tag}:{verb}"
        span = tracer.begin(f"cli.main.{verb}")
        run.timed(("inproc", verb), _in_process, argv)
        tracer.end(span)
    return run


def _subprocess(ctx, argv) -> tuple:
    try:
        proc = subprocess.run([sys.executable, "-m", "peerpredict.cli", *argv],
                              cwd=ctx.root, env=ctx.env, capture_output=True, timeout=120)
    except subprocess.TimeoutExpired:
        return ("timeout", b"")
    return (proc.returncode, proc.stdout)


def _in_process(argv) -> tuple:
    buf = io.StringIO()
    try:
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            rc = cli_main(argv)
    except SystemExit as exc:
        rc = exc.code
    return (rc, buf.getvalue().encode())
