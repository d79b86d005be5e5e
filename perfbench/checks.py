"""Output checks, run after the timed region.  Each returns, per operation
id, the list of reasons the output is wrong (empty when it is right).

The first execution of a phase is checked in full; every later execution
must reproduce its outputs exactly, so it inherits the same verdicts.
"""
from __future__ import annotations

import json
import math

import numpy as np

from peerpredict import (all_same_report_probability, deviation_gain, epsilon_q,
                         equilibrium_set, focality_condition, gap, min_agents_focal,
                         mppm_equilibrium_payoffs, optimal_mechanism, ppm_pay,
                         prior_from_model)
from peerpredict.mechanism import PaymentRound

from inputs import KNOWN_DEFECTS, pool_model
from phases import _design_one

EQ_COUNTS = (7, 8, 9)
GAIN_TOL = 1e-9
GAP_ATOL = 1e-12    # payoffs lie in [0,1]; delta* comes from the relabelled prior, so
                    # the gap recomputed on the input prior may differ by rounding
QUAD_RTOL = 1e-9
MC_STDERRS = 5.0


def _equilibria_ok(prior, matrix, eqs, name: str) -> list:
    bad = []
    if eqs.count not in EQ_COUNTS:
        bad.append(f"equilibrium count: {name} has {eqs.count}")
    for e in eqs.equilibria:
        g, _ = deviation_gain(prior, matrix, [(e.strategy.t0, e.strategy.t1)] * 3, 0)
        if g > GAIN_TOL:
            bad.append(f"deviation gain: {name} {g:.3g} at {e.label}")
    return bad


def check_design_record(rec: dict) -> list:
    if "unexpected" in rec:
        return [f"exception {rec['unexpected']}"]
    if "error" in rec:
        return []   # a named domain error is an outcome, counted by name
    prior, report = rec["prior"], rec["report"]
    bad = _equilibria_ok(prior, report.mechanism, rec["eq_opt"], "optimum")
    bad += _equilibria_ok(prior, rec["brier"], rec["eq_brier"], "brier")
    if not abs(rec["gap_opt"] - report.delta_star) <= GAP_ATOL:
        bad.append(f"gap: gap(optimum) {rec['gap_opt']!r} != delta* {report.delta_star!r}")
    if not report.delta_star > 0.0:
        bad.append(f"gap: delta* {report.delta_star!r} not positive")
    if "spec" not in rec:
        return bad

    model, spec, pays = rec["spec"].model, rec["spec"], rec["pays"]
    t, d = report.truth_payoff, report.delta_star
    n_star = rec.get("n_star")
    if n_star is not None:
        if not focality_condition(epsilon_q(model.with_agents(n_star)), t, d):
            bad.append(f"focality: fails at n* = {n_star}")
        if n_star > 2 and focality_condition(epsilon_q(model.with_agents(n_star - 1)), t, d):
            bad.append(f"focality: already holds at n* - 1 = {n_star - 1}")
        if model.n_agents >= n_star:
            truth = pays["Truth"]
            beaten = [k for k, v in pays.items() if k != "Truth" and not truth > v]
            if beaten:
                bad.append(f"truth not focal ({model.kind}): loses to {beaten} "
                           f"at n = {model.n_agents} >= n* = {n_star}")
    err, detail = _quadrature_error(model, spec.n_agents - 1)
    if err > QUAD_RTOL:
        bad.append(f"quadrature ({model.kind}): {detail}")
    return bad


def _quadrature_error(model, m: int) -> tuple:
    """Relative error of all_same_report_probability for m Zero and m Truth
    strategies against 1 and moment(m) + moment(m, complement=True)."""
    zero = all_same_report_probability(model, [(0.0, 0.0)] * m)
    truth = all_same_report_probability(model, [(0.0, 1.0)] * m)
    exact = model.moment(m) + model.moment(m, complement=True)
    err = max(abs(zero - 1.0), abs(truth - exact) / max(exact, 1e-300))
    return err, f"Zero mass {zero!r}, Truth {truth!r} vs exact {exact!r}"


def known_defects(beta_models, L) -> dict:
    """The known defects, measured outside the workloads: the beta-quadrature
    error (ROADMAP item 4) on non-integer shapes, and how many of the pool
    entries listed in inputs.KNOWN_DEFECTS still fail a design check."""
    errors = [_quadrature_error(model, model.n_agents - 1)[0] for model in beta_models]
    listed = [check_design_record(_design_one(L, ("model", pool_model(e["kind"], e["n"], e["j"]))))
              for e in KNOWN_DEFECTS]
    return {"beta_quadrature": {"models": len(errors), "off": sum(e > QUAD_RTOL for e in errors),
                                "max_rel_err": max(errors)},
            "pool_entries": {"listed": len(listed), "off": sum(1 for bad in listed if bad)}}


def check_scale(run, inp) -> dict:
    out = run.outputs
    verdict = {op: [] for op in out}

    for op, spec in ((("mc10",), inp.spec10), (("mc200",), inp.spec200)):
        res = out[op]
        want = mppm_equilibrium_payoffs(spec)["Truth"]
        # The punishment hits when all other agents report alike.  When the
        # sample expects fewer than one such trial, its stderr cannot show
        # that term, so the term itself is added to the tolerance.
        alike = all_same_report_probability(spec.model, [(0.0, 1.0)] * (spec.n_agents - 1))
        unseen = spec.punishment * alike if res.trials * alike < 1.0 else 0.0
        far = [i for i, (mu, se) in enumerate(zip(res.means, res.stderrs))
               if not abs(mu - want) <= MC_STDERRS * se + unseen]
        if far:
            verdict[op].append(f"monte carlo: agents {far[:5]} beyond {MC_STDERRS} stderr "
                               f"of {want!r}")

    spec, n = inp.spec100, inp.spec100.n_agents
    for rid, text in enumerate(inp.rounds):
        rnd, pays = out[("mppm", rid)]
        for i in range(n):
            others = [rnd.reports[j] for j in range(n) if j != i]
            alike = all(b == others[0] for b in others)
            want = ppm_pay(spec, rnd, i) - (spec.punishment if alike else 0.0)
            if pays[i] != want:
                verdict[("mppm", rid)].append(f"mppm_pay: agent {i} {pays[i]!r} != {want!r}")
    for i in range(inp.size.pay_agents_rounds):
        got = out[("rounds", i)]
        want = [ppm_pay(spec, PaymentRound(reports=inp.fixed_reports, seed=inp.pay_seed,
                                           round_id=rid), i) for rid in inp.round_ids]
        if list(got) != want:
            verdict[("rounds", i)].append(f"ppm_pay_rounds: agent {i} differs from ppm_pay")
    allowed = {v for m in inp.spec_d2.dim_matrices for v in m.entries()}
    for rid in range(len(inp.rounds_d2)):
        _, pays = out[("multidim", rid)]
        if any(p not in allowed for p in pays):
            verdict[("multidim", rid)].append("multidim_pay: pays no dimension-matrix entry")

    prior, matrix = inp.prior, inp.report.mechanism
    if out[("deviation_report",)].max_gain != 0.0:
        verdict[("deviation_report",)].append(
            f"deviation_report: max gain at truth {out[('deviation_report',)].max_gain!r}")
    eqs = equilibrium_set(prior, matrix)
    cell = 1.0 / (inp.size.grid_resolution - 1)
    for c in out[("grid_scan",)]:
        dist = min(max(abs(c.center[0] - e.strategy.t0), abs(c.center[1] - e.strategy.t1))
                   for e in eqs.equilibria)
        if dist > 1.5 * cell:
            verdict[("grid_scan",)].append(
                f"grid_scan: cluster at {c.center} is {dist:.3g} from any equilibrium")
    pn = inp.size.product[0]
    if tuple([(0.0, 1.0)] * pn) not in out[("product_scan",)]:
        verdict[("product_scan",)].append("product_scan: all-truth profile missing")
    rows = out[("plot_data",)]
    if len(rows) != inp.size.plot_resolution ** 2 or not all(math.isfinite(r[3]) for r in rows):
        verdict[("plot_data",)].append("plot_data: rows missing or not finite")
    xi_max = max(out[("xi",)])
    if not xi_max <= inp.report.delta_star + 1e-9:
        verdict[("xi",)].append(
            f"xi: grid maximum {xi_max!r} exceeds delta* {inp.report.delta_star!r}")
    return verdict


def _fmt(value):
    """12 significant digits, the CLI's output precision."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    return value


def cli_expected(inp) -> dict:
    """The library's answer for the design, gap and min-agents verbs."""
    model = inp.model
    prior = prior_from_model(model)
    report = optimal_mechanism(prior)
    return {
        "design": _fmt(report.to_dict()),
        "gap": float(f"{gap(prior, report.mechanism):.12g}"),
        "min-agents": min_agents_focal(model, report.truth_payoff, report.delta_star),
    }


def check_cli(run, expected: dict) -> dict:
    verdict = {op: [] for op in run.outputs}
    for op, (rc, stdout) in run.outputs.items():
        verb = op[1]
        if rc != 0:
            verdict[op].append(f"exit code: {verb} exited {rc}")
        elif verb == "design" and json.loads(stdout) != expected["design"]:
            verdict[op].append("library answer: design output differs")
        elif verb == "gap" and float(stdout) != expected["gap"]:
            verdict[op].append(f"library answer: gap {stdout!r} != {expected['gap']!r}")
        elif verb == "min-agents" and int(stdout) != expected["min-agents"]:
            verdict[op].append(f"library answer: min-agents {stdout!r} != {expected['min-agents']}")
    return verdict


def check_cli_inproc(run, cli_run) -> dict:
    """cli.main in process must print exactly what the subprocess printed."""
    return {op: ([] if out == (0, cli_run.outputs[("proc", op[1])][1])
                 else ["in process: cli.main output differs from the subprocess"])
            for op, out in run.outputs.items()}


def reproduced(first, later) -> dict:
    """Verdicts for a later execution: outputs must equal the first's."""
    return {op: ([] if op in first.outputs and _same(first.outputs[op], out)
                 else ["reproducibility: output differs from the first execution"])
            for op, out in later.outputs.items()}


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    return a == b
