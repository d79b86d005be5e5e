"""Command-line front end.  Verbs are thin adapters over the library; all
numeric output is serialized with 12 significant digits (6 decimals for bulk
CSV) so byte-identical reruns are the norm.

Exit codes: 0 success, 1 domain error (message names the error case),
2 flag/usage error.
"""
from __future__ import annotations

import argparse
import json
import sys

from .equilibria import equilibrium_set, plot_data
from .errors import OutOfRange, PeerPredictError
from .mechanism import MechanismSpec, min_agents_focal
from .optimizer import gap, optimal_mechanism
from .prior import epsilon_q, model_from_dict, prior_from_dict, prior_from_model
from .scoring import BRIER, PayoffMatrix, matrix_from_rule


def _fmt(value):
    """Canonical JSON value: floats at 12 significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _fmt(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_fmt(v) for v in value]
    return value


def _write(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, path: str | None):
    _write(json.dumps(_fmt(obj), indent=2, sort_keys=True) + "\n", path)


def _reject_constant(name: str):
    raise OutOfRange(f"JSON input must be finite, got {name}")


def _json_arg(raw: str):
    if raw.startswith("@"):
        with open(raw[1:]) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    return json.loads(raw, parse_constant=_reject_constant)


def _load_prior(raw: str):
    return prior_from_dict(_json_arg(raw))


def _load_matrix(args, prior):
    if args.matrix:
        return PayoffMatrix.from_dict(_json_arg(args.matrix))
    if args.rule:  # argparse admits only "brier"
        return matrix_from_rule(BRIER, prior)
    raise PeerPredictError("one of --matrix or --rule is required")


def cmd_analyze(args) -> int:
    prior, model = _load_prior(args.prior)
    out = {"prior": prior.to_dict()}
    if model is not None:
        out["model"] = model.to_dict()
        if model.n_agents >= 2:
            out["epsilon_q"] = epsilon_q(model)
    _emit(out, args.output)
    return 0


def cmd_equilibria(args) -> int:
    prior, _ = _load_prior(args.prior)
    matrix = _load_matrix(args, prior)
    eqs = equilibrium_set(prior, matrix)
    _emit({"qstar": matrix.qstar(), "count": eqs.count,
           "equilibria": eqs.to_json_list()}, args.output)
    return 0


def cmd_design(args) -> int:
    prior, _ = _load_prior(args.prior)
    report = optimal_mechanism(prior, epsilon=args.epsilon)
    _emit(report.to_dict(), args.output)
    return 0


def cmd_gap(args) -> int:
    prior, _ = _load_prior(args.prior)
    matrix = PayoffMatrix.from_dict(_json_arg(args.matrix))
    _write(f"{gap(prior, matrix):.12g}\n", args.output)
    return 0


def cmd_simulate(args) -> int:
    from .verify import monte_carlo  # numpy loads only for the array verbs

    spec = MechanismSpec.from_dict(_json_arg(args.spec))
    profile = _json_arg(args.profile)
    if spec.model is None:
        raise PeerPredictError("simulate needs a spec with a generative model")
    result = monte_carlo(spec.model, spec, profile, args.trials, args.seed)
    _emit(result.to_dict(), args.output)
    return 0


def cmd_verify(args) -> int:
    from .verify import grid_scan

    prior, _ = _load_prior(args.prior)
    matrix = PayoffMatrix.from_dict(_json_arg(args.matrix))
    eqs = equilibrium_set(prior, matrix)
    clusters = grid_scan(prior, matrix, args.resolution)
    cell = 1.0 / (args.resolution - 1)
    rows = []
    matched = set()
    for e in eqs.equilibria:
        nearest = None
        for idx, c in enumerate(clusters):
            dist = max(abs(c.center[0] - e.strategy.t0), abs(c.center[1] - e.strategy.t1))
            if nearest is None or dist < nearest[1]:
                nearest = (idx, dist)
        if nearest is not None and nearest[1] <= 1.5 * cell:
            matched.add(nearest[0])
        rows.append({"label": e.label, "t0": e.strategy.t0, "t1": e.strategy.t1,
                     "nearest_cluster_distance": None if nearest is None else nearest[1]})
    extra = [c for idx, c in enumerate(clusters) if idx not in matched]
    _emit({
        "analytic_count": eqs.count,
        "cluster_count": len(clusters),
        "unmatched_clusters": [{"center": list(c.center), "diameter": c.diameter,
                                "size": c.size} for c in extra],
        "equilibria": rows,
    }, args.output)
    return 0


def cmd_plot(args) -> int:
    prior, _ = _load_prior(args.prior)
    matrix = PayoffMatrix.from_dict(_json_arg(args.matrix))
    rows = plot_data(prior, matrix.lineset(), args.resolution)
    lines = ["x,y,quadrant,payoff"]
    lines += [f"{x:.6f},{y:.6f},{quad},{pay:.6f}" for x, y, quad, pay in rows]
    _write("\n".join(lines) + "\n", args.output)
    return 0


def cmd_min_agents(args) -> int:
    model = model_from_dict(_json_arg(args.model))
    report = optimal_mechanism(prior_from_model(model))
    n = min_agents_focal(model, report.truth_payoff, report.delta_star)
    _write(f"{n}\n", args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="peerpredict",
        description="Equilibria, optimal payoff matrices and punishments for "
                    "binary peer prediction.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        for flag, kw in flags.items():
            p.add_argument(flag, **kw)
        p.add_argument("--output", default=None, help="write JSON/CSV here instead of stdout")
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, **{"--prior": {"required": True}})
    add("equilibria", cmd_equilibria, **{
        "--prior": {"required": True},
        "--matrix": {"default": None},
        "--rule": {"default": None, "choices": ["brier"]},
    })
    add("design", cmd_design, **{
        "--prior": {"required": True},
        "--epsilon": {"type": float, "default": None},
    })
    add("gap", cmd_gap, **{
        "--prior": {"required": True},
        "--matrix": {"required": True},
    })
    add("simulate", cmd_simulate, **{
        "--spec": {"required": True},
        "--profile": {"required": True},
        "--trials": {"type": int, "required": True},
        "--seed": {"type": int, "default": 0},
    })
    add("verify", cmd_verify, **{
        "--prior": {"required": True},
        "--matrix": {"required": True},
        "--resolution": {"type": int, "default": 201},
    })
    add("plot", cmd_plot, **{
        "--prior": {"required": True},
        "--matrix": {"required": True},
        "--resolution": {"type": int, "required": True},
    })
    add("min-agents", cmd_min_agents, **{"--model": {"required": True}})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except PeerPredictError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except (json.JSONDecodeError, KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"invalid input: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
