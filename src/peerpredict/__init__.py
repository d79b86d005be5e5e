"""Binary peer prediction: equilibrium enumeration, gap-optimal payoff
matrices, and punishments that make truth-telling the focal equilibrium."""

from .equilibria import (Equilibrium, EquilibriumSet, HullReport, ResponsePoint,
                         SymmetricStrategy, best_response_payoff, enumerate_equilibria,
                         equilibrium_set, expected_payoff, hull_report, plot_data,
                         quadrant, response_point, strategy_from_point, translate)
from .errors import (Boundary, DegenerateMatrix, DegenerateModel, EpsilonMissing,
                     IndexOutOfRange, InfeasibleTangents, MirrorRequired, NeverFocal,
                     NotPositivelyCorrelated, NotStrict, OutOfRange, OutsideHull,
                     PeerPredictError, SymmetricPrior, TruthNotEquilibrium)
from .mechanism import (MechanismSpec, PaymentRound, all_same_report_probability,
                        build_mppm, focality_condition, min_agents_focal,
                        mppm_equilibrium_payoffs, mppm_pay, multidim_pay, ppm_pay,
                        punishment_level, renormalized)
from .optimizer import (GapReport, Region, classify_region, gap, k_sup, kappa_iota,
                        optimal_mechanism, optimal_qstar, xi)
from .prior import (GenerativeModel, Prior, epsilon_q, model_from_dict,
                    prior_from_conditionals, prior_from_dict, prior_from_model)
from .scoring import (BRIER, LineSet, PayoffMatrix, ScoringRule, brier, convex_generator,
                      lineset_from_k_qstar, lineset_to_matrix, matrix_from_rule, normalize)

# The oracles import numpy, so they load on first use (PEP 562) and the
# analytic path stays numpy-free.
_VERIFY_NAMES = ("Cluster", "DeviationReport", "MonteCarloResult", "deviation_gain",
                 "deviation_gain_product", "deviation_report", "grid_scan", "monte_carlo",
                 "product_scan", "symmetric_gain_grid")

__all__ = sorted({name for name in dir() if not name.startswith("_")}
                 | {"verify", *_VERIFY_NAMES})


def __getattr__(name):
    if name == "verify" or name in _VERIFY_NAMES:
        import importlib

        verify = importlib.import_module(".verify", __name__)
        return verify if name == "verify" else getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
