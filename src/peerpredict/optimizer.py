"""Payoff-gap optimization: classify a prior, compute the largest attainable
advantage of truth-telling over the other informative equilibria, and build
the normalized payoff matrix realizing it.

All internal formulas assume the orientation q(1|1) > q(0|0); the public
entry points classify_region and optimal_mechanism relabel signals at the
module boundary when the input prior is oriented the other way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .equilibria import ResponsePoint, _equilibria, translate
from .errors import (Boundary, DegenerateMatrix, EpsilonMissing, MirrorRequired,
                     NotStrict, OutOfRange, SymmetricPrior, TruthNotEquilibrium)
from .prior import Prior, _require_qstar
from .scoring import PayoffMatrix, lineset_from_k_qstar, lineset_to_matrix, normalize


@dataclass(frozen=True)
class Region:
    """Classification tag plus the quantities that decided it: each delta (and
    xi_at_boundary) is the closed-form envelope min(kappa, iota), not an enumerated gap."""

    tag: str  # R1 | R2 | R3
    qstar_a_opt: float
    delta_a: float
    delta_b: Optional[float]
    xi_at_boundary: Optional[float]


@dataclass(frozen=True)
class GapReport:
    region: Region
    delta_star: float
    mechanism: PayoffMatrix
    qstar_opt: float
    k_opt: float
    epsilon: Optional[float]
    truth_payoff: float

    def to_dict(self) -> dict:
        d = {
            "region": self.region.tag,
            "delta_star": self.delta_star,
            "qstar_opt": self.qstar_opt,
            "k_opt": self.k_opt,
            "t": self.truth_payoff,
            "mechanism": self.mechanism.to_dict(),
        }
        if self.epsilon is not None:
            d["epsilon"] = self.epsilon
        return d


def _truth_and_gap(prior: Prior, pf: PayoffMatrix) -> tuple[float, float]:
    """Truth-telling's payoff under pf and its gap, from one enumeration."""
    entries = pf.entries()
    if max(entries) == min(entries):
        raise DegenerateMatrix("all payoff entries are equal")
    try:
        qs = pf.qstar()
    except NotStrict as exc:
        raise TruthNotEquilibrium(str(exc)) from exc
    if pf.alpha <= pf.beta or not (prior.q10 < qs < prior.q11):
        raise TruthNotEquilibrium(
            f"truth-telling is not a strict equilibrium (break-even {qs}, "
            f"slopes {pf.alpha} vs {pf.beta})"
        )
    # the rows open with Zero, One and Truth, which never coincide
    _, _, truth, *rivals = [u for *_, u in _equilibria(prior, qs, pf)]
    return truth, truth - max(rivals)


def gap(prior: Prior, pf: PayoffMatrix) -> float:
    """Truth-telling's payoff minus the best payoff among the other
    informative equilibria under pf."""
    return _truth_and_gap(prior, pf)[1]


def xi(prior: Prior, k: float, qstar: float) -> float:
    """Gap of the normalized matrix generated by contour slope k and
    break-even qstar; depends on (k, qstar) only."""
    ls = lineset_from_k_qstar(k, qstar, prior)
    return gap(prior, normalize(lineset_to_matrix(ls)))


def _require_oriented(prior: Prior):
    if not prior.signal_asymmetric:
        raise SymmetricPrior(f"prior has q(0|0) = q(1|1) = {prior.q11}; relabeling is undetectable")
    if prior.q11 < prior.q00:
        raise MirrorRequired("formula assumes q(1|1) > q(0|0); mirror the prior first")


def k_sup(prior: Prior, qstar: float) -> float:
    """Contour slope maximizing the gap at fixed qstar.

    Above q(0|0) this equalizes the TruthOne and TruthZero payoffs; below it,
    TruthOne and Lie (the slope of the translated segment between them).
    """
    _require_oriented(prior)
    _require_qstar(prior, qstar)
    if qstar == prior.q00:
        raise Boundary("k_sup is branch-ambiguous exactly at qstar = q(0|0)")
    if qstar > prior.q00:
        return prior.q11 * (1.0 - qstar) / (prior.q00 * qstar)
    f_tru1 = ResponsePoint(qstar, qstar + (prior.q11 - prior.q10) * (1.0 - qstar) / prior.q00)
    f_lie = translate(prior, qstar, ResponsePoint(prior.q00, prior.q01))
    return (f_tru1.y - f_lie.y) / (f_tru1.x - f_lie.x)


def kappa_iota(prior: Prior, branch: str, qstar: float) -> tuple[float, float]:
    """The two competing gap envelopes whose pointwise minimum equals
    xi(k_sup(qstar), qstar) on the given branch."""
    _require_oriented(prior)
    q11, q10, q00, q01 = prior.q11, prior.q10, prior.q00, prior.q01
    if branch == "a":
        _require_qstar(prior, qstar)
        kap = (q01 / (q10 + q01)) * (q11 - qstar) * (qstar - q10) / (q11 * (1.0 - qstar))
        # denominator written positively: qstar (q10 q11 - (q11 - q00) qstar) > 0 on the branch
        iot = (q01 / (q10 + q01)) * q10 * (q11 - qstar) * (qstar - q10) / (
            qstar * (q10 * q11 - (q11 - q00) * qstar))
        return kap, iot
    if branch == "b":
        if not (q10 < qstar <= q00):
            raise OutOfRange(f"branch b needs q(1|0) < qstar <= q(0|0), got {qstar}")
        pre = q01 * (q11 - q00) / (q10 + q01)
        kap = pre * (qstar - q10) * (q00 - qstar) / (q00 * q10 * (qstar - q01))
        iot = pre * (qstar - q10) * (q00 - qstar) / ((q00 * q10 - q01 * (1.0 - qstar)) * (1.0 - qstar))
        return kap, iot
    raise OutOfRange(f"branch must be 'a' or 'b', got {branch!r}")


def optimal_qstar(prior: Prior, branch: str) -> float:
    """Break-even point maximizing the per-branch gap envelope, in closed form."""
    _require_oriented(prior)
    q11, q10, q00, q01 = prior.q11, prior.q10, prior.q00, prior.q01
    if branch == "a":
        return (q10 * q11 - math.sqrt(q10 * q01 * q00 * q11)) / (q11 - q00)
    if branch == "b":
        if q00 <= q10:
            raise OutOfRange("branch b needs q(0|0) > q(1|0)")
        root = math.sqrt(q00 * q10 * (q11 - q10) * (q11 - q00))
        return (q01 - q10 * q00 + root) / q01
    raise OutOfRange(f"branch must be 'a' or 'b', got {branch!r}")


def _zeta(prior: Prior) -> float:
    return math.sqrt(prior.q00 * prior.q01 / (prior.q10 * prior.q11))


def classify_region(prior: Prior) -> Region:
    """Decide which of the three regions the prior falls in.

    R1: the seven-equilibrium optimum is admissible and at least as good;
    R2: the nine-equilibrium optimum wins; R3: the seven-equilibrium envelope
    still dominates at the branch boundary, where it is unattainable.
    """
    if not prior.signal_asymmetric:
        raise SymmetricPrior(f"prior has q(0|0) = q(1|1) = {prior.q11}")
    p = prior if prior.q11 > prior.q00 else prior.mirrored()

    qa = optimal_qstar(p, "a")
    delta_a = min(kappa_iota(p, "a" if qa > p.q00 else "b", qa))  # k_sup's branch at qa
    if p.q00 <= p.q10:
        return Region(tag="R1", qstar_a_opt=qa, delta_a=delta_a,
                      delta_b=None, xi_at_boundary=None)

    qb = optimal_qstar(p, "b")
    delta_b = min(kappa_iota(p, "b", qb))
    if qa > p.q00:
        tag = "R1" if delta_a >= delta_b else "R2"
        return Region(tag=tag, qstar_a_opt=qa, delta_a=delta_a,
                      delta_b=delta_b, xi_at_boundary=None)

    # the a-branch envelope peaks past the boundary; evaluate its limit there
    xi_boundary = min(kappa_iota(p, "a", p.q00))
    tag = "R2" if xi_boundary <= delta_b else "R3"
    return Region(tag=tag, qstar_a_opt=qa, delta_a=delta_a,
                  delta_b=delta_b, xi_at_boundary=xi_boundary)


def optimal_mechanism(prior: Prior, epsilon: Optional[float] = None) -> GapReport:
    """Gap-optimal normalized mechanism for the prior.

    R1 and R2 admit exact optima with closed-form matrices; in R3 the
    supremum is approached by pushing the break-even point epsilon past
    q(0|0), so epsilon must be supplied there.
    """
    region = classify_region(prior)
    mirrored = prior.q11 < prior.q00
    p = prior.mirrored() if mirrored else prior

    eps_used: Optional[float] = None
    if region.tag == "R1":
        matrix = PayoffMatrix(h11=_zeta(p), h10=0.0, h01=0.0, h00=1.0)
    elif region.tag == "R2":
        qb = optimal_qstar(p, "b")
        matrix = PayoffMatrix(h11=1.0, h10=0.0, h01=0.0, h00=qb / (1.0 - qb))
    else:
        if epsilon is None:
            raise EpsilonMissing("prior is unattainable (R3); supply a positive epsilon")
        if not (epsilon > 0.0 and p.q00 + epsilon < p.q11):  # NaN fails too
            raise OutOfRange(f"epsilon must satisfy 0 < epsilon < q(1|1) - q(0|0), got {epsilon}")
        qs = p.q00 + epsilon
        matrix = normalize(lineset_to_matrix(lineset_from_k_qstar(k_sup(p, qs), qs, p)))
        eps_used = epsilon

    # the one enumeration: authoritative values; tests hold the region's closed forms to them
    truth_payoff, delta_star = _truth_and_gap(p, matrix)

    if mirrored:
        matrix = matrix.mirrored()
    return GapReport(
        region=region,
        delta_star=delta_star,
        mechanism=matrix,
        qstar_opt=matrix.qstar(),
        k_opt=matrix.slope_k(prior),
        epsilon=eps_used,
        truth_payoff=truth_payoff,
    )
