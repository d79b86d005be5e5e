"""Proper scoring rules, line-sets and payoff matrices.

The mechanism only ever pays a scoring rule at the reports {0,1} with the
predictions {q(1|0), q(1|1)}, so a 2x2 payoff matrix is the canonical
mechanism object.  Restricted to those predictions, every strictly proper
rule is a pair of lines meeting at the break-even point q*: the
(alpha, beta, q*, gamma) line-set.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import DegenerateMatrix, InfeasibleTangents, NotStrict, OutOfRange
from .prior import Prior, _number

NORMALIZE_SNAP_TOL = 1e-12


@dataclass(frozen=True)
class PayoffMatrix:
    """Payment table h[peer report, own report] for a binary mechanism."""

    h11: float
    h10: float
    h01: float
    h00: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.entries()):
            raise OutOfRange(f"payoff matrix entries must be finite, got {self.entries()}")

    def entries(self) -> tuple[float, float, float, float]:
        return (self.h11, self.h10, self.h01, self.h00)

    def payment(self, peer_bit: int, own_bit: int) -> float:
        if peer_bit:
            return self.h11 if own_bit else self.h10
        return self.h01 if own_bit else self.h00

    @property
    def alpha(self) -> float:
        """Slope of the expected payment for reporting 1, as a function of the
        peer report-1 probability."""
        return self.h11 - self.h01

    @property
    def beta(self) -> float:
        return self.h10 - self.h00

    def qstar(self) -> float:
        """Peer report-1 probability at which reporting 0 and 1 pay the same."""
        denom = self.alpha - self.beta
        if denom == 0.0:
            raise NotStrict("payoff matrix has no unique break-even point")
        return (self.h00 - self.h01) / denom

    def gamma(self) -> float:
        return self.h01 + self.alpha * self.qstar()

    def lineset(self) -> "LineSet":
        return LineSet(alpha=self.alpha, beta=self.beta, qstar=self.qstar(), gamma=self.gamma())

    def slope_k(self, prior: Prior) -> float:
        """Contour slope of the best-response payoff in the truth quadrant."""
        return -self.beta * prior.q01 / (self.alpha * prior.q10)

    def mirrored(self) -> "PayoffMatrix":
        return PayoffMatrix(h11=self.h00, h10=self.h01, h01=self.h10, h00=self.h11)

    def to_dict(self) -> dict:
        return {"h11": self.h11, "h10": self.h10, "h01": self.h01, "h00": self.h00}

    @classmethod
    def from_dict(cls, d: dict) -> "PayoffMatrix":
        if not isinstance(d, dict):
            raise OutOfRange(f"a payoff matrix must be a JSON object, got {d!r}")
        return cls(**{key: _number(d[key], key) for key in ("h11", "h10", "h01", "h00")})


@dataclass(frozen=True)
class LineSet:
    """Pair of lines l(x,1) = alpha (x - qstar) + gamma and
    l(x,0) = beta (x - qstar) + gamma."""

    alpha: float
    beta: float
    qstar: float
    gamma: float

    def __post_init__(self):
        if not self.beta < self.alpha:
            raise NotStrict(f"line-set needs beta < alpha, got beta={self.beta}, alpha={self.alpha}")
        if not (0.0 <= self.qstar <= 1.0):
            raise OutOfRange(f"qstar must lie in [0,1], got {self.qstar}")

    def ell(self, x: float, bit: int) -> float:
        slope = self.alpha if bit else self.beta
        return slope * (x - self.qstar) + self.gamma

    def to_dict(self) -> dict:
        return {"alpha": self.alpha, "beta": self.beta, "qstar": self.qstar, "gamma": self.gamma}

    @classmethod
    def from_dict(cls, d: dict) -> "LineSet":
        return cls(alpha=float(d["alpha"]), beta=float(d["beta"]),
                   qstar=float(d["qstar"]), gamma=float(d["gamma"]))


@dataclass(frozen=True)
class ScoringRule:
    """Evaluable scoring rule: payment as a function of (report, prediction).

    value0/value1 give the payment at reports 0 and 1; probabilistic reports
    use the affine extension.  generator, when present, is the convex
    function whose tangents realize the rule (with its derivative), used for
    full-domain properness checks.
    """

    value0: Callable[[float], float]
    value1: Callable[[float], float]
    generator: Optional[Callable[[float], float]] = None
    generator_deriv: Optional[Callable[[float], float]] = None

    def score(self, report: float, predicted: float) -> float:
        if not (0.0 <= predicted <= 1.0):
            raise OutOfRange(f"predicted probability must lie in [0,1], got {predicted}")
        if not (0.0 <= report <= 1.0):
            raise OutOfRange(f"report must lie in [0,1], got {report}")
        return report * self.value1(predicted) + (1.0 - report) * self.value0(predicted)


def brier(report: float, predicted: float) -> float:
    """Quadratic score 2Iq + 2(1-I)(1-q) - q^2 - (1-q)^2, affinely extended
    to probabilistic reports."""
    if not (0.0 <= predicted <= 1.0):
        raise OutOfRange(f"predicted probability must lie in [0,1], got {predicted}")
    if not (0.0 <= report <= 1.0):
        raise OutOfRange(f"report must lie in [0,1], got {report}")
    q = predicted
    return 2.0 * report * q + 2.0 * (1.0 - report) * (1.0 - q) - q * q - (1.0 - q) * (1.0 - q)


BRIER = ScoringRule(
    value0=lambda q: 1.0 - 2.0 * q * q,
    value1=lambda q: 4.0 * q - 2.0 * q * q - 1.0,
    generator=lambda q: q * q + (1.0 - q) * (1.0 - q),  # tangents reproduce the rule exactly
    generator_deriv=lambda q: 4.0 * q - 2.0,
)


def shifted_brier(c: float) -> ScoringRule:
    """Brier with both arguments shifted by c before evaluation."""

    def raw(report, q):
        p, s = report - c, q - c
        return 2.0 * p * s + 2.0 * (1.0 - p) * (1.0 - s) - s * s - (1.0 - s) * (1.0 - s)

    return ScoringRule(value0=lambda q: raw(0.0, q), value1=lambda q: raw(1.0, q))


def break_even(rule: ScoringRule, prior: Prior) -> float:
    """Unique q* with PS(q*, q(1|1)) = PS(q*, q(1|0)); closed form because the
    rule is affine in its first argument."""
    diff0 = rule.score(0.0, prior.q11) - rule.score(0.0, prior.q10)
    diff1 = rule.score(1.0, prior.q11) - rule.score(1.0, prior.q10)
    if diff0 == diff1:
        raise NotStrict("rule pays both predictions identically; no unique break-even point")
    return diff0 / (diff0 - diff1)


def matrix_from_rule(rule: ScoringRule, prior: Prior) -> PayoffMatrix:
    return PayoffMatrix(
        h11=rule.score(1.0, prior.q11),
        h10=rule.score(1.0, prior.q10),
        h01=rule.score(0.0, prior.q11),
        h00=rule.score(0.0, prior.q10),
    )


def lineset_to_matrix(ls: LineSet) -> PayoffMatrix:
    return PayoffMatrix(h11=ls.ell(1.0, 1), h10=ls.ell(1.0, 0),
                        h01=ls.ell(0.0, 1), h00=ls.ell(0.0, 0))


def normalize(pf: PayoffMatrix) -> PayoffMatrix:
    """Affine rescale of the entries onto [0,1]; entries within 1e-12 of the
    extremes snap exactly so serialized matrices stay stable."""
    entries = pf.entries()
    lo, hi = min(entries), max(entries)
    if hi == lo:
        raise DegenerateMatrix("all payoff entries are equal")
    span = hi - lo

    def scaled(v: float) -> float:
        s = (v - lo) / span
        if s < NORMALIZE_SNAP_TOL:
            return 0.0
        if s > 1.0 - NORMALIZE_SNAP_TOL:
            return 1.0
        return s

    return PayoffMatrix(*(scaled(v) for v in entries))


def lineset_from_k_qstar(k: float, qstar: float, prior: Prior) -> LineSet:
    """Line-set with unit alpha whose truth-quadrant contour slope equals k."""
    if k <= 0.0:
        raise OutOfRange(f"contour slope k must be positive, got {k}")
    if not (prior.q10 < qstar < prior.q11):
        raise OutOfRange(
            f"qstar must lie strictly between q(1|0)={prior.q10} and q(1|1)={prior.q11}, got {qstar}"
        )
    return LineSet(alpha=1.0, beta=-k * prior.q10 / prior.q01, qstar=qstar, gamma=0.0)


def convex_generator(ls: LineSet, prior: Prior) -> ScoringRule:
    """Strictly proper rule agreeing with the line-set at both conditionals.

    Builds a convex C^1 function r on [0,1] whose tangents at q(1|0) and
    q(1|1) are the two lines (a quadratic Bezier arc between the tangency
    points, quadratic extensions outside), then pays the tangent of r at the
    prediction, evaluated at the report.
    """
    q10, q11 = prior.q10, prior.q11
    if not (q10 < ls.qstar < q11):
        raise InfeasibleTangents(
            f"tangent intersection {ls.qstar} not strictly inside ({q10}, {q11})"
        )
    alpha, beta, qs, gamma = ls.alpha, ls.beta, ls.qstar, ls.gamma
    y0 = beta * (q10 - qs) + gamma   # r(q10), tangency on the report-0 line
    y1 = alpha * (q11 - qs) + gamma  # r(q11), tangency on the report-1 line
    u = qs - q10
    w = q11 - qs
    curvature = (alpha - beta) / (2.0 * (q11 - q10))  # extension curvature, > 0

    def bezier_t(x: float) -> float:
        # invert x(t) = q10 + 2tu + t^2 (w - u), monotone on [0,1]
        d = w - u
        if abs(d) < 1e-14:
            return (x - q10) / (2.0 * u)
        return (x - q10) / (u + math.sqrt(u * u + d * (x - q10)))

    def r(x: float) -> float:
        if x < q10:
            return y0 + beta * (x - q10) + curvature * (x - q10) ** 2
        if x > q11:
            return y1 + alpha * (x - q11) + curvature * (x - q11) ** 2
        t = bezier_t(x)
        s = 1.0 - t
        return s * s * y0 + 2.0 * s * t * gamma + t * t * y1

    def r_prime(x: float) -> float:
        if x < q10:
            return beta + 2.0 * curvature * (x - q10)
        if x > q11:
            return alpha + 2.0 * curvature * (x - q11)
        t = bezier_t(x)
        dx = 2.0 * ((1.0 - t) * u + t * w)
        dy = 2.0 * ((1.0 - t) * (gamma - y0) + t * (y1 - gamma))
        return dy / dx

    def tangent_at(q: float, x: float) -> float:
        return r(q) + r_prime(q) * (x - q)

    return ScoringRule(
        value0=lambda q: tangent_at(q, 0.0),
        value1=lambda q: tangent_at(q, 1.0),
        generator=r,
        generator_deriv=r_prime,
    )
