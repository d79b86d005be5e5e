"""Binary symmetric priors and the mixture-of-Bernoulli generative models
that induce them.

A prior is fully described by the two conditionals q(1|1) and q(1|0); all
marginals and reverse conditionals follow in closed form.  Positive
correlation (q(1|1) > q(1|0)) is enforced at construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateModel, NotPositivelyCorrelated, OutOfRange

SIGNAL_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True)
class Prior:
    """Common prior over binary signals, given by q11 = q(1|1) and q10 = q(1|0)."""

    q11: float
    q10: float

    def __post_init__(self):
        if not (0.0 < self.q11 < 1.0 and 0.0 < self.q10 < 1.0):
            raise OutOfRange(f"conditionals must lie in (0,1), got ({self.q11}, {self.q10})")
        if self.q11 <= self.q10:
            raise NotPositivelyCorrelated(
                f"positive correlation requires q(1|1) > q(1|0), got {self.q11} <= {self.q10}"
            )

    @property
    def q00(self) -> float:
        return 1.0 - self.q10

    @property
    def q01(self) -> float:
        return 1.0 - self.q11

    @property
    def q1(self) -> float:
        """Marginal probability of signal 1: q(1) = q(1|0) / (1 - q(1|1) + q(1|0))."""
        return self.q10 / (1.0 - self.q11 + self.q10)

    @property
    def q0(self) -> float:
        return 1.0 - self.q1

    @property
    def signal_asymmetric(self) -> bool:
        return abs(self.q00 - self.q11) > SIGNAL_SYMMETRY_TOL

    def mirrored(self) -> "Prior":
        """The prior with the signal labels 0 and 1 exchanged."""
        return Prior(q11=self.q00, q10=self.q01)

    def to_dict(self) -> dict:
        return {
            "q11": self.q11,
            "q10": self.q10,
            "q00": self.q00,
            "q01": self.q01,
            "q1": self.q1,
            "q0": self.q0,
            "signal_asymmetric": self.signal_asymmetric,
        }


def prior_from_conditionals(q11: float, q10: float) -> Prior:
    """Validated prior from the two forward conditionals."""
    return Prior(q11=q11, q10=q10)


@dataclass(frozen=True)
class GenerativeModel:
    """Distribution over the latent Bernoulli parameter p, plus an agent count.

    Signals are conditionally i.i.d. Bernoulli(p) given a single draw of p.
    Supported kinds: "uniform" (interval [a,b]), "beta" (shapes a,b) and
    "discrete" (weighted support points).
    """

    kind: str
    n_agents: int
    a: float = 0.0
    b: float = 0.0
    points: tuple = ()
    weights: tuple = ()

    def __post_init__(self):
        if self.n_agents < 1:
            raise OutOfRange(f"n_agents must be positive, got {self.n_agents}")
        if self.kind == "uniform":
            if not (0.0 <= self.a < self.b <= 1.0):
                raise OutOfRange(f"uniform interval needs 0 <= a < b <= 1, got [{self.a}, {self.b}]")
        elif self.kind == "beta":
            if self.a <= 0.0 or self.b <= 0.0:
                raise OutOfRange(f"beta shapes must be positive, got ({self.a}, {self.b})")
        elif self.kind == "discrete":
            if len(self.points) == 0 or len(self.points) != len(self.weights):
                raise OutOfRange("discrete mixture needs matching, non-empty points and weights")
            if any(w <= 0 for w in self.weights) or any(not 0.0 <= p <= 1.0 for p in self.points):
                raise OutOfRange("discrete mixture needs positive weights and points in [0,1]")
            total = sum(self.weights)
            object.__setattr__(self, "weights", tuple(w / total for w in self.weights))
            object.__setattr__(self, "points", tuple(float(p) for p in self.points))
        else:
            raise OutOfRange(f"unknown model kind {self.kind!r}")

    @classmethod
    def uniform(cls, a: float, b: float, n_agents: int) -> "GenerativeModel":
        return cls(kind="uniform", n_agents=n_agents, a=a, b=b)

    @classmethod
    def beta(cls, a: float, b: float, n_agents: int) -> "GenerativeModel":
        return cls(kind="beta", n_agents=n_agents, a=a, b=b)

    @classmethod
    def discrete(cls, points, weights, n_agents: int) -> "GenerativeModel":
        return cls(kind="discrete", n_agents=n_agents, points=tuple(points), weights=tuple(weights))

    def moment(self, k: int, complement: bool = False) -> float:
        """E[p^k], or E[(1-p)^k] when complement is set; closed form per kind."""
        if k < 0:
            raise OutOfRange("moment order must be non-negative")
        if k == 0:
            return 1.0
        if self.kind == "uniform":
            lo, hi = (1.0 - self.b, 1.0 - self.a) if complement else (self.a, self.b)
            return (hi ** (k + 1) - lo ** (k + 1)) / ((k + 1) * (hi - lo))
        if self.kind == "beta":
            a, b = (self.b, self.a) if complement else (self.a, self.b)
            return math.exp(
                math.lgamma(a + k) - math.lgamma(a) + math.lgamma(a + b) - math.lgamma(a + b + k)
            )
        ps = [1.0 - p for p in self.points] if complement else self.points
        return sum(w * p ** k for w, p in zip(self.weights, ps))

    def with_agents(self, n_agents: int) -> "GenerativeModel":
        return GenerativeModel(
            kind=self.kind, n_agents=n_agents, a=self.a, b=self.b,
            points=self.points, weights=self.weights,
        )

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "n": self.n_agents}
        if self.kind in ("uniform", "beta"):
            d["a"] = self.a
            d["b"] = self.b
        else:
            d["points"] = list(self.points)
            d["weights"] = list(self.weights)
        return d


def prior_from_model(model: GenerativeModel) -> Prior:
    """Induced prior: q(1) = E[p], q(1|1) = E[p^2]/E[p], q(1|0) = E[p(1-p)]/E[1-p]."""
    ep = model.moment(1)
    ep2 = model.moment(2)
    if not (0.0 < ep < 1.0):
        raise DegenerateModel(f"mean of p must lie in (0,1), got {ep}")
    q11 = ep2 / ep
    q10 = (ep - ep2) / (1.0 - ep)
    if q11 <= q10:
        raise DegenerateModel("model variance is zero; induced prior is not positively correlated")
    return Prior(q11=q11, q10=q10)


def epsilon_q(model: GenerativeModel) -> float:
    """Probability that a fixed set of n-1 agents all draw the same signal,
    maximized over the two signals: max(E[p^(n-1)], E[(1-p)^(n-1)])."""
    if model.n_agents < 2:
        raise OutOfRange(f"epsilon_q needs at least 2 agents, got {model.n_agents}")
    m = model.n_agents - 1
    return max(model.moment(m), model.moment(m, complement=True))


def _number(value, name: str, cast=float):
    """cast(value) for a JSON number or numeric string.  A null, list or
    object raises OutOfRange naming the field; a non-numeric string still
    raises ValueError."""
    if not isinstance(value, (int, float, str)):
        raise OutOfRange(f"{name} must be a number, got {value!r}")
    return cast(value)


def model_from_dict(d: dict) -> GenerativeModel:
    if not isinstance(d, dict):
        raise OutOfRange(f"a model must be a JSON object, got {d!r}")
    kind = d.get("kind")
    n_key = "n" if "n" in d else "n_agents"
    n = _number(d.get(n_key, 2), n_key, int)
    if kind == "uniform":
        return GenerativeModel.uniform(_number(d["a"], "a"), _number(d["b"], "b"), n)
    if kind == "beta":
        return GenerativeModel.beta(_number(d["a"], "a"), _number(d["b"], "b"), n)
    if kind == "discrete":
        for key in ("points", "weights"):
            if not isinstance(d[key], (list, tuple)):
                raise OutOfRange(f"discrete {key} must be a list, got {d[key]!r}")
        return GenerativeModel.discrete([_number(p, "a points entry") for p in d["points"]],
                                        [_number(w, "a weights entry") for w in d["weights"]], n)
    raise OutOfRange(f"unknown model kind {kind!r}")


def prior_from_dict(d: dict) -> tuple[Prior, GenerativeModel | None]:
    """Parse the JSON prior schema; returns the prior and, when the prior is
    given generatively, the model it came from."""
    if not isinstance(d, dict):
        raise OutOfRange(f"a prior must be a JSON object, got {d!r}")
    if d.get("kind") == "conditionals":
        return prior_from_conditionals(_number(d["q11"], "q11"), _number(d["q10"], "q10")), None
    model = model_from_dict(d)
    return prior_from_model(model), model
