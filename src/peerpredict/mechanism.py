"""Deployable mechanisms: seeded peer-matched payments, the all-same-report
punishment that removes the uninformative equilibria, and the focality
arithmetic tying the punishment level to the agent count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .equilibria import equilibrium_set
from .errors import IndexOutOfRange, NeverFocal, OutOfRange
from .prior import GenerativeModel, _number, epsilon_q, model_from_dict, prior_from_model
from .scoring import PayoffMatrix


@dataclass(frozen=True)
class MechanismSpec:
    """Everything needed to pay a round: payment matrix, optional punishment,
    agent count, the generative model behind the prior, and (for multi-bit
    signals) one matrix per dimension."""

    matrix: PayoffMatrix
    n_agents: int
    punishment: float = 0.0
    model: Optional[GenerativeModel] = None
    dim_matrices: tuple = ()

    def __post_init__(self):
        if self.n_agents < 2:
            raise OutOfRange(f"a mechanism needs at least 2 agents, got {self.n_agents}")
        if not (math.isfinite(self.punishment) and self.punishment >= 0.0):
            raise OutOfRange(f"punishment must be finite and non-negative, got {self.punishment}")
        if self.punishment > 0.0 and self.model is None:
            raise OutOfRange("a punishment level requires the generative model that sets it")
        if len(self.dim_matrices) == 1:
            raise OutOfRange("dim_matrices needs at least 2 matrices; one dimension uses matrix")
        if self.punishment > 0.0 and self.dim_matrices:
            raise OutOfRange("the all-same-report punishment needs single-bit reports")

    @property
    def dimensions(self) -> int:
        return len(self.dim_matrices) if self.dim_matrices else 1

    def matrix_for(self, dim: int) -> PayoffMatrix:
        return self.dim_matrices[dim] if self.dim_matrices else self.matrix

    def to_dict(self) -> dict:
        d = {"matrix": self.matrix.to_dict(), "n_agents": self.n_agents,
             "punishment": self.punishment, "dimensions": self.dimensions}
        if self.model is not None:
            d["model"] = self.model.to_dict()
        if self.dim_matrices:
            d["dim_matrices"] = [m.to_dict() for m in self.dim_matrices]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "MechanismSpec":
        if not isinstance(d, dict):
            raise OutOfRange(f"a mechanism spec must be a JSON object, got {d!r}")
        dims = d.get("dim_matrices", [])
        if not isinstance(dims, (list, tuple)):
            raise OutOfRange(f"dim_matrices must be a list of matrices, got {dims!r}")
        return cls(
            matrix=PayoffMatrix.from_dict(d["matrix"]),
            n_agents=_number(d["n_agents"], "n_agents", int),
            punishment=_number(d.get("punishment", 0.0), "punishment"),
            model=model_from_dict(d["model"]) if "model" in d else None,
            dim_matrices=tuple(PayoffMatrix.from_dict(m) for m in dims),
        )


@dataclass(frozen=True)
class PaymentRound:
    """One round of collected reports; reports[i] is agent i's bit, or a
    length-d bit vector in the multidimensional mechanism.  `bits` holds the
    validated reports as n lists of d ints."""

    reports: tuple
    seed: int = 0
    round_id: int = 0
    bits: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            bits = np.array(self.reports).reshape(len(self.reports), -1)
        except ValueError:  # ragged or empty
            raise OutOfRange("every agent row needs the same number of bit columns") from None
        if bits.dtype.kind not in "biu" or not ((bits == 0) | (bits == 1)).all():
            raise OutOfRange(f"reports must be bits, got {self.reports!r}")
        if not 0 <= self.round_id < 2 ** 64:
            raise OutOfRange(f"round id must lie in [0, 2**64), got {self.round_id}")
        object.__setattr__(self, "bits", bits.tolist())

    @classmethod
    def from_csv(cls, text: str, seed: int = 0, round_id: int = 0) -> "PaymentRound":
        """Parse reports from CSV: one row per agent, d columns of bits."""
        rows = [tuple(int(cell) for cell in line.split(",")) for line in text.strip().splitlines()]
        return cls(reports=tuple(r[0] if len(r) == 1 else r for r in rows),
                   seed=seed, round_id=round_id)


def _pay(spec: MechanismSpec, rnd: PaymentRound, i: int, round_ids, punish: bool) -> np.ndarray:
    """Agent i's payment in each listed round: h_k[peer report, own report] on a
    uniformly drawn dimension k against a uniformly drawn peer, minus the
    punishment when `punish` is set and all others reported alike.  The draws
    are the first raw words of the Philox stream keyed by the seed at counter
    (0, 0, round id, agent); word 0 picks k when d > 1, the last word the peer."""
    n, d, bits = spec.n_agents, spec.dimensions, rnd.bits
    if not 0 <= i < n or len(bits) != n or len(bits[0]) != d:
        raise IndexOutOfRange(f"agent {i} / {len(bits)} reports of width {len(bits[0])} "
                              f"vs n={n}, d={d}")
    penalty = 0.0
    if punish and spec.punishment > 0.0:  # the spec allows punishment only when d = 1
        others = sum(row[0] for row in bits) - bits[i][0]
        penalty = spec.punishment if others in (0, n - 1) else 0.0
    # cols[k][peer report]: agent i's payment on dimension k
    cols = [[spec.matrix_for(k).payment(pb, bits[i][k]) - penalty for pb in (0, 1)]
            for k in range(d)]
    bg = np.random.Philox(key=rnd.seed & (2 ** 64 - 1))
    state = bg.state
    counter = state["state"]["counter"]
    counter[3] = i
    pays = []
    try:
        for rid in round_ids:
            counter[2] = int(rid)  # a Python int raises on a negative id; a numpy one would wrap
            bg.state = state
            # modulo bias is O(n / 2^64), far below payment precision
            if d == 1:
                k, j = 0, bg.random_raw() % (n - 1)
            else:
                w_dim, w_peer = bg.random_raw(2).tolist()
                k, j = w_dim % d, w_peer % (n - 1)
            j += j >= i
            pays.append(cols[k][bits[j][k]])
    except OverflowError:
        raise OutOfRange("round ids must lie in [0, 2**64)") from None
    return np.array(pays)


def ppm_pay(spec: MechanismSpec, rnd: PaymentRound, i: int) -> float:
    """Agent i's payment h[peer report, own report] against a uniformly drawn
    peer, on a uniformly drawn dimension when d > 1; multidim_pay is this function."""
    return float(_pay(spec, rnd, i, (rnd.round_id,), punish=False)[0])


multidim_pay = ppm_pay


def ppm_pay_rounds(spec: MechanismSpec, reports, i: int, seed: int, round_ids) -> np.ndarray:
    """ppm_pay over many round ids with fixed reports, as one array."""
    return _pay(spec, PaymentRound(reports=tuple(reports), seed=seed), i, round_ids, punish=False)


def mppm_pay(spec: MechanismSpec, rnd: PaymentRound, i: int) -> float:
    """ppm_pay minus the punishment when all other agents reported alike."""
    return float(_pay(spec, rnd, i, (rnd.round_id,), punish=True)[0])


def punishment_level(t: float, delta_star: float, eps_q: float) -> float:
    """Midpoint of the feasible punishment window:
    (1-t)/(2(1-eps)) + delta_star/(2 eps)."""
    if not (0.0 < eps_q < 1.0):
        raise OutOfRange(f"eps_q must lie in (0,1), got {eps_q}")
    return (1.0 - t) / (2.0 * (1.0 - eps_q)) + delta_star / (2.0 * eps_q)


def focality_condition(eps_q: float, t: float, delta_star: float) -> bool:
    """True when the punishment window is non-empty:
    eps_q < delta_star / (1 - t + delta_star)."""
    return eps_q < delta_star / (1.0 - t + delta_star)


def min_agents_focal(model: GenerativeModel, t: float, delta_star: float,
                     n_max: int = 10 ** 6) -> int:
    """Smallest agent count whose eps_q satisfies the focality condition.

    eps_q is decreasing in n for a non-degenerate model, so the threshold is
    found by doubling then bisecting."""
    if delta_star <= 0.0:
        raise NeverFocal("non-positive payoff gap; no punishment level works")

    def ok(n: int) -> bool:
        return focality_condition(epsilon_q(model.with_agents(n)), t, delta_star)

    if ok(2):
        return 2
    hi = 4
    while hi <= n_max and not ok(hi):
        hi *= 2
    if hi > n_max:
        if not ok(n_max):
            raise NeverFocal(f"focality condition still fails at n = {n_max}")
        hi = n_max
    lo = hi // 2  # ok(lo) is False, ok(hi) is True
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return hi


def all_same_report_probability(model: GenerativeModel,
                                strategies: Sequence[tuple[float, float]]) -> float:
    """Probability that every listed agent reports the same bit, under
    conditionally i.i.d. signals: E[prod r_j(p)] + E[prod (1 - r_j(p))] with
    r_j(p) = t0_j + (t1_j - t0_j) p.

    Evaluated by Gauss-Legendre quadrature against the mixing density; the
    integrand stays in [0,1], and the node count makes the rule exact for the
    uniform kind (monomial expansions cancel catastrophically here)."""
    m = len(strategies)
    if model.kind == "discrete":
        ps = np.asarray(model.points)
        ws = np.asarray(model.weights)
    else:
        nodes, gl_weights = np.polynomial.legendre.leggauss(max(96, m + 1))
        if model.kind == "uniform":
            ps = 0.5 * (model.b - model.a) * (nodes + 1.0) + model.a
            ws = gl_weights / 2.0  # density 1/(b-a) times interval half-width
        else:
            ps = 0.5 * (nodes + 1.0)
            norm = math.exp(math.lgamma(model.a + model.b)
                            - math.lgamma(model.a) - math.lgamma(model.b))
            dens = norm * ps ** (model.a - 1.0) * (1.0 - ps) ** (model.b - 1.0)
            ws = gl_weights / 2.0 * dens
    ones = np.ones_like(ps)
    zeros = np.ones_like(ps)
    for t0, t1 in strategies:
        r = t0 + (t1 - t0) * ps
        ones *= r
        zeros *= 1.0 - r
    return float(np.sum(ws * (ones + zeros)))


def mppm_equilibrium_payoffs(spec: MechanismSpec) -> dict:
    """Expected per-agent payoff of every enumerated equilibrium under the
    punished mechanism, computed analytically from the generative model."""
    if spec.model is None:
        raise OutOfRange("equilibrium payoffs under punishment need the generative model")
    prior = prior_from_model(spec.model)
    eqs = equilibrium_set(prior, spec.matrix)
    m = spec.n_agents - 1
    out = {}
    for e in eqs.equilibria:
        p_same = all_same_report_probability(spec.model, [(e.strategy.t0, e.strategy.t1)] * m)
        out[e.label] = e.payoff - spec.punishment * p_same
    return out


def build_mppm(model: GenerativeModel, epsilon: Optional[float] = None) -> MechanismSpec:
    """Assemble the punished mechanism for a generative model: the optimal
    matrix for the induced prior plus the punishment keyed to eps_q."""
    from .optimizer import optimal_mechanism

    prior = prior_from_model(model)
    report = optimal_mechanism(prior, epsilon=epsilon)
    p = punishment_level(report.truth_payoff, report.delta_star, epsilon_q(model))
    return MechanismSpec(matrix=report.mechanism, n_agents=model.n_agents,
                         punishment=p, model=model)


def renormalized(spec: MechanismSpec) -> MechanismSpec:
    """Affine rescale so all possible payments (including punished ones) land
    in [0,1]; focality comparisons are preserved.  One map covers the matrix
    and every dimension matrix, so the dimensions stay comparable."""
    entries = [v for m in (spec.matrix, *spec.dim_matrices) for v in m.entries()]
    lo = min(entries) - spec.punishment
    hi = max(entries)
    span = hi - lo
    if span <= 0.0:
        raise OutOfRange("payment range is empty; nothing to rescale")

    def rescale(m: PayoffMatrix) -> PayoffMatrix:
        return PayoffMatrix(*((v - lo) / span for v in m.entries()))

    return MechanismSpec(matrix=rescale(spec.matrix), n_agents=spec.n_agents,
                         punishment=spec.punishment / span, model=spec.model,
                         dim_matrices=tuple(rescale(m) for m in spec.dim_matrices))
