"""Deployable mechanisms: seeded peer-matched payments, the all-same-report
punishment that removes the uninformative equilibria, and the focality
arithmetic tying the punishment level to the agent count.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .equilibria import _equilibria
from .errors import IndexOutOfRange, NeverFocal, OutOfRange
from .optimizer import optimal_mechanism
from .prior import (GenerativeModel, _integer, _log_beta_moment, _number, _uint64, epsilon_q,
                    model_from_dict, prior_from_model)
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
        object.__setattr__(self, "n_agents", _integer(self.n_agents, "n_agents"))
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
    validated reports as n lists of d ints, `ones` the number of agents whose first bit is 1."""

    reports: tuple
    seed: int = 0
    round_id: int = 0
    bits: list = field(init=False, repr=False, compare=False)
    ones: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        def seq(r):  # a tuple, a list or a numpy array of at least one dimension
            return isinstance(r, (tuple, list)) or getattr(r, "ndim", 0) > 0
        rows = [r if seq(r) else (r,) for r in self.reports] if seq(self.reports) else []
        # a bit: 0 or 1 as an int, a bool, or a numpy integer or bool scalar (ndim 0)
        bits = [[int(b) if (isinstance(b, int) or getattr(b, "ndim", 1) == 0 and b.dtype.kind in "biu")
                 and b in (0, 1) else -1 for b in row] for row in rows]
        if not (bits and bits[0] and all(len(r) == len(bits[0]) and -1 not in r for r in bits)):
            raise OutOfRange(f"reports must be n rows of d >= 1 bits each, got {self.reports!r:.200}")
        for name in ("seed", "round_id"):
            object.__setattr__(self, name, _uint64(getattr(self, name), name))
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "ones", sum(row[0] for row in bits))

    @classmethod
    def from_csv(cls, text: str, seed: int = 0, round_id: int = 0) -> "PaymentRound":
        """Parse reports from CSV: one row per agent, d columns of bits."""
        try:
            rows = [tuple(int(cell) for cell in line.split(",")) for line in text.strip().splitlines()]
        except ValueError:  # a cell that is not an integer literal, or a blank line
            raise OutOfRange(f"CSV reports must be integer cells, got {text!r:.200}") from None
        return cls(reports=tuple(r[0] if len(r) == 1 else r for r in rows),
                   seed=seed, round_id=round_id)


_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # Philox4x64 round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # and key increments
_MASK = 2 ** 64 - 1


def _mulhilo(a, m: int):
    """High and low 64-bit words of a * m: exact for a Python int a; for a uint64 array
    a, the high word is built from 32-bit pieces, every partial sum below 2**64."""
    if isinstance(a, int):
        p = a * m
        return p >> 64, p & _MASK
    a_lo, a_hi, m_lo, m_hi = a & 0xFFFFFFFF, a >> 32, m & 0xFFFFFFFF, m >> 32
    u = a_hi * m_lo + (a_lo * m_lo >> 32)
    v = a_lo * m_hi + (u & 0xFFFFFFFF)
    return a_hi * m_hi + (u >> 32) + (v >> 32), a * m


def _philox(key: int, rid, i: int):
    """Words 0 and 1 of numpy's Philox(key) stream at counter (0, 0, rid, i), for a
    Python int rid or a uint64 array of them.  The stream increments the counter
    before its first output, so this is the Philox4x64-10 block of (1, 0, rid, i)."""
    x0, x1, x2, x3, k0, k1 = 1, 0, rid, i, key, 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(x0, _M0)
        hi1, lo1 = _mulhilo(x2, _M1)
        x0, x1, x2, x3 = hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1, lo0
        k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
    return x0, x1


def _pay(spec: MechanismSpec, rnd: PaymentRound, i: int, rid, punish: bool):
    """Agent i's payment in round rid, or their float64 array over a uint64 array rid:
    h_k[peer report, own report] on a uniformly drawn dimension k against a uniformly
    drawn peer, minus the punishment when `punish` is set and all others reported alike
    (a punished spec has d = 1, so the others' 1 reports number rnd.ones - bits[i][0]).
    The draws are words 0 and 1 of the Philox stream keyed by the seed at counter
    (0, 0, round id, agent); word 0 picks k when d > 1, the last word drawn the peer."""
    n, d, bits = spec.n_agents, spec.dimensions, rnd.bits
    i = _integer(i, "agent index")
    if not 0 <= i < n or len(bits) != n or len(bits[0]) != d:
        raise IndexOutOfRange(f"agent {i} / {len(bits)} reports of width {len(bits[0])} "
                              f"vs n={n}, d={d}")
    penalty = spec.punishment if punish and rnd.ones - bits[i][0] in (0, n - 1) else 0.0
    # cols[k][peer report]: agent i's payment on dimension k
    cols = [[spec.matrix_for(k).payment(pb, bits[i][k]) - penalty for pb in (0, 1)]
            for k in range(d)]
    w0, w1 = _philox(rnd.seed, rid, i)
    # modulo bias is O(n / 2^64), far below payment precision
    k, j = w0 % d, (w1 if d > 1 else w0) % (n - 1)
    j += j >= i
    if isinstance(rid, int):
        return cols[k][bits[j][k]]
    import numpy as np
    return np.array(cols)[k, np.array(bits)[j, k]]


def ppm_pay(spec: MechanismSpec, rnd: PaymentRound, i: int) -> float:
    """Agent i's payment h[peer report, own report] against a uniformly drawn
    peer, on a uniformly drawn dimension when d > 1; multidim_pay is this function."""
    return float(_pay(spec, rnd, i, rnd.round_id, punish=False))


multidim_pay = ppm_pay


def ppm_pay_rounds(spec: MechanismSpec, reports, i: int, seed: int, round_ids):
    """ppm_pay over many round ids with fixed reports, as one float64 array."""
    import numpy as np

    try:
        ids = list(round_ids)
        if bool in map(type, ids):  # operator.index would read True as 1
            raise TypeError
        ids = np.fromiter(map(operator.index, ids), np.uint64, len(ids))  # range-checks each id
    except (TypeError, OverflowError):
        raise OutOfRange("round ids must be an iterable of integers in [0, 2**64)") from None
    return _pay(spec, PaymentRound(reports=tuple(reports), seed=seed), i, ids, punish=False)


def mppm_pay(spec: MechanismSpec, rnd: PaymentRound, i: int) -> float:
    """ppm_pay minus the punishment when all other agents reported alike."""
    return float(_pay(spec, rnd, i, rnd.round_id, punish=True))


def punishment_level(t: float, delta_star: float, eps_q: float) -> float:
    """Midpoint of the feasible punishment window:
    (1-t)/(2(1-eps)) + delta_star/(2 eps)."""
    if not (0.0 < eps_q < 1.0):
        raise OutOfRange(f"eps_q must lie in (0,1), got {eps_q}")
    return (1.0 - t) / (2.0 * (1.0 - eps_q)) + delta_star / (2.0 * eps_q)


def focality_condition(eps_q: float, t: float, delta_star: float) -> bool:
    """True when the punishment window (1-t)/(1-eps_q) < P < delta_star/eps_q is
    non-empty: eps_q (1 - t + delta_star) < delta_star, written without a division."""
    return eps_q * (1.0 - t + delta_star) < delta_star


def min_agents_focal(model: GenerativeModel, t: float, delta_star: float,
                     n_max: int = 10 ** 6) -> int:
    """Smallest agent count whose eps_q satisfies the focality condition.

    eps_q is decreasing in n for a non-degenerate model, so the threshold is
    found by doubling then bisecting."""
    n_max = _integer(n_max, "n_max")
    if n_max < 2:
        raise OutOfRange(f"n_max must be at least 2, got {n_max}")
    if delta_star <= 0.0:
        raise NeverFocal("non-positive payoff gap; no punishment level works")

    def ok(n: int) -> bool:
        return focality_condition(epsilon_q(model.with_agents(n)), t, delta_star)

    lo, hi = 1, 2  # ok(lo) is False, or lo = 1, below every agent count
    while not ok(hi):
        if hi == n_max:
            raise NeverFocal(f"focality condition still fails at n = {n_max}")
        lo, hi = hi, min(2 * hi, n_max)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def all_same_report_probability(model: GenerativeModel,
                                strategies: Sequence[tuple[float, float]]) -> float:
    """Probability that every listed agent reports the same bit, under
    conditionally i.i.d. signals: E[prod r_j(p)] + E[prod (1 - r_j(p))] with
    r_j(p) = (1 - p) t0_j + p t1_j, exact as a sum of nonnegative terms."""
    try:
        groups = Counter(map(tuple, strategies))
        ok = groups and all(len(s) == 2 and all(0.0 <= t <= 1.0 for t in s) for s in groups)
    except TypeError:  # an entry that is not a pair of numbers
        ok = False
    if not ok:
        raise OutOfRange("strategies must be a non-empty list of (t0, t1) report rates in [0,1], "
                         f"got {strategies!r:.200}")
    pi0, pi1 = _alike(model, [(t0, t1, c) for (t0, t1), c in groups.items()])
    return pi1 + pi0


def _alike(model: GenerativeModel, groups: list) -> tuple:
    """(pi0, pi1): the probabilities that all agents of the (t0, t1, c) groups, c agents each
    reporting 1 at rate (1 - p) t0 + p t1, report 0, and that all report 1.  0.0 + t reads
    an int rate as a float, as 1.0 - t does."""
    return (_all_ones(model, [(1.0 - t0, 1.0 - t1, c) for t0, t1, c in groups]),
            _all_ones(model, [(0.0 + t0, 0.0 + t1, c) for t0, t1, c in groups]))


def _all_ones(model: GenerativeModel, groups: list) -> float:
    """E[prod r(p)^c] over (t0, t1, c) groups.  Constant groups factor out exactly.
    Otherwise p = lo + (hi - lo) u with u ~ Beta(a, b) (Beta(1, 1) for the uniform
    kind), so with x = r(lo), y = r(hi) a group is sum_k x^(c-k) y^k C(c,k) u^k (1-u)^(c-k);
    the groups multiply into one such Bernstein form, whose mean takes the BetaBinomial pmf."""
    const = math.prod(t0 ** c for t0, t1, c in groups if t0 == t1)
    groups = [g for g in groups if g[0] != g[1]]
    if not (const and groups):
        return const
    if model.kind == "discrete":
        return const * sum(w * math.prod(((1.0 - p) * t0 + p * t1) ** c for t0, t1, c in groups)
                           for w, p in zip(model.weights, model.points))
    uniform = model.kind == "uniform"
    lo, hi, a, b = (model.a, model.b, 1.0, 1.0) if uniform else (0.0, 1.0, model.a, model.b)
    coef = []
    for t0, t1, c in groups:
        x, y = (1.0 - lo) * t0 + lo * t1, (1.0 - hi) * t0 + hi * t1
        g = [x ** (c - k) * y ** k for k in range(c + 1)]
        m = len(coef) - 1  # product of the forms of degrees m and c
        coef = g if not coef else [
            sum(coef[i] * g[k - i] * (math.comb(m, i) * math.comb(c, k - i) / math.comb(m + c, k))
                for i in range(max(0, k - c), min(m, k) + 1)) for k in range(m + c + 1)]
    # The pmf steps inward from both ends, P_{a,b}(k) = P_{b,a}(c - k), from E[(1-u)^c] (1 - u is
    # Beta(b, a), or 1/(c+1) for uniform u) under a log scale that keeps it from over/underflow.
    c, total = len(coef) - 1, 0.0
    for s, t, d, steps in ((a, b, coef, c // 2), (b, a, coef[::-1], c - 1 - c // 2)):
        scale = -math.log1p(c) if uniform else _log_beta_moment(t, s, c)
        v, acc = 1.0, d[0]
        for k in range(steps):
            v *= (c - k) * (s + k) / ((k + 1) * (t + c - k - 1))
            acc += v * d[k + 1]
            if v > 1e280:
                scale, acc, v = scale + math.log(v), acc / v, 1.0
        total += math.exp(scale + math.log(acc)) if acc > 0.0 else 0.0
    return const * total


def _rival_table(model: GenerativeModel, matrix: PayoffMatrix, n: int) -> dict:
    """{label: (u, pi0, pi1)} over the matrix's equilibria: the unpunished payoff u and the
    probabilities that all n - 1 other agents playing the equilibrium report 0, and 1."""
    rows = _equilibria(prior_from_model(model), matrix.qstar(), matrix)
    return {label: (u, *_alike(model, [(t0, t1, n - 1)])) for label, t0, t1, _, u in rows}


def mppm_equilibrium_payoffs(spec: MechanismSpec) -> dict:
    """Expected per-agent payoff of every enumerated equilibrium under the
    punished mechanism, computed analytically from the generative model."""
    if spec.model is None:
        raise OutOfRange("equilibrium payoffs under punishment need the generative model")
    if spec.dim_matrices:
        raise OutOfRange("equilibrium payoffs need a single-bit spec; d > 1 pays dim_matrices")
    return {label: u - spec.punishment * (pi1 + pi0)
            for label, (u, pi0, pi1) in _rival_table(spec.model, spec.matrix, spec.n_agents).items()}


def build_mppm(model: GenerativeModel, epsilon: Optional[float] = None) -> MechanismSpec:
    """Assemble the punished mechanism for a generative model: the optimal
    matrix for the induced prior plus the punishment keyed to eps_q."""
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
