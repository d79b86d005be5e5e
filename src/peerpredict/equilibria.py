"""Complete equilibrium enumeration for binary peer prediction.

Symmetric strategies map affinely to response points (q-hat(1|0), q-hat(1|1));
the break-even point q* splits that plane into four best-response quadrants.
Every equilibrium of a strictly proper mechanism is symmetric, depends only on
q*, and is one of at most nine named points.  The translation map slides any
response point along a payoff contour into the truth quadrant, which makes the
payoffs of all equilibria directly comparable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import OutOfRange, OutsideHull
from .prior import Prior, _require_qstar, _resolution
from .scoring import LineSet, PayoffMatrix

QUADRANT_TOL = 1e-12
HULL_SLACK = 1e-9
MERGE_TOL = 1e-9

# Merge precedence: when two enumerated equilibria coincide, the earlier label wins.
LABELS = ("Zero", "One", "Truth", "Lie", "QStarMix",
          "TruthOne", "TruthZero", "LieOne", "LieZero")


@dataclass(frozen=True)
class SymmetricStrategy:
    """Reporting strategy (t0, t1) = (theta(1|0), theta(1|1))."""

    t0: float
    t1: float

    def __post_init__(self):
        for v in (self.t0, self.t1):
            if not (-HULL_SLACK <= v <= 1.0 + HULL_SLACK):
                raise OutOfRange(f"strategy components must lie in [0,1], got ({self.t0}, {self.t1})")
        object.__setattr__(self, "t0", min(1.0, max(0.0, self.t0)))
        object.__setattr__(self, "t1", min(1.0, max(0.0, self.t1)))


@dataclass(frozen=True)
class ResponsePoint:
    """Peer report-1 probabilities (x, y) = (q-hat(1|0), q-hat(1|1))."""

    x: float
    y: float


@dataclass(frozen=True)
class Equilibrium:
    label: str
    strategy: SymmetricStrategy
    point: ResponsePoint
    payoff: Optional[float] = None


@dataclass(frozen=True)
class EquilibriumSet:
    equilibria: tuple[Equilibrium, ...]

    @property
    def count(self) -> int:
        return len(self.equilibria)

    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.equilibria)

    def __getitem__(self, label: str) -> Equilibrium:
        for e in self.equilibria:
            if e.label == label:
                return e
        raise KeyError(label)

    def __contains__(self, label: str) -> bool:
        return any(e.label == label for e in self.equilibria)

    def informative(self) -> tuple[Equilibrium, ...]:
        return tuple(e for e in self.equilibria if e.label not in ("Zero", "One"))

    def to_json_list(self) -> list[dict]:
        return [
            {"label": e.label, "t0": e.strategy.t0, "t1": e.strategy.t1,
             "x": e.point.x, "y": e.point.y, "payoff": e.payoff}
            for e in self.equilibria
        ]


def _point(prior: Prior, t0: float, t1: float) -> ResponsePoint:
    """x = t0 q(0|0) + t1 q(1|0), y = t0 q(0|1) + t1 q(1|1)."""
    return ResponsePoint(x=t0 * prior.q00 + t1 * prior.q10, y=t0 * prior.q01 + t1 * prior.q11)


def response_point(prior: Prior, s: SymmetricStrategy) -> ResponsePoint:
    """The peer report-1 probabilities (x, y) when everyone plays s."""
    return _point(prior, s.t0, s.t1)


def strategy_from_point(prior: Prior, p: ResponsePoint) -> SymmetricStrategy:
    """Invert the response map; determinant q(1|1) - q(1|0) > 0 makes it unique."""
    det = prior.q11 - prior.q10
    t0 = (p.x * prior.q11 - p.y * prior.q10) / det
    t1 = (p.y * prior.q00 - p.x * prior.q01) / det
    if not (-HULL_SLACK <= t0 <= 1.0 + HULL_SLACK and -HULL_SLACK <= t1 <= 1.0 + HULL_SLACK):
        raise OutsideHull(f"point ({p.x}, {p.y}) is not reachable by any symmetric strategy")
    return SymmetricStrategy(t0=t0, t1=t1)


def _coincide(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Two (x, y) pairs are the same point when both coordinates agree within MERGE_TOL."""
    return abs(a[0] - b[0]) < MERGE_TOL and abs(a[1] - b[1]) < MERGE_TOL


def _equilibria(prior: Prior, qstar: float, matrix: Optional[PayoffMatrix] = None) -> list[tuple]:
    """enumerate_equilibria's rows as (label, t0, t1, point, payoff); each rate is in [0, 1]."""
    _require_qstar(prior, qstar)
    q11, q10, q00, q01 = prior.q11, prior.q10, prior.q00, prior.q01
    candidates = [("Zero", 0.0, 0.0), ("One", 1.0, 1.0), ("Truth", 0.0, 1.0)]
    if q01 <= qstar <= q00:
        candidates.append(("Lie", 1.0, 0.0))
    candidates += [("QStarMix", qstar, qstar),
                   ("TruthOne", (qstar - q10) / q00, 1.0),
                   ("TruthZero", 0.0, qstar / q11)]
    if q01 <= qstar:
        candidates.append(("LieOne", 1.0, (qstar - q01) / q11))
    if qstar <= q00:
        candidates.append(("LieZero", qstar / q00, 0.0))

    ls = matrix.lineset() if matrix is not None else None
    kept: list[tuple] = []
    for label, t0, t1 in candidates:
        if any(_coincide((t0, t1), (e[1], e[2])) for e in kept):
            continue
        point = _point(prior, t0, t1)
        # Zero and One pay h00 and h11 exactly; best_response_payoff would round them
        if matrix is None:
            payoff = None
        elif label == "Zero":
            payoff = matrix.h00
        elif label == "One":
            payoff = matrix.h11
        else:
            payoff = best_response_payoff(prior, ls, point)
        kept.append((label, t0, t1, point, payoff))
    return kept


def enumerate_equilibria(prior: Prior, qstar: float,
                         matrix: Optional[PayoffMatrix] = None) -> EquilibriumSet:
    """All symmetric equilibria of a strict mechanism with break-even qstar.

    Candidates are emitted in LABELS precedence order: Zero, One and Truth
    always; Lie when q(0|1) <= qstar <= q(0|0); QStarMix, TruthOne and
    TruthZero always; LieOne when q(0|1) <= qstar; LieZero when
    qstar <= q(0|0).  A candidate that coincides with an earlier one is
    dropped, so the earlier label wins (count 7, 8 or 9).  When a matrix is
    supplied its payoffs are attached.
    """
    return EquilibriumSet(tuple(Equilibrium(label, SymmetricStrategy(t0, t1), point, payoff)
                                for label, t0, t1, point, payoff in _equilibria(prior, qstar, matrix)))


def equilibrium_set(prior: Prior, matrix: PayoffMatrix) -> EquilibriumSet:
    """Equilibria of the mechanism given by a payoff matrix, with payoffs."""
    return enumerate_equilibria(prior, matrix.qstar(), matrix)


def quadrant(p: ResponsePoint, qstar: float) -> str:
    """Best-response region of a point: R_tru, R_one, R_zero, R_fal, or a
    boundary label when within 1e-12 of an indifference axis."""
    dx = p.x - qstar
    dy = p.y - qstar
    on_x = abs(dx) <= QUADRANT_TOL
    on_y = abs(dy) <= QUADRANT_TOL
    if on_x and on_y:
        return "center"
    if on_x:
        return "x=qstar"
    if on_y:
        return "y=qstar"
    if dx < 0 and dy > 0:
        return "R_tru"
    if dx > 0 and dy > 0:
        return "R_one"
    if dx < 0 and dy < 0:
        return "R_zero"
    return "R_fal"


def best_response_payoff(prior: Prior, ls: LineSet, p: ResponsePoint) -> float:
    """Expected payoff of a best-responding agent when everyone else plays the
    strategy with response point p.

    Per-signal, the best report maximizes the line value, so this single
    expression reproduces the quadrant table and is valid on boundaries.
    """
    best_given_0 = max(ls.ell(p.x, 0), ls.ell(p.x, 1))
    best_given_1 = max(ls.ell(p.y, 0), ls.ell(p.y, 1))
    return prior.q0 * best_given_0 + prior.q1 * best_given_1


def expected_payoff(prior: Prior, pf: PayoffMatrix, s: SymmetricStrategy) -> float:
    """Expected payment of the symmetric profile s under pf, by direct
    expectation over signals, reports and the matched peer."""
    p = response_point(prior, s)

    def mean_payment(z: float, own: int) -> float:
        return z * pf.payment(1, own) + (1.0 - z) * pf.payment(0, own)

    u0 = (1.0 - s.t0) * mean_payment(p.x, 0) + s.t0 * mean_payment(p.x, 1)
    u1 = (1.0 - s.t1) * mean_payment(p.y, 0) + s.t1 * mean_payment(p.y, 1)
    return prior.q0 * u0 + prior.q1 * u1


def translate(prior: Prior, qstar: float, p: ResponsePoint) -> ResponsePoint:
    """Slide p along its best-response payoff contour into the closure of the
    truth quadrant; preserves the payoff for every line-set sharing qstar."""
    strategy_from_point(prior, p)  # membership check; raises OutsideHull
    ratio = prior.q0 / prior.q1  # contour slope in R_one / R_zero is -q(0)/q(1)
    dx = p.x - qstar
    dy = p.y - qstar
    if dx <= QUADRANT_TOL and dy >= -QUADRANT_TOL:  # already in R_tru (closed)
        return p
    if dx > 0 and dy > 0:       # R_one: slide to the axis x = qstar
        return ResponsePoint(qstar, p.y + ratio * dx)
    if dx < 0 and dy < 0:       # R_zero: slide to the axis y = qstar
        return ResponsePoint(p.x + dy / ratio, qstar)
    # R_fal: compose the two axis moves coordinate-wise
    return ResponsePoint(qstar + dy / ratio, qstar + ratio * dx)


def _orientation(a, b, c) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (c[0] - a[0]) * (b[1] - a[1])


def _hull(points: list[tuple[float, float]]) -> list[int]:
    """Monotone-chain convex hull; returns vertex indices in ccw order.
    Collinear boundary points are dropped."""
    idx = sorted(range(len(points)), key=lambda i: points[i])
    if len(idx) <= 2:
        return idx

    def chain(order):
        out = []
        for i in order:
            while len(out) > 1 and _orientation(points[out[-2]], points[out[-1]], points[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = chain(idx)
    upper = chain(idx[::-1])
    return lower[:-1] + upper[:-1]


@dataclass(frozen=True)
class HullReport:
    truth_extreme: bool
    neighbors: Optional[tuple[str, str]]
    lie_coincides_truth: bool
    truth_collinear: bool
    translated: dict


def hull_report(prior: Prior, qstar: float) -> HullReport:
    """Convex hull of the translated informative equilibria, centred on
    whether truth-telling is an extreme point and who its neighbors are."""
    translated = {}
    for label, _, _, point, _ in _equilibria(prior, qstar)[2:]:  # the rows past Zero and One
        f = translate(prior, qstar, point)
        translated[label] = (f.x, f.y)

    truth_pt = translated["Truth"]
    lie_coincides = "Lie" in translated and _coincide(translated["Lie"], truth_pt)

    # dedupe coincident translated points before hull construction; the
    # insertion order of `translated` breaks hull ties
    uniq_labels: list[str] = []
    for lbl, pt in translated.items():
        if not any(_coincide(pt, translated[u]) for u in uniq_labels):
            uniq_labels.append(lbl)

    hull_idx = _hull([translated[lbl] for lbl in uniq_labels])
    hull_labels = [uniq_labels[i] for i in hull_idx]
    truth_extreme = "Truth" in hull_labels

    neighbors = None
    if truth_extreme:
        pos = hull_labels.index("Truth")
        neighbors = (hull_labels[pos - 1], hull_labels[(pos + 1) % len(hull_labels)])

    # collinearity of truth with TruthOne and Lie marks the 8-equilibrium degeneracy
    collinear = False
    if "Lie" in translated and "TruthOne" in translated and not lie_coincides:
        area = _orientation(translated["TruthOne"], truth_pt, translated["Lie"])
        collinear = abs(area) < 1e-12
        if collinear:
            truth_extreme = False
            neighbors = None

    return HullReport(truth_extreme, neighbors, lie_coincides, collinear, translated)


def plot_data(prior: Prior, ls: LineSet, resolution: int) -> list[tuple[float, float, str, float]]:
    """Uniform strategy-grid sample of the best-response plot; rows are
    (x, y, quadrant, payoff), suitable for external rendering."""
    resolution = _resolution(resolution, 2)
    step = 1.0 / (resolution - 1)
    points = (_point(prior, i * step, j * step) for i in range(resolution) for j in range(resolution))
    return [(p.x, p.y, quadrant(p, ls.qstar), best_response_payoff(prior, ls, p)) for p in points]
