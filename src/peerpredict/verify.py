"""Independent oracles: exact best-deviation computation for arbitrary
profiles, brute-force grid scans for equilibria, and a seeded Monte Carlo
simulator of actual mechanism play.  The analytic modules are tested against
these, never the other way round.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfRange
from .mechanism import MechanismSpec
from .prior import GenerativeModel, Prior, _integer, _resolution, _uint64
from .scoring import PayoffMatrix

GAIN_TOLERANCE = 1e-6
_BLOCK = 1 << 16   # Monte Carlo trials per block, halved while a block exceeds _CELLS
_CELLS = 1 << 20   # elements per large temporary: 8 MiB of float64


def _response_matrix(prior: Prior) -> np.ndarray:
    # rows: (t0, t1) weights; columns: response point coordinates (x, y)
    return np.array([[prior.q00, prior.q01], [prior.q10, prior.q11]])


def _rates(profile) -> np.ndarray:
    """A profile as a float array of report-1 rates, each in [0, 1]."""
    rates = np.asarray(profile, dtype=float)
    if not np.all((rates >= 0.0) & (rates <= 1.0)):  # NaN fails both comparisons
        raise OutOfRange(f"report-1 rates must lie in [0, 1], got {profile!r}")
    return rates


def _peer_rates(prior: Prior, profile: Sequence[tuple[float, float]]):
    """The profile as an (n, 2) array and, per agent, the other n - 1 agents'
    mean report-1 rate given signal 0 and given signal 1."""
    strategies = _rates(profile)
    if strategies.ndim != 2 or strategies.shape[1] != 2 or len(strategies) < 2:
        raise OutOfRange(f"a profile needs at least 2 (t0, t1) strategies, got {profile!r}")
    pts = strategies @ _response_matrix(prior)
    return strategies, (pts.sum(0) - pts) / (len(pts) - 1)


def _gain(prior: Prior, pf: PayoffMatrix, z0, z1, t0, t1):
    """Gain of the best pure report per signal over the strategy (t0, t1),
    and those reports (True for 1), against peers who report 1 at rate z0
    given signal 0 and z1 given signal 1.  Broadcasts over every argument."""
    gain, best = 0.0, []
    for weight, z, t in ((prior.q0, z0, t0), (prior.q1, z1, t1)):
        v0 = z * pf.payment(1, 0) + (1.0 - z) * pf.payment(0, 0)
        v1 = z * pf.payment(1, 1) + (1.0 - z) * pf.payment(0, 1)
        gain = gain + weight * (np.maximum(v0, v1) - ((1.0 - t) * v0 + t * v1))
        best.append(v1 >= v0)
    return gain, best[0], best[1]


def deviation_gain(prior: Prior, pf: PayoffMatrix, profile: Sequence[tuple[float, float]],
                   i: int, punishment: float = 0.0,
                   model: Optional[GenerativeModel] = None):
    """Best unilateral improvement for agent i, with an optimal pure-per-signal
    deviation.  Exact: the expected payment is affine in the peer-averaged
    report distribution, so pure responses per signal suffice.
    """
    strategies, z = _peer_rates(prior, profile)
    i = _integer(i, "agent index")
    if not 0 <= i < len(strategies):
        raise OutOfRange(f"agent index {i} outside profile of size {len(strategies)}")

    if punishment and model is None:
        raise OutOfRange("punishment-aware gains need the generative model")
    # a punishment keyed to the other agents' reports shifts every candidate
    # payoff of agent i by the same constant: the best response is unchanged
    # (order survives a common subtraction) and the shift cancels in the gain

    gain, best0, best1 = _gain(prior, pf, z[i, 0], z[i, 1], strategies[i, 0], strategies[i, 1])
    return float(gain), (float(best0), float(best1))


@dataclass(frozen=True)
class DeviationReport:
    """Per-agent best deviation gains (>= 0 up to rounding) and the pure
    responses achieving them."""

    gains: tuple
    best_responses: tuple

    @property
    def max_gain(self) -> float:
        return max(self.gains)


def deviation_report(prior: Prior, pf: PayoffMatrix,
                     profile: Sequence[tuple[float, float]]) -> DeviationReport:
    """deviation_gain for every agent of a profile at once, in O(n)."""
    strategies, z = _peer_rates(prior, profile)
    gain, best0, best1 = _gain(prior, pf, z[:, 0], z[:, 1], strategies[:, 0], strategies[:, 1])
    return DeviationReport(gains=tuple(gain.tolist()),
                           best_responses=tuple(zip(best0.astype(float).tolist(),
                                                    best1.astype(float).tolist())))


def deviation_gain_product(priors: Sequence[Prior], matrices: Sequence[PayoffMatrix],
                           profiles: Sequence[Sequence[tuple[float, float]]], i: int) -> float:
    """Best deviation gain in the d-dimensional game for agent i of a product
    profile: payoffs average over the uniformly drawn dimension, so the best
    deviation optimizes each dimension independently."""
    gains = [deviation_gain(priors[k], matrices[k], profiles[k], i)[0]
             for k in range(len(priors))]
    return float(np.mean(gains))


def symmetric_gain_grid(prior: Prior, pf: PayoffMatrix, resolution: int):
    """Deviation gain of every symmetric profile on a resolution^2 strategy
    grid (independent of n: the peer average equals the shared strategy)."""
    ts = np.linspace(0.0, 1.0, _resolution(resolution, 2))
    t0, t1 = ts[:, None], ts[None, :]
    x = t0 * prior.q00 + t1 * prior.q10
    y = t0 * prior.q01 + t1 * prior.q11
    return ts, _gain(prior, pf, x, y, t0, t1)[0]


@dataclass(frozen=True)
class Cluster:
    center: tuple[float, float]
    diameter: float
    size: int
    min_gain: float


def grid_scan(prior: Prior, pf: PayoffMatrix, resolution: int,
              gain_tolerance: float = GAIN_TOLERANCE) -> list[Cluster]:
    """Near-equilibrium symmetric strategies on a grid, grouped into
    connected components (4-neighborhood)."""
    resolution = _resolution(resolution, 11)
    ts, gain = symmetric_gain_grid(prior, pf, resolution)
    mask = gain < gain_tolerance
    seen = np.zeros_like(mask, dtype=bool)
    clusters = []
    for i0, j0 in np.argwhere(mask):  # row-major seeds order clusters by their first cell
        if seen[i0, j0]:
            continue
        stack = [(i0, j0)]
        seen[i0, j0] = True
        members = []
        while stack:
            a, b = stack.pop()
            members.append((a, b))
            for da, db in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                na, nb = a + da, b + db
                if 0 <= na < resolution and 0 <= nb < resolution \
                        and mask[na, nb] and not seen[na, nb]:
                    seen[na, nb] = True
                    stack.append((na, nb))
        cells = np.array(members)
        pts = ts[cells]
        diameter = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
        clusters.append(Cluster(
            center=(float(pts[:, 0].mean()), float(pts[:, 1].mean())),
            diameter=diameter, size=len(members),
            min_gain=float(gain[cells[:, 0], cells[:, 1]].min()),
        ))
    return clusters


def product_scan(prior: Prior, pf: PayoffMatrix, n: int, resolution: int,
                 gain_tolerance: float = 1e-9) -> list[tuple]:
    """Exhaustive per-agent product-grid scan for (near-)equilibria with
    possibly unequal strategies; n <= 3 and resolution <= 21 keep the
    combinatorics manageable.  Returns sorted strategy multisets."""
    if n not in (2, 3):
        raise OutOfRange(f"product scans support n in {{2,3}}, got {n}")
    resolution = _resolution(resolution, 2, 21)
    ts = np.linspace(0.0, 1.0, resolution)
    strategies = np.array([(a, b) for a in ts for b in ts])
    m = len(strategies)
    pts = strategies @ _response_matrix(prior)

    def best_responds(z: np.ndarray) -> np.ndarray:
        # z: (k, 2) peer rates; ok[a, j]: own strategy a best-responds to z[j],
        # filled _CELLS cells at a time so no gain temporary outgrows the budget
        ok = np.empty((m, len(z)), dtype=bool)
        step = max(1, _CELLS // m)
        for j in range(0, len(z), step):
            zc = z[j:j + step]
            gain = _gain(prior, pf, zc[None, :, 0], zc[None, :, 1],
                         strategies[:, 0:1], strategies[:, 1:2])[0]
            ok[:, j:j + step] = gain < gain_tolerance
        return ok

    if n == 2:
        ok = best_responds(pts)  # ok[a, b]: a best-responds to b
        hits = zip(*np.nonzero(np.triu(ok & ok.T)))
        return [tuple(sorted((tuple(strategies[a]), tuple(strategies[b])))) for a, b in hits]

    # peer pairs b <= c, one column each, in the row-major order of triu_indices
    first, second = np.triu_indices(m)
    ok = best_responds((pts[first] + pts[second]) / 2.0)
    # own strategy a <= peer pair (b, c) lists each sorted trio once, in order
    a, col = np.nonzero(ok & (np.arange(m)[:, None] <= first))
    b, c = first[col], second[col]

    def column(b, c):
        return b * (2 * m - b - 1) // 2 + c

    keep = ok[b, column(a, c)] & ok[c, column(a, b)]
    return [tuple(tuple(strategies[k]) for k in trio)
            for trio in zip(a[keep], b[keep], c[keep])]


@dataclass(frozen=True)
class MonteCarloResult:
    means: tuple
    stderrs: tuple
    trials: int
    seed: int

    def to_dict(self) -> dict:
        return {"mean": list(self.means), "stderr": list(self.stderrs),
                "trials": self.trials, "seed": self.seed}


def _mc_block(model_list, spec: MechanismSpec, profile: np.ndarray,
              seed: int, block: int, size: int):
    rng = np.random.default_rng(np.random.SeedSequence((seed, block)))
    n, d = spec.n_agents, spec.dimensions
    ps = np.stack([_sample_p(model_list[k], rng, size) for k in range(d)], axis=1)  # (size, d)
    u = rng.random((size, n, d))
    signals = u < ps[:, None, :]
    rng.random(out=u)  # the report uniforms reuse the buffer
    t0, t1 = profile[:, :, 0], profile[:, :, 1]  # (n, d)
    # the rate given signal 1 stays t0 + (t1 - t0), which can differ from t1 in
    # the last bit, so that a seed keeps its reports
    reports = np.where(signals, u < t0 + (t1 - t0), u < t0).view(np.int8)
    del u, signals

    peers = rng.integers(0, n - 1, size=(size, n))
    agent_ids = np.arange(n)[None, :]
    peers += peers >= agent_ids
    dims = rng.integers(0, d, size=(size, n)) if d > 1 else 0

    tables = np.array([[[spec.matrix_for(k).payment(pb, ob) for ob in (0, 1)]
                        for pb in (0, 1)] for k in range(d)])  # (d, peer, own)
    trial_rows = np.arange(size)[:, None]
    own = reports[trial_rows, agent_ids, dims]
    peer = reports[trial_rows, peers, dims]
    del peers
    pay = tables[dims, peer, own]

    if spec.punishment > 0.0:
        flat = reports[:, :, 0]
        totals = flat.sum(axis=1, dtype=np.int64)[:, None]
        others = totals - flat
        pay -= spec.punishment * ((others == 0) | (others == n - 1))

    return pay.sum(axis=0), (pay * pay).sum(axis=0)


def _sample_p(model: GenerativeModel, rng: np.random.Generator, size: int) -> np.ndarray:
    if model.kind == "uniform":
        return rng.uniform(model.a, model.b, size)
    if model.kind == "beta":
        return rng.beta(model.a, model.b, size)
    return rng.choice(np.array(model.points), p=np.array(model.weights), size=size)


def monte_carlo(model, spec: MechanismSpec, profile, trials: int, seed: int) -> MonteCarloResult:
    """Simulate actual play: draw the latent quality, conditionally i.i.d.
    signals, reports per the profile, then pay every agent through the
    mechanism.  Trials split into blocks with per-block substreams of
    (seed, block), run in order; the block size depends on (n, d) alone, so a
    seed gives bit-identical results on every machine."""
    trials, seed = _integer(trials, "trials"), _uint64(seed, "seed")
    if trials < 1:
        raise OutOfRange(f"trials must be positive, got {trials}")
    n, d = spec.n_agents, spec.dimensions
    model_list = list(model) if isinstance(model, (list, tuple)) else [model] * d
    if len(model_list) != d:
        raise OutOfRange(f"{len(model_list)} models given for a spec of d={d} dimensions")

    prof = _rates(profile)
    if prof.shape == (n, 2):
        prof = prof[:, None, :]
    if prof.shape != (n, d, 2):
        raise OutOfRange(f"profile shape {prof.shape} does not match (n={n}, d={d})")

    step = _BLOCK
    while step > 1 and step * n * d > _CELLS:
        step //= 2
    total = np.zeros(n)
    total_sq = np.zeros(n)
    for b in range(-(-trials // step)):  # fixed block order: a deterministic sum
        s, ss = _mc_block(model_list, spec, prof, seed, b, min(step, trials - b * step))
        total += s
        total_sq += ss
    means = total / trials
    if trials > 1:
        var = np.maximum(total_sq - trials * means ** 2, 0.0) / (trials - 1)
        stderr = np.sqrt(var / trials)
    else:
        stderr = np.zeros(n)
    return MonteCarloResult(means=tuple(float(v) for v in means),
                            stderrs=tuple(float(v) for v in stderr),
                            trials=trials, seed=seed)
