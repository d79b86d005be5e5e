"""Independent oracles: exact best-deviation computation for arbitrary
profiles, brute-force grid scans for equilibria, and a seeded Monte Carlo
simulator of actual mechanism play.  The analytic modules are tested against
these, never the other way round.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import OutOfRange
from .mechanism import MechanismSpec
from .prior import GenerativeModel, Prior
from .scoring import PayoffMatrix

GAIN_TOLERANCE = 1e-6
_BLOCK = 1 << 16


def _response_matrix(prior: Prior) -> np.ndarray:
    # rows: (t0, t1) weights; columns: response point coordinates (x, y)
    return np.array([[prior.q00, prior.q01], [prior.q10, prior.q11]])


def _mean_payment(pf: PayoffMatrix, z, own: int):
    return z * pf.payment(1, own) + (1.0 - z) * pf.payment(0, own)


def deviation_gain(prior: Prior, pf: PayoffMatrix, profile: Sequence[tuple[float, float]],
                   i: int, punishment: float = 0.0,
                   model: Optional[GenerativeModel] = None):
    """Best unilateral improvement for agent i, with an optimal pure-per-signal
    deviation.  Exact: the expected payment is affine in the peer-averaged
    report distribution, so pure responses per signal suffice.
    """
    n = len(profile)
    if not 0 <= i < n:
        raise OutOfRange(f"agent index {i} outside profile of size {n}")
    others = [profile[j] for j in range(n) if j != i]
    M = _response_matrix(prior)
    zbar = np.mean([np.array(s) @ M for s in others], axis=0)  # (z given 0, z given 1)

    if punishment and model is None:
        raise OutOfRange("punishment-aware gains need the generative model")
    # a punishment keyed to the other agents' reports shifts every candidate
    # payoff of agent i by the same constant: the best response is unchanged
    # (order survives a common subtraction) and the shift cancels in the gain

    t0, t1 = profile[i]
    best = []
    u_cur = 0.0
    u_best = 0.0
    for weight, z, t in ((prior.q0, zbar[0], t0), (prior.q1, zbar[1], t1)):
        v0 = _mean_payment(pf, z, 0)
        v1 = _mean_payment(pf, z, 1)
        r = 1.0 if v1 >= v0 else 0.0
        best.append(r)
        u_cur += weight * ((1.0 - t) * v0 + t * v1)
        u_best += weight * max(v0, v1)
    return u_best - u_cur, (best[0], best[1])


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
    """deviation_gain for every agent of a profile at once."""
    results = [deviation_gain(prior, pf, profile, i) for i in range(len(profile))]
    return DeviationReport(gains=tuple(r[0] for r in results),
                           best_responses=tuple(r[1] for r in results))


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
    ts = np.linspace(0.0, 1.0, resolution)
    t0, t1 = np.meshgrid(ts, ts, indexing="ij")
    x = t0 * prior.q00 + t1 * prior.q10
    y = t0 * prior.q01 + t1 * prior.q11
    gain = np.zeros_like(t0)
    for weight, z, t in ((prior.q0, x, t0), (prior.q1, y, t1)):
        v0 = _mean_payment(pf, z, 0)
        v1 = _mean_payment(pf, z, 1)
        gain += weight * (np.maximum(v0, v1) - ((1.0 - t) * v0 + t * v1))
    return ts, gain


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
    if resolution < 11:
        raise OutOfRange(f"resolution must be at least 11, got {resolution}")
    ts, gain = symmetric_gain_grid(prior, pf, resolution)
    mask = gain < gain_tolerance
    seen = np.zeros_like(mask, dtype=bool)
    clusters = []
    for i0 in range(resolution):
        for j0 in range(resolution):
            if not mask[i0, j0] or seen[i0, j0]:
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
            pts = np.array([(ts[a], ts[b]) for a, b in members])
            gains = np.array([gain[a, b] for a, b in members])
            diameter = float(max(np.ptp(pts[:, 0]), np.ptp(pts[:, 1])))
            clusters.append(Cluster(
                center=(float(pts[:, 0].mean()), float(pts[:, 1].mean())),
                diameter=diameter, size=len(members), min_gain=float(gains.min()),
            ))
    return clusters


def product_scan(prior: Prior, pf: PayoffMatrix, n: int, resolution: int,
                 gain_tolerance: float = 1e-9) -> list[tuple]:
    """Exhaustive per-agent product-grid scan for (near-)equilibria with
    possibly unequal strategies; n <= 3 and resolution <= 21 keep the
    combinatorics manageable.  Returns sorted strategy multisets."""
    if n not in (2, 3) or resolution > 21:
        raise OutOfRange("product scans support n in {2,3} and resolution <= 21")
    ts = np.linspace(0.0, 1.0, resolution)
    strategies = np.array([(a, b) for a in ts for b in ts])
    m = len(strategies)
    pts = strategies @ _response_matrix(prior)

    def gains_against(zbar: np.ndarray) -> np.ndarray:
        # zbar: (k, 2) peer averages; returns (m, k) gain of every own strategy
        out = np.zeros((m, zbar.shape[0]))
        for weight, col, t in ((prior.q0, 0, strategies[:, 0:1]),
                               (prior.q1, 1, strategies[:, 1:2])):
            v0 = _mean_payment(pf, zbar[:, col], 0)[None, :]
            v1 = _mean_payment(pf, zbar[:, col], 1)[None, :]
            out += weight * (np.maximum(v0, v1) - ((1.0 - t) * v0 + t * v1))
        return out

    if n == 2:
        ok = gains_against(pts) < gain_tolerance  # ok[a, b]: a best-responds to b
        hits = [(a, b) for a in range(m) for b in range(a, m) if ok[a, b] and ok[b, a]]
        return [tuple(sorted((tuple(strategies[a]), tuple(strategies[b])))) for a, b in hits]

    pair_index = {}
    pair_avg = []
    for b in range(m):
        for c in range(b, m):
            pair_index[(b, c)] = len(pair_avg)
            pair_avg.append((pts[b] + pts[c]) / 2.0)
    pair_avg = np.array(pair_avg)

    ok = np.zeros((m, len(pair_avg)), dtype=bool)
    chunk = 200_000
    for start in range(0, len(pair_avg), chunk):
        ok[:, start:start + chunk] = gains_against(pair_avg[start:start + chunk]) < gain_tolerance

    pairs = list(pair_index)
    profiles = set()
    a_idx, col_idx = np.nonzero(ok)
    for a, col in zip(a_idx, col_idx):
        b, c = pairs[col]
        trio = tuple(sorted((a, b, c)))
        if trio in profiles:
            continue
        ta, tb, tc = trio
        if ok[ta, pair_index[(min(tb, tc), max(tb, tc))]] \
                and ok[tb, pair_index[(min(ta, tc), max(ta, tc))]] \
                and ok[tc, pair_index[(min(ta, tb), max(ta, tb))]]:
            profiles.add(trio)
    return [tuple(tuple(strategies[k]) for k in trio) for trio in sorted(profiles)]


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
    rng = np.random.default_rng(np.random.SeedSequence((seed & (2 ** 64 - 1), block)))
    n, d = spec.n_agents, spec.dimensions
    ps = np.stack([_sample_p(model_list[k], rng, size) for k in range(d)], axis=1)  # (size, d)
    signals = (rng.random((size, n, d)) < ps[:, None, :]).astype(np.int8)
    t0 = profile[:, :, 0][None, :, :]  # (1, n, d)
    t1 = profile[:, :, 1][None, :, :]
    report_prob = t0 + (t1 - t0) * signals
    reports = (rng.random((size, n, d)) < report_prob).astype(np.int8)

    peers = rng.integers(0, n - 1, size=(size, n))
    agent_ids = np.arange(n)[None, :]
    peers = peers + (peers >= agent_ids)
    dims = rng.integers(0, d, size=(size, n)) if d > 1 else np.zeros((size, n), dtype=np.int64)

    tables = np.array([[[spec.matrix_for(k).payment(pb, ob) for ob in (0, 1)]
                        for pb in (0, 1)] for k in range(d)])  # (d, peer, own)
    trial_rows = np.arange(size)[:, None]
    own = reports[trial_rows, agent_ids, dims]
    peer = reports[trial_rows, peers, dims]
    pay = tables[dims, peer, own]

    if spec.punishment > 0.0:
        flat = reports[:, :, 0]
        totals = flat.sum(axis=1, dtype=np.int64)[:, None]
        others = totals - flat
        pay = pay - spec.punishment * ((others == 0) | (others == n - 1))

    return pay.sum(axis=0), (pay * pay).sum(axis=0)


def _sample_p(model: GenerativeModel, rng: np.random.Generator, size: int) -> np.ndarray:
    if model.kind == "uniform":
        return rng.uniform(model.a, model.b, size)
    if model.kind == "beta":
        return rng.beta(model.a, model.b, size)
    return rng.choice(np.array(model.points), p=np.array(model.weights), size=size)


def worker_count() -> int:
    env = os.environ.get("PEERPREDICT_THREADS", "")
    try:
        return max(1, int(env))
    except ValueError:
        return 1


def monte_carlo(model, spec: MechanismSpec, profile, trials: int, seed: int) -> MonteCarloResult:
    """Simulate actual play: draw the latent quality, conditionally i.i.d.
    signals, reports per the profile, then pay every agent through the
    mechanism.  Trials split into fixed blocks with per-block substreams of
    (seed, block), so results are bit-identical for any worker count."""
    if trials < 1:
        raise OutOfRange(f"trials must be positive, got {trials}")
    n, d = spec.n_agents, spec.dimensions
    model_list = list(model) if isinstance(model, (list, tuple)) else [model] * d

    prof = np.asarray(profile, dtype=float)
    if prof.shape == (n, 2):
        prof = prof[:, None, :]
    if prof.shape != (n, d, 2):
        raise OutOfRange(f"profile shape {prof.shape} does not match (n={n}, d={d})")

    blocks = [(b, min(_BLOCK, trials - b * _BLOCK)) for b in range((trials + _BLOCK - 1) // _BLOCK)]
    workers = min(worker_count(), len(blocks))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(
                lambda bs: _mc_block(model_list, spec, prof, seed, bs[0], bs[1]), blocks))
    else:
        results = [_mc_block(model_list, spec, prof, seed, b, s) for b, s in blocks]

    total = np.zeros(n)
    total_sq = np.zeros(n)
    for s, ss in results:  # fixed block order keeps the reduction deterministic
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
