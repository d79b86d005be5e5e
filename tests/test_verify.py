import itertools

import numpy as np
import pytest

from peerpredict import (BRIER, GenerativeModel, LineSet, MechanismSpec, OutOfRange,
                         PayoffMatrix, SymmetricStrategy, deviation_gain,
                         deviation_gain_product, deviation_report, equilibrium_set,
                         expected_payoff, grid_scan, lineset_to_matrix,
                         matrix_from_rule, monte_carlo,
                         prior_from_conditionals, prior_from_model, product_scan,
                         response_point)

RESTAURANT = prior_from_model(GenerativeModel.uniform(0.4, 0.8, 10))
BRIER_MATRIX = matrix_from_rule(BRIER, RESTAURANT)


class TestDeviationGain:
    def test_truth_profile_no_gain(self):
        profile = [(0.0, 1.0)] * 4
        for i in range(4):
            g, _ = deviation_gain(RESTAURANT, BRIER_MATRIX, profile, i)
            assert abs(g) < 1e-12

    def test_break_even_mix_indifferent(self):
        qs = BRIER_MATRIX.qstar()
        profile = [(qs, qs)] * 3
        g, _ = deviation_gain(RESTAURANT, BRIER_MATRIX, profile, 0)
        assert abs(g) < 1e-12

    def test_dominated_report_detected(self):
        # against unanimous report-1 peers, paying h10 > h11 makes reporting 0
        # a strict improvement
        pf = PayoffMatrix(h11=0.2, h10=0.9, h01=0.0, h00=0.1)
        profile = [(1.0, 1.0)] * 3
        g, best = deviation_gain(RESTAURANT, pf, profile, 1)
        assert g > 0
        assert best == (0.0, 0.0)

    def test_matches_symmetric_payoff_difference(self):
        rng = np.random.default_rng(17)
        for trial in range(200):
            # symmetric profiles first, then heterogeneous ones
            if trial < 100:
                profile = [(rng.uniform(), rng.uniform())] * 5
            else:
                profile = [(rng.uniform(), rng.uniform()) for _ in range(5)]
            s = profile[2]
            g, best = deviation_gain(RESTAURANT, BRIER_MATRIX, profile, 2)
            # replaying the best deviation against the mean response point of
            # the other agents reproduces the claimed gain
            points = [response_point(RESTAURANT, SymmetricStrategy(*profile[j]))
                      for j in range(5) if j != 2]
            ox = sum(p.x for p in points) / 4
            oy = sum(p.y for p in points) / 4
            def value(strategy):
                u0 = (1 - strategy[0]) * _m(ox, 0) + strategy[0] * _m(ox, 1)
                u1 = (1 - strategy[1]) * _m(oy, 0) + strategy[1] * _m(oy, 1)
                return RESTAURANT.q0 * u0 + RESTAURANT.q1 * u1
            def _m(z, r):
                return z * BRIER_MATRIX.payment(1, r) + (1 - z) * BRIER_MATRIX.payment(0, r)
            assert g == pytest.approx(value(best) - value(s), abs=1e-12)

    def test_punishment_cancels_exactly(self):
        model = GenerativeModel.uniform(0.5, 0.9, 5)
        rng = np.random.default_rng(23)
        for _ in range(1000):
            profile = [tuple(rng.uniform(size=2)) for _ in range(5)]
            i = int(rng.integers(0, 5))
            plain, best_plain = deviation_gain(RESTAURANT, BRIER_MATRIX, profile, i)
            punished, best_pun = deviation_gain(RESTAURANT, BRIER_MATRIX, profile, i,
                                                punishment=0.8, model=model)
            assert plain == punished
            assert best_plain == best_pun

    def test_rejects_unscorable_profiles(self):
        for profile in ([(0.0, 1.0)], [], [(0.0, 1.0), (5.0, -3.0)],
                        [(0.0, 1.0), (float("nan"), 0.5)], [(0.0, 1.0), (0.2, np.inf)],
                        [0.5, 0.5], [(0.0, 1.0, 0.5)] * 3):
            with pytest.raises(OutOfRange):
                deviation_gain(RESTAURANT, BRIER_MATRIX, profile, 0)
            with pytest.raises(OutOfRange):
                deviation_report(RESTAURANT, BRIER_MATRIX, profile)


class TestGridScan:
    def test_no_clusters_away_from_enumerated(self):
        # with the default tolerance only machine-zero gains survive, so the
        # scan can only pick up neighborhoods of true equilibria
        clusters = grid_scan(RESTAURANT, BRIER_MATRIX, 201)
        eqs = equilibrium_set(RESTAURANT, BRIER_MATRIX)
        assert clusters
        cell = 1.0 / 200
        for c in clusters:
            dist = min(max(abs(c.center[0] - e.strategy.t0),
                           abs(c.center[1] - e.strategy.t1)) for e in eqs.equilibria)
            assert dist <= 1.5 * cell

    def test_completeness_on_fine_grid(self):
        # every grid strategy with a tiny deviation gain sits next to some
        # enumerated equilibrium
        from peerpredict import symmetric_gain_grid
        ts, gains = symmetric_gain_grid(RESTAURANT, BRIER_MATRIX, 201)
        eqs = equilibrium_set(RESTAURANT, BRIER_MATRIX)
        idx = np.argwhere(gains < 1e-6)
        assert len(idx) > 0
        for a, b in idx:
            dist = min(max(abs(ts[a] - e.strategy.t0), abs(ts[b] - e.strategy.t1))
                       for e in eqs.equilibria)
            assert dist <= 1.5 / 200

    def test_constant_matrix_all_indifferent(self):
        flat = PayoffMatrix(0.5, 0.5, 0.5, 0.5)
        clusters = grid_scan(RESTAURANT, flat, 21)
        assert sum(c.size for c in clusters) == 21 * 21
        assert len(clusters) == 1

    def test_coarse_grid_superset(self):
        clusters = grid_scan(RESTAURANT, BRIER_MATRIX, 11, gain_tolerance=1e-3)
        eqs = equilibrium_set(RESTAURANT, BRIER_MATRIX)
        for e in eqs.equilibria:
            dist = min(max(abs(c.center[0] - e.strategy.t0),
                           abs(c.center[1] - e.strategy.t1)) for c in clusters)
            assert dist <= 0.2, e.label

    def test_equilibria_tight_nonequilibria_loose(self):
        eqs = equilibrium_set(RESTAURANT, BRIER_MATRIX)
        for e in eqs.equilibria:
            g, _ = deviation_gain(RESTAURANT, BRIER_MATRIX, [
                (e.strategy.t0, e.strategy.t1)] * 4, 0)
            assert g < 1e-9
        rng = np.random.default_rng(31)
        gains = []
        for _ in range(200):
            s = (rng.uniform(), rng.uniform())
            near = any(abs(s[0] - e.strategy.t0) < 0.05 and abs(s[1] - e.strategy.t1) < 0.05
                       for e in eqs.equilibria)
            if not near:
                gains.append(deviation_gain(RESTAURANT, BRIER_MATRIX, [s] * 4, 0)[0])
        assert np.mean(gains) > 1e-3


class TestProductScan:
    def test_no_asymmetric_equilibria_n3(self):
        profiles = product_scan(RESTAURANT, BRIER_MATRIX, n=3, resolution=21,
                                gain_tolerance=1e-9)
        assert profiles, "scan should at least find the pure symmetric equilibria"
        for profile in profiles:
            assert profile[0] == profile[1] == profile[2], profile

    def test_n2_finds_pure_equilibria(self):
        profiles = product_scan(RESTAURANT, BRIER_MATRIX, n=2, resolution=11)
        flat = {tuple(p) for p in profiles}
        for s in (((0.0, 0.0), (0.0, 0.0)), ((1.0, 1.0), (1.0, 1.0)),
                  ((0.0, 1.0), (0.0, 1.0))):
            assert s in flat

    def test_n3_matches_brute_force(self):
        # every sorted trio of grid strategies, in order, kept when each agent
        # best-responds to the mean response point of the other two
        ts = np.linspace(0.0, 1.0, 4)
        grid = [(a, b) for a in ts for b in ts]
        for matrix, tol in ((BRIER_MATRIX, 1e-9), (BRIER_MATRIX, 0.02),
                            (PayoffMatrix(0.9, 0.2, 0.4, 0.6), 0.05)):
            expect = []
            for trio in itertools.combinations_with_replacement(range(len(grid)), 3):
                profile = [grid[k] for k in trio]
                if all(deviation_gain(RESTAURANT, matrix, profile, i)[0] < tol
                       for i in range(3)):
                    expect.append(tuple(profile))
            got = product_scan(RESTAURANT, matrix, n=3, resolution=4, gain_tolerance=tol)
            if tol > 1e-9:  # the loose tolerances admit asymmetric trios
                assert any(len(set(p)) > 1 for p in expect)
            assert [tuple(map(tuple, p)) for p in got] == expect

    def test_rejects_unsupported_sizes(self):
        for n, resolution in ((2, 0), (2, 1), (3, 1), (4, 5), (3, 22)):
            with pytest.raises(OutOfRange):
                product_scan(RESTAURANT, BRIER_MATRIX, n=n, resolution=resolution)


class TestDeviationReport:
    def test_aggregates_all_agents(self):
        rng = np.random.default_rng(41)
        profiles = [[(0.0, 1.0), (0.0, 1.0), (0.9, 0.9)]]
        profiles += [[tuple(s) for s in rng.uniform(size=(n, 2))] for n in (2, 3, 17, 1000)]
        for profile in profiles:
            rep = deviation_report(RESTAURANT, BRIER_MATRIX, profile)
            assert len(rep.gains) == len(profile)
            for i in range(len(profile)):
                g, best = deviation_gain(RESTAURANT, BRIER_MATRIX, profile, i)
                assert rep.gains[i] == g and rep.best_responses[i] == best
            assert rep.max_gain == max(rep.gains)


class TestDeviationGainProduct:
    def test_average_of_projections(self):
        prior_b = prior_from_conditionals(0.8, 0.45)
        matrix_b = PayoffMatrix(1.0, 0.0, 0.0, 0.9)
        profiles = [[(0.0, 1.0)] * 3, [(0.3, 0.8)] * 3]
        g = deviation_gain_product([RESTAURANT, prior_b], [BRIER_MATRIX, matrix_b],
                                   profiles, 0)
        g0, _ = deviation_gain(RESTAURANT, BRIER_MATRIX, profiles[0], 0)
        g1, _ = deviation_gain(prior_b, matrix_b, profiles[1], 0)
        assert g == pytest.approx((g0 + g1) / 2, abs=1e-15)


class TestMonteCarlo:
    def test_truth_profile_close_to_analytic(self):
        model = GenerativeModel.uniform(0.4, 0.8, 6)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=6)
        result = monte_carlo(model, spec, [(0.0, 1.0)] * 6, trials=10 ** 6, seed=5)
        expect = expected_payoff(RESTAURANT, BRIER_MATRIX, SymmetricStrategy(0, 1))
        for mean, se in zip(result.means, result.stderrs):
            assert abs(mean - expect) < 3 * se

    def test_all_ones_deterministic(self):
        # every payment is the identical float; only summation rounding remains
        model = GenerativeModel.uniform(0.4, 0.8, 4)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=4)
        result = monte_carlo(model, spec, [(1.0, 1.0)] * 4, trials=2000, seed=1)
        assert result.means == pytest.approx((BRIER_MATRIX.h11,) * 4, abs=1e-13)
        assert result.stderrs == pytest.approx((0.0,) * 4, abs=1e-9)

    def test_mppm_all_zero_exact_shift(self):
        model = GenerativeModel.uniform(0.4, 0.8, 4)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=4, punishment=0.25, model=model)
        result = monte_carlo(model, spec, [(0.0, 0.0)] * 4, trials=2000, seed=2)
        assert result.means == pytest.approx((BRIER_MATRIX.h00 - 0.25,) * 4, abs=1e-13)
        assert result.stderrs == pytest.approx((0.0,) * 4, abs=1e-9)

    def test_seed_reproducibility(self):
        model = GenerativeModel.uniform(0.4, 0.8, 5)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=5)
        profile = [(0.2, 0.9)] * 5
        a = monte_carlo(model, spec, profile, trials=30000, seed=99)
        b = monte_carlo(model, spec, profile, trials=30000, seed=99)
        assert a == b
        c = monte_carlo(model, spec, profile, trials=30000, seed=100)
        assert a.means != c.means

    def test_worker_count_invariance(self, monkeypatch):
        model = GenerativeModel.uniform(0.4, 0.8, 5)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=5)
        profile = [(0.3, 0.7)] * 5
        base = monte_carlo(model, spec, profile, trials=200000, seed=4)
        monkeypatch.setenv("PEERPREDICT_THREADS", "4")
        threaded = monte_carlo(model, spec, profile, trials=200000, seed=4)
        assert base == threaded

    def test_oracle_agreement_random_pairs(self):
        rng = np.random.default_rng(12)
        for trial in range(100):
            lo = rng.uniform(0.05, 0.6)
            hi = lo + rng.uniform(0.15, min(0.95 - lo, 0.5))
            model = GenerativeModel.uniform(lo, hi, 3)
            prior = prior_from_model(model)
            qs = prior.q10 + rng.uniform(0.1, 0.9) * (prior.q11 - prior.q10)
            alpha = rng.uniform(0.3, 1.5)
            ls = LineSet(alpha=alpha, beta=alpha - rng.uniform(0.3, 1.5),
                         qstar=qs, gamma=rng.uniform(-0.5, 0.5))
            matrix = lineset_to_matrix(ls)
            eqs = equilibrium_set(prior, matrix)
            e = eqs.equilibria[int(rng.integers(0, eqs.count))]
            spec = MechanismSpec(matrix=matrix, n_agents=3)
            mc = monte_carlo(model, spec, [(e.strategy.t0, e.strategy.t1)] * 3,
                             trials=10 ** 5, seed=trial)
            for mean, se in zip(mc.means, mc.stderrs):
                assert abs(mean - e.payoff) < 4 * max(se, 1e-12), (e.label, trial)

    def test_rejects_rates_outside_unit_interval(self):
        model = GenerativeModel.uniform(0.4, 0.8, 3)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=3)
        for profile in ([(2.0, 3.0), (0.0, 1.0), (-1.0, 1.0)],
                        [(0.0, 1.0), (0.0, float("nan")), (0.0, 1.0)]):
            with pytest.raises(OutOfRange):
                monte_carlo(model, spec, profile, trials=100, seed=0)

    def test_multidim_profile_shape(self):
        model = GenerativeModel.uniform(0.4, 0.8, 3)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=3,
                             dim_matrices=(BRIER_MATRIX, PayoffMatrix(1, 0, 0, 1)))
        profile = [[(0.0, 1.0), (0.0, 1.0)]] * 3
        result = monte_carlo([model, model], spec, profile, trials=5000, seed=3)
        assert len(result.means) == 3

    def test_multidim_payoff_averages_per_bit(self):
        # expected payment of a product profile is the mean of the per-bit
        # expected payments
        model_a = GenerativeModel.uniform(0.4, 0.8, 3)
        model_b = GenerativeModel.uniform(0.55, 0.95, 3)
        prior_b = prior_from_model(model_b)
        matrix_b = PayoffMatrix(1.0, 0.0, 0.0, 0.8)
        spec = MechanismSpec(matrix=BRIER_MATRIX, n_agents=3,
                             dim_matrices=(BRIER_MATRIX, matrix_b))
        s_a, s_b = (0.1, 0.9), (0.0, 1.0)
        profile = [[s_a, s_b]] * 3
        result = monte_carlo([model_a, model_b], spec, profile,
                             trials=2 * 10 ** 5, seed=7)
        expect = 0.5 * (expected_payoff(RESTAURANT, BRIER_MATRIX, SymmetricStrategy(*s_a))
                        + expected_payoff(prior_b, matrix_b, SymmetricStrategy(*s_b)))
        for mean, se in zip(result.means, result.stderrs):
            assert abs(mean - expect) < 4 * se
