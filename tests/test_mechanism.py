import math
from fractions import Fraction

import numpy as np
import pytest

from peerpredict import (BRIER, GenerativeModel, MechanismSpec, NeverFocal, OutOfRange,
                         PaymentRound, PayoffMatrix, all_same_report_probability,
                         build_mppm, epsilon_q, equilibrium_set, focality_condition,
                         matrix_from_rule, min_agents_focal, mppm_equilibrium_payoffs, mppm_pay,
                         multidim_pay, optimal_mechanism, ppm_pay, prior_from_model,
                         punishment_level, renormalized)
from peerpredict import IndexOutOfRange
from peerpredict.mechanism import _philox, _rival_table, ppm_pay_rounds

MATRIX = PayoffMatrix(h11=1.0, h10=0.2, h01=0.1, h00=0.7)
MATRIX_B = PayoffMatrix(0.9, 0.0, 0.1, 0.6)
MODEL_0509 = GenerativeModel.uniform(0.5, 0.9, 30)


def reference_pay(spec, reports, seed, rid, i, punish):
    """One payment rebuilt from a fresh Philox stream at counter
    (0, 0, rid, i): word 0 picks the dimension when d > 1, the last word the
    peer; the punishment applies when all other reports are alike."""
    n, d = spec.n_agents, spec.dimensions
    counter = np.array([0, 0, rid, i], dtype=np.uint64)
    words = [int(w) for w in np.random.Philox(key=seed, counter=counter).random_raw(min(d, 2))]
    k = words[0] % d
    j = words[-1] % (n - 1)
    j += j >= i
    peer, own = (reports[j], reports[i]) if d == 1 else (reports[j][k], reports[i][k])
    pay = spec.matrix_for(k).payment(peer, own)
    others = [reports[x] for x in range(n) if x != i]
    if punish and all(b == others[0] for b in others):
        pay -= spec.punishment
    return pay


class TestPaymentStream:
    SEEDS = (0, 5, 2 ** 32 + 7, 2 ** 64 - 1)
    ROUND_IDS = (0, 1, 977, 2 ** 63, 2 ** 64 - 1)
    CASES = [
        (MechanismSpec(matrix=MATRIX, n_agents=5), (1, 0, 1, 1, 0)),
        (MechanismSpec(matrix=MATRIX, n_agents=5, punishment=0.4, model=MODEL_0509),
         (1, 1, 1, 1, 1)),
        (MechanismSpec(matrix=MATRIX, n_agents=5, punishment=0.4, model=MODEL_0509),
         (1, 1, 0, 1, 1)),
        (MechanismSpec(matrix=MATRIX, n_agents=4, dim_matrices=(MATRIX, MATRIX_B)),
         ((1, 0), (0, 0), (1, 1), (0, 1))),
    ]

    @pytest.mark.parametrize("spec, reports", CASES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_entry_point_matches_reference(self, spec, reports, seed):
        for i in range(spec.n_agents):
            for rid in self.ROUND_IDS:
                rnd = PaymentRound(reports=reports, seed=seed, round_id=rid)
                plain = reference_pay(spec, reports, seed, rid, i, punish=False)
                assert ppm_pay(spec, rnd, i) == plain
                assert multidim_pay(spec, rnd, i) == plain
                assert mppm_pay(spec, rnd, i) == reference_pay(spec, reports, seed, rid, i,
                                                               punish=True)
            expected = [reference_pay(spec, reports, seed, rid, i, punish=False)
                        for rid in self.ROUND_IDS]
            for round_ids in (self.ROUND_IDS, np.array(self.ROUND_IDS, dtype=np.uint64)):
                assert list(ppm_pay_rounds(spec, reports, i, seed, round_ids)) == expected


class TestPhilox:
    """_philox against numpy's Philox words 0 and 1 at counter (0, 0, rid, agent)."""

    EDGE_RIDS = (0, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1)

    def triples(self):
        rng = np.random.default_rng(1603073)
        seeds = [0, 2 ** 64 - 1] + rng.integers(0, 2 ** 64, 318, dtype=np.uint64).tolist()
        rids = list(self.EDGE_RIDS) * 20 + rng.integers(0, 2 ** 64, 200, dtype=np.uint64).tolist()
        agents = [0, 10 ** 6] + rng.integers(0, 10 ** 6, 318, endpoint=True).tolist()
        return list(zip(seeds, rids, agents))

    @staticmethod
    def numpy_words(seed, rid, agent):
        counter = np.array([0, 0, rid, agent], dtype=np.uint64)
        return tuple(np.random.Philox(key=seed, counter=counter).random_raw(2).tolist())

    def test_int_path_matches_numpy(self):
        for seed, rid, agent in self.triples():
            assert _philox(seed, rid, agent) == self.numpy_words(seed, rid, agent)

    def test_array_path_matches_numpy(self):
        triples = self.triples()
        w0, w1 = _philox(*(np.array(col, dtype=np.uint64) for col in zip(*triples)))
        assert w0.dtype == w1.dtype == np.uint64
        assert list(zip(w0.tolist(), w1.tolist())) == [self.numpy_words(*t) for t in triples]


class TestPpmPay:
    def test_unanimous_reports(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=6)
        rnd = PaymentRound(reports=(1,) * 6, seed=3)
        assert all(ppm_pay(spec, rnd, i) == MATRIX.h11 for i in range(6))

    def test_two_agents_forced_peer(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=2)
        rnd = PaymentRound(reports=(1, 0), seed=11)
        assert ppm_pay(spec, rnd, 0) == MATRIX.payment(0, 1)
        assert ppm_pay(spec, rnd, 1) == MATRIX.payment(1, 0)

    def test_empirical_mean_matches_pairing_average(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=5)
        reports = (1, 0, 1, 1, 0)
        i = 2
        pays = ppm_pay_rounds(spec, reports, i, seed=7, round_ids=range(10 ** 6))
        peer_values = [MATRIX.payment(reports[j], reports[i]) for j in range(5) if j != i]
        exact = np.mean(peer_values)
        sigma = np.std(peer_values) / np.sqrt(len(pays))
        assert abs(pays.mean() - exact) < 3 * sigma

    def test_batch_equals_scalar(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=4)
        reports = (0, 1, 1, 0)
        batch = ppm_pay_rounds(spec, reports, 1, seed=5, round_ids=range(200))
        for rid in range(200):
            rnd = PaymentRound(reports=reports, seed=5, round_id=rid)
            assert ppm_pay(spec, rnd, 1) == batch[rid]

    def test_index_guard(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=3)
        with pytest.raises(IndexOutOfRange):
            ppm_pay(spec, PaymentRound(reports=(1, 0, 1), seed=0), 3)

    def test_report_width_must_match_dimensions(self):
        spec_d1 = MechanismSpec(matrix=MATRIX, n_agents=3)
        spec_d2 = MechanismSpec(matrix=MATRIX, n_agents=3, dim_matrices=(MATRIX, MATRIX_B))
        with pytest.raises(IndexOutOfRange):
            ppm_pay(spec_d1, PaymentRound(reports=((1, 0), (0, 0), (1, 1))), 0)
        with pytest.raises(IndexOutOfRange):
            multidim_pay(spec_d2, PaymentRound(reports=(1, 0, 1)), 0)

    def test_round_id_range(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=3)
        for rid in (-1, 2 ** 64, np.int64(-1), 1.5, 2.0, np.float64(1.0), True, np.True_, "1",
                    None):
            with pytest.raises(OutOfRange):
                PaymentRound(reports=(1, 0, 1), round_id=rid)
            with pytest.raises(OutOfRange):
                ppm_pay_rounds(spec, (1, 0, 1), 0, seed=0, round_ids=[0, rid])
        for round_ids in (np.array([-1]), np.array([3, -1], dtype=np.int8), [1.5, 2.9],
                          np.array([1.5, 2.9]), np.array([True]), 5, None):
            with pytest.raises(OutOfRange):
                ppm_pay_rounds(spec, (1, 0, 1), 0, seed=0, round_ids=round_ids)

    def test_seed_range(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=3)
        for seed in (-1, 2 ** 64, 2 ** 64 + 3, np.int64(-1), 1.5, None, True):
            with pytest.raises(OutOfRange):
                PaymentRound(reports=(1, 0, 1), seed=seed)
            with pytest.raises(OutOfRange):
                ppm_pay_rounds(spec, (1, 0, 1), 0, seed=seed, round_ids=[0])

    def test_numpy_integers_read_as_python_ints(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=np.int64(4))
        rnd = PaymentRound(reports=(0, 1, 1, 0), seed=np.uint64(2 ** 64 - 1), round_id=np.int64(9))
        assert type(spec.n_agents) is type(rnd.seed) is type(rnd.round_id) is int
        plain = PaymentRound(reports=(0, 1, 1, 0), seed=2 ** 64 - 1, round_id=9)
        assert all(ppm_pay(spec, rnd, np.int32(i)) == ppm_pay(spec, plain, i) for i in range(4))

    def test_agent_index_must_be_integer(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=3)
        rnd = PaymentRound(reports=(1, 0, 1), seed=4, round_id=2)
        for i in (True, 1.5, "1", None):
            for pay in (ppm_pay, mppm_pay):
                with pytest.raises(OutOfRange):
                    pay(spec, rnd, i)
            with pytest.raises(OutOfRange):
                ppm_pay_rounds(spec, (1, 0, 1), i, seed=4, round_ids=[2])
        assert ppm_pay(spec, rnd, 1.0) == ppm_pay(spec, rnd, 1)

    def test_round_id_containers(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=5)
        reports = (1, 0, 1, 1, 0)
        big = [2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1]

        def one_by_one(rids):
            return [ppm_pay(spec, PaymentRound(reports=reports, seed=9, round_id=r), 2)
                    for r in rids]

        for round_ids, rids in ((range(3, 40, 3), range(3, 40, 3)), (big, big),
                                (np.arange(20, dtype=np.int64), range(20)),
                                (np.array(big, dtype=np.uint64), big), ([], [])):
            pays = ppm_pay_rounds(spec, reports, 2, 9, round_ids)
            assert pays.dtype == np.float64 and pays.shape == (len(rids),)
            assert list(pays) == one_by_one(rids)


class TestMppmPay:
    def spec(self, n):
        return MechanismSpec(matrix=MATRIX, n_agents=n, punishment=0.4, model=MODEL_0509)

    def test_all_ones_punished(self):
        spec = self.spec(5)
        rnd = PaymentRound(reports=(1,) * 5, seed=1)
        for i in range(5):
            assert mppm_pay(spec, rnd, i) == MATRIX.h11 - 0.4

    def test_mixed_reports_unpunished(self):
        spec = self.spec(4)
        rnd = PaymentRound(reports=(0, 1, 0, 1), seed=2)
        for i in range(4):
            assert mppm_pay(spec, rnd, i) == ppm_pay(spec, rnd, i)

    def test_selective_punishment(self):
        spec = self.spec(3)
        rnd = PaymentRound(reports=(1, 1, 0), seed=9)
        assert mppm_pay(spec, rnd, 2) == ppm_pay(spec, rnd, 2) - 0.4  # others are (1,1)
        assert mppm_pay(spec, rnd, 0) == ppm_pay(spec, rnd, 0)       # others are (1,0)


class TestPunishmentLevel:
    def test_stated_average(self):
        p = punishment_level(t=0.5, delta_star=0.1, eps_q=0.05)
        assert p == pytest.approx(0.5 / 1.9 + 1.0, abs=1e-9)
        # sandwich holds when the focality condition does
        assert (1 - 0.5) / (1 - 0.05) < p < 0.1 / 0.05

    def test_threshold_collapses_sandwich(self):
        t, ds = 0.4, 0.02
        eps = ds / (1 - t + ds)
        lower = (1 - t) / (1 - eps)
        upper = ds / eps
        assert lower == pytest.approx(upper, abs=1e-12)
        assert punishment_level(t, ds, eps) == pytest.approx(lower, abs=1e-12)

    def test_condition_is_strict(self):
        t, ds = 0.4, 0.02
        eps = ds / (1 - t + ds)
        assert not focality_condition(eps, t, ds)
        assert focality_condition(eps - 1e-9, t, ds)
        assert not focality_condition(eps + 1e-4, t, ds)

    @pytest.mark.parametrize("eps, t, ds", [(0.1, 1.0, 0.0), (0.1, 1.5, 0.1),
                                            (0.05, 0.4, 0.02), (0.01, 0.4, 0.02)])
    def test_condition_is_the_window(self, eps, t, ds):
        # non-empty (1-t)/(1-eps) < P < ds/eps, also where 1 - t + ds <= 0
        assert focality_condition(eps, t, ds) == ((1 - t) / (1 - eps) < ds / eps)

    def test_eps_range_guard(self):
        with pytest.raises(OutOfRange):
            punishment_level(0.5, 0.1, 0.0)


class TestMinAgents:
    def test_bracketing(self):
        model = GenerativeModel.uniform(0.3, 0.8, 2)
        report = optimal_mechanism(prior_from_model(model))
        n = min_agents_focal(model, report.truth_payoff, report.delta_star)
        assert focality_condition(epsilon_q(model.with_agents(n)),
                                  report.truth_payoff, report.delta_star)
        assert not focality_condition(epsilon_q(model.with_agents(n - 1)),
                                      report.truth_payoff, report.delta_star)

    def test_uniform_05_09_threshold(self):
        report = optimal_mechanism(prior_from_model(MODEL_0509))
        n = min_agents_focal(MODEL_0509, report.truth_payoff, report.delta_star)
        assert focality_condition(epsilon_q(MODEL_0509.with_agents(n)),
                                  report.truth_payoff, report.delta_star)
        assert not focality_condition(epsilon_q(MODEL_0509.with_agents(n - 1)),
                                      report.truth_payoff, report.delta_star)

    def test_vanishing_gap_never_focal(self):
        with pytest.raises(NeverFocal):
            min_agents_focal(MODEL_0509, t=0.4, delta_star=0.0)

    def test_mass_at_one_never_focal(self):
        # eps_q cannot fall below the weight of p = 1, so a small threshold
        # is unreachable at any agent count
        model = GenerativeModel.discrete([0.55, 1.0], [0.5, 0.5], 2)
        report = optimal_mechanism(prior_from_model(model))
        assert report.delta_star / (1 - report.truth_payoff + report.delta_star) < 0.5
        with pytest.raises(NeverFocal):
            min_agents_focal(model, report.truth_payoff, report.delta_star, n_max=10 ** 5)

    @pytest.mark.parametrize("t, delta_star, n_star", [(0.9, 1.5, 2), (0.7, 0.01, 9)])
    def test_n_max_is_checked(self, t, delta_star, n_star):
        model = GenerativeModel.uniform(0.3, 0.8, 2)
        for n_max in (1, 0, -3, 2.5, True, "3"):
            with pytest.raises(OutOfRange, match="n_max"):
                min_agents_focal(model, t, delta_star, n_max=n_max)
        assert min_agents_focal(model, t, delta_star) == n_star
        for n_max in (float(n_star), np.int64(n_star)):
            got = min_agents_focal(model, t, delta_star, n_max=n_max)
            assert got == n_star and type(got) is int

    def test_threshold_grows_as_asymmetry_shrinks(self):
        from peerpredict import classify_region
        needed = []
        for width in (0.3, 0.1, 0.02):
            model = GenerativeModel.uniform(0.3, 0.5 + width, 2)
            prior = prior_from_model(model)
            eps = 1e-6 if classify_region(prior).tag == "R3" else None
            report = optimal_mechanism(prior, epsilon=eps)
            needed.append(min_agents_focal(model, report.truth_payoff, report.delta_star))
        assert needed[0] < needed[1] < needed[2]


class TestSameReportProbability:
    def test_truth_profile_closed_form(self):
        m = 7
        value = all_same_report_probability(MODEL_0509, [(0.0, 1.0)] * m)
        expect = MODEL_0509.moment(m) + MODEL_0509.moment(m, complement=True)
        assert value == pytest.approx(expect, abs=1e-12)

    def test_constant_mix_is_p_free(self):
        m = 4
        value = all_same_report_probability(MODEL_0509, [(0.3, 0.3)] * m)
        assert value == pytest.approx(0.3 ** m + 0.7 ** m, abs=1e-12)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(0)
        strategies = [(0.2, 0.9), (0.0, 1.0), (0.5, 0.6)]
        value = all_same_report_probability(MODEL_0509, strategies)
        trials = 10 ** 6
        ps = rng.uniform(0.5, 0.9, trials)
        reports = np.stack([
            rng.random(trials) < (t0 + (t1 - t0) * (rng.random(trials) < ps))
            for t0, t1 in strategies
        ])
        emp = (reports.all(axis=0) | (~reports).all(axis=0)).mean()
        sigma = np.sqrt(value * (1 - value) / trials)
        assert abs(emp - value) < 4 * sigma


def exact_alike(kind, params, strategies):
    """All-alike probability in exact rational arithmetic: each rate r(p) =
    t0 + (t1 - t0) p is expanded into monomials, and E[p^j] is a rational
    closed form for rational parameters."""
    if kind == "discrete":
        points, weights = params
        total = sum(weights)
        return sum(w / total * (math.prod(t0 + (t1 - t0) * p for t0, t1 in strategies)
                                + math.prod(1 - t0 - (t1 - t0) * p for t0, t1 in strategies))
                   for p, w in zip(points, weights))

    def moment(j):
        a, b = params
        if kind == "uniform":
            return (b ** (j + 1) - a ** (j + 1)) / ((j + 1) * (b - a))
        return math.prod((a + i) / (a + b + i) for i in range(j))

    def times(poly, c0, c1):  # poly(p) * (c0 + c1 p)
        return [x * c0 + y * c1 for x, y in zip(poly + [0], [0] + poly)]

    ones, zeros = [Fraction(1)], [Fraction(1)]
    for t0, t1 in strategies:
        ones, zeros = times(ones, t0, t1 - t0), times(zeros, 1 - t0, t0 - t1)
    return sum((o + z) * moment(j) for j, (o, z) in enumerate(zip(ones, zeros)))


class TestExactAlike:
    MODELS = [("beta", (Fraction(3, 10), Fraction(2))), ("beta", (Fraction(1, 2), Fraction(1, 2))),
              ("beta", (Fraction(21, 5), Fraction(7, 10))), ("uniform", (Fraction(1, 2), Fraction(9, 10))),
              ("discrete", ((Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)), (1, 2, 3)))]
    MIXED = [(Fraction(1, 5), Fraction(9, 10)), (Fraction(0), Fraction(1)),
             (Fraction(1, 2), Fraction(3, 5)), (Fraction(1), Fraction(1, 4))]

    @staticmethod
    def model(kind, params):
        if kind == "discrete":
            return GenerativeModel.discrete(*params, n_agents=2)
        return getattr(GenerativeModel, kind)(*map(float, params), n_agents=2)

    def test_matches_rational_arithmetic(self):
        profiles = [[(Fraction(0), Fraction(1))] * m for m in (1, 7, 60)]
        profiles += [[(Fraction(3, 10), Fraction(4, 5))] * 50, [(Fraction(1), Fraction(1, 4))] * 50]
        profiles += [self.MIXED, self.MIXED * 3 + [(Fraction(3, 10), Fraction(4, 5))] * 20]
        for kind, params in self.MODELS:
            model = self.model(kind, params)
            for profile in profiles:
                value = all_same_report_probability(model, [tuple(map(float, s)) for s in profile])
                expect = exact_alike(kind, params, profile)
                assert value == pytest.approx(float(expect), rel=1e-12), (kind, params, profile[:2])

    def test_constant_profiles_are_exactly_one(self):
        for kind, params in self.MODELS:
            for m in (1, 40, 3000):
                model = self.model(kind, params)
                assert all_same_report_probability(model, [(0.0, 0.0)] * m) == 1.0
                assert all_same_report_probability(model, [(1.0, 1.0)] * m) == 1.0

    def test_concentrated_beta_at_large_m(self):
        # both ends of the pmf underflow, and the terms near its middle carry the mass
        a = b = 200.0
        u = np.linspace(0.0, 1.0, 400001)[1:-1]
        r = 0.99 + 0.01 * u
        log_dens = ((a - 1) * np.log(u) + (b - 1) * np.log1p(-u)
                    - math.lgamma(a) - math.lgamma(b) + math.lgamma(a + b))
        expect = np.exp(20000 * np.log(r) + log_dens).sum() * (u[1] - u[0])
        value = all_same_report_probability(GenerativeModel.beta(a, b, 2), [(0.99, 1.0)] * 20000)
        assert value == pytest.approx(expect, rel=1e-9)

    @staticmethod
    def exact_row(model, t0, t1, m):
        """(pi0, pi1) for m agents playing (t0, t1), in Fraction arithmetic over the
        model's own float parameters: the mean of r(p)^m with r(p) = t0 + (t1 - t0) p."""
        def mean_power(t0, t1):
            if model.kind == "discrete":
                return sum(Fraction(w) * (t0 + (t1 - t0) * Fraction(p)) ** m
                           for w, p in zip(model.weights, model.points))
            if t0 == t1:
                return t0 ** m
            a, b = Fraction(model.a), Fraction(model.b)
            r_a, r_b = t0 + (t1 - t0) * a, t0 + (t1 - t0) * b
            return (r_b ** (m + 1) - r_a ** (m + 1)) / ((m + 1) * (t1 - t0) * (b - a))
        t0, t1 = Fraction(t0), Fraction(t1)
        return mean_power(1 - t0, 1 - t1), mean_power(t0, t1)

    @pytest.mark.parametrize("model", [MODEL_0509, GenerativeModel.discrete(
        (0.1, 0.5, 0.9), (1, 2, 3), 2)], ids=["uniform", "discrete"])
    @pytest.mark.parametrize("n", [2, 5, 40, 400])
    def test_rival_table_rows(self, model, n):
        prior = prior_from_model(model)
        optimal = optimal_mechanism(prior, epsilon=1e-6).mechanism
        for matrix in (matrix_from_rule(BRIER, prior), optimal):
            eqs, table = equilibrium_set(prior, matrix), _rival_table(model, matrix, n)
            assert list(table) == list(eqs.labels())
            spec = MechanismSpec(matrix=matrix, n_agents=n, punishment=0.7, model=model)
            pays = mppm_equilibrium_payoffs(spec)
            for e in eqs.equilibria:
                u, pi0, pi1 = table[e.label]
                assert u == e.payoff
                exact = self.exact_row(model, e.strategy.t0, e.strategy.t1, n - 1)
                assert (pi0, pi1) == pytest.approx(tuple(map(float, exact)), rel=1e-12), e.label
                assert pays[e.label] == u - spec.punishment * (pi1 + pi0)

    def test_rejects_rates_outside_unit_interval(self):
        for bad in ([(0.0, 1.5)], [(-0.1, 0.5)], [(float("nan"), 0.5)], [(0.2, 0.9), (0.5, 2.0)]):
            with pytest.raises(OutOfRange):
                all_same_report_probability(MODEL_0509, bad)

    @pytest.mark.parametrize("bad", [[], [(0.1,)], [0.1], [(0.1, 0.2, 0.3)], [("a", "b")],
                                     [(0.2, 0.9), None], None])
    def test_rejects_entries_that_are_not_rate_pairs(self, bad):
        # an empty list would otherwise sum two empty products to a "probability" of 2
        with pytest.raises(OutOfRange):
            all_same_report_probability(MODEL_0509, bad)


class TestMppmFocality:
    def test_truth_decrease_bounded_by_eps_times_p(self):
        spec = build_mppm(MODEL_0509.with_agents(40))
        prior = prior_from_model(spec.model)
        eps = epsilon_q(spec.model)
        base = equilibrium_set(prior, spec.matrix)["Truth"].payoff
        punished = mppm_equilibrium_payoffs(spec)["Truth"]
        decrease = base - punished
        assert decrease <= eps * spec.punishment * (1 + 1e-9)

    def test_uninformative_payoffs_bounded(self):
        spec = build_mppm(MODEL_0509.with_agents(40))
        eps = epsilon_q(spec.model)
        pays = mppm_equilibrium_payoffs(spec)
        t = equilibrium_set(prior_from_model(spec.model), spec.matrix)["Truth"].payoff
        assert pays["Zero"] <= 1 - spec.punishment + 1e-12
        assert pays["One"] <= 1 - spec.punishment + 1e-12
        assert 1 - spec.punishment < t - eps * spec.punishment

    def test_truth_focal_above_threshold(self):
        report = optimal_mechanism(prior_from_model(MODEL_0509))
        n_star = min_agents_focal(MODEL_0509, report.truth_payoff, report.delta_star)
        for n in (n_star, n_star + 5, n_star + 20):
            spec = build_mppm(MODEL_0509.with_agents(n))
            pays = mppm_equilibrium_payoffs(spec)
            truth = pays.pop("Truth")
            assert all(truth > v for v in pays.values()), (n, pays)

    def test_renormalized_preserves_order(self):
        spec = build_mppm(MODEL_0509.with_agents(40))
        flat = renormalized(spec)
        assert 0.0 <= min(flat.matrix.entries()) and max(flat.matrix.entries()) <= 1.0
        assert min(flat.matrix.entries()) - flat.punishment >= -1e-12
        pays = mppm_equilibrium_payoffs(spec)
        flat_pays = mppm_equilibrium_payoffs(flat)
        order = sorted(pays, key=pays.get)
        assert order == sorted(flat_pays, key=flat_pays.get)


class TestMultidim:
    def test_renormalized_scales_every_dimension(self):
        wide = PayoffMatrix(3.0, -2.0, 0.1, 0.6)
        spec = MechanismSpec(matrix=MATRIX, n_agents=3, dim_matrices=(MATRIX, wide))
        flat = renormalized(spec)
        for before, after in zip(spec.dim_matrices, flat.dim_matrices):
            assert all(0.0 <= v <= 1.0 for v in after.entries())
            order = sorted(range(4), key=before.entries().__getitem__)
            assert order == sorted(range(4), key=after.entries().__getitem__)

    def test_d1_reduces_to_ppm(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=4)
        rnd = PaymentRound(reports=(0, 1, 1, 0), seed=13, round_id=5)
        for i in range(4):
            assert multidim_pay(spec, rnd, i) == ppm_pay(spec, rnd, i)

    def test_product_payoff_averages_dimensions(self):
        m2 = PayoffMatrix(0.9, 0.0, 0.1, 0.6)
        spec = MechanismSpec(matrix=MATRIX, n_agents=3, dim_matrices=(MATRIX, m2))
        reports = ((1, 0), (0, 0), (1, 1))
        # exact expectation: uniform over dimension then peer
        for i in range(3):
            exact = np.mean([
                spec.matrix_for(k).payment(reports[j][k], reports[i][k])
                for k in range(2) for j in range(3) if j != i
            ])
            draws = [multidim_pay(spec, PaymentRound(reports=reports, seed=1, round_id=r), i)
                     for r in range(40000)]
            se = np.std(draws) / np.sqrt(len(draws))
            assert abs(np.mean(draws) - exact) < 4 * max(se, 1e-12)

    def test_spec_validation(self):
        for n in (1, 2.5, True, "3", None):
            with pytest.raises(OutOfRange):
                MechanismSpec(matrix=MATRIX, n_agents=n)
        with pytest.raises(OutOfRange):
            MechanismSpec.from_dict({"matrix": MATRIX.to_dict(), "n_agents": 4.5})
        assert type(MechanismSpec(matrix=MATRIX, n_agents=4.0).n_agents) is int
        with pytest.raises(OutOfRange):
            MechanismSpec(matrix=MATRIX, n_agents=3, punishment=0.5)  # no model
        with pytest.raises(OutOfRange):
            MechanismSpec(matrix=MATRIX, n_agents=3, dim_matrices=(MATRIX_B,))
        with pytest.raises(OutOfRange):
            MechanismSpec(matrix=MATRIX, n_agents=3, punishment=0.5, model=MODEL_0509,
                          dim_matrices=(MATRIX, MATRIX_B))
        with pytest.raises(OutOfRange):
            MechanismSpec(matrix=MATRIX, n_agents=3, punishment=float("nan"), model=MODEL_0509)

    def test_equilibrium_payoffs_reject_d_above_1(self):
        # a d > 1 spec pays dim_matrices, never spec.matrix, whose equilibria these would be
        model = GenerativeModel.uniform(0.4, 0.8, 5)
        brier = matrix_from_rule(BRIER, prior_from_model(model))
        spec = MechanismSpec(matrix=optimal_mechanism(prior_from_model(model)).mechanism,
                             n_agents=5, model=model, dim_matrices=(brier, brier))
        with pytest.raises(OutOfRange):
            mppm_equilibrium_payoffs(spec)

    def test_spec_round_trip(self):
        spec = MechanismSpec(matrix=MATRIX, n_agents=5, punishment=0.3, model=MODEL_0509)
        again = MechanismSpec.from_dict(spec.to_dict())
        assert again == spec


D1, D2 = [[1], [0], [1]], [[1, 0], [0, 0], [1, 1]]
ACCEPTED_REPORTS = {
    "ints": ((1, 0, 1), D1),
    "bools": ((True, False, True), D1),
    "numpy integers": ((np.int64(1), np.uint8(0), np.int32(1)), D1),
    "numpy bools": ((np.True_, np.False_, np.True_), D1),
    "list": ([1, 0, 1], D1),
    "1-D array": (np.array([1, 0, 1]), D1),
    "1-D bool array": (np.array([True, False, True]), D1),
    "tuple rows": (((1, 0), (0, 0), (1, 1)), D2),
    "list rows": ([[1, 0], [0, 0], [1, 1]], D2),
    "bool rows": (((True, False), (False, False), (True, True)), D2),
    "1-D array rows": ((np.array([1, 0]), np.array([0, 0]), np.array([1, 1])), D2),
    "2-D array": (np.array([[1, 0], [0, 0], [1, 1]]), D2),
}
REJECTED_REPORTS = {
    "floats": (1.0, 0.0, 1.0),
    "numpy float64": (np.float64(1.0), np.float64(0.0)),
    "numpy float32": (np.float32(1.0), np.float32(0.0)),
    "float array": np.array([1.0, 0.0, 1.0]),
    "float rows": ((1.0, 0.0), (0.0, 1.0)),
    "str entries": ("1", "0", "1"),
    "str": "101",
    "bytes rows": (b"\x01", b"\x00"),
    "bytes": b"\x01\x00",
    "None entry": (1, None, 0),
    "None": None,
    "not bits": (1, 2, 0),
    "negative": (-1, 0, 1),
    "ragged rows": ((1, 0), (1,)),
    "empty": (),
    "zero-width rows": ((), (), ()),
    "zero-width array": np.zeros((3, 0), dtype=int),
    "rows nested deeper than bits": (((0, 1),), ((1, 0),)),
    "3-D array": np.zeros((3, 1, 1), dtype=int),
}


class TestPaymentRoundInputs:
    @pytest.mark.parametrize("reports, bits", ACCEPTED_REPORTS.values(), ids=ACCEPTED_REPORTS)
    def test_accepted(self, reports, bits):
        rnd = PaymentRound(reports=reports, seed=np.uint64(4), round_id=2)
        assert rnd.bits == bits and {type(b) for row in rnd.bits for b in row} == {int}
        assert rnd.ones == sum(row[0] for row in bits)
        spec = MechanismSpec(matrix=MATRIX, n_agents=3,
                             dim_matrices=(MATRIX, MATRIX_B) if len(bits[0]) == 2 else ())
        plain = PaymentRound(reports=tuple(tuple(row) for row in bits), seed=4, round_id=2)
        assert [ppm_pay(spec, rnd, i) for i in range(3)] == [ppm_pay(spec, plain, i)
                                                             for i in range(3)]

    @pytest.mark.parametrize("reports", REJECTED_REPORTS.values(), ids=REJECTED_REPORTS)
    def test_rejected(self, reports):
        with pytest.raises(OutOfRange):
            PaymentRound(reports=reports)

    def test_ones_counts_first_bits(self):
        for reports in ((0, 0, 0), (1, 1, 1), (0, 1, 1, 0, 1)):
            assert PaymentRound(reports=reports).ones == sum(reports)
        assert PaymentRound(reports=((1, 0), (0, 1), (1, 1))).ones == 2


class TestRoundsFromCsv:
    def test_single_bit_rows(self):
        rnd = PaymentRound.from_csv("1\n0\n1\n", seed=4)
        assert rnd.reports == (1, 0, 1)
        spec = MechanismSpec(matrix=MATRIX, n_agents=3)
        assert ppm_pay(spec, rnd, 0) in (MATRIX.payment(0, 1), MATRIX.payment(1, 1))

    def test_multibit_rows(self):
        rnd = PaymentRound.from_csv("1,0\n0,0\n1,1\n")
        assert rnd.reports == ((1, 0), (0, 0), (1, 1))

    def test_ragged_rejected(self):
        with pytest.raises(OutOfRange):
            PaymentRound.from_csv("1,0\n1\n")

    @pytest.mark.parametrize("text", ["1\n1.0\n", "1\na\n", "1\n\n0\n", "1,0\n0,x\n"])
    def test_non_integer_cells_rejected(self, text):
        # a cell that is not an integer literal, or a blank line: bad reports, not a ValueError
        with pytest.raises(OutOfRange):
            PaymentRound.from_csv(text)

    def test_non_bit_rejected(self):
        with pytest.raises(OutOfRange):
            PaymentRound.from_csv("2\n1\n")
        with pytest.raises(OutOfRange):
            PaymentRound(reports=(1, 2, 0))
        with pytest.raises(OutOfRange):
            ppm_pay_rounds(MechanismSpec(matrix=MATRIX, n_agents=3), (1, 2, 0), 0,
                           seed=0, round_ids=[0])
