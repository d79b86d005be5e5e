import numpy as np
import pytest

from peerpredict import (DegenerateModel, GenerativeModel, NotPositivelyCorrelated,
                         OutOfRange, epsilon_q, model_from_dict, prior_from_conditionals,
                         prior_from_dict, prior_from_model)
from peerpredict.prior import _number


class TestPriorFromConditionals:
    def test_restaurant_conditionals(self):
        p = prior_from_conditionals(28 / 45, 17 / 30)
        assert p.q1 == pytest.approx(3 / 5, abs=1e-12)
        assert p.q00 == pytest.approx(13 / 30, abs=1e-12)
        assert p.q01 == pytest.approx(17 / 45, abs=1e-12)
        assert p.signal_asymmetric

    def test_equal_conditionals_rejected(self):
        with pytest.raises(NotPositivelyCorrelated):
            prior_from_conditionals(0.5, 0.5)

    def test_symmetric_case(self):
        p = prior_from_conditionals(0.9, 0.1)
        assert p.q1 == pytest.approx(0.5, abs=1e-12)
        assert p.q00 == pytest.approx(0.9, abs=1e-12)
        assert not p.signal_asymmetric

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            prior_from_conditionals(1.0, 0.5)
        with pytest.raises(OutOfRange):
            prior_from_conditionals(0.5, 0.0)

    def test_bayes_consistency_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            q10 = rng.uniform(0.01, 0.97)
            q11 = rng.uniform(q10 + 0.01, 0.99)
            p = prior_from_conditionals(q11, q10)
            assert p.q01 + p.q11 == pytest.approx(1.0, abs=1e-15)
            assert p.q00 + p.q10 == pytest.approx(1.0, abs=1e-15)
            # symmetry of the joint: P(i=1, j=0) = P(i=0, j=1)
            assert p.q1 * p.q01 == pytest.approx(p.q0 * p.q10, abs=1e-12)

    def test_mirror_swaps_labels(self):
        p = prior_from_conditionals(0.8, 0.3)
        m = p.mirrored()
        assert m.q11 == pytest.approx(p.q00)
        assert m.q10 == pytest.approx(p.q01)
        assert m.q1 == pytest.approx(p.q0)


class TestPriorFromModel:
    def test_restaurant_model_exact(self):
        p = prior_from_model(GenerativeModel.uniform(2 / 5, 4 / 5, 10))
        assert p.q1 == pytest.approx(3 / 5, abs=1e-12)
        assert p.q11 == pytest.approx(28 / 45, abs=1e-12)
        assert p.q10 == pytest.approx(17 / 30, abs=1e-12)

    def test_point_mass_degenerate(self):
        with pytest.raises(DegenerateModel):
            prior_from_model(GenerativeModel.discrete([0.6], [1.0], 5))

    def test_large_beta_shapes_keep_their_digits(self):
        assert GenerativeModel.beta(1e6, 1e6, 4).moment(1) == 0.5
        for a, b in ((1e6, 1e6), (3e5, 2e5)):
            p = prior_from_model(GenerativeModel.beta(a, b, 4))
            assert p.q11 == pytest.approx((a + 1) / (a + b + 1), rel=1e-15)
            assert p.q10 == pytest.approx(a / (a + b + 1), rel=1e-15)
            # each conditional carries one rounding, about 1e-10 of their 2e-6 difference
            assert p.q11 - p.q10 == pytest.approx(1 / (a + b + 1), rel=1e-9)

    def test_moments_against_simulation(self):
        # draw p, then two conditionally i.i.d. signals; the empirical
        # conditionals must agree with the closed forms within 3 sigma
        model = GenerativeModel.uniform(0.5, 0.9, 2)
        p = prior_from_model(model)
        rng = np.random.default_rng(42)
        trials = 10 ** 7
        ps = rng.uniform(0.5, 0.9, trials)
        si = rng.random(trials) < ps
        sj = rng.random(trials) < ps
        for cond, emp_num, emp_den in (
            (p.q11, (si & sj).sum(), si.sum()),
            (p.q10, ((~si) & sj).sum(), (~si).sum()),
        ):
            est = emp_num / emp_den
            sigma = np.sqrt(cond * (1 - cond) / emp_den)
            assert abs(est - cond) < 3 * sigma

    def test_ordering_q11_q1_q10(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.uniform(0.0, 0.8)
            b = rng.uniform(a + 0.05, 1.0)
            p = prior_from_model(GenerativeModel.uniform(a, b, 3))
            assert p.q11 > p.q1 > p.q10


class TestModelValidation:
    def test_rejects_non_finite_and_overflowing_parameters(self):
        inf, nan = float("inf"), float("nan")
        builds = [lambda: GenerativeModel.beta(inf, 2.0, 4),
                  lambda: GenerativeModel.beta(0.5, nan, 4),
                  lambda: GenerativeModel.beta(0.5, 1e308, 4),
                  lambda: GenerativeModel.uniform(0.2, inf, 4),
                  lambda: GenerativeModel.discrete([0.2, nan], [1.0, 1.0], 4),
                  lambda: GenerativeModel.discrete([0.2, 0.8], [1.0, inf], 4),
                  lambda: GenerativeModel.discrete([0.2, 0.8], [1.0, nan], 4),
                  lambda: GenerativeModel.discrete([0.2, 0.8], [1e308, 1e308], 4)]
        for build in builds:
            with pytest.raises(OutOfRange):
                build()

    def test_moment_order_must_be_integer(self):
        model = GenerativeModel.beta(2.0, 3.0, 4)
        for k in (2.5, True, "3", None):
            with pytest.raises(OutOfRange):
                model.moment(k)
        assert model.moment(3.0) == model.moment(3)

    def test_agent_count_must_be_integer(self):
        for n in (4.5, True, "4", None, float("inf")):
            with pytest.raises(OutOfRange):
                GenerativeModel.uniform(0.5, 0.9, n)
        for value in (2.5, float("nan")):
            with pytest.raises(OutOfRange):
                _number(value, "n", int)
        model = GenerativeModel.beta(2.0, 3.0, 4.0)
        assert type(model.n_agents) is int and model == GenerativeModel.beta(2.0, 3.0, 4)
        assert _number(4.0, "n", int) == _number("4", "n", int) == 4

    def test_large_finite_parameters_still_accepted(self):
        model = GenerativeModel.beta(1e3, 1e3, 4)
        assert model.moment(1) == pytest.approx(0.5, abs=1e-12)
        weights = GenerativeModel.discrete([0.2, 0.8], [1e307, 3e307], 4).weights
        assert weights == pytest.approx((0.25, 0.75), abs=1e-15)


class TestEpsilonQ:
    def test_two_agents_reduces_to_marginal(self):
        model = GenerativeModel.uniform(2 / 5, 4 / 5, 2)
        assert epsilon_q(model) == pytest.approx(3 / 5, abs=1e-12)

    def test_beta_moment(self):
        # E[p^2] for Beta(2,2) is 3/10; the complement matches by symmetry
        model = GenerativeModel.beta(2.0, 2.0, 3)
        assert epsilon_q(model) == pytest.approx(3 / 10, abs=1e-12)

    def test_against_cooccurrence_simulation(self):
        model = GenerativeModel.uniform(0.5, 0.9, 30)
        value = epsilon_q(model)
        rng = np.random.default_rng(7)
        trials = 10 ** 7
        ps = rng.uniform(0.5, 0.9, trials)
        counts = rng.binomial(29, ps)
        est_ones = (counts == 29).mean()
        est_zeros = (counts == 0).mean()
        est = max(est_ones, est_zeros)
        sigma = np.sqrt(value * (1 - value) / trials)
        assert abs(est - value) < 3 * sigma

    def test_decreasing_in_agents(self):
        model = GenerativeModel.uniform(0.3, 0.9, 2)
        values = [epsilon_q(model.with_agents(n)) for n in range(2, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_needs_two_agents(self):
        with pytest.raises(OutOfRange):
            epsilon_q(GenerativeModel.uniform(0.2, 0.8, 1))

    def test_discrete_mixture(self):
        model = GenerativeModel.discrete([0.2, 0.9], [0.5, 0.5], 4)
        expected = max(0.5 * 0.2 ** 3 + 0.5 * 0.9 ** 3, 0.5 * 0.8 ** 3 + 0.5 * 0.1 ** 3)
        assert epsilon_q(model) == pytest.approx(expected, abs=1e-15)


class TestJsonSchemas:
    def test_conditionals_schema(self):
        p, model = prior_from_dict({"kind": "conditionals", "q11": 28 / 45, "q10": 17 / 30})
        assert model is None
        assert p.q1 == pytest.approx(3 / 5)

    def test_uniform_schema(self):
        p, model = prior_from_dict({"kind": "uniform", "a": 0.4, "b": 0.8, "n": 10})
        assert model is not None and model.n_agents == 10
        assert p.q11 == pytest.approx(28 / 45)

    def test_model_round_trip(self):
        for d in (
            {"kind": "uniform", "a": 0.3, "b": 0.7, "n": 5},
            {"kind": "beta", "a": 2.0, "b": 3.0, "n": 8},
            {"kind": "discrete", "points": [0.2, 0.6], "weights": [0.25, 0.75], "n": 4},
        ):
            model = model_from_dict(d)
            again = model_from_dict(model.to_dict())
            assert again == model

    def test_unknown_kind(self):
        with pytest.raises(OutOfRange):
            model_from_dict({"kind": "gamma", "a": 1, "b": 2, "n": 3})
