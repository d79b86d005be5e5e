import numpy as np
import pytest

from peerpredict import (BRIER, DegenerateMatrix, GenerativeModel, LineSet, NotStrict,
                         OutOfRange, PayoffMatrix, ScoringRule, brier, convex_generator,
                         equilibrium_set, lineset_from_k_qstar, lineset_to_matrix,
                         matrix_from_rule, normalize, prior_from_model)

RESTAURANT = prior_from_model(GenerativeModel.uniform(0.4, 0.8, 10))


def grid_argmax_is_proper(rule: ScoringRule, grid=None) -> bool:
    """Oracle: on a probability grid, reporting the true p maximizes the
    expected score."""
    grid = np.linspace(0.0, 1.0, 101) if grid is None else grid
    scores = np.array([[rule.score(1.0, q) * p + rule.score(0.0, q) * (1 - p) for q in grid]
                       for p in grid])
    return bool(np.all(np.argmax(scores, axis=1) == np.arange(len(grid))))


def shifted_brier(c: float) -> ScoringRule:
    """Brier with both arguments shifted by c before evaluation."""

    def raw(report, q):
        p, s = report - c, q - c
        return 2.0 * p * s + 2.0 * (1.0 - p) * (1.0 - s) - s * s - (1.0 - s) * (1.0 - s)

    return ScoringRule(value0=lambda q: raw(0.0, q), value1=lambda q: raw(1.0, q))


class TestBrier:
    def test_restaurant_entries(self):
        assert brier(1, 28 / 45) == pytest.approx(0.715, abs=5e-4)
        assert brier(0, 17 / 30) == pytest.approx(0.358, abs=5e-4)

    def test_diagonal_value_and_properness(self):
        assert brier(0.5, 0.5) == pytest.approx(0.5, abs=1e-15)
        qs = np.linspace(0, 1, 101)
        vals = [brier(0.5, q) for q in qs]
        assert np.argmax(vals) == 50

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            brier(1, 1.5)

    def test_decomposition(self):
        # B(p,q) = f(q) p + g(q) with f increasing and g' = -f' q
        qs = np.linspace(0.01, 0.99, 99)
        f = np.array([brier(1.0, q) - brier(0.0, q) for q in qs])
        g = np.array([brier(0.0, q) for q in qs])
        assert np.all(np.diff(f) > 0)
        h = qs[1] - qs[0]
        g_prime = (g[2:] - g[:-2]) / (2 * h)
        f_prime = (f[2:] - f[:-2]) / (2 * h)
        assert np.allclose(g_prime, -f_prime * qs[1:-1], atol=1e-6)

    def test_affine_output_shift_stays_proper(self):
        shifted = ScoringRule(value0=lambda q: 3.0 * BRIER.value0(q) - 1.2,
                              value1=lambda q: 3.0 * BRIER.value1(q) - 1.2)
        assert grid_argmax_is_proper(shifted)


class TestBreakEven:
    def test_brier_restaurant(self):
        qs = matrix_from_rule(BRIER, RESTAURANT).qstar()
        assert qs == pytest.approx(107 / 180, abs=1e-12)
        assert RESTAURANT.q10 < qs < RESTAURANT.q11

    def test_lineset_returns_stored_qstar(self):
        ls = LineSet(alpha=1.0, beta=-1.0, qstar=0.4, gamma=0.0)
        assert lineset_to_matrix(ls).qstar() == pytest.approx(0.4, abs=1e-12)

    def test_shifted_brier_same_break_even(self):
        rule = shifted_brier(0.17)
        qs = matrix_from_rule(rule, RESTAURANT).qstar()
        # bisection oracle on PS(., q11) - PS(., q10)
        lo, hi = 0.0, 1.0
        f = lambda z: rule.score(z, RESTAURANT.q11) - rule.score(z, RESTAURANT.q10)
        for _ in range(80):
            mid = (lo + hi) / 2
            if f(lo) * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert qs == pytest.approx((lo + hi) / 2, abs=1e-10)
        assert qs == pytest.approx(matrix_from_rule(BRIER, RESTAURANT).qstar(), abs=1e-10)

    def test_constant_rule_not_strict(self):
        flat = ScoringRule(value0=lambda q: 1.0, value1=lambda q: 1.0)
        with pytest.raises(NotStrict):
            matrix_from_rule(flat, RESTAURANT).qstar()

    def test_strictly_inside_conditionals_random(self):
        # strict rules on positively correlated priors break even strictly
        # between the two conditionals
        rng = np.random.default_rng(77)
        for _ in range(50):
            q10 = rng.uniform(0.05, 0.85)
            q11 = rng.uniform(q10 + 0.05, 0.95)
            from peerpredict import prior_from_conditionals
            prior = prior_from_conditionals(q11, q10)
            c = rng.uniform(-0.3, 0.3)
            qs = matrix_from_rule(shifted_brier(c), prior).qstar()
            assert prior.q10 < qs < prior.q11

    def test_generator_rule_recovers_qstar(self):
        from peerpredict import prior_from_conditionals
        prior = prior_from_conditionals(0.8, 0.45)
        ls = LineSet(alpha=1.0, beta=-1.0, qstar=0.5, gamma=0.0)
        rule = convex_generator(ls, prior)
        assert matrix_from_rule(rule, prior).qstar() == pytest.approx(0.5, abs=1e-12)


class TestMatrices:
    def test_brier_matrix_restaurant(self):
        m = matrix_from_rule(BRIER, RESTAURANT)
        assert m.h11 == pytest.approx(0.715, abs=5e-4)
        assert m.h10 == pytest.approx(0.624, abs=5e-4)
        assert m.h01 == pytest.approx(0.226, abs=5e-4)
        assert m.h00 == pytest.approx(0.358, abs=5e-4)

    def test_lineset_to_matrix_direct_evaluation(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            beta = rng.uniform(-2, 0.5)
            alpha = beta + rng.uniform(0.1, 2.0)
            ls = LineSet(alpha=alpha, beta=beta, qstar=rng.uniform(0.1, 0.9),
                         gamma=rng.uniform(-1, 1))
            m = lineset_to_matrix(ls)
            assert m.h11 == pytest.approx(alpha * (1 - ls.qstar) + ls.gamma, abs=1e-12)
            assert m.h00 == pytest.approx(beta * (0 - ls.qstar) + ls.gamma, abs=1e-12)
            back = m.lineset()
            assert back.alpha == pytest.approx(alpha, abs=1e-12)
            assert back.qstar == pytest.approx(ls.qstar, abs=1e-12)

    def test_equal_slopes_rejected(self):
        with pytest.raises(NotStrict):
            LineSet(alpha=1.0, beta=1.0, qstar=0.5, gamma=0.0)

    def test_slope_k_needs_nonzero_alpha(self):
        # strictly proper (alpha 0, beta -1, q* 0.5), but its truth-quadrant contour is vertical
        with pytest.raises(OutOfRange):
            PayoffMatrix(0.5, 0.0, 0.5, 1.0).slope_k(RESTAURANT)

    def test_constant_matrix_degenerate(self):
        with pytest.raises(DegenerateMatrix):
            normalize(PayoffMatrix(0.3, 0.3, 0.3, 0.3))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_entry_rejected(self, bad):
        with pytest.raises(OutOfRange):
            PayoffMatrix(1.0, 0.0, bad, 0.7)

    def test_lineset_from_dict(self):
        ls = LineSet(alpha=1.0, beta=-1.0, qstar=0.5, gamma=0.0)
        assert LineSet.from_dict(ls.to_dict()) == ls
        good = {"alpha": 2, "beta": 1, "qstar": 0.5, "gamma": 0}
        for key, bad in (("alpha", None), ("beta", [1]), ("qstar", True), ("gamma", {})):
            with pytest.raises(OutOfRange, match=key):
                LineSet.from_dict({**good, key: bad})
        with pytest.raises(OutOfRange):
            LineSet.from_dict([2, 1, 0.5, 0])
        for key, bad in (("alpha", "inf"), ("beta", "-inf"), ("qstar", "nan"), ("gamma", "nan")):
            with pytest.raises(OutOfRange, match="finite"):
                LineSet.from_dict({**good, key: bad})
        with pytest.raises(OutOfRange, match="finite"):
            LineSet(alpha=float("inf"), beta=0.0, qstar=0.5, gamma=0.0)


class TestNormalize:
    def test_forced_example(self):
        out = normalize(PayoffMatrix(h11=2.0, h10=0.0, h01=0.0, h00=1.0))
        assert out.entries() == (1.0, 0.0, 0.0, 0.5)

    def test_idempotent(self):
        m = normalize(PayoffMatrix(0.7, -0.2, 0.1, 1.4))
        assert normalize(m).entries() == m.entries()

    def test_scale_and_shift_invariance(self):
        # normalized matrix generated from (k, q*) cannot depend on alpha, gamma
        prior = RESTAURANT
        k, qs = 0.9, 0.6
        rng = np.random.default_rng(9)
        outs = []
        for _ in range(2):
            alpha = rng.uniform(0.2, 3.0)
            gamma = rng.uniform(-2.0, 2.0)
            beta = -k * alpha * prior.q10 / prior.q01
            m = lineset_to_matrix(LineSet(alpha=alpha, beta=beta, qstar=qs, gamma=gamma))
            outs.append(normalize(m).entries())
        assert outs[0] == pytest.approx(outs[1], abs=1e-12)

    def test_preserves_equilibria_and_slope(self):
        m = matrix_from_rule(BRIER, RESTAURANT)
        nm = normalize(m)
        before = equilibrium_set(RESTAURANT, m)
        after = equilibrium_set(RESTAURANT, nm)
        assert before.labels() == after.labels()
        for e1, e2 in zip(before.equilibria, after.equilibria):
            assert e1.strategy.t0 == pytest.approx(e2.strategy.t0, abs=1e-9)
            assert e1.strategy.t1 == pytest.approx(e2.strategy.t1, abs=1e-9)
        assert m.slope_k(RESTAURANT) == pytest.approx(nm.slope_k(RESTAURANT), abs=1e-9)


class TestLinesetFromKQstar:
    def test_restaurant_beta(self):
        ls = lineset_from_k_qstar(1.0, 107 / 180, RESTAURANT)
        assert ls.beta == pytest.approx(-1.5, abs=1e-12)
        assert ls.alpha == 1.0 and ls.gamma == 0.0

    def test_round_trip_slope(self):
        for k in (0.3, 1.0, 1.7):
            ls = lineset_from_k_qstar(k, 0.6, RESTAURANT)
            m = lineset_to_matrix(ls)
            assert m.slope_k(RESTAURANT) == pytest.approx(k, abs=1e-12)

    def test_small_k_accepted(self):
        ls = lineset_from_k_qstar(1e-9, 0.6, RESTAURANT)
        assert ls.beta < 0

    def test_bad_arguments(self):
        with pytest.raises(OutOfRange):
            lineset_from_k_qstar(0.0, 0.6, RESTAURANT)
        with pytest.raises(OutOfRange):
            lineset_from_k_qstar(1.0, 0.5, RESTAURANT)  # below q(1|0)


class TestConvexGenerator:
    def test_matches_brier_at_conditionals(self):
        ls = matrix_from_rule(BRIER, RESTAURANT).lineset()
        rule = convex_generator(ls, RESTAURANT)
        for q in (RESTAURANT.q10, RESTAURANT.q11):
            assert rule.score(0.0, q) == pytest.approx(brier(0.0, q), abs=1e-9)
            assert rule.score(1.0, q) == pytest.approx(brier(1.0, q), abs=1e-9)

    def test_symmetric_generator(self):
        prior = prior_from_model(GenerativeModel.uniform(0.2, 0.8, 4))  # q* range straddles 0.5
        ls = LineSet(alpha=1.0, beta=-1.0, qstar=0.5, gamma=0.0)
        rule = convex_generator(ls, prior)
        xs = np.linspace(0.0, 1.0, 41)
        for x in xs:
            assert rule.score(x, x) == pytest.approx(rule.score(1.0 - x, 1.0 - x), abs=1e-12)

    def test_properness_on_grid(self):
        ls = LineSet(alpha=0.8, beta=-0.6, qstar=0.6, gamma=0.1)
        rule = convex_generator(ls, RESTAURANT)
        assert grid_argmax_is_proper(rule)

    def test_infeasible_qstar(self):
        from peerpredict import InfeasibleTangents
        ls = LineSet(alpha=1.0, beta=-1.0, qstar=0.2, gamma=0.0)
        with pytest.raises(InfeasibleTangents):
            convex_generator(ls, RESTAURANT)

    def test_generator_convex(self):
        ls = LineSet(alpha=1.3, beta=-0.4, qstar=0.58, gamma=-0.2)
        rule = convex_generator(ls, RESTAURANT)
        xs = np.linspace(0.0, 1.0, 201)
        vals = np.array([rule.score(x, x) for x in xs])  # the generator: truthful expected score
        second = vals[:-2] - 2 * vals[1:-1] + vals[2:]
        assert np.all(second > -1e-12)
