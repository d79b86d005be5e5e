import numpy as np
import pytest

from peerpredict import (BRIER, GenerativeModel, LineSet, OutOfRange, OutsideHull,
                         ResponsePoint, SymmetricStrategy, best_response_payoff,
                         brier, enumerate_equilibria, equilibrium_set, expected_payoff,
                         hull_report, lineset_from_k_qstar, lineset_to_matrix,
                         matrix_from_rule, normalize, plot_data, prior_from_conditionals,
                         prior_from_model, quadrant, response_point, strategy_from_point,
                         translate)
from peerpredict.equilibria import LABELS

RESTAURANT = prior_from_model(GenerativeModel.uniform(0.4, 0.8, 10))
BRIER_MATRIX = matrix_from_rule(BRIER, RESTAURANT)
QSTAR_BRIER = 107 / 180

# wide prior with q(0|1) < q(1|0) < q(0|0) < q(1|1): supports all nine equilibria
NINE_PRIOR = prior_from_conditionals(0.8, 0.45)


def random_lineset(rng, qstar):
    alpha = rng.uniform(0.2, 2.0)
    return LineSet(alpha=alpha, beta=alpha - rng.uniform(0.3, 2.5),
                   qstar=qstar, gamma=rng.uniform(-1.0, 1.0))


class TestResponseMap:
    def test_pure_strategy_images(self):
        assert response_point(RESTAURANT, SymmetricStrategy(0, 1)) == ResponsePoint(
            RESTAURANT.q10, RESTAURANT.q11)
        assert response_point(RESTAURANT, SymmetricStrategy(1, 1)) == ResponsePoint(1, 1)

    def test_constant_mix_fixed_point(self):
        p = response_point(RESTAURANT, SymmetricStrategy(0.5, 0.5))
        assert p.x == pytest.approx(0.5, abs=1e-12)
        assert p.y == pytest.approx(0.5, abs=1e-12)

    def test_truth_inverts(self):
        s = strategy_from_point(RESTAURANT, ResponsePoint(RESTAURANT.q10, RESTAURANT.q11))
        assert (s.t0, s.t1) == pytest.approx((0.0, 1.0), abs=1e-12)

    def test_round_trip_random(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            s = SymmetricStrategy(rng.uniform(), rng.uniform())
            back = strategy_from_point(RESTAURANT, response_point(RESTAURANT, s))
            assert back.t0 == pytest.approx(s.t0, abs=1e-12)
            assert back.t1 == pytest.approx(s.t1, abs=1e-12)

    def test_outside_hull(self):
        with pytest.raises(OutsideHull):
            strategy_from_point(RESTAURANT, ResponsePoint(0.0, 1.0))


class TestEnumerate:
    def test_restaurant_seven(self):
        eqs = enumerate_equilibria(RESTAURANT, QSTAR_BRIER)
        assert eqs.count == 7
        assert (eqs["TruthZero"].strategy.t0, eqs["TruthZero"].strategy.t1) == \
            pytest.approx((0.0, 0.955), abs=1e-3)
        assert (eqs["TruthOne"].strategy.t0, eqs["TruthOne"].strategy.t1) == \
            pytest.approx((0.064, 1.0), abs=1e-3)
        assert (eqs["LieOne"].strategy.t0, eqs["LieOne"].strategy.t1) == \
            pytest.approx((1.0, 0.348), abs=1e-3)
        assert (eqs["QStarMix"].strategy.t0, eqs["QStarMix"].strategy.t1) == \
            pytest.approx((0.594, 0.594), abs=1e-3)
        assert "Lie" not in eqs and "LieZero" not in eqs

    def test_counts_by_qstar(self):
        p = NINE_PRIOR
        assert enumerate_equilibria(p, 0.5).count == 9       # q10 < q* < q00
        assert enumerate_equilibria(p, p.q00).count == 8     # boundary collapse
        assert enumerate_equilibria(p, 0.6).count == 7       # q00 < q* < q11

    def test_boundary_keeps_lie_label(self):
        eqs = enumerate_equilibria(NINE_PRIOR, NINE_PRIOR.q00)
        assert "Lie" in eqs and "LieZero" not in eqs

    def test_best_response_criterion(self):
        # every emitted equilibrium satisfies: q-hat below q* forces report 0,
        # above forces report 1
        for qs in (0.5, 0.55, NINE_PRIOR.q00, 0.6, 0.7):
            for e in enumerate_equilibria(NINE_PRIOR, qs).equilibria:
                for zhat, t in ((e.point.x, e.strategy.t0), (e.point.y, e.strategy.t1)):
                    if zhat < qs - 1e-12:
                        assert t == 0.0
                    elif zhat > qs + 1e-12:
                        assert t == 1.0

    def test_qstar_out_of_range(self):
        with pytest.raises(OutOfRange):
            enumerate_equilibria(RESTAURANT, 0.5)

    def test_label_order_and_count(self):
        # the equilibria CLI verb prints eqs.equilibria in this order
        rng = np.random.default_rng(4)
        for _ in range(500):
            q11, q10 = sorted(rng.uniform(0.0, 1.0, 2), reverse=True)
            p = prior_from_conditionals(q11, q10)
            for qs in (matrix_from_rule(BRIER, p).qstar(), p.q00, p.q01):
                if not p.q10 < qs < p.q11:
                    continue
                labels = enumerate_equilibria(p, qs).labels()
                assert labels == tuple(lbl for lbl in LABELS if lbl in labels)
                # Lie exists on [q01, q00]; strictly inside, LieOne and LieZero stay distinct
                assert len(labels) == 7 + (p.q01 <= qs <= p.q00) + (p.q01 < qs < p.q00)

    def test_invariant_under_normalization_and_shift(self):
        m = BRIER_MATRIX
        shifted = type(m)(*(v + 0.37 for v in m.entries()))
        for other in (normalize(m), shifted):
            a = equilibrium_set(RESTAURANT, m)
            b = equilibrium_set(RESTAURANT, other)
            assert a.labels() == b.labels()
            for e1, e2 in zip(a.equilibria, b.equilibria):
                assert e1.strategy.t0 == pytest.approx(e2.strategy.t0, abs=1e-9)
                assert e1.strategy.t1 == pytest.approx(e2.strategy.t1, abs=1e-9)


class TestQuadrant:
    def test_named_regions(self):
        qs = QSTAR_BRIER
        assert quadrant(ResponsePoint(RESTAURANT.q10, RESTAURANT.q11), qs) == "R_tru"
        assert quadrant(ResponsePoint(1, 1), qs) == "R_one"
        assert quadrant(ResponsePoint(0.1, 0.2), qs) == "R_zero"
        assert quadrant(ResponsePoint(0.9, 0.2), qs) == "R_fal"
        assert quadrant(ResponsePoint(qs, qs), qs) == "center"
        assert quadrant(ResponsePoint(qs, 0.9), qs) == "x=qstar"
        assert quadrant(ResponsePoint(0.2, qs), qs) == "y=qstar"


class TestPayoffs:
    def test_truth_point_brier(self):
        ls = BRIER_MATRIX.lineset()
        p = ResponsePoint(RESTAURANT.q10, RESTAURANT.q11)
        expect = RESTAURANT.q0 * brier(RESTAURANT.q10, RESTAURANT.q10) \
            + RESTAURANT.q1 * brier(RESTAURANT.q11, RESTAURANT.q11)
        assert best_response_payoff(RESTAURANT, ls, p) == pytest.approx(expect, abs=1e-12)
        # the per-signal pieces are the published approximations
        assert brier(RESTAURANT.q11, RESTAURANT.q11) == pytest.approx(0.530, abs=5e-4)
        assert brier(RESTAURANT.q11, RESTAURANT.q10) == pytest.approx(0.524, abs=5e-4)
        assert brier(RESTAURANT.q10, RESTAURANT.q10) == pytest.approx(0.509, abs=5e-4)
        assert brier(RESTAURANT.q10, RESTAURANT.q11) == pytest.approx(0.503, abs=5e-4)

    def test_center_pays_gamma(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            ls = random_lineset(rng, QSTAR_BRIER)
            value = best_response_payoff(RESTAURANT, ls, ResponsePoint(ls.qstar, ls.qstar))
            assert value == pytest.approx(ls.gamma, abs=1e-12)

    def test_truth_expected_payoff_value(self):
        # 0.4 * B(q10,q10) + 0.6 * B(q11,q11)
        u = expected_payoff(RESTAURANT, BRIER_MATRIX, SymmetricStrategy(0, 1))
        assert u == pytest.approx(0.5214814814814815, abs=1e-12)

    def test_all_ones_pays_h11(self):
        u = expected_payoff(RESTAURANT, BRIER_MATRIX, SymmetricStrategy(1, 1))
        assert u == pytest.approx(BRIER_MATRIX.h11, abs=1e-12)

    def test_equilibria_match_direct_expectation(self):
        for prior, qs in ((RESTAURANT, QSTAR_BRIER), (NINE_PRIOR, 0.5), (NINE_PRIOR, 0.62)):
            ls = lineset_from_k_qstar(0.8, qs, prior)
            m = lineset_to_matrix(ls)
            for e in equilibrium_set(prior, m).equilibria:
                direct = expected_payoff(prior, m, e.strategy)
                assert e.payoff == pytest.approx(direct, abs=1e-9), e.label


class TestTranslate:
    def test_identity_on_truth(self):
        p = ResponsePoint(RESTAURANT.q10, RESTAURANT.q11)
        assert translate(RESTAURANT, QSTAR_BRIER, p) == p

    def test_one_maps_to_table_row(self):
        qs = QSTAR_BRIER
        f = translate(RESTAURANT, qs, ResponsePoint(1.0, 1.0))
        assert f.x == pytest.approx(qs, abs=1e-12)
        assert f.y == pytest.approx((1 - qs * RESTAURANT.q0) / RESTAURANT.q1, abs=1e-12)

    def test_payoff_preserved_from_lie_quadrant(self):
        rng = np.random.default_rng(8)
        prior, qs = NINE_PRIOR, 0.5
        point = ResponsePoint(0.62, 0.47)  # inside R_fal for q* = 0.5
        assert quadrant(point, qs) == "R_fal"
        f = translate(prior, qs, point)
        for _ in range(10):
            ls = random_lineset(rng, qs)
            assert best_response_payoff(prior, ls, f) == pytest.approx(
                best_response_payoff(prior, ls, point), abs=1e-9)

    def test_payoff_preserved_random_bulk(self):
        rng = np.random.default_rng(15)
        for _ in range(1000):
            prior = NINE_PRIOR if rng.random() < 0.5 else RESTAURANT
            qs = rng.uniform(prior.q10 + 1e-3, prior.q11 - 1e-3)
            s = SymmetricStrategy(rng.uniform(), rng.uniform())
            point = response_point(prior, s)
            f = translate(prior, qs, point)
            ls = random_lineset(rng, qs)
            assert abs(best_response_payoff(prior, ls, f)
                       - best_response_payoff(prior, ls, point)) < 1e-9

    def test_outside_hull_rejected(self):
        with pytest.raises(OutsideHull):
            translate(RESTAURANT, QSTAR_BRIER, ResponsePoint(0.01, 0.99))

    def test_closed_form_images(self):
        # translated coordinates of the named points; images may leave the
        # unit square while staying on the payoff contour
        prior, qs = NINE_PRIOR, 0.5
        q0, q1 = prior.q0, prior.q1
        q10, q11, q00, q01 = prior.q10, prior.q11, prior.q00, prior.q01
        cases = {
            (0.0, 0.0): (-qs * q1 / q0, qs),
            (q00, q01): (q10 - q10 * qs / q01 + qs, q01 * (q00 - qs) / q10 + qs),
            (qs, q01 * qs / q00): (-(q11 - q10) * q10 * qs / (q00 * q01) + qs, qs),
        }
        for point, want in cases.items():
            f = translate(prior, qs, ResponsePoint(*point))
            assert f.x == pytest.approx(want[0], abs=1e-12)
            assert f.y == pytest.approx(want[1], abs=1e-12)
        assert translate(prior, qs, ResponsePoint(0.0, 0.0)).x < 0.0


class TestParallelPairs:
    def test_translated_segment_slopes(self):
        prior, qs = NINE_PRIOR, 0.52
        assert qs <= prior.q00
        eqs = enumerate_equilibria(prior, qs)
        f = {e.label: translate(prior, qs, e.point) for e in eqs.equilibria}
        expected = prior.q01 * (1 - qs) / (prior.q10 * qs)
        for a, b in (("Zero", "One"), ("Truth", "Lie"),
                     ("TruthOne", "LieZero"), ("TruthZero", "LieOne")):
            slope = (f[a].y - f[b].y) / (f[a].x - f[b].x)
            assert slope == pytest.approx(expected, abs=1e-9), (a, b)


def truth_extreme_by_orientation(prior, qs) -> bool:
    """Oracle: exhaustive orientation test that the translated truth point is
    a vertex of the convex hull of all translated informative equilibria."""
    eqs = enumerate_equilibria(prior, qs)
    pts = {e.label: translate(prior, qs, e.point) for e in eqs.informative()}
    t = pts.pop("Truth")
    others = [p for p in pts.values()]
    # truth is extreme iff some direction strictly separates it from the rest
    for angle in np.linspace(0, 2 * np.pi, 720, endpoint=False):
        d = (np.cos(angle), np.sin(angle))
        proj_t = d[0] * t.x + d[1] * t.y
        if all(d[0] * p.x + d[1] * p.y < proj_t - 1e-12 for p in others):
            return True
    return False


class TestHullReport:
    def test_restaurant_neighbors(self):
        rep = hull_report(RESTAURANT, QSTAR_BRIER)
        assert rep.truth_extreme
        assert set(rep.neighbors) == {"TruthOne", "TruthZero"}
        assert truth_extreme_by_orientation(RESTAURANT, QSTAR_BRIER)

    def test_nine_equilibria_neighbors(self):
        rep = hull_report(NINE_PRIOR, 0.5)
        assert rep.truth_extreme
        assert set(rep.neighbors) == {"TruthOne", "Lie"}
        assert truth_extreme_by_orientation(NINE_PRIOR, 0.5)

    def test_signal_symmetric_lie_coincides(self):
        prior = prior_from_conditionals(0.7, 0.3)  # q00 = q11 = 0.7
        rep = hull_report(prior, 0.5)
        assert rep.lie_coincides_truth

    def test_eight_count_collinear(self):
        rep = hull_report(NINE_PRIOR, NINE_PRIOR.q00)
        assert rep.truth_collinear
        assert not rep.truth_extreme

    def test_mirrored_orientation(self):
        mirror = NINE_PRIOR.mirrored()
        rep = hull_report(mirror, 1.0 - 0.5)
        assert rep.truth_extreme
        assert rep.neighbors is not None


class TestPlotData:
    @pytest.mark.parametrize("resolution", [1, 2.5, 2002, "11", None])
    def test_rejects_resolution(self, resolution):
        with pytest.raises(OutOfRange):
            plot_data(RESTAURANT, BRIER_MATRIX.lineset(), resolution)

    def test_integral_float_resolution(self):
        ls = BRIER_MATRIX.lineset()
        assert plot_data(RESTAURANT, ls, 3.0) == plot_data(RESTAURANT, ls, 3)

    def test_corners_and_center(self):
        ls = BRIER_MATRIX.lineset()
        rows = plot_data(RESTAURANT, ls, 3)
        pts = {(round(x, 9), round(y, 9)) for x, y, _, _ in rows}
        for s in ((0, 0), (1, 1), (0, 1), (1, 0)):
            p = response_point(RESTAURANT, SymmetricStrategy(*s))
            assert (round(p.x, 9), round(p.y, 9)) in pts

    def test_payoff_monotone_along_rays(self):
        ls = BRIER_MATRIX.lineset()
        qs = ls.qstar
        for angle in np.linspace(0.1, 2 * np.pi, 17):
            d = np.array([np.cos(angle), np.sin(angle)])
            radii = np.linspace(1e-4, 0.05, 20)
            vals = []
            for r in radii:
                p = ResponsePoint(qs + r * d[0], qs + r * d[1])
                vals.append(best_response_payoff(RESTAURANT, ls, p))
            diffs = np.diff(vals)
            assert np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)

    def test_resolution_guard(self):
        with pytest.raises(OutOfRange):
            plot_data(RESTAURANT, BRIER_MATRIX.lineset(), 1)

    @pytest.mark.parametrize("prior", [RESTAURANT, RESTAURANT.mirrored()],
                             ids=["oriented", "mirrored"])
    def test_rows_match_response_point(self, prior):
        ls = matrix_from_rule(BRIER, prior).lineset()
        step = 1.0 / 20
        expect = []
        for i in range(21):
            for j in range(21):
                p = response_point(prior, SymmetricStrategy(i * step, j * step))
                expect.append((p.x, p.y, quadrant(p, ls.qstar),
                               best_response_payoff(prior, ls, p)))
        assert plot_data(prior, ls, 21) == expect
