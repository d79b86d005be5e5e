import math
from fractions import Fraction

import numpy as np
import pytest

from peerpredict import (BRIER, Boundary, DegenerateMatrix, EpsilonMissing,
                         GenerativeModel, MirrorRequired, OutOfRange, PayoffMatrix,
                         SymmetricPrior, TruthNotEquilibrium, classify_region,
                         enumerate_equilibria, equilibrium_set, gap, k_sup, kappa_iota,
                         lineset_from_k_qstar, lineset_to_matrix, matrix_from_rule, normalize,
                         optimal_mechanism, optimal_qstar, prior_from_conditionals,
                         prior_from_model, xi)

RESTAURANT = prior_from_model(GenerativeModel.uniform(0.4, 0.8, 10))
R2_PRIOR = prior_from_conditionals(0.9, 0.2)
R3_PRIOR = prior_from_conditionals(0.9769461233519666, 0.17518091408602543)


def delta_a_closed(prior) -> float:
    """Largest seven-equilibrium gap, as the explicit radical expression."""
    q11, q10, q00, q01 = prior.q11, prior.q10, prior.q00, prior.q01
    root = math.sqrt(q00 * q10 * q01 * q11)
    num = q01 * (q00 * q10 - root) * (root - q01 * q11)
    den = (q01 + q10) * q11 * (q11 - q00) * (root + q11 - q00 - q10 * q11)
    return num / den


def delta_b_closed(prior) -> float:
    q11, q10, q00, q01 = prior.q11, prior.q10, prior.q00, prior.q01
    root = math.sqrt(q00 * q10 * (q11 - q10) * (q11 - q00))
    return (q11 - q00) * (q00 * q10 * (q11 - q01) - root) / ((q10 + q01) * q10 * q11 * q00)


class TestGap:
    def test_m1_achieves_delta_a(self):
        report = optimal_mechanism(RESTAURANT)
        assert gap(RESTAURANT, report.mechanism) == pytest.approx(
            delta_a_closed(RESTAURANT), abs=1e-9)

    def test_signal_symmetric_gap_zero(self):
        prior = prior_from_conditionals(0.7, 0.3)
        m = lineset_to_matrix(lineset_from_k_qstar(1.0, 0.5, prior))
        assert gap(prior, m) == pytest.approx(0.0, abs=1e-12)

    def test_matches_enumerated_payoffs(self):
        # gap reads the enumeration's rows, not the dataclasses: it must equal the
        # difference of the payoffs equilibrium_set attaches, bit for bit
        rng = np.random.default_rng(43)
        priors = [RESTAURANT, R2_PRIOR, R3_PRIOR, RESTAURANT.mirrored()]
        priors += [prior_from_conditionals(*sorted(rng.uniform(0.02, 0.98, 2), reverse=True))
                   for _ in range(60)]
        for prior in priors:
            optimal = optimal_mechanism(prior, epsilon=1e-3 * abs(prior.q11 - prior.q00))
            for m in (matrix_from_rule(BRIER, prior), optimal.mechanism):
                eqs = equilibrium_set(prior, m)
                rivals = max(e.payoff for e in eqs.equilibria
                             if e.label not in ("Truth", "Zero", "One"))
                assert gap(prior, m) == eqs["Truth"].payoff - rivals

    def test_degenerate_matrix(self):
        with pytest.raises(DegenerateMatrix):
            gap(RESTAURANT, PayoffMatrix(1.0, 1.0, 1.0, 1.0))

    def test_truth_not_equilibrium(self):
        # break-even outside (q10, q11)
        with pytest.raises(TruthNotEquilibrium):
            gap(RESTAURANT, PayoffMatrix(1.0, 0.0, 0.0, 0.2))


class TestXi:
    def test_invariant_to_internal_scale(self):
        # xi is the gap of the normalized matrix; any (alpha, gamma) realizing
        # the same (k, q*) must give the same value
        from peerpredict import LineSet
        k, qs = 0.9, 0.61
        base = xi(RESTAURANT, k, qs)
        rng = np.random.default_rng(4)
        for _ in range(2):
            alpha = rng.uniform(0.3, 2.5)
            gamma = rng.uniform(-1.0, 1.0)
            beta = -k * alpha * RESTAURANT.q10 / RESTAURANT.q01
            m = normalize(lineset_to_matrix(LineSet(alpha=alpha, beta=beta,
                                                    qstar=qs, gamma=gamma)))
            assert gap(RESTAURANT, m) == pytest.approx(base, abs=1e-12)

    def test_k_sup_dominates_k_grid(self):
        for prior, qs in ((RESTAURANT, 0.60), (R2_PRIOR, 0.5), (R2_PRIOR, 0.85)):
            best = xi(prior, k_sup(prior, qs), qs)
            upper = prior.q11 / prior.q10 if qs > prior.q00 \
                else prior.q01 * (1 - qs) / (prior.q10 * qs)
            for k in np.linspace(prior.q01 / prior.q00 + 1e-6, upper - 1e-6, 50):
                assert xi(prior, k, qs) <= best + 1e-12

    def test_equals_min_kappa_iota(self):
        for qs in np.linspace(RESTAURANT.q10 + 0.005, RESTAURANT.q11 - 0.005, 9):
            kap, iot = kappa_iota(RESTAURANT, "a", qs)
            assert xi(RESTAURANT, k_sup(RESTAURANT, qs), qs) == pytest.approx(
                min(kap, iot), abs=1e-12)
        for qs in np.linspace(R2_PRIOR.q10 + 0.01, R2_PRIOR.q00 - 0.01, 9):
            kap, iot = kappa_iota(R2_PRIOR, "b", qs)
            assert xi(R2_PRIOR, k_sup(R2_PRIOR, qs), qs) == pytest.approx(
                min(kap, iot), abs=1e-12)


class TestKSup:
    def test_restaurant_closed_form(self):
        qs = 0.594
        expect = RESTAURANT.q11 * (1 - qs) / (RESTAURANT.q00 * qs)
        assert k_sup(RESTAURANT, qs) == pytest.approx(expect, abs=1e-12)

    def test_equalizes_second_best_payoffs(self):
        # branch a: TruthOne and TruthZero tie; branch b: TruthOne and Lie tie
        qs = 0.60
        m = normalize(lineset_to_matrix(lineset_from_k_qstar(
            k_sup(RESTAURANT, qs), qs, RESTAURANT)))
        eqs = equilibrium_set(RESTAURANT, m)
        assert eqs["TruthOne"].payoff == pytest.approx(eqs["TruthZero"].payoff, abs=1e-9)

        qs = 0.5
        m = normalize(lineset_to_matrix(lineset_from_k_qstar(
            k_sup(R2_PRIOR, qs), qs, R2_PRIOR)))
        eqs = equilibrium_set(R2_PRIOR, m)
        assert eqs["TruthOne"].payoff == pytest.approx(eqs["Lie"].payoff, abs=1e-9)

    def test_perturbation_lowers_xi(self):
        for prior, qs in ((RESTAURANT, 0.61), (R2_PRIOR, 0.5)):
            k = k_sup(prior, qs)
            best = xi(prior, k, qs)
            assert xi(prior, 0.95 * k, qs) < best
            assert xi(prior, 1.05 * k, qs) < best

    def test_boundary_error(self):
        with pytest.raises(Boundary):
            k_sup(R2_PRIOR, R2_PRIOR.q00)

    def test_qstar_rule_has_one_message(self):
        # k_sup, branch a of kappa_iota, lineset_from_k_qstar and the enumeration
        # share one admissibility check, q(1|0) < q* < q(1|1)
        messages = set()
        for call in (lambda: k_sup(R2_PRIOR, 0.2), lambda: kappa_iota(R2_PRIOR, "a", 0.2),
                     lambda: lineset_from_k_qstar(1.0, 0.2, R2_PRIOR),
                     lambda: enumerate_equilibria(R2_PRIOR, 0.2)):
            with pytest.raises(OutOfRange) as info:
                call()
            messages.add(str(info.value))
        assert len(messages) == 1

    def test_focality_window_slope_identities(self):
        # the window bounding slopes are the translated-segment slopes
        # through truth: q01/q00 to TruthOne, q11/q10 to TruthZero, and
        # q01(1-q*)/(q10 q*) to Lie below the branch boundary
        from peerpredict import ResponsePoint, translate
        for prior, qs in ((RESTAURANT, 0.60), (R2_PRIOR, 0.5)):
            truth = ResponsePoint(prior.q10, prior.q11)
            eqs = enumerate_equilibria(prior, qs)
            f_tru1 = translate(prior, qs, eqs["TruthOne"].point)
            slope = (f_tru1.y - truth.y) / (f_tru1.x - truth.x)
            assert slope == pytest.approx(prior.q01 / prior.q00, abs=1e-12)
            f_tru0 = translate(prior, qs, eqs["TruthZero"].point)
            slope = (f_tru0.y - truth.y) / (f_tru0.x - truth.x)
            assert slope == pytest.approx(prior.q11 / prior.q10, abs=1e-12)
            if "Lie" in eqs:
                f_lie = translate(prior, qs, eqs["Lie"].point)
                slope = (f_lie.y - truth.y) / (f_lie.x - truth.x)
                expect = prior.q01 * (1 - qs) / (prior.q10 * qs)
                assert slope == pytest.approx(expect, abs=1e-12)


class TestKappaIota:
    def test_zeros_at_interval_ends(self):
        kap_lo, _ = kappa_iota(RESTAURANT, "a", RESTAURANT.q10 + 1e-14)
        kap_hi, _ = kappa_iota(RESTAURANT, "a", RESTAURANT.q11 - 1e-14)
        assert abs(kap_lo) < 1e-12 and abs(kap_hi) < 1e-12

    def test_mirror_identity(self):
        q10, q11 = RESTAURANT.q10, RESTAURANT.q11
        for qs in np.linspace(q10 + 0.004, q11 - 0.004, 12):
            mapped = q10 + q11 - q10 * q11 / qs
            kap_m, _ = kappa_iota(RESTAURANT, "a", mapped)
            _, iot = kappa_iota(RESTAURANT, "a", qs)
            assert kap_m == pytest.approx(iot, abs=1e-12)

    def test_unimodal(self):
        qs = np.linspace(RESTAURANT.q10 + 1e-6, RESTAURANT.q11 - 1e-6, 1001)
        for which in (0, 1):
            vals = np.array([kappa_iota(RESTAURANT, "a", q)[which] for q in qs])
            signs = np.sign(np.diff(vals))
            changes = np.count_nonzero(np.diff(signs[signs != 0]))
            assert changes == 1

    def test_positive_on_b_branch(self):
        for qs in np.linspace(R2_PRIOR.q10 + 0.01, R2_PRIOR.q00 - 0.01, 9):
            kap, iot = kappa_iota(R2_PRIOR, "b", qs)
            assert kap > 0 and iot > 0


class TestOptimalQstar:
    def test_restaurant_value_and_grid_argmax(self):
        qa = optimal_qstar(RESTAURANT, "a")
        assert qa == pytest.approx(0.5947, abs=1e-4)
        grid = np.linspace(RESTAURANT.q10 + 1e-9, RESTAURANT.q11 - 1e-9, 10 ** 4)
        vals = [min(kappa_iota(RESTAURANT, "a", q)) for q in grid]
        assert qa == pytest.approx(grid[int(np.argmax(vals))], abs=1e-4)

    def test_kappa_equals_iota_at_optimum(self):
        qa = optimal_qstar(RESTAURANT, "a")
        kap, iot = kappa_iota(RESTAURANT, "a", qa)
        assert kap == pytest.approx(iot, abs=1e-9)
        qb = optimal_qstar(R2_PRIOR, "b")
        kap, iot = kappa_iota(R2_PRIOR, "b", qb)
        assert kap == pytest.approx(iot, abs=1e-9)

    def test_b_branch_below_q00(self):
        qb = optimal_qstar(R2_PRIOR, "b")
        assert R2_PRIOR.q10 < qb < R2_PRIOR.q00

    def test_b_branch_grid_argmax(self):
        grid = np.linspace(R2_PRIOR.q10 + 1e-9, R2_PRIOR.q00 - 1e-9, 10 ** 4)
        vals = [min(kappa_iota(R2_PRIOR, "b", q)) for q in grid]
        assert optimal_qstar(R2_PRIOR, "b") == pytest.approx(
            grid[int(np.argmax(vals))], abs=1e-4)

    def test_mirror_required(self):
        mirrored = RESTAURANT.mirrored()
        with pytest.raises(MirrorRequired):
            optimal_qstar(mirrored, "a")

    def test_symmetric_prior_rejected(self):
        with pytest.raises(SymmetricPrior):
            optimal_qstar(prior_from_conditionals(0.7, 0.3), "a")


def search_prior_with_region(tag: str, seed: int):
    """Sample oriented priors until the requested branch conditions hold."""
    rng = np.random.default_rng(seed)
    for _ in range(5000):
        q10 = rng.uniform(0.02, 0.6)
        q11 = rng.uniform(q10 + 0.02, 0.995)
        prior = prior_from_conditionals(q11, q10)
        if not prior.signal_asymmetric:
            continue
        if prior.q11 < prior.q00:
            prior = prior.mirrored()
        if classify_region(prior).tag == tag:
            return prior
    raise AssertionError(f"no {tag} prior found")


class TestClassifyRegion:
    def test_restaurant_first_branch(self):
        region = classify_region(RESTAURANT)
        assert region.tag == "R1"
        assert RESTAURANT.q00 <= RESTAURANT.q10
        assert region.delta_b is None

    def test_searched_r2(self):
        prior = search_prior_with_region("R2", seed=23)
        region = classify_region(prior)
        assert region.tag == "R2"
        assert prior.q00 > prior.q10
        assert region.delta_b is not None

    def test_searched_r3(self):
        prior = search_prior_with_region("R3", seed=29)
        region = classify_region(prior)
        assert region.tag == "R3"
        assert region.qstar_a_opt <= prior.q00 if prior.q11 > prior.q00 \
            else region.qstar_a_opt <= prior.mirrored().q00
        assert region.xi_at_boundary > region.delta_b

    def test_symmetric_rejected(self):
        with pytest.raises(SymmetricPrior):
            classify_region(prior_from_conditionals(0.7, 0.3))


class TestOptimalMechanism:
    def test_restaurant_m1(self):
        report = optimal_mechanism(RESTAURANT)
        zeta = math.sqrt(RESTAURANT.q00 * RESTAURANT.q01 / (RESTAURANT.q10 * RESTAURANT.q11))
        assert report.region.tag == "R1"
        assert report.mechanism.h11 == pytest.approx(zeta, abs=1e-12)
        assert report.mechanism.h11 == pytest.approx(0.6814, abs=1e-4)
        assert report.mechanism.h10 == 0.0
        assert report.mechanism.h01 == 0.0
        assert report.mechanism.h00 == 1.0
        # construction oracle: normalized matrix at (k_sup(q*_a), q*_a)
        qa = optimal_qstar(RESTAURANT, "a")
        ng = normalize(lineset_to_matrix(lineset_from_k_qstar(
            k_sup(RESTAURANT, qa), qa, RESTAURANT)))
        assert report.mechanism.entries() == pytest.approx(ng.entries(), abs=1e-9)
        assert report.qstar_opt == pytest.approx(qa, abs=1e-9)
        assert report.delta_star == pytest.approx(delta_a_closed(RESTAURANT), abs=1e-9)

    def test_r2_m2_structure(self):
        report = optimal_mechanism(R2_PRIOR)
        assert report.region.tag == "R2"
        assert report.mechanism.h11 == 1.0
        assert report.mechanism.h10 == 0.0
        assert report.mechanism.h01 == 0.0
        qb = optimal_qstar(R2_PRIOR, "b")
        assert report.mechanism.h00 == pytest.approx(qb / (1 - qb), abs=1e-12)
        assert report.delta_star == pytest.approx(delta_b_closed(R2_PRIOR), abs=1e-9)
        ng = normalize(lineset_to_matrix(lineset_from_k_qstar(
            k_sup(R2_PRIOR, qb), qb, R2_PRIOR)))
        assert report.mechanism.entries() == pytest.approx(ng.entries(), abs=1e-9)

    def test_r3_epsilon_ladder(self):
        gaps = [optimal_mechanism(R3_PRIOR, epsilon=e).delta_star for e in (1e-2, 1e-3)]
        assert gaps[0] < gaps[1]
        limit = classify_region(R3_PRIOR).xi_at_boundary
        assert gaps[1] < limit

    def test_r3_needs_epsilon(self):
        with pytest.raises(EpsilonMissing):
            optimal_mechanism(R3_PRIOR)
        for prior in (R3_PRIOR, prior_from_conditionals(0.52, 0.46)):
            assert classify_region(prior).tag == "R3"
            with pytest.raises(OutOfRange, match="epsilon must satisfy"):
                optimal_mechanism(prior, epsilon=float("nan"))

    def test_off_diagonal_zero_at_a_optimum(self):
        qa = optimal_qstar(RESTAURANT, "a")
        ng = normalize(lineset_to_matrix(lineset_from_k_qstar(
            k_sup(RESTAURANT, qa), qa, RESTAURANT)))
        assert abs(ng.h10) < 1e-12 and abs(ng.h01) < 1e-12

    def test_gap_equals_delta_star(self):
        for prior in (RESTAURANT, R2_PRIOR):
            report = optimal_mechanism(prior)
            assert gap(prior, report.mechanism) == pytest.approx(report.delta_star, abs=1e-9)

    def test_mirror_consistency(self):
        # starting from a q(0|0) > q(1|1) prior: optimizing it directly must
        # equal optimizing its relabeling and relabeling the matrix back
        cases = ((RESTAURANT.mirrored(), None), (R2_PRIOR.mirrored(), None),
                 (R3_PRIOR.mirrored(), 1e-3))
        for base, eps in cases:
            assert base.q00 > base.q11
            direct = optimal_mechanism(base, epsilon=eps)
            relabeled = optimal_mechanism(base.mirrored(), epsilon=eps)
            assert direct.mechanism.entries() == \
                relabeled.mechanism.mirrored().entries()
            assert direct.delta_star == relabeled.delta_star
            assert direct.truth_payoff == relabeled.truth_payoff
            assert direct.region.tag == relabeled.region.tag

    def test_anti_proper_matrix_rejected(self):
        from peerpredict import PayoffMatrix
        with pytest.raises(TruthNotEquilibrium):
            gap(RESTAURANT, PayoffMatrix(h11=0.0, h10=1.0, h01=1.0, h00=0.0))

    def test_certificate_grid(self):
        for prior in (RESTAURANT, R2_PRIOR):
            report = optimal_mechanism(prior)
            sup = grid_supremum(prior, 60)
            assert sup <= report.delta_star + 1e-6

    def test_normalized_output(self):
        for prior in (RESTAURANT, R2_PRIOR):
            m = optimal_mechanism(prior).mechanism
            assert min(m.entries()) == 0.0 and max(m.entries()) == 1.0


def grid_supremum(prior, resolution: int) -> float:
    """Max of xi over a (k, q*) grid restricted to the slopes that keep
    truth-telling focal."""
    best = -np.inf
    for qs in np.linspace(prior.q10, prior.q11, resolution + 2)[1:-1]:
        upper = prior.q11 / prior.q10 if qs > prior.q00 \
            else prior.q01 * (1 - qs) / (prior.q10 * qs)
        lower = prior.q01 / prior.q00
        for k in np.linspace(lower, upper, resolution + 2)[1:-1]:
            best = max(best, xi(prior, k, qs))
    return best


def enumerated_region(prior):
    """The region rule with xi(k_sup(q*), q*), which enumerates equilibria, for
    both deltas: (tag, delta_a, delta_b), the reference for the closed forms."""
    p = prior if prior.q11 > prior.q00 else prior.mirrored()
    qa = optimal_qstar(p, "a")
    delta_a = xi(p, k_sup(p, qa), qa)
    if p.q00 <= p.q10:
        return "R1", delta_a, None
    qb = optimal_qstar(p, "b")
    delta_b = xi(p, k_sup(p, qb), qb)
    if qa > p.q00:
        return ("R1" if delta_a >= delta_b else "R2"), delta_a, delta_b
    return ("R2" if min(kappa_iota(p, "a", p.q00)) <= delta_b else "R3"), delta_a, delta_b


def seeded_priors(seed: int, count: int, extreme: int) -> list:
    """count priors with both conditionals uniform on (0, 1), in either
    orientation, then extreme ones with min(q(0|1), q(1|0)) below 1e-3."""
    rng = np.random.default_rng(seed)
    pairs = [sorted(rng.uniform(0.0, 1.0, 2), reverse=True) for _ in range(count)]
    for _ in range(extreme):
        small = 10 ** rng.uniform(-8, -3)
        other = rng.uniform(0.01, 0.99)
        pairs.append((1 - small, other) if rng.random() < 0.5 else (other, small))
    priors = [prior_from_conditionals(q11, q10) for q11, q10 in pairs if q11 > q10]
    return [p for p in priors if p.signal_asymmetric]


class TestClosedFormRegion:
    PRIORS = seeded_priors(2503, 2000, 400)

    def test_tags_and_deltas_match_enumeration(self):
        tags, flipped, extreme = set(), 0, 0
        for prior in self.PRIORS:
            region = classify_region(prior)
            tag, delta_a, delta_b = enumerated_region(prior)
            assert region.tag == tag
            tags.add(tag)
            flipped += prior.q11 < prior.q00
            if min(prior.q01, prior.q10) < 1e-3:
                extreme += 1
                continue
            assert abs(region.delta_a - delta_a) <= 1e-12
            assert (region.delta_b is None) == (delta_b is None)
            if delta_b is not None:
                assert abs(region.delta_b - delta_b) <= 1e-12
        assert tags == {"R1", "R2", "R3"}
        assert 0 < flipped < len(self.PRIORS) and extreme >= 300

    def test_closed_form_equals_enumerated_delta_star(self):
        seen = set()
        for prior in self.PRIORS:
            if min(prior.q01, prior.q10) < 1e-3:
                continue
            report = optimal_mechanism(prior, epsilon=1e-3 * abs(prior.q11 - prior.q00))
            region = report.region
            if region.tag != "R3":
                seen.add(region.tag)
                closed = region.delta_a if region.tag == "R1" else region.delta_b
                assert abs(closed - report.delta_star) <= 1e-12
        assert seen == {"R1", "R2"}

    def test_one_enumeration_per_optimum(self, monkeypatch):
        import peerpredict.optimizer as optimizer
        calls = []

        def counted(*args):
            calls.append(args)
            return _equilibria(*args)

        _equilibria = optimizer._equilibria
        monkeypatch.setattr(optimizer, "_equilibria", counted)
        for prior in (RESTAURANT, R2_PRIOR, R3_PRIOR, R3_PRIOR.mirrored()):
            calls.clear()
            classify_region(prior)
            assert len(calls) == 0
            optimal_mechanism(prior, epsilon=1e-3)
            assert len(calls) == 1

    def test_extreme_prior_matches_exact_envelope(self):
        prior = prior_from_conditionals(0.99999999, 0.3)  # q(0|1) = 1e-8
        q11, q10 = Fraction(prior.q11), Fraction(prior.q10)
        q00, q01 = 1 - q10, 1 - q11
        q = Fraction(optimal_qstar(prior, "b"))
        pre = q01 * (q11 - q00) / (q10 + q01)
        kap = pre * (q - q10) * (q00 - q) / (q00 * q10 * (q - q01))
        iot = pre * (q - q10) * (q00 - q) / ((q00 * q10 - q01 * (1 - q)) * (1 - q))
        exact = min(kap, iot)
        delta_b = classify_region(prior).delta_b
        # the envelope is 3.8e-9 here, so hold the relative error too
        assert abs(delta_b - exact) <= 1e-11 and abs(delta_b - exact) <= 1e-12 * exact
