"""Seeded property tests: equilibrium counts, the oracle's gain at every
enumerated equilibrium, mirror-equivariance of the optimum, and the exact
all-alike probability of the constant and truthful profiles."""
import pytest
from hypothesis import assume, given, settings, strategies as st

from peerpredict import (GenerativeModel, LineSet, all_same_report_probability,
                         deviation_gain, equilibrium_set, lineset_to_matrix, optimal_mechanism,
                         prior_from_conditionals)

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def priors(draw):
    q10 = draw(st.floats(0.01, 0.97))
    q11 = draw(st.floats(q10 + 0.01, 0.99))
    return prior_from_conditionals(q11, q10)


@st.composite
def priors_and_matrices(draw):
    prior = draw(priors())
    alpha = draw(st.floats(0.2, 2.0))
    qstar = prior.q10 + draw(st.floats(0.02, 0.98)) * (prior.q11 - prior.q10)
    ls = LineSet(alpha=alpha, beta=alpha - draw(st.floats(0.3, 2.5)), qstar=qstar,
                 gamma=draw(st.floats(-1.0, 1.0)))
    return prior, lineset_to_matrix(ls)


@st.composite
def models(draw):
    kind = draw(st.sampled_from(["uniform", "beta", "discrete"]))
    n = draw(st.integers(2, 3000))
    if kind == "uniform":
        a = draw(st.floats(0.0, 0.9))
        return GenerativeModel.uniform(a, draw(st.floats(a + 0.05, 1.0)), n)
    if kind == "beta":
        return GenerativeModel.beta(draw(st.floats(0.1, 20.0)), draw(st.floats(0.1, 20.0)), n)
    points = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=len(points), max_size=len(points)))
    return GenerativeModel.discrete(points, weights, n)


@PROPERTY
@given(priors_and_matrices())
def test_equilibrium_count_is_seven_to_nine(case):
    assert equilibrium_set(*case).count in (7, 8, 9)


@PROPERTY
@given(priors_and_matrices(), st.integers(2, 5))
def test_no_profitable_deviation_at_any_equilibrium(case, n):
    prior, matrix = case
    for e in equilibrium_set(prior, matrix).equilibria:
        profile = [(e.strategy.t0, e.strategy.t1)] * n
        assert deviation_gain(prior, matrix, profile, 0)[0] <= 1e-9, e.label


@st.composite
def dyadic_priors(draw):
    """Priors on a 1/1024 grid, so that mirroring twice gives the same floats back."""
    i = draw(st.integers(1, 1021))
    return prior_from_conditionals(draw(st.integers(i + 1, 1023)) / 1024, i / 1024)


@PROPERTY
@given(dyadic_priors())
def test_optimal_mechanism_is_mirror_equivariant(prior):
    assume(prior.signal_asymmetric)
    eps = abs(prior.q11 - prior.q00) / 10.0
    report = optimal_mechanism(prior, epsilon=eps)
    mirror = optimal_mechanism(prior.mirrored(), epsilon=eps)
    assert mirror.mechanism == report.mechanism.mirrored()
    assert mirror.region.tag == report.region.tag
    assert (mirror.delta_star, mirror.truth_payoff) == (report.delta_star, report.truth_payoff)


@PROPERTY
@given(models())
def test_all_alike_exact_for_constant_and_truthful_profiles(model):
    m = model.n_agents - 1
    assert all_same_report_probability(model, [(0.0, 0.0)] * m) == 1.0
    assert all_same_report_probability(model, [(1.0, 1.0)] * m) == 1.0
    exact = model.moment(m) + model.moment(m, complement=True)
    truth = all_same_report_probability(model, [(0.0, 1.0)] * m)
    assert truth == pytest.approx(exact, rel=1e-12, abs=1e-300)
