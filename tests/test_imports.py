"""The analytic path never loads numpy: importing the package, running the six
analytic CLI verbs, pricing the punished mechanism's equilibria and paying single
rounds leave numpy and the oracles out of sys.modules.
Each check runs in a fresh interpreter, since this test process has numpy."""
import subprocess
import sys
import textwrap

import pytest

PRIOR = '{"kind":"uniform","a":0.4,"b":0.8,"n":10}'
MATRIX = '{"h11":0.68,"h10":0.0,"h01":0.0,"h00":1.0}'
ANALYTIC_VERBS = {
    "analyze": ["analyze", "--prior", PRIOR],
    "equilibria": ["equilibria", "--prior", PRIOR, "--rule", "brier"],
    "design": ["design", "--prior", PRIOR],
    "gap": ["gap", "--prior", PRIOR, "--matrix", MATRIX],
    "plot": ["plot", "--prior", PRIOR, "--matrix", MATRIX, "--resolution", "11"],
    "min-agents": ["min-agents", "--model", PRIOR],
}

PUBLIC_NAMES = [
    'BRIER', 'Boundary', 'Cluster', 'DegenerateMatrix', 'DegenerateModel', 'DeviationReport',
    'EpsilonMissing', 'Equilibrium', 'EquilibriumSet', 'GapReport', 'GenerativeModel',
    'HullReport', 'IndexOutOfRange', 'InfeasibleTangents', 'LineSet', 'MechanismSpec',
    'MirrorRequired', 'MonteCarloResult', 'NeverFocal', 'NotPositivelyCorrelated', 'NotStrict',
    'OutOfRange', 'OutsideHull', 'PaymentRound', 'PayoffMatrix', 'PeerPredictError', 'Prior',
    'Region', 'ResponsePoint', 'ScoringRule', 'SymmetricPrior', 'SymmetricStrategy',
    'TruthNotEquilibrium', 'all_same_report_probability', 'best_response_payoff',
    'brier', 'build_mppm', 'classify_region', 'convex_generator', 'deviation_gain',
    'deviation_gain_product', 'deviation_report', 'enumerate_equilibria', 'epsilon_q',
    'equilibria', 'equilibrium_set', 'errors', 'expected_payoff', 'focality_condition', 'gap',
    'grid_scan', 'hull_report', 'k_sup', 'kappa_iota', 'lineset_from_k_qstar',
    'lineset_to_matrix', 'matrix_from_rule', 'mechanism', 'min_agents_focal', 'model_from_dict',
    'monte_carlo', 'mppm_equilibrium_payoffs', 'mppm_pay', 'multidim_pay', 'normalize',
    'optimal_mechanism', 'optimal_qstar', 'optimizer', 'plot_data', 'ppm_pay', 'prior',
    'prior_from_conditionals', 'prior_from_dict', 'prior_from_model', 'product_scan',
    'punishment_level', 'quadrant', 'renormalized', 'response_point', 'scoring',
    'strategy_from_point', 'symmetric_gain_grid', 'translate', 'verify', 'xi',
]


def run_python(code: str) -> subprocess.CompletedProcess:
    p = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                       capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    return p


def test_package_import_is_numpy_free():
    run_python("""
        import sys
        import peerpredict
        assert "numpy" not in sys.modules
        assert "peerpredict.verify" not in sys.modules
    """)


@pytest.mark.parametrize("verb", sorted(ANALYTIC_VERBS))
def test_analytic_verb_is_numpy_free(verb):
    run_python(f"""
        import contextlib, io, sys
        from peerpredict.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main({ANALYTIC_VERBS[verb]!r}) == 0
        assert "numpy" not in sys.modules
        assert "peerpredict.verify" not in sys.modules
    """)


def test_punished_payoffs_are_numpy_free():
    run_python("""
        import sys
        from peerpredict import GenerativeModel, build_mppm, mppm_equilibrium_payoffs
        for model in (GenerativeModel.uniform(0.4, 0.8, 40), GenerativeModel.beta(0.3, 2.0, 40),
                      GenerativeModel.discrete([0.2, 0.8], [1, 3], 40)):
            assert "Truth" in mppm_equilibrium_payoffs(build_mppm(model))
        assert "numpy" not in sys.modules
        assert "peerpredict.verify" not in sys.modules
    """)


def test_single_round_payments_are_numpy_free():
    run_python(r"""
        import sys
        from peerpredict import (GenerativeModel, MechanismSpec, PaymentRound, PayoffMatrix,
                                 build_mppm, mppm_pay, multidim_pay, ppm_pay)
        spec = build_mppm(GenerativeModel.uniform(0.4, 0.8, 5))
        rnd = PaymentRound.from_csv("1\n1\n1\n1\n1\n", seed=3, round_id=9)
        assert mppm_pay(spec, rnd, 0) == ppm_pay(spec, rnd, 0) - spec.punishment
        matrix = PayoffMatrix(1.0, 0.2, 0.1, 0.7)
        spec_d2 = MechanismSpec(matrix=matrix, n_agents=3,
                                dim_matrices=(matrix, PayoffMatrix(0.9, 0.0, 0.1, 0.6)))
        rnd_d2 = PaymentRound(reports=((1, 0), (0, 0), (1, 1)), seed=5, round_id=2)
        assert ppm_pay(spec_d2, rnd_d2, 1) == multidim_pay(spec_d2, rnd_d2, 1)
        assert "numpy" not in sys.modules
    """)


def test_oracle_names_resolve_on_first_use():
    run_python("""
        import sys
        from peerpredict import monte_carlo, Cluster
        import peerpredict
        assert monte_carlo is peerpredict.verify.monte_carlo
        assert Cluster is sys.modules["peerpredict.verify"].Cluster
        assert "numpy" in sys.modules
    """)


def test_unknown_name_raises_attribute_error():
    run_python("""
        import peerpredict
        try:
            peerpredict.no_such_name
        except AttributeError as exc:
            assert "no_such_name" in str(exc)
        else:
            raise AssertionError("no AttributeError")
    """)


def test_public_names_unchanged():
    import peerpredict
    assert sorted(peerpredict.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(peerpredict))
