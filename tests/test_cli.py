import json
import subprocess
import sys

UNIFORM_PRIOR = '{"kind":"uniform","a":0.4,"b":0.8,"n":10}'


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "peerpredict.cli", *args],
                          capture_output=True, text=True)


class TestEquilibriaVerb:
    def test_brier_rule(self):
        p = run_cli("equilibria", "--prior", UNIFORM_PRIOR, "--rule", "brier")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["count"] == 7
        assert abs(out["qstar"] - 0.594444444444) < 1e-9
        by_label = {e["label"]: e for e in out["equilibria"]}
        assert abs(by_label["TruthZero"]["t1"] - 0.955) < 1e-3
        assert abs(by_label["LieOne"]["t1"] - 0.348) < 1e-3

    def test_matrix_argument(self):
        matrix = '{"h11":0.68,"h10":0.0,"h01":0.0,"h00":1.0}'
        p = run_cli("equilibria", "--prior", UNIFORM_PRIOR, "--matrix", matrix)
        assert p.returncode == 0
        assert json.loads(p.stdout)["count"] == 7

    def test_missing_matrix_and_rule(self):
        p = run_cli("equilibria", "--prior", UNIFORM_PRIOR)
        assert p.returncode == 1


class TestDesignVerb:
    def test_restaurant_design(self):
        p = run_cli("design", "--prior", UNIFORM_PRIOR)
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["region"] == "R1"
        m = out["mechanism"]
        assert abs(m["h11"] - 0.6814) < 1e-4
        assert m["h10"] == 0 and m["h01"] == 0 and m["h00"] == 1
        assert out["delta_star"] > 0

    def test_symmetric_prior_domain_error(self):
        p = run_cli("design", "--prior", '{"kind":"conditionals","q11":0.7,"q10":0.3}')
        assert p.returncode == 1
        assert "SymmetricPrior" in p.stderr

    def test_r3_needs_epsilon_flag(self):
        prior = '{"kind":"conditionals","q11":0.82,"q10":0.35}'
        p = run_cli("design", "--prior", prior)
        assert p.returncode == 1
        assert "EpsilonMissing" in p.stderr
        p = run_cli("design", "--prior", prior, "--epsilon", "1e-3")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["region"] == "R3" and out["epsilon"] == 1e-3

    def test_output_file(self, tmp_path):
        out = tmp_path / "design.json"
        p = run_cli("design", "--prior", UNIFORM_PRIOR, "--output", str(out))
        assert p.returncode == 0 and p.stdout == ""
        assert json.loads(out.read_text())["region"] == "R1"


class TestGapVerb:
    def test_scalar_output(self):
        matrix = '{"h11":0.68,"h10":0.0,"h01":0.0,"h00":1.0}'
        p = run_cli("gap", "--prior", UNIFORM_PRIOR, "--matrix", matrix)
        assert p.returncode == 0
        assert float(p.stdout.strip()) > 0

    def test_constant_matrix_degenerate(self):
        matrix = '{"h11":0.5,"h10":0.5,"h01":0.5,"h00":0.5}'
        p = run_cli("gap", "--prior", UNIFORM_PRIOR, "--matrix", matrix)
        assert p.returncode == 1
        assert "DegenerateMatrix" in p.stderr

    def test_matrix_not_an_object(self):
        for matrix in ('"x"', '{"h11":null,"h10":0.0,"h01":0.0,"h00":1.0}',
                       '{"h11":0.7,"h10":[0],"h01":0.0,"h00":1.0}'):
            p = run_cli("gap", "--prior", UNIFORM_PRIOR, "--matrix", matrix)
            assert p.returncode == 1
            assert "OutOfRange" in p.stderr and "Traceback" not in p.stderr

    def test_non_finite_json_literal(self):
        for literal in ("NaN", "Infinity", "-Infinity"):
            matrix = '{"h11":%s,"h10":0.0,"h01":0.0,"h00":1.0}' % literal
            p = run_cli("gap", "--prior", UNIFORM_PRIOR, "--matrix", matrix)
            assert p.returncode == 1
            assert "OutOfRange" in p.stderr


class TestSimulateVerb:
    SPEC = json.dumps({
        "matrix": {"h11": 1.0, "h10": 0.0, "h01": 0.0, "h00": 0.7},
        "n_agents": 4,
        "model": {"kind": "uniform", "a": 0.4, "b": 0.8, "n": 4},
    })
    PROFILE = json.dumps([[0.0, 1.0]] * 4)

    def test_reproducible_bytes(self):
        args = ("simulate", "--spec", self.SPEC, "--profile", self.PROFILE,
                "--trials", "20000", "--seed", "3")
        a, b = run_cli(*args), run_cli(*args)
        assert a.returncode == 0
        assert a.stdout == b.stdout

    def test_seed_changes_output(self):
        base = ("simulate", "--spec", self.SPEC, "--profile", self.PROFILE,
                "--trials", "20000")
        a = run_cli(*base, "--seed", "3")
        b = run_cli(*base, "--seed", "4")
        assert a.stdout != b.stdout

    def test_output_schema(self):
        p = run_cli("simulate", "--spec", self.SPEC, "--profile", self.PROFILE,
                    "--trials", "5000", "--seed", "0")
        out = json.loads(p.stdout)
        assert len(out["mean"]) == 4 and len(out["stderr"]) == 4
        assert out["trials"] == 5000 and out["seed"] == 0

    def test_malformed_spec_json(self):
        spec = json.loads(self.SPEC)
        for bad in ([1], dict(spec, matrix=[1]), dict(spec, dim_matrices=3),
                    dict(spec, n_agents=None), dict(spec, punishment=[0.5])):
            p = run_cli("simulate", "--spec", json.dumps(bad), "--profile", self.PROFILE,
                        "--trials", "100")
            assert p.returncode == 1
            assert "OutOfRange" in p.stderr and "Traceback" not in p.stderr

    def test_profile_rates_outside_unit_interval(self):
        spec = json.loads(self.SPEC)
        spec["n_agents"] = 3
        p = run_cli("simulate", "--spec", json.dumps(spec),
                    "--profile", "[[2,3],[0,1],[-1,1]]", "--trials", "100")
        assert p.returncode == 1
        assert "OutOfRange" in p.stderr and p.stdout == ""

    def test_punished_multidim_spec_rejected(self):
        spec = json.loads(self.SPEC)
        spec["punishment"] = 0.5
        spec["dim_matrices"] = [spec["matrix"], {"h11": 0.9, "h10": 0.0, "h01": 0.1, "h00": 0.6}]
        profile = json.dumps([[[0.0, 1.0]] * 2] * 4)
        p = run_cli("simulate", "--spec", json.dumps(spec), "--profile", profile,
                    "--trials", "100")
        assert p.returncode == 1
        assert "OutOfRange" in p.stderr


class TestPlotVerb:
    def test_csv_shape(self, tmp_path):
        matrix = '{"h11":0.68,"h10":0.0,"h01":0.0,"h00":1.0}'
        out = tmp_path / "plot.csv"
        p = run_cli("plot", "--prior", UNIFORM_PRIOR, "--matrix", matrix,
                    "--resolution", "11", "--output", str(out))
        assert p.returncode == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,quadrant,payoff"
        assert len(lines) == 1 + 11 * 11
        x, y, quad, pay = lines[1].split(",")
        float(x), float(y), float(pay)
        assert quad in ("R_tru", "R_one", "R_zero", "R_fal",
                        "x=qstar", "y=qstar", "center")


class TestOtherVerbs:
    def test_analyze(self):
        p = run_cli("analyze", "--prior", UNIFORM_PRIOR)
        out = json.loads(p.stdout)
        assert abs(out["prior"]["q1"] - 0.6) < 1e-9
        assert "epsilon_q" in out

    def test_min_agents(self):
        p = run_cli("min-agents", "--model", UNIFORM_PRIOR)
        assert p.returncode == 0
        n = int(p.stdout.strip())
        assert n >= 2

    def test_verify_verb(self):
        matrix = '{"h11":0.68,"h10":0.0,"h01":0.0,"h00":1.0}'
        p = run_cli("verify", "--prior", UNIFORM_PRIOR, "--matrix", matrix,
                    "--resolution", "101")
        assert p.returncode == 0
        out = json.loads(p.stdout)
        assert out["analytic_count"] == 7
        assert out["unmatched_clusters"] == []

    def test_malformed_prior_json(self):
        for prior in ("[1]", '{"kind":"discrete","points":3,"weights":[1],"n":4}',
                      '{"kind":"discrete","points":[0.5],"weights":3,"n":4}',
                      '{"kind":"discrete","points":[null,0.8],"weights":[1,1],"n":4}',
                      '{"kind":"uniform","a":null,"b":0.8,"n":4}',
                      '{"kind":"uniform","a":0.4,"b":0.8,"n":[4]}',
                      '{"kind":"conditionals","q11":[1],"q10":0.3}'):
            p = run_cli("analyze", "--prior", prior)
            assert p.returncode == 1
            assert "OutOfRange" in p.stderr and "Traceback" not in p.stderr
        prior = '{"kind":"discrete","points":[0.2,0.8],"weights":["a",1],"n":10}'
        p = run_cli("analyze", "--prior", prior)
        assert p.returncode == 2
        assert "invalid input" in p.stderr and "Traceback" not in p.stderr

    def test_min_agents_malformed_model(self):
        p = run_cli("min-agents", "--model", '{"kind":"uniform","a":0.4,"b":0.8,"n":null}')
        assert p.returncode == 1
        assert "OutOfRange" in p.stderr and "Traceback" not in p.stderr

    def test_flag_error_exit_code(self):
        p = run_cli("equilibria")  # missing --prior
        assert p.returncode == 2
        p = run_cli("nonsense")
        assert p.returncode == 2

    def test_json_round_trip_stability(self):
        # emitted JSON, re-ingested through the same formatter, is byte-stable
        p1 = run_cli("design", "--prior", UNIFORM_PRIOR)
        mech = json.dumps(json.loads(p1.stdout)["mechanism"])
        p2 = run_cli("equilibria", "--prior", UNIFORM_PRIOR, "--matrix", mech)
        out = json.loads(p2.stdout)
        for e in out["equilibria"]:
            if e["label"] == "Truth":
                truth = e["payoff"]
        p3 = run_cli("gap", "--prior", UNIFORM_PRIOR, "--matrix", mech)
        best_rival = max(e["payoff"] for e in out["equilibria"]
                         if e["label"] not in ("Truth", "Zero", "One"))
        assert abs(float(p3.stdout) - (truth - best_rival)) < 1e-9
