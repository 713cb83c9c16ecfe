import inspect
import json
import math
import os
import pathlib
import subprocess
import sys

import pytest

from toric_density import cli, counting
from toric_density.counting import zeta_partial

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
# report name -> the command whose stdout it holds
GOLDEN_COMMANDS = {
    "analyze_matrix_1_1_-2": ["analyze", "--matrix", "1,1,-2"],
    "analyze_hypersurface_1_1_1": ["analyze", "--hypersurface", "1,1,1"],
    "analyze_matrix_1_2_-3": ["analyze", "--matrix", "1,2,-3"],
    "euler_hypersurface_1_1": ["constants", "--euler", "--hypersurface", "1,1",
                               "--prime-cutoff", "200", "--euler-tol", "1e-6"],
    "euler_hypersurface_1_1_1": ["constants", "--euler", "--hypersurface", "1,1,1",
                                 "--prime-cutoff", "100", "--euler-tol", "1e-4"],
    "euler_matrix_1_2_-3_full": ["constants", "--euler", "--matrix", "1,2,-3",
                                 "--prime-cutoff", "50", "--euler-tol", "1e-6",
                                 "--full-factors"],
    "constants_hypersurface_1_1_1_squares": [
        "constants", "--hypersurface", "1,1,1", "--polynomial", "X1^2+X2^2+X3^2+X4^2",
        "--prime-cutoff", "100", "--euler-tol", "1e-3"],
    "sargos_projective_torus_2_cubic": [
        "constants", "--sargos-only", "--projective-torus", "2",
        "--polynomial", "X1^3+X2^3+X3^3+X1*X2*X3"],
    # counts and zeta sums: every enumerator and both reductions
    "verify_projective_torus_1_sup_7000": [
        "verify", "--projective-torus", "1", "--sup-norm", "--t", "7000",
        "--threads", "2"],
    "count_matrix_1_1_-2_sup_950": ["count", "--matrix", "1,1,-2", "--sup-norm",
                                    "--t", "950"],
    "count_matrix_1_1_-2_squares_520": ["count", "--matrix", "1,1,-2", "--polynomial",
                                        "X1^2+X2^2+X3^2", "--t", "520"],
    "verify_projective_torus_2_sup_316": ["verify", "--projective-torus", "2",
                                          "--sup-norm", "--t", "316"],
    "count_hypersurface_1_1_1_sup_600": ["count", "--hypersurface", "1,1,1",
                                         "--sup-norm", "--t", "600"],
    "count_matrix_1_1_-1_-1_sup_120": ["count", "--matrix", "1,1,-1,-1", "--sup-norm",
                                       "--t", "120"],
    "zeta_hypersurface_1_1_squares": [
        "zeta", "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2",
        "--budget", "1000000", "--s", "1.5,1.2"],
    # the P^1 pair grid at side 1500; unequal powers and a mixed monomial
    "zeta_projective_torus_1_squares": [
        "zeta", "--projective-torus", "1", "--polynomial", "X1^2+X2^2",
        "--budget", "2250000", "--s", "2.5,2.2"],
    "zeta_hypersurface_1_2_mixed": [
        "zeta", "--hypersurface", "1,2", "--polynomial", "X1^2+2*X2^2+X3^2+X1*X3",
        "--budget", "1000000", "--s", "1.5,1.2"],
    "zeta_matrix_1_1_-2_squares": [
        "zeta", "--matrix", "1,1,-2", "--polynomial", "X1^2+X2^2+X3^2",
        "--budget", "1000000", "--s", "1.5,1.2"],
    # the relation enumerator with no relation, under a mixed cubic
    "zeta_projective_torus_2_mixed_cubic": [
        "zeta", "--projective-torus", "2", "--polynomial", "X1^3+X2^3+X3^3+X1*X2*X3",
        "--budget", "1000000", "--s", "3.5,3.2"],
}


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


class TestAnalyze:
    def test_hypersurface_11(self, capsys):
        code, out = run_cli(["analyze", "--hypersurface", "1,1"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["iota"] == 1 and data["rho"] == 1
        assert data["c"] == ["1/2", "1/2"]
        assert data["compact"] is True

    def test_projective_torus(self, capsys):
        code, out = run_cli(["analyze", "--projective-torus", "2"], capsys)
        data = json.loads(out)
        assert code == 0 and data["iota"] == 3 and data["c"] == [1, 1, 1]

    def test_matrix_input(self, capsys):
        code, out = run_cli(["analyze", "--matrix", "1,1,-2"], capsys)
        data = json.loads(out)
        assert code == 0 and data["iota"] == 1 and data["rho"] == 1

    def test_bad_input(self, capsys):
        code = cli.main(["analyze", "--matrix", "1,1,-1"])
        assert code == cli.EXIT_BAD_INPUT

    def test_no_problem(self, capsys):
        assert cli.main(["analyze"]) == cli.EXIT_BAD_INPUT


class TestGenerators:
    def test_points(self, capsys):
        code, out = run_cli(["generators", "--hypersurface", "1,1"], capsys)
        data = json.loads(out)
        assert code == 0
        assert sorted(map(tuple, data["points"])) == [(0, 2), (2, 0)]
        assert data["stabilized"] is True
        assert data["cap"] == 2  # the proven cap of (1,1)

    def test_no_cap_option(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["generators", "--hypersurface", "1,1", "--cap", "4"])


class TestCount:
    def test_sup_mode(self, capsys):
        code, out = run_cli(["count", "--projective-torus", "1", "--sup-norm",
                             "--t", "5,10"], capsys)
        data = json.loads(out)
        assert code == 0
        assert data["results"][0]["count"] == 38

    def test_polynomial_mode(self, capsys):
        code, out = run_cli(["count", "--hypersurface", "1,1", "--polynomial",
                             "X1^2+X2^2+X3^2", "--t", "10"], capsys)
        data = json.loads(out)
        assert code == 0 and data["results"][0]["count"] == 10

    def test_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "series.csv"
        code, _ = run_cli(["count", "--projective-torus", "1", "--sup-norm",
                           "--t", "5", "--csv", str(csv_path)], capsys)
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "t,N,predicted,ratio"
        assert lines[1].startswith("5.0,38")


    @pytest.mark.parametrize("height", [("--sup-norm", "--t", "950"),
                                        ("--polynomial", "X1^2+X2^2+X3^2", "--t", "520")])
    def test_matrix_equals_hypersurface(self, capsys, height):
        # x1 x2 = x3^2 spelled as a matrix row runs on the hypersurface engine
        reports = [run_cli(["count", *problem, *height], capsys)
                   for problem in (("--matrix", "1,1,-2"), ("--hypersurface", "1,1"))]
        assert reports[0][0] == reports[1][0] == 0
        assert reports[0][1] == reports[1][1]

    def test_budget_of_the_pair_grid(self, capsys):
        # box^2 = 4e6 cells exceed the budget, the 44 x 44 pair grid does not;
        # the primitive points are (w1^2, w2^2, w1 w2) with coprime w, two signs
        t = 2000
        code, out = run_cli(["count", "--matrix", "1,1,-2", "--sup-norm", "--t", str(t),
                             "--budget", "1000000"], capsys)
        m = math.isqrt(t)
        mu = [1] * (m + 1)
        for p in range(2, m + 1):
            if all(p % d for d in range(2, p)):
                for k in range(p, m + 1, p):
                    mu[k] = 0 if k % (p * p) == 0 else -mu[k]
        oracle = 2 * sum(mu[d] * (m // d) ** 2 for d in range(1, m + 1))
        assert code == 0 and json.loads(out)["results"][0]["count"] == oracle


class TestConstants:
    def test_sargos_only(self, capsys):
        code, out = run_cli(["constants", "--hypersurface", "1,1",
                             "--polynomial", "X1^2+X2^2", "--sargos-only"], capsys)
        data = json.loads(out)
        assert code == 0
        import math
        assert abs(data["sargos"]["value"] - math.pi / 4) < 1e-8

    def test_euler_without_polynomial(self, capsys):
        code, out = run_cli(["constants", "--euler", "--projective-torus", "1",
                             "--prime-cutoff", "100"], capsys)
        data = json.loads(out)
        assert code == 0 and "polynomial" not in data
        euler = data["euler"]
        assert abs(float(euler["value_str"]) - 6 / math.pi ** 2) <= euler["error_bound"]

    def test_full_assembly(self, capsys):
        code, out = run_cli(["constants", "--hypersurface", "1,1",
                             "--polynomial", "X1^2+X2^2+X3^2",
                             "--prime-cutoff", "20000"], capsys)
        data = json.loads(out)
        assert code == 0
        assert data["iota"] == 1 and data["rho"] == 1
        assert abs(data["leading_constant"] - 1.02481333) < 1e-4
        assert data["flags"] == {"compact": True, "dimension_ok": True,
                                 "stabilized": True}


class TestVerify:
    def test_projective_torus_sup(self, capsys):
        code, out = run_cli(["verify", "--projective-torus", "1", "--sup-norm",
                             "--t", "2000", "--band", "0.02"], capsys)
        data = json.loads(out)
        assert code == 0 and data["ok"] is True

    def test_hypersurface_polynomial(self, capsys):
        code, out = run_cli(["verify", "--hypersurface", "1,1", "--polynomial",
                             "X1^2+X2^2+X3^2", "--t", "600",
                             "--prime-cutoff", "20000", "--band", "0.05"], capsys)
        data = json.loads(out)
        assert code == 0 and data["ok"] is True


class TestZeta:
    def test_samples(self, capsys):
        code, out = run_cli(["zeta", "--hypersurface", "1,1", "--polynomial",
                             "X1^2+X2^2+X3^2", "--s", "1.5,1.3",
                             "--budget", "1000000"], capsys)
        data = json.loads(out)
        assert code == 0 and len(data["samples"]) == 2
        assert data["samples"][0]["s"] == 1.5
        assert abs(data["samples"][0]["probe"] - 1.0248) < 0.1

    def test_refuses_a_non_homogeneous_height(self, capsys):
        # count refuses it, and the zeta sums would mix degrees the same way
        tail = ["--projective-torus", "1", "--polynomial", "X1^2+X2^2+X1"]
        assert cli.main(["count", "--t", "10"] + tail) == cli.EXIT_BAD_INPUT
        count_err = capsys.readouterr().err
        code = cli.main(["zeta", "--budget", "1000000", "--s", "2.5"] + tail)
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT and captured.out == ""
        assert captured.err == count_err
        assert "homogeneous" in captured.err

    def test_default_budget(self):
        args = cli.build_parser().parse_args(["zeta", "--projective-torus", "1",
                                              "--s", "2.5"])
        default = inspect.signature(zeta_partial).parameters["term_budget"].default
        assert args.budget == default


class TestGoldenReports:
    """Design changes must reproduce these reports byte for byte."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
    def test_report_bytes(self, capsys, name):
        code, out = run_cli(GOLDEN_COMMANDS[name], capsys)
        assert code == 0
        assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()

    def test_every_file_has_a_command(self):
        assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(GOLDEN_COMMANDS)


class TestInternalErrors:
    def test_invariant_error_exits_1_without_traceback(self, capsys, monkeypatch):
        real = counting.face_points
        monkeypatch.setattr(counting, "face_points", lambda spec, c: real(spec, c)[1:])
        code = cli.main(["constants", "--hypersurface", "1,1", "--polynomial",
                         "X1^2+X2^2+X3^2", "--prime-cutoff", "100"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CHECK_FAILED == 1
        assert captured.err.startswith("internal error: face points carry weight")
        assert "Traceback" not in captured.err and captured.out == ""


class TestProblemFiles:
    def test_round_trip(self, tmp_path, capsys):
        from toric_density.cli import dump_problem, load_problem_file
        from toric_density.model import validate_toric_matrix
        from toric_density.polyparse import parse_polynomial
        poly = parse_polynomial("X1^2 + 3/2*X2^2 + X3^1/2*X1^3/2")
        prob = validate_toric_matrix([(1, 1, -2)])
        data = dump_problem(prob, None, poly)
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        prob2, hyper2, poly2 = load_problem_file(str(path))
        assert prob2 == prob and hyper2 is None and poly2 == poly
        assert dump_problem(prob2, hyper2, poly2) == data

    def test_hypersurface_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"hypersurface": [1, 1]}))
        code, out = run_cli(["analyze", "--problem", str(path)], capsys)
        assert code == 0 and json.loads(out)["iota"] == 1


class TestDeterminism:
    def test_reports_identical_across_threads(self, capsys, monkeypatch):
        outputs = []
        for threads in ("1", "4", "8"):
            monkeypatch.setenv("MANIN_TORIC_THREADS", threads)
            code, out = run_cli(["verify", "--hypersurface", "1,1",
                                 "--polynomial", "X1^2+X2^2+X3^2",
                                 "--t", "400", "--prime-cutoff", "10000"], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("problem", [
        ("--hypersurface", "1,2", "--polynomial", "X1^2+X2^2+X3^2", "--s", "1.5,1.2"),
        ("--projective-torus", "1", "--polynomial", "X1^2+X2^2", "--s", "2.5,2.2"),
        ("--matrix", "1,1,-2", "--polynomial", "X1^2+X2^2+X3^2", "--s", "1.5,1.2"),
        ("--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2", "--s", "1.5,1.2"),
        ("--projective-torus", "2", "--polynomial", "X1^3+X2^3+X3^3", "--s", "3.5,3.2")])
    def test_zeta_thread_flag(self, capsys, problem):
        outputs = []
        for threads in ("1", "2", "3", "4", "8"):
            code, out = run_cli(["zeta", *problem, "--budget", "1000000",
                                 "--threads", threads], capsys)
            assert code == 0
            outputs.append(out)
        assert all(out == outputs[0] for out in outputs)

    @pytest.mark.parametrize("argv", [
        ("verify", "--projective-torus", "2", "--sup-norm", "--t", "200"),
        ("count", "--hypersurface", "1,1,1", "--sup-norm", "--t", "300")])
    def test_block_paths_thread_flag(self, capsys, argv):
        outputs = []
        for threads in ("1", "2"):
            code, out = run_cli([*argv, "--threads", threads], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_count_thread_flag(self, capsys):
        results = []
        for threads in ("1", "4"):
            code, out = run_cli(["count", "--projective-torus", "1", "--sup-norm",
                                 "--t", "3000", "--threads", threads], capsys)
            assert code == 0
            results.append(json.loads(out)["results"][0]["count"])
        assert results[0] == results[1]

    def test_thread_flag_leaves_environment(self, capsys, monkeypatch):
        # --threads reaches the counts as an argument; it must not become the
        # MANIN_TORIC_THREADS default of every later call in the process
        monkeypatch.delenv("MANIN_TORIC_THREADS", raising=False)
        before = dict(os.environ)
        code, _ = run_cli(["count", "--projective-torus", "1", "--sup-norm",
                           "--t", "50", "--threads", "2"], capsys)
        assert code == 0
        assert dict(os.environ) == before


class TestImportCost:
    def test_scipy_loads_only_when_integrating(self):
        # counts, sup-norm verification and zeta sums never integrate
        script = """
import contextlib, io, sys
import toric_density.cli as cli
assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'import'
for argv in (["count", "--matrix", "1,1,-2", "--sup-norm", "--t", "50"],
             ["verify", "--projective-torus", "1", "--sup-norm", "--t", "200"],
             ["zeta", "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2",
              "--budget", "1000000", "--s", "1.5"],
             ["zeta", "--hypersurface", "1,1,1", "--polynomial", "X1^2+X2^2+X3^2+X4^2",
              "--budget", "1000000", "--s", "1.3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], argv
"""
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
