import collections
import importlib.util
import inspect
import json
import math
import os
import pathlib
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toric_density import cli, counting, euler as eulermod
from toric_density.counting import zeta_partial
from toric_density.vectors import format_digits

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
# report name -> the command whose stdout it holds
GOLDEN_COMMANDS = {
    "analyze_matrix_1_1_-2": ["analyze", "--matrix", "1,1,-2"],
    "analyze_hypersurface_1_1_1": ["analyze", "--hypersurface", "1,1,1"],
    "analyze_matrix_1_2_-3": ["analyze", "--matrix", "1,2,-3"],
    # a polar LP with four face points, and one in eight coordinates: the
    # Segre cube, the rows of test_acceptance.TestSegreCubeGenerators
    "analyze_matrix_1_1_-1_-1": ["analyze", "--matrix", "1,1,-1,-1"],
    "analyze_segre_cube": [
        "analyze", "--matrix",
        "1,0,-1,0,-1,0,1,0;0,1,0,-1,0,-1,0,1;1,-1,0,0,-1,1,0,0;1,-1,-1,1,0,0,0,0"],
    # the log series of a rho = 2 face
    "euler_matrix_1_1_-1_-1": ["constants", "--euler", "--matrix", "1,1,-1,-1",
                               "--prime-cutoff", "200"],
    "euler_hypersurface_1_1": ["constants", "--euler", "--hypersurface", "1,1",
                               "--prime-cutoff", "200", "--euler-tol", "1e-6"],
    "euler_hypersurface_1_1_1": ["constants", "--euler", "--hypersurface", "1,1,1",
                                 "--prime-cutoff", "100", "--euler-tol", "1e-4"],
    # zeta(3/2)^2 / (zeta(2) zeta(3)): a zeta product at a non-integer exponent
    "euler_matrix_1_-1_2_-2": ["constants", "--euler", "--matrix", "1,-1,2,-2"],
    "euler_matrix_1_2_-3_full": ["constants", "--euler", "--matrix", "1,2,-3",
                                 "--prime-cutoff", "50", "--euler-tol", "1e-6",
                                 "--full-factors"],
    # a zeta product at 700 bits, and the factors its prime pass lists
    "euler_hypersurface_1_1_precision_700": [
        "constants", "--euler", "--hypersurface", "1,1", "--precision", "700",
        "--prime-cutoff", "200", "--full-factors"],
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
    # polynomial heights on both integer engines, and a valuation solve
    # with a prefix level
    "count_projective_torus_2_cubic_60_120": [
        "count", "--projective-torus", "2", "--polynomial", "X1^3+X2^3+X3^3+X1*X2*X3",
        "--t", "60,120"],
    "count_matrix_1_1_-1_-1_squares_80": [
        "count", "--matrix", "1,1,-1,-1", "--polynomial", "X1^2+X2^2+X3^2+X4^2",
        "--t", "80"],
    "count_hypersurface_1_1_1_squares_150": [
        "count", "--hypersurface", "1,1,1", "--polynomial", "X1^2+X2^2+X3^2+X4^2",
        "--t", "150"],
    "count_hypersurface_1_1_1_1_sup_40": ["count", "--hypersurface", "1,1,1,1",
                                          "--sup-norm", "--t", "40"],
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
    # the support generators of both presentations, and the polynomial
    # verify and constant of a matrix next to the same hypersurface
    "generators_hypersurface_1_1_1": ["generators", "--hypersurface", "1,1,1"],
    "generators_matrix_1_1_-1_-1": ["generators", "--matrix", "1,1,-1,-1"],
    "verify_hypersurface_1_1_squares_400": [
        "verify", "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2",
        "--t", "400", "--prime-cutoff", "10000"],
    "verify_matrix_1_1_-2_squares_400": [
        "verify", "--matrix", "1,1,-2", "--polynomial", "X1^2+X2^2+X3^2",
        "--t", "400", "--prime-cutoff", "10000"],
    "constants_matrix_1_1_-2_squares": [
        "constants", "--matrix", "1,1,-2", "--polynomial", "X1^2+X2^2+X3^2",
        "--prime-cutoff", "1000"],
    # the Sargos geometry: a recession face with m < n, a compact face in
    # four variables, and the quadric's rho0 = 2 of 4 with a middle block
    "sargos_projective_torus_1_recession": [
        "constants", "--sargos-only", "--projective-torus", "1",
        "--polynomial", "X1+X1*X2^2"],
    "sargos_projective_torus_3_squares": [
        "constants", "--sargos-only", "--projective-torus", "3",
        "--polynomial", "X1^2+X2^2+X3^2+X4^2"],
    "constants_matrix_1_1_-1_-1_squares": [
        "constants", "--matrix", "1,1,-1,-1", "--polynomial", "X1^2+X2^2+X3^2+X4^2",
        "--prime-cutoff", "100"],
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

    def test_no_hull_past_ten_coordinates(self, capsys):
        # generators builds no Newton polyhedron, whose hull stops at ten
        # coordinates
        code, out = run_cli(["generators", "--projective-torus", "10"], capsys)
        data = json.loads(out)
        assert code == 0 and len(data["points"]) == 11

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

    def test_sargos_only_without_polynomial(self, capsys):
        code = cli.main(["constants", "--sargos-only", "--euler", "--hypersurface", "1,1"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT and captured.out == ""
        assert "--polynomial" in captured.err and "Traceback" not in captured.err

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

    @pytest.mark.parametrize("t", ["8", "15.5", "1"])
    def test_t_below_the_ladder(self, capsys, t):
        code = cli.main(["verify", "--projective-torus", "1", "--sup-norm", "--t", t])
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT and captured.out == ""
        assert "at least 16" in captured.err and "t/16" in captured.err

    def test_t_at_the_ladder_foot(self, capsys):
        code, out = run_cli(["verify", "--projective-torus", "1", "--sup-norm",
                             "--t", "16", "--band", "1"], capsys)
        assert code == 0 and json.loads(out)["table"][0]["t"] == 1

    @pytest.mark.parametrize("allow", [[], ["--allow-flags"]])
    def test_density_outside_the_band_fails(self, capsys, allow):
        code, out = run_cli(["verify", "--projective-torus", "1", "--sup-norm",
                             "--t", "16", "--band", "0"] + allow, capsys)
        assert code == cli.EXIT_CHECK_FAILED and json.loads(out)["ok"] is False

    @pytest.mark.parametrize("problem", [("--hypersurface", "1,1"), ("--matrix", "1,1,-2")])
    def test_polynomial_verify_analyzes_once(self, capsys, monkeypatch, problem):
        # the hypothesis flags come from manin_constant's own analysis
        from toric_density import generators, polyhedron
        calls = collections.Counter()
        modules = [m for name, m in sys.modules.items() if name.startswith("toric_density")]
        for home, name in ((generators, "generators_with_check"),
                           (polyhedron, "build_polyhedron"), (polyhedron, "diagonal_face")):
            original = getattr(home, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            for module in modules:  # every namespace that bound the name
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        code, _ = run_cli(["verify", *problem, "--polynomial", "X1^2+X2^2+X3^2",
                           "--t", "400", "--prime-cutoff", "10000"], capsys)
        assert code == 0
        assert calls == {"generators_with_check": 1, "build_polyhedron": 1,
                         "diagonal_face": 1}


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

    @pytest.mark.parametrize("problem,message", [
        (["--hypersurface", "1,1"], "polynomial must have 3 variables"),
        (["--matrix", "1,1,-2"], "height polynomial must use every homogeneous coordinate"),
    ])
    def test_wrong_arity_names_the_variables(self, capsys, problem, message):
        # the same message as constants gives for that polynomial
        tail = problem + ["--polynomial", "X1^2+X2^2"]
        for command in (["zeta", "--budget", "1000000", "--s", "2.5"], ["constants"]):
            assert cli.main(command + tail) == cli.EXIT_BAD_INPUT
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("problem", [
        ["--projective-torus", "1", "--polynomial", "X1^2+X2^2"],          # pair grid
        ["--projective-torus", "2", "--polynomial", "X1^2+X2^2+X3^2"],     # relations
    ])
    def test_huge_s_sums_to_zero_quietly(self, problem):
        # s log P overflows to -inf, whose exp is the exact 0; numpy's
        # overflow warning must not reach stderr
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "toric_density.cli", "zeta", *problem,
             "--s", "1e308", "--budget", "1000000"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["samples"] == [
            {"partial": 0.0, "probe": 0.0, "s": 1e308, "tail_estimate": 0.0, "value": 0.0}]

    def test_huge_s_rho_above_one_sums_to_zero(self):
        # rho = 7: the log-power tail and the probe's (s - iota)^rho would
        # overflow where the value is already 0
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "toric_density.cli", "zeta", "--hypersurface", "1,1,1",
             "--polynomial", "X1^2+X2^2+X3^2+X4^2", "--budget", "1000000",
             "--s", "1e60,1e200,1e308"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
        assert done.returncode == 0 and done.stderr == ""
        assert json.loads(done.stdout)["samples"] == [
            {"partial": 0.0, "probe": 0.0, "s": s, "tail_estimate": 0.0, "value": 0.0}
            for s in (1e60, 1e200, 1e308)]

    def test_default_budget(self):
        args = cli.build_parser().parse_args(["zeta", "--projective-torus", "1",
                                              "--s", "2.5"])
        default = inspect.signature(zeta_partial).parameters["term_budget"].default
        assert args.budget == default


class TestNumericFlags:
    """Float flags that no run can use exit 2, naming the flag, before any
    output: NaN passes every `x <= 0` check, and s = inf sums to NaN."""

    @staticmethod
    def refused(argv, flag, capsys):
        code = cli.main(argv)
        captured = capsys.readouterr()
        return code == cli.EXIT_BAD_INPUT and captured.out == "" and flag in captured.err

    @pytest.mark.parametrize("s", ["nan", "inf", "-inf", "1.5,NaN", "1.5,Infinity",
                                   "1.5,,1.2", "abc"])
    @pytest.mark.parametrize("problem", [("--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2"),
                                         ("--matrix", "1,1,-2", "--polynomial", "X1^2+X2^2+X3^2")])
    def test_zeta_s_must_be_finite(self, capsys, problem, s):
        assert self.refused(["zeta", *problem, "--budget", "1000000", f"--s={s}"], "--s", capsys)

    @pytest.mark.parametrize("flag", ["--quad-tol", "--euler-tol"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "-1e-9"])
    @pytest.mark.parametrize("command", ["constants", "verify", "zeta"])
    def test_tolerances_must_be_positive_and_finite(self, capsys, command, flag, value):
        own = {"constants": [], "verify": ["--t", "400"], "zeta": ["--s", "1.5"]}[command]
        argv = [command, "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2",
                *own, f"{flag}={value}"]
        assert self.refused(argv, flag, capsys)

    @pytest.mark.parametrize("band", ["nan", "-0.01", "-inf"])
    def test_band_must_be_a_number_at_least_zero(self, capsys, band):
        argv = ["verify", "--projective-torus", "1", "--sup-norm", "--t", "16", f"--band={band}"]
        assert self.refused(argv, "--band", capsys)

    def test_infinite_band_passes_any_density(self, capsys):
        code, out = run_cli(["verify", "--projective-torus", "1", "--sup-norm", "--t", "16",
                             "--band=inf"], capsys)
        assert code == 0 and json.loads(out)["ok"] is True


class TestParser:
    """main builds only the invoked subcommand's parser."""

    @staticmethod
    def help_text(parser, argv, capsys):
        with pytest.raises(SystemExit) as stop:
            parser.parse_args(argv)
        assert stop.value.code == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(cli.SUBCOMMANDS))
    def test_subcommand_help_is_unchanged(self, capsys, name):
        lean = self.help_text(cli.build_parser(name), [name, "--help"], capsys)
        full = self.help_text(cli.build_parser(), [name, "--help"], capsys)
        assert lean == full and lean.startswith(f"usage: toric-density {name} ")

    def test_lean_parser_holds_one_subcommand(self):
        [action] = [a for a in cli.build_parser("zeta")._actions
                    if a.dest == "command"]
        assert list(action.choices) == ["zeta"]

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["--help"])
        out = capsys.readouterr().out
        assert all(name in out for name in cli.SUBCOMMANDS)

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--threads", "2", "count"]])
    def test_errors_come_from_the_full_parser(self, capsys, argv):
        with pytest.raises(SystemExit):
            cli.main(argv)
        got = capsys.readouterr().err
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(argv)
        assert got == capsys.readouterr().err and "usage: toric-density" in got


class TestBenchmarkCommands:
    """Every command line of the benchmark's workloads still parses, so a
    later removal of a flag that it passes shows here."""

    def test_every_command_parses(self, capsys, monkeypatch):
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
        spec.loader.exec_module(workloads)
        parser = cli.build_parser()
        argvs = {command.argv for workload in workloads.WORKLOADS.values()
                 for seed in range(10) for command in workload.build(seed)}
        assert {argv[0] for argv in argvs} >= {"constants", "count", "verify", "zeta"}
        refused = []
        for argv in sorted(argvs):
            try:
                parser.parse_args(argv)
            except SystemExit:
                refused.append((argv, capsys.readouterr().err))
        assert refused == []


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


class TestHullDimensionCap:
    SQUARES_5 = "X1^2+X2^2+X3^2+X4^2+X5^2"

    @pytest.mark.parametrize("argv, dim", [
        # the (1,1,1,1) volume constant's auxiliary polynomial has K = 34 variables
        (["constants", "--hypersurface", "1,1,1,1", "--polynomial", SQUARES_5], 34),
        (["verify", "--hypersurface", "1,1,1,1", "--polynomial", SQUARES_5, "--t", "16"], 34),
        (["constants", "--sargos-only", "--projective-torus", "10",
          "--polynomial", "+".join(f"X{i}" for i in range(1, 12))], 11)])
    def test_refused_with_exit_2(self, capsys, argv, dim):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT == 2 and captured.out == ""
        assert captured.err == f"refused: hull dimension {dim} exceeds cap 10\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--projective-torus", "10"],
        ["constants", "--euler", "--projective-torus", "10"],
        ["constants", "--projective-torus", "10",
         "--polynomial", "+".join(f"X{i}" for i in range(1, 12))]])
    def test_refused_before_the_generator_walk(self, capsys, monkeypatch, argv):
        def walk(spec):
            raise AssertionError("the generator walk was reached")
        monkeypatch.setattr(cli.genmod, "generators_with_check", walk)
        monkeypatch.setattr(counting, "generators_with_check", walk)
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == cli.EXIT_BAD_INPUT and captured.out == ""
        assert captured.err == "refused: hull dimension 11 exceeds cap 10\n"


class TestZetaProductRoute:
    """Weights with finitely many Witt exponents never sieve or pass primes."""

    @staticmethod
    def no_primes(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("entered the prime pass")
        monkeypatch.setattr(eulermod, "_prime_pass", refuse)
        monkeypatch.setattr(eulermod, "_odd_sieve", refuse)

    @pytest.mark.parametrize("argv", [
        ["constants", "--euler", "--projective-torus", "2"],
        ["constants", "--euler", "--matrix", "1,1,-2"],
        ["constants", "--euler", "--matrix", "1,1,-1,-1"],
        ["constants", "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2"]])
    def test_no_prime_is_read(self, capsys, monkeypatch, argv):
        self.no_primes(monkeypatch)
        code, out = run_cli(argv, capsys)
        assert code == 0 and json.loads(out)["euler"]["method"] == "zeta-product"

    def test_111_still_enters_the_pass(self, monkeypatch):
        self.no_primes(monkeypatch)
        with pytest.raises(AssertionError, match="entered the prime pass"):
            cli.main(["constants", "--euler", "--hypersurface", "1,1,1"])


class TestProblemFiles:
    def test_round_trip(self, tmp_path, capsys):
        from toric_density.cli import load_problem_file
        from toric_density.model import validate_toric_matrix
        from toric_density.polyparse import parse_polynomial
        path = tmp_path / "problem.json"
        path.write_text("""{"matrix": [[1, 1, -2]], "width": 3, "polynomial": {"monomials": [
            {"coefficient": "1", "exponents": ["3/2", "0", "1/2"]},
            {"coefficient": 1, "exponents": [2, 0, 0]},
            {"coefficient": "3/2", "exponents": [0, 2, 0]}]}}""")
        prob, poly = load_problem_file(str(path))
        assert prob == validate_toric_matrix([(1, 1, -2)]) and prob.exponents is None
        assert poly == parse_polynomial("X1^2 + 3/2*X2^2 + X3^1/2*X1^3/2")

    def test_hypersurface_file(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"hypersurface": [1, 1]}))
        code, out = run_cli(["analyze", "--problem", str(path)], capsys)
        assert code == 0 and json.loads(out)["iota"] == 1

    @pytest.mark.parametrize("data,field", [
        ({"hypersurface": [1, 1], "polynomial": {}}, "'monomials'"),
        ({"hypersurface": 5}, "'hypersurface'"),
        ({"hypersurface": [1.5, 1]}, "'hypersurface'"),
        ({"hypersurface": [1, 1], "polynomial": {"monomials": [{"exponents": [2, 0]}]}},
         "'coefficient'"),
        ({"hypersurface": [1, 1], "polynomial": {"monomials": [
            {"coefficient": 1, "exponents": 2}]}}, "'exponents'"),
        ({"matrix": [[1, 1, -2], 3]}, "'matrix'"),
        ({"matrix": [], "width": [3]}, "'width'"),
        ({"matrix": [], "width": 3.7}, "'width'"),
        ([1, 2], "JSON object"),
    ])
    def test_malformed_file_is_bad_input(self, tmp_path, capsys, data, field):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        code = cli.main(["analyze", "--problem", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_BAD_INPUT
        assert err.startswith("error: problem file") and field in err
        assert "Traceback" not in err


    def test_width_must_match_rows(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"matrix": [[1, 1, -2]], "width": 5}))
        code = cli.main(["analyze", "--problem", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_BAD_INPUT
        assert err == "error: 'width' is 5, but the matrix rows have 3 entries\n"


class TestPresentation:
    """A hypersurface from --hypersurface or from a problem file wins over a
    --matrix or --projective-torus given with it."""

    COMMANDS = (["analyze"],
                ["zeta", "--polynomial", "X1^2+X2^2+X3^2", "--budget", "1000000",
                 "--s", "1.5"])

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("beside", [("--matrix", "1,1,-2"),
                                        ("--projective-torus", "2")])
    def test_hypersurface_flag_wins(self, capsys, command, beside):
        alone = run_cli([*command, "--hypersurface", "1,1"], capsys)
        both = run_cli([*command, *beside, "--hypersurface", "1,1"], capsys)
        assert alone[0] == 0 and both == alone

    @pytest.mark.parametrize("command", COMMANDS)
    def test_hypersurface_file_wins(self, tmp_path, capsys, command):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"hypersurface": [1, 1]}))
        alone = run_cli([*command, "--hypersurface", "1,1"], capsys)
        both = run_cli([*command, "--problem", str(path), "--matrix", "1,1,-2"], capsys)
        assert alone[0] == 0 and both == alone


class TestDeterminism:
    def test_reports_identical_across_threads(self, capsys):
        outputs = []
        for threads in ("1", "4", "8"):
            code, out = run_cli(["verify", "--hypersurface", "1,1",
                                 "--polynomial", "X1^2+X2^2+X3^2",
                                 "--t", "400", "--prime-cutoff", "10000",
                                 "--threads", threads], capsys)
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("problem", [
        ("--hypersurface", "1,2", "--polynomial", "X1^2+X2^2+X3^2", "--s", "1.5,1.2"),
        ("--projective-torus", "1", "--polynomial", "X1^2+X2^2", "--s", "2.5,2.2"),
        ("--matrix", "1,1,-2", "--polynomial", "X1^2+X2^2+X3^2", "--s", "1.5,1.2"),
        ("--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2", "--s", "1.5,1.2"),
        ("--projective-torus", "2", "--polynomial", "X1^3+X2^3+X3^3", "--s", "3.5,3.2"),
        # pair grids whose height is not swap-symmetric: every cell is scanned
        ("--hypersurface", "1,2", "--polynomial", "X1^2+2*X2^2+X3^2+X1*X3", "--s", "1.5,1.2"),
        ("--projective-torus", "1", "--polynomial", "X1^2+2*X2^2", "--s", "2.5,2.2")])
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

    def test_thread_flag_leaves_environment(self, capsys):
        # --threads reaches the counts as an argument, never through the
        # environment of the process
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
        self.run_script(script)

    def test_closed_form_constants_load_neither(self):
        # faces with a Gamma-product or Mellin-Barnes integral need no
        # scipy; the P^3 face took gauss-kronrod-3d before
        script = """
import contextlib, io, sys
import toric_density.cli as cli
for argv in (["constants", "--sargos-only", "--projective-torus", "3",
              "--polynomial", "X1^2+X2^2+X3^2+X4^2"],
             ["constants", "--hypersurface", "1,1,1", "--polynomial", "X1^2+X2^2+X3^2+X4^2",
              "--prime-cutoff", "100", "--euler-tol", "1e-3"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert not [m for m in sys.modules if m.split('.')[0] in ('scipy', 'mpmath')], argv
"""
        self.run_script(script)

    @staticmethod
    def run_script(script):
        src = str(pathlib.Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_no_command_loads_mpmath(self):
        # the Euler assembly, the 30-digit strings and zeta(n + 1) of the
        # sup-norm prediction take no mpmath; neither does the zeta product
        # of (1,1) at --precision 700, which prints its golden bytes, nor
        # the prime pass of (1,1,1) or zeta(3/2) of (1,-1,2,-2) at 700 bits
        script = f"""
import contextlib, io, json, sys
import toric_density.cli as cli
assert 'mpmath' not in sys.modules, 'import'
for argv in (["constants", "--euler", "--hypersurface", "1,1,1", "--prime-cutoff", "2000"],
             ["constants", "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2",
              "--prime-cutoff", "2000"],
             ["count", "--hypersurface", "1,1,1", "--sup-norm", "--t", "100"],
             ["verify", "--projective-torus", "2", "--sup-norm", "--t", "64"],
             ["zeta", "--hypersurface", "1,1", "--polynomial", "X1^2+X2^2+X3^2",
              "--budget", "1000000", "--s", "1.5"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    assert 'mpmath' not in sys.modules, argv
out = io.StringIO()
with contextlib.redirect_stdout(out):
    assert cli.main({GOLDEN_COMMANDS["euler_hypersurface_1_1_precision_700"]!r}) == 0
assert 'mpmath' not in sys.modules
with open({str(GOLDEN / "euler_hypersurface_1_1_precision_700.json")!r}) as fh:
    assert out.getvalue() == fh.read()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["constants", "--euler", "--hypersurface", "1,1,1",
                     "--precision", "700", "--prime-cutoff", "200"]) == 0
assert 'mpmath' not in sys.modules
reports = []
for bits in ("160", "700"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["constants", "--euler", "--matrix", "1,-1,2,-2",
                         "--precision", bits]) == 0
    assert 'mpmath' not in sys.modules, bits
    reports.append(json.loads(out.getvalue())["euler"])
print(json.dumps(reports))
"""
        reports = json.loads(self.run_script(script))
        for rep in reports:
            assert rep["method"] == "zeta-product"
            with mp.workprec(rep["precision"] + 100):
                want = mp.zeta(mp.mpf(3) / 2) ** 2 / (mp.zeta(2) * mp.zeta(3))
                assert abs(mp.mpf(rep["value_str"]) - want) <= rep["error_bound"]


def nstr30(x: Fraction) -> str:
    """mpmath.nstr(x, 30) of a dyadic x, the oracle of format_digits.

    mpmath takes its digits exactly while the mantissa has at most 119
    bits; every x given here has fewer.
    """
    with mp.workprec(200):
        return mp.nstr(mp.mpf(x.numerator) / x.denominator, 30)


class TestFormatDigits:
    @pytest.mark.parametrize("x, text", [
        (Fraction(0), "0.0"),
        (Fraction(-3, 4), "-0.75"),
        # carries through runs of nines, across the switch at 10^30
        (Fraction(2 * 10 ** 30 - 1, 2), "1.0e+30"),
        (Fraction(2 * 10 ** 29 - 1, 2), "99999999999999999999999999999.5"),
        (Fraction(2 * 10 ** 30 - 1, 4), "500000000000000000000000000000.0"),
        (1 - Fraction(1, 2 ** 103), "1.0"),
        (1 - Fraction(1, 2 ** 100), "0.999999999999999999999999999999"),
        (Fraction(10 ** 29), "100000000000000000000000000000.0"),
        # the switch below: leading digit at 10^-10 or 10^-9
        (Fraction(1, 2 ** 30), "9.31322574615478515625e-10"),
        (Fraction(1, 2 ** 29), "0.00000000186264514923095703125"),
        (Fraction(-(2 * 10 ** 30 - 1), 2 ** 131), "-7.34683969263929692480460335764e-10"),
    ])
    def test_cases(self, x, text):
        assert format_digits(x) == text == nstr30(x)

    def test_carry_to_the_switch_below(self):
        # just under 10^-10: 30 digits round up to 1.0e-10, written with an exponent
        with mp.workprec(119):
            v = mp.mpf(10) ** -10 * (1 - mp.mpf(2) ** -110)
        man, exp = v.man_exp
        x = Fraction(man) * Fraction(2) ** exp
        assert format_digits(x) == "1.0e-10" == nstr30(x)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_floats(self, x):
        assert format_digits(x) == mp.nstr(mp.mpf(x), 30)

    @settings(max_examples=300, deadline=None)
    @given(man=st.integers(-2 ** 110, 2 ** 110), exp=st.integers(-400, 300))
    def test_dyadic(self, man, exp):
        x = Fraction(man) * Fraction(2) ** exp
        assert format_digits(x) == nstr30(x)

    def test_decimal(self):
        x = Decimal("0.60792710185402662866327677925836583342615264803347929")
        assert format_digits(x) == "0.607927101854026628663276779258"
