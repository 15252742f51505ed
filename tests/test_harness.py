import contextlib
import io
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mixedflow.cli import (EXIT_CONFIG_ERROR, _build_parser,
                           _config_from_args, main)
from conftest import flux
from mixedflow.harness import (StudyConfig, builtin_problem, parse_config_text,
                               run_convergence, run_dependence, run_single)
from mixedflow.mesh_fem import build_mesh
from mixedflow.verify import _gradient_defect, run_verify

ROOT = Path(__file__).resolve().parents[1]


def cli_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))


def consistency_defects(data, n_points: int = 100,
                        seed: int = 0) -> tuple[float, float]:
    """Max pointwise defects of the manufactured fields at random (x, t).

    Returns (momentum-law defect, mass-balance defect).  The built-in
    momentum fields are divergence free, so the mass balance reduces to
    rho_t = f / phi, checked through finite differences in t.
    """
    if data.exact is None:
        raise ValueError("consistency check needs an exact solution")
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, size=(n_points, 2))
    ts = rng.uniform(0.0, 1.0, size=n_points)  # the built-in problems' horizon
    law_defect = 0.0
    mass_defect = 0.0
    for t in np.unique(ts):
        m = np.asarray(data.exact.m(x, float(t)), dtype=float)
        gp = np.asarray(data.grad_psi(x, float(t)), dtype=float)
        law_defect = max(law_defect, float(np.max(np.abs(flux(data.law, m) + gp))))
        try:
            # complex-step derivative: exact to roundoff for analytic rho(t)
            h = 1e-30
            rho_t = np.imag(np.asarray(data.exact.rho(x, complex(t, h)))) / h
        except TypeError:
            h = 1e-5
            rho_t = (np.asarray(data.exact.rho(x, float(t) + h))
                     - np.asarray(data.exact.rho(x, float(t) - h))) / (2.0 * h)
        f_val = np.asarray(data.f(x, float(t)), dtype=float)
        phi = np.asarray(data.phi(x), dtype=float)
        mass_defect = max(mass_defect,
                          float(np.max(np.abs(phi * rho_t - f_val))))
    return law_defect, mass_defect


class TestBuiltinProblems:
    @pytest.mark.parametrize("name", ["example1", "example2_F2"])
    def test_manufactured_consistency(self, name):
        law_defect, mass_defect = consistency_defects(builtin_problem(name),
                                                      n_points=100, seed=3)
        assert law_defect <= 1e-12
        assert mass_defect <= 1e-12

    def test_shared_data_companion(self):
        companion = builtin_problem("example2_F1")
        base = builtin_problem("example2_F2")
        assert companion.exact is None
        assert companion.law.coefficients().tolist() == [1.0, 1.0, 1.0]
        x = np.array([[0.3, 0.7]])
        assert companion.f(x, 0.5) == pytest.approx(base.f(x, 0.5))

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            builtin_problem("example99")

    def test_example1_initial_density(self):
        data = builtin_problem("example1")
        x = np.array([[1.0, 1.0], [0.5, 0.0]])
        np.testing.assert_allclose(data.rho0(x),
                                   3.0 / np.sqrt(2.0) * np.array([2.0, 0.5]))


class TestConfig:
    def test_parse_flat_text(self):
        text = """
        # refinement sweep
        study = convergence
        levels = 4, 8, 16
        dt_ratio = 0.5
        verbose = true
        problem = example1
        """
        fields = parse_config_text(text)
        assert fields["study"] == "convergence"
        assert fields["levels"] == (4, 8, 16)
        assert fields["dt_ratio"] == 0.5
        assert fields["verbose"] is True

    def test_rejects_malformed_line(self):
        with pytest.raises(ValueError):
            parse_config_text("just words\n")

    def test_level_validation(self):
        with pytest.raises(ValueError):
            StudyConfig(levels=(4, 6))
        with pytest.raises(ValueError):
            StudyConfig(levels=(8, 4))
        StudyConfig(levels=(4, 8, 16, 32, 64, 128, 256))

    def test_unknown_study(self):
        with pytest.raises(ValueError):
            StudyConfig(study="explore")

    def test_scalar_tuple_fields_coerced(self):
        cfg = StudyConfig(exponents=1.5, levels=8)
        assert cfg.exponents == (1.5,)
        assert cfg.levels == (8,)

    def test_wrong_value_types_rejected(self):
        for bad in (dict(exponents="abc"), dict(dt_ratio="fast"),
                    dict(newton_max_iter=2.5), dict(verbose=3),
                    dict(problem="nope"), dict(psi_t_mode="midpoint")):
            with pytest.raises(ValueError):
                StudyConfig(**bad)

    @pytest.mark.parametrize("name, value", [
        ("newton_max_iter", True), ("seed", False), ("dt_ratio", True),
        ("exponents", True), ("exponents", (1.0, True)), ("levels", (4, True))])
    def test_bool_is_no_number(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: expected "):
            StudyConfig(**{name: value})

    def test_long_time_grid_accepted(self):
        fields = parse_config_text("levels = 4\ndt_ratio = 0.56\nfinal_time = 14000\n")
        assert StudyConfig(**fields).march_config(4).n_steps == 100_000

    def test_coefficient_box(self):
        cfg = StudyConfig()
        law = cfg.law_a()
        assert law.coeffs.a_star == pytest.approx(0.95)
        assert law.coeffs.a_sup == pytest.approx(1.0)


class TestStudies:
    def test_single_runs_and_dumps(self, tmp_path):
        out = tmp_path / "dump.txt"
        cfg = StudyConfig(study="single", levels=(4,), out=str(out))
        final, diags = run_single(cfg)
        assert len(diags) == 8
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 1 + 25

    def test_convergence_writes_csv(self, tmp_path):
        out = tmp_path / "conv.csv"
        cfg = StudyConfig(study="convergence", levels=(4, 8), out=str(out))
        report = run_convergence(cfg)
        assert len(report.levels) == 2
        assert report.levels[0].err_rho > report.levels[1].err_rho
        header, _, finer = out.read_text().splitlines()
        assert header.split(",")[4] == "rate_rho"
        assert float(finer.split(",")[4]) == report.levels[1].rate_rho

    def test_single_level_convergence_has_no_rates(self):
        cfg = StudyConfig(study="convergence", levels=(4,))
        report = run_convergence(cfg)
        assert report.levels[0].rate_rho is None
        assert report.levels[0].rate_m is None

    def test_dependence_identical_coefficients_gives_noise(self):
        cfg = StudyConfig(study="dependence", levels=(4,),
                          coefficients_b=(1.0, 1.0, 1.0))
        report = run_dependence(cfg)
        assert report.levels[0].err_rho <= 1e-6
        assert report.levels[0].err_m <= 1e-6

    def test_dependence_shared_data_momentum_plateau(self):
        """Same-data pairing: the analytic momentum gap halts the decay.

        The two laws invert the same pressure gradient differently, leaving
        a fixed momentum difference; at T = 1 its Ls norm is 7.31e-3.
        """
        cfg = StudyConfig(study="dependence", levels=(8, 16),
                          pairing="shared_data")
        report = run_dependence(cfg)
        for lv in report.levels:
            assert lv.err_m == pytest.approx(7.31e-3, rel=2e-2)

    # levels 4 and 8 of each study, as computed before the studies shared one
    # refinement loop: (N, err_rho, err_m, newton_total) per level
    @pytest.mark.parametrize("run, values, expected", [
        (run_convergence, dict(study="convergence"),
         [(4, 0.012173447292936724, 0.01866777649062723, 17),
          (8, 0.005529685038968885, 0.008568187894604623, 28)]),
        (run_convergence, dict(study="convergence", problem="example2_F2",
                               momentum_bc="exact"),
         [(4, 0.2510741217053123, 0.02033797733829537, 17),
          (8, 0.1297511518969116, 0.008691038621206744, 25)]),
        (run_dependence, dict(study="dependence"),
         [(4, 0.0009181901221666197, 0.0008026123247888763, 34),
          (8, 0.0004213726308598634, 0.00037375674281973844, 55)]),
        (run_dependence, dict(study="dependence", pairing="shared_data"),
         [(4, 0.0006731500666186927, 0.007275742480420166, 34),
          (8, 0.00031417141538526365, 0.00730359162304415, 55)]),
    ], ids=["example1", "example2_F2-exact-bc", "manufactured", "shared_data"])
    def test_study_results_pinned(self, run, values, expected):
        report = run(StudyConfig(levels=(4, 8), **values))
        got = [(lv.n_cells, lv.err_rho, lv.err_m, lv.newton_total)
               for lv in report.levels]
        assert [(n, newton) for n, _, _, newton in got] \
            == [(n, newton) for n, _, _, newton in expected]
        np.testing.assert_allclose([g[1:3] for g in got],
                                   [e[1:3] for e in expected], rtol=1e-10, atol=0.0)

    def test_verify_passes_and_is_fast(self):
        cfg = StudyConfig(study="verify", trials=2000, gronwall_trials=100)
        report = run_verify(cfg)
        assert report.ok
        assert report.inequality.total_violations == 0
        assert report.gronwall_failures == 0


class TestCli:
    def test_verify_exit_zero(self, capsys):
        code = main(["verify", "--trials", "500", "--seed", "1"])
        assert code == 0
        assert "verification PASSED" in capsys.readouterr().out

    def test_convergence_with_flags(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["convergence", "--levels", "4,8", "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert "err_rho" in capsys.readouterr().out

    def test_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "study.cfg"
        cfgfile.write_text("levels = 4\nproblem = example1\n")
        code = main(["single", "--config", str(cfgfile)])
        assert code == 0
        assert "steps=8" in capsys.readouterr().out

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("does_not_exist = 1\n")
        assert main(["single", "--config", str(cfgfile)]) == 1

    @pytest.mark.parametrize("line", ["exponents = abc", "dt_ratio = fast",
                                      "linear_mode = iterative",
                                      "check_linear = true",
                                      "newton_damping = true",
                                      "quad_order = 4"])
    def test_bad_config_value_one_line_error(self, tmp_path, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"levels = 4\n{line}\n")
        assert main(["dependence", "--config", str(cfgfile)]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("argv, line", [
        (["convergence", "--levels", "4", "--dt-ratio", "0.3"], ""),
        (["verify"], "seed = -1"),
        (["verify"], "trials = 0"),
        (["verify", "--trials", "0"], ""),
        (["verify"], "gronwall_trials = -5"),
        (["dependence", "--levels", "4"], "eps_reg = 0"),
        (["dependence", "--levels", "4"], "alpha = 1.5"),
        (["dependence", "--levels", "4"], "coefficients_a = -1, 1, 1"),
        (["dependence", "--levels", "4"], "exponents = 2, 1"),
        (["dependence", "--levels", "4"], "exponents = 1, 2"),
        (["dependence", "--levels", "4"], "coefficients_a = 1"),
        (["single", "--levels", "4"], "final_time = inf"),
        (["single", "--levels", "4"], "final_time = 1e400"),
        (["single", "--levels", "4"], "newton_tol = nan"),
        (["dependence", "--levels", "4,8"], "eps_reg = nan"),
        (["dependence", "--levels", "4"], "exponents = nan"),
        (["verify", "--trials", "10"], "coefficients_a = 0, 1, 1"),
        (["convergence", "--problem", "example2_F1", "--levels", "4"], ""),
        (["single", "--problem", "example2_F1", "--momentum-bc", "exact",
          "--levels", "4"], ""),
        (["dependence", "--pairing", "shared_data", "--momentum-bc", "exact",
          "--levels", "4"], ""),
        (["single", "--levels", ","], ""),
        (["convergence", "--levels", ","], ""),
        (["dependence"], "levels = ,"),
        (["single", "--levels", "abc"], ""),
        (["single", "--levels", "4,,8"], ""),
        (["single"], "levels = 4,,8"),
        (["single"], "levels = 4\nlevels = 8"),
        # F'(eps)/eps of the law overflows
        (["dependence", "--levels", "4"], "eps_reg = 1e-300"),
        # final_time / dt overflows
        (["single", "--levels", "4"], "dt_ratio = 1e-320"),
        # a bool is no number
        (["single", "--levels", "4"], "newton_max_iter = true"),
        (["single", "--levels", "4"], "dt_ratio = on"),
        (["dependence", "--levels", "4"], "exponents = true"),
        (["verify", "--trials", "10"], "seed = yes"),
    ])
    def test_bad_study_value_one_line_error(self, tmp_path, capsys, argv, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"{line}\n")
        assert main(argv + ["--config", str(cfgfile)]) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [["verify", "--seed", "abc"],
                                      ["single", "--psi-t", "midpoint"],
                                      ["single", "--bogus"], ["nosuch"], [],
                                      # a flag the study does not read
                                      ["single", "--trials", "5"],
                                      ["convergence", "--pairing", "shared_data"],
                                      ["dependence", "--problem", "example2_F1"],
                                      ["verify", "--levels", "4"]])
    def test_malformed_flags_one_line_error(self, capsys, argv):
        assert main(argv) == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        err = captured.err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), captured.err
        assert captured.out == ""

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single", "--help"])
        assert exc.value.code == 0
        assert "--levels" in capsys.readouterr().out

    @pytest.mark.parametrize("study, header", [("convergence", "err_rho(L2)"),
                                               ("dependence", "diff_rho(L2)")])
    def test_verbose_prints_table_once(self, capsys, study, header):
        assert main([study, "--levels", "4,8", "--verbose"]) == 0
        assert capsys.readouterr().out.count(header) == 1

    def test_bad_levels_error_names_the_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "levels.cfg"
        cfgfile.write_text("levels = 4,,8\n")
        for argv in (["--levels", "abc"], ["--levels", "4,,8"],
                     ["--config", str(cfgfile)]):
            assert main(["single"] + argv) == EXIT_CONFIG_ERROR
            assert capsys.readouterr().err.startswith("error: levels: ")

    # in a subprocess: an unchecked ``out = true`` opens fd 1 and closes stdout
    @pytest.mark.parametrize("line, argv", [
        ("out = true", []),
        ("out = 7", []),
        ("", ["--out", "missing/x.csv"]),
        pytest.param("", ["--out", "/dev/full"], marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="needs a full device")),
    ])
    def test_bad_out_one_line_error(self, tmp_path, line, argv):
        cfgfile = tmp_path / "out.cfg"
        cfgfile.write_text(f"levels = 4\n{line}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mixedflow.cli", "single",
             "--config", str(cfgfile)] + argv,
            cwd=tmp_path, env=cli_env(), capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == EXIT_CONFIG_ERROR
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), proc.stderr
        assert proc.stdout == ""

    def test_zero_seed_flag_overrides_config(self, tmp_path, capsys):
        cfgfile = tmp_path / "seeded.cfg"
        cfgfile.write_text("seed = 3\ntrials = 200\ngronwall_trials = 20\n")
        assert main(["verify", "--config", str(cfgfile), "--seed", "0"]) == 0
        assert "seed=0 trials=200" in capsys.readouterr().out

    def test_absent_verbose_flag_keeps_config_value(self, tmp_path):
        cfgfile = tmp_path / "loud.cfg"
        cfgfile.write_text("verbose = true\n")
        args = _build_parser().parse_args(["single", "--config", str(cfgfile)])
        assert _config_from_args(args).verbose is True
        args = _build_parser().parse_args(["single", "--verbose"])
        assert _config_from_args(args).verbose is True
        assert _config_from_args(_build_parser().parse_args(["single"])).verbose is False

    def test_scalar_exponents_config_runs(self, tmp_path, capsys):
        cfgfile = tmp_path / "one.cfg"
        cfgfile.write_text("levels = 4\nexponents = 1.5\n")
        assert main(["dependence", "--config", str(cfgfile)]) == 0

    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mixedflow.cli", "verify", "--trials", "200"],
            env=cli_env(), capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_package_runs_as_module(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mixedflow", "verify", "--trials", "10"],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert "verification PASSED" in proc.stdout

    def test_newton_failure_exit_code(self, tmp_path):
        cfgfile = tmp_path / "fail.cfg"
        cfgfile.write_text("levels = 4\nnewton_tol = 1e-14\n"
                           "newton_max_iter = 1\n")
        assert main(["single", "--config", str(cfgfile)]) == 2

    @pytest.mark.parametrize("line, cause", [
        # the residual's squared norm overflows: one failure, no 30 steps on inf
        ("coefficients_a = 1e200, 1, 1e200", "non-finite residual norm"),
        # a vanishing flux block leaves J nearly singular: the linear solve
        # misses its residual bound
        ("coefficients_a = 1e-60, 1e-60, 1e-60\npairing = shared_data",
         "linear solve residual"),
        # f, dPsi and the loads of the first level overflow
        ("coefficients_a = 1, 1e308, 1", "non-finite residual norm at step 1 "),
        # rho_0 overflows, so the projection's mass solve fails
        ("coefficients_a = 1, 1.7e308, 1", "initial state: mass solve failed"),
        # |m| is about 109, so z^150 is finite but dt ||m||_Ls^s, s = 152, is not
        ("pairing = shared_data\nexponents = 150\n"
         "coefficients_a = 1e-6, 0.0179, 1e-320\ncoefficients_b = 1, 1, 0\n"
         "dt_ratio = 0.0625\nfinal_time = 0.015625",
         "non-finite step energy at step 1 "),
    ])
    def test_overflow_ends_in_one_solver_failure_line(self, tmp_path, line, cause):
        cfgfile = tmp_path / "overflow.cfg"
        cfgfile.write_text(f"levels = 4\n{line}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "mixedflow", "dependence", "--config", str(cfgfile)],
            env=cli_env(), capture_output=True, text=True, timeout=300)
        assert proc.returncode == 2
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1, proc.stderr
        assert err[0].startswith("solver failure: ") and cause in err[0], err[0]

    @pytest.mark.parametrize("key", ["coefficients_a", "coefficients_b"])
    def test_tiny_law_runs(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "tiny.cfg"
        cfgfile.write_text(f"{key} = 1e-310, 1e-310, 1e-310\n")
        assert main(["dependence", "--levels", "4", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().err == ""

    def test_verify_matches_recorded_output(self, capsys):
        expected = (ROOT / "tests" / "data" / "verify_seed3_trials500.txt").read_text()
        assert main(["verify", "--seed", "3", "--trials", "500"]) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("value", ["-1", "0", "-0.125"])
    def test_non_positive_final_time_one_line_error(self, tmp_path, capsys, value):
        cfgfile = tmp_path / "time.cfg"
        cfgfile.write_text(f"final_time = {value}\n")
        assert main(["single", "--levels", "4", "--config", str(cfgfile)]) \
            == EXIT_CONFIG_ERROR
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: final_time must be positive and finite, got {float(value)}"]
        assert captured.out == ""

    @pytest.mark.parametrize("check, label", [
        ("_gradient_defect", "grads"), ("_quadrature_polynomial_defect", "quadrature")])
    def test_verify_names_a_failed_mesh_check(self, monkeypatch, capsys, check, label):
        import mixedflow.verify as verify
        monkeypatch.setattr(verify, check, lambda *args: 1e-9)
        assert main(["verify", "--trials", "50"]) == 3
        out = capsys.readouterr().out
        violated = [line.split()[0] for line in out.splitlines() if "VIOLATED" in line]
        assert violated == [label] and "verification FAILED" in out

    def test_verify_overflowing_witness_exit_code(self, tmp_path, capsys):
        # F(w) and the constants overflow at w^150: inf and nan trials must
        # count as violations, not pass because nan > 0 is false
        cfgfile = tmp_path / "steep.cfg"
        cfgfile.write_text("exponents = 1, 150\n"
                           "coefficients_a = 1, 1, 1, 1\n"
                           "coefficients_b = 1, 1, 1, 1\n"
                           "trials = 2000\ngronwall_trials = 20\n")
        assert main(["verify", "--config", str(cfgfile)]) == 3
        out, err = capsys.readouterr()
        assert "verification FAILED" in out and err == ""
        assert out.count("VIOLATED") == 6

    def test_verify_violations_exit_code(self, tmp_path, capsys):
        # the fixed Hoelder/perturbation constants only hold on unit-scale
        # coefficient boxes; a large box must be reported, not hidden
        cfgfile = tmp_path / "wide.cfg"
        cfgfile.write_text("coefficients_a = 30, 30, 30\n"
                           "coefficients_b = 30, 30, 30\n"
                           "trials = 1000\ngronwall_trials = 20\n")
        assert main(["verify", "--config", str(cfgfile)]) == 3
        assert "FAILED" in capsys.readouterr().out


def draw_float(rng: np.random.Generator, moderate: tuple,
               wide: tuple | None = None) -> float:
    """A float from the ``moderate`` or the ``wide`` closed range, picked at
    random: one of its end points, or a draw uniform over the moderate range
    or uniform in the logarithm over the wide one."""
    ranges = (moderate, moderate if wide is None else wide)
    pick = int(rng.integers(2))
    lo, hi = ranges[pick]
    end = int(rng.integers(4))
    if end < 2:
        return (lo, hi)[end]
    if pick == 0:
        return float(rng.uniform(lo, hi))
    low = max(lo, np.finfo(float).smallest_subnormal)
    return min(max(float(np.exp(rng.uniform(np.log(low), np.log(hi)))), lo), hi)


def study_values(rng: np.random.Generator) -> dict:
    """A study and ``StudyConfig`` law, tolerance and time values drawn from
    moderate and from wide ranges: coefficients up to 1e300, tolerances and
    eps_reg down to 1e-300."""
    exponents = sorted({draw_float(rng, (1e-3, 10.0))
                        for _ in range(int(rng.integers(1, 3)))})
    coefficients = [tuple(draw_float(rng, (0.0, 10.0), (0.0, 1e300))
                          for _ in range(len(exponents) + 2)) for _ in range(2)]
    return {
        "study": str(rng.choice(["single", "convergence", "dependence"])),
        "alpha": draw_float(rng, (float(np.nextafter(0.0, 1.0)),
                                  float(np.nextafter(1.0, 0.0)))),
        "exponents": tuple(exponents),
        "coefficients_a": coefficients[0],
        "coefficients_b": coefficients[1],
        "eps_reg": draw_float(rng, (1e-12, 1e-6), (1e-300, 1.0)),
        "newton_tol": draw_float(rng, (1e-10, 1e-2), (1e-300, 1.0)),
        # multiples of the N = 4 march's dt = 1/8
        "final_time": int(rng.integers(1, 17)) / 8,
    }


# the three inputs that once escaped the one-line contract
CONTRACT_EXAMPLES = [
    {"study": "dependence", "coefficients_a": (1e200, 1.0, 1e200)},
    {"study": "dependence", "eps_reg": 1e-300},
    {"study": "dependence", "newton_tol": 1e-300},
    # F(z) = z^7 makes the first Newton step 1e46: m^7 overflows in the flux,
    # whose load then warned of an invalid value before Newton saw the inf
    {"study": "dependence", "exponents": (7.0,), "coefficients_b": (0.0, 0.0, 1.0),
     "eps_reg": 2e-7, "final_time": 0.125},
]


class TestCliContract:
    def test_any_config_exits_0_1_or_2_with_at_most_one_line(self, tmp_path):
        """Exit 0 with nothing on stderr, or exit 1 or 2 with one stderr line;
        a Python warning counts as a stderr line.

        The 80 drawn configs come from a seeded numpy generator, so they do
        not depend on the package source or on what was imported first."""
        rng = np.random.default_rng(0)
        broken = []
        for values in CONTRACT_EXAMPLES + [study_values(rng) for _ in range(80)]:
            values = dict(values)
            study = values.pop("study")
            cfgfile = tmp_path / "study.cfg"
            cfgfile.write_text("levels = 4\n" + "".join(
                f"{key} = {', '.join(map(repr, v)) if isinstance(v, tuple) else repr(v)}\n"
                for key, v in values.items()))
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = main([study, "--config", str(cfgfile)])
            lines = err.getvalue().splitlines() + [str(w.message) for w in caught]
            if code not in (0, 1, 2) or len(lines) != (0 if code == 0 else 1):
                broken.append((study, values, code, lines))
        assert broken == []


class TestLinearFieldCheck:
    """The verify suite's check of the gradient table must be falsifiable."""

    def test_interpolant_passes(self):
        # the P1 interpolants of x and of 1 have the exact gradients
        assert _gradient_defect(build_mesh(8)) <= 1e-13

    # a corner triangle, one on the bottom edge and an interior one of N = 8
    @pytest.mark.parametrize("triangle, k, c", [(0, 1, 0), (6, 2, 1), (71, 0, 1)],
                             ids=["corner", "edge", "interior"])
    def test_one_changed_gradient_entry_trips(self, triangle, k, c):
        mesh = build_mesh(8)
        mesh.grads[triangle, k, c] += 1e-9
        assert _gradient_defect(mesh) > 1e-11


class TestDiscretizationStudies:
    def test_analytic_data_mode_is_exact_on_example1(self):
        """With analytic Psi_t the manufactured pair solves the scheme."""
        cfg = StudyConfig(study="convergence", levels=(4,),
                          psi_t_mode="analytic")
        lv = run_convergence(cfg).levels[0]
        assert lv.err_rho <= 1e-10
        assert lv.err_m <= 1e-6  # bounded by the Newton tolerance

    def test_momentum_pinning_regression(self):
        """Pinned boundary momentum leaves the density mean undamped.

        The data time-discretization defect then accumulates in the mean
        over the march; the final error is a stable regression quantity.
        """
        cfg = StudyConfig(study="convergence", levels=(4,),
                          momentum_bc="exact")
        lv = run_convergence(cfg).levels[0]
        assert lv.err_rho == pytest.approx(0.26047, rel=1e-3)

    def test_march_verbose_prints_one_line_per_step(self, capsys):
        from mixedflow.mesh_fem import build_mesh
        from mixedflow.solver import MarchConfig, march
        march(builtin_problem("example1"), build_mesh(2),
              MarchConfig(dt=0.25, verbose=True))
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == 4
        step, t, iters, resid, energy = lines[0].split()
        assert int(step) == 1 and float(t) == 0.25
        assert int(iters) >= 1 and float(resid) <= 1e-6
