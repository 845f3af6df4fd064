import dataclasses
import warnings

import pytest

import robineig.cli
from robineig.cli import main
from robineig.eigensolver import SolverError, spectral_window
from robineig.model import SolverConfig, SweepConfig, load_sweep_config

# lambda1 = 4211.23, with an eigenfunction that decays towards x = 1
DECAYING_ARGS = ("--c", "0.0230080130735918", "--kappa", "1.0637183352308162",
                 "--beta0", "0.7688863376502032", "--beta1", "2.4459398491955393",
                 "--a", "0.2724338980859347")
CONFIG_FIELDS = [(cls, f) for cls in (SweepConfig, SolverConfig)
                 for f in dataclasses.fields(cls) if f.name != "solver"]


class TestSolve:
    def test_prints_eigenvalue_and_diagnostics(self, capsys):
        code = main([
            "solve", "--c", "0.3", "--kappa", "2", "--beta0", "4", "--beta1", "4",
            "--a", "0.35",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lam = float(next(l for l in out.splitlines() if l.startswith("lambda:")).split()[1])
        assert lam == pytest.approx(8.8935619, abs=1e-6)
        assert "positive_ok: true" in out
        assert "rayleigh_rel_err:" in out

    def test_char_f_residual_is_scaled(self, capsys):
        # the unscaled |char_f| is 5.0e162 at this root
        code = main([
            "solve", "--c", "0.01", "--kappa", "0.1", "--beta0", "1", "--beta1", "0",
            "--a", "0.99",
        ])
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("char_f_residual:"))
        assert float(line.split()[1]) <= 1e-10

    def test_invalid_input_exit_1(self, capsys):
        code = main([
            "solve", "--c", "1.2", "--kappa", "2", "--beta0", "4", "--beta1", "4",
            "--a", "0.35",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--kappa", "inf"), ("--beta0", "nan"), ("--tol", "inf"),
    ])
    def test_non_finite_input_exit_1(self, capsys, flag, value):
        args = {"--c": "0.3", "--kappa": "2", "--beta0": "4", "--beta1": "4", "--a": "0.35"}
        args[flag] = value
        code = main(["solve", *(x for kv in args.items() for x in kv)])
        err = capsys.readouterr().err
        assert code == 1
        assert "must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--a", "abc"], "invalid float value: 'abc'"),
        ([], "the following arguments are required: --a"),
        (["--a", "0.3", "--bogus", "1"], "unrecognized arguments: --bogus 1"),
    ])
    def test_usage_error_exit_1(self, capsys, argv, message):
        code = main(["solve", "--c", "0.3", "--kappa", "2", "--beta0", "1", "--beta1", "1",
                     *argv])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and message in err

    def test_help_exit_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--help"])
        assert exc.value.code == 0
        assert "--beta0" in capsys.readouterr().out

    def test_residual_overflow_exit_2(self, capsys):
        code = main([
            "solve", "--c", "0.001", "--kappa", "0.01", "--beta0", "1", "--beta1", "1",
            "--a", "0.3",
        ])
        err = capsys.readouterr().err
        assert code == 2
        assert "overflows at lambda=" in err

    def test_decaying_eigenfunction_is_certified(self, capsys):
        # lambda1 = 4211.23: the eigenfunction decays like e^-46 along the
        # right piece, so it is shot from x = 1 there and glued at a + c
        code = main(["solve", *DECAYING_ARGS])
        out = capsys.readouterr().out
        assert code == 0
        assert "lambda: 4211.23" in out
        line = next(l for l in out.splitlines() if l.startswith("rayleigh_rel_err:"))
        assert float(line.split()[1]) <= 1e-10

    def test_certification_failure_prints_nothing_exit_2(self, monkeypatch, capsys):
        def refuse(a, p, res):
            raise SolverError(f"weighted mass of the eigenfunction is not positive at "
                              f"lambda={res.lam:.12g} (a={a}, p={p})")

        monkeypatch.setattr(robineig.cli, "rayleigh_check", refuse)
        code = main(["solve", *DECAYING_ARGS])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not positive at lambda=4211.23" in captured.err
        assert "a=0.2724338980859347, p=Params(c=0.0230080130735918" in captured.err

    def test_solver_failure_exit_2(self, capsys):
        code = main([
            "solve", "--c", "0.3", "--kappa", "2", "--beta0", "8", "--beta1", "0.2",
            "--a", "0.0",
        ])
        assert code == 2
        assert "solver failure" in capsys.readouterr().err

    def test_bracket_short_of_its_width_exit_2(self, capsys):
        code = main(["solve", "--c", "0.5", "--kappa", "2", "--beta0", "5e-324",
                     "--beta1", "5e-324", "--a", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "not narrowed to width" in captured.err


class TestCurve:
    def test_stdout_table(self, capsys):
        code = main([
            "curve", "--c", "0.3", "--kappa", "2", "--beta0", "1", "--beta1", "1",
            "--n-a", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = [l for l in out.splitlines() if l.strip()]
        assert len(lines) == 5
        assert float(lines[0].split()[0]) == 0.0

    def test_last_placement_is_one_minus_c(self, capsys):
        # (1 - c) * 80 / 80 rounds to 0.9200000000000002 at c = 0.08
        code = main(["curve", "--c", "0.08", "--kappa", "20", "--beta0", "1", "--beta1", "1"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(lines) == 81 and lines[-1].startswith("0.920000 ")

    def test_residual_overflow_exit_2(self, capsys):
        # the cap residual overflows on the lanes near a = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["curve", "--c", "0.001", "--kappa", "0.01", "--beta0", "1",
                         "--beta1", "1", "--n-a", "9"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("solver failure: non-finite residual at lambda=")
        assert "Traceback" not in captured.err

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "curve.dat"
        code = main([
            "curve", "--c", "0.3", "--kappa", "2", "--beta0", "1", "--beta1", "1",
            "--n-a", "5", "--out", str(path),
        ])
        assert code == 0
        assert len(path.read_text().splitlines()) == 5


class TestSweep:
    @pytest.mark.parametrize("argv", [
        ["--beta-max", "inf", "--n-beta", "3", "--n-a", "3"],
        ["--kappa", "inf"],
        ["--tol", "inf"],
    ])
    def test_non_finite_config_exit_1(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        code = main(["sweep", *argv])
        captured = capsys.readouterr()
        assert code == 1
        assert "must be finite" in captured.err
        assert captured.out == "" and not list(tmp_path.iterdir())

    def test_config_pairs_file_and_overrides(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("n_a = 5\n# comment\n")
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0.6 0.6\n# comment\n1.0 2.0\n")
        out = tmp_path / "out.csv"
        figs = tmp_path / "figs"
        code = main([
            "sweep", "--config", str(cfg), "--pairs-file", str(pairs),
            "--out", str(out), "--figdir", str(figs),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[2:4] == ["0.60", "0.60"]
        assert figs.is_dir()

    def test_bad_output_path_exit_3(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0.6 0.6\n")
        code = main([
            "sweep", "--pairs-file", str(pairs), "--n-a", "3",
            "--out", str(tmp_path / "no-such-dir" / "x.csv"),
            "--figdir", str(tmp_path / "figs"),
        ])
        assert code == 3
        assert "i/o failure" in capsys.readouterr().err

    def test_unknown_config_key_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text("bogus = 1\n")
        code = main(["sweep", "--config", str(cfg)])
        assert code == 1

    @pytest.mark.parametrize("line, message", [
        ("n_beta = 3.5", "n_beta: invalid literal for int() with base 10: '3.5'"),
        ("c = abc", "c: could not convert string to float: 'abc'"),
    ])
    def test_bad_config_value_names_file_and_line(self, tmp_path, monkeypatch, capsys,
                                                  line, message):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"# sweep\nn_a = 3\n{line}  # bad\n")
        code = main(["sweep", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {cfg}:3: {message}\n"

    @pytest.mark.parametrize("line, message", [
        ("1 2 3", "too many values to unpack (expected 2)"),
        ("0.6", "not enough values to unpack (expected 2, got 1)"),
        ("abc 1", "could not convert string to float: 'abc'"),
    ])
    def test_bad_pairs_line_names_file_and_line(self, tmp_path, monkeypatch, capsys,
                                                line, message):
        monkeypatch.chdir(tmp_path)
        pairs = tmp_path / "pairs.txt"
        pairs.write_text(f"# beta0 beta1\n0.6 0.6\n\n{line}  # bad\n")
        code = main(["sweep", "--pairs-file", str(pairs), "--n-a", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {pairs}:4: {message}\n"

    # every field of both configs but the nested solver, with a valid value
    # of its annotated type for the file and another for the flag
    @pytest.mark.parametrize("owner, field", CONFIG_FIELDS,
                             ids=[f.name for _, f in CONFIG_FIELDS])
    def test_config_field_is_a_file_key_and_a_flag_that_wins(self, tmp_path, monkeypatch,
                                                             owner, field):
        typ = {"float": float, "int": int, "str": str}[field.type]
        file_value, flag_value = {float: ("0.25", "0.35"), int: ("3", "4"),
                                  str: ("from-file", "from-flag")}[typ]

        def value(cfg):
            return getattr(cfg.solver if owner is SolverConfig else cfg, field.name)

        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(f"{field.name} = {file_value}\n")
        got = value(load_sweep_config(cfg_path))
        assert type(got) is typ and got == typ(file_value)

        seen = []
        monkeypatch.setattr(robineig.cli, "run_sweep",
                            lambda cfg, pairs, workers: seen.append(cfg) or ([], []))
        monkeypatch.chdir(tmp_path)
        flag = {"out_csv": "--out", "fig_dir": "--figdir"}.get(
            field.name, "--" + field.name.replace("_", "-"))
        assert main(["sweep", "--config", str(cfg_path), flag, flag_value]) == 0
        got = value(seen[0])
        assert type(got) is typ and got == typ(flag_value)


class TestCheckHypotheses:
    def test_report_lines(self, capsys):
        code = main(["check-hypotheses", "--c", "0.3", "--kappa", "2", "--beta0", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "c_star: 0.386" in out
        assert "beta0_star_bound: not applicable" in out
        assert "c_ok: false" in out

    def test_beta0_zero_is_a_valid_robin_parameter(self, capsys):
        code = main(["check-hypotheses", "--c", "0.3", "--kappa", "2", "--beta0", "0"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "c_star", "beta0_star_bound", "c_ok", "beta0_ok", "h_max"]
        assert "beta0_ok: false" in lines

    @pytest.mark.parametrize("kappa, bound, h_max", [
        ("0.01", "beta0_star_bound: 317.333", "h_max: -4.14937e+08"),
        ("2", "beta0_star_bound: not applicable", "h_max: inf"),
    ])
    def test_small_c_overflows_nothing(self, capsys, kappa, bound, h_max):
        # cosh(pi (1-c) / (2 c sqrt(kappa))) is beyond the double range here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["check-hypotheses", "--c", "0.001", "--kappa", kappa, "--beta0", "1"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.err == ""
        assert bound in captured.out.splitlines()
        assert h_max in captured.out.splitlines()


class TestVerifyLimits:
    def test_general_placement(self, capsys):
        code = main(["verify-limits", "--c", "0.3", "--kappa", "2", "--a", "0.35"])
        out = capsys.readouterr().out
        assert code == 0
        assert "neumann_root:" in out
        assert "dirichlet_root:" in out
        assert "lou_neumann_root:" not in out

    def test_flush_left_includes_reduced_forms(self, capsys):
        code = main(["verify-limits", "--c", "0.3", "--kappa", "2", "--a", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "lou_neumann_root: 0.723969199" in out
        assert "lou_dirichlet_root:" in out
        gap = float(next(
            l for l in out.splitlines() if l.startswith("neumann_vs_lou_gap:")
        ).split()[1])
        assert gap < 1e-10

    @pytest.mark.parametrize("kappa", ["0.999999", "0.99999999"])
    def test_lou_neumann_finds_a_root_below_its_scan(self, capsys, kappa):
        # kappa c just below 1 - c puts the root under the scan start
        # 1e-6 * cap (about 4.9e-6 here)
        code = main(["verify-limits", "--c", "0.5", "--kappa", kappa, "--a", "0"])
        out = capsys.readouterr().out
        assert code == 0
        roots = dict(line.split(": ") for line in out.splitlines())
        neu, lou = float(roots["neumann_root"]), float(roots["lou_neumann_root"])
        assert neu < 1e-6 * spectral_window(0.5, float(kappa)).lambda_max
        assert abs(lou - neu) <= 1e-12 * max(1.0, neu)

    def test_gap_is_relative_to_the_root(self, capsys):
        # both roots are about 6e-8, so an absolute gap would read 8e-16
        code = main(["verify-limits", "--c", "0.5", "--kappa", "0.99999999", "--a", "0"])
        out = capsys.readouterr().out
        assert code == 0
        roots = dict(line.split(": ") for line in out.splitlines())
        neu, lou = float(roots["neumann_root"]), float(roots["lou_neumann_root"])
        gap = float(roots["neumann_vs_lou_gap"])
        assert gap == pytest.approx(abs(neu - lou) / neu, rel=0.01)

    @pytest.mark.parametrize("args, reason", [
        (("--c", "0.5", "--kappa", "2", "--a", "0.1"),
         "no positive principal eigenvalue (kappa c >= 1 - c)"),
        (("--c", "0.7", "--kappa", "0.1", "--a", "0.2"), "root above the window cap 50.3551"),
    ])
    def test_neumann_refusals_say_why(self, capsys, args, reason):
        code = main(["verify-limits", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: no root of neumann limit equation: {reason}\n"

    @pytest.mark.parametrize("args, message", [
        (("--c", "0.3", "--kappa", "2", "--a", "5"), "placement a=5.0 outside [0, 0.7]"),
        (("--c", "0.3", "--kappa", "2", "--a", "-0.1"), "placement a=-0.1 outside [0, 0.7]"),
        (("--c", "0.3", "--kappa", "2", "--a", "0.75"), "placement a=0.75 outside [0, 0.7]"),
        (("--c", "0", "--kappa", "2", "--a", "0"), "c out of range (0,1): 0.0"),
        (("--c", "0.3", "--kappa", "0", "--a", "0.1"), "kappa must be positive: 0.0"),
        (("--c", "0.3", "--kappa", "-2", "--a", "0.1"), "kappa must be positive: -2.0"),
        (("--c", "0.3", "--kappa", "nan", "--a", "0.1"), "kappa must be finite: nan"),
    ])
    def test_invalid_instance_exit_1(self, capsys, args, message):
        code = main(["verify-limits", *args])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


# 4 c^2 kappa underflows to 0 (c = 1e-200) or leaves the window cap beyond the
# double range: every command refuses the instance by name
@pytest.mark.parametrize("c, kappa", [("1e-200", "2"), ("1e-155", "2"), ("0.3", "1e-320")])
@pytest.mark.parametrize("argv", [
    ["solve", "--beta0", "1", "--beta1", "1", "--a", "0"],
    ["curve", "--beta0", "1", "--beta1", "1", "--n-a", "3"],
    ["check-hypotheses", "--beta0", "1"],
    ["verify-limits", "--a", "0"],
    ["sweep", "--n-beta", "2", "--n-a", "3"],
], ids=lambda argv: argv[0])
def test_unrepresentable_window_exit_1(tmp_path, monkeypatch, capsys, argv, c, kappa):
    monkeypatch.chdir(tmp_path)
    code = main([*argv, "--c", c, "--kappa", kappa])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and not list(tmp_path.iterdir())
    assert captured.err.startswith("error: no spectral window")
    assert f"(c={float(c)}, kappa={float(kappa)})" in captured.err
    assert "Traceback" not in captured.err
