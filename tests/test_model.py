import dataclasses

import pytest

from robineig.model import (
    Params,
    SolverConfig,
    SweepConfig,
    check_placement,
    load_sweep_config,
    validate_params,
    validate_solver_config,
    validate_sweep_config,
)


class TestValidateParams:
    def test_valid_instance_returned_unchanged(self):
        p = Params(c=0.3, kappa=2.0, beta0=8.0, beta1=0.2)
        assert validate_params(p) is p

    def test_idempotent(self):
        p = validate_params(Params(0.3, 2.0, 1.0, 1.0))
        assert validate_params(p) is p

    def test_neumann_pair_rejected(self):
        with pytest.raises(ValueError, match="Neumann pair rejected"):
            validate_params(Params(0.3, 2.0, 0.0, 0.0))

    def test_c_out_of_range(self):
        with pytest.raises(ValueError, match="c out of range"):
            validate_params(Params(1.2, 2.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="c out of range"):
            validate_params(Params(0.0, 2.0, 1.0, 1.0))

    def test_nonpositive_kappa(self):
        with pytest.raises(ValueError, match="kappa"):
            validate_params(Params(0.3, 0.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="kappa"):
            validate_params(Params(0.3, -2.0, 1.0, 1.0))

    def test_negative_betas(self):
        with pytest.raises(ValueError, match="Robin"):
            validate_params(Params(0.3, 2.0, -0.1, 1.0))
        with pytest.raises(ValueError, match="Robin"):
            validate_params(Params(0.3, 2.0, 1.0, -0.1))

    def test_one_sided_neumann_allowed(self):
        validate_params(Params(0.3, 2.0, 0.0, 1.0))
        validate_params(Params(0.3, 2.0, 1.0, 0.0))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["c", "kappa", "beta0", "beta1"])
    def test_non_finite_rejected(self, name, value):
        p = dataclasses.replace(Params(0.3, 2.0, 1.0, 1.0), **{name: value})
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            validate_params(p)


class TestCheckPlacement:
    def test_endpoints_allowed(self):
        assert check_placement(0.0, 0.3) == 0.0
        assert check_placement(1.0 - 0.3, 0.3) == 1.0 - 0.3

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="placement"):
            check_placement(-0.01, 0.3)
        with pytest.raises(ValueError, match="placement"):
            check_placement(0.71, 0.3)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert dataclasses.astuple(cfg) == (1e-10, 81)
        assert validate_solver_config(cfg) is cfg

    def test_invalid(self):
        with pytest.raises(ValueError):
            validate_solver_config(SolverConfig(tol=0.0))
        with pytest.raises(ValueError):
            validate_solver_config(SolverConfig(n_a=1))
        for tol in (float("inf"), float("nan")):
            with pytest.raises(ValueError, match="tol must be finite and positive"):
                validate_solver_config(SolverConfig(tol=tol))


class TestSweepConfig:
    def test_defaults(self):
        cfg = SweepConfig()
        assert (cfg.beta_min, cfg.beta_max, cfg.n_beta) == (0.2, 8.0, 10)
        assert (cfg.c, cfg.kappa) == (0.3, 2.0)
        assert validate_sweep_config(cfg) is cfg

    def test_invalid_grid(self):
        with pytest.raises(ValueError):
            validate_sweep_config(SweepConfig(beta_min=2.0, beta_max=1.0))
        with pytest.raises(ValueError):
            validate_sweep_config(SweepConfig(n_beta=1))
        with pytest.raises(ValueError):
            validate_sweep_config(SweepConfig(c=1.5))
        with pytest.raises(ValueError, match="beta1 must be finite"):
            validate_sweep_config(SweepConfig(beta_max=float("inf")))
        with pytest.raises(ValueError, match="kappa must be finite"):
            validate_sweep_config(SweepConfig(kappa=float("inf")))

    def test_nested_solver_validated(self):
        with pytest.raises(ValueError):
            validate_sweep_config(SweepConfig(solver=SolverConfig(tol=-1.0)))
        with pytest.raises(ValueError, match="tol"):
            validate_sweep_config(SweepConfig(solver=SolverConfig(tol=float("inf"))))


class TestLoadSweepConfig:
    def test_file_values_and_comments(self, tmp_path):
        f = tmp_path / "sweep.cfg"
        f.write_text(
            "# comment line\n"
            "beta_min = 0.5\n"
            "n_beta=4\n"
            "c = 0.25   # trailing comment\n"
            "tol = 1e-8\n"
            "out_csv = out.csv\n"
            "\n"
        )
        cfg = load_sweep_config(f)
        assert cfg.beta_min == 0.5
        assert cfg.n_beta == 4
        assert cfg.c == 0.25
        assert cfg.solver.tol == 1e-8
        assert cfg.out_csv == "out.csv"
        # untouched defaults survive
        assert cfg.beta_max == 8.0
        assert cfg.solver.n_a == 81

    def test_overrides_win(self, tmp_path):
        f = tmp_path / "sweep.cfg"
        f.write_text("beta_min = 0.5\nn_a = 21\n")
        cfg = load_sweep_config(f, {"beta_min": 1.0, "tol": 1e-9, "c": None})
        assert cfg.beta_min == 1.0
        assert cfg.solver.n_a == 21
        assert cfg.solver.tol == 1e-9
        assert cfg.c == 0.3  # None override is skipped

    def test_no_file_only_overrides(self):
        cfg = load_sweep_config(None, {"n_beta": 3})
        assert cfg.n_beta == 3

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "sweep.cfg"
        f.write_text("frobnicate = 1\n")
        with pytest.raises(ValueError, match="unknown key"):
            load_sweep_config(f)

    @pytest.mark.parametrize("key", ["n_lambda", "max_refine"])
    def test_removed_solver_key_rejected(self, tmp_path, key):
        f = tmp_path / "sweep.cfg"
        f.write_text(f"{key} = 300\n")
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            load_sweep_config(f)

    def test_malformed_line(self, tmp_path):
        f = tmp_path / "sweep.cfg"
        f.write_text("just words\n")
        with pytest.raises(ValueError, match="key=value"):
            load_sweep_config(f)

    def test_invalid_resulting_config(self, tmp_path):
        f = tmp_path / "sweep.cfg"
        f.write_text("beta_min = 9.0\n")
        with pytest.raises(ValueError):
            load_sweep_config(f)
