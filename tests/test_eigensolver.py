import math

import numpy as np
import pytest
from test_characteristic import leftmost_char_f_root

import robineig.eigensolver
from robineig.eigensolver import (
    Bracket,
    SolverError,
    SpectralWindow,
    _simpson,
    a_grid,
    bisect,
    bracket_scan,
    eigenfunction_positive,
    lambda_curve,
    principal_eigenvalue,
    rayleigh_check,
    spectral_window,
)
from robineig.model import Params, SolverConfig
from robineig.propagator import eigenfunction_profile

FAST = SolverConfig(n_lambda=300, n_a=9)


class TestSpectralWindow:
    def test_reference_values(self):
        w = spectral_window(0.3, 2.0)
        cap = math.pi ** 2 / (4.0 * 0.3 * 0.3 * 2.0)
        assert w.lambda_max == pytest.approx((1.0 - 1e-9) * cap, rel=1e-12)
        assert w.lambda_max == pytest.approx(13.70778, rel=1e-6)
        assert w.lambda_min == pytest.approx(1.370778e-5, rel=1e-6)

    def test_formula_substitution(self):
        w = spectral_window(0.5, 1.0)
        assert w.lambda_max == pytest.approx((1.0 - 1e-9) * math.pi ** 2, rel=1e-12)

    def test_ordering_property(self, rng):
        for _ in range(100):
            c = rng.uniform(0.01, 0.99)
            kappa = rng.uniform(0.01, 50.0)
            w = spectral_window(c, kappa)
            assert 0.0 < w.lambda_min < w.lambda_max


class TestBracketScan:
    def test_linear_residual_single_bracket(self):
        w = SpectralWindow(0.0, 10.0)
        out = bracket_scan(lambda lam: lam - 4.33, w, 100)
        assert len(out) == 1
        assert out[0].lo < 4.33 < out[0].hi

    def test_constant_positive_empty(self):
        w = SpectralWindow(0.0, 10.0)
        assert bracket_scan(lambda lam: 1.0, w, 100) == []

    def test_exact_zero_degenerate_bracket(self):
        w = SpectralWindow(0.0, 10.0)
        out = bracket_scan(lambda lam: lam - 5.0, w, 10)
        assert any(b.lo == b.hi == 5.0 for b in out)

    def test_shooting_case_leftmost_contains_eigenvalue(self, p_default, cfg_default):
        from robineig.propagator import shooting_residual

        a = 0.35
        w = spectral_window(p_default.c, p_default.kappa)
        out = bracket_scan(lambda lam: shooting_residual(a, p_default, lam), w, 900)
        assert out
        lam_hat = principal_eigenvalue(a, p_default, cfg_default).lam
        assert out[0].lo <= lam_hat <= out[0].hi


class TestBisect:
    def test_linear_root(self):
        b = Bracket(2.0, 4.0, -1.0, 1.0)
        assert bisect(lambda lam: lam - 3.0, b, 1e-10) == pytest.approx(3.0, abs=1e-10)

    def test_degenerate_bracket_passthrough(self):
        b = Bracket(5.0, 5.0, 0.0, 0.0)
        assert bisect(lambda lam: lam, b, 1e-10) == 5.0

    def test_transcendental_root(self):
        b = Bracket(1.0, 2.0, math.cos(1.0), math.cos(2.0))
        assert bisect(math.cos, b, 1e-10) == pytest.approx(math.pi / 2.0, abs=1e-10)

    def test_invalid_bracket(self):
        with pytest.raises(ValueError, match="invalid bracket"):
            bisect(lambda lam: lam, Bracket(1.0, 2.0, 1.0, 1.0), 1e-10)

    def test_non_finite_residual(self):
        b = Bracket(1.0, 2.0, -1.0, 1.0)
        with pytest.raises(SolverError, match="non-finite"):
            bisect(lambda lam: float("nan"), b, 1e-10)


class TestPrincipalEigenvalue:
    def test_reference_symmetric_pair(self, p_default, cfg_default):
        res = principal_eigenvalue(0.35, p_default, cfg_default)
        assert res.lam == pytest.approx(8.8935619, abs=1e-6)

    def test_result_invariants(self, p_default, cfg_default):
        res = principal_eigenvalue(0.35, p_default, cfg_default)
        w = spectral_window(p_default.c, p_default.kappa)
        assert w.lambda_min < res.lam < w.lambda_max
        assert res.bracket.hi - res.bracket.lo <= cfg_default.tol
        if res.bracket.lo != res.bracket.hi:
            assert res.bracket.r_lo * res.bracket.r_hi < 0.0
        assert res.positive_ok is True
        assert res.iterations > 0
        assert eigenfunction_positive(0.35, p_default, res.lam)

    def test_reflection_symmetry(self, cfg_default, rng):
        for _ in range(5):
            a = rng.uniform(0.0, 0.7)
            b0, b1 = rng.uniform(0.2, 4.0, size=2)
            p = Params(0.3, 2.0, b0, b1)
            q = Params(0.3, 2.0, b1, b0)
            lam1 = principal_eigenvalue(a, p, cfg_default).lam
            lam2 = principal_eigenvalue(1.0 - 0.3 - a, q, cfg_default).lam
            assert abs(lam1 - lam2) < 1e-8

    def test_flux_free_limit(self, cfg_default):
        # vanishing Robin parameters approach the flux-free characteristic root
        p = Params(0.2, 2.0, 1e-6, 1e-6)
        from robineig.characteristic import limit_root

        for a in (0.0, 0.4):
            lam = principal_eigenvalue(a, p, cfg_default).lam
            assert abs(lam - limit_root("neumann", a, 0.2, 2.0)) < 1e-5

    def test_no_root_in_window_fails(self, cfg_default):
        # strongly absorbing left end with the favourable piece flush left puts
        # the first eigenvalue above the quarter-period cap
        p = Params(0.3, 2.0, 8.0, 0.2)
        with pytest.raises(SolverError, match="no bracket"):
            principal_eigenvalue(0.0, p, SolverConfig(n_lambda=300, max_refine=2))

    def test_residual_call_counts(self, monkeypatch, p_default, cfg_default):
        calls = []
        residual = robineig.eigensolver.shooting_residual

        def counted(a, p, lam):
            calls.append(lam)
            return residual(a, p, lam)

        monkeypatch.setattr(robineig.eigensolver, "shooting_residual", counted)
        with pytest.raises(SolverError, match=r"no bracket: lambda1 above the window cap 13\.7078 "):
            principal_eigenvalue(0.0, Params(0.3, 2.0, 8.0, 0.2), cfg_default)
        assert len(calls) == 1
        calls.clear()
        res = principal_eigenvalue(0.35, p_default, cfg_default)
        assert len(calls) == res.iterations + 1 <= 45

    @pytest.mark.parametrize("a, p", [
        # lambda1 = 413.88, well below the cap of 658
        (0.05, Params(0.05, 1.5, 0.05, 20.0)),
        # lambda1 = 739.93; positivity fails at the final bracket's midpoint
        (0.15366534350821953,
         Params(0.05243843205098664, 1.1238935388194145, 0.14732230439124913, 21.456507316098065)),
    ])
    def test_decaying_eigenfunction_is_accepted(self, cfg_default, a, p):
        # the eigenfunction decays steeply towards the absorbing right end
        res = principal_eigenvalue(a, p, cfg_default)
        assert res.positive_ok
        assert abs(res.lam - leftmost_char_f_root(a, p)) <= 1e-10 * res.lam

    def test_lambda1_below_tolerance_is_refused(self, cfg_default):
        # with a nonnegative weight integral, lambda1 -> 0 as both betas vanish
        with pytest.raises(SolverError, match="below the tolerance"):
            principal_eigenvalue(0.1, Params(0.5, 2.0, 1e-13, 1e-13), cfg_default)

    def test_rejects_invalid_inputs(self, cfg_default):
        with pytest.raises(ValueError):
            principal_eigenvalue(0.8, Params(0.3, 2.0, 1.0, 1.0), cfg_default)
        with pytest.raises(ValueError):
            principal_eigenvalue(0.1, Params(0.3, 2.0, 0.0, 0.0), cfg_default)


class TestLambdaCurve:
    def test_a_grid_values(self):
        grid = a_grid(0.3, 81)
        assert len(grid) == 81
        for j, a in enumerate(grid):
            assert a == pytest.approx(0.7 * j / 80, abs=1e-15)
        assert grid[0] == 0.0

    def test_curve_matches_pointwise_solves(self, p_default):
        curve = lambda_curve(p_default, FAST)
        assert [a for a, _ in curve] == a_grid(0.3, FAST.n_a)
        for a, lam in curve[:3]:
            assert lam == principal_eigenvalue(a, p_default, FAST).lam

    def test_reflection_of_curves(self):
        p = Params(0.3, 2.0, 1.0, 2.5)
        q = Params(0.3, 2.0, 2.5, 1.0)
        cp = lambda_curve(p, FAST)
        cq = lambda_curve(q, FAST)
        for (a1, l1), (a2, l2) in zip(cp, reversed(cq)):
            assert a1 + a2 == pytest.approx(0.7, abs=1e-12)
            assert abs(l1 - l2) < 1e-8

    def test_point_failure_aborts_curve(self):
        p = Params(0.3, 2.0, 8.0, 0.2)
        with pytest.raises(SolverError):
            lambda_curve(p, SolverConfig(n_lambda=300, n_a=3, max_refine=2))


class TestRayleighCheck:
    def test_small_relative_error(self, p_default, cfg_default):
        res = principal_eigenvalue(0.35, p_default, cfg_default)
        assert rayleigh_check(0.35, p_default, res) <= 1e-6

    def test_quotient_scale_invariance(self, p_default, cfg_default):
        # the quotient is homogeneous of degree zero in the eigenfunction
        res = principal_eigenvalue(0.35, p_default, cfg_default)
        a, p, lam = 0.35, p_default, res.lam

        def quotient(scale: float) -> float:
            num = den = 0.0
            b = a + p.c
            for x0, x1, m in ((0.0, a, -1.0), (a, b, p.kappa), (b, 1.0, -1.0)):
                xs = np.linspace(x0, x1, 2001)
                u, du = eigenfunction_profile(a, p, lam, xs)
                u, du = scale * u, scale * du
                dx = (x1 - x0) / 2000
                num += _simpson(du * du, dx)
                den += m * _simpson(u * u, dx)
            u_ends, _ = eigenfunction_profile(a, p, lam, np.array([0.0, 1.0]))
            num += p.beta0 * (scale * u_ends[0]) ** 2 + p.beta1 * (scale * u_ends[1]) ** 2
            return num / den

        assert quotient(7.0) == pytest.approx(quotient(1.0), rel=1e-12)

    def test_strong_absorption_limit_tolerance(self, cfg_default):
        p = Params(0.3, 2.0, 1e6, 1e6)
        res = principal_eigenvalue(0.35, p, cfg_default)
        assert rayleigh_check(0.35, p, res) <= 1e-3
