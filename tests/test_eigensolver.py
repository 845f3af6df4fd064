import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from simpson_oracle import _simpson, simpson_defect, simpson_energy_and_mass
from test_characteristic import leftmost_char_f_root
from theory import scan_loop

import robineig.eigensolver
from robineig.characteristic import LIMIT_KINDS, char_f, hypothesis_bounds, limit_root
from robineig.eigensolver import (
    _POSITIVITY_XS,
    Bracket,
    EigenResult,
    SolverError,
    SpectralWindow,
    _energy_and_mass,
    _positive_lanes,
    _sin2_integral,
    a_grid,
    bisect,
    bracket_scan,
    eigenfunction_positive,
    lambda_curve,
    principal_eigenvalue,
    rayleigh_check,
    spectral_window,
)
from robineig.harness import grid_pairs
from robineig.model import Params, SolverConfig, SweepConfig
from robineig.propagator import eigenfunction_profile, propagate, shooting_residual

FAST = SolverConfig(n_a=9)


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
        # the whole valid domain, log-uniform: a window inside (0, inf) or a
        # ValueError naming c and kappa, never an inverted window
        draws = [(1e-200, 2.0), (1e-155, 2.0), (0.3, 1e-320), (0.3, 1e14), (1e-154, 2.0)]
        for _ in range(2000):
            draws.append((math.exp(rng.uniform(math.log(1e-300), 0.0)),
                          math.exp(rng.uniform(math.log(1e-320), math.log(1e308)))))
        refused = 0
        for c, kappa in draws:
            try:
                w = spectral_window(c, kappa)
            except ValueError as exc:
                assert f"c={c}, kappa={kappa}" in str(exc)
                refused += 1
                continue
            assert 0.0 < w.lambda_min < w.lambda_max < math.inf
        assert 0 < refused < len(draws)

    def test_every_accepted_window_serves_every_command(self, rng):
        # the same domain: with warnings as errors, every window accepted
        # gives an h_max that is a number (a signed infinity where h is
        # beyond the double range), each limit root finite or refused with
        # "no root", and at a = 0 and a = (1-c)/2 a solve with finite
        # certificates or a SolverError
        accepted = 0
        for _ in range(3000):
            c = math.exp(rng.uniform(math.log(1e-300), 0.0))
            kappa = math.exp(rng.uniform(math.log(1e-320), math.log(1e308)))
            p = Params(c, kappa, *(10.0 ** rng.uniform(-4.0, 3.0, size=2)).tolist())
            try:
                w = spectral_window(c, kappa)
            except ValueError:
                continue
            accepted += 1
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                h_max = hypothesis_bounds(p, (w.lambda_min, w.lambda_max)).h_max
                assert not math.isnan(h_max), p
                for a in (0.0, 0.5 * (1.0 - c)):
                    for kind in LIMIT_KINDS[:2] if a else LIMIT_KINDS:
                        try:
                            assert math.isfinite(limit_root(kind, a, c, kappa)), (kind, a, p)
                        except ValueError as exc:
                            assert str(exc).startswith("no root"), (kind, a, p)
                    try:
                        res = principal_eigenvalue(a, p, SolverConfig())
                        certificates = (res.lam, res.char_f_residual, rayleigh_check(a, p, res))
                    except SolverError:
                        continue
                    assert all(map(math.isfinite, certificates)), (a, p, certificates)
        assert 0 < accepted < 3000


class TestBracketScan:
    def test_linear_residual_single_bracket(self):
        w = SpectralWindow(0.0, 10.0)
        out = bracket_scan(lambda lam: lam - 4.33, w, 100)
        assert out.lo < 4.33 < out.hi

    def test_constant_positive_empty(self):
        w = SpectralWindow(0.0, 10.0)
        assert bracket_scan(np.ones_like, w, 100) is None

    def test_exact_zero_degenerate_bracket(self):
        w = SpectralWindow(0.0, 10.0)
        out = bracket_scan(lambda lam: lam - 5.0, w, 10)
        assert out.lo == out.hi == 5.0

    def test_stops_at_the_leftmost_bracket(self):
        calls = []

        def residual(lam):
            calls.append(lam)
            return np.cos(lam)  # sign changes at pi/2, 3 pi/2, 5 pi/2

        out = bracket_scan(residual, SpectralWindow(0.0, 10.0), 100)
        assert out.lo < math.pi / 2.0 < out.hi
        assert len(calls) == 1  # one call on the whole grid
        assert calls[0].shape == (101,)
        assert calls[0][0] == 0.0 and calls[0][-1] == 10.0

    def test_sign_change_of_underflowing_products(self):
        # neighbouring residuals near 1e-200 multiply to below the double range
        out = bracket_scan(lambda lam: 1e-200 * (4.33 - lam), SpectralWindow(0.0, 10.0), 100)
        assert out is not None
        assert out.lo < 4.33 < out.hi

    def test_grid_and_bracket_match_the_scalar_scan(self):
        w = SpectralWindow(1.370778e-5, 13.70778)
        residual = np.vectorize(lambda lam: math.sin(3.0 * lam) - 0.2, otypes=[float])
        out = bracket_scan(residual, w, 900)
        assert out == scan_loop(residual, w, 900)

    def test_shooting_case_leftmost_contains_eigenvalue(self, p_default, cfg_default):
        from robineig.propagator import shooting_residual

        a = 0.35
        w = spectral_window(p_default.c, p_default.kappa)
        residual = np.vectorize(lambda lam: shooting_residual(a, p_default, lam), otypes=[float])
        out = bracket_scan(residual, w, 900)
        assert out is not None
        lam_hat = principal_eigenvalue(a, p_default, cfg_default).lam
        assert out.lo <= lam_hat <= out.hi


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
            principal_eigenvalue(0.0, p, SolverConfig())

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

    @pytest.mark.parametrize("a, p, unscaled", [
        # mu (1-c) = 396, and |char_f| is 5.0e162 at the root
        (0.99, Params(0.01, 0.1, 1.0, 0.0), 1e162),
        # beta0 beta1 = 1e12, and |char_f| is 38.6 at the root
        (0.35, Params(0.3, 2.0, 1e6, 1e6), 10.0),
    ])
    def test_char_f_residual_is_scaled(self, cfg_default, a, p, unscaled):
        res = principal_eigenvalue(a, p, cfg_default)
        assert abs(char_f(a, p, res.lam)) > unscaled
        assert res.char_f_residual <= 1e-10

    def test_small_lambda1_keeps_relative_accuracy(self, cfg_default):
        # integrating the equation over (0, 1) gives lambda1 int m u = beta0 u(0)
        # + beta1 u(1), so lambda1 = (beta0 + beta1) / int m (1 + O(beta)) as
        # both betas vanish: 4e-13 here, far below the width tol = 1e-10
        res = principal_eigenvalue(0.1, Params(0.5, 2.0, 1e-13, 1e-13), cfg_default)
        assert abs(res.lam - 4e-13) <= 1e-10 * 4e-13
        assert res.bracket.hi - res.bracket.lo <= cfg_default.tol * res.bracket.lo

    def test_tiny_lambda1_takes_a_bounded_number_of_steps(self, cfg_default, monkeypatch):
        # lambda1 = 4e-300: halving from the cap would take about 1000 steps
        calls = []

        def counted(a, p, lam):
            calls.append(lam)
            return shooting_residual(a, p, lam)

        monkeypatch.setattr(robineig.eigensolver, "shooting_residual", counted)
        res = principal_eigenvalue(0.1, Params(0.5, 2.0, 1e-300, 1e-300), cfg_default)
        assert len(calls) <= 100
        assert abs(res.lam - 4e-300) <= 1e-10 * 4e-300
        assert res.bracket.hi - res.bracket.lo <= cfg_default.tol * res.bracket.lo

    def test_lambda1_not_resolved_from_zero_is_refused(self, cfg_default):
        # betas of one denormal ulp: no double above 0 has a positive residual
        p = Params(0.9, 20.0, 5e-324, 5e-324)
        with pytest.raises(SolverError, match="not resolved from 0: .* down to lambda=4.94e-324"):
            principal_eigenvalue(0.0, p, cfg_default)

    @pytest.mark.parametrize("a", [0.1, np.array([0.1]), np.array([0.0, 0.1, 0.5])])
    def test_bracket_short_of_its_width_is_refused(self, cfg_default, a):
        # betas of one denormal ulp: float resolution stops the bracket at
        # [1e-323, 1.5e-323], 50% wide, far above tol * lo
        p = Params(0.5, 2.0, 5e-324, 5e-324)
        with pytest.raises(SolverError, match=r"not narrowed to width .* float resolution"):
            principal_eigenvalue(a, p, cfg_default)

    @pytest.mark.parametrize("a", [0.1, np.array([0.1]), np.array([0.0, 0.1, 0.5])])
    def test_subnormal_lambda1_still_solves(self, cfg_default, a):
        # lambda1 = (beta0 + beta1) / int m (1 + O(beta)) with int m = 0.5
        res = principal_eigenvalue(a, Params(0.5, 2.0, 1e-310, 1e-310), cfg_default)
        assert np.all(np.abs(res.lam - 4e-310) <= 1e-10 * 4e-310)
        assert np.all(res.bracket.hi - res.bracket.lo <= cfg_default.tol * res.bracket.lo)

    def test_rejects_invalid_inputs(self, cfg_default):
        with pytest.raises(ValueError):
            principal_eigenvalue(0.8, Params(0.3, 2.0, 1.0, 1.0), cfg_default)
        with pytest.raises(ValueError):
            principal_eigenvalue(0.1, Params(0.3, 2.0, 0.0, 0.0), cfg_default)

    def test_rejects_invalid_placement_arrays(self, cfg_default):
        p = Params(0.3, 2.0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"placement a=0\.8 outside"):
            principal_eigenvalue(np.array([0.0, 0.8, -0.1]), p, cfg_default)
        with pytest.raises(ValueError, match=r"placement a=nan outside"):
            principal_eigenvalue(np.array([0.1, np.nan]), p, cfg_default)
        with pytest.raises(ValueError, match="1-D"):
            principal_eigenvalue(np.zeros((2, 2)), p, cfg_default)
        with pytest.raises(ValueError, match="Neumann"):
            principal_eigenvalue(np.array([0.1]), Params(0.3, 2.0, 0.0, 0.0), cfg_default)


class TestLambdaCurve:
    def test_a_grid_values(self):
        grid = a_grid(0.3, 81)
        assert len(grid) == 81
        for j, a in enumerate(grid):
            assert a == pytest.approx(0.7 * j / 80, abs=1e-15)
        assert grid[0] == 0.0

    @pytest.mark.parametrize("c, n_a", [(0.02, 81), (0.08, 81), (0.12, 81), (0.16, 81),
                                        (0.19, 81), (0.51, 81), (0.55, 81), (0.3, 188)])
    def test_a_grid_ends_at_one_minus_c(self, c, n_a):
        # (1 - c) * j / j rounds above 1 - c for these c, which the placement
        # check refused
        top = 1.0 - c
        assert top * (n_a - 1) / (n_a - 1) > top
        grid = a_grid(c, n_a)
        assert grid[:-1] == [top * j / (n_a - 1) for j in range(n_a - 1)]
        assert grid[-1] == top
        assert all(0.0 <= a <= top for a in grid)

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
            lambda_curve(p, SolverConfig(n_a=3))

    def test_refused_curve_costs_one_residual_call(self, monkeypatch):
        calls = []

        def counted(a, p, lam):
            calls.append(lam)
            return shooting_residual(a, p, lam)

        monkeypatch.setattr(robineig.eigensolver, "shooting_residual", counted)
        with pytest.raises(SolverError, match=r"no bracket: .* \(a=0\.0, p="):
            lambda_curve(Params(0.3, 2.0, 8.0, 0.2), SolverConfig())
        assert len(calls) == 1 and calls[0].shape == (81,)
        calls.clear()
        res = principal_eigenvalue(np.array(a_grid(0.3, 81)), Params(0.3, 2.0, 4.0, 4.0),
                                   SolverConfig())
        assert len(calls) == res.iterations + 1 <= 45

    def test_only_the_float_solve_samples_the_profile(self, monkeypatch, p_default,
                                                      cfg_default):
        # the float solve checks positivity on one 1001-sample profile; a
        # curve's lanes take _positive_lanes, which evaluates the right
        # piece's samples itself and never calls the profile
        calls = []

        def counted(a, p, lam, xs):
            calls.append(len(xs))
            return eigenfunction_profile(a, p, lam, xs)

        monkeypatch.setattr(robineig.eigensolver, "eigenfunction_profile", counted)
        principal_eigenvalue(0.2, p_default, cfg_default)
        assert calls == [1001]
        calls.clear()
        lambda_curve(p_default, cfg_default)
        assert calls == []

    @pytest.mark.parametrize("a, p", [
        (0.0, Params(0.3, 2.0, 4.0, 4.0)),
        (0.35, Params(0.3, 2.0, 4.0, 4.0)),
        (0.7, Params(0.3, 2.0, 4.0, 4.0)),
        (0.123456789, Params(0.3, 2.0, 4.0, 4.0)),
        (0.1, Params(0.5, 2.0, 1e-13, 1e-13)),  # lambda1 = 4e-13: geometric splits
    ])
    def test_one_lane_equals_the_float_solve(self, cfg_default, a, p):
        lane = principal_eigenvalue(np.array([a]), p, cfg_default)
        point = principal_eigenvalue(a, p, cfg_default)
        assert lane.lam.shape == (1,)
        assert lane.lam[0] == point.lam
        assert (lane.bracket.lo[0], lane.bracket.hi[0]) == (point.bracket.lo, point.bracket.hi)
        # the residuals themselves come from numpy's and math's transcendentals,
        # which may differ in the last bits; only their signs steer a step
        assert lane.bracket.r_lo[0] > 0.0 >= lane.bracket.r_hi[0]
        assert lane.iterations == point.iterations
        assert lane.char_f_residual[0] == point.char_f_residual

    def test_lane_and_float_solve_agree_to_the_width_where_rounding_decides(self):
        # the residual is about 1e12 within 1e-10 of lambda1 = 3086.77, with a
        # rounding noise of about 1e9; with numpy's AVX-512 transcendentals one
        # step's residual rounds to the other sign than with math's (6e-11 apart)
        p = Params(0.01924656091324426, 1.579926515826565, 30.33947642047719, 0.48399227673563766)
        a, cfg = 0.796862169257989, SolverConfig()
        lane = principal_eigenvalue(np.array([a]), p, cfg)
        point = principal_eigenvalue(a, p, cfg)
        assert abs(lane.lam[0] - point.lam) <= cfg.tol
        assert lane.bracket.hi[0] - lane.bracket.lo[0] <= cfg.tol

    def test_every_lane_of_the_default_sweep_equals_its_scalar_solve(self):
        # the 10x10 Robin grid of the default sweep, 81 placements each;
        # refused pairs must be refused point by point too
        cfg = SweepConfig()
        refused = 0
        for b0, b1 in grid_pairs(cfg):
            p = Params(cfg.c, cfg.kappa, b0, b1)
            lanes = _curve_or_none(p, cfg.solver)
            points = _pointwise_or_none(p, cfg.solver)
            assert lanes == points, (b0, b1)
            refused += lanes is None
        assert 0 < refused < 100


def _lane_verdicts(a: np.ndarray, p: Params, lam: np.ndarray) -> list[bool]:
    """``_positive_lanes``' verdicts, asserted equal to the float check's lane
    by lane, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _positive_lanes(a, p, lam).tolist()
    with np.errstate(all="ignore"):  # the float check warns at lambda = 0 and past overflow
        want = [eigenfunction_positive(aj, p, lj) for aj, lj in zip(a.tolist(), lam.tolist())]
    assert got == want, p
    return got


class TestPositiveLanes:
    def test_default_curve_samples_are_the_profile_bit_for_bit(self, monkeypatch, p_default,
                                                               cfg_default):
        a = np.array(a_grid(0.3, 81))
        lo = principal_eigenvalue(a, p_default, cfg_default).bracket.lo
        assert all(_lane_verdicts(a, p_default, lo))
        grids = []
        hyperbolic = robineig.eigensolver._hyperbolic

        def recorded(u, du, sq, s):
            out = hyperbolic(u, du, sq, s)
            if np.ndim(s) == 2:  # a pass over its lanes' sample grid
                grids.append(out[0])
            return out

        monkeypatch.setattr(robineig.eigensolver, "_hyperbolic", recorded)
        _positive_lanes(a, p_default, lo)
        rows = np.concatenate(grids)
        assert rows.shape == (81, _POSITIVITY_XS.size)
        for aj, lj, row in zip(a.tolist(), lo.tolist(), rows):
            u, _ = eigenfunction_profile(aj, p_default, lj, _POSITIVITY_XS)
            right = _POSITIVITY_XS - aj > p_default.c  # the profile's right piece
            assert row[right].tobytes() == u[right].tobytes(), aj

    @pytest.mark.parametrize("c_range, log_kappa_range", [
        ((0.01, 0.9), (math.log(0.01), math.log(20.0))),  # the wide box
        ((0.001, 0.05), (math.log(0.01), math.log(2.0))),  # the overflow box
        ((0.0003, 0.003), (math.log(0.01), math.log(20.0))),  # the tiny-c box
    ])
    def test_verdicts_equal_the_float_check_on_seeded_curves(self, c_range, log_kappa_range):
        rng = np.random.default_rng(20261019)
        verdicts = []
        for _ in range(150):
            c = rng.uniform(*c_range)
            kappa = math.exp(rng.uniform(*log_kappa_range))
            b0, b1 = (0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0, 3.0)
                      for _ in "01")
            p = Params(c, kappa, b0, b1)
            a = np.array(a_grid(c, 9))
            cap = spectral_window(c, kappa).lambda_max
            verdicts += _lane_verdicts(a, p, cap * 10.0 ** rng.uniform(-6.0, 0.0, a.size))
            try:
                lo = principal_eigenvalue(a, p, FAST).bracket.lo
            except (SolverError, ValueError):
                continue
            verdicts += _lane_verdicts(a, p, lo)
        assert 0 < sum(verdicts) < len(verdicts)

    def test_lanes_at_lambda_zero_fail_without_a_warning(self, p_default):
        a = np.array(a_grid(0.3, 81))
        assert not any(_lane_verdicts(a, p_default, np.zeros(a.size)))

    def test_overflowing_lanes_fail_without_a_right_piece(self):
        # with beta0 = 0 past overflow, ua = cosh(sq a) + 0 * sinh(sq a) / sq
        # is NaN, and so is every favourable sample, while at a = 1 - c the
        # right piece can hold no sample at all
        empty = 0
        for c in np.linspace(0.0003, 0.0015, 40).tolist():
            a = np.array([1.0 - c])
            lam = np.array([0.9 * spectral_window(c, 1.0).lambda_max])
            assert _lane_verdicts(a, Params(c, 1.0, 0.0, 1.0), lam) == [False]
            empty += not (_POSITIVITY_XS - a[0] > c).any()
        assert empty > 0

    @pytest.mark.parametrize("c", [0.001, 0.011, 0.3, 0.7])
    def test_placements_on_the_sample_grid(self, c):
        # x - a <= c is not x <= a + c in floats: at c = 0.001 (a = 0.008)
        # the sample at a + c fails x - a <= c, at c = 0.7 some sample just
        # past a + c passes it, so the lanes must take the profile's test
        on_grid = _POSITIVITY_XS[_POSITIVITY_XS <= 1.0 - c]
        a = np.concatenate([on_grid, np.arange(on_grid.size) / 1000.0])
        a = a[a <= 1.0 - c]
        p = Params(c, 2.0, 1.0, 1.0)
        cap = spectral_window(c, 2.0).lambda_max
        lam = cap * np.random.default_rng(7).uniform(0.0, 1.0, a.size)
        _lane_verdicts(a, p, lam)
        naive = np.searchsorted(_POSITIVITY_XS, a + c, side="right")
        i1 = (_POSITIVITY_XS - a[:, None] <= c).sum(1)
        assert (naive > i1).any() if c < 0.5 else (naive < i1).any()


def _curve_or_none(p: Params, cfg: SolverConfig):
    try:
        return lambda_curve(p, cfg)
    except (SolverError, ValueError):
        return None


def _pointwise_or_none(p: Params, cfg: SolverConfig):
    """``lambda_curve`` as float solves, one placement at a time."""
    try:
        return [(a, principal_eigenvalue(a, p, cfg).lam) for a in a_grid(p.c, cfg.n_a)]
    except (SolverError, ValueError):
        return None


def _quotient_scale(a: float, lam: float) -> float:
    # _energy_and_mass divides both sums by e^{2 mu a}
    return math.exp(-2.0 * math.sqrt(lam) * a)


def _assert_matches_simpson_oracle(a: float, p: Params, res: EigenResult) -> None:
    num, den = _energy_and_mass(a, p, res.lam)
    ref_num, ref_den = simpson_energy_and_mass(a, p, res.lam)
    scale = _quotient_scale(a, res.lam)
    assert num == pytest.approx(scale * ref_num, rel=1e-10, abs=0.0)
    assert den == pytest.approx(scale * ref_den, rel=1e-10, abs=0.0)
    assert rayleigh_check(a, p, res) == pytest.approx(simpson_defect(a, p, res.lam), abs=1e-10)


class TestRayleighCheck:
    def test_small_relative_error(self, p_default, cfg_default):
        res = principal_eigenvalue(0.35, p_default, cfg_default)
        assert rayleigh_check(0.35, p_default, res) <= 1e-6

    @pytest.mark.parametrize("kappa", [1e20, 1e30, 1e200, 1e308])
    def test_keeps_its_digits_at_large_kappa(self, kappa, cfg_default):
        # lambda1 is tiny, so beta/sqrt(lambda) is huge and e^{-2 mu L} rounds
        # to 1: the end state must not be a difference of its two modes
        p = Params(0.3, kappa, 1.0, 1.0)
        res = principal_eigenvalue(0.2, p, cfg_default)
        assert rayleigh_check(0.2, p, res) <= 1e-8

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

    def test_closed_form_matches_simpson_oracle_on_the_solve_box(self, rng, cfg_default):
        # the box of the benchmark's solve workload: c in [0.15, 0.6], kappa,
        # beta0, beta1 log-uniform in [0.5, 4], [0.05, 10], [0.05, 10]
        compared = 0
        while compared < 200:
            c = rng.uniform(0.15, 0.6)
            kappa, b0, b1 = np.exp(rng.uniform(np.log([0.5, 0.05, 0.05]), np.log([4.0, 10.0, 10.0])))
            a = rng.uniform(0.0, 1.0 - c)
            p = Params(c, float(kappa), float(b0), float(b1))
            try:
                res = principal_eigenvalue(a, p, cfg_default)
            except SolverError:
                continue
            _assert_matches_simpson_oracle(a, p, res)
            compared += 1

    @pytest.mark.parametrize("a, p", [
        (0.0, Params(0.3, 2.0, 4.0, 4.0)),  # no left piece
        (0.7, Params(0.3, 2.0, 4.0, 4.0)),  # no right piece
        (1e-9, Params(0.3, 2.0, 4.0, 4.0)),
        (0.7 - 1e-9, Params(0.3, 2.0, 4.0, 4.0)),
        (0.35, Params(0.3, 2.0, 0.0, 4.0)),
        (0.0, Params(0.3, 2.0, 0.0, 4.0)),
    ])
    def test_edge_placements_match_simpson_oracle(self, a, p, cfg_default):
        _assert_matches_simpson_oracle(a, p, principal_eigenvalue(a, p, cfg_default))

    @pytest.mark.parametrize("a, beta0", [(0.2, 2e-6), (0.0, 0.0)])
    def test_eigenvalue_near_window_floor_matches_simpson_oracle(self, a, beta0, cfg_default):
        # positive mean weight and tiny betas put lambda1 near lambda_min =
        # 1e-6 * cap, where every piece integral takes its small-argument form
        p = Params(0.5, 4.0, beta0, 2e-6)
        res = principal_eigenvalue(a, p, cfg_default)
        w = spectral_window(p.c, p.kappa)
        assert res.lam < 2.0 * w.lambda_min
        assert 2.0 * math.sqrt(res.lam * p.kappa) * p.c < 0.25  # series branch
        _assert_matches_simpson_oracle(a, p, res)

    @pytest.mark.parametrize("t", [1e-8, 1e-3, 0.1249999, 0.1250001, 1.0, 3.0])
    def test_sin2_integral_both_branches(self, t):
        # (2t - sin 2t)/4 = t^3/3 - t^5/15 + 2 t^7/315 - ...; the series is
        # used below 2t = 0.25, the direct difference above
        om = 2.5
        expected = (2.0 * t - math.sin(2.0 * t)) / (4.0 * om)
        if t < 0.01:
            expected = (t ** 3 / 3.0 - t ** 5 / 15.0 + 2.0 * t ** 7 / 315.0) / om
        assert _sin2_integral(om, t) == pytest.approx(expected, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("a, p", [
        (0.35, Params(0.3, 2.0, 4.0, 4.0)),
        (0.1, Params(0.3, 2.0, 1.0, 0.5)),
        (0.05, Params(0.05, 1.5, 0.05, 20.0)),  # decays towards x = 1
    ])
    def test_defect_is_the_weighted_shooting_residual(self, a, p, cfg_default):
        # integration by parts on the eigenfunction glued at b = a + c:
        # num/den - lambda = (u_L(b)/v(b)) r(lambda) / int m phi^2, with u_L
        # shot from x = 0 and v from x = 1, so the check re-tests r
        lam = 1.0001 * principal_eigenvalue(a, p, cfg_default).lam
        num, den = _energy_and_mass(a, p, lam)
        mass = den / _quotient_scale(a, lam)
        u_b, _ = propagate(1.0, p.beta0, lam, p.kappa, a, p.c, 0.0)
        v_b, _ = propagate(1.0, p.beta1, lam, p.kappa, 1.0 - a - p.c, 0.0, 0.0)
        weighted_residual = (u_b / v_b) * shooting_residual(a, p, lam) / mass
        assert num / den - lam == pytest.approx(weighted_residual, rel=1e-8, abs=0.0)

    def test_no_overflow_where_the_unscaled_integrals_would(self, cfg_default):
        # mu * a = 396: e^{2 mu a} overflows a float, and the shot solution
        # grows along the whole piece, so nothing is ill-conditioned
        a, p = 0.99, Params(0.01, 0.1, 1.0, 0.0)
        res = principal_eigenvalue(a, p, cfg_default)
        assert 2.0 * math.sqrt(res.lam) * a > 709.8
        num, den = _energy_and_mass(a, p, res.lam)
        assert math.isfinite(num) and den > 0.0
        assert rayleigh_check(a, p, res) <= 1e-12

    def test_mass_refusal_names_lambda_and_instance(self):
        # small betas and a negative mean weight: far below lambda1 the glued
        # solution is nearly constant, and its weighted mass is -0.096
        p = Params(0.3, 2.0, 0.01, 0.01)
        res = EigenResult(1e-3, Bracket(1e-3, 1e-3, 0.0, 0.0), 0, 0.0, True)
        with pytest.raises(SolverError, match=r"not positive at lambda=0\.001 \(a=0\.35, p=Params"):
            rayleigh_check(0.35, p, res)


_WIDE_BETA = st.one_of(st.just(0.0), st.floats(-4.0, 3.0).map(lambda e: 10.0 ** e))
_WIDE_BOX = dict(c=st.floats(0.01, 0.9), log_kappa=st.floats(math.log(0.01), math.log(20.0)),
                 beta0=_WIDE_BETA, beta1=_WIDE_BETA, s=st.floats(0.0, 1.0))
# the CLI case lambda1 = 4211.23: mu (1-a-c) = 46, the eigenfunction decays towards x = 1
_DECAYING = dict(c=0.0230080130735918, log_kappa=math.log(1.0637183352308162),
                 beta0=0.7688863376502032, beta1=2.4459398491955393,
                 s=0.2724338980859347 / (1.0 - 0.0230080130735918))


def _wide_solve(c, log_kappa, beta0, beta1, s):
    """``(a, p, result)``, with None for a refusal or the rejected Neumann pair."""
    p = Params(c, math.exp(log_kappa), beta0, beta1)
    a = s * (1.0 - c)
    try:
        return a, p, principal_eigenvalue(a, p, SolverConfig())
    except (SolverError, ValueError):
        return a, p, None


def _passes(defect) -> bool:
    try:
        return defect() <= 1e-6
    except SolverError:
        return False


@settings(max_examples=1000, derandomize=True, deadline=None)
# a pass for both at a small lambda1 = 5.6e-6 (the bisection width relative to
# lambda keeps the defect at 3.6e-11) and on an eigenfunction decaying to x = 1
@example(c=0.9, log_kappa=math.log(20.0), beta0=0.0, beta1=1e-4, s=0.0)
@example(c=0.05, log_kappa=math.log(1.5), beta0=0.05, beta1=20.0, s=0.05 / 0.95)
@given(**_WIDE_BOX)
def test_closed_form_and_oracle_agree_on_pass_fail_over_the_wide_box(c, log_kappa, beta0,
                                                                     beta1, s):
    a, p, res = _wide_solve(c, log_kappa, beta0, beta1, s)
    if res is None:
        return
    # The closed form integrates the eigenfunction glued at a + c, each end
    # shot in its growing direction; the oracle samples the solution shot
    # from x = 0.  On the right piece the eigenfunction decays like
    # e^{-mu s}, and rounding in (u, u') at a + c seeds the growing mode
    # e^{mu s}: its share of the oracle's mass grows like (k eps)^2
    # e^{2 mu (1-a-c)}, about 1e-12 at mu (1-a-c) = 20 for k = 30.  From
    # about 26 on it reaches the 1e-6 threshold and the oracle's quotient
    # says nothing about lambda1, so decisions are compared only up to 20;
    # the next property certifies the closed form beyond.  Past mu a = 354
    # the oracle's samples of u^2 overflow.
    mu = math.sqrt(res.lam)
    if mu * (1.0 - a - c) > 20.0 or mu * a > 354.0:
        return
    assert _passes(lambda: rayleigh_check(a, p, res)) == _passes(
        lambda: simpson_defect(a, p, res.lam))


@settings(max_examples=200, derandomize=True, deadline=None)
@example(c=0.3, log_kappa=math.log(2.0), beta0=4.0, beta1=4.0, s=0.0, n_a=81)
@example(c=0.08, log_kappa=math.log(20.0), beta0=1.0, beta1=1.0, s=0.0, n_a=81)
# the residual overflows at the cap on the lanes near a = 0
@example(c=0.001, log_kappa=math.log(0.01), beta0=1.0, beta1=1.0, s=0.0, n_a=9)
@example(c=0.5, log_kappa=math.log(2.0), beta0=1e-13, beta1=1e-13, s=0.0, n_a=9)  # 4e-13
@given(**_WIDE_BOX, n_a=st.just(9))
def test_curve_equals_the_pointwise_solves_over_the_wide_box(c, log_kappa, beta0, beta1, s,
                                                             n_a):
    # lockstep lanes take the float bisection's steps: every lambda1 is the
    # same double, and a curve is refused exactly when some point is
    p = Params(c, math.exp(log_kappa), beta0, beta1)
    cfg = SolverConfig(n_a=n_a)
    assert _curve_or_none(p, cfg) == _pointwise_or_none(p, cfg)


def test_overflow_heavy_curves_raise_no_warning():
    # small c puts the window cap, and the residual there, past overflow for
    # many placements; numpy's overflow must not escape as a warning, and the
    # curve's verdict must be the pointwise one
    rng = np.random.default_rng(20261019)
    cfg = SolverConfig(n_a=9)
    verdicts = []
    for _ in range(300):
        c = rng.uniform(0.001, 0.05)
        kappa = math.exp(rng.uniform(math.log(0.01), math.log(2.0)))
        b0, b1 = (0.0 if rng.random() < 0.1 else 10.0 ** rng.uniform(-4.0, 3.0) for _ in "01")
        p = Params(c, kappa, b0, b1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = _curve_or_none(p, cfg)
        assert curve == _pointwise_or_none(p, cfg), p
        verdicts.append(curve is None)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.xfail(strict=False, reason="positivity at bracket.lo is decided by rounding for "
                   "an eigenfunction decaying like e^-80 towards x = 1; an O(1) check of "
                   "u_L(a + c) > 0 would be well conditioned")
@pytest.mark.parametrize("p", [
    Params(0.046381598476790395, 1.0516985318541887, 0.687732053459887, 0.0028954613442826248),
    Params(0.013185792763036244, 1.339104834753955, 0.0, 0.00045755833251940746),
])
def test_curve_verdict_where_positivity_is_decided_by_rounding(p):
    # with numpy's AVX-512 transcendentals one lane ends on another lower
    # end than its float solve, and the positivity verdicts there differ
    cfg = SolverConfig(n_a=9)
    assert (_curve_or_none(p, cfg) is None) == (_pointwise_or_none(p, cfg) is None)


@settings(max_examples=1000, derandomize=True, deadline=None)
@example(**_DECAYING)
@given(**_WIDE_BOX)
def test_every_accepted_wide_box_solve_is_certified(c, log_kappa, beta0, beta1, s):
    a, p, res = _wide_solve(c, log_kappa, beta0, beta1, s)
    if res is not None:
        assert rayleigh_check(a, p, res) <= 1e-6


@settings(max_examples=1000, derandomize=True, deadline=None)
@example(**_DECAYING)
@given(**_WIDE_BOX)
def test_only_the_right_piece_can_fail_positivity_at_an_accepted_solve(c, log_kappa, beta0,
                                                                       beta1, s):
    # the premise of _positive_lanes, on the profile's own piece tests: at
    # bracket.lo the left samples are >= 1 and the favourable ones > 0
    a, p, res = _wide_solve(c, log_kappa, beta0, beta1, s)
    if res is None:
        return
    u, _ = eigenfunction_profile(a, p, res.bracket.lo, _POSITIVITY_XS)
    d = _POSITIVITY_XS - a
    assert (u[d <= 0.0] >= 1.0).all()
    assert (u[(d > 0.0) & (d <= c)] > 0.0).all()


@settings(max_examples=1000, derandomize=True, deadline=None)
@example(**_DECAYING, log_lams=[-12.0, -3.0, -1.0, 0.0], near=[-7.0, -2.0])
@given(**_WIDE_BOX, log_lams=st.lists(st.floats(-12.0, 0.0), min_size=8, max_size=8),
       near=st.lists(st.floats(-7.0, -1.0), min_size=2, max_size=2))
def test_residual_is_positive_exactly_below_lambda1(c, log_kappa, beta0, beta1, s, log_lams,
                                                    near):
    # the lemma of principal_eigenvalue: inside the window, r > 0 exactly when
    # lambda < lambda1; a refusal above the cap means r > 0 on all of it
    a, p = s * (1.0 - c), Params(c, math.exp(log_kappa), beta0, beta1)
    if beta0 == beta1 == 0.0:
        return
    try:
        lam1 = principal_eigenvalue(a, p, SolverConfig()).lam
    except SolverError as exc:
        if "above the window cap" not in str(exc):
            return
        lam1 = math.inf
    cap = spectral_window(c, p.kappa).lambda_max
    lams = [cap * 10.0 ** e for e in log_lams]
    if lam1 < math.inf:
        lams += [lam1 * (1.0 + sign * 10.0 ** e) for e in near for sign in (-1.0, 1.0)]
    for lam in lams:
        if lam <= cap and abs(lam - lam1) > 1e-8 * max(1.0, lam1):
            assert (shooting_residual(a, p, lam) > 0.0) == (lam < lam1)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(**_WIDE_BOX, field=st.sampled_from(["c", "kappa", "beta0", "beta1"]),
       value=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_params_are_rejected(c, log_kappa, beta0, beta1, s, field, value):
    p = dataclasses.replace(Params(c, math.exp(log_kappa), beta0, beta1), **{field: value})
    with pytest.raises(ValueError, match="must be finite"):
        principal_eigenvalue(s * (1.0 - c), p, SolverConfig())


@pytest.mark.parametrize("a, p", [
    (0.35, Params(0.3, 2.0, 4.0, 4.0)),  # the default pair
    (0.0, Params(0.3, 2.0, 4.0, 4.0)),
    (0.7, Params(0.3, 2.0, 4.0, 4.0)),
    (0.0, Params(0.3, 2.0, 0.2, 8.0)),
    (0.1, Params(0.3, 2.0, 1.0, 2.5)),
    (0.5, Params(0.15, 4.0, 0.05, 10.0)),
    (0.2, Params(0.5, 4.0, 1e-6, 1e-6)),  # lambda1 = 1.3e-6
    (0.1, Params(0.5, 2.0, 1e-13, 1e-13)),  # lambda1 = 4e-13
    (0.2, Params(0.5, 4.0, 0.0, 2e-6)),
    (0.0, Params(0.9, 20.0, 0.0, 1e-4)),
    (0.05, Params(0.05, 1.5, 0.05, 20.0)),  # decaying towards x = 1
    (0.15366534350821953,
     Params(0.05243843205098664, 1.1238935388194145, 0.14732230439124913, 21.456507316098065)),
    (0.99, Params(0.01, 0.1, 1.0, 0.0)),  # mu (1-c) = 396
    (0.35, Params(0.3, 2.0, 1e6, 1e6)),  # beta0 beta1 = 1e12
])
def test_eigenvalue_matches_a_60_digit_char_f_root(a, p, cfg_default):
    # char_f re-derived in 60-digit arithmetic; its root is bisected inside
    # +-1e-8 of the solver's value.  That it is the principal root is
    # criterion 2's and the FEM oracle's job.
    import mpmath

    lam = principal_eigenvalue(a, p, cfg_default).lam
    with mpmath.workdps(60):
        m_a, c, k, b0, b1 = (mpmath.mpf(v) for v in (a, p.c, p.kappa, p.beta0, p.beta1))

        def char_f_mp(x):
            sq = mpmath.sqrt(x)
            sn, cs = mpmath.sin(sq * mpmath.sqrt(k) * c), mpmath.cos(sq * mpmath.sqrt(k) * c)
            y, z = sq * (2 * m_a + c - 1), sq * (1 - c)
            return ((k + 1) * (x - b0 * b1) * mpmath.cosh(y) * sn
                    + (k + 1) * (b0 - b1) * sq * mpmath.sinh(y) * sn
                    + mpmath.cosh(z) * ((k - 1) * (x + b0 * b1) * sn
                                        - 2 * sq * mpmath.sqrt(k) * (b0 + b1) * cs)
                    + mpmath.sinh(z) * ((k - 1) * (b0 + b1) * sq * sn
                                        - 2 * mpmath.sqrt(k) * (b0 * b1 + x) * cs))

        lo, hi = mpmath.mpf(lam) * (1 - mpmath.mpf(1e-8)), mpmath.mpf(lam) * (1 + mpmath.mpf(1e-8))
        f_lo = char_f_mp(lo)
        assert f_lo * char_f_mp(hi) < 0
        for _ in range(150):
            mid = (lo + hi) / 2
            if (char_f_mp(mid) > 0) == (f_lo > 0):
                lo = mid
            else:
                hi = mid
        lam_mp = float((lo + hi) / 2)
    assert abs(lam - lam_mp) <= 1e-10 * lam_mp


_BOX_BETA = st.one_of(st.just(0.0), st.floats(-3.0, 2.0).map(lambda e: 10.0 ** e))
_BOX = dict(c=st.floats(0.05, 0.9), log_kappa=st.floats(math.log(0.1), math.log(20.0)),
            beta0=_BOX_BETA, beta1=_BOX_BETA, s=st.floats(0.0, 1.0))


def _solve(a: float, p: Params):
    """The result, or None for a refusal."""
    try:
        return principal_eigenvalue(a, p, SolverConfig())
    except SolverError:
        return None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_BOX, which=st.sampled_from(["beta0", "beta1"]),
       log_step=st.floats(math.log(1e-3), math.log(1e2)))
def test_lambda1_does_not_decrease_in_either_beta(c, log_kappa, beta0, beta1, s, which, log_step):
    small = Params(c, math.exp(log_kappa), beta0, beta1)
    if beta0 == beta1 == 0.0:
        return  # the rejected Neumann pair
    big = dataclasses.replace(small, **{which: getattr(small, which) + math.exp(log_step)})
    a = s * (1.0 - c)
    res_small, res_big = _solve(a, small), _solve(a, big)
    if res_small is None:
        assert res_big is None  # above the cap stays above it
    elif res_big is not None:
        # each bracket holds its true lambda1, and the true values are ordered
        assert res_big.bracket.hi >= res_small.bracket.lo


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_BOX)
def test_reflection_swaps_the_betas(c, log_kappa, beta0, beta1, s):
    if beta0 == beta1 == 0.0:
        return
    kappa = math.exp(log_kappa)
    a = s * (1.0 - c)
    res = _solve(a, Params(c, kappa, beta0, beta1))
    mirrored = _solve(1.0 - c - a, Params(c, kappa, beta1, beta0))
    assert (res is None) == (mirrored is None)
    if res is not None:
        assert abs(res.lam - mirrored.lam) <= 1e-8 * max(1.0, res.lam)
