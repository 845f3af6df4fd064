import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from theory import (
    DegenerateConfigError,
    PoleError,
    _linear_coeffs,
    beta0_star,
    char_g,
    h_max_loop,
    limit_char_residual,
    limit_root_loop,
)

import robineig.characteristic
import robineig.eigensolver
from robineig.characteristic import (
    _LIMIT_TOL,
    LIMIT_KINDS,
    _limit_predicate,
    beta0_star_bound,
    c_star,
    char_f,
    hypothesis_bounds,
    limit_root,
)
from robineig.eigensolver import (
    SpectralWindow,
    bisect,
    bracket_scan,
    principal_eigenvalue,
    spectral_window,
)
from robineig.model import Params, SolverConfig


def leftmost_char_f_root(a: float, p: Params, n_lambda: int = 2000) -> float:
    w = spectral_window(p.c, p.kappa)
    bracket = bracket_scan(np.vectorize(lambda lam: char_f(a, p, lam), otypes=[float]),
                           w, n_lambda)
    assert bracket is not None, "char_f has no root in the window"
    return bisect(lambda lam: char_f(a, p, lam), bracket, 1e-12)


class TestCharF:
    def test_vanishes_at_zero_lambda_zero_betas(self):
        p = Params(0.3, 2.0, 0.0, 0.0)  # unvalidated on purpose: limit case
        for a in (0.0, 0.2, 0.7):
            assert abs(char_f(a, p, 1e-12)) < 1e-15

    def test_zero_beta_roots_match_flux_free_limit_equation(self):
        p = Params(0.3, 2.0, 0.0, 0.0)
        a = 0.2
        root_f = leftmost_char_f_root(a, p)
        root_limit = limit_root("neumann", a, p.c, p.kappa)
        assert abs(root_f - root_limit) < 1e-9

    def test_cross_oracle_with_shooting(self, p_default, cfg_default):
        a = 0.35
        lam_hat = principal_eigenvalue(a, p_default, cfg_default).lam
        w = spectral_window(p_default.c, p_default.kappa)
        grid = [
            w.lambda_min + j * (w.lambda_max - w.lambda_min) / 900 for j in range(901)
        ]
        scale = max(abs(char_f(a, p_default, lam)) for lam in grid)
        assert abs(char_f(a, p_default, lam_hat)) <= 1e-6 * scale

    def test_root_agrees_with_shooting_eigenvalue(self, cfg_default, rng):
        for _ in range(20):
            a = rng.uniform(0.0, 0.7)
            p = Params(0.3, 2.0, rng.uniform(0.2, 5.0), rng.uniform(0.2, 5.0))
            lam_hat = principal_eigenvalue(a, p, cfg_default).lam
            assert abs(leftmost_char_f_root(a, p) - lam_hat) < 1e-8


class TestCharG:
    def test_symmetric_midpoint_zero(self):
        assert char_g((1.0 - 0.3) / 2.0, 1.7, 1.7, 5.0, 0.3) == 0.0

    def test_product_equal_lambda_sign(self):
        # first term vanishes identically, the beta difference decides
        lam = 4.0
        for a in (0.0, 0.2, 0.5, 0.7):
            assert char_g(a, 4.0, 1.0, lam, 0.3) > 0.0

    def test_direct_evaluation(self):
        # (2 - 16) * tanh(2*sqrt(2)*(0.5 - 0.35)) evaluated in closed form
        val = char_g(0.5, 4.0, 4.0, 2.0, 0.3)
        expected = (2.0 - 16.0) * math.tanh(2.0 * math.sqrt(2.0) * 0.15)
        assert val == pytest.approx(expected, abs=1e-12)
        assert val == pytest.approx(-5.6072, abs=1e-3)

    def test_sign_link_with_char_f_derivative(self, rng):
        hits = 0
        while hits < 200:
            a = rng.uniform(0.01, 0.69)
            b0, b1 = rng.uniform(0.2, 8.0, size=2)
            lam = rng.uniform(0.5, 13.0)
            g = char_g(a, b0, b1, lam, 0.3)
            if abs(g) <= 1e-6:
                continue
            hits += 1
            p = Params(0.3, 2.0, b0, b1)
            h = 1e-6
            dfda = (char_f(a + h, p, lam) - char_f(a - h, p, lam)) / (2.0 * h)
            assert math.copysign(1.0, g) == math.copysign(1.0, dfda)

    def test_reflection_oddness(self, rng):
        c = 0.3
        for _ in range(100):
            a = rng.uniform(0.0, 1.0 - c)
            b0, b1 = rng.uniform(0.2, 8.0, size=2)
            lam = rng.uniform(0.5, 13.0)
            lhs = char_g(a, b0, b1, lam, c)
            rhs = -char_g(1.0 - c - a, b1, b0, lam, c)
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestBeta0Star:
    def test_zero_of_linear_coefficient(self):
        p = Params(0.35, 1.0, 1.0, 1.0)
        a, lam = 0.2, 1.0
        bstar = beta0_star(a, p, lam)
        A, B = _linear_coeffs(a, p.c, p.kappa, lam)
        assert A < 0.0
        assert abs(A * bstar + B) <= 1e-9 * max(1.0, abs(B))

    def test_matches_beta1_derivative_of_char_f(self):
        # char_f is affine in beta1, so a central difference in beta1 recovers
        # A*beta0 + B exactly up to roundoff
        c, kappa, a, lam = 0.35, 1.0, 0.2, 1.0
        bstar = beta0_star(a, Params(c, kappa, 0.0, 0.0), lam)
        h = 1e-3
        f_hi = char_f(a, Params(c, kappa, bstar, 1.0 + h), lam)
        f_lo = char_f(a, Params(c, kappa, bstar, 1.0 - h), lam)
        dfdb1 = (f_hi - f_lo) / (2.0 * h)
        scale = max(abs(f_hi), abs(f_lo), 1.0)
        assert abs(dfdb1) <= 1e-9 * scale

    def test_bounded_by_uniform_bound_when_c_admissible(self):
        c, kappa = 0.5, 1.5
        bound = beta0_star_bound(c, kappa)
        w = spectral_window(c, kappa)
        for j in range(9):
            a = (1.0 - c) * j / 8
            for lam in (0.1 * w.lambda_max, 0.5 * w.lambda_max, 0.9 * w.lambda_max):
                assert beta0_star(a, Params(c, kappa, 0.0, 0.0), lam) <= bound + 1e-9

    def test_degenerate_configuration_flagged(self):
        # A(a) crosses zero somewhere when the c-constraint fails; locate a
        # sign change of A and bisect onto it, then expect the flag
        p = Params(0.3, 2.0, 1.0, 1.0)
        lam = 13.0  # near the window cap, where the amplitude bound exceeds 1
        grid = [0.7 * j / 400 for j in range(401)]
        avals = [_linear_coeffs(a, p.c, p.kappa, lam)[0] for a in grid]
        crossing = None
        for a0, a1, v0, v1 in zip(grid, grid[1:], avals, avals[1:]):
            if v0 * v1 < 0.0:
                crossing = (a0, a1, v0)
                break
        assert crossing is not None, "expected A(a) to change sign for c below the threshold"
        a0, a1, v0 = crossing
        for _ in range(200):
            mid = 0.5 * (a0 + a1)
            vm = _linear_coeffs(mid, p.c, p.kappa, lam)[0]
            if v0 * vm <= 0.0:
                a1 = mid
            else:
                a0, v0 = mid, vm
        with pytest.raises(DegenerateConfigError):
            beta0_star(0.5 * (a0 + a1), p, lam)


class TestHypothesisBounds:
    def test_c_star_value(self):
        assert c_star(2.0) == pytest.approx(0.3866, abs=1e-3)

    def test_c_star_requires_kappa_above_one(self):
        assert c_star(0.5) is None
        assert c_star(1.0) is None

    def test_kappa_below_one_not_applicable(self):
        p = Params(0.3, 0.5, 1.0, 1.0)
        w = spectral_window(p.c, p.kappa)
        rep = hypothesis_bounds(p, (w.lambda_min, w.lambda_max))
        assert rep.c_star is None
        assert rep.c_ok is True

    def test_default_experiment_outside_certified_region(self):
        p = Params(0.3, 2.0, 4.0, 4.0)
        w = spectral_window(p.c, p.kappa)
        rep = hypothesis_bounds(p, (w.lambda_min, w.lambda_max))
        assert rep.c_star == pytest.approx(0.3866, abs=1e-3)
        assert rep.c_ok is False
        assert rep.beta0_star_bound is None
        assert rep.beta0_ok is False

    def test_bound_denominator_sign(self):
        # cosh(pi*0.7/(0.6*sqrt(2))) ~ 6.73 makes the denominator negative
        assert beta0_star_bound(0.3, 2.0) is None
        assert beta0_star_bound(0.5, 1.5) > 0.0

    def test_h_below_one_when_admissible(self):
        c, kappa = 0.5, 1.5
        w = spectral_window(c, kappa)
        p = Params(c, kappa, beta0_star_bound(c, kappa) + 1.0, 1.0)
        rep = hypothesis_bounds(p, (w.lambda_min, w.lambda_max))
        assert rep.c_ok is True
        assert rep.beta0_ok is True
        assert rep.h_max < 1.0
        # a one-point window samples h at that lambda only
        mid = 0.5 * w.lambda_max
        assert hypothesis_bounds(p, (mid, mid)).h_max < 1.0

    def test_report_lines(self):
        p = Params(0.3, 2.0, 4.0, 4.0)
        w = spectral_window(p.c, p.kappa)
        lines = hypothesis_bounds(p, (w.lambda_min, w.lambda_max)).lines()
        assert any(line.startswith("c_star: 0.386") for line in lines)
        assert "beta0_star_bound: not applicable" in lines
        assert "c_ok: false" in lines
        assert "beta0_ok: false" in lines


class TestLimitEquations:
    def test_lou_neumann_root_satisfies_equation(self):
        lam = limit_root("lou_neumann", 0.0, 0.3, 2.0)
        lhs = math.sqrt(2.0) * math.tan(math.sqrt(lam * 2.0) * 0.3)
        rhs = math.tanh(math.sqrt(lam) * 0.7)
        assert abs(lhs - rhs) < 1e-9
        assert abs(limit_char_residual("lou_neumann", 0.0, 0.3, 2.0, lam)) < 1e-9

    def test_general_form_reduces_at_a_zero(self):
        neu = limit_root("neumann", 0.0, 0.3, 2.0)
        lou = limit_root("lou_neumann", 0.0, 0.3, 2.0)
        assert abs(neu - lou) < 1e-10
        dir_ = limit_root("dirichlet", 0.0, 0.3, 2.0)
        lou_d = limit_root("lou_dirichlet", 0.0, 0.3, 2.0)
        assert abs(dir_ - lou_d) < 1e-10

    def test_root_is_residual_zero(self):
        for kind, a in (("neumann", 0.35), ("dirichlet", 0.35)):
            lam = limit_root(kind, a, 0.3, 2.0)
            assert abs(limit_char_residual(kind, a, 0.3, 2.0, lam)) < 1e-8

    def test_balanced_lou_neumann_keeps_no_root(self):
        # at kappa c = 1 - c the form over sqrt(lambda) tends to 0: the root
        # at 0 is trivial, so no bisection below the scan is taken
        with pytest.raises(ValueError, match="no root of lou_neumann"):
            limit_root("lou_neumann", 0.0, 0.5, 1.0)

    def test_lou_kinds_require_a_zero(self):
        with pytest.raises(ValueError, match="requires a = 0"):
            limit_char_residual("lou_neumann", 0.1, 0.3, 2.0, 1.0)
        with pytest.raises(ValueError, match="requires a = 0"):
            limit_root("lou_dirichlet", 0.1, 0.3, 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown limit kind"):
            limit_char_residual("robin", 0.0, 0.3, 2.0, 1.0)
        with pytest.raises(ValueError, match="unknown limit kind"):
            limit_root("robin", 0.0, 0.3, 2.0)

    def test_tan_pole_reported(self):
        lam_pole = (math.pi / 2.0) ** 2 / (2.0 * 0.3 * 0.3)
        with pytest.raises(PoleError):
            limit_char_residual("lou_neumann", 0.0, 0.3, 2.0, lam_pole)

    def test_denominator_pole_reported(self):
        # locate the zero of sqrt(kappa)*tanh(sqrt(lam)*a)*tan(sqrt(lam kappa)c) - 1
        a, c, kappa = 0.35, 0.3, 2.0

        def den(lam):
            sq = math.sqrt(lam)
            return (
                math.sqrt(kappa)
                * math.tanh(sq * a)
                * math.tan(sq * math.sqrt(kappa) * c)
                - 1.0
            )

        lo, hi = 1.0, 13.0
        assert den(lo) * den(hi) < 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if den(lo) * den(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        with pytest.raises(PoleError):
            limit_char_residual("dirichlet", a, c, kappa, 0.5 * (lo + hi))

    def test_dirichlet_root_beyond_quarter_period(self):
        # the first Dirichlet-limit root at a=0 lies above the scan window cap
        w = spectral_window(0.3, 2.0)
        lam = limit_root("lou_dirichlet", 0.0, 0.3, 2.0)
        assert lam > w.lambda_max

    def test_frozen_reference_roots(self):
        assert limit_root("lou_neumann", 0.0, 0.3, 2.0) == pytest.approx(
            0.7239691990975208, abs=1e-9
        )

    @pytest.mark.parametrize("a", [0.0, 0.35])
    def test_predicate_roots_take_no_scan_and_a_bounded_number_of_calls(self, monkeypatch, a):
        scans, calls = [], []

        def counted_scan(*args):
            scans.append(args)
            return bracket_scan(*args)

        def counted_predicate(*args):
            calls.append(args)
            return _limit_predicate(*args)

        monkeypatch.setattr(robineig.eigensolver, "bracket_scan", counted_scan)
        monkeypatch.setattr(robineig.characteristic, "_limit_predicate", counted_predicate)
        for kind in ("neumann", "dirichlet"):
            scans.clear()
            calls.clear()
            limit_root(kind, a, 0.3, 2.0)
            assert not scans, kind
            assert 0 < len(calls) <= 50, (kind, len(calls))
        if a == 0.0:
            for kind in ("lou_neumann", "lou_dirichlet"):
                scans.clear()
                calls.clear()
                limit_root(kind, a, 0.3, 2.0)
                assert len(scans) == 1 and not calls, kind

    def test_dirichlet_predicate_at_a_zero_is_the_reduced_form(self):
        # alpha = atan2(1, 0) = pi/2 exactly, so the predicate is 1 + sqrt(kappa)
        # cot(om c) tanh(sq (1-c)), and sin(om c) times it is the lou_dirichlet form
        c, kappa = 0.3, 2.0
        for lam in np.linspace(0.5, 0.999 * math.pi ** 2 / (c * c * kappa), 40):
            om_c = math.sqrt(lam * kappa) * c
            want = math.sin(om_c) + math.sqrt(kappa) * math.tanh(math.sqrt(lam) * (1.0 - c)) \
                * math.cos(om_c)
            got = math.sin(om_c) * _limit_predicate("dirichlet", 0.0, c, kappa, float(lam))
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15), lam


# the limits workload's box, and a wide one; s places a in [0, 1-c]
_LIMITS_BOX = dict(c=st.floats(0.15, 0.3), log_kappa=st.floats(0.0, math.log(2.0)),
                   s=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
_WIDE_BOX = dict(c=st.floats(0.01, 0.95), log_kappa=st.floats(math.log(0.01), math.log(20.0)),
                 s=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
# c down to 0.001, where the window reaches lambda = 2.5e8
_TINY_C_BOX = dict(_WIDE_BOX, c=st.floats(0.001, 0.01))


def _roots_or_none(a, c, kappa):
    """limit_root per kind (the ``lou_*`` kinds at a = 0 only), None where
    the window holds no root."""
    out = {}
    for kind in LIMIT_KINDS:
        if kind.startswith("lou_") and a != 0.0:
            continue
        try:
            out[kind] = limit_root(kind, a, c, kappa)
        except ValueError as exc:
            assert "no root" in str(exc)
            out[kind] = None
    return out


def _assert_roots_match_the_scalar_scan(c, log_kappa, s):
    a, kappa = s * (1.0 - c), math.exp(log_kappa)
    for kind, got in _roots_or_none(a, c, kappa).items():
        want = limit_root_loop(kind, a, c, kappa)
        if want is None or got is None:
            assert got is want, (kind, got, want)
        else:
            assert abs(got - want) <= _LIMIT_TOL * max(1.0, want), (kind, got, want)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_LIMITS_BOX)
def test_limit_roots_match_the_scalar_scan_on_the_limits_box(c, log_kappa, s):
    _assert_roots_match_the_scalar_scan(c, log_kappa, s)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_WIDE_BOX)
def test_limit_roots_match_the_scalar_scan_on_the_wide_box(c, log_kappa, s):
    _assert_roots_match_the_scalar_scan(c, log_kappa, s)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_TINY_C_BOX)
def test_limit_roots_match_the_scalar_scan_on_the_tiny_c_box(c, log_kappa, s):
    _assert_roots_match_the_scalar_scan(c, log_kappa, s)


def _assert_predicate_changes_sign_once(c, log_kappa, s):
    # 257 window points: positive up to the principal root, non-positive after,
    # with no numpy or math warning and no OverflowError
    a, kappa = s * (1.0 - c), math.exp(log_kappa)
    w = spectral_window(c, kappa)
    windows = {"neumann": w,
               "dirichlet": SpectralWindow(w.lambda_min,
                                           (1.0 - 1e-9) * math.pi ** 2 / (c * c * kappa))}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, win in windows.items():
            lams = np.linspace(win.lambda_min, win.lambda_max, 257)
            positive = [_limit_predicate(kind, a, c, kappa, float(lam)) > 0.0 for lam in lams]
            changes = sum(p != q for p, q in zip(positive, positive[1:]))
            assert changes == 0 or (changes == 1 and positive[0]), (kind, positive)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_WIDE_BOX)
def test_limit_predicate_changes_sign_once_on_the_wide_box(c, log_kappa, s):
    _assert_predicate_changes_sign_once(c, log_kappa, s)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(**_TINY_C_BOX)
def test_limit_predicate_changes_sign_once_on_the_tiny_c_box(c, log_kappa, s):
    _assert_predicate_changes_sign_once(c, log_kappa, s)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(c=st.floats(0.01, 0.95), log_kappa=st.floats(math.log(0.01), math.log(20.0)),
       beta0=st.floats(0.0, 10.0))
def test_h_max_matches_the_scalar_loop(c, log_kappa, beta0):
    kappa = math.exp(log_kappa)
    # the loop's cosh overflows at sqrt(lambda_max) (1 - c) = pi (1-c) / (2 c sqrt(kappa))
    assume(math.pi * (1.0 - c) / (2.0 * c * math.sqrt(kappa)) < 700.0)
    w = spectral_window(c, kappa)
    window = (w.lambda_min, w.lambda_max)
    got = hypothesis_bounds(Params(c, kappa, beta0, 0.0), window).h_max
    want = h_max_loop(Params(c, kappa, beta0, 0.0), window)
    assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def _assert_no_warning(c, kappa, s):
    # only the documented "no root" ValueError may leave limit_root; every
    # numpy warning (overflow, invalid, divide) is an error here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _roots_or_none(s * (1.0 - c), c, kappa)
        w = spectral_window(c, kappa)
        rep = hypothesis_bounds(Params(c, kappa, 1.0, 0.0), (w.lambda_min, w.lambda_max))
    assert not math.isnan(rep.h_max)
    assert rep.h_max != -math.inf


@settings(max_examples=300, derandomize=True, deadline=None)
@given(c=st.one_of(st.floats(0.01, 0.95), st.floats(0.001, 0.01)),
       log_kappa=st.floats(math.log(0.01), math.log(20.0)),
       s=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_limits_and_hypotheses_raise_no_warning(c, log_kappa, s):
    _assert_no_warning(c, math.exp(log_kappa), s)


# c down to 0.001, where pi (1-c) / (2 c sqrt(kappa)) passes the double range of cosh
@pytest.mark.parametrize("c, kappa, s", [(0.001, 0.01, 0.0), (0.001, 2.0, 0.0),
                                         (0.001, 20.0, 1.0), (0.002, 0.05, 0.5),
                                         (0.01, 0.01, 0.0), (0.95, 20.0, 0.0)])
def test_overflow_corners_raise_no_warning(c, kappa, s):
    _assert_no_warning(c, kappa, s)


class TestOverflowCorners:
    def test_bound_at_small_c(self):
        # t = pi (1-c) / (2 c sqrt(kappa)) = 15692: cosh t is beyond the double range
        assert beta0_star_bound(0.001, 0.01) == pytest.approx(
            0.1 * math.pi / 0.001 / 0.99, rel=1e-12)
        assert beta0_star_bound(0.001, 2.0) is None

    @settings(max_examples=500, derandomize=True, deadline=None)
    @given(c=st.floats(0.01, 0.95), log_kappa=st.floats(math.log(0.01), math.log(20.0)))
    def test_bound_matches_the_cosh_form(self, c, log_kappa):
        kappa = math.exp(log_kappa)
        t = math.pi * (1.0 - c) / (2.0 * c * math.sqrt(kappa))
        assume(t < 700.0)
        den = kappa + 1.0 - (kappa - 1.0) * math.cosh(t)
        assume(abs(den) > 1e-6 * math.cosh(t))  # away from the sign change
        if den <= 0.0:
            assert beta0_star_bound(c, kappa) is None
        else:
            want = (math.sqrt(kappa) * math.pi / c) * math.sinh(t) / den
            assert beta0_star_bound(c, kappa) == pytest.approx(want, rel=1e-12)

    def test_h_max_at_small_c(self):
        # h re-derived in 30-digit arithmetic, which has no overflow, on the same samples
        import mpmath

        for kappa in (0.01, 2.0):
            w = spectral_window(0.001, kappa)
            rep = hypothesis_bounds(Params(0.001, kappa, 1.0, 0.0), (w.lambda_min, w.lambda_max))
            with mpmath.workdps(30):
                k, c = mpmath.mpf(kappa), mpmath.mpf(0.001)
                hs = []
                for j in range(256):
                    lam = mpmath.mpf(w.lambda_min + (w.lambda_max - w.lambda_min) * j / 255)
                    th, z = c * mpmath.sqrt(k * lam), mpmath.sqrt(lam) * (1 - c)
                    hs.append(((k - 1) * mpmath.sin(th) * mpmath.cosh(z)
                               - 2 * mpmath.sqrt(k) * mpmath.cos(th) * mpmath.sinh(z))
                              / ((k + 1) * mpmath.sin(th)))
                want = float(max(hs))
            if math.isinf(want):
                assert rep.h_max == want  # kappa = 2: h passes the double range
            else:
                assert rep.h_max == pytest.approx(want, rel=1e-12)  # kappa = 0.01: -4.1e8
