import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from theory import profile_oracle

from robineig.model import Params
from robineig.propagator import eigenfunction_profile, propagate, shooting_residual

UNIT_STATES = ((1.0, 0.0), (0.0, 1.0))
# at a = 1 - c and lambda = 510366.5 the state at x = 1 is within sqrt(lambda) of overflow
NEXT_TO_OVERFLOW = Params(0.015946950339394972, 0.019010884008994106,
                          0.039924068043241494, 0.0003208042352176134)


def ode_propagator(m: float, s: float, lam: float) -> np.ndarray:
    """High-order adaptive integration of w' = Q w as an independent oracle."""

    def rhs(_x, y):
        return [y[1], -lam * m * y[0]]

    cols = []
    for y0 in ([1.0, 0.0], [0.0, 1.0]):
        sol = solve_ivp(rhs, (0.0, s), y0, method="DOP853", rtol=1e-12, atol=1e-14)
        cols.append(sol.y[:, -1])
    return np.column_stack(cols)


def three_piece_block(lam: float, kappa: float, left: float, mid: float, right: float,
                      start: np.ndarray | None = None) -> np.ndarray:
    """``propagate`` as a 2x2 matrix: its columns are the images of (1, 0) and
    (0, 1), or of the columns of ``start``."""
    cols = UNIT_STATES if start is None else start.T
    return np.array([propagate(u, du, lam, kappa, left, mid, right) for u, du in cols]).T


def piece_block(m: float, s: float, lam: float) -> np.ndarray:
    """The block of one piece of length s: weight m > 0 in the middle slot,
    m = -1 in the left one."""
    if m > 0.0:
        return three_piece_block(lam, m, 0.0, s, 0.0)
    assert m == -1.0
    return three_piece_block(lam, 1.0, s, 0.0, 0.0)


def det(mat: np.ndarray) -> float:
    return mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]


class TestPropagator:
    def test_zero_length_is_identity(self):
        assert np.array_equal(piece_block(-1.0, 0.0, 7.3), np.eye(2))

    def test_trig_block_value(self):
        mat = piece_block(2.0, 0.5, 1.0)
        expected = np.array([[0.760245, 0.459360], [-0.918725, 0.760245]])
        assert np.max(np.abs(mat - expected)) < 1e-5

    def test_hyperbolic_block_value(self):
        mat = piece_block(-1.0, 1.0, 1.0)
        expected = np.array([[1.543081, 1.175201], [1.175201, 1.543081]])
        assert np.max(np.abs(mat - expected)) < 1e-5

    def test_det_one_random(self, rng):
        for _ in range(1000):
            m = -1.0 if rng.random() < 0.5 else 2.0
            s = rng.uniform(0.0, 1.0)
            lam = rng.uniform(1e-4, 13.7)
            assert abs(det(piece_block(m, s, lam)) - 1.0) < 1e-12

    def test_semigroup(self, rng):
        for _ in range(1000):
            m = -1.0 if rng.random() < 0.5 else 2.0
            st = rng.uniform(0.0, 1.0)
            s = rng.uniform(0.0, st)
            t = st - s
            lam = rng.uniform(1e-4, 13.7)
            whole = piece_block(m, st, lam)
            split = piece_block(m, s, lam) @ piece_block(m, t, lam)
            assert np.max(np.abs(whole - split)) < 1e-12

    def test_ode_oracle_agreement(self, rng):
        for _ in range(100):
            m = -1.0 if rng.random() < 0.5 else rng.uniform(0.5, 4.0)
            s = rng.uniform(0.0, 1.0)
            lam = rng.uniform(0.1, 13.7)
            closed = piece_block(m, s, lam)
            assert np.max(np.abs(closed - ode_propagator(m, s, lam))) < 1e-9


class TestTransferMatrix:
    """The three-piece block of ``propagate``: an empty piece is exactly the
    identity inside the composition."""

    def test_zero_left_piece(self, p_default):
        lam, k, c = 1.7, p_default.kappa, p_default.c
        full = three_piece_block(lam, k, 0.0, c, 1.0 - c)
        two = three_piece_block(lam, k, 0.0, 0.0, 1.0 - c,
                                start=three_piece_block(lam, k, 0.0, c, 0.0))
        assert np.array_equal(full, two)

    def test_zero_right_piece(self):
        # c chosen so 1 - a - c is exactly zero in binary64
        p = Params(0.25, 2.0, 4.0, 4.0)
        lam = 1.7
        a = 1.0 - p.c
        full = three_piece_block(lam, p.kappa, a, p.c, 1.0 - a - p.c)
        two = three_piece_block(lam, p.kappa, 0.0, p.c, 0.0,
                                start=three_piece_block(lam, p.kappa, a, 0.0, 0.0))
        assert np.array_equal(full, two)

    def test_det_and_ode_oracle(self, p_default):
        lam = 1.0
        mat = three_piece_block(lam, p_default.kappa, 0.35, p_default.c, 1.0 - 0.35 - p_default.c)
        assert abs(det(mat) - 1.0) < 1e-12
        # outer piece applied last
        oracle = (
            ode_propagator(-1.0, 1.0 - 0.35 - p_default.c, lam)
            @ ode_propagator(p_default.kappa, p_default.c, lam)
            @ ode_propagator(-1.0, 0.35, lam)
        )
        assert np.max(np.abs(mat - oracle)) < 1e-9

    def test_rejects_bad_placement(self, p_default):
        with pytest.raises(ValueError, match="placement"):
            eigenfunction_profile(0.8, p_default, 1.0, np.array([0.5]))


class TestShootingResidual:
    def test_matches_matrix_product(self, p_default, rng):
        for _ in range(50):
            a = rng.uniform(0.0, 0.7)
            lam = rng.uniform(0.1, 13.0)
            mat = three_piece_block(lam, p_default.kappa, a, p_default.c, 1.0 - a - p_default.c)
            u1, du1 = mat @ np.array([1.0, p_default.beta0])
            via_matrix = du1 + p_default.beta1 * u1
            assert shooting_residual(a, p_default, lam) == pytest.approx(via_matrix, rel=1e-12, abs=1e-12)

    def test_finite_next_to_overflow_at_the_right_end(self):
        # a = 1 - c leaves no right piece, and the state at x = 1 is about 1e306:
        # u * sqrt(lambda) overflows, so an empty piece applied as cosh/sinh(0)
        # would turn the residual into nan, and the solve into a refusal
        p = NEXT_TO_OVERFLOW
        r = shooting_residual(1.0 - p.c, p, 510366.4976595049)
        assert math.isfinite(r) and r < -1e306

    def test_ode_oracle(self, p_default):
        a = 0.35
        lam = 5.0

        def rhs(x, y):
            b = a + p_default.c
            m = p_default.kappa if a < x <= b else -1.0
            return [y[1], -lam * m * y[0]]

        sol = solve_ivp(
            rhs, (0.0, 1.0), [1.0, p_default.beta0], method="DOP853",
            rtol=1e-12, atol=1e-14, max_step=0.01,
        )
        u1, du1 = sol.y[:, -1]
        assert shooting_residual(a, p_default, lam) == pytest.approx(
            du1 + p_default.beta1 * u1, abs=1e-6
        )


class TestEigenfunction:
    def test_left_boundary_normalisation(self, p_default):
        u, du = eigenfunction_profile(0.35, p_default, 5.0, np.array([0.0]))
        assert (u[0], du[0]) == (1.0, p_default.beta0)

    def test_continuity_at_interfaces(self, p_default):
        a, lam = 0.35, 5.0
        for x in (a, a + p_default.c):
            u, du = eigenfunction_profile(a, p_default, lam, np.array([x - 1e-13, x + 1e-13]))
            assert abs(u[0] - u[1]) < 1e-10
            assert abs(du[0] - du[1]) < 1e-10

    def test_profile_matches_pointwise(self, p_default, rng):
        # the array path against scalar propagate over the pieces up to x
        a, lam, p = 0.25, 3.0, p_default
        xs = np.sort(rng.uniform(0.0, 1.0, size=200))
        u, du = eigenfunction_profile(a, p, lam, xs)
        for i in (0, 57, 111, 199):
            x = float(xs[i])
            wu, wdu = propagate(1.0, p.beta0, lam, p.kappa,
                                min(x, a), min(max(x - a, 0.0), p.c), max(x - a - p.c, 0.0))
            assert u[i] == pytest.approx(wu, rel=1e-12, abs=1e-12)
            assert du[i] == pytest.approx(wdu, rel=1e-12, abs=1e-12)

    def test_profile_has_no_nan_next_to_overflow(self):
        # empty right pieces at the samples near x = 1 are the identity even
        # where u * sqrt(lambda) alone would overflow
        p = NEXT_TO_OVERFLOW
        with np.errstate(invalid="raise"):
            u, du = eigenfunction_profile(1.0 - p.c, p, 510366.4976595049,
                                          np.linspace(0.0, 1.0, 1001))
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(du))
        assert u[-1] > 1e305

    def test_profile_rejects_out_of_range(self, p_default):
        with pytest.raises(ValueError):
            eigenfunction_profile(0.35, p_default, 5.0, np.array([-0.1, 0.5]))

    def test_profile_rejects_descending_samples(self, p_default):
        with pytest.raises(ValueError, match="ascending"):
            eigenfunction_profile(0.35, p_default, 5.0, np.array([0.2, 0.6, 0.5]))
        with pytest.raises(ValueError, match="ascending"):
            eigenfunction_profile(0.35, p_default, 5.0, np.linspace(1.0, 0.0, 11))

    def test_profile_equals_the_single_propagate_oracle(self, rng):
        # each sample propagated across its own piece from that piece's start
        # state is the three-piece propagate over the lengths up to it, bit for
        # bit: the empty pieces there are exact identities
        xs_fixed = np.linspace(0.0, 1.0, 1001)
        for k in range(2000):
            c = rng.uniform(0.01, 0.95)
            kappa, b0, b1 = np.exp(rng.uniform(np.log([0.01, 1e-4, 1e-4]), np.log([20.0, 1e3, 1e3])))
            p = Params(c, float(kappa), 0.0 if k % 10 == 0 else float(b0), float(b1))
            a = (0.0, 1.0 - c)[k % 2] if k % 8 < 2 else rng.uniform(0.0, 1.0 - c)
            # lambda up to the window cap, with sqrt(lambda) below 300 so nothing overflows
            lam = float(min(np.pi ** 2 / (4.0 * c * c * kappa), 9e4)
                        * 10.0 ** rng.uniform(-6.0, 0.0))
            if k % 4 == 0:
                xs = xs_fixed
            else:
                xs = np.sort(np.concatenate([rng.uniform(0.0, 1.0, 200),
                                             [0.0, a, min(a + c, 1.0), 1.0]]))
            u, du = eigenfunction_profile(a, p, lam, xs)
            u_ref, du_ref = profile_oracle(a, p, lam, xs)
            assert np.array_equal(u, u_ref) and np.array_equal(du, du_ref), (a, p, lam)

    def test_profile_equals_the_oracle_next_to_overflow(self):
        p = NEXT_TO_OVERFLOW
        a = 1.0 - p.c
        xs = np.sort(np.concatenate([np.linspace(0.0, 1.0, 1001), [a, a + p.c]]))
        with np.errstate(all="raise"):
            u, du = eigenfunction_profile(a, p, 510366.4976595049, xs)
            u_ref, du_ref = profile_oracle(a, p, 510366.4976595049, xs)
        assert np.array_equal(u, u_ref) and np.array_equal(du, du_ref)

    def test_residual_equals_boundary_defect(self, p_default):
        a, lam = 0.35, 5.0
        u, du = eigenfunction_profile(a, p_default, lam, np.array([1.0]))
        assert shooting_residual(a, p_default, lam) == pytest.approx(
            du[0] + p_default.beta1 * u[0], rel=1e-12
        )

