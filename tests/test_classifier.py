import math

import pytest

from robineig.classifier import (
    LOC_EITHER,
    LOC_INTERIOR,
    LOC_LEFT,
    LOC_RIGHT,
    REGIME_DEGENERATE,
    REGIME_GT,
    REGIME_LT,
    REGIME_MIXED,
    SUBCASE_B0_MUCH_GREATER,
    SUBCASE_B0_MUCH_LESS,
    SUBCASE_SMALL_DIFF,
    SUBCASE_UNCLASSIFIED,
    Prediction,
    a_star,
    classify_pair,
    compare_prediction,
    numeric_argmin,
)
from robineig.model import Params


def curve_of(lambdas, c=0.3):
    n = len(lambdas)
    return [((1.0 - c) * j / (n - 1), lam) for j, lam in enumerate(lambdas)]


class TestAStar:
    def test_symmetric_pair_midpoint(self):
        assert a_star(3.0, 3.0, 5.0, 0.3) == (1.0 - 0.3) / 2.0

    def test_reflection_identity(self, rng):
        c = 0.3
        count = 0
        while count < 50:
            b0, b1 = rng.uniform(0.2, 8.0, size=2)
            lam = rng.uniform(0.5, 13.0)
            try:
                s = a_star(b0, b1, lam, c) + a_star(b1, b0, lam, c)
            except ValueError:
                continue
            count += 1
            assert s == pytest.approx(1.0 - c, abs=1e-12)

    def test_direct_value_against_sign_function_zero(self):
        from theory import char_g

        b0, b1, lam, c = 4.0, 2.0, 2.0, 0.3
        val = a_star(b0, b1, lam, c)
        assert val == pytest.approx(0.5312, abs=1e-3)
        # cross-check: bisect the sign function g in a
        lo, hi = 0.0, 1.0 - c
        g_lo = char_g(lo, b0, b1, lam, c)
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if g_lo * char_g(mid, b0, b1, lam, c) <= 0.0:
                hi = mid
            else:
                lo = mid
        assert val == pytest.approx(0.5 * (lo + hi), abs=1e-10)

    def test_undefined_cases(self):
        with pytest.raises(ValueError):
            a_star(1.0, 1.0, 0.0, 0.3)
        with pytest.raises(ValueError, match="a\\* undefined"):
            a_star(2.0, 2.0, 4.0, 0.3)  # beta0*beta1 = lambda
        with pytest.raises(ValueError, match="a\\* undefined"):
            a_star(0.2, 8.0, 2.0, 0.3)  # artanh argument beyond 1


class TestClassifyPair:
    def test_gt_interior_symmetric(self):
        p = Params(0.3, 2.0, 4.0, 4.0)
        label, pred = classify_pair(p, curve_of([9.5, 9.0, 9.5]))
        assert (label.regime, label.subcase) == (REGIME_GT, SUBCASE_SMALL_DIFF)
        assert pred.location == LOC_INTERIOR
        # a* evaluated at the argmin eigenvalue; symmetric pair gives midpoint
        assert pred.a_star_value == (1.0 - 0.3) / 2.0

    def test_gt_left_and_right(self):
        left_p = Params(0.3, 2.0, 0.2, 8.0)
        label, pred = classify_pair(left_p, curve_of([1.0, 1.1, 1.2]))
        assert (label.regime, label.subcase) == (REGIME_GT, SUBCASE_B0_MUCH_LESS)
        assert pred.location == LOC_LEFT

        right_p = Params(0.3, 2.0, 8.0, 0.2)
        label, pred = classify_pair(right_p, curve_of([1.2, 1.1, 1.0]))
        assert (label.regime, label.subcase) == (REGIME_GT, SUBCASE_B0_MUCH_GREATER)
        assert pred.location == LOC_RIGHT

    def test_lt_either(self):
        p = Params(0.3, 2.0, 0.6, 0.6)
        label, pred = classify_pair(p, curve_of([3.0, 3.2, 3.0]))
        assert (label.regime, label.subcase) == (REGIME_LT, SUBCASE_SMALL_DIFF)
        assert pred.location == LOC_EITHER
        assert pred.a_star_value is None

    def test_lt_left_and_right(self):
        p = Params(0.3, 2.0, 0.2, 8.0)
        label, pred = classify_pair(p, curve_of([30.0, 31.0, 32.0]))
        assert (label.regime, label.subcase) == (REGIME_LT, SUBCASE_B0_MUCH_LESS)
        assert pred.location == LOC_LEFT

        q = Params(0.3, 2.0, 8.0, 0.2)
        label, pred = classify_pair(q, curve_of([32.0, 31.0, 30.0]))
        assert (label.regime, label.subcase) == (REGIME_LT, SUBCASE_B0_MUCH_GREATER)
        assert pred.location == LOC_RIGHT

    def test_mixed_regime(self):
        p = Params(0.3, 2.0, 2.0, 2.0)  # product 4.0
        label, pred = classify_pair(p, curve_of([3.0, 5.0, 3.0]))
        assert label.regime == REGIME_MIXED
        assert label.subcase == SUBCASE_UNCLASSIFIED
        assert pred.location is None

    def test_degenerate_regime(self):
        p = Params(0.3, 2.0, 2.0, 2.0)
        label, pred = classify_pair(p, curve_of([3.0, 4.0, 5.0]))
        assert label.regime == REGIME_DEGENERATE
        assert label.subcase is None
        assert pred.location is None

    def test_unclassified_when_threshold_not_uniform(self):
        # beta0 - beta1 = -1.38 sits below -T at lambda=2 but inside
        # [-T, T] at lambda=5, so no single subcase holds at all grid points
        p = Params(0.3, 2.0, 0.2, 1.58)
        label, pred = classify_pair(p, curve_of([2.0, 5.0]))
        assert (label.regime, label.subcase) == (REGIME_LT, SUBCASE_UNCLASSIFIED)
        assert pred.location is None

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError, match="empty curve"):
            classify_pair(Params(0.3, 2.0, 1.0, 1.0), [])

    def test_mirrored_curves_give_mirrored_predictions(self):
        cases = [
            (Params(0.3, 2.0, 0.2, 8.0), [1.0, 1.1, 1.2]),
            (Params(0.3, 2.0, 4.0, 4.0), [9.5, 9.0, 9.5]),
            (Params(0.3, 2.0, 0.6, 0.6), [3.0, 3.2, 3.0]),
        ]
        mirror = {LOC_LEFT: LOC_RIGHT, LOC_RIGHT: LOC_LEFT,
                  LOC_INTERIOR: LOC_INTERIOR, LOC_EITHER: LOC_EITHER}
        for p, lambdas in cases:
            q = Params(p.c, p.kappa, p.beta1, p.beta0)
            _, pred_p = classify_pair(p, curve_of(lambdas))
            _, pred_q = classify_pair(q, curve_of(list(reversed(lambdas))))
            assert pred_q.location == mirror[pred_p.location]


class TestNumericArgmin:
    def test_monotone_increasing(self):
        a, lam, j = numeric_argmin(curve_of([1.0, 2.0, 3.0]))
        assert (a, lam, j) == (0.0, 1.0, 0)

    def test_monotone_decreasing(self):
        a, lam, j = numeric_argmin(curve_of([3.0, 2.0, 1.0]))
        assert (a, lam, j) == (0.7, 1.0, 2)

    def test_tie_goes_leftmost(self):
        a, lam, j = numeric_argmin(curve_of([1.0, 2.0, 1.0]))
        assert (a, j) == (0.0, 0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            numeric_argmin([])


class TestComparePrediction:
    def test_exact_label_matches(self):
        assert compare_prediction(Prediction(LOC_RIGHT), 80, 81) == (True, "right")
        assert compare_prediction(Prediction(LOC_LEFT), 0, 81) == (True, "left")
        assert compare_prediction(Prediction(LOC_LEFT), 80, 81) == (False, "right")

    def test_interior(self):
        assert compare_prediction(Prediction(LOC_INTERIOR, 0.35), 40, 81) == (True, "interior")
        assert compare_prediction(Prediction(LOC_INTERIOR, 0.35), 0, 81) == (False, "left")

    def test_either_matches_both_endpoints(self):
        assert compare_prediction(Prediction(LOC_EITHER), 0, 81) == (True, "left")
        assert compare_prediction(Prediction(LOC_EITHER), 80, 81) == (True, "right")
        assert compare_prediction(Prediction(LOC_EITHER), 13, 81) == (False, "interior")

    def test_no_prediction_returns_none(self):
        match, numeric = compare_prediction(Prediction(None), 5, 81)
        assert match is None
        assert numeric is None

    def test_total_over_all_combinations(self):
        for loc in (LOC_LEFT, LOC_RIGHT, LOC_INTERIOR, LOC_EITHER):
            for idx in (0, 1, 80):
                match, numeric = compare_prediction(Prediction(loc), idx, 81)
                assert isinstance(match, bool)
                assert numeric in ("left", "right", "interior")
