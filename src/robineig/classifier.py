"""Regime/subcase classification and minimiser prediction.

A computed curve a -> lambda(a) is classified by the uniform sign of
beta0*beta1 - lambda(a_j) (the regime) and by comparing beta0 - beta1
against the threshold T(lambda) = |beta0*beta1 - lambda| * tanh(sqrt(lambda)
(1-c)) / sqrt(lambda) at every grid eigenvalue.  A criterion must hold at
ALL grid points for the pair to be classified; otherwise it is left
unclassified, mirroring the batch-verification protocol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import Params

# CSV vocabulary, shared with the harness
REGIME_GT = "b0b1>lambda"
REGIME_LT = "b0b1<lambda"
REGIME_MIXED = "mixed"
REGIME_DEGENERATE = "degenerate"

SUBCASE_B0_MUCH_GREATER = "b0>>b1"
SUBCASE_B0_MUCH_LESS = "b0<<b1"
SUBCASE_SMALL_DIFF = "|b0-b1| small"
SUBCASE_UNCLASSIFIED = "unclassified"

LOC_LEFT = "left"
LOC_RIGHT = "right"
LOC_INTERIOR = "interior"
LOC_EITHER = "either"

_DEGENERACY_RTOL = 1e-9


@dataclass(frozen=True)
class CaseLabel:
    regime: str
    subcase: str | None


@dataclass(frozen=True)
class Prediction:
    location: str | None
    a_star_value: float | None = None


def a_star(beta0: float, beta1: float, lam: float, c: float) -> float:
    """Interior candidate minimiser (zero of the sign function in a).

    May land outside [0, 1-c]; callers apply the threshold tests rather than
    clamping.  Raises ValueError when the artanh argument has magnitude >= 1
    (the endpoint cases).
    """
    if lam <= 0.0:
        raise ValueError(f"lambda must be positive: {lam}")
    if lam == beta0 * beta1:
        raise ValueError("a* undefined: beta0*beta1 = lambda")
    sq = math.sqrt(lam)
    arg = sq * (beta1 - beta0) / (lam - beta0 * beta1)
    if abs(arg) >= 1.0:
        raise ValueError(f"a* undefined: artanh argument {arg} not in (-1,1)")
    return math.atanh(arg) / (2.0 * sq) + (1.0 - c) / 2.0


def _threshold(beta0: float, beta1: float, lam: float, c: float) -> float:
    return abs(beta0 * beta1 - lam) * math.tanh(math.sqrt(lam) * (1.0 - c)) / math.sqrt(lam)


def classify_pair(
    p: Params, curve: list[tuple[float, float]]
) -> tuple[CaseLabel, Prediction]:
    """Classify one Robin pair from its computed eigenvalue curve."""
    if not curve:
        raise ValueError("empty curve")
    lambdas = [lam for _, lam in curve]
    prod = p.beta0 * p.beta1

    if min(abs(prod - lam) for lam in lambdas) <= _DEGENERACY_RTOL * max(1.0, prod):
        return CaseLabel(REGIME_DEGENERATE, None), Prediction(None)

    if all(prod > lam for lam in lambdas):
        regime = REGIME_GT
    elif all(prod < lam for lam in lambdas):
        regime = REGIME_LT
    else:
        return CaseLabel(REGIME_MIXED, SUBCASE_UNCLASSIFIED), Prediction(None)

    d = p.beta0 - p.beta1
    thresholds = [_threshold(p.beta0, p.beta1, lam, p.c) for lam in lambdas]
    if all(d < -t for t in thresholds):
        return CaseLabel(regime, SUBCASE_B0_MUCH_LESS), Prediction(LOC_LEFT)
    if all(d > t for t in thresholds):
        return CaseLabel(regime, SUBCASE_B0_MUCH_GREATER), Prediction(LOC_RIGHT)
    if all(abs(d) <= t for t in thresholds):
        if regime == REGIME_GT:
            _, _, j = numeric_argmin(curve)
            return (
                CaseLabel(regime, SUBCASE_SMALL_DIFF),
                Prediction(LOC_INTERIOR, a_star(p.beta0, p.beta1, lambdas[j], p.c)),
            )
        return CaseLabel(regime, SUBCASE_SMALL_DIFF), Prediction(LOC_EITHER)
    return CaseLabel(regime, SUBCASE_UNCLASSIFIED), Prediction(None)


def numeric_argmin(curve: list[tuple[float, float]]) -> tuple[float, float, int]:
    """(a, lambda, index) of the smallest curve eigenvalue; ties go leftmost."""
    if not curve:
        raise ValueError("empty curve")
    j = min(range(len(curve)), key=lambda i: (curve[i][1], i))
    return curve[j][0], curve[j][1], j


def compare_prediction(pred: Prediction, numeric_index: int,
                       n_a: int) -> tuple[bool | None, str | None]:
    """Match the predicted minimiser location against the measured argmin.

    The numeric label is derived from the argmin index only.  ``either``
    matches both endpoints; ``interior`` requires interiority but not
    closeness to the analytic candidate (that stricter check is a separate
    diagnostic).  Returns (match, numeric_label), or (None, None) when there
    is no prediction: an unclassified row carries no protocol columns.
    """
    if pred.location is None:
        return None, None
    if numeric_index == 0:
        numeric = LOC_LEFT
    elif numeric_index == n_a - 1:
        numeric = LOC_RIGHT
    else:
        numeric = LOC_INTERIOR
    if pred.location == LOC_EITHER:
        return numeric in (LOC_LEFT, LOC_RIGHT), numeric
    return pred.location == numeric, numeric
