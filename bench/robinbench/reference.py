"""Reference answers that share no code with robineig's solver path.

Eigenvalues are the smallest zero of the four-term characteristic
determinant, transcribed here in numpy and evaluated on many lanes at once:
a uniform scan finds the first sign change in the window and a lane-wise
bisection narrows it to float resolution.  The Neumann and Dirichlet limit
roots are the zeros of the same determinant at beta = 0 and of its
beta0*beta1 coefficient (beta -> inf).  The hypothesis report and the sweep
classification are re-derived from their closed forms.  Nothing here imports
robineig, so a defect in its scan, bisection, propagation, limit equations or
classifier shows as a mismatch.
"""

from __future__ import annotations

import math

import numpy as np

# The solver bisects to an absolute bracket width of 1e-10, so below
# lambda = 1 the comparison is absolute; above it, relative.
EIG_TOL = 1e-10

_SCAN_POINTS = 512
_LIMIT_SCAN_POINTS = 2048
_HYP_SAMPLES = 256
_DEGENERACY_RTOL = 1e-9


def eig_close(value: float, ref: float) -> bool:
    return abs(value - ref) <= EIG_TOL * max(1.0, abs(ref))


def quarter_cap(c, kappa):
    """Upper end of the admissible window, pi^2 / (4 c^2 kappa)."""
    return np.pi ** 2 / (4.0 * np.square(c) * kappa)


def char_det(lam, a, c, kappa, b0, b1):
    """Characteristic determinant; zero exactly at the eigenvalues."""
    sq = np.sqrt(lam)
    rk = np.sqrt(kappa)
    sn, cs = np.sin(sq * rk * c), np.cos(sq * rk * c)
    y = sq * (2.0 * a + c - 1.0)
    z = sq * (1.0 - c)
    return ((kappa + 1.0) * (lam - b0 * b1) * np.cosh(y) * sn
            + (kappa + 1.0) * (b0 - b1) * sq * np.sinh(y) * sn
            + np.cosh(z) * ((kappa - 1.0) * (lam + b0 * b1) * sn - 2.0 * sq * rk * (b0 + b1) * cs)
            + np.sinh(z) * ((kappa - 1.0) * (b0 + b1) * sq * sn - 2.0 * rk * (b0 * b1 + lam) * cs))


def dirichlet_det(lam, a, c, kappa):
    """Coefficient of beta0*beta1 in char_det: its zeros are the clamped
    (beta -> inf) eigenvalues."""
    sq = np.sqrt(lam)
    rk = np.sqrt(kappa)
    sn, cs = np.sin(sq * rk * c), np.cos(sq * rk * c)
    y = sq * (2.0 * a + c - 1.0)
    z = sq * (1.0 - c)
    return -(kappa + 1.0) * np.cosh(y) * sn + (kappa - 1.0) * np.cosh(z) * sn \
        - 2.0 * rk * np.sinh(z) * cs


def first_roots(f, cols: tuple, lo, hi, n_scan: int) -> np.ndarray:
    """Smallest zero of ``f(lam, *cols)`` in [lo, hi] per lane, NaN where f
    keeps its sign.  ``cols`` are per-lane parameter arrays.  Lanes go
    through in chunks of about 2^14 scan points, so that the reference adds
    little to the benchmark's peak memory."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    cols = [np.asarray(c, dtype=float) for c in cols]
    out = np.empty(len(lo))
    step = max(1, 2 ** 14 // (n_scan + 1))
    for k in range(0, len(lo), step):
        part = slice(k, k + step)
        out[part] = _first_roots(f, [c[part, None] for c in cols], lo[part], hi[part], n_scan)
    return out


def _first_roots(f, cols, lo, hi, n_scan):
    t = np.linspace(0.0, 1.0, n_scan + 1)
    lam = lo[:, None] + (hi - lo)[:, None] * t[None, :]
    s = np.sign(f(lam, *cols))
    change = (s[:, :-1] * s[:, 1:] < 0.0) | (s[:, :-1] == 0.0)
    found = change.any(axis=1)
    j = change.argmax(axis=1)
    lanes = np.arange(len(lo))
    left, right = lam[lanes, j], lam[lanes, j + 1]
    s_left = s[lanes, j]
    for _ in range(200):  # each pass halves every live bracket; ~60 reach float resolution
        mid = 0.5 * (left + right)
        live = (mid > left) & (mid < right)
        if not live.any():
            break
        s_mid = np.sign(f(mid[:, None], *cols)[:, 0])
        move_left = live & (s_mid == s_left) & (s_left != 0.0)
        left = np.where(move_left, mid, left)
        right = np.where(live & ~move_left, mid, right)
    return np.where(found, 0.5 * (left + right), np.nan)


def principal(a, c, kappa, b0, b1) -> np.ndarray:
    """Principal eigenvalue per lane; NaN where it lies above the window
    (1 - 1e-9) * pi^2 / (4 c^2 kappa), where robineig must refuse."""
    cap = quarter_cap(np.asarray(c, dtype=float), np.asarray(kappa, dtype=float))
    return first_roots(char_det, (a, c, kappa, b0, b1), 1e-9 * cap, (1.0 - 1e-9) * cap,
                       _SCAN_POINTS)


def _neumann_det(lam, a, c, kappa):
    return char_det(lam, a, c, kappa, 0.0, 0.0) / lam


def limit_roots(a, c, kappa) -> tuple[np.ndarray, np.ndarray]:
    """(Neumann, Dirichlet) limit eigenvalues per lane.  The Dirichlet root
    lies beyond the quarter-period window, so its scan runs to half a
    period, pi^2 / (c^2 kappa)."""
    cap = quarter_cap(np.asarray(c, dtype=float), np.asarray(kappa, dtype=float))
    lo = np.maximum(1e-12, 1e-6 * cap)
    neu = first_roots(_neumann_det, (a, c, kappa), lo, (1.0 - 1e-9) * cap,
                      _LIMIT_SCAN_POINTS)
    dirich = first_roots(dirichlet_det, (a, c, kappa), lo, (1.0 - 1e-9) * 4.0 * cap,
                         _LIMIT_SCAN_POINTS)
    return neu, dirich


def hypothesis(c: float, kappa: float, beta0: float) -> tuple:
    """(c_star, beta0_star_bound, c_ok, beta0_ok, h_max) of the
    classification theorem, from the closed forms."""
    rk = math.sqrt(kappa)
    if kappa > 1.0:
        c_star = 1.0 / (1.0 + (2.0 * rk / math.pi) * math.log((rk + 1.0) / (rk - 1.0)))
        c_ok = c > c_star
    else:
        c_star, c_ok = None, True
    t = math.pi * (1.0 - c) / (2.0 * c * rk)
    den = kappa + 1.0 - (kappa - 1.0) * math.cosh(t)
    bound = (rk * math.pi / c) * math.sinh(t) / den if den > 0.0 and c_ok else None
    beta0_ok = bound is not None and beta0 > bound
    cap = math.pi ** 2 / (4.0 * c * c * kappa)
    lo, hi = max(1e-12, 1e-6 * cap), (1.0 - 1e-9) * cap
    lam = lo + (hi - lo) * np.arange(_HYP_SAMPLES) / (_HYP_SAMPLES - 1)
    sq = np.sqrt(lam)
    sn, cs = np.sin(c * rk * sq), np.cos(c * rk * sq)
    z = sq * (1.0 - c)
    h = ((kappa - 1.0) * sn * np.cosh(z) - 2.0 * rk * cs * np.sinh(z)) / ((kappa + 1.0) * sn)
    return c_star, bound, c_ok, beta0_ok, float(h.max())


def classify(b0: float, b1: float, c: float, lams: np.ndarray) -> tuple[str, ...]:
    """The sweep CSV's classification columns (regime, subcase, predicted,
    numeric, comparison, argmin_a) for a curve on the uniform a grid."""
    n_a = len(lams)
    j = int(np.argmin(lams))  # ties go to the leftmost index
    argmin_a = format((1.0 - c) * j / (n_a - 1), ".3f")
    numeric = "left" if j == 0 else "right" if j == n_a - 1 else "interior"
    prod = b0 * b1
    if np.min(np.abs(prod - lams)) <= _DEGENERACY_RTOL * max(1.0, prod):
        return "degenerate", "", "", "", "", argmin_a
    if np.all(prod > lams):
        regime = "b0b1>lambda"
    elif np.all(prod < lams):
        regime = "b0b1<lambda"
    else:
        return "mixed", "unclassified", "", "", "", argmin_a
    d = b0 - b1
    sq = np.sqrt(lams)
    thr = np.abs(prod - lams) * np.tanh(sq * (1.0 - c)) / sq
    if np.all(d < -thr):
        subcase, predicted = "b0<<b1", "left"
    elif np.all(d > thr):
        subcase, predicted = "b0>>b1", "right"
    elif np.all(abs(d) <= thr):
        subcase = "|b0-b1| small"
        predicted = "interior" if regime == "b0b1>lambda" else "either"
    else:
        return regime, "unclassified", "", "", "", argmin_a
    match = numeric in ("left", "right") if predicted == "either" else predicted == numeric
    return regime, subcase, predicted, numeric, str(match).lower(), argmin_a
