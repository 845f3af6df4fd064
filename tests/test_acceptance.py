"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test records a single PASS/FAIL verdict line (echoed in the terminal
summary).

Criterion 1 replays 20 Robin pairs at c=0.3, kappa=2.0 through the
pairs-file protocol and asserts every label of REFERENCE_TABLE.  The pairs,
and the labels a previously published table printed for them, are kept
verbatim as PUBLISHED_TABLE; the repo holds no other source for that table.
REFERENCE_TABLE holds the labels that the classifier's documented rules give
on the true spectrum: a cell equal to its published value is that value,
reproduced by the solver, and the comment above REFERENCE_TABLE says which
cells depart from PUBLISHED_TABLE and why.  Each departure is proved by
test_criterion_1_corrections_hold_on_an_independent_spectrum against a
finite-element oracle (fem_oracle.py) that shares no code with the shooting
solver.

Criterion 7 audits the eigenpairs that the inputs of criteria 1-5 accept.
Those sweeps and solves are cached, so each runs once per session, in
whatever order the tests run.
"""

import ast
import functools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import ACCEPTANCE_LINES
from fem_oracle import FemEstimate, fem_principal
from test_propagator import det, ode_propagator, piece_block

from robineig.characteristic import char_f, hypothesis_bounds, limit_root
from robineig.classifier import classify_pair, numeric_argmin
from robineig.eigensolver import (
    Bracket,
    EigenResult,
    SolverError,
    SpectralWindow,
    bisect,
    bracket_scan,
    eigenfunction_positive,
    lambda_curve,
    principal_eigenvalue,
    rayleigh_check,
    spectral_window,
)
from robineig.harness import emit_figures, run_sweep, write_csv
from robineig.model import Params, SolverConfig, SweepConfig
from robineig.propagator import propagate


def _record(n: int, ok: bool, detail: str = "") -> None:
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _solve_or_none(a: float, p: Params, cfg: SolverConfig) -> float | None:
    """The accepted principal eigenvalue, or None when the solver refuses."""
    try:
        return principal_eigenvalue(a, p, cfg).lam
    except SolverError:
        return None


# Criterion 1's pairs at c=0.3, kappa=2.0, with the regime, subcase,
# predicted minimiser location and argmin that a previously published table
# printed for them.  Kept verbatim.
PUBLISHED_TABLE = [
    (8.00, 0.20, "b0b1>lambda", "b0>>b1", "right", "0.700"),
    (8.00, 0.98, "b0b1>lambda", "b0>>b1", "right", "0.700"),
    (8.00, 1.58, "b0b1>lambda", "b0>>b1", "right", "0.700"),
    (0.98, 8.00, "b0b1>lambda", "b0<<b1", "left", "0.000"),
    (1.58, 8.00, "b0b1>lambda", "b0<<b1", "left", "0.000"),
    (0.20, 8.00, "b0b1>lambda", "b0<<b1", "left", "0.000"),
    (5.64, 2.00, "b0b1>lambda", "|b0-b1| small", "interior", "0.480"),
    (4.00, 4.00, "b0b1>lambda", "|b0-b1| small", "interior", "0.480"),
    (2.00, 5.64, "b0b1>lambda", "|b0-b1| small", "interior", "0.480"),
    (0.20, 0.20, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (0.20, 0.98, "b0b1<lambda", "b0<<b1", "left", "0.000"),
    (0.20, 1.58, "b0b1<lambda", "b0<<b1", "left", "0.000"),
    (0.20, 2.38, "b0b1<lambda", "b0<<b1", "left", "0.000"),
    (0.98, 0.20, "b0b1<lambda", "b0>>b1", "right", "0.700"),
    (1.58, 0.20, "b0b1<lambda", "b0>>b1", "right", "0.700"),
    (2.38, 0.20, "b0b1<lambda", "b0>>b1", "right", "0.700"),
    (0.60, 0.60, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (0.98, 0.98, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (1.58, 1.58, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (2.38, 2.38, "b0b1>lambda", "|b0-b1| small", "interior", "0.480"),
]

# What criterion 1 asserts: the same pairs in the same order, with the labels
# the classifier's rules give on the true spectrum (None: no label).  Sixteen
# rows depart from PUBLISHED_TABLE, for four reasons:
#   - (8, 0.20), (8, 0.98), (8, 1.58) and their mirrors are `error` rows: at
#     the grid end beside beta=8, lambda1 = 14.138 to 14.171 lies above the
#     window cap pi^2/(4 c^2 kappa) = 13.708, which the solver refuses by
#     contract.  The printed b0b1>lambda fails there even without the cap.
#   - The printed regime is false for three pairs.  Along the curve of
#     (5.64, 2) and of (2, 5.64), lambda runs from 6.932 to 11.993, across
#     b0*b1 = 11.28: `mixed`, so unclassified with no prediction.  For
#     (2.38, 2.38), lambda >= 7.530 > b0*b1 = 5.664 at every placement:
#     b0b1<lambda, so the minimiser is `either` end.
#   - The printed subcase is false for six pairs.  The threshold
#     T(lambda) = |b0*b1 - lambda| tanh(sqrt(lambda)(1-c)) / sqrt(lambda)
#     stays >= 1.196 along the curve of (0.20, 0.98) and its mirror, above
#     |b0-b1| = 0.78: `|b0-b1| small`, so `either`.  For (0.20, 1.58),
#     (0.20, 2.38) and their mirrors, T straddles |b0-b1|: `unclassified`.
#   - The printed argmin 0.480 of (5.64, 2), (4, 4), (2, 5.64) and
#     (2.38, 2.38) is impossible: the reflection
#     lambda(a; b0, b1) = lambda(1-c-a; b1, b0), which criterion 4 checks,
#     keeps the leftmost minimisers of a pair and of its mirror to a sum of at
#     most 1-c = 0.7.  The argmins asserted are the solver's.
# test_criterion_1_corrections_hold_on_an_independent_spectrum proves each of
# these cells.
REFERENCE_TABLE = [
    (8.00, 0.20, "error", None, None, None),
    (8.00, 0.98, "error", None, None, None),
    (8.00, 1.58, "error", None, None, None),
    (0.98, 8.00, "error", None, None, None),
    (1.58, 8.00, "error", None, None, None),
    (0.20, 8.00, "error", None, None, None),
    (5.64, 2.00, "mixed", "unclassified", None, "0.700"),
    (4.00, 4.00, "b0b1>lambda", "|b0-b1| small", "interior", "0.350"),
    (2.00, 5.64, "mixed", "unclassified", None, "0.000"),
    (0.20, 0.20, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (0.20, 0.98, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (0.20, 1.58, "b0b1<lambda", "unclassified", None, "0.000"),
    (0.20, 2.38, "b0b1<lambda", "unclassified", None, "0.000"),
    (0.98, 0.20, "b0b1<lambda", "|b0-b1| small", "either", "0.700"),
    (1.58, 0.20, "b0b1<lambda", "unclassified", None, "0.700"),
    (2.38, 0.20, "b0b1<lambda", "unclassified", None, "0.700"),
    (0.60, 0.60, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (0.98, 0.98, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (1.58, 1.58, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
    (2.38, 2.38, "b0b1<lambda", "|b0-b1| small", "either", "0.000"),
]

COLUMNS = ("regime", "subcase", "predicted", "argmin")


@functools.cache
def _table_sweep():
    """Criterion 1's sweep: rows, curves and single-threaded runtime."""
    cfg = SweepConfig(
        c=0.3, kappa=2.0,
        solver=SolverConfig(tol=1e-10, n_a=81),
    )
    pairs = [(b0, b1) for b0, b1, *_ in REFERENCE_TABLE]
    start = time.monotonic()
    rows, curves = run_sweep(cfg, pairs=pairs, workers=1)
    return rows, curves, time.monotonic() - start


def test_criterion_1_reference_table_reproduction():
    rows, _, elapsed = _table_sweep()

    failures: list[str] = []
    if elapsed >= 60.0:
        failures.append(f"single-threaded runtime {elapsed:.1f}s >= 60s")

    for (b0, b1, *expected), row in zip(REFERENCE_TABLE, rows):
        tag = f"({b0:.2f},{b1:.2f})"
        argmin = None if row.argmin_a is None else format(row.argmin_a, ".3f")
        got = (row.regime, row.subcase, row.predicted, argmin)
        for column, have, want in zip(COLUMNS, got, expected):
            if have != want:
                failures.append(f"{tag} {column} {have!r} != {want!r}")
        if row.comparison is not None and row.comparison is not True:
            failures.append(f"{tag} comparison {row.comparison!r} != True")

    bad_rows = {f.split(" ", 1)[0] for f in failures if f.startswith("(")}
    _record(
        1, not failures,
        f"{len(bad_rows)} of 20 rows deviate" if failures else f"runtime {elapsed:.1f}s",
    )
    assert not failures, (
        "reference table not reproduced by the computed spectrum:\n  "
        + "\n  ".join(failures)
    )


# The evidence for each cell where REFERENCE_TABLE departs from
# PUBLISHED_TABLE.  Eigenvalues come from the finite-element oracle; each
# decisive inequality must clear the oracle's error bar MARGIN times over.
C, KAPPA = 0.3, 2.0
CAP = math.pi ** 2 / (4.0 * C * C * KAPPA)
A_GRID = [(1.0 - C) * j / 80 for j in range(81)]  # criterion 1's placements
MARGIN = 100.0


def _departures(i: int) -> set[str]:
    published, corrected = PUBLISHED_TABLE[i][2:], REFERENCE_TABLE[i][2:]
    return {col for col, x, y in zip(COLUMNS, published, corrected) if x != y}


DEPARTING_ROWS = [i for i in range(len(REFERENCE_TABLE)) if _departures(i)]


@functools.cache
def _oracle(b0: float, b1: float, a: float) -> FemEstimate:
    """The oracle's eigenvalue at one placement, held against the solver: it
    must agree to 1e-5 relative where the solver accepts, and the solver must
    refuse where the oracle puts lambda1 above the cap."""
    est = fem_principal(a, C, KAPPA, b0, b1)
    p = Params(C, KAPPA, b0, b1)
    if est.lam > CAP:
        with pytest.raises(SolverError):
            principal_eigenvalue(a, p, SolverConfig())
    else:
        lam = principal_eigenvalue(a, p, SolverConfig()).lam
        assert abs(lam - est.lam) <= 1e-5 * est.lam, (
            f"({b0}, {b1}) a={a}: solver {lam:.9g}, oracle {est.lam:.9g}"
        )
    return est


def _clears(what: str, est: FemEstimate, q) -> None:
    """Assert q(lambda1) > 0, by at least MARGIN times its error bar."""
    value, err = est.bound(q)
    assert value > 0.0 and value >= MARGIN * err, (
        f"{what}: {value:.6g} against error bar {err:.2g}"
    )


def _threshold(b0: float, b1: float, lam: float) -> float:
    sq = math.sqrt(lam)
    return abs(b0 * b1 - lam) * math.tanh(sq * (1.0 - C)) / sq


def _prove_refusal(b0: float, b1: float) -> None:
    # one refused placement aborts the curve; lambda1 is largest at the grid
    # end beside the larger Robin parameter
    a, a_far = (A_GRID[0], A_GRID[-1]) if b0 > b1 else (A_GRID[-1], A_GRID[0])
    est = _oracle(b0, b1, a)
    _clears(f"lambda1 - cap at a={a}", est, lambda lam: lam - CAP)
    _clears(f"lambda1 - b0*b1 at a={a}", est, lambda lam: lam - b0 * b1)
    _oracle(b0, b1, a_far)  # the solver accepts there: the oracle must agree


def _prove_regime(b0: float, b1: float, regime: str) -> None:
    prod = b0 * b1
    if regime == "mixed":
        # lambda crosses b0*b1 between the grid ends, refuting b0b1>lambda
        lo, hi = sorted((_oracle(b0, b1, a) for a in (A_GRID[0], A_GRID[-1])),
                        key=lambda est: est.lam)
        _clears("lambda - b0*b1 at the higher end", hi, lambda lam: lam - prod)
        _clears("b0*b1 - lambda at the lower end", lo, lambda lam: prod - lam)
    elif regime == "b0b1<lambda":
        for a in A_GRID:
            _clears(f"lambda - b0*b1 at a={a:.5f}", _oracle(b0, b1, a),
                    lambda lam: lam - prod)
    else:
        pytest.fail(f"no evidence for regime {regime!r}")


def _prove_subcase(b0: float, b1: float, subcase: str) -> None:
    d = abs(b0 - b1)
    if subcase == "|b0-b1| small":
        # |b0-b1| <= T everywhere, so b0<<b1 or b0>>b1 fails everywhere
        for a in A_GRID:
            _clears(f"T - |b0-b1| at a={a:.5f}", _oracle(b0, b1, a),
                    lambda lam: _threshold(b0, b1, lam) - d)
    elif subcase == "unclassified":
        # T straddles |b0-b1|: below it where lambda is least, at the grid
        # end beside the smaller Robin parameter, and above it mid-grid
        a_low = A_GRID[0] if b0 < b1 else A_GRID[-1]
        _clears(f"|b0-b1| - T at a={a_low}", _oracle(b0, b1, a_low),
                lambda lam: d - _threshold(b0, b1, lam))
        _clears(f"T - |b0-b1| at a={A_GRID[40]}", _oracle(b0, b1, A_GRID[40]),
                lambda lam: _threshold(b0, b1, lam) - d)
    else:
        pytest.fail(f"no evidence for subcase {subcase!r}")


def _location_rule(regime: str, subcase: str) -> str | None:
    """Where the classifier's rules predict the minimiser."""
    if subcase == "|b0-b1| small":
        return "interior" if regime == "b0b1>lambda" else "either"
    return {"b0<<b1": "left", "b0>>b1": "right", "unclassified": None}[subcase]


def _prove_argmin(i: int) -> None:
    # the reflection maps the minimisers S of a pair onto 1-c-S for its
    # mirror, so min S + (1-c - max S) <= 1-c; a symmetric pair is its own
    # mirror (in thousandths: the table prints three decimals)
    b0, b1 = REFERENCE_TABLE[i][:2]
    j = next(k for k, row in enumerate(REFERENCE_TABLE) if row[:2] == (b1, b0))

    def milli_sum(table):
        return sum(round(float(table[k][5]) * 1000) for k in (i, j))

    limit = round((1.0 - C) * 1000)
    assert milli_sum(PUBLISHED_TABLE) > limit
    assert milli_sum(REFERENCE_TABLE) <= limit


@pytest.mark.parametrize(
    "i", DEPARTING_ROWS, ids=lambda i: "{:.2f}-{:.2f}".format(*REFERENCE_TABLE[i][:2])
)
def test_criterion_1_corrections_hold_on_an_independent_spectrum(i):
    """At each decisive placement the published cell's inequality fails and
    the corrected one holds, both by MARGIN times the oracle's error bar."""
    b0, b1, regime, subcase, predicted, argmin = REFERENCE_TABLE[i]
    changed = _departures(i)
    if regime == "error":
        # an error row carries no labels: the refusal accounts for them all
        assert (subcase, predicted, argmin) == (None, None, None)
        _prove_refusal(b0, b1)
        return
    if "regime" in changed:
        _prove_regime(b0, b1, regime)
    if "subcase" in changed:
        if regime == "mixed":
            assert subcase == "unclassified"  # the rules stop at a mixed regime
        else:
            _prove_subcase(b0, b1, subcase)
    if "predicted" in changed:
        assert predicted == _location_rule(regime, subcase)
    if "argmin" in changed:
        _prove_argmin(i)


def test_criterion_1_tables_list_the_same_pairs():
    assert [row[:2] for row in REFERENCE_TABLE] == [row[:2] for row in PUBLISHED_TABLE]


def test_fem_oracle_shares_no_code_with_the_solver():
    tree = ast.parse((Path(__file__).parent / "fem_oracle.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {name for name in imported if name.split(".")[0] == "robineig"}


def _leftmost_root(residual, c: float, kappa: float) -> float | None:
    """Smallest positive root via the solver's own scan+refine+bisect policy."""
    w = spectral_window(c, kappa)
    n = 900
    scan = np.vectorize(residual, otypes=[float])
    bracket = bracket_scan(scan, w, n)
    refines = 0
    while bracket is None and refines < 5:
        n *= 2
        refines += 1
        bracket = bracket_scan(scan, w, n)
    if bracket is None:
        bracket = bracket_scan(
            scan, SpectralWindow(w.lambda_min / 1e3, w.lambda_max), n
        )
    if bracket is None:
        return None
    return bisect(residual, bracket, 1e-10)


@functools.cache
def _determinant_samples() -> list[tuple[float, Params, float | None]]:
    """Criterion 2's random placements and their shooting eigenvalues."""
    rng = np.random.default_rng(411)
    cfg = SolverConfig()
    samples = []
    for _ in range(100):
        a = rng.uniform(0.0, 0.7)
        b0, b1 = rng.uniform(0.2, 8.0, size=2)
        p = Params(0.3, 2.0, b0, b1)
        samples.append((a, p, _solve_or_none(a, p, cfg)))
    return samples


def test_criterion_2_shooting_determinant_equivalence():
    bad: list[str] = []
    for a, p, lam_shoot in _determinant_samples():
        b0, b1 = p.beta0, p.beta1
        lam_det = _leftmost_root(lambda lam: char_f(a, p, lam), 0.3, 2.0)
        if (lam_shoot is None) != (lam_det is None):
            bad.append(f"a={a:.4f} betas=({b0:.3f},{b1:.3f}) one oracle found no root")
        elif lam_shoot is not None and abs(lam_shoot - lam_det) > 1e-8:
            bad.append(
                f"a={a:.4f} betas=({b0:.3f},{b1:.3f}) "
                f"|{lam_shoot:.12g} - {lam_det:.12g}| > 1e-8"
            )
    _record(2, not bad, f"{len(bad)} disagreements" if bad else "100 samples agree")
    assert not bad, "\n".join(bad)


def test_criterion_3_propagator_exactness():
    rng = np.random.default_rng(412)
    worst_det = worst_semi = 0.0
    for _ in range(1000):
        m = -1.0 if rng.random() < 0.5 else 2.0
        total = rng.uniform(0.0, 1.0)
        s = rng.uniform(0.0, total)
        lam = rng.uniform(1e-4, 13.7)
        whole = piece_block(m, total, lam)
        worst_det = max(worst_det, abs(det(whole) - 1.0))
        split = piece_block(m, s, lam) @ piece_block(m, total - s, lam)
        worst_semi = max(worst_semi, float(np.max(np.abs(whole - split))))
    worst_ode = 0.0
    for _ in range(100):
        m = -1.0 if rng.random() < 0.5 else rng.uniform(0.5, 4.0)
        s = rng.uniform(0.0, 1.0)
        lam = rng.uniform(0.1, 13.7)
        diff = np.abs(piece_block(m, s, lam) - ode_propagator(m, s, lam))
        worst_ode = max(worst_ode, float(np.max(diff)))
    ok = worst_det < 1e-12 and worst_semi < 1e-12 and worst_ode < 1e-9
    _record(3, ok, f"det {worst_det:.2e}, semigroup {worst_semi:.2e}, ode {worst_ode:.2e}")
    assert worst_det < 1e-12
    assert worst_semi < 1e-12
    assert worst_ode < 1e-9


@functools.cache
def _reflection_samples():
    """Criterion 4's placements and their mirrors, drawn until 50 are
    accepted: (a, params, lambda, mirrored params, mirrored lambda), with
    None for a refused solve."""
    rng = np.random.default_rng(413)
    cfg = SolverConfig()
    samples = []
    accepted = 0
    while accepted < 50:
        a = rng.uniform(0.0, 0.7)
        b0, b1 = rng.uniform(0.2, 8.0, size=2)
        p = Params(0.3, 2.0, b0, b1)
        q = Params(0.3, 2.0, b1, b0)
        lam1 = _solve_or_none(a, p, cfg)
        samples.append((a, p, lam1, q, _solve_or_none(1.0 - 0.3 - a, q, cfg)))
        accepted += lam1 is not None
    return samples


@functools.cache
def _relabel_sweep():
    """Criterion 4's small grid sweep, for relabelling under swapped axes."""
    cfg = SweepConfig(
        beta_min=0.2, beta_max=2.0, n_beta=3,
        solver=SolverConfig(n_a=21),
    )
    return run_sweep(cfg)


def test_criterion_4_reflection_symmetry():
    worst = 0.0
    for a, p, lam1, _, lam2 in _reflection_samples():
        # a refused solve must be refused identically on the mirror side
        assert (lam1 is None) == (lam2 is None), f"a={a} {p}: {lam1} vs mirror {lam2}"
        if lam1 is not None:
            worst = max(worst, abs(lam1 - lam2))

    # sweep-level relabelling equality under swapping the Robin axes
    rows, _ = _relabel_sweep()
    by_pair = {(r.beta0, r.beta1): r for r in rows}
    mirror_sub = {"b0>>b1": "b0<<b1", "b0<<b1": "b0>>b1",
                  "|b0-b1| small": "|b0-b1| small",
                  "unclassified": "unclassified", None: None}
    mirror_loc = {"left": "right", "right": "left",
                  "interior": "interior", "either": "either", None: None}
    relabel_ok = True
    for row in rows:
        sw = by_pair[(row.beta1, row.beta0)]
        relabel_ok &= sw.regime == row.regime
        relabel_ok &= sw.subcase == mirror_sub[row.subcase]
        relabel_ok &= sw.predicted == mirror_loc[row.predicted]
        if row.lambda_min is not None:
            relabel_ok &= abs(sw.lambda_min - row.lambda_min) < 1e-8
            if row.beta0 != row.beta1:
                relabel_ok &= abs(sw.argmin_a + row.argmin_a - 0.7) < 0.7 / 20 + 1e-9

    ok = worst <= 1e-8 and relabel_ok
    _record(4, ok, f"worst reflection gap {worst:.2e}, relabelling {'ok' if relabel_ok else 'BROKEN'}")
    assert worst <= 1e-8
    assert relabel_ok


@functools.cache
def _monotonicity_grid() -> tuple[list[Params], np.ndarray]:
    """Criterion 5's 6x6 Robin grid at a=0.35 and its eigenvalues."""
    cfg = SolverConfig()
    betas = np.linspace(0.2, 8.0, 6)
    params = [Params(0.3, 2.0, float(b0), float(b1)) for b0 in betas for b1 in betas]
    lam = np.array([principal_eigenvalue(0.35, p, cfg).lam for p in params])
    return params, lam.reshape(6, 6)


def test_criterion_5_monotonicity_in_robin_parameters():
    _, lam = _monotonicity_grid()
    slack0 = float(np.min(np.diff(lam, axis=0)))
    slack1 = float(np.min(np.diff(lam, axis=1)))
    ok = slack0 >= -1e-8 and slack1 >= -1e-8
    _record(5, ok, f"min increments {slack0:.2e} (beta0), {slack1:.2e} (beta1)")
    assert slack0 >= -1e-8
    assert slack1 >= -1e-8


def test_criterion_6_limit_consistency():
    cfg = SolverConfig()
    gaps = []

    # vanishing Robin parameters against the flux-free limit equation
    p_small = Params(0.2, 2.0, 1e-6, 1e-6)
    for a in (0.0, 0.4):
        lam = principal_eigenvalue(a, p_small, cfg).lam
        gap = abs(lam - limit_root("neumann", a, 0.2, 2.0))
        gaps.append(f"flux-free a={a}: {gap:.2e}")
        assert gap <= 1e-5, gaps[-1]

    # very large Robin parameters against the clamped-boundary limit equation
    p_big = Params(0.3, 2.0, 1e6, 1e6)
    lam = principal_eigenvalue(0.35, p_big, cfg).lam
    gap = abs(lam - limit_root("dirichlet", 0.35, 0.3, 2.0))
    gaps.append(f"clamped a=0.35: {gap:.2e}")
    assert gap <= 1e-4, gaps[-1]

    # general flux-free equation reduces to its flush-left form at a=0
    gap = abs(limit_root("neumann", 0.0, 0.3, 2.0) - limit_root("lou_neumann", 0.0, 0.3, 2.0))
    gaps.append(f"a=0 reduction: {gap:.2e}")
    _record(6, True, "; ".join(gaps))
    assert gap <= 1e-10


def _accepted_eigenpairs() -> list[tuple[float, Params, float]]:
    """Every (a, params, lambda) that the inputs of criteria 1-5 accept."""
    pairs = []
    table_rows, table_curves, _ = _table_sweep()
    for rows, curves in ((table_rows, table_curves), _relabel_sweep()):
        for row, curve in zip(rows, curves):
            if curve is not None:
                p = Params(row.c, row.kappa, row.beta0, row.beta1)
                pairs += [(a, p, lam) for a, lam in curve]
    pairs += [(a, p, lam) for a, p, lam in _determinant_samples() if lam is not None]
    for a, p, lam1, q, lam2 in _reflection_samples():
        if lam1 is not None and lam2 is not None:
            pairs += [(a, p, lam1), (1.0 - 0.3 - a, q, lam2)]
    params, lam = _monotonicity_grid()
    pairs += [(0.35, p, float(x)) for p, x in zip(params, lam.ravel())]
    return pairs


def test_criterion_7_eigenpair_quality():
    accepted = _accepted_eigenpairs()
    worst_closure = worst_rayleigh = 0.0
    positive_failures = 0
    for a, p, lam in accepted:
        u1, du1 = propagate(1.0, p.beta0, lam, p.kappa, a, p.c, 1.0 - a - p.c)
        closure = abs(du1 + p.beta1 * u1) / (1.0 + abs(u1))
        worst_closure = max(worst_closure, closure)
        if not eigenfunction_positive(a, p, lam):
            positive_failures += 1
        res = EigenResult(lam, Bracket(lam, lam, 0.0, 0.0), 0, 0.0, True)
        worst_rayleigh = max(worst_rayleigh, rayleigh_check(a, p, res))
    ok = worst_closure <= 1e-7 and positive_failures == 0 and worst_rayleigh <= 1e-6
    _record(
        7, ok,
        f"{len(accepted)} eigenpairs; closure {worst_closure:.2e}, "
        f"rayleigh {worst_rayleigh:.2e}, positivity failures {positive_failures}",
    )
    assert worst_closure <= 1e-7
    assert positive_failures == 0
    assert worst_rayleigh <= 1e-6


def test_criterion_8_hypothesis_report():
    p = Params(0.3, 2.0, 4.0, 4.0)
    w = spectral_window(p.c, p.kappa)
    rep = hypothesis_bounds(p, (w.lambda_min, w.lambda_max))
    hyp_ok = (
        rep.c_star == pytest.approx(0.3866, abs=1e-3)
        and rep.c_ok is False
        and rep.beta0_star_bound is None
        and rep.beta0_ok is False
    )
    # the classification still verifies despite the uncertified hypotheses
    curve = lambda_curve(p, SolverConfig(n_a=21))
    label, pred = classify_pair(p, curve)
    _, _, j = numeric_argmin(curve)
    classified_ok = (
        label.regime == "b0b1>lambda"
        and pred.location == "interior"
        and 0 < j < 20
    )
    _record(8, hyp_ok and classified_ok,
            f"c*={rep.c_star:.4f}, c_ok={rep.c_ok}, bound inapplicable, "
            f"classification {'verifies' if classified_ok else 'BROKEN'}")
    assert hyp_ok
    assert classified_ok


def test_criterion_9_determinism(tmp_path):
    cfg = SweepConfig(
        beta_min=0.2, beta_max=1.0, n_beta=2,
        solver=SolverConfig(n_a=9),
    )
    outputs = []
    for run in ("one", "two"):
        d = tmp_path / run
        d.mkdir()
        rows, curves = run_sweep(cfg)
        write_csv(rows, d / "sweep.csv")
        emit_figures(rows, curves, d / "figs")
        data = {"sweep.csv": (d / "sweep.csv").read_bytes()}
        for f in sorted((d / "figs").glob("*.dat")):
            data[f.name] = f.read_bytes()
        outputs.append(data)
    same = outputs[0] == outputs[1]
    _record(9, same, f"{len(outputs[0])} files byte-compared")
    assert len(outputs[0]) > 1, "expected at least one figure data file"
    assert same
