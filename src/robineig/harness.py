"""Batch verification driver: Robin-grid sweep, CSV and figure emission.

One row is produced per (beta0, beta1) pair, in grid order, whatever the
worker count; figure emission picks the first classified pair per
(regime, location) cell and writes a plain-text data file next to a
standalone SVG line plot.
"""

from __future__ import annotations

import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

from . import classifier
from .characteristic import hypothesis_bounds
from .classifier import CaseLabel, Prediction, classify_pair, compare_prediction, numeric_argmin
from .eigensolver import SolverError, SpectralWindow, lambda_curve, spectral_window
from .model import Params, SweepConfig, validate_sweep_config

log = logging.getLogger(__name__)

Curve = list[tuple[float, float]]


@dataclass(frozen=True)
class SweepRow:
    """One CSV row, a column per field, each formatted by its ``fmt`` spec."""

    c: float = field(metadata={"fmt": ".3f"})
    kappa: float = field(metadata={"fmt": ".3f"})
    beta0: float = field(metadata={"fmt": ".2f"})
    beta1: float = field(metadata={"fmt": ".2f"})
    regime: str
    subcase: str | None = None
    predicted: str | None = None
    numeric: str | None = None
    comparison: bool | None = None
    argmin_a: float | None = field(default=None, metadata={"fmt": ".3f"})
    lambda_min: float | None = field(default=None, metadata={"fmt": ".6g"})
    hypothesis_ok: bool | None = None
    a_star_diag: float | None = field(default=None, metadata={"fmt": ".6g"})


_COLUMNS = [(f.name, f.metadata.get("fmt", "")) for f in fields(SweepRow)]
CSV_HEADER = ",".join(name for name, _ in _COLUMNS)


def beta_grid(cfg: SweepConfig) -> list[float]:
    return [
        cfg.beta_min + i * (cfg.beta_max - cfg.beta_min) / (cfg.n_beta - 1)
        for i in range(cfg.n_beta)
    ]


def grid_pairs(cfg: SweepConfig) -> list[tuple[float, float]]:
    grid = beta_grid(cfg)
    return [(b0, b1) for b0 in grid for b1 in grid]


def _compute_pair(args: tuple[float, float, SweepConfig, SpectralWindow]
                  ) -> tuple[SweepRow, Curve | None]:
    beta0, beta1, cfg, w = args
    p = Params(cfg.c, cfg.kappa, beta0, beta1)
    try:
        curve = lambda_curve(p, cfg.solver)
    except (SolverError, ValueError) as exc:
        log.warning("pair (%.4g, %.4g) failed: %s", beta0, beta1, exc)
        return SweepRow(cfg.c, cfg.kappa, beta0, beta1, "error"), None

    label, pred = classify_pair(p, curve)
    a_min, lam_min, j = numeric_argmin(curve)
    match, numeric = compare_prediction(pred, j, cfg.solver.n_a)
    hyp = hypothesis_bounds(p, (w.lambda_min, w.lambda_max))
    row = SweepRow(
        cfg.c, cfg.kappa, beta0, beta1,
        label.regime, label.subcase, pred.location, numeric, match,
        a_min, lam_min, hyp.c_ok and hyp.beta0_ok, pred.a_star_value,
    )
    return row, curve


def run_sweep(
    cfg: SweepConfig,
    pairs: list[tuple[float, float]] | None = None,
    workers: int = 1,
) -> tuple[list[SweepRow], list[Curve | None]]:
    """Compute every pair's curve, classification and comparison.

    ``pairs`` overrides the rectangular beta grid (used to reproduce a fixed
    list of published pairs).  Results are gathered in pair order regardless
    of ``workers``.  The spectral window is computed once, before any pair,
    so a base instance without one raises ValueError and writes no row.  A
    pool starts at most one process per pair, and none for a single pair.
    """
    validate_sweep_config(cfg)
    w = spectral_window(cfg.c, cfg.kappa)
    if pairs is None:
        pairs = grid_pairs(cfg)
    tasks = [(b0, b1, cfg, w) for b0, b1 in pairs]
    workers = min(workers, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_compute_pair, tasks, chunksize=1))
    else:
        results = [_compute_pair(t) for t in tasks]
    return [r for r, _ in results], [c for _, c in results]


def _cell(v, spec: str) -> str:
    if v is None:
        return ""
    return str(v).lower() if isinstance(v, bool) else format(v, spec)


def format_row(row: SweepRow) -> str:
    return ",".join([_cell(getattr(row, name), spec) for name, spec in _COLUMNS])


def write_csv(rows: list[SweepRow], path: str | Path) -> None:
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(CSV_HEADER + "\n")
            for row in rows:
                fh.write(format_row(row) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV {path}: {exc}") from exc


# -- figures -----------------------------------------------------------------

_CELLS = [
    (classifier.REGIME_GT, classifier.LOC_LEFT, "gt_left"),
    (classifier.REGIME_GT, classifier.LOC_INTERIOR, "gt_interior"),
    (classifier.REGIME_GT, classifier.LOC_RIGHT, "gt_right"),
    (classifier.REGIME_LT, classifier.LOC_LEFT, "lt_left"),
    (classifier.REGIME_LT, classifier.LOC_EITHER, "lt_either"),
    (classifier.REGIME_LT, classifier.LOC_RIGHT, "lt_right"),
]


def write_curve_data(curve: Curve, path: Path) -> None:
    with open(path, "w", newline="\n") as fh:
        for a, lam in curve:
            fh.write(f"{a!r} {lam!r}\n")


def write_curve_svg(curve: Curve, row: SweepRow, title: str, path: Path) -> None:
    """Minimal standalone line plot: axes, polyline, and a marker at the
    row's argmin (``argmin_a``, ``lambda_min``)."""
    width, height = 640, 480
    ml, mr, mt, mb = 70, 20, 40, 50
    xs = [a for a, _ in curve]
    ys = [lam for _, lam in curve]
    x0, x1 = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    pad = 0.05 * (yhi - ylo) or 1e-9
    ylo, yhi = ylo - pad, yhi + pad

    def px(a: float) -> float:
        return ml + (a - x0) / (x1 - x0) * (width - ml - mr)

    def py(lam: float) -> float:
        return height - mb - (lam - ylo) / (yhi - ylo) * (height - mt - mb)

    pts = " ".join(f"{px(a):.2f},{py(lam):.2f}" for a, lam in curve)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" '
        'stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for i in range(5):
        a = x0 + (x1 - x0) * i / 4
        lam = ylo + (yhi - ylo) * i / 4
        parts.append(
            f'<text x="{px(a):.2f}" y="{height - mb + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{a:.3f}</text>'
        )
        parts.append(
            f'<text x="{ml - 6}" y="{py(lam) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{lam:.4g}</text>'
        )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>'
    )
    parts.append(
        f'<circle cx="{px(row.argmin_a):.2f}" cy="{py(row.lambda_min):.2f}" r="4" fill="#d62728"/>'
    )
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">a</text>'
    )
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def emit_figures(
    rows: list[SweepRow], curves: list[Curve | None], fig_dir: str | Path
) -> list[Path]:
    """One data file and one SVG per populated (regime, location) cell.

    The canonical pair for a cell is the first classified row in sweep
    order; absent cells are skipped with a log line.  Per-file I/O failures
    are logged and do not stop the remaining figures.
    """
    fig_dir = Path(fig_dir)
    fig_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for regime, loc, name in _CELLS:
        found = next(((row, curve) for row, curve in zip(rows, curves)
                      if row.regime == regime and row.predicted == loc), None)
        if found is None:
            log.info("figure cell %s: no classified pair, skipped", name)
            continue
        row, curve = found
        title = (f"{name}: beta0={row.beta0:.2f}, beta1={row.beta1:.2f}, "
                 f"c={row.c:.3f}, kappa={row.kappa:.3f}")
        for path, writer in (
            (fig_dir / f"{name}.dat", lambda pth: write_curve_data(curve, pth)),
            (fig_dir / f"{name}.svg", lambda pth: write_curve_svg(curve, row, title, pth)),
        ):
            try:
                writer(path)
                written.append(path)
            except OSError as exc:
                log.error("figure %s not written: %s", path, exc)
    return written
