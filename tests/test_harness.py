from pathlib import Path

import pytest

import robineig.harness
from robineig.harness import (
    CSV_HEADER,
    SweepRow,
    beta_grid,
    emit_figures,
    format_row,
    grid_pairs,
    run_sweep,
    write_csv,
    write_curve_data,
)
from robineig.model import SolverConfig, SweepConfig

FAST_SOLVER = SolverConfig(n_a=5)


def read_curve_data(path: Path) -> list[tuple[float, float]]:
    """Parse a curve data file written by ``write_curve_data``."""
    curve = []
    for line in Path(path).read_text().splitlines():
        sa, slam = line.split()
        curve.append((float(sa), float(slam)))
    return curve


def fast_cfg(**kwargs) -> SweepConfig:
    kwargs.setdefault("solver", FAST_SOLVER)
    return SweepConfig(**kwargs)


class TestGrid:
    def test_beta_grid_endpoints_and_spacing(self):
        cfg = SweepConfig()
        grid = beta_grid(cfg)
        assert len(grid) == 10
        assert grid[0] == 0.2
        assert grid[-1] == 8.0
        steps = [b - a for a, b in zip(grid, grid[1:])]
        assert all(s == pytest.approx(steps[0], rel=1e-12) for s in steps)

    def test_grid_pairs_row_major(self):
        cfg = fast_cfg(beta_min=1.0, beta_max=2.0, n_beta=2)
        assert grid_pairs(cfg) == [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]


class TestRunSweep:
    def test_degenerate_grid_near_identical_rows(self):
        cfg = fast_cfg(beta_min=0.2, beta_max=0.21, n_beta=2)
        rows, curves = run_sweep(cfg)
        assert len(rows) == 4
        assert [(r.beta0, r.beta1) for r in rows] == grid_pairs(cfg)
        assert len({r.regime for r in rows}) == 1
        assert len({r.subcase for r in rows}) == 1
        assert all(c is not None for c in curves)

    def test_error_row_continues_sweep(self):
        cfg = fast_cfg(solver=SolverConfig(n_a=3))
        rows, curves = run_sweep(cfg, pairs=[(8.0, 0.2), (0.6, 0.6)])
        assert rows[0].regime == "error"
        assert rows[0].comparison is None and rows[0].argmin_a is None
        assert curves[0] is None
        assert rows[1].regime == "b0b1<lambda"
        assert curves[1] is not None

    def test_classified_row_contents(self):
        cfg = fast_cfg()
        rows, curves = run_sweep(cfg, pairs=[(0.6, 0.6)])
        row = rows[0]
        assert row.subcase == "|b0-b1| small"
        assert row.predicted == "either"
        assert row.numeric in ("left", "right")
        assert row.comparison is True
        assert row.argmin_a in (0.0, pytest.approx(0.7, abs=1e-12))
        assert row.lambda_min == min(lam for _, lam in curves[0])
        assert row.hypothesis_ok is False  # defaults sit outside the certified region

    def test_workers_do_not_change_results(self):
        cfg = fast_cfg(beta_min=0.2, beta_max=1.0, n_beta=2)
        rows1, curves1 = run_sweep(cfg, workers=1)
        rows2, curves2 = run_sweep(cfg, workers=2)
        assert rows1 == rows2
        assert curves1 == curves2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(n_beta=1))

    def test_pool_starts_no_more_processes_than_pairs(self, monkeypatch):
        started = []

        class FakeExecutor:
            """Records its size and maps in this process; forks nothing."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(robineig.harness, "ProcessPoolExecutor", FakeExecutor)
        cfg = fast_cfg(solver=SolverConfig(n_a=3))
        rows, _ = run_sweep(cfg, pairs=[(0.6, 0.6), (1.0, 2.0)], workers=8)
        assert started == [2] and len(rows) == 2
        rows, _ = run_sweep(cfg, pairs=[(0.6, 0.6)], workers=8)
        assert started == [2] and len(rows) == 1  # a single pair runs without a pool


class TestCsv:
    def test_format_row_frozen(self):
        row = SweepRow(0.3, 2.0, 8.0, 0.2, "b0b1>lambda", "b0>>b1", "right",
                       "right", True, 0.7000000000000001, 2.345678, False, None)
        assert format_row(row) == (
            "0.300,2.000,8.00,0.20,b0b1>lambda,b0>>b1,right,right,true,"
            "0.700,2.34568,false,"
        )
        error = SweepRow(0.3, 2.0, 8.0, 0.2, "error", None, None, None, None, None, None, None,
                         None)
        assert format_row(error) == "0.300,2.000,8.00,0.20,error,,,,,,,,"
        interior = SweepRow(0.3, 2.0, 11 / 3, 5.4, "b0b1>lambda", "|b0-b1| small", "interior",
                            "interior", True, 0.2625, 8.969312345, False, 0.26283912345)
        assert format_row(interior) == (
            "0.300,2.000,3.67,5.40,b0b1>lambda,|b0-b1| small,interior,interior,true,"
            "0.263,8.96931,false,0.262839"
        )

    def test_unclassified_row_empty_fields(self):
        row = SweepRow(0.3, 2.0, 1.0, 1.0, "b0b1<lambda", "unclassified", None,
                       None, None, 0.0, 3.0, False, None)
        line = format_row(row)
        assert ",unclassified,,,," in line

    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"
        assert CSV_HEADER == ("c,kappa,beta0,beta1,regime,subcase,predicted,numeric,comparison,"
                              "argmin_a,lambda_min,hypothesis_ok,a_star_diag")

    def test_write_and_reread(self, tmp_path):
        cfg = fast_cfg()
        rows, _ = run_sweep(cfg, pairs=[(0.6, 0.6), (8.0, 0.2)])
        path = tmp_path / "out.csv"
        write_csv(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[2].split(",")[4] == "error"

    def test_io_error_reported_with_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write CSV"):
            write_csv([], tmp_path / "missing-dir" / "out.csv")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = fast_cfg(beta_min=0.2, beta_max=1.0, n_beta=2)
        outs = []
        for name in ("a.csv", "b.csv"):
            rows, _ = run_sweep(cfg)
            path = tmp_path / name
            write_csv(rows, path)
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestFigures:
    def _synthetic(self):
        curve_left = [(0.0, 1.0), (0.35, 1.5), (0.7, 2.0)]
        curve_either = [(0.0, 3.0), (0.35, 3.5), (0.7, 3.0)]
        rows = [
            SweepRow(0.3, 2.0, 0.2, 8.0, "b0b1>lambda", "b0<<b1", "left",
                     "left", True, 0.0, 1.0, False, None),
            SweepRow(0.3, 2.0, 0.6, 0.6, "b0b1<lambda", "|b0-b1| small", "either",
                     "left", True, 0.0, 3.0, False, None),
            SweepRow(0.3, 2.0, 1.0, 1.0, "error", None, None, None, None,
                     None, None, None, None),
        ]
        return rows, [curve_left, curve_either, None]

    def test_populated_cells_written(self, tmp_path):
        rows, curves = self._synthetic()
        written = emit_figures(rows, curves, tmp_path / "figs")
        names = sorted(p.name for p in written)
        assert names == ["gt_left.dat", "gt_left.svg", "lt_either.dat", "lt_either.svg"]

    def test_data_round_trip(self, tmp_path):
        rows, curves = self._synthetic()
        emit_figures(rows, curves, tmp_path)
        assert read_curve_data(tmp_path / "gt_left.dat") == curves[0]

    def test_svg_structure(self, tmp_path):
        rows, curves = self._synthetic()
        emit_figures(rows, curves, tmp_path)
        svg = (tmp_path / "lt_either.svg").read_text()
        assert svg.startswith("<svg ")
        assert "<polyline" in svg
        assert "<circle" in svg
        assert "beta0=0.60" in svg

    def test_absent_cells_skipped(self, tmp_path, caplog):
        import logging

        with caplog.at_level(logging.INFO, logger="robineig.harness"):
            written = emit_figures([], [], tmp_path)
        assert written == []
        assert sum("skipped" in r.message for r in caplog.records) == 6

    def test_curve_data_round_trip_exact(self, tmp_path):
        curve = [(0.1234567890123456, 7.000000000000001), (0.7, 13.5)]
        path = tmp_path / "c.dat"
        write_curve_data(curve, path)
        assert read_curve_data(path) == curve
