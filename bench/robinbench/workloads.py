"""The three workloads: seeded inputs, one timed operation, and its check.

Every workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Operations come in cycles with a fixed mix
(4 in-window solves and 1 refusal; 1 placement a = 0 and 3 general ones; one
whole sweep), and a run stops only between cycles, so the mix that sets the
cost is the same in every run and every seed.

An operation fails if it raises anything other than the documented
out-of-window ``SolverError`` or if its output disagrees with
``reference``.  A refusal the reference agrees with is a success.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from . import reference

# Rayleigh-quotient defect accepted as a certificate; observed values are
# about 1e-10, set by the solver's bisection tolerance.
_RAYLEIGH_TOL = 1e-8


def load_robineig(src: Path) -> SimpleNamespace:
    """robineig's modules, imported from the source tree ``src``."""
    if not (src / "robineig" / "__init__.py").is_file():
        raise SystemExit(f"robineig sources not found under {src}")
    sys.path.insert(0, str(src))
    import robineig

    if Path(robineig.__file__).resolve().parent != src.resolve() / "robineig":
        raise SystemExit(f"imported robineig from {robineig.__file__}, not from {src}")
    # import_module, because the package re-exports a function named propagator
    return SimpleNamespace(**{name: importlib.import_module(f"robineig.{name}") for name in (
        "cli", "model", "harness", "classifier", "eigensolver", "characteristic", "propagator")})


def _log_uniform(rng, lo, hi, n):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), n))


def _rel_close(x, ref) -> bool:
    if x is None or ref is None:
        return x is None and ref is None
    return abs(x - ref) <= 1e-10 * max(1.0, abs(ref))


@dataclass
class Loop:
    """What a closed loop measured and what the check found."""

    latencies: list[float] = field(default_factory=list)
    units: int = 0  # outputs produced: solves, limits ops, or sweep rows
    attempted: int = 0
    failed: int = 0

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


def closed_loop(wl, seconds: float | None = None, count: int | None = None,
                tracer=None) -> Loop:
    """Run ``wl`` operations back to back.  Stop after ``count`` operations,
    or before the first cycle that would take the measured time past
    ``seconds`` (at least one cycle always runs).  Checks run between
    operations, outside the measured time."""
    res = Loop()
    i = 0
    while True:
        if i % wl.cycle == 0:
            if count is not None:
                if i >= count:
                    break
            elif i and res.busy_s * (1.0 + wl.cycle / i) > seconds:
                break
        if tracer is not None:
            tracer.op = f"{wl.name}:{i}"
        start = perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # any unexpected exception is a failed operation
            out = exc
        res.latencies.append(perf_counter() - start)
        if isinstance(out, Exception) and not wl.is_refusal(out):
            traceback.print_exception(out)
        units, attempted, failed = wl.check(i, out)
        res.units += units
        res.attempted += attempted
        res.failed += failed
        i += 1
    return res


class Solve:
    """One certified single-placement solve per operation, as ``robineig
    solve`` does it: ``principal_eigenvalue`` then ``rayleigh_check``."""

    name = "solve"
    cycle = 5
    probe_ops = 20
    BOX = {"c": [0.15, 0.6], "kappa": [0.5, 4.0], "beta0": [0.05, 10.0],
           "beta1": [0.05, 10.0], "a": "uniform on [0, 1-c]",
           "log_uniform": ["kappa", "beta0", "beta1"]}

    def __init__(self, rb, seed: int, candidates: int = 4000):
        self.rb = rb
        self.cfg = rb.model.SolverConfig()
        rng = np.random.default_rng([seed, 1])
        c = rng.uniform(0.15, 0.6, candidates)
        kappa = _log_uniform(rng, 0.5, 4.0, candidates)
        b0 = _log_uniform(rng, 0.05, 10.0, candidates)
        b1 = _log_uniform(rng, 0.05, 10.0, candidates)
        a = rng.uniform(0.0, 1.0, candidates) * (1.0 - c)
        ref = reference.principal(a, c, kappa, b0, b1)
        inside = np.flatnonzero(np.isfinite(ref))
        outside = np.flatnonzero(np.isnan(ref))
        n_cycles = min(len(inside) // 4, len(outside))
        order = []
        for k in range(n_cycles):
            order.extend(inside[4 * k:4 * k + 4])
            order.append(outside[k])
        self.stream = [(float(c[j]), float(kappa[j]), float(b0[j]), float(b1[j]),
                        float(a[j]), float(ref[j])) for j in order]
        self.properties = {
            "box": self.BOX,
            "candidates_drawn": candidates,
            "candidate_refusal_share": len(outside) / candidates,
            "refusal_share": 1 / self.cycle,
            "distinct_instances": len(self.stream),
        }

    def is_refusal(self, exc) -> bool:
        return isinstance(exc, self.rb.eigensolver.SolverError)

    def warmup(self) -> None:
        self.op(0)

    def op(self, i):
        rb = self.rb
        c, kappa, b0, b1, a, _ = self.stream[i % len(self.stream)]
        try:
            p = rb.model.validate_params(rb.model.Params(c, kappa, b0, b1))
            res = rb.eigensolver.principal_eigenvalue(a, p, self.cfg)
            return res, rb.eigensolver.rayleigh_check(a, p, res)
        except rb.eigensolver.SolverError as exc:
            return exc

    def check(self, i, out) -> tuple[int, int, int]:
        ref = self.stream[i % len(self.stream)][-1]
        if isinstance(out, Exception):
            ok = self.is_refusal(out) and math.isnan(ref)
            return int(self.is_refusal(out)), 1, int(not ok)
        res, rq = out
        ok = (not math.isnan(ref) and reference.eig_close(res.lam, ref)
              and res.positive_ok and rq <= _RAYLEIGH_TOL)
        return 1, 1, int(not ok)


class Limits:
    """``verify-limits`` plus ``check-hypotheses`` work per operation: the
    Neumann and Dirichlet limit roots (and their a = 0 reductions when
    a = 0), then the hypothesis report."""

    name = "limits"
    cycle = 4
    probe_ops = 20
    BOX = {"c": [0.15, 0.3], "kappa": [1.0, 2.0], "beta0": [0.05, 10.0],
           "a": "0 on every 4th op, else uniform on [0, 1-c]",
           "log_uniform": ["kappa", "beta0"]}

    def __init__(self, rb, seed: int, n: int = 2000):
        self.rb = rb
        rng = np.random.default_rng([seed, 2])
        c = rng.uniform(0.15, 0.3, n)
        kappa = _log_uniform(rng, 1.0, 2.0, n)
        b0 = _log_uniform(rng, 0.05, 10.0, n)
        a = rng.uniform(0.0, 1.0, n) * (1.0 - c)
        a[::self.cycle] = 0.0
        neu, dirich = reference.limit_roots(a, c, kappa)
        self.items = [tuple(float(v[j]) for v in (c, kappa, b0, a, neu, dirich))
                      for j in range(n)]
        self.properties = {"box": self.BOX, "distinct_instances": n,
                           "a0_share": 1 / self.cycle}

    def is_refusal(self, exc) -> bool:
        return False

    def warmup(self) -> None:
        self.op(1)

    def op(self, i):
        rb = self.rb
        c, kappa, b0, a = self.items[i % len(self.items)][:4]
        root = rb.characteristic.limit_root
        roots = [root("neumann", a, c, kappa), root("dirichlet", a, c, kappa)]
        if a == 0.0:
            roots += [root("lou_neumann", 0.0, c, kappa), root("lou_dirichlet", 0.0, c, kappa)]
        p = rb.model.validate_params(rb.model.Params(c, kappa, b0, 0.0))
        w = rb.eigensolver.spectral_window(c, kappa)
        return roots, rb.characteristic.hypothesis_bounds(p, (w.lambda_min, w.lambda_max))

    def check(self, i, out) -> tuple[int, int, int]:
        if isinstance(out, Exception):
            return 0, 1, 1
        c, kappa, b0, a, neu, dirich = self.items[i % len(self.items)]
        roots, rep = out
        want = [neu, dirich] + ([neu, dirich] if a == 0.0 else [])
        c_star, bound, c_ok, beta0_ok, h_max = reference.hypothesis(c, kappa, b0)
        ok = (len(roots) == len(want)
              and all(reference.eig_close(r, w) for r, w in zip(roots, want))
              and _rel_close(rep.c_star, c_star) and _rel_close(rep.beta0_star_bound, bound)
              and rep.c_ok == c_ok and rep.beta0_ok == beta0_ok
              and _rel_close(rep.h_max, h_max))
        return 1, 1, int(not ok)


class Sweep:
    """The path ``robineig sweep`` runs: config, ``run_sweep`` (serial, the
    CLI default), ``write_csv``, ``emit_figures``.  One operation is one
    whole sweep over jittered pairs of the default 10x10 Robin grid, fed in
    through the explicit-pairs protocol."""

    name = "sweep"
    cycle = 1
    probe_ops = 1
    probe_pairs = 10
    BETA_MIN, BETA_MAX, N_BETA, C, KAPPA, N_A = 0.2, 8.0, 10, 0.3, 2.0, 81
    PHASES = ("config", "run_sweep", "write_csv", "emit_figures")

    def __init__(self, rb, seed: int, workdir: Path, n_pairs: int | None = None):
        self.rb = rb
        self.workers = 1
        step = (self.BETA_MAX - self.BETA_MIN) / (self.N_BETA - 1)
        grid = self.BETA_MIN + step * np.arange(self.N_BETA)
        # under half a grid step, and small enough near 0 to keep beta >= 0.05
        reach = np.minimum(0.45 * step, 0.75 * grid)
        rng = np.random.default_rng([seed, 3])
        b0 = np.repeat(grid, self.N_BETA) + rng.uniform(-1, 1, grid.size ** 2) * np.repeat(reach, self.N_BETA)
        b1 = np.tile(grid, self.N_BETA) + rng.uniform(-1, 1, grid.size ** 2) * np.tile(reach, self.N_BETA)
        self.pairs = [(float(x), float(y)) for x, y in zip(b0, b1)][:n_pairs]

        a = (1.0 - self.C) * np.arange(self.N_A) / (self.N_A - 1)
        lanes = len(self.pairs) * self.N_A
        lams = reference.principal(np.tile(a, len(self.pairs)), np.full(lanes, self.C),
                                   np.full(lanes, self.KAPPA),
                                   np.repeat([p[0] for p in self.pairs], self.N_A),
                                   np.repeat([p[1] for p in self.pairs], self.N_A))
        self.ref_curves = lams.reshape(len(self.pairs), self.N_A)
        self.ref_rows = [
            ("error", "", "", "", "", "") if np.isnan(lam).any()
            else reference.classify(b0_, b1_, self.C, lam)
            for (b0_, b1_), lam in zip(self.pairs, self.ref_curves)
        ]
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "sweep.cfg"
        self.config_path.write_text(
            f"beta_min = {self.BETA_MIN}\nbeta_max = {self.BETA_MAX}\nn_beta = {self.N_BETA}\n"
            f"c = {self.C}\nkappa = {self.KAPPA}\nn_a = {self.N_A}\n")
        self.phase_s = {k: [] for k in self.PHASES}
        self.bytes_written = 0
        errors = sum(r[0] == "error" for r in self.ref_rows)
        self.properties = {
            "pairs": len(self.pairs), "n_a": self.N_A,
            "error_pair_share": errors / len(self.pairs),
            "box": {"beta_grid": [self.BETA_MIN, self.BETA_MAX, self.N_BETA],
                    "jitter": "uniform, under half a grid step, beta >= 0.05",
                    "c": self.C, "kappa": self.KAPPA},
        }

    def is_refusal(self, exc) -> bool:
        return False

    def warmup(self) -> None:
        self.rb.harness.run_sweep(self._config(), pairs=self.pairs[:1])

    def _config(self):
        return self.rb.model.load_sweep_config(self.config_path, {
            "out_csv": str(self.workdir / "sweep.csv"),
            "fig_dir": str(self.workdir / "figures")})

    def op(self, i):
        harness = self.rb.harness
        t0 = perf_counter()
        cfg = self._config()
        t1 = perf_counter()
        rows, curves = harness.run_sweep(cfg, pairs=self.pairs, workers=self.workers)
        t2 = perf_counter()
        harness.write_csv(rows, cfg.out_csv)
        t3 = perf_counter()
        figures = harness.emit_figures(rows, curves, cfg.fig_dir)
        t4 = perf_counter()
        for k, dt in zip(self.PHASES, (t1 - t0, t2 - t1, t3 - t2, t4 - t3)):
            self.phase_s[k].append(dt)
        return Path(cfg.out_csv), curves, figures

    def check(self, i, out) -> tuple[int, int, int]:
        n = len(self.pairs)
        if isinstance(out, Exception):
            return 0, n, n
        csv_path, curves, figures = out
        lines = csv_path.read_text().splitlines()[1:]
        self.bytes_written = csv_path.stat().st_size + sum(os.path.getsize(f) for f in figures)
        failed = max(0, n - len(lines))
        for (b0, b1), line, curve, ref_row, ref_curve in zip(
                self.pairs, lines, curves, self.ref_rows, self.ref_curves):
            cols = line.split(",")
            ok = (len(cols) == 13 and cols[2] == f"{b0:.2f}" and cols[3] == f"{b1:.2f}"
                  and tuple(cols[4:10]) == ref_row)
            if ref_row[0] == "error":
                ok = ok and curve is None
            else:
                ok = ok and curve is not None and len(curve) == self.N_A and all(
                    reference.eig_close(lam, r) for (_, lam), r in zip(curve, ref_curve))
            failed += not ok
        return len(lines), n, failed
