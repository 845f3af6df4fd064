"""Command-line interface.

Subcommands: solve (one eigenvalue), curve (the a -> lambda table), sweep
(the batch verification with CSV and figures), check-hypotheses (theorem
hypothesis status), verify-limits (Neumann/Dirichlet limit equations).

Exit codes: 0 success, 1 invalid input, 2 solver failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .characteristic import hypothesis_bounds, limit_root
from .eigensolver import (
    SolverError,
    lambda_curve,
    principal_eigenvalue,
    rayleigh_check,
    spectral_window,
)
from .harness import emit_figures, run_sweep, write_csv, write_curve_data
from .model import (CONFIG_KEYS, Params, SolverConfig, check_instance, load_pairs,
                    load_sweep_config, validate_solver_config)

# the sweep flags not named "--" + key with "_" as "-", and their help
_SWEEP_FLAGS = {"out_csv": ("--out", "output CSV path"),
                "fig_dir": ("--figdir", "figure output directory")}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as invalid input (exit 1), where argparse would
    exit 2, the code of a solver failure."""

    def error(self, message):
        raise ValueError(message)


def _add_instance_args(sp: argparse.ArgumentParser, with_betas: bool = True) -> None:
    sp.add_argument("--c", type=float, required=True, help="favourable interval fraction")
    sp.add_argument("--kappa", type=float, required=True, help="positive weight amplitude")
    if with_betas:
        sp.add_argument("--beta0", type=float, required=True, help="Robin parameter at x=0")
        sp.add_argument("--beta1", type=float, required=True, help="Robin parameter at x=1")


def _solver_config(args, **extra) -> SolverConfig:
    kwargs = {"tol": args.tol} if args.tol is not None else {}
    kwargs.update(extra)
    return validate_solver_config(SolverConfig(**kwargs))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="robineig",
        description="Principal eigenvalue of the 1-D indefinite-weight problem "
                    "under inhomogeneous Robin boundary conditions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("solve", help="one eigenvalue at a fixed placement")
    _add_instance_args(sp)
    sp.add_argument("--a", type=float, required=True, help="favourable interval left end")
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("curve", help="eigenvalue curve over the placement grid")
    _add_instance_args(sp)
    sp.add_argument("--n-a", type=int, default=None)
    sp.add_argument("--out", type=str, default=None, help="write data file instead of stdout")
    sp.add_argument("--tol", type=float, default=None)
    sp.set_defaults(func=cmd_curve)

    sp = sub.add_parser("sweep", help="batch verification over a Robin grid")
    sp.add_argument("--config", type=str, default=None, help="flat key=value config file")
    sp.add_argument("--pairs-file", type=str, default=None,
                    help="explicit 'beta0 beta1' pairs, one per line")
    sp.add_argument("--workers", type=int, default=1)
    for key, typ in CONFIG_KEYS.items():
        flag, help_ = _SWEEP_FLAGS.get(key, ("--" + key.replace("_", "-"), None))
        sp.add_argument(flag, dest=key, type=typ, default=None, help=help_)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("check-hypotheses", help="theorem hypothesis status")
    _add_instance_args(sp, with_betas=False)
    sp.add_argument("--beta0", type=float, required=True)
    sp.set_defaults(func=cmd_check_hypotheses)

    sp = sub.add_parser("verify-limits", help="Neumann/Dirichlet limit equation roots")
    _add_instance_args(sp, with_betas=False)
    sp.add_argument("--a", type=float, required=True)
    sp.set_defaults(func=cmd_verify_limits)

    return parser


def cmd_solve(args) -> None:
    p = Params(args.c, args.kappa, args.beta0, args.beta1)
    res = principal_eigenvalue(args.a, p, _solver_config(args))
    rayleigh = rayleigh_check(args.a, p, res)
    print(f"lambda: {res.lam:.12g}")
    print(f"bracket: [{res.bracket.lo:.12g}, {res.bracket.hi:.12g}]")
    print(f"iterations: {res.iterations}")
    print(f"char_f_residual: {res.char_f_residual:.6g}")
    print(f"positive_ok: {str(res.positive_ok).lower()}")
    print(f"rayleigh_rel_err: {rayleigh:.6g}")


def cmd_curve(args) -> None:
    p = Params(args.c, args.kappa, args.beta0, args.beta1)
    extra = {"n_a": args.n_a} if args.n_a is not None else {}
    curve = lambda_curve(p, _solver_config(args, **extra))
    if args.out:
        write_curve_data(curve, Path(args.out))
        print(f"wrote {args.out}")
    else:
        for a, lam in curve:
            print(f"{a:.6f} {lam:.12g}")


def cmd_sweep(args) -> None:
    cfg = load_sweep_config(args.config, {key: getattr(args, key) for key in CONFIG_KEYS})
    pairs = load_pairs(args.pairs_file, cfg.c, cfg.kappa) if args.pairs_file else None
    rows, curves = run_sweep(cfg, pairs=pairs, workers=args.workers)
    write_csv(rows, cfg.out_csv)
    written = emit_figures(rows, curves, cfg.fig_dir)
    print(f"wrote {cfg.out_csv} ({len(rows)} rows) and {len(written)} figure files")


def cmd_check_hypotheses(args) -> None:
    check_instance(args.c, args.kappa, args.beta0)
    p = Params(args.c, args.kappa, args.beta0, 0.0)  # hypothesis_bounds reads no beta1
    w = spectral_window(args.c, args.kappa)
    report = hypothesis_bounds(p, (w.lambda_min, w.lambda_max))
    for line in report.lines():
        print(line)


def cmd_verify_limits(args) -> None:
    neu = limit_root("neumann", args.a, args.c, args.kappa)
    dir_ = limit_root("dirichlet", args.a, args.c, args.kappa)
    print(f"neumann_root: {neu:.12g}")
    print(f"dirichlet_root: {dir_:.12g}")
    if args.a == 0.0:
        lou_n = limit_root("lou_neumann", 0.0, args.c, args.kappa)
        lou_d = limit_root("lou_dirichlet", 0.0, args.c, args.kappa)
        print(f"lou_neumann_root: {lou_n:.12g}")
        print(f"lou_dirichlet_root: {lou_d:.12g}")
        print(f"neumann_vs_lou_gap: {abs(neu - lou_n) / neu:.3g}")


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    try:
        args = build_parser().parse_args(argv)
        args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
