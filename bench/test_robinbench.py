"""Self-tests of the benchmark: seeded inputs, printed metric names, and the
output check's power to flag a wrong answer."""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from robinbench import reference, workloads  # noqa: E402

rb = workloads.load_robineig(ROOT / "src")


def _first_in_window(wl: workloads.Solve) -> int:
    return next(i for i, item in enumerate(wl.stream) if item[-1] == item[-1])


def test_inputs_are_deterministic_per_seed(tmp_path):
    def solve_stream(seed):  # repr, because refused items carry a NaN reference
        return repr(workloads.Solve(rb, seed, candidates=300).stream)

    assert solve_stream(7) == solve_stream(7)
    assert solve_stream(7) != solve_stream(8)
    assert workloads.Limits(rb, 7, n=40).items == workloads.Limits(rb, 7, n=40).items
    assert workloads.Limits(rb, 7, n=40).items != workloads.Limits(rb, 8, n=40).items
    a = workloads.Sweep(rb, 7, tmp_path / "a", n_pairs=3)
    b = workloads.Sweep(rb, 7, tmp_path / "b", n_pairs=3)
    assert a.pairs == b.pairs and a.ref_rows == b.ref_rows
    assert a.pairs != workloads.Sweep(rb, 8, tmp_path / "c", n_pairs=3).pairs


def test_solve_stream_has_the_fixed_refusal_mix():
    wl = workloads.Solve(rb, 3, candidates=300)
    refused = [item[-1] != item[-1] for item in wl.stream]
    assert refused == [False, False, False, False, True] * (len(refused) // 5)


def test_reference_determinant_matches_the_package_oracle():
    p = rb.model.Params(0.3, 2.0, 1.5, 4.0)
    for a, lam in ((0.0, 0.7), (0.35, 5.0), (0.7, 12.0)):
        want = rb.characteristic.char_f(a, p, lam)
        got = reference.char_det(lam, a, p.c, p.kappa, p.beta0, p.beta1)
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_printed_metric_is_declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "limits", "--seed", "5",
         "--seconds", "0.05", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == declared


def test_check_flags_an_eigenvalue_off_by_1e_8():
    wl = workloads.Solve(rb, 11, candidates=300)
    i = _first_in_window(wl)
    res, rq = wl.op(i)
    assert wl.check(i, (res, rq)) == (1, 1, 0)
    bad = dataclasses.replace(res, lam=res.lam * (1.0 + 1e-8))
    assert wl.check(i, (bad, rq)) == (1, 1, 1)


def test_sweep_check_flags_a_curve_point_off_by_1e_8(tmp_path):
    wl = workloads.Sweep(rb, 11, tmp_path, n_pairs=2)
    csv_path, curves, figures = wl.op(0)
    assert wl.check(0, (csv_path, curves, figures)) == (2, 2, 0)
    k = next(k for k, c in enumerate(curves) if c is not None)
    a, lam = curves[k][40]
    curves[k][40] = (a, lam * (1.0 + 1e-8))
    assert wl.check(0, (csv_path, curves, figures)) == (2, 2, 1)


def test_check_flags_an_unexpected_exception():
    solve = workloads.Solve(rb, 11, candidates=300)
    i = _first_in_window(solve)
    assert solve.check(i, RuntimeError("boom")) == (0, 1, 1)
    # a refusal where the reference has an in-window eigenvalue is wrong too
    assert solve.check(i, rb.eigensolver.SolverError("no bracket")) == (1, 1, 1)
    limits = workloads.Limits(rb, 11, n=8)
    assert limits.check(0, ValueError("no root")) == (0, 1, 1)


def test_closed_loop_counts_a_raising_operation_as_failed():
    class Raises:
        name, cycle = "raises", 1

        def op(self, i):
            raise ZeroDivisionError

        def is_refusal(self, exc):
            return False

        def check(self, i, out):
            return 0, 1, int(isinstance(out, ZeroDivisionError))

    loop = workloads.closed_loop(Raises(), count=3)
    assert (loop.attempted, loop.failed, loop.units) == (3, 3, 0)
