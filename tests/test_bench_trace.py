"""Guard on the traced benchmark's output.

The tracer derives each per-layer metric from calls it wraps by module name
(for example ``eigensolver.shooting_residual`` and the 1001-sample
``eigensolver.eigenfunction_profile``).  If such a call stops happening, its
metric prints ``null`` while the run still succeeds, so this test demands a
finite number for every metric.  The ``limits`` run also probes the
``solve`` and ``sweep`` layers.  The ``sweep`` run calls no 1001-sample
profile itself (a curve checks its lanes' positivity in one array pass), so
its profile metric comes from the ``solve`` probe.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_traced_metric_is_a_finite_number():
    _assert_every_traced_metric_is_a_finite_number("limits")


def test_every_traced_sweep_metric_is_a_finite_number():
    _assert_every_traced_metric_is_a_finite_number("sweep")


def _assert_every_traced_metric_is_a_finite_number(workload):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.05", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    values = {name: m["value"] for name, m in result["metrics"].items()}
    not_finite = {
        name: v for name, v in values.items()
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)
    }
    assert values and not not_finite, not_finite
