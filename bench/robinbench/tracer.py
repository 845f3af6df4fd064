"""Span tracer that times robineig's modules from outside them.

``Tracer.installed()`` replaces public names in the robineig module
namespaces where callers resolve them (for example
``robineig.eigensolver.shooting_residual``, the name ``principal_eigenvalue``
looks up) with wrappers that record a span per call, and restores them on
exit.  No file under ``src/`` changes.  ``shooting_residual`` runs millions
of times per sweep, so it gets no span: its wrapper only counts calls and
adds up their time, and each span records both totals at its boundaries.
Spans stay in memory until ``write_csv``.
"""

from __future__ import annotations

import contextlib
import statistics
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("model", "harness", "classifier", "eigensolver", "characteristic", "propagator")

# (module, attribute, span name).  A function is wrapped in every namespace
# a caller resolves it from; the span name says which module owns it.
_WRAPPED = (
    ("model", "load_sweep_config", "model.load_sweep_config"),
    ("model", "validate_params", "model.validate_params"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "write_csv", "harness.write_csv"),
    ("harness", "emit_figures", "harness.emit_figures"),
    ("harness", "lambda_curve", "eigensolver.lambda_curve"),
    ("harness", "classify_pair", "classifier.classify_pair"),
    ("harness", "hypothesis_bounds", "characteristic.hypothesis_bounds"),
    ("eigensolver", "principal_eigenvalue", "eigensolver.principal_eigenvalue"),
    ("eigensolver", "rayleigh_check", "eigensolver.rayleigh_check"),
    ("eigensolver", "bracket_scan", "eigensolver.bracket_scan"),
    ("eigensolver", "bisect", "eigensolver.bisect"),
    ("eigensolver", "char_f", "characteristic.char_f"),
    ("eigensolver", "eigenfunction_profile", "propagator.eigenfunction_profile"),
    ("characteristic", "limit_root", "characteristic.limit_root"),
    ("characteristic", "hypothesis_bounds", "characteristic.hypothesis_bounds"),
)


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int  # -1 for a span directly under the operation
    op: str
    name: str
    start: float
    end: float
    calls: int  # shooting_residual calls inside the span
    residual_s: float  # their summed time
    ok: bool
    note: int  # EigenResult.iterations, or the sample count of a profile


def _note(name: str, args: tuple, out) -> int:
    if name == "eigensolver.principal_eigenvalue":
        return out.iterations
    if name == "propagator.eigenfunction_profile":
        return len(args[3])
    return 0


class Tracer:
    def __init__(self, robineig_modules: dict):
        self.modules = robineig_modules
        self.spans: list[Span | None] = []
        self.op = ""
        self.calls = 0
        self.residual_s = 0.0
        self._stack: list[int] = []

    def _span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            calls0, res0, out, ok = self.calls, self.residual_s, None, False
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = Span(sid, parent, self.op, name, start, end,
                                       self.calls - calls0, self.residual_s - res0, ok,
                                       _note(name, args, out) if ok else 0)
        return wrapper

    def _counted(self, fn):
        def shooting_residual(a, p, lam):
            start = perf_counter()
            try:
                return fn(a, p, lam)
            finally:
                self.residual_s += perf_counter() - start
                self.calls += 1
        return shooting_residual

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for mod, attr, name in _WRAPPED:
                module = self.modules[mod]
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._span(name, getattr(module, attr)))
            es = self.modules["eigensolver"]
            saved.append((es, "shooting_residual", es.shooting_residual))
            es.shooting_residual = self._counted(es.shooting_residual)
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("id,parent,op,name,start,end,residual_calls,residual_s,ok,note\n")
            for s in self.spans:
                fh.write(f"{s.sid},{s.parent},{s.op},{s.name},{s.start!r},{s.end!r},"
                         f"{s.calls},{s.residual_s!r},{int(s.ok)},{s.note}\n")


def self_time(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer not covered by child spans.  Residual time counted
    inside a span and not inside its children goes to ``propagator``."""
    child_s: dict[int, float] = {}
    child_res: dict[int, float] = {}
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] = child_s.get(s.parent, 0.0) + (s.end - s.start)
            child_res[s.parent] = child_res.get(s.parent, 0.0) + s.residual_s
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        direct_res = s.residual_s - child_res.get(s.sid, 0.0)
        own = (s.end - s.start) - child_s.get(s.sid, 0.0) - direct_res
        out[s.name.split(".", 1)[0]] += own
        out["propagator"] += direct_res
    return out


_PE = "eigensolver.principal_eigenvalue"


def _ms(s: Span) -> float:
    return 1e3 * (s.end - s.start)


def _any(s: Span) -> bool:
    return True


def _ok(s: Span) -> bool:
    return s.ok


def _refused(s: Span) -> bool:
    return not s.ok


# (metric, unit, span name, value taken from a span, spans that count);
# each metric is the median of that value
SPAN_METRICS = (
    ("model.load_sweep_config.ms", "ms", "model.load_sweep_config", _ms, _any),
    ("classifier.classify_pair.ms", "ms", "classifier.classify_pair", _ms, _any),
    ("eigensolver.principal_eigenvalue.ms", "ms", _PE, _ms, _ok),
    ("eigensolver.principal_eigenvalue.refused_ms", "ms", _PE, _ms, _refused),
    ("eigensolver.bisect_iterations", "count", _PE, lambda s: s.note, _ok),
    ("eigensolver.lambda_curve.ms", "ms", "eigensolver.lambda_curve", _ms, _any),
    ("eigensolver.rayleigh_check.ms", "ms", "eigensolver.rayleigh_check", _ms, _any),
    ("eigensolver.bracket_scan.ms", "ms", "eigensolver.bracket_scan", _ms, _any),
    ("characteristic.limit_root.ms", "ms", "characteristic.limit_root", _ms, _any),
    ("characteristic.hypothesis_bounds.ms", "ms", "characteristic.hypothesis_bounds", _ms, _any),
    ("propagator.residual_calls_per_solve", "count", _PE, lambda s: s.calls, _ok),
    ("propagator.residual_calls_per_refusal", "count", _PE, lambda s: s.calls, _refused),
    ("propagator.eigenfunction_profile.ms", "ms", "propagator.eigenfunction_profile", _ms,
     lambda s: s.note == 1001),  # the positivity check's samples
)


def _wasted_solve_share(spans: list[Span]) -> float | None:
    """Solves inside curves that end in an error, over all curve solves."""
    curve_ok = {s.sid: s.ok for s in spans if s.name == "eigensolver.lambda_curve"}
    solves = [s for s in spans if s.name == _PE and s.parent in curve_ok]
    if not solves:
        return None
    return sum(not curve_ok[s.parent] for s in solves) / len(solves)


def span_metrics(main: list[Span], probes: list[Span]) -> tuple[dict, list[str]]:
    """Span-derived per-layer metrics as {name: (value, unit)}, taken from
    the main workload's spans where it calls the layer and from the probe
    spans otherwise; also the names that came from probes."""
    table = [(name, unit, lambda ss, n=span, v=value, w=where: _median(
        [v(s) for s in ss if s.name == n and w(s)]))
        for name, unit, span, value, where in SPAN_METRICS]
    table.append(("eigensolver.wasted_solve_share", "ratio", _wasted_solve_share))
    out, from_probes = {}, []
    for name, unit, fn in table:
        value = fn(main)
        if value is None:
            value = fn(probes)
            from_probes.append(name)
        out[name] = (value, unit)
    return out, from_probes


def _median(values: list[float]) -> float | None:
    return statistics.median(values) if values else None
