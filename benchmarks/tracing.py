"""In-memory spans around the benchmark's calls into coflow, and the layer metrics.

A span is (name, start, end, parent, unit, tag, ok).  Spans are recorded by
the benchmark around each call it makes into a public coflow function, named
`<module>.<function>`, as children of the span of the unit that made them;
nothing inside the library is instrumented.  They stay in memory until the
run ends and are written out then.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from types import SimpleNamespace

MODULES = ("invariant_forms", "g2_ansatz", "coflow_dynamics", "stability",
           "sphere_spectrum", "cli")

# (span name, time unit) of every per-call median the traced run reports
P50_SPANS = (
    ("invariant_forms.algebra_checks", "ms"),
    ("invariant_forms.wedge", "us"),
    ("invariant_forms.exterior_derivative", "us"),
    ("invariant_forms.hodge_star", "us"),
    ("g2_ansatz.identity_suite", "ms"),
    ("g2_ansatz.build", "ms"),
    ("g2_ansatz.torsion", "ms"),
    ("g2_ansatz.laplacian_psi", "ms"),
    ("coflow_dynamics.integrate", "ms"),
    ("coflow_dynamics.symbolic_rhs_crosscheck", "ms"),
    ("coflow_dynamics.hitchin_rate_check", "ms"),
    ("coflow_dynamics.hitchin_rate", "ms"),
    ("stability.find_critical_points", "ms"),
    ("stability.classify", "ms"),
    ("stability.verify_psi_identities", "ms"),
    ("sphere_spectrum.index_lower_bound", "ms"),
)
RHS_SPANS = ("coflow_dynamics.rhs_normalized", "coflow_dynamics.rhs_modified")
CLI_COMMANDS = ("import", "verify", "flow", "stability", "sphere_index")
_SCALE = {"ms": 1e3, "us": 1e6}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.unit: int | None = None
        self.tag: str | None = None

    @contextmanager
    def span(self, name: str):
        record = [name, time.perf_counter(), None,
                  self._stack[-1] if self._stack else None, self.unit, self.tag, True]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        except BaseException:
            record[6] = False
            raise
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def tagged(self, tag: str):
        self.tag = tag
        try:
            yield
        finally:
            self.tag = None

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "unit", "tag", "ok")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)


def traced_namespace(package, tracer: Tracer) -> SimpleNamespace:
    """The package's public names, each function wrapped in a span named after it."""
    out = SimpleNamespace()
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isfunction(obj):
            module = obj.__module__.rsplit(".", 1)[-1]
            obj = _wrap(obj, tracer, f"{module}.{name}")
        setattr(out, name, obj)
    return out


def _wrap(fn, tracer: Tracer, span_name: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(span_name):
            return fn(*args, **kwargs)
    return traced


def _self_times(spans) -> list[float]:
    """Each span's duration minus the time its children cover (children never overlap)."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] is not None:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(spans, rk_steps: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}; 0 where a layer did not run."""
    durations = defaultdict(list)
    for s in spans:
        durations[(s[0], s[5])].append(s[2] - s[1])

    def all_tags(name):
        return [d for (n, _), ds in durations.items() if n == name for d in ds]

    def p50(values, scale):
        return statistics.median(values) * scale if values else 0.0

    out: dict[str, tuple[float, str]] = {}
    for name, unit in P50_SPANS:
        out[f"{name}.{unit}_p50"] = (p50(all_tags(name), _SCALE[unit]), unit)
    for tag in ("float64", "longdouble"):
        values = [d for n in RHS_SPANS for d in durations.get((n, tag), [])]
        out[f"coflow_dynamics.rhs_{tag}.us_p50"] = (p50(values, 1e6), "us")

    unit_integrate = sum(s[2] - s[1] for s in spans
                         if s[0] == "coflow_dynamics.integrate" and s[4] is not None)
    out["coflow_dynamics.step_us"] = (unit_integrate / rk_steps * 1e6 if rk_steps else 0.0, "us")
    out["coflow_dynamics.rk_steps"] = (rk_steps, "count")

    out["stability.failed"] = (sum(1 for s in spans if s[0].startswith("stability.") and not s[6]),
                               "count")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = (sum(all_tags(f"cli.{cmd}")), "s")
    out["cli.failed"] = (sum(1 for s in spans if s[0].startswith("cli.") and not s[6]), "count")

    own = _self_times(spans)
    for module in MODULES:
        mine = [i for i, s in enumerate(spans) if s[0].split(".", 1)[0] == module]
        out[f"{module}.self_s"] = (sum(own[i] for i in mine), "s")
        out[f"{module}.calls"] = (len(mine), "count")
    return out
