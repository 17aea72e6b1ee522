"""Per-layer tracing of the qcmachine package from outside it.

A Tracer wraps the public functions listed in SPANNED and COUNTED and, for
the duration of one query, rebinds every name under which a ``qcmachine.*``
module holds them (``collision`` keeps its own ``hermitian_propagator``
binding, ``cli`` its own ``run``, and so on). Spanned functions record a span
(query id, span id, parent span id, name, start, end), a call count, self time
and raised exceptions. Counted functions are hot leaves: they only count
calls, so their time stays in the self time of the span that called them.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter_ns

# The workload each layer should move, and where it should stay flat:
#   model      sweep; params_from_config is the package's share of setup_s
#   lindblad   steady_state_analytic: sweep; integrate and generator_apply (4 per RK4 step):
#              the trajectory part of collision
#   thermo     sweep; flat on collision
#   collision  discrete_fixed_point, rate_extrapolate: the collision-limit part of collision;
#              run, write_trajectory_csv: its trajectory part; all flat on sweep
#   linalg     hermitian_propagator (collision steps built), partial_trace (collision-map
#              applications): the collision-limit part; von_neumann_entropy: the trajectory part
#   analysis   sweep; flat on collision
#   cli        main's self time is parsing, formatting and writing: sweep and collision
# Functions that only the output checks call (the steady_state_numeric and trace-form
# oracles) run outside the traced section and are not listed.
SPANNED = {
    "model": ("with_param", "params_from_config"),
    "lindblad": ("steady_state_analytic", "integrate"),
    "thermo": ("thermo_report", "internal_energy_rate"),
    "collision": ("collide", "run", "discrete_fixed_point", "convergence_to_steady_state",
                  "rate_extrapolate", "write_trajectory_csv"),
    "linalg": ("hermitian_propagator", "trace_distance"),
    "analysis": ("sweep_diagram", "power_efficiency_curve", "classify", "epsilon_star"),
    "cli": ("main",),
}
COUNTED = {
    "model": ("thermal_occupation", "ancilla_state"),
    "lindblad": ("generator_apply",),
    "linalg": ("partial_trace", "von_neumann_entropy"),
}
MODULE_ORDER = ("model", "lindblad", "thermo", "collision", "linalg", "analysis", "cli")


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in reporting order."""
    names = []
    for module in MODULE_ORDER:
        for fn in SPANNED.get(module, ()):
            names += [(f"{module}.{fn}.calls", "count"), (f"{module}.{fn}.self_s", "s"),
                      (f"{module}.{fn}.errors", "count")]
        names += [(f"{module}.{fn}.calls", "count") for fn in COUNTED.get(module, ())]
    return names


class Tracer:
    """Call counts, self times, errors and spans of the traced package functions."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.errors: Counter[str] = Counter()
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self._query = 0
        self._next_span = 1
        self._stack: list[list[int]] = []  # [span id, nanoseconds covered by child spans]
        self._wrappers: dict[int, tuple[object, object]] = {}  # id(original) -> (original, wrapper)
        for module in MODULE_ORDER:
            mod = sys.modules[f"qcmachine.{module}"]
            for fn in SPANNED.get(module, ()):
                self._wrap(getattr(mod, fn), self._spanned(f"{module}.{fn}", getattr(mod, fn)))
            for fn in COUNTED.get(module, ()):
                self._wrap(getattr(mod, fn), self._counted(f"{module}.{fn}", getattr(mod, fn)))

    def _wrap(self, original, wrapper):
        self._wrappers[id(original)] = (original, functools.wraps(original)(wrapper))

    def _spanned(self, name, fn):
        def traced(*args, **kwargs):
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1][0] if self._stack else 0
            frame = [span, 0]
            self._stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.calls[name] += 1
                self.self_ns[name] += end - start - frame[1]
                self.spans.append((self._query, span, parent, name, start, end))
        return traced

    def _counted(self, name, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self, query_id: int):
        """Rebind the wrappers in every loaded qcmachine module while the block runs."""
        self._query = query_id
        patched = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "qcmachine" and not mod_name.startswith("qcmachine."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    patched.append((mod, attr, value))
        try:
            yield
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def metrics(self) -> dict[str, dict]:
        out = {}
        for name, unit in layer_metric_names():
            fn, kind = name.rsplit(".", 1)
            if kind == "calls":
                value = self.calls[fn]
            elif kind == "self_s":
                value = self.self_ns[fn] / 1e9
            else:
                value = self.errors[fn]
            out[name] = {"value": value, "unit": unit}
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("query", "span", "parent", "name", "start_ns", "end_ns"))
            writer.writerows(self.spans)
