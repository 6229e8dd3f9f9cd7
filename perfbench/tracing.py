"""Step probe and span tracing, installed on nlhj from outside the package.

nlhj binds most names with ``from ... import``, so a function is looked up in
the namespace of the module that calls it.  Every wrapper is therefore
installed at each of those lookup sites (``solver.auto_dt`` and
``harness.auto_dt`` both, for example); class methods are patched on the
class.  A site that no longer exists is skipped, and a layer none of whose
sites exists is reported as absent.

Two levels:

* :class:`StepProbe` wraps only ``solver.step`` and records the time of each
  call, which is what ``setup_s`` (time to the first step) and
  ``steps_per_s`` need.  End-to-end runs install nothing else.
* :class:`Tracer` records a span around every call into the layers of
  :data:`LAYERS`: name, start, end and parent.  Calls and total/self time are
  aggregated per layer as the spans close; the first ``max_spans`` spans are
  also kept for writing out.  Self time is a span's duration minus the time
  its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict

perf_counter = time.perf_counter


def _resolve(module: str, path: str):
    """(owner, attribute) for ``nlhj.<module>`` and a dotted attribute path,
    or None when any part is missing."""
    try:
        owner = importlib.import_module(f"nlhj.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


STEP_SITES = (("solver", "step"), ("harness", "step"))


class StepProbe:
    """Stamps every ``solver.step`` call since the last ``reset``."""

    def __init__(self):
        self.stamps = []
        self._patches = _Patches()

    def reset(self):
        self.stamps = []

    def install(self):
        sites = [s for s in (_resolve(*site) for site in STEP_SITES) if s]
        if not sites:
            raise RuntimeError("nlhj.solver.step not found: cannot count steps")
        for owner, attr in sites:
            self._patches.replace(owner, attr, self._wrap(getattr(owner, attr)))

    def uninstall(self):
        self._patches.undo()

    def _wrap(self, fn):
        probe = self

        @functools.wraps(fn)
        def probed(*args, **kwargs):
            probe.stamps.append(perf_counter())
            return fn(*args, **kwargs)

        return probed


# ---------------------------------------------------------------------------
# layers and per-layer metrics
# ---------------------------------------------------------------------------

def _madds(tracer, token, args, result, error):
    # computed core nodes x stencil terms of the quadrature table
    weights = getattr(getattr(args[0], "qt", None), "weights", None)
    if weights is None:
        tracer.absent.add("operators.SweepPlan.apply.madds")
    elif error is None:
        tracer.counters["operators.SweepPlan.apply.madds"] += \
            len(result) * len(weights)


def _grid_nodes(tracer, token, args, result, error):
    size = getattr(args[0], "size", None)
    if size is None:
        tracer.absent.add("geometry.Grid.nodes")
    elif error is None:
        tracer.counters["geometry.Grid.nodes"] += size


def _step_retries_before(tracer, args):
    return getattr(args[0], "sigma_growth", 0)


def _step_retries(tracer, token, args, result, error):
    # viscosity enlarged inside the step, plus underflows that escape it
    # (paired comparison runs restart both states with a larger viscosity)
    retries = getattr(args[0], "sigma_growth", 0) - token
    if error is not None and type(error).__name__ == "ViscosityUnderflow":
        retries += 1
    tracer.counters["solver.viscosity_retries"] += retries


def _steady_before(tracer, args):
    return tracer.calls_of("solver.step")


def _steady_steps(tracer, token, args, result, error):
    tracer.counters["solver.run_to_steady.steps"] += \
        tracer.calls_of("solver.step") - token


# span name -> (lookup sites, before hook, after hook)
LAYERS = {
    "config.parse_config": ([("config", "parse_config")], None, None),
    "config.execute": ([("config", "execute")], None, None),
    "config.run_certificates": ([("config", "run_certificates")], None, None),
    "harness.comparison_experiment":
        ([("harness", "comparison_experiment")], None, None),
    "kernels.build_quadrature":
        ([("kernels", "build_quadrature"), ("config", "build_quadrature"),
          ("harness", "build_quadrature")], None, None),
    "kernels.exterior_mass_many":
        ([("kernels", "exterior_mass_many"),
          ("hamiltonians", "exterior_mass_many")], None, None),
    "geometry.Grid": ([("geometry", "Grid.__init__")], None, _grid_nodes),
    "operators.SweepPlan": ([("operators", "SweepPlan.__init__")], None, None),
    "operators.SweepPlan.apply":
        ([("operators", "SweepPlan.apply")], None, _madds),
    "operators.save_field":
        ([("operators", "save_field"), ("config", "save_field")], None, None),
    "solver.init_state":
        ([("solver", "init_state"), ("config", "init_state"),
          ("harness", "init_state")], None, None),
    "solver.step": (list(STEP_SITES), _step_retries_before, _step_retries),
    "solver.auto_dt": ([("solver", "auto_dt"), ("harness", "auto_dt")],
                       None, None),
    "solver.run_to_steady":
        ([("solver", "run_to_steady"), ("config", "run_to_steady"),
          ("harness", "run_to_steady")], _steady_before, _steady_steps),
    "hamiltonians.numerical_hamiltonian_many":
        ([("hamiltonians", "numerical_hamiltonian_many"),
          ("solver", "numerical_hamiltonian_many")], None, None),
    "hamiltonians.CoefficientField":
        ([("hamiltonians", "CoefficientField.__call__")], None, None),
    "expressions.Expression":
        ([("expressions", "Expression.__call__")], None, None),
}

# metric -> (unit, layer whose presence it needs or None)
PER_LAYER = {
    "operators.SweepPlan.apply.calls": ("count", "operators.SweepPlan.apply"),
    "operators.SweepPlan.apply.self_s": ("s", "operators.SweepPlan.apply"),
    "operators.SweepPlan.apply.madds": ("count", "operators.SweepPlan.apply"),
    "kernels.exterior_mass_many.calls": ("count", "kernels.exterior_mass_many"),
    "kernels.exterior_mass_many.s": ("s", "kernels.exterior_mass_many"),
    "config.run_certificates.s": ("s", "config.run_certificates"),
    "hamiltonians.numerical_hamiltonian_many.calls":
        ("count", "hamiltonians.numerical_hamiltonian_many"),
    "hamiltonians.numerical_hamiltonian_many.self_s":
        ("s", "hamiltonians.numerical_hamiltonian_many"),
    "hamiltonians.CoefficientField.calls":
        ("count", "hamiltonians.CoefficientField"),
    "hamiltonians.CoefficientField.self_s":
        ("s", "hamiltonians.CoefficientField"),
    "expressions.Expression.calls": ("count", "expressions.Expression"),
    "expressions.Expression.s": ("s", "expressions.Expression"),
    "solver.auto_dt.calls": ("count", "solver.auto_dt"),
    "solver.auto_dt.self_s": ("s", "solver.auto_dt"),
    "solver.step.calls": ("count", "solver.step"),
    "solver.step.self_s": ("s", "solver.step"),
    "solver.viscosity_retries": ("count", "solver.step"),
    "kernels.build_quadrature.calls": ("count", "kernels.build_quadrature"),
    "kernels.build_quadrature.s": ("s", "kernels.build_quadrature"),
    "geometry.Grid.calls": ("count", "geometry.Grid"),
    "geometry.Grid.nodes": ("count", "geometry.Grid"),
    "operators.SweepPlan.calls": ("count", "operators.SweepPlan"),
    "operators.SweepPlan.s": ("s", "operators.SweepPlan"),
    "solver.init_state.calls": ("count", "solver.init_state"),
    "solver.init_state.s": ("s", "solver.init_state"),
    "solver.run_to_steady.calls": ("count", "solver.run_to_steady"),
    "solver.run_to_steady.steps": ("count", "solver.run_to_steady"),
    "operators.save_field.calls": ("count", "operators.save_field"),
    "operators.save_field.s": ("s", "operators.save_field"),
    "config.execute.self_s": ("s", "config.execute"),
    "config.artifact_bytes": ("bytes", "config.execute"),
    "harness.comparison_experiment.self_s":
        ("s", "harness.comparison_experiment"),
    "config.parse_config.s": ("s", "config.parse_config"),
    "trace.overhead_s": ("s", None),
}

# suffix -> aggregate kept per span name
_STATS = {"calls": "calls", "s": "total", "self_s": "self_time"}


class Tracer:
    """Span recorder with per-layer aggregates; see the module docstring."""

    def __init__(self, max_spans: int = 100_000):
        self.max_spans = max_spans
        self.names = []
        self._index = {}
        self.calls, self.total, self.self_time = [], [], []
        self.counters = defaultdict(int)
        self.stack = []          # open spans: [child time, span id]
        self.n_spans = 0
        self._spans_at_reset = 0
        # kept spans, row = span id
        self.span_name = array("l", bytes(8 * max_spans))
        self.span_parent = array("l", bytes(8 * max_spans))
        self.span_start = array("d", bytes(8 * max_spans))
        self.span_end = array("d", bytes(8 * max_spans))
        self.absent = set()      # layers (or single metrics) not found
        self.span_cost = 0.0     # seconds added per span, see calibrate()
        self._patches = _Patches()

    def _slot(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
            for agg in (self.calls, self.total, self.self_time):
                agg.append(0)
        return self._index[name]

    def calls_of(self, name: str) -> int:
        i = self._index.get(name)
        return 0 if i is None else self.calls[i]

    def reset(self):
        """Zero the aggregates and counters; kept spans stay."""
        for agg in (self.calls, self.total, self.self_time):
            agg[:] = [0] * len(agg)
        self.counters = defaultdict(int)
        self._spans_at_reset = self.n_spans

    def metrics(self) -> dict:
        """Per-layer metric values since the last reset; absent ones are 0."""
        self.counters["trace.overhead_s"] = \
            (self.n_spans - self._spans_at_reset) * self.span_cost
        out = {}
        for metric, (_, layer) in PER_LAYER.items():
            prefix, suffix = metric.rsplit(".", 1)
            if layer in self.absent or metric in self.absent:
                out[metric] = 0
            elif prefix == layer and suffix in _STATS:
                out[metric] = getattr(self, _STATS[suffix])[self._slot(layer)]
            else:
                out[metric] = self.counters[metric]
        return out

    def wrap(self, name: str, fn, before=None, after=None):
        i = self._slot(name)
        tracer, stack = self, self.stack
        calls, total, self_time = self.calls, self.total, self.self_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer.n_spans
            tracer.n_spans = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            token = before(tracer, args) if before else None
            error = result = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                error = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                calls[i] += 1
                total[i] += dur
                self_time[i] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if sid < tracer.max_spans:
                    tracer.span_name[sid] = i
                    tracer.span_parent[sid] = parent
                    tracer.span_start[sid] = t0
                    tracer.span_end[sid] = t1
                if after:
                    after(tracer, token, args, result, error)

        return traced

    def install(self):
        for name, (sites, before, after) in LAYERS.items():
            found = [s for s in (_resolve(*site) for site in sites) if s]
            if not found:
                self.absent.add(name)
                continue
            for owner, attr in found:
                self._patches.replace(owner, attr, self.wrap(
                    name, getattr(owner, attr), before, after))
        self.reset()

    def uninstall(self):
        self._patches.undo()

    def calibrate(self, n: int = 20_000, repeats: int = 5):
        """Measure the time one span adds to a call (best of ``repeats``)."""
        def noop():
            return None

        wrapped = Tracer(max_spans=0).wrap("calibration", noop)
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            for _ in range(n):
                noop()
            t1 = perf_counter()
            for _ in range(n):
                wrapped()
            t2 = perf_counter()
            best = min(best, ((t2 - t1) - (t1 - t0)) / n)
        self.span_cost = max(best, 0.0)

    def spans(self) -> dict:
        """The kept spans as columns; a span's id is its row number and a
        parent of -1 marks a root."""
        n = min(self.n_spans, self.max_spans)
        return {"names": list(self.names), "name": self.span_name[:n].tolist(),
                "parent": self.span_parent[:n].tolist(),
                "start": self.span_start[:n].tolist(),
                "end": self.span_end[:n].tolist(), "total_spans": self.n_spans}
