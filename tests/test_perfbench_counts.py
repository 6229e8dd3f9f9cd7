"""One traced pass of each perfbench workload at its reference seed: every
operation's own check passes, and the calls a pass makes into the step's
layers hold at the counts the benchmark's profile was taken at.  A change
that sweeps twice per step, or evaluates a coefficient field where none is
needed, fails here, not only in a benchmark run.

The workloads write under the test's ``tmp_path``; nothing is written under
``perfbench/``, bytecode included."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# workload -> (solver.step calls, SweepPlan.apply calls, which equal the
# numerical_hamiltonian_many calls, most CoefficientField calls) per pass.
# A comparison-1d pair sweeps once per pair step, two solver.step calls.
COUNTS = {
    "comparison-1d": (22_840, 11_420, 90),
    "bellman-2d": (108, 108, 26),
    "large-time-1d": (7_504, 7_504, 26),
}


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _load("tracing"), _load("workloads")


@pytest.mark.parametrize("workload", list(COUNTS))
def test_one_traced_pass_keeps_the_step_counts(perfbench, workload,
                                                tmp_path):
    tracing, workloads = perfbench
    before = sorted(PERFBENCH.rglob("*"))
    seed = workloads.REFERENCE_SEED
    reference = workloads.load_reference().get(workload)
    ops = workloads.WORKLOADS[workload](seed, tmp_path)
    tracer = tracing.Tracer(max_spans=0)
    tracer.install()
    try:
        problems = []
        for op in ops:
            found, observed = op.check(op.run())
            found += workloads.reference_problems(reference, observed)
            problems += [f"{op.label}: {p}" for p in found]
    finally:
        tracer.uninstall()
    assert not problems
    steps, sweeps, fields = COUNTS[workload]
    assert tracer.calls_of("solver.step") == steps
    assert tracer.calls_of("operators.SweepPlan.apply") == sweeps
    assert tracer.calls_of("hamiltonians.numerical_hamiltonian_many") == sweeps
    assert tracer.calls_of("hamiltonians.CoefficientField") <= fields
    assert sorted(PERFBENCH.rglob("*")) == before
