"""perfbench's tracer wraps nlhj's functions by name: a renamed or deleted
name would leave a layer with no lookup site, reported absent with per-layer
metrics of 0 and no error.  Every layer must resolve against the package."""

import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_resolves_a_site(tracing):
    absent = [name for name, (sites, _, _) in tracing.LAYERS.items()
              if not any(tracing._resolve(*site) for site in sites)]
    assert not absent, f"layers with no lookup site left: {absent}"


def test_step_probe_resolves_a_site(tracing):
    assert any(tracing._resolve(*site) for site in tracing.STEP_SITES)


CFG = """
[domain]
lower = -1
upper = 1
[kernel]
alpha = 0.5
[hamiltonian]
m = 1.0
a1 = 1
lam = 1
[data]
u0 = 1 - x^2
phi = 0
[scheme]
h = 0.0625
T = 0.125
{scheme}
[experiment]
name = {name}
{keys}
[output]
directory = {out}
"""


def test_tracer_reaches_the_layers_of_a_run_and_a_comparison(tracing,
                                                             tmp_path):
    # a site that resolves but is not the one the code calls through (a
    # name bound before the tracer patches it) counts no calls
    from nlhj import config
    tracer = tracing.Tracer(max_spans=0)
    tracer.install()
    try:
        for name, scheme, keys in (("run", "snapshot_dt = 0.0625", ""),
                                   ("comparison", "", "seeds = 2")):
            path = tmp_path / f"{name}.cfg"
            path.write_text(CFG.format(name=name, scheme=scheme, keys=keys,
                                       out=tmp_path / name))
            assert config.execute(config.parse_config(path)) == 0
    finally:
        tracer.uninstall()
    for layer in ("operators.save_field", "solver.init_state", "solver.step",
                  "harness.comparison_experiment", "config.run_certificates"):
        assert tracer.calls_of(layer) > 0, f"{layer}: no calls traced"
    assert tracer.calls_of("harness.comparison_experiment") == 2
