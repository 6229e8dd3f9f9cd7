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
