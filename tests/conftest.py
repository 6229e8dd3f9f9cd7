import numpy as np
import pytest
from hypothesis import settings, HealthCheck

settings.register_profile(
    "suite", max_examples=30, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("suite")


def pytest_report_header(config):
    from importlib.metadata import PackageNotFoundError, version
    from nlhj import operators
    try:
        scipy = version("scipy")
    except PackageNotFoundError:
        scipy = "not installed"
    fft = ("the public np.fft wrappers"
           if operators._pocketfft is operators._PUBLIC_FFT
           else "numpy's private FFT gufuncs")
    return [f"numpy {np.__version__}, scipy {scipy}",
            f"operators sweep calls {fft}"]


@pytest.fixture(autouse=True)
def fresh_discretization():
    # harness.discretize keeps its last plan: start every test without it,
    # so that no test reads a plan, or lazily built grid data, of another
    from nlhj import harness
    harness._last_plan.cache_clear()


@pytest.fixture
def dom1():
    from nlhj.geometry import Domain
    return Domain((-1,), (1,))


@pytest.fixture
def dom2():
    from nlhj.geometry import Domain
    return Domain((-1, -1), (1, 1))


@pytest.fixture
def k05():
    from nlhj.kernels import fractional_laplacian_kernel
    return fractional_laplacian_kernel(0.5, 1)


@pytest.fixture
def k15():
    from nlhj.kernels import fractional_laplacian_kernel
    return fractional_laplacian_kernel(1.5, 1)


def grid_for(dom, h, r_max):
    from nlhj.geometry import Grid
    return Grid(dom, h, halo=int(np.floor(r_max / h + 1e-12)))
