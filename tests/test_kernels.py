import numpy as np
import pytest

from nlhj.errors import InvalidResolution
from nlhj.geometry import Domain, Grid
from nlhj.kernels import (build_quadrature, custom_radial_kernel,
                          exterior_mass, exterior_mass_many,
                          fractional_laplacian_kernel, indicator_kernel,
                          zero_kernel)
from nlhj.oracles import exterior_mass_closed_form, tail_mass_closed_form


def test_invalid_resolution(k05):
    with pytest.raises(InvalidResolution):
        build_quadrature(k05, h=0.1, r_max=0.5)


def test_weights_nonnegative_and_symmetric(k05, k15):
    for k in (k05, k15):
        qt = build_quadrature(k, 2.0 ** -6, 8.0)
        assert np.all(qt.weights >= 0.0)
        # symmetric kernels give w_j = w_{-j} exactly
        order = np.argsort(qt.offsets[:, 0])
        w = qt.weights[order]
        assert np.array_equal(w, w[::-1])


def test_far_mass_closed_form_alpha_small(k05):
    # 2 * int_1^inf z^{-3/2} dz = 4, recovered by weights past 1 plus tail
    h = 2.0 ** -8
    qt = build_quadrature(k05, h, 8.0)
    mask = qt.offset_norms >= 1.0 - 1e-12
    total = qt.weights[mask].sum() + qt.tail_mass
    assert total == pytest.approx(4.0, rel=5e-3)


def test_far_mass_closed_form_alpha_large(k15):
    # 2 * int_1^inf z^{-5/2} dz = 4/3
    h = 2.0 ** -8
    qt = build_quadrature(k15, h, 8.0)
    mask = qt.offset_norms >= 1.0 - 1e-12
    total = qt.weights[mask].sum() + qt.tail_mass
    assert total == pytest.approx(4.0 / 3.0, rel=5e-3)


def test_windowed_weights_match_cell_union_exactly(k05):
    # constant kernel: per-cell integrals are exact, so the windowed sum
    # equals the integral over the union of included cells to rounding
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    m = qt.offset_norms >= 0.5
    a = qt.offset_norms[m].min() - qt.h / 2
    b = qt.offset_norms[m].max() + qt.h / 2
    exact = 2.0 * (a ** -0.5 - b ** -0.5) / 0.5
    assert qt.weights[m].sum() == pytest.approx(exact, rel=1e-12)


def test_refinement_of_far_mass(k05):
    # fixed delta: windowed weights + tail converge to the exact far integral
    exact = 2.0 * 0.5 ** -0.5 / 0.5  # int over |z| >= 0.5
    errs = []
    for h in (2.0 ** -5, 2.0 ** -7):
        qt = build_quadrature(k05, h, 8.0)
        m = qt.offset_norms >= 0.5
        err = abs(qt.weights[m].sum() + qt.tail_mass - exact)
        assert err <= 2.0 * h * 0.5 ** -1.5 + 1e-12  # half-cell at the window edge
        errs.append(err)
    assert errs[1] < errs[0]


def test_near_field_split(k05, k15):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    assert qt.nf_axis[0] == 0.0  # alpha < 1: origin cell dropped
    assert qt.offset_norms.min() >= qt.h
    qt15 = build_quadrature(k15, 2.0 ** -6, 8.0)
    assert qt15.nf_axis[0] > 0.0
    assert qt15.r_cut == pytest.approx(np.sqrt(2.0 ** -6))
    # the stored coefficient equals the exact moment over the near region
    exact = 2.0 * qt15.near_edge ** 0.5 / 0.5
    assert qt15.nf_axis[0] == pytest.approx(exact)


def test_tail_is_sound_overestimate(k05):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    covered = (qt.offset_norms.max() + qt.h / 2)
    true_tail = tail_mass_closed_form(0.5, covered)
    assert qt.tail_mass >= true_tail - 1e-12
    # compactly supported kernel has no tail beyond its support
    ki = indicator_kernel(0.5, 1, rho=1.0)
    qti = build_quadrature(ki, 2.0 ** -6, 8.0)
    assert qti.tail_mass == 0.0


def test_indicator_kernel_mass(k05):
    # weights vanish beyond rho and match the rho-clipped cell integrals
    ki = indicator_kernel(0.5, 1, rho=1.0)
    qt = build_quadrature(ki, 2.0 ** -7, 8.0)
    assert qt.weights[qt.offset_norms > 1.0 + qt.h].max(initial=0.0) == 0.0
    m = qt.offset_norms >= 0.25
    a = qt.offset_norms[m].min() - qt.h / 2
    exact = 2.0 * (a ** -0.5 - 1.0 ** -0.5) / 0.5
    assert qt.weights[m].sum() == pytest.approx(exact, rel=1e-9)


def test_zero_kernel():
    k = zero_kernel(0.5, 1)
    qt = build_quadrature(k, 2.0 ** -5, 2.0)
    assert qt.sum_w == 0.0
    assert qt.tail_mass == 0.0
    assert qt.lam == 0.0


def test_custom_radial_profile():
    radii = np.linspace(0, 10, 101)
    k = custom_radial_kernel(0.7, 1, radii, np.exp(-radii))
    qt = build_quadrature(k, 2.0 ** -5, 4.0)
    assert np.all(qt.weights >= 0)
    with pytest.raises(ValueError):
        custom_radial_kernel(0.7, 1, radii, -np.ones_like(radii))


def test_exterior_mass_center(dom1, k05):
    qt = build_quadrature(k05, 2.0 ** -8, 8.0)
    v = exterior_mass(k05, dom1, 0.0, qt)
    assert v == pytest.approx(exterior_mass_closed_form(0.5, dom1, 0.0), rel=5e-3)


def test_exterior_mass_monotone_toward_boundary(dom1, k05):
    qt = build_quadrature(k05, 2.0 ** -7, 8.0)
    xs = [0.0, 0.5, 0.75, 0.875, 0.9375]
    vals = [exterior_mass(k05, dom1, x, qt) for x in xs]
    assert np.all(np.diff(vals) > 0)


@pytest.mark.parametrize("dim, alpha, h, r_max", [
    (1, 0.5, 2.0 ** -6, 4.0), (1, 1.5, 0.1, 1.0),
    (2, 0.5, 0.125, 4.0), (2, 1.5, 0.1, 1.0)])
def test_exterior_mass_many_matches_single_node(dim, alpha, h, r_max):
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    k = fractional_laplacian_kernel(alpha, dim)
    qt = build_quadrature(k, h, r_max)
    g = Grid(dom, h, halo=1)
    got = exterior_mass_many(qt, g.n_core)
    ref = np.array([exterior_mass(k, dom, x, qt) for x in g.core_points])
    assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))


def test_exterior_mass_many_2d_default_r_max():
    # jumps far longer than the box, checked at the corners, trace nodes
    # beside them and in mid-face, and random core nodes
    h = 2.0 ** -5
    dom = Domain((-1.0, -1.0), (1.0, 1.0))
    k = fractional_laplacian_kernel(0.5, 2)
    qt = build_quadrature(k, h, 4.0 * dom.diameter)
    g = Grid(dom, h, halo=1)
    got = exterior_mass_many(qt, g.n_core)
    n = g.n_core[0]
    ij = [(0, 0), (0, n), (n, 0), (n, n), (0, 1), (1, 0), (n, n - 1),
          (n // 2, 0), (0, n // 2), (n // 2, n), (n, n // 2),
          (1, 1), (n // 2, n // 2)]
    rng = np.random.default_rng(5)
    ij += [tuple(v) for v in rng.integers(0, n + 1, size=(8, 2))]
    at = [i * (n + 1) + j for i, j in ij]
    ref = np.array([exterior_mass(k, dom, x, qt) for x in g.core_points[at]])
    assert np.all(np.abs(got[at] - ref) <= 1e-12 * np.abs(ref))
    # a corner sees more exterior mass than the centre
    assert got[0] > got[(n // 2) * (n + 2)]


def test_exterior_mass_zero_kernel(dom1):
    k = zero_kernel(0.5, 1)
    qt = build_quadrature(k, 2.0 ** -5, 8.0)
    assert exterior_mass(k, dom1, 0.0, qt) == 0.0


def test_quadrature_2d_builds(dom2):
    from nlhj.kernels import fractional_laplacian_kernel
    k = fractional_laplacian_kernel(0.5, 2)
    qt = build_quadrature(k, 2.0 ** -3, 2.0)
    assert np.all(qt.weights >= 0)
    assert qt.offsets.shape[1] == 2
    # radial symmetry of the weights
    norms = np.round(qt.offset_norms / qt.h, 9)
    for n in np.unique(norms)[:5]:
        w = qt.weights[norms == n]
        assert np.allclose(w, w[0])
