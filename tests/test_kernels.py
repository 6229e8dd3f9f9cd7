from dataclasses import replace

import numpy as np
import pytest

from nlhj.errors import InvalidResolution
from nlhj.geometry import Domain, Grid
from nlhj.kernels import (_cell_integral_1d, build_quadrature,
                          custom_radial_kernel, exterior_mass,
                          exterior_mass_many, fractional_laplacian_kernel,
                          indicator_kernel, zero_kernel)
from nlhj.oracles import exterior_mass_closed_form, tail_mass_closed_form


def offset_norms(qt):
    """|z| at every entry of the dense weight table."""
    sq = (np.arange(-qt.J, qt.J + 1) * qt.h) ** 2
    return np.sqrt(sq if qt.dim == 1 else sq[:, None] + sq[None, :])


def test_invalid_resolution(k05):
    with pytest.raises(InvalidResolution):
        build_quadrature(k05, h=0.1, r_max=0.5)


def test_weights_nonnegative_and_symmetric(k05, k15):
    for k in (k05, k15):
        qt = build_quadrature(k, 2.0 ** -6, 8.0)
        assert np.all(qt.weights >= 0.0)
        # symmetric kernels give w_j = w_{-j} exactly
        w = qt.weights
        assert np.array_equal(w, w[::-1])


def test_far_mass_closed_form_alpha_small(k05):
    # 2 * int_1^inf z^{-3/2} dz = 4, recovered by weights past 1 plus tail
    h = 2.0 ** -8
    qt = build_quadrature(k05, h, 8.0)
    mask = offset_norms(qt) >= 1.0 - 1e-12
    total = qt.weights[mask].sum() + qt.tail_mass
    assert total == pytest.approx(4.0, rel=5e-3)


def test_far_mass_closed_form_alpha_large(k15):
    # 2 * int_1^inf z^{-5/2} dz = 4/3
    h = 2.0 ** -8
    qt = build_quadrature(k15, h, 8.0)
    mask = offset_norms(qt) >= 1.0 - 1e-12
    total = qt.weights[mask].sum() + qt.tail_mass
    assert total == pytest.approx(4.0 / 3.0, rel=5e-3)


def test_windowed_weights_match_cell_union_exactly(k05):
    # constant kernel: per-cell integrals are exact, so the windowed sum
    # equals the integral over the union of included cells to rounding
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    norms = offset_norms(qt)
    m = norms >= 0.5
    a = norms[m].min() - qt.h / 2
    b = norms[m].max() + qt.h / 2
    exact = 2.0 * (a ** -0.5 - b ** -0.5) / 0.5
    assert qt.weights[m].sum() == pytest.approx(exact, rel=1e-12)


def test_refinement_of_far_mass(k05):
    # fixed delta: windowed weights + tail converge to the exact far integral
    exact = 2.0 * 0.5 ** -0.5 / 0.5  # int over |z| >= 0.5
    errs = []
    for h in (2.0 ** -5, 2.0 ** -7):
        qt = build_quadrature(k05, h, 8.0)
        m = offset_norms(qt) >= 0.5
        err = abs(qt.weights[m].sum() + qt.tail_mass - exact)
        assert err <= 2.0 * h * 0.5 ** -1.5 + 1e-12  # half-cell at the window edge
        errs.append(err)
    assert errs[1] < errs[0]


def test_near_field_split(k05, k15):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    assert qt.nf_axis[0] == 0.0  # alpha < 1: origin cell dropped
    assert offset_norms(qt)[qt.weights != 0].min() >= qt.h
    qt15 = build_quadrature(k15, 2.0 ** -6, 8.0)
    assert qt15.nf_axis[0] > 0.0
    assert qt15.r_cut == pytest.approx(np.sqrt(2.0 ** -6))
    # the stored coefficient equals the exact moment over the near region,
    # which ends half a step before the first far cell
    edge = offset_norms(qt15)[qt15.weights != 0].min() - qt15.h / 2
    exact = 2.0 * edge ** 0.5 / 0.5
    assert qt15.nf_axis[0] == pytest.approx(exact)


def test_tail_is_sound_overestimate(k05):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    covered = (offset_norms(qt)[qt.weights != 0].max() + qt.h / 2)
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
    norms = offset_norms(qt)
    assert qt.weights[norms > 1.0 + qt.h].max(initial=0.0) == 0.0
    m = norms >= 0.25
    a = norms[m].min() - qt.h / 2
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
    assert qt.weights.shape == (2 * qt.J + 1,) * 2
    # radial symmetry of the weights
    norms = np.round(offset_norms(qt) / qt.h, 9)
    for n in np.unique(norms[qt.weights != 0])[:5]:
        w = qt.weights[norms == n]
        assert np.allclose(w, w[0])


def offset_list(k, h, r_max, r_cut):
    """The lattice offsets a quadrature covers, as a row-major list: the
    nodes of the (2J+1)^dim square within r_max, less the near field."""
    J = int(np.floor(r_max / h + 1e-12))
    j = np.arange(-J, J + 1)
    if k.dim == 1:
        offsets = j[:, None]
    else:
        gx, gy = np.meshgrid(j, j, indexing="ij")
        offsets = np.column_stack([gx.ravel(), gy.ravel()])
    norms = np.linalg.norm(offsets * h, axis=1)
    keep = norms <= r_max + 1e-12
    offsets, norms = offsets[keep], norms[keep]
    near = (norms < r_cut * (1 - 1e-12)) | (norms == 0)
    return J, offsets[~near], norms[~near]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("make", [
    lambda a, d: fractional_laplacian_kernel(a, d),
    lambda a, d: indicator_kernel(a, d, rho=1.0),
    lambda a, d: custom_radial_kernel(a, d, np.linspace(0, 10, 101),
                                      np.exp(-np.linspace(0, 10, 101)))],
    ids=["fractional", "indicator", "custom_radial"])
def test_dense_table_matches_offset_list(dim, alpha, make):
    # the dense table holds the per-cell masses of the offset list, bit for
    # bit, and 0 elsewhere; its sums are the list's, in the list's order
    k = make(alpha, dim)
    h, r_max = (2.0 ** -5, 4.0) if dim == 1 else (2.0 ** -3, 2.0)
    qt = build_quadrature(k, h, r_max)
    J, offsets, norms = offset_list(k, h, r_max, qt.r_cut)
    if dim == 1:
        w = _cell_integral_1d(k, norms - 0.5 * h, norms + 0.5 * h)
    else:
        dens = k.profile(np.linalg.norm(offsets * h, axis=1))
        w = dens * norms ** (-(2 + alpha)) * h ** 2
    w = np.maximum(w, 0.0)
    at = tuple((offsets + J).T)
    assert qt.J == J and qt.weights.shape == (2 * J + 1,) * dim
    assert np.array_equal(qt.weights[at], w)
    rest = np.ones(qt.weights.shape, dtype=bool)
    rest[at] = False
    assert np.all(qt.weights[rest] == 0.0)
    in_ball = norms <= 1.0 + 1e-14
    m1 = (w[in_ball, None] * (offsets * h)[in_ball]).sum(axis=0)
    assert qt.sum_w == float(w.sum())
    assert np.array_equal(qt.m1, m1)
    assert qt.lam == float(w.sum()) + qt.nf_mass + qt.tail_mass


def test_kernel_profiles_compare_by_value():
    # equal parameters give equal, equally hashed kernels, so a plan cached
    # on the kernel is found again; other parameters give other kernels
    radii = np.linspace(0, 10, 101)
    same = [(indicator_kernel(0.5, 1, 1.0), indicator_kernel(0.5, 1, 1.0)),
            (custom_radial_kernel(0.7, 1, radii, np.exp(-radii)),
             custom_radial_kernel(0.7, 1, radii.copy(), np.exp(-radii)))]
    for a, b in same:
        assert a == b and hash(a) == hash(b)
    assert indicator_kernel(0.5, 1, 1.0) != indicator_kernel(0.5, 1, 0.5)
    assert custom_radial_kernel(0.7, 1, radii, np.exp(-radii)) != \
        custom_radial_kernel(0.7, 1, radii, np.exp(-2 * radii))


@pytest.mark.parametrize("dim", [1, 2])
def test_kernel_profiles_keep_the_weights(dim):
    # the value-comparing profiles give the weights of the plain functions
    # they stand for, bit for bit
    radii = np.linspace(0, 10, 101)
    values = np.exp(-radii)
    cases = [(indicator_kernel(0.5, dim, 1.0),
              lambda r: (r <= 1.0).astype(float)),
             (custom_radial_kernel(0.5, dim, radii, values),
              lambda r: np.interp(r, radii, values))]
    h, r_max = (2.0 ** -5, 4.0) if dim == 1 else (2.0 ** -3, 2.0)
    for k, plain in cases:
        ref = replace(k, profile=plain)
        assert np.array_equal(build_quadrature(k, h, r_max).weights,
                              build_quadrature(ref, h, r_max).weights)
