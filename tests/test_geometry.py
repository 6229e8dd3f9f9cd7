import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlhj.errors import CornerAmbiguity
from nlhj.geometry import (Domain, Grid, distance_gradient, signed_distance,
                           signed_distance_many)


def test_signed_distance_interval(dom1):
    assert signed_distance(dom1, 0.0) == 1.0
    assert signed_distance(dom1, 1.0) == 0.0
    assert signed_distance(dom1, 2.0) == -1.0


def test_signed_distance_box(dom2):
    assert np.isclose(signed_distance(dom2, (0.5, 0.9)), 0.1)
    assert np.isclose(signed_distance(dom2, (0.0, 0.0)), 1.0)
    # outside a corner: Euclidean distance
    assert np.isclose(signed_distance(dom2, (2.0, 2.0)), -np.sqrt(2.0))


def test_distance_gradient_interval(dom1):
    assert distance_gradient(dom1, 0.9)[0] == -1.0
    assert distance_gradient(dom1, -0.9)[0] == 1.0


def test_distance_gradient_box(dom2):
    assert np.allclose(distance_gradient(dom2, (0.0, 0.95)), (0.0, -1.0))
    assert np.allclose(distance_gradient(dom2, (-0.97, 0.1)), (1.0, 0.0))
    with pytest.raises(CornerAmbiguity):
        distance_gradient(dom2, (0.5, 0.5))  # diagonal: faces equidistant


def test_corner_exclusion_zone():
    dom = Domain((-1, -1), (1, 1), corner_exclusion=0.2)
    with pytest.raises(CornerAmbiguity):
        distance_gradient(dom, (0.95, 0.9))


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_lipschitz_1d(x, y):
    dom = Domain((-1,), (1,))
    assert abs(signed_distance(dom, x) - signed_distance(dom, y)) \
        <= abs(x - y) + 1e-12


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
def test_lipschitz_2d(x1, x2, y1, y2):
    dom = Domain((-1, -1), (1, 1))
    d1 = signed_distance(dom, (x1, x2))
    d2 = signed_distance(dom, (y1, y2))
    assert abs(d1 - d2) <= np.hypot(x1 - y1, x2 - y2) + 1e-12


@given(st.floats(-3, 3), st.floats(-3, 3))
def test_reflection_symmetry(x, y):
    dom = Domain((-1, -1), (1, 1))
    assert np.isclose(signed_distance(dom, (x, y)),
                      signed_distance(dom, (-x, -y)))


def test_gradient_is_unit_and_matches_fd(dom2):
    h = 1e-5
    rng = np.random.default_rng(0)
    for _ in range(24):
        x = rng.uniform(-1.2, 1.2, size=2)
        try:
            g = distance_gradient(dom2, x)
        except CornerAmbiguity:
            continue
        if abs(signed_distance(dom2, x)) > 0.25 * min(dom2.sides):
            continue
        assert np.isclose(np.linalg.norm(g), 1.0)
        fd = np.array([
            (signed_distance(dom2, x + h * e) - signed_distance(dom2, x - h * e))
            / (2 * h) for e in np.eye(2)])
        assert np.allclose(fd, g, atol=1e-3)


def test_domain_invariants():
    with pytest.raises(ValueError):
        Domain((1,), (-1,))


def test_grid_classification(dom1):
    h = 0.25
    g = Grid(dom1, h, halo=4)
    pts = g.points()[:, 0]
    d = signed_distance_many(dom1, g.points())
    flat = np.arange(g.size)
    np.testing.assert_array_equal(g.trace_flat, flat[np.abs(d) < h / 2])
    np.testing.assert_array_equal(g.core_flat, flat[d > -h / 2])
    np.testing.assert_array_equal(g.exterior_flat, flat[d <= -h / 2])
    # trace nodes sit exactly on the boundary for an aligned lattice, and
    # are core nodes
    assert sorted(pts[g.trace_flat].tolist()) == [-1.0, 1.0]
    assert np.isin(g.trace_flat, g.core_flat).all()


def test_grid_flat_index_roundtrip(dom2):
    g = Grid(dom2, 0.5, halo=2)
    for flat in [0, 7, g.size - 1]:
        p = g.points_at(np.array([flat]))[0]
        assert g.flat_index_of(p) == flat
    with pytest.raises(ValueError):
        g.flat_index_of((9.0, 0.0))  # outside the stored block
    with pytest.raises(ValueError):
        g.flat_index_of((0.13, 0.0), tol_factor=0.05)  # off-node, strict


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_point_arrays_cached_and_read_only(dom1, dom2, dim):
    g = Grid(dom1 if dim == 1 else dom2, 0.25, halo=3)
    for name in ("core", "trace", "exterior"):
        pts = getattr(g, f"{name}_points")
        np.testing.assert_array_equal(
            pts, g.points_at(getattr(g, f"{name}_flat")))
        assert pts.shape == (len(getattr(g, f"{name}_flat")), dim)
        assert getattr(g, f"{name}_points") is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0


def test_grid_requires_aligned_spacing(dom1):
    with pytest.raises(ValueError):
        Grid(dom1, 0.3, halo=2)
