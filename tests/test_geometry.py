import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlhj.geometry import Domain, Grid, signed_distance_many


def signed_distance(dom, x):
    return float(signed_distance_many(dom, np.atleast_2d(x))[0])


def test_signed_distance_interval(dom1):
    assert signed_distance(dom1, 0.0) == 1.0
    assert signed_distance(dom1, 1.0) == 0.0
    assert signed_distance(dom1, 2.0) == -1.0


def test_signed_distance_box(dom2):
    assert np.isclose(signed_distance(dom2, (0.5, 0.9)), 0.1)
    assert np.isclose(signed_distance(dom2, (0.0, 0.0)), 1.0)
    # outside a corner: Euclidean distance
    assert np.isclose(signed_distance(dom2, (2.0, 2.0)), -np.sqrt(2.0))


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


@pytest.mark.parametrize("dom", [Domain((-1,), (1,)),
                                 Domain((0.3, -1.25), (1.3, 0.5))])
def test_inward_normal_is_unit_and_points_inside(dom):
    # a quarter step from a face's midpoint along its normal lands at
    # distance 0.25 inside, the nearest face still being that one
    for f, mid in enumerate(dom.face_midpoints()):
        n = dom.inward_normal(f)
        assert np.linalg.norm(n) == 1.0
        assert signed_distance(dom, mid + 0.25 * n) == pytest.approx(0.25)


def test_domain_invariants():
    with pytest.raises(ValueError):
        Domain((1,), (-1,))


def test_grid_classification(dom1):
    # the box node sets agree with the signed-distance rule: core nodes have
    # d > -h/2, trace nodes |d| < h/2, exterior nodes the rest
    shifted = Domain((0.3, -1.25), (1.3, 0.5))
    for dom, h, halo in [(dom1, 0.25, 4), (shifted, 0.25, 1),
                         (shifted, 0.25, 3), (shifted, 0.125, 3)]:
        g = Grid(dom, h, halo=halo)
        flat = np.arange(g.size)
        pts = g.points_at(flat)
        d = signed_distance_many(dom, pts)
        trace = g.core_flat[g.trace_pos]
        np.testing.assert_array_equal(trace, flat[np.abs(d) < h / 2])
        np.testing.assert_array_equal(g.core_flat, flat[d > -h / 2])
        np.testing.assert_array_equal(g.exterior_flat, flat[d <= -h / 2])
        np.testing.assert_array_equal(g.core_points, pts[g.core_flat])
        np.testing.assert_array_equal(g.trace_points, pts[trace])
        np.testing.assert_array_equal(g.exterior_points, pts[g.exterior_flat])
    # trace nodes sit exactly on the boundary for an aligned lattice
    g = Grid(dom1, 0.25, halo=4)
    pts = g.points_at(np.arange(g.size))[:, 0]
    assert sorted(pts[g.core_flat[g.trace_pos]].tolist()) == [-1.0, 1.0]


def test_grid_flat_index_roundtrip(dom2):
    g = Grid(dom2, 0.5, halo=2)
    for flat in [0, 7, g.size - 1]:
        p = g.points_at(np.array([flat]))[0]
        assert g.flat_index_of(p) == flat
    with pytest.raises(ValueError):
        g.flat_index_of((9.0, 0.0))  # outside the stored block


def test_grid_flat_index_within_half_a_step(dom1):
    # a point 0.4 h off a node is found; one 0.6 h past the last stored node
    # is nearer no node of the block and is refused
    g = Grid(dom1, 0.25, halo=2)
    assert g.flat_index_of(0.5 + 0.4 * g.h) == g.flat_index_of(0.5)
    assert g.flat_index_of(0.5 - 0.4 * g.h) == g.flat_index_of(0.5)
    last = g.axes[0][-1]
    assert g.flat_index_of(last + 0.4 * g.h) == g.size - 1
    with pytest.raises(ValueError):
        g.flat_index_of(last + 0.6 * g.h)


@pytest.mark.parametrize("dim", [1, 2])
def test_grid_point_arrays_cached_and_read_only(dom1, dom2, dim):
    g = Grid(dom1 if dim == 1 else dom2, 0.25, halo=3)
    flats = {"core": g.core_flat, "trace": g.core_flat[g.trace_pos],
             "exterior": g.exterior_flat}
    for name, flat in flats.items():
        pts = getattr(g, f"{name}_points")
        np.testing.assert_array_equal(pts, g.points_at(flat))
        assert pts.shape == (len(flat), dim)
        assert getattr(g, f"{name}_points") is pts
        with pytest.raises(ValueError):
            pts[0, 0] = 0.0


def test_grid_requires_aligned_spacing(dom1):
    with pytest.raises(ValueError):
        Grid(dom1, 0.3, halo=2)
