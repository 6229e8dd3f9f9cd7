"""Spatial domain: intervals and axis-aligned boxes, signed distance, grids.

The domain is an open interval (1-D) or open box (2-D).  The signed distance
d(x) is positive inside, negative outside, zero on the boundary, and
1-Lipschitz.  Its gradient is the inward unit normal of the nearest face and
is only defined away from box corners.  A :class:`Grid` needs no distance:
its sides are multiples of h, so its node sets are index boxes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CornerAmbiguity


@dataclass(frozen=True)
class Domain:
    """Open interval or axis-aligned open box.

    ``corner_exclusion`` is the radius around each corner (2-D) inside which
    gradient evaluation is refused; boundary experiments sample face
    midpoints only.
    """

    lower: tuple
    upper: tuple
    corner_exclusion: float = 0.0

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lower))
        hi = tuple(float(v) for v in np.atleast_1d(self.upper))
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or len(lo) not in (1, 2):
            raise ValueError("domain must be a 1-D interval or 2-D box")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError("domain lower corner must be below upper corner")

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def sides(self) -> tuple:
        return tuple(b - a for a, b in zip(self.lower, self.upper))

    @property
    def diameter(self) -> float:
        return float(np.hypot(*self.sides)) if self.dim == 2 else self.sides[0]

    def corners(self) -> np.ndarray:
        if self.dim == 1:
            return np.empty((0, 1))
        lo, hi = self.lower, self.upper
        return np.array([[lo[0], lo[1]], [lo[0], hi[1]], [hi[0], lo[1]], [hi[0], hi[1]]])

    def face_names(self):
        if self.dim == 1:
            return ["left", "right"]
        return ["x_lo", "x_hi", "y_lo", "y_hi"]

    def face_midpoints(self) -> np.ndarray:
        lo, hi = self.lower, self.upper
        if self.dim == 1:
            return np.array([[lo[0]], [hi[0]]])
        cx, cy = (lo[0] + hi[0]) / 2, (lo[1] + hi[1]) / 2
        return np.array([[lo[0], cy], [hi[0], cy], [cx, lo[1]], [cx, hi[1]]])


def signed_distance(dom: Domain, x) -> float:
    """d(x): positive inside, negative outside, zero on the boundary."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = np.array(dom.lower)
    hi = np.array(dom.upper)
    inside_margin = np.minimum(x - lo, hi - x)
    if np.all(inside_margin >= 0.0):
        return float(inside_margin.min())
    # outside: negative Euclidean distance to the box
    outside = np.maximum(np.maximum(lo - x, x - hi), 0.0)
    return -float(np.linalg.norm(outside))


def signed_distance_many(dom: Domain, pts: np.ndarray) -> np.ndarray:
    pts = np.asarray(pts, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    lo = np.array(dom.lower)
    hi = np.array(dom.upper)
    inside_margin = np.minimum(pts - lo, hi - pts).min(axis=1)
    outside = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    out_dist = np.linalg.norm(outside, axis=1)
    return np.where(out_dist > 0.0, -out_dist, inside_margin)


def distance_gradient(dom: Domain, x, tol: float = 1e-12) -> np.ndarray:
    """Inward unit normal of the nearest face, |Dd| = 1.

    Raises CornerAmbiguity when two faces are equidistant within ``tol`` or
    (2-D) when x is inside the corner exclusion radius.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lo = np.array(dom.lower)
    hi = np.array(dom.upper)
    if dom.dim == 2 and dom.corner_exclusion > 0.0:
        d_corner = np.linalg.norm(dom.corners() - x, axis=1).min()
        if d_corner < dom.corner_exclusion:
            raise CornerAmbiguity(f"point {x} within corner exclusion radius")
    # face clearances; nearest face by clearance inside, by |clearance| outside
    dists = np.concatenate([x - lo, hi - x])
    normals = np.vstack([np.eye(dom.dim), -np.eye(dom.dim)])
    if signed_distance(dom, x) < 0:
        violated = dists < -tol
        if violated.sum() > 1:
            # exterior diagonal region: nearest boundary point is a corner
            raise CornerAmbiguity(f"point {x} projects onto a corner")
        if violated.sum() == 0:
            raise CornerAmbiguity(f"point {x} has no unique nearest face")
        # outside: only the violated face matters
        return normals[int(np.argmax(violated))].astype(float)
    order = np.argsort(dists)
    best, second = order[0], (order[1] if len(order) > 1 else None)
    if dom.dim == 2 and second is not None and abs(dists[best] - dists[second]) <= tol:
        raise CornerAmbiguity(f"two faces equidistant at {x}")
    return normals[best].astype(float)


@dataclass
class Grid:
    """Uniform lattice covering the closed domain plus an exterior halo.

    Node coordinates along axis a are ``lower[a] + i*h`` for
    ``i in [-halo, n_core[a] + halo]``; the domain's sides are multiples of
    h, so its closure holds exactly the box ``0 <= i_a <= n_core[a]`` of
    core nodes, and the trace nodes (on the boundary) are the box's faces.
    Storage is a flat float array in row major order; ``core_flat`` lists
    the flat indices of the core nodes, ``trace_flat`` those of the trace
    nodes, ``exterior_flat`` the rest and ``trace_pos`` the positions of
    the trace nodes in core order.  ``core_points``, ``trace_points`` and
    ``exterior_points`` hold the coordinates of each node set, read-only as
    every run shares them; the exterior sets span the whole halo and are
    built on first read.
    """

    domain: Domain
    h: float
    halo: int

    shape: tuple = field(init=False)
    core_flat: np.ndarray = field(init=False, repr=False)
    trace_flat: np.ndarray = field(init=False, repr=False)
    trace_pos: np.ndarray = field(init=False, repr=False)
    core_points: np.ndarray = field(init=False, repr=False)
    trace_points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("grid spacing must be positive")
        self.n_core = tuple(int(round(s / self.h)) for s in self.domain.sides)
        for n, s in zip(self.n_core, self.domain.sides):
            if abs(n * self.h - s) > 1e-9 * max(1.0, s):
                raise ValueError("domain side must be an integer multiple of h")
        self.axes = tuple(
            self.domain.lower[a] + self.h * np.arange(-self.halo, self.n_core[a] + self.halo + 1)
            for a in range(self.domain.dim))
        self.shape = tuple(len(ax) for ax in self.axes)
        box = tuple(n + 1 for n in self.n_core)
        self.core_flat = np.ravel_multi_index(
            tuple(i.ravel() + self.halo for i in np.indices(box)), self.shape)
        face = np.ones(box, dtype=bool)
        face[(slice(1, -1),) * self.dim] = False
        self.trace_pos = np.flatnonzero(face)
        self.trace_flat = self.core_flat[self.trace_pos]
        self.core_points = self.points_at(self.core_flat)
        self.trace_points = self.core_points[self.trace_pos]
        self.core_points.setflags(write=False)
        self.trace_points.setflags(write=False)

    @cached_property
    def exterior_flat(self) -> np.ndarray:
        outside = np.ones(self.shape, dtype=bool)
        outside[tuple(slice(self.halo, self.halo + n + 1) for n in self.n_core)] = False
        return np.flatnonzero(outside)

    @cached_property
    def exterior_points(self) -> np.ndarray:
        p = self.points_at(self.exterior_flat)
        p.setflags(write=False)
        return p

    @property
    def dim(self):
        return self.domain.dim

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def strides(self) -> tuple:
        if self.dim == 1:
            return (1,)
        return (self.shape[1], 1)

    def points_at(self, flat_idx) -> np.ndarray:
        idx = np.unravel_index(np.asarray(flat_idx), self.shape)
        return np.column_stack([ax[i] for ax, i in zip(self.axes, idx)])

    def flat_index_of(self, x, tol_factor: float = 0.5):
        """Flat index of the lattice node nearest to point x.

        Raises ValueError when x is farther than ``tol_factor*h`` from every
        node or falls outside the stored block.
        """
        x = np.atleast_1d(np.asarray(x, dtype=float))
        idx = []
        for a in range(self.dim):
            i = int(round((x[a] - self.axes[a][0]) / self.h))
            if not (0 <= i < self.shape[a]):
                raise ValueError(f"point {x} outside stored grid block")
            if abs(self.axes[a][i] - x[a]) > tol_factor * self.h:
                raise ValueError(f"point {x} is not a lattice node")
            idx.append(i)
        return int(np.ravel_multi_index(idx, self.shape))
