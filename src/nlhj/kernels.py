"""Jump kernels K^alpha(z) = K(z)|z|^{-(n+alpha)} and lattice quadrature.

The quadrature covers lattice cells out to a truncation radius r_max, in
one dense table of per-cell kernel masses centred on the origin.  Cells
whose midpoint lies inside the near-field radius ``r_cut`` hold 0 in it: for
alpha < 1 their contribution vanishes under refinement and they are dropped;
for alpha >= 1 they are replaced by a symmetric second-difference rule
carrying the exact second moment of the kernel over the near region.  Cells
beyond r_max hold 0 too; the mass they neglect is bounded from above
analytically (``tail_mass``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidResolution
from .geometry import Domain, signed_distance_many


@dataclass(frozen=True)
class Kernel:
    """Kernel data: order, dimension, bounded density K and its metadata.

    ``profile`` maps radius arrays to K values (all built-in kernels are
    radial).  ``const_value`` is set when K is a constant, enabling exact
    power-law cell integrals in 1-D; ``support_radius`` is set only by an
    indicator kernel, K = 1 within it and 0 beyond.  Ellipticity constants
    (c1, c2) witness (UE), K >= c2 on |z| <= c1, when present.
    """

    alpha: float
    dim: int
    profile: object
    kmax: float
    const_value: float | None = None
    support_radius: float | None = None
    c1: float | None = None
    c2: float | None = None

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ValueError("kernel order alpha must lie in (0, 2)")
        if self.dim not in (1, 2):
            raise ValueError("kernel dimension must be 1 or 2")
        if self.kmax < 0:
            raise ValueError("kernel bound must be nonnegative")


def _unit_profile(r):
    return np.ones_like(r)


def fractional_laplacian_kernel(alpha: float, dim: int = 1) -> Kernel:
    """K identically 1 (normalization constant set to 1 by convention).
    Its profile is one module-level function, so that two such kernels of
    the same alpha and dim compare equal."""
    return Kernel(alpha, dim, _unit_profile, kmax=1.0,
                  const_value=1.0, c1=1.0, c2=1.0)


@dataclass(frozen=True)
class _IndicatorProfile:
    """K(r) = 1 on r <= rho, else 0; equal radii give equal profiles."""

    rho: float

    def __call__(self, r):
        return (r <= self.rho).astype(float)


@dataclass(frozen=True)
class _TabulatedProfile:
    """K(r) interpolated linearly in a table of (radius, value) rows held as
    tuples, clamped at the ends; equal tables give equal profiles."""

    radii: tuple
    values: tuple

    def __call__(self, r):
        return np.interp(r, self.radii, self.values)


def indicator_kernel(alpha: float, dim: int, rho: float) -> Kernel:
    """K = 1 on |z| <= rho, else 0.  rho = 0 yields the zero kernel."""
    if rho < 0:
        raise ValueError("indicator radius must be nonnegative")
    return Kernel(alpha, dim, _IndicatorProfile(rho),
                  kmax=1.0 if rho > 0 else 0.0,
                  support_radius=rho, c1=rho if rho > 0 else None,
                  c2=1.0 if rho > 0 else None)


def zero_kernel(alpha: float = 0.5, dim: int = 1) -> Kernel:
    return indicator_kernel(alpha, dim, 0.0)


def custom_radial_kernel(alpha: float, dim: int, radii, values) -> Kernel:
    """Tabulated radial profile, interpolated linearly, clamped at the ends;
    its radii, read in order, must increase strictly."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or len(radii) < 2:
        raise ValueError("profile needs matching 1-D radius/value arrays")
    if not (np.isfinite(radii).all() and np.isfinite(values).all()):
        raise ValueError("profile radii and values must be finite")
    if np.any(np.diff(radii) <= 0):
        raise ValueError("profile radii must increase strictly")
    if np.any(values < 0):
        raise ValueError("kernel density must be nonnegative")
    prof = _TabulatedProfile(tuple(radii.tolist()), tuple(values.tolist()))
    return Kernel(alpha, dim, prof, kmax=float(values.max()))


@dataclass
class QuadratureTable:
    """Lattice weights for the truncated nonlocal operator.

    ``weights`` is the dense, centred ``(2J+1)^dim`` table of per-cell kernel
    masses (>= 0): the jump by the lattice offset z has the weight
    ``weights[z + J]``, which is 0 at near-field offsets and beyond r_max.
    ``sum_w`` is the total weight and ``m1`` the first moment of the jumps
    inside the unit ball, each summed over the cells the table covers in
    row-major order.  ``nf_axis`` holds, per axis, the exact integral of
    z_axis^2 K^alpha over the near region (zero for alpha < 1, where the
    near field is dropped).  ``tail_mass`` over-estimates the kernel mass
    beyond the covered region (``tail_sides`` splits it per direction in
    1-D).
    """

    kernel: Kernel
    h: float
    r_max: float
    r_cut: float
    weights: np.ndarray
    nf_axis: np.ndarray
    tail_mass: float
    tail_sides: np.ndarray
    sum_w: float
    m1: np.ndarray

    @property
    def J(self) -> int:
        """Reach of the table in lattice steps per axis."""
        return self.weights.shape[0] // 2

    @property
    def alpha(self) -> float:
        return self.kernel.alpha

    @property
    def dim(self) -> int:
        return self.kernel.dim

    @property
    def nf_mass(self) -> float:
        """Near-field second-difference diagonal mass (enters the CFL bound)."""
        return float(self.nf_axis.sum() / self.h ** 2)

    @property
    def lam(self) -> float:
        """Total operator mass: weights + near-field mass + tail bound."""
        return self.sum_w + self.nf_mass + self.tail_mass


def _cell_integral_1d(k: Kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact integral of K^alpha over [a, b] (0 < a < b) where possible."""
    alpha = k.alpha
    if k.const_value is not None:
        return k.const_value * (a ** -alpha - b ** -alpha) / alpha
    if k.support_radius is not None:
        rho = k.support_radius
        bb = np.minimum(b, rho)
        out = np.zeros_like(a)
        mask = bb > a
        out[mask] = (a[mask] ** -alpha - bb[mask] ** -alpha) / alpha
        return out
    # midpoint rule per cell
    mid = 0.5 * (a + b)
    return k.profile(mid) * mid ** (-(1 + alpha)) * (b - a)


def _near_second_moments(k: Kernel, h: float, near_offsets: np.ndarray) -> np.ndarray:
    """Per-axis integral of z_axis^2 K^alpha over the union of near cells."""
    dim = k.dim
    out = np.zeros(dim)
    if dim == 1:
        edge = (np.abs(near_offsets[:, 0]).max() + 0.5) * h
        if k.const_value is not None:
            out[0] = 2.0 * k.const_value * edge ** (2 - k.alpha) / (2 - k.alpha)
            return out
        # fine midpoint subdivision of [0, edge], doubled by symmetry? K may
        # be asymmetric in principle, but built-in kernels are radial.
        s = np.linspace(0, edge, 4097)
        r = 0.5 * (s[1:] + s[:-1])
        vals = k.profile(r) * r ** (1 - k.alpha)  # z^2 * r^{-(1+alpha)}
        out[0] = 2.0 * float(np.sum(vals) * (s[1] - s[0]))
        return out
    # 2-D: subdivide each near cell, midpoint sum (integrand r^{-alpha} scale)
    sub = 64
    loc = (np.arange(sub) + 0.5) / sub - 0.5
    lx, ly = np.meshgrid(loc, loc, indexing="ij")
    for off in near_offsets:
        cx = (off[0] + lx.ravel()) * h
        cy = (off[1] + ly.ravel()) * h
        r = np.hypot(cx, cy)
        good = r > 0
        dens = np.zeros_like(r)
        dens[good] = k.profile(r[good]) * r[good] ** (-(2 + k.alpha))
        area = (h / sub) ** 2
        out[0] += float(np.sum(cx ** 2 * dens) * area)
        out[1] += float(np.sum(cy ** 2 * dens) * area)
    return out


def build_quadrature(k: Kernel, h: float, r_max: float) -> QuadratureTable:
    """Precompute lattice weights for the operator of order alpha.

    The near-field radius ``r_cut`` follows from h and alpha: h for
    alpha < 1 (origin cell dropped) and max(h, sqrt(h)) for alpha >= 1, where
    the enlarged second-difference near field keeps the scheme consistent of
    order >= 1 in h.
    """
    if h <= 0:
        raise ValueError("spacing must be positive")
    if r_max < 10 * h:
        raise InvalidResolution(f"r_max = {r_max} below 10*h = {10 * h}")
    r_cut = h if k.alpha < 1 else max(h, float(np.sqrt(h)))

    J = int(np.floor(r_max / h + 1e-12))
    # |z| as np.linalg.norm takes it, the square root of summed squares
    sq = (np.arange(-J, J + 1) * h) ** 2
    norms = np.sqrt(sq if k.dim == 1 else sq[:, None] + sq[None, :])
    keep = norms <= r_max + 1e-12
    near = keep & ((norms < r_cut * (1 - 1e-12)) | (norms == 0))
    far = keep & ~near
    ball = far & (norms <= 1.0 + 1e-14)
    far_norms = norms[far]
    del norms  # the largest temporary: free it before the weights
    near_offsets = np.argwhere(near) - J

    if k.dim == 1:
        w = _cell_integral_1d(k, far_norms - 0.5 * h, far_norms + 0.5 * h)
    else:
        # K(|z|) |z|^-(2+alpha) h^2, multiplied in place in that order
        w = far_norms ** (-(2 + k.alpha))
        w *= k.profile(far_norms)
        w *= h ** 2
    np.maximum(w, 0.0, out=w)
    weights = np.zeros(far.shape)
    weights[far] = w
    # C order, as an offset list: sum(axis=0) then adds row after row
    zs = (np.column_stack(np.nonzero(ball)) - J) * h
    m1 = (weights[ball][:, None] * zs).sum(axis=0)

    if k.alpha >= 1:
        nf_axis = _near_second_moments(k, h, near_offsets)
    else:
        nf_axis = np.zeros(k.dim)

    # Tail beyond the covered region, using K <= kmax (exact coverage radius
    # in 1-D; inscribed radius of the covered cell union in 2-D).
    if k.dim == 1:
        r_cov = (J + 0.5) * h
        surf = 2.0
    else:
        r_cov = max(r_max - h, r_max / 2)
        surf = 2.0 * np.pi
    if k.support_radius is not None and k.support_radius <= r_cov:
        tail = 0.0
    else:
        tail = k.kmax * surf * r_cov ** (-k.alpha) / k.alpha
    if k.dim == 1:
        tail_sides = np.array([tail / 2.0, tail / 2.0])
    else:
        tail_sides = np.array([tail])

    return QuadratureTable(kernel=k, h=h, r_max=r_max, r_cut=r_cut,
                           weights=weights, nf_axis=nf_axis,
                           tail_mass=float(tail), tail_sides=tail_sides,
                           sum_w=float(w.sum()), m1=m1)


def exterior_mass(k: Kernel, dom: Domain, x, qt: QuadratureTable) -> float:
    """Quadrature estimate of the kernel mass over Omega^c - x.

    Includes the tail over-estimate; valid for x in the closed domain with
    r_max exceeding the domain diameter (the tail is then fully exterior).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    idx = np.argwhere(qt.weights)
    outside = signed_distance_many(dom, x + (idx - qt.J) * qt.h) <= 0.0
    return float(qt.weights[tuple(idx.T)][outside].sum()) + qt.tail_mass


def _outside(v: np.ndarray, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """Per pair (start, stop), the sum of v[j] over j < start and j >= stop
    along the first axis.  Each tail is a prefix sum accumulated from its far
    end, so the small far weights come first."""
    zero = np.zeros((1,) + v.shape[1:])
    left = np.concatenate([zero, np.cumsum(v, axis=0)])
    right = np.concatenate([np.cumsum(v[::-1], axis=0)[::-1], zero])
    return left[start] + right[stop]


def exterior_mass_many(qt: QuadratureTable, n_core: tuple) -> np.ndarray:
    """:func:`exterior_mass` at every node of a core box, in row-major order:
    the lattice ``lower + i*h``, ``0 <= i_a <= n_core[a]``, of a box whose
    sides are ``n_core[a]*h``.

    A jump z from node i lands on a strictly interior node iff
    ``0 < i_a + z_a < n_core[a]`` on every axis; trace nodes (d = 0) count as
    exterior, as in :func:`exterior_mass`.  Per axis that is one interval of
    offsets, so with the weights W on ``|z_a| <= n_core[a]`` (no longer jump
    from the core lands inside; the table sliced or zero-padded to that box)
    the mass is the sum of W outside one rectangle, plus the weights beyond
    it and the tail: ``sum_w - inside + tail_mass``.  It is summed over the
    rectangle's complement instead, W out_0 in 1-D and W out_0 + W in_0 out_1
    in 2-D, by prefix sums from the far ends, so the large near weights
    inside never cancel and the result agrees with :func:`exterior_mass` to
    rounding.
    """
    J = qt.J
    reach = [min(J, n) for n in n_core]
    box = tuple(slice(J - r, J + r + 1) for r in reach)
    W = np.pad(qt.weights[box], [(n - r, n - r) for n, r in zip(n_core, reach)])
    # per axis, the rows [start, stop) of W, z in [1 - i, n - 1 - i], that
    # land inside from node i
    cuts = []
    for n in n_core:
        i = np.arange(n + 1)
        cuts.append((n + 1 - i, 2 * n - i))
    beyond = qt.weights != 0
    beyond[box] = False
    rest = float(qt.weights[beyond].sum()) + qt.tail_mass
    if qt.dim == 1:
        (start, stop), = cuts
        return _outside(W, start, stop) + rest
    (s0, e0), (s1, e1) = cuts
    out_0 = _outside(W.sum(axis=1), s0, e0)
    out_1 = _outside(W.T, s1, e1).T  # per row z_0 and node i_1
    # the rows inside are all rows less those outside: both sums are parts
    # of the exterior mass, so their difference cancels nothing large
    in_0_out_1 = out_1.sum(axis=0) - _outside(out_1, s0, e0)
    return (out_0[:, None] + in_0_out_1).ravel() + rest
