"""Coercive and Bellman Hamiltonian families with monotone numerical fluxes
and computable assumption checkers.

Coefficient fields may be numbers, expression strings (see ``expressions``),
or callables ``f(points, t) -> values`` with ``points`` of shape (N, dim).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ViscosityUnderflow
from .expressions import Expression
from .geometry import Domain
from .kernels import Kernel, QuadratureTable, exterior_mass_many


class CoefficientField:
    """Scalar coefficient on (closed domain) x time, vectorized over points."""

    def __init__(self, value, name: str = ""):
        self.name = name
        if isinstance(value, CoefficientField):
            self._fn = value._fn
            self.time_dependent = value.time_dependent
            self.constant = value.constant
        elif np.isscalar(value) and not isinstance(value, str):
            v = float(value)
            self._fn = lambda pts, t: np.full(pts.shape[0], v)
            self.time_dependent = False
            self.constant = v
        elif isinstance(value, str):
            expr = Expression(value)
            self._fn = expr
            self.time_dependent = expr.time_dependent
            self.constant = None
        elif callable(value):
            self._fn = value
            self.time_dependent = getattr(value, "time_dependent", True)
            self.constant = None
        else:
            raise TypeError(f"cannot build coefficient from {value!r}")

    def __call__(self, pts: np.ndarray, t: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.broadcast_to(np.asarray(self._fn(pts, t), dtype=float),
                               (pts.shape[0],)).copy()


def tabulated_coefficient(points, values, name: str = "") -> CoefficientField:
    """Coefficient from a tabulated grid, linearly interpolated (1-D only),
    constant in time."""
    xs = np.asarray(points, dtype=float).ravel()
    vals = np.asarray(values, dtype=float).ravel()
    if xs.shape != vals.shape or len(xs) < 2:
        raise ValueError("tabulated coefficient needs matching 1-D arrays")
    order = np.argsort(xs)
    xs, vals = xs[order], vals[order]

    def fn(pts, t):
        return np.interp(np.atleast_2d(pts)[:, 0], xs, vals)

    fn.time_dependent = False
    return CoefficientField(fn, name)


def vector_coefficient(value, dim: int, name: str = ""):
    """Per-axis list of coefficient fields for a drift term."""
    if value is None:
        return None
    if isinstance(value, (list, tuple)):
        if len(value) != dim:
            raise ValueError(f"drift {name} needs {dim} components")
        return [CoefficientField(v, f"{name}[{a}]") for a, v in enumerate(value)]
    return [CoefficientField(value, name)] if dim == 1 else None


def eval_vector(comps, pts: np.ndarray, t: float) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.column_stack([c(pts, t) for c in comps])


@dataclass
class CoerciveSpec:
    """H = a1(x)|p|^m + a2(x)|p|^l + b(x).p + lam(x) r - f(x, t), l < m.

    The drift b is only admitted in the superlinear case m > 1; a1 must be
    bounded below by a positive constant (checked on grid samples).
    """

    m: float
    a1: object = 1.0
    a2: object = 0.0
    l: float = 0.0
    b: object = None
    lam: object = 0.0
    f: object = 0.0
    dim: int = 1
    grad_floor: float = 1e-2  # caps |p|^(e-1) bounds for sublinear exponents

    def __post_init__(self):
        if self.m <= 0 or self.l < 0 or self.l >= self.m:
            raise ValueError("exponents must satisfy 0 <= l < m, m > 0")
        self.a1 = CoefficientField(self.a1, "a1")
        self.a2 = CoefficientField(self.a2, "a2")
        self.lam = CoefficientField(self.lam, "lam")
        self.f = CoefficientField(self.f, "f")
        self.b = vector_coefficient(self.b, self.dim, "b")
        if self.b is not None and self.m <= 1:
            raise ValueError("drift term requires superlinear coercivity m > 1")

    @property
    def family(self):
        return "coercive"

    @property
    def time_dependent(self) -> bool:
        return self.f.time_dependent

    def validate(self, pts: np.ndarray, c0_min: float = 1e-12):
        a1 = self.a1(pts, 0.0)
        lam = self.lam(pts, 0.0)
        problems = []
        if a1.min() < c0_min:
            problems.append(f"a1 not bounded below by a positive constant (min {a1.min()})")
        if lam.min() < 0:
            problems.append(f"lam must be nonnegative (min {lam.min()})")
        return problems

    def c0(self, pts: np.ndarray) -> float:
        return float(self.a1(pts, 0.0).min())


@dataclass
class ControlLaw:
    """One control's coefficient triple for the Bellman supremum."""

    lam: object = 0.0
    b: object = 0.0
    f: object = 0.0
    dim: int = 1

    def __post_init__(self):
        self.lam = CoefficientField(self.lam, "lam")
        self.f = CoefficientField(self.f, "f")
        b = self.b if self.b is not None else 0.0
        self.b = vector_coefficient(b, self.dim, "b")


@dataclass
class BellmanSpec:
    """H = max over controls of (lam_b r - b_b . p - f_b)."""

    controls: list
    lipschitz: float | None = None
    dim: int = 1

    def __post_init__(self):
        if not self.controls:
            raise ValueError("control set must be nonempty")

    @property
    def family(self):
        return "bellman"

    @property
    def time_dependent(self) -> bool:
        return any(c.lam.time_dependent or c.f.time_dependent or
                   any(bc.time_dependent for bc in c.b) for c in self.controls)

    def drift_bound(self, pts: np.ndarray, t: float) -> np.ndarray:
        """Per-axis max |b| over controls and points, at time t."""
        out = np.zeros(self.dim)
        for c in self.controls:
            bv = np.abs(eval_vector(c.b, pts, t))
            out = np.maximum(out, bv.max(axis=0))
        return out

    def check_lipschitz(self, dom: Domain, t_window=(0.0, 1.0), n: int = 200,
                        seed: int = 0):
        """Sampled space-time Lipschitz quotients of each drift vs (L)."""
        rng = np.random.default_rng(seed)
        lo, hi = np.array(dom.lower), np.array(dom.upper)
        xs = lo + rng.random((n, dom.dim)) * (hi - lo)
        ys = lo + rng.random((n, dom.dim)) * (hi - lo)
        ts = t_window[0] + rng.random(n) * (t_window[1] - t_window[0])
        ss = t_window[0] + rng.random(n) * (t_window[1] - t_window[0])
        worst = 0.0
        for c in self.controls:
            for i in range(n):
                num = np.linalg.norm(eval_vector(c.b, xs[i][None], ts[i])[0] -
                                     eval_vector(c.b, ys[i][None], ss[i])[0])
                den = np.linalg.norm(xs[i] - ys[i]) + abs(ts[i] - ss[i])
                if den > 1e-12:
                    worst = max(worst, num / den)
        passed = self.lipschitz is None or worst <= self.lipschitz * (1 + 1e-9)
        return Certificate("lipschitz_L", passed, worst,
                           {"declared": self.lipschitz})


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def _coercive_values(spec: CoerciveSpec, pts, t, r, p) -> np.ndarray:
    pts = np.atleast_2d(pts)
    p = np.atleast_2d(p)
    pn = np.linalg.norm(p, axis=1)
    out = spec.a1(pts, t) * pn ** spec.m
    a2 = spec.a2(pts, t)
    if np.any(a2 != 0.0):
        out = out + a2 * pn ** spec.l
    if spec.b is not None:
        out = out + np.einsum("ij,ij->i", eval_vector(spec.b, pts, t), p)
    return out + spec.lam(pts, t) * np.asarray(r) - spec.f(pts, t)


def _bellman_values(spec: BellmanSpec, pts, t, r, p) -> np.ndarray:
    pts = np.atleast_2d(pts)
    p = np.atleast_2d(p)
    best = None
    for c in spec.controls:
        val = (c.lam(pts, t) * np.asarray(r)
               - np.einsum("ij,ij->i", eval_vector(c.b, pts, t), p)
               - c.f(pts, t))
        best = val if best is None else np.maximum(best, val)
    return best


def hamiltonian_values(spec, pts, t, r, p) -> np.ndarray:
    """Vectorized H(x, t, r, p) over rows of pts/p."""
    if spec.family == "coercive":
        return _coercive_values(spec, pts, t, r, p)
    return _bellman_values(spec, pts, t, r, p)


def eval_hamiltonian(spec, x, t: float, r: float, p) -> float:
    """Pointwise Hamiltonian value; the Bellman sup is a max over the finite
    control set."""
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    p = np.atleast_1d(np.asarray(p, dtype=float))[None, :]
    return float(hamiltonian_values(spec, x, t, np.array([r]), p)[0])


def lf_viscosity_bound(spec: CoerciveSpec, pts, t, p_scale: float) -> np.ndarray:
    """Per-axis upper bound for |dH/dp| over gradients up to p_scale.

    Exponents below 1 have unbounded derivative at p = 0; the bound then uses
    the configured gradient floor, so strict monotonicity is certified only
    for m, l >= 1 (or vanishing a2).
    """
    pts = np.atleast_2d(pts)

    def pow_bound(e):
        if e >= 0:
            return p_scale ** e
        return max(p_scale, spec.grad_floor) ** e if p_scale > 0 else spec.grad_floor ** e

    s = float(spec.a1(pts, t).max()) * spec.m * pow_bound(spec.m - 1)
    a2max = float(np.abs(spec.a2(pts, t)).max())
    if a2max > 0 and spec.l > 0:
        s += a2max * spec.l * pow_bound(spec.l - 1)
    out = np.full(spec.dim, s)
    if spec.b is not None:
        out += np.abs(eval_vector(spec.b, pts, t)).max(axis=0)
    return out


def numerical_hamiltonian_many(spec, pts, t, r, p_minus, p_plus,
                               sigma=None) -> np.ndarray:
    """Monotone flux, vectorized: Lax-Friedrichs (coercive) or exact
    upwinding (Bellman).

    Nonincreasing in every p_plus component and nondecreasing in every
    p_minus component; equals the pointwise Hamiltonian when the two one-sided
    gradients coincide.
    """
    pts = np.atleast_2d(pts)
    pm = np.atleast_2d(p_minus).astype(float)
    pp = np.atleast_2d(p_plus).astype(float)
    if spec.family == "bellman":
        best = None
        for c in spec.controls:
            bv = eval_vector(c.b, pts, t)
            # -b.p advects against the drift: information comes from the +b
            # side, so positive components read the forward difference
            p_sel = np.where(bv > 0, pp, pm)
            val = (c.lam(pts, t) * np.asarray(r)
                   - np.einsum("ij,ij->i", bv, p_sel) - c.f(pts, t))
            best = val if best is None else np.maximum(best, val)
        return best
    mid = 0.5 * (pm + pp)
    scale = float(np.linalg.norm(mid, axis=1).max(initial=0.0))
    required = lf_viscosity_bound(spec, pts, t, scale)
    if sigma is None:
        sigma = required + 1.0
    else:
        sigma = np.broadcast_to(np.atleast_1d(np.asarray(sigma, dtype=float)),
                                (spec.dim,))
        if np.any(sigma < required - 1e-12):
            raise ViscosityUnderflow(
                f"LF viscosity {sigma} below sampled |dH/dp| bound {required}",
                required=required)
    out = _coercive_values(spec, pts, t, r, mid)
    out = out - 0.5 * ((pp - pm) * sigma[None, :]).sum(axis=1)
    return out


def numerical_hamiltonian(spec, x, t: float, r: float, p_minus, p_plus,
                          sigma=None) -> float:
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    pm = np.atleast_1d(np.asarray(p_minus, dtype=float))[None, :]
    pp = np.atleast_1d(np.asarray(p_plus, dtype=float))[None, :]
    return float(numerical_hamiltonian_many(spec, x, t, np.array([r]),
                                            pm, pp, sigma)[0])


# ---------------------------------------------------------------------------
# assumption checkers
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    name: str
    passed: bool
    value: float
    details: dict = dfield(default_factory=dict)

    def as_dict(self):
        d = {"name": self.name, "passed": bool(self.passed), "value": self.value}
        d.update({k: v for k, v in self.details.items()
                  if isinstance(v, (int, float, str, bool, type(None)))})
        return d


def properness_floor(spec, pts: np.ndarray, t_window=(0.0, 1.0),
                     n_times: int = 9) -> np.ndarray:
    """Floor function h(x) for the built-in families.

    Coercive: exactly lam(x).  Bellman: min over controls of lam_b(x, t)
    sampled on the time window.  User-supplied Hamiltonians must provide a
    floor explicitly.
    """
    pts = np.atleast_2d(pts)
    if spec.family == "coercive":
        return spec.lam(pts, 0.0)
    ts = np.linspace(t_window[0], t_window[1], n_times)
    out = None
    for c in spec.controls:
        for t in ts:
            v = c.lam(pts, t)
            out = v if out is None else np.minimum(out, v)
    return out


def check_H2(spec, dom: Domain, k: Kernel, qt: QuadratureTable, pts,
             R: float = 1.0, tol: float = 1e-9, h_r=None) -> Certificate:
    """min over grid of h_R(x) + exterior kernel mass; pass iff >= -tol."""
    pts = np.atleast_2d(pts)
    hr = np.asarray(h_r(pts, 0.0) if callable(h_r) else h_r) if h_r is not None \
        else properness_floor(spec, pts, (0.0, R))
    mass = exterior_mass_many(k, dom, pts, qt)
    value = float((hr + mass).min())
    return Certificate("H2", value >= -tol, value, {"R": R})


def check_H2prime(spec, dom: Domain, k: Kernel, qt: QuadratureTable, pts,
                  mu_min: float = 1e-6, floor=None) -> Certificate:
    """Nondegeneracy margin mu0 = min of h(x) + exterior mass; pass iff
    mu0 >= mu_min > 0."""
    pts = np.atleast_2d(pts)
    h = np.asarray(floor(pts, 0.0) if callable(floor) else floor) if floor is not None \
        else properness_floor(spec, pts)
    mass = exterior_mass_many(k, dom, pts, qt)
    mu0 = float((h + mass).min())
    return Certificate("H2prime", mu0 >= mu_min, mu0, {"mu_min": mu_min})


def check_superfractional(spec: CoerciveSpec, k: Kernel, pts) -> Certificate:
    """(A1): m > alpha strictly and a1 bounded below by a positive constant."""
    c0 = spec.c0(np.atleast_2d(pts))
    margin = spec.m - k.alpha
    passed = margin > 0 and c0 > 0
    return Certificate("superfractional_A1", passed, margin, {"c0": c0})


def check_compatibility(u0_field, tol: float | None = None) -> Certificate:
    """(H0): initial values match the datum on the boundary trace."""
    f = u0_field
    gap = f.trace_gap()
    sup_u = float(np.abs(f.raw[f.grid.core_flat]).max(initial=0.0))
    if tol is None:
        tol = 1e-12 * (1.0 + sup_u)
    worst = float(np.abs(gap).max(initial=0.0))
    return Certificate("compatibility_H0", worst <= tol, worst, {"tol": tol})


def check_UE(k: Kernel, n_samples: int = 64) -> Certificate:
    """Uniform ellipticity: K >= c2 on |z| <= c1, spot-checked on samples."""
    if k.c1 is None or k.c2 is None or k.c1 <= 0 or k.c2 <= 0:
        return Certificate("UE", False, 0.0, {"reason": "no ellipticity constants"})
    r = np.linspace(k.c1 / n_samples, k.c1, n_samples)
    vals = np.asarray(k.profile(r), dtype=float)
    worst = float(vals.min())
    return Certificate("UE", worst >= k.c2 - 1e-12, worst,
                       {"c1": k.c1, "c2": k.c2})


def check_H1(spec, pts, R: float = 1.0, n_samples: int = 200,
             seed: int = 0) -> Certificate:
    """(H1) for the built-in families.

    Coercive: H(u) - H(v) = lam(x)(u - v) holds identically, so the check is
    exact with h_R = lam.  Bellman: verified on random samples against
    h_R = min over controls of lam_b.
    """
    pts = np.atleast_2d(pts)
    if spec.family == "coercive":
        lam = spec.lam(pts, 0.0)
        return Certificate("H1", bool(lam.min() >= 0), float(lam.min()),
                           {"exact": True})
    rng = np.random.default_rng(seed)
    worst = np.inf
    floor = properness_floor(spec, pts, (0.0, R))
    for _ in range(n_samples):
        i = rng.integers(0, pts.shape[0])
        t = rng.random() * R
        u = rng.normal()
        v = u - abs(rng.normal())  # u >= v
        p = rng.normal(size=spec.dim)
        hu = eval_hamiltonian(spec, pts[i], t, u, p)
        hv = eval_hamiltonian(spec, pts[i], t, v, p)
        if u > v:
            worst = min(worst, (hu - hv) / (u - v) - floor[i])
    return Certificate("H1", worst >= -1e-9, float(worst), {"exact": False})
