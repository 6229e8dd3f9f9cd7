"""Coercive and Bellman Hamiltonian families with monotone numerical fluxes
and computable assumption checkers.

Coefficient fields may be numbers, expression strings (see ``expressions``),
or callables ``f(points, t) -> values`` with ``points`` of shape (N, dim).
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field as dfield
from types import SimpleNamespace

import numpy as np

from .errors import ViscosityUnderflow
from .expressions import Expression
from .geometry import Domain, Grid
from .kernels import Kernel
from .operators import SweepPlan

# caps the |p|^(e-1) bounds of sublinear exponents (see lf_viscosity_bound)
GRAD_FLOOR = 1e-2


class CoefficientField:
    """Scalar coefficient on (closed domain) x time, vectorized over points.

    ``time_dependent`` and ``varies_in_space`` say which variables the field
    reads; a callable without ``time_dependent`` counts as depending on t,
    and one without ``variables`` as varying in space.
    """

    def __init__(self, value, name: str = ""):
        self.name = name
        if isinstance(value, CoefficientField):
            self._fn = value._fn
            self.time_dependent = value.time_dependent
            self.varies_in_space = value.varies_in_space
            return
        if isinstance(value, str):
            value = Expression(value)
        if np.isscalar(value):
            v = float(value)
            self._fn = lambda pts, t: np.full(pts.shape[0], v)
            self.time_dependent = False
            self.varies_in_space = False
        elif callable(value):
            self._fn = value
            self.time_dependent = getattr(value, "time_dependent", True)
            variables = getattr(value, "variables", None)
            self.varies_in_space = variables is None or not variables <= {"t"}
        else:
            raise TypeError(f"cannot build coefficient from {value!r}")

    def __call__(self, pts: np.ndarray, t: float = 0.0) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        out = np.empty(pts.shape[0])
        out[:] = self._fn(pts, t)  # broadcasts a scalar result
        return out


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
    bounded below by a positive constant (``solver.init_state`` refuses it
    otherwise).
    """

    m: float
    a1: object = 1.0
    a2: object = 0.0
    l: float = 0.0
    b: object = None
    lam: object = 0.0
    f: object = 0.0
    dim: int = 1

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
        return any(c.time_dependent for c in
                   (self.a1, self.a2, self.lam, self.f, *(self.b or ())))


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

    def check_lipschitz(self, dom: Domain):
        """Sampled space-time Lipschitz quotients of each drift vs (L), on
        200 pairs of points of the domain and times in [0, 1]."""
        n = 200
        rng = np.random.default_rng(0)
        lo, hi = np.array(dom.lower), np.array(dom.upper)
        xs = lo + rng.random((n, dom.dim)) * (hi - lo)
        ys = lo + rng.random((n, dom.dim)) * (hi - lo)
        ts = rng.random(n)
        ss = rng.random(n)
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

_TERMS = {"coercive": ("a1", "a2", "lam", "f", "b"), "bellman": ("lam", "b", "f")}


class Coefficients:
    """A Hamiltonian's coefficients evaluated on fixed points at time ``t``,
    with the bounds that the viscosity and the CFL limit take maxima of.

    ``terms`` holds one namespace per control (Bellman) or a single one
    (coercive), with an array per coefficient: shape (N,) for a scalar and
    (N, dim) for the drift ``b`` (None for a coercive form without drift).
    Construction evaluates every field once; :meth:`at` re-evaluates only
    the fields whose own ``time_dependent`` flag is set, and ``moving`` names
    them.  Bounds, over points and terms: ``a1_max`` = max |a1|, ``a2_max`` =
    max |a2| (coercive only), ``lam_max`` = max |lam| and ``b_max`` = max |b|
    per axis.
    """

    def __init__(self, spec, pts: np.ndarray, t: float = 0.0):
        self.spec = spec
        self.pts = pts
        self.t = t
        owners = [spec] if spec.family == "coercive" else spec.controls
        self.terms = []
        self._moving = []  # (term index, name, axis or None, field)
        for k, owner in enumerate(owners):
            term = SimpleNamespace()
            for name in _TERMS[spec.family]:
                src = getattr(owner, name)
                if isinstance(src, list):
                    setattr(term, name, eval_vector(src, pts, t))
                    self._moving += [(k, name, a, c) for a, c in enumerate(src)
                                     if c.time_dependent]
                else:
                    setattr(term, name, None if src is None else src(pts, t))
                    if src is not None and src.time_dependent:
                        self._moving.append((k, name, None, src))
            self.terms.append(term)
        self.moving = frozenset(name for _, name, _, _ in self._moving)
        self._bound()

    def _bound(self):
        terms = self.terms
        if self.spec.family == "coercive":
            a2 = terms[0].a2
            self.a1_max = float(np.abs(terms[0].a1).max())
            self.a2_max = float(np.abs(a2).max())
            self.a2_active = bool(np.any(a2 != 0.0))
        self.lam_max = max(float(np.abs(v.lam).max()) for v in terms)
        self.b_max = np.zeros(self.spec.dim)
        for v in terms:
            if v.b is not None:
                self.b_max = np.maximum(self.b_max, np.abs(v.b).max(axis=0))

    def at(self, t: float) -> "Coefficients":
        """The bundle at time t: re-evaluates the fields that depend on t."""
        if t != self.t:
            for k, name, axis, field in self._moving:
                vals = field(self.pts, t)
                if axis is not None:
                    vals, column = getattr(self.terms[k], name).copy(), vals
                    vals[:, axis] = column
                setattr(self.terms[k], name, vals)
            if self.moving - {"f"}:
                self._bound()
        self.t = t
        return self

    def take(self, i: int) -> "Coefficients":
        """The bundle at the single point ``pts[i]``, at the same time."""
        out = copy.copy(self)
        out.pts = self.pts[i:i + 1]
        out.terms = [SimpleNamespace(**{name: None if v is None else v[i:i + 1]
                                        for name, v in vars(term).items()})
                     for term in self.terms]
        out._bound()
        return out


def _at_point(spec, x, t: float) -> Coefficients:
    return Coefficients(spec, np.atleast_1d(np.asarray(x, dtype=float))[None, :],
                        t)


def _norms(p: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of p, as np.linalg.norm(p, axis=1)."""
    return np.sqrt((p * p).sum(axis=1))


def _coercive_values(c: Coefficients, r, p, pn) -> np.ndarray:
    """The coercive H over rows of p, whose norms ``pn`` the caller took."""
    v, spec = c.terms[0], c.spec
    out = v.a1 * pn ** spec.m
    if c.a2_active:
        out += v.a2 * pn ** spec.l
    if v.b is not None:
        out += np.einsum("ij,ij->i", v.b, p)
    return out + v.lam * np.asarray(r) - v.f


def hamiltonian_values(c: Coefficients, r, p) -> np.ndarray:
    """H(x, t, r, p) at the bundle's points and time, over rows of p."""
    p = np.atleast_2d(p)
    if c.spec.family == "coercive":
        return _coercive_values(c, r, p, _norms(p))
    best = None
    for v in c.terms:
        val = v.lam * np.asarray(r) - np.einsum("ij,ij->i", v.b, p) - v.f
        best = val if best is None else np.maximum(best, val)
    return best


def eval_hamiltonian(spec, x, t: float, r: float, p) -> float:
    """Pointwise Hamiltonian value; the Bellman sup is a max over the finite
    control set."""
    p = np.atleast_1d(np.asarray(p, dtype=float))[None, :]
    return float(hamiltonian_values(_at_point(spec, x, t), np.array([r]), p)[0])


def lf_viscosity_bound(c: Coefficients, p_scale: float) -> np.ndarray:
    """Per-axis upper bound for |dH/dp| over gradients up to p_scale, for
    the coercive coefficients ``c``.

    Exponents below 1 have unbounded derivative at p = 0; the bound then uses
    the gradient floor ``GRAD_FLOOR``, so strict monotonicity is certified
    only for m, l >= 1 (or vanishing a2).
    """
    spec = c.spec

    def pow_bound(e):
        if e >= 0:
            return p_scale ** e
        return max(p_scale, GRAD_FLOOR) ** e if p_scale > 0 else GRAD_FLOOR ** e

    s = c.a1_max * spec.m * pow_bound(spec.m - 1)
    if c.a2_max > 0 and spec.l > 0:
        s += c.a2_max * spec.l * pow_bound(spec.l - 1)
    out = np.full(spec.dim, s)
    if spec.b is not None:
        out += c.b_max
    return out


def numerical_hamiltonian_many(c: Coefficients, r, p_minus, p_plus,
                               sigma=None) -> np.ndarray:
    """Monotone flux at the points of ``c``, vectorized: Lax-Friedrichs
    (coercive) or exact upwinding (Bellman).

    Nonincreasing in every p_plus component and nondecreasing in every
    p_minus component; equals the pointwise Hamiltonian when the two one-sided
    gradients coincide.  The gradients are float arrays of shape (N, dim);
    ``sigma`` is a number or per-axis values.
    """
    pm, pp = p_minus, p_plus
    if c.spec.family == "bellman":
        best = None
        for v in c.terms:
            # -b.p advects against the drift: information comes from the +b
            # side, so positive components read the forward difference
            p_sel = np.where(v.b > 0, pp, pm)
            val = (v.lam * np.asarray(r)
                   - np.einsum("ij,ij->i", v.b, p_sel) - v.f)
            best = val if best is None else np.maximum(best, val, out=best)
        return best
    mid = 0.5 * (pm + pp)
    pn = _norms(mid)
    required = lf_viscosity_bound(c, float(pn.max(initial=0.0)))
    if sigma is None:
        sigma = required + 1.0
    elif not (isinstance(sigma, np.ndarray) and sigma.shape == required.shape):
        sigma = np.full(c.spec.dim, sigma, dtype=float)
    if (sigma < required - 1e-12).any():
        raise ViscosityUnderflow(
            f"LF viscosity {sigma} below sampled |dH/dp| bound {required}",
            required=required)
    out = _coercive_values(c, r, mid, pn)
    out -= 0.5 * ((pp - pm) * sigma).sum(axis=1)
    return out


def numerical_hamiltonian(spec, x, t: float, r: float, p_minus, p_plus,
                          sigma=None) -> float:
    pm = np.atleast_1d(np.asarray(p_minus, dtype=float))[None, :]
    pp = np.atleast_1d(np.asarray(p_plus, dtype=float))[None, :]
    return float(numerical_hamiltonian_many(_at_point(spec, x, t),
                                            np.array([r]), pm, pp, sigma)[0])


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


def properness_floor(spec, pts: np.ndarray) -> np.ndarray:
    """Floor function h(x) for the built-in families.

    Coercive: exactly lam(x).  Bellman: min over controls of lam_b(x, t)
    sampled at 9 times on the window [0, R] = [0, 1].
    """
    pts = np.atleast_2d(pts)
    if spec.family == "coercive":
        return spec.lam(pts, 0.0)
    ts = np.linspace(0.0, 1.0, 9)
    out = None
    for c in spec.controls:
        for t in ts if c.lam.time_dependent else ts[:1]:
            v = c.lam(pts, t)
            out = v if out is None else np.minimum(out, v)
    return out


def _properness_margin(spec, plan: SweepPlan) -> float:
    """min over the plan's core nodes of the properness floor h(x) plus the
    exterior kernel mass: (H2) and (H2') read the same margin."""
    floor = properness_floor(spec, plan.grid.core_points)
    return float((floor + plan.exterior_mass).min())


def check_H2(spec, plan: SweepPlan) -> Certificate:
    """(H2) at R = 1: the properness margin is >= 0 (to 1e-9)."""
    value = _properness_margin(spec, plan)
    return Certificate("H2", value >= -1e-9, value, {"R": 1.0})


def check_H2prime(spec, plan: SweepPlan) -> Certificate:
    """(H2'): the nondegeneracy margin mu0, the properness margin, is at
    least mu_min = 1e-6 > 0."""
    mu0 = _properness_margin(spec, plan)
    return Certificate("H2prime", mu0 >= 1e-6, mu0, {"mu_min": 1e-6})


def check_superfractional(spec: CoerciveSpec, k: Kernel, pts) -> Certificate:
    """(A1): m > alpha strictly and a1 bounded below by a positive constant."""
    c0 = float(spec.a1(np.atleast_2d(pts), 0.0).min())
    margin = spec.m - k.alpha
    passed = margin > 0 and c0 > 0
    return Certificate("superfractional_A1", passed, margin, {"c0": c0})


def check_compatibility(grid: Grid, u0: np.ndarray,
                        phi_trace: np.ndarray) -> Certificate:
    """(H0): the initial values ``u0`` at the core nodes (in ``core_flat``
    order) match the datum ``phi_trace`` at the trace nodes, to 1e-12 (1 +
    sup |u0|).  Non-finite values fail."""
    sup_u = float(np.abs(u0).max(initial=0.0))
    tol = 1e-12 * (1.0 + sup_u)
    worst = float(np.abs(phi_trace - u0[grid.trace_pos]).max(initial=0.0))
    passed = bool(np.isfinite(sup_u) and worst <= tol)
    return Certificate("compatibility_H0", passed, worst, {"tol": tol})


def check_UE(k: Kernel) -> Certificate:
    """Uniform ellipticity: K >= c2 on |z| <= c1, spot-checked at 64 radii."""
    if k.c1 is None or k.c2 is None or k.c1 <= 0 or k.c2 <= 0:
        return Certificate("UE", False, 0.0, {"reason": "no ellipticity constants"})
    r = np.linspace(k.c1 / 64, k.c1, 64)
    vals = np.asarray(k.profile(r), dtype=float)
    worst = float(vals.min())
    return Certificate("UE", worst >= k.c2 - 1e-12, worst,
                       {"c1": k.c1, "c2": k.c2})


def check_H1(spec, pts) -> Certificate:
    """(H1) for the built-in families, at R = 1.

    Coercive: H(u) - H(v) = lam(x)(u - v) holds identically, so the check is
    exact with h_R = lam.  Bellman: verified on 200 random samples (x, t in
    [0, R], u >= v, p) against h_R = min over controls of lam_b.
    """
    pts = np.atleast_2d(pts)
    if spec.family == "coercive":
        lam = spec.lam(pts, 0.0)
        return Certificate("H1", bool(lam.min() >= 0), float(lam.min()),
                           {"exact": True})
    rng = np.random.default_rng(0)
    worst = np.inf
    floor = properness_floor(spec, pts)
    frozen = Coefficients(spec, pts, 0.0)
    for _ in range(200):
        i = rng.integers(0, pts.shape[0])
        t = rng.random()
        u = rng.normal()
        v = u - abs(rng.normal())  # u >= v
        p = rng.normal(size=spec.dim)
        c = frozen.take(i).at(t)
        hu = float(hamiltonian_values(c, np.array([u]), p)[0])
        hv = float(hamiltonian_values(c, np.array([v]), p)[0])
        if u > v:
            worst = min(worst, (hu - hv) / (u - v) - floor[i])
    return Certificate("H1", worst >= -1e-9, float(worst), {"exact": False})
