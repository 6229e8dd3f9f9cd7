"""Coercive and Bellman Hamiltonian families with monotone numerical fluxes
and computable assumption checkers.

Coefficient fields may be numbers, expression strings (see ``expressions``),
or callables ``f(points, t) -> values`` with ``points`` of shape (N, dim).
"""

from __future__ import annotations

import functools
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
        return self._values(np.atleast_2d(np.asarray(pts, dtype=float)), t)

    def _values(self, pts: np.ndarray, t: float, out=None) -> np.ndarray:
        if out is None:
            out = np.empty(pts.shape[0])
        out[:] = self._fn(pts, t)  # broadcasts a scalar result
        return out

    def bind(self, pts: np.ndarray):
        """``t -> self(pts, t)``, into ``out`` where it is given: an
        expression evaluates its parts that do not read t here, once (see
        ``Expression.bind``); a number or a callable is evaluated in full at
        each call."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if isinstance(self._fn, Expression):
            return self._fn.bind(pts)
        return functools.partial(self._values, pts)


def vector_coefficient(value, dim: int, name: str = ""):
    """Per-axis list of coefficient fields for a drift term (None for no
    drift); a single field is a drift only in 1-D."""
    if value is None:
        return None
    comps = value if isinstance(value, (list, tuple)) else [value]
    if len(comps) != dim:
        raise ValueError(f"drift {name} needs {dim} components")
    return [CoefficientField(v, f"{name}[{a}]") for a, v in enumerate(comps)]


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
    """One control's coefficient triple for the Bellman supremum; the drift
    defaults to zero on each axis."""

    lam: object = 0.0
    b: object = None
    f: object = 0.0
    dim: int = 1

    def __post_init__(self):
        self.lam = CoefficientField(self.lam, "lam")
        self.f = CoefficientField(self.f, "f")
        b = self.b if self.b is not None else [0.0] * self.dim
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
        den = np.linalg.norm(xs - ys, axis=1) + np.abs(ts - ss)
        apart = den > 1e-12
        worst = 0.0
        for c in self.controls:
            bx = np.column_stack([_at_times(comp, xs, ts) for comp in c.b])
            by = np.column_stack([_at_times(comp, ys, ss) for comp in c.b])
            num = np.linalg.norm(bx - by, axis=1)[apart]
            worst = max(worst, float((num / den[apart]).max(initial=0.0)))
        passed = self.lipschitz is None or worst <= self.lipschitz * (1 + 1e-9)
        return Certificate("lipschitz_L", passed, worst,
                           {"declared": self.lipschitz})


def _at_times(field: CoefficientField, pts: np.ndarray, ts) -> np.ndarray:
    """``field`` at each row i of ``pts`` at its own time ``ts[i]``: one call
    over all rows for a field that does not read t, else one call per row."""
    if not field.time_dependent:
        return field(pts, 0.0)
    return np.array([field(pts[i:i + 1], t)[0] for i, t in enumerate(ts)])


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

_TERMS = {"coercive": ("a1", "a2", "lam", "f", "b"), "bellman": ("lam", "b", "f")}


class Coefficients:
    """A Hamiltonian's coefficients evaluated on fixed points at time ``t``,
    with the bounds that the viscosity and the CFL limit take maxima of.

    ``stacked`` holds an array per coefficient over the terms, one per
    control (Bellman) or a single one (coercive): shape (K, N) for a scalar
    and (K, dim, N) for the drift ``b`` (absent for a coercive form without
    drift).  ``terms`` holds one namespace per term whose arrays are views
    of those, of shape (N,) and (N, dim) (``b`` None without drift; its
    columns are contiguous, as are those of the solver's gradients).
    Construction evaluates every field once and binds to the points each
    field whose own ``time_dependent`` flag is set (``moving`` names them),
    so that :meth:`at` evaluates only their parts that read t, in place.
    Bounds, over points and terms: ``a1_max`` = max |a1|, ``a2_max`` =
    max |a2| (coercive only), ``lam_max`` = max |lam| and ``b_max`` = max
    |b| per axis.  A Bellman bundle also holds the upwind mask ``upwind``
    = (b > 0) of its drifts, stacked and per term, for the flux; :meth:`at`
    renews it when b moves.
    """

    def __init__(self, spec, pts: np.ndarray, t: float = 0.0):
        self.spec = spec
        self.t = t
        self.n = len(pts)
        owners = [spec] if spec.family == "coercive" else spec.controls
        self.terms = [SimpleNamespace() for _ in owners]
        self.stacked = {}
        self._moving = []  # (name, index into stacked[name], field, bound)
        for name in _TERMS[spec.family]:
            srcs = [getattr(owner, name) for owner in owners]
            if srcs[0] is None:  # a coercive form without drift
                setattr(self.terms[0], name, None)
                continue
            vector = isinstance(srcs[0], list)
            values = self.stacked[name] = np.empty(
                (len(owners),) + ((spec.dim,) if vector else ()) + (self.n,))
            for k, src in enumerate(srcs):
                for a, c in enumerate(src if vector else [src]):
                    at = (k, a) if vector else k
                    if c.time_dependent:
                        bound = c.bind(pts)
                        self._moving.append((name, at, c, bound))
                        values[at] = bound(t)
                    else:
                        values[at] = c(pts, t)
                setattr(self.terms[k], name, values[k].T)
        self.moving = frozenset(entry[0] for entry in self._moving)
        self._moves_bounds = bool(self.moving - {"f"})
        self._bound()
        if spec.family == "bellman":
            self.upwind = self.stacked["b"] > 0
            for term, upwind in zip(self.terms, self.upwind):
                term.upwind = upwind.T

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
        """The bundle at time t: evaluates the bound fields at t."""
        if t != self.t:
            for name, at, _, values in self._moving:
                values(t, out=self.stacked[name][at])
            if self._moves_bounds:
                self._bound()
            if "b" in self.moving and self.spec.family == "bellman":
                np.greater(self.stacked["b"], 0, out=self.upwind)
        self.t = t
        return self


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
    return np.array(_viscosity_bounds(c, p_scale))


def _pow_bound(p_scale: float, e: float) -> float:
    if e >= 0:
        return p_scale ** e
    return max(p_scale, GRAD_FLOOR) ** e if p_scale > 0 else GRAD_FLOOR ** e


def _viscosity_bounds(c: Coefficients, p_scale: float) -> list:
    """:func:`lf_viscosity_bound` as a list of floats."""
    spec = c.spec
    s = c.a1_max * spec.m * _pow_bound(p_scale, spec.m - 1)
    if c.a2_max > 0 and spec.l > 0:
        s += c.a2_max * spec.l * _pow_bound(p_scale, spec.l - 1)
    if spec.b is None:
        return [s] * spec.dim
    return [s + b for b in c.b_max.tolist()]


def flux_workspace(c: Coefficients) -> tuple:
    """Scratch for :func:`numerical_hamiltonian_many` at the N points of
    ``c``, laid out as the coefficients and the solver's gradients are, one
    axis after the other (numpy buffers operands of differing layouts).
    Bellman, over its K controls: arrays of shape (K, dim, N), (K, N) and
    (K, N), and per control the first as (N, dim) and the third.
    Coercive: an array of shape (N, dim), its columns, and two arrays of
    shape (N,)."""
    n, dim = c.n, c.spec.dim
    if c.spec.family == "bellman":
        k = len(c.terms)
        p, val = np.empty((k, dim, n)), np.empty((k, n))
        return p, np.empty((k, n)), val, tuple((q.T, v) for q, v in zip(p, val))
    p = np.empty((dim, n)).T
    return p, tuple(p[:, a] for a in range(dim)), np.empty(n), np.empty(n)


def numerical_hamiltonian_many(c: Coefficients, r, p_minus, p_plus,
                               sigma=None, out=None, work=None) -> np.ndarray:
    """Monotone flux at the points of ``c``, vectorized: Lax-Friedrichs
    (coercive) or exact upwinding (Bellman).

    Nonincreasing in every p_plus component and nondecreasing in every
    p_minus component; equals the pointwise Hamiltonian when the two one-sided
    gradients coincide.  The gradients are float arrays of shape (N, dim);
    ``sigma`` is a number or per-axis values.  The flux is accumulated in
    ``out`` with the scratch ``work`` (see :func:`flux_workspace`), each
    allocated when not given.
    """
    pm, pp = p_minus, p_plus
    n, dim = pm.shape
    if out is None:
        out = np.empty(n)
    if work is None:
        work = flux_workspace(c)
    if c.spec.family == "bellman":
        # per control where an array of the points is read (broadcasting
        # it over the controls would buffer it), else all controls at once
        p, bp, val, per_control = work
        for v, (p_k, val_k) in zip(c.terms, per_control):
            # -b.p advects against the drift: information comes from the +b
            # side, so positive components read the forward difference
            np.multiply(v.b, pm, p_k)
            np.multiply(v.b, pp, p_k, where=v.upwind)
            np.multiply(v.lam, r, val_k)
        # b.p summed as np.einsum("ij,ij->i") sums it: from +0.0
        val -= p.sum(axis=1, out=bp, initial=0.0)
        val -= c.stacked["f"]
        # the maximum over the controls, taken in their order
        return np.maximum.reduce(val, axis=0, out=out)
    p, cols, acc, term = work
    np.add(pm, pp, p)
    p *= 0.5
    # |p| per row; the squares are never -0.0, so adding the columns to
    # the first equals their sum over the row (and in 1-D the first is it)
    pn = np.multiply(cols[0], cols[0], acc)
    for col in cols[1:]:
        pn += np.multiply(col, col, term)
    np.sqrt(pn, pn)
    required = _viscosity_bounds(c, float(pn.max(initial=0.0)))
    if sigma is None:
        sigma = np.array(required) + 1.0
    elif not (isinstance(sigma, np.ndarray) and sigma.shape == (dim,)):
        sigma = np.full(dim, sigma, dtype=float)
    if any(s < q - 1e-12 for s, q in zip(sigma.tolist(), required)):
        required = np.array(required)
        raise ViscosityUnderflow(
            f"LF viscosity {sigma} below sampled |dH/dp| bound {required}",
            required=required)
    # a1 |p|^m + a2 |p|^l + b.p + lam r - f, as _coercive_values adds it
    v, spec = c.terms[0], c.spec
    if c.a2_active:
        np.copyto(term, pn)
        term **= spec.l
        term *= v.a2
    if spec.m != 1:
        pn **= spec.m  # in place, with the shortcuts of pn ** m
    np.multiply(v.a1, pn, out)  # pow(x, 1) is x
    if c.a2_active:
        out += term
    if v.b is not None:
        out += np.einsum("ij,ij->i", v.b, p, out=term)
    out += np.multiply(v.lam, r, term)
    out -= v.f
    # the viscosity term; its columns are added from the first, not from
    # +0.0 as np.sum adds them, which changes only a -0.0 sum, and that
    # only where out is -0.0: never for a1 > 0, whose term is +0.0 or more
    np.subtract(pp, pm, p)
    for col, s in zip(cols, sigma.tolist()):
        col *= s
    spread = cols[0]
    for col in cols[1:]:
        spread = np.add(spread, col, acc)
    out -= np.multiply(0.5, spread, acc)
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
    idx = rng.integers(0, pts.shape[0], 200)
    ts = rng.random(200)
    u = rng.normal(size=200)
    v = u - np.abs(rng.normal(size=200))  # u >= v
    p = rng.normal(size=(200, spec.dim))
    # the fields that do not read t once over the samples' points, the
    # others at each sample's own time
    pts = pts[idx]
    c = Coefficients(spec, pts, 0.0)
    for name, at, fld, _ in c._moving:
        c.stacked[name][at] = _at_times(fld, pts, ts)
    quot = ((hamiltonian_values(c, u, p) - hamiltonian_values(c, v, p)) / (u - v)
            - properness_floor(spec, pts))
    worst = float(quot[u > v].min(initial=np.inf))
    return Certificate("H1", worst >= -1e-9, worst, {"exact": False})
