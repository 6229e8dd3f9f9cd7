"""Coercive and Bellman Hamiltonian families with monotone numerical fluxes
and computable assumption checkers.

Coefficient fields may be numbers, expression strings (see ``expressions``),
or callables ``f(points, t) -> values`` with ``points`` of shape (N, dim).
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import ViscosityUnderflow
from .expressions import Expression
from .geometry import Domain, Grid
from .kernels import Kernel
from .operators import SweepPlan

# caps the |p|^(e-1) bounds of sublinear exponents (see lf_viscosity_bound)
GRAD_FLOOR = 1e-2

# 0.5 and 0.0 as array operands, which a ufunc reads without the conversion
# it makes of a Python float on every call
_HALF, _ZERO = np.array(0.5), np.array(0.0)
_HALF.setflags(write=False)
_ZERO.setflags(write=False)


class CoefficientField:
    """Scalar coefficient on (closed domain) x time, vectorized over points.

    ``time_dependent`` and ``varies_in_space`` say which variables the field
    reads; a callable without ``time_dependent`` counts as depending on t,
    and one without ``variables`` as varying in space.
    """

    def __init__(self, value):
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
    return [CoefficientField(v) for v in comps]


def eval_vector(comps, pts: np.ndarray, t: float) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    return np.column_stack([c(pts, t) for c in comps])


@dataclass
class CoerciveSpec:
    """H = a1(x)|p|^m + a2(x)|p|^l + b(x).p + lam(x) r - f(x, t), l < m.

    The drift b is only admitted in the superlinear case m > 1; a1 must be
    bounded below by a positive constant (``solver.StepBatch`` refuses it
    otherwise).
    """

    family = "coercive"
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
        self.a1 = CoefficientField(self.a1)
        self.a2 = CoefficientField(self.a2)
        self.lam = CoefficientField(self.lam)
        self.f = CoefficientField(self.f)
        self.b = vector_coefficient(self.b, self.dim, "b")
        if self.b is not None and self.m <= 1:
            raise ValueError("drift b requires superlinear coercivity m > 1")

    @property
    def fields(self) -> tuple:
        """Every coefficient field: a1, a2, lam, f, then b's per axis."""
        return (self.a1, self.a2, self.lam, self.f, *(self.b or ()))

    @property
    def time_dependent(self) -> bool:
        return any(c.time_dependent for c in self.fields)


@dataclass
class ControlLaw:
    """One control's coefficient triple for the Bellman supremum; the drift
    defaults to zero on each axis."""

    lam: object = 0.0
    b: object = None
    f: object = 0.0
    dim: int = 1

    def __post_init__(self):
        self.lam = CoefficientField(self.lam)
        self.f = CoefficientField(self.f)
        b = self.b if self.b is not None else [0.0] * self.dim
        self.b = vector_coefficient(b, self.dim, "b")


@dataclass
class BellmanSpec:
    """H = max over controls of (lam_b r - b_b . p - f_b)."""

    family = "bellman"
    controls: list
    lipschitz: float | None = None
    dim: int = 1

    def __post_init__(self):
        if not self.controls:
            raise ValueError("control set must be nonempty")

    @property
    def fields(self) -> tuple:
        """Every coefficient field: lam, f, then b's per axis, by control."""
        return tuple(c for u in self.controls for c in (u.lam, u.f, *u.b))

    @property
    def time_dependent(self) -> bool:
        return any(c.time_dependent for c in self.fields)

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
    """A Hamiltonian's coefficients evaluated on fixed points at time ``t``
    (0 until :meth:`at` moves it), with the bounds that the viscosity and
    the CFL limit take maxima of.

    ``stacked`` holds an array per coefficient over the terms, one per
    control (Bellman) or a single one (coercive): shape (K, N) for a scalar
    and (K, dim, N) for the drift ``b`` (absent for a coercive form without
    drift), so that term k's drift ``stacked["b"][k].T``, of shape (N,
    dim), has contiguous columns, as the solver's gradients do.
    Construction evaluates every field once and binds to the points each
    field whose own ``time_dependent`` flag is set (``moving`` names them),
    so that :meth:`at` evaluates only their parts that read t, in place.
    Bounds, over points and terms: ``a1_max`` = max |a1|, ``a2_max`` =
    max |a2| (coercive only), ``lam_max`` = max |lam| and ``b_max`` = max
    |b| per axis; a coercive bundle also says whether its viscosity bound
    reads the gradients (``bound_reads_p``), and where it does not, holds
    that bound, the Lax-Friedrichs floor ``lf_floor`` (a float per axis;
    None otherwise), renewed with the bounds.  A Bellman bundle holds the
    upwind mask ``upwind`` = (b > 0) of its stacked drifts for the flux;
    :meth:`at` renews it when b moves.  ``flux`` is the flux bound to the
    bundle and to its scratch (see :func:`flux_workspace`), made at its
    first read: the scratch is spent within one call, so every batch and
    every call on the bundle shares it.
    """

    def __init__(self, spec, pts: np.ndarray):
        self.spec = spec
        self.t = 0.0
        self.n = len(pts)
        owners = [spec] if spec.family == "coercive" else spec.controls
        self.stacked = {}
        self._moving = []  # (name, index into stacked[name], field, bound)
        for name in _TERMS[spec.family]:
            srcs = [getattr(owner, name) for owner in owners]
            if srcs[0] is None:  # a coercive form without drift
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
                        values[at] = bound(0.0)
                    else:
                        values[at] = c(pts, 0.0)
        self.moving = frozenset(entry[0] for entry in self._moving)
        self._moves_bounds = bool(self.moving - {"f"})
        self._bound()
        if spec.family == "bellman":
            self.upwind = self.stacked["b"] > 0

    @functools.cached_property
    def flux(self):
        return flux_workspace(self)

    def _bound(self):
        stacked = self.stacked
        self.lam_max = float(np.abs(stacked["lam"]).max())
        self.b_max = (np.abs(stacked["b"]).max(axis=(0, 2)) if "b" in stacked
                      else np.zeros(self.spec.dim))
        if self.spec.family == "coercive":
            a2 = stacked["a2"][0]
            self.a1_max = float(np.abs(stacked["a1"][0]).max())
            self.a2_max = float(np.abs(a2).max())
            self.a2_active = bool(np.any(a2 != 0.0))
            # |p|^(m-1) is 1 for every p at m = 1: the viscosity bound then
            # reads the gradients only through an a2 |p|^l term with l > 0
            self.bound_reads_p = self.spec.m != 1 or (
                self.a2_max > 0 and self.spec.l > 0)
            self.lf_floor = (None if self.bound_reads_p
                             else lf_viscosity_bound(self, 0.0))

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


def _norms(p: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of p, as np.linalg.norm(p, axis=1)."""
    return np.sqrt((p * p).sum(axis=1))


def _coercive_values(c: Coefficients, r, p, pn) -> np.ndarray:
    """The coercive H over rows of p, whose norms ``pn`` the caller took."""
    spec, stacked = c.spec, c.stacked
    a1, a2, lam, f = (stacked[name][0] for name in ("a1", "a2", "lam", "f"))
    out = a1 * pn ** spec.m
    if c.a2_active:
        out += a2 * pn ** spec.l
    if "b" in stacked:
        out += np.einsum("ij,ij->i", stacked["b"][0].T, p)
    return out + lam * np.asarray(r) - f


def hamiltonian_values(c: Coefficients, r, p) -> np.ndarray:
    """H(x, t, r, p) at the bundle's points and time, over rows of p."""
    p = np.atleast_2d(p)
    if c.spec.family == "coercive":
        return _coercive_values(c, r, p, _norms(p))
    best = None
    for lam, b, f in zip(*(c.stacked[name] for name in ("lam", "b", "f"))):
        val = lam * np.asarray(r) - np.einsum("ij,ij->i", b.T, p) - f
        best = val if best is None else np.maximum(best, val)
    return best


def _pow_bound(p_scale: float, e: float) -> float:
    if e >= 0:
        return p_scale ** e
    return max(p_scale, GRAD_FLOOR) ** e if p_scale > 0 else GRAD_FLOOR ** e


def lf_viscosity_bound(c: Coefficients, p_scale: float) -> list:
    """Per-axis upper bound for |dH/dp| over gradients up to p_scale, for
    the coercive coefficients ``c``, as a list of floats (the flux compares
    them with the viscosity one axis at a time).

    Exponents below 1 have unbounded derivative at p = 0; the bound then uses
    the gradient floor ``GRAD_FLOOR``, so strict monotonicity is certified
    only for m, l >= 1 (or vanishing a2).
    """
    spec = c.spec
    s = c.a1_max * spec.m * _pow_bound(p_scale, spec.m - 1)
    if c.a2_max > 0 and spec.l > 0:
        s += c.a2_max * spec.l * _pow_bound(p_scale, spec.l - 1)
    if spec.b is None:
        return [s] * spec.dim
    return [s + b for b in c.b_max.tolist()]


def flux_workspace(c: Coefficients):
    """The flux of :func:`numerical_hamiltonian_many` bound to the bundle
    ``c`` and to scratch at its N points: a function ``(r, p_minus, p_plus,
    sigma, out) -> out``.  What does not change from call to call is
    settled here: the family, the dimension, the a2 |p|^l term, the drift,
    m != 1 and the views of the scratch, laid out as the coefficients and
    the solver's gradients are, one axis after the other (numpy buffers
    operands of differing layouts).  The bundle's arrays are read at each
    call, as :meth:`Coefficients.at` renews them in place; whether a2 is
    active, and with it whether the viscosity bound reads the gradients,
    is read at each call only where a2 moves with t."""
    if c.spec.family == "bellman":
        return _upwind_flux(c)
    return _lax_friedrichs_flux(c)


def _upwind_flux(c: Coefficients):
    """The Bellman flux over all K controls at once, on the drifts stacked
    (K, dim, N): each component's one-sided gradient is selected by the
    bundle's ``upwind`` mask into scratch of that shape, then multiplied
    by the drift in one call.  The points' values r are copied into a row
    per control first, as numpy would buffer them broadcast."""
    b, lam, f = (c.stacked[name] for name in ("b", "lam", "f"))
    upwind = c.upwind
    p, bp, val, r_rows = (np.empty(b.shape), np.empty(lam.shape),
                          np.empty(lam.shape), np.empty(lam.shape))
    # in 1-D, b.p of a control is its one product: a view of p that is
    # contiguous, which one add reads for less than a reduction costs
    one_axis = p[:, 0] if b.shape[1] == 1 else None
    copyto, add, multiply, subtract = (np.copyto, np.add, np.multiply,
                                       np.subtract)
    add_reduce, max_reduce = np.add.reduce, np.maximum.reduce

    def flux(r, pm, pp, sigma, out):
        # -b.p advects against the drift: information comes from the +b
        # side, so positive components read the forward difference
        copyto(p, pm.T)
        copyto(p, pp.T, where=upwind)
        multiply(b, p, p)
        # b.p summed from +0.0, as np.einsum("ij,ij->i") sums it
        if one_axis is None:
            add_reduce(p, 1, None, bp, False, 0.0)
        else:
            add(one_axis, _ZERO, bp)
        copyto(r_rows, r)
        multiply(lam, r_rows, val)
        subtract(val, bp, val)
        subtract(val, f, val)
        # the maximum over the controls, taken in their order
        return max_reduce(val, 0, None, out)
    return flux


def _lax_friedrichs_flux(c: Coefficients):
    """The coercive flux: H at the mean gradient minus the viscosity term
    0.5 sum_a sigma_a (p+ - p-), reading the bounds through a weak proxy
    of the bundle, which holds it."""
    spec, n = c.spec, c.n
    a1, a2, lam, f = (c.stacked[name][0] for name in ("a1", "a2", "lam", "f"))
    b = c.stacked["b"][0].T if "b" in c.stacked else None
    m, l, powered = spec.m, spec.l, spec.m != 1
    p = np.empty((spec.dim, n)).T
    col, *more = cols = [p[:, a] for a in range(spec.dim)]
    acc, term = np.empty(n), np.empty(n)
    settled = None if "a2" in c.moving else (c.a2_active, c.bound_reads_p)
    c = weakref.proxy(c)
    absolute, add, multiply, subtract = (np.absolute, np.add, np.multiply,
                                         np.subtract)
    max_reduce = np.maximum.reduce

    def flux(r, pm, pp, sigma, out):
        a2_active, reads_p = settled or (c.a2_active, c.bound_reads_p)
        add(pm, pp, p)
        multiply(p, _HALF, p)
        # |p| per row: in 1-D the absolute value, which is sqrt(p * p)
        # wherever p * p neither underflows nor overflows; else the squares,
        # never -0.0, added to the first, which equals their sum over the row
        if more:
            pn = multiply(col, col, acc)
            for other in more:
                pn += multiply(other, other, term)
            np.sqrt(pn, pn)
        else:
            pn = absolute(col, acc)
        scales = sigma.tolist()
        required = (lf_viscosity_bound(c, float(max_reduce(pn, None, None,
                                                           None, False, 0.0)))
                    if reads_p else c.lf_floor)
        for s, q in zip(scales, required):
            if s < q - 1e-12:
                required = np.array(required)
                raise ViscosityUnderflow(
                    f"LF viscosity {sigma} below sampled |dH/dp| bound "
                    f"{required}", required=required)
        # a1 |p|^m + a2 |p|^l + b.p + lam r - f, as _coercive_values adds it
        if a2_active:
            low = term
            np.copyto(low, pn)
            low **= l
            low *= a2
        if powered:
            pn **= m  # in place, with the shortcuts of pn ** m
        multiply(a1, pn, out)  # pow(x, 1) is x
        if a2_active:
            out += low
        if b is not None:
            out += np.einsum("ij,ij->i", b, p, out=term)
        out += multiply(lam, r, term)
        out -= f
        # the viscosity term 0.5 sum_a sigma_a (p+ - p-), each column scaled
        # by 0.5 sigma_a, which is exact, 0.5 being a power of two; its
        # columns are added from the first, not from +0.0 as np.sum adds
        # them, which changes only a -0.0 sum, and that only where out is
        # -0.0: never for a1 > 0, whose term is +0.0 or more
        subtract(pp, pm, p)
        for each, s in zip(cols, scales):
            each *= 0.5 * s
        spread = col
        for other in more:
            spread = add(spread, other, acc)
        out -= spread
        return out
    return flux


def numerical_hamiltonian_many(c: Coefficients, r, p_minus, p_plus,
                               sigma, out=None) -> np.ndarray:
    """Monotone flux at the points of ``c``, vectorized: Lax-Friedrichs
    (coercive) or exact upwinding (Bellman).

    Nonincreasing in every p_plus component and nondecreasing in every
    p_minus component; equals the pointwise Hamiltonian when the two one-sided
    gradients coincide.  The gradients are float arrays of shape (N, dim);
    ``sigma``, the Lax-Friedrichs viscosity per axis, is an array of shape
    (dim,) (a coercive form's state holds it; Bellman forms ignore it).
    The flux is written into ``out``, made when not given, by the flux
    bound to ``c`` (``c.flux``); the allocating form is what tests compare
    the solver's in-place calls against.
    """
    if out is None:
        out = np.empty(len(p_minus))
    return c.flux(r, p_minus, p_plus, sigma, out)


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
    c = Coefficients(spec, pts)
    for name, at, fld, _ in c._moving:
        c.stacked[name][at] = _at_times(fld, pts, ts)
    quot = ((hamiltonian_values(c, u, p) - hamiltonian_values(c, v, p)) / (u - v)
            - properness_floor(spec, pts))
    worst = float(quot[u > v].min(initial=np.inf))
    return Certificate("H1", worst >= -1e-9, worst, {"exact": False})
