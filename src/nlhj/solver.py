"""Explicit monotone time stepper and steady-state driver.

The state holds the unknowns only: the values at the core nodes (interior
and boundary trace), which all advance by the same explicit update

    u_i <- u_i + dt * [ I(u, x_i) - H_num(x_i, t, u_i, p-, p+) ]

so the generalized Dirichlet condition emerges: a persistent trace gap
phi - u > 0 on the boundary signals loss of the boundary condition.  The
exterior datum enters through the sweep plan's exterior load (the jumps
that leave the domain), through the one-node ring the one-sided differences
read, and through ``operators.envelope``, the upper envelope max(u, phi)
that neighbour reads see at trace nodes; the evaluated node always
contributes its raw value (required for the exact discrete comparison
property when exterior data differ).

A state holds one padded block: the core block plus that ring, written only
when the datum is read (at t0, and per step for a t-dependent datum).  A
step writes the envelope into the interior once; the sweep reads the
interior and the one-sided differences shifted views of the block.

The block is part of the state's workspace, built once with the state: the
one-sided differences, the flux with its scratch and the right-hand side
are the rest of it.  A step writes each of them in place (the sweep's
output becomes the update, from which the flux is subtracted), so a step
whose data do not depend on t allocates no array of the core's size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import (BlowUp, CflViolation, NonConvergence, PreconditionError,
                     ValidationError, ViscosityUnderflow)
from .geometry import Grid
from .hamiltonians import (CoefficientField, Coefficients, flux_workspace,
                           lf_viscosity_bound, numerical_hamiltonian_many)
from .operators import Field, SweepPlan, envelope


@dataclass
class SchemeConfig:
    """Scheme parameters; dt defaults to the CFL-limited value theta/denom."""

    h: float
    theta: float = 0.9
    dt: float | None = None
    T: float | None = None
    steady_tol: float | None = None
    m_cap: float | None = None
    snapshot_dt: float | None = None
    max_steps: int = 2_000_000
    sigma_override: object = None

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("CFL safety factor theta must lie in (0, 1]")
        if self.h <= 0:
            raise ValueError("spacing must be positive")
        if self.dt is not None and self.dt <= 0:
            raise ValueError("time step must be positive")


@dataclass
class SolveState:
    """The unknowns at time t plus the data a step reads, held at time t:
    the Hamiltonian's coefficients on the core nodes (``coeffs``), the datum
    at the trace nodes (``phi_trace``) and its exterior load, and the padded
    ``block`` (see the module docstring) with the datum on its ring.  Data
    that do not depend on t are evaluated once, by :func:`init_state`; the
    rest are held bound to their points (``datum`` and ``coeffs``), and a
    step evaluates their parts that read t at the new time.  Setting
    ``sigma`` drops the cached CFL denominator.

    The workspace a step writes into, allocated here: ``block``, the
    one-sided differences ``diffs`` of shape (2, dim, *core_shape)
    (backward, forward), the update ``rhs`` and the ``flux`` at the core
    nodes, and the flux's scratch ``flux_work``."""

    plan: SweepPlan
    spec: object
    phi: CoefficientField
    u: np.ndarray                    # core values, in grid.core_flat order
    coeffs: Coefficients
    t: float = 0.0
    steps: int = 0
    m_cap: float = np.inf
    sup_norm: float = 0.0
    sigma_growth: int = 0
    last_dt: float = 0.0
    load: np.ndarray | None = None   # plan.exterior_load at time t
    datum: tuple | None = dfield(default=None, repr=False)  # see _bind_datum
    phi_trace: np.ndarray = dfield(init=False, repr=False)
    block: np.ndarray = dfield(init=False, repr=False)
    diffs: np.ndarray = dfield(init=False, repr=False)
    rhs: np.ndarray = dfield(init=False, repr=False)
    flux: np.ndarray = dfield(init=False, repr=False)
    flux_work: tuple = dfield(init=False, repr=False)
    # envelope's out, then what _one_sided_gradients reads
    _views: tuple = dfield(init=False, repr=False)
    _sigma: np.ndarray | None = dfield(default=None, repr=False)
    _den: float | None = dfield(default=None, repr=False)

    def __post_init__(self):
        self.sup_norm = float(np.abs(self.u).max())
        self.phi_trace = np.empty(len(self.grid.trace_pos))
        core, dim = self.plan.core_shape, self.grid.dim
        self.block = np.zeros([m + 2 for m in core])
        self.diffs = np.empty((2, dim) + core)
        self.rhs = np.empty_like(self.u)
        self.flux = np.empty_like(self.u)
        self.flux_work = flux_workspace(self.coeffs)
        block, diffs = self.block, self.diffs
        self._views = (
            (block[self.plan.inner], block.reshape(-1),
             self.plan.trace_block_pos, np.empty_like(self.phi_trace)),
            tuple((block[bwd], block[fwd], diffs[0, a], diffs[1, a])
                  for a, (bwd, fwd) in enumerate(self.plan.shifts)),
            dim > 1,  # the block's shifted views are not contiguous
            diffs[0].reshape(dim, -1).T, diffs[1].reshape(dim, -1).T)

    @property
    def sigma(self) -> np.ndarray | None:
        """Lax-Friedrichs viscosity per axis (coercive forms only)."""
        return self._sigma

    @sigma.setter
    def sigma(self, value):
        self._sigma = value
        self._den = None

    @property
    def grid(self) -> Grid:
        return self.plan.grid

    def field(self) -> Field:
        """The state on the full grid, for the single-node references."""
        return Field(self.grid, self.u, self.phi, self.t)

    def trace_gaps(self) -> np.ndarray:
        return self.phi_trace - self.u[self.grid.trace_pos]


def eval_initial(u0, pts: np.ndarray) -> np.ndarray:
    """Initial data: scalar, expression string in x[, y], or f(points)."""
    if np.isscalar(u0) and not isinstance(u0, str):
        return np.full(pts.shape[0], float(u0))
    if isinstance(u0, (str, CoefficientField)):
        return CoefficientField(u0, "u0")(pts, 0.0)
    return np.broadcast_to(np.asarray(u0(pts), dtype=float), (pts.shape[0],)).copy()


def _bind_datum(phi: CoefficientField, plan: SweepPlan) -> tuple:
    """The datum bound (``CoefficientField.bind``) to each point set a step
    reads: the trace nodes, the block's ring and the exterior nodes, or one
    point for a datum constant in space, whose value stands for every
    node."""
    if not phi.varies_in_space:
        return (phi.bind(plan.ring_points[:1]),)
    return tuple(phi.bind(pts) for pts in (plan.grid.trace_points,
                                           plan.ring_points,
                                           plan.grid.exterior_points))


def _read_datum(st: SolveState) -> np.ndarray:
    """Hold the datum at the state's time at the trace nodes and on the
    block's ring, from ``st.datum``; returns its exterior values, of which
    the caller takes the exterior load."""
    t = st.t
    if st.phi.varies_in_space:
        trace, ring, ext = (values(t) for values in st.datum)
        st.phi_trace[:] = trace
    else:
        st.phi_trace[:] = ring = ext = st.datum[0](t)
    st.block.reshape(-1)[st.plan.ring_pos] = ring
    return ext


def init_state(plan: SweepPlan, spec, phi, u0, cfg: SchemeConfig,
               t0: float = 0.0) -> SolveState:
    """The state at t0 on the plan's grid.  Refuses data that are not
    finite where a step reads them (ValidationError) and a coercive a1 not
    bounded below by a positive constant (PreconditionError)."""
    phi = phi if isinstance(phi, CoefficientField) else CoefficientField(phi, "phi")
    pts = plan.grid.core_points
    # data that are not finite somewhere are refused below, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = eval_initial(u0, pts)
    st = SolveState(plan, spec, phi, u, Coefficients(spec, pts, t0), t=t0)
    a1_min = st.coeffs.terms[0].a1.min() if spec.family == "coercive" else 1.0
    if a1_min < 1e-12:
        raise PreconditionError(f"a1 is not bounded below by a positive "
                                f"constant (min {a1_min})")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        st.datum = _bind_datum(phi, plan)
        ext = _read_datum(st)
    if not phi.time_dependent:
        st.datum = None  # read once: drop the held values
    # refused before the load's transform; the block holds only its ring yet
    held = {"u0": (st.u,), "phi": (st.phi_trace, st.block, ext)}
    bad = [f"[data] {name}: not finite at every node at t = {t0}"
           for name, vals in held.items()
           if not all(np.isfinite(v).all() for v in vals)]
    if bad:
        raise ValidationError(bad)
    st.load = plan.exterior_load(ext)
    sup_phi = float(np.abs(ext).max(initial=0.0))
    st.m_cap = (cfg.m_cap if cfg.m_cap is not None
                else 1e3 * (1.0 + st.sup_norm + sup_phi))
    if spec.family == "coercive":
        if cfg.sigma_override is not None:
            st.sigma = np.atleast_1d(np.asarray(cfg.sigma_override, dtype=float))
        else:
            envelope(plan.grid, st.u, st.phi_trace, out=st._views[0])
            pm, pp = _one_sided_gradients(st)
            scale = float(np.abs(np.concatenate([pm, pp])).max(initial=0.0))
            st.sigma = 1.0 + lf_viscosity_bound(st.coeffs, scale)
    return st


def _one_sided_gradients(st: SolveState):
    """Backward and forward differences at the core nodes, shape (N, dim),
    reading the state's block: the envelope inside and the held datum on
    the ring.  They are views of ``st.diffs``, whose layout (2, dim,
    *core_shape) makes each axis's differences contiguous."""
    _, shifts, strided, pm, pp = st._views
    u = st.u.reshape(st.plan.core_shape)
    for bwd, fwd, d_bwd, d_fwd in shifts:
        if strided:
            # numpy would buffer a view that is not contiguous: copy it
            # into the output and subtract there
            np.copyto(d_bwd, bwd)
            np.copyto(d_fwd, fwd)
            bwd, fwd = d_bwd, d_fwd
        np.subtract(u, bwd, d_bwd)
        np.subtract(fwd, u, d_fwd)
    st.diffs /= st.grid.h
    return pm, pp


def cfl_denominator(st: SolveState) -> float:
    """Lambda + sum(drift)/h + max|lam| at the state's time, where the drift
    bound is the viscosity (coercive) or max |b| per axis (Bellman).
    Cached until the viscosity or a t-dependent lam or drift changes."""
    if st._den is None:
        c = st.coeffs
        drift = st.sigma if st.spec.family == "coercive" else c.b_max
        st._den = st.plan.qt.lam + float(np.sum(drift)) / st.grid.h + c.lam_max
    return st._den


def auto_dt(st: SolveState, cfg: SchemeConfig) -> float:
    den = cfl_denominator(st)
    if den <= 0.0:
        fallback = cfg.T / 100.0 if cfg.T else 0.01
        return cfg.dt if cfg.dt is not None else fallback
    dt = cfg.theta / den
    if cfg.dt is not None:
        if cfg.dt > cfg.theta / den * (1 + 1e-12):
            raise CflViolation(
                f"dt = {cfg.dt} violates dt*(Lambda + sigma/h + lam) <= theta "
                f"(max {cfg.theta / den})")
        return cfg.dt
    return dt


def _rhs(st: SolveState) -> np.ndarray:
    E = envelope(st.grid, st.u, st.phi_trace, out=st._views[0])
    rhs = st.plan.apply(E, st.u, st.load, out=st.rhs)
    pm, pp = _one_sided_gradients(st)
    rhs -= numerical_hamiltonian_many(st.coeffs, st.u, pm, pp, st.sigma,
                                      out=st.flux, work=st.flux_work)
    return rhs


def step(st: SolveState, cfg: SchemeConfig, dt: float | None = None) -> SolveState:
    """Advance one explicit step (in place) and return the state.

    Without ``dt`` the step takes :func:`auto_dt`; a given ``dt`` is checked
    against the CFL limit theta / :func:`cfl_denominator`.  On a
    Lax-Friedrichs viscosity underflow the viscosity is enlarged and the
    step retried with the tightened CFL limit, unless a shared sigma override
    pins it (paired comparison runs must restart jointly).  The applied step
    size is stored in ``st.last_dt``.
    """
    attempt = 0
    while True:
        if dt is None:
            use = auto_dt(st, cfg)
        else:
            den = cfl_denominator(st)
            limit = cfg.theta / den if den > 0.0 else np.inf
            use = dt
            if dt > limit * (1 + 1e-9):
                if attempt == 0:
                    raise CflViolation(
                        f"dt = {dt} exceeds the CFL-limited step {limit}")
                use = auto_dt(st, cfg)  # viscosity grew mid-step; tighten
        try:
            rhs = _rhs(st)
            break
        except ViscosityUnderflow as e:
            if cfg.sigma_override is not None:
                raise
            grown = 2.0 * st.sigma
            if e.required is not None:
                grown = np.maximum(grown, 2.0 * np.asarray(e.required, dtype=float))
            st.sigma = grown
            st.sigma_growth += 1
            attempt += 1
    rhs *= use
    st.u += rhs
    st.t += use
    st.last_dt = use
    if st.phi.time_dependent:
        st.plan.exterior_load(_read_datum(st), out=st.load)
    if st.coeffs.moving:
        st.coeffs.at(st.t)
        if st.coeffs.moving & {"lam", "b"}:
            st._den = None
    st.steps += 1
    st.sup_norm = float(np.abs(st.u, out=rhs).max())  # rhs is spent
    if not math.isfinite(st.sup_norm) or st.sup_norm > st.m_cap:
        raise BlowUp(f"sup-norm {st.sup_norm} exceeded cap {st.m_cap} at t = {st.t}")
    return st


@dataclass
class RunReport:
    """Time series collected along a run."""

    times: list = dfield(default_factory=list)
    sup_norms: list = dfield(default_factory=list)
    snapshots: list = dfield(default_factory=list)       # (t, u copy)
    trace_gap_series: list = dfield(default_factory=list)  # (t, gaps array)
    residuals: list = dfield(default_factory=list)
    certificates: dict = dfield(default_factory=dict)

    def record(self, st: SolveState, snapshot: bool = False):
        self.times.append(st.t)
        self.sup_norms.append(st.sup_norm)
        if snapshot:
            self.snapshots.append((st.t, st.u.copy()))
            self.trace_gap_series.append((st.t, st.trace_gaps()))


def run_to_time(st: SolveState, cfg: SchemeConfig, T: float) -> RunReport:
    """March to t = T with snapshots at the configured cadence.

    The initial condition is enforced classically at t = 0; the final step is
    shortened to land on T exactly.
    """
    if T < st.t:
        raise ValueError("target time lies in the past")
    rep = RunReport()
    rep.record(st, snapshot=True)
    if T == st.t:
        return rep
    cadence = cfg.snapshot_dt
    next_snap = st.t + cadence if cadence else np.inf
    while st.t < T - 1e-14:
        dt = auto_dt(st, cfg)
        dt = min(dt, T - st.t)
        if cadence and st.t + dt >= next_snap - 1e-14:
            dt = min(dt, next_snap - st.t)
        step(st, cfg, dt)
        snap = (cadence and st.t >= next_snap - 1e-12) or st.t >= T - 1e-14
        rep.record(st, snapshot=bool(snap))
        if cadence and st.t >= next_snap - 1e-12:
            next_snap += cadence
        if st.steps > cfg.max_steps:
            raise NonConvergence(f"exceeded {cfg.max_steps} steps before T")
    return rep


def run_to_steady(st: SolveState, cfg: SchemeConfig) -> tuple:
    """Freeze time and iterate until sup |u_new - u| / dt <= steady_tol.

    Requires time-independent data; returns (state, report) with the residual
    history.  Raises NonConvergence past max_steps.
    """
    if st.spec.time_dependent or getattr(st.phi, "time_dependent", False):
        raise ValueError("steady driver requires time-independent data")
    rep = RunReport()
    tol = cfg.steady_tol
    if tol is None:
        tol = 1e-8 * (1.0 + st.sup_norm)
    t_frozen = st.t
    prev, change = np.empty_like(st.u), np.empty_like(st.u)
    for _ in range(cfg.max_steps):
        np.copyto(prev, st.u)
        step(st, cfg)
        st.t = t_frozen  # explicit pseudo-time marching with frozen data
        np.subtract(st.u, prev, out=change)
        res = float(np.abs(change, out=change).max()) / st.last_dt
        rep.residuals.append(res)
        rep.sup_norms.append(st.sup_norm)
        if res <= tol:
            rep.certificates["steady_tol"] = tol
            return st, rep
    raise NonConvergence(
        f"steady residual {rep.residuals[-1] if rep.residuals else np.inf} "
        f"above {tol} after {cfg.max_steps} steps")
