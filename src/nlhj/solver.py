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
when the datum is read (at t = 0, and per step for a t-dependent datum).  A
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

from .errors import (BlowUp, NonConvergence, PreconditionError,
                     ValidationError, ViscosityUnderflow)
from .geometry import Grid
from .hamiltonians import (CoefficientField, Coefficients, flux_workspace,
                           lf_viscosity_bound, numerical_hamiltonian_many)
from .operators import SweepPlan, bind_envelope


@dataclass
class SchemeConfig:
    """Scheme parameters: a step's size is theta / (CFL denominator).  The
    spacing, and the times and tolerance that are given, must be positive."""

    h: float
    theta: float = 0.9
    T: float | None = None
    steady_tol: float | None = None
    snapshot_dt: float | None = None
    max_steps: int = 2_000_000

    def __post_init__(self):
        if not (0.0 < self.theta <= 1.0):
            raise ValueError("CFL safety factor theta must lie in (0, 1]")
        if self.h <= 0:
            raise ValueError("spacing must be positive")
        for name in ("T", "steady_tol", "snapshot_dt"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} = {value} must be positive")


@dataclass
class SolveState:
    """The unknowns at time t plus the data a step reads, held at time t:
    the Hamiltonian's coefficients on the core nodes (``coeffs``), the datum
    at the trace nodes (``phi_trace``) and its exterior load, and the padded
    ``block`` (see the module docstring) with the datum on its ring.  Data
    that do not depend on t are evaluated once, by :func:`init_state`; the
    rest are held bound to their points (``datum`` and ``coeffs``), and a
    step evaluates their parts that read t at the new time.  The CFL
    denominator is held too (``den``, see :func:`cfl_denominator`): None
    until :func:`auto_dt` first reads it, and again after ``sigma`` is set
    or a step moves lam or the drift.

    The workspace a step writes into, allocated here: ``block``, the
    one-sided differences ``diffs`` of shape (2, dim, *core_shape)
    (backward, forward), the update ``rhs`` and the ``flux`` at the core
    nodes, and ``flux_work``, the flux bound to ``coeffs`` and its scratch
    (see :func:`~nlhj.hamiltonians.flux_workspace`).  The envelope and the
    differences are bound to these arrays too: ``_envelope()`` writes the
    envelope into the block and returns its interior (see
    :func:`~nlhj.operators.bind_envelope`), ``_gradients()`` returns the
    differences (see :func:`_bind_gradients`)."""

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
    flux_work: object = dfield(init=False, repr=False)
    _envelope: object = dfield(init=False, repr=False)
    _gradients: object = dfield(init=False, repr=False)
    _sigma: np.ndarray | None = dfield(default=None, repr=False)
    den: float | None = dfield(default=None, repr=False)
    _den_moves: bool = dfield(init=False, repr=False)

    def __post_init__(self):
        self.sup_norm = float(np.abs(self.u).max())
        self.phi_trace = np.empty(len(self.grid.trace_pos))
        core, dim = self.plan.core_shape, self.grid.dim
        self.block = np.zeros([m + 2 for m in core])
        self.diffs = np.empty((2, dim) + core)
        self.rhs = np.empty_like(self.u)
        self.flux = np.empty_like(self.u)
        self.flux_work = flux_workspace(self.coeffs)
        self._envelope = bind_envelope(self.grid, self.u, self.phi_trace,
                                       self.block, self.plan.inner,
                                       self.plan.trace_block_pos)
        self._gradients = _bind_gradients(self)
        self._den_moves = bool(self.coeffs.moving & {"lam", "b"})

    @property
    def sigma(self) -> np.ndarray | None:
        """Lax-Friedrichs viscosity per axis (coercive forms only)."""
        return self._sigma

    @sigma.setter
    def sigma(self, value):
        self._sigma = value
        self.den = None

    @property
    def grid(self) -> Grid:
        return self.plan.grid


def eval_initial(u0, pts: np.ndarray) -> np.ndarray:
    """Initial data: scalar, expression string in x[, y], or f(points)."""
    if np.isscalar(u0) or isinstance(u0, CoefficientField):
        return CoefficientField(u0)(pts, 0.0)
    out = np.empty(pts.shape[0])
    out[:] = u0(pts)  # broadcasts a scalar result
    return out


def _bind_datum(phi: CoefficientField, plan: SweepPlan) -> tuple:
    """The datum bound (``CoefficientField.bind``) to each point set a step
    reads: the trace nodes, the block's ring and the exterior nodes, or only
    the plan's exterior sample for a datum constant in space, whose one
    value stands for every node."""
    ext = plan.exterior_sample(phi.varies_in_space)
    sets = ((plan.grid.trace_points, plan.ring_points, ext)
            if phi.varies_in_space else (ext,))
    return tuple(phi.bind(pts) for pts in sets)


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


def init_state(plan: SweepPlan, spec, phi, u0,
               coeffs: Coefficients | None = None) -> SolveState:
    """The state at t = 0 on the plan's grid.  Refuses data that are not
    finite where a step reads them (ValidationError) and a coercive a1 not
    bounded below by a positive constant (PreconditionError).

    ``coeffs`` is the spec's bundle on the core nodes at t = 0, built here
    when not given; states may share one only while none of its fields
    reads t (a step moves a bundle that does)."""
    phi = phi if isinstance(phi, CoefficientField) else CoefficientField(phi)
    pts = plan.grid.core_points
    # data that are not finite somewhere are refused below, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = eval_initial(u0, pts)
    if coeffs is None:
        coeffs = Coefficients(spec, pts)
    st = SolveState(plan, spec, phi, u, coeffs)
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
    bad = [f"[data] {name}: not finite at every node at t = 0.0"
           for name, vals in held.items()
           if not all(np.isfinite(v).all() for v in vals)]
    if bad:
        raise ValidationError(bad)
    st.load = plan.exterior_load(ext)
    st.m_cap = 1e3 * (1.0 + st.sup_norm + float(np.abs(ext).max(initial=0.0)))
    if spec.family == "coercive" and not coeffs.bound_reads_p:
        st.sigma = 1.0 + np.array(coeffs.lf_floor)
    elif spec.family == "coercive":
        st._envelope()
        pm, pp = st._gradients()
        scale = float(np.abs(np.concatenate([pm, pp])).max(initial=0.0))
        st.sigma = 1.0 + np.array(lf_viscosity_bound(coeffs, scale))
    return st


def _bind_gradients(st: SolveState):
    """The backward and forward differences at the core nodes, shape (N,
    dim), as a function () -> (p-, p+) that forms them from the state's
    block: the envelope inside and the held datum on the ring.  They are
    views of ``st.diffs``, whose layout (2, dim, *core_shape) makes each
    axis's differences contiguous."""
    plan, block, diffs, dim = st.plan, st.block, st.diffs, st.grid.dim
    u = st.u.reshape(plan.core_shape)
    # a 0-d array, which the division reads without converting a Python
    # number
    h = np.array(st.grid.h)
    pm, pp = diffs[0].reshape(dim, -1).T, diffs[1].reshape(dim, -1).T
    shifts = [(block[bwd], block[fwd], diffs[0, a], diffs[1, a])
              for a, (bwd, fwd) in enumerate(plan.shifts)]
    subtract, divide, copyto = np.subtract, np.divide, np.copyto
    if dim == 1:
        [(bwd, fwd, d_bwd, d_fwd)] = shifts

        def gradients():
            subtract(u, bwd, d_bwd)
            subtract(fwd, u, d_fwd)
            divide(diffs, h, diffs)
            return pm, pp
        return gradients

    def gradients():
        for bwd, fwd, d_bwd, d_fwd in shifts:
            # numpy would buffer a shifted view, which is not contiguous:
            # copy it into the output and subtract there
            copyto(d_bwd, bwd)
            copyto(d_fwd, fwd)
            subtract(u, d_bwd, d_bwd)
            subtract(d_fwd, u, d_fwd)
        divide(diffs, h, diffs)
        return pm, pp
    return gradients


def cfl_denominator(st: SolveState) -> float:
    """Lambda + sum(drift)/h + max|lam| at the state's time, where the drift
    bound is the viscosity (coercive) or max |b| per axis (Bellman).  The
    state holds it (``den``) from :func:`auto_dt`'s first read until the
    viscosity or a t-dependent lam or drift changes."""
    c = st.coeffs
    drift = st.sigma if st.spec.family == "coercive" else c.b_max
    return st.plan.qt.lam + sum(drift.tolist()) / st.grid.h + c.lam_max


def auto_dt(st: SolveState, cfg: SchemeConfig) -> float:
    """The CFL-limited step theta / ``st.den``, which it computes where the
    state holds none; without a bound (den = 0), T / 100, or 0.01 without
    T."""
    den = st.den
    if den is None:
        den = st.den = cfl_denominator(st)
    if den <= 0.0:
        return cfg.T / 100.0 if cfg.T else 0.01
    return cfg.theta / den


def step(st: SolveState, cfg: SchemeConfig, until=np.inf) -> SolveState:
    """Advance one explicit step (in place) and return the state.

    On a Lax-Friedrichs viscosity underflow the state's viscosity grows to
    twice the larger of itself and the required one (counted in
    ``st.sigma_growth``) and only the flux is evaluated again: the sweep and
    the differences do not read the viscosity, and the grown one covers the
    same differences.  The step size, stored in ``st.last_dt``, is
    :func:`auto_dt` after the flux (a grown viscosity tightens it), shortened
    to land on ``until`` where that comes first: no step exceeds the bound.
    """
    u = st.u
    E = st._envelope()
    rhs = st.plan.apply(E, u, st.load, out=st.rhs)
    pm, pp = st._gradients()
    try:
        flux = numerical_hamiltonian_many(st.coeffs, u, pm, pp, st._sigma,
                                          out=st.flux, work=st.flux_work)
    except ViscosityUnderflow as e:
        st.sigma = np.maximum(2.0 * st._sigma, 2.0 * e.required)
        st.sigma_growth += 1
        flux = numerical_hamiltonian_many(st.coeffs, u, pm, pp, st._sigma,
                                          out=st.flux, work=st.flux_work)
    dt, t = auto_dt(st, cfg), st.t
    if until - t < dt:
        dt = until - t
    rhs -= flux
    rhs *= dt
    u += rhs
    st.t = t = t + dt
    st.last_dt = dt
    if st.datum is not None:  # the datum reads t
        st.plan.exterior_load(_read_datum(st), out=st.load)
    if st.coeffs.moving:
        st.coeffs.at(t)
        if st._den_moves:
            st.den = None
    st.steps += 1
    # rhs is spent
    sup = st.sup_norm = float(np.maximum.reduce(np.absolute(u, rhs)))
    if not math.isfinite(sup) or sup > st.m_cap:
        raise BlowUp(f"sup-norm {sup} exceeded cap {st.m_cap} at t = {t}")
    return st


@dataclass
class RunReport:
    """Time series collected along a run."""

    times: list = dfield(default_factory=list)
    sup_norms: list = dfield(default_factory=list)
    snapshots: list = dfield(default_factory=list)       # (t, u copy)
    residuals: list = dfield(default_factory=list)
    steady_tol: float | None = None  # set when run_to_steady converges

    def record(self, st: SolveState, snapshot: bool = False):
        self.times.append(st.t)
        self.sup_norms.append(st.sup_norm)
        if snapshot:
            self.snapshots.append((st.t, st.u.copy()))


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
        step(st, cfg, min(T, next_snap))
        snap = st.t >= next_snap - 1e-12
        rep.record(st, snapshot=snap or st.t >= T - 1e-14)
        if snap:
            next_snap += cadence
        if st.steps > cfg.max_steps:
            raise NonConvergence(f"exceeded {cfg.max_steps} steps before T")
    return rep


def run_to_steady(st: SolveState, cfg: SchemeConfig) -> tuple:
    """Freeze time and iterate until sup |u_new - u| / dt <= steady_tol.

    Refuses data that depend on t (PreconditionError); returns (state,
    report) with the residual history and the final state as its one
    snapshot.  Raises NonConvergence past max_steps.
    """
    if st.spec.time_dependent or st.phi.time_dependent:
        raise PreconditionError("steady driver requires time-independent data")
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
        res = (float(np.maximum.reduce(np.abs(change, out=change)))
               / st.last_dt)
        rep.residuals.append(res)
        if res <= tol:
            rep.steady_tol = tol
            rep.record(st, snapshot=True)
            return st, rep
    raise NonConvergence(
        f"steady residual {rep.residuals[-1] if rep.residuals else np.inf} "
        f"above {tol} after {cfg.max_steps} steps")
