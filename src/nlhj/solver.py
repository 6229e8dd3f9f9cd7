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

The block is part of the state's workspace: the one-sided differences, the
flux with its scratch and the right-hand side are the rest of it.  A step
writes each of them in place (the sweep's output becomes the update, from
which the flux is subtracted), so a step whose data do not depend on t
allocates no array of the core's size.  The workspace belongs to a
:class:`StepBatch` of states that share a plan, a coefficient bundle and a
viscosity, one row per state: a batch is evaluated in one set of calls,
which costs little more than one state's evaluation where a step's arrays
are small, and each state's step then takes its own row.  A lone state is
a batch of one, laid out as every batch is; a comparison pair is a batch
of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from .errors import (BlowUp, NonConvergence, PreconditionError,
                     ValidationError, ViscosityUnderflow)
from .geometry import Grid
from .hamiltonians import (CoefficientField, Coefficients, lf_viscosity_bound,
                           numerical_hamiltonian_many)
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
    the datum at the trace nodes (``phi_trace``) and its exterior load, and
    the padded ``block`` (see the module docstring) with the datum on its
    ring.  A datum that does not depend on t is evaluated once, by
    :func:`init_state`; one that does is held bound to its points
    (``datum``), and a step evaluates its parts that read t at the new
    time.

    A state is row ``row`` of its ``batch`` (:class:`StepBatch`), which
    holds the Hamiltonian's coefficients (``coeffs``), the workspace a step
    writes into, the viscosity ``sigma`` and the CFL denominator ``den``:
    ``u``, ``block``, ``phi_trace``, ``load``, the one-sided differences
    ``diffs`` of shape (2, dim, *core_shape) (backward, forward), the
    update ``rhs`` and the ``flux`` are views of that row."""

    plan: SweepPlan
    spec: object
    phi: CoefficientField
    u: np.ndarray                    # core values, in grid.core_flat order
    batch: "StepBatch" = dfield(repr=False)
    t: float = 0.0
    steps: int = 0
    m_cap: float = np.inf
    sup_norm: float = 0.0
    sigma_growth: int = 0
    last_dt: float = 0.0
    datum: tuple | None = dfield(default=None, repr=False)  # see _bind_datum
    row: int = dfield(init=False, repr=False)
    load: np.ndarray = dfield(init=False, repr=False)  # exterior load at t
    phi_trace: np.ndarray = dfield(init=False, repr=False)
    block: np.ndarray = dfield(init=False, repr=False)
    diffs: np.ndarray = dfield(init=False, repr=False)
    rhs: np.ndarray = dfield(init=False, repr=False)
    flux: np.ndarray = dfield(init=False, repr=False)
    _ring: np.ndarray = dfield(init=False, repr=False)  # the block, flat

    def __post_init__(self):
        self.sup_norm = float(np.abs(self.u).max())
        self.batch.join(self)

    @property
    def coeffs(self) -> Coefficients:
        """The batch's coefficient bundle, on the core nodes of every row."""
        return self.batch.coeffs

    @property
    def sigma(self) -> np.ndarray | None:
        """Lax-Friedrichs viscosity per axis (coercive forms only), the
        batch's: setting it clears the CFL denominator and makes every row
        of the batch stale."""
        return self.batch.sigma

    @sigma.setter
    def sigma(self, value):
        b = self.batch
        b.sigma, b.den, b.stale = value, None, [True] * b.rows

    @property
    def den(self) -> float | None:
        """The batch's CFL denominator (see :func:`cfl_denominator`): None
        until :func:`auto_dt` first reads it, and again after ``sigma`` is
        set or a step moves lam or the drift."""
        return self.batch.den

    @property
    def grid(self) -> Grid:
        return self.plan.grid


class StepBatch:
    """The workspace of ``rows`` states on the plan ``plan`` that share the
    coefficient bundle ``coeffs`` and a viscosity, the per-axis largest of
    their own (see :func:`init_state`), one row per state, in the order
    they join: the states are evaluated together.  ``u``, ``rhs``,
    ``flux``, ``load`` and ``phi_trace`` hold the rows one after the other;
    ``block`` has shape (rows, *block_shape) and ``diffs`` (2, dim, rows,
    *core_shape), so that each axis's differences of every row are
    contiguous, for any number of rows.  The bundle is evaluated on the
    rows' core points one after the other, as the workspace holds them
    (``np.tile`` of the core points, ``rows`` times).

    A row whose ``stale`` flag is down holds the operator's values
    (``rhs``) and the ``flux`` of its state as it stands; :func:`step`
    evaluates every row when its state's row is stale and consumes that
    row's.  A bundle with fields that read t moves when every row has
    stepped, so its rows step in turn, at one time.  The evaluation is
    bound to the workspace when the batch is made, as views and closures:
    ``envelope()`` writes the envelope into the block and returns its
    interior (see :func:`~nlhj.operators.bind_envelope`), ``gradients()``
    returns the differences (see :func:`_bind_gradients`) and ``sweep`` is
    the plan's sweep workspace for ``rows`` blocks (see
    :meth:`~nlhj.operators.SweepPlan.workspace`); the plan holds what
    depends only on it and the row count, and the flux is the bundle's
    (``coeffs.flux``), which every batch on the bundle shares."""

    def __init__(self, plan: SweepPlan, coeffs: Coefficients,
                 rows: int = 1):
        grid = plan.grid
        self.n, self.m = len(grid.core_flat), len(grid.trace_pos)
        if coeffs.n != rows * self.n:
            raise ValueError(f"a batch of {rows} rows takes a bundle on "
                             f"{rows * self.n} points, not {coeffs.n}")
        self.plan, self.coeffs, self.rows, self.joined = plan, coeffs, rows, 0
        self.sigma = self.den = None
        self.den_moves = bool(coeffs.moving & {"lam", "b"})
        self.stale = [True] * rows
        # zeros in the rows no state has joined yet, which a state's
        # initial viscosity evaluates with its own
        self.u, self.rhs, self.flux, self.load = (np.zeros(rows * self.n)
                                                  for _ in range(4))
        self.phi_trace = np.zeros(rows * self.m)
        self.block = np.zeros((rows,) + tuple(k + 2 for k in plan.core_shape))
        self.diffs = np.empty((2, grid.dim, rows) + plan.core_shape)
        self.envelope = bind_envelope(plan, self.u, self.phi_trace, self.block)
        self.gradients = _bind_gradients(self)
        self.sweep = plan.workspace(rows)

    def join(self, st: SolveState):
        """Make ``st`` the next row, its values copied in and its arrays
        views of the row.  It must have the batch's plan and spec."""
        row = self.joined
        if st.plan is not self.plan or st.spec is not self.coeffs.spec:
            raise ValueError("a batch's states share one plan and the "
                             "spec of its bundle")
        if row == self.rows:
            raise ValueError(f"the batch's {self.rows} rows are taken")
        n, m = self.n, self.m
        cut = slice(row * n, (row + 1) * n)
        self.u[cut] = st.u
        st.u, st.rhs, st.flux, st.load = (
            a[cut] for a in (self.u, self.rhs, self.flux, self.load))
        st.phi_trace = self.phi_trace[row * m:(row + 1) * m]
        st.block, st.diffs = self.block[row], self.diffs[:, :, row]
        st.batch, st.row, st._ring = self, row, st.block.reshape(-1)
        self.joined = row + 1


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
    the caller takes the exterior load.  A datum constant in space puts its
    one value at every ring node."""
    t = st.t
    if st.phi.varies_in_space:
        trace, ring, ext = (values(t) for values in st.datum)
        st.phi_trace[:] = trace
    else:
        st.phi_trace[:] = ring = ext = st.datum[0](t)
    st._ring.put(st.plan.ring_pos, ring)
    return ext


def init_state(plan: SweepPlan, spec, phi, u0,
               batch: StepBatch | None = None) -> SolveState:
    """The state at t = 0 on the plan's grid.  Refuses data that are not
    finite where a step reads them (ValidationError) and a coercive a1 not
    bounded below by a positive constant (PreconditionError).

    The state is the next row of ``batch``, whose bundle must be the
    spec's, and else a batch of one with the spec's bundle on the core
    nodes; a coercive state raises the batch's viscosity to its own on
    each axis where that is larger (see :class:`StepBatch`)."""
    phi = phi if isinstance(phi, CoefficientField) else CoefficientField(phi)
    pts = plan.grid.core_points
    # data that are not finite somewhere are refused below, without warnings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = eval_initial(u0, pts)
    st = SolveState(plan, spec, phi, u,
                    batch or StepBatch(plan, Coefficients(spec, pts)))
    coeffs = st.coeffs
    a1_min = coeffs.stacked["a1"].min() if spec.family == "coercive" else 1.0
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
    plan.exterior_load(ext, out=st.load)
    st.m_cap = 1e3 * (1.0 + st.sup_norm + float(np.abs(ext).max(initial=0.0)))
    if spec.family == "coercive":
        own = coeffs.lf_floor
        if coeffs.bound_reads_p:
            st.batch.envelope()
            st.batch.gradients()
            own = lf_viscosity_bound(
                coeffs, float(np.abs(st.diffs).max(initial=0.0)))
        own = 1.0 + np.array(own)
        st.sigma = own if st.sigma is None else np.maximum(st.sigma, own)
    return st


def _bind_gradients(b: StepBatch):
    """The backward and forward differences at the core nodes of every row
    of the batch ``b``, shape (rows * N, dim), as a function () -> (p-, p+)
    that forms them from the batch's block: the envelope inside and the
    held datum on the ring.  They are views of ``b.diffs``, whose layout
    makes each axis's differences contiguous."""
    plan, block, diffs, grid = b.plan, b.block, b.diffs, b.plan.grid
    dim = grid.dim
    u = b.u.reshape(diffs.shape[2:])
    # a 0-d array, which the division reads without converting a Python
    # number
    h = np.array(grid.h)
    pm, pp = diffs[0].reshape(dim, -1).T, diffs[1].reshape(dim, -1).T
    shifts = [(block[(...,) + bwd], block[(...,) + fwd], diffs[0, a],
               diffs[1, a]) for a, (bwd, fwd) in enumerate(plan.shifts)]
    subtract, divide, copyto = np.subtract, np.divide, np.copyto
    if dim == 1:
        # a row's shifted views are contiguous, which numpy subtracts in
        # place; across the rows they are not, and numpy would buffer them
        rows = list(zip(u, *shifts[0]))

        def gradients():
            for u_row, bwd, fwd, d_bwd, d_fwd in rows:
                subtract(u_row, bwd, d_bwd)
                subtract(fwd, u_row, d_fwd)
            divide(diffs, h, diffs)
            return pm, pp
        return gradients

    def gradients():
        for bwd, fwd, d_bwd, d_fwd in shifts:
            # numpy would buffer a shifted view of the 2-D rows, which is
            # not contiguous: copy it into the output and subtract there
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
    state's batch holds it (``den``) from :func:`auto_dt`'s first read until
    the viscosity or a t-dependent lam or drift changes."""
    c = st.coeffs
    drift = st.sigma if st.spec.family == "coercive" else c.b_max
    return st.plan.qt.lam + sum(drift.tolist()) / st.grid.h + c.lam_max


def auto_dt(st: SolveState, cfg: SchemeConfig) -> float:
    """The CFL-limited step theta / ``st.den``, which it computes where the
    state's batch holds none; without a bound (den = 0), T / 100, or 0.01
    without T."""
    b = st.batch
    den = b.den
    if den is None:
        den = b.den = cfl_denominator(st)
    if den <= 0.0:
        return cfg.T / 100.0 if cfg.T else 0.01
    return cfg.theta / den


def step(st: SolveState, cfg: SchemeConfig, until=np.inf) -> SolveState:
    """Advance one explicit step (in place) and return the state.

    Where the state's row of its batch is stale, every row of the batch is
    evaluated, in one set of calls: the sweep, the differences and the
    flux.  The step then consumes its own row.  A bundle with fields that
    read t moves to the new time once every row has stepped; a row whose
    step would evaluate the batch before then raises ValueError.  On a
    Lax-Friedrichs viscosity underflow the batch's viscosity grows to twice
    the larger of itself and the required one (counted in
    ``st.sigma_growth``), for every row before any state moves, and only
    the flux is evaluated again: the sweep and the differences do not read
    the viscosity, and the grown one covers the same differences.  The
    step size, stored in ``st.last_dt``, is :func:`auto_dt` after the flux
    (a grown viscosity tightens it), shortened to land on ``until`` where
    that comes first: no step exceeds the bound.
    """
    b = st.batch
    if b.stale[st.row]:
        if b.coeffs.moving and not all(b.stale):
            raise ValueError(f"row {st.row} steps out of turn: the batch's "
                             f"bundle reads t and moves with its last row")
        u = b.u
        b.plan.apply(b.envelope(), u, b.load, b.rhs, b.sweep)
        pm, pp = b.gradients()
        try:
            numerical_hamiltonian_many(b.coeffs, u, pm, pp, b.sigma,
                                       out=b.flux)
        except ViscosityUnderflow as e:
            st.sigma = np.maximum(2.0 * b.sigma, 2.0 * e.required)
            st.sigma_growth += 1
            numerical_hamiltonian_many(b.coeffs, u, pm, pp, b.sigma,
                                       out=b.flux)
        b.stale = [False] * b.rows
    b.stale[st.row] = True
    dt, t = auto_dt(st, cfg), st.t
    if until - t < dt:
        dt = until - t
    u, rhs = st.u, st.rhs
    rhs -= st.flux
    rhs *= dt
    u += rhs
    st.t = t = t + dt
    st.last_dt = dt
    if st.datum is not None:  # the datum reads t
        st.plan.exterior_load(_read_datum(st), out=st.load)
    if b.coeffs.moving and all(b.stale):
        b.coeffs.at(t)
        if b.den_moves:
            b.den = None
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
