"""Packaged experiments: a plain run, comparison, boundary attainment/loss,
coercive regularity, and large-time convergence with its rate bound.

Each experiment returns an :class:`ExperimentResult` carrying a verdict, the
headline metrics, and plot-ready tables; preconditions are gated and raise
:class:`PreconditionError` so the CLI can tell a failed precondition
(exit 2) from a failed experiment (exit 1).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field as dfield, replace

import numpy as np

from .boundary import classify_boundary, face_tags
from .errors import NonConvergence, PreconditionError
from .geometry import Domain, Grid
from .hamiltonians import (BellmanSpec, CoefficientField, Coefficients,
                           CoerciveSpec, check_H2prime, check_superfractional,
                           check_UE)
from .kernels import Kernel, build_quadrature
from . import operators
from .operators import SweepPlan, envelope, row_prefixes, row_template
from .solver import (SchemeConfig, StepBatch, cfl_denominator, init_state,
                     run_to_steady, run_to_time, step)


@dataclass
class ExperimentResult:
    passed: bool
    metrics: dict = dfield(default_factory=dict)
    tables: dict = dfield(default_factory=dict)   # name -> (header, rows)
    # solver counters for the manifest, never for a table
    telemetry: dict = dfield(default_factory=dict)


# the experiments' constants; configs read their default halo reach here
R_MAX_DIAMETERS = 4.0   # halo reach, in domain diameters
EPS_RATE = 0.05         # slack of the rate bound
EPS_CONV = 0.05         # convergence tolerance along the horizon ladder
HOLDER_SEP = 0.25       # largest pair separation of the Holder quotient


def discretize(dom: Domain, k: Kernel, h: float,
               r_max: float | None = None) -> SweepPlan:
    """The problem on the lattice: a grid over the domain plus an exterior
    halo of reach r_max (default four diameters), the kernel's quadrature
    table, and the sweep plan binding them (``.grid``, ``.qt``).

    The last plan is kept: callers asking for the same (domain, kernel, h,
    r_max) in a row get the same plan, so a run that certifies and then
    evolves, or a series of comparison pairs on one problem, discretizes
    once.
    """
    if r_max is None:
        r_max = R_MAX_DIAMETERS * dom.diameter
    return _last_plan(dom, k, h, r_max)


@functools.lru_cache(maxsize=1)
def _last_plan(dom: Domain, k: Kernel, h: float, r_max: float) -> SweepPlan:
    qt = build_quadrature(k, h, r_max)
    grid = Grid(dom, h, halo=int(np.floor(r_max / h + 1e-12)))
    return SweepPlan(grid, qt)


def trace_face_map(grid: Grid, dom: Domain) -> dict:
    """Trace-node indices grouped by the face they lie on (corners in both):
    face f holds the nodes of the core index box whose index on axis f // 2
    is 0 (f even) or n_core (f odd)."""
    box = np.unravel_index(grid.trace_pos, tuple(n + 1 for n in grid.n_core))
    return {name: np.flatnonzero(box[f // 2] == f % 2 * grid.n_core[f // 2])
            for f, name in enumerate(dom.face_names())}


def run_experiment(spec, dom: Domain, k: Kernel, phi, u0, cfg: SchemeConfig,
                   steady: bool, outdir, r_max: float | None = None
                   ) -> ExperimentResult:
    """March to ``cfg.T``, or to a steady state when ``steady``, writing
    each snapshot's envelope to ``outdir/field_tNNNN.tsv``.  Tables:
    ``report``, the sup norm (the residual when ``steady``) of each step,
    and ``trace_gaps``, phi - u at each trace node and snapshot time, whose
    coordinates and times are held as their ``%.17g`` text."""
    plan = discretize(dom, k, cfg.h, r_max)
    grid = plan.grid
    st = init_state(plan, spec, phi, u0)
    if steady:
        st, rep = run_to_steady(st, cfg)
        report = (("step", "residual"), list(enumerate(rep.residuals)))
    else:
        rep = run_to_time(st, cfg, cfg.T)
        report = (("t", "sup_norm"), list(zip(rep.times, rep.sup_norms)))
    template = row_template(row_prefixes(grid.core_points))
    # the trace nodes' coordinates and each snapshot's t as the text the
    # table writer would make of them, formatted once
    pts = [tuple(["%.17g" % x for x in p])
           for p in grid.trace_points.tolist()]
    gaps = []
    for i, (t, u) in enumerate(rep.snapshots):
        phi_trace = st.phi(grid.trace_points, t)
        # looked up on operators, where a tracer patches it
        operators.save_field(grid, envelope(grid, u, phi_trace), t,
                             outdir / f"field_t{i:04d}.tsv", k.alpha, template)
        gs, t_text = phi_trace - u[grid.trace_pos], "%.17g" % t
        gaps += [(*p, t_text, g) for p, g in zip(pts, gs.tolist())]
    dts = np.diff(rep.times)
    return ExperimentResult(
        True, metrics={"steps": st.steps, "sup_norm": st.sup_norm},
        tables={"report": report,
                "trace_gaps": (("x",) * grid.dim + ("t", "gap"), gaps)},
        telemetry={"steps": st.steps,
                   "dt_min": float(dts.min()) if len(dts) else None,
                   "dt_max": float(dts.max()) if len(dts) else None,
                   "cfl_denominator": cfl_denominator(st.batch),
                   "sigma_growth": st.sigma_growth})


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def _require_ordered(sa, sb, T: float):
    """Precondition of a comparison pair of states: u0 <= v0 at the core
    nodes and phi_u <= phi_v outside the domain, at t = 0, and at 5 times
    of the window [0, T] where a datum reads t."""
    if np.any(sa.u > sb.u + 1e-14):
        raise PreconditionError("initial data are not ordered u0 <= v0")
    pa, pb = sa.phi, sb.phi
    ext_pts = sa.batch.plan.exterior_sample(pa.varies_in_space
                                            or pb.varies_in_space)
    moving = pa.time_dependent or pb.time_dependent
    for t in np.linspace(0.0, T, 5) if moving else (0.0,):
        if np.any(pa(ext_pts, t) > pb(ext_pts, t) + 1e-14):
            raise PreconditionError("exterior data are not ordered phi_u <= phi_v")


# the last comparison pair's setup: its spec, plan and bundle
_held_pair = (None, None, None)


def _pair_setup(spec, plan: SweepPlan) -> Coefficients:
    """The coefficient bundle of ``spec`` on both rows' core points of a
    pair on ``plan`` (``np.tile`` of the core points, twice), at t = 0.

    The last pair's is kept, with the flux it binds, keyed by the identity
    of the spec and the plan, as :func:`discretize` keeps its last plan, so
    that the seeded pairs of one problem build it once.  A kept bundle is
    moved back to t = 0, which evaluates again only its fields that read
    t: the bytes of a new one.  Each pair still has a batch of its own,
    whose rows and viscosity are its own."""
    global _held_pair
    held_spec, held_plan, coeffs = _held_pair
    if spec is not held_spec or plan is not held_plan:
        coeffs = Coefficients(spec, np.tile(plan.grid.core_points, (2, 1)))
        _held_pair = spec, plan, coeffs
    return coeffs.at(0.0)


def comparison_experiment(spec, dom: Domain, k: Kernel, u0_pair, phi_pair,
                          T: float, cfg: SchemeConfig,
                          r_max: float | None = None) -> ExperimentResult:
    """Run two ordered evolutions in lockstep; report the worst ordering
    violation max over steps and nodes of (u - v)^+.

    The states are the two rows of one batch (see
    :class:`~nlhj.solver.StepBatch`): one coefficient bundle, one
    Lax-Friedrichs viscosity (coercive forms) and one step size, so that
    both take every step with one monotone scheme, otherwise exact ordering
    could not be expected.  The bundle, with the flux it binds, is the last
    pair's where it had the same spec and plan (see :func:`_pair_setup`).
    The batch refuses a coercive a1 not bounded below by a positive
    constant before any step, and sizes its viscosity once both rows have
    joined: the per-axis larger of the two states' own, the ones a single
    run of either data set starts with.  A step that finds it too small
    grows it for both rows before either state moves (``sigma_growth``),
    so the pair checks the scheme the solver runs.  A state passing
    ``cfg.max_steps`` raises :class:`NonConvergence`.
    Metrics: ``max_violation``, ``steps`` (per state), the final shared
    ``sigma`` (None for Bellman forms) and ``sigma_growth``, summed over
    the two states; the last three are also its telemetry.  The ``report``
    table holds each step's ``t`` and signed ``max_u_minus_v``, whose
    positive part is the violation.
    """
    plan = discretize(dom, k, cfg.h, r_max)
    batch = StepBatch(plan, _pair_setup(spec, plan), 2)
    sa, sb = (init_state(plan, spec, phi, u0, batch)
              for u0, phi in zip(u0_pair, phi_pair))
    _require_ordered(sa, sb, T)
    worst, rows, gap = 0.0, [], np.empty_like(sa.u)
    while sa.t < T - 1e-14:
        step(sa, cfg, T)
        step(sb, cfg, T)
        v = float(np.maximum.reduce(np.subtract(sa.u, sb.u, out=gap)))
        worst = max(worst, v)
        rows.append((sa.t, v))
        if sa.steps > cfg.max_steps:
            raise NonConvergence(f"comparison pair: exceeded "
                                 f"{cfg.max_steps} steps before T")
    sigma = batch.sigma
    counters = {"steps": sa.steps,
                "sigma": None if sigma is None else float(np.max(sigma)),
                "sigma_growth": sa.sigma_growth + sb.sigma_growth}
    return ExperimentResult(
        worst <= 1e-12, metrics={"max_violation": worst, **counters},
        tables={"report": (("t", "max_u_minus_v"), rows)},
        telemetry=counters)


def comparison_seeds(spec, dom: Domain, k: Kernel, seeds: int, T: float,
                     cfg: SchemeConfig,
                     r_max: float | None = None) -> ExperimentResult:
    """:func:`comparison_experiment` on the :func:`random_ordered_pair` of
    each seed below ``seeds``, passed when every pair passes: the worst
    violation, a ``seed, max_violation, max_u_minus_v`` table, whose last
    column is the largest of the pair's signed max(u - v) over its steps
    (which reads every coefficient, where a violation of 0 does not), and
    the pairs' steps and viscosity growths summed and largest shared
    ``sigma`` as telemetry."""
    results = [comparison_experiment(spec, dom, k, pair[:2], pair[2:], T, cfg,
                                     r_max=r_max) for pair in
               (random_ordered_pair(s, dom) for s in range(seeds))]
    violations = [r.metrics["max_violation"] for r in results]
    gaps = [max(v for _, v in r.tables["report"][1]) for r in results]
    tel = [r.telemetry for r in results]
    return ExperimentResult(
        all(r.passed for r in results),
        metrics={"max_violation": max(violations), "seeds": seeds},
        tables={"report": (("seed", "max_violation", "max_u_minus_v"),
                           list(zip(range(seeds), violations, gaps)))},
        telemetry={"steps": sum(t["steps"] for t in tel),
                   "sigma": max((t["sigma"] for t in tel
                                 if t["sigma"] is not None), default=None),
                   "sigma_growth": sum(t["sigma_growth"] for t in tel)})


def random_ordered_pair(seed: int, dom: Domain):
    """Smooth random ordered data (u0 <= v0, phi_u <= phi_v) of amplitude
    0.5 for one seed."""
    rng = np.random.default_rng(seed)
    lo, hi = np.array(dom.lower), np.array(dom.upper)
    scale = 2 * np.pi / (hi - lo)
    a = rng.normal(size=(3, dom.dim)) * 0.5 / 3
    ph = rng.random((3, dom.dim)) * 2 * np.pi
    gap0 = 0.2 + 0.6 * rng.random()
    phi_gap = 0.1 + 0.4 * rng.random()
    base_c = rng.normal() * 0.5

    def u0(pts):
        pts = np.atleast_2d(pts)
        out = np.full(pts.shape[0], base_c)
        for j in range(3):
            for axis in range(dom.dim):
                out += a[j, axis] * np.sin((j + 1) * scale[axis] *
                                           (pts[:, axis] - lo[axis]) + ph[j, axis])
        return out

    def v0(pts):
        return u0(pts) + gap0

    phi_u = CoefficientField(base_c)
    phi_v = CoefficientField(base_c + phi_gap)
    return u0, v0, phi_u, phi_v


# ---------------------------------------------------------------------------
# boundary behavior
# ---------------------------------------------------------------------------

def boundary_behavior_experiment(spec: BellmanSpec, dom: Domain, k: Kernel,
                                 phi, u0, T: float, cfg: SchemeConfig,
                                 r_max: float | None = None) -> ExperimentResult:
    """Evolve to T and report the datum-minus-trace gaps phi - u per face
    with their drift tags (metrics ``per_face`` and ``tags``).

    Requires alpha < 1 and the uniform ellipticity certificate; on outflow
    faces the gap is expected to vanish under refinement, on inflow faces
    with dominating drift it stabilizes at a positive loss.  Gaps are taken
    from the raw (interior-limit) trace of the evolving upper field.  The
    result fails when the final-time gap on an out- or mixed-tagged face
    lies below -tolerance, a violation of the subsolution bound; the
    tolerance h (1 + sup |u|) is O(h), since the discrete trace may
    overshoot the datum transiently by a discretization error.  On in-tagged
    faces the trace may legitimately exceed the datum.
    """
    if spec.family != "bellman":
        raise PreconditionError("boundary classification requires a Bellman form")
    if k.alpha >= 1:
        raise PreconditionError("boundary behavior experiment requires alpha < 1")
    ue = check_UE(k)
    if not ue.passed:
        raise PreconditionError(f"uniform ellipticity (UE) failed: {ue.details}")
    plan = discretize(dom, k, cfg.h, r_max)
    grid = plan.grid
    st = init_state(plan, spec, phi, u0)
    cfg_run = cfg if cfg.snapshot_dt else replace(cfg, snapshot_dt=T / 20)
    rep = run_to_time(st, cfg_run, T)
    rows, seen = classify_boundary(spec, dom, (0.0, T))
    tags = face_tags(seen)
    tr_pts = grid.trace_points
    gaps = np.array([st.phi(tr_pts, t) - u[grid.trace_pos]
                     for t, u in rep.snapshots])   # (times, trace nodes)

    tol = cfg.h * (1.0 + st.sup_norm)
    samples, per_face, violated = [], {}, False
    for face, idx in trace_face_map(grid, dom).items():
        samples += [(*tr_pts[i], t, g[i], tags[face])
                    for (t, _), g in zip(rep.snapshots, gaps) for i in idx]
        arr = np.take(gaps, idx, axis=1)  # row major: the mean sums by rows
        per_face[face] = {"max_gap": float(arr.max()),
                          "mean_gap": float(arr.mean()),
                          "final_gap": float(arr[-1].max()),
                          "final_gap_abs": float(np.max(np.abs(arr[-1])))}
        if tags[face] in ("out", "mixed") and float(arr[-1].min()) < -tol:
            violated = True

    return ExperimentResult(
        not violated,
        metrics={"per_face": per_face, "tags": tags},
        tables={"trace_gaps": (("x",) * grid.dim + ("t", "gap", "tag"), samples),
                "classification": (("face",) + ("x",) * grid.dim +
                                   ("t", "tag") +
                                   tuple(f"w{i}" for i in
                                         range(len(spec.controls))),
                                   rows)},
        telemetry={"steps": st.steps})


def boundary_refinement(spec, dom, k, phi, u0, T, h_list,
                        cfg: SchemeConfig | None = None,
                        r_max: float | None = None) -> ExperimentResult:
    """:func:`boundary_behavior_experiment` at each spacing of ``h_list``,
    passed when it passes at every h: the final-time ``gaps`` per face, as
    metrics and a ``face, h0..`` table, their halving ``ratios``, and the
    ``steps`` at each h.

    Each h runs with ``cfg`` (defaults when None) at that spacing; the
    spacings must decrease strictly, so that each ratio is a refinement."""
    if any(b >= a for a, b in zip(h_list, h_list[1:])):
        raise ValueError(f"spacings must decrease strictly: {h_list}")
    gaps, passed, steps = {}, True, []
    for h in h_list:
        cfg_h = SchemeConfig(h=h) if cfg is None else replace(cfg, h=h)
        res = boundary_behavior_experiment(spec, dom, k, phi, u0, T, cfg_h,
                                           r_max=r_max)
        passed = passed and res.passed
        steps.append(res.telemetry["steps"])
        for face, d in res.metrics["per_face"].items():
            gaps.setdefault(face, []).append(d["final_gap"])
    ratios = {f: [b / a if abs(a) > 1e-300 else np.inf
                  for a, b in zip(v[:-1], v[1:])] for f, v in gaps.items()}
    header = ("face",) + tuple(f"h{i}" for i in range(len(h_list)))
    return ExperimentResult(
        passed, metrics={"gaps": gaps, "ratios": ratios},
        tables={"report": (header, [(f, *g) for f, g in gaps.items()])},
        telemetry={"steps": steps})


# ---------------------------------------------------------------------------
# coercive regularity (Holder quotient response to datum scaling)
# ---------------------------------------------------------------------------

def holder_quotient(grid: Grid, values_core: np.ndarray,
                    exponent: float) -> float:
    """max |u(x) - u(y)| / |x - y|^exponent over core pairs with
    |x - y| <= :data:`HOLDER_SEP`.

    Pairs are visited one lattice offset at a time, so memory stays linear
    in the core size; each quotient is computed as in the all-pairs form.
    """
    box = tuple(n + 1 for n in grid.n_core)
    pts = grid.core_points.reshape(box + (grid.dim,))
    u = np.asarray(values_core).reshape(box)
    reach = [min(int(HOLDER_SEP / grid.h) + 1, m - 1) for m in box]
    best = 0.0
    for off in itertools.product(*(range(-r, r + 1) for r in reach)):
        x = tuple(slice(max(o, 0), m + min(o, 0)) for o, m in zip(off, box))
        y = tuple(slice(max(-o, 0), m + min(-o, 0)) for o, m in zip(off, box))
        d = np.linalg.norm(pts[x] - pts[y], axis=-1)
        mask = (d > 1e-12) & (d <= HOLDER_SEP)
        q = np.abs(u[x] - u[y])[mask] / d[mask] ** exponent
        best = max(best, float(q.max(initial=0.0)))
    return best


def coercive_loss_experiment(spec: CoerciveSpec, dom: Domain, k: Kernel,
                             phi_scales, cfg: SchemeConfig,
                             r_max: float | None = None) -> ExperimentResult:
    """Steady solutions for constant boundary data c in phi_scales; the
    measured Holder-(m-alpha)/m quotient must respond sublinearly to a
    tenfold datum increase (interior gradient bound forcing boundary loss)."""
    plan = discretize(dom, k, cfg.h, r_max)
    grid = plan.grid
    cert = check_superfractional(spec, k, grid.core_points)
    if not cert.passed:
        raise PreconditionError(
            f"superfractional condition (A1) failed: margin {cert.value}, "
            f"c0 {cert.details['c0']}")
    exponent = (spec.m - k.alpha) / spec.m
    rows, quotients, sup_norms = [], [], []
    telemetry = {"sigma": [], "sigma_growth": []}
    for c in phi_scales:
        st = init_state(plan, spec, float(c), float(c))
        st, rep = run_to_steady(st, cfg)
        u = st.u
        q = holder_quotient(grid, u, exponent)
        quotients.append(q)
        sup_norms.append(float(np.abs(u).max()))
        rows.append((c, q, sup_norms[-1], st.steps))
        telemetry["sigma"].append(float(np.max(st.batch.sigma)))
        telemetry["sigma_growth"].append(st.sigma_growth)
    ratios = [quotients[i + 1] / quotients[i] if quotients[i] > 0 else np.inf
              for i in range(len(quotients) - 1)]
    passed = bool(ratios and ratios[-1] < 9.0)
    return ExperimentResult(
        passed,
        metrics={"quotients": quotients, "ratios": ratios,
                 "sup_norms": sup_norms, "exponent": exponent},
        tables={"report": (("phi_scale", "holder_quotient", "sup_norm",
                            "steps"), rows)},
        telemetry=telemetry)


# ---------------------------------------------------------------------------
# large-time convergence and its exponential rate
# ---------------------------------------------------------------------------

def make_rate_bound(times, g_samples, mu0: float, dev0: float) -> tuple:
    """``(g, bound)`` at the snapshot times: the certified decay envelope
    bound(t) = e^{-mu0 t} (dev0 + G(t)), where g(t) is the running sup over
    later snapshot times of the exterior datum deviation (nonincreasing by
    construction, clamped by g(0) before time zero) and G accumulates
    mu0 * integral of g(s) e^{mu0 s}."""
    times = np.asarray(times, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    # sup over tau >= t on the snapshot grid
    g = np.maximum.accumulate(g[::-1])[::-1]
    g_clamp = g[0]
    integrand = g * np.exp(mu0 * times)
    G = np.empty_like(times)
    acc = 0.0
    for i, t in enumerate(times):
        if i > 0:
            acc += 0.5 * (integrand[i] + integrand[i - 1]) * (times[i] - times[i - 1])
        G[i] = g_clamp * np.exp(mu0 * min(t, 0.0)) + mu0 * acc
    return g, np.exp(-mu0 * times) * (dev0 + G)


def _decay_margin(spec, plan: SweepPlan, phi, phi_limit):
    """The (H2') margin mu0, refused when the certificate fails, and the
    datum gap t -> max |phi(t) - phi_limit| over the exterior sample."""
    cert = check_H2prime(spec, plan)
    if not cert.passed:
        raise PreconditionError(f"(H2') failed: mu0 = {cert.value} < "
                                f"{cert.details['mu_min']}")
    ph = CoefficientField(phi)
    pl = CoefficientField(phi_limit)
    ext_pts = plan.exterior_sample(ph.varies_in_space or pl.varies_in_space)
    phibar = pl(ext_pts, 0.0)
    return cert.value, lambda t: float(
        np.abs(ph(ext_pts, t) - phibar).max(initial=0.0))


def _telemetry(st_inf, ref, st) -> dict:
    """The steps of a steady reference ``st_inf`` (its report ``ref``) and
    of the time run ``st``, and the reference's residual at exit."""
    return {"steady_steps": st_inf.steps,
            "steady_residual": ref.residuals[-1], "steps": st.steps}


def rate_experiment(spec, dom: Domain, k: Kernel, phi, phi_limit, u0,
                    T: float, cfg: SchemeConfig,
                    r_max: float | None = None) -> ExperimentResult:
    """Certify the exponential convergence rate toward the steady solution.

    Computes u_inf by pseudo-time marching for the limit datum, then runs
    the parabolic problem and checks the sup deviation against the rate
    bound (with discretization slack :data:`EPS_RATE`) at every snapshot;
    also fits the decay exponent on the tail, NaN below three snapshots
    there, and reports how many it fitted (``fit_points``, also in the
    telemetry).  The steady reference refuses data that read t (see
    :func:`~nlhj.solver.run_to_steady`).
    """
    plan = discretize(dom, k, cfg.h, r_max)
    mu0, datum_gap = _decay_margin(spec, plan, phi, phi_limit)

    # steady reference for the limit datum; much tighter than the run
    # tolerance so the reference error stays far below the decayed bound
    st_inf = init_state(plan, spec, phi_limit, u0)
    ref_tol = 1e-12 * (1.0 + st_inf.sup_norm)
    ref_cfg = replace(cfg, steady_tol=ref_tol)
    st_inf, ref = run_to_steady(st_inf, ref_cfg)
    u_inf = st_inf.u.copy()

    # parabolic run with snapshots
    snap_cfg = cfg if cfg.snapshot_dt else replace(cfg, snapshot_dt=T / 50)
    st = init_state(plan, spec, phi, u0)
    rep = run_to_time(st, snap_cfg, T)

    times, devs, gs = [], [], []
    for t, u in rep.snapshots:
        times.append(t)
        devs.append(float(np.abs(u - u_inf).max()))
        gs.append(datum_gap(t))
    times = np.array(times)
    devs = np.array(devs)
    g, bound = make_rate_bound(times, gs, mu0, devs[0])

    ok = devs <= bound * (1.0 + EPS_RATE) + 1e-14
    first_bad = None if ok.all() else float(times[np.argmin(ok)])

    # fitted tail exponent on snapshots past T/2 with deviation above the
    # steady-reference noise floor
    floor = max(100.0 * ref_tol / max(mu0, 1e-6), 1e-13)
    tail = (times >= T / 2) & (devs > floor)
    fit_points = int(tail.sum())
    fitted = np.nan
    if fit_points >= 3:
        slope = np.polyfit(times[tail], np.log(devs[tail]), 1)[0]
        fitted = -float(slope)

    # the bound's own invariants: it covers g, and g is nonincreasing
    sound = np.all(bound >= g - 1e-12) and np.all(np.diff(g) <= 1e-12)
    return ExperimentResult(
        bool(ok.all() and sound),
        metrics={"mu0": mu0, "fitted_exponent": fitted,
                 "fit_points": fit_points,
                 "first_violation_t": first_bad, "eps_rate": EPS_RATE,
                 "dev0": float(devs[0]), "final_dev": float(devs[-1])},
        tables={"rate_curve": (("t", "deviation", "bound", "g"),
                               list(zip(times, devs, bound, g)))},
        telemetry=dict(_telemetry(st_inf, ref, st), fit_points=fit_points))


def large_time_experiment(spec, spec_limit, dom: Domain, k: Kernel, phi,
                          phi_limit, T_ladder, cfg: SchemeConfig, u0=0.0,
                          r_max: float | None = None) -> ExperimentResult:
    """Uniform convergence along a ladder of horizons T1 < T2 < T3.

    Refuses (precondition) when (H2') fails, when the limit Hamiltonian
    differs in form (family, exponents, controls or drift), or when the
    data do not converge: the sampled sup deviations of phi and of every
    Hamiltonian coefficient along the ladder must decrease toward zero.
    """
    if len(T_ladder) < 2:
        raise ValueError("need at least two horizons")
    if any(b <= a for a, b in zip(T_ladder, T_ladder[1:])):
        raise ValueError(f"horizons must increase strictly: {T_ladder}")
    plan = discretize(dom, k, cfg.h, r_max)
    _, datum_gap = _decay_margin(spec, plan, phi, phi_limit)
    # the count of fields tells the controls and whether a drift is present
    form = [(s.family, getattr(s, "m", None), getattr(s, "l", None),
             len(s.fields)) for s in (spec, spec_limit)]
    if form[0] != form[1]:
        raise PreconditionError("the limit Hamiltonian differs in family, "
                                "exponents, controls or drift")
    pts = plan.grid.core_points
    limit = [(c, lim(pts, 0.0))
             for c, lim in zip(spec.fields, spec_limit.fields)]

    def field_gap(t, moving):
        return max((float(np.abs(c(pts, t) - v).max()) for c, v in limit
                    if bool(c.time_dependent) == moving), default=0.0)

    # a field that does not read t has one gap, taken once
    fixed = field_gap(0.0, False)
    gaps = [datum_gap(t) + max(fixed, field_gap(t, True)) for t in T_ladder]
    decreasing = all(b <= a + 1e-12 + 0.02 * (abs(a) + abs(b)) for a, b in
                     zip(gaps[:-1], gaps[1:]))
    vanishing = gaps[-1] <= max(0.5 * gaps[0], 1e-9)
    if not (decreasing and vanishing):
        raise PreconditionError(
            f"data do not converge along the ladder: gaps {gaps}")

    st_inf = init_state(plan, spec_limit, phi_limit, u0)
    st_inf, ref = run_to_steady(st_inf, cfg)
    u_inf = st_inf.u.copy()

    st = init_state(plan, spec, phi, u0)
    devs = []
    for T in T_ladder:
        run_to_time(st, cfg, T)
        devs.append(float(np.abs(st.u - u_inf).max()))
    monotone = all(b <= a * (1 + 0.05) + 1e-12 for a, b in zip(devs[:-1], devs[1:]))
    passed = monotone and devs[-1] < EPS_CONV
    return ExperimentResult(
        bool(passed),
        metrics={"horizons": list(T_ladder), "deviations": devs,
                 "data_gaps": gaps, "eps_conv": EPS_CONV},
        tables={"report": (("T", "deviation"), list(zip(T_ladder, devs)))},
        telemetry=_telemetry(st_inf, ref, st))
