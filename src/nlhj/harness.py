"""Packaged experiments: comparison, boundary attainment/loss, coercive
regularity, and large-time convergence with its exponential rate bound.

Each experiment returns an :class:`ExperimentResult` carrying a verdict, the
headline metrics, and plot-ready tables; preconditions are gated and raise
:class:`PreconditionError` so the CLI can distinguish certificate failures
(exit 2) from experiment failures (exit 1).
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass, field as dfield, replace

import numpy as np

from .boundary import classification_table, classify_boundary
from .errors import PreconditionError, ViscosityUnderflow
from .geometry import Domain, Grid
from .hamiltonians import (BellmanSpec, CoefficientField, CoerciveSpec,
                           check_H2prime, check_superfractional, check_UE)
from .kernels import Kernel, build_quadrature
from .operators import SweepPlan
from .solver import (SchemeConfig, auto_dt, init_state, run_to_steady,
                     run_to_time, step)


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    metrics: dict = dfield(default_factory=dict)
    tables: dict = dfield(default_factory=dict)   # name -> (header, rows)


_DISCRETIZATIONS = weakref.WeakValueDictionary()


def discretize(dom: Domain, k: Kernel, h: float,
               r_max: float | None = None) -> SweepPlan:
    """The problem on the lattice: a grid over the domain plus an exterior
    halo of reach r_max (default four diameters), the kernel's quadrature
    table, and the sweep plan binding them (``.grid``, ``.qt``).

    Every caller asking for the same (domain, kernel, h, r_max) gets the
    same plan while any of them still references it, so a run that
    certifies and then evolves discretizes once; a released plan is built
    afresh on the next request.
    """
    if r_max is None:
        r_max = 4.0 * dom.diameter
    key = (dom, k, h, r_max)
    plan = _DISCRETIZATIONS.get(key)
    if plan is None:
        qt = build_quadrature(k, h, r_max)
        grid = Grid(dom, h, halo=int(np.floor(r_max / h + 1e-12)))
        plan = _DISCRETIZATIONS[key] = SweepPlan(grid, qt)
    return plan


def trace_face_map(grid: Grid, dom: Domain) -> dict:
    """Trace-node indices grouped by the face they lie on (corners in both)."""
    names = dom.face_names()
    pts = grid.trace_points
    out = {}
    lo, hi = np.array(dom.lower), np.array(dom.upper)
    tol = grid.h / 2
    for fi, name in enumerate(names):
        axis = 0 if grid.dim == 1 else (0 if fi < 2 else 1)
        target = lo[axis] if fi % 2 == 0 else hi[axis]
        out[name] = np.where(np.abs(pts[:, axis] - target) < tol)[0]
    return out


# ---------------------------------------------------------------------------
# comparison
# ---------------------------------------------------------------------------

def comparison_experiment(spec, dom: Domain, k: Kernel, u0_pair, phi_pair,
                          T: float, cfg: SchemeConfig,
                          r_max: float | None = None) -> ExperimentResult:
    """Run two ordered evolutions in lockstep; report the worst ordering
    violation max over steps and nodes of (u - v)^+.

    Coercive runs share one Lax-Friedrichs viscosity (sized from both data
    sets and enlarged jointly on underflow); otherwise the two fluxes would
    differ and exact ordering could not be expected.
    """
    u0_a, u0_b = u0_pair
    phi_a, phi_b = phi_pair
    plan = discretize(dom, k, cfg.h, r_max)
    grid = plan.grid

    def make_states(shared_sigma):
        c = replace(cfg, sigma_override=shared_sigma)
        return (init_state(plan, spec, phi_a, u0_a, c),
                init_state(plan, spec, phi_b, u0_b, c), c)

    shared = None
    sa, sb, cpair = make_states(None)
    if spec.family == "coercive":
        # the states of an override differ only in sigma: keep these two
        shared = 2.0 * np.maximum(sa.sigma, sb.sigma)
        cpair = replace(cfg, sigma_override=shared)
        sa.sigma = sb.sigma = shared

    # precondition: nodewise ordering of both data sets over the window
    if np.any(sa.u > sb.u + 1e-14):
        raise PreconditionError("initial data are not ordered u0 <= v0")
    ext_pts = grid.exterior_points
    pa = CoefficientField(phi_a, "phi_a")
    pb = CoefficientField(phi_b, "phi_b")
    times = np.linspace(0.0, T, 5)
    for t in times if pa.time_dependent or pb.time_dependent else times[:1]:
        if np.any(pa(ext_pts, t) > pb(ext_pts, t) + 1e-14):
            raise PreconditionError("exterior data are not ordered phi_u <= phi_v")

    worst = 0.0
    rows = []
    for attempt in range(8):
        try:
            while sa.t < T - 1e-14:
                dt = min(auto_dt(sa, cpair), auto_dt(sb, cpair), T - sa.t)
                step(sa, cpair, dt)
                step(sb, cpair, dt)
                v = float((sa.u - sb.u).max())
                worst = max(worst, v)
                rows.append((sa.t, v))
            break
        except ViscosityUnderflow as e:
            shared = 2.0 * np.maximum(shared, np.asarray(e.required))
            sa, sb, cpair = make_states(shared)
            worst, rows = 0.0, []
    passed = worst <= 1e-12
    return ExperimentResult(
        "comparison", passed,
        metrics={"max_violation": worst, "steps": sa.steps,
                 "sigma": None if shared is None else float(np.max(shared))},
        tables={"report": (("t", "max_violation"), rows)})


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

    phi_u = CoefficientField(base_c, "phi_u")
    phi_v = CoefficientField(base_c + phi_gap, "phi_v")
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
    st = init_state(plan, spec, phi, u0, cfg)
    cfg_run = cfg if cfg.snapshot_dt else replace(cfg, snapshot_dt=T / 20)
    rep = run_to_time(st, cfg_run, T)
    cls = classify_boundary(spec, dom, (0.0, T))
    faces = trace_face_map(grid, dom)
    tr_pts = grid.trace_points

    tol = cfg.h * (1.0 + st.sup_norm)
    samples = []
    per_face = {}
    face_tags = {f: cls.face_tag(f) for f in cls.faces}
    violated = False
    for face, idx in faces.items():
        series = []
        for t, gaps in rep.trace_gap_series:
            for i in idx:
                samples.append((*tr_pts[i], t, gaps[i], face_tags[face]))
            if len(idx):
                series.append(gaps[idx])
        if not len(idx):
            per_face[face] = {"max_gap": np.nan, "mean_gap": np.nan,
                              "final_gap": np.nan}
            continue
        arr = np.array(series)
        final = float(np.max(np.abs(arr[-1])))
        signed_final = float(arr[-1].max())
        per_face[face] = {"max_gap": float(arr.max()),
                          "mean_gap": float(arr.mean()),
                          "final_gap": signed_final,
                          "final_gap_abs": final}
        if face_tags[face] in ("out", "mixed") and float(arr[-1].min()) < -tol:
            violated = True

    return ExperimentResult(
        "boundary_behavior", not violated,
        metrics={"per_face": per_face, "tags": face_tags},
        tables={"trace_gaps": (("x",) * grid.dim + ("t", "gap", "tag"), samples),
                "classification": (("face",) + ("x",) * grid.dim +
                                   ("t", "tag") +
                                   tuple(f"w{i}" for i in
                                         range(len(spec.controls))),
                                   classification_table(cls))})


def boundary_refinement(spec, dom, k, phi, u0, T, h_list,
                        cfg: SchemeConfig | None = None,
                        r_max: float | None = None):
    """Final-time gap per face across grid refinements, plus halving ratios.

    Each h runs with ``cfg`` (defaults when None) at that spacing."""
    gaps = {}
    for h in h_list:
        cfg_h = SchemeConfig(h=h) if cfg is None else replace(cfg, h=h)
        res = boundary_behavior_experiment(spec, dom, k, phi, u0, T, cfg_h,
                                           r_max=r_max)
        for face, d in res.metrics["per_face"].items():
            gaps.setdefault(face, []).append(d["final_gap"])
    ratios = {f: [b / a if abs(a) > 1e-300 else np.inf
                  for a, b in zip(v[:-1], v[1:])] for f, v in gaps.items()}
    return gaps, ratios


# ---------------------------------------------------------------------------
# coercive regularity (Holder quotient response to datum scaling)
# ---------------------------------------------------------------------------

def holder_quotient(grid: Grid, values_core: np.ndarray, exponent: float,
                    max_sep: float = 0.25) -> float:
    """max |u(x) - u(y)| / |x - y|^exponent over core pairs with
    |x - y| <= max_sep.

    Pairs are visited one lattice offset at a time, so memory stays linear
    in the core size; each quotient is computed as in the all-pairs form.
    """
    box = tuple(n + 1 for n in grid.n_core)
    pts = grid.core_points.reshape(box + (grid.dim,))
    u = np.asarray(values_core).reshape(box)
    reach = [min(int(max_sep / grid.h) + 1, m - 1) for m in box]
    best = 0.0
    for off in itertools.product(*(range(-r, r + 1) for r in reach)):
        x = tuple(slice(max(o, 0), m + min(o, 0)) for o, m in zip(off, box))
        y = tuple(slice(max(-o, 0), m + min(-o, 0)) for o, m in zip(off, box))
        d = np.linalg.norm(pts[x] - pts[y], axis=-1)
        mask = (d > 1e-12) & (d <= max_sep)
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
    rows = []
    quotients = []
    sup_norms = []
    for c in phi_scales:
        st = init_state(plan, spec, float(c), float(c), cfg)
        st, rep = run_to_steady(st, cfg)
        u = st.u
        q = holder_quotient(grid, u, exponent)
        quotients.append(q)
        sup_norms.append(float(np.abs(u).max()))
        rows.append((c, q, sup_norms[-1], st.steps))
    ratios = [quotients[i + 1] / quotients[i] if quotients[i] > 0 else np.inf
              for i in range(len(quotients) - 1)]
    passed = bool(ratios and ratios[-1] < 9.0)
    return ExperimentResult(
        "coercive_loss", passed,
        metrics={"quotients": quotients, "ratios": ratios,
                 "sup_norms": sup_norms, "exponent": exponent},
        tables={"report": (("phi_scale", "holder_quotient", "sup_norm",
                            "steps"), rows)})


# ---------------------------------------------------------------------------
# large-time convergence and its exponential rate
# ---------------------------------------------------------------------------

@dataclass
class RateBound:
    """Certified decay envelope bound(t) = e^{-mu0 t} (dev0 + G(t)).

    g(t) is the running sup over later snapshot times of the exterior datum
    deviation (nonincreasing by construction, clamped by g(0) before time
    zero); G accumulates mu0 * integral of g(s) e^{mu0 s}."""

    mu0: float
    times: np.ndarray
    g: np.ndarray
    G: np.ndarray
    dev0: float
    bound: np.ndarray

    def check_internal(self) -> bool:
        ok = bool(np.all(self.bound >= self.g - 1e-12))
        ok &= bool(np.all(np.diff(self.g) <= 1e-12))
        return ok


def make_rate_bound(times, g_samples, mu0: float, dev0: float) -> RateBound:
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
    bound = np.exp(-mu0 * times) * (dev0 + G)
    return RateBound(mu0, times, g, G, dev0, bound)


def rate_experiment(spec, dom: Domain, k: Kernel, phi, phi_limit, u0,
                    T: float, cfg: SchemeConfig, eps_rate: float = 0.05,
                    r_max: float | None = None) -> ExperimentResult:
    """Certify the exponential convergence rate toward the steady solution.

    Computes u_inf by pseudo-time marching for the limit datum, then runs
    the parabolic problem and checks the sup deviation against the rate
    bound (with discretization slack eps_rate) at every snapshot; also fits
    the decay exponent on the tail.
    """
    if spec.time_dependent:
        raise PreconditionError("rate experiment requires a time-independent H")
    plan = discretize(dom, k, cfg.h, r_max)
    cert = check_H2prime(spec, plan)
    if not cert.passed:
        raise PreconditionError(f"(H2') failed: mu0 = {cert.value} < "
                                f"{cert.details['mu_min']}")
    mu0 = cert.value

    # steady reference for the limit datum; much tighter than the run
    # tolerance so the reference error stays far below the decayed bound
    st_inf = init_state(plan, spec, phi_limit, u0, cfg)
    ref_tol = 1e-12 * (1.0 + st_inf.sup_norm)
    ref_cfg = replace(cfg, steady_tol=ref_tol)
    st_inf, _ = run_to_steady(st_inf, ref_cfg)
    u_inf = st_inf.u.copy()

    # parabolic run with snapshots
    snap_cfg = cfg if cfg.snapshot_dt else replace(cfg, snapshot_dt=T / 50)
    st = init_state(plan, spec, phi, u0, snap_cfg)
    rep = run_to_time(st, snap_cfg, T)

    pl = CoefficientField(phi_limit, "phi_limit")
    ph = CoefficientField(phi, "phi")
    ext_pts = plan.grid.exterior_points
    phibar = pl(ext_pts, 0.0)
    times, devs, gs = [], [], []
    for t, u in rep.snapshots:
        times.append(t)
        devs.append(float(np.abs(u - u_inf).max()))
        gs.append(float(np.abs(ph(ext_pts, t) - phibar).max(initial=0.0)))
    times = np.array(times)
    devs = np.array(devs)
    rb = make_rate_bound(times, gs, mu0, devs[0])

    ok = devs <= rb.bound * (1.0 + eps_rate) + 1e-14
    first_bad = None if ok.all() else float(times[np.argmin(ok)])

    # fitted tail exponent on snapshots past T/2 with deviation above the
    # steady-reference noise floor
    floor = max(100.0 * ref_tol / max(mu0, 1e-6), 1e-13)
    tail = (times >= T / 2) & (devs > floor)
    fitted = np.nan
    if tail.sum() >= 3:
        slope = np.polyfit(times[tail], np.log(devs[tail]), 1)[0]
        fitted = -float(slope)

    passed = bool(ok.all()) and rb.check_internal()
    rows = list(zip(times, devs, rb.bound, rb.g))
    result = ExperimentResult(
        "rate", passed,
        metrics={"mu0": mu0, "fitted_exponent": fitted,
                 "first_violation_t": first_bad, "eps_rate": eps_rate,
                 "dev0": float(devs[0]), "final_dev": float(devs[-1])},
        tables={"rate_curve": (("t", "deviation", "bound", "g"), rows)})
    result.rate_bound = rb
    return result


def large_time_experiment(spec, spec_limit, dom: Domain, k: Kernel, phi,
                          phi_limit, T_ladder, cfg: SchemeConfig,
                          eps_conv: float = 0.05, u0=0.0,
                          r_max: float | None = None) -> ExperimentResult:
    """Uniform convergence along a ladder of horizons T1 < T2 < T3.

    Refuses (precondition) when (H2') fails or the data do not converge:
    the sampled sup deviations of phi and of the Hamiltonian coefficients
    along the ladder must decrease toward zero.
    """
    T_ladder = sorted(T_ladder)
    if len(T_ladder) < 2:
        raise ValueError("need at least two horizons")
    plan = discretize(dom, k, cfg.h, r_max)
    cert = check_H2prime(spec, plan)
    if not cert.passed:
        raise PreconditionError(f"(H2') failed: mu0 = {cert.value} < "
                                f"{cert.details['mu_min']}")
    grid = plan.grid
    ext_pts = grid.exterior_points
    core_pts = grid.core_points

    ph = CoefficientField(phi, "phi")
    pl = CoefficientField(phi_limit, "phi_limit")
    phibar = pl(ext_pts, 0.0)

    def ham_gap(t):
        if spec.family == "coercive":
            return float(np.abs(spec.f(core_pts, t) -
                                spec_limit.f(core_pts, 0.0)).max(initial=0.0))
        worst = 0.0
        for c, cl in zip(spec.controls, spec_limit.controls):
            worst = max(worst,
                        float(np.abs(c.f(core_pts, t) - cl.f(core_pts, 0.0)).max()),
                        float(np.abs(c.lam(core_pts, t) - cl.lam(core_pts, 0.0)).max()))
        return worst

    gaps = [float(np.abs(ph(ext_pts, t) - phibar).max(initial=0.0)) + ham_gap(t)
            for t in T_ladder]
    decreasing = all(b <= a + 1e-12 + 0.02 * (abs(a) + abs(b)) for a, b in
                     zip(gaps[:-1], gaps[1:]))
    vanishing = gaps[-1] <= max(0.5 * gaps[0], 1e-9)
    if not (decreasing and vanishing):
        raise PreconditionError(
            f"data do not converge along the ladder: gaps {gaps}")

    st_inf = init_state(plan, spec_limit, phi_limit, u0, cfg)
    st_inf, _ = run_to_steady(st_inf, cfg)
    u_inf = st_inf.u.copy()

    st = init_state(plan, spec, phi, u0, cfg)
    devs = []
    for T in T_ladder:
        run_to_time(st, cfg, T)
        devs.append(float(np.abs(st.u - u_inf).max()))
    monotone = all(b <= a * (1 + 0.05) + 1e-12 for a, b in zip(devs[:-1], devs[1:]))
    passed = monotone and devs[-1] < eps_conv
    return ExperimentResult(
        "large_time", bool(passed),
        metrics={"horizons": list(T_ladder), "deviations": devs,
                 "data_gaps": gaps, "eps_conv": eps_conv},
        tables={"report": (("T", "deviation"), list(zip(T_ladder, devs)))})
