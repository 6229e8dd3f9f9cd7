from types import SimpleNamespace

import numpy as np
import pytest

from nlhj import solver
from nlhj.errors import BlowUp, NonConvergence
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import (BellmanSpec, CoefficientField, Coefficients,
                               CoerciveSpec, ControlLaw, lf_viscosity_bound,
                               numerical_hamiltonian_many)
from nlhj.kernels import (build_quadrature, fractional_laplacian_kernel,
                          zero_kernel)
from nlhj.operators import Field, SweepPlan
from nlhj.oracles import ball_kappa, upwind_advection_steps
from nlhj.solver import (RunReport, SchemeConfig, auto_dt, cfl_denominator,
                         init_state, run_to_steady, run_to_time, step)

from conftest import grid_for

BUMP2 = lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2) ** 2


def make(dom, h, r_max, spec, phi, u0, **kw):
    k = kw.pop("kernel", zero_kernel(0.5, dom.dim))
    qt = build_quadrature(k, h, r_max)
    g = grid_for(dom, h, r_max)
    cfg = SchemeConfig(h=h, **kw)
    return g, qt, cfg, init_state(SweepPlan(g, qt), spec, phi, u0)


def test_no_dynamics_identity(dom1):
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, BUMP2)
    before = st.u.copy()
    step(st, cfg)
    assert st.last_dt == 0.01 and np.array_equal(st.u, before)


def test_step_matches_upwind_advection_oracle(dom1):
    c = 1.0
    spec = BellmanSpec([ControlLaw(lam=0.0, b=c, f=0.0)])
    h = 2.0 ** -6
    g, qt, cfg, st = make(dom1, h, 1.0, spec, 0.0, BUMP2)
    dt = 0.9 * h / c
    ref = upwind_advection_steps(Field(g, st.u, st.phi, st.t).values, c, h, dt,
                                 5, g.core_flat)
    for _ in range(5):
        step(st, cfg)   # the CFL-limited step theta h / c, theta = 0.9
        assert st.last_dt == dt
    assert np.array_equal(st.u, ref[g.core_flat])


def test_advection_first_order_convergence(dom1):
    c = 1.0
    spec = BellmanSpec([ControlLaw(lam=0.0, b=c, f=0.0)])
    errs = []
    for h in (2.0 ** -6, 2.0 ** -7):
        g, qt, cfg, st = make(dom1, h, 1.0, spec, 0.0, BUMP2, theta=0.9)
        run_to_time(st, cfg, 0.5)
        pts = g.points_at(g.core_flat)[:, 0]
        exact = np.maximum(0.0, 1.0 - (pts + c * 0.5) ** 2) ** 2
        errs.append(np.abs(st.u - exact).max())
    assert errs[0] < 0.05
    assert errs[1] / errs[0] < 0.7  # first order in h


def test_exponential_decay_exact(dom1):
    spec = BellmanSpec([ControlLaw(lam=1.0, b=0.0, f=0.0)])
    # zero kernel, no drift and lam = 1: the CFL-limited step is theta
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, 1.0, theta=0.01)
    rep = run_to_time(st, cfg, 1.0)
    expected = (1.0 - 0.01) ** st.steps
    assert np.allclose(st.u, expected, rtol=1e-13)
    assert abs(expected - np.exp(-1.0)) < 0.01


def test_run_to_time_identity(dom1):
    spec = BellmanSpec([ControlLaw(lam=1.0, b=0.0, f=0.0)])
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, 1.0)
    before = st.u.copy()
    rep = run_to_time(st, cfg, st.t)
    assert st.steps == 0
    assert np.array_equal(st.u, before)


def test_exact_steady_state_unchanged(dom1):
    # u = c, phi = c, H(r) = r - c: every term vanishes identically
    c = 2.5
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=c)
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 8.0, spec, c, c, kernel=k)
    before = st.u.copy()
    st, rep = run_to_steady(st, cfg)
    # residual terms vanish up to the rounding of the weight sums
    assert rep.residuals[-1] <= 1e-10
    assert st.steps == 1  # first residual measurement already below tolerance
    assert np.allclose(st.u, before, atol=1e-12)


def test_steady_regression_and_residual(dom1):
    # H = |Du| + u - 1 with zero exterior datum
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=1.0)
    k = fractional_laplacian_kernel(0.5, 1)
    h = 2.0 ** -6
    g, qt, cfg, st = make(dom1, h, 8.0, spec, 0.0, 0.0, kernel=k)
    st, _ = run_to_steady(st, cfg)
    # frozen after the first verified run (both acceleration paths agree
    # to reassociation error)
    f = Field(g, st.u, st.phi, st.t)
    assert f.values[g.flat_index_of(0.0)] == pytest.approx(0.17414693702, abs=1e-6)


def test_steady_uniqueness_from_two_starts(dom1):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=1.0)
    k = fractional_laplacian_kernel(0.5, 1)
    h = 2.0 ** -6
    g, qt, cfg_a, sa = make(dom1, h, 8.0, spec, 0.0, 0.0, kernel=k)
    _, _, cfg_b, sb = make(dom1, h, 8.0, spec, 0.0,
                           lambda p: 2.0 * np.cos(p[:, 0]), kernel=k)
    assert RunReport().steady_tol is None
    sa, ra = run_to_steady(sa, cfg_a)
    sb, rb = run_to_steady(sb, cfg_b)
    mu0 = 4.0
    tol = max(ra.steady_tol, rb.steady_tol)
    diff = np.abs(sa.u - sb.u).max()
    assert diff <= 2.0 * tol / mu0


def test_discrete_comparison_quick(dom1):
    from nlhj.harness import comparison_experiment, random_ordered_pair
    spec = BellmanSpec([ControlLaw(lam=0.5, b="-x", f="0.1*cos(2*x)")])
    k = fractional_laplacian_kernel(0.5, 1)
    for seed in (0, 1):
        u0a, v0a, pa, pb = random_ordered_pair(seed, dom1)
        res = comparison_experiment(spec, dom1, k, (u0a, v0a), (pa, pb),
                                    T=0.25, cfg=SchemeConfig(h=2.0 ** -5),
                                    r_max=4.0)
        assert res.metrics["max_violation"] <= 1e-12


def _record_steps(monkeypatch):
    """Record every step taken through ``solver.step``, where the drivers
    look it up, and ``harness.step``, the comparison pair's: theta, the
    state's CFL denominator and limit :func:`auto_dt` when it took the step
    size (after a viscosity growth, the tightened ones; cases that grow the
    viscosity hold lam and the drift fixed), ``until``, the start and end
    times and the step size.  The denominator is read after :func:`auto_dt`,
    which computes it where the state holds none."""
    from nlhj import harness
    real, steps = solver.step, []

    def recorded(st, cfg, until=np.inf):
        grown, limit, den, t = st.sigma_growth, auto_dt(st, cfg), st.den, st.t
        real(st, cfg, until)
        if st.sigma_growth > grown:
            limit, den = auto_dt(st, cfg), st.den
        steps.append((cfg.theta, den, limit, until, t, st.t, st.last_dt))
        return st

    monkeypatch.setattr(solver, "step", recorded)
    monkeypatch.setattr(harness, "step", recorded)
    return steps


@pytest.mark.parametrize("case", ["run_to_time", "run_to_steady",
                                  "comparison", "viscosity_growth",
                                  "no_cfl_bound"])
def test_every_step_keeps_the_cfl_bound(dom1, monkeypatch, case):
    # a step takes its own size: the CFL-limited one, or a shorter one that
    # lands on the time it is given exactly
    k = fractional_laplacian_kernel(0.5, 1)
    steps = _record_steps(monkeypatch)
    if case == "run_to_time":   # the drift, and so the limit, moves with t
        spec = BellmanSpec([ControlLaw(lam=0.5, b="cos(4*t)", f="0.2*x")])
        *_, cfg, st = make(dom1, 2.0 ** -5, 2.0, spec, "0.3*sin(2*x) + t",
                           BUMP2, kernel=k, snapshot_dt=0.1)
        rep = solver.run_to_time(st, cfg, 0.35)
        assert [round(t, 12) for t, _ in rep.snapshots] == \
            [0.0, 0.1, 0.2, 0.3, 0.35]
    elif case == "run_to_steady":
        spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=1.0)
        *_, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, 0.0, 0.0, kernel=k)
        solver.run_to_steady(st, cfg)
    elif case == "comparison":
        from nlhj.harness import comparison_experiment, random_ordered_pair
        spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)")
        u0, v0, pu, pv = random_ordered_pair(0, dom1)
        res = comparison_experiment(spec, dom1, k, (u0, v0), (pu, pv),
                                    T=0.25, cfg=SchemeConfig(h=2.0 ** -5),
                                    r_max=4.0)
        assert len(steps) == 2 * res.metrics["steps"]
        assert steps[-1][5] == 0.25
    elif case == "viscosity_growth":
        spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
        *_, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, 1.0, "1 - x^2",
                           kernel=k)
        st.sigma = 1e-3 * st.sigma      # below the viscosity bound
        solver.run_to_time(st, cfg, 0.05)
        assert st.sigma_growth >= 1
    else:   # zero kernel, lam = 0 and b = 0: T / 100 stands in for the limit
        spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
        *_, cfg, st = make(dom1, 2.0 ** -4, 1.0, spec, 0.0, BUMP2, T=0.5,
                           snapshot_dt=0.0123)
        solver.run_to_time(st, cfg, 0.5)
        assert {den for _, den, *_ in steps} == {0.0}
    capped = 0
    for theta, den, limit, until, t0, t1, dt in steps:
        assert 0.0 < dt <= limit
        assert dt * den <= theta * (1 + 1e-12)
        if dt < limit:
            capped += 1
            assert dt == until - t0 and t1 == until
    assert (capped > 0) == (case != "run_to_steady")


def test_blowup_detected(dom1):
    # negative zeroth-order coefficient grows the solution exponentially,
    # past the cap 1e3 (1 + sup|u0| + sup|phi|) = 2e3 by t = 10
    spec = BellmanSpec([ControlLaw(lam=-3.0, b=0.0, f=0.0)])
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, 1.0)
    assert st.m_cap == 2e3
    with pytest.raises(BlowUp):
        run_to_time(st, cfg, 10.0)
    # a source that turns NaN (0 * inf once exp overflows) poisons u: the
    # sup-norm is NaN, which no cap comparison catches.  numpy warns of the
    # overflow and of the NaN it makes, and of nothing else
    f = "0*exp(800*t)"
    for spec in (BellmanSpec([ControlLaw(lam=1.0, b=0.5, f=f)]),
                 CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=f)):
        g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, 1.0)
        with pytest.warns(RuntimeWarning) as warned:
            with pytest.raises(BlowUp, match="sup-norm nan"):
                run_to_time(st, cfg, 2.0)
        assert {str(w.message) for w in warned} == {
            "invalid value encountered in scalar multiply",
            "overflow encountered in exp"}


def test_nonconvergence_raised(dom1):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=1.0)
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 8.0, spec, 0.0, 0.0, kernel=k,
                          max_steps=3)
    with pytest.raises(NonConvergence):
        run_to_steady(st, cfg)


def test_viscosity_auto_enlarged(dom1):
    # the datum ramps up fast, steepening the trace gradient mid-run
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 8.0, spec, "20*t", 0.0, kernel=k)
    sigma0 = st.sigma.copy()
    run_to_time(st, cfg, 0.5)
    assert st.sigma_growth >= 1
    assert np.all(st.sigma >= sigma0)


def test_viscosity_grows_with_a_moving_a1_at_m_1(dom1):
    # at m = 1 the bound is max a1, read at the state's time: a1 growing in
    # t outgrows the initial viscosity 1 + max a1(0) = 2
    spec = CoerciveSpec(m=1.0, a1="1 + 4*t", lam=0.5, f=0.0)
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, 0.0, "1 - x^2",
                          kernel=k)
    assert st.sigma.tolist() == [2.0]
    run_to_time(st, cfg, 0.5)
    assert st.sigma_growth >= 1
    assert np.all(st.sigma >= st.coeffs.a1_max)


def test_linf_stability_under_h2prime(dom1):
    # mu0 > 0: thousands of steps stay bounded
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.0, f="0.5*sin(3*x)")
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 8.0, spec, 0.5, 0.0, kernel=k)
    bound = 0.0
    for _ in range(3000):
        step(st, cfg)
        bound = max(bound, st.sup_norm)
    assert bound < 5.0


def test_solver_2d_smoke(dom2):
    spec = BellmanSpec([ControlLaw(lam=1.0, b=["-x", "-y"], f=0.2, dim=2)],
                       dim=2)
    k = fractional_laplacian_kernel(0.5, 2)
    g, qt, cfg, st = make(dom2, 2.0 ** -3, 2.0, spec, 0.0,
                          lambda p: np.cos(p[:, 0]) * np.cos(p[:, 1]),
                          kernel=k)
    rep = run_to_time(st, cfg, 0.2)
    assert np.isfinite(st.sup_norm)
    assert st.steps > 0


def test_comparison_2d_quick(dom2):
    from nlhj.harness import comparison_experiment
    spec = BellmanSpec([ControlLaw(lam=0.5, b=["-x", "0.5*y"], f=0.0, dim=2)],
                       dim=2)
    k = fractional_laplacian_kernel(0.5, 2)
    u0a = lambda p: 0.3 * np.sin(2 * p[:, 0]) * np.cos(p[:, 1])
    u0b = lambda p: u0a(p) + 0.4
    res = comparison_experiment(spec, dom2, k, (u0a, u0b), (0.0, 0.4),
                                T=0.1, cfg=SchemeConfig(h=2.0 ** -3),
                                r_max=2.0)
    assert res.metrics["max_violation"] <= 1e-12


def test_refinement_consistency_nonlocal(dom1):
    # halving h changes the T = 0.5 solution by a shrinking amount
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f="0.5*cos(2*x)")
    k = fractional_laplacian_kernel(0.5, 1)
    sols = {}
    for h in (2.0 ** -4, 2.0 ** -5, 2.0 ** -6):
        g, qt, cfg, st = make(dom1, h, 4.0, spec, 0.0,
                              lambda p: 1 - p[:, 0] ** 2, kernel=k)
        run_to_time(st, cfg, 0.5)
        pts = g.points_at(g.core_flat)[:, 0]
        sols[h] = (pts, st.u)
    diffs = []
    for ha, hb in ((2.0 ** -4, 2.0 ** -5), (2.0 ** -5, 2.0 ** -6)):
        pa, ua = sols[ha]
        pb, ub = sols[hb]
        ub_on_a = np.interp(pa, pb, ub)
        diffs.append(np.abs(ua - ub_on_a).max())
    gamma = np.log2(diffs[0] / diffs[1])
    assert gamma > 0.0  # measured positive order under refinement


@pytest.mark.parametrize("dim, h, r_max", [(1, 2.0 ** -4, 1.0), (2, 0.125, 2.0)])
def test_one_sided_differences_read_the_datum_at_t(monkeypatch, dim, h, r_max):
    # the differences the step feeds the Hamiltonian equal those of the
    # full-grid field at the state's time, the ring of exterior nodes next
    # to the trace included, bit for bit
    seen = []
    real = solver.numerical_hamiltonian_many

    def spy(coeffs, u, pm, pp, sigma, **workspace):
        seen.append((pm.copy(), pp.copy()))
        return real(coeffs, u, pm, pp, sigma, **workspace)

    monkeypatch.setattr(solver, "numerical_hamiltonian_many", spy)
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5,) * dim, f=0.0, dim=dim)],
                       dim=dim)
    phi = lambda p, t: 0.3 * np.sin(2.0 * p.sum(axis=1)) + 2.0 * t
    u0 = lambda p: 0.6 * np.cos(2.0 * p.sum(axis=1))
    k = fractional_laplacian_kernel(0.5, dim)
    g, qt, cfg, st = make(dom, h, r_max, spec, phi, u0, kernel=k)
    core = g.core_flat
    for _ in range(3):
        E = Field(g, st.u, st.phi, st.t).values
        u = st.u.copy()
        seen.clear()
        step(st, cfg)
        pm, pp = seen[-1]
        for a, s in enumerate(g.strides):
            assert np.array_equal(pp[:, a], (E[core + s] - u) / h)
            assert np.array_equal(pm[:, a], (u - E[core - s]) / h)


def test_state_holds_core_values_only(dom2):
    # the same core under two halo reaches: the state and its snapshots
    # have one value per core node
    spec = BellmanSpec([ControlLaw(lam=1.0, b=["-x", "-y"], f=0.2, dim=2)],
                       dim=2)
    k = fractional_laplacian_kernel(0.5, 2)
    sizes = []
    for r_max in (1.5, 2.0):
        g, qt, cfg, st = make(dom2, 0.125, r_max, spec, "1 + 0.2*x*t",
                              lambda p: np.cos(p[:, 0]), kernel=k,
                              snapshot_dt=0.05)
        rep = run_to_time(st, cfg, 0.1)
        assert st.u.size == len(g.core_flat) < g.size
        assert [u.size for _, u in rep.snapshots] == [st.u.size] * 3
        sizes.append((st.u.size, g.size))
    assert sizes[0][0] == sizes[1][0] and sizes[0][1] < sizes[1][1]


def _fresh_rhs(st, spec):
    """The state's values and the right-hand side of its next step, rebuilt
    from the full-grid field, the plan's sweep and the allocating flux, with
    every datum and coefficient evaluated afresh at ``st.t``."""
    g, plan, t = st.grid, st.plan, st.t
    f = Field(g, st.u, st.phi, t)
    core, u = g.core_flat, st.u.copy()
    load = plan.exterior_load(st.phi(g.exterior_points, t))
    op = plan.apply(f.values[core], u, load)
    pm = np.column_stack([(u - f.values[core - s]) / g.h for s in g.strides])
    pp = np.column_stack([(f.values[core + s] - u) / g.h for s in g.strides])
    H = numerical_hamiltonian_many(Coefficients(spec, g.core_points).at(t),
                                   u, pm, pp, st.sigma)
    return u, op - H


def _fresh_cfl_denominator(st, spec, t):
    """Lambda + sum(drift)/h + max|lam| from the coefficients at t; the
    coercive drift is the state's viscosity."""
    pts = st.grid.core_points
    if spec.family == "coercive":
        drift, lams = st.sigma, [spec.lam]
    else:
        drift = np.max([np.abs(np.column_stack([b(pts, t) for b in c.b]))
                        .max(axis=0) for c in spec.controls], axis=0)
        lams = [c.lam for c in spec.controls]
    lam = max(float(np.abs(f(pts, t)).max()) for f in lams)
    return st.plan.qt.lam + float(np.sum(drift)) / st.grid.h + lam


@pytest.mark.parametrize("case", ["coercive-1d", "bellman-2d"])
def test_step_reads_its_data_at_the_state_time(case):
    # held coefficients and datum equal a fresh evaluation at st.t after
    # every step: a t-dependent field that stays frozen fails this
    if case == "coercive-1d":
        dom = Domain((-1.0,), (1.0,))
        spec = CoerciveSpec(m=2.0, a1="1 + 0.5*exp(-t)", lam=0.5,
                            b="exp(-t)*x", f="0.2*cos(3*x) + 0.3*t")
        h, r_max, phi = 2.0 ** -5, 2.0, "0.3*sin(2*x) + t"
    else:
        dom = Domain((-1.0, -1.0), (1.0, 1.0))
        spec = BellmanSpec([ControlLaw(lam=1.0, b=["-x*exp(-t)", "-y"],
                                       f="0.2*t", dim=2),
                            ControlLaw(lam="0.5 + 0.5*t", b=["0.5*x", 0.5],
                                       f=0.0, dim=2)], dim=2)
        h, r_max, phi = 0.125, 2.0, "1 + 0.2*sin(x - y)*exp(-t)"
    k = fractional_laplacian_kernel(0.5, dom.dim)
    g, qt, cfg, st = make(dom, h, r_max, spec, phi,
                          lambda p: 0.5 * np.cos(2.0 * p.sum(axis=1)), kernel=k)
    for _ in range(4):
        t = st.t
        u, rhs = _fresh_rhs(st, spec)
        step(st, cfg)
        assert st.last_dt == cfg.theta / _fresh_cfl_denominator(st, spec, t)
        assert np.array_equal(st.u, u + st.last_dt * rhs)


def _count_coefficient_calls(monkeypatch):
    """The fields evaluated, one entry per evaluation: a call, or a call of
    a field bound to points."""
    calls = []
    real, real_bind = CoefficientField.__call__, CoefficientField.bind

    def counted(self, pts, t=0.0):
        calls.append(self)
        return real(self, pts, t)

    def bind(self, pts):
        values = real_bind(self, pts)

        def counted_values(t):
            calls.append(self)
            return values(t)
        return counted_values

    monkeypatch.setattr(CoefficientField, "__call__", counted)
    monkeypatch.setattr(CoefficientField, "bind", bind)
    return calls


def test_constant_coefficients_are_evaluated_once(dom1, dom2, monkeypatch):
    from nlhj import harness
    calls = _count_coefficient_calls(monkeypatch)
    after_init = []
    real_init = harness.init_state

    def init_state(*args, **kwargs):
        st = real_init(*args, **kwargs)
        after_init.append(len(calls))
        return st

    monkeypatch.setattr(harness, "init_state", init_state)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)")
    u0, v0, pu, pv = harness.random_ordered_pair(0, dom1)
    res = harness.comparison_experiment(
        spec, dom1, fractional_laplacian_kernel(0.5, 1), (u0, v0), (pu, pv),
        T=0.25, cfg=SchemeConfig(h=2.0 ** -5), r_max=4.0)
    steps = 2 * res.metrics["steps"]
    assert steps > 40
    assert len(calls) - after_init[-1] <= steps

    spec2 = BellmanSpec([ControlLaw(lam=1.0, b=["-x", "-y"], f=0.0, dim=2),
                         ControlLaw(lam=0.5, b=["0.5*x", "0.5*y"], f=0.0,
                                    dim=2)], dim=2)
    g, qt, cfg, st = make(dom2, 0.125, 2.0, spec2, 1.0,
                          "1 + 0.3*cos(x)*cos(y)",
                          kernel=fractional_laplacian_kernel(0.5, 2),
                          snapshot_dt=0.25)
    before = len(calls)
    rep = run_to_time(st, cfg, 1.0)
    assert len(rep.snapshots) == 5
    assert len(calls) - before <= st.steps


def test_datum_constant_in_space_is_evaluated_once_per_step(dom1, monkeypatch):
    calls = _count_coefficient_calls(monkeypatch)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.0)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, "0.5*exp(-t)",
                          "1 - x^2", kernel=fractional_laplacian_kernel(0.5, 1))
    assert not st.phi.varies_in_space
    for _ in range(3):
        calls.clear()
        step(st, cfg)
        assert calls == [st.phi]
        ext = st.phi(g.exterior_points, st.t)
        assert np.array_equal(st.load, st.plan.exterior_load(ext))
        assert np.array_equal(st.phi_trace, st.phi(g.trace_points, st.t))


def test_t_free_part_of_a_moving_field_is_evaluated_once_per_state(
        dom1, monkeypatch):
    from nlhj import expressions
    cos_calls = []

    def cos(v):
        cos_calls.append(1)
        return np.cos(v)

    # in place before the expression is parsed, which copies the namespace
    monkeypatch.setitem(expressions._NAMESPACE, "cos", cos)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5,
                        f="0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)")
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, "0.5*exp(-t)",
                          "1 - x^2", kernel=k)
    assert st.coeffs.moving == {"f"}
    for _ in range(5):
        step(st, cfg)
    assert len(cos_calls) == 1
    assert np.array_equal(st.coeffs.stacked["f"][0],
                          spec.f(g.core_points, st.t))


def test_cfl_denominator_follows_a_viscosity_retry(dom1):
    spec = CoerciveSpec(m=2.0, a1=1.0, lam="0.5 + 0.5*cos(x)", f=0.0)
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, 1.0, "1 - x^2", kernel=k)
    step(st, cfg)                   # caches the denominator
    st.sigma = 1e-3 * st.sigma      # below the viscosity bound
    step(st, cfg)
    assert st.sigma_growth == 1
    lam = float(np.abs(spec.lam(g.core_points, 0.0)).max())
    den = qt.lam + float(np.sum(st.sigma)) / g.h + lam
    assert st.last_dt == cfg.theta / den


@pytest.mark.parametrize("m, a2, l, reads_p", [
    (1.0, 0.0, 0.0, False), (1.0, 0.5, 0.0, False), (1.0, 0.5, 0.5, True),
    (2.0, 0.0, 0.0, True), (2.0, 0.5, 1.0, True)])
def test_initial_viscosity_takes_the_gradients_only_where_its_bound_does(
        dom1, monkeypatch, m, a2, l, reads_p):
    # a bound that does not read the gradients (m = 1, no a2 |p|^l with
    # l > 0) is the held floor: init_state takes it without differencing,
    # and gets the viscosity of the gradient route byte for byte
    spec = CoerciveSpec(m=m, a1="1 + 0.5*x^2", a2=a2, l=l, lam=0.5,
                        f="0.2*cos(3*x)")
    k = fractional_laplacian_kernel(0.5, 1)
    h = 2.0 ** -5
    plan = SweepPlan(grid_for(dom1, h, 2.0), build_quadrature(k, h, 2.0))
    calls = []
    real = solver._bind_gradients

    def counted(st):
        gradients = real(st)
        return lambda: calls.append(st) or gradients()

    monkeypatch.setattr(solver, "_bind_gradients", counted)
    st = init_state(plan, spec, "0.5*x", "1 - 3*x^2")
    assert st.coeffs.bound_reads_p is reads_p
    assert len(calls) == int(reads_p)
    # the gradient route: the bound at the largest one-sided difference of
    # the envelope
    b = st.batch
    b.envelope()
    pm, pp = b.gradients()
    scale = float(np.abs(np.concatenate([pm, pp])).max(initial=0.0))
    assert scale > 1.0
    ref = 1.0 + np.array(lf_viscosity_bound(st.coeffs, scale))
    assert st.sigma.tobytes() == ref.tobytes()


@pytest.mark.parametrize("family", ["coercive", "bellman"])
@pytest.mark.parametrize("dim", [1, 2])
def test_cfl_denominator_keeps_the_bytes_of_a_numpy_sum(family, dim):
    # the per-axis drift bound is summed as Python floats: at dim <= 2 the
    # sum equals numpy's bit for bit
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    b = ["0.3 + 0.7*x", "-0.45*y + 0.1"][:dim]
    if family == "coercive":
        spec = CoerciveSpec(m=2.0, a1="1 + 0.5*x^2", lam=0.5, b=b, dim=dim)
    else:
        spec = BellmanSpec([ControlLaw(lam=0.5, b=b, f=0.1, dim=dim),
                            ControlLaw(lam="0.3 + 0.1*x", b=(0.2,) * dim,
                                       dim=dim)], dim=dim)
    h = 2.0 ** -4 if dim == 1 else 0.125
    k = fractional_laplacian_kernel(0.5, dim)
    *_, cfg, st = make(dom, h, 2.0, spec, 0.0, "0.5*x", kernel=k)
    c = st.coeffs
    drifts = [st.sigma if family == "coercive" else c.b_max]
    if family == "coercive":
        rng = np.random.default_rng(7)
        drifts += [rng.uniform(0.1, 10.0, dim) for _ in range(200)]
    for drift in drifts:
        if family == "coercive":
            st.sigma = drift
        ref = st.plan.qt.lam + float(np.sum(drift)) / h + c.lam_max
        # the state holds none until auto_dt reads it
        assert st.den is None
        assert auto_dt(st, cfg) == cfg.theta / ref
        assert st.den == cfl_denominator(st) == ref


def test_viscosity_growth_evaluates_only_the_flux_again(dom1, monkeypatch):
    # the sweep and the differences do not read the viscosity: a step whose
    # viscosity grows sweeps once and takes the values of a step that
    # starts with the grown viscosity
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
    k = fractional_laplacian_kernel(0.5, 1)
    _, _, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, 1.0, "1 - x^2", kernel=k)
    *_, ref = make(dom1, 2.0 ** -5, 4.0, spec, 1.0, "1 - x^2", kernel=k)
    st.sigma = 1e-3 * st.sigma      # below the viscosity bound
    sweeps = []
    apply = SweepPlan.apply
    monkeypatch.setattr(SweepPlan, "apply",
                        lambda *a, **kw: sweeps.append(1) or apply(*a, **kw))
    step(st, cfg)
    assert st.sigma_growth == 1 and len(sweeps) == 1
    ref.sigma = st.sigma
    step(ref, cfg)
    assert ref.sigma_growth == 0 and ref.last_dt == st.last_dt
    assert np.array_equal(ref.u, st.u)


@pytest.mark.parametrize("case", ["coercive-1d", "bellman-1d", "bellman-2d",
                                  "coercive-1d-stacked", "bellman-1d-stacked",
                                  "bellman-2d-stacked"])
def test_states_sharing_a_plan_step_as_if_alone(case):
    # two states on one plan, each in its own batch or stacked in one
    # (sharing a bundle, a datum varying in space per row): stepped in
    # turns and then one after the other, each takes the same values as
    # when stepped alone, and an operator value the plan already returned
    # survives a later sweep
    stacked = case.endswith("stacked")
    dim = 2 if "2d" in case else 1
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    if case.startswith("coercive"):
        spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)")
    else:
        spec = BellmanSpec([ControlLaw(lam=0.5, b=(-0.5,) * dim, f=0.1,
                                       dim=dim),
                            ControlLaw(lam=0.3, b=(0.5,) * dim, f=0.0,
                                       dim=dim)], dim=dim)
    h = 2.0 ** -5 if dim == 1 else 0.125
    k = fractional_laplacian_kernel(0.5, dim)
    plan = SweepPlan(grid_for(dom, h, 2.0), build_quadrature(k, h, 2.0))
    cfg = SchemeConfig(h=h)
    data = [("0.2*x", lambda p: 0.5 * np.cos(2.0 * p.sum(axis=1))),
            ("1 + 0.3*x^2", lambda p: 1.0 - 0.4 * p[:, 0] ** 2)]

    alone = []
    for phi, u0 in data:
        alone.append(init_state(plan, spec, phi, u0))
        for _ in range(20):
            step(alone[-1], cfg)
    batch = _pair_batch(plan, spec) if stacked else None
    paired = [init_state(plan, spec, phi, u0, batch) for phi, u0 in data]
    assert (paired[0].batch is paired[1].batch) is stacked
    for i in [0, 1] * 10 + [0] * 10 + [1] * 10:
        step(paired[i], cfg)
    for a, b in zip(alone, paired):
        assert np.array_equal(a.u, b.u) and a.t == b.t

    sa, sb = paired
    g = plan.grid
    first = plan.apply(Field(g, sa.u, sa.phi, sa.t).values[g.core_flat], sa.u,
                       sa.load)
    kept = first.copy()
    plan.apply(Field(g, sb.u, sb.phi, sb.t).values[g.core_flat], sb.u, sb.load)
    assert np.array_equal(first, kept)


def test_upwind_mask_follows_a_drift_that_changes_sign(dom1):
    # b = cos(4t) turns negative at t = pi/8; every step equals a fresh
    # evaluation, so a mask held from t = 0 (b > 0) fails after the turn
    spec = BellmanSpec([ControlLaw(lam=0.5, b="cos(4*t)", f="0.2*x"),
                        ControlLaw(lam=0.3, b=0.5, f=0.0)])
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -4, 2.0, spec, "0.3*sin(2*x) + t",
                          lambda p: 0.5 * np.cos(2.0 * p[:, 0]), kernel=k)
    upwind = set()
    while st.t < 0.6:
        u, rhs = _fresh_rhs(st, spec)
        step(st, cfg)
        assert np.array_equal(st.u, u + st.last_dt * rhs)
        upwind.add(bool(st.coeffs.upwind[0].all()))
    assert upwind == {True, False}


def _pair_batch(plan, spec):
    """A batch of two rows with the spec's bundle on both rows' points."""
    pts = np.tile(plan.grid.core_points, (2, 1))
    return solver.StepBatch(plan, Coefficients(spec, pts), 2)


def _stacked_pair(st) -> list:
    """Two states in one batch on ``st``'s plan, spec and datum: one from
    ``st``'s values, one from others."""
    batch = _pair_batch(st.plan, st.spec)
    return [init_state(st.plan, st.spec, st.phi, u0, batch)
            for u0 in (lambda p: st.u, lambda p: 0.5 - 0.2 * p.sum(axis=1))]


def test_batch_takes_states_that_share_its_plan_and_bundle(dom1):
    # a batch is evaluated with one plan and one bundle on the core points
    # of every row, and each state takes a row of its own
    k = fractional_laplacian_kernel(0.5, 1)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.1)
    *_, st = make(dom1, 2.0 ** -5, 2.0, spec, 0.0, "0.5*x", kernel=k)
    plan = st.plan
    with pytest.raises(ValueError, match="bundle on 130 points, not 65"):
        solver.StepBatch(plan, st.coeffs, 2)
    batch = _pair_batch(plan, spec)
    other = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.1)
    with pytest.raises(ValueError, match="share one plan"):
        init_state(plan, other, 0.0, "0.5*x", batch)
    states = [init_state(plan, spec, 0.0, u0, batch) for u0 in (0, 1)]
    assert [s.row for s in states] == [0, 1]
    assert all(s.coeffs is batch.coeffs for s in states)
    assert states[1].u.base is batch.u and np.all(states[1].u == 1.0)
    with pytest.raises(ValueError, match="rows are taken"):
        init_state(plan, spec, 0.0, 2.0, batch)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_joining_row_widens_the_batch_viscosity(dom1, order):
    # at m = 2 each state sizes its viscosity from its own gradients; the
    # batch's is the per-axis larger of its rows' own, the viscosity each
    # state starts with alone, in either join order
    k = fractional_laplacian_kernel(0.5, 1)
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
    *_, st = make(dom1, 2.0 ** -5, 2.0, spec, 0.0, 0.0, kernel=k)
    plan = st.plan
    data = [(0.0, 0.0), ("4*x", "4*x")]  # (phi, u0): flat and steep
    alone = [init_state(plan, spec, *d).sigma for d in data]
    assert alone[0][0] < alone[1][0]
    batch = _pair_batch(plan, spec)
    for i in order:
        init_state(plan, spec, *data[i], batch)
    assert np.array_equal(batch.sigma, np.maximum(*alone))


def test_batch_whose_bundle_reads_t_refuses_a_row_out_of_turn(dom1):
    # a bundle that reads t moves to the new time once every row has
    # stepped: a row stepping twice before the other would evaluate both
    # rows at a time the bundle has not reached, and is refused before it
    # changes anything
    k = fractional_laplacian_kernel(0.5, 1)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)*exp(-t)")
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 2.0, spec, 0.0, "0.5*x",
                          kernel=k)
    sa, sb = _stacked_pair(st)
    step(sa, cfg)
    step(sb, cfg)
    assert sa.coeffs.t == sa.t == sb.t > 0.0
    step(sa, cfg)
    u = sa.u.copy()
    with pytest.raises(ValueError, match="row 0 steps out of turn"):
        step(sa, cfg)
    assert np.array_equal(sa.u, u) and sa.steps == 2
    step(sb, cfg)
    step(sa, cfg)
    assert sa.steps == 3 and sa.coeffs.t == sb.t


@pytest.mark.parametrize("case, h", [("coercive-1d", 2.0 ** -7),
                                     ("bellman-1d", 2.0 ** -7),
                                     ("bellman-2d", 2.0 ** -4),
                                     ("bellman-2d", 2.0 ** -3),
                                     ("coercive-1d-pair", 2.0 ** -7),
                                     ("bellman-1d-pair", 2.0 ** -7),
                                     ("bellman-2d-pair", 2.0 ** -3)])
def test_step_allocates_no_array_of_the_core_size(case, h):
    # with data that do not depend on t, a step after the first writes into
    # the state's workspace: what it allocates and frees again stays below
    # 8 bytes per core node.  What remains is numpy's own scratch for a
    # reduction or a transform (about 1.7 KB, whatever the size), so the
    # bound holds on the benchmark's grids and on the 289-node 2-D one; a
    # stacked pair's two steps, which evaluate both rows, stay below it too
    import tracemalloc
    dim = 2 if "2d" in case else 1
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    if case.startswith("coercive"):
        spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)")
    else:
        b = ["-x", "-y"][:dim]
        spec = BellmanSpec([ControlLaw(lam=1.0, b=b, f=0.1, dim=dim),
                            ControlLaw(lam=0.5, b=(0.5,) * dim, f=0.0,
                                       dim=dim)], dim=dim)
    k = fractional_laplacian_kernel(0.5, dim)
    g, qt, cfg, st = make(dom, h, 2.0, spec, 1.0,
                          lambda p: 1.0 - 0.3 * (p * p).sum(axis=1), kernel=k)
    states = _stacked_pair(st) if case.endswith("pair") else [st]
    st = states[0]
    for s in states:
        step(s, cfg)
    tracemalloc.start()
    try:
        for s in states:
            step(s, cfg)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 8 * len(st.u)


def test_auto_dt_without_a_cfl_bound_takes_a_hundredth_of_T(dom1):
    # zero kernel, lam = 0 and b = 0: the CFL denominator is 0, so the step
    # is T / 100 (0.01 without T)
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    g, qt, cfg, st = make(dom1, 2.0 ** -4, 1.0, spec, 0.0, BUMP2, T=0.5)
    assert solver.cfl_denominator(st) == 0.0
    assert auto_dt(st, cfg) == 0.005
    assert auto_dt(st, SchemeConfig(h=cfg.h)) == 0.01
    run_to_time(st, cfg, 0.5)
    assert st.steps == 100


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_steady_scheme_converges_to_the_ball_profile(dom1, alpha):
    # w = (1 - x^2)_+^(alpha/2) has I(w) = -kappa in the unit ball, so with
    # phi = w and f = kappa + lam w - b w' it is the steady solution on
    # [-1/2, 1/2]; the scheme's sup error falls at order 1 or more
    dom = Domain((-0.5,), (0.5,))
    w = f"max(1 - x^2, 0)^{alpha / 2}"
    dw = f"-{alpha}*x*(1 - x^2)^{alpha / 2 - 1}"
    spec = BellmanSpec([ControlLaw(
        lam=1.0, b=0.3, f=f"{ball_kappa(alpha)!r} + {w} - 0.3*({dw})")])
    k = fractional_laplacian_kernel(alpha, 1)
    errs = []
    for h in (2.0 ** -4, 2.0 ** -5, 2.0 ** -6):
        g, qt, cfg, st = make(dom, h, 4.0, spec, w, 0.0, kernel=k,
                              steady_tol=1e-10)
        st, _ = run_to_steady(st, cfg)
        x = g.core_points[:, 0]
        errs.append(np.abs(st.u - (1 - x ** 2) ** (alpha / 2)).max())
    orders = np.log2(np.array(errs[:-1]) / errs[1:])
    assert np.all(orders >= 1.0), orders


def test_viscosity_set_below_the_held_floor_grows_at_the_next_step(dom1):
    # at m = 1 the flux compares the viscosity with the bundle's held floor
    # max a1 at every step: one set below it grows at the next step, to
    # twice the larger of the two
    spec = CoerciveSpec(m=1.0, a1="1 + 0.5*x^2", lam=0.5, f="0.2*cos(3*x)")
    k = fractional_laplacian_kernel(0.5, 1)
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 4.0, spec, 0.0, "1 - x^2",
                          kernel=k)
    assert st.coeffs.lf_floor == [1.5]
    step(st, cfg)
    assert st.sigma_growth == 0
    st.sigma = np.array([1.25])
    step(st, cfg)
    assert st.sigma_growth == 1
    assert st.sigma.tolist() == [3.0]


@pytest.mark.parametrize("case", ["coercive-1d", "bellman-1d", "bellman-2d",
                                  "coercive-1d-pair", "bellman-2d-pair"])
def test_step_budget(monkeypatch, case):
    # a step makes one sweep and one flux call, looked up where the tracer
    # and a patch installed after the state exists see them; the coercive
    # step at m = 1 (large-time-1d's Hamiltonian and datum, f and phi
    # moving with t) takes the viscosity bound from the bundle, and the
    # Bellman steps, whose data do not read t, evaluate no coefficient
    # field.  A stacked pair makes one sweep and one flux call per two
    # steps, one of each state
    from nlhj import hamiltonians
    dim = 2 if "2d" in case else 1
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    pair = case.endswith("pair")
    if case.startswith("coercive"):
        spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5,
                            f="0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)")
        phi, h = "0.5*exp(-t)", 2.0 ** -6
    else:
        spec = BellmanSpec([ControlLaw(lam=0.5, b=["-x", "-y"][:dim],
                                       f="0.1*sin(2*x)", dim=dim),
                            ControlLaw(lam=0.3, b=["0.5*x", "0.5*y"][:dim],
                                       f=0.0, dim=dim)], dim=dim)
        phi, h = 1.0, 2.0 ** -6 if dim == 1 else 0.125
    k = fractional_laplacian_kernel(0.5, dim)
    g, qt, cfg, st = make(dom, h, 4.0 if dim == 1 else 2.0, spec, phi,
                          lambda p: 0.5 + 0.3 * np.cos(2.0 * p.sum(axis=1)),
                          kernel=k)
    states = _stacked_pair(st) if pair else [st]
    st = states[0]
    calls = {"apply": 0, "flux": 0, "bound": 0, "field": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(SweepPlan, "apply", counted("apply", SweepPlan.apply))
    monkeypatch.setattr(solver, "numerical_hamiltonian_many",
                        counted("flux", numerical_hamiltonian_many))
    monkeypatch.setattr(hamiltonians, "lf_viscosity_bound",
                        counted("bound", hamiltonians.lf_viscosity_bound))
    monkeypatch.setattr(CoefficientField, "__call__",
                        counted("field", CoefficientField.__call__))
    for n in range(1, 4):
        for s in states:
            step(s, cfg)
            assert calls["apply"] == calls["flux"] == n
        assert calls["bound"] == 0
        if not (spec.time_dependent or st.phi.time_dependent):
            assert calls["field"] == 0


@pytest.mark.parametrize("dim, h", [(1, 2.0 ** -5), (2, 0.125)])
def test_held_0d_operands_keep_the_bytes(dim, h):
    # the spacing the differences are divided by and the sweep's diagonal
    # are held as 0-d arrays: the differences and the sweep equal those
    # formed with the Python floats, byte for byte
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5,) * dim, f=0.0, dim=dim)],
                       dim=dim)
    phi = lambda p, t: 0.3 * np.sin(2.0 * p.sum(axis=1)) + t
    u0 = lambda p: 0.6 * np.cos(2.0 * p.sum(axis=1))
    k = fractional_laplacian_kernel(0.5, dim)
    g, qt, cfg, st = make(dom, h, 2.0, spec, phi, u0, kernel=k)
    plan = st.plan
    assert plan.diag.shape == ()
    b = st.batch
    for _ in range(2):
        E = b.envelope()
        u = st.u.reshape(plan.core_shape)
        pm, pp = b.gradients()
        for a, (bwd, fwd) in enumerate(plan.shifts):
            assert pm[:, a].tobytes() == (
                (u - st.block[bwd]) / g.h).tobytes()
            assert pp[:, a].tobytes() == (
                (st.block[fwd] - u) / g.h).tobytes()
        ref = plan.workspace()[0](E, st.load, np.empty(len(st.u)))
        ref -= float(plan.diag) * st.u
        assert plan.apply(E, st.u, st.load).tobytes() == ref.tobytes()
        step(st, cfg)


@pytest.mark.parametrize("dim, h", [(1, 2.0 ** -5), (2, 0.125)])
def test_one_row_and_two_row_batches_share_one_layout(dim, h):
    # a lone state's batch stacks its one row on the leading axis, as a
    # pair's batch stacks two
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5,) * dim, f=0.0, dim=dim)],
                       dim=dim)
    k = fractional_laplacian_kernel(0.5, dim)
    *_, st = make(dom, h, 2.0, spec, 0.0, 1.0, kernel=k)
    pair = _pair_batch(st.plan, spec)
    for b, rows in ((st.batch, 1), (pair, 2)):
        assert b.block.shape[0] == rows and b.diffs.shape[2] == rows
        assert b.block.ndim == dim + 1 and b.diffs.ndim == dim + 3
    assert st.block.base is st.batch.block and st.u.base is st.batch.u


def test_second_batch_reuses_the_plan_trace_positions(dom1, monkeypatch):
    # the rows' trace positions depend only on the plan and the row count:
    # the plan holds them, so a second batch of as many rows binds views of
    # the same arrays and forms no positions of its own
    from nlhj import operators
    k = fractional_laplacian_kernel(0.5, 1)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.1)
    *_, st = make(dom1, 2.0 ** -5, 2.0, spec, 0.0, "0.5*x", kernel=k)
    plan = st.plan
    first = plan.workspace(2)[3]
    _pair_batch(plan, spec)
    calls = []
    add = SimpleNamespace(outer=lambda *a: calls.append(a) or np.add.outer(*a))
    monkeypatch.setattr(operators, "np", SimpleNamespace(**{**vars(np),
                                                            "add": add}))
    _pair_batch(plan, spec)
    assert calls == []
    assert all(a is b for a, b in zip(plan.workspace(2)[3], first))
    g = plan.grid
    assert np.array_equal(first[0], np.concatenate(
        [g.trace_pos, g.trace_pos + len(g.core_flat)]))


def _step_jacobian(plan, spec, phi, u0, cfg, eps=1e-7):
    """The Jacobian of one step from ``u0``: one batch of N + 1 rows, where
    row j is ``u0`` perturbed by ``eps`` at node j and the last row is
    ``u0``, each stepped once, in turn; (U_j - U_N) / eps is column j."""
    pts = plan.grid.core_points
    n = len(pts)
    base = solver.eval_initial(u0, pts)
    batch = solver.StepBatch(
        plan, Coefficients(spec, np.tile(pts, (n + 1, 1))), n + 1)
    states = [init_state(plan, spec, phi,
                         lambda p, j=j: base + eps * (np.arange(n) == j),
                         batch) for j in range(n + 1)]
    for st in states:
        step(st, cfg)
    U = np.array([st.u for st in states])
    return (U[:-1] - U[-1]).T / eps


MONOTONE_CASES = {
    "coercive-m2-1d": (1, 0.5, CoerciveSpec(m=2.0, a1=1.0, lam=0.5, f=0.0),
                       10.0, "1 - x^2"),
    "coercive-m1.5-drift-1d": (
        1, 1.5, CoerciveSpec(m=1.5, a1=1.0, lam=0.5, b=["x"], f="0.2*x"),
        "0.3*x", "0.5*cos(2*x)"),
    "bellman-1d": (1, 1.5, BellmanSpec(
        [ControlLaw(lam=0.5, b="-x", f="0.1*sin(2*x)"),
         ControlLaw(lam=0.3, b="0.5*x", f=0.0)]), 0.0, "0.5*cos(2*x)"),
    "bellman-2d": (2, 0.5, BellmanSpec(
        [ControlLaw(lam=1.0, b=("-x", "-y"), f=0.0, dim=2),
         ControlLaw(lam=0.5, b=("0.5*x", "0.5*y"), f=0.0, dim=2)], dim=2),
        1.0, "1 + 0.3*(1 - x^2)*(1 - y^2)*cos(x + 2*y)"),
    "coercive-m2-2d": (2, 1.5, CoerciveSpec(m=2.0, a1=1.0, lam=0.5, f=0.0,
                                            dim=2),
                       0.0, "0.5*cos(x + 2*y)"),
    # the large_time digest case's f and datum, which read t
    "coercive-moving-1d": (
        1, 0.5, CoerciveSpec(m=1.0, a1=1.0, lam=0.5,
                             f="0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)"),
        "0.5*exp(-t)", "0.5 + 0.2*sin(3*x)"),
}


def _monotone_case(case, theta=0.9):
    dim, alpha, spec, phi, u0 = MONOTONE_CASES[case]
    h = 2.0 ** -5 if dim == 1 else 0.125
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    plan = SweepPlan(grid_for(dom, h, 4.0),
                     build_quadrature(fractional_laplacian_kernel(alpha, dim),
                                      h, 4.0))
    cfg = SchemeConfig(h=h)
    cfg.theta = theta  # past SchemeConfig's refusal for the control
    return _step_jacobian(plan, spec, phi, u0, cfg)


@pytest.mark.parametrize("case", list(MONOTONE_CASES))
def test_whole_step_is_monotone(case):
    # a step's update is nondecreasing in every node value, and its
    # diagonal stays at 1 - theta or more under the CFL bound: the
    # property criterion 3's ordering follows from, measured on the whole
    # step (sweep, envelope, differences, flux and update) at once
    J = _monotone_case(case)
    assert J.min() >= -1e-7
    assert np.diag(J).min() >= 1.0 - 0.9 - 1e-7


@pytest.mark.parametrize("case", ["coercive-m2-1d", "bellman-2d"])
def test_step_past_the_cfl_bound_is_not_monotone(case):
    # the control: theta = 1.3 steps past the CFL bound, and the diagonal
    # turns negative at the worst node, far below the rounding at eps
    J = _monotone_case(case, theta=1.3)
    assert J.min() < -0.1
