import numpy as np
import pytest

from nlhj import solver
from nlhj.errors import BlowUp, CflViolation, NonConvergence
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import (BellmanSpec, CoefficientField, CoerciveSpec,
                               ControlLaw, numerical_hamiltonian)
from nlhj.kernels import (build_quadrature, fractional_laplacian_kernel,
                          zero_kernel)
from nlhj.operators import SweepPlan, scheme_evaluation
from nlhj.oracles import upwind_advection_steps
from nlhj.solver import (SchemeConfig, auto_dt, init_state, run_to_steady,
                         run_to_time, step)

from conftest import grid_for

BUMP2 = lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2) ** 2


def make(dom, h, r_max, spec, phi, u0, **kw):
    k = kw.pop("kernel", zero_kernel(0.5, dom.dim))
    qt = build_quadrature(k, h, r_max)
    g = grid_for(dom, h, r_max)
    cfg = SchemeConfig(h=h, **kw)
    return g, qt, cfg, init_state(SweepPlan(g, qt), spec, phi, u0, cfg)


def test_no_dynamics_identity(dom1):
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, BUMP2)
    before = st.u.copy()
    step(st, cfg, 0.01)
    assert np.array_equal(st.u, before)


def test_step_matches_upwind_advection_oracle(dom1):
    c = 1.0
    spec = BellmanSpec([ControlLaw(lam=0.0, b=c, f=0.0)])
    h = 2.0 ** -6
    g, qt, cfg, st = make(dom1, h, 1.0, spec, 0.0, BUMP2)
    dt = 0.9 * h / c
    ref = upwind_advection_steps(st.field().values, c, h, dt, 5, g.core_flat)
    for _ in range(5):
        step(st, cfg, dt)
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
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, 1.0, dt=0.01)
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
    st, rep = run_to_steady(st, cfg)
    tol = rep.certificates["steady_tol"]
    # frozen after the first verified run (both acceleration paths agree
    # to reassociation error)
    f = st.field()
    assert f.values[g.flat_index_of(0.0)] == pytest.approx(0.17414693702, abs=1e-6)
    # scheme_evaluation with the solver's upwind pair and viscosity
    # reproduces the stepping residual
    E = f.values
    worst = 0.0
    for x in (-0.5, 0.0, 0.25, 0.75):
        flat = g.flat_index_of(x)
        pm = (E[flat] - E[flat - 1]) / h
        pp = (E[flat + 1] - E[flat]) / h
        pbar = (E[flat + 1] - E[flat - 1]) / (2 * h)
        r = scheme_evaluation(f, x, 0.0, 0.0, pbar, spec, qt,
                              p_minus=pm, p_plus=pp, sigma=st.sigma,
                              center=E[flat])
        worst = max(worst, abs(r))
    assert worst <= 2.0 * tol


def test_steady_uniqueness_from_two_starts(dom1):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=1.0)
    k = fractional_laplacian_kernel(0.5, 1)
    h = 2.0 ** -6
    g, qt, cfg_a, sa = make(dom1, h, 8.0, spec, 0.0, 0.0, kernel=k)
    _, _, cfg_b, sb = make(dom1, h, 8.0, spec, 0.0,
                           lambda p: 2.0 * np.cos(p[:, 0]), kernel=k)
    sa, ra = run_to_steady(sa, cfg_a)
    sb, rb = run_to_steady(sb, cfg_b)
    mu0 = 4.0
    tol = max(ra.certificates["steady_tol"], rb.certificates["steady_tol"])
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


def test_cfl_violation_raised(dom1):
    spec = BellmanSpec([ControlLaw(lam=0.0, b=1.0, f=0.0)])
    h = 2.0 ** -5
    g, qt, cfg, st = make(dom1, h, 1.0, spec, 0.0, BUMP2)
    with pytest.raises(CflViolation):
        step(st, cfg, dt=10.0 * h)  # dt * b/h far above theta


def test_blowup_detected(dom1):
    # negative zeroth-order coefficient grows the solution exponentially
    spec = BellmanSpec([ControlLaw(lam=-3.0, b=0.0, f=0.0)])
    g, qt, cfg, st = make(dom1, 2.0 ** -5, 1.0, spec, 0.0, 1.0, m_cap=5.0)
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
        E = st.field().values
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
    from the full-grid field, the plan's sweep and the pointwise flux, with
    every datum and coefficient evaluated afresh at ``st.t``."""
    g, plan, t = st.grid, st.plan, st.t
    f = st.field()
    core, u = g.core_flat, st.u.copy()
    load = plan.exterior_load(st.phi(g.exterior_points, t))
    op = plan.apply(f.values[core], u, load)
    pm = np.column_stack([(u - f.values[core - s]) / g.h for s in g.strides])
    pp = np.column_stack([(f.values[core + s] - u) / g.h for s in g.strides])
    H = np.array([numerical_hamiltonian(spec, x, t, r, a, b, sigma=st.sigma)
                  for x, r, a, b in zip(g.core_points, u, pm, pp)])
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
    """Names of the fields evaluated, one per evaluation: a call, or a call
    of a field bound to points."""
    calls = []
    real, real_bind = CoefficientField.__call__, CoefficientField.bind

    def counted(self, pts, t=0.0):
        calls.append(self.name)
        return real(self, pts, t)

    def bind(self, pts):
        values = real_bind(self, pts)

        def counted_values(t):
            calls.append(self.name)
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
        assert calls == ["phi"]
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
    assert np.array_equal(st.coeffs.terms[0].f, spec.f(g.core_points, st.t))


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


@pytest.mark.parametrize("case", ["coercive-1d", "bellman-1d", "bellman-2d"])
def test_states_sharing_a_plan_step_as_if_alone(case):
    # two states on one plan share its transform scratch: stepped
    # alternately, each takes the same values as when stepped alone, and
    # an operator value already returned survives a later sweep
    dim = 2 if case.endswith("2d") else 1
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
        alone.append(init_state(plan, spec, phi, u0, cfg))
        for _ in range(20):
            step(alone[-1], cfg)
    paired = [init_state(plan, spec, phi, u0, cfg) for phi, u0 in data]
    for _ in range(20):
        for st in paired:
            step(st, cfg)
    for a, b in zip(alone, paired):
        assert np.array_equal(a.u, b.u) and a.t == b.t

    sa, sb = paired
    first = plan.apply(sa.field().values[plan.grid.core_flat], sa.u, sa.load)
    kept = first.copy()
    plan.apply(sb.field().values[plan.grid.core_flat], sb.u, sb.load)
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
        upwind.add(bool(st.coeffs.terms[0].upwind.all()))
    assert upwind == {True, False}


@pytest.mark.parametrize("case, h", [("coercive-1d", 2.0 ** -7),
                                     ("bellman-1d", 2.0 ** -7),
                                     ("bellman-2d", 2.0 ** -4),
                                     ("bellman-2d", 2.0 ** -3)])
def test_step_allocates_no_array_of_the_core_size(case, h):
    # with data that do not depend on t, a step after the first writes into
    # the state's workspace: what it allocates and frees again stays below
    # 8 bytes per core node.  What remains is numpy's own scratch for a
    # reduction or a transform (about 1.7 KB, whatever the size), so the
    # bound holds on the benchmark's grids and on the 289-node 2-D one
    import tracemalloc
    dim = 2 if case.endswith("2d") else 1
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
    step(st, cfg)
    tracemalloc.start()
    try:
        step(st, cfg)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - current < 8 * len(st.u)
