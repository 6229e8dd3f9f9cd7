import numpy as np
import pytest

from nlhj import harness
from nlhj.errors import NonConvergence, PreconditionError
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import (BellmanSpec, CoefficientField, Coefficients,
                               CoerciveSpec, ControlLaw,
                               numerical_hamiltonian_many)
from nlhj.kernels import fractional_laplacian_kernel, zero_kernel
from nlhj.harness import (boundary_behavior_experiment, boundary_refinement,
                          coercive_loss_experiment, comparison_experiment,
                          discretize, holder_quotient, large_time_experiment,
                          make_rate_bound, random_ordered_pair,
                          rate_experiment, trace_face_map)
from nlhj.oracles import rate_bound_trapezoid
from nlhj.solver import (SchemeConfig, init_state, run_to_steady,
                         run_to_time, step)


def test_discretize_keeps_the_last_plan(dom1, k05, monkeypatch):
    builds = []
    real = harness.build_quadrature
    monkeypatch.setattr(harness, "build_quadrature",
                        lambda *args: builds.append(args) or real(*args))
    h = 2.0 ** -5
    plan = discretize(dom1, k05, h, 4.0)
    assert (plan.grid.h, plan.grid.halo, plan.qt.h, plan.qt.r_max) == \
        (h, 128, h, 4.0)
    assert discretize(dom1, k05, h, 4.0) is plan
    assert len(builds) == 1
    assert discretize(dom1, k05, h / 2, 4.0) is not plan
    assert discretize(dom1, k05, h) is not plan     # r_max = 4 * diameter
    assert len(builds) == 3
    # comparison pairs on one problem, with no plan held between them,
    # discretize once
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.0)
    del plan
    for seed in range(2):
        u0, v0, pa, pb = random_ordered_pair(seed, dom1)
        assert comparison_experiment(spec, dom1, k05, (u0, v0), (pa, pb),
                                     T=0.05, cfg=SchemeConfig(h=h),
                                     r_max=4.0).passed
    assert len(builds) == 4


def test_comparison_identical_data(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.0)
    u0 = lambda p: 0.3 * np.sin(2 * p[:, 0])
    res = comparison_experiment(spec, dom1, k05, (u0, u0), (0.0, 0.0),
                                T=0.25, cfg=SchemeConfig(h=2.0 ** -5),
                                r_max=4.0)
    assert res.passed
    assert res.metrics["max_violation"] == 0.0


def test_comparison_shifted_data(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.0)
    u0 = lambda p: 0.3 * np.sin(2 * p[:, 0])
    v0 = lambda p: u0(p) + 1.0
    res = comparison_experiment(spec, dom1, k05, (u0, v0), (0.0, 1.0),
                                T=0.25, cfg=SchemeConfig(h=2.0 ** -5),
                                r_max=4.0)
    assert res.passed


def test_comparison_rejects_unordered(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.0)
    u0 = lambda p: np.zeros(p.shape[0])
    v0 = lambda p: -np.ones(p.shape[0])
    with pytest.raises(PreconditionError, match="initial data"):
        comparison_experiment(spec, dom1, k05, (u0, v0), (0.0, 0.0),
                              T=0.1, cfg=SchemeConfig(h=2.0 ** -5), r_max=4.0)
    with pytest.raises(PreconditionError, match="exterior data"):
        comparison_experiment(spec, dom1, k05, (0.0, 0.0), (1.0, 0.0),
                              T=0.1, cfg=SchemeConfig(h=2.0 ** -5), r_max=4.0)


def test_comparison_reads_exterior_data_over_t_only_where_they_read_t(
        dom1, k05):
    # data ordered at t = 0 that cross within (0, T] are refused; data
    # that do not read t are read at t = 0 only, by the states and the
    # ordering check alike
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=0.0)
    cfg = SchemeConfig(h=2.0 ** -5)
    with pytest.raises(PreconditionError, match="exterior data"):
        comparison_experiment(spec, dom1, k05, (0.0, 0.5), ("2*t", 0.5),
                              T=0.5, cfg=cfg, r_max=4.0)
    times = []

    def datum(value):
        def phi(pts, t):
            times.append(t)
            return np.full(len(pts), value)
        phi.time_dependent = False
        return phi

    res = comparison_experiment(spec, dom1, k05, (0.0, 0.5),
                                (datum(0.0), datum(0.5)), T=0.5, cfg=cfg,
                                r_max=4.0)
    assert res.passed and len(res.tables["report"][1]) > 10
    assert len(times) >= 4 and set(times) == {0.0}


def test_comparison_negation_symmetry(dom1, k05):
    # H = |Du|^m + lam u - f with f -> -f: negating and swapping ordered data
    # preserves the (zero) violation metric of the monotone scheme
    f_src = "0.2*cos(3*x)"
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=f_src)
    spec_neg = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=f"-({f_src})")
    u0, v0, pa, pb = random_ordered_pair(11, dom1)
    cfg = SchemeConfig(h=2.0 ** -5)
    res = comparison_experiment(spec, dom1, k05, (u0, v0), (pa, pb),
                                T=0.2, cfg=cfg, r_max=4.0)
    neg_u0 = lambda p: -v0(p)
    neg_v0 = lambda p: -u0(p)
    neg_pa = lambda p, t: -pb(p, t)
    neg_pb = lambda p, t: -pa(p, t)
    res_neg = comparison_experiment(spec_neg, dom1, k05, (neg_u0, neg_v0),
                                    (neg_pa, neg_pb), T=0.2, cfg=cfg,
                                    r_max=4.0)
    assert res.metrics["max_violation"] == res_neg.metrics["max_violation"]


def test_comparison_pair_steps_with_the_scheme_a_run_takes(dom1, k05):
    # criterion 3's coercive spec: the pair shares each state's own
    # viscosity and so takes the steps of one state run alone
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)")
    cfg = SchemeConfig(h=2.0 ** -5, theta=0.9)
    u0, v0, pa, pb = random_ordered_pair(3, dom1)
    res = comparison_experiment(spec, dom1, k05, (u0, v0), (pa, pb), T=1.0,
                                cfg=cfg, r_max=4.0)
    assert res.passed and res.metrics["sigma_growth"] == 0
    plan = discretize(dom1, k05, cfg.h, 4.0)
    sa = init_state(plan, spec, pa, u0)
    sb = init_state(plan, spec, pb, v0)
    assert (res.metrics["sigma"] == float(sa.batch.sigma[0])
            == float(sb.batch.sigma[0]))
    run_to_time(sa, cfg, 1.0)
    assert res.metrics["steps"] == sa.steps


def test_comparison_pair_grows_its_viscosity_in_flight(dom1, k05,
                                                      monkeypatch):
    # a datum ramping up fast steepens the trace gradients past the
    # viscosity the pair starts with: it grows at the step that finds it
    # too small, for both rows before either state moves, so both states
    # take every step with one viscosity and one dt and stay ordered; the
    # pair then steps as the state with the steeper datum run alone
    seen = []
    real_step = harness.step

    def recorded(st, *args):
        real_step(st, *args)
        seen.append((st.row, st.t, st.last_dt, st.batch.sigma.tolist()))
        return st

    monkeypatch.setattr(harness, "step", recorded)
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
    cfg = SchemeConfig(h=2.0 ** -5)
    u0 = lambda p: np.zeros(p.shape[0])
    v0 = lambda p: np.full(p.shape[0], 0.1)
    res = comparison_experiment(spec, dom1, k05, (u0, v0),
                                ("20*t", "20*t + 0.1"), T=0.5, cfg=cfg,
                                r_max=4.0)
    assert res.passed and res.metrics["max_violation"] == 0.0
    assert res.metrics["sigma_growth"] >= 1
    assert len(seen) == 2 * res.metrics["steps"]
    for a, b in zip(seen[::2], seen[1::2]):
        assert (a[0], b[0]) == (0, 1) and a[1:] == b[1:]
    assert len({tuple(s[3]) for s in seen}) == res.metrics["sigma_growth"] + 1
    alone = init_state(discretize(dom1, k05, cfg.h, 4.0), spec,
                       "20*t + 0.1", v0)
    run_to_time(alone, cfg, 0.5)
    assert res.metrics["steps"] == alone.steps
    assert res.metrics["sigma"] == float(alone.batch.sigma.max())


MOVING_F = "0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)"
BELLMAN_PAIR = BellmanSpec([ControlLaw(lam=0.5, b="-x", f="0.1*sin(2*x)"),
                            ControlLaw(lam=0.3, b="0.5*x", f=0.0)])
# the ramp pair of the config test of viscosity growth: the datum steepens
# the trace gradients past the shared viscosity
RAMP = dict(data=((0.0, 0.1), ("20*t", "20*t + 0.1")), T=0.25, r_max=None)
PAIRS = {
    "coercive-m1": (CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)"),
                    dict(data=None, T=0.5, r_max=4.0)),
    "bellman": (BELLMAN_PAIR, dict(data=None, T=0.5, r_max=4.0)),
    "moving-f": (CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f=MOVING_F),
                 dict(data=(("1 - x^2", "2 - x^2"), (0.0, 0.5)), T=0.5,
                      r_max=4.0)),
    # a drift that reads t and changes sign at t = pi/8
    "bellman-moving-drift": (
        BellmanSpec([ControlLaw(lam=0.5, b="cos(4*t)", f="0.2*x"),
                     ControlLaw(lam=0.3, b=0.5, f=0.0)]),
        dict(data=None, T=0.5, r_max=4.0)),
    "ramp-m2": (CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0), RAMP),
    "ramp-m2-moving-f": (CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=MOVING_F),
                         RAMP),
    "bellman-2d": (BellmanSpec([ControlLaw(lam=1.0, b=["-x", "-y"], f=0.1,
                                           dim=2),
                                ControlLaw(lam=0.5, b=["0.5*x", "0.5*y"],
                                           f="0.1*sin(x - y)", dim=2)],
                               dim=2),
                   dict(data=None, T=1.0, r_max=2.0, h=0.125,
                        dom=Domain((-1.0, -1.0), (1.0, 1.0)),
                        kernel=fractional_laplacian_kernel(0.5, 2))),
}


def _run_pair(case, dom1, k05):
    """The pair of ``case`` on [-1, 1] with ``k05`` at h = 2^-5, unless its
    arguments name another domain, kernel or spacing."""
    spec, args = PAIRS[case]
    dom, k = args.get("dom", dom1), args.get("kernel", k05)
    data = args["data"]
    if data is None:
        u0, v0, pa, pb = random_ordered_pair(3, dom)
        data = ((u0, v0), (pa, pb))
    cfg = SchemeConfig(h=args.get("h", 2.0 ** -5), theta=0.9)
    res = comparison_experiment(spec, dom, k, *data, T=args["T"], cfg=cfg,
                                r_max=args["r_max"])
    return spec, data, args, cfg, res


def _count_bundles(monkeypatch):
    built = []
    real = Coefficients.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Coefficients, "__init__", counted)
    return built


@pytest.mark.parametrize("case", ["coercive-m1", "bellman", "ramp-m2"])
def test_comparison_pair_shares_one_bundle_when_no_field_reads_t(
        dom1, k05, monkeypatch, case):
    # both states read the one bundle the pair builds
    built = _count_bundles(monkeypatch)
    states = []
    real_init = harness.init_state
    monkeypatch.setattr(harness, "init_state", lambda *a, **kw: states.append(
        real_init(*a, **kw)) or states[-1])
    *_, res = _run_pair(case, dom1, k05)
    assert res.passed and len(built) == 1 and len(states) == 2
    assert all(st.batch.coeffs is built[0] for st in states)
    if case == "ramp-m2":
        assert res.metrics["sigma_growth"] >= 1


@pytest.mark.parametrize("case", ["coercive-m1", "bellman", "moving-f"])
def test_comparison_pair_computes_each_cfl_denominator_once(
        dom1, k05, monkeypatch, case):
    # the pair's batch computes its CFL denominator when its first step
    # size is taken, after the pair has set the shared viscosity, and holds
    # it when neither lam nor the drift reads t: one per pair, none before
    # the first step
    from nlhj import solver
    dens, before_first_step = [], []
    real_den, real_step = solver.cfl_denominator, harness.step
    monkeypatch.setattr(solver, "cfl_denominator",
                        lambda st: dens.append(st) or real_den(st))

    def stepped(st, *args):
        if not before_first_step:
            before_first_step.append(len(dens))
        return real_step(st, *args)

    monkeypatch.setattr(harness, "step", stepped)
    *_, res = _run_pair(case, dom1, k05)
    assert res.passed and res.metrics["sigma_growth"] == 0
    assert before_first_step == [0]
    assert len(dens) == 1


@pytest.mark.parametrize("case", ["moving-f", "ramp-m2-moving-f"])
def test_comparison_pair_with_a_moving_field_shares_one_bundle(
        dom1, k05, monkeypatch, case):
    # a bundle that reads t moves once per pair step, after both states
    # have stepped: the pair builds one, at t = 0, and ends with it at T
    built = _count_bundles(monkeypatch)
    *_, res = _run_pair(case, dom1, k05)
    assert res.passed and len(built) == 1
    assert built[0].t == pytest.approx(PAIRS[case][1]["T"], abs=1e-12)
    if case == "ramp-m2-moving-f":
        assert res.metrics["sigma_growth"] >= 1


def _lockstep_rows(plan, spec, data, T, cfg):
    """A comparison pair's report rows from two states that ``init_state``
    builds alone, each with its own bundle, stepped in lockstep with the
    per-axis larger of their viscosities, which neither grows."""
    (u0, v0), (pa, pb) = data
    sa, sb = init_state(plan, spec, pa, u0), init_state(plan, spec, pb, v0)
    if spec.family == "coercive":
        sigma = np.maximum(sa.batch.sigma, sb.batch.sigma)
        for st in (sa, sb):
            st.batch.sigma = sigma
    rows = []
    while sa.t < T - 1e-14:
        step(sa, cfg, T)
        step(sb, cfg, T)
        assert sa.sigma_growth == sb.sigma_growth == 0
        rows.append((sa.t, float(np.max(sa.u - sb.u))))
    return rows


@pytest.mark.parametrize("case", ["coercive-m1", "bellman", "moving-f",
                                  "bellman-moving-drift", "bellman-2d"])
def test_comparison_pair_rows_equal_two_states_stepped_alone(dom1, k05,
                                                             case):
    spec, data, args, cfg, res = _run_pair(case, dom1, k05)
    plan = discretize(args.get("dom", dom1), args.get("kernel", k05), cfg.h,
                      args["r_max"])
    rows = _lockstep_rows(plan, spec, data, args["T"], cfg)
    header, got = res.tables["report"]
    assert header == ("t", "max_u_minus_v") and len(got) > 10
    assert repr(got) == repr(rows)


def _seeded_pair(spec, seed, dom1, k05, cfg=SchemeConfig(h=2.0 ** -5)):
    """Criterion 3's pair of ``seed`` for ``spec`` to T = 0.5."""
    u0, v0, pa, pb = random_ordered_pair(seed, dom1)
    return comparison_experiment(spec, dom1, k05, (u0, v0), (pa, pb), T=0.5,
                                 cfg=cfg, r_max=4.0)


# specs whose pairs a held bundle must start as a new one does: a field
# that reads t (f, or a drift changing sign), and an initial viscosity that
# reads each pair's own gradients (m = 2)
HELD = {
    "coercive-moving-f": lambda: CoerciveSpec(m=1.0, a1=1.0, lam=0.5,
                                              f=MOVING_F),
    "coercive-m2": lambda: CoerciveSpec(m=2.0, a1=1.0, lam=0.5,
                                        f="0.2*cos(3*x)"),
    "bellman-moving-drift": lambda: BellmanSpec(
        [ControlLaw(lam=0.5, b="cos(4*t)", f="0.2*x"),
         ControlLaw(lam=0.3, b=0.5, f=0.0)]),
}


def test_pairs_on_one_spec_build_one_bundle(dom1, k05, monkeypatch):
    # the pairs of one spec object on one plan share the bundle the first
    # builds, each with a batch of its own; a pair on another spec object,
    # even an equal one, builds its own
    built = _count_bundles(monkeypatch)
    states = []
    real_init = harness.init_state
    monkeypatch.setattr(harness, "init_state", lambda *a, **kw: states.append(
        real_init(*a, **kw)) or states[-1])
    spec = HELD["coercive-moving-f"]()
    assert all(_seeded_pair(spec, seed, dom1, k05).passed
               for seed in range(3))
    assert len(built) == 1 and len(states) == 6
    assert all(st.batch.coeffs is built[0] for st in states)
    assert len({id(st.batch) for st in states}) == 3
    assert _seeded_pair(HELD["coercive-moving-f"](), 0, dom1, k05).passed
    assert len(built) == 2 and states[-1].batch.coeffs is built[1]


def test_pairs_and_calls_on_one_bundle_bind_one_flux(dom1, k05,
                                                      monkeypatch):
    # the held bundle binds its flux at its first read: the batches of its
    # pairs and the allocating calls on it all share that one
    from nlhj import hamiltonians
    bound = []
    real = hamiltonians.flux_workspace
    monkeypatch.setattr(hamiltonians, "flux_workspace",
                        lambda c: bound.append(c) or real(c))
    spec = HELD["coercive-moving-f"]()
    assert all(_seeded_pair(spec, seed, dom1, k05).passed
               for seed in range(3))
    c = harness._pair_setup(spec, discretize(dom1, k05, 2.0 ** -5, 4.0))
    p = np.zeros((c.n, 1))
    calls = [numerical_hamiltonian_many(c, np.zeros(c.n), p, p,
                                        np.array([2.0])) for _ in range(2)]
    assert calls[0] is not calls[1]
    assert calls[0].tobytes() == calls[1].tobytes()
    assert bound == [c]


@pytest.mark.parametrize("case", list(HELD))
def test_held_pair_rows_equal_a_fresh_pair(dom1, k05, case):
    # three pairs in a row on one spec object, whose bundle ends each pair
    # at T (where a field reads t), report the rows and telemetry of pairs
    # each on a spec object of its own
    spec = HELD[case]()
    held = [_seeded_pair(spec, seed, dom1, k05) for seed in range(3)]
    fresh = [_seeded_pair(HELD[case](), seed, dom1, k05)
             for seed in range(3)]
    for a, b in zip(held, fresh):
        assert a.passed and len(a.tables["report"][1]) > 10
        assert repr(a.tables["report"]) == repr(b.tables["report"])
        assert a.telemetry == b.telemetry


def test_pair_after_a_failed_pair_equals_a_fresh_pair(dom1, k05,
                                                      monkeypatch):
    # a pair that passes max_steps leaves the held bundle part way to T;
    # the next pair on the spec takes it back to t = 0
    built = _count_bundles(monkeypatch)
    spec = HELD["bellman-moving-drift"]()
    with pytest.raises(NonConvergence):
        _seeded_pair(spec, 0, dom1, k05,
                     cfg=SchemeConfig(h=2.0 ** -5, max_steps=5))
    assert len(built) == 1 and 0.0 < built[0].t < 0.5
    after = _seeded_pair(spec, 1, dom1, k05)
    assert len(built) == 1
    fresh = _seeded_pair(HELD["bellman-moving-drift"](), 1, dom1, k05)
    assert repr(after.tables["report"]) == repr(fresh.tables["report"])
    assert after.telemetry == fresh.telemetry


def test_rate_reports_the_snapshots_its_fit_reads(dom1, k05):
    # criterion 4's nonlocal case: the fit reads the snapshots past T/2
    # whose deviation lies above the steady reference's noise floor, some
    # of which it leaves out; below three the exponent is NaN
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    u0 = lambda p: 1.0 - p[:, 0] ** 2
    res = rate_experiment(spec, dom1, k05, 0.0, 0.0, u0, T=5.0,
                          cfg=SchemeConfig(h=2.0 ** -7, snapshot_dt=0.1))
    times, devs = np.array([r[:2] for r in res.tables["rate_curve"][1]]).T
    # the reference's tolerance is 1e-12 (1 + max |u0|), and max |u0| = 1
    floor = 100.0 * 2e-12 / res.metrics["mu0"]
    late = times >= 2.5
    fit = res.metrics["fit_points"]
    assert fit >= 3 and fit == int((late & (devs > floor)).sum())
    assert fit < int(late.sum())
    assert res.telemetry["fit_points"] == fit
    assert np.isfinite(res.metrics["fitted_exponent"])
    short = rate_experiment(spec, dom1, k05, 0.0, 0.0, u0, T=0.2,
                            cfg=SchemeConfig(h=2.0 ** -5, snapshot_dt=0.1))
    assert short.metrics["fit_points"] == 2
    assert np.isnan(short.metrics["fitted_exponent"])


def test_rate_degenerate_closed_form(dom1):
    # K = 0, single zero-drift control with lam = 1: u(t) = e^{-t} u0
    # exactly; the CFL denominator is lam = 1, so each full step is theta
    spec = BellmanSpec([ControlLaw(lam=1.0, b=0.0, f=0.0)])
    k = zero_kernel(0.5, 1)
    dt = 0.004
    cfg = SchemeConfig(h=2.0 ** -5, theta=dt, snapshot_dt=0.25)
    res = rate_experiment(spec, dom1, k, 0.0, 0.0, 1.0, T=5.0, cfg=cfg,
                          r_max=0.5)
    assert res.passed
    assert res.metrics["mu0"] == pytest.approx(1.0)
    rows = res.tables["rate_curve"][1]
    dev = np.array([r[1] for r in rows])
    bound = np.array([r[2] for r in rows])
    # equality case up to time-stepping error
    assert np.abs(dev - bound).max() <= dt
    assert res.metrics["fitted_exponent"] == pytest.approx(1.0, abs=0.02)


def test_rate_time_dependent_datum_closed_form(dom1, k05):
    # phi(t) = phibar + e^{-2 mu0 t}: G(t) = 2 - e^{-mu0 t} in closed form
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    cfg = SchemeConfig(h=2.0 ** -5, snapshot_dt=0.05)
    mu0_probe = rate_experiment(spec, dom1, k05, 0.0, 0.0,
                                lambda p: 1 - p[:, 0] ** 2, T=0.2,
                                cfg=SchemeConfig(h=2.0 ** -5, snapshot_dt=0.1)
                                ).metrics["mu0"]
    phi = f"exp(-{2 * mu0_probe}*t)"
    res = rate_experiment(spec, dom1, k05, phi, 0.0,
                          lambda p: 1 - p[:, 0] ** 2, T=3.0, cfg=cfg)
    assert res.passed
    times, _, bound, g = map(np.array, zip(*res.tables["rate_curve"][1]))
    mu0, dev0 = res.metrics["mu0"], res.metrics["dev0"]
    # bound = e^{-mu0 t} (dev0 + G)
    G = bound * np.exp(mu0 * times) - dev0
    exact_G = 2.0 - np.exp(-mu0_probe * times)
    assert np.abs(G - exact_G).max() < 0.01  # trapezoid on snapshots
    # independent trapezoid oracle reproduces the bound
    oracle = rate_bound_trapezoid(times, g, mu0, dev0)
    assert np.allclose(oracle, bound, rtol=1e-12)


def test_rate_bound_invariants():
    times = np.linspace(0, 4, 21)
    g = np.exp(-times) + 0.1 * (times < 1)
    g, bound = make_rate_bound(times, g, mu0=2.0, dev0=1.0)
    assert np.all(np.diff(g) <= 1e-15)          # g nonincreasing
    assert np.all(bound >= g - 1e-12)           # bound dominates g


def test_rate_requires_h2prime(dom1):
    # zero kernel and zero lam: mu0 = 0, the gate refuses
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    k = zero_kernel(0.5, 1)
    with pytest.raises(PreconditionError):
        rate_experiment(spec, dom1, k, 0.0, 0.0, 1.0, T=1.0,
                        cfg=SchemeConfig(h=2.0 ** -5), r_max=0.5)


def test_rate_requires_time_independent_h(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f="sin(t)")
    with pytest.raises(PreconditionError):
        rate_experiment(spec, dom1, k05, 0.0, 0.0, 1.0, T=1.0,
                        cfg=SchemeConfig(h=2.0 ** -5))


def test_boundary_requires_ue_and_small_alpha(dom1):
    spec = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    with pytest.raises(PreconditionError):
        boundary_behavior_experiment(spec, dom1, zero_kernel(0.5, 1), 0.0,
                                     0.0, 1.0, SchemeConfig(h=2.0 ** -5))
    k15 = fractional_laplacian_kernel(1.5, 1)
    with pytest.raises(PreconditionError, match="requires alpha < 1"):
        boundary_behavior_experiment(spec, dom1, k15, 0.0, 0.0, 1.0,
                                     SchemeConfig(h=2.0 ** -5))


def test_boundary_outflow_gap_decays(dom1, k05):
    # b(x) = x drifts outward on both faces: the datum (here 1, above the
    # interior equilibrium) is attained under refinement
    spec = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    res = boundary_refinement(
        spec, dom1, k05, 1.0, 1.0, T=2.0, h_list=[2.0 ** -4, 2.0 ** -5],
        r_max=4.0)
    gaps, ratios = res.metrics["gaps"], res.metrics["ratios"]
    assert res.passed
    for face in ("left", "right"):
        assert gaps[face][0] > 0.0
        assert 0.0 < ratios[face][0] < 0.7


def test_boundary_inflow_gap_persists(dom1, k05):
    # b(x) = -x drifts inward everywhere; large datum is not attained.
    # Loss threshold 0.8 pinned from the first verified refinement study.
    spec = BellmanSpec([ControlLaw(lam=1.0, b="-x", f=0.0)])
    res = boundary_refinement(
        spec, dom1, k05, 10.0, 10.0, T=2.0, h_list=[2.0 ** -4, 2.0 ** -5],
        r_max=4.0)
    gaps = res.metrics["gaps"]
    assert res.passed
    for face in ("left", "right"):
        assert min(gaps[face]) > 0.8
        rel = abs(gaps[face][1] - gaps[face][0]) / abs(gaps[face][0])
        assert rel < 0.1                        # stable under refinement


@pytest.mark.parametrize("h_list", [[2.0 ** -5, 2.0 ** -4],
                                    [2.0 ** -4, 2.0 ** -4]])
def test_boundary_refinement_refuses_spacings_that_do_not_decrease(
        dom1, k05, h_list):
    # refused before any run: its ratios would compare spacings that are
    # not refinements
    spec = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    with pytest.raises(ValueError, match="decrease strictly"):
        boundary_refinement(spec, dom1, k05, 1.0, 1.0, T=2.0, h_list=h_list,
                            r_max=4.0)


def test_boundary_report_tags(dom1, k05):
    spec = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    res = boundary_behavior_experiment(
        spec, dom1, k05, 0.0, lambda p: 0.5 * (1 - p[:, 0] ** 2), 0.5,
        SchemeConfig(h=2.0 ** -5), r_max=4.0)
    assert res.metrics["tags"] == {"left": "out", "right": "out"}
    assert set(res.metrics["per_face"]) == {"left", "right"}
    assert res.passed  # no subsolution violation
    # u0 = 10 above the datum 0 at outflow faces: the trace stays above
    # the datum, a subsolution violation
    res = boundary_behavior_experiment(spec, dom1, k05, 0.0, 10.0, 0.05,
                                       SchemeConfig(h=2.0 ** -5), r_max=4.0)
    assert not res.passed
    for face in ("left", "right"):
        assert res.metrics["per_face"][face]["final_gap"] < -1.0


def test_holder_quotient_zero_field(dom1, k05):
    from conftest import grid_for
    g = grid_for(dom1, 2.0 ** -5, 1.0)
    q = holder_quotient(g, np.zeros(len(g.core_flat)), 0.75)
    assert q == 0.0


@pytest.mark.parametrize("lower, upper, h", [
    ((-1.0,), (1.0,), 2.0 ** -5), ((-0.3,), (0.7,), 0.05),
    ((-1.0, -0.5), (1.0, 0.5), 0.1), ((0.1, -1.0), (0.6, 1.3), 0.05),
    ((0.0,), (0.2,), 0.05)])
@pytest.mark.parametrize("max_sep", [0.01, 0.13, 0.25, 5.0])
def test_holder_quotient_matches_all_pairs(monkeypatch, lower, upper, h,
                                           max_sep):
    # bit-identical to the all-pairs form it replaced, at the separation
    # HOLDER_SEP = 0.25 and, set in its place, below one step, between
    # multiples of h and past the box; the box [0, 0.2] is shorter than
    # HOLDER_SEP, so the reach is clipped to the box there
    from nlhj import harness
    from nlhj.geometry import Grid
    assert harness.HOLDER_SEP == 0.25
    monkeypatch.setattr(harness, "HOLDER_SEP", max_sep)
    g = Grid(Domain(lower, upper), h, halo=1)
    u = np.random.default_rng(5).standard_normal(len(g.core_flat))
    pts = g.points_at(g.core_flat)
    diff = np.abs(u[:, None] - u[None, :])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    mask = (d > 1e-12) & (d <= max_sep)
    ref = float((diff[mask] / d[mask] ** 0.75).max()) if mask.any() else 0.0
    assert holder_quotient(g, u, 0.75) == ref


def test_coercive_loss_gate(dom1):
    k = fractional_laplacian_kernel(1.5, 1)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0)  # m < alpha
    with pytest.raises(PreconditionError):
        coercive_loss_experiment(spec, dom1, k, [1.0, 10.0],
                                 SchemeConfig(h=2.0 ** -5))


def test_coercive_loss_zero_datum(dom1, k05):
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
    res = coercive_loss_experiment(spec, dom1, k05, [0.0],
                                   SchemeConfig(h=2.0 ** -5), r_max=4.0)
    assert res.metrics["quotients"][0] == pytest.approx(0.0, abs=1e-7)


def test_large_time_converging_source(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f="0.4*cos(2*x)*(1 + exp(-t))")
    spec_bar = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f="0.4*cos(2*x)")
    res = large_time_experiment(spec, spec_bar, dom1, k05, 0.0, 0.0,
                                [1.0, 2.0, 4.0], SchemeConfig(h=2.0 ** -5),
                                u0=0.0, r_max=4.0)
    assert res.passed
    devs = res.metrics["deviations"]
    assert devs[-1] < devs[0]


def test_large_time_gate_takes_a_field_that_does_not_read_t_once(
        dom1, k05, monkeypatch):
    # the data gate evaluates a1, a2 and lam once and f at each horizon;
    # its gaps are those of every field at every horizon
    spec = CoerciveSpec(m=1.0, a1="1 + 0.1*x^2", lam=1.0,
                        f="0.4*cos(2*x)*(1 + exp(-t))")
    spec_bar = CoerciveSpec(m=1.0, a1="1 + 0.1*x^2", lam=1.0,
                            f="0.4*cos(2*x)")
    ladder = [1.0, 2.0, 4.0]
    res = large_time_experiment(spec, spec_bar, dom1, k05, 0.0, 0.0, ladder,
                                SchemeConfig(h=2.0 ** -5), r_max=4.0)
    pts = discretize(dom1, k05, 2.0 ** -5, 4.0).grid.core_points
    gaps = [max(float(np.abs(c(pts, t) - c_bar(pts, 0.0)).max())
                for c, c_bar in zip(spec.fields, spec_bar.fields))
            for t in ladder]
    assert res.metrics["data_gaps"] == gaps
    calls = []
    real = CoefficientField.__call__
    monkeypatch.setattr(CoefficientField, "__call__",
                        lambda self, *a: calls.append(self) or real(self, *a))

    def gate_only(*args):
        raise RuntimeError("past the gate")

    monkeypatch.setattr(harness, "init_state", gate_only)
    with pytest.raises(RuntimeError, match="past the gate"):
        large_time_experiment(spec, spec_bar, dom1, k05, 0.0, 0.0, ladder,
                              SchemeConfig(h=2.0 ** -5), r_max=4.0)
    # (H2')'s margin, checked first, reads lam once more
    assert [calls.count(c) for c in spec.fields] == [1, 1, 2, len(ladder)]


def test_large_time_time_independent_reduces(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f="0.4*cos(2*x)")
    res = large_time_experiment(spec, spec, dom1, k05, 0.0, 0.0,
                                [0.5, 1.0, 2.0], SchemeConfig(h=2.0 ** -5),
                                u0=1.0, r_max=4.0)
    assert res.passed


def test_large_time_refuses_oscillation(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=0.0)
    with pytest.raises(PreconditionError):
        large_time_experiment(spec, spec, dom1, k05, "sin(t)", 0.0,
                              [1.0, 2.0, 4.0], SchemeConfig(h=2.0 ** -5),
                              u0=0.0, r_max=4.0)


@pytest.mark.parametrize("case", ["bellman-drift", "coercive-a1"])
def test_large_time_refuses_coefficients_that_do_not_converge(dom1, k05,
                                                              case):
    # every coefficient must converge along the ladder, not only f and lam:
    # a drift or an a1 that oscillates in t against a limit without it
    if case == "bellman-drift":
        spec = BellmanSpec([ControlLaw(lam=1.0, b="0.5*x*sin(3*t)", f=0.0)])
        limit = BellmanSpec([ControlLaw(lam=1.0, f=0.0)])
    else:
        spec = CoerciveSpec(m=1.0, a1="1 + 0.5*sin(3*t)", lam=1.0, f=0.0)
        limit = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=0.0)
    with pytest.raises(PreconditionError, match="do not converge"):
        large_time_experiment(spec, limit, dom1, k05, 0.0, 0.0,
                              [1.0, 2.0, 4.0], SchemeConfig(h=2.0 ** -5),
                              r_max=4.0)


@pytest.mark.parametrize("spec, limit", [
    (CoerciveSpec(m=1.0, lam=1.0), BellmanSpec([ControlLaw(lam=1.0)])),
    (CoerciveSpec(m=2.0, lam=1.0), CoerciveSpec(m=1.5, lam=1.0)),
    (CoerciveSpec(m=2.0, l=1.0, lam=1.0), CoerciveSpec(m=2.0, lam=1.0)),
    (CoerciveSpec(m=2.0, lam=1.0, b="0.1*x"), CoerciveSpec(m=2.0, lam=1.0)),
    (BellmanSpec([ControlLaw(lam=1.0), ControlLaw(lam=1.0, b=0.5)]),
     BellmanSpec([ControlLaw(lam=1.0)])),
], ids=["family", "m", "l", "drift", "controls"])
def test_large_time_refuses_a_limit_of_another_form(dom1, k05, spec, limit):
    with pytest.raises(PreconditionError, match="limit Hamiltonian differs"):
        large_time_experiment(spec, limit, dom1, k05, 0.0, 0.0, [1.0, 2.0],
                              SchemeConfig(h=2.0 ** -5), r_max=4.0)


def test_large_time_requires_h2prime(dom1, k05):
    # lam = -20 outweighs the exterior mass: mu0 < 0, as rate refuses it
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=-20.0, f=0.0)
    with pytest.raises(PreconditionError, match="H2'"):
        large_time_experiment(spec, spec, dom1, k05, 0.0, 0.0, [1.0, 2.0],
                              SchemeConfig(h=2.0 ** -5), u0=0.0, r_max=4.0)


@pytest.mark.parametrize("ladder", [[2.0, 2.0], [4.0, 2.0, 1.0]])
def test_large_time_refuses_a_ladder_that_does_not_increase(dom1, k05,
                                                            ladder):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=0.0)
    with pytest.raises(ValueError, match="increase strictly"):
        large_time_experiment(spec, spec, dom1, k05, 0.0, 0.0, ladder,
                              SchemeConfig(h=2.0 ** -5), r_max=4.0)


def test_time_dependence_covers_every_coercive_coefficient(dom1, k05):
    # a t-dependent lam with a constant f is a t-dependent Hamiltonian: the
    # steady solve and the rate experiment refuse it
    assert CoerciveSpec(m=2, a1="1+exp(-t)", lam="0.5+0.5*exp(-t)",
                        b="exp(-t)*x").time_dependent
    for key in ("a1", "a2", "lam", "b", "f"):
        assert CoerciveSpec(m=2.0, l=1.0, **{key: "1 + t"}).time_dependent
    assert not CoerciveSpec(m=2.0, a1="1 + x^2", b="x").time_dependent
    spec = CoerciveSpec(m=1.0, a1=1.0, lam="0.5 + 0.5*exp(-t)", f=0.0)
    cfg = SchemeConfig(h=2.0 ** -5)
    plan = discretize(dom1, k05, cfg.h, 4.0)
    st = init_state(plan, spec, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        run_to_steady(st, cfg)
    with pytest.raises(PreconditionError):
        rate_experiment(spec, dom1, k05, 0.0, 0.0, 0.0, T=1.0, cfg=cfg,
                        r_max=4.0)


def test_trace_face_map_reads_faces_off_the_index_box(dom1, dom2):
    # a face holds the trace nodes lying on it; corners belong to both of
    # the faces they join, and every trace node to some face
    for dom, h, corners in ((dom1, 0.25, 0), (dom2, 0.5, 4)):
        grid = Grid(dom, h, halo=1)
        faces = trace_face_map(grid, dom)
        pts = grid.trace_points
        for f, name in enumerate(dom.face_names()):
            side = (dom.lower, dom.upper)[f % 2][f // 2]
            assert faces[name].tolist() == \
                np.flatnonzero(pts[:, f // 2] == side).tolist()
        held = np.concatenate(list(faces.values()))
        assert sorted(set(held.tolist())) == list(range(len(pts)))
        assert len(held) == len(pts) + corners
