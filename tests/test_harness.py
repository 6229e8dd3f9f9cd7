import weakref

import numpy as np
import pytest

from nlhj import harness
from nlhj.errors import PreconditionError
from nlhj.geometry import Domain
from nlhj.hamiltonians import BellmanSpec, CoerciveSpec, ControlLaw
from nlhj.kernels import fractional_laplacian_kernel, zero_kernel
from nlhj.harness import (boundary_behavior_experiment, boundary_refinement,
                          coercive_loss_experiment, comparison_experiment,
                          discretize, holder_quotient, large_time_experiment,
                          make_rate_bound, random_ordered_pair,
                          rate_experiment)
from nlhj.oracles import rate_bound_trapezoid
from nlhj.solver import SchemeConfig, init_state, run_to_steady


def test_discretize_shared_while_referenced(dom1, k05, monkeypatch):
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
    released = weakref.ref(plan)
    del plan
    assert released() is None
    assert discretize(dom1, k05, h, 4.0).grid.h == h
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
    with pytest.raises(PreconditionError):
        comparison_experiment(spec, dom1, k05, (u0, v0), (0.0, 0.0),
                              T=0.1, cfg=SchemeConfig(h=2.0 ** -5), r_max=4.0)


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


def test_rate_degenerate_closed_form(dom1):
    # K = 0, single zero-drift control with lam = 1: u(t) = e^{-t} u0 exactly
    spec = BellmanSpec([ControlLaw(lam=1.0, b=0.0, f=0.0)])
    k = zero_kernel(0.5, 1)
    dt = 0.004
    cfg = SchemeConfig(h=2.0 ** -5, dt=dt, snapshot_dt=0.25)
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
    rb = res.rate_bound
    exact_G = 2.0 - np.exp(-mu0_probe * rb.times)
    assert np.abs(rb.G - exact_G).max() < 0.01  # trapezoid on snapshots
    # independent trapezoid oracle reproduces the bound
    oracle = rate_bound_trapezoid(rb.times, rb.g, rb.mu0, rb.dev0)
    assert np.allclose(oracle, rb.bound, rtol=1e-12)


def test_rate_bound_invariants():
    times = np.linspace(0, 4, 21)
    g = np.exp(-times) + 0.1 * (times < 1)
    rb = make_rate_bound(times, g, mu0=2.0, dev0=1.0)
    assert rb.check_internal()
    assert np.all(np.diff(rb.g) <= 1e-15)          # g nonincreasing
    assert np.all(rb.bound >= rb.g - 1e-12)        # bound dominates g


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
    with pytest.raises(PreconditionError):
        boundary_behavior_experiment(spec, dom1, k15, 0.0, 0.0, 1.0,
                                     SchemeConfig(h=2.0 ** -5))


def test_boundary_outflow_gap_decays(dom1, k05):
    # b(x) = x drifts outward on both faces: the datum (here 1, above the
    # interior equilibrium) is attained under refinement
    spec = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    gaps, ratios = boundary_refinement(spec, dom1, k05, 1.0, 1.0, T=2.0,
                                       h_list=[2.0 ** -4, 2.0 ** -5],
                                       r_max=4.0)
    for face in ("left", "right"):
        assert gaps[face][0] > 0.0
        assert 0.0 < ratios[face][0] < 0.7


def test_boundary_inflow_gap_persists(dom1, k05):
    # b(x) = -x drifts inward everywhere; large datum is not attained.
    # Loss threshold 0.8 pinned from the first verified refinement study.
    spec = BellmanSpec([ControlLaw(lam=1.0, b="-x", f=0.0)])
    gaps, ratios = boundary_refinement(spec, dom1, k05, 10.0, 10.0, T=2.0,
                                       h_list=[2.0 ** -4, 2.0 ** -5],
                                       r_max=4.0)
    for face in ("left", "right"):
        assert min(gaps[face]) > 0.8
        rel = abs(gaps[face][1] - gaps[face][0]) / abs(gaps[face][0])
        assert rel < 0.1                        # stable under refinement


def test_boundary_report_tags(dom1, k05):
    spec = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    res = boundary_behavior_experiment(
        spec, dom1, k05, 0.0, lambda p: 0.5 * (1 - p[:, 0] ** 2), 0.5,
        SchemeConfig(h=2.0 ** -5), r_max=4.0)
    assert res.metrics["tags"] == {"left": "out", "right": "out"}
    assert set(res.metrics["per_face"]) == {"left", "right"}
    assert res.passed  # no subsolution violation


def test_holder_quotient_zero_field(dom1, k05):
    from conftest import grid_for
    g = grid_for(dom1, 2.0 ** -5, 1.0)
    q = holder_quotient(g, np.zeros(len(g.core_flat)), 0.75)
    assert q == 0.0


@pytest.mark.parametrize("lower, upper, h", [
    ((-1.0,), (1.0,), 2.0 ** -5), ((-0.3,), (0.7,), 0.05),
    ((-1.0, -0.5), (1.0, 0.5), 0.1), ((0.1, -1.0), (0.6, 1.3), 0.05)])
@pytest.mark.parametrize("max_sep", [0.01, 0.13, 0.25, 5.0])
def test_holder_quotient_matches_all_pairs(lower, upper, h, max_sep):
    # bit-identical to the all-pairs form it replaced
    from nlhj.geometry import Grid
    g = Grid(Domain(lower, upper), h, halo=1)
    u = np.random.default_rng(5).standard_normal(len(g.core_flat))
    pts = g.points_at(g.core_flat)
    diff = np.abs(u[:, None] - u[None, :])
    d = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    mask = (d > 1e-12) & (d <= max_sep)
    ref = float((diff[mask] / d[mask] ** 0.75).max()) if mask.any() else 0.0
    assert holder_quotient(g, u, 0.75, max_sep) == ref


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
                                eps_conv=0.05, u0=0.0, r_max=4.0)
    assert res.passed
    devs = res.metrics["deviations"]
    assert devs[-1] < devs[0]


def test_large_time_time_independent_reduces(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f="0.4*cos(2*x)")
    res = large_time_experiment(spec, spec, dom1, k05, 0.0, 0.0,
                                [0.5, 1.0, 2.0], SchemeConfig(h=2.0 ** -5),
                                eps_conv=0.05, u0=1.0, r_max=4.0)
    assert res.passed


def test_large_time_refuses_oscillation(dom1, k05):
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=0.0)
    with pytest.raises(PreconditionError):
        large_time_experiment(spec, spec, dom1, k05, "sin(t)", 0.0,
                              [1.0, 2.0, 4.0], SchemeConfig(h=2.0 ** -5),
                              u0=0.0, r_max=4.0)


def test_large_time_requires_h2prime(dom1, k05):
    # lam = -20 outweighs the exterior mass: mu0 < 0, as rate refuses it
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=-20.0, f=0.0)
    with pytest.raises(PreconditionError, match="H2'"):
        large_time_experiment(spec, spec, dom1, k05, 0.0, 0.0, [1.0, 2.0],
                              SchemeConfig(h=2.0 ** -5), u0=0.0, r_max=4.0)


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
    st = init_state(plan, spec, 0.0, 0.0, cfg)
    with pytest.raises(ValueError):
        run_to_steady(st, cfg)
    with pytest.raises(PreconditionError):
        rate_experiment(spec, dom1, k05, 0.0, 0.0, 0.0, T=1.0, cfg=cfg,
                        r_max=4.0)
