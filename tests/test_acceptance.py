"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Tolerances are pinned
here; the stated runtime budgets are asserted as upper bounds.
"""

import json
import time

import numpy as np
import pytest

from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import (BellmanSpec, CoerciveSpec, ControlLaw,
                               check_H2prime)
from nlhj.kernels import (build_quadrature,
                          fractional_laplacian_kernel, zero_kernel)
from nlhj.operators import SweepPlan, envelope
from nlhj.oracles import exterior_mass_closed_form, operator_oracle_1d
from nlhj.harness import (boundary_refinement, coercive_loss_experiment,
                          comparison_experiment, discretize,
                          random_ordered_pair, rate_experiment)
from nlhj.solver import SchemeConfig, init_state, run_to_steady

DOM = Domain((-1,), (1,))
# criterion 5's inflow trace gap, pinned from the first verified refinement
# study; criterion 4's lost-regime case reads it too
LOSS_THRESHOLD = 0.8


def verdict(num, name, passed, detail):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if passed else 'FAIL'} ({detail})"
    print("\n" + line)
    return line


def core_index_at_origin(plan):
    """The position of the node x = 0 among the plan's core nodes."""
    return int(np.flatnonzero(plan.grid.core_points[:, 0] == 0.0)[0])


def test_criterion_1_operator_consistency():
    # the solver's sweep on max(0, 1 - x^2), with the datum 0 outside
    t0 = time.monotonic()
    fn = lambda x: max(0.0, 1.0 - x * x)
    hs = [2.0 ** -7, 2.0 ** -8, 2.0 ** -9, 2.0 ** -10]
    ok = True
    details = []
    for alpha in (0.5, 1.5):
        k = fractional_laplacian_kernel(alpha, 1)
        ref = operator_oracle_1d(fn, 0.0, k, points=[-1.0, 1.0], grad=0.0)
        errs = []
        for h in hs:
            plan = discretize(DOM, k, h, 8.0)
            g = plan.grid
            u = np.maximum(0.0, 1 - g.core_points[:, 0] ** 2)
            swept = plan.apply(envelope(g, u, 0.0), u,
                               plan.exterior_load(np.zeros(1)))
            v = swept[core_index_at_origin(plan)]
            errs.append(abs(v - ref) / abs(ref))
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        ok &= errs[-1] <= 1e-2 and order >= 1.0
        details.append(f"alpha={alpha}: rel_err(2^-10)={errs[-1]:.2e}, "
                       f"order={order:.2f}")
    dt = time.monotonic() - t0
    verdict(1, "operator consistency", ok, "; ".join(details) + f"; {dt:.1f}s")
    assert ok
    assert dt < 10.0


def test_criterion_2_exterior_mass_closed_form():
    t0 = time.monotonic()
    # the exterior mass the solver's plan holds for the (H2) certificates
    plan = discretize(DOM, fractional_laplacian_kernel(0.5, 1), 2.0 ** -8, 8.0)
    v = plan.exterior_mass[core_index_at_origin(plan)]
    exact = exterior_mass_closed_form(0.5, DOM, 0.0)
    rel = abs(v - exact) / exact
    dt = time.monotonic() - t0
    ok = rel <= 5e-3 and exact == 4.0
    verdict(2, "exterior mass closed form", ok,
            f"value={v:.5f} vs 4, rel={rel:.2e}; {dt:.2f}s")
    assert ok
    assert dt < 1.0


def test_criterion_3_discrete_comparison():
    t0 = time.monotonic()
    h = 2.0 ** -7
    k = fractional_laplacian_kernel(0.5, 1)
    cfg = SchemeConfig(h=h, theta=0.9)
    coercive = CoerciveSpec(m=1.0, a1=1.0, lam=0.5, f="0.2*cos(3*x)")
    bellman = BellmanSpec([ControlLaw(lam=0.5, b="-x", f="0.1*sin(2*x)"),
                           ControlLaw(lam=0.3, b="0.5*x", f=0.0)])
    worst = 0.0
    for spec in (coercive, bellman):
        for seed in range(20):
            u0, v0, pa, pb = random_ordered_pair(seed, DOM)
            res = comparison_experiment(spec, DOM, k, (u0, v0), (pa, pb),
                                        T=1.0, cfg=cfg, r_max=4.0)
            worst = max(worst, res.metrics["max_violation"])
    dt = time.monotonic() - t0
    ok = worst <= 1e-12
    verdict(3, "discrete comparison (2x20 seeds)", ok,
            f"max violation={worst:.2e}; {dt:.0f}s")
    assert ok
    assert dt < 120.0


def test_criterion_4_exponential_rate():
    t0 = time.monotonic()
    h = 2.0 ** -7
    # degenerate closed-form case: K = 0, lam = 1, u0 = 1, phi = 0; the CFL
    # denominator is lam = 1, so each full step is theta
    spec0 = BellmanSpec([ControlLaw(lam=1.0, b=0.0, f=0.0)])
    dt_step = 0.005
    cfg0 = SchemeConfig(h=h, theta=dt_step, snapshot_dt=0.25)
    res0 = rate_experiment(spec0, DOM, zero_kernel(0.5, 1), 0.0, 0.0, 1.0,
                           T=5.0, cfg=cfg0, r_max=2.0)
    rows = res0.tables["rate_curve"][1]
    dev = np.array([r[1] for r in rows])
    bound = np.array([r[2] for r in rows])
    eq_gap = np.abs(dev - bound).max()
    ok0 = res0.passed and eq_gap <= dt_step and res0.metrics["mu0"] == 1.0

    # nonlocal case: K = 1, alpha = 0.5, zero-order term absent; the decay
    # margin mu0 comes entirely from the exterior kernel mass
    spec1 = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    k = fractional_laplacian_kernel(0.5, 1)
    cfg1 = SchemeConfig(h=h, snapshot_dt=0.1)
    res1 = rate_experiment(spec1, DOM, k, 0.0, 0.0,
                           lambda p: 1.0 - p[:, 0] ** 2, T=5.0, cfg=cfg1)
    mu0 = res1.metrics["mu0"]
    fitted = res1.metrics["fitted_exponent"]
    # the slack of the rate bound is the constant harness.EPS_RATE
    ok1 = res1.passed and res1.metrics["first_violation_t"] is None \
        and fitted >= 0.8 * mu0 and res1.metrics["eps_rate"] == 0.05

    # lost regime, criterion 5's inflow data at h = 2^-6: the steady trace
    # gap stays above the loss threshold, and the rate holds
    spec2 = BellmanSpec([ControlLaw(lam=1.0, b="-x", f=0.0)])
    cfg2 = SchemeConfig(h=2.0 ** -6, snapshot_dt=0.1)
    res2 = rate_experiment(spec2, DOM, k, 10.0, 10.0, 0.0, T=5.0, cfg=cfg2,
                           r_max=4.0)
    mu0_lost = res2.metrics["mu0"]
    fitted_lost = res2.metrics["fitted_exponent"]
    plan = discretize(DOM, k, cfg2.h, 4.0)
    st_inf, _ = run_to_steady(init_state(plan, spec2, 10.0, 0.0), cfg2)
    gap = float((10.0 - st_inf.u[plan.grid.trace_pos]).min())
    ok2 = res2.passed and res2.metrics["first_violation_t"] is None \
        and fitted_lost >= 0.8 * mu0_lost and gap > LOSS_THRESHOLD
    dt = time.monotonic() - t0
    ok = ok0 and ok1 and ok2
    verdict(4, "exponential rate", ok,
            f"degenerate |dev-bound|max={eq_gap:.2e} <= dt={dt_step}; "
            f"nonlocal mu0={mu0:.3f}, fitted={fitted:.3f}; lost "
            f"mu0={mu0_lost:.3f}, fitted={fitted_lost:.3f}, steady trace "
            f"gap={gap:.3f}; {dt:.0f}s")
    assert ok0
    assert ok1
    assert ok2
    assert dt < 300.0


def test_criterion_5_boundary_attainment_vs_loss():
    t0 = time.monotonic()
    k = fractional_laplacian_kernel(0.5, 1)
    hs = [2.0 ** -6, 2.0 ** -7, 2.0 ** -8]
    # outflow: gaps halve under refinement
    spec_out = BellmanSpec([ControlLaw(lam=1.0, b="x", f=0.0)])
    ratios_out = boundary_refinement(
        spec_out, DOM, k, 1.0, 1.0, T=3.0, h_list=hs,
        r_max=4.0).metrics["ratios"]
    ok_out = all(0.0 < r < 0.7 for f in ("left", "right")
                 for r in ratios_out[f])
    # inflow: gap persists above the pinned loss threshold
    spec_in = BellmanSpec([ControlLaw(lam=1.0, b="-x", f=0.0)])
    gaps_in = boundary_refinement(
        spec_in, DOM, k, 10.0, 10.0, T=3.0, h_list=hs,
        r_max=4.0).metrics["gaps"]
    ok_in = True
    for f in ("left", "right"):
        seq = gaps_in[f]
        ok_in &= min(seq) > LOSS_THRESHOLD
        ok_in &= all(abs(b - a) / abs(a) < 0.10 for a, b in zip(seq, seq[1:]))
    dt = time.monotonic() - t0
    ok = ok_out and ok_in
    verdict(5, "boundary attainment vs loss", ok,
            f"out ratios={ [round(r,3) for r in ratios_out['right']] }; "
            f"in gaps={ [round(g,3) for g in gaps_in['right']] } "
            f"(threshold {LOSS_THRESHOLD}); {dt:.0f}s")
    assert ok_out
    assert ok_in
    assert dt < 300.0


def test_criterion_6_superfractional_regularity():
    t0 = time.monotonic()
    k = fractional_laplacian_kernel(0.5, 1)
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=1.0, f=0.0)
    cfg = SchemeConfig(h=2.0 ** -5, steady_tol=1e-4)
    res = coercive_loss_experiment(spec, DOM, k, [1.0, 10.0, 100.0], cfg,
                                   r_max=4.0)
    ratio = res.metrics["ratios"][-1]
    dt = time.monotonic() - t0
    ok = res.passed and ratio < 9.0
    verdict(6, "superfractional Holder response", ok,
            f"Q={[round(q, 3) for q in res.metrics['quotients']]}, "
            f"Q(100)/Q(10)={ratio:.2f} < 9; {dt:.0f}s")
    assert ok
    assert dt < 300.0


def test_criterion_7_uniqueness():
    t0 = time.monotonic()
    h = 2.0 ** -6
    k = fractional_laplacian_kernel(0.5, 1)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=1.0, f=1.0)
    qt = build_quadrature(k, h, 8.0)
    grid = Grid(DOM, h, halo=int(round(8.0 / h)))
    plan = SweepPlan(grid, qt)
    mu0 = check_H2prime(spec, plan).value
    cfg = SchemeConfig(h=h)
    runs = []
    for u0 in (0.0, lambda p: 2.0 * np.cos(p[:, 0])):
        st = init_state(plan, spec, 0.0, u0)
        st, rep = run_to_steady(st, cfg)
        runs.append((st.u.copy(), rep.steady_tol))
    diff = float(np.abs(runs[0][0] - runs[1][0]).max())
    allowed = 2.0 * max(runs[0][1], runs[1][1]) / mu0
    dt = time.monotonic() - t0
    ok = diff <= allowed
    verdict(7, "steady-state uniqueness", ok,
            f"|u_a - u_b|={diff:.2e} <= 2 eps_ss / mu0 = {allowed:.2e}; {dt:.0f}s")
    assert ok
    assert dt < 120.0


REPRO_CFG = """
[domain]
dimension = 1
lower = -1
upper = 1
[kernel]
type = fractional_laplacian
alpha = 0.5
[hamiltonian]
family = coercive
m = 1.0
a1 = 1
lam = 1
f = 0.2*cos(3*x)
[data]
u0 = 1 - x^2
phi = 0
phi_limit = 0
[scheme]
h = 0.015625
theta = 0.9
T = 1.0
{snapshots}
[experiment]
name = {name}
{extra}
[output]
directory = {out}
"""


def test_criterion_8_reproducibility(tmp_path):
    from nlhj.config import execute, parse_config
    t0 = time.monotonic()
    # comparison takes no snapshots, and refuses snapshot_dt
    specs = [("comparison", "seeds = 3", "report.tsv"),
             ("rate", "", "rate_curve.tsv"),
             ("run", "", "report.tsv")]
    all_equal = True
    for name, extra, table in specs:
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}_{tag}"
            p = tmp_path / f"{name}_{tag}.cfg"
            snapshots = "" if name == "comparison" else "snapshot_dt = 0.25"
            p.write_text(REPRO_CFG.format(name=name, extra=extra, out=out,
                                          snapshots=snapshots))
            cfg = parse_config(p)
            assert execute(cfg) == 0
            outputs.append((out / table).read_bytes())
            if name == "run":
                outputs[-1] += (out / "field_t0002.tsv").read_bytes()
                outputs[-1] += (out / "trace_gaps.tsv").read_bytes()
        all_equal &= outputs[0] == outputs[1]
    dt = time.monotonic() - t0
    verdict(8, "bit-identical report tables", all_equal, f"{dt:.0f}s")
    assert all_equal
