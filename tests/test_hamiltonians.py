import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlhj.errors import ViscosityUnderflow
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import (BellmanSpec, Coefficients, CoerciveSpec,
                               ControlLaw, check_compatibility, check_H1,
                               check_H2, check_H2prime, check_superfractional,
                               check_UE, eval_hamiltonian, lf_viscosity_bound,
                               numerical_hamiltonian,
                               numerical_hamiltonian_many, properness_floor)
from nlhj.kernels import (build_quadrature, fractional_laplacian_kernel,
                          zero_kernel)
from nlhj.operators import SweepPlan

from conftest import grid_for


def core_pts(dom, h=2.0 ** -6):
    g = Grid(dom, h, halo=1)
    return g.points_at(g.core_flat)


def test_eval_coercive_power():
    spec = CoerciveSpec(m=2.0, a1=1.0)
    assert eval_hamiltonian(spec, 0.0, 0.0, 0.0, 3.0) == pytest.approx(9.0)


def test_eval_bellman_single_control():
    spec = BellmanSpec([ControlLaw(lam=1.0, b=2.0, f=0.0)])
    assert eval_hamiltonian(spec, 0.0, 0.0, 5.0, 1.0) == pytest.approx(3.0)


def test_eval_bellman_max_over_controls():
    # values 3 and 7 at the same point: the sup picks 7
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=-3.0),
                        ControlLaw(lam=0.0, b=0.0, f=-7.0)])
    assert eval_hamiltonian(spec, 0.0, 0.0, 0.0, 0.0) == pytest.approx(7.0)


def test_numerical_consistency_at_equal_gradients():
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=0.5, f=0.25)
    for p in (-1.5, 0.0, 2.0):
        assert numerical_hamiltonian(spec, 0.1, 0.0, 2.0, p, p, sigma=[10.0]) \
            == pytest.approx(eval_hamiltonian(spec, 0.1, 0.0, 2.0, p))
    bspec = BellmanSpec([ControlLaw(lam=1.0, b=-0.7, f=0.2)])
    for p in (-1.5, 0.0, 2.0):
        assert numerical_hamiltonian(bspec, 0.1, 0.0, 2.0, p, p) \
            == pytest.approx(eval_hamiltonian(bspec, 0.1, 0.0, 2.0, p))


def test_upwind_selection_follows_drift_sign():
    # -b.p advects from the +b side: b > 0 reads the forward difference.
    # (A backward read would break the monotone-flux property below.)
    spec = BellmanSpec([ControlLaw(lam=1.0, b=2.0, f=0.0)])
    v = numerical_hamiltonian(spec, 0.0, 0.0, 5.0, 1.0, 100.0)
    assert v == pytest.approx(5.0 - 2.0 * 100.0)
    spec_neg = BellmanSpec([ControlLaw(lam=1.0, b=-2.0, f=0.0)])
    v = numerical_hamiltonian(spec_neg, 0.0, 0.0, 5.0, 1.0, 100.0)
    assert v == pytest.approx(5.0 + 2.0 * 1.0)


def test_lax_friedrichs_template():
    # independent hand computation: H((p-+p+)/2) - sigma (p+-p-)/2
    spec = CoerciveSpec(m=2.0, a1=1.0)
    v = numerical_hamiltonian(spec, 0.0, 0.0, 0.0, -1.0, 1.0, sigma=[4.0])
    assert v == pytest.approx(0.0 - 4.0 * 1.0)


def test_viscosity_underflow_raises():
    spec = CoerciveSpec(m=2.0, a1=1.0)
    with pytest.raises(ViscosityUnderflow):
        numerical_hamiltonian(spec, 0.0, 0.0, 0.0, 10.0, 10.0, sigma=[1.0])


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 2.0))
def test_monotone_flux_coercive(pm, pp, eps):
    spec = CoerciveSpec(m=2.0, a1=1.0, lam=0.3)
    sigma = [2.0 * 8.0 + 1.0]  # dominates |dH/dp| for |p| <= 8
    base = numerical_hamiltonian(spec, 0.0, 0.0, 1.0, pm, pp, sigma=sigma)
    up = numerical_hamiltonian(spec, 0.0, 0.0, 1.0, pm, pp + eps, sigma=sigma)
    dn = numerical_hamiltonian(spec, 0.0, 0.0, 1.0, pm + eps, pp, sigma=sigma)
    assert up <= base + 1e-12   # nonincreasing in p+
    assert dn >= base - 1e-12   # nondecreasing in p-


def test_monotone_flux_for_negative_a1(dom1):
    # the viscosity bounds |dH/dp| = m |a1| |p|^(m-1) whatever the sign of a1
    spec = CoerciveSpec(m=2.0, a1="-1 - x^2")
    pts = core_pts(dom1, 2.0 ** -3)
    c = Coefficients(spec, pts)
    sigma = 1.0 + lf_viscosity_bound(c, 1.0)
    r = np.zeros(len(pts))

    def flux(pm, pp):
        return numerical_hamiltonian_many(c, r, np.full((len(pts), 1), pm),
                                          np.full((len(pts), 1), pp), sigma)

    ps = np.linspace(-1.0, 0.9, 20)
    for pm in ps:
        for pp in ps:
            base = flux(pm, pp)
            assert np.all(flux(pm, pp + 0.1) <= base + 1e-12)   # in p+
            assert np.all(flux(pm + 0.1, pp) >= base - 1e-12)   # in p-


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 2.0))
def test_monotone_flux_bellman(pm, pp, eps):
    spec = BellmanSpec([ControlLaw(lam=0.5, b=1.3, f=0.0),
                        ControlLaw(lam=0.2, b=-0.8, f=0.1)])
    base = numerical_hamiltonian(spec, 0.0, 0.0, 1.0, pm, pp)
    up = numerical_hamiltonian(spec, 0.0, 0.0, 1.0, pm, pp + eps)
    dn = numerical_hamiltonian(spec, 0.0, 0.0, 1.0, pm + eps, pp)
    assert up <= base + 1e-12
    assert dn >= base - 1e-12


def test_h1_coercive_exact(dom1):
    spec = CoerciveSpec(m=2.0, a1=1.0, lam="1 + 0.5*x")
    cert = check_H1(spec, core_pts(dom1))
    assert cert.passed and cert.details["exact"]
    # H(u) - H(v) = lam (u - v) identically for the built-in family
    hu = eval_hamiltonian(spec, 0.5, 0.0, 2.0, 1.0)
    hv = eval_hamiltonian(spec, 0.5, 0.0, -1.0, 1.0)
    assert hu - hv == pytest.approx(1.25 * 3.0)


def test_h1_bellman_sampled(dom1):
    spec = BellmanSpec([ControlLaw(lam="1 + 0.25*x", b="x", f=0.0),
                        ControlLaw(lam=2.0, b="-x", f="sin(x)")])
    cert = check_H1(spec, core_pts(dom1))
    assert cert.passed
    assert not cert.details["exact"]


def test_properness_floor_bellman(dom1):
    spec = BellmanSpec([ControlLaw(lam="2 + t", b=0.0, f=0.0),
                        ControlLaw(lam=3.0, b=0.0, f=0.0)])
    floor = properness_floor(spec, core_pts(dom1))
    assert np.all(floor == 2.0)  # min over controls and sampled times


def test_check_h2(dom1, k05):
    h = 2.0 ** -7
    g = grid_for(dom1, h, 8.0)
    plan = SweepPlan(g, build_quadrature(k05, h, 8.0))
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.0)
    cert = check_H2(spec, plan)
    assert cert.passed
    assert cert.value == pytest.approx(4.0, rel=2e-2)
    cert2 = check_H2(CoerciveSpec(m=1.0, a1=1.0, lam=-10.0), plan)
    assert not cert2.passed
    assert cert2.value == pytest.approx(-6.0, abs=0.1)
    kz = zero_kernel(0.5, 1)
    cert3 = check_H2(spec, SweepPlan(g, build_quadrature(kz, h, 8.0)))
    assert cert3.passed and cert3.value == 0.0


def test_check_h2prime(dom1, k05):
    h = 2.0 ** -7
    g = grid_for(dom1, h, 8.0)
    qt = build_quadrature(k05, h, 8.0)
    plan = SweepPlan(g, qt)
    spec = CoerciveSpec(m=1.0, a1=1.0, lam=0.0)
    cert = check_H2prime(spec, plan)
    assert cert.passed
    assert cert.value == pytest.approx(4.0, rel=2e-2)
    kz = zero_kernel(0.5, 1)
    spec1 = CoerciveSpec(m=1.0, a1=1.0, lam=1.0)
    cert2 = check_H2prime(spec1, SweepPlan(g, build_quadrature(kz, h, 8.0)))
    assert cert2.passed and cert2.value == pytest.approx(1.0)
    # an adversarial floor lam cancels the mass exactly
    from nlhj.kernels import exterior_mass_many
    adv = lambda p, t: -exterior_mass_many(k05, dom1, p, qt)
    cert3 = check_H2prime(CoerciveSpec(m=1.0, a1=1.0, lam=adv), plan)
    assert not cert3.passed
    assert cert3.value == pytest.approx(0.0, abs=1e-12)


def test_check_superfractional(dom1, k05):
    pts = core_pts(dom1)
    cert = check_superfractional(CoerciveSpec(m=1.0, a1=1.0), k05, pts)
    assert cert.passed and cert.value == pytest.approx(0.5)
    cert2 = check_superfractional(CoerciveSpec(m=0.4, a1=1.0), k05, pts)
    assert not cert2.passed
    cert3 = check_superfractional(CoerciveSpec(m=0.5, a1=1.0), k05, pts)
    assert not cert3.passed  # strict inequality


def test_check_compatibility(dom1):
    g = Grid(dom1, 0.25, halo=2)
    x = g.core_points[:, 0]
    phi0 = np.zeros(len(g.trace_flat))
    assert check_compatibility(g, 1 - x ** 2, phi0).passed
    cert = check_compatibility(g, np.ones(len(x)), phi0)
    assert not cert.passed and cert.value == pytest.approx(1.0)
    assert check_compatibility(g, np.full(len(x), 1e-15), phi0).passed
    # a non-finite value fails, inside the domain or in the datum
    assert not check_compatibility(g, np.where(x == 0.0, np.inf, 1 - x ** 2),
                                   phi0).passed
    assert not check_compatibility(g, 1 - x ** 2, phi0 + np.nan).passed


def test_check_ue(k05):
    assert check_UE(k05).passed
    assert not check_UE(zero_kernel(0.5, 1)).passed
    from nlhj.kernels import indicator_kernel
    assert check_UE(indicator_kernel(0.5, 1, 0.3)).passed


def test_spec_invariants(dom1):
    with pytest.raises(ValueError):
        CoerciveSpec(m=1.0, l=1.0)        # l < m required
    with pytest.raises(ValueError):
        CoerciveSpec(m=1.0, b=1.0)        # drift needs m > 1
    with pytest.raises(ValueError):
        BellmanSpec([])                   # nonempty control set
    spec = CoerciveSpec(m=2.0, a1="0.5 + x^2", lam="-1")
    assert not check_H1(spec, core_pts(dom1)).passed
    good = CoerciveSpec(m=2.0, a1="0.5 + x^2", lam=0.0)
    assert check_H1(good, core_pts(dom1)).passed


def test_bellman_lipschitz_certificate(dom1):
    spec = BellmanSpec([ControlLaw(lam=0.0, b="x", f=0.0)], lipschitz=1.0)
    assert spec.check_lipschitz(dom1).passed
    tight = BellmanSpec([ControlLaw(lam=0.0, b="2*x", f=0.0)], lipschitz=1.0)
    assert not tight.check_lipschitz(dom1).passed
