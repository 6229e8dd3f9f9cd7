import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlhj.errors import ViscosityUnderflow
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import (BellmanSpec, Coefficients, CoerciveSpec,
                               ControlLaw, check_compatibility, check_H1,
                               check_H2, check_H2prime, check_superfractional,
                               check_UE, eval_vector, hamiltonian_values,
                               lf_viscosity_bound, numerical_hamiltonian_many,
                               properness_floor)
from nlhj.kernels import (build_quadrature, fractional_laplacian_kernel,
                          zero_kernel)
from nlhj.operators import SweepPlan

from conftest import grid_for


def core_pts(dom, h=2.0 ** -6):
    g = Grid(dom, h, halo=1)
    return g.points_at(g.core_flat)


ORIGIN = np.zeros((1, 1))


def test_eval_coercive_power():
    c = Coefficients(CoerciveSpec(m=2.0, a1=1.0), ORIGIN)
    assert hamiltonian_values(c, 0.0, [[3.0]]) == pytest.approx([9.0])


def test_eval_bellman_single_control():
    c = Coefficients(BellmanSpec([ControlLaw(lam=1.0, b=2.0, f=0.0)]), ORIGIN)
    assert hamiltonian_values(c, 5.0, [[1.0]]) == pytest.approx([3.0])


def test_eval_bellman_max_over_controls():
    # values 3 and 7 at the same point: the sup picks 7
    spec = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=-3.0),
                        ControlLaw(lam=0.0, b=0.0, f=-7.0)])
    c = Coefficients(spec, ORIGIN)
    assert hamiltonian_values(c, 0.0, [[0.0]]) == pytest.approx([7.0])


def test_numerical_consistency_at_equal_gradients():
    # the second spec reads the reference's a2 |p|^l and b.p terms too:
    # at x = 0.1, a2 = 0.51 and b = 0.03; one row per gradient
    specs = [CoerciveSpec(m=2.0, a1=1.0, lam=0.5, f=0.25),
             CoerciveSpec(m=2.0, a1=1.0, a2="0.5 + 0.1*x", l=1.5, b="0.3*x",
                          lam=0.5, f=0.25)]
    pts, r = np.full((3, 1), 0.1), np.full(3, 2.0)
    p = np.array([[-1.5], [0.0], [2.0]])
    for spec in specs:
        c = Coefficients(spec, pts)
        assert numerical_hamiltonian_many(c, r, p, p, np.array([10.0])) \
            == pytest.approx(hamiltonian_values(c, r, p))
    q = p[:, 0]
    expected = q * q + 0.51 * np.abs(q) ** 1.5 + 0.03 * q + 1.0 - 0.25
    assert hamiltonian_values(Coefficients(specs[1], pts), r, p) \
        == pytest.approx(expected)
    c = Coefficients(BellmanSpec([ControlLaw(lam=1.0, b=-0.7, f=0.2)]), pts)
    assert numerical_hamiltonian_many(c, r, p, p, None) \
        == pytest.approx(hamiltonian_values(c, r, p))


def test_upwind_selection_follows_drift_sign():
    # -b.p advects from the +b side: b > 0 reads the forward difference.
    # (A backward read would break the monotone-flux property below.)
    pm, pp = np.array([[1.0]]), np.array([[100.0]])
    for b, expected in [(2.0, 5.0 - 2.0 * 100.0), (-2.0, 5.0 + 2.0 * 1.0)]:
        c = Coefficients(BellmanSpec([ControlLaw(lam=1.0, b=b, f=0.0)]),
                         ORIGIN)
        v = numerical_hamiltonian_many(c, 5.0, pm, pp, None)
        assert v == pytest.approx([expected])


def test_lax_friedrichs_template():
    # independent hand computation: H((p-+p+)/2) - sigma (p+-p-)/2
    c = Coefficients(CoerciveSpec(m=2.0, a1=1.0), ORIGIN)
    v = numerical_hamiltonian_many(c, 0.0, np.array([[-1.0]]),
                                   np.array([[1.0]]), np.array([4.0]))
    assert v == pytest.approx([0.0 - 4.0 * 1.0])


def test_viscosity_underflow_raises():
    c = Coefficients(CoerciveSpec(m=2.0, a1=1.0), ORIGIN)
    p = np.array([[10.0]])
    with pytest.raises(ViscosityUnderflow):
        numerical_hamiltonian_many(c, 0.0, p, p, np.array([1.0]))


def test_viscosity_underflow_raises_at_m_1():
    # at m = 1 the bound is a1_max whatever the gradients, and the flux
    # compares the viscosity with it at every call
    spec = CoerciveSpec(m=1.0, a1="2 + x^2")
    c = Coefficients(spec, np.array([[-1.0], [0.0], [1.0]]))
    assert not c.bound_reads_p
    p = np.zeros((3, 1))
    with pytest.raises(ViscosityUnderflow) as e:
        numerical_hamiltonian_many(c, np.zeros(3), p, p, np.array([2.9]))
    assert e.value.required.tolist() == [3.0]
    numerical_hamiltonian_many(c, np.zeros(3), p, p, np.array([3.0]))
    # an active a2 |p|^l term makes the bound read the gradients again
    for a2, l, reads in [(0.5, 0.5, True), (0.5, 0.0, False),
                         (0.0, 0.5, False)]:
        c = Coefficients(CoerciveSpec(m=1.0, a2=a2, l=l), np.zeros((1, 1)))
        assert c.bound_reads_p is reads


@given(st.floats(-3, 3), st.floats(-3, 3), st.floats(0.01, 2.0))
def test_monotone_flux_coercive(pm, pp, eps):
    # the rows: the gradients, p+ raised, p- raised
    c = Coefficients(CoerciveSpec(m=2.0, a1=1.0, lam=0.3), np.zeros((3, 1)))
    sigma = np.array([2.0 * 8.0 + 1.0])  # dominates |dH/dp| for |p| <= 8
    base, up, dn = numerical_hamiltonian_many(
        c, np.ones(3), np.array([[pm], [pm], [pm + eps]]),
        np.array([[pp], [pp + eps], [pp]]), sigma)
    assert up <= base + 1e-12   # nonincreasing in p+
    assert dn >= base - 1e-12   # nondecreasing in p-


def test_monotone_flux_for_negative_a1(dom1):
    # the viscosity bounds |dH/dp| = m |a1| |p|^(m-1) whatever the sign of a1
    spec = CoerciveSpec(m=2.0, a1="-1 - x^2")
    pts = core_pts(dom1, 2.0 ** -3)
    c = Coefficients(spec, pts)
    sigma = 1.0 + np.array(lf_viscosity_bound(c, 1.0))
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
    c = Coefficients(spec, np.zeros((3, 1)))
    base, up, dn = numerical_hamiltonian_many(
        c, np.ones(3), np.array([[pm], [pm], [pm + eps]]),
        np.array([[pp], [pp + eps], [pp]]), None)
    assert up <= base + 1e-12
    assert dn >= base - 1e-12


def test_h1_coercive_exact(dom1):
    spec = CoerciveSpec(m=2.0, a1=1.0, lam="1 + 0.5*x")
    cert = check_H1(spec, core_pts(dom1))
    assert cert.passed and cert.details["exact"]
    # H(u) - H(v) = lam (u - v) identically for the built-in family
    c = Coefficients(spec, np.full((2, 1), 0.5))
    hu, hv = hamiltonian_values(c, np.array([2.0, -1.0]), np.ones((2, 1)))
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
    adv = lambda p, t: -plan.exterior_mass
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
    phi0 = np.zeros(len(g.trace_pos))
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


def test_drift_components(dom2):
    # a control's drift defaults to zero on each axis; a single drift field
    # is refused in 2-D rather than dropped
    spec = BellmanSpec([ControlLaw(lam=1.0, f=0.0, dim=2)], dim=2)
    assert len(spec.controls[0].b) == 2
    assert not spec.time_dependent
    pts = Grid(dom2, 0.5, halo=1).core_points
    c = Coefficients(spec, pts)
    assert np.array_equal(c.stacked["b"], np.zeros((1, 2, len(pts))))
    with pytest.raises(ValueError):
        CoerciveSpec(m=2, b=0.5, dim=2)
    with pytest.raises(ValueError):
        ControlLaw(b="x", dim=2)


def test_bellman_lipschitz_certificate(dom1):
    spec = BellmanSpec([ControlLaw(lam=0.0, b="x", f=0.0)], lipschitz=1.0)
    assert spec.check_lipschitz(dom1).passed
    tight = BellmanSpec([ControlLaw(lam=0.0, b="2*x", f=0.0)], lipschitz=1.0)
    assert not tight.check_lipschitz(dom1).passed


# the certificates' sampled loops as they read one sample at a time: the
# vectorized certificates must give these values bit for bit

def h1_reference(spec, pts):
    # the certificate's draws, made in bulk; then one sample at a time
    rng = np.random.default_rng(0)
    idx = rng.integers(0, pts.shape[0], 200)
    ts = rng.random(200)
    us = rng.normal(size=200)
    gaps = np.abs(rng.normal(size=200))
    ps = rng.normal(size=(200, spec.dim))
    floor = properness_floor(spec, pts)
    worst = np.inf
    for i, t, u, gap, p in zip(idx, ts, us, gaps, ps):
        v = u - gap
        c = Coefficients(spec, pts[i:i + 1]).at(t)
        hu = hamiltonian_values(c, np.array([u]), p[None])[0]
        hv = hamiltonian_values(c, np.array([v]), p[None])[0]
        if u > v:
            worst = min(worst, (hu - hv) / (u - v) - floor[i])
    return worst


def lipschitz_reference(spec, dom):
    n = 200
    rng = np.random.default_rng(0)
    lo, hi = np.array(dom.lower), np.array(dom.upper)
    xs = lo + rng.random((n, dom.dim)) * (hi - lo)
    ys = lo + rng.random((n, dom.dim)) * (hi - lo)
    ts = rng.random(n)
    ss = rng.random(n)
    worst = 0.0
    for c in spec.controls:
        for i in range(n):
            num = np.linalg.norm(eval_vector(c.b, xs[i][None], ts[i])[0] -
                                 eval_vector(c.b, ys[i][None], ss[i])[0])
            den = np.linalg.norm(xs[i] - ys[i]) + abs(ts[i] - ss[i])
            if den > 1e-12:
                worst = max(worst, num / den)
    return worst


def _bellman(dim, moving):
    t = "t" if moving else "0"
    if dim == 1:
        return BellmanSpec([
            ControlLaw(lam=f"1 + 0.25*x + 0.1*{t}", b=f"x*cos({t})",
                       f=f"exp(-{t})*sin(3*x)"),
            ControlLaw(lam=2.0, b="-x", f=f"0.3*{t}")], lipschitz=1.5)
    return BellmanSpec([
        ControlLaw(lam=f"0.5 + 0.2*{t}", b=[f"-x*exp(-{t})", "-y"],
                   f=f"sin(x + {t})*y", dim=2),
        ControlLaw(lam="1 + 0.1*x*y", b=["0.5*x", f"0.5*y*(1 + {t})"],
                   f=0.2, dim=2)], lipschitz=1.5, dim=2)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("moving", [False, True])
def test_sampled_certificates_match_per_sample_loop(dim, moving):
    spec = _bellman(dim, moving)
    assert spec.time_dependent == moving
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    pts = core_pts(dom, 2.0 ** -4)
    h1 = check_H1(spec, pts)
    assert h1.value == h1_reference(spec, pts)
    lip = spec.check_lipschitz(dom)
    assert lip.value == lipschitz_reference(spec, dom)
    assert lip.passed and lip.value > 0.5


def _flux_before_workspace(c, r, pm, pp, sigma):
    """The flux as computed before the workspace, each term a new array:
    the reference the in-place kernel must equal bit for bit."""
    if c.spec.family == "bellman":
        best = None
        for lam, b, f in zip(*(c.stacked[k] for k in ("lam", "b", "f"))):
            p_sel = np.where(b.T > 0, pp, pm)
            val = (lam * np.asarray(r) - np.einsum("ij,ij->i", b.T, p_sel)
                   - f)
            best = val if best is None else np.maximum(best, val, out=best)
        return best
    mid = 0.5 * (pm + pp)
    pn = np.sqrt((mid * mid).sum(axis=1))
    spec = c.spec
    a1, a2, lam, f = (c.stacked[k][0] for k in ("a1", "a2", "lam", "f"))
    out = a1 * pn ** spec.m
    if c.a2_active:
        out += a2 * pn ** spec.l
    if "b" in c.stacked:
        out += np.einsum("ij,ij->i", c.stacked["b"][0].T, mid)
    out = out + lam * np.asarray(r) - f
    out -= 0.5 * ((pp - pm) * sigma).sum(axis=1)
    return out


FLUX_CASES = {
    "coercive-1d": lambda: CoerciveSpec(m=1.0, a1="1 + 0.5*x^2", lam=0.5,
                                        f="0.2*cos(3*x)"),
    "coercive-1d-m2": lambda: CoerciveSpec(m=2, a1=1.0, lam="x", f=0.0),
    "coercive-2d-a2-b": lambda: CoerciveSpec(
        m=2.0, a1=1.0, a2="0.5 + 0.1*x", l=1.5, b=["x", "-y"], lam=0.5,
        f=0.0, dim=2),
    # m, l < 1 and gradients below GRAD_FLOOR: the floored viscosity bound
    "coercive-2d-sublinear": lambda: CoerciveSpec(
        m=0.5, a1=1.0, a2=0.3, l=0.25, lam=0.0, f="0.1*y", dim=2),
    # zero lam and drift components make signed zeros in the sums
    "bellman-1d": lambda: BellmanSpec([ControlLaw(lam=0.0, b="x", f=0.0),
                                       ControlLaw(lam=0.5, b=0.0,
                                                  f="0.1*x")]),
    "bellman-2d": lambda: BellmanSpec(
        [ControlLaw(lam=0.0, b=["x", 0.0], f=0.0, dim=2),
         ControlLaw(lam=0.3, b=["-y", "x*y"], f=0.1, dim=2),
         ControlLaw(lam=0.5, b=[0.5, "-x"], f="0.2*y", dim=2)], dim=2),
    # a drift that reads t: the flux, bound at t = 0, reads the mask that
    # Coefficients.at renews in place after some entries flip
    "bellman-2d-moving": lambda: BellmanSpec(
        [ControlLaw(lam=0.3, b=["cos(4*t)*x", "-y"], f=0.1, dim=2),
         ControlLaw(lam=0.5, b=[0.5, "x - t"], f="0.2*y", dim=2)], dim=2),
}


@pytest.mark.parametrize("case", sorted(FLUX_CASES))
def test_flux_workspace_is_bit_identical(case):
    # the flux written into a workspace, or into fresh arrays, equals the
    # allocating form it replaced byte for byte (signed zeros included),
    # with the gradients laid out as the solver's or as plain rows
    spec = FLUX_CASES[case]()
    dim = spec.dim
    pts = core_pts(Domain((-1.0,) * dim, (1.0,) * dim),
                   2.0 ** -4 if dim == 1 else 0.25)
    n = len(pts)
    c = Coefficients(spec, pts)
    work = c.flux  # bound at t = 0, before the bundle moves
    if spec.time_dependent:
        upwind = c.upwind.copy()
        c.at(0.5)
        assert (c.upwind != upwind).any()
    rng = np.random.default_rng(7)
    scale = 1e-3 if "sublinear" in case else 1.0
    grads = rng.normal(size=(2, n, dim)) * scale
    grads[:, ::5] = 0.0
    grads[0, ::7] = -0.0
    grads[1, 1::6] = grads[0, 1::6]  # equal one-sided gradients
    r = rng.normal(size=n)
    r[::4] = 0.0
    r[1::9] = -0.0
    sigma = None if spec.family == "bellman" else \
        np.array(lf_viscosity_bound(c, 10.0 * scale)) + 2.0
    ref = _flux_before_workspace(c, r, grads[0], grads[1], sigma)
    held = np.empty((2, dim, n))  # the solver's layout
    held[:] = grads.transpose(0, 2, 1)
    pm, pp = held[0].T, held[1].T
    out = np.empty(n)
    for _ in range(2):  # a reused workspace gives the same bytes
        got = [numerical_hamiltonian_many(c, r, grads[0], grads[1], sigma),
               numerical_hamiltonian_many(c, r, pm, pp, sigma),
               numerical_hamiltonian_many(c, r, pm, pp, sigma, out=out),
               work(r, pm, pp, sigma, np.empty(n))]
        assert got[2] is out and c.flux is work
        for g in got:
            assert g.tobytes() == ref.tobytes()


LF_CASES = [(dim, m, a2, b) for dim in (1, 2) for m in (1.0, 2.0)
            for a2 in (False, True) for b in (False, True) if m > 1 or not b]


@pytest.mark.parametrize("dim, m, a2, b", LF_CASES)
def test_lf_flux_equals_the_written_out_reference(dim, m, a2, b):
    # the flux (|p| by np.absolute in 1-D, the held floor at m = 1, each
    # column scaled by 0.5 sigma_a) equals H at the mean gradient by
    # _coercive_values and _norms minus 0.5 sum_a sigma_a (p+ - p-), byte
    # for byte, on gradients of normal range
    from nlhj.hamiltonians import _coercive_values, _norms
    xy = ["x", "y"][:dim]
    spec = CoerciveSpec(
        m=m, a1="1 + 0.5*x^2", a2="0.5 + 0.1*x" if a2 else 0.0, l=0.5,
        b=[f"0.3*{v}" for v in xy[::-1]] if b else None, lam="0.5 + 0.1*x",
        f="0.2*cos(3*x)", dim=dim)
    pts = core_pts(Domain((-1.0,) * dim, (1.0,) * dim),
                   2.0 ** -4 if dim == 1 else 0.25)
    c = Coefficients(spec, pts)
    assert (c.lf_floor is None) == c.bound_reads_p
    rng = np.random.default_rng(11)
    pm, pp = rng.normal(size=(2, len(pts), dim))
    r = rng.normal(size=len(pts))
    # the bound grows with |p| in the m term and falls in the l < 1 term
    sigma = (np.add(lf_viscosity_bound(c, 10.0), lf_viscosity_bound(c, 0.0))
             + rng.random(dim))
    mid = 0.5 * (pm + pp)
    ref = (_coercive_values(c, r, mid, _norms(mid))
           - 0.5 * (sigma * (pp - pm)).sum(axis=1))
    got = numerical_hamiltonian_many(c, r, pm, pp, sigma)
    assert got.tobytes() == ref.tobytes()


def test_held_lf_floor_follows_the_bounds():
    # at m = 1 the bundle holds the bound, renewed when a1 moves with t;
    # where the bound reads the gradients it holds none
    pts = np.array([[-1.0], [0.0], [1.0]])
    c = Coefficients(CoerciveSpec(m=1.0, a1="2 + x^2*t"), pts)
    assert c.lf_floor == [2.0]
    assert c.at(1.0).lf_floor == [3.0]
    assert Coefficients(CoerciveSpec(m=2.0), pts).lf_floor is None


@pytest.mark.parametrize("spec", [
    CoerciveSpec(m=2.0, a1="1 + x^2", lam=0.5, f="0.1*x"),
    CoerciveSpec(m=2.0, a1=1.0, a2="0.5*t", l=1.0, lam=0.5),
    BellmanSpec([ControlLaw(lam=0.5, b="-x", f=0.1),
                 ControlLaw(lam=0.3, b="0.5*x", f=0.0)])],
    ids=["coercive", "coercive-moving-a2", "bellman"])
def test_bundle_with_a_read_flux_is_freed_with_its_last_reference(spec):
    # the flux the bundle holds does not read the bundle through itself, so
    # no reference cycle waits for the cyclic collector
    import gc
    import weakref
    pts = np.linspace(-1.0, 1.0, 9)[:, None]
    gc.disable()
    try:
        c = Coefficients(spec, pts)
        out = c.flux(np.zeros(9), np.ones((9, 1)), np.ones((9, 1)),
                     np.array([10.0]), np.empty(9))
        held = weakref.ref(c)
        del c
        assert held() is None
    finally:
        gc.enable()
    assert np.isfinite(out).all()
