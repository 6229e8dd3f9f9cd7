import numpy as np
import pytest

from nlhj.errors import NodeOutsideGrid
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import BellmanSpec, ControlLaw
from nlhj.kernels import build_quadrature, fractional_laplacian_kernel
from nlhj.operators import (Field, SweepPlan, _tail_values, envelope,
                            eval_operator, row_prefixes, row_template,
                            save_field, scheme_evaluation)
from nlhj.oracles import operator_oracle_1d
from nlhj.solver import SchemeConfig, init_state, step

from conftest import grid_for

ZERO_PHI = lambda p, t: np.zeros(p.shape[0])
BUMP = lambda p: np.maximum(0.0, 1.0 - p[:, 0] ** 2)


def make_field(dom, h, r_max, u0, phi=ZERO_PHI):
    g = grid_for(dom, h, r_max)
    return Field(g, u0(g.core_points), phi)


def test_constant_field_vanishes(dom1, k05, k15):
    for k in (k05, k15):
        qt = build_quadrature(k, 2.0 ** -6, 8.0)
        f = make_field(dom1, 2.0 ** -6, 8.0, lambda p: np.full(p.shape[0], 3.0),
                       lambda p, t: np.full(p.shape[0], 3.0))
        assert eval_operator(f, 0.0, 0.7, qt) == pytest.approx(0.0, abs=1e-12)


def test_affine_field_symmetric_kernel(dom1, k15):
    # odd integrand cancels under symmetry (alpha >= 1, compensator active);
    # evaluated at the grid center so the constant-continuation tails cancel
    qt = build_quadrature(k15, 2.0 ** -6, 8.0)
    slope = 0.7
    f = make_field(dom1, 2.0 ** -6, 8.0, lambda p: slope * p[:, 0],
                   lambda p, t: slope * p[:, 0])
    v = eval_operator(f, 0.0, slope, qt)
    assert v == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_matches_adaptive_quadrature(dom1, alpha):
    k = fractional_laplacian_kernel(alpha, 1)
    h = 2.0 ** -8
    qt = build_quadrature(k, h, 8.0)
    f = make_field(dom1, h, 8.0, BUMP)
    v = eval_operator(f, 0.0, 0.0, qt)
    fn = lambda x: max(0.0, 1.0 - x * x)
    ref = operator_oracle_1d(fn, 0.0, k, points=[-1.0, 1.0], grad=0.0)
    assert v == pytest.approx(ref, rel=1e-2)


def test_compensator_ignored_below_one(dom1, k05):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    f = make_field(dom1, 2.0 ** -6, 8.0, BUMP)
    v1 = eval_operator(f, 0.25, 0.0, qt)
    v2 = eval_operator(f, 0.25, 123.0, qt)
    assert v1 == v2


def test_monotonicity_in_field_values(dom1, k05):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    g = grid_for(dom1, 2.0 ** -6, 8.0)
    rng = np.random.default_rng(7)
    base = rng.standard_normal(g.size) * 0.1
    other = base + np.abs(rng.standard_normal(g.size)) * 0.1
    x0 = g.flat_index_of(0.25)
    other[x0] = base[x0]  # equality at the evaluated node
    fa = Field(g, base[g.core_flat], ZERO_PHI)
    fb = Field(g, other[g.core_flat], ZERO_PHI)
    # exterior/trace slots are overwritten identically by the datum
    va = eval_operator(fa, 0.25, 0.0, qt)
    vb = eval_operator(fb, 0.25, 0.0, qt)
    assert va <= vb + 1e-13


def test_translation_covariance_bitwise(k05):
    dom = Domain((-4,), (4,))
    h = 2.0 ** -5
    qt = build_quadrature(k05, h, 2.0)
    g = grid_for(dom, h, 2.0)
    bump = lambda c: (lambda p: np.maximum(0.0, 0.25 - (p[:, 0] - c) ** 2))
    s = 8 * h
    f1 = Field(g, bump(0.0)(g.core_points), ZERO_PHI)
    f2 = Field(g, bump(s)(g.core_points), ZERO_PHI)
    v1 = eval_operator(f1, 0.25, 0.0, qt)
    v2 = eval_operator(f2, 0.25 + s, 0.0, qt)
    assert v1 == v2  # identical summands in identical order


def test_node_outside_grid(dom1, k05):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    f = make_field(dom1, 2.0 ** -6, 8.0, BUMP)
    with pytest.raises(NodeOutsideGrid):
        eval_operator(f, 50.0, 0.0, qt)
    with pytest.raises(NodeOutsideGrid):
        # stored node, but its stencil leaves the storage block
        eval_operator(f, 8.5, 0.0, qt)


def test_field_envelope_policies(dom1, dom2):
    # the one envelope rule: a trace node reads max(u, phi), an interior
    # node its own value and an exterior node the datum, for a field built
    # from core values and for a solver state alike
    u0 = lambda p: p[:, 0]
    phi = lambda p, t: 0.25 * p[:, -1] + t
    t, h, r_max = 0.25, 0.125, 2.0
    for dom in (dom1, dom2):
        g = grid_for(dom, h, r_max)
        u = u0(g.core_points)
        phi_trace = phi(g.trace_points, t)
        below = u[g.trace_pos] < phi_trace
        assert below.any() and (u[g.trace_pos] > phi_trace).any()
        values = Field(g, u, phi, t).values
        assert np.array_equal(values[g.trace_flat],
                              np.where(below, phi_trace, u[g.trace_pos]))
        assert np.array_equal(values[np.delete(g.core_flat, g.trace_pos)],
                              np.delete(u, g.trace_pos))
        assert np.array_equal(values[g.exterior_flat],
                              phi(g.exterior_points, t))
        assert np.array_equal(values[g.core_flat], envelope(g, u, phi_trace))

        qt = build_quadrature(fractional_laplacian_kernel(0.5, dom.dim), h,
                              r_max)
        spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5,) * dom.dim, f=0.0,
                                       dim=dom.dim)], dim=dom.dim)
        st = init_state(SweepPlan(g, qt), spec, phi, u0, SchemeConfig(h=h),
                        t0=t)
        assert np.array_equal(st.field().values[g.core_flat],
                              envelope(g, st.u, st.phi_trace))
        # the state's block, written through flat positions, holds the same
        inner = envelope(g, st.u, st.phi_trace, out=st._views[0])
        assert inner.base is st.block
        assert np.array_equal(inner.ravel(), envelope(g, st.u, st.phi_trace))


def test_field_serialization_header(tmp_path, dom1):
    g = grid_for(dom1, 0.25, 4)
    values = Field(g, BUMP(g.core_points), ZERO_PHI, t=0.5).values[g.core_flat]
    out = tmp_path / "field.tsv"
    save_field(g, values, 0.5, out, alpha=0.5)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# t=0.5 h=0.25 alpha=0.5")
    assert len(lines) == 1 + len(g.core_flat)  # core nodes only
    assert len(lines[1].split("\t")) == 2  # coordinate, value
    # one "%.17g" per column, as formatting each value on its own gives
    rows = zip(g.core_points[:, 0], values)
    assert lines[1:] == ["\t".join(f"{v:.17g}" for v in row) for row in rows]


def test_scheme_evaluation_trivial(dom1, k05):
    qt = build_quadrature(k05, 2.0 ** -6, 8.0)
    f = make_field(dom1, 2.0 ** -6, 8.0, lambda p: np.zeros(p.shape[0]))
    ident = BellmanSpec([ControlLaw(lam=1.0, b=0.0, f=0.0)])
    # stationary zero field with H(r) = r
    assert scheme_evaluation(f, 0.0, 0.0, 0.0, 0.0, ident, qt) == pytest.approx(0.0, abs=1e-12)
    zero_h = BellmanSpec([ControlLaw(lam=0.0, b=0.0, f=0.0)])
    # only the time slot survives
    assert scheme_evaluation(f, 0.0, 0.0, 1.0, 0.0, zero_h, qt) == pytest.approx(1.0, abs=1e-12)


def test_operator_2d_radial_oracle(dom2):
    from nlhj.kernels import fractional_laplacian_kernel
    from nlhj.oracles import operator_oracle_2d_radial
    k = fractional_laplacian_kernel(0.5, 2)
    h = 2.0 ** -5
    qt = build_quadrature(k, h, 2.0)
    g = grid_for(dom2, h, 2.0)
    u0 = lambda p: np.maximum(0.0, 1.0 - (p ** 2).sum(axis=1))
    f = Field(g, u0(g.core_points), ZERO_PHI)
    v = eval_operator(f, (0.0, 0.0), (0.0, 0.0), qt)
    ref = operator_oracle_2d_radial(lambda r: max(0.0, 1.0 - r * r), k,
                                    points=[1.0])
    assert v == pytest.approx(ref, rel=5e-2)


@pytest.mark.parametrize("dim, alpha, h, r_max", [
    (1, 0.5, 0.1, 1.0),        # J = 10 < n_core = 20
    (1, 1.5, 2.0 ** -5, 4.0),  # J = 128 > n_core = 64
    (2, 0.5, 0.125, 2.0),      # J = n_core = 16
    (2, 1.5, 0.1, 1.0),        # J = 10 < n_core = 20
])
@pytest.mark.parametrize("varying", [True, False])
def test_plan_matches_eval_operator(dim, alpha, h, r_max, varying):
    # the solver's sweep against the single-node reference at every core
    # node, over steps with a t-dependent datum (exterior load refreshed),
    # varying in space or constant (the load's transform-free case)
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    g = grid_for(dom, h, r_max)
    qt = build_quadrature(fractional_laplacian_kernel(alpha, dim), h, r_max)
    if varying:
        phi = lambda p, t: 0.3 * np.sin(2.0 * p.sum(axis=1)) + 0.5 * t
    else:
        phi = lambda p, t: np.full(p.shape[0], 0.5 * np.exp(-t))
    u0 = lambda p: 0.6 * np.cos(2.0 * p.sum(axis=1))
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5,) * dim, f=0.0, dim=dim)],
                       dim=dim)
    cfg = SchemeConfig(h=h)
    st = init_state(SweepPlan(g, qt), spec, phi, u0, cfg)
    box = np.arange(g.size).reshape(g.shape)[st.plan.core_box].ravel()
    assert np.array_equal(box, g.core_flat)
    strides = np.asarray(g.strides)
    for _ in range(3):
        f = st.field()
        E = f.values
        centers = st.u
        got = st.plan.apply(E[g.core_flat], centers, st.load)
        ref = np.empty_like(got)
        for i, (flat, x) in enumerate(zip(g.core_flat, g.points_at(g.core_flat))):
            p = (E[flat + strides] - E[flat - strides]) / (2.0 * h)
            # shifted to the raw centre as in scheme_evaluation
            ref[i] = (eval_operator(f, x, p, qt)
                      + qt.lam * (E[flat] - centers[i]))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        step(st, cfg)


def _correlate_with_numpy_fft(a, spec, shape, keep):
    """The correlation through np.fft's public wrappers, as the sweep
    computed it before it called their gufuncs."""
    if len(shape) == 1:
        return np.fft.irfft(np.fft.rfft(a, shape[0]) * spec, shape[0])[keep]
    return np.fft.irfft2(np.fft.rfft2(a, shape) * spec, shape)[keep]


@pytest.mark.parametrize("dim, h", [(1, 2.0 ** -5), (2, 0.125)])
def test_sweep_writes_into_out_bit_for_bit(dim, h):
    # apply and exterior_load with and without a caller's array equal the
    # sweep formed from np.fft's public transforms, byte for byte
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    plan = SweepPlan(grid_for(dom, h, 2.0),
                     build_quadrature(fractional_laplacian_kernel(0.5, dim),
                                      h, 2.0))
    g = plan.grid
    rng = np.random.default_rng(3)
    n = len(g.core_flat)
    E = rng.normal(size=n)
    centers = E.copy()
    centers[g.trace_pos] -= 0.25  # raw centres below the envelope
    ext = rng.normal(size=len(g.exterior_flat))
    full = np.zeros(g.size)
    full[g.exterior_flat] = ext
    ref_load = (_correlate_with_numpy_fft(full.reshape(g.shape),
                                          plan._full_spec, plan._full_fft,
                                          plan.core_box).ravel()
                + plan.qt.tail_sides @ _tail_values(g, full))
    inside = _correlate_with_numpy_fft(np.ones(plan.core_shape),
                                       plan._core_spec, plan._core_fft,
                                       plan._box_start).ravel()
    exit_mass = plan._stencil.sum() - inside + plan.qt.tail_mass
    assert plan.exit_mass.tobytes() == exit_mass.tobytes()
    ref_const = ext[0] * exit_mass
    for datum, ref in ((ext, ref_load), (np.full(3, ext[0]), ref_const)):
        held = np.empty(n)
        assert plan.exterior_load(datum).tobytes() == ref.tobytes()
        assert plan.exterior_load(datum, out=held) is held
        assert held.tobytes() == ref.tobytes()
    load = ref_load
    corr = _correlate_with_numpy_fft(E.reshape(plan.core_shape),
                                     plan._core_spec, plan._core_fft,
                                     plan._box_start).ravel()
    ref = corr + load
    ref -= plan.diag * centers
    out = np.empty(n)
    for got in (plan.apply(E, centers, load),
                plan.apply(E.reshape(plan.core_shape), centers, load),
                plan.apply(E, centers, load, out=out)):
        assert got.tobytes() == ref.tobytes()
    assert plan.apply(E, centers, load, out=out) is out


@pytest.mark.parametrize("h, n_fft", [(2.0 ** -3, 36), (2.0 ** -4, 72),
                                      (2.0 ** -5, 135)])
def test_pruned_2d_sweep_equals_rfftn_byte_for_byte(h, n_fft):
    # the 2-D sweep prunes its transforms (zero rows held, only the kept
    # rows inverted); two states alternate on one plan with a datum that
    # varies in space and t, and every load and sweep equals the one formed
    # from np.fft.rfftn and irfftn, byte for byte
    dom = Domain((-1.0, -1.0), (1.0, 1.0))
    plan = SweepPlan(grid_for(dom, h, 2.0),
                     build_quadrature(fractional_laplacian_kernel(0.5, 2),
                                      h, 2.0))
    assert plan._core_fft == (n_fft, n_fft)
    g = plan.grid

    def corr(a, spec, shape, keep):
        spectrum = np.fft.rfftn(a, shape, axes=(0, 1)) * spec
        return np.fft.irfftn(spectrum, shape, axes=(0, 1))[keep]

    inside = corr(np.ones(plan.core_shape), plan._core_spec, plan._core_fft,
                  plan._box_start).ravel()
    exit_mass = plan._stencil.sum() - inside + plan.qt.tail_mass
    assert plan.exit_mass.tobytes() == exit_mass.tobytes()
    for const in (np.full(1, 0.7), np.full(len(g.exterior_flat), 0.7)):
        assert plan.exterior_load(const).tobytes() == (0.7 * exit_mass).tobytes()

    phi = lambda p, t: 0.3 * np.sin(2.0 * p[:, 0] + p[:, 1]) * np.exp(-t) + t
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5, -0.25), f=0.0, dim=2)],
                       dim=2)
    cfg = SchemeConfig(h=h)
    states = [init_state(plan, spec, phi, u0, cfg) for u0 in
              (lambda p: 0.6 * np.cos(2.0 * p.sum(axis=1)),
               lambda p: 0.2 - 0.5 * p[:, 0] * p[:, 1])]
    for _ in range(2):
        for st in states:
            full = np.zeros(g.size)
            full[g.exterior_flat] = phi(g.exterior_points, st.t)
            load = (corr(full.reshape(g.shape), plan._full_spec,
                         plan._full_fft, plan.core_box).ravel()
                    + plan.qt.tail_sides @ _tail_values(g, full))
            assert st.load.tobytes() == load.tobytes()
            E = envelope(g, st.u, st.phi_trace)
            ref = corr(E.reshape(plan.core_shape), plan._core_spec,
                       plan._core_fft, plan._box_start).ravel() + load
            ref -= plan.diag * st.u
            assert plan.apply(E, st.u, st.load).tobytes() == ref.tobytes()
            step(st, cfg)
    # the rows beyond the core block's of the forward array were never written
    assert not plan._scratch[1][plan.core_shape[0]:].any()


def test_table_template_formats_as_each_row_on_its_own(tmp_path, dom2):
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-7]
    pts = np.column_stack([special, special[::-1]])
    values = np.roll(np.array(special), 3)
    prefixes = row_prefixes(pts)
    rows = ["%s%.17g\n" % (p, v) for p, v in zip(prefixes, values.tolist())]
    assert row_template(prefixes) % tuple(values.tolist()) == "".join(rows)
    at_t = "%.17g\t" % 0.25
    assert (row_template(prefixes, at_t) % tuple(values.tolist())
            == "".join(p + at_t + r[len(p):] for p, r in zip(prefixes, rows)))

    g = grid_for(dom2, 0.25, 0.5)
    n = len(g.core_flat)
    values = np.resize(np.array(special), n)
    out = tmp_path / "field.tsv"
    for template in (None, row_template(row_prefixes(g.core_points))):
        save_field(g, values, 0.5, out, 0.5, template)
        body = out.read_bytes().split(b"\n", 1)[1]
        assert body == "".join(
            "%s%.17g\n" % (p, v) for p, v in
            zip(row_prefixes(g.core_points), values.tolist())).encode()
