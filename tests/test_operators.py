import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as hst

from nlhj import operators
from nlhj.errors import NodeOutsideGrid
from nlhj.geometry import Domain, Grid
from nlhj.hamiltonians import BellmanSpec, ControlLaw
from nlhj.kernels import build_quadrature, fractional_laplacian_kernel
from nlhj.operators import (Field, SweepPlan, _tail_values, envelope,
                            eval_operator, row_prefixes, row_template,
                            save_field)
from nlhj.oracles import ball_kappa, operator_oracle_1d
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
        assert np.array_equal(values[g.core_flat[g.trace_pos]],
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
        cfg = SchemeConfig(h=h)
        st = step(init_state(SweepPlan(g, qt), spec, phi, u0), cfg)
        assert st.t > 0
        held = Field(g, st.u, st.phi, st.t).values[g.core_flat]
        assert np.array_equal(held, envelope(g, st.u, st.phi_trace))
        # the batch's block, written through flat positions, holds the same
        inner = st.batch.envelope()
        assert inner.base is st.batch.block
        assert np.array_equal(inner.ravel(), envelope(g, st.u, st.phi_trace))


def test_field_serialization_header(tmp_path, dom1):
    g = grid_for(dom1, 0.25, 4)
    values = Field(g, BUMP(g.core_points), ZERO_PHI, t=0.5).values[g.core_flat]
    out = tmp_path / "field.tsv"
    save_field(g, values, 0.5, out, 0.5,
               row_template(row_prefixes(g.core_points)))
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# t=0.5 h=0.25 alpha=0.5")
    assert len(lines) == 1 + len(g.core_flat)  # core nodes only
    assert len(lines[1].split("\t")) == 2  # coordinate, value
    # one "%.17g" per column, as formatting each value on its own gives
    rows = zip(g.core_points[:, 0], values)
    assert lines[1:] == ["\t".join(f"{v:.17g}" for v in row) for row in rows]


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
    _sweep_matches_eval_operator(SweepPlan(g, qt), varying)


def _sweep_matches_eval_operator(plan, varying):
    g, qt, h, dim = plan.grid, plan.qt, plan.grid.h, plan.grid.dim
    if varying:
        phi = lambda p, t: 0.3 * np.sin(2.0 * p.sum(axis=1)) + 0.5 * t
    else:
        phi = lambda p, t: np.full(p.shape[0], 0.5 * np.exp(-t))
    u0 = lambda p: 0.6 * np.cos(2.0 * p.sum(axis=1))
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5,) * dim, f=0.0, dim=dim)],
                       dim=dim)
    cfg = SchemeConfig(h=h)
    st = init_state(plan, spec, phi, u0)
    box = np.arange(g.size).reshape(g.shape)[st.plan.core_box].ravel()
    assert np.array_equal(box, g.core_flat)
    strides = np.asarray(g.strides)
    for _ in range(3):
        f = Field(g, st.u, st.phi, st.t)
        E = f.values
        centers = st.u
        got = st.plan.apply(E[g.core_flat], centers, st.load)
        ref = np.empty_like(got)
        for i, (flat, x) in enumerate(zip(g.core_flat, g.points_at(g.core_flat))):
            p = (E[flat + strides] - E[flat - strides]) / (2.0 * h)
            # shifted from the envelope to the raw centre the sweep reads
            ref[i] = (eval_operator(f, x, p, qt)
                      + qt.lam * (E[flat] - centers[i]))
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
        step(st, cfg)


@pytest.mark.parametrize("dim, h, r_max, skew", [
    (1, 2.0 ** -4, 1.0, None),    # J = 16 < n_core = 32
    (2, 0.1, 1.0, None),          # J = 10 < n_core = 20
    (1, 2.0 ** -4, 2.0, (1,)),    # the tap at +n_core moved, J = n_core = 32
    (2, 0.125, 2.0, (1, 0)),      # the tap at (+n_core, 0) moved, J = n_core
])
def test_plan_pads_to_2_n_core_only_where_the_end_taps_agree(dim, h, r_max,
                                                             skew):
    # an axis whose taps span the core and are symmetric along it is padded
    # to 2 n_core, where its taps at -n_core and +n_core share one residue;
    # a stencil short of the core, or one tap that breaks the symmetry,
    # keeps n_core + K + 1 along that axis, and every sweep still equals
    # the single-node reference
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    g = grid_for(dom, h, r_max)
    qt = build_quadrature(fractional_laplacian_kernel(0.5, dim), h, r_max)
    J = qt.J
    if skew is not None:
        w = qt.weights.copy()
        w[tuple(J + s * n for s, n in zip(skew, g.n_core))] += 0.01
        qt = dataclasses.replace(qt, weights=w, sum_w=float(w.sum()))
    plan = SweepPlan(g, qt)
    for a, n in enumerate(g.n_core):
        K = min(J, n)
        folds = K == n and (skew is None or not skew[a])
        assert plan.core_fft[a] == operators._fft_length(
            2 * n if folds else n + K + 1)
    _sweep_matches_eval_operator(plan, varying=True)


@given(hst.integers(min_value=1, max_value=5000))
def test_fft_length_is_the_least_5_smooth_length_not_below_n(n):
    def smooth(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1
    m = operators._fft_length(n)
    assert m >= n and smooth(m)
    assert not any(smooth(k) for k in range(n, m))


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
                                       plan._core_spec, plan.core_fft,
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
                                     plan._core_spec, plan.core_fft,
                                     plan._box_start).ravel()
    ref = corr + load
    ref -= plan.diag * centers
    out = np.empty(n)
    for got in (plan.apply(E, centers, load),
                plan.apply(E.reshape(plan.core_shape), centers, load),
                plan.apply(E, centers, load, out=out)):
        assert got.tobytes() == ref.tobytes()
    assert plan.apply(E, centers, load, out=out) is out


@pytest.mark.parametrize("dim, h", [(1, 2.0 ** -5), (2, 0.125)])
def test_plan_holds_one_workspace_per_stacked_count(dim, h):
    # workspaces are scratch spent within one apply: the plan holds one per
    # count of stacked blocks, apply without one sweeps in workspace(1), and
    # a sweep in one workspace leaves the others' results unchanged
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    plan = SweepPlan(grid_for(dom, h, 2.0),
                     build_quadrature(fractional_laplacian_kernel(0.5, dim),
                                      h, 2.0))
    assert plan.workspace(2) is plan.workspace(2)
    assert plan.workspace() is plan.workspace(1)
    assert not any(np.shares_memory(a, b) for a in plan.workspace(1)[2]
                   for b in plan.workspace(2)[2] if a is not None)
    n = len(plan.grid.core_flat)
    E = np.random.default_rng(dim).normal(size=(2, n))
    load = np.linspace(-1.0, 1.0, n)
    alone = plan.apply(E[0], E[0] - 0.25, load)
    with_one = plan.apply(E[0], E[0] - 0.25, load, work=plan.workspace(1))
    assert with_one.tobytes() == alone.tobytes()
    before = alone.tobytes()
    plan.apply(E.reshape((2,) + plan.core_shape), (E - 0.25).ravel(),
               np.tile(load, 2), work=plan.workspace(2))
    plan.apply(E[1], E[1] - 0.25, load)
    assert alone.tobytes() == before
    assert plan.apply(E[0], E[0] - 0.25, load).tobytes() == before


@pytest.mark.parametrize("h, n_fft", [(2.0 ** -3, 32), (2.0 ** -4, 64),
                                      (2.0 ** -5, 128)])
def test_pruned_2d_sweep_equals_rfftn_byte_for_byte(h, n_fft):
    # the 2-D sweep prunes its transforms (zero rows held, only the kept
    # rows inverted); two states alternate on one plan with a datum that
    # varies in space and t, and every load and sweep equals the one formed
    # from np.fft.rfftn and irfftn, byte for byte
    dom = Domain((-1.0, -1.0), (1.0, 1.0))
    plan = SweepPlan(grid_for(dom, h, 2.0),
                     build_quadrature(fractional_laplacian_kernel(0.5, 2),
                                      h, 2.0))
    assert plan.core_fft == (n_fft, n_fft)
    g = plan.grid

    def corr(a, spec, shape, keep):
        spectrum = np.fft.rfftn(a, shape, axes=(0, 1)) * spec
        return np.fft.irfftn(spectrum, shape, axes=(0, 1))[keep]

    inside = corr(np.ones(plan.core_shape), plan._core_spec, plan.core_fft,
                  plan._box_start).ravel()
    exit_mass = plan._stencil.sum() - inside + plan.qt.tail_mass
    assert plan.exit_mass.tobytes() == exit_mass.tobytes()
    for const in (np.full(1, 0.7), np.full(len(g.exterior_flat), 0.7)):
        assert plan.exterior_load(const).tobytes() == (0.7 * exit_mass).tobytes()

    phi = lambda p, t: 0.3 * np.sin(2.0 * p[:, 0] + p[:, 1]) * np.exp(-t) + t
    spec = BellmanSpec([ControlLaw(lam=0.5, b=(0.5, -0.25), f=0.0, dim=2)],
                       dim=2)
    cfg = SchemeConfig(h=h)
    states = [init_state(plan, spec, phi, u0) for u0 in
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
                       plan.core_fft, plan._box_start).ravel() + load
            ref -= plan.diag * st.u
            assert plan.apply(E, st.u, st.load).tobytes() == ref.tobytes()
            step(st, cfg)
    # the rows beyond the core block's of the forward array were never
    # written, by apply or by the states' steps, which share its workspace
    assert not plan.workspace()[2][1][:, plan.core_shape[0]:].any()



@pytest.mark.parametrize("dim, h", [(1, 2.0 ** -7), (2, 0.125)])
def test_varying_datum_load_holds_its_full_grid_arrays(dim, h):
    # for a datum that varies in space the plan holds the full-grid array
    # and its transform outputs from the first load: a later load writes
    # only exterior nodes, allocates less than one full-grid array, and
    # keeps the bytes of a load made on fresh arrays
    import tracemalloc
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    plan = SweepPlan(grid_for(dom, h, 2.0),
                     build_quadrature(fractional_laplacian_kernel(0.5, dim),
                                      h, 2.0))
    g = plan.grid
    rng = np.random.default_rng(5)
    first, second = rng.normal(size=(2, len(g.exterior_flat)))
    held = np.empty(len(g.core_flat))
    plan.exterior_load(first, out=held)
    arrays = plan._full_load
    tracemalloc.start()
    try:
        plan.exterior_load(second, out=held)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan._full_load is arrays
    assert peak - current < 8 * g.size
    assert not arrays[0][g.core_flat].any()
    fresh = SweepPlan(plan.grid, plan.qt)
    assert held.tobytes() == fresh.exterior_load(second).tobytes()

def test_table_template_formats_as_each_row_on_its_own(tmp_path, dom2):
    special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, -2.5e-7]
    pts = np.column_stack([special, special[::-1]])
    values = np.roll(np.array(special), 3)
    prefixes = row_prefixes(pts)
    rows = ["%s%.17g\n" % (p, v) for p, v in zip(prefixes, values.tolist())]
    assert row_template(prefixes) % tuple(values.tolist()) == "".join(rows)

    g = grid_for(dom2, 0.25, 0.5)
    n = len(g.core_flat)
    values = np.resize(np.array(special), n)
    out = tmp_path / "field.tsv"
    save_field(g, values, 0.5, out, 0.5,
               row_template(row_prefixes(g.core_points)))
    body = out.read_bytes().split(b"\n", 1)[1]
    assert body == "".join(
        "%s%.17g\n" % (p, v) for p, v in
        zip(row_prefixes(g.core_points), values.tolist())).encode()


def test_row_prefixes_equal_per_row_formatting(dom2):
    # values shared by rows and axes are formatted once; -0.0 and 0.0 have
    # different bits, so each keeps its own string, as NaN and inf do
    special = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1, 0.1 + 1e-17,
               -2.5e-7, 1e300]
    pts = np.array([[a, b] for a in special for b in special[::-1]])
    g = grid_for(dom2, 0.25, 0.5)
    for points in (pts, pts[:, :1], g.core_points, g.trace_points):
        row = "%.17g\t" * points.shape[1]
        assert row_prefixes(points) == [row % tuple(p)
                                        for p in points.tolist()]
    assert row_prefixes(np.array([[-0.0], [0.0]])) == ["-0\t", "0\t"]


FALLBACK_SWEEP = """
import sys
import numpy as np
if sys.argv[1] == "hide":
    # a numpy without the private module: the import of nlhj falls back
    import numpy.fft
    del numpy.fft._pocketfft_umath
    sys.modules["numpy.fft._pocketfft_umath"] = None
sys.path.insert(0, sys.argv[2])
from conftest import grid_for
from nlhj import operators
from nlhj.geometry import Domain
from nlhj.kernels import build_quadrature, fractional_laplacian_kernel

print(operators._pocketfft is operators._PUBLIC_FFT)
for dim, h, r_max in ((1, 2.0 ** -5, 2.0), (1, 2.0 ** -5, 0.5),
                      (2, 0.125, 2.0), (2, 2.0 ** -5, 2.0)):
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    plan = operators.SweepPlan(
        grid_for(dom, h, r_max),
        build_quadrature(fractional_laplacian_kernel(0.5, dim), h, r_max))
    g = plan.grid
    rng = np.random.default_rng(dim)
    E = rng.normal(size=len(g.core_flat))
    load = plan.exterior_load(rng.normal(size=len(g.exterior_flat)))
    print(plan.core_fft[-1] % 2, plan._full_fft[-1] % 2,
          load.tobytes().hex(), plan.apply(E, E - 0.25, load).tobytes().hex())
"""


def test_sweep_without_the_private_fft_module_is_byte_identical():
    # hiding numpy's private pocketfft module leaves nlhj importable on the
    # public np.fft wrappers, and every load and sweep keeps its bytes, for
    # transform lengths of either parity in 1-D and 2-D (the core's odd
    # length from a stencil short of the core, J = 16 < n_core = 64)
    src = str(Path(operators.__file__).resolve().parents[1])
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=src)
    out = {}
    for mode in ("hide", "keep"):
        run = subprocess.run([sys.executable, "-c", FALLBACK_SWEEP, mode, tests],
                             env=env, capture_output=True, text=True,
                             check=True)
        out[mode] = run.stdout.splitlines()
    assert out["hide"][0] == "True" and out["keep"][0] == "False"
    assert out["hide"][1:] == out["keep"][1:]
    parities = {tuple(line.split()[:2]) for line in out["keep"][1:]}
    assert {p for pair in parities for p in pair} == {"0", "1"}


@pytest.mark.parametrize("alpha", [0.5, 1.5])
@pytest.mark.parametrize("dim, h", [(1, 2.0 ** -5), (2, 0.125)])
def test_public_fft_wrappers_keep_the_bytes(monkeypatch, alpha, dim, h):
    # in this process, a plan built on the public np.fft wrappers, which the
    # import falls back to without numpy's private module, sweeps and loads
    # the bytes of one built on the private gufuncs; the datum varies in
    # space, so the load is correlated over the full grid.  A workspace for
    # two stacked blocks sweeps each as the plan sweeps it alone
    from nlhj import harness
    dom = Domain((-1.0,) * dim, (1.0,) * dim)
    k = fractional_laplacian_kernel(alpha, dim)
    out = []
    for fft in (operators._pocketfft, operators._PUBLIC_FFT):
        monkeypatch.setattr(operators, "_pocketfft", fft)
        harness._last_plan.cache_clear()    # a plan binds its transforms
        plan = harness.discretize(dom, k, h, 2.0)
        g = plan.grid
        load = plan.exterior_load(np.sin(3.0 * g.exterior_points.sum(axis=1)))
        E = np.random.default_rng(dim).normal(size=(2, len(g.core_flat)))
        alone = [plan.apply(e, e - 0.25, load) for e in E]
        both = plan.apply(E.reshape((2,) + plan.core_shape),
                          (E - 0.25).ravel(), np.tile(load, 2),
                          work=plan.workspace(2))
        assert both.tobytes() == b"".join(a.tobytes() for a in alone)
        out.append((load.tobytes(), both.tobytes()))
    assert out[0] == out[1]


@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_ball_kappa_matches_the_adaptive_oracle(alpha):
    # I(w) = -kappa inside the unit ball for w = (1 - x^2)_+^(alpha/2); in
    # 1-D kappa = pi / sin(pi alpha / 2)
    kappa = ball_kappa(alpha)
    assert kappa == pytest.approx(np.pi / np.sin(np.pi * alpha / 2),
                                  rel=1e-14)
    k = fractional_laplacian_kernel(alpha, 1)
    w = lambda x: max(1.0 - x * x, 0.0) ** (alpha / 2)
    for x in (0.0, 0.3):
        grad = -alpha * x * (1.0 - x * x) ** (alpha / 2 - 1)
        val = operator_oracle_1d(w, x, k, points=[-1.0, 1.0], grad=grad)
        assert val == pytest.approx(-kappa, abs=1e-7)
