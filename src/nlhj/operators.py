"""Nonlocal operator evaluation: the scheme's sweep, the single-node
reference, and the scheme residual.

The generalized Dirichlet condition enters through one rule,
:func:`envelope`: a neighbour read at a boundary-trace node sees the upper
envelope max(u, phi) of the core value and the datum.  A :class:`Field`
spreads core values over the full grid by that rule, with the exterior
datum at the field's time beyond the domain; it backs the single-node
references.

The time stepper's hot path is a :class:`SweepPlan`: it evaluates the
operator at every core node as one FFT correlation of the core block plus a
cached exterior load, and it is the only place that samples the datum
beyond the one-node ring around the core (only for a datum that varies in
space).  Its stencil is the quadrature's dense weight table plus the
near-field and compensator taps.  :func:`eval_operator` is the independent
single-node evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property, lru_cache

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from . import kernels
from .errors import NodeOutsideGrid
from .geometry import Grid
from .kernels import QuadratureTable


def envelope(grid: Grid, u: np.ndarray, phi_trace, out=None) -> np.ndarray:
    """Core values ``u`` (in ``core_flat`` order) with the upper envelope
    max(u, phi) at the trace nodes, for the datum ``phi_trace`` there: what
    the operator, the difference quotients, snapshots and :class:`Field`
    read.  Returns a copy of ``u``, or fills a solver state's padded block
    and returns its interior: ``out`` = (interior, the block flat, the
    trace nodes' positions there, an array per trace node).  The trace
    values are formed in the last and written through flat positions, as
    an indexed write into the strided 2-D interior takes numpy scratch."""
    if out is None:
        E = u.copy()
        E[grid.trace_pos] = np.maximum(u[grid.trace_pos], phi_trace)
        return E
    E, flat, at, top = out
    E[...] = u if u.shape == E.shape else u.reshape(E.shape)
    # (axis, out, mode) passed by position, which costs less; mode "raise"
    # would buffer out
    u.take(grid.trace_pos, None, top, "clip")
    np.maximum(top, phi_trace, out=top)
    flat[at] = top
    return E


class Field:
    """Core values ``u`` on the full grid at time ``t``: ``values`` holds
    them at interior nodes, their :func:`envelope` with the datum ``phi`` at
    trace nodes, and the datum at exterior nodes."""

    def __init__(self, grid: Grid, u: np.ndarray, phi, t: float = 0.0):
        self.grid = grid
        vals = np.empty(grid.size)
        vals[grid.core_flat] = envelope(grid, np.asarray(u, dtype=float),
                                        phi(grid.trace_points, t))
        vals[grid.exterior_flat] = phi(grid.exterior_points, t)
        if not np.all(np.isfinite(vals)):
            raise ValueError("field contains non-finite values")
        self.values = vals


def _tail_values(g: Grid, values: np.ndarray) -> np.ndarray:
    """Field values representing the constant continuation beyond r_max.

    1-D: the two outermost stored nodes (left, right).  2-D: the mean of the
    outermost shell, returned as a single entry.
    """
    if g.dim == 1:
        return np.array([values[0], values[-1]])
    v = values.reshape(g.shape)
    shell = np.concatenate([v[0, :], v[-1, :], v[1:-1, 0], v[1:-1, -1]])
    return np.array([shell.mean()])


def row_prefixes(points: np.ndarray) -> list:
    """The leading columns of a text table's rows, one per row of
    ``points``: each coordinate as ``%.17g``, followed by a tab."""
    row = "%.17g\t" * points.shape[1]
    return [row % tuple(p) for p in points.tolist()]


def row_template(prefixes: list, columns: str = "") -> str:
    """A text table's rows as one format string: per row its prefix (see
    :func:`row_prefixes`), ``columns`` as they stand (formatted numbers,
    no ``%``), a ``%.17g`` slot for the row's value and a newline.
    ``template % tuple(values)`` formats the whole table in one call, byte
    for byte as each row on its own."""
    row = columns + "%.17g\n"
    return "".join([p + row for p in prefixes])


def save_field(grid: Grid, values: np.ndarray, t: float, path, alpha: float,
               template: str | None = None):
    """Write core node coordinates and ``values`` (in ``core_flat`` order)
    as a text table with a metadata header, in one format call.
    ``template`` is the core points' :func:`row_template`, which a run
    builds once for all its snapshots."""
    if template is None:
        template = row_template(row_prefixes(grid.core_points))
    with open(path, "w") as fh:
        fh.write(f"# t={float(t):.17g} h={grid.h:.17g} alpha={alpha:.17g}\n")
        fh.write(template % tuple(np.asarray(values, dtype=float).tolist()))


# ---------------------------------------------------------------------------
# full-grid sweep (hot path)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _fft_length(n: int) -> int:
    """Smallest 5-smooth integer >= n: FFT lengths with only the factors
    2, 3 and 5 run several times faster than lengths with a large prime."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _transform_outputs(spectrum: tuple, shape: tuple) -> tuple:
    """Arrays for :func:`_correlate`'s transforms to ``shape`` whose half
    spectrum has the shape ``spectrum``: that spectrum; in 2-D a zero-filled
    array like it, the forward column transforms' input, and a second array
    like it, the inverse column transforms' output; and the inverse
    transform's real output."""
    two = len(shape) == 2
    return (np.empty(spectrum, dtype=complex),
            np.zeros(spectrum, dtype=complex) if two else None,
            np.empty(spectrum, dtype=complex) if two else None,
            np.empty(shape))


# the gufuncs that np.fft.rfft, fft, ifft and irfft wrap (numpy >= 2.0),
# called as those wrappers call them: along one axis, scaled by 1 forward
# and 1/n backward, with n fixed by the output's length.  Their argument
# handling costs as much as the transforms of a few hundred points.
_ALONG = ([(0,), (), (0,)], [(1,), (), (1,)])


def _correlate(a: np.ndarray, spec: np.ndarray, shape: tuple, keep: tuple,
               work: tuple | None = None) -> np.ndarray:
    """The correlation with spectrum ``spec`` of ``a`` zero-padded to
    ``shape``, at the nodes selected by ``keep`` (slices): a view of the
    inverse transform's output.  The transforms run axis by axis, as
    np.fft.rfftn and irfftn do, into ``work`` (see
    :func:`_transform_outputs`), which is allocated when not given.

    In 2-D both passes are pruned, with the same transforms on the same
    numbers: the row transforms of ``a`` fill the first ``len(a)`` rows of
    the zero-filled forward array, whose other rows stay zero, so the
    column transforms read it in full instead of padding each column; and
    the inverse row transforms run only on the rows ``keep`` selects."""
    spectrum, padded, spare, real = work or _transform_outputs(spec.shape,
                                                               shape)
    last = _ALONG[len(shape) - 1]
    rfft = _pocketfft.rfft_n_odd if shape[-1] % 2 else _pocketfft.rfft_n_even
    if len(shape) == 1:
        prod = rfft(a, 1, axes=last, out=spectrum)
        prod *= spec
        return _pocketfft.irfft(prod, 1 / shape[0], axes=last, out=real)[keep]
    rfft(a, 1, axes=last, out=padded[:len(a)])
    prod = _pocketfft.fft(padded, 1, axes=_ALONG[0], out=spectrum)
    prod *= spec
    cols = _pocketfft.ifft(prod, 1 / shape[0], axes=_ALONG[0], out=spare)
    rows = keep[0]
    return _pocketfft.irfft(cols[rows], 1 / shape[1], axes=last,
                            out=real[rows])[:, keep[1]]


def _correlation_spectrum(taps: np.ndarray, shape: tuple) -> np.ndarray:
    """``spec`` for which :func:`_correlate` gives sum_z taps[z] a[x + z];
    ``taps`` is centred (odd length per axis)."""
    padded = np.zeros(shape)
    idx = [np.arange(-(m // 2), m // 2 + 1) % n for m, n in zip(taps.shape, shape)]
    padded[np.ix_(*idx)] = taps
    return np.conj(np.fft.rfftn(padded))


@dataclass
class SweepPlan:
    """The scheme's operator on one grid and quadrature table, evaluated as
    one translation-invariant lattice stencil, plus the layout of what the
    solver reads beyond the unknowns.

    Every term linear in the extension array E (far weights, near-field
    second differences, compensator) is a dense stencil S on offsets
    ``|z_a| <= J``.  Split E into the core block (interior and trace nodes,
    a box of ``n_core + 1`` nodes per axis) and the exterior datum; then at
    each core node

        out = corr(E_core, S) + load - (sum_w + 2 sum_a c_a + tail_mass) * center

    where corr is a zero-padded FFT correlation whose kernel spectrum is
    built here, and ``load`` (see :meth:`exterior_load`) collects the jumps
    that leave the core, tail included.  The plan holds the transforms'
    arrays, which its states share; in 2-D the transforms are pruned (see
    :func:`_correlate`): the forward array stays zero beyond the core
    block's rows, and only those rows are inverted.

    The one-sided differences read a state's block: the core block
    (``inner`` in it) padded by one node per side, the ring (``ring_points``,
    at flat positions ``ring_pos``).  ``trace_block_pos`` holds the flat
    positions in the block of the trace nodes, which :func:`envelope`
    writes.  ``shifts[a]`` holds the backward and forward neighbours along
    axis a of the core nodes.
    """

    grid: Grid
    qt: QuadratureTable
    diag: float = dfield(init=False)
    exit_mass: np.ndarray = dfield(init=False, repr=False)
    core_shape: tuple = dfield(init=False)
    core_box: tuple = dfield(init=False, repr=False)
    ring_points: np.ndarray = dfield(init=False, repr=False)
    ring_pos: np.ndarray = dfield(init=False, repr=False)
    trace_block_pos: np.ndarray = dfield(init=False, repr=False)
    inner: tuple = dfield(init=False, repr=False)
    shifts: tuple = dfield(init=False, repr=False)
    _stencil: np.ndarray = dfield(init=False, repr=False)
    _box_start: tuple = dfield(init=False, repr=False)
    _core_fft: tuple = dfield(init=False, repr=False)
    _core_spec: np.ndarray = dfield(init=False, repr=False)
    _scratch: tuple = dfield(init=False, repr=False)
    _spent: np.ndarray = dfield(init=False, repr=False)
    _full_fft: tuple = dfield(init=False, repr=False)

    def __post_init__(self):
        g, qt = self.grid, self.qt
        if qt.dim != g.dim:
            raise ValueError("quadrature dimension does not match the grid")
        J = qt.J
        if g.halo < J:
            raise ValueError(f"grid halo {g.halo} too small for offsets (need {J})")
        box = self.core_shape = tuple(n + 1 for n in g.n_core)
        self.core_box = tuple(slice(g.halo, g.halo + m) for m in box)
        inner = self.inner = (slice(1, -1),) * g.dim
        ring = np.ones(tuple(m + 2 for m in box), dtype=bool)
        ring[inner] = False
        self.ring_pos = np.flatnonzero(ring)
        at = np.unravel_index(self.ring_pos, ring.shape)
        self.ring_points = g.points_at(np.ravel_multi_index(
            tuple(i + g.halo - 1 for i in at), g.shape))
        self.ring_points.setflags(write=False)
        self.trace_block_pos = np.ravel_multi_index(
            tuple(i + 1 for i in np.unravel_index(g.trace_pos, box)),
            ring.shape)
        self.shifts = tuple(tuple(inner[:a] + (s,) + inner[a + 1:]
                                  for s in (slice(None, -2), slice(2, None)))
                            for a in range(g.dim))

        S = qt.weights.copy()
        c = qt.nf_axis / (2.0 * qt.h ** 2)
        use_comp = qt.alpha >= 1 and np.abs(qt.m1).max(initial=0) > 1e-15
        comp = qt.m1 / (2.0 * qt.h) if use_comp else np.zeros(g.dim)
        for a, e in enumerate(np.eye(g.dim, dtype=int)):
            S[tuple(J + e)] += c[a] - comp[a]
            S[tuple(J - e)] += c[a] + comp[a]
        self._stencil = S
        self.diag = qt.sum_w + 2.0 * float(c.sum()) + qt.tail_mass

        # inside the core a jump spans at most n_core per axis: truncate the
        # stencil there and pad so the circular wrap never reaches the box
        K = tuple(min(J, n) for n in g.n_core)
        self._box_start = tuple(slice(0, m) for m in box)
        self._core_fft = tuple(_fft_length(m + k) for m, k in zip(box, K))
        self._core_spec = _correlation_spectrum(
            S[tuple(slice(J - k, J + k + 1) for k in K)], self._core_fft)
        # apply's transform outputs, shared by its states
        self._scratch = _transform_outputs(self._core_spec.shape,
                                           self._core_fft)
        self._spent = self._scratch[3].reshape(-1)[:len(g.core_flat)]
        # the halo holds every landing point of a jump from the core
        self._full_fft = tuple(_fft_length(n) for n in g.shape)
        # stencil mass of the jumps that leave the core, tail included: the
        # load of a unit constant datum
        inside = _correlate(np.ones(box), self._core_spec, self._core_fft,
                            self._box_start).ravel()
        self.exit_mass = S.sum() - inside + qt.tail_mass

    @cached_property
    def exterior_mass(self) -> np.ndarray:
        """Per core node, the kernel mass over the complement of the domain,
        which the (H2) and (H2') certificates read: the far weights whose
        jump does not land on a strictly interior node (trace nodes count as
        exterior), plus the tail, summed over the core box by prefix sums
        (:func:`kernels.exterior_mass_many`)."""
        return kernels.exterior_mass_many(self.qt, self.grid.n_core)

    @cached_property
    def _full_spec(self) -> np.ndarray:
        return _correlation_spectrum(self._stencil, self._full_fft)

    def exterior_load(self, ext: np.ndarray, out=None) -> np.ndarray:
        """Per core node, the stencil terms whose jump leaves the core, plus
        the tail against the constant continuation, for the datum values
        ``ext`` at ``grid.exterior_points`` (or one value, for a datum
        constant in space), written into ``out`` where given.  It changes
        only when the datum does."""
        if len(ext) == 1 or np.all(ext == ext[0]):
            # a constant datum needs no transform (the common case)
            return np.multiply(ext[0], self.exit_mass, out=out)
        # the datum on the full grid with a zero core, only while it is read
        g = self.grid
        E = np.zeros(g.size)
        E[g.exterior_flat] = ext
        load = _correlate(E.reshape(g.shape), self._full_spec, self._full_fft,
                          self.core_box).ravel()
        return np.add(load, self.qt.tail_sides @ _tail_values(g, E), out=out)

    def apply(self, E: np.ndarray, centers: np.ndarray, load: np.ndarray,
              out=None) -> np.ndarray:
        """Operator values at every core node (interior + trace), in
        ``core_flat`` order, for the core values ``E`` in that order.

        ``E`` may have the core block's shape instead.  ``centers`` supplies
        the value subtracted at the evaluated node (the solver passes the raw
        solution there); ``load`` is :meth:`exterior_load` of the datum.  The
        result is written into ``out``, an array of one value per core node
        that belongs to the caller (a solver state), or else into a new
        array; it is never a view of the plan's scratch.
        """
        if E.shape != self.core_shape:
            E = E.reshape(self.core_shape)
        corr = _correlate(E, self._core_spec, self._core_fft, self._box_start,
                          self._scratch)
        if out is None:
            out = np.empty(centers.shape)
        if corr.ndim == 1:
            np.add(corr, load, out)
        else:
            # a copy, as numpy would buffer the strided view in a sum
            np.copyto(out.reshape(corr.shape), corr)
            out += load
        # the inverse transform's output is spent: it takes diag * centers
        out -= np.multiply(self.diag, centers, self._spent)
        return out


# ---------------------------------------------------------------------------
# single-node evaluation
# ---------------------------------------------------------------------------

def _locate(f: Field, x) -> int:
    try:
        return int(f.grid.flat_index_of(x))
    except ValueError as e:
        raise NodeOutsideGrid(str(e))


def eval_operator(f: Field, x, p, qt: QuadratureTable) -> float:
    """The truncated operator I(f, x, p) on the lattice, over all offsets.

    The compensator <p, z> acts on offsets inside the unit ball and only for
    alpha >= 1; for alpha < 1 it is omitted and p has no effect.  The near
    field (second-difference form) and the tail complete the sum.
    """
    g = f.grid
    flat = _locate(f, x)
    idx = np.unravel_index(flat, g.shape) if g.dim == 2 else (flat,)
    J = qt.J
    for a, i in enumerate(np.atleast_1d(idx)):
        if i - J < 0 or i + J >= g.shape[a]:
            raise NodeOutsideGrid(f"offsets from {x} leave the stored block")
    p = np.zeros(g.dim) if p is None else np.atleast_1d(np.asarray(p, dtype=float))
    E = f.values
    center = float(E[flat])

    nz = np.argwhere(qt.weights)
    w, off = qt.weights[tuple(nz.T)], nz - J
    acc = float(np.dot(w, E[flat + off @ g.strides]) - w.sum() * center)
    if qt.alpha >= 1:
        z = off * qt.h
        in_ball = np.linalg.norm(z, axis=1) <= 1.0 + 1e-14
        acc -= float((w[in_ball, None] * z[in_ball]).sum(axis=0) @ p)
        for a, s in enumerate(g.strides):
            c = qt.nf_axis[a] / (2.0 * qt.h ** 2)
            if c != 0.0:
                acc += c * (E[flat + s] - 2.0 * center + E[flat - s])
    if qt.tail_mass > 0.0:
        tv = _tail_values(g, f.values)
        if g.dim == 1:
            acc += qt.tail_sides[0] * (tv[0] - center)
            acc += qt.tail_sides[1] * (tv[1] - center)
        else:
            acc += qt.tail_mass * (tv[0] - center)
    return acc


def scheme_evaluation(f: Field, x, t: float, dt_slot: float, p, ham_spec,
                      qt: QuadratureTable, p_minus=None, p_plus=None,
                      sigma=None, center=None) -> float:
    """Scheme residual dt_slot - I(f, x, p) + H(x, t, f(x), p).

    The continuous evaluation splits the operator at a ball of radius delta;
    on the lattice both parts reduce to the same quadrature, so no split is
    made here.  When the one-sided pair (p_minus, p_plus) is given the monotone numerical
    Hamiltonian is used instead of the pointwise one (pass the solver's
    sigma for the exact stepping residual); ``center`` overrides the value
    subtracted/fed at the node, matching the solver's raw-center reads.
    """
    from .hamiltonians import eval_hamiltonian, numerical_hamiltonian

    flat = _locate(f, x)
    op = eval_operator(f, x, p, qt)
    r = float(f.values[flat]) if center is None else float(center)
    if center is not None:
        # the operator subtracted the envelope value at the node; shift the
        # difference terms to the raw center
        mass = qt.sum_w + qt.nf_axis.sum() / qt.h ** 2 + qt.tail_mass
        op += mass * (float(f.values[flat]) - r)
    xpt = f.grid.points_at(np.full(1, flat))[0]
    if p_minus is not None:
        hval = numerical_hamiltonian(ham_spec, xpt, t, r, p_minus, p_plus,
                                     sigma=sigma)
    else:
        hval = eval_hamiltonian(ham_spec, xpt, t, r, p)
    return dt_slot - op + hval
