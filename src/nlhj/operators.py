"""Nonlocal operator evaluation: the scheme's sweep and the single-node
reference.

The generalized Dirichlet condition enters through one rule,
:func:`envelope`: a neighbour read at a boundary-trace node sees the upper
envelope max(u, phi) of the core value and the datum.  A :class:`Field`
spreads core values over the full grid by that rule, with the exterior
datum at the field's time beyond the domain; :func:`eval_operator` reads
it.

The time stepper's hot path is a :class:`SweepPlan`: it evaluates the
operator at every core node as one FFT correlation of the core block plus a
cached exterior load, and it is the only place that samples the datum
beyond the one-node ring around the core (only for a datum that varies in
space).  Its stencil is the quadrature's dense weight table plus the
near-field and compensator taps.  :func:`eval_operator` is the independent
single-node evaluation that the sweep is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property, lru_cache
from types import SimpleNamespace

import numpy as np

from . import kernels
from .errors import NodeOutsideGrid
from .geometry import Grid
from .kernels import QuadratureTable


def envelope(grid: Grid, u: np.ndarray, phi_trace) -> np.ndarray:
    """Core values ``u`` (in ``core_flat`` order) with the upper envelope
    max(u, phi) at the trace nodes, for the datum ``phi_trace`` there: what
    the operator, the difference quotients, snapshots and :class:`Field`
    read, as a copy of ``u``.  :func:`bind_envelope` writes the same values
    into a solver state's padded block."""
    E = u.copy()
    E[grid.trace_pos] = np.maximum(u[grid.trace_pos], phi_trace)
    return E


def bind_envelope(plan: "SweepPlan", u: np.ndarray, phi_trace: np.ndarray,
                  block: np.ndarray):
    """:func:`envelope` of the arrays ``u`` and ``phi_trace`` as they hold
    at each call of the function returned, written into the interior of
    the padded ``block``, which it returns.  The arrays stack the rows of a
    batch on ``plan``: ``u`` and ``phi_trace`` flat, row after row, and
    ``block`` along a leading axis.  The trace values are formed in the
    plan's scratch and written through their flat positions in the block
    (see :meth:`SweepPlan.workspace`), as an indexed write into the
    strided 2-D interior takes numpy scratch."""
    E, flat = block[(Ellipsis,) + plan.inner], block.reshape(-1)
    core = u.reshape(E.shape)
    trace_pos, at, top = plan.workspace(len(block))[3]
    maximum = np.maximum

    def fill():
        E[...] = core
        # (axis, out, mode) passed by position, which costs less; mode
        # "raise" would buffer out
        u.take(trace_pos, None, top, "clip")
        maximum(top, phi_trace, out=top)
        flat[at] = top
        return E
    return fill


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
    ``points``: each coordinate as ``%.17g``, followed by a tab.  Each
    distinct value is formatted once, values being distinct by their bits,
    so that -0.0 keeps its own string."""
    bits = np.ascontiguousarray(points, dtype=float).view(np.uint64)
    keys, inverse = np.unique(bits, return_inverse=True)
    text = ["%.17g\t" % v for v in keys.view(float).tolist()]
    cols = [[text[i] for i in col]
            for col in inverse.reshape(bits.shape).T.tolist()]
    return ["".join(row) for row in zip(*cols)]


def row_template(prefixes: list) -> str:
    """A text table's rows as one format string: per row its prefix (see
    :func:`row_prefixes`), a ``%.17g`` slot for the row's value and a
    newline.  ``template % tuple(values)`` formats the whole table in one
    call, byte for byte as each row on its own."""
    return "".join([p + "%.17g\n" for p in prefixes])


def save_field(grid: Grid, values: np.ndarray, t: float, path, alpha: float,
               template: str):
    """Write core node coordinates and ``values`` (in ``core_flat`` order)
    as a text table with a metadata header, in one format call.
    ``template`` is the core points' :func:`row_template`, which a run
    builds once for all its snapshots."""
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


def _transform_outputs(spectrum: tuple, shape: tuple, rows: int) -> tuple:
    """Arrays for :func:`_correlation`'s transforms to ``shape`` whose half
    spectrum has the shape ``spectrum``: that spectrum; in 2-D a zero-filled
    array like it, the forward column transforms' input, and a second array
    like it, the inverse column transforms' output; and the inverse
    transform's real output.  Each has a leading axis of ``rows``, one set
    of transforms per batch row."""
    two = len(shape) == 2
    spectrum = (rows,) + tuple(spectrum)
    return (np.empty(spectrum, dtype=complex),
            np.zeros(spectrum, dtype=complex) if two else None,
            np.empty(spectrum, dtype=complex) if two else None,
            np.empty((rows,) + tuple(shape)))


# the gufuncs that np.fft.rfft, fft, ifft and irfft wrap (numpy >= 2.0),
# called as those wrappers call them: along one axis, the last one unless
# ``axes`` names another (the columns, axis -2, of a 2-D block and of a
# batch of them), scaled by 1 forward and 1/n backward, with n fixed by the
# output's length.  Their argument handling costs as much as the transforms
# of a few hundred points.
_COLUMNS, _LAST = [(-2,), (), (-2,)], [(-1,), (), (-1,)]


def _wrapped(name: str, n_of_out):
    """``np.fft.<name>`` called as the gufunc it wraps, (a, fct, axes, out).
    The wrapper derives the same ``fct`` from the transform length,
    ``n_of_out`` of the output's length along the axis, and calls that
    gufunc: the same bytes, plus the wrapper's argument handling."""
    wrapper = getattr(np.fft, name)

    def call(a, fct, axes=_LAST, out=None):
        axis = axes[0][0]
        # the gufunc broadcasts one row over the rows of out; the wrapper
        # takes it with their axis
        if a.ndim < out.ndim:
            a = a[None]
        return wrapper(a, n_of_out(out.shape[axis]), axis, out=out)
    return call


_PUBLIC_FFT = SimpleNamespace(
    rfft_n_even=_wrapped("rfft", lambda m: 2 * (m - 1)),
    rfft_n_odd=_wrapped("rfft", lambda m: 2 * m - 1),
    fft=_wrapped("fft", int), ifft=_wrapped("ifft", int),
    irfft=_wrapped("irfft", int))

try:
    from numpy.fft import _pocketfft_umath as _pocketfft
except ImportError:     # a numpy that moved its private module
    _pocketfft = _PUBLIC_FFT


def _correlation(spec: np.ndarray, shape: tuple, box: tuple, keep: tuple,
                 work: tuple):
    """The correlation with spectrum ``spec`` of an array of shape ``box``
    zero-padded to ``shape``, at the nodes selected by ``keep`` (slices), as
    a function ``correlate(a, add, out)``: it writes the correlation of
    ``a`` plus ``add`` into ``out``, one value per kept node in C order, and
    returns ``out``.  The transforms run axis by axis, as np.fft.rfftn and
    irfftn do, into ``work`` (see :func:`_transform_outputs`), whose leading
    axis stacks the rows: ``a`` stacks that many arrays of shape ``box``
    along it (one array may come without that axis), each correlated on its own
    with the same transforms, ``spec`` is stacked alike, and ``add`` and
    ``out`` hold the rows one after the other.  What does not change from
    call to call is settled here: the rfft gufunc for the length's parity,
    the axes (the last one, the default, except for the 2-D column
    transforms), the scale factors (as arrays, which a gufunc reads without
    converting a Python number on every call), the views of ``work`` and
    the 1-D or 2-D form.

    In 2-D both passes are pruned, with the same transforms on the same
    numbers: the row transforms of ``a`` fill the first ``box[0]`` rows of
    the zero-filled forward array, whose other rows stay zero, so the
    column transforms read it in full instead of padding each column; and
    the inverse row transforms run only on the rows ``keep`` selects."""
    spectrum, padded, spare, real = work
    rfft = _pocketfft.rfft_n_odd if shape[-1] % 2 else _pocketfft.rfft_n_even
    irfft = _pocketfft.irfft
    one = np.array(1.0)
    if len(shape) == 1:
        scale, add_, copyto = np.array(1 / shape[0]), np.add, np.copyto
        # the kept nodes of the rows, packed one after the other from those
        # of the first row, which are in place: numpy sums contiguous arrays
        # in place, where it would buffer strided rows
        kept = [row[keep[0]] for row in real]
        n, start = len(kept[0]), keep[0].start
        packed = real.reshape(-1)[start:start + len(kept) * n]
        moves = [(packed[r * n:(r + 1) * n], row)
                 for r, row in enumerate(kept)][1:]

        def correlate(a, add, out):
            prod = rfft(a, one, out=spectrum)
            prod *= spec
            irfft(prod, scale, out=real)
            for to, row in moves:
                copyto(to, row)
            return add_(packed, add, out)
        return correlate

    fft, ifft = _pocketfft.fft, _pocketfft.ifft
    col_scale, row_scale = np.array(1 / shape[0]), np.array(1 / shape[1])
    rows, stacked = keep[0], (len(real),) + tuple(box)
    head, cols = padded[..., :box[0], :], spare[..., rows, :]
    real_rows = real[..., rows, :]
    kept = real_rows[..., keep[1]]

    def correlate(a, add, out):
        rfft(a.reshape(stacked), one, out=head)
        prod = fft(padded, one, axes=_COLUMNS, out=spectrum)
        prod *= spec
        ifft(prod, col_scale, axes=_COLUMNS, out=spare)
        irfft(cols, row_scale, out=real_rows)
        # a copy, as numpy would buffer the strided view in a sum
        np.copyto(out.reshape(kept.shape), kept)
        out += add
        return out
    return correlate


def _correlation_spectrum(taps: np.ndarray, shape: tuple) -> np.ndarray:
    """``spec`` for which :func:`_correlation` gives sum_z taps[z] a[x + z];
    ``taps`` is centred (odd length 2k + 1 per axis).  Along an axis of
    length 2k the taps at -k and +k fall on one residue: only the one at +k
    is placed, which the caller has checked equals the other."""
    padded = np.zeros(shape)
    idx, kept = [], []
    for m, n in zip(taps.shape, shape):
        k = m // 2
        lo = -k if m <= n else 1 - k
        idx.append(np.arange(lo, k + 1) % n)
        kept.append(slice(lo + k, None))
    padded[np.ix_(*idx)] = taps[tuple(kept)]
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

    where corr is a zero-padded FFT correlation of length ``core_fft`` per
    axis whose kernel spectrum is built here, and ``load`` (see
    :meth:`exterior_load`) collects the jumps that leave the core, tail
    included.  The transforms run in arrays the plan holds, one set per
    number of stacked blocks (:meth:`workspace`).  In 2-D they are pruned
    (see :func:`_correlation`): the forward array stays zero beyond the
    core block's rows, and only those rows are inverted.

    The one-sided differences read a state's block: the core block
    (``inner`` in it) padded by one node per side, the ring (``ring_points``,
    at flat positions ``ring_pos``).  ``trace_block_pos`` holds the flat
    positions in the block of the trace nodes, which :func:`envelope`
    writes.  ``shifts[a]`` holds the backward and forward neighbours along
    axis a of the core nodes.
    """

    grid: Grid
    qt: QuadratureTable
    diag: np.ndarray = dfield(init=False)
    exit_mass: np.ndarray = dfield(init=False, repr=False)
    core_shape: tuple = dfield(init=False)
    core_box: tuple = dfield(init=False, repr=False)
    core_fft: tuple = dfield(init=False)
    ring_points: np.ndarray = dfield(init=False, repr=False)
    ring_pos: np.ndarray = dfield(init=False, repr=False)
    trace_block_pos: np.ndarray = dfield(init=False, repr=False)
    inner: tuple = dfield(init=False, repr=False)
    shifts: tuple = dfield(init=False, repr=False)
    _stencil: np.ndarray = dfield(init=False, repr=False)
    _box_start: tuple = dfield(init=False, repr=False)
    _core_spec: np.ndarray = dfield(init=False, repr=False)
    _workspaces: dict = dfield(init=False, repr=False, default_factory=dict)
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
        # a 0-d array, which apply's multiply reads without converting a
        # Python number on every call
        self.diag = np.array(qt.sum_w + 2.0 * float(c.sum()) + qt.tail_mass)

        # inside the core a jump spans at most n_core per axis: truncate the
        # stencil there and pad so the circular wrap never reaches the box.
        # Where the taps span the core (K = n_core) and are symmetric along
        # the axis, 2 n_core suffices: the taps at +n_core and -n_core share
        # one residue and are equal, and each links only the box's two end
        # nodes, so one tap there serves both ends
        K = tuple(min(J, n) for n in g.n_core)
        taps = S[tuple(slice(J - k, J + k + 1) for k in K)]
        self._box_start = tuple(slice(0, m) for m in box)
        self.core_fft = tuple(
            _fft_length(2 * n if k == n and np.array_equal(
                taps, np.flip(taps, a)) else n + k + 1)
            for a, (n, k) in enumerate(zip(g.n_core, K)))
        self._core_spec = _correlation_spectrum(taps, self.core_fft)
        # the halo holds every landing point of a jump from the core
        self._full_fft = tuple(_fft_length(n) for n in g.shape)
        # stencil mass of the jumps that leave the core, tail included: the
        # load of a unit constant datum
        sweep = self.workspace()[0]
        inside = sweep(np.ones(box), 0.0, np.empty(len(g.core_flat)))
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

    @cached_property
    def _full_load(self) -> tuple:
        """:meth:`exterior_load`'s array of the full grid, whose core nodes
        stay zero (only exterior nodes are ever written), and its
        correlation into transform outputs of its own: held from the first
        datum that varies in space."""
        g = self.grid
        work = _transform_outputs(self._full_spec.shape, self._full_fft, 1)
        return np.zeros(g.size), _correlation(self._full_spec, self._full_fft,
                                              g.shape, self.core_box, work)

    def exterior_sample(self, varies_in_space: bool) -> np.ndarray:
        """The exterior nodes a datum is read at: all of them, or for a datum
        constant in space one node of the ring, whose value stands for all."""
        return (self.grid.exterior_points if varies_in_space
                else self.ring_points[:1])

    def exterior_load(self, ext: np.ndarray, out=None) -> np.ndarray:
        """Per core node, the stencil terms whose jump leaves the core, plus
        the tail against the constant continuation, for the datum values
        ``ext`` at :meth:`exterior_sample`, written into ``out`` where
        given.  It changes only when the datum does.  A datum constant in
        space is its one sampled value and needs no transform (the common
        case); one that varies in space is correlated over the full grid,
        in arrays the plan holds."""
        if len(ext) == 1:
            return np.multiply(ext[0], self.exit_mass, out=out)
        if out is None:
            out = np.empty(len(self.exit_mass))
        E, correlate = self._full_load
        E[self.grid.exterior_flat] = ext
        return correlate(E, self.qt.tail_sides @ _tail_values(self.grid, E),
                         out)

    def workspace(self, rows: int = 1) -> tuple:
        """What a batch of ``rows`` core blocks stacked along a leading axis
        binds, held per ``rows`` and shared by every caller: the ``work``
        of :meth:`apply`, that is a correlation into transform outputs of
        its own, with the kernel spectrum stacked alike, the part of its
        real output that apply may spend, and those transform outputs (see
        :func:`_transform_outputs`); then, for :func:`bind_envelope`, the
        flat positions of every row's trace nodes in the rows' core values
        and in their padded blocks, with scratch for the trace values.  The
        scratch is spent within one call, and the positions never change."""
        work = self._workspaces.get(rows)
        if work is None:
            g, n = self.grid, len(self.grid.core_flat)
            spec = np.tile(self._core_spec, (rows,) + (1,) * g.dim)
            out = _transform_outputs(self._core_spec.shape, self.core_fft,
                                     rows)
            # a block holds the core nodes and the ring
            trace_pos, at = (np.add.outer(np.arange(rows) * size, pos).ravel()
                             for size, pos in ((n, g.trace_pos),
                                               (n + len(self.ring_pos),
                                                self.trace_block_pos)))
            work = self._workspaces[rows] = (
                _correlation(spec, self.core_fft, self.core_shape,
                             self._box_start, out),
                out[3].reshape(-1)[:rows * n], out,
                (trace_pos, at, np.empty(len(trace_pos))))
        return work

    def apply(self, E: np.ndarray, centers: np.ndarray, load: np.ndarray,
              out=None, work=None) -> np.ndarray:
        """Operator values at every core node (interior + trace), in
        ``core_flat`` order, for the core values ``E`` in that order.

        ``E`` may have the core block's shape instead.  ``centers`` supplies
        the value subtracted at the evaluated node (the solver passes the raw
        solution there); ``load`` is :meth:`exterior_load` of the datum.  The
        result is written into ``out``, an array of one value per core node
        that belongs to the caller (a solver state), or else into a new
        array; it is never a view of the plan's scratch.  The transforms
        run in ``work`` from :meth:`workspace`, for as many blocks as it
        stacks (one without ``work``): ``E`` stacks them along a leading
        axis and ``centers``, ``load`` and ``out`` hold their values one
        block after the other.
        """
        if out is None:
            out = np.empty(centers.shape)
        correlate, spent, _, _ = work or self.workspace()
        correlate(E, load, out)
        # the inverse transform's output is spent: it takes diag * centers
        out -= np.multiply(self.diag, centers, spent)
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
