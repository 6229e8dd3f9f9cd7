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
beyond the one-node ring around the core.  :func:`eval_operator` is the
independent single-node evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from functools import cached_property, lru_cache

import numpy as np

from . import kernels
from .errors import NodeOutsideGrid
from .geometry import Grid
from .kernels import QuadratureTable


def envelope(grid: Grid, u: np.ndarray, phi_trace, out=None) -> np.ndarray:
    """Core values ``u`` (in ``core_flat`` order) with the upper envelope
    max(u, phi) at the trace nodes, for the datum ``phi_trace`` there: what
    the operator, the difference quotients, snapshots and :class:`Field`
    read.  Returns a copy of ``u``, or fills ``out``, an array of the core
    block's shape such as the interior of a solver state's padded block."""
    if out is None:
        E, at = u.copy(), grid.trace_pos
    else:
        E, at = out, grid.trace_index
        E[...] = u.reshape(E.shape)
    E[at] = np.maximum(u[grid.trace_pos], phi_trace)
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


def save_field(grid: Grid, values: np.ndarray, t: float, path, alpha: float):
    """Write core node coordinates and ``values`` (in ``core_flat`` order)
    as a text table with a metadata header."""
    pts = grid.core_points
    cols = [pts[:, a] for a in range(grid.dim)] + [values]
    row = "\t".join(["%.17g"] * len(cols)) + "\n"
    with open(path, "w") as fh:
        fh.write(f"# t={float(t):.17g} h={grid.h:.17g} alpha={alpha:.17g}\n")
        fh.writelines(row % tuple(r) for r in np.column_stack(cols).tolist())


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


# numpy's 1-D transforms skip the n-D wrappers' per-call overhead; the 2-D
# one pads axis by axis, so it cannot write into a given array
def _rfft(a: np.ndarray, shape: tuple, out=None) -> np.ndarray:
    if len(shape) == 1:
        return np.fft.rfft(a, shape[0], out=out)
    return np.fft.rfft2(a, shape)


def _correlate(a: np.ndarray, spec: np.ndarray, shape: tuple, keep: tuple,
               out=(None, None)):
    """The correlation with spectrum ``spec`` of ``a`` zero-padded to
    ``shape``, at the nodes selected by ``keep``, flattened; ``out`` holds
    arrays for the transforms' output, of which the result may be a view."""
    prod = _rfft(a, shape, out[0])
    prod *= spec
    if len(shape) == 1:
        return np.fft.irfft(prod, shape[0], out=out[1])[keep].ravel()
    return np.fft.irfft2(prod, shape, out=out[1])[keep].ravel()


def _correlation_spectrum(taps: np.ndarray, shape: tuple) -> np.ndarray:
    """``spec`` for which :func:`_correlate` gives sum_z taps[z] a[x + z];
    ``taps`` is centred (odd length per axis)."""
    padded = np.zeros(shape)
    idx = [np.arange(-(m // 2), m // 2 + 1) % n for m, n in zip(taps.shape, shape)]
    padded[np.ix_(*idx)] = taps
    return np.conj(_rfft(padded, shape))


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
    that leave the core, tail included.

    The one-sided differences read a state's block: the core block
    (``inner`` in it) padded by one node per side, the ring (``ring_points``,
    at flat positions ``ring_pos``).  ``shifts[a]`` holds the backward and
    forward neighbours along axis a of the core nodes.
    """

    grid: Grid
    qt: QuadratureTable
    diag: float = dfield(init=False)
    exit_mass: np.ndarray = dfield(init=False, repr=False)
    core_shape: tuple = dfield(init=False)
    core_box: tuple = dfield(init=False, repr=False)
    ring_points: np.ndarray = dfield(init=False, repr=False)
    ring_pos: np.ndarray = dfield(init=False, repr=False)
    inner: tuple = dfield(init=False, repr=False)
    shifts: tuple = dfield(init=False, repr=False)
    _stencil: np.ndarray = dfield(init=False, repr=False)
    _box_start: tuple = dfield(init=False, repr=False)
    _core_fft: tuple = dfield(init=False, repr=False)
    _core_spec: np.ndarray = dfield(init=False, repr=False)
    _scratch: tuple = dfield(init=False, repr=False)
    _full_fft: tuple = dfield(init=False, repr=False)

    def __post_init__(self):
        g, qt = self.grid, self.qt
        if qt.dim != g.dim:
            raise ValueError("quadrature dimension does not match the grid")
        J = max(int(np.abs(qt.offsets).max(initial=0)), 1)
        if g.halo < J:
            raise ValueError(f"grid halo {g.halo} too small for offsets (need {J})")
        box = self.core_shape = tuple(n + 1 for n in g.n_core)
        self.core_box = tuple(slice(g.halo, g.halo + m) for m in box)
        flat = np.arange(g.size).reshape(g.shape)
        if not np.array_equal(flat[self.core_box].ravel(), g.core_flat):
            raise ValueError("core nodes do not form the box of interior and trace nodes")
        padded = flat[tuple(slice(g.halo - 1, g.halo + m + 1) for m in box)]
        ring = np.ones(padded.shape, dtype=bool)
        ring[(slice(1, -1),) * g.dim] = False
        self.ring_pos = np.flatnonzero(ring)
        self.ring_points = g.points_at(padded.ravel()[self.ring_pos])
        self.ring_points.setflags(write=False)
        inner = self.inner = (slice(1, -1),) * g.dim
        self.shifts = tuple(tuple(inner[:a] + (s,) + inner[a + 1:]
                                  for s in (slice(None, -2), slice(2, None)))
                            for a in range(g.dim))

        S = np.zeros((2 * J + 1,) * g.dim)
        S[tuple((qt.offsets + J).T)] = qt.weights
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
        # apply's transform output (see _rfft for 2-D), shared by its states
        self._scratch = (np.empty_like(self._core_spec) if g.dim == 1 else None,
                         np.empty(self._core_fft))
        # the halo holds every landing point of a jump from the core
        self._full_fft = tuple(_fft_length(n) for n in g.shape)
        # stencil mass of the jumps that leave the core, tail included: the
        # load of a unit constant datum
        inside = _correlate(np.ones(box), self._core_spec, self._core_fft,
                            self._box_start)
        self.exit_mass = S.sum() - inside + qt.tail_mass

    @cached_property
    def exterior_mass(self) -> np.ndarray:
        """Per core node, the kernel mass over the complement of the domain
        (:func:`kernels.exterior_mass_many`), which the (H2) and (H2')
        certificates read."""
        g = self.grid
        return kernels.exterior_mass_many(self.qt.kernel, g.domain,
                                          g.core_points, self.qt)

    @cached_property
    def _full_spec(self) -> np.ndarray:
        return _correlation_spectrum(self._stencil, self._full_fft)

    def exterior_load(self, ext: np.ndarray) -> np.ndarray:
        """Per core node, the stencil terms whose jump leaves the core, plus
        the tail against the constant continuation, for the datum values
        ``ext`` at ``grid.exterior_points`` (or one value, for a datum
        constant in space).  It changes only when the datum does."""
        if np.all(ext == ext[0]):
            # a constant datum needs no transform (the common case)
            return ext[0] * self.exit_mass
        # the datum on the full grid with a zero core, only while it is read
        g = self.grid
        E = np.zeros(g.size)
        E[g.exterior_flat] = ext
        load = _correlate(E.reshape(g.shape), self._full_spec, self._full_fft,
                          self.core_box)
        return load + self.qt.tail_sides @ _tail_values(g, E)

    def apply(self, E: np.ndarray, centers: np.ndarray,
              load: np.ndarray) -> np.ndarray:
        """Operator values at every core node (interior + trace), in
        ``core_flat`` order, for the core values ``E`` in that order.

        ``E`` may have the core block's shape instead.  ``centers`` supplies
        the value subtracted at the evaluated node (the solver passes the raw
        solution there); ``load`` is :meth:`exterior_load` of the datum.  The
        result is a new array, never a view of the plan's scratch.
        """
        out = _correlate(E.reshape(self.core_shape), self._core_spec,
                         self._core_fft, self._box_start, self._scratch) + load
        out -= self.diag * centers
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
    J = int(np.abs(qt.offsets).max(initial=0))
    for a, i in enumerate(np.atleast_1d(idx)):
        if i - J < 0 or i + J >= g.shape[a]:
            raise NodeOutsideGrid(f"offsets from {x} leave the stored block")
    p = np.zeros(g.dim) if p is None else np.atleast_1d(np.asarray(p, dtype=float))
    E = f.values
    center = float(E[flat])

    w = qt.weights
    acc = float(np.dot(w, E[flat + g.offset_to_flat(qt.offsets)]) - w.sum() * center)
    if qt.alpha >= 1:
        in_ball = qt.offset_norms <= 1.0 + 1e-14
        if np.any(in_ball):
            z = qt.offsets[in_ball] * qt.h
            acc -= float((w[in_ball, None] * z).sum(axis=0) @ p)
        strides = np.asarray(g.strides, dtype=np.int64)
        for a in range(g.dim):
            c = qt.nf_axis[a] / (2.0 * qt.h ** 2)
            if c != 0.0:
                s = strides[a]
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
