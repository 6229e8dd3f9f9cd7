"""Lateral boundary classification for Bellman drifts.

The boundary of a box is its faces, and on a face Dd is the face's inward
normal n (:meth:`geometry.Domain.inward_normal`).  A boundary point is
tagged ``in`` when every controlled drift points strictly inward
(b . n > tol), ``out`` when every drift is outward or tangent (b . n <= tol),
and ``mixed`` otherwise.  Witness values in (-tol, tol] are treated as
"<= 0", preserving the closed outflow condition.
"""

from __future__ import annotations

import numpy as np

from .geometry import Domain
from .hamiltonians import BellmanSpec, Certificate, eval_vector

IN, OUT, MIXED = "in", "out", "mixed"

# sample points per 2-D face, and sample times over the window
SAMPLES = 9


def classify_face(spec: BellmanSpec, dom: Domain, f: int, pts, t: float,
                  tol: float):
    """The tags of the points ``pts`` of face f at time t, and their
    witnesses b_beta . n, of shape (points, controls)."""
    # a product with n, not +-b[f // 2]: a tangent drift's witness on an
    # upper face is then 0, where -b[f // 2] would write -0
    n = dom.inward_normal(f)
    witnesses = np.column_stack([eval_vector(c.b, pts, t) @ n
                                 for c in spec.controls])
    tags = [IN if inward.all() else MIXED if inward.any() else OUT
            for inward in witnesses > tol]
    return tags, witnesses


def _face_samples(dom: Domain, f: int) -> np.ndarray:
    """:data:`SAMPLES` points along face f, kept off its ends (2-D) by a
    margin of 1e-9 of the side."""
    axis, lo, hi = f // 2, np.array(dom.lower), np.array(dom.upper)
    fixed = (hi if f % 2 else lo)[axis]
    if dom.dim == 1:
        return np.array([[fixed]])
    other = 1 - axis
    margin = 1e-9 * (hi[other] - lo[other])
    s = np.linspace(lo[other] + margin, hi[other] - margin, SAMPLES)
    pts = np.empty((len(s), 2))
    pts[:, axis] = fixed
    pts[:, other] = s
    return pts


def classify_boundary(spec: BellmanSpec, dom: Domain, t_window) -> tuple:
    """The sampled classification of the lateral boundary as ``(rows,
    seen)``: ``rows`` are (face, x.., t, tag, w..) by face, then sample
    point, then time; ``seen[face]`` is the set of tags of the face's
    samples.  The tolerance is 1e-8 (1 + max |b|), the maximum taken over
    every control's drift at the face midpoints and five times of the
    window."""
    mid = dom.face_midpoints()
    bmax = max(float(np.abs(eval_vector(c.b, mid, t)).max())
               for t in np.linspace(t_window[0], t_window[1], 5)
               for c in spec.controls)
    tol = 1e-8 * (1.0 + bmax)
    times = np.linspace(t_window[0], t_window[1], SAMPLES)
    rows, seen = [], {}
    for f, face in enumerate(dom.face_names()):
        pts = _face_samples(dom, f)
        per_time = [classify_face(spec, dom, f, pts, t, tol) for t in times]
        seen[face] = {tag for tags, _ in per_time for tag in tags}
        rows += [(face, *x, t, tags[i], *w[i])
                 for i, x in enumerate(pts)
                 for t, (tags, w) in zip(times, per_time)]
    return rows, seen


def face_tags(seen: dict) -> dict:
    """Each face's single tag, or 'mixed' when its samples disagree."""
    return {f: next(iter(s)) if len(s) == 1 else MIXED
            for f, s in seen.items()}


def check_sigma(spec: BellmanSpec, dom: Domain, t_window) -> Certificate:
    """Every connected component of the sampled lateral boundary carries one
    tag.

    Components are faces x time window; 2-D components are per face and never
    merged across corners (Dd is undefined there).  Sampling can refute the
    assumption, not certify it beyond :data:`SAMPLES` points and times.
    """
    _, seen = classify_boundary(spec, dom, t_window)
    bad = [f for f, s in seen.items() if len(s) != 1]
    return Certificate("Sigma", not bad, float(len(bad)),
                       {"nonuniform_faces": ",".join(bad),
                        "tags": face_tags(seen)})
