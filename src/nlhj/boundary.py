"""Lateral boundary classification for Bellman drifts.

A boundary point is tagged ``in`` when every controlled drift points strictly
inward (b . Dd > tol), ``out`` when every drift is outward or tangent
(b . Dd <= tol), and ``mixed`` otherwise.  Witness values in (-tol, tol] are
treated as "<= 0", preserving the closed outflow condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Domain, distance_gradient
from .hamiltonians import (BellmanSpec, Certificate, Coefficients,
                           eval_vector)

IN, OUT, MIXED = "in", "out", "mixed"


def classification_tolerance(spec: BellmanSpec, dom: Domain,
                             t_window=(0.0, 1.0)) -> float:
    pts = dom.face_midpoints()
    bmax = 0.0
    for t in np.linspace(t_window[0], t_window[1], 5):
        bmax = max(bmax, float(Coefficients(spec, pts, t).b_max.max()))
    return 1e-8 * (1.0 + bmax)


def classify_point(spec: BellmanSpec, x, t: float, dom: Domain,
                   tol: float | None = None):
    """Tag plus the witnessing values b_beta . Dd at (x, t)."""
    if tol is None:
        tol = classification_tolerance(spec, dom)
    nd = distance_gradient(dom, x)
    x = np.atleast_1d(np.asarray(x, dtype=float))[None, :]
    witnesses = np.array([float(eval_vector(c.b, x, t)[0] @ nd)
                          for c in spec.controls])
    inward = witnesses > tol
    if inward.all():
        return IN, witnesses
    if (~inward).all():
        return OUT, witnesses
    return MIXED, witnesses


@dataclass
class BoundaryClassification:
    """Per-sample tags on the lateral boundary, organized by face."""

    faces: list
    times: np.ndarray
    tags: dict                      # face -> (n_samples, n_times) object array
    witnesses: dict
    sample_points: dict
    tol: float

    def face_tag(self, face: str):
        """The uniform tag of a face, or 'mixed' when samples disagree."""
        t = self.tags[face]
        uniq = set(t.ravel())
        return t.ravel()[0] if len(uniq) == 1 else MIXED


def _face_samples(dom: Domain, face_idx: int, resolution: int) -> np.ndarray:
    """Sample points along one face, excluding corner exclusion zones (2-D)."""
    lo, hi = np.array(dom.lower), np.array(dom.upper)
    if dom.dim == 1:
        return np.array([[lo[0]] if face_idx == 0 else [hi[0]]])
    axis = 0 if face_idx < 2 else 1
    other = 1 - axis
    fixed = lo[axis] if face_idx % 2 == 0 else hi[axis]
    margin = max(dom.corner_exclusion, 1e-9 * (hi[other] - lo[other]))
    s = np.linspace(lo[other] + margin, hi[other] - margin, max(resolution, 2))
    pts = np.empty((len(s), 2))
    pts[:, axis] = fixed
    pts[:, other] = s
    return pts


def classify_boundary(spec: BellmanSpec, dom: Domain, t_window=(0.0, 1.0),
                      resolution: int = 9) -> BoundaryClassification:
    tol = classification_tolerance(spec, dom, t_window)
    times = np.linspace(t_window[0], t_window[1], max(resolution, 2))
    faces = dom.face_names()
    tags, wit, pts_by_face = {}, {}, {}
    for fi, face in enumerate(faces):
        pts = _face_samples(dom, fi, resolution)
        tag_arr = np.empty((pts.shape[0], len(times)), dtype=object)
        wit_arr = np.empty((pts.shape[0], len(times), len(spec.controls)))
        for i, x in enumerate(pts):
            for j, t in enumerate(times):
                tag, w = classify_point(spec, x, t, dom, tol)
                tag_arr[i, j] = tag
                wit_arr[i, j] = w
        tags[face] = tag_arr
        wit[face] = wit_arr
        pts_by_face[face] = pts
    return BoundaryClassification(faces, times, tags, wit, pts_by_face, tol)


def check_sigma(spec: BellmanSpec, dom: Domain, t_window=(0.0, 1.0),
                resolution: int = 9) -> Certificate:
    """Every connected component of the sampled lateral boundary carries one
    tag.

    Components are faces x time window; 2-D components are per face and never
    merged across corners (Dd is undefined there).  Sampling can refute the
    assumption, not certify it beyond the chosen resolution.
    """
    cls = classify_boundary(spec, dom, t_window, resolution)
    bad = [f for f in cls.faces if len(set(cls.tags[f].ravel())) != 1]
    return Certificate("Sigma", not bad, float(len(bad)),
                       {"nonuniform_faces": ",".join(bad),
                        "tags": {f: cls.face_tag(f) for f in cls.faces}})


def classification_table(cls: BoundaryClassification) -> list:
    """Machine-readable rows: face, coordinates, t, tag, witnesses."""
    rows = []
    for face in cls.faces:
        pts = cls.sample_points[face]
        for i, x in enumerate(pts):
            for j, t in enumerate(cls.times):
                rows.append((face, *x, t, cls.tags[face][i, j],
                             *cls.witnesses[face][i, j]))
    return rows
