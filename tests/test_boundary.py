import numpy as np
import pytest
from hypothesis import given, strategies as st

from nlhj.boundary import (IN, MIXED, OUT, SAMPLES, check_sigma,
                           classify_boundary, classify_face, face_tags)
from nlhj.geometry import Domain
from nlhj.hamiltonians import BellmanSpec, ControlLaw


TOL = 1e-8


def single(b, dim=1):
    return BellmanSpec([ControlLaw(lam=0.0, b=b, f=0.0, dim=dim)], dim=dim)


def at(spec, dom, f, x, tol=TOL):
    # (tag, witnesses) at the one point x of face f, at t = 0
    tags, w = classify_face(spec, dom, f, np.atleast_2d(x), 0.0, tol)
    assert w.shape == (1, len(spec.controls))
    return tags[0], w[0]


def test_classify_inward_drift(dom1):
    # b(x) = -x points inward at both endpoints
    tag, w = at(single("-x"), dom1, 1, 1.0)
    assert tag == IN and w[0] == pytest.approx(1.0)
    tag, _ = at(single("-x"), dom1, 0, -1.0)
    assert tag == IN


def test_classify_outward_drift(dom1):
    tag, w = at(single("x"), dom1, 1, 1.0)
    assert tag == OUT and w[0] == pytest.approx(-1.0)


def test_classify_mixed(dom1):
    spec = BellmanSpec([ControlLaw(lam=0.0, b=1.0, f=0.0),
                        ControlLaw(lam=0.0, b=-1.0, f=0.0)])
    tag, w = at(spec, dom1, 1, 1.0)
    assert tag == MIXED
    assert sorted(w.tolist()) == [-1.0, 1.0]


def test_zero_drift_is_out(dom1):
    # b . Dd = 0 satisfies the closed outflow inequality
    tag, _ = at(single(0.0), dom1, 1, 1.0)
    assert tag == OUT


def test_witness_at_the_tolerance_is_out(dom1):
    # the closed outflow rule: a witness equal to tol is out, the next float
    # above it is in (the right face's inward normal is -1, so b = -w gives
    # the witness w)
    tol = 1e-3
    for w, expect in ((tol, OUT), (np.nextafter(tol, 1.0), IN)):
        tag, wit = at(single(-w), dom1, 1, 1.0, tol)
        assert wit[0] == w and tag == expect


def test_classify_2d_face_midpoint(dom2):
    tag, _ = at(single(["0", "-y"], dim=2), dom2, 3, (0.0, 1.0))
    assert tag == IN


def test_classify_face_tags_each_point(dom2):
    # b = (x, -x) on the face y = 1 (inward normal (0, -1)): the witness
    # is x, so the face's points are out, out and in
    pts = np.array([[-0.5, 1.0], [0.0, 1.0], [0.5, 1.0]])
    tags, w = classify_face(single(["x", "-x"], dim=2), dom2, 3, pts, 0.0,
                            TOL)
    assert tags == [OUT, OUT, IN]
    np.testing.assert_array_equal(w, [[-0.5], [0.0], [0.5]])


def test_zero_witnesses_are_positive_zero(dom2):
    # b_1 = (-1/2, 0) and b_2 = (0, y/2) on [-1, 1]^2: every face has a
    # tangent drift, whose witness is written as 0, never as -0
    spec = BellmanSpec([ControlLaw(lam=1.0, b=["0*y - 0.5", "-x*0"], f=0.0,
                                   dim=2),
                        ControlLaw(lam=0.5, b=["-0*x", "0.5*y"], f=0.0,
                                   dim=2)], dim=2)
    rows, _ = classify_boundary(spec, dom2, (0.0, 0.25))
    w = np.array([r[-2:] for r in rows], dtype=float)
    zero = w == 0.0
    assert zero.sum() == 324
    assert not np.signbit(w[zero]).any()


@given(st.floats(0.1, 100.0))
def test_rescaling_invariance(scale):
    dom = Domain((-1,), (1,))
    for b, expect in (("-x", IN), ("x", OUT)):
        tag, _ = at(single(f"{scale}*({b})"), dom, 1, 1.0)
        assert tag == expect


def test_check_sigma_uniform_pass(dom1):
    cert = check_sigma(single("-x"), dom1, (0.0, 1.0))
    assert cert.passed
    assert cert.details["tags"] == {"left": IN, "right": IN}


def test_check_sigma_flip_fails(dom1):
    # tag flips at t = 0.5 on the right face
    cert = check_sigma(single("(t - 0.5)*max(x, 0)"), dom1, (0.0, 1.0))
    assert not cert.passed
    assert "right" in cert.details["nonuniform_faces"]


def test_check_sigma_zero_drift(dom1):
    cert = check_sigma(single(0.0), dom1, (0.0, 1.0))
    assert cert.passed
    assert set(cert.details["tags"].values()) == {OUT}


def test_classification_table_rows(dom2):
    spec = single(["-x", "-y"], dim=2)
    rows, _ = classify_boundary(spec, dom2, (0.0, 0.5))
    # face, x, y, t, tag, witness; SAMPLES points by SAMPLES times per face
    assert len(rows[0]) == 6
    assert len(rows) == 4 * SAMPLES * SAMPLES
    faces = {r[0] for r in rows}
    assert faces == {"x_lo", "x_hi", "y_lo", "y_hi"}


def test_classification_rows_order_and_face_tags(dom1):
    # rows by face, then sample point, then time; b . Dd = 0.5 - t on
    # both faces, so each flips from in to out at t = 0.5 and is mixed,
    # while a face whose samples agree keeps their tag
    rows, seen = classify_boundary(single("(t - 0.5)*x"), dom1, (0.0, 1.0))
    times = np.linspace(0.0, 1.0, SAMPLES)
    assert 0.5 in times
    assert [(r[0], r[2], r[3]) for r in rows] == [
        (face, t, IN if t < 0.5 else OUT)
        for face in ("left", "right") for t in times]
    assert seen == {"left": {IN, OUT}, "right": {IN, OUT}}
    assert face_tags(seen) == {"left": MIXED, "right": MIXED}
    _, seen = classify_boundary(single("-x"), dom1, (0.0, 1.0))
    assert face_tags(seen) == {"left": IN, "right": IN}
