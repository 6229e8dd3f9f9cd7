import numpy as np
import pytest
from hypothesis import given, strategies as hst

from nlhj.errors import ParseError
from nlhj.expressions import Expression


def ev(src, x, t=0.0):
    pts = np.atleast_2d(np.asarray(x, dtype=float)).T if np.ndim(x) == 1 \
        else np.asarray(x, dtype=float)
    return Expression(src)(pts, t)


def test_numbers_and_precedence():
    assert ev("1 + 2*3", [0.0])[0] == 7.0
    assert ev("(1 + 2)*3", [0.0])[0] == 9.0
    assert ev("2^3^2", [0.0])[0] == 512.0  # right associative
    assert ev("-2^2", [0.0])[0] == -4.0
    assert ev("6/3/2", [0.0])[0] == 1.0


def test_variables_and_functions():
    x = np.array([0.25, -0.5])
    assert np.allclose(ev("x^2 + 1", x), x ** 2 + 1)
    assert np.allclose(ev("abs(x)", x), np.abs(x))
    assert np.allclose(ev("min(x, 0)", x), np.minimum(x, 0))
    assert np.allclose(ev("max(x, 0, 0.1)", x), np.maximum(np.maximum(x, 0), 0.1))
    assert np.allclose(ev("sin(x) + cos(x)*exp(x)", x),
                       np.sin(x) + np.cos(x) * np.exp(x))


def test_time_variable():
    e = Expression("x*t + 1")
    assert e.time_dependent
    assert np.allclose(e(np.array([[2.0]]), 3.0), [7.0])
    assert not Expression("x + 1").time_dependent


def test_2d_variables():
    e = Expression("x*y")
    pts = np.array([[2.0, 3.0], [1.0, -1.0]])
    assert np.allclose(e(pts, 0.0), [6.0, -1.0])
    with pytest.raises(ParseError):
        Expression("y + 1")(np.array([[1.0]]), 0.0)


def test_constant_broadcast():
    out = Expression("2.5")(np.zeros((4, 1)), 0.0)
    assert out.shape == (4,)
    assert np.all(out == 2.5)


@pytest.mark.parametrize("bad", [
    "1 +", "sin()", "foo(2)", "1 2", "min(1)", "(1", "x @ 2", "1..2",
    # Python syntax outside the whitelist
    "2**3", "+x", "0x10", "1_0", "1j", "True", "'a'", "x.real", "x[0]",
    "x < 1", "x if t else 1", "lambda: 1", "sin(x=1)", "abs(*x)", "sin(x,)",
    "(x, 1)", "__import__('os')", "x) * (x", "",
    # a literal that overflows float64
    "x + 1e400",
])
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError, match="position"):
        Expression(bad)


# the expressions of configs/ and perfbench/workloads.py, each beside the
# same formula in numpy
SHIPPED = [
    ("-x", lambda x, y, t: -x),
    ("0.5*x", lambda x, y, t: 0.5 * x),
    ("1 - x^2", lambda x, y, t: 1 - x ** 2),
    ("0.2*cos(3*x)", lambda x, y, t: 0.2 * np.cos(3 * x)),
    ("0.1*sin(2*x)", lambda x, y, t: 0.1 * np.sin(2 * x)),
    ("0.5*exp(-t)", lambda x, y, t: 0.5 * np.exp(-t)),
    ("0.2*cos(3*x) + 0.5*exp(-t)*sin(2*x)",
     lambda x, y, t: 0.2 * np.cos(3 * x) + 0.5 * np.exp(-t) * np.sin(2 * x)),
    ("0.5 + 0.31415926535897931*(1 - x^2)*cos(2.7182818284590451*x + 1.5)",
     lambda x, y, t: 0.5 + 0.31415926535897931 * (1 - x ** 2)
     * np.cos(2.7182818284590451 * x + 1.5)),
    ("-y", lambda x, y, t: -y),
    ("0.5*y", lambda x, y, t: 0.5 * y),
    ("1 + 0.25*(1 - x^2)*(1 - y^2)*cos(1.25*x + 1.75*y + 4.5)",
     lambda x, y, t: 1 + 0.25 * (1 - x ** 2) * (1 - y ** 2)
     * np.cos(1.25 * x + 1.75 * y + 4.5)),
]


@pytest.mark.parametrize("src,fn", SHIPPED)
def test_values_match_numpy_bit_for_bit(src, fn):
    rng = np.random.default_rng(0)
    pts2 = rng.uniform(-1.0, 1.0, (64, 2))
    e = Expression(src)
    for t in (0.0, 0.3, 2.5):
        for pts in ((pts2,) if "y" in e.variables else (pts2[:, :1], pts2)):
            want = np.broadcast_to(fn(pts[:, 0], pts2[:, 1], t), len(pts))
            assert np.array_equal(e(pts, t), want), (src, t, pts.shape)


def test_float64_semantics_and_whitespace():
    pts = np.zeros((3, 1))
    with np.errstate(invalid="ignore", divide="ignore"):
        assert np.isnan(Expression("(-8)^(1/3)")(pts)).all()
        assert np.isinf(Expression("1/0 + x")(pts)).all()
    assert np.array_equal(Expression("  x")(pts + 2.0), [2.0] * 3)
    assert np.array_equal(Expression("x\n + 1")(pts + 2.0), [3.0] * 3)
    # powers are np.power, whose last bit a scalar ** does not always match
    assert Expression("t^t")(pts, 2.5)[0] == np.power(2.5, 2.5)


def test_error_message_names_position():
    try:
        Expression("1 + $")
    except ParseError as e:
        assert "position 4" in str(e)
    else:
        raise AssertionError("expected ParseError")
    # blanks before the expression and each '^' count in source positions
    for src, pos in (("  1 + $", 6), ("x^2^ + 1", 5), ("x^2^3 $", 6),
                     ("\n\tx^2 $", 6)):
        with pytest.raises(ParseError, match=f"position {pos} "):
            Expression(src)


def _expressions(variables):
    """Random whitelisted sources over ``variables``."""
    leaves = hst.sampled_from(variables + ("0.5", "2", "3", "1.5e-3"))

    def wrap(sub):
        return hst.one_of(
            hst.tuples(sub, hst.sampled_from("+-*/^"), sub).map(
                lambda a: f"({a[0]} {a[1]} {a[2]})"),
            sub.map(lambda a: f"-{a}"),
            hst.tuples(hst.sampled_from(("abs", "sin", "cos", "exp")),
                       sub).map(lambda a: f"{a[0]}({a[1]})"),
            hst.tuples(hst.sampled_from(("min", "max")),
                       hst.lists(sub, min_size=2, max_size=3)).map(
                lambda a: f"{a[0]}({', '.join(a[1])})"))
    return hst.recursive(leaves, wrap, max_leaves=10)


@pytest.mark.parametrize("dim", [1, 2])
@given(data=hst.data())
def test_bind_is_a_full_evaluation_bit_for_bit(dim, data):
    src = data.draw(_expressions(("x", "y", "t")[:dim] + ("t",)), label="src")
    times = data.draw(hst.lists(hst.floats(-3.0, 3.0), min_size=1,
                                max_size=3), label="times")
    rng = np.random.default_rng(len(src))
    pts = np.vstack([np.zeros(dim), rng.uniform(-2.0, 2.0, (16, dim))])
    e = Expression(src)
    with np.errstate(all="ignore"):
        at = e.bind(pts)
        for t in times:
            # the same bytes, NaN positions and signed zeros included
            assert at(t).tobytes() == e(pts, t).tobytes(), (src, t)
