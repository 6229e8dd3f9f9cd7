"""Arithmetic expressions for coefficient fields.

The grammar is Python's expression syntax restricted to these nodes:
binary ``+ - * /`` and ``^`` (the power; ``**`` is refused), unary minus,
finite decimal number literals, the variables ``x``, ``y`` (2-D only) and
``t``, and calls of ``abs``, ``sin``, ``cos``, ``exp`` (one argument) and
``min``, ``max`` (two or more), without keywords.  Precedence is Python's: ``^`` is
right associative and binds tighter than unary minus.  Numbers are float64,
so ``(-8)^(1/3)`` is NaN and a constant ``1/0`` is inf, as in numpy.

A source is parsed with ``ast``, checked node by node against the
whitelist, compiled once (each power as a call of ``np.power``) and
evaluated vectorized over numpy arrays in a namespace without builtins.
"""

from __future__ import annotations

import ast
import functools
import re

import numpy as np

from .errors import ParseError

_FUNCS = {
    "abs": (1, 1, np.abs),
    "sin": (1, 1, np.sin),
    "cos": (1, 1, np.cos),
    "exp": (1, 1, np.exp),
    "min": (2, None, lambda a, *rest: functools.reduce(np.minimum, rest, a)),
    "max": (2, None, lambda a, *rest: functools.reduce(np.maximum, rest, a)),
}

_VARS = ("x", "y", "t")
_BINOPS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)
_NUMBER = re.compile(r"(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")
_NAMESPACE = {"__builtins__": {}, "_pow": np.power,
              **{name: fn for name, (_, _, fn) in _FUNCS.items()}}


class Expression:
    """A parsed expression evaluable on point arrays.

    ``points`` has shape (N, n); the result broadcasts to shape (N,).
    """

    def __init__(self, source: str):
        self.source = source
        # one line of the same length, so columns are positions in source;
        # eval-mode ast.parse refuses leading blanks
        text = re.sub(r"\s", " ", source)
        self._lead = len(text) - len(text.lstrip(" "))
        text = text[self._lead:]
        if "**" in text:
            raise self._error("'**' not allowed (write '^')", text.index("**"))
        bad = next((i for i, c in enumerate(text)
                    if not " " <= c <= "~" or c == "#"), None)
        if bad is not None:
            raise self._error(f"character {text[bad]!r} not allowed", bad)
        self._py = text.replace("^", "**")
        try:
            tree = ast.parse(self._py, mode="eval")
        except SyntaxError as e:
            col = e.offset - 1 if e.lineno == 1 and e.offset else len(self._py)
            raise self._error(e.msg, self._col(col)) from None
        self._namespace = dict(_NAMESPACE)
        self._vars = set()
        tree.body = self._check(tree.body)
        self.variables = frozenset(self._vars)
        self._code = compile(ast.fix_missing_locations(tree), "<expression>",
                             "eval")

    def _col(self, col):
        """Position, after the leading blanks, of column ``col`` of the
        rewrite with ``**``."""
        return col - self._py.count("**", 0, col + 1)

    def _error(self, what, pos):
        return ParseError(f"{what} at position {self._lead + pos} in "
                          f"{self.source!r}")

    def _check(self, node):
        """Refuse any node off the whitelist; bind numbers as float64 names."""
        if isinstance(node, ast.BinOp) and isinstance(node.op, _BINOPS):
            node.left = self._check(node.left)
            node.right = self._check(node.right)
            if isinstance(node.op, ast.Pow):
                # np.power: a scalar ** can differ from it in the last bit
                return ast.Call(ast.Name("_pow", ast.Load()),
                                [node.left, node.right], [])
            return node
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            node.operand = self._check(node.operand)
            return node
        pos = self._col(node.col_offset)
        if isinstance(node, ast.Constant):
            literal = self._py[node.col_offset:node.end_col_offset]
            if not _NUMBER.match(literal):
                raise self._error(f"literal {literal!r} not allowed (decimal "
                                  "numbers only)", pos)
            if not np.isfinite(float(literal)):
                raise self._error(f"literal {literal!r} overflows float64", pos)
            name = f"_c{len(self._namespace)}"
            self._namespace[name] = np.float64(float(literal))
            return ast.Name(name, ast.Load())
        if isinstance(node, ast.Name) and node.id in _VARS:
            self._vars.add(node.id)
            return node
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _FUNCS:
            lo, hi, _ = _FUNCS[node.func.id]
            if node.keywords or any(isinstance(a, ast.Starred) for a in node.args):
                raise self._error(f"keyword or starred argument to "
                                  f"{node.func.id}()", pos)
            if node.args and "," in self._py[node.args[-1].end_col_offset:
                                             node.end_col_offset]:
                raise self._error(f"trailing comma in {node.func.id}()", pos)
            if len(node.args) < lo or (hi is not None and len(node.args) > hi):
                raise self._error(
                    f"{node.func.id}() takes {lo}{'+' if hi is None else ''} "
                    f"argument(s), got {len(node.args)}", pos)
            node.args = [self._check(a) for a in node.args]
            return node
        if isinstance(node, ast.Name):
            raise self._error(f"unknown name {node.id!r}", pos)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            raise self._error(f"unknown name {node.func.id!r}", pos)
        raise self._error(f"{type(getattr(node, 'op', node)).__name__} not allowed",
                          pos)

    @property
    def time_dependent(self) -> bool:
        return "t" in self.variables

    def __call__(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        env = {"x": points[:, 0], "t": np.float64(t)}
        if points.shape[1] > 1:
            env["y"] = points[:, 1]
        elif "y" in self.variables:
            raise ParseError(f"variable 'y' used in 1-D expression {self.source!r}")
        out = np.empty(points.shape[0])
        out[:] = eval(self._code, self._namespace, env)  # broadcasts a scalar
        return out

    def __repr__(self):
        return f"Expression({self.source!r})"
