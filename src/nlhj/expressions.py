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
``Expression.bind(points)`` returns ``t -> values`` for fixed points: it
evaluates each maximal subexpression that reads x or y but not t once, on
those points, and leaves the rest, constant and t-only subtrees included,
to run per call in its original order; each call is bit-identical to a
full evaluation.
"""

from __future__ import annotations

import ast
import copy
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
        self._tree = ast.fix_missing_locations(tree)
        self._code = compile(self._tree, "<expression>", "eval")

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

    def _space(self, points: np.ndarray) -> dict:
        """The spatial variables of ``points``: views of its columns."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            points = points[:, None]
        env = {"x": points[:, 0]}
        if points.shape[1] > 1:
            env["y"] = points[:, 1]
        elif "y" in self.variables:
            raise ParseError(f"variable 'y' used in 1-D expression {self.source!r}")
        return env

    def __call__(self, points: np.ndarray, t: float = 0.0) -> np.ndarray:
        env = self._space(points)
        env["t"] = np.float64(t)
        out = np.empty(len(env["x"]))
        out[:] = eval(self._code, self._namespace, env)  # broadcasts a scalar
        return out

    @functools.cached_property
    def _split(self):
        """``(held, code)``: each maximal subexpression that reads x or y but
        not t, as a pair (name, code), and the code of the rest, which reads
        those by name.  Constant and t-only subtrees stay in the rest."""
        reads = {}
        # ast.walk lists parents before children: reversed, children first
        for node in reversed(list(ast.walk(self._tree.body))):
            own = {node.id} if getattr(node, "id", None) in _VARS else set()
            reads[node] = own.union(*map(reads.get,
                                         ast.iter_child_nodes(node)))
        held = []

        def code(node):
            return compile(ast.Expression(node), "<expression>", "eval")

        def rest(node):
            if "t" not in reads[node]:
                if not reads[node]:
                    return node
                name = f"_h{len(held)}"
                held.append((name, code(node)))
                return ast.copy_location(ast.Name(name, ast.Load()), node)
            node = copy.copy(node)
            for field, value in ast.iter_fields(node):
                if isinstance(value, ast.AST):
                    setattr(node, field, rest(value))
                elif isinstance(value, list):
                    setattr(node, field, [rest(v) for v in value])
            return node

        return held, code(rest(self._tree.body))

    def bind(self, points: np.ndarray):
        """``t -> self(points, t)``, with every maximal subexpression that
        reads x or y but not t evaluated here, once; the values go into
        ``out`` where it is given.

        The held values are the arrays a full evaluation makes, on the same
        points, and every other operation runs in its original order on the
        same operands, so each result is bit-identical to
        ``self(points, t)``.
        """
        env = self._space(points)
        n = len(env["x"])
        held, code = self._split
        namespace = dict(self._namespace)
        for name, part in held:
            namespace[name] = eval(part, self._namespace, env)

        def at(t: float, out=None) -> np.ndarray:
            if out is None:
                out = np.empty(n)
            out[:] = eval(code, namespace, {"t": np.float64(t)})
            return out

        return at

    def __repr__(self):
        return f"Expression({self.source!r})"
