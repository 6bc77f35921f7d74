"""Safe arithmetic expressions over coordinates and state variables.

Config files describe exponents and nonlinearities as plain arithmetic in
``x`` (and ``y`` in 2D) plus, for nonlinearities, the state values ``s1`` and
``s2``.  Expressions are parsed once, name-checked against a whitelist and
evaluated with numpy broadcasting.  Integer literals are read as floats, so
constant arithmetic such as ``9**9**8`` overflows at once instead of building
an unbounded Python integer.
"""

from __future__ import annotations

import ast

import numpy as np

from .errors import ConfigError

_FUNCS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "sqrt": np.sqrt,
    "log": np.log,
    "abs": np.abs,
    "tanh": np.tanh,
}
_CONSTS = {"pi": np.pi, "e": np.e}


def compile_expression(expr: str, variables: tuple[str, ...]):
    """Compile ``expr`` into a vectorized callable of the named variables.

    Unknown identifiers are rejected up front so config typos surface as
    parse-time errors rather than silent NameErrors mid-run.
    """
    allowed = set(variables) | set(_FUNCS) | set(_CONSTS)
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError([f"cannot parse expression {expr!r}: {exc.msg}"]) from exc
    bad = sorted(
        {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id not in allowed
        }
    )
    if bad:
        raise ConfigError(
            [f"unknown name(s) {', '.join(bad)} in expression {expr!r}"]
        )
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Lambda)):
            raise ConfigError([f"disallowed construct in expression {expr!r}"])
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ConfigError(
                    [f"integer literal too large in expression {expr!r}"]
                ) from exc
    code = compile(tree, "<pxlap-expr>", "eval")
    base = dict(_FUNCS)
    base.update(_CONSTS)

    def fn(*args):
        ns = dict(base)
        ns.update(zip(variables, args))
        return eval(code, {"__builtins__": {}}, ns)  # noqa: S307 - name-checked

    fn.expression = expr
    fn.variables = variables
    return fn


def coordinate_expression(expr: str, dimension: int):
    """Callable of a point array (n, dim) from an expression in x[, y]."""
    names = ("x", "y")[:dimension]
    fn = compile_expression(expr, names)

    def evaluate(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = fn(*(points[:, d] for d in range(dimension)))
        return np.broadcast_to(np.asarray(out, dtype=float), (len(points),))

    evaluate.expression = expr
    return evaluate


def state_expression(expr: str, dimension: int):
    """Callable f(points, s1, s2) from an expression in x[, y], s1, s2."""
    names = ("x", "y")[:dimension] + ("s1", "s2")
    fn = compile_expression(expr, names)

    def evaluate(points, s1, s2):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s1 = np.broadcast_to(np.asarray(s1, dtype=float), (len(points),))
        s2 = np.broadcast_to(np.asarray(s2, dtype=float), (len(points),))
        coords = tuple(points[:, d] for d in range(dimension))
        out = fn(*coords, s1, s2)
        return np.broadcast_to(np.asarray(out, dtype=float), (len(points),))

    evaluate.expression = expr
    return evaluate
