"""Safe arithmetic expressions over coordinates and state variables.

Config files describe exponents and nonlinearities as plain arithmetic in
``x`` (and ``y`` in 2D) plus, for nonlinearities, the state values ``s1`` and
``s2``.  Expressions are parsed once, name-checked against a whitelist and
evaluated with numpy broadcasting.  Integer literals are read as floats, so
constant arithmetic such as ``9**9**8`` overflows at once instead of building
an unbounded Python integer.  A call must apply a whitelisted function to one
argument: a ufunc's second argument, or ``out=``, is an output array.
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
_SHOWN_CHARS = 60  # longest expression prefix an error message quotes
_SHOWN_NAMES = 5  # most unknown names an error message lists


def _shown(expr: str) -> str:
    """``expr`` quoted for an error message; a long one is cut, with its length."""
    if len(expr) <= _SHOWN_CHARS:
        return repr(expr)
    return f"{expr[:_SHOWN_CHARS]!r}... ({len(expr)} characters)"


def compile_expression(expr: str, variables: tuple[str, ...]):
    """Compile ``expr`` into a vectorized callable of the named variables.

    Unknown identifiers are rejected up front so config typos surface as
    parse-time errors rather than silent NameErrors mid-run.  The callable
    returns a float array; a complex value raises ``TypeError``.
    """
    allowed = set(variables) | set(_FUNCS) | set(_CONSTS)
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as exc:
        raise ConfigError([f"cannot parse expression {_shown(expr)}: {exc.msg}"]) from exc
    except (RecursionError, MemoryError) as exc:  # the parser's nesting limits
        raise ConfigError([f"expression nested too deeply: {_shown(expr)}"]) from exc
    bad = sorted(
        {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id not in allowed
        }
    )
    if bad:
        names = ", ".join(bad[:_SHOWN_NAMES])
        if len(bad) > _SHOWN_NAMES:
            names += f" and {len(bad) - _SHOWN_NAMES} more"
        raise ConfigError([f"unknown name(s) {names} in expression {_shown(expr)}"])
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript, ast.Lambda)) or (
            isinstance(node, ast.Constant) and not isinstance(node.value, (int, float))
        ):
            raise ConfigError([f"disallowed construct in expression {_shown(expr)}"])
        if isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name)
            and node.func.id in _FUNCS
            and len(node.args) == 1
            and not isinstance(node.args[0], ast.Starred)
            and not node.keywords
        ):
            funcs = ", ".join(_FUNCS)
            raise ConfigError([f"a call must apply one of {funcs} to one argument: {_shown(expr)}"])
        if isinstance(node, ast.Constant) and type(node.value) is int:
            try:
                node.value = float(node.value)
            except OverflowError as exc:
                raise ConfigError(
                    [f"integer literal too large in expression {_shown(expr)}"]
                ) from exc
    try:
        code = compile(tree, "<pxlap-expr>", "eval")
    except RecursionError as exc:
        raise ConfigError([f"expression nested too deeply: {_shown(expr)}"]) from exc
    base = dict(_FUNCS)
    base.update(_CONSTS)

    def fn(*args):
        ns = dict(base)
        ns.update(zip(variables, args))
        out = np.asarray(eval(code, {"__builtins__": {}}, ns))  # noqa: S307 - name-checked
        if np.iscomplexobj(out):
            raise TypeError(f"complex value of expression {_shown(expr)}")
        return out.astype(float, copy=False)

    fn.expression = expr
    fn.variables = variables
    return fn


def coordinate_expression(expr: str, dimension: int):
    """Callable of a point array (n, dim) from an expression in x[, y]."""
    names = ("x", "y")[:dimension]
    fn = compile_expression(expr, names)

    def evaluate(points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        return np.broadcast_to(fn(*(points[:, d] for d in range(dimension))), (len(points),))

    evaluate.expression = expr
    return evaluate


def state_expression(expr: str, dimension: int):
    """Callable f(points, s1, s2) from an expression in x[, y], s1, s2.

    Evaluated with floating-point warnings off: a NaN or inf value of f is
    an outcome the callers report (see :mod:`pxlap.existence`).
    """
    names = ("x", "y")[:dimension] + ("s1", "s2")
    fn = compile_expression(expr, names)

    def evaluate(points, s1, s2):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        s1 = np.broadcast_to(np.asarray(s1, dtype=float), (len(points),))
        s2 = np.broadcast_to(np.asarray(s2, dtype=float), (len(points),))
        coords = tuple(points[:, d] for d in range(dimension))
        with np.errstate(all="ignore"):
            out = fn(*coords, s1, s2)
        return np.broadcast_to(out, (len(points),))

    evaluate.expression = expr
    return evaluate
