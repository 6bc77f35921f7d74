"""Property tests of the two places hostile text enters: an expression fails
only as a ConfigError, or evaluates to a float array, and a config file
gives a ConfigError or the settings; and of two lemma checks on drawn
fields: the Picone field L1 is nonnegative, and ordered loads give ordered
solutions.  Derandomized, so a run is repeatable."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from pxlap.cli import _SCHEMA, parse_config
from pxlap.errors import ConfigError
from pxlap.exponents import ExponentField
from pxlap.expressions import _FUNCS, compile_expression
from pxlap.mesh import GridFunction, build_interval_mesh
from pxlap.operator import OperatorContext, comparison_check, picone

_SETTINGS = settings(derandomize=True, deadline=2000, database=None, max_examples=400)

_ATOMS = ("x", "s1", "pi", "0", "1", "2", "0.5", "-1", "1e308", "9")
_OPS = ("+", "-", "*", "/", "**", "%", "//", "<", "==")


def _compound(inner):
    args = st.lists(st.one_of(inner, inner.map("*{}".format)), max_size=2)
    out = st.one_of(st.just(""), inner.map(", out={}".format))
    return st.one_of(
        st.tuples(inner, st.sampled_from(_OPS), inner).map(lambda t: "({} {} {})".format(*t)),
        st.tuples(st.sampled_from("-+"), inner).map("".join),
        st.tuples(st.sampled_from(sorted(_FUNCS)), args.map(", ".join), out)
        .map(lambda t: "{}({}{})".format(*t)),
        st.lists(inner, min_size=1, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]"),
        st.lists(inner, min_size=2, max_size=3).map(", ".join),
    )


# well-formed expressions over the grammar, and token soup that mostly is not
_expressions = st.one_of(
    st.recursive(st.sampled_from(_ATOMS), _compound, max_leaves=10),
    st.lists(st.sampled_from(_ATOMS + _OPS + (*_FUNCS, "(", ")", "[", "]", ",", "out=")), max_size=16)
    .map(" ".join),
)


@_SETTINGS
@given(expr=_expressions)
def test_expression_is_config_error_or_float_array(expr):
    try:
        fn = compile_expression(expr, ("x", "s1"))
    except ConfigError:
        return
    x = np.linspace(-1.0, 1.0, 7)
    x.setflags(write=False)  # as the mesh's quadrature points are
    s1 = x.copy()
    try:
        with np.errstate(all="ignore"):
            out = fn(x, s1)
    except (ArithmeticError, TypeError, ValueError):
        out = None
    assert np.array_equal(s1, x)  # no argument is an output array
    assert out is None or (isinstance(out, np.ndarray) and out.dtype == np.float64)


_values = st.one_of(
    st.one_of(
        _expressions,
        st.text(st.characters(codec="utf-8", exclude_characters="\r\n"), max_size=12),
        st.integers(-(10**6), 10**6).map(str),
        st.floats().map(repr),
        st.sampled_from(["true", "off", "nan", "-inf", "1e999", "9" * 5000, "rectangle", "json"]),
    ).map(str.encode),
    st.binary(max_size=8),  # not always UTF-8
)


@settings(_SETTINGS, max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=st.lists(st.tuples(st.sampled_from(sorted(_SCHEMA)), _values), max_size=6))
def test_config_lines_are_config_error_or_settings(tmp_path, lines):
    path = tmp_path / "fuzz.cfg"
    path.write_bytes(b"".join(key.encode() + b" = " + value + b"\n" for key, value in lines))
    try:
        cfg = parse_config(path)
    except ConfigError:
        return
    assert set(cfg) == set(_SCHEMA)


# ---------------------------------------------------------------------------
# the lemma checks on drawn fields: interval n = 16, p = a + b x

_MESH16 = build_interval_mesh(0.0, 1.0, 16)
_NODES = _MESH16.n_nodes


def _exponent(a, b):
    return ExponentField(_MESH16, f"{a!r} + {b!r}*x")


def _nodal(lo, hi):
    return st.lists(st.floats(lo, hi), min_size=_NODES, max_size=_NODES).map(np.array)


@_SETTINGS
@given(w1=_nodal(0.0, 10.0), w2=_nodal(0.5, 10.0), a=st.floats(1.1, 3.0), b=st.floats(0.0, 1.0))
def test_picone_L1_is_nonnegative(w1, w2, a, b):
    # Young's inequality at each quadrature point, p frozen there
    p = _exponent(a, b)
    u1, u2 = GridFunction(_MESH16, w1), GridFunction(_MESH16, w2)
    L1, _ = picone(u1, u2, p)
    n1 = np.linalg.norm(u1.gradients(), axis=1)[:, None]
    n2t = np.linalg.norm(u2.gradients(), axis=1)[:, None] * (u1.at_qp() / u2.at_qp())
    terms = n1**p.qp + p.qp * n2t ** (p.qp - 1.0) * n1 + (p.qp - 1.0) * n2t**p.qp
    # roundoff: relative to the terms, plus the underflow threshold
    assert np.all(L1 >= -1e-13 * terms - np.finfo(float).tiny)


@settings(_SETTINGS, max_examples=60)
@given(h1=_nodal(-5.0, 5.0), gap=_nodal(0.0, 5.0), a=st.floats(2.0, 3.0), b=st.floats(0.0, 1.0))
def test_comparison_of_ordered_loads_is_conclusive_and_passes(h1, gap, a, b):
    ctx = OperatorContext(_MESH16, _exponent(a, min(b, 3.0 - a)))
    rep = comparison_check(ctx, GridFunction(_MESH16, h1).at_qp(), GridFunction(_MESH16, h1 + gap).at_qp())
    assert rep.conclusive
    assert rep.passed, rep.max_violation
