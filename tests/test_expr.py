import cmath
import math
import struct

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lightcone import expr as ex
from lightcone.errors import EvalError, ParseError


def test_parse_structure():
    assert ex.parse("exp(2*i*u)") == ex.Call("exp", ex.Mul(ex.Const(2j), ex.Var()))


def test_parse_is_whitespace_insensitive():
    assert ex.parse("  exp( 2 * i\t* u )\n") == ex.parse("exp(2*i*u)")


def test_constant_rational_arithmetic():
    # (a-2)/(a+2) at a = 3/2 is -1/7, folded at parse time
    node = ex.parse("(1.5-2)/(1.5+2)")
    assert isinstance(node, ex.Const)
    assert node.eval(0.37) == pytest.approx(-1 / 7, abs=1e-16)


def test_double_caret_is_a_syntax_error():
    with pytest.raises(ParseError) as err:
        ex.parse("u^^2")
    assert err.value.offset == 2
    assert "number" in err.value.expected


def test_nonconstant_exponent_is_rejected():
    with pytest.raises(ParseError):
        ex.parse("2^u")


@pytest.mark.parametrize("text, w, expected", [
    ("exp(2*i*u)", 0.0, 1.0),
    ("u^2", 1 + 1j, 2j),
    ("exp(2*i*u)", 1j, math.exp(-2)),
    ("sinh(u) + cosh(u)", 1.0, math.exp(1)),
])
def test_eval_values(text, w, expected):
    assert ex.parse(text).eval(w) == pytest.approx(expected, abs=1e-14)


def test_eval_principal_branches():
    assert ex.parse("log(u)").eval(-1.0) == pytest.approx(1j * math.pi)
    assert ex.parse("sqrt(u)").eval(-4.0) == pytest.approx(2j)
    assert ex.parse("u^0.5").eval(-4.0) == pytest.approx(2j)


def test_division_by_zero_carries_the_argument():
    with pytest.raises(EvalError) as err:
        ex.parse("1/u").eval(0j)
    assert err.value.w == 0j
    with pytest.raises(EvalError):
        ex.parse("log(u)").eval(0.0)


def test_zero_to_negative_power_fails():
    with pytest.raises(EvalError):
        ex.parse("u^-2").eval(0.0)


def test_diff_power_rule_semantically():
    d = ex.diff(ex.parse("u^2"))
    ref = ex.parse("2*u")
    for w in (0.3, -1.2, 2 + 1j, -0.5j, 1.7 - 0.4j):
        assert d.eval(w) == pytest.approx(ref.eval(w), abs=1e-12)


def test_diff_chain_rule_at_zero():
    assert ex.diff(ex.parse("exp(2*i*u)")).eval(0.0) == pytest.approx(2j)


def test_diff_constant_is_zero():
    assert ex.diff(ex.parse("3.5")) == ex.Const(0j)
    assert ex.diff(ex.parse("exp(2*i)")) == ex.Const(0j)


def test_compiled_matches_eval():
    # the last is a flat sum 250 binary nodes deep
    for text in ("exp(2*i*u)", "u^2 - 3/u", "sqrt(u + 4)", "(u - 2*i)^3 / (u + 5)",
                 " + ".join(["0.001*u"] * 250)):
        node = ex.parse(text)
        fn = ex.compile_ast(node)
        for w in (0.7, -1.3 + 0.2j, 2.5j):
            assert fn(w) == node.eval(w)


def test_compiled_constants_keep_their_bits():
    # 0.0 == -0.0, but u + 0.0 and u + -0.0 differ at u = -0.0 - 0.0j
    u = ex.Var()
    pos, neg = ex.Add(u, ex.Const(complex(0.0, 0.0))), ex.Add(u, ex.Const(complex(-0.0, -0.0)))
    fn = ex.compile_ast((pos, neg))
    w = complex(-0.0, -0.0)
    assert [_bits(v) for v in fn(w)] == [_bits(pos.eval(w)), _bits(neg.eval(w))]
    assert _bits(fn(w)[0]) != _bits(fn(w)[1])


def test_overflowing_literal_compiles():
    # 1e400 parses to an infinite constant, which has no Python literal
    assert cmath.isnan(ex.compile_ast(ex.parse("1e400*u - 1e400*u"))(1.0))


# ---------------------------------------------------------------------------
# randomized properties

_floats = st.floats(-3, 3, allow_nan=False)
_consts = st.builds(lambda re, im: ex.const(complex(re, im)), _floats, _floats)
_real_consts = st.builds(lambda re: ex.const(complex(re, 0.0)), _floats)


def _ast_strategy(consts):
    base = st.one_of(consts, st.just(ex.var()))

    def extend(children):
        return st.one_of(
            children.map(ex.neg),
            st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(lambda t: ex.call(*t)),
            st.tuples(st.sampled_from((ex.add, ex.sub, ex.mul, ex.div)),
                      children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, st.sampled_from((-2, -1, 2, 3, 0.5))).map(
                lambda t: ex.pow_(t[0], ex.const(t[1]))),
        )

    return st.recursive(base, extend, max_leaves=8)


def _subnodes(e):
    yield e
    for attr in ("a", "b", "base", "exponent", "arg"):
        child = getattr(e, attr, None)
        if isinstance(child, ex.ExprAST):
            yield from _subnodes(child)


def _consts_finite(e):
    return all(cmath.isfinite(n.value) for n in _subnodes(e) if isinstance(n, ex.Const))


def _stencil_safe(e, points, bound=20.0):
    """All subvalues finite and bounded, denominators and branch arguments
    comfortably away from poles and the principal cut."""
    try:
        for w in points:
            for n in _subnodes(e):
                v = n.eval(w)
                if not cmath.isfinite(v) or abs(v) > bound:
                    return False
                if isinstance(n, ex.Div) and abs(n.b.eval(w)) < 5e-2:
                    return False
                if isinstance(n, ex.Call) and n.name in ("log", "sqrt"):
                    z = n.arg.eval(w)
                    if abs(z) < 5e-2 or (z.real < 5e-2 and abs(z.imag) < 5e-2):
                        return False
                if isinstance(n, ex.Pow):
                    z = n.base.eval(w)
                    c = n.exponent.eval(0j)
                    integral = c.imag == 0 and c.real == int(c.real)
                    if not integral and (abs(z) < 5e-2
                                         or (z.real < 5e-2 and abs(z.imag) < 5e-2)):
                        return False
                    if integral and c.real < 0 and abs(z) < 5e-2:
                        return False
    except EvalError:
        return False
    return True


@given(e=_ast_strategy(_consts), wr=st.floats(-1.5, 1.5), wi=st.floats(-1.5, 1.5))
@settings(max_examples=100, deadline=None)
def test_fd_matches_symbolic_derivative(e, wr, wi):
    w = complex(wr, wi)
    h = 1e-5
    assume(_consts_finite(e))
    assume(_stencil_safe(e, [w, w + h, w - h, w + h / 2, w - h / 2]))
    try:
        sym = ex.diff(e).eval(w)
    except EvalError:
        assume(False)
    assume(abs(sym) < 50)
    fd = (e.eval(w + h) - e.eval(w - h)) / (2 * h)
    fd_half = (e.eval(w + h / 2) - e.eval(w - h / 2)) / h
    assume(abs(fd - fd_half) < 5e-7)  # skip points where the stencil has not converged
    assert abs(fd - sym) <= 1e-6


@given(e=_ast_strategy(_consts))
@settings(max_examples=200, deadline=None)
def test_print_parse_roundtrip(e):
    assume(_consts_finite(e))
    text = ex.to_string(e)
    assert ex.parse(text) == e
    # and printing again is a fixed point
    assert ex.to_string(ex.parse(text)) == text


@given(e=_ast_strategy(_real_consts), wr=st.floats(-1.5, 1.5))
@settings(max_examples=100, deadline=None)
def test_real_coefficients_real_arguments_real_values(e, wr):
    assume(_consts_finite(e))
    # constant folding of e.g. log(-2) can legally introduce complex
    # constants; those trees no longer have real coefficients
    assume(all(n.value.imag == 0 for n in _subnodes(e) if isinstance(n, ex.Const)))
    assume(_stencil_safe(e, [wr]))
    value = e.eval(wr)
    assert abs(value.imag) <= 1e-14 * (1.0 + abs(value))


def _bits(z) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


_parts = st.one_of(st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf]),
                   st.floats(-3, 3))
_raw_consts = st.builds(lambda re, im: ex.Const(complex(re, im)), _parts, _parts)


def _raw_ast_strategy():
    """Trees built from the node classes, so nothing is folded away."""
    base = st.one_of(_raw_consts, st.just(ex.Var()))

    def extend(children):
        return st.one_of(
            children.map(ex.Neg),
            st.tuples(st.sampled_from(ex.FUNCTIONS), children).map(lambda t: ex.Call(*t)),
            st.tuples(st.sampled_from((ex.Add, ex.Sub, ex.Mul, ex.Div)),
                      children, children).map(lambda t: t[0](t[1], t[2])),
            st.tuples(children, st.sampled_from((-2, -1, 2, 3, 0.5))).map(
                lambda t: ex.Pow(t[0], ex.Const(complex(t[1])))),
        )

    return st.recursive(base, extend, max_leaves=10)


_args = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2, 2))
_NATIVE_ERRORS = (ZeroDivisionError, ValueError, OverflowError)


def _eval_bits(e, w):
    try:
        return _bits(e.eval(w))
    except EvalError:
        return None


@given(e=_raw_ast_strategy(), wr=_args, wi=_args)
@settings(max_examples=300, deadline=None)
def test_compiled_is_bitwise_eval(e, wr, wi):
    w = complex(wr, wi)
    want = _eval_bits(e, w)
    fn = ex.compile_ast(e)
    if want is None:
        with pytest.raises(_NATIVE_ERRORS):
            fn(w)
    else:
        assert _bits(fn(w)) == want


@given(shared=_raw_ast_strategy(), a=_raw_ast_strategy(), b=_raw_ast_strategy(),
       wr=_args, wi=_args)
@settings(max_examples=200, deadline=None)
def test_compiled_tuple_is_bitwise_eval(shared, a, b, wr, wi):
    # subtrees shared by identity and by structure, within and across entries
    trees = (ex.Add(shared, a), ex.Mul(b, shared), shared, ex.Add(shared, a),
             ex.Sub(a, b))
    w = complex(wr, wi)
    want = [_eval_bits(t, w) for t in trees]
    fn = ex.compile_ast(trees)
    if None in want:
        with pytest.raises(_NATIVE_ERRORS):
            fn(w)
    else:
        assert [_bits(v) for v in fn(w)] == want
