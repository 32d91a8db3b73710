import cmath
import copy
import functools
import math
import pickle
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lightcone import bjorling as bj
from lightcone import expr as ex
from lightcone.errors import EvalError, ParseError


# ---------------------------------------------------------------------------
# references: the recursive evaluation, derivative and printer the module
# replaced with its one explicit-stack walker and its compiler

_REF_FUNCS = {"exp": cmath.exp, "log": cmath.log, "sqrt": cmath.sqrt, "sin": cmath.sin,
              "cos": cmath.cos, "sinh": cmath.sinh, "cosh": cmath.cosh}


def _ref_eval(e, w):
    """One recursive evaluation per node; poles raise EvalError."""
    if isinstance(e, ex.Const):
        return e.value
    if isinstance(e, ex.Var):
        return complex(w)
    if isinstance(e, ex.Neg):
        return -_ref_eval(e.a, w)
    if isinstance(e, ex.Add):
        return _ref_eval(e.a, w) + _ref_eval(e.b, w)
    if isinstance(e, ex.Sub):
        return _ref_eval(e.a, w) - _ref_eval(e.b, w)
    if isinstance(e, ex.Mul):
        return _ref_eval(e.a, w) * _ref_eval(e.b, w)
    if isinstance(e, ex.Div):
        den = _ref_eval(e.b, w)
        if den == 0:
            raise EvalError("division by zero", w)
        return _ref_eval(e.a, w) / den
    if isinstance(e, ex.Pow):
        try:
            return ex._cpow(_ref_eval(e.base, w), _ref_eval(e.exponent, w))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalError(str(exc), w) from exc
    z = _ref_eval(e.arg, w)
    try:
        return _REF_FUNCS[e.name](z)
    except (ValueError, OverflowError) as exc:
        raise EvalError(f"{e.name}: {exc}", w) from exc


def _ref_diff(e):
    """The recursive derivative, building through the folding constructors."""
    if isinstance(e, ex.Const):
        return ex.Const(0j)
    if isinstance(e, ex.Var):
        return ex.Const(1 + 0j)
    if isinstance(e, ex.Neg):
        return ex.neg(_ref_diff(e.a))
    if isinstance(e, ex.Add):
        return ex.add(_ref_diff(e.a), _ref_diff(e.b))
    if isinstance(e, ex.Sub):
        return ex.sub(_ref_diff(e.a), _ref_diff(e.b))
    if isinstance(e, ex.Mul):
        return ex.add(ex.mul(_ref_diff(e.a), e.b), ex.mul(e.a, _ref_diff(e.b)))
    if isinstance(e, ex.Div):
        return ex.div(ex.sub(ex.mul(_ref_diff(e.a), e.b), ex.mul(e.a, _ref_diff(e.b))),
                      ex.mul(e.b, e.b))
    if isinstance(e, ex.Pow):
        c = e.exponent
        return ex.mul(ex.mul(c, ex.pow_(e.base, ex.sub(c, ex.Const(1 + 0j)))),
                      _ref_diff(e.base))
    g, dg = e.arg, _ref_diff(e.arg)
    if e.name == "exp":
        return ex.mul(ex.call("exp", g), dg)
    if e.name == "log":
        return ex.div(dg, g)
    if e.name == "sqrt":
        return ex.div(dg, ex.mul(ex.Const(2 + 0j), ex.call("sqrt", g)))
    if e.name == "sin":
        return ex.mul(ex.call("cos", g), dg)
    if e.name == "cos":
        return ex.neg(ex.mul(ex.call("sin", g), dg))
    if e.name == "sinh":
        return ex.mul(ex.call("cosh", g), dg)
    return ex.mul(ex.call("sinh", g), dg)  # cosh


def _ref_render(e):
    """The recursive printer: (text, binding level)."""
    if isinstance(e, ex.Const):
        return ex._fmt_const(e.value)
    if isinstance(e, ex.Var):
        return ("u", ex._LVL_ATOM)
    if isinstance(e, ex.Neg):
        s, lvl = _ref_render(e.a)
        if lvl < ex._LVL_NEG:
            s = f"({s})"
        return (f"-{s}", ex._LVL_NEG)
    if isinstance(e, (ex.Add, ex.Sub)):
        op = "+" if isinstance(e, ex.Add) else "-"
        ls, ll = _ref_render(e.a)
        rs, rl = _ref_render(e.b)
        if ll < ex._LVL_ADD:
            ls = f"({ls})"
        if rl <= ex._LVL_ADD:
            rs = f"({rs})"
        return (f"{ls} {op} {rs}", ex._LVL_ADD)
    if isinstance(e, (ex.Mul, ex.Div)):
        op = "*" if isinstance(e, ex.Mul) else "/"
        ls, ll = _ref_render(e.a)
        rs, rl = _ref_render(e.b)
        if ll < ex._LVL_MUL:
            ls = f"({ls})"
        if rl <= ex._LVL_MUL:
            rs = f"({rs})"
        return (f"{ls}{op}{rs}", ex._LVL_MUL)
    if isinstance(e, ex.Pow):
        bs, bl = _ref_render(e.base)
        es, el = _ref_render(e.exponent)
        if bl < ex._LVL_ATOM:
            bs = f"({bs})"
        if el < ex._LVL_NEG:
            es = f"({es})"
        return (f"{bs}^{es}", ex._LVL_POW)
    return (f"{e.name}({_ref_render(e.arg)[0]})", ex._LVL_ATOM)


def _value(text, w):
    return ex.compile_ast(ex.parse(text))(complex(w))


def test_parse_structure():
    assert ex.parse("exp(2*i*u)") == ex.Call("exp", ex.Mul(ex.Const(2j), ex.Var()))


def test_parse_is_whitespace_insensitive():
    assert ex.parse("  exp( 2 * i\t* u )\n") == ex.parse("exp(2*i*u)")


def test_constant_rational_arithmetic():
    # (a-2)/(a+2) at a = 3/2 is -1/7, folded at parse time
    node = ex.parse("(1.5-2)/(1.5+2)")
    assert isinstance(node, ex.Const)
    assert node.value == pytest.approx(-1 / 7, abs=1e-16)


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
    assert _value(text, w) == pytest.approx(expected, abs=1e-14)


def test_eval_principal_branches():
    assert _value("log(u)", -1.0) == pytest.approx(1j * math.pi)
    assert _value("sqrt(u)", -4.0) == pytest.approx(2j)
    assert _value("u^0.5", -4.0) == pytest.approx(2j)


def test_division_by_zero_carries_the_argument():
    # compiled code raises the native errors at poles, for the integrators
    # that know w; boundary data that is not finite at a sample raises
    # EvalError carrying the sample, as the caller's node array holds it
    with pytest.raises(ZeroDivisionError):
        _value("1/u", 0j)
    with pytest.raises(ValueError):
        _value("log(u)", 0.0)
    with pytest.raises(OverflowError):  # and a tuple, failing in one entry
        ex.compile_ast((ex.parse("u"), ex.parse("exp(u)")))(1e6 + 0j)
    zero, one = ex.parse("0"), ex.parse("1")
    data = bj.BjorlingData(bj.MatrixExpr(one, zero, zero, ex.parse("1/u")),
                           bj.MatrixExpr(zero, one, one, zero), (0.0, 1.0))
    assert data.nodes()[0] == 0.0
    with pytest.raises(EvalError) as err:
        bj.check_conformality(data)
    assert err.value.w == 0.0 and isinstance(err.value.w, float)
    assert str(err.value) == "gamma is not finite at w = 0.0"


def test_zero_to_negative_power_fails():
    with pytest.raises(ZeroDivisionError):
        _value("u^-2", 0.0)


def test_diff_power_rule_semantically():
    d = ex.diff(ex.parse("u^2"))
    ref = ex.parse("2*u")
    for w in (0.3, -1.2, 2 + 1j, -0.5j, 1.7 - 0.4j):
        assert ex.compile_ast(d)(w) == pytest.approx(ex.compile_ast(ref)(w), abs=1e-12)


def test_diff_chain_rule_at_zero():
    assert ex.compile_ast(ex.diff(ex.parse("exp(2*i*u)")))(0j) == pytest.approx(2j)


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
            assert fn(w) == _ref_eval(node, w)


def test_compiled_constants_keep_their_bits():
    # 0.0 == -0.0, but u + 0.0 and u + -0.0 differ at u = -0.0 - 0.0j
    u = ex.Var()
    pos, neg = ex.Add(u, ex.Const(complex(0.0, 0.0))), ex.Add(u, ex.Const(complex(-0.0, -0.0)))
    fn = ex.compile_ast((pos, neg))
    w = complex(-0.0, -0.0)
    assert [_bits(v) for v in fn(w)] == [_bits(_ref_eval(pos, w)), _bits(_ref_eval(neg, w))]
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
                v = _ref_eval(n, w)
                if not cmath.isfinite(v) or abs(v) > bound:
                    return False
                if isinstance(n, ex.Div) and abs(_ref_eval(n.b, w)) < 5e-2:
                    return False
                if isinstance(n, ex.Call) and n.name in ("log", "sqrt"):
                    z = _ref_eval(n.arg, w)
                    if abs(z) < 5e-2 or (z.real < 5e-2 and abs(z.imag) < 5e-2):
                        return False
                if isinstance(n, ex.Pow):
                    z = _ref_eval(n.base, w)
                    c = _ref_eval(n.exponent, 0j)
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
        sym = ex.compile_ast(ex.diff(e))(w)
    except _NATIVE_ERRORS:
        assume(False)
    assume(abs(sym) < 50)
    f = ex.compile_ast(e)
    fd = (f(w + h) - f(w - h)) / (2 * h)
    fd_half = (f(w + h / 2) - f(w - h / 2)) / h
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
    value = ex.compile_ast(e)(complex(wr))
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
        return _bits(_ref_eval(e, w))
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


# ---------------------------------------------------------------------------
# the walker against the recursive references

def _shape(e):
    """Nested tuples of node types, names and constant bits (== equates 0.0
    with -0.0 and no NaN with itself)."""
    if isinstance(e, ex.Const):
        return ("Const", _bits(e.value))
    if isinstance(e, ex.Call):
        return ("Call", e.name, _shape(e.arg))
    return (type(e).__name__, *(_shape(kid) for kid in ex._children(e)))


@given(e=st.one_of(_ast_strategy(_consts), _raw_ast_strategy()))
@settings(max_examples=100, deadline=None)
def test_diff_equals_the_recursive_reference(e):
    assert _shape(ex.diff(e)) == _shape(_ref_diff(e))
    assert _shape(ex.diff(ex.diff(e))) == _shape(_ref_diff(_ref_diff(e)))


@given(e=st.one_of(_ast_strategy(_consts), _raw_ast_strategy()))
@settings(max_examples=100, deadline=None)
def test_to_string_equals_the_recursive_reference(e):
    assert ex.to_string(e) == _ref_render(e)[0]
    d = ex.diff(e)
    assert ex.to_string(d) == _ref_render(d)[0]


@given(e=_ast_strategy(_consts))
@settings(max_examples=50, deadline=None)
def test_constant_flag_matches_the_tree(e):
    def has_var(n):
        return isinstance(n, ex.Var) or any(has_var(kid) for kid in ex._children(n))
    for n in _subnodes(e):
        assert n.constant == (not has_var(n))
    # only a failed fold leaves a constant node that is not a Const
    if e.constant and not isinstance(e, ex.Const):
        with pytest.raises(EvalError):
            _ref_eval(e, 0j)


def test_constant_flag_is_not_compared():
    u = ex.Var()
    assert ex.Add(u, ex.Const(1j)) == ex.Add(u, ex.Const(1j))
    assert hash(ex.Add(u, ex.Const(1j))) == hash(ex.Add(u, ex.Const(1j)))
    assert not ex.Add(u, ex.Const(1j)).constant and ex.Add(ex.Const(1j), ex.Const(1j)).constant
    with pytest.raises(TypeError):
        ex.Const(1j, True)


@pytest.mark.parametrize("text", ["exp(2*i*u) + 1/u", "1/0 + u^0.5", "u", "2*i"])
@pytest.mark.parametrize("how", ["copy", "deepcopy", "pickle"])
def test_copies_keep_equality_the_constant_flag_and_the_text(text, how):
    e = ex.parse(text)
    c = {"copy": copy.copy, "deepcopy": copy.deepcopy,
         "pickle": lambda n: pickle.loads(pickle.dumps(n))}[how](e)
    assert c == e and ex.to_string(c) == ex.to_string(e)
    assert [n.constant for n in _subnodes(c)] == [n.constant for n in _subnodes(e)]
    # the copy builds and differentiates like the original
    assert ex.add(c, ex.var()) == ex.add(e, ex.var()) and ex.diff(c) == ex.diff(e)


def test_deep_copy_of_a_deep_tree_does_not_recurse():
    e = ex.parse("1" + "+0.001*u-0.001*u" * 500)
    assert copy.deepcopy(e) is e


def test_folding_keeps_a_failed_fold():
    pole = ex.parse("1/0")
    assert pole == ex.Div(ex.Const(1 + 0j), ex.Const(0j)) and pole.constant
    assert ex.parse("1/0 + 2") == ex.Add(pole, ex.Const(2 + 0j))
    assert ex.parse("log(0)") == ex.Call("log", ex.Const(0j))


def test_deep_sum_parses_differentiates_prints_and_compiles():
    # a left-deep sum 10^4 levels deep, far past Python's recursion limit
    terms = 10 ** 4
    text = "u" + " + 0.001*u*u" * (terms - 1)
    e = ex.parse(text)
    assert ex.to_string(e) == text
    d = ex.diff(e)
    w = 0.3 - 0.2j
    sq = complex(0.001) * w * w
    value = w
    for _ in range(terms - 1):
        value = value + sq
    assert _bits(ex.compile_ast(e)(w)) == _bits(value)
    dt = complex(0.001) * w
    slope = 1 + 0j
    for _ in range(terms - 1):
        slope = slope + (dt + dt)
    assert _bits(ex.compile_ast(d)(w)) == _bits(slope)


# ---------------------------------------------------------------------------
# the array binding against the scalar one

def _scalar_or_none(fn, w):
    """The scalar binding's value at w, or None where it raises or is not finite."""
    try:
        values = fn(complex(w))
    except _NATIVE_ERRORS:
        return None
    values = values if isinstance(values, tuple) else (values,)
    return values if all(cmath.isfinite(v) for v in values) else None


def _assert_array_matches_scalar(e, w):
    """Each array value within 1e-13 (1 + max|scalar|) of the scalar one, and
    NaN exactly where the scalar code raises or gives a non-finite value."""
    w = np.asarray(w, dtype=complex)
    before = w.copy()
    got = ex.compile_ast(e, array=True)(w)
    assert np.array_equal(w, before, equal_nan=True)  # the input is untouched
    got = got if isinstance(got, tuple) else (got,)
    assert all(g.shape == w.shape for g in got)
    scalar = ex.compile_ast(e)
    want = [_scalar_or_none(scalar, wk) for wk in w.ravel().tolist()]
    for k, g in enumerate(got):
        g = g.ravel()
        assert np.array_equal(np.isnan(g), [s is None for s in want])
        s = np.array([v[k] for v in want if v is not None])
        if s.size:
            assert np.max(np.abs(g[~np.isnan(g)] - s)) <= 1e-13 * (1.0 + np.max(np.abs(s)))


def _jet(wd):
    return (wd.G, wd.omega, ex.diff(wd.G), ex.diff(wd.omega))


@functools.cache
def _array_pool():
    """README entries, the jets of the catenoid and non-rotational data from
    the classification table and from extraction, and pole cases."""
    from lightcone import bjorling as bj
    from lightcone import catenoids as ct
    pool = [ex.parse(t) for t in ("1", "exp(2*i*u)", "exp(-2*i*u)", "-0.5",
                                  "1.5*exp(2*i*u)", "1.5*exp(-2*i*u)", "3.5",
                                  "1/u^2", "log(u)", "sqrt(u) + u^0.5", "u^-3 + cosh(u)")]
    for family, p in (("elliptic", 1.5), ("hyperbolic", 1.5), ("parabolic", 0.5)):
        spec = ct.CatenoidSpec(family, p)
        pool.append(_jet(ct.classification_weierstrass(spec)))
        pool.append(_jet(bj.weierstrass_from_bjorling(ct.catenoid_bjorling_data(spec))))
    pool.append(_jet(ct.nonrotational_weierstrass_wchart(0.5)))
    pool.append(_jet(bj.weierstrass_from_bjorling(ct.nonrotational_bjorling_data(0.5))))
    return pool


_bounded = st.floats(-2, 2)
_points = st.lists(st.one_of(st.just(0j), st.builds(complex, _bounded, _bounded)),
                   min_size=1, max_size=6)


@given(k=st.integers(0, 21), w=_points)
@settings(max_examples=60, deadline=None)
def test_array_binding_matches_the_scalar_binding_on_the_pool(k, w):
    pool = _array_pool()
    _assert_array_matches_scalar(pool[k % len(pool)], w)


def _term(c, kind, k):
    """c u^k or c exp(k u)."""
    if kind == "poly":
        return ex.mul(ex.const(c), ex.pow_(ex.var(), ex.const(k)))
    return ex.mul(ex.const(c), ex.call("exp", ex.mul(ex.const(k), ex.var())))


_terms = st.builds(_term, st.builds(complex, _floats, _floats), st.sampled_from(["poly", "exp"]),
                   st.integers(-2, 5))


@given(terms=st.lists(_terms, min_size=1, max_size=4), factor=_terms, w=_points)
@settings(max_examples=60, deadline=None)
def test_array_binding_matches_the_scalar_binding_on_sums_of_terms(terms, factor, w):
    total = terms[0]
    for t in terms[1:]:
        total = ex.add(total, t)
    _assert_array_matches_scalar((total, ex.mul(total, factor), ex.diff(total)), w)


def test_array_binding_never_squares_in_place():
    w = np.array([0.5 + 0.25j, -2.0, 3j, 0j])
    before = w.copy()
    got = ex.compile_ast(ex.parse("u^3 + u"), array=True)(w)
    assert np.array_equal(w, before)
    assert np.max(np.abs(got - (w * w * w + w))) <= 1e-15 * np.max(np.abs(got))
    # a root that is the variable itself comes back as a new array
    same = ex.compile_ast(ex.var(), array=True)(w)
    assert np.array_equal(same, w) and same is not w


def test_constant_roots_broadcast_to_the_shape_of_w():
    w = np.zeros((3, 2), dtype=complex)
    one, two = ex.compile_ast((ex.parse("2*i"), ex.parse("u + 1")), array=True)(w)
    assert one.shape == two.shape == (3, 2)
    assert np.all(one == 2j) and np.all(two == 1)
    assert ex.compile_ast(ex.parse("3"), array=True)(w).shape == (3, 2)


@pytest.mark.parametrize("text, w_bad", [
    ("1/u^2", 0j), ("log(u)", 0j), ("exp(log(u))", 0j), ("u^-1", 0j),
    ("1/exp(u)", 800 + 0j), ("u^(0.5+i)", 0j), ("sinh(u)", 800 + 0j)])
def test_array_binding_is_nan_exactly_where_the_scalar_code_raises(text, w_bad):
    # numpy gives 0 for 1/exp(800) and for exp(log(0)); both must be NaN
    e = ex.parse(text)
    with pytest.raises(_NATIVE_ERRORS):
        ex.compile_ast(e)(w_bad)
    _assert_array_matches_scalar(e, [w_bad, 1.0, 0.5 + 0.5j])


def test_array_binding_keeps_the_finite_values_at_a_zero_base():
    w = np.array([0j, 2.0])
    assert ex.compile_ast(ex.parse("u^0.5"), array=True)(w)[0] == 0
    assert ex.compile_ast(ex.parse("u^2"), array=True)(w)[0] == 0
    raw_zeroth = ex.Pow(ex.var(), ex.Const(0j))  # the parser folds u^0 away
    assert np.array_equal(ex.compile_ast(raw_zeroth, array=True)(w), [1, 1])
    for e in (ex.parse("u^0.5"), ex.parse("u^2"), raw_zeroth):
        _assert_array_matches_scalar(e, w)
