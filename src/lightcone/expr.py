"""Analytic expressions of one variable `u`, evaluable at complex arguments.

Curves and tangent fields enter the library as expression strings.  Because
every node evaluates with standard complex semantics (principal branches for
log/sqrt/powers), evaluating at w = u + iv *is* the analytic extension used
by the surface construction: no separate continuation machinery is needed.

The grammar, low to high precedence:

    additive        ->  multiplicative (('+'|'-') multiplicative)*
    multiplicative  ->  unary (('*'|'/') unary)*
    unary           ->  '-' unary | power
    power           ->  atom ('^' unary)?          (right associative)
    atom            ->  NUMBER | 'i' | 'u' | FUNC '(' additive ')' | '(' additive ')'

Numbers are decimal with optional exponent.  `^` exponents must be constant
subexpressions.  The only simplification performed anywhere is constant
folding; derivative trees are left as produced by the rules.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import EvalError, ParseError

__all__ = [
    "ExprAST", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse", "diff", "to_string", "compile_ast",
    "const", "var", "add", "sub", "mul", "div", "neg", "pow_", "call",
]

FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "sinh", "cosh")

_FUNC_EVAL = {
    "exp": cmath.exp,
    "sqrt": cmath.sqrt,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "sinh": cmath.sinh,
    "cosh": cmath.cosh,
}


def _clog(z: complex) -> complex:
    # principal branch, argument in (-pi, pi]; cmath raises ValueError at 0
    return cmath.log(z)


def _cpow(b: complex, c: complex) -> complex:
    """Principal-branch power; integer exponents use exact repeated squaring."""
    if c.imag == 0.0 and c.real == int(c.real) and abs(c.real) <= 512:
        n = int(c.real)
        if b == 0:
            if n > 0:
                return 0j
            if n == 0:
                return 1 + 0j
            raise ZeroDivisionError("0 raised to a negative power")
        if n < 0:
            return 1.0 / _ipow(b, -n)
        return _ipow(b, n)
    if b == 0:
        if c.imag == 0.0 and c.real > 0:
            return 0j
        raise ZeroDivisionError("0 raised to a non-real or non-positive power")
    return cmath.exp(c * cmath.log(b))


def _ipow(b: complex, n: int) -> complex:
    r = 1 + 0j
    while n:
        if n & 1:
            r *= b
        b *= b
        n >>= 1
    return r


class ExprAST:
    """Base node.  Subclasses are immutable and hashable."""

    __slots__ = ()

    def eval(self, w: complex) -> complex:
        raise NotImplementedError

    def is_constant(self) -> bool:
        raise NotImplementedError

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(ExprAST):
    value: complex

    def eval(self, w):
        return self.value

    def is_constant(self):
        return True


@dataclass(frozen=True, slots=True)
class Var(ExprAST):
    def eval(self, w):
        return complex(w)

    def is_constant(self):
        return False


@dataclass(frozen=True, slots=True)
class Neg(ExprAST):
    a: ExprAST

    def eval(self, w):
        return -self.a.eval(w)

    def is_constant(self):
        return self.a.is_constant()


@dataclass(frozen=True, slots=True)
class Add(ExprAST):
    a: ExprAST
    b: ExprAST

    def eval(self, w):
        return self.a.eval(w) + self.b.eval(w)

    def is_constant(self):
        return self.a.is_constant() and self.b.is_constant()


@dataclass(frozen=True, slots=True)
class Sub(ExprAST):
    a: ExprAST
    b: ExprAST

    def eval(self, w):
        return self.a.eval(w) - self.b.eval(w)

    def is_constant(self):
        return self.a.is_constant() and self.b.is_constant()


@dataclass(frozen=True, slots=True)
class Mul(ExprAST):
    a: ExprAST
    b: ExprAST

    def eval(self, w):
        return self.a.eval(w) * self.b.eval(w)

    def is_constant(self):
        return self.a.is_constant() and self.b.is_constant()


@dataclass(frozen=True, slots=True)
class Div(ExprAST):
    a: ExprAST
    b: ExprAST

    def eval(self, w):
        den = self.b.eval(w)
        if den == 0:
            raise EvalError("division by zero", w)
        return self.a.eval(w) / den

    def is_constant(self):
        return self.a.is_constant() and self.b.is_constant()


@dataclass(frozen=True, slots=True)
class Pow(ExprAST):
    base: ExprAST
    exponent: ExprAST  # constant by construction

    def __post_init__(self):
        if not self.exponent.is_constant():
            raise ValueError("power exponent must be a constant expression")

    def eval(self, w):
        try:
            return _cpow(self.base.eval(w), self.exponent.eval(w))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvalError(str(exc), w) from exc

    def is_constant(self):
        return self.base.is_constant()


@dataclass(frozen=True, slots=True)
class Call(ExprAST):
    name: str
    arg: ExprAST

    def eval(self, w):
        z = self.arg.eval(w)
        try:
            if self.name == "log":
                return _clog(z)
            return _FUNC_EVAL[self.name](z)
        except (ValueError, OverflowError) as exc:
            raise EvalError(f"{self.name}: {exc}", w) from exc

    def is_constant(self):
        return self.arg.is_constant()


# ---------------------------------------------------------------------------
# folding constructors (the parser and the differentiator build through these)

def const(value) -> Const:
    return Const(complex(value))


def var() -> Var:
    return Var()


def _fold1(node, a):
    if a.is_constant():
        try:
            return Const(node.eval(0j))
        except EvalError:
            return node
    return node


def _fold2(node, a, b):
    if a.is_constant() and b.is_constant():
        try:
            return Const(node.eval(0j))
        except EvalError:
            return node
    return node


def neg(a):
    return _fold1(Neg(a), a)


def add(a, b):
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return _fold2(Add(a, b), a, b)


def sub(a, b):
    if isinstance(b, Const) and b.value == 0:
        return a
    return _fold2(Sub(a, b), a, b)


def mul(a, b):
    if isinstance(a, Const):
        if a.value == 0:
            return Const(0j)
        if a.value == 1:
            return b
    if isinstance(b, Const):
        if b.value == 0:
            return Const(0j)
        if b.value == 1:
            return a
    return _fold2(Mul(a, b), a, b)


def div(a, b):
    if isinstance(a, Const) and a.value == 0 and not (isinstance(b, Const) and b.value == 0):
        return Const(0j)
    if isinstance(b, Const) and b.value == 1:
        return a
    return _fold2(Div(a, b), a, b)


def pow_(base, exponent):
    if isinstance(exponent, Const):
        if exponent.value == 1:
            return base
        if exponent.value == 0:
            return Const(1 + 0j)
    return _fold2(Pow(base, exponent), base, exponent)


def call(name, arg):
    return _fold1(Call(name, arg), arg)


# ---------------------------------------------------------------------------
# tokenizer / recursive descent parser

_ATOM_EXPECTED = frozenset({"number", "i", "u", "function", "("})

# nesting of parentheses, calls, unary minus and exponents; bounds the parser's
# recursion and keeps derivatives of extracted data within Python's compiler
MAX_NESTING = 32


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self._advance()

    def _advance(self):
        text, n = self.text, len(self.text)
        i = self.pos
        while i < n and text[i] in " \t\r\n":
            i += 1
        self.tok_start = i
        if i >= n:
            self.tok = ("eof", "")
            self.pos = i
            return
        ch = text[i]
        if ch in "+-*/^()":
            self.tok = (ch, ch)
            self.pos = i + 1
            return
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            self.tok = ("number", text[i:j])
            self.pos = j
            return
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            self.tok = ("ident", text[i:j])
            self.pos = j
            return
        raise ParseError(f"unexpected character {ch!r}", i)


def parse(text: str) -> ExprAST:
    """Parse a source string into an AST (constants folded)."""
    tz = _Tokenizer(text)
    node = _parse_additive(tz)
    if tz.tok[0] != "eof":
        raise ParseError(f"unexpected token {tz.tok[1]!r}", tz.tok_start,
                         frozenset({"end of input", "operator"}))
    return node


def _parse_additive(tz):
    node = _parse_multiplicative(tz)
    while tz.tok[0] in ("+", "-"):
        op = tz.tok[0]
        tz._advance()
        rhs = _parse_multiplicative(tz)
        node = add(node, rhs) if op == "+" else sub(node, rhs)
    return node


def _parse_multiplicative(tz):
    node = _parse_unary(tz)
    while tz.tok[0] in ("*", "/"):
        op = tz.tok[0]
        tz._advance()
        rhs = _parse_unary(tz)
        node = mul(node, rhs) if op == "*" else div(node, rhs)
    return node


def _parse_unary(tz):
    tz.depth += 1
    if tz.depth > MAX_NESTING:
        raise ParseError(f"expression nests deeper than {MAX_NESTING} levels", tz.tok_start)
    if tz.tok[0] == "-":
        tz._advance()
        node = neg(_parse_unary(tz))
    else:
        node = _parse_power(tz)
    tz.depth -= 1
    return node


def _parse_power(tz):
    base = _parse_atom(tz)
    if tz.tok[0] == "^":
        tz._advance()
        exp_start = tz.tok_start
        exponent = _parse_unary(tz)
        if not exponent.is_constant():
            raise ParseError("power exponent must be constant", exp_start,
                             frozenset({"constant expression"}))
        return pow_(base, exponent)
    return base


def _parse_atom(tz):
    kind, text = tz.tok
    start = tz.tok_start
    if kind == "number":
        tz._advance()
        return const(float(text))
    if kind == "ident":
        if text == "i":
            tz._advance()
            return const(1j)
        if text == "u":
            tz._advance()
            return Var()
        if text in FUNCTIONS:
            tz._advance()
            if tz.tok[0] != "(":
                raise ParseError(f"expected '(' after {text!r}", tz.tok_start, frozenset({"("}))
            tz._advance()
            arg = _parse_additive(tz)
            if tz.tok[0] != ")":
                raise ParseError("expected ')'", tz.tok_start, frozenset({")"}))
            tz._advance()
            return call(text, arg)
        raise ParseError(f"unknown identifier {text!r}", start, _ATOM_EXPECTED)
    if kind == "(":
        tz._advance()
        node = _parse_additive(tz)
        if tz.tok[0] != ")":
            raise ParseError("expected ')'", tz.tok_start, frozenset({")"}))
        tz._advance()
        return node
    raise ParseError(f"expected an operand, got {text!r}" if text else "unexpected end of input",
                     start, _ATOM_EXPECTED)


# ---------------------------------------------------------------------------
# symbolic derivative

def diff(e: ExprAST) -> ExprAST:
    """Derivative with respect to the variable, as a new AST."""
    if isinstance(e, Const):
        return Const(0j)
    if isinstance(e, Var):
        return Const(1 + 0j)
    if isinstance(e, Neg):
        return neg(diff(e.a))
    if isinstance(e, Add):
        return add(diff(e.a), diff(e.b))
    if isinstance(e, Sub):
        return sub(diff(e.a), diff(e.b))
    if isinstance(e, Mul):
        return add(mul(diff(e.a), e.b), mul(e.a, diff(e.b)))
    if isinstance(e, Div):
        return div(sub(mul(diff(e.a), e.b), mul(e.a, diff(e.b))), mul(e.b, e.b))
    if isinstance(e, Pow):
        c = e.exponent
        return mul(mul(c, pow_(e.base, sub(c, Const(1 + 0j)))), diff(e.base))
    if isinstance(e, Call):
        g, dg = e.arg, diff(e.arg)
        if e.name == "exp":
            return mul(call("exp", g), dg)
        if e.name == "log":
            return div(dg, g)
        if e.name == "sqrt":
            return div(dg, mul(Const(2 + 0j), call("sqrt", g)))
        if e.name == "sin":
            return mul(call("cos", g), dg)
        if e.name == "cos":
            return neg(mul(call("sin", g), dg))
        if e.name == "sinh":
            return mul(call("cosh", g), dg)
        if e.name == "cosh":
            return mul(call("sinh", g), dg)
    raise TypeError(f"cannot differentiate {type(e).__name__}")


# ---------------------------------------------------------------------------
# printing (inverse of parse up to constant folding)

_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _fmt_real(x: float) -> str:
    return repr(float(x))


def _fmt_const(c: complex):
    re, im = c.real, c.imag
    if im == 0.0:
        s = _fmt_real(re)  # repr(-0.0) keeps the sign, so go by the string
        return (s, _LVL_NEG if s.startswith("-") else _LVL_ATOM)
    if re == 0.0:
        if im == 1.0:
            return ("i", _LVL_ATOM)
        if im == -1.0:
            return ("-i", _LVL_NEG)
        # both forms reparse as products, so they bind at Mul level
        if im > 0:
            return (f"{_fmt_real(im)}*i", _LVL_MUL)
        return (f"-{_fmt_real(-im)}*i", _LVL_MUL)
    # general a + b*i, parenthesized so it reparses as a single unit
    if im > 0:
        im_str = "i" if im == 1.0 else f"{_fmt_real(im)}*i"
        return (f"({_fmt_real(re)} + {im_str})", _LVL_ATOM)
    im_str = "i" if im == -1.0 else f"{_fmt_real(-im)}*i"
    return (f"({_fmt_real(re)} - {im_str})", _LVL_ATOM)


def _render(e: ExprAST):
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return ("u", _LVL_ATOM)
    if isinstance(e, Neg):
        s, lvl = _render(e.a)
        if lvl < _LVL_NEG:
            s = f"({s})"
        return (f"-{s}", _LVL_NEG)
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        ls, ll = _render(e.a)
        rs, rl = _render(e.b)
        if ll < _LVL_ADD:
            ls = f"({ls})"
        if rl <= _LVL_ADD:
            rs = f"({rs})"
        return (f"{ls} {op} {rs}", _LVL_ADD)
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        ls, ll = _render(e.a)
        rs, rl = _render(e.b)
        if ll < _LVL_MUL:
            ls = f"({ls})"
        if rl <= _LVL_MUL:
            rs = f"({rs})"
        return (f"{ls}{op}{rs}", _LVL_MUL)
    if isinstance(e, Pow):
        bs, bl = _render(e.base)
        es, el = _render(e.exponent)
        if bl < _LVL_ATOM:
            bs = f"({bs})"
        if el < _LVL_NEG:
            es = f"({es})"
        return (f"{bs}^{es}", _LVL_POW)
    if isinstance(e, Call):
        return (f"{e.name}({_render(e.arg)[0]})", _LVL_ATOM)
    raise TypeError(f"cannot print {type(e).__name__}")


def to_string(e: ExprAST) -> str:
    return _render(e)[0]


# ---------------------------------------------------------------------------
# compilation (hot-path evaluation; semantics identical to ExprAST.eval)

_COMPILE_NS = {
    "exp": cmath.exp, "log": _clog, "sqrt": cmath.sqrt,
    "sin": cmath.sin, "cos": cmath.cos, "sinh": cmath.sinh, "cosh": cmath.cosh,
    "_cpow": _cpow,
}


def _codegen(e: ExprAST) -> str:
    if isinstance(e, Const):
        return repr(complex(e.value))
    if isinstance(e, Var):
        return "u"
    if isinstance(e, Neg):
        return f"(-{_codegen(e.a)})"
    if isinstance(e, Add):
        return f"({_codegen(e.a)} + {_codegen(e.b)})"
    if isinstance(e, Sub):
        return f"({_codegen(e.a)} - {_codegen(e.b)})"
    if isinstance(e, Mul):
        return f"({_codegen(e.a)} * {_codegen(e.b)})"
    if isinstance(e, Div):
        return f"({_codegen(e.a)} / {_codegen(e.b)})"
    if isinstance(e, Pow):
        return f"_cpow({_codegen(e.base)}, {_codegen(e.exponent)})"
    if isinstance(e, Call):
        return f"{e.name}({_codegen(e.arg)})"
    raise TypeError(f"cannot compile {type(e).__name__}")


def compile_ast(e: ExprAST):
    """Compile to a plain callable w -> complex.

    Raises native ZeroDivisionError/ValueError/OverflowError at poles rather
    than EvalError; used inside integrators where the caller knows w.
    """
    src = f"lambda u: ({_codegen(e)})"
    return eval(compile(src, "<expr>", "eval"), dict(_COMPILE_NS))
