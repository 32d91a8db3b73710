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

Nodes are plain data: frozen dataclasses without methods, whose `constant`
flag is set once at construction from the children's flags.  One walker,
post-order with an explicit stack and memoised by node identity, serves the
derivative, the printer and the compiler, so a tree of any depth is walked
without recursion and a shared subtree once.  There is one evaluator, the
compiler: it emits straight-line code from the operation table `_OPS` and
`_FUNCS`, and constant folding applies the same table to `Const` children.
At poles the scalar code raises the native ZeroDivisionError, ValueError or
OverflowError.  The same source also binds to numpy (`compile_ast(e,
array=True)`): one call then evaluates a whole array of arguments, and a
node is NaN where the scalar code would raise.
"""

from __future__ import annotations

import cmath
import operator
import struct
from dataclasses import dataclass, fields

import numpy as np

from .errors import ParseError

__all__ = [
    "ExprAST", "Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow", "Call",
    "parse", "diff", "to_string", "compile_ast",
    "const", "var", "add", "sub", "mul", "div", "neg", "pow_", "call",
]


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


def _ipow(b, n: int):
    """b^n for n >= 0 by repeated squaring, for a complex or an array b.
    Never in place: an augmented assignment would write into an array b."""
    r = 1 + 0j
    while n:
        if n & 1:
            r = r * b
        b = b * b
        n >>= 1
    return r


_NAN = complex("nan+nanj")


def _cpow_array(b, c):
    """_cpow on an array base: the same operations, NaN where _cpow raises
    (a zero base under a negative or non-real exponent, a non-finite
    exponent)."""
    if not cmath.isfinite(c):
        return np.full(np.shape(b), _NAN)
    if c.imag == 0.0 and c.real == int(c.real) and abs(c.real) <= 512:
        n = int(c.real)
        if n == 0:
            return np.ones(np.shape(b), dtype=complex)
        # 1/0 gives inf at a zero base, which the caller flags
        return 1.0 / _ipow(b, -n) if n < 0 else _ipow(b, n)
    zero_ok = 0j if c.imag == 0.0 and c.real > 0 else _NAN
    return np.where(b == 0, zero_ok, np.exp(c * np.log(b)))


class ExprAST:
    """Base node.  Subclasses are immutable, hashable data.

    `constant` is set once, at construction, from the children's flags; it
    is no constructor argument and takes no part in == or hashing.
    """

    __slots__ = ("constant",)

    def __reduce__(self):
        # pickle rebuilds through the constructor, which sets `constant`:
        # the dataclass-generated state holds the fields only
        return type(self), tuple([getattr(self, f.name) for f in fields(self)])

    # immutable, like a tuple of immutables: a copy is the node itself, so
    # copying a grid that carries a deep tree does not recurse through it
    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __post_init__(self):
        kids = _children(self)
        object.__setattr__(self, "constant", all([kid.constant for kid in kids])
                           if kids else not isinstance(self, Var))

    def __str__(self) -> str:
        return to_string(self)


@dataclass(frozen=True, slots=True)
class Const(ExprAST):
    value: complex


@dataclass(frozen=True, slots=True)
class Var(ExprAST):
    pass


@dataclass(frozen=True, slots=True)
class Neg(ExprAST):
    a: ExprAST


@dataclass(frozen=True, slots=True)
class Add(ExprAST):
    a: ExprAST
    b: ExprAST


@dataclass(frozen=True, slots=True)
class Sub(ExprAST):
    a: ExprAST
    b: ExprAST


@dataclass(frozen=True, slots=True)
class Mul(ExprAST):
    a: ExprAST
    b: ExprAST


@dataclass(frozen=True, slots=True)
class Div(ExprAST):
    a: ExprAST
    b: ExprAST


@dataclass(frozen=True, slots=True)
class Pow(ExprAST):
    base: ExprAST
    exponent: ExprAST  # constant by construction

    def __post_init__(self):
        if not self.exponent.constant:
            raise ValueError("power exponent must be a constant expression")
        ExprAST.__post_init__(self)


@dataclass(frozen=True, slots=True)
class Call(ExprAST):
    name: str
    arg: ExprAST


def _children(e: ExprAST) -> tuple:
    kind = type(e)
    if kind in (Add, Sub, Mul, Div):
        return (e.a, e.b)
    if kind is Const or kind is Var:
        return ()
    if kind is Neg:
        return (e.a,)
    if kind is Call:
        return (e.arg,)
    if kind is Pow:
        return (e.base, e.exponent)
    raise TypeError(f"not an expression node: {kind.__name__}")


# ---------------------------------------------------------------------------
# the operation table: the compiler emits the source form, constant folding
# applies the function, and the two run the same floating-point operation

_OPS = {
    Neg: ("-{0}", operator.neg),
    Add: ("{0} + {1}", operator.add),
    Sub: ("{0} - {1}", operator.sub),
    Mul: ("{0} * {1}", operator.mul),
    Div: ("{0} / {1}", operator.truediv),
    Pow: ("_cpow({0}, {1})", _cpow),
}

# Call nodes, bound by these names in the compiled code; log is the principal
# branch, argument in (-pi, pi], and raises ValueError at 0
_FUNCS = {
    "exp": cmath.exp, "log": cmath.log, "sqrt": cmath.sqrt,
    "sin": cmath.sin, "cos": cmath.cos, "sinh": cmath.sinh, "cosh": cmath.cosh,
}

FUNCTIONS = tuple(_FUNCS)


# ---------------------------------------------------------------------------
# folding constructors (the parser and the differentiator build through these)

def const(value) -> Const:
    return Const(complex(value))


def var() -> Var:
    return Var()


def _fold(node):
    """The node, or the Const its operation gives when every child is a Const.

    A constant child that is not a Const is a pole whose own fold failed, so
    the node's would fail too.  A failing fold keeps the node, which then
    raises wherever it is evaluated.
    """
    kids = _children(node)
    if not all(isinstance(kid, Const) for kid in kids):
        return node
    op = _FUNCS[node.name] if isinstance(node, Call) else _OPS[type(node)][1]
    try:
        return Const(op(*(kid.value for kid in kids)))
    except (ZeroDivisionError, ValueError, OverflowError):
        return node


def neg(a):
    return _fold(Neg(a))


def add(a, b):
    if isinstance(a, Const) and a.value == 0:
        return b
    if isinstance(b, Const) and b.value == 0:
        return a
    return _fold(Add(a, b))


def sub(a, b):
    if isinstance(b, Const) and b.value == 0:
        return a
    return _fold(Sub(a, b))


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
    return _fold(Mul(a, b))


def div(a, b):
    if isinstance(a, Const) and a.value == 0 and not (isinstance(b, Const) and b.value == 0):
        return Const(0j)
    if isinstance(b, Const) and b.value == 1:
        return a
    return _fold(Div(a, b))


def pow_(base, exponent):
    if isinstance(exponent, Const):
        if exponent.value == 1:
            return base
        if exponent.value == 0:
            return Const(1 + 0j)
    return _fold(Pow(base, exponent))


def call(name, arg):
    return _fold(Call(name, arg))


# ---------------------------------------------------------------------------
# tokenizer / recursive descent parser

_ATOM_EXPECTED = frozenset({"number", "i", "u", "function", "("})

# nesting of parentheses, calls, unary minus and exponents; bounds only the
# parser's recursion: sums and products of any length parse in loops, and every
# later walk over the tree uses an explicit stack
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
        if not exponent.constant:
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
# the one tree walker

def _walk(roots, visit) -> list:
    """visit(node, results of its children) once per distinct node, children
    first; returns the results of the roots.

    Post-order with an explicit stack, so tree depth costs no recursion.
    Results are memoised by id, so a subtree shared by identity, within a
    tree or across the roots, is visited once; the roots keep every visited
    node alive, so no id is reused during the walk.
    """
    done: dict[int, object] = {}
    for root in roots:
        stack = [(root, None)]   # (node, its children once expanded)
        while stack:
            node, kids = stack.pop()
            if kids is None:
                if id(node) in done:
                    continue
                kids = _children(node)
                if kids:
                    stack.append((node, kids))
                    stack.extend([(kid, None) for kid in reversed(kids)])
                    continue
            done[id(node)] = visit(node, [done[id(kid)] for kid in kids])
    return [done[id(root)] for root in roots]


# ---------------------------------------------------------------------------
# symbolic derivative

def diff(e: ExprAST) -> ExprAST:
    """Derivative with respect to the variable, as a new AST."""
    return _walk((e,), _diff_node)[0]


def _diff_node(e: ExprAST, d: list) -> ExprAST:
    """The derivative of e, given the derivatives d of its children."""
    if isinstance(e, Const):
        return Const(0j)
    if isinstance(e, Var):
        return Const(1 + 0j)
    if isinstance(e, Neg):
        return neg(d[0])
    if isinstance(e, Add):
        return add(d[0], d[1])
    if isinstance(e, Sub):
        return sub(d[0], d[1])
    if isinstance(e, Mul):
        return add(mul(d[0], e.b), mul(e.a, d[1]))
    if isinstance(e, Div):
        return div(sub(mul(d[0], e.b), mul(e.a, d[1])), mul(e.b, e.b))
    if isinstance(e, Pow):  # the exponent is constant
        c = e.exponent
        return mul(mul(c, pow_(e.base, sub(c, Const(1 + 0j)))), d[0])
    g, dg = e.arg, d[0]
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
    raise TypeError(f"cannot differentiate {e.name}")


# ---------------------------------------------------------------------------
# printing (inverse of parse up to constant folding)

_LVL_ADD, _LVL_MUL, _LVL_NEG, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5
# binary node -> (operator text, level of the result, least level of the left
# and of the right operand printed without parentheses)
_INFIX = {
    Add: (" + ", _LVL_ADD, _LVL_ADD, _LVL_MUL), Sub: (" - ", _LVL_ADD, _LVL_ADD, _LVL_MUL),
    Mul: ("*", _LVL_MUL, _LVL_MUL, _LVL_NEG), Div: ("/", _LVL_MUL, _LVL_MUL, _LVL_NEG),
    Pow: ("^", _LVL_POW, _LVL_ATOM, _LVL_NEG),
}


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


def _render_node(e: ExprAST, kids: list):
    """(text, binding level) of e, given those of its children.  The text is
    a rope, a str or a tuple of ropes, so printing a deep tree copies each
    character once."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Var):
        return ("u", _LVL_ATOM)
    if isinstance(e, Neg):
        s, lvl = kids[0]
        if lvl < _LVL_NEG:
            s = ("(", s, ")")
        return (("-", s), _LVL_NEG)
    if isinstance(e, Call):
        return ((e.name, "(", kids[0][0], ")"), _LVL_ATOM)
    (ls, ll), (rs, rl) = kids
    op, lvl, left_min, right_min = _INFIX[type(e)]
    if ll < left_min:
        ls = ("(", ls, ")")
    if rl < right_min:
        rs = ("(", rs, ")")
    return ((ls, op, rs), lvl)


def to_string(e: ExprAST) -> str:
    out, stack = [], [_walk((e,), _render_node)[0][0]]
    while stack:
        rope = stack.pop()
        if isinstance(rope, str):
            out.append(rope)
        else:
            stack.extend(reversed(rope))
    return "".join(out)


# ---------------------------------------------------------------------------
# compilation: the one evaluator

def _emit(roots):
    """Straight-line source for the roots: (lines, operand names, constants).

    The output nests no parentheses.  Each distinct subtree gets one
    assignment; a subtree is keyed on its operator and the names of its
    operands, and a constant on the bytes of its real and imaginary parts,
    never on `==`, which equates 0.0 with -0.0 and no NaN with itself.
    """
    by_key: dict[tuple, str] = {}    # structural key -> operand name
    consts: list[complex] = []
    lines: list[str] = []

    def visit(node, args):
        if isinstance(node, Const):
            value = complex(node.value)
            key = ("const", struct.pack("<dd", value.real, value.imag))
        elif isinstance(node, Call):
            key = ("call", node.name, *args)
        else:
            key = (type(node).__name__, *args)
        name = by_key.get(key)
        if name is None:
            if isinstance(node, Const):
                name = f"c{len(consts)}"
                consts.append(value)
            elif isinstance(node, Var):
                name = "u"
            else:
                name = f"t{len(lines)}"
                if isinstance(node, Call):
                    rhs = f"{node.name}({args[0]})"
                else:
                    rhs = _OPS[type(node)][0].format(*args)
                lines.append(f"        {name} = {rhs}")
            by_key[key] = name
        return name

    return lines, _walk(roots, visit), consts


_COMPILE_NS = {**_FUNCS, "_cpow": _cpow}
# numpy's ufuncs of the same names, on the same principal branches
_ARRAY_NS = {**{name: getattr(np, name) for name in _FUNCS}, "_cpow": _cpow_array}


def compile_ast(e, array: bool = False):
    """Compile one tree to w -> complex, or a tuple of trees to w -> tuple.

    The emitted function is straight-line code with one assignment per
    distinct subtree, shared within and across the trees of a tuple.
    Constants are bound by name, so every complex value (signed zeros, NaN
    and inf included) reaches the code bit for bit.  Each node runs its
    operation from the table that constant folding applies too.  At poles
    the function raises the native ZeroDivisionError, ValueError or
    OverflowError, for callers inside integrators that know w.

    array=True binds the same source to numpy instead: the function takes
    an array w and gives arrays of its shape, new ones (never w itself),
    constant trees broadcast.  It raises nothing and warns nothing; every
    output is NaN at each element where any intermediate value is not
    finite, which covers every place the scalar code raises (numpy gives
    finite values at some of them, such as 1/exp(w) at w = 800).
    """
    roots = tuple(e) if isinstance(e, tuple) else (e,)
    lines, results, consts = _emit(roots)
    ns = _ARRAY_NS if array else _COMPILE_NS
    params = ", ".join([*ns, *(f"c{k}" for k in range(len(consts)))])
    ret = f"({', '.join(results)},)" if array or isinstance(e, tuple) else results[0]
    if array:  # the intermediates too, for the finiteness mask
        ret += f", ({''.join(f't{k}, ' for k in range(len(lines)))})"
    src = "\n".join([f"def _bind({params}):", "    def compiled(u):", *lines,
                     f"        return {ret}", "    return compiled"])
    scope: dict = {}
    exec(compile(src, "<expr>", "exec"), scope)
    if not array:
        return scope["_bind"](*ns.values(), *consts)
    compiled = scope["_bind"](*ns.values(), *[np.complex128(c) for c in consts])

    def over_array(w):
        w = np.asarray(w, dtype=complex)
        with np.errstate(all="ignore"):
            values, temps = compiled(w)
            bad = np.zeros(w.shape, dtype=bool)
            for t in (*values, *temps):
                bad |= ~np.isfinite(t)
            out = tuple([np.where(bad, _NAN, v) for v in values])
        return out if isinstance(e, tuple) else out[0]
    return over_array

