"""Expressions for analytic functions of one complex variable.

The grammar is a stable public contract:

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?
    atom   := number | 'i' | 'z' | ident '(' expr ')' | '(' expr ')'
    ident  := 'log' | 'exp' | 'sqrt' | 'd'

d(u) is the derivative du/dz.  '^' is right-associative and binds
tighter than unary minus ("-z^2" is -(z^2)).  There is no implicit
multiplication ("2z" is a syntax error), 'i' is the imaginary literal,
and numbers are decimal with an optional exponent part.  Syntax errors
carry the byte offset of the offending token; the offset of an
unexpected end of input is len(text).

Evaluation produces :class:`~harmschwarz.jets.Jet` objects by structural
recursion, so every registered function is differentiable to any order
at any point of its domain.  A sum or a product is one node, evaluated
left to right in a loop.  d(u) through order n is the jet of u through
order n + 1, differentiated.  Integer-constant exponents of any size are
evaluated by repeated squaring (exact, and valid at zeros of the base);
all other powers go through exp(e*log(base)) on the principal branch.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import (
    BranchPointAtCenter,
    DivisionByZeroConstantTerm,
    ExprSyntaxError,
    UnknownIdentifier,
)
from .jets import DEFAULT_ORDER, Jet

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Const:
    value: complex


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Sum:
    first: object
    rest: tuple  # ((op, operand), ...) with op '+' or '-', left to right


@dataclass(frozen=True)
class Prod:
    first: object
    rest: tuple  # ((op, operand), ...) with op '*' or '/', left to right


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: object


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Call:
    fn: str
    arg: object


KNOWN_FUNCTIONS = ("log", "exp", "sqrt", "d")


def integer_exponent(node):
    """Return the exponent as an int when it is an integer constant.

    Recognizes Const(n) and Neg(Const(n)); these take the exact
    repeated-multiplication path in the evaluator.
    """
    neg = False
    if isinstance(node, Neg):
        node, neg = node.operand, True
    if isinstance(node, Const):
        v = complex(node.value)
        if v.imag == 0 and float(v.real).is_integer():
            n = int(v.real)
            return -n if neg else n
    return None


def _chain(first, *steps):
    """The Sum or Prod of ``first`` and the (op, operand) ``steps``; a first
    operand of the same kind is spliced in, so "(a+b)+c" is "a+b+c"."""
    if not steps:
        return first
    kind = Sum if steps[0][0] in "+-" else Prod
    if isinstance(first, kind):
        return kind(first.first, first.rest + steps)
    return kind(first, steps)


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val, off = self.peek()
        if kind == "op" and val == op:
            return self.advance()
        raise ExprSyntaxError(f"expected {op!r}", off)

    def parse(self):
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "eof":
            raise ExprSyntaxError(f"unexpected {val!r} after expression", off)
        return node

    def expr(self):
        first, steps = self.term(), []
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                steps.append((val, self.term()))
            else:
                return _chain(first, *steps)

    def term(self):
        first, steps = self.factor(), []
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                steps.append((val, self.factor()))
            else:
                return _chain(first, *steps)

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self):
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return Pow(base, self.factor())
        return base

    def atom(self):
        kind, val, off = self.advance()
        if kind == "num":
            return Const(complex(float(val)))
        if kind == "ident":
            if val == "z":
                return Var()
            if val == "i":
                return Const(1j)
            if val in KNOWN_FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise UnknownIdentifier(val, off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", off)


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError/UnknownIdentifier."""
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# canonical printer

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_real(x):
    return repr(float(x))


def _fmt_const(value):
    v = complex(value)
    if v == 1j:
        return "i", _PREC_ATOM
    if v.imag == 0:
        text = _fmt_real(v.real)
        return text, (_PREC_ATOM if v.real >= 0 else _PREC_NEG)
    if v.real == 0:
        return f"{_fmt_real(v.imag)}*i", _PREC_MUL
    sign = "+" if v.imag >= 0 else "-"
    return f"({_fmt_real(v.real)}{sign}{_fmt_real(abs(v.imag))}*i)", _PREC_ATOM


def _render(node):
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return "z", _PREC_ATOM
    if isinstance(node, Neg):
        return "-" + _wrap(node.operand, _PREC_NEG), _PREC_NEG
    if isinstance(node, (Sum, Prod)):
        prec = _PREC_ADD if isinstance(node, Sum) else _PREC_MUL
        rest = "".join(op + _wrap(operand, prec + 1) for op, operand in node.rest)
        return _wrap(node.first, prec) + rest, prec
    if isinstance(node, Pow):
        return _wrap(node.base, _PREC_ATOM) + "^" + _wrap(node.exponent, _PREC_NEG), _PREC_POW
    if isinstance(node, Call):
        return f"{node.fn}({to_text(node.arg)})", _PREC_ATOM
    raise TypeError(f"not an AST node: {node!r}")


def _wrap(node, required):
    text, prec = _render(node)
    return f"({text})" if prec < required else text


def to_text(node):
    """Canonical textual form; parse(to_text(parse(s))) == parse(s)."""
    return _render(node)[0]


# ---------------------------------------------------------------------------
# jet evaluation


_OP_TAGS = {"+": "/add", "-": "/sub", "*": "/mul", "/": "/div"}


def _eval(node, z0, order):
    try:
        if isinstance(node, Const):
            return Jet.constant(node.value, order, center=z0, shape=np.shape(z0))
        if isinstance(node, Var):
            return Jet.variable(z0, order)
        if isinstance(node, Neg):
            return -_eval(node.operand, z0, order)
        if isinstance(node, (Sum, Prod)):
            step = 0
            acc = _eval(node.first, z0, order)
            for step, (op, operand) in enumerate(node.rest):
                rhs = _eval(operand, z0, order)
                if op == "+":
                    acc = acc + rhs
                elif op == "-":
                    acc = acc - rhs
                elif op == "*":
                    acc = acc * rhs
                else:
                    acc = acc / rhs
            return acc
        if isinstance(node, Pow):
            n = integer_exponent(node.exponent)
            base = _eval(node.base, z0, order)
            if n is not None:
                return base ** n
            return (_eval(node.exponent, z0, order) * base.log()).exp()
        if isinstance(node, Call):
            if node.fn == "d":
                return _eval(node.arg, z0, order + 1).derivative()
            return getattr(_eval(node.arg, z0, order), node.fn)()
    except (DivisionByZeroConstantTerm, BranchPointAtCenter) as exc:
        # prepending the tags of the enclosing nodes while the error unwinds
        # spells the path from the root; a chain stands for the binary nodes
        # of its steps, the last down to the failing one enclosing it
        if isinstance(node, (Sum, Prod)):
            tags = "".join(_OP_TAGS[op] for op, _ in reversed(node.rest[step:]))
        else:  # Neg, Pow or Call
            tags = "/" + (node.fn if isinstance(node, Call) else type(node).__name__.lower())
        exc.ast_path = tags + getattr(exc, "ast_path", "")
        raise
    raise TypeError(f"not an AST node: {node!r}")


def eval_ast_jet(node, z0, order):
    if order < 0:
        raise ValueError("jet order must be >= 0")
    try:
        return _eval(node, z0, order)
    except (DivisionByZeroConstantTerm, BranchPointAtCenter) as exc:
        exc.args = (f"{exc.args[0]} [ast {exc.ast_path}]",)
        raise


# ---------------------------------------------------------------------------
# analytic function objects


class AnalyticFunction:
    """Anything that yields a Jet at a point of its domain.

    Arithmetic combinators build derived functions lazily; nothing is
    simplified, the jets carry all derivative information.
    """

    source = None  # expression text when available (serialization)

    def jet(self, z, order):
        raise NotImplementedError

    def value(self, z):
        return self.jet(z, 0).value

    def __call__(self, z):
        return self.value(z)

    def derivative(self):
        return DerivedFunction(lambda z, n: self.jet(z, n + 1).derivative())

    def compose(self, inner):
        def jet_fn(z, n):
            ij = inner.jet(z, n)
            return self.jet(ij.value, n).compose(ij)
        return DerivedFunction(jet_fn)

    # -- combinators ----------------------------------------------------

    def _jet_of(self, other, z, n):
        if isinstance(other, AnalyticFunction):
            return other.jet(z, n)
        return other  # scalar; Jet arithmetic lifts it

    def __add__(self, other):
        return DerivedFunction(lambda z, n: self.jet(z, n) + self._jet_of(other, z, n))

    __radd__ = __add__

    def __sub__(self, other):
        return DerivedFunction(lambda z, n: self.jet(z, n) - self._jet_of(other, z, n))

    def __rsub__(self, other):
        return DerivedFunction(lambda z, n: self._jet_of(other, z, n) - self.jet(z, n))

    def __mul__(self, other):
        return DerivedFunction(lambda z, n: self.jet(z, n) * self._jet_of(other, z, n))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return DerivedFunction(lambda z, n: self.jet(z, n) / self._jet_of(other, z, n))

    def __rtruediv__(self, other):
        return DerivedFunction(lambda z, n: self._jet_of(other, z, n) / self.jet(z, n))

    def __neg__(self):
        return DerivedFunction(lambda z, n: -self.jet(z, n))


class ExprFunction(AnalyticFunction):
    """Analytic function backed by a parsed expression tree."""

    def __init__(self, src):
        if isinstance(src, str):
            self.ast = parse(src)
            self.source = src
        else:
            self.ast = src
            self.source = to_text(src)

    def jet(self, z, order):
        return eval_ast_jet(self.ast, z, order)

    def __repr__(self):
        return f"ExprFunction({self.source!r})"


class DerivedFunction(AnalyticFunction):
    """Analytic function defined by a jet-producing closure."""

    def __init__(self, jet_fn):
        self._jet_fn = jet_fn

    def jet(self, z, order):
        return self._jet_fn(z, order)


def eval_jet(f, z0, order=DEFAULT_ORDER):
    """Jet of an AnalyticFunction (or raw AST) at z0 through ``order``.

    The default order 4 carries every derivative the Schwarzian
    machinery needs (h''' and omega'', with one order to spare).
    """
    if isinstance(f, AnalyticFunction):
        return f.jet(z0, order)
    return eval_ast_jet(f, z0, order)

