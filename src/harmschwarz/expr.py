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
unexpected end of input is len(text).  Text of any nesting depth parses.

Evaluation produces :class:`~harmschwarz.jets.Jet` objects, so every
registered function is differentiable to any order at any point of its
domain.  An expression compiles, once per jet order and by an iterative
walk, into a Taylor tape: a straight-line list of instructions that run
the recurrences of ``jets`` on raw coefficients sharing one centre
(Griewank & Walther, *Evaluating Derivatives*, ch. 13): arrays for an
array of points, lists of Python complex numbers for one point (a Python
or numpy number, or a 0-d array).  One point gets the bits of numpy's
scalar arithmetic; numpy's array loops round a complex product
otherwise, so the same point in a batch can differ in the last bits.
Running a tape builds no Jet per node and recurses nowhere, so an AST of
any depth evaluates.  A sum or a product is one node, evaluated left to
right.  d(u) through order n is the jet of u through order n + 1,
differentiated: u's tape one order higher with a derivative instruction
appended.  ``ExprFunction.derivative`` is d(f) on f's own tree, so an
error in f' names its path below "/d", as the text "d(f)" does.
Integer-constant exponents of any size are evaluated by repeated
squaring (exact, and valid at zeros of the base); all other powers go
through exp(e*log(base)) on the principal branch: e*log(base) is a slot
of its own, checked before exp, which reads 0 at -inf.

The tape checks every slot it fills for finiteness, as a Jet is checked
when built (``jets.check_finite``): an overflow raises NonFinite at the
node where it happens (``1/exp(1000*z)`` at 0.9 fails at exp rather than
reading 0), and the error names the first point where the slot is not
finite.  The recurrences only compute (but for a negative power's
guard): no other check runs.  At one point a slot whose sum is finite is
finite, so one test checks it.  A checked run detects non-finite slots
itself, so it runs with numpy's flags ignored: the same NonFinite comes
out, without warnings, whatever the caller's error state.  On an array,
while numpy raises on overflow, invalid operations and division by zero
(``np.errstate``), a run with finite inputs (the centre, checked on each
run, and the constants, checked when the tape is compiled) skips those
checks: no slot can then be non-finite, so the coefficients are the same
bit for bit, and where numpy raises the tape runs again checked.  That
trapped array run fills its slots with lists of coefficient rows, and
runs each maximal subtree that does not read z as one jet, computed once
per tape and rank of the points (``_fold``) on an array of one point and
broadcast against the points.  Folding is exact: numpy's array loops
round each element alike whatever the length of the array and whether
an operand is broadcast (its scalars round otherwise, so a folded jet
never comes from them), and a subtree that raises is not folded, so it
raises where it runs.  The checked run and the run at one point fold
nothing.
:func:`trapped` runs a whole computation under that trap:
``maps.HarmonicMap`` the jets of h' and omega, at one point as on an
array, and ``operators.tamanoi_schwarzian`` the whole oracle.
"""

import cmath
import functools
import re
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    BranchPointAtCenter,
    DivisionByZeroConstantTerm,
    ExprSyntaxError,
    ToolkitError,
    UnknownIdentifier,
)
from .jets import (
    DEFAULT_ORDER,
    Jet,
    add_coeffs,
    center_is_finite,
    check_finite,
    constant_coeffs,
    derivative_coeffs,
    div_coeffs,
    exp_coeffs,
    first_point,
    log_coeffs,
    mul_coeffs,
    neg_coeffs,
    one_point,
    pow_coeffs,
    sqrt_coeffs,
    sub_coeffs,
    variable_coeffs,
)

# ---------------------------------------------------------------------------
# AST


class _Node:
    """Equality, hashing and repr of the AST node classes.  Equality and
    hashing read one walk, ``_tokens``, and ``repr`` prints ``to_text``:
    each keeps an explicit stack, so an AST of any depth compares, hashes
    and prints.

    Equality is that of the dataclasses it replaces: nodes of one class
    with equal fields (a field compared as in a tuple: identity, then
    ``==``, so ``Const(0j) == Const(-0j)``).
    """

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(a is b or a == b for a, b in zip(_tokens(self), _tokens(other)))

    def __hash__(self):
        return hash(tuple(_tokens(self)))

    def __repr__(self):
        return f"{type(self).__name__}<{to_text(self)}>"


def _tokens(node):
    """The tree in pre-order: the class of each node, the length of each
    tuple and each leaf value.  The tokens before any position fix what
    the next one is, so two trees are equal when their tokens are."""
    todo = [node]
    while todo:
        item = todo.pop()
        names = _FIELDS.get(type(item))
        if names is not None:
            yield type(item)
            todo += [getattr(item, f) for f in reversed(names)]
        elif type(item) is tuple:
            yield len(item)
            todo += reversed(item)
        else:
            yield item


_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Const(_Node):
    value: complex


@_node
class Var(_Node):
    pass


@_node
class Sum(_Node):
    first: object
    rest: tuple  # ((op, operand), ...) with op '+' or '-', left to right


@_node
class Prod(_Node):
    first: object
    rest: tuple  # ((op, operand), ...) with op '*' or '/', left to right


@_node
class Pow(_Node):
    base: object
    exponent: object


@_node
class Neg(_Node):
    operand: object


@_node
class Call(_Node):
    fn: str
    arg: object


# the fields of each node class, in declaration order
_FIELDS = {kind: tuple(f.name for f in fields(kind))
           for kind in (Const, Var, Sum, Prod, Pow, Neg, Call)}


# Binding power of each node type, loosest first: the parser reads it for
# the operator that builds a node, the printer to decide which operands
# need parentheses ('^' alone is right-associative; see _fmt_const for Const).
_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5
_PREC = {Sum: _PREC_ADD, Prod: _PREC_MUL, Neg: _PREC_NEG, Pow: _PREC_POW,
         Var: _PREC_ATOM, Call: _PREC_ATOM}
_BINARY = {"+": Sum, "-": Sum, "*": Prod, "/": Prod, "^": Pow}


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


def compose(node, inner):
    """The AST of node o inner, ``inner`` in place of z, on an explicit
    stack; d(u) becomes d(u o inner)/d(inner), the chain rule solved for
    u' o inner."""
    done = []  # the composed subtrees, in post-order
    todo = [(node, None)]  # (node, its operand count once they are queued)
    while todo:
        node, n = todo.pop()
        kind = type(node)
        if kind is Var or kind is Const:
            done.append(inner if kind is Var else node)
        elif n is None:
            operands = ([node.first] + [operand for _, operand in node.rest]
                        if kind is Sum or kind is Prod else
                        [getattr(node, name) for name in _FIELDS[kind] if name != "fn"])
            todo += [(node, len(operands))] + [(o, None) for o in reversed(operands)]
        else:
            args = done[-n:]
            del done[-n:]
            if kind is Sum or kind is Prod:
                out = _chain(args[0], *zip((op for op, _ in node.rest), args[1:]))
            elif kind is Call:
                out = Call(node.fn, args[0])
                if node.fn == "d":
                    out = _chain(out, ("/", Call("d", inner)))
            else:  # Neg or Pow
                out = kind(*args)
            done.append(out)
    return done[0]


# ---------------------------------------------------------------------------
# tokenizer / parser

_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<ws>\s+)"
)


def _tokenize(text):
    """(kind, text, offset) of each token, then ("eof", "", len(text)).

    One ``finditer`` pass: a match that does not start where the last one
    ended has skipped a character no token starts with.
    """
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        if m.start() != pos:
            break
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    if pos != len(text):
        raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
    tokens.append(("eof", "", len(text)))
    return tokens


def parse(text):
    """Parse expression text into an AST.  Raises ExprSyntaxError/UnknownIdentifier.

    Dijkstra's shunting-yard on an explicit stack, so any nesting depth
    parses.  An entry ``[power, kind, left, op, steps]`` is an operator
    awaiting its right operand, an open bracket (power 0, ``left`` "(" or a
    builtin) or the bottom (power -1); an open sum or product takes in each
    further operand of its level, so a chain of n terms builds its node once.
    """
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    tokens = iter(_tokenize(text))
    stack = [(-1, None, None, None, None)]
    operand = True  # an operand comes next
    for kind, val, off in tokens:
        if operand:  # prefix '-' and opening brackets, then an atom
            if kind == "num":
                node = Const(complex(float(val)))
            elif val == "z":
                node = Var()
            elif val == "i":
                node = Const(1j)
            elif val == "-":
                stack.append((_PREC_NEG, Neg, None, None, None))
                continue
            elif val == "(" or val in _CALL_OPS:
                if val != "(":
                    _, paren, paren_off = next(tokens)
                    if paren != "(":
                        raise ExprSyntaxError("expected '('", paren_off)
                stack.append((0, None, val, None, None))
                continue
            elif kind == "ident":
                raise UnknownIdentifier(val, off)
            else:
                raise ExprSyntaxError(f"unexpected {val!r}" if val else "unexpected end of input", off)
            operand = False
            continue
        # an infix operator completes the operators that bind tighter, any
        # other token those up to the innermost bracket
        op_kind = _BINARY.get(val)
        prec = _PREC[op_kind] if op_kind else 0
        while stack[-1][0] > prec:
            _, entry_kind, left, op, steps = stack.pop()
            if entry_kind is Neg:
                node = Neg(node)
            elif entry_kind is Pow:
                node = Pow(left, node)
            else:
                steps.append((op, node))
                node = _chain(left, *steps)
        if prec:
            top = stack[-1]
            if top[1] is op_kind and op_kind is not Pow:  # '^' is right-associative
                top[4].append((top[3], node))
                top[3] = val
            else:
                stack.append([prec, op_kind, node, val, []])
            operand = True
        elif stack[-1][0] == 0:  # inside a bracket
            if val != ")":
                raise ExprSyntaxError("expected ')'", off)
            fn = stack.pop()[2]
            node = node if fn == "(" else Call(fn, node)
        elif kind == "eof":
            return node
        else:
            raise ExprSyntaxError(f"unexpected {val!r} after expression", off)


# ---------------------------------------------------------------------------
# canonical printer


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


def to_text(node):
    """Canonical textual form; parse(to_text(parse(s))) == parse(s).

    Top down on an explicit stack, so an AST of any depth prints: a node's
    binding power depends only on its type (a constant's on its text), so
    whether an operand needs parentheses is known before its text is built.
    """
    out = []
    todo = [(node, 0)]  # text, and (node, binding power it needs), to print
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        node, required = item
        kind = type(node)
        if kind is Const:
            text, prec = _fmt_const(node.value)
        elif kind in _PREC:
            prec = _PREC[kind]
        else:
            raise TypeError(f"not an AST node: {node!r}")
        if prec < required:
            out.append("(")
            todo.append(")")
        if kind is Const:
            out.append(text)
        elif kind is Var:
            out.append("z")
        elif kind is Neg:
            out.append("-")
            todo.append((node.operand, prec))
        elif kind is Pow:
            todo += [(node.exponent, _PREC_NEG), "^", (node.base, _PREC_ATOM)]
        elif kind is Call:
            out.append(node.fn + "(")
            todo += [")", (node.arg, 0)]
        else:  # Sum or Prod
            for op, operand in reversed(node.rest):
                todo += [(operand, prec + 1), op]
            todo.append((node.first, prec))
    return "".join(out)


# ---------------------------------------------------------------------------
# jet evaluation: the Taylor tape
#
# A tape is a tuple of instructions (op, arg, where) in post-order.  Run on
# a stack, a leaf pushes its coefficients and an operation pops its
# operands and pushes its result, so each slot is dropped once the
# instruction that reads it has run.  The arithmetic is the recurrences of
# ``jets``, which the operators also call.

_CONST, _VAR, _NEG, _ADD, _SUB, _MUL, _DIV, _POW, _LOGMUL, _LOG, _EXP, _SQRT, _D, _JET = range(14)
# the slots each compiled instruction pops (_JET, which pushes a folded
# jet, is not compiled: see _fold)
_ARITY = {_CONST: 0, _VAR: 0, _NEG: 1, _POW: 1, _LOG: 1, _EXP: 1, _SQRT: 1,
          _D: 1, _ADD: 2, _SUB: 2, _MUL: 2, _DIV: 2, _LOGMUL: 2}
_CHAIN_OPS = {"+": _ADD, "-": _SUB, "*": _MUL, "/": _DIV}
_CALL_OPS = {"log": _LOG, "exp": _EXP, "sqrt": _SQRT, "d": _D}  # the builtins (parse reads the names)
_OP_TAGS = {"+": "/add", "-": "/sub", "*": "/mul", "/": "/div"}
# the instructions, whether every constant among them is finite, and the
# folded instructions of the trapped array run by rank of the points,
# each built at its first such run (see _fold)
_Tape = namedtuple("_Tape", "instrs finite folded")


def _compile_tape(node, order):
    """The tape that evaluates ``node`` through jet order ``order``.

    The walk is iterative, so an AST of any depth compiles.  ``d(u)``
    compiles ``u`` one order higher.  An integer-constant exponent is an
    exact repeated-multiplication power (its AST is not evaluated); any
    other power is exp(e*log(base)) on the principal branch, ``_LOGMUL``
    then ``_EXP``.  ``where`` is the enclosing node chain ``(outer, node,
    step)``, from which :func:`_ast_path` spells the failing node's path
    only on error.  A constant such as ``1e999`` is infinite without raising
    a numpy flag, so the tape records whether its constants are finite.
    """
    if order < 0:
        raise ValueError("jet order must be >= 0")
    tape = []
    finite = True
    # nodes to expand, (node, order, where), and instructions, (op, arg,
    # where) with an int op, whose operands are on the tape once they pop
    todo = [(node, order, None)]
    while todo:
        item = todo.pop()
        node, order, where = item
        kind = type(node)
        if kind is int:
            tape.append(item)
        elif kind is Const:
            value = complex(node.value)
            # a constant's jet at one point, ready to copy
            tape.append((_CONST, (value,) + (0j,) * order, where))
            finite = finite and cmath.isfinite(value)
        elif kind is Var:
            tape.append((_VAR, order, where))
        elif kind is Sum or kind is Prod:
            # step s combines the running value with operand s: both sit
            # inside the binary nodes of steps s and later
            rest = node.rest
            for step in range(len(rest) - 1, -1, -1):
                op, operand = rest[step]
                inner = (where, node, step)
                todo += [(_CHAIN_OPS[op], None, inner), (operand, order, inner)]
            todo.append((node.first, order, (where, node, 0)))
        elif kind is Neg:
            inner = (where, node, None)
            todo += [(_NEG, None, inner), (node.operand, order, inner)]
        elif kind is Pow:
            inner = (where, node, None)
            n = integer_exponent(node.exponent)
            if n is None:
                todo += [(_EXP, None, inner), (_LOGMUL, None, inner),
                         (node.exponent, order, inner)]
            else:
                todo.append((_POW, n, inner))
            todo.append((node.base, order, inner))
        elif kind is Call:
            inner = (where, node, None)
            todo += [(_CALL_OPS[node.fn], None, inner),
                     (node.arg, order + 1 if node.fn == "d" else order, inner)]
        else:
            raise TypeError(f"not an AST node: {node!r}")
    return _Tape(tuple(tape), finite, {})


def _ast_path(where):
    """The path from the root down to the node that ``where`` names."""
    tags = []
    while where is not None:
        where, node, step = where
        if isinstance(node, (Sum, Prod)):
            # a chain stands for the binary nodes of its steps, the last
            # down to the one that encloses the failure
            tags.append("".join(_OP_TAGS[op] for op, _ in reversed(node.rest[step:])))
        elif isinstance(node, Call):
            tags.append("/" + node.fn)
        else:  # Neg or Pow
            tags.append("/" + type(node).__name__.lower())
    return "".join(reversed(tags))


def _traps():
    """Whether numpy raises on overflow, invalid operations and division
    by zero, so that no operation on finite operands returns a non-finite
    result."""
    err = np.geterr()
    return err["over"] == err["invalid"] == err["divide"] == "raise"


def trapped(fn, *args):
    """``fn(*args)`` under numpy's floating-point trap (``_traps``;
    underflow is ignored), so the tapes it runs on arrays check no slot.

    Where numpy raises outside a tape, ``fn(*args)`` runs once more with
    every flag ignored: each tape then checks its slots, and every error
    is the one the checked run names, whatever the caller's error state.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise",
                         under="ignore"):
            return fn(*args)
    except FloatingPointError:
        with np.errstate(all="ignore"):
            return fn(*args)


def _run_tape(tape, z0):
    """The Jet that ``tape`` computes at ``z0`` (a point or an array).

    Each slot is checked as a Jet is checked when built (see the module
    docstring), in a run that ignores numpy's flags; at one point
    (``one_point``) the slots are lists of Python complex numbers.  On an
    array under numpy's trap (``_traps``), with a finite centre and
    finite constants, the tape's folded instructions run (``_fold``) and
    no slot is checked; where numpy raises FloatingPointError the tape
    runs again, checked.  A division by a zero constant term or a branch
    point at the centre names its AST path in ``ast_path`` and in the
    message, and its first point in ``at``.
    """
    point, shape = one_point(z0), None
    if point is None:  # an array of points
        point, shape = z0, np.shape(z0)
        # a folded jet of one point stands for every point, of which an
        # empty array has none
        if tape.finite and _traps() and 0 not in shape and center_is_finite(z0):
            instrs = tape.folded.get(len(shape))
            if instrs is None:
                instrs = tape.folded[len(shape)] = _fold(tape.instrs, len(shape))
            try:
                rows = _execute(instrs, z0, point, shape, False)
            except FloatingPointError:
                pass  # a slot would not be finite: run again, checked
            else:
                coeffs = np.empty((len(rows),) + shape, dtype=np.complex128)
                for k, row in enumerate(rows):
                    coeffs[k] = row  # a row of one point broadcasts
                return Jet._checked(z0, coeffs)
    with np.errstate(all="ignore"):
        out = _execute(tape.instrs, z0, point, shape, True)
    if shape is None:
        out = np.array(out, dtype=np.complex128)
    return Jet._checked(z0, out)


def _fold(instrs, rank):
    """``instrs`` with each maximal subtree that does not read z replaced
    by one ``_JET`` instruction, which pushes the rows that the subtree
    computes, under the caller's numpy trap, on an array of one point of
    ``rank`` axes (exact; see the module docstring).  A subtree whose run
    raises, FloatingPointError or any ToolkitError, is kept as it is, to
    raise where it runs.
    """
    center = np.zeros((1,) * rank, dtype=np.complex128)  # read by no such subtree
    slots = []  # (first instruction, reads z, last instruction) of each slot
    spans = {}  # first instruction -> last of each maximal z-free subtree
    for k, (op, _, _) in enumerate(instrs):
        n = _ARITY[op]
        operands = slots[len(slots) - n:]
        del slots[len(slots) - n:]
        reads = op == _VAR or any(r for _, r, _ in operands)
        if reads:
            spans.update((first, last) for first, r, last in operands if not r)
        slots.append((operands[0][0] if operands else k, reads, k))
    (first, reads, last), = slots
    if not reads:
        spans[first] = last
    folded, k = [], 0
    while k < len(instrs):
        last = spans.get(k, k)
        subtree = instrs[k:last + 1]
        if k in spans:
            try:
                rows = _execute(subtree, center, center, center.shape, False)
                subtree = ((_JET, rows, None),)
            except (FloatingPointError, ToolkitError):
                pass
        folded += subtree
        k = last + 1
    return tuple(folded)


def _execute(instrs, z0, point, shape, check):
    """Run the instructions ``instrs`` at ``z0`` and return the last slot:
    ``point`` is z0 as a Python complex number and ``shape`` None at one
    point, else the array z0 and its shape.  ``check``: check every slot;
    on an array, a run that checks none fills its slots with lists of
    coefficient rows, each of the points or of one point (``_fold``)."""
    quick = shape is None and cmath.isfinite(point)
    rows = shape is not None and not check
    isfinite = cmath.isfinite
    stack = []
    # a binary operation pops its left operand (below the top) first, so
    # no local keeps an operand alive after the result is built
    pop = stack.pop
    try:
        for op, arg, where in instrs:
            if op == _CONST:
                out = (list(arg) if shape is None
                       else constant_coeffs(arg[0], len(arg) - 1, shape))
                if rows:
                    out = list(out)
            elif op == _VAR:
                if rows:  # z's coefficients past the first are of one point
                    out = list(variable_coeffs(np.zeros((1,) * len(shape)), arg))
                    out[0] = np.asarray(point, dtype=np.complex128)
                else:
                    out = variable_coeffs(point, arg)
            elif op == _ADD:
                out = add_coeffs(pop(-2), pop())
            elif op == _SUB:
                out = sub_coeffs(pop(-2), pop())
            elif op == _MUL:
                out = mul_coeffs(pop(-2), pop())
            elif op == _DIV:
                out = div_coeffs(pop(-2), pop())
            elif op == _POW:
                out = pow_coeffs(pop(), arg, z0)
            elif op == _NEG:
                out = neg_coeffs(pop())
            elif op == _LOGMUL:
                out = mul_coeffs(pop(), log_coeffs(pop()))  # e, then its base
            elif op == _LOG:
                out = log_coeffs(pop())
            elif op == _EXP:
                out = exp_coeffs(pop())
            elif op == _SQRT:
                out = sqrt_coeffs(pop())
            elif op == _D:
                out = derivative_coeffs(pop())
            else:  # _JET
                out = arg
            if check and not (quick and isfinite(sum(out))):
                check_finite(out, z0)
            stack.append(out)
    except (DivisionByZeroConstantTerm, BranchPointAtCenter) as exc:
        exc.ast_path = _ast_path(where)
        exc.args = (f"{exc.args[0]} [ast {exc.ast_path}]",)
        exc.at = first_point(z0, exc.mask)
        raise
    return pop()


# ---------------------------------------------------------------------------
# analytic function objects


class AnalyticFunction:
    """Anything that yields a Jet at a point of its domain; functions
    combine as expression trees (``ExprFunction``)."""

    source = None  # expression text when available (serialization)

    def jet(self, z, order):
        raise NotImplementedError

    def value(self, z):
        return self.jet(z, 0).value

    def __call__(self, z):
        return self.value(z)


class ExprFunction(AnalyticFunction):
    """Analytic function backed by an expression tree, parsed from text or
    given; the text of a given tree is printed when first read."""

    def __init__(self, src):
        if isinstance(src, str):
            self.source = src
            src = parse(src)
        self.ast = src
        self._tapes = {}  # jet order -> tape, compiled when first needed

    @functools.cached_property
    def source(self):
        return to_text(self.ast)

    def jet(self, z, order):
        tape = self._tapes.get(order)
        if tape is None:
            tape = self._tapes[order] = _compile_tape(self.ast, order)
        return _run_tape(tape, z)

    def derivative(self):
        """f' as the expression d(f): f's tape one order higher, then a
        derivative instruction (see ``_compile_tape``)."""
        return ExprFunction(Call("d", self.ast))

    def __repr__(self):
        return f"ExprFunction({self.source!r})"


def eval_jet(f, z0, order=DEFAULT_ORDER):
    """Jet of an AnalyticFunction (or raw AST) at z0 through ``order``.

    The default order 4 carries every derivative the Schwarzian
    machinery needs (h''' and omega'', with one order to spare).
    """
    if not isinstance(f, AnalyticFunction):
        f = ExprFunction(f)
    return f.jet(z0, order)

