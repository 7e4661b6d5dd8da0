"""Expression grammar, parser diagnostics, printer round trips, jet evaluation."""

import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmschwarz import ExprFunction, Jet, catalog, eval_jet, parse, to_text
from harmschwarz.errors import (
    BranchPointAtCenter,
    DivisionByZeroConstantTerm,
    ExprSyntaxError,
    NonFinite,
    ToolkitError,
    UnknownIdentifier,
)
from harmschwarz.expr import (
    _ADD,
    _CONST,
    _DIV,
    _EXP,
    _LOG,
    _LOGMUL,
    _MUL,
    _NEG,
    _POW,
    _SQRT,
    _SUB,
    _VAR,
    AnalyticFunction,
    Call,
    Const,
    Neg,
    Pow,
    Prod,
    Sum,
    Var,
    _ast_path,
    _chain,
    _compile_tape,
    _fmt_const,
    _tokenize,
    integer_exponent,
    trapped,
)
from harmschwarz.jets import (
    add_coeffs,
    check_finite,
    constant_coeffs,
    derivative_coeffs,
    div_coeffs,
    exp_coeffs,
    first_point,
    log_coeffs,
    mul_coeffs,
    neg_coeffs,
    pow_coeffs,
    sqrt_coeffs,
    sub_coeffs,
    variable_coeffs,
)


class TestParse:
    def test_koebe_ast(self):
        ast = parse("z/(1-z)^2")
        assert ast == Prod(Var(), (
            ("/", Pow(Sum(Const(1 + 0j), (("-", Var()),)), Const(2 + 0j))),))

    def test_strip_map_parses(self):
        ast = parse("0.5*log((1+z)/(1-z))")
        assert ast == Prod(Const(0.5 + 0j), (
            ("*", Call("log", Prod(Sum(Const(1 + 0j), (("+", Var()),)), (
                ("/", Sum(Const(1 + 0j), (("-", Var()),))),)))),))

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("z^(1/2")
        assert err.value.offset == 6

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse("sin(z)")

    def test_no_implicit_multiplication(self):
        with pytest.raises(ExprSyntaxError):
            parse("2z")

    def test_imaginary_literal(self):
        assert parse("1+2*i") == Sum(Const(1 + 0j), (
            ("+", Prod(Const(2 + 0j), (("*", Const(1j)),))),))

    def test_unary_minus_binds_looser_than_power(self):
        assert parse("-z^2") == Neg(Pow(Var(), Const(2 + 0j)))

    def test_power_right_associative(self):
        assert parse("z^2^3") == Pow(Var(), Pow(Const(2 + 0j), Const(3 + 0j)))

    def test_negative_integer_exponent_flagged(self):
        ast = parse("z^-3")
        assert integer_exponent(ast.exponent) == -3
        assert integer_exponent(parse("z^2").exponent) == 2
        assert integer_exponent(parse("z^0.5").exponent) is None

    def test_empty_expression(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_trailing_garbage_offset(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse("z+1 )")
        assert err.value.offset == 4


_EXPR_SAMPLES = [
    "z/(1-z)^2",
    "0.5*log((1+z)/(1-z))",
    "-z^2",
    "z^-3",
    "1+2*i",
    "exp(z)*sqrt(1+z)",
    "z/(1-z^2)",
    "(z^2-z+1/3)/(1-z)^3-1/3",
    "2e-1*z+1.5e2",
    "-(1-z)^2/(1+z)",
    "z--z",
    "1/-z",
]


class TestPrinter:
    @pytest.mark.parametrize("text", _EXPR_SAMPLES)
    def test_parse_print_parse_idempotent(self, text):
        ast = parse(text)
        assert parse(to_text(ast)) == ast

    @pytest.mark.parametrize("text", [
        "+".join(["z"] * 5000), "*".join(["(1+0.001*z)"] * 5000)])
    def test_long_chains_round_trip(self, text):
        ast = parse(text)
        assert len(ast.rest) == 4999
        assert parse(to_text(ast)) == ast

    @given(st.recursive(
        st.sampled_from(["z", "i", "1", "2.5", "0.25"]),
        lambda inner: st.tuples(st.sampled_from("+-*/^"), inner, inner).map(
            lambda t: f"({t[1]}){t[0]}({t[2]})"),
        max_leaves=12))
    @settings(max_examples=150, deadline=None)
    def test_printer_roundtrip_generated(self, text):
        ast = parse(text)
        assert parse(to_text(ast)) == ast


class TestEvalJet:
    def test_koebe_series(self):
        j = eval_jet(parse("z/(1-z)^2"), 0.0, 3)
        assert np.allclose(j.coeffs, [0, 1, 2, 3])

    def test_strip_map_series(self):
        # arctanh series: (1/2) log((1+z)/(1-z)) = z + z^3/3 + ...
        j = eval_jet(catalog("s"), 0.0, 3)
        assert np.allclose(j.coeffs, [0, 1, 0, 1.0 / 3.0], atol=1e-15)

    def test_pole_at_origin(self):
        with pytest.raises(DivisionByZeroConstantTerm):
            eval_jet(parse("1/z"), 0.0, 2)

    def test_call_is_the_value(self):
        assert ExprFunction("z^2")(0.5) == 0.25

    def test_compiler_rejects_a_negative_order_and_a_non_node(self):
        with pytest.raises(ValueError, match="jet order must be >= 0"):
            _compile_tape(Var(), -1)
        with pytest.raises(TypeError, match="not an AST node"):
            _compile_tape("z", 2)

    def test_error_carries_ast_path(self):
        with pytest.raises(DivisionByZeroConstantTerm) as err:
            eval_jet(parse("1+1/z"), 0.0, 2)
        assert getattr(err.value, "ast_path", None)

    def test_integer_pow_vs_exp_log(self, rng):
        f_int = ExprFunction("(1+z)^3/(2-z)^2")
        f_log = ExprFunction("exp(3*log(1+z))/exp(2*log(2-z))")
        for _ in range(10):
            z = complex(0.5 * (rng.random() - 0.5), 0.5 * (rng.random() - 0.5))
            a = f_int.jet(z, 4).coeffs
            b = f_log.jet(z, 4).coeffs
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(a)))

    @pytest.mark.parametrize("text", [
        "z/(1-z)^2", "0.5*log((1+z)/(1-z))", "exp(z^2)*(1+z)",
        "sqrt(1+z)/(2-z)", "z^-2+z^3",
    ])
    def test_derivatives_match_finite_differences(self, text, rng):
        f = ExprFunction(text)
        h = 1e-5
        for _ in range(4):
            z0 = complex(0.2 + 0.3 * rng.random(), 0.3 * (rng.random() - 0.5))
            jet = f.jet(z0, 3)
            fd = (f.value(z0 + h) - f.value(z0 - h)) / (2.0 * h)
            exact = jet.coeffs[1]
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))

    def test_builtins_registered(self):
        assert all(isinstance(catalog(name), ExprFunction)
                   for name in ("k", "l", "s", "q2"))
        # q2(z) = z/(1-z^2) doubles as sqrt(k(z^2))
        z = 0.3 + 0.1j
        q = catalog("q2").value(z)
        k_at_z2 = catalog("k").value(z * z)
        assert abs(q * q - k_at_z2) < 1e-14

    def test_vectorized_eval(self, rng):
        f = ExprFunction("z/(1-z)^2")
        zs = 0.5 * (rng.random(6) + 1j * rng.random(6))
        vec = f.jet(zs, 2).coeffs
        for idx, z in enumerate(zs):
            assert np.allclose(vec[:, idx], f.jet(complex(z), 2).coeffs)


class TestAstPath:
    @pytest.mark.parametrize("text, kind, path, message", [
        ("1+1/z", DivisionByZeroConstantTerm, "/add/div",
         "jet division by zero constant term [ast /add/div]"),
        ("exp(1+1/z)", DivisionByZeroConstantTerm, "/exp/add/div",
         "jet division by zero constant term [ast /exp/add/div]"),
        ("2*sqrt(z)", BranchPointAtCenter, "/mul/sqrt",
         "sqrt of jet with zero constant term [ast /mul/sqrt]"),
        ("z^0.5", BranchPointAtCenter, "/pow",
         "log of jet with zero constant term [ast /pow]"),
        ("z^-2", DivisionByZeroConstantTerm, "/pow",
         "jet division by zero constant term [ast /pow]"),
        ("(1/z)^2", DivisionByZeroConstantTerm, "/pow/div",
         "jet division by zero constant term [ast /pow/div]"),
        ("(1+z)^(1/z)", DivisionByZeroConstantTerm, "/pow/div",
         "jet division by zero constant term [ast /pow/div]"),
        # a failure inside a sum or product names the binary steps of the
        # left-to-right chain from the last one down to the failing one
        ("2+1/z+3", DivisionByZeroConstantTerm, "/add/add/div",
         "jet division by zero constant term [ast /add/add/div]"),
        ("1+2-3/z", DivisionByZeroConstantTerm, "/sub/div",
         "jet division by zero constant term [ast /sub/div]"),
        ("z*2/z/3", DivisionByZeroConstantTerm, "/div/div",
         "jet division by zero constant term [ast /div/div]"),
        ("1/z*2*3", DivisionByZeroConstantTerm, "/mul/mul/div",
         "jet division by zero constant term [ast /mul/mul/div]"),
        ("2*3*sqrt(z)*4", BranchPointAtCenter, "/mul/mul/sqrt",
         "sqrt of jet with zero constant term [ast /mul/mul/sqrt]"),
        ("1-z-(1/z)-2", DivisionByZeroConstantTerm, "/sub/sub/div",
         "jet division by zero constant term [ast /sub/sub/div]"),
        ("exp(1+z+z^-1)", DivisionByZeroConstantTerm, "/exp/add/pow",
         "jet division by zero constant term [ast /exp/add/pow]"),
        ("1+d(1/z)", DivisionByZeroConstantTerm, "/add/d/div",
         "jet division by zero constant term [ast /add/d/div]"),
    ])
    def test_path_and_message_name_the_failing_node(self, text, kind, path, message):
        with pytest.raises(kind) as err:
            eval_jet(parse(text), 0.0, 2)
        assert err.value.ast_path == path
        assert str(err.value) == message


# the expression strategy of TestPrinter.test_printer_roundtrip_generated
_EXPR_TEXT = st.recursive(
    st.sampled_from(["z", "i", "1", "2.5", "0.25"]),
    lambda inner: st.tuples(st.sampled_from("+-*/^"), inner, inner).map(
        lambda t: f"({t[1]}){t[0]}({t[2]})"),
    max_leaves=12)


def _differentiated(jet):
    """The jet of f' from a jet of f, one order lower, checked when built."""
    return Jet(jet.center, derivative_coeffs(jet.coeffs))


class TestDerivativeBuiltin:
    # d(u) is the order n + 1 jet of u, differentiated: the recurrence
    # derivative_coeffs
    @given(_EXPR_TEXT, st.integers(0, 3),
           st.sampled_from([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, 0.0, "array"]))
    @settings(max_examples=300, deadline=None)
    def test_d_is_the_jet_derivative_bitwise(self, text, n, z):
        if z == "array":
            z = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j])
        try:
            want = _differentiated(ExprFunction(text).jet(z, n + 1))
        except ToolkitError as exc:
            with pytest.raises(type(exc)) as err:
                ExprFunction(f"d({text})").jet(z, n)
            if hasattr(exc, "ast_path"):
                assert err.value.ast_path == "/d" + exc.ast_path
            return
        got = ExprFunction(f"d({text})").jet(z, n)
        assert got.coeffs.tobytes() == want.coeffs.tobytes()

    # ExprFunction.derivative is d(f): f's tape with a derivative
    # instruction appended, so the differentiated jet, bit for bit, and
    # an error names the path in f below "/d", as the text d(f) does
    @given(_EXPR_TEXT, st.sampled_from(["{}", "log({})", "1/({})", "sqrt({})"]),
           st.integers(0, 3),
           st.sampled_from([0.3 + 0.2j, -0.4 + 0.1j, 0.0, 0.5, "array"]))
    @settings(max_examples=300, deadline=None)
    def test_derivative_tape_is_the_jet_derivative_bitwise(self, text, wrap, n, z):
        if z == "array":
            z = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, 0.0])
        fn = ExprFunction(wrap.format(text))
        want = _outcome(lambda: _differentiated(fn.jet(z, n + 1)))
        if len(want) == 4 and want[2] is not None:  # an error with an AST path
            kind, message, path, at = want
            want = (kind, message.replace("[ast ", "[ast /d"), "/d" + path, at)
        got = _outcome(lambda: fn.derivative().jet(z, n))
        assert got == want
        assert got == _outcome(lambda: ExprFunction(f"d({wrap.format(text)})").jet(z, n))

    @given(_EXPR_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_d_round_trips_through_the_printer(self, text):
        ast = parse(f"2*d({text})-d(d({text}))")
        assert parse(to_text(ast)) == ast


class TestFunctionObjects:
    def test_repr_shows_the_text(self):
        assert repr(ExprFunction("z/(1-z)^2")) == "ExprFunction('z/(1-z)^2')"
        # a given tree prints its text when first read
        assert repr(ExprFunction(_chain(Var(), ("+", Const(1))))) == "ExprFunction('z+1.0')"

    def test_base_class_has_no_jet(self):
        # an AnalyticFunction without a tree supplies its own jet
        for read in (lambda f: f.jet(0.1, 2), lambda f: f.value(0.1)):
            with pytest.raises(NotImplementedError):
                read(AnalyticFunction())


class TestTruncation:
    # every jet recurrence is causal: coefficient k reads only
    # coefficients <= k, so a jet through order n + 1 cut to order n is
    # the order-n jet bit for bit (maps.HarmonicMap relies on this)
    @given(_EXPR_TEXT, st.integers(0, 3), st.booleans(),
           st.sampled_from([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, "array"]))
    @settings(max_examples=300, deadline=None)
    def test_higher_order_jet_truncates_bitwise(self, text, n, derivative, z):
        if z == "array":
            z = np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, 0.0])
        fn = ExprFunction(text)
        if derivative:
            fn = fn.derivative()
        try:
            high = fn.jet(z, n + 1)
        except ToolkitError:
            return  # undefined at z (pole, branch point, overflow)
        low = fn.jet(z, n)
        assert high.coeffs[: n + 1].tobytes() == low.coeffs.tobytes()


# ---------------------------------------------------------------------------
# the tape against the recursive evaluation it replaced

_OP_TAGS = {"+": "/add", "-": "/sub", "*": "/mul", "/": "/div"}


_CHAIN_COEFFS = {"+": add_coeffs, "-": sub_coeffs, "*": mul_coeffs, "/": div_coeffs}


def _reference_eval(node, z0, order):
    """Coefficients of ``node`` by structural recursion, on numpy arrays
    also at one point, each node's checked as a Jet is when built."""

    def checked(coeffs):
        check_finite(coeffs, z0)
        return coeffs

    try:
        if isinstance(node, Const):
            return checked(constant_coeffs(node.value, order, np.shape(z0)))
        if isinstance(node, Var):
            return checked(np.asarray(variable_coeffs(z0, order), dtype=np.complex128))
        if isinstance(node, Neg):
            return checked(neg_coeffs(_reference_eval(node.operand, z0, order)))
        if isinstance(node, (Sum, Prod)):
            step = 0
            acc = _reference_eval(node.first, z0, order)
            for step, (op, operand) in enumerate(node.rest):
                rhs = _reference_eval(operand, z0, order)
                acc = checked(_CHAIN_COEFFS[op](acc, rhs))
            return acc
        if isinstance(node, Pow):
            n = integer_exponent(node.exponent)
            base = _reference_eval(node.base, z0, order)
            if n is not None:
                return checked(pow_coeffs(base, n, z0))
            exponent = _reference_eval(node.exponent, z0, order)
            return checked(exp_coeffs(checked(mul_coeffs(exponent, log_coeffs(base)))))
        if isinstance(node, Call):
            if node.fn == "d":
                arg = _reference_eval(node.arg, z0, order + 1)
                return checked(derivative_coeffs(arg))
            arg = _reference_eval(node.arg, z0, order)
            if node.fn == "log":
                return checked(log_coeffs(arg))
            return checked((exp_coeffs if node.fn == "exp" else sqrt_coeffs)(arg))
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


def _reference_jet(node, z0, order):
    try:
        return Jet._checked(z0, _reference_eval(node, z0, order))
    except (DivisionByZeroConstantTerm, BranchPointAtCenter) as exc:
        exc.args = (f"{exc.args[0]} [ast {exc.ast_path}]",)
        exc.at = first_point(z0, exc.mask)
        raise


def _outcome(fn):
    try:
        with np.errstate(all="ignore"):  # overflows raise NonFinite
            jet = fn()
    except ToolkitError as exc:
        return type(exc), str(exc), getattr(exc, "ast_path", None), getattr(exc, "at", None)
    return jet.coeffs.shape, jet.coeffs.tobytes()


_POINTS = [0.3 + 0.2j, -0.4 + 0.1j, 0.0, 1e-160 + 0j,
           np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, 0.0])]


class TestTapeMatchesRecursion:
    @given(_EXPR_TEXT,
           st.sampled_from(["{}", "d({})", "d(d({}))", "({})^0.5", "log({})",
                            "sqrt({})", "exp({})", "({})^-3", "1/({})"]),
           st.integers(0, 4), st.sampled_from(range(len(_POINTS))))
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_bitwise_equal_with_the_same_failures(self, text, wrap, order, point):
        ast, z = parse(wrap.format(text)), _POINTS[point]
        want = _outcome(lambda: _reference_jet(ast, z, order))
        assert _outcome(lambda: ExprFunction(ast).jet(z, order)) == want
        assert _outcome(lambda: eval_jet(ast, z, order)) == want

    @pytest.mark.parametrize("text", _EXPR_SAMPLES + [
        "d(d(z/(1-z)^2))", "(1+z)^0.5*log(2-z)/sqrt(3+z)", "exp(1000*z)",
        "1/exp(1000*z)", "z^-400", "(1+z)^(1/z)", "z^(1/z)", "z^-2+z^600"])
    @pytest.mark.parametrize("point", range(len(_POINTS)))
    def test_samples(self, text, point):
        ast, z = parse(text), _POINTS[point]
        for order in range(5):
            want = _outcome(lambda: _reference_jet(ast, z, order))
            assert _outcome(lambda: ExprFunction(ast).jet(z, order)) == want


class TestIterativeEvaluation:
    def test_deep_negation_chain(self):
        node = Var()
        for _ in range(10_000):
            node = Neg(node)
        got = eval_jet(node, 0.3 + 0.1j, 2)
        want = np.array(variable_coeffs(0.3 + 0.1j, 2), dtype=np.complex128)
        assert got.coeffs.tobytes() == want.tobytes()

    def test_deep_alternating_sum_and_product(self):
        # f_{k+1} = 1 + 0.5*f_k, nested in the last operand: f -> 2
        node = Var()
        for _ in range(10_000):
            node = Sum(Const(1 + 0j), (("+", Prod(Const(0.5 + 0j), (("*", node),))),))
        got = eval_jet(node, np.array([0.3 + 0.1j, -0.2j]), 2)
        assert np.allclose(got.coeffs, [[2, 2], [0, 0], [0, 0]], rtol=0, atol=1e-15)

    def test_slots_are_dropped_after_their_last_read(self):
        f = ExprFunction("+".join(f"{1 + k % 7}*z^{k % 4}" for k in range(200)))
        zs = np.linspace(-0.5, 0.5, 65_536) + 0.25j
        f.jet(zs, 0)  # compile the tape outside the measurement
        slot = zs.nbytes
        tracemalloc.start()
        try:
            f.jet(zs, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * slot

    def test_tape_is_compiled_once_per_order(self):
        f = ExprFunction("z/(1-z)^2")
        f.jet(0.1, 2)
        tape = f._tapes[2]
        f.jet(np.array([0.1, 0.2]), 2)
        f.jet(0.3, 3)
        assert f._tapes[2] is tape and sorted(f._tapes) == [2, 3]


class TestNonFiniteSlots:
    def test_coefficient_is_checked_before_the_center(self):
        with pytest.raises(NonFinite, match="^non-finite jet coefficient$") as err:
            ExprFunction("z").jet(float("inf"), 2)
        assert err.value.at == complex(float("inf"))
        with pytest.raises(NonFinite, match="^non-finite jet center$"):
            ExprFunction("1+z").jet(float("nan"), 2)

    def test_overflow_names_the_first_point_where_it_happens(self):
        zs = np.array([0.1, 0.9, 0.5, 0.95])
        with pytest.raises(NonFinite, match="^non-finite jet coefficient$") as err, \
                np.errstate(all="ignore"):
            ExprFunction("1/exp(1000*z)").jet(zs, 2)
        assert err.value.at == 0.9


# ---------------------------------------------------------------------------
# the tape under numpy's floating-point trap against the checked tape


# batches in which exp(1000*u) overflows at some points only
_BATCHES = [np.array([0.3 + 0.2j, -0.4 + 0.1j, 0.1 - 0.5j, 0.0]),
            np.array([0.1, 0.9, 0.5, 0.95, -0.8 + 0.1j]),
            np.array([-0.9 + 0.2j, 0.75 - 0.3j, 1e-160 + 0j, 0.2j])]


class TestTrappedTapeMatchesChecked:
    @given(_EXPR_TEXT,
           st.sampled_from(["{}", "1/exp(1000*({}))", "exp(-exp(800*({})))",
                            "({})^-3", "log({})", "({})^0.5", "d({})",
                            "sqrt({})*exp(1000*z)"]),
           st.integers(0, 4), st.sampled_from(range(len(_BATCHES))))
    @settings(max_examples=400, deadline=None)
    def test_bitwise_equal_with_the_same_failures(self, text, wrap, order, batch):
        # the trapped runs fold the tape once per rank of the points: the
        # runs after the first of each rank read the cached folding
        fn, z = ExprFunction(wrap.format(text)), _BATCHES[batch]
        for points in (_BATCHES[batch - 1], z, np.stack([z, z[::-1]])):
            want = _outcome(lambda: fn.jet(points, order))
            assert _outcome(lambda: trapped(fn.jet, points, order)) == want

    @pytest.mark.parametrize("text, z, want", [
        # the first slot to overflow is exp(1000*z) at 0.9; unchecked,
        # 1/inf reads 0 and only exp(-1000*z) at -0.9 is left non-finite
        ("1/exp(1000*z)+exp(-1000*z)", np.array([-0.9, 0.9]),
         (NonFinite, "non-finite jet coefficient", None, 0.9)),
        # a non-finite centre: its coefficient, or the centre itself
        ("z", np.array([0.1, np.inf, np.nan]),
         (NonFinite, "non-finite jet coefficient", None, complex(np.inf))),
        ("1+z", np.array([0.1, np.nan]),
         (NonFinite, "non-finite jet center", None, None)),
        # a non-finite constant raises no numpy flag
        ("z+1e999", np.array([0.2, 0.3]),
         (NonFinite, "non-finite jet coefficient", None, 0.2)),
        ("1e999*z", np.array([0.2, 0.3]),
         (NonFinite, "non-finite jet coefficient", None, 0.2)),
        # z^3 overflows at both points, the square inside it at 1e160
        # only: the power is checked as one slot
        ("z^3", np.array([1e110 + 0j, 1e160 + 0j]),
         (NonFinite, "non-finite jet coefficient", None, 1e110)),
        # a subtree that does not read z and fails is not folded: it fails
        # where it runs, at the first point of the batch
        ("(1e-200)^-2*z+z", np.array([0.2, 0.3]),
         (NonFinite, "jet power -2 overflows at (0.2+0j)", None, 0.2)),
        ("log(1-1)*z", np.array([0.2, 0.3]),
         (BranchPointAtCenter, "log of jet with zero constant term [ast /mul/log]",
          "/mul/log", 0.2)),
        ("exp(800)*exp(800)+z", np.array([0.2, 0.3]),
         (NonFinite, "non-finite jet coefficient", None, 0.2)),
        # a folded divisor of one point vanishes at every point
        ("z/(1-1)", np.array([0.2, 0.3]),
         (DivisionByZeroConstantTerm, "jet division by zero constant term [ast /div]",
          "/div", 0.2)),
    ])
    def test_failures_name_the_checked_point(self, text, z, want):
        fn = ExprFunction(text)
        assert _outcome(lambda: fn.jet(z, 2)) == want
        for _ in range(2):  # the second run reads the cached folding
            assert _outcome(lambda: trapped(fn.jet, z, 2)) == want

    @pytest.mark.parametrize("text, z", [
        ("1+2*i", _BATCHES[1]), ("1+2*i", np.stack([_BATCHES[0]] * 3)),
        # a folded divisor vanishes at every point, and an empty batch has none
        ("z/(1-1)", np.zeros(0, dtype=complex))])
    def test_a_tape_that_does_not_read_z_keeps_the_shape(self, text, z):
        fn = ExprFunction(text)
        want = fn.jet(z, 2).coeffs
        assert want.shape == (3,) + z.shape
        for _ in range(2):
            got = trapped(fn.jet, z, 2).coeffs
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    # the tapes of h' and omega (parts form: h' and g') of the generated
    # maps of the benchmark's norm sweep (seed 1), at order 2: their
    # instructions, and those left once the subtrees that do not read z
    # are folded
    @pytest.mark.parametrize("text, count, folded", [
        ("d(z+(0.0417-0.015*i)*z^2)", 11, 7),
        ("d((-0.0746-0.0311*i)*z^2+(0.0026+0.0105*i)*z^3)", 19, 10),
        ("(1+(0.3097-0.0456*i)*z)/(1-(-0.4487-0.0662*i)*z)^3", 21, 12),
        ("(-0.4523+0.6078*i)*(z-(-0.3855-0.6007*i))/(1-(-0.3855+0.6007*i)*z)", 26, 11),
        ("d(z/(1-(0.0067-0.0016*i)*z))", 12, 8),
        ("d((0.1953-0.0945*i)*z^2/(1-(0.0067-0.0016*i)*z))", 19, 11),
        ("exp((-0.0606-0.637*i)*z)/(1-(-0.4547-0.3055*i)*z)^2", 21, 11),
        ("(-0.0389+0.706*i)*z*(z-(0.0902+0.2215*i))/(1-(0.0902-0.2215*i)*z)", 26, 13),
    ])
    def test_folded_instruction_counts(self, text, count, folded):
        fn = ExprFunction(text)
        trapped(fn.jet, _BATCHES[0], 2)
        tape = fn._tapes[2]
        assert len(tape.instrs) == count
        assert sorted(tape.folded) == [1] and len(tape.folded[1]) == folded

    def test_trapped_run_checks_no_slot(self, monkeypatch):
        import harmschwarz.expr as expr_module
        import harmschwarz.jets as jets_module

        calls = []
        monkeypatch.setattr(expr_module, "check_finite",
                            lambda coeffs, center: calls.append(center))
        monkeypatch.setattr(jets_module, "check_finite",
                            lambda coeffs, center: calls.append(center))
        fn, z = ExprFunction("(1+z)^0.5*log(2-z)/(1-z)^4"), _BATCHES[0]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            trapped = fn.jet(z, 3)
        assert calls == []
        checked = fn.jet(z, 3)
        assert len(calls) > 10
        assert trapped.coeffs.tobytes() == checked.coeffs.tobytes()


def _outcome_as_is(fn):
    """``_outcome`` under the caller's error state."""
    try:
        jet = fn()
    except ToolkitError as exc:
        return type(exc), str(exc), getattr(exc, "ast_path", None), getattr(exc, "at", None)
    return jet.coeffs.shape, jet.coeffs.tobytes()


class TestErrorState:
    """A checked run detects non-finite slots itself, so it sets its own
    error state: the outcome is the same whatever the caller's."""

    @pytest.mark.parametrize("text", ["1/exp(1000*z)", "exp(-exp(800*z))",
                                      "z+z^-512", "log(z)", "(z-0.1)^0.5",
                                      "sqrt(1+z)*exp(1000*z)", "1e999*z"])
    @pytest.mark.parametrize("z", [0.9, 0.1, np.array([0.3, 0.9, 0.1])])
    def test_outcome_does_not_depend_on_the_callers_state(self, text, z):
        fn = ExprFunction(text)
        want = _outcome(lambda: fn.jet(z, 2))
        with np.errstate(all="raise"):
            assert _outcome_as_is(lambda: fn.jet(z, 2)) == want
            assert _outcome_as_is(lambda: trapped(fn.jet, z, 2)) == want
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(all="warn"):
                assert _outcome_as_is(lambda: fn.jet(z, 2)) == want
                assert _outcome_as_is(lambda: trapped(fn.jet, z, 2)) == want


# ---------------------------------------------------------------------------
# the one-point tape on Python complex numbers against the numpy tape it
# replaced


def _numpy_run_tape(tape, z0):
    """The tape at one point ``z0`` on 1-D numpy coefficient arrays, every
    slot checked: ``_run_tape`` as it ran a point before one point ran on
    Python complex numbers.  The recurrences of ``jets`` then compute on
    numpy scalars."""
    shape = np.shape(z0)
    stack = []
    pop = stack.pop
    try:
        for op, arg, where in tape.instrs:
            if op == _CONST:
                out = np.zeros((len(arg),) + shape, dtype=np.complex128)
                out[0] = arg[0]
            elif op == _VAR:
                out = np.zeros((arg + 1,) + shape, dtype=np.complex128)
                out[0] = z0
                if arg >= 1:
                    out[1] = 1.0
            elif op == _ADD:
                out = pop(-2) + pop()
            elif op == _SUB:
                out = pop(-2) - pop()
            elif op == _MUL:
                out = mul_coeffs(pop(-2), pop())
            elif op == _DIV:
                out = div_coeffs(pop(-2), pop())
            elif op == _POW:
                out = pow_coeffs(pop(), arg, z0)
            elif op == _NEG:
                out = -pop()
            elif op == _LOGMUL:
                out = mul_coeffs(pop(), log_coeffs(pop()))
            elif op == _LOG:
                out = log_coeffs(pop())
            elif op == _EXP:
                out = exp_coeffs(pop())
            elif op == _SQRT:
                out = sqrt_coeffs(pop())
            else:  # _D
                out = derivative_coeffs(pop())
            check_finite(out, z0)
            stack.append(out)
    except (DivisionByZeroConstantTerm, BranchPointAtCenter) as exc:
        exc.ast_path = _ast_path(where)
        exc.args = (f"{exc.args[0]} [ast {exc.ast_path}]",)
        exc.at = first_point(z0, exc.mask)
        raise
    return Jet._checked(z0, pop())


# one point as a Python complex, float or int, a numpy scalar or a 0-d array
_ONE_POINTS = [0.3 + 0.2j, -0.4 + 0.1j, 0.9, 0.01, -0.5, 0, 1, 0.0, 1e-160 + 0j,
               np.complex128(0.1 - 0.5j), np.array(0.2 - 0.3j), np.array(0.9),
               np.array(0)]


def _one_point_outcomes(ast, z, order):
    """(one-point tape, numpy tape) outcomes; a jet keeps ``z`` as its centre."""
    fn = ExprFunction(ast)
    made = []
    got = _outcome(lambda: made.append(fn.jet(z, order)) or made[-1])
    want = _outcome(lambda: _numpy_run_tape(_compile_tape(fn.ast, order), z))
    assert all(jet.center is z for jet in made)
    return got, want


class TestOnePointMatchesNumpy:
    @given(_EXPR_TEXT,
           st.sampled_from(["{}", "d({})", "d(d({}))", "({})^0.5", "log({})",
                            "sqrt({})", "exp({})", "({})^-3", "1/({})",
                            "1/exp(1000*({}))", "exp(-exp(800*({})))",
                            "({})^-400", "1e999*({})", "({})-1e999"]),
           st.integers(0, 4), st.sampled_from(range(len(_ONE_POINTS))))
    @settings(max_examples=600, deadline=None)
    def test_bitwise_equal_with_the_same_failures(self, text, wrap, order, point):
        got, want = _one_point_outcomes(parse(wrap.format(text)), _ONE_POINTS[point], order)
        assert got == want

    @pytest.mark.parametrize("text, z, want", [
        # exp overflows inside a slot: 1/inf would read 0
        ("1/exp(1000*z)", 0.9, (NonFinite, "non-finite jet coefficient", None, 0.9)),
        ("z*exp(1000*z)", np.array(0.9), (NonFinite, "non-finite jet coefficient", None, 0.9)),
        # a negative power whose base underflows
        ("z^-400", 0.01, (NonFinite, "jet power -400 overflows at (0.01+0j)", None, 0.01)),
        ("z+z^-320", 0.1, (NonFinite, "non-finite jet coefficient", None, 0.1)),
        # a branch point at the centre, which names its point
        ("2*sqrt(z)", 0, (BranchPointAtCenter, "sqrt of jet with zero constant term [ast /mul/sqrt]", "/mul/sqrt", 0j)),
        ("log(z-0.5)", 0.5, (BranchPointAtCenter, "log of jet with zero constant term [ast /log]", "/log", 0.5)),
        # a division by a zero constant term, which names its point
        ("1+1/z", 0.0, (DivisionByZeroConstantTerm, "jet division by zero constant term [ast /add/div]", "/add/div", 0j)),
        ("exp(1+z+z^-1)", np.array(0j), (DivisionByZeroConstantTerm, "jet division by zero constant term [ast /exp/add/pow]", "/exp/add/pow", 0j)),
        # a non-finite constant
        ("1e999*z", 0.1, (NonFinite, "non-finite jet coefficient", None, 0.1)),
        # a non-finite centre: its coefficient, or the centre itself
        ("z", float("inf"), (NonFinite, "non-finite jet coefficient", None, complex(float("inf")))),
        ("1+z", complex("nan+nanj"), (NonFinite, "non-finite jet center", None, None)),
    ])
    @pytest.mark.parametrize("order", range(5))
    def test_pinned_failures(self, text, z, want, order):
        got, reference = _one_point_outcomes(parse(text), z, order)
        assert got == reference == want

    @pytest.mark.parametrize("text", _EXPR_SAMPLES + [
        "d(d(z/(1-z)^2))", "(1+z)^0.5*log(2-z)/sqrt(3+z)", "exp(700*z)/z^5",
        "(1+z)^(1/z)", "z^-2+z^600", "sqrt(i*z)", "log(-1+0*z)*z", "exp(z*i)^3"])
    @pytest.mark.parametrize("point", range(len(_ONE_POINTS)))
    def test_samples_at_orders_0_to_4(self, text, point):
        for order in range(5):
            got, want = _one_point_outcomes(parse(text), _ONE_POINTS[point], order)
            assert got == want

    def test_slots_are_lists_of_python_complex_numbers(self, monkeypatch):
        import harmschwarz.expr as expr_module

        kinds = set()
        mul = expr_module.mul_coeffs

        def spy(a, b):
            kinds.update(type(x) for x in (a, b, *a, *b))
            return mul(a, b)

        monkeypatch.setattr(expr_module, "mul_coeffs", spy)
        ExprFunction("(1+z)*(2-z)*exp(z)").jet(np.float64(0.3), 3)
        assert kinds == {list, complex}


# ---------------------------------------------------------------------------
# the explicit-stack parser and printer against the recursive ones they
# replaced


class _ReferenceParser:
    """Recursive descent over the grammar of ``harmschwarz.expr``."""

    def __init__(self, text):
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
            if val in ("log", "exp", "sqrt", "d"):
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


def _reference_parse(text):
    if not isinstance(text, str) or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return _ReferenceParser(text).parse()


def _reference_render(node):
    """(text, binding power) of ``node`` by structural recursion."""
    if isinstance(node, Const):
        return _fmt_const(node.value)
    if isinstance(node, Var):
        return "z", 5
    if isinstance(node, Neg):
        return "-" + _reference_wrap(node.operand, 3), 3
    if isinstance(node, (Sum, Prod)):
        prec = 1 if isinstance(node, Sum) else 2
        rest = "".join(op + _reference_wrap(operand, prec + 1) for op, operand in node.rest)
        return _reference_wrap(node.first, prec) + rest, prec
    if isinstance(node, Pow):
        return _reference_wrap(node.base, 5) + "^" + _reference_wrap(node.exponent, 3), 4
    if isinstance(node, Call):
        return f"{node.fn}({_reference_render(node.arg)[0]})", 5
    raise TypeError(f"not an AST node: {node!r}")


def _reference_wrap(node, required):
    text, prec = _reference_render(node)
    return f"({text})" if prec < required else text


def _parse_outcome(parser, text):
    try:
        return parser(text)
    except (ExprSyntaxError, UnknownIdentifier) as exc:
        return type(exc), str(exc), exc.offset


_ATOMS = ("0", "1", "2.5", "3e2", ".5", "z", "i")
_PREFIXES = ("-", "(", "log(", "exp(", "sqrt(", "d(")
_INFIXES = ("+", "-", "*", "/", "^", ")")
_STRAYS = ("log", "sin", "$", " ", "")


def _random_token_string(rng):
    """Mostly what the grammar expects next, with 15 % any token; tokens
    are joined without separators, so neighbours may fuse ("1"+"2",
    "z"+"i")."""
    tokens, after_operand = [], False
    for _ in range(rng.randint(0, 16)):
        if rng.random() < 0.15:
            tok = rng.choice(_ATOMS + _PREFIXES + _INFIXES + _STRAYS)
        else:
            tok = rng.choice(_INFIXES if after_operand else _ATOMS + _PREFIXES)
        tokens.append(tok)
        if tok.strip():
            after_operand = tok in _ATOMS or tok == ")"
    return "".join(tokens)


class TestParserMatchesRecursion:
    def test_random_token_strings(self):
        rng = random.Random(20121)
        for _ in range(30_000):
            text = _random_token_string(rng)
            assert _parse_outcome(parse, text) == _parse_outcome(_reference_parse, text), text

    @given(_EXPR_TEXT)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_generated_expressions(self, text):
        for wrapped in (text, f"-{text}^-2", f"d(log({text}))*-{text}"):
            assert parse(wrapped) == _reference_parse(wrapped)

    @pytest.mark.parametrize("text, message, offset", [
        ("log z", "expected '('", 4),
        ("log", "expected '('", 3),
        ("(z z)", "expected ')'", 3),
        ("z)", "unexpected ')' after expression", 1),
        ("2z", "unexpected 'z' after expression", 1),
        ("z+*2", "unexpected '*'", 2),
        ("-", "unexpected end of input", 1),
        ("z $", "unexpected character '$'", 2),
        ("", "empty expression", 0),
    ])
    def test_error_messages_and_offsets(self, text, message, offset):
        with pytest.raises(ExprSyntaxError) as err:
            parse(text)
        assert (str(err.value), err.value.offset) == (f"{message} (offset {offset})", offset)
        assert _parse_outcome(_reference_parse, text) == _parse_outcome(parse, text)


_CONSTS = [0.0, -0.0, 1.0, 2.5, -3.0, 1e-300, -1e300, 1j, -1j, 2.5j, -0.0j,
           1 + 2j, -0.5 - 1j, 3 - 0.25j, complex(0.0, 1e300)]


def _random_ast(rng, leaves):
    """An AST of about ``leaves`` leaves, of every node type; a chain may
    have no steps, or a first operand of its own kind, which no parse gives."""
    if leaves <= 1:
        return Var() if rng.random() < 0.3 else Const(rng.choice(_CONSTS))
    kind = rng.choice((Neg, Pow, Call, Sum, Prod))
    if kind is Neg:
        return Neg(_random_ast(rng, leaves - 1))
    if kind is Call:
        return Call(rng.choice(("log", "exp", "sqrt", "d")), _random_ast(rng, leaves - 1))
    if kind is Pow:
        k = rng.randint(1, leaves - 1)
        return Pow(_random_ast(rng, k), _random_ast(rng, leaves - k))
    ops = "+-" if kind is Sum else "*/"
    n = rng.randint(0, min(3, leaves - 1))
    parts = [_random_ast(rng, max(1, leaves // (n + 1))) for _ in range(n + 1)]
    return kind(parts[0], tuple((rng.choice(ops), p) for p in parts[1:]))


class TestPrinterMatchesRecursion:
    def test_random_asts(self):
        rng = random.Random(20122)
        for _ in range(5_000):
            ast = _random_ast(rng, rng.randint(1, 16))
            assert to_text(ast) == _reference_render(ast)[0]

    def test_not_a_node(self):
        with pytest.raises(TypeError, match="not an AST node"):
            to_text(Neg("z"))


class TestDeepNesting:
    # 10,000 levels: the parser, the printer, equality, hashing and repr
    # keep their own stacks
    @pytest.mark.parametrize("text, step, printed", [
        ("(" * 10_000 + "z" + ")" * 10_000, None, "z"),
        ("-" * 10_000 + "z", "operand", "-" * 10_000 + "z"),
        ("z" + "^1" * 10_000, "exponent", "z" + "^1.0" * 10_000),
    ], ids=["parentheses", "unary-minus", "power"])
    def test_parse_print_parse(self, text, step, printed):
        ast = parse(text)
        node, levels = ast, 0
        while step is not None and not isinstance(node, (Var, Const)):
            node, levels = getattr(node, step), levels + 1
        assert levels == (0 if step is None else 10_000)
        assert to_text(ast) == printed
        assert to_text(parse(printed)) == printed
        assert parse(printed) == ast

    @pytest.mark.parametrize("text", [
        "-" * 10_000 + "z",
        "z" + "^1" * 10_000,
        "(1+" * 10_000 + "z" + ")" * 10_000,
        "exp(" * 10_000 + "z" + ")" * 10_000,
    ], ids=["unary-minus", "power", "sum", "call"])
    def test_compare_hash_and_print(self, text):
        a, b = parse(text), parse(text)
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == f"{type(a).__name__}<{to_text(a)}>"
        c = parse(text.replace("z", "i", 1))  # differs at the deepest leaf
        assert a != c and not a == c

    def test_equality_is_the_dataclass_equality(self):
        assert Const(0j) == Const(-0j) and hash(Const(0j)) == hash(Const(-0j))
        assert Const(1.0) == Const(1 + 0j) and hash(Const(1.0)) == hash(Const(1 + 0j))
        assert parse("z+1") != parse("z+1+1") and parse("z+1") != parse("z-1")
        assert Neg(Var()) != Var() and Var() != "z" and Var() == Var()
        assert Sum(Var(), (("+", Var()),)) != Prod(Var(), (("+", Var()),))
        assert {parse("z/(1-z)^2"): 1}[parse("z/(1-z)^2")] == 1
