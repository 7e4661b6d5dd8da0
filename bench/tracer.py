"""In-memory span tracer attached to harmschwarz from the outside.

``Tracer.installed()`` replaces each traced name where its callers look
it up at call time: module globals (``harmschwarz.norms.schwarzian`` is
the name the norm search calls, ``harmschwarz.cli.hyperbolic_sup`` the
one the CLI calls), the CLI's operator table, and methods on their class.
Wrapping only the defining module would miss every caller that imported
the name directly.  Nothing under ``src/`` changes; leaving the context
restores every original.

Each wrapped call records a span (id, parent id, request id, name, start
and end in ns).  Spans stay in memory and are written out by
:meth:`Tracer.write_spans` when the run ends.  A span's self time is its
duration minus the durations of its direct children; it is accumulated
per name as spans close.  Counters are recorded by the same wrappers.
"""

import contextlib
import functools
import time
from collections import defaultdict

import numpy as np

import harmschwarz.cli as cli
import harmschwarz.expr as expr
import harmschwarz.maps as maps
import harmschwarz.norms as norms
import harmschwarz.operators as operators
import harmschwarz.quadrature as quadrature
from harmschwarz.jets import Jet

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # (id, parent, request, name, start_ns, end_ns)
        self.self_ns = defaultdict(int)
        self.total_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.fired = defaultdict(int)  # binding -> calls through it
        self.request = -1
        self.absent = []  # bindings the program no longer has
        self._stack = []  # [span id, child ns]
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0]
        self._stack.append(frame)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            self._stack.pop()
            dur = end - start
            self.self_ns[name] += dur - frame[1]
            self.total_ns[name] += dur
            if self._stack:
                self._stack[-1][1] += dur
            self.spans.append((sid, parent, self.request, name, start, end))

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start_ns,end_ns\n")
            for span in self.spans:
                fh.write(",".join(map(str, span)) + "\n")

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding that exists; record the names of the others
        in ``self.absent`` (a refactor may remove one, e.g. ``minimize``
        once the norm search drops scipy), whose metrics then read 0."""
        restore = []
        try:
            for owner, key, make in _bindings(self):
                is_dict = isinstance(owner, dict)
                binding = f"{_owner_name(owner)}.{key}"
                if (key not in owner) if is_dict else not hasattr(owner, key):
                    self.absent.append(binding)
                    continue
                original = owner[key] if is_dict else getattr(owner, key)
                wrapped = functools.wraps(original)(make(binding, original))
                restore.append((owner, key, original, is_dict))
                if is_dict:
                    owner[key] = wrapped
                else:
                    setattr(owner, key, wrapped)
            yield self
        finally:
            for owner, key, original, is_dict in reversed(restore):
                if is_dict:
                    owner[key] = original
                else:
                    setattr(owner, key, original)


def _owner_name(owner):
    if isinstance(owner, dict):
        return "cli._EVAL_OPS"
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}"
    return owner.__name__


def _bindings(t):
    """(owner, name, make(binding, original) -> wrapper) for every traced
    lookup site."""

    def span(name, counter=None):
        def make(binding, fn):
            def wrapper(*args, **kwargs):
                t.fired[binding] += 1
                result = t.call(name, fn, *args, **kwargs)
                if counter is not None:
                    counter(args, result)
                return result
            return wrapper
        return make

    def add(key, amount=1):
        t.counts[key] += amount

    def make_jet(binding, fn):
        def jet(self, z, *args, **kwargs):
            t.fired[binding] += 1
            if np.ndim(z) == 0:
                add("expr.jet.scalar_calls")
                return t.call("expr.jet.scalar", fn, self, z, *args, **kwargs)
            add("expr.jet.batch_points", np.size(z))
            return t.call("expr.jet.batch", fn, self, z, *args, **kwargs)
        return jet

    def make_jet_init(binding, fn):
        def __init__(self, *args, **kwargs):
            t.fired[binding] += 1
            add("jets.Jet.created")
            fn(self, *args, **kwargs)
        return __init__

    def make_segments(binding, fn):
        def integrate_segments(values_fn, z0, z1, *args, **kwargs):
            t.fired[binding] += 1
            levels = 0

            def counted(pts):
                nonlocal levels
                levels += 1
                add("quadrature.integrate_segments.integrand_points", np.size(pts))
                return values_fn(pts)

            add("quadrature.integrate_segments.calls")
            add("quadrature.integrate_segments.segments", np.size(z0))
            try:
                return t.call("quadrature.integrate_segments", fn,
                              counted, z0, z1, *args, **kwargs)
            finally:
                key = "quadrature.integrate_segments.levels_max"
                t.counts[key] = max(t.counts[key], levels)
        return integrate_segments

    def operator(name):
        def counter(args, _result):
            add(f"operators.{name}.calls")
            add(f"operators.{name}.points", np.size(args[1]))
        return span(f"operators.{name}", counter)

    def refine_counter(_args, result):
        add("norms.refine.runs")
        add("norms.refine.evals", int(result.nfev))

    eval_ops = getattr(cli, "_EVAL_OPS", {})
    schw, pre = operator("schwarzian"), operator("pre_schwarzian")
    other_op = span("operators.other")
    oracle = span("operators.oracles")
    return [
        (cli, "main", span("cli.main")),
        (expr, "parse", span("expr.parse", lambda a, r: add("expr.parse.calls"))),
        (expr.ExprFunction, "jet", make_jet),
        (Jet, "__init__", make_jet_init),
        (operators, "bivariate_extract",
         span("jets.bivariate_extract",
              lambda a, r: add("jets.bivariate_extract.calls"))),
        (maps.HarmonicMap, "derivative_data",
         span("maps.derivative_data", lambda a, r: add("maps.derivative_data.calls"))),
        (maps.HarmonicMap, "values",
         span("maps.values", lambda a, r: add("maps.values.points", np.size(a[1])))),
        # maps calls both names; integrate_segment calls integrate_segments
        # through its own module
        (maps, "integrate_segments", make_segments),
        (quadrature, "integrate_segments", make_segments),
        (maps, "integrate_segment",
         span("quadrature.integrate_segment",
              lambda a, r: add("quadrature.integrate_segment.calls"))),
        (norms, "schwarzian", schw),
        (norms, "pre_schwarzian", pre),
        (norms, "minimize", span("norms.refine", refine_counter)),
        (norms, "_grid", span("norms.grid", lambda a, r: add("norms.grid.points", r.size))),
        (cli, "hyperbolic_sup",
         span("norms.hyperbolic_sup",
              lambda a, r: add("norms.samples_evaluated", r.samples_evaluated))),
        (cli, "becker_check", span("norms.becker_check")),
        # ``eval`` looks its operators up in this table, not in cli globals
        (eval_ops, "schw", schw),
        (eval_ops, "pre", pre),
        (eval_ops, "jac", other_op),
        (eval_ops, "dbarpre", other_op),
        (eval_ops, "lap", other_op),
        (cli, "cdo_schwarzian", other_op),
        (operators, "lemma1_schwarzian", oracle),
        (operators, "schwarzian_via_jacobian_fd", oracle),
        (operators, "tamanoi_schwarzian", oracle),
    ]


# The bindings each workload reaches, predicted from how its commands use
# each layer.  Every other binding must stay silent on that workload: no
# quadrature on norm-sweep, no norm search on the other two.
_COMMON = ["harmschwarz.cli.main", "harmschwarz.expr.parse",
           "harmschwarz.expr.ExprFunction.jet", "harmschwarz.jets.Jet.__init__"]
EXPECTED_FIRING = {
    "norm-sweep": _COMMON + [
        "harmschwarz.maps.HarmonicMap.derivative_data",
        "harmschwarz.norms.schwarzian", "harmschwarz.norms.pre_schwarzian",
        "harmschwarz.norms.minimize", "harmschwarz.norms._grid",
        "harmschwarz.cli.hyperbolic_sup", "harmschwarz.cli.becker_check"],
    "render-dilatation": _COMMON + [
        "harmschwarz.maps.HarmonicMap.values", "harmschwarz.maps.integrate_segments"],
    "pointwise-eval": _COMMON + [
        "harmschwarz.maps.HarmonicMap.derivative_data",
        "harmschwarz.maps.HarmonicMap.values",
        "harmschwarz.maps.integrate_segments",
        "harmschwarz.quadrature.integrate_segments",
        "harmschwarz.maps.integrate_segment",
        "harmschwarz.operators.bivariate_extract",
        "cli._EVAL_OPS.schw", "cli._EVAL_OPS.pre", "cli._EVAL_OPS.jac",
        "cli._EVAL_OPS.dbarpre", "cli._EVAL_OPS.lap",
        "harmschwarz.cli.cdo_schwarzian",
        "harmschwarz.operators.lemma1_schwarzian",
        "harmschwarz.operators.schwarzian_via_jacobian_fd",
        "harmschwarz.operators.tamanoi_schwarzian"],
}


def coverage_errors(tracer, workload):
    """Installed bindings that broke the workload's firing prediction."""
    expected = EXPECTED_FIRING[workload]
    errors = [f"{b} never fired" for b in expected
              if not tracer.fired[b] and b not in tracer.absent]
    errors += [f"{b} fired {n} times, predicted silent"
               for b, n in tracer.fired.items() if n and b not in expected]
    return errors


# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.main.self_ms", "ms"), ("cli.output_bytes", "bytes"),
    ("expr.parse.calls", "count"), ("expr.parse.self_ms", "ms"),
    ("expr.jet.scalar_calls", "count"), ("expr.jet.scalar_self_ms", "ms"),
    ("expr.jet.batch_points", "count"), ("expr.jet.batch_self_ms", "ms"),
    ("jets.Jet.created", "count"),
    ("jets.bivariate_extract.calls", "count"), ("jets.bivariate_extract.self_ms", "ms"),
    ("maps.derivative_data.calls", "count"), ("maps.derivative_data.self_ms", "ms"),
    ("maps.values.points", "count"), ("maps.values.self_ms", "ms"),
    ("quadrature.integrate_segments.calls", "count"),
    ("quadrature.integrate_segments.segments", "count"),
    ("quadrature.integrate_segments.levels_max", "count"),
    ("quadrature.integrate_segments.integrand_points", "count"),
    ("quadrature.integrate_segments.points_per_segment", "ratio"),
    ("quadrature.integrate_segments.self_ms", "ms"),
    ("quadrature.integrate_segment.calls", "count"),
    ("operators.schwarzian.calls", "count"), ("operators.schwarzian.points", "count"),
    ("operators.schwarzian.self_ms", "ms"),
    ("operators.pre_schwarzian.calls", "count"),
    ("operators.pre_schwarzian.points", "count"),
    ("operators.pre_schwarzian.self_ms", "ms"),
    ("operators.oracles.self_ms", "ms"),
    ("norms.grid.points", "count"), ("norms.grid.self_ms", "ms"),
    ("norms.refine.runs", "count"), ("norms.refine.evals", "count"),
    ("norms.refine.ms", "ms"), ("norms.refine.share", "ratio"),
    ("norms.samples_evaluated", "count"),
    ("trace.spans", "count"), ("trace.overhead_ms", "ms"),
)


def layer_values(t, output_bytes, overhead_ms):
    """Every LAYER_METRICS value from one traced pass."""
    c = t.counts

    def self_ms(*names):
        return sum(t.self_ns[n] for n in names) / 1e6

    segments = c["quadrature.integrate_segments.segments"]
    sup_ns = t.total_ns["norms.hyperbolic_sup"]
    values = dict(c)
    values.update({
        "cli.main.self_ms": self_ms("cli.main"),
        "cli.output_bytes": output_bytes,
        "expr.parse.self_ms": self_ms("expr.parse"),
        "expr.jet.scalar_self_ms": self_ms("expr.jet.scalar"),
        "expr.jet.batch_self_ms": self_ms("expr.jet.batch"),
        "jets.bivariate_extract.self_ms": self_ms("jets.bivariate_extract"),
        "maps.derivative_data.self_ms": self_ms("maps.derivative_data"),
        "maps.values.self_ms": self_ms("maps.values"),
        "quadrature.integrate_segments.points_per_segment":
            c["quadrature.integrate_segments.integrand_points"] / segments
            if segments else 0.0,
        "quadrature.integrate_segments.self_ms": self_ms("quadrature.integrate_segments"),
        "operators.schwarzian.self_ms": self_ms("operators.schwarzian"),
        "operators.pre_schwarzian.self_ms": self_ms("operators.pre_schwarzian"),
        "operators.oracles.self_ms": self_ms("operators.oracles"),
        "norms.grid.self_ms": self_ms("norms.hyperbolic_sup", "norms.becker_check",
                                      "norms.grid"),
        "norms.refine.ms": t.total_ns["norms.refine"] / 1e6,
        "norms.refine.share": t.total_ns["norms.refine"] / sup_ns if sup_ns else 0.0,
        "trace.spans": len(t.spans),
        "trace.overhead_ms": overhead_ms,
    })
    return {name: values.get(name, 0) for name, _unit in LAYER_METRICS}
