"""Batch command-line interface.

Commands: catalog, eval, norm, becker, shear, render, verify.  Output is
deterministic for fixed inputs: JSON objects with fixed field order and
floats in shortest round-trip form, CSV with the documented header.

Exit codes: 0 success, 1 usage (including non-finite numbers), 2
expression parse error, 3 domain error, 4 numerical failure.  A library
error exits with the ``exit_code`` its class declares in ``errors``.
Every error path writes one machine parsable JSON record {"code",
"message", "at"?} to stderr and nothing else: numpy's floating-point
warnings are silenced while a command runs (an overflow surfaces as
NonFinite, exit 4).

Map specification (exactly one style per invocation):

  --map NAME            catalog map (K, L, S1, S2, K2, k, l, s, q2)
  --h EXPR --g EXPR     parts form: analytic part h and co-analytic g
  --h EXPR --omega EXPR dilatation form: the ``h`` expression is the
                        DERIVATIVE h' (the map is rebuilt with
                        h(0) = g(0) = 0), omega is the dilatation

The dilatation-form convention matches the JSON interchange emitted by
``shear``, which serializes ``maps.shear``: a sheared map's analytic
part has no closed form, so its derivative phi'/(1 - e^{2i theta} omega)
is what travels.

Each command registers only the flags it reads: the grid flags --rays,
--radial and --rmax for norm and becker, the zoom flags for norm only
(--no-refine is --refine-iterations 0; the last one given wins), --q for
eval --op cdo only.  A flag's value may start with '-' after a space
(--omega -z) unless it is itself one of the command's flags.
"""

import argparse
import cmath
import functools
import json
import sys

import numpy as np

from . import expr as ex
from .errors import DomainError, NonFinite, ToolkitError
from .maps import (
    CATALOG_NAMES,
    HarmonicMap,
    catalog_map,
    map_from_json,
    map_to_json,
    shear,
)
from .norms import SearchConfig, becker_check, becker_lhs, hyperbolic_sup
from .operators import (
    cdo_schwarzian,
    classical_schwarzian,
    dbar_pre_schwarzian,
    jacobian,
    lemma1_schwarzian,
    mixed_laplacian_schwarzian,
    pre_schwarzian,
    schwarzian,
    schwarzian_via_jacobian_fd,
    tamanoi_schwarzian,
)

EXIT_OK, EXIT_USAGE, EXIT_NUMERIC = 0, 1, 4


class _UsageError(ToolkitError):
    exit_code = EXIT_USAGE


class _Parser(argparse.ArgumentParser):
    # flags are spelled in full (the command parsers are of this class too)
    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise _UsageError(message)


def _emit_error(code, message, at=None):
    record = {"code": code, "message": str(message)}
    if at is not None:
        record["at"] = f"{complex(at).real},{complex(at).imag}"
    print(json.dumps(record), file=sys.stderr)
    return code


def _parse_point(text):
    try:
        re_s, im_s = text.split(",")
        z = complex(float(re_s), float(im_s))
    except ValueError:
        raise _UsageError(f"point {text!r} is not of the form 're,im'")
    if not cmath.isfinite(z):
        raise _UsageError(f"point {text!r} is not finite")
    return z


def _load_map(args):
    styles = sum([args.map is not None,
                  args.h is not None and args.g is not None,
                  args.h is not None and args.omega is not None])
    if args.map is not None and any(
            text is not None for text in (args.h, args.g, args.omega)):
        raise _UsageError("--map cannot be combined with --h/--g/--omega")
    if styles != 1:
        raise _UsageError(
            "specify exactly one map style: --map NAME, --h/--g, or --h/--omega")
    if args.map is not None:
        return catalog_map(args.map)
    if args.g is not None:
        return map_from_json({"label": "cli", "form": "parts",
                              "h": args.h, "g": args.g})
    return map_from_json({"label": "cli", "form": "dilatation",
                          "h": args.h, "omega": args.omega})


def _add_map_flags(p):
    p.add_argument("--map", help="catalog map name "
                   f"({', '.join(CATALOG_NAMES)})")
    p.add_argument("--h", help="analytic part h (with --g) or its "
                   "derivative h' (with --omega)")
    p.add_argument("--g", help="co-analytic part g (parts form)")
    p.add_argument("--omega", help="dilatation omega (dilatation form)")


def _add_grid_flags(p):
    p.add_argument("--rays", type=int, default=256)
    p.add_argument("--radial", type=int, default=128,
                   help="radial samples of the polar grid")
    p.add_argument("--rmax", type=float, default=1.0 - 1e-6)


def _search_config(args, **zoom):
    return SearchConfig(rays=args.rays, radial_samples=args.radial,
                        rmax=args.rmax, **zoom)


def _jsonpair(v):
    v = complex(v)
    return [v.real, v.imag]


# ---------------------------------------------------------------------------
# commands


def _cmd_catalog(args):
    print(json.dumps({"names": list(CATALOG_NAMES)} if args.name is None
                     else map_to_json(catalog_map(args.name))))
    return EXIT_OK


_EVAL_OPS = {
    "pre": pre_schwarzian,
    "schw": schwarzian,
    "cdo": None,  # handled separately (optional --q)
    "jac": jacobian,
    "dbarpre": dbar_pre_schwarzian,
    "lap": mixed_laplacian_schwarzian,
}


def _cmd_eval(args):
    f = _load_map(args)
    if args.q is not None and args.op != "cdo":
        raise _UsageError("--q applies to --op cdo only")
    q = ex.ExprFunction(args.q) if args.q is not None else None
    points = [_parse_point(t) for t in args.at]
    records = []
    for z in points:
        if abs(z) >= 1.0:
            raise DomainError("evaluation point outside the unit disk", at=z)
        if args.op == "cdo":
            val = cdo_schwarzian(f, z, q=q)
        else:
            val = _EVAL_OPS[args.op](f, z)
        if not cmath.isfinite(val):
            # finite jets can still overflow in an op, as |h'|^2 in jac
            raise NonFinite(f"non-finite {args.op} value at {z}", at=z)
        records.append({"z": _jsonpair(z), "op": args.op,
                        "value": _jsonpair(val)})
    if args.format == "csv":
        print("re_z,im_z,op,re_value,im_value")
        for r in records:
            print(f"{r['z'][0]!r},{r['z'][1]!r},{r['op']},"
                  f"{r['value'][0]!r},{r['value'][1]!r}")
    else:
        for r in records:
            print(json.dumps(r))
    return EXIT_OK


def _cmd_norm(args):
    f = _load_map(args)
    cfg = _search_config(args, refine_iterations=args.refine_iterations)
    report = hyperbolic_sup(f, args.op, cfg)
    print(json.dumps(report.to_json()))
    return EXIT_OK


def _cmd_becker(args):
    f = _load_map(args)
    report = becker_check(f, _search_config(args))
    print(json.dumps(report.to_json()))
    return EXIT_OK


def _cmd_shear(args):
    f = shear(ex.ExprFunction(args.phi), ex.ExprFunction(args.omega),
              args.theta, label=f"shear(theta={args.theta!r})")
    f.derivative_data(0.0)  # smoke-check evaluability at the origin
    print(json.dumps(map_to_json(f)))
    return EXIT_OK


def _cmd_render(args):
    f = _load_map(args)
    if args.rays <= 0 or args.circles <= 0 or not 0 < args.rmax < 1:
        raise _UsageError("render grid parameters must be positive, rmax in (0,1)")
    radii = args.rmax * (np.arange(args.circles) + 1) / args.circles
    angles = 2.0 * np.pi * np.arange(args.rays) / args.rays
    zs = (radii[:, None] * np.exp(1j * angles)[None, :]).reshape(-1)
    vals = f.values(zs)
    print("re_z,im_z,re_f,im_f")
    for z, v in zip(zs, vals):
        print(f"{float(z.real)!r},{float(z.imag)!r},"
              f"{float(v.real)!r},{float(v.imag)!r}")
    return EXIT_OK


# -- verify suites -----------------------------------------------------------

_VERIFY_POINTS = [0.1 + 0.2j, -0.3 + 0.1j, 0.25 - 0.35j]


def _suite_oracles():
    details = []
    for name in ("K", "L", "S1", "S2", "K2"):
        f = catalog_map(name)
        for z in _VERIFY_POINTS:
            s = schwarzian(f, z)
            checks = [
                ("lemma1", abs(s - lemma1_schwarzian(f, z)), 1e-10),
                ("jacobian-fd", abs(s - schwarzian_via_jacobian_fd(f, z)), 1e-5),
                ("tamanoi", abs(s - tamanoi_schwarzian(f, z)), 1e-6),
            ]
            for oracle, err, tol in checks:
                details.append({
                    "name": f"oracle {oracle} {name} at {z}",
                    "passed": bool(err <= tol),
                    "error": float(err), "tol": tol,
                })
    return details


def _suite_invariance():
    from .maps import AffineMap, affine_compose, conjugate, disk_automorphism, precompose
    details = []
    affines = [AffineMap(1.2 - 0.3j, 0.4 + 0.2j, 2.0 + 1.0j),
               AffineMap(0.5j, 0.9, -1.0)]
    for name in ("K", "S2"):
        f = catalog_map(name)
        g = conjugate(f)
        for z in _VERIFY_POINTS:
            err = abs(schwarzian(f, z) - schwarzian(g, z)) + \
                abs(pre_schwarzian(f, z) - pre_schwarzian(g, z))
            details.append({"name": f"conjugation invariance {name} at {z}",
                            "passed": bool(err <= 1e-12), "error": float(err),
                            "tol": 1e-12})
        for A in affines:
            F = affine_compose(A, f)
            err = max(abs(schwarzian(F, z) - schwarzian(f, z)) +
                      abs(pre_schwarzian(F, z) - pre_schwarzian(f, z))
                      for z in _VERIFY_POINTS)
            details.append({"name": f"affine invariance {name} A={A!r}",
                            "passed": bool(err <= 1e-10), "error": float(err),
                            "tol": 1e-10})
        phi = disk_automorphism(0.3 - 0.2j)
        F = precompose(f, phi)
        err = 0.0
        for z in _VERIFY_POINTS:
            phj = phi.jet(z, 1)
            lhs = schwarzian(F, z)
            rhs = schwarzian(f, complex(phj.value)) * complex(phj.coeffs[1]) ** 2 \
                + complex(classical_schwarzian(phi, z))
            err = max(err, abs(lhs - rhs))
        details.append({"name": f"chain rule {name}", "passed": bool(err <= 1e-9),
                        "error": float(err), "tol": 1e-9})
    return details


def _suite_norms():
    targets = [("L", 1.5), ("S1", 2.5), ("S2", 4.0), ("K", 9.5)]
    details = []
    for name, want in targets:
        rep = hyperbolic_sup(catalog_map(name), "S")
        details.append({"name": f"norm S {name}",
                        "passed": bool(abs(rep.value - want) <= 1e-6),
                        "value": rep.value, "want": want})
    rep = hyperbolic_sup(catalog_map("K2"), "S")
    details.append({"name": "norm S K2 (boundary)",
                    "passed": bool(rep.value >= 9.45 and rep.boundary_flag),
                    "value": rep.value, "want": 9.5})
    return details


def _suite_becker():
    details = []
    affine = HarmonicMap.from_parts(ex.ExprFunction("z"),
                                    ex.ExprFunction("0.5*z"), label="affine")
    rep = becker_check(affine)
    details.append({"name": "becker affine holds",
                    "passed": bool(rep.holds and abs(rep.worst_margin - 1.0) <= 1e-12),
                    "worst_margin": rep.worst_margin})
    koebe = catalog_map("k")
    rep = becker_check(koebe)
    lhs_half = float(becker_lhs(koebe, 0.5))
    details.append({"name": "becker koebe fails",
                    "passed": bool(not rep.holds and lhs_half > 1.0),
                    "worst_margin": rep.worst_margin,
                    "lhs_at_half": lhs_half})
    return details


_SUITES = {
    "oracles": _suite_oracles,
    "invariance": _suite_invariance,
    "norms": _suite_norms,
    "becker": _suite_becker,
}


def _cmd_verify(args):
    suites = _SUITES.values() if args.suite == "all" else [_SUITES[args.suite]]
    details = [d for fn in suites for d in fn()]
    passed = sum(1 for d in details if d["passed"])
    failed = len(details) - passed
    print(json.dumps({"suite": args.suite, "passed": passed,
                      "failed": failed, "details": details}))
    return EXIT_OK if failed == 0 else EXIT_NUMERIC


# ---------------------------------------------------------------------------


def _build_parsers():
    """The top-level parser, and the parser of each command by name."""
    parser = _Parser(prog="harmschwarz",
                     description="Schwarzian machinery for planar harmonic maps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="list catalog maps or emit one as JSON")
    p.add_argument("name", nargs="?", default=None)
    p.set_defaults(fn=_cmd_catalog)

    p = sub.add_parser("eval", help="evaluate an operator at points")
    _add_map_flags(p)
    p.add_argument("--op", required=True, choices=list(_EVAL_OPS))
    p.add_argument("--at", action="append", required=True,
                   metavar="RE,IM", help="evaluation point (repeatable)")
    p.add_argument("--q", help="explicit square root of omega (cdo only)")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("norm", help="hyperbolic sup-norm estimate")
    _add_map_flags(p)
    p.add_argument("--op", required=True, choices=("P", "S"))
    _add_grid_flags(p)
    # one dest: the last of the two flags wins
    p.add_argument("--refine-iterations", type=int, default=60,
                   help="cap on the number of zoom levels")
    p.add_argument("--no-refine", action="store_const", const=0,
                   dest="refine_iterations",
                   help="skip the local zoom (--refine-iterations 0)")
    p.set_defaults(fn=_cmd_norm)

    p = sub.add_parser("becker", help="Becker-type univalence check")
    _add_map_flags(p)
    _add_grid_flags(p)
    p.set_defaults(fn=_cmd_becker)

    p = sub.add_parser("shear", help="shear construction, emitted as map JSON")
    p.add_argument("--phi", required=True)
    p.add_argument("--omega", required=True)
    p.add_argument("--theta", type=float, default=0.0, help="radians")
    p.set_defaults(fn=_cmd_shear)

    p = sub.add_parser("render", help="CSV image of the map on a polar grid")
    _add_map_flags(p)
    p.add_argument("--rays", type=int, default=64)
    p.add_argument("--circles", type=int, default=64)
    p.add_argument("--rmax", type=float, default=0.99)
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", choices=(*_SUITES, "all"))
    p.set_defaults(fn=_cmd_verify)

    return parser, sub.choices


def _join_dash_values(p, args):
    """Join each of parser ``p``'s flags that takes one value with a value
    that starts with '-' (``--omega -z``, ``--at -0.3,0.1``), which
    argparse would otherwise read as an option, unless that value is
    itself one of ``p``'s flags."""
    options = p._option_string_actions
    out = []
    for tok in args:
        action = options.get(out[-1]) if out else None
        if (action is not None and action.nargs is None
                and tok.startswith("-") and tok not in options):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


# parsing leaves the parsers unchanged, so one set per process serves
# every call
_parsers = functools.cache(_build_parsers)


def _parse_args(argv):
    """The namespace of ``argv``.  When its first token names a command,
    that command's parser reads the rest, joined by ``_join_dash_values``:
    the top-level parser would only hand them on, after classifying each
    one as an option or not (its errors are those of the command's
    parser, as ``_Parser.error`` raises the bare message)."""
    parser, commands = _parsers()
    if argv and argv[0] in commands:
        p = commands[argv[0]]
        return p.parse_args(_join_dash_values(p, argv[1:]))
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = _parse_args(sys.argv[1:] if argv is None else list(argv))
        # the jets raise NonFinite on overflow, so numpy's warnings would
        # only put extra lines before the one JSON error record
        with np.errstate(all="ignore"):
            return args.fn(args)
    except MemoryError:
        # a grid too large to hold (norm, becker and render build theirs
        # in one array)
        return _emit_error(EXIT_USAGE, "out of memory: use a smaller grid "
                           "(--rays, --radial, --circles)")
    except ToolkitError as exc:
        return _emit_error(exc.exit_code, exc, at=exc.at)


if __name__ == "__main__":
    sys.exit(main())
