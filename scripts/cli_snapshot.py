"""Byte snapshot of the CLI over a fixed command set.

Runs 268 ``harmschwarz`` commands in one process through
``harmschwarz.cli.main`` and writes one JSON line per command:
``{"argv", "exit", "stdout", "stderr"}``.  The set covers every command,
every map style, the catalog, the error paths and their exit codes.
Run it on two checkouts and diff the outputs to see exactly which bytes
a change moves:

    python3 scripts/cli_snapshot.py --src OLD/src > old.jsonl
    python3 scripts/cli_snapshot.py > new.jsonl
    diff old.jsonl new.jsonl

``--src`` names the directory that holds the ``harmschwarz`` package
(default: ``src`` next to this script).  A run takes about 2 s (Python
3.11, numpy 2.4, one core of a 2-vCPU VM).
"""

import argparse
import contextlib
import io
import json
import os
import sys

CATALOG = ("K", "L", "S1", "S2", "K2", "k", "l", "s", "q2")
POINTS = ("0,0", "0.3,0.1", "-0.45,0.2", "0.1,-0.7")
OPS = ("pre", "schw", "jac", "dbarpre", "lap")

# maps given by expressions: parts form (--h/--g) and dilatation form
# (--h is h', with --omega); the last one spells the h' of the one
# before it as d(h)
EXPR_MAPS = (
    ("--h", "z", "--g", "0.5*z"),
    ("--h", "z/(1-z)^2", "--g", "(0.2+0.4*i)*(z/(1-z)^2)"),
    ("--h", "exp(z)", "--g", "0.1*z^2"),
    ("--h", "1/(1-z)^3", "--omega", "-z"),
    ("--h", "exp(z^2)", "--omega", "0.5*z"),
    ("--h", "(1+z)/(1-z)^3", "--omega", "z^2"),
    ("--h", "d(z/(1-z)^2)", "--omega", "z^2"),
)

SHEARS = (
    ("z/(1-z)^2", "z", "0"),
    ("z/(1-z)", "-z", "1.5707963267948966"),
    ("z", "0.5*z", "0.3"),
    ("0.5*log((1+z)/(1-z))", "z^2", "0"),
    ("1+z/(1-z)^2", "z", "0"),
    ("z/(1-z^2)", "(0.1+0.2*i)*z", "-0.7"),
    ("exp(z)-1", "z^3", "2"),
)

ERRORS = (
    ("catalog", "X9"),
    ("eval", "--map", "K", "--op", "schw", "--at", "1.5,0"),
    ("eval", "--map", "K", "--op", "schw", "--at", "nan,0"),
    ("eval", "--map", "K", "--op", "schw", "--at", "inf,0"),
    ("eval", "--map", "K", "--op", "schw", "--at", "0.1"),
    ("eval", "--map", "K", "--op", "nope", "--at", "0,0"),
    ("eval", "--map", "K", "--h", "z", "--op", "pre", "--at", "0,0"),
    # an empty text still names a second map style
    ("eval", "--map", "K", "--h", "", "--op", "schw", "--at", "0.1,0"),
    ("eval", "--map", "K", "--g", "", "--op", "schw", "--at", "0.1,0"),
    ("eval", "--map", "K", "--omega", "", "--op", "schw", "--at", "0.1,0"),
    ("eval", "--op", "pre", "--at", "0,0"),
    ("eval", "--h", "z+", "--g", "0", "--op", "pre", "--at", "0,0"),
    ("eval", "--h", "z", "--g", "1.5*z", "--op", "pre", "--at", "0.1,0"),
    ("eval", "--h", "z^2", "--g", "0", "--op", "pre", "--at", "0,0"),
    ("eval", "--h", "log(z)", "--g", "0", "--op", "pre", "--at", "0,0"),
    ("eval", "--h", "exp(exp(exp(z*50)))", "--g", "0", "--op", "schw",
     "--at", "0.5,0"),
    ("eval", "--map", "K2", "--op", "cdo", "--at", "0,0"),
    ("norm", "--map", "K", "--op", "S", "--refine-iterations", "-1"),
    ("norm", "--map", "K", "--op", "Q"),
    ("norm", "--map", "K", "--op", "S", "--rmax", "-1e-3"),
    ("eval", "--map", "K", "--op", "-x", "--at", "0,0"),
    ("becker", "--map", "K", "--rays", "0"),
    ("shear", "--phi", "z", "--omega", "1"),
    ("shear", "--phi", "log(z)", "--omega", "z"),
    ("shear", "--phi", "z+", "--omega", "z"),
    ("shear", "--phi", "z", "--omega", "z", "--theta", "nan"),
    ("shear", "--phi", "z", "--omega", "z", "--theta", "inf"),
    ("shear", "--phi", "z", "--omega", "z", "--theta", "1e308"),
    ("render", "--map", "K", "--rmax", "1.2"),
    ("render", "--map", "K", "--rays", "0"),
    ("verify", "nope"),
    ("eval", "--h", "+".join(["z"] * 1000), "--g", "0", "--op", "pre",
     "--at", "0,0"),
    # h' overflows only in its order-3 jet, which lap needs, and g' has
    # a pole: the pole is reported, as h' through order 2 comes first
    ("eval", "--h", "exp(1000*z)", "--g", "1e-3/(z-0.688)", "--op", "lap",
     "--at", "0.688,0"),
    # the grid holds 0.5 exactly: the error names that point
    ("norm", "--h", "1/(z-0.5)", "--g", "0", "--op", "S", "--rays", "8",
     "--radial", "8", "--rmax", "0.5"),
    ("becker", "--h", "1/(z-0.5)", "--g", "0", "--rays", "8", "--radial", "8",
     "--rmax", "0.5"),
    # jets that are finite with a non-finite field value: the error names
    # the first such grid point (h' = 1e-300 at 0, and 1e-310 at 0.5)
    ("norm", "--h", "z+1e-300", "--omega", "0", "--op", "S"),
    ("becker", "--h", "z-0.5+1e-310", "--omega", "0", "--rmax", "0.5"),
    # an empty --q is an unparsable q, not a missing one
    ("eval", "--map", "K", "--op", "cdo", "--q", "", "--at", "0.1,0"),
    # a grid sweep that overflows names the first point where a jet slot
    # does: exp(1000*z) overflows where 1/exp(1000*z) would read 0 (as h in
    # norm and becker, and as omega), and a constant can be non-finite
    ("norm", "--h", "1/exp(1000*z)", "--g", "0", "--op", "S"),
    ("becker", "--h", "1/exp(1000*z)", "--g", "0"),
    ("norm", "--h", "z", "--omega", "1/exp(1000*z)", "--op", "S"),
    ("norm", "--h", "1e999*z", "--g", "0", "--op", "S"),
    # the same failures at one point, where the jets run on Python complex
    # numbers: an exp that overflows (in h, in omega, in h'), a non-finite
    # constant, and a negative power whose base underflows
    ("eval", "--h", "1/exp(1000*z)", "--g", "0", "--op", "pre", "--at", "0.9,0"),
    ("eval", "--h", "z", "--omega", "1/exp(1000*z)", "--op", "schw",
     "--at", "0.9,0"),
    ("eval", "--h", "1e999*z", "--g", "0", "--op", "pre", "--at", "0.1,0"),
    ("eval", "--h", "z^-400", "--g", "0", "--op", "pre", "--at", "0.01,0"),
    ("eval", "--h", "exp(1000*z)", "--omega", "0", "--op", "pre", "--at", "0.9,0"),
    # a jet division by zero or a branch point in the tape of q names its
    # point; with 0.1 first, q^2 = 100 does not match omega = 0.1 there
    ("eval", "--map", "K", "--op", "cdo", "--q", "1/z", "--at", "0.1,0",
     "--at", "0,0"),
    ("eval", "--map", "K", "--op", "cdo", "--q", "1/z", "--at", "0,0"),
    ("eval", "--map", "K", "--op", "cdo", "--q", "sqrt(z)", "--at", "0,0"),
    # the quotient omega = g'/h' overflows in the jet division, outside any
    # tape: the sweep runs again with numpy's flags ignored (expr.trapped)
    ("norm", "--h", "1e-300*z", "--g", "1e10*z^2", "--op", "S", "--rays", "8",
     "--radial", "8"),
    # h' vanishes with an explicit omega (a quotient omega fails first)
    ("eval", "--h", "z", "--omega", "0", "--op", "pre", "--at", "0.1,0",
     "--at", "0,0"),
    ("norm", "--h", "z-0.5", "--omega", "0", "--op", "S", "--rays", "8",
     "--radial", "8", "--rmax", "0.5"),
)

# a sum or a product of any length is one AST node; an error inside one
# names the binary steps that enclose the failing operand
CHAINS = (
    ("eval", "--h", "*".join(["(1+0.001*z)"] * 1000), "--g", "0", "--op",
     "pre", "--at", "0.3,0"),
    ("shear", "--phi", "+".join(f"0.001*z^{1 + k % 500}" for k in range(600)),
     "--omega", "0.5*z", "--theta", "0.3"),
    ("eval", "--h", "2+1/z+3", "--g", "0", "--op", "pre", "--at", "0,0"),
    ("eval", "--h", "z", "--g", "2*3*sqrt(z)*4", "--op", "jac", "--at", "0,0"),
)

# nesting depth has no limit: the parser and the printer keep their own
# stacks, and the tape recurses nowhere
NESTING = (
    ("eval", "--h", "(" * 2000 + "z" + ")" * 2000, "--g", "0", "--op", "pre",
     "--at", "0,0"),
)

# derivatives of constant terms and integer powers of any size are exact
# jet operations, valid at the origin
POWERS = (
    ("shear", "--phi", "z^0+z", "--omega", "0.5*z"),
    ("eval", "--h", "z+z^513", "--g", "0", "--op", "jac", "--at", "0,0"),
)

# the h' and omega that `catalog NAME` prints for each harmonic map: as
# --h/--omega they give the bytes of --map NAME
CATALOG_HP_OMEGA = (
    ("K", "(1+z)/(1-z)^4", "z"),
    ("L", "1/(1-z)^3", "-z"),
    ("S1", "1/((1-z)^2*(1+z))", "z"),
    ("S2", "1/(1-z^2)^2", "z^2"),
    ("K2", "1/(1-z)^4", "z^2"),
)

# an overflow exits 4: 0.1^512 underflows, so 1/0.1^512 overflows; the
# jets of exp(700*z) are finite at 0.5, |h'|^2 is not
OVERFLOWS = (
    ("eval", "--h", "z+z^-512", "--g", "0", "--op", "jac", "--at", "0.1,0"),
    ("eval", "--h", "exp(700*z)", "--g", "0", "--op", "jac", "--at", "0.5,0"),
)

# the expression tape: an overflow inside a division names its point
# (0.1^320 is subnormal, so 1/0.1^320 overflows); a nested d(u) compiles
# its argument orders higher; a non-integer power, log and sqrt in a
# dilatation-form h', evaluated at points and on a render grid
TAPE = (
    ("eval", "--h", "z+z^-320", "--g", "0", "--op", "jac", "--at", "0.1,0"),
    ("eval", "--h", "d(d(z^3/(1-z)))", "--g", "0.1*z^2", "--op", "schw",
     f"--at={POINTS[1]}", f"--at={POINTS[2]}"),
    ("eval", "--h", "(1+z)^0.5*log(2+z)/sqrt(3-z)", "--omega", "0.5*z",
     "--op", "lap", f"--at={POINTS[1]}", f"--at={POINTS[3]}"),
    ("render", "--h", "(1+z)^0.5*log(2+z)/sqrt(3-z)", "--omega", "0.5*z",
     "--rays", "6", "--circles", "3", "--rmax", "0.95"),
)

# the h' and omega texts that map_to_json writes for two derived maps,
# partner_map(S2, 0.5, 1, 2) and group_apply(shear(z/(1-z), 0.5*z), "I",
# 0.3), as literal text: a change to the printed texts shows in the diff
DERIVED_HP_OMEGA = (
    ("1.0/(1.0-z^2.0)^2.0*2.0/sqrt(0.75/((1.0+0.5*z^2.0)*(1.0+0.5*z^2.0)))",
     "1.0*((0.5+z^2.0)/(1.0+0.5*z^2.0))"),
    ("1.0*(d(z/(1.0-z))/(1.0-1.0*(0.5*z)))"
     "+0.3*(0.5*z*(d(z/(1.0-z))/(1.0-1.0*(0.5*z))))",
     "(0.3+1.0*(0.5*z))/(1.0+0.3*(0.5*z))"),
)
DERIVED = tuple(
    argv for hp, omega in DERIVED_HP_OMEGA for argv in (
        ("eval", "--h", hp, "--omega", omega, "--op", "schw",
         f"--at={POINTS[1]}", f"--at={POINTS[2]}"),
        ("norm", "--h", hp, "--omega", omega, "--op", "S")))

# the h' of two failing parts-form maps of ERRORS, spelled d(h) as the h'
# of a dilatation-form map: the derived h' is that tree, so each error
# names the same path, under "/d"
TWINS = (
    ("eval", "--h", "d(log(z))", "--omega", "0", "--op", "pre", "--at", "0,0"),
    ("norm", "--h", "d(1/(z-0.5))", "--omega", "0", "--op", "S", "--rays", "8",
     "--radial", "8", "--rmax", "0.5"),
)


# each command registers only the flags it reads: becker has no zoom
# flags, --q belongs to --op cdo, and a value that starts with '-' joins
# its flag unless it is one of the command's own flags (--rays is not an
# eval flag, so it is the expression of --h); --no-refine is
# --refine-iterations 0
FLAGS = (
    ("becker", "--map", "K", "--rays", "16", "--radial", "8", "--no-refine"),
    ("becker", "--map", "K", "--rays", "16", "--radial", "8",
     "--refine-iterations", "5"),
    ("eval", "--map", "K", "--op", "pre", "--q", "z", "--at", "0.3,0.1"),
    ("eval", "--h", "--rays", "--g", "0", "--op", "pre", "--at", "0,0"),
    ("norm", "--map", "K", "--op", "S", "--refine-iterations", "0"),
)

# h' overflows only in its order-3 jet, and g' is finite: lap runs h'
# through order 2, then g', then h' through order 3, which fails; schw
# reads order 2 only
JET_ORDER = tuple(
    ("eval", "--h", "exp(1000*z)", "--g", "0.1*z^2", "--op", op, "--at", "0.688,0")
    for op in ("lap", "schw"))

# flags are spelled in full: a prefix of a value flag, before a value
# and before a value that starts with '-', and of a store_const flag
ABBREVIATIONS = (
    ("eval", "--map", "K", "--op", "pre", "--a", "0.3,0.1", "--form", "csv"),
    ("eval", "--map", "K", "--op", "pre", "--a", "-0.3,0.1"),
    ("norm", "--map", "K", "--op", "S", "--no"),
)


def commands():
    """The fixed command set, in output order."""
    out = [("catalog",)] + [("catalog", name) for name in CATALOG]
    for name in CATALOG:
        for op in OPS:
            out.append(("eval", "--map", name, "--op", op,
                        *[f"--at={p}" for p in POINTS]))
    out += [
        ("eval", "--map", "K", "--op", "cdo", "--at", "0.3,0.1"),
        ("eval", "--map", "K2", "--op", "cdo", "--q", "z", "--at", "0,0",
         "--at", "0.3,0.1"),
        ("eval", "--map", "L", "--op", "schw", "--at", "0,0", "--at",
         "0.5,0.5", "--format", "csv"),
        ("eval", "--h", "z", "--omega", "0.5*z", "--op", "cdo", "--q",
         "sqrt(0.5*z)", "--at", "0.2,0.1"),
        # a value that starts with '-', spelled with a space
        ("eval", "--map", "K", "--op", "pre", "--at", "-0.3,0.1"),
    ]
    for spec in EXPR_MAPS:
        for op in OPS:
            out.append(("eval", *spec, "--op", op, f"--at={POINTS[1]}",
                        f"--at={POINTS[2]}"))
    for spec in EXPR_MAPS:
        if spec[2] == "--g":
            out.append(("eval", *spec, "--op", "cdo", f"--at={POINTS[1]}",
                        f"--at={POINTS[2]}"))
    for name in CATALOG:
        for op in ("P", "S"):
            out.append(("norm", "--map", name, "--op", op))
        out.append(("becker", "--map", name))
    for name in ("K", "L", "k", "s"):
        out.append(("norm", "--map", name, "--op", "S", "--no-refine"))
    out.append(("norm", "--map", "K", "--op", "S", "--rays", "64",
                "--radial", "32", "--rmax", "0.9"))
    out.append(("norm", "--map", "S2", "--op", "P", "--refine-iterations", "5"))
    # the grid sweeps run in blocks of 4096 points: a grid of 128 full
    # blocks and one point, and a grid smaller than one block
    for size in (("1024", "512"), ("8", "8")):
        grid = ("--rays", size[0], "--radial", size[1])
        for op in ("S", "P"):
            out.append(("norm", "--map", "K", "--op", op, *grid))
        out.append(("becker", "--map", "K", *grid))
    for spec in EXPR_MAPS:
        out.append(("norm", *spec, "--op", "S", "--rays", "64", "--radial", "32"))
        out.append(("becker", *spec, "--rays", "64", "--radial", "32"))
    for phi, omega, theta in SHEARS:
        out.append(("shear", "--phi", phi, "--omega", omega, "--theta", theta))
    out.append(("shear", "--phi", "z/(1-z)^2", "--omega", "z"))
    out.append(("shear", "--phi", "z", "--omega", "0.5*z", "--theta", "-1e-3"))
    for name in ("K", "L", "k", "S2"):
        out.append(("render", "--map", name, "--rays", "8", "--circles", "4"))
    for spec in EXPR_MAPS:
        out.append(("render", *spec, "--rays", "6", "--circles", "3",
                    "--rmax", "0.95"))
    for suite in ("oracles", "invariance", "norms", "becker", "all"):
        out.append(("verify", suite))
    out += list(ERRORS) + list(CHAINS) + list(NESTING) + list(POWERS)
    for _, hp, omega in CATALOG_HP_OMEGA:
        out.append(("norm", "--h", hp, "--omega", omega, "--op", "S"))
        out.append(("becker", "--h", hp, "--omega", omega))
    return [list(argv) for argv in
            out + list(OVERFLOWS) + list(TAPE) + list(DERIVED) + list(TWINS)
            + list(FLAGS) + list(JET_ORDER) + list(ABBREVIATIONS)]


def run(argv, main):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


def cli_main():
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(here, os.pardir, "src"),
                        help="directory holding the harmschwarz package")
    args = parser.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from harmschwarz.cli import main
    for argv in commands():
        print(json.dumps(run(argv, main)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(cli_main())
