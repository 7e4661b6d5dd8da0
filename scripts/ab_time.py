"""Command-by-command A/B timing of two source trees on one benchmark workload.

    python3 scripts/ab_time.py OLD_SRC NEW_SRC --workload pointwise-eval
    python3 scripts/ab_time.py OLD_SRC NEW_SRC --workload norm-sweep --rounds 9

``OLD_SRC`` and ``NEW_SRC`` each name a directory that holds a
``harmschwarz`` package (the ``src`` of a checkout).  Both packages are
copied into one temporary directory as ``harmschwarz_old`` and
``harmschwarz_new`` and imported side by side.  The command list of the
workload comes from ``bench/workloads.py``, imported as it is (its
references are computed with the old copy).  Each round runs every
command on both copies, one right after the other, and flips which copy
goes first from one round to the next, so a drift in the machine's speed
hits both about equally.  A command's time covers ``cli.main(argv)`` and,
where the workload has one, its library follow-up (the S_f oracles of
``pointwise-eval``), run against the same copy.

The script prints each round's total time per copy and their ratio, the
median ratio, and whether stdout, stderr and exit codes agree between the
copies on every command of every round.  It compares the results of the
library follow-up too (a moved oracle value changes no output): where
they differ it prints the largest |new - old| and the commands.  For each copy it also prints
the latency figures of ``bench/worker.py``: ``op_p50_ms``, the median of
the per-command median times, and ``op_tail_ms``, the same tail
percentile of them.  It is a tool for finding where time goes between
two versions; a claimed gain is measured with ``bench/run.py``, which
times whole runs in fresh processes.
"""

import argparse
import contextlib
import importlib
import io
import math
import os
import shutil
import statistics
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("old", "new")


def load_copies(srcs, tmp):
    """Import each tree's package under its own name; {side: package}."""
    for side, src in zip(SIDES, srcs):
        pkg_dir = os.path.join(src, "harmschwarz")
        if not os.path.isfile(os.path.join(pkg_dir, "__init__.py")):
            raise SystemExit(f"no harmschwarz package in {src}")
        shutil.copytree(pkg_dir, os.path.join(tmp, f"harmschwarz_{side}"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, tmp)
    pkgs = {}
    for side in SIDES:
        pkgs[side] = importlib.import_module(f"harmschwarz_{side}")
        importlib.import_module(f"harmschwarz_{side}.cli")
    return pkgs


def run_one(pkg, workloads, cmd):
    """Time one command on one copy: (seconds, (exit, stdout, stderr),
    the follow-up's result)."""
    # the follow-up looks maps and operators up on the workloads module
    workloads.maps, workloads.operators = pkg.maps, pkg.operators
    out, err = io.StringIO(), io.StringIO()
    extra = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = pkg.cli.main(list(cmd.argv))
        if cmd.extra is not None:
            extra = cmd.extra()
        elapsed = time.perf_counter() - start
    return elapsed, (code, out.getvalue(), err.getvalue()), extra


def extra_distance(old, new):
    """The largest |new - old| between two follow-up results (nested
    sequences of numbers); inf where their shapes differ."""
    old, new = np.asarray(old, dtype=complex), np.asarray(new, dtype=complex)
    if old.shape != new.shape:
        return math.inf
    return float(np.max(np.abs(new - old), initial=0.0))


def latency_ms(times):
    """(op_p50_ms, op_tail_ms, tail percentile) of per-command time lists,
    as ``bench/worker.py`` computes them from its repetitions (importing
    it would load the package a third time)."""
    latencies = sorted(statistics.median(t) * 1e3 for t in times)
    # worker.tail_percentile: the highest whole percentile with at least
    # ten commands above it
    pct = math.floor(100 * (1 - 10 / len(latencies)))
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    return statistics.median(latencies), tail, pct


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory() as tmp:
        pkgs = load_copies((args.old_src, args.new_src), tmp)
        # bench/workloads.py imports ``harmschwarz``: give it the old copy
        sys.modules["harmschwarz"] = pkgs["old"]
        sys.path.insert(0, os.path.join(ROOT, "bench"))
        workloads = importlib.import_module("workloads")
        if args.workload not in workloads.BUILDERS:
            p.error(f"unknown workload {args.workload!r}; "
                    f"known: {', '.join(workloads.BUILDERS)}")
        commands = workloads.BUILDERS[args.workload](args.seed)

        for cmd in commands:  # untimed warm-up: imports, caches
            for side in SIDES:
                run_one(pkgs[side], workloads, cmd)

        ratios, differing, moved = [], set(), {}
        times = {side: [[] for _ in commands] for side in SIDES}
        for rnd in range(args.rounds):
            order = SIDES if rnd % 2 == 0 else SIDES[::-1]
            totals = dict.fromkeys(SIDES, 0.0)
            for i, cmd in enumerate(commands):
                results, extras = {}, {}
                for side in order:
                    elapsed, results[side], extras[side] = run_one(
                        pkgs[side], workloads, cmd)
                    totals[side] += elapsed
                    times[side][i].append(elapsed)
                if results["old"] != results["new"]:
                    differing.add(cmd.name)
                if cmd.extra is not None:
                    dist = extra_distance(extras["old"], extras["new"])
                    if dist > 0:
                        moved[cmd.name] = max(moved.get(cmd.name, 0.0), dist)
            ratio = totals["new"] / totals["old"]
            ratios.append(ratio)
            print(f"round {rnd + 1} ({order[0]} first): "
                  f"old {totals['old'] * 1e3:.1f} ms, "
                  f"new {totals['new'] * 1e3:.1f} ms, new/old {ratio:.3f}")

    print(f"{args.workload} seed {args.seed}: {len(commands)} commands, "
          f"{args.rounds} rounds, median new/old {statistics.median(ratios):.3f}")
    for side in SIDES:
        p50, tail, pct = latency_ms(times[side])
        print(f"{side}: op_p50_ms {p50:.3f}, op_tail_ms {tail:.3f} (p{pct})")
    status = 0
    if differing:
        print(f"outputs differ (stdout, stderr or exit) on {len(differing)} "
              f"commands: {', '.join(sorted(differing))}")
        status = 1
    else:
        print("stdout, stderr and exit codes agree on every command")
    if moved:
        print(f"library follow-up differs on {len(moved)} commands, largest "
              f"|new - old| {max(moved.values()):.3e}: {', '.join(sorted(moved))}")
        status = 1
    elif any(cmd.extra is not None for cmd in commands):
        print("library follow-up results agree on every command")
    return status


if __name__ == "__main__":
    sys.exit(main())
