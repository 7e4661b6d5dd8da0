"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts one worker per workload run, so that process-wide
figures (peak RSS, what is already imported) belong to that workload
alone.  The worker is a closed loop with one client: each command is a
call of ``harmschwarz.cli.main(argv)`` in this process, with stdout and
stderr captured, and the next command starts only when it returns.

Without ``--trace`` the command list is repeated until ``--seconds`` have
passed (at least MIN_REPS times) and latencies are per-command medians
over the repetitions.  With ``--trace`` the list runs once as an untimed
warm-up, then untraced and traced in turn, twice each; outputs must match
byte for byte across all five passes and counts across the two traced
ones.  Both modes time a fixed pure-Python loop before and after their
passes and report it in the notes, so that a change in the machine's
speed during a run shows in the result.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, replace
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from harmschwarz import cli  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

MIN_REPS = 3
TRACE_DIR = os.path.join(ROOT, ".bench_out")
CALIBRATION_LOOPS = 5
CALIBRATION_N = 200_000


def calibration_ms():
    """Median time of a fixed pure-Python loop that does not touch the
    package: a gauge of the machine's speed at this moment."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_N):
            acc += i * i % 7
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


@dataclass
class Outcome:
    seconds: float
    exit_code: object
    stdout: str
    stderr: str
    extra: object
    error: Optional[str] = None


def run_command(cmd, tracer=None):
    out, err = io.StringIO(), io.StringIO()
    extra = error = exit_code = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if tracer is None:
                exit_code = cli.main(cmd.argv)
                if cmd.extra is not None:
                    extra = cmd.extra()
            else:
                exit_code = tracer.call("bench.command", cli.main, cmd.argv)
                if cmd.extra is not None:
                    extra = tracer.call("bench.command", cmd.extra)
        except Exception:  # a raising command is a failed command, not a crash
            error = traceback.format_exc(limit=-3)
    return Outcome(time.perf_counter() - start, exit_code, out.getvalue(),
                   err.getvalue(), extra, error)


def run_pass(commands, tracer=None):
    start = time.perf_counter()
    outcomes = []
    for i, cmd in enumerate(commands):
        if tracer is not None:
            tracer.request = i
        outcomes.append(run_command(cmd, tracer))
    return time.perf_counter() - start, outcomes


def failure(cmd, outcome):
    """One-line reason the outcome is wrong, or None."""
    if outcome.error is not None:
        return "raised " + outcome.error.strip().splitlines()[-1]
    if outcome.exit_code != 0:
        return f"exit code {outcome.exit_code}: {outcome.stderr.strip()}"
    try:
        return cmd.check(outcome.stdout, outcome.extra)
    except Exception as exc:  # malformed output
        return f"check raised {exc!r}"


def self_test(commands, outcomes):
    """Perturb one passing outcome of each command kind and see it counted
    as failed; return the perturbations that were not."""
    missed, seen = [], set()
    for cmd, out in zip(commands, outcomes):
        if cmd.kind in seen or failure(cmd, out) is not None:
            continue
        seen.add(cmd.kind)
        trials = [("stdout", replace(out, stdout=cmd.perturb(out.stdout)))]
        if cmd.perturb_extra is not None:
            trials.append(("library result",
                           replace(out, extra=cmd.perturb_extra(out.extra))))
        missed += [f"{cmd.kind} (perturbed {what})" for what, bad in trials
                   if failure(cmd, bad) is None]
    return missed


def tally(commands, passes):
    """(attempted, failed, names of unexpected failures) over all passes."""
    attempted = failed = 0
    unexpected, reported = [], set()
    for outcomes in passes:
        for cmd, out in zip(commands, outcomes):
            attempted += 1
            reason = failure(cmd, out)
            if reason is None:
                continue
            failed += 1
            known = cmd.known_failure is not None and cmd.known_failure in reason
            if cmd.name not in reported:
                reported.add(cmd.name)
                tag = "known failure" if known else "FAILED"
                print(f"{tag}: {cmd.name}: {reason}", file=sys.stderr)
            if not known and cmd.name not in unexpected:
                unexpected.append(cmd.name)
    return attempted, failed, unexpected


def tail_percentile(n):
    """Highest whole percentile with at least ten of ``n`` samples above it."""
    if n < 20:
        raise ValueError(f"{n} commands are too few for a tail latency")
    return math.floor(100 * (1 - 10 / n))


def timed_run(commands, seconds):
    calibration = [calibration_ms()]
    deadline = time.perf_counter() + seconds
    walls, passes = [], []
    while True:
        wall, outcomes = run_pass(commands)
        walls.append(wall)
        passes.append(outcomes)
        if len(walls) >= MIN_REPS and time.perf_counter() + wall > deadline:
            break
    calibration.append(calibration_ms())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, unexpected = tally(commands, passes)
    missed = self_test(commands, passes[0])
    latencies = sorted(statistics.median(p[i].seconds for p in passes) * 1e3
                       for i in range(len(commands)))
    pct = tail_percentile(len(latencies))
    tail = statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (statistics.median(latencies), "ms"),
        "op_tail_ms": (tail, "ms"),
        "pass_frac": (1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {"reps": len(walls), "commands": len(commands),
             "tail_percentile": pct,
             "tail_beyond": sum(1 for x in latencies if x > tail),
             "calibration_ms": calibration,
             "selftest_missed": missed, "unexpected_failures": unexpected}
    return attempted, failed, not unexpected and not missed, metrics, notes


def _same_outputs(a, b):
    return all((x.exit_code, x.stdout, x.stderr) == (y.exit_code, y.stdout, y.stderr)
               for x, y in zip(a, b))


def traced_run(commands, workload, seed):
    calibration = [calibration_ms()]
    _, warm = run_pass(commands)
    untraced_walls, untraced, traced = [], [warm], []
    for _ in range(2):
        wall, outcomes = run_pass(commands)
        untraced_walls.append(wall)
        untraced.append(outcomes)
        tracer = tracing.Tracer()
        with tracer.installed():
            wall, outcomes = run_pass(commands, tracer)
        traced.append((tracer, wall, outcomes))
    calibration.append(calibration_ms())

    (t1, wall1, out1), (t2, wall2, out2) = traced
    problems = []
    if not all(_same_outputs(warm, o) for o in untraced[1:] + [out1, out2]):
        problems.append("outputs differ between the traced and untraced passes")
    if t1.counts != t2.counts or t1.fired != t2.fired:
        problems.append("per-layer counts differ between two traced passes")
    # Coverage describes the tracer's fit to the program's structure, not
    # the program's outputs, so it is reported without marking the run
    # incorrect.
    coverage = tracing.coverage_errors(t1, workload)
    for p in problems + coverage + [f"{b} is absent" for b in t1.absent]:
        print(f"TRACE: {p}", file=sys.stderr)

    attempted, failed, unexpected = tally(commands, untraced + [out1, out2])
    missed = self_test(commands, warm)
    overhead_ms = (statistics.median([wall1, wall2])
                   - statistics.median(untraced_walls)) * 1e3
    output_bytes = sum(len(o.stdout.encode()) for o in out1)
    values = tracing.layer_values(t1, output_bytes, overhead_ms)
    metrics = {name: (values[name], unit) for name, unit in tracing.LAYER_METRICS}

    os.makedirs(TRACE_DIR, exist_ok=True)
    spans_path = os.path.join(TRACE_DIR, f"spans-{workload}-seed{seed}.csv")
    t1.write_spans(spans_path)
    notes = {"untraced_wall_s": untraced_walls, "traced_wall_s": [wall1, wall2],
             "calibration_ms": calibration,
             "spans_file": os.path.relpath(spans_path, ROOT),
             "trace_problems": problems, "coverage_problems": coverage,
             "absent_bindings": t1.absent, "selftest_missed": missed,
             "unexpected_failures": unexpected}
    ok = not (problems or unexpected or missed)
    return attempted, failed, ok, metrics, notes


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=tuple(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    commands = workloads.BUILDERS[args.workload](args.seed)
    if args.trace:
        result = traced_run(commands, args.workload, args.seed)
    else:
        result = timed_run(commands, args.seconds)
    attempted, failed, correct, metrics, notes = result
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }))


if __name__ == "__main__":
    main()
