"""harmschwarz benchmark: seeded CLI workloads with checked outputs.

Usage (from the repository root):

    python3 bench/run.py --workload norm-sweep --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1     # every workload in turn

Each workload run happens in its own worker process (``worker.py``), a
closed loop with one client that calls ``harmschwarz.cli.main(argv)`` in
process.  With ``--trace 0`` the run reports the end-to-end metrics,
among them ``setup_s``: the median over fresh interpreters of importing
``harmschwarz.cli`` and finishing ``catalog``.  With ``--trace 1`` it
reports the per-layer metrics of DESIGN.md instead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people.  The package is imported from ``src/`` of the
checkout that holds this directory; without it the run fails at once.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The names of workloads.BUILDERS; this process does not import the
# package, so it cannot import that module.
WORKLOADS = ("norm-sweep", "render-dilatation", "pointwise-eval")

SETUP_RUNS = 5
SETUP_SCRIPT = ("import sys; sys.path.insert(0, 'src'); "
                "from harmschwarz import cli; sys.exit(cli.main(['catalog']))")
# A worker builds its references, then runs passes until --seconds are
# over (at least three).  Its time limit is twice --seconds plus a margin
# for the references and a slow last pass: at --seconds 25 a stuck worker
# is stopped after 160 s, and the run still ends within 180 s.
WORKER_TIMEOUT_MARGIN = 110

# One thread per process: BLAS pools would add threads the workload does
# not ask for.
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def _lists_names(stdout):
    try:
        return isinstance(json.loads(stdout)["names"], list)
    except (ValueError, TypeError, KeyError):
        return False


def measure_setup():
    """Median wall time of a fresh ``catalog`` command, and whether every
    such command exited with 0 and printed a JSON list of names.  One
    untimed run first writes the bytecode caches an installed package
    would have."""
    times, ok = [], True
    for i in range(SETUP_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], cwd=ROOT,
                              env=CHILD_ENV, capture_output=True, text=True,
                              timeout=20)
        elapsed = time.perf_counter() - start
        ok = ok and proc.returncode == 0 and _lists_names(proc.stdout)
        if i:
            times.append(elapsed)
    return statistics.median(times), ok


def run_worker(workload, seed, seconds, trace):
    """The worker's result, or None if it ran past its time limit."""
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
             "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=2 * seconds + WORKER_TIMEOUT_MARGIN)
    except subprocess.TimeoutExpired as exc:
        sys.stderr.write(exc.stderr.decode(errors="replace") if exc.stderr else "")
        return None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace):
    result = run_worker(workload, seed, seconds, trace)
    if result is None:
        # A workload that became too slow to finish is a failed run with
        # a result, not a crash: the slowdown is what a reader must see.
        print(f"{workload}: TIMEOUT, the worker ran past "
              f"{2 * seconds + WORKER_TIMEOUT_MARGIN:g} s and was stopped")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    if not trace:
        setup_s, setup_ok = measure_setup()
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"},
                             **result["metrics"]}
        result["correct"] = result["correct"] and setup_ok
        if not setup_ok:
            print(f"{workload}: the setup command did not print the catalog",
                  file=sys.stderr)
    notes = result.pop("notes")
    for name, m in result["metrics"].items():
        line = f"{workload:18s} {name:52s} {m['value']:>14.6g} {m['unit']}"
        if name == "op_tail_ms":
            line += (f"  (p{notes['tail_percentile']} of {notes['commands']} "
                     f"per-command medians, {notes['tail_beyond']} above it)")
        print(line)
    print(f"{workload:18s} notes {json.dumps(notes)}")
    return result


def main():
    p = argparse.ArgumentParser(description="harmschwarz benchmark")
    p.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "harmschwarz", "cli.py")):
        print(f"bench: no harmschwarz sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in chosen}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
