"""tablezeta benchmark: oracle, Euler-product, genus and rank-4 routes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding ``src/``);
nothing is installed.  Each workload runs in a fresh interpreter
(``worker.py``), so its set-up time and peak memory are its own.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``slowest_op_s``, ``peak_rss_mb``); with ``--trace 1`` the per-layer
ones.  ``setup_s`` is the median of sixteen timed fresh interpreters
that import tablezeta, build the workload's inputs and exit, eight before
and eight after the measured worker, following one untimed warm-up that
fills the bytecode cache.  All times are in reference seconds: CPU
seconds scaled by a calibration loop timed meanwhile on the same core
(``speed.py``), so that the machine's changes of speed cancel.  The
exit code is 0 when a result was printed, and 2 without one.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_RUNS = 8  # before and again after the measured worker
SETUP_TIMEOUT_S = 20
WORKER_SLACK_S = 120  # one pass may run past --seconds; the run must still end within 180 s


class BenchError(Exception):
    pass


def _worker(args, timeout):
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    return proc


def setup_times(workload, seed):
    """CPU seconds of a fresh interpreter from its start to its exit after
    set-up, in reference seconds (``speed.py``)."""
    args = ["--workload", workload, "--seed", str(seed), "--setup-only"]
    runs = []
    with speed.Speedometer() as meter:
        for _ in range(SETUP_RUNS):
            t0, c0 = time.perf_counter(), _children_cpu()
            _worker(args, SETUP_TIMEOUT_S)
            runs.append((t0, time.perf_counter(), _children_cpu() - c0))
    return [meter.reference(*run) for run in runs]


def _children_cpu():
    "User and system CPU seconds of the children that have ended."
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tablezeta" / "cli.py").is_file():
        print(f"no tablezeta sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        setup = []
        if not args.trace:
            _worker(["--workload", args.workload, "--seed", str(args.seed), "--setup-only"], SETUP_TIMEOUT_S)
            setup += setup_times(args.workload, args.seed)
        proc = _worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            args.seconds + WORKER_SLACK_S,
        )
        if not args.trace:
            setup += setup_times(args.workload, args.seed)
        *report, last = proc.stdout.splitlines()
        result = json.loads(last)
    except (BenchError, RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, ValueError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    sys.stderr.write(proc.stderr)
    for line in report:
        print(line)
    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    out = {
        "correct": result["ok"] and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
