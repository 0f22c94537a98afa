"""Runs one workload in a fresh interpreter and prints its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

One client runs the operations in sequence (a closed loop), each as one
call of ``tablezeta.cli.main(argv)`` with the CLI default ``--threads 1``.
Passes repeat until the next one would end after ``--seconds``; there is
always at least one.  Untraced passes give the end-to-end figures.  With
``--trace 1`` untraced and traced passes alternate, and the traced ones
give the per-layer figures; the spans are written to
``.perfbench/trace-<workload>-seed<N>.json``.  The end-to-end times and
the pass times behind ``trace.overhead_ratio`` are in reference seconds
(``speed.py``, sampled while the passes run; the worker is held on one
core meanwhile); span times are wall seconds.

Set-up is importing tablezeta and building the workload's inputs; with
``--setup-only`` the worker stops there, so that ``run.py`` can time it
from a fresh interpreter.
"""

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
import spans  # noqa: E402
import counters  # noqa: E402
import speed  # noqa: E402


def run_pass(cli, ops, goldens, tracer=None):
    """One pass; returns, for each operation, its start and end on the
    monotonic clock and the CPU seconds it took, and the failure reasons."""
    intervals, failures = [], []
    for i, op in enumerate(ops):
        out = io.StringIO()
        reason = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                t0, c0 = time.perf_counter(), time.process_time()
                if tracer is None:
                    rc = cli.main(op.argv)
                else:
                    tracer.op = i
                    rc = tracer.call(spans.ROOT, cli.main, (op.argv,), {})
                t1, c1 = time.perf_counter(), time.process_time()
            except SystemExit as e:  # argparse rejects its input this way
                t1, c1 = time.perf_counter(), time.process_time()
                rc, reason = e.code, f"exited with {e.code!r}"
            except Exception as e:
                t1, c1 = time.perf_counter(), time.process_time()
                rc, reason = None, f"raised {type(e).__name__}: {e}"
        intervals.append((t0, t1, c1 - c0))
        if reason is None and rc != 0:
            reason = f"exit code {rc}"
        if reason is None:
            reason = op.check(out.getvalue(), goldens)
        if reason is not None:
            failures.append(f"{op.label}: {reason}")
    return intervals, failures


def revision():
    "Git commit of the checkout when it is a git work tree, and a digest of src/."
    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        rev = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"git": rev, "src_sha256": digest.hexdigest()}


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    from tablezeta import cli

    ops = workloads.build(args.workload, args.seed, ROOT)
    if args.setup_only:
        return 0
    goldens = workloads.load_goldens()

    modes = ("plain", "traced") if args.trace else ("plain",)
    intervals = {"plain": [], "traced": []}  # per pass, (start, end, CPU s) of each operation
    traced_spans, failures, problems = [], [], []
    attempted = 0
    missing = []
    done = 0
    start = time.perf_counter()
    with speed.Speedometer() as meter:
        while True:
            mode = modes[done % len(modes)]
            if mode == "traced":
                tracer = spans.Tracer()
                with spans.installed(tracer) as missing:
                    passed, fails = run_pass(cli, ops, goldens, tracer)
                traced_spans.append(tracer.spans)
            else:
                passed, fails = run_pass(cli, ops, goldens)
            intervals[mode].append(passed)
            attempted += len(passed)
            failures.extend(fails)
            done += 1
            last = intervals[modes[done % len(modes)]][-1] if done >= len(modes) else None
            if last and time.perf_counter() - start + last[-1][1] - last[0][0] > args.seconds:
                break
    op_walls = {m: [[t1 - t0 for t0, t1, _ in p] for p in ps] for m, ps in intervals.items()}
    op_refs = {m: [[meter.reference(*op) for op in p] for p in ps] for m, ps in intervals.items()}
    walls = {m: [sum(p) for p in ps] for m, ps in op_walls.items()}
    refs = {m: [sum(p) for p in ps] for m, ps in op_refs.items()}

    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    info = {"workload": args.workload, "seed": args.seed, "ops": len(ops), "revision": revision()}
    for line in [f"{k}\t{v}" for k, v in info.items()] + [f"pass wall_s\t{walls}", f"pass reference_s\t{refs}"]:
        print(line)
    if args.trace:
        metrics, layers, mismatch = counters.per_layer(traced_spans, refs)
        if mismatch:
            problems.append(f"work counters differ between traced passes: {mismatch}")
        trace_dir = ROOT / ".perfbench"
        trace_dir.mkdir(exist_ok=True)
        doc = dict(info, missing_wrap_points=missing, layers=layers, passes=traced_spans)
        path = trace_dir / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        print(f"spans\t{path.relative_to(ROOT)}")
        for line in counters.layer_table(layers):
            print(line)
        if missing:
            print(f"missing wrap points\t{', '.join(missing)}", file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(refs["plain"]), "unit": "s"},
            "slowest_op_s": {"value": max(statistics.median(ts) for ts in zip(*op_refs["plain"])), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
    for reason in failures + problems:
        print(f"FAILED\t{reason}", file=sys.stderr)
    result = {"ok": not problems, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
