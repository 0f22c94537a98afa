"""Writes goldens.json: the expected outputs the workload checks compare to.

    python3 perfbench/goldens.py

Run it from a checkout of the commit whose outputs are the reference;
it records that commit.  The oracle values (a_1..a_64 by brute force)
come from ``count_ideals``, the rest from the same CLI commands the
workloads run.  Takes about a minute.
"""

import contextlib
import hashlib
import io
import json
import sys

import worker
import workloads


def stdout_of(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(argv)} exited with {rc}")
    return out.getvalue()


def main():
    from tablezeta import cli, count_ideals

    goldens = {"recorded_at": worker.revision()}
    for name in ("verify-fusion64", "euler-deep", "rank4-count"):
        for op in workloads.build(name, 0, worker.ROOT):
            out = stdout_of(cli, op.argv)
            if op.label.startswith("zeta:"):
                t = workloads.family_spec(op.argv[1:-2]).resolve()
                goldens[op.label] = {
                    "oracle64": list(count_ideals(t.lam, 64).counts),
                    "sha256": hashlib.sha256(out.encode()).hexdigest(),
                }
            elif op.label.startswith("rank4:"):
                goldens[op.label] = workloads.parse_series(out)
            else:
                goldens[op.label] = out
            print(op.label, file=sys.stderr)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
