"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload in BENCHMARK.json, two short traced runs with the same
seed must pass every check and give identical work counters.  One
untraced run must print exactly the end-to-end metrics BENCHMARK.json
lists, and the traced runs exactly its per-layer metrics.  Finally the
benchmark must exit non-zero, printing no result, in a directory that
holds only BENCHMARK.json and perfbench/.  Takes about three minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "1"]


def run(cwd, *args):
    proc = subprocess.run(
        [sys.executable, *RUN, *args], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=180
    )
    return proc


def result(*args):
    proc = run(ROOT, *args)
    if proc.returncode != 0:
        raise SystemExit(f"run {' '.join(args)} exited with {proc.returncode}:\n{proc.stderr}")
    out = json.loads(proc.stdout.splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(f"run {' '.join(args)} failed its checks:\n{proc.stderr}")
    return out


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}

    for name in names:
        first, second = (result("--workload", name, "--trace", "1")["metrics"] for _ in range(2))
        if set(first) != per_layer:
            raise SystemExit(f"{name}: per-layer metrics differ from BENCHMARK.json: {set(first) ^ per_layer}")
        counts = {k for k, v in first.items() if v["unit"] == "count"}
        differ = sorted(k for k in counts if first[k]["value"] != second[k]["value"])
        if differ:
            raise SystemExit(f"{name}: work counters differ between two runs: {differ}")
        print(f"{name}: checks pass, {len(counts)} work counters repeat exactly")

    plain = result("--workload", names[0], "--trace", "0")["metrics"]
    if set(plain) != end_to_end:
        raise SystemExit(f"end-to-end metrics differ from BENCHMARK.json: {set(plain) ^ end_to_end}")
    print(f"{names[0]}: end-to-end metrics match BENCHMARK.json")

    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = run(bare, "--workload", names[0], "--trace", "0")
    finally:
        shutil.rmtree(bare)
    lines = proc.stdout.splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        raise SystemExit("without src/ the benchmark must exit non-zero and print no result")
    print("without src/: exits", proc.returncode, "and prints no result")


if __name__ == "__main__":
    main()
