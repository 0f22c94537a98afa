"""Machine-speed calibration for the benchmark's time metrics.

The virtual machines this benchmark runs on change speed by up to 2x
within seconds (other guests share the host), each of their cores on
its own, and CPU time follows wall time; so raw times of two runs of
the same code differ by more than the bounds allow.  While the
benchmark times anything, it and a small side process (this file run as
a script) are held on one core of the process's allowed set.  The side
process times a fixed pure-Python loop, written here and sharing no code
with tablezeta, about fifteen times a second and sleeps in between.  A
timed interval's CPU seconds are then scaled by

    REFERENCE_S * (mean of 1 / CPU seconds of the loop samples taken during it)

that is, by the core's mean speed meanwhile; a mean of speeds, not a
median of times, because the core often flips between two speeds and
the interval's work is its CPU time times the mean speed.  So a time
metric reads as the seconds the work would take on a core where the
loop takes ``REFERENCE_S``.  CPU seconds, not wall seconds,
because the two processes share the core: the loop's wall time counts
the benchmark's turns and the other way round.  A change to tablezeta
moves a time metric as it moves the CPU time; a change in the core's
speed moves the loop too and cancels.  The side process takes about a
sixth of the core and stops when its standard input closes.
"""

import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

# About the loop's CPU seconds on the reference machine (a 2-core
# virtual machine, Python 3.11.7), where they ranged from 0.006 to
# 0.012 s as the machine changed speed.
REFERENCE_S = 0.01
ITERATIONS = 24_000
PAUSE_S = 0.04
MIN_HALF_WINDOW_S = 0.15  # an interval shorter than twice this borrows samples around it

_ROWS = [(i, i + 1, i + 2) for i in range(64)]


def _loop(n):
    "Integer arithmetic, tuple indexing, dict updates and calls, as in tablezeta's kernels."
    acc = 0
    seen = {}
    rows = _ROWS
    get = seen.get
    for i in range(n):
        t = (i * 7919) % 10007
        k = t & 1023
        seen[k] = get(k, 0) + i
        r = rows[i & 63]
        acc += (r[0] * t - r[2]) % 97
    return acc


def _sample(core):
    "The side process: time the loop until standard input closes, then print the samples."
    os.sched_setaffinity(0, {core})
    samples = []
    print("ready", flush=True)
    while True:
        t0, c0 = time.perf_counter(), time.process_time()
        _loop(ITERATIONS)
        samples.append((t0, time.perf_counter(), time.process_time() - c0))
        if select.select([sys.stdin], [], [], PAUSE_S)[0]:
            break  # end of input: the parent is done
    for sample in samples:
        print(*map(repr, sample))


class Speedometer:
    """For the length of a ``with`` block, holds the calling process (and
    the children it starts) on one core and runs the side process there;
    after the block, ``reference(t0, t1, cpu_s)`` gives CPU seconds spent
    between the ``time.perf_counter()`` values t0 and t1 in reference
    seconds.  perf_counter reads the system-wide monotonic clock, so its
    values agree between processes."""

    def __enter__(self):
        self.allowed = os.sched_getaffinity(0)
        core = min(self.allowed)
        os.sched_setaffinity(0, {core})
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), str(core)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self.proc.stdout.readline().strip() != "ready":
            self.__exit__()
            raise RuntimeError("the speed sampler did not start")
        return self

    def __exit__(self, *exc):
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        finally:
            os.sched_setaffinity(0, self.allowed)
        self.samples = [tuple(map(float, line.split())) for line in out.splitlines()]
        return False

    def reference(self, t0, t1, cpu_s):
        "CPU seconds spent from t0 to t1, scaled to reference speed by the samples taken meanwhile."
        mid, half = (t0 + t1) / 2, max((t1 - t0) / 2, MIN_HALF_WINDOW_S)
        inside = [c for a, b, c in self.samples if abs((a + b) / 2 - mid) <= half]
        if not inside:
            raise RuntimeError(f"no speed samples between {t0:.3f} and {t1:.3f}")
        return cpu_s * REFERENCE_S * statistics.fmean(1 / c for c in inside)


if __name__ == "__main__":
    _sample(int(sys.argv[1]))
