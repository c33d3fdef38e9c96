"""Machine-speed calibration for the end-to-end times.

The benchmark shares a small VM with other tenants, and the host's load moves
the speed of the same code by up to 2x, in spells that last from a fraction
of a second to minutes. A fixed pure-Python loop shows it as plainly as the
workloads do, so neither longer runs nor another estimator remove it.

The cure is to time a fixed kernel around and during each call and scale the
call by how fast the kernel ran: a stretch of ``t`` host seconds between two
kernel runs that took ``k`` on average is reported as ``t * REFERENCE_S / k``,
the seconds it would take on a machine where the kernel takes
``REFERENCE_S``. The kernel never calls the package, so a change to the
package moves the scaled times and not the kernel. Its mix (dict/tuple churn,
``json.loads`` of floats, a float recurrence) follows the package's hot
paths: the cache simulator, the JSONL trace and the trainer. It uses the
standard library only: importing numpy alone adds 15 MB, which would count in
``peak_rss_mb`` on workloads whose stages never import it.
"""

from __future__ import annotations

import json
import math
import random
import signal
import threading
import time

# Kernel seconds (``sample()``) on the machine the baseline in README.md was
# measured on, in its fast regime; only a scale, so scaled times read close
# to host seconds there.
REFERENCE_S = 0.004

_DOC = json.dumps([[random.Random(i).random() for _ in range(64)] for i in range(40)])
_FLOATS = [random.Random(0).random() for _ in range(2000)]


def kernel() -> int:
    """The fixed work whose time measures the machine's speed."""
    counts: dict[int, int] = {}
    for i in range(20_000):
        key = (i * 7919) % 1024
        counts[key] = counts.get(key, 0) + 1
    ranked = sorted(counts.items(), key=lambda kv: -kv[1])
    for _ in range(3):
        json.loads(_DOC)
    x = 0.5
    for v in _FLOATS:
        x = math.tanh(x * v + 0.1)
    return len(ranked) + int(x)


def sample(reps: int = 3) -> float:
    """Seconds of one kernel run: the fastest of ``reps``, so one preemption does not count."""
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - start)
    return best


def scale(seconds: float, kernel_s: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, at reference speed."""
    return seconds * REFERENCE_S / kernel_s


class Clock:
    """Times calls in host seconds and in seconds at reference speed.

    The kernel runs before the first call, after every call and, with
    ``interval``, every ``interval`` seconds during a call, from a SIGALRM
    handler in the main thread: calls of several seconds span many changes of
    speed, which two samples at their ends would miss. Kernel runs inside a
    call do not count in its host time. They are skipped while other Python
    threads exist, because the kernel would then time the contention for the
    interpreter lock, not the machine.
    """

    def __init__(self, interval: float | None):
        self.interval = interval
        self.kernel_s = sample()
        self.host_s = self.scaled_s = 0.0
        self.samples = 0  # kernel runs inside calls, over all calls

    def call(self, fn, *args):
        """``fn(*args)``; its times land in ``host_s`` and ``scaled_s``, also when it raises."""
        marks: list[tuple[float, float, float]] = []  # (start, end, kernel_s) inside the call

        def on_alarm(signum, frame):
            if threading.active_count() == 1:
                start = time.perf_counter()
                kernel_s = sample()
                marks.append((start, time.perf_counter(), kernel_s))

        if self.interval:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            if self.interval:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            if self.interval:
                signal.signal(signal.SIGALRM, previous)
            marks = [m for m in marks if m[1] <= end]
            kernel_after = sample()
            points = [(start, start, self.kernel_s), *marks, (end, end, kernel_after)]
            self.host_s = (end - start) - sum(m[1] - m[0] for m in marks)
            self.scaled_s = sum(scale(b[0] - a[1], (a[2] + b[2]) / 2)
                                for a, b in zip(points, points[1:]))
            self.kernel_s = kernel_after
            self.samples += len(marks)
