"""Time a child process in CPU seconds at a fixed reference speed.

On a shared host one logical CPU runs at very different speeds from one
second to the next: while the core's other hardware thread is busy with
someone else's work, pure-Python code here runs up to twice as slowly, in
spells of a fraction of a second to several minutes.  CPU time does not see
this, because the slowdown is in the core, not in the scheduler.

So the benchmark pins itself and its children to one logical CPU, and while
a child runs, the benchmark process runs a fixed pure-Python probe on that
same CPU, a chunk of work every few milliseconds.  The probe meets the same
core conditions as the child.  The probe's rate (probe chunks per CPU second)
over the child's lifetime measures the CPU's speed at that time, and

    reference seconds = child CPU seconds * probe rate / REFERENCE_RATE

is the time the child would have taken on a CPU running the probe at
``REFERENCE_RATE``.  The probe is part of the benchmark, never of the
program, so it runs the same code on every commit.
"""

from __future__ import annotations

import os
import select
import time
from contextlib import contextmanager
from dataclasses import dataclass

# a fixed scale, chosen so that on the machine the benchmark was tuned on
# (Intel Xeon, 2-vCPU VM, CPython 3.11) a request's reference seconds come
# close to its wall seconds when it runs alone on a quiet core
REFERENCE_RATE = 800.0
PAUSE_MS = 4

_KEYS = tuple((i * 37 % 64, i * 11 % 64, i % 23) for i in range(40))
_TABLE_SIZE = 60_000
_TABLE = {(i * 7919 % 100_003, i % 97, i & 255): i for i in range(_TABLE_SIZE)}
_TABLE_KEYS = list(_TABLE)


def _key(a: int, b: int, c: int) -> tuple[int, int, int]:
    return min(a, b, c), max(a, b, c), (a + b + c) & 7


def probe_chunk(step: int) -> int:
    """One to two milliseconds of pure-Python work.

    Tuple, dict, call and sort work that stays in cache, then strided
    lookups in a table of several megabytes.  Core contention slows the
    first part more than it slows the program and the second part less.  In
    this mix, over a 1.7x swing in speed, the program's CPU time and the
    probe's rate moved by the same factor to within about 2%.
    """
    counts: dict[tuple[int, int, int], int] = {}
    total = 0
    for a, b, c in _KEYS:
        for j in range(20):
            k = _key(a, (b + j) & 63, c ^ j)
            counts[k] = counts.get(k, 0) + 1
            total += len(sorted((a, k[0], k[2])))
    for i in range(step * 7, step * 7 + 240 * 4099, 4099):
        k = _TABLE_KEYS[i % _TABLE_SIZE]
        total += _TABLE[k] & 3
        total += len(sorted((k[0] & 63, k[1], k[2] & 7)))
    return total + len(counts)


@dataclass(frozen=True)
class ChildTime:
    status: int  # as os.wait4 gives it
    maxrss_kb: int
    cpu_s: float  # user + system CPU seconds of the child
    speed: float  # probe rate over REFERENCE_RATE while the child ran

    @property
    def reference_s(self) -> float:
        return self.cpu_s * self.speed


def wait_probing(pid: int) -> ChildTime:
    """Probe until child ``pid`` ends; reap it and scale its CPU time.

    Between chunks the probe waits up to ``PAUSE_MS`` for the child to end,
    leaving the CPU to the child, so the probe takes about a quarter of it.
    """
    chunks = 0
    start = time.process_time()
    pidfd = os.pidfd_open(pid)
    try:
        ended = select.poll()
        ended.register(pidfd, select.POLLIN)
        while True:
            probe_chunk(chunks)
            chunks += 1
            if ended.poll(PAUSE_MS):
                break
    finally:
        os.close(pidfd)
    rate = chunks / (time.process_time() - start)
    _, status, usage = os.wait4(pid, 0)
    return ChildTime(status, usage.ru_maxrss, usage.ru_utime + usage.ru_stime,
                     rate / REFERENCE_RATE)


@contextmanager
def pinned_to_one_cpu():
    """Pin this process, and the children it starts, to one of its allowed CPUs."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)
