"""Host-speed probe: fixed interpreter and NumPy work in a clean process.

On a shared virtual machine the CPU itself changes speed. On the 2-vCPU
host this benchmark was built on, fixed work ran up to 1.8x slower for
minutes at a time, and every workload slowed with it. Raw wall time then
measures the neighbours more than the code.

The benchmark therefore reads the host's speed before and after every
sweep and scales the sweep's times by ``REFERENCE_S / reading``, with
the reading smoothed over its neighbours (``run.assign_scales``). The
reported times are host times *at the reference host speed*. The raw
times are kept in the result record beside the scaled ones.

The run and all its children are pinned to one CPU
(:func:`pin_to_one_cpu`), so a reading measures the CPU the workload
runs on. Pinned or not, the host also flips between two speeds about
2x apart every second or so (readings of about 12 ms and 20 ms); that
is what the smoothing is for.

A reading times :func:`_work` in a child process that does nothing else.
Timed inside the workload process, the same work read anywhere from 10
to 20 ms while the workload itself ran at a steady speed: what the
workload left in the allocator and the caches moved it more than the
host did. The child calls nothing in ``src/``, so a change to the
program cannot move the readings. The child only runs while the
workload process waits for its answer, so the two never compete.

The work mixes what the workloads do: small-object allocation, dict and
list traffic, a keyed sort and small NumPy element-wise kernels.
"""

from __future__ import annotations

import gc
import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager

#: Reading (seconds) that defines the reference host speed.
REFERENCE_S = 0.015

#: Timings per reading; the reading is their median.
REPEATS = 5


class _Item:
    __slots__ = ("index", "key", "pair")

    def __init__(self, index: int, key: str, pair: tuple[int, int]) -> None:
        self.index = index
        self.key = key
        self.pair = pair


def _work() -> int:
    import numpy as np

    groups: dict[str, list[_Item]] = {}
    items = []
    for index in range(12_000):
        item = _Item(index, f"n{index % 311}", (index, index + 1))
        items.append(item)
        groups.setdefault(item.key, []).append(item)
    items.sort(key=lambda item: (item.key, -item.index))
    total = sum(len(members) for members in groups.values())
    values = np.arange(2048, dtype=np.float64)
    for _ in range(40):
        values = np.sqrt(values * values + 1.0)
    return total + int(values[0])


def probe() -> float:
    """Seconds :func:`_work` takes in this process (median of ``REPEATS``)."""
    times = []
    gc.disable()
    try:
        for _ in range(REPEATS):
            start = time.perf_counter()
            _work()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


#: CPUs the process could use before :func:`pin_to_one_cpu`.
_ALLOWED_CPUS: set[int] | None = None


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU."""
    global _ALLOWED_CPUS
    try:
        _ALLOWED_CPUS = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(_ALLOWED_CPUS)})
    except (AttributeError, OSError):
        _ALLOWED_CPUS = None  # no affinity control here: run unpinned


@contextmanager
def every_cpu():
    """Lift the pin for a measurement that forks parallel workers."""
    if _ALLOWED_CPUS is None:
        yield
        return
    pinned = os.sched_getaffinity(0)
    os.sched_setaffinity(0, _ALLOWED_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, pinned)


class Prober:
    """A child process that answers each :meth:`read` with a probe time."""

    def __enter__(self) -> "Prober":
        self._child = subprocess.Popen(
            [sys.executable, __file__], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self._child.stdout.readline()  # idle from here on: warm-up is done
        return self

    def read(self) -> float:
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        return float(self._child.stdout.readline())

    def __exit__(self, *exc_info) -> None:
        self._child.stdin.close()
        try:
            self._child.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


if __name__ == "__main__":
    probe()  # the first call pays the NumPy import
    print("ready", flush=True)
    for _request in sys.stdin:
        print(probe(), flush=True)
