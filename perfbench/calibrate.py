"""Host-speed calibration.

On a shared 2-vCPU VM (Intel Xeon, 2.1 GHz) the same Python code runs
at two speeds about 1.8x apart, switching every few seconds, separately
on each vCPU (NOTES.md has the measurements).  Every timing is therefore scaled by
the speed of the vCPU it ran on, measured at that moment with a fixed
pure-Python burst that touches nothing of `repro`:

    scaled = measured * REFERENCE_S / burst_cpu_seconds

so figures read as times at the machine's fast speed.  A burst is timed
in thread CPU time, so being preempted does not count as slowness.

Run as a script, this is the metronome: pinned to the vCPU of a
process it watches, it prints ``<monotonic time> <burst CPU seconds>``
every ``INTERVAL_S`` seconds until terminated.
"""

from __future__ import annotations

import argparse
import bisect
import os
import statistics
import subprocess
import sys
import threading
import time

#: CPU seconds of one `burst()` on a 2.1 GHz Xeon vCPU at its fast speed
REFERENCE_S = 0.00135
#: seconds between two metronome bursts
INTERVAL_S = 0.05


class _Item:
    __slots__ = ("key", "label")

    def __init__(self, key: int, label: str) -> None:
        self.key, self.label = key, label


def burst() -> int:
    """Fixed interpreter work: allocation, dict and tuple traffic."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        item = _Item(i, str(i & 63))
        table[(i & 127, item.label)] = item
        acc += len(table) + item.key
        acc ^= hash(tuple(sorted((i, i >> 1, i & 7))))
    return acc


def sample() -> float:
    """Thread CPU seconds of one burst."""
    start = time.thread_time()
    burst()
    return time.thread_time() - start


def factor(samples: list[float]) -> float:
    """Scale from measured to reference-speed time."""
    return REFERENCE_S / statistics.median(samples)


def cpus() -> list[int]:
    """The vCPUs this process may run on, in order."""
    return sorted(os.sched_getaffinity(0))


class Metronome:
    """A pinned metronome process and the samples it has printed."""

    def __init__(self, cpu: int) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), str(cpu)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self.times: list[float] = []
        self.samples: list[float] = []
        self._lock = threading.Lock()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            moment, cpu_s = line.split()
            with self._lock:
                self.times.append(float(moment))
                self.samples.append(float(cpu_s))

    def factor_between(self, start: float, end: float) -> float:
        """Scale for work done in [start, end]: the median burst in
        that window, or the nearest one if none fell inside."""
        with self._lock:
            lo = bisect.bisect_left(self.times, start)
            hi = bisect.bisect_right(self.times, end)
            window = self.samples[lo:hi]
            if not window:
                if not self.samples:
                    raise RuntimeError("metronome produced no samples")
                near = [i for i in (lo - 1, lo) if 0 <= i < len(self.times)]
                nearest = min(near, key=lambda i: abs(self.times[i] - start))
                window = [self.samples[nearest]]
        return factor(window)

    def wait_for_samples(self, count: int = 3, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while len(self.samples) < count:
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("metronome did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
        self.proc.wait()
        self._reader.join(timeout=10)


def main() -> None:
    parser = argparse.ArgumentParser(description="print burst timings")
    parser.add_argument("cpu", type=int, help="the vCPU to run on")
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.cpu})
    try:
        while True:
            moment, cpu_s = time.perf_counter(), sample()
            print(f"{moment:.6f} {cpu_s:.9f}", flush=True)
            time.sleep(INTERVAL_S)
    except (KeyboardInterrupt, BrokenPipeError):
        pass


if __name__ == "__main__":
    main()
