"""CPU speed probe: rescales measured seconds to a reference core speed.

On a shared 2-vCPU VM the speed of the core swings by +-25% over seconds
(other tenants contend for the host), which swamps a single-pass timing:
five 22 s passes of grid 5 5 through compiler.pipeline read 18.3 to 27.0
s.  A background thread times a fixed pure-Python loop (no library code)
in its own CPU time every 50 ms; a measured interval is then rescaled by
how fast that loop ran during it, relative to the loop's CPU time on an
uncontended core.  The process is pinned to one CPU so that the probe
measures the core the work runs on.  The probe takes ~4% of that core,
the same on every commit.
"""

from __future__ import annotations

import os
import threading
import time

LOOP = 20_000
REFERENCE_S = 0.0014  # LOOP's CPU time on an uncontended core (2 GHz Xeon VM, Python 3.11)
PERIOD_S = 0.05
WINDOW_S = 1.0  # samples from this long before an interval also count for it


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (wall start, loop CPU seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def _run(self):
        while not self._stop.is_set():
            start, cpu0 = time.perf_counter(), time.thread_time()
            acc = 0
            for i in range(LOOP):
                acc += i * i % 7
            self.samples.append((start, time.thread_time() - cpu0))
            self._stop.wait(PERIOD_S)

    def __enter__(self):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._thread.start()
        time.sleep(WINDOW_S)
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def factor(self, start: float, end: float) -> float:
        """Mean relative speed over [start, end] (perf_counter times): the
        reference loop time over each sample's loop time, averaged."""
        window = [cpu for t, cpu in list(self.samples) if start - WINDOW_S <= t <= end and cpu > 0]
        if not window:
            raise RuntimeError("speed probe took no samples")
        return sum(REFERENCE_S / cpu for cpu in window) / len(window)
