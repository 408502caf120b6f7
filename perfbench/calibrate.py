"""Machine-speed calibration for timings taken on a shared machine.

On a machine shared with other tenants the speed of one core drifts by
±20% within seconds, which would swamp any change under test. A fixed unit
of work that never touches the package is timed after every op; the median
of the last few samples divided by a reference time is the current speed
factor. A wall time divided by that factor reads in milliseconds at the
reference speed. Raw wall times are reported beside the normalized ones.

Two units of work, matched to what is being timed:

- in-process ops: interpreter loops, small numpy products and one
  cache-sized product, the same mix as the package's hot paths;
- fresh processes (CLI ops, set-up): the start of a bare interpreter, which
  tracks process start-up (exec, page faults, imports) far better than any
  loop does.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter

LOOP_REFERENCE_MS = 3.0
PROCESS_REFERENCE_MS = 50.0
# The speed drifts within a second, so the factor uses only the most recent
# samples: per-op scatter is half that of a one-second window.
WINDOW = 3


def loop_ms() -> float:
    import numpy as np

    t0 = perf_counter()
    acc = 0
    for i in range(12000):
        acc = (acc * 31 + i) & 0xFFFFF
    table: dict[int, int] = {}
    for i in range(2000):
        table[i % 101] = table.get(i % 101, 0) + i
    a = np.arange(64.0).reshape(8, 8)
    for _ in range(150):
        a = (a @ a.T) / 1e3 + 1.0
    b = np.ones((256, 256)) / 256.0
    b = b @ b  # a cache-sized product, like the circuits' joint states
    return 1e3 * (perf_counter() - t0)


def process_ms(env=None) -> float:
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
    return 1e3 * (perf_counter() - t0)


class Speed:
    """Speed factor from the last ``WINDOW`` samples: above 1 when the machine
    runs slower than reference. With a sample taken after every op, an op's
    factor comes from the samples just before and just after it."""

    def __init__(self, probe, reference_ms: float, warm: int = WINDOW):
        self.probe = probe
        self.reference_ms = reference_ms
        self.samples: deque[float] = deque(maxlen=WINDOW)
        for _ in range(warm):
            self.sample()

    def sample(self) -> None:
        self.samples.append(self.probe())

    def factor(self) -> float:
        return statistics.median(self.samples) / self.reference_ms


def loop_speed(warm: int = WINDOW) -> Speed:
    return Speed(loop_ms, LOOP_REFERENCE_MS, warm)


def process_speed(env=None, warm: int = WINDOW) -> Speed:
    return Speed(lambda: process_ms(env), PROCESS_REFERENCE_MS, warm)
