"""Host-speed calibration: a fixed kernel timed between the benchmark's sweeps.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by
15-40% over seconds to minutes, so the same workload's rows per second move
that much from one run to the next. After every sweep the benchmark waits
while a helper process times one round of the same fixed work. A sweep's
wall time is divided by the host's slowness: the time the rounds just
before and just after it took, over the reference time REFERENCE_S. The
result is what the sweep would have taken at the reference host speed.

A round times three kernels, each shaped like work the workloads do:

- interpreter: a damped scalar fixed-point loop of Python complex arithmetic
  and numpy scalar calls, shaped like the B = 0 SCBA step;
- memory: complex arithmetic over a 3.9e5-element array into preallocated
  buffers, like the Landau-ladder sum at 0.1 T;
- page faults: map, touch and unmap anonymous memory, which the ladder sum's
  multi-megabyte numpy temporaries pay on every step.

The kernels slow down by different factors when the host does: on the VM
below the interpreter kernel took 0.10 s or 0.17 s per round depending on
the host's state, the other two moved less. So each workload is scaled by
the kernels that do the kind of work its sweeps do (``Workload.kernels`` in
workloads.py), and set-up by all three.

The helper has its own heap, so the rounds neither share the measured
process's allocator state nor raise its peak resident memory, and no change
to the package can move them. It runs only while the benchmark waits for it.

    python3 perfbench/calibrate.py

runs the helper: one round per line read from standard input, one JSON line
of seconds per kernel written back.
"""
from __future__ import annotations

import json
import math
import mmap
import subprocess
import sys
import time
from pathlib import Path

# Median seconds of each kernel per round over 304 rounds on a 2-vCPU
# x86-64 VM (Intel Xeon, 2.1 GHz, Python 3.11.7, numpy 2.4.6). They only set
# the scale of the scaled figures; both sides of a comparison use the same.
REFERENCE_S = {"interpreter": 0.15, "memory": 0.11, "page_faults": 0.13}
KERNELS = tuple(REFERENCE_S)

ITERATIONS = 60_000          # scalar steps per round
LEVELS = 390_000             # ladder size of the landau_0p1T workload
PAGE_FAULT_BYTES = 32 << 20  # mapped and touched per repeat


def _interpreter(np) -> None:
    log_cutoff = 2.0 * math.log(3.0) + 1j * math.pi
    sigma = -0.01j
    for k in range(ITERATIONS):
        z = 0.1 + 1e-7 * k - sigma
        out = -(z / 20.0) * (log_cutoff - 2.0 * np.log(z))
        sigma = 0.7 * sigma + 0.3 * out.conjugate()


def _memory(np, en2, buf, out) -> None:
    for k in range(42):
        z = 0.01 + 0.002j * (k + 1)
        np.subtract(z * z, en2, out=buf)
        np.divide(z, buf, out=out)
        out.sum()


def _page_faults(np) -> None:
    for _ in range(5):
        with mmap.mmap(-1, PAGE_FAULT_BYTES) as region:
            pages = np.frombuffer(region, dtype=np.uint8)
            pages[::mmap.PAGESIZE] = 1
            del pages


def serve() -> int:
    """Helper loop: a round for every line on stdin until it closes."""
    import numpy as np
    en2 = np.linspace(0.0, 400.0, LEVELS)
    buf, out = np.empty(LEVELS, complex), np.empty(LEVELS, complex)
    kernels = (("interpreter", lambda: _interpreter(np)),
               ("memory", lambda: _memory(np, en2, buf, out)),
               ("page_faults", lambda: _page_faults(np)))
    for _ in sys.stdin:
        times = {}
        for name, kernel in kernels:
            start = time.perf_counter()
            kernel()
            times[name] = time.perf_counter() - start
        print(json.dumps(times), flush=True)
    return 0


class Calibration:
    """Client of the helper process; keeps every round's seconds by kernel.

    Use as a context manager: leaving it ends the helper and waits for it.
    """

    def __init__(self):
        self.rounds: list[dict] = []
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def round(self) -> None:
        """Run one round in the helper while this process waits."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("calibration helper exited")
        self.rounds.append(json.loads(line))

    def slowness(self, i: int, j: int, kernels=KERNELS) -> float:
        """Mean time of the given kernels in rounds i and j over their
        reference time: above 1 when the host ran slower than the reference."""
        spent = sum(self.rounds[r][k] for r in (i, j) for k in kernels) / 2
        return spent / sum(REFERENCE_S[k] for k in kernels)


if __name__ == "__main__":
    sys.exit(serve())
