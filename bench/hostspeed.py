"""How fast the host runs right now, from a fixed calibration kernel.

On a shared host the speed of every process drifts by tens of percent over
seconds to minutes, and the drift moves combdec's operations and this
kernel together.  The end-to-end times are therefore reported at a
reference host speed: each raw time is multiplied by
REFERENCE_S / (kernel time measured next to it).  The kernel does the kind
of work combdec does (decimal parsing, tuple building, a range check in
Python, an int64 cumulative sum in numpy) and never calls combdec, so no
change to combdec can move it.
"""

from __future__ import annotations

import time

import numpy as np

# kernel seconds that define the reference speed (about its fastest on a
# 2-vCPU Xeon VM under Python 3.11 and numpy 2.4)
REFERENCE_S = 0.007


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._text = [str(v).encode() for v in rng.integers(-16, 16, 12_000)]
        self._block = rng.integers(-16, 16, 120_000)

    def kernel_seconds(self) -> float:
        t0 = time.perf_counter()
        values = [int(s) for s in self._text]
        checked = tuple(int(v) for v in values)
        all(-16 <= v < 16 for v in checked)
        (np.cumsum(self._block, dtype=np.int64) & 0xFF).tolist()  # cached small ints: no RSS
        return time.perf_counter() - t0
