"""Speed probes: fixed kernels, timed next to the work, that put times at one
reference machine speed.

The host this benchmark was written on changes speed by 1.5x to 2x within
seconds to minutes, and not by the same amount for every kind of code:
interpreted Python (the codec's bit packing and parsing) slows more than
numpy's memory-bound distance kernel. So there are two probes, neither of
which touches kzsketch:

- ``python``: an integer shift-and-mask loop and a loop that builds tuples
  and a dict, about equal in time;
- ``numpy``: fill a fresh 40 MB array, square it in place and sum it, a
  memory stream with page faults like the library kernel's large
  temporaries.

Interpreter start and import are file reads, loading of shared libraries
and module code run once; no probe tried tracked them, and they stay as
measured.

Each timed interval is scaled by ``PROBE_REF_S[kind] / t``, where ``t`` is
the probe of the kind that tracks the interval, timed just before it. An
interval whose probe takes exactly its reference time is reported as
measured. See "Machine speed" in NOTES.md for the trials behind the choices.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

KINDS = ("python", "numpy")
PROBE_REF_S = {"python": 0.010, "numpy": 0.020}
PROBE_REPS = 3  # a probe time is the fastest of this many runs


def _python_kernel() -> None:
    acc = 0
    for i in range(30_000):
        acc = ((acc << 3) ^ i) & 0xFFFFFFFF
    rows = [(i, i >> 3, float(i)) for i in range(20_000)]
    table = {}
    for a, b, c in rows:
        table[a] = b + c


def _numpy_kernel() -> None:
    # 40 MB is above glibc's largest mmap threshold (32 MB), so the array is
    # always a fresh mapping, whatever the library allocated before
    a = np.full(5_000_000, 1.5)
    np.multiply(a, a, out=a)
    a.sum()


_KERNELS = {"python": _python_kernel, "numpy": _numpy_kernel}


def probe(kind: str) -> float:
    """Seconds for one probe of ``kind``: the fastest of PROBE_REPS runs."""
    kernel, best = _KERNELS[kind], math.inf
    for _ in range(PROBE_REPS):
        t = perf_counter()
        kernel()
        best = min(best, perf_counter() - t)
    return best


def factor(kind: str, probe_s: float) -> float:
    """The factor that takes a time to the reference speed, given the probe
    of ``kind`` timed just before it."""
    return PROBE_REF_S[kind] / probe_s


def scales(probes: dict[str, list[float]]) -> dict[str, float]:
    """Per kind, the factor for the median probe of a run."""
    return {kind: factor(kind, statistics.median(times))
            for kind, times in probes.items() if times}
