"""Machine speed, measured beside the workload, to put timings on one scale.

Other tenants of a shared machine slow every process on it, in phases that
last seconds to minutes; on a shared 2-core VM, identical serving-loop
passes differed by up to 1.7x.  A fixed calibration round, run between
units of the workload (once per serving-loop morning, once per 64 study
steps), slows with them.  It mixes the kinds of work the package does:
interpreter arithmetic and a dict, small numpy calls on a 35-vector, a
365x35 distance scan and a sort of 256 Python floats.  On that VM, over 12
passes of ``morning_light``, scaling by it cut the spread of pass times
(standard deviation of their logs) from 0.145 to 0.052; a round of
interpreter work alone tracked the workload worse.  The timed round
follows an untimed one, so that how much of the round's data and code the
program evicted since the last sample does not move it.  That costs some
tracking: timed cold, the round cut the spread to 0.031.

Each timing is scaled by ``REFERENCE_NS`` over the local calibration time,
so it reads as the time it would take when one round takes
``REFERENCE_NS``.  The round never changes, so a change to drivecast moves
the scaled figures in full.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

REFERENCE_NS = 75_000.0
WINDOW = 15  # rounds in the running median that smooths the samples

_RNG = np.random.default_rng(0)
_WINDOW_ROWS = _RNG.normal(size=(365, 35))
_VECTOR = _RNG.normal(size=35)
_FLOATS = _RNG.normal(size=256).tolist()


def calibration_round() -> float:
    """Fixed work in the package's proportions; about 75 us when warm."""
    total = 0.0
    table: dict[int, float] = {}
    for i in range(100):
        total += (i * 0.5) % 7.0
        table[i & 31] = total
    z = _VECTOR
    for _ in range(10):
        z = np.clip((z - 0.1) / 1.1, -8.0, 8.0)
    diff = _WINDOW_ROWS - _VECTOR
    np.einsum("ij,ij->i", diff, diff)
    sorted(_FLOATS)
    return total


class Speedometer:
    """Calibration samples taken along a sequence of timed steps."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.at = array("q")   # steps timed before each sample
        self.ns = array("q")   # duration of each calibration round
        self.when = array("q")  # clock reading at the end of each round

    def sample(self, steps_so_far: int) -> None:
        calibration_round()  # warm-up: the program's own cache use between
        t0 = self.clock()    # samples then barely moves the timed round
        calibration_round()
        self.when.append(self.clock())
        self.ns.append(self.when[-1] - t0)
        self.at.append(steps_so_far)

    def smoothed(self) -> np.ndarray:
        ns = np.asarray(self.ns, dtype=float)
        half = WINDOW // 2
        padded = np.pad(ns, half, mode="edge")
        windows = np.lib.stride_tricks.sliding_window_view(padded, WINDOW)
        return np.median(windows, axis=1)

    def step_scale(self, n_steps: int) -> np.ndarray:
        """Per-step factor REFERENCE_NS / local calibration time; a step
        takes the sample taken last before it (the first, before any)."""
        idx = np.searchsorted(np.asarray(self.at), np.arange(n_steps),
                              side="right") - 1
        return REFERENCE_NS / self.smoothed()[np.maximum(idx, 0)]

    def scale(self) -> float:
        """One factor for a whole stretch, from the median sample."""
        return REFERENCE_NS / float(np.median(np.asarray(self.ns)))

    def scaled_seconds(self, start_ns: int, end_ns: int) -> float:
        """The clock interval [start_ns, end_ns] on the reference scale,
        each stretch scaled by the sample taken last before it."""
        edges = np.concatenate(([start_ns], self.when, [end_ns]))
        stretch = np.diff(np.clip(edges, start_ns, end_ns))
        factor = REFERENCE_NS / self.smoothed()
        return float(stretch @ np.concatenate(([factor[0]], factor))) / 1e9
