"""Bounded-memory streaming primitives: KLL quantile sketch and ADWIN.

The sketch keeps a compacted multi-level sample of a value stream and
answers quantile queries with rank error proportional to 1/k.  Two
sketches with the same accuracy parameter can be merged into one that
summarizes the union stream.  The adaptive window maintains an
exponential histogram over a value stream and shrinks itself whenever two
adjacent sub-windows have statistically distinct means, which doubles as
a drift signal.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .exceptions import InsufficientHistoryError

class KllSketch:
    """Mergeable streaming quantile sketch.

    Parameters
    ----------
    k : int
        Accuracy parameter (>= 8).  Memory grows like O(k); rank error of
        quantile queries shrinks like O(1/k).
    c : float
        Geometric decay of compactor capacities, in (0.5, 1.0].
    seed : int
        Seed for the compaction coin flips.  Sketches built from the same
        stream with the same seed are identical.
    """

    def __init__(self, k: int = 200, c: float = 2.0 / 3.0, seed: int = 0):
        if not isinstance(k, (int, np.integer)) or k < 8:
            raise ValueError("k must be an integer >= 8")
        if not 0.5 < c <= 1.0:
            raise ValueError("c must be in (0.5, 1.0]")
        self.k = int(k)
        self.c = float(c)
        self.seed = int(seed)
        self.n = 0
        self._levels: list[list[float]] = [[]]
        self._rng = np.random.Generator(np.random.PCG64(self.seed))

    # -- sizing ---------------------------------------------------------

    def _capacity(self, height: int) -> int:
        depth = len(self._levels) - height - 1
        return int(math.ceil(self.c ** depth * self.k)) + 1

    def _max_size(self) -> int:
        return sum(self._capacity(h) for h in range(len(self._levels)))

    def retained_items(self) -> int:
        return sum(len(lvl) for lvl in self._levels)

    # -- updates --------------------------------------------------------

    def insert(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("sketch values must be finite")
        self._levels[0].append(value)
        self.n += 1
        if self.retained_items() >= self._max_size():
            self._compress()

    def _compress(self) -> None:
        while self.retained_items() >= self._max_size():
            for h in range(len(self._levels)):
                if len(self._levels[h]) >= self._capacity(h):
                    if h + 1 == len(self._levels):
                        self._levels.append([])
                    self._levels[h + 1].extend(self._compact_level(h))
                    break
            else:
                break

    def _compact_level(self, h: int) -> list[float]:
        lvl = sorted(self._levels[h])
        straggler = lvl.pop() if len(lvl) % 2 == 1 else None
        offset = int(self._rng.random() < 0.5)
        survivors = lvl[offset::2]
        self._levels[h] = [straggler] if straggler is not None else []
        return survivors

    @staticmethod
    def merge(a: "KllSketch", b: "KllSketch") -> "KllSketch":
        """Fresh sketch summarizing the union of both input streams.

        Inputs are not modified.  The result's coin-flip seed is a
        symmetric combination of the input seeds, so merge(a, b) and
        merge(b, a) answer queries identically.
        """
        if a.k != b.k or a.c != b.c:
            raise ValueError("cannot merge sketches with different parameters")
        out = KllSketch(a.k, a.c, seed=(a.seed ^ b.seed ^ 0x9E3779B9) & 0x7FFFFFFF)
        height = max(len(a._levels), len(b._levels))
        out._levels = [[] for _ in range(height)]
        for src in (a, b):
            for h, lvl in enumerate(src._levels):
                out._levels[h].extend(lvl)
        out.n = a.n + b.n
        out._compress()
        return out

    # -- queries --------------------------------------------------------

    def _weighted_items(self) -> tuple[np.ndarray, np.ndarray]:
        values: list[float] = []
        weights: list[float] = []
        for h, lvl in enumerate(self._levels):
            values.extend(lvl)
            weights.extend([float(2 ** h)] * len(lvl))
        v = np.asarray(values)
        w = np.asarray(weights)
        order = np.argsort(v, kind="stable")
        return v[order], w[order]

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            raise InsufficientHistoryError("empty sketch")
        v, w = self._weighted_items()
        cum = np.cumsum(w)
        target = max(q * self.n, 1.0)
        idx = int(np.searchsorted(cum, target, side="left"))
        idx = min(idx, len(v) - 1)
        return float(v[idx])

    def moments(self) -> tuple[float, float]:
        """Gaussian fit (mean, std) from the weighted retained items."""
        if self.n < 2:
            raise InsufficientHistoryError("need at least 2 values for moments")
        v, w = self._weighted_items()
        total = w.sum()
        mean = float((w * v).sum() / total)
        var = float((w * (v - mean) ** 2).sum() / (total - 1.0))
        return mean, math.sqrt(max(var, 0.0))


class AdwinWindow:
    """Adaptive window over a value stream with drift detection.

    Keeps an exponential histogram: buckets of size 2^level, at most
    ``max_buckets`` per level, ordered oldest to newest.  After each
    update the window is cut wherever two adjacent sub-windows have mean
    difference above a variance-aware Hoeffding-style bound at confidence
    ``delta``; the older part is dropped and the update reports drift.
    """

    def __init__(self, delta: float = 0.002, max_buckets: int = 5):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        self.delta = float(delta)
        self.max_buckets = int(max_buckets)
        self._cap = 64
        self._counts = np.zeros(self._cap)
        self._sums = np.zeros(self._cap)
        self._sumsqs = np.zeros(self._cap)
        self._rows = 0
        self._level_counts: list[int] = []
        self.total = 0.0
        self.total_sum = 0.0
        self.total_sumsq = 0.0
        self.n_drifts = 0

    @property
    def width(self) -> int:
        return int(self.total)

    @property
    def mean(self) -> float:
        return self.total_sum / self.total if self.total > 0 else 0.0

    def _grow(self) -> None:
        self._cap *= 2
        for name in ("_counts", "_sums", "_sumsqs"):
            new = np.zeros(self._cap)
            new[: self._rows] = getattr(self, name)[: self._rows]
            setattr(self, name, new)

    def _level_start(self, level: int) -> int:
        # rows are ordered by level descending; level l starts after all
        # higher-level blocks
        return sum(self._level_counts[level + 1:])

    def _append_new(self, v: float) -> None:
        if self._rows == self._cap:
            self._grow()
        i = self._rows
        self._counts[i] = 1.0
        self._sums[i] = v
        self._sumsqs[i] = v * v
        self._rows += 1
        if not self._level_counts:
            self._level_counts.append(0)
        self._level_counts[0] += 1

    def _compress(self) -> None:
        level = 0
        while level < len(self._level_counts):
            if self._level_counts[level] > self.max_buckets:
                p = self._level_start(level)
                # merge the two oldest buckets of this level into one of
                # the next level; totals are unchanged
                self._counts[p] += self._counts[p + 1]
                self._sums[p] += self._sums[p + 1]
                self._sumsqs[p] += self._sumsqs[p + 1]
                for arr in (self._counts, self._sums, self._sumsqs):
                    arr[p + 1: self._rows - 1] = arr[p + 2: self._rows]
                self._rows -= 1
                self._level_counts[level] -= 2
                if level + 1 == len(self._level_counts):
                    self._level_counts.append(0)
                self._level_counts[level + 1] += 1
            else:
                level += 1

    def _drop_oldest(self) -> None:
        self.total -= self._counts[0]
        self.total_sum -= self._sums[0]
        self.total_sumsq -= self._sumsqs[0]
        for arr in (self._counts, self._sums, self._sumsqs):
            arr[: self._rows - 1] = arr[1: self._rows]
        self._rows -= 1
        for level in range(len(self._level_counts) - 1, -1, -1):
            if self._level_counts[level] > 0:
                self._level_counts[level] -= 1
                break

    def update(self, v: float) -> bool:
        """Insert one value; returns True when a distribution shift was cut."""
        v = float(v)
        self._append_new(v)
        self.total += 1.0
        self.total_sum += v
        self.total_sumsq += v * v
        self._compress()

        drift = False
        while self._rows >= 2:
            cut = _kernels.adwin_cut(
                self._counts[: self._rows],
                self._sums[: self._rows],
                self._sumsqs[: self._rows],
                self.delta,
            )
            if cut < 0:
                break
            self._drop_oldest()
            drift = True
        if drift:
            self.n_drifts += 1
        return drift

    # -- introspection --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data snapshot of the buckets, oldest first."""
        return {
            "delta": self.delta,
            "max_buckets": self.max_buckets,
            "counts": self._counts[: self._rows].tolist(),
            "sums": self._sums[: self._rows].tolist(),
            "sumsqs": self._sumsqs[: self._rows].tolist(),
            "level_counts": list(self._level_counts),
            "n_drifts": self.n_drifts,
        }

