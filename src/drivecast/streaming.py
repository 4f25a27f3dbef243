"""Bounded-memory streaming primitives: KLL quantile sketch and ADWIN.

The sketch keeps a compacted multi-level sample of a value stream and
answers quantile queries with rank error proportional to 1/k.  Two
sketches with the same accuracy parameter can be merged into one that
summarizes the union stream; ``describe`` answers for several sketches
without merging, from the pooled weighted items of all of them.  The
adaptive window maintains an exponential histogram over a value stream
and shrinks itself whenever two adjacent sub-windows have statistically
distinct means, which doubles as a drift signal.

An interval query pools the sketches' items in one unstable sort and
reads every quantile from one search of their cumulative weights; with
every weight a power of two, it answers as the stable order does.  A
window checks each value once, and refuses one that is not finite or
exceeds ``WINDOW_VALUE_BOUND`` in magnitude, and a sketch a seed that is
not an integer >= 0, before any bucket or item changes.

Both keep their floats in flat ``array("d")`` buffers: a sketch level is
one, and a window's bucket counts, sums and sums of squares are three.
Updates are Python float adds and multiplies, the same IEEE-754 double
operations as numpy's, and each read hands numpy one contiguous copy of
the buffers (one ``b"".join``).  Every sort, sum and kernel therefore sees
bit-equal doubles, in the same order, whichever way they are stored.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from . import _kernels
from .exceptions import InsufficientHistoryError

# Geometric decay of KLL compactor capacities: a level h steps below the
# top holds about k * _C**h items.
_C = 2.0 / 3.0
# Most ADWIN buckets kept per level of the exponential histogram.
_MAX_BUCKETS = 5
# Weight of an item at each level of a sketch: one at level h stands for
# 2^h inserted values.
_POW2 = [2.0 ** h for h in range(64)]
# Largest magnitude a drift window takes.  Its square is 1e200, so the
# sums and sums of squares of up to 2^53 (about 9e15) such values stay
# below 1e216 and every total, mean and variance of the cut scan is finite;
# a bound only just under 1e154 would let four squares overflow a total.
WINDOW_VALUE_BOUND = 1e100


class KllSketch:
    """Mergeable streaming quantile sketch.

    Parameters
    ----------
    k : int
        Accuracy parameter (>= 8).  Memory grows like O(k); rank error of
        quantile queries shrinks like O(1/k).
    seed : int
        Seed for the compaction coin flips.  Sketches built from the same
        stream with the same seed are identical.
    """

    def __init__(self, k: int = 200, seed: int = 0):
        if not isinstance(k, (int, np.integer)) or k < 8:
            raise ValueError("k must be an integer >= 8")
        # the seed reaches numpy's generator only at the first compaction,
        # so a bad one is refused here, before any insert counts
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise ValueError("seed must be an integer >= 0")
        self.k = int(k)
        self.seed = int(seed)
        self.n = 0
        self._levels: list[array] = [array("d")]
        self._size = 0
        self._size_caps()
        # made on the first compaction; many sketches never compact
        self._rng: np.random.Generator | None = None

    # -- sizing ---------------------------------------------------------

    def _size_caps(self) -> None:
        """Capacity of every level, and their sum, for the current height.

        A level's capacity depends only on its distance from the top, so
        the capacities change only when a level is added."""
        height = len(self._levels)
        self._caps = [int(math.ceil(_C ** (height - h - 1) * self.k)) + 1
                      for h in range(height)]
        self._max = sum(self._caps)

    def retained_items(self) -> int:
        return self._size

    def __getstate__(self) -> dict:
        # the size and capacities follow from the levels; leaving them
        # out keeps a pickled sketch as small as its contents.  Levels pickle
        # as lists, which are smaller than arrays of a few floats
        state = self.__dict__.copy()
        del state["_size"], state["_caps"], state["_max"]
        state["_levels"] = [lvl.tolist() for lvl in self._levels]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._levels = [array("d", lvl) for lvl in self._levels]
        self._size = sum(len(lvl) for lvl in self._levels)
        self._size_caps()

    # -- updates --------------------------------------------------------

    def insert(self, value: float, count: int = 1) -> None:
        """Add ``count`` copies of ``value``; the same as ``count`` single
        inserts, compactions included."""
        value = float(value)
        if not math.isfinite(value):
            raise ValueError("sketch values must be finite")
        if count < 0:
            raise ValueError("count must be >= 0")
        level0 = self._levels[0]
        while count > 0:
            # a single insert compacts as soon as the sketch is full, so
            # copies go in bulk up to that point
            batch = min(count, self._max - self._size)
            level0.fromlist([value] * batch)
            self.n += batch
            self._size += batch
            count -= batch
            if self._size >= self._max:
                self._compress()
                level0 = self._levels[0]

    def _compress(self) -> None:
        while self._size >= self._max:
            # _size >= sum(_caps), so some level is at capacity
            for h, lvl in enumerate(self._levels):
                if len(lvl) >= self._caps[h]:
                    if h + 1 == len(self._levels):
                        self._levels.append(array("d"))
                        self._size_caps()
                    self._levels[h + 1].extend(self._compact_level(h))
                    break

    def _compact_level(self, h: int) -> list[float]:
        lvl = sorted(self._levels[h])
        straggler = lvl.pop() if len(lvl) % 2 == 1 else None
        if self._rng is None:
            self._rng = np.random.Generator(np.random.PCG64(self.seed))
        offset = int(self._rng.random() < 0.5)
        survivors = lvl[offset::2]
        self._levels[h] = array("d", [] if straggler is None else [straggler])
        self._size -= len(lvl) - len(survivors)
        return survivors

    def _absorb(self, other: "KllSketch") -> None:
        """Fold ``other`` into this sketch: the seeds combine, each of
        ``other``'s levels joins the level of its height, and full levels
        compact."""
        if self.k != other.k:
            raise ValueError("cannot merge sketches with different k")
        self.seed = (self.seed ^ other.seed ^ 0x9E3779B9) & 0x7FFFFFFF
        self._rng = None
        height = len(self._levels)
        for h, lvl in enumerate(other._levels):
            if h < height:
                self._levels[h].extend(lvl)
            else:
                self._levels.append(array("d", lvl))
        if len(self._levels) != height:
            self._size_caps()
        self.n += other.n
        self._size += other._size
        self._compress()

    @staticmethod
    def merge(a: "KllSketch", b: "KllSketch") -> "KllSketch":
        """Fresh sketch summarizing the union of both input streams.

        Inputs are not modified.  The result's coin-flip seed is a
        symmetric combination of the input seeds, so merge(a, b) and
        merge(b, a) answer queries identically.
        """
        out = KllSketch(a.k, a.seed)
        out._levels = [array("d", lvl) for lvl in a._levels]
        out.n, out._size = a.n, a._size
        out._size_caps()
        out._absorb(b)
        return out

    # -- queries --------------------------------------------------------

    def quantile(self, q: float) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.n == 0:
            raise InsufficientHistoryError("empty sketch")
        return _quantiles(*_weighted_items((self,)), self.n, (q,))[0]

    def moments(self) -> tuple[float, float]:
        """Gaussian fit (mean, std) from the weighted retained items."""
        if self.n < 2:
            raise InsufficientHistoryError("need at least 2 values for moments")
        return _moments_of(*_weighted_items((self,)))


def _pooled_items(sketches) -> tuple[np.ndarray, np.ndarray]:
    """Every retained item of the sketches, unsorted, with its weight: an
    item at level h of its sketch stands for 2^h inserted values."""
    levels, weights, lengths = [], [], []
    for sk in sketches:
        for h, lvl in enumerate(sk._levels):
            levels.append(lvl)
            weights.append(_POW2[h])
            lengths.append(len(lvl))
    return np.frombuffer(b"".join(levels)), np.repeat(weights, lengths)


def _weighted_items(sketches) -> tuple[np.ndarray, np.ndarray]:
    """``_pooled_items`` in stable sorted order."""
    v, w = _pooled_items(sketches)
    order = np.argsort(v, kind="stable")
    return v[order], w[order]


def _quantiles(v: np.ndarray, w: np.ndarray, n: int, qs) -> list[float]:
    """The item at rank max(q * n, 1) of the weighted items, for every q,
    from one cumulative sum and one search."""
    idx = np.searchsorted(np.cumsum(w), [max(q * n, 1.0) for q in qs],
                          side="left")
    np.minimum(idx, len(v) - 1, out=idx)
    return v[idx].tolist()


def _moments_of(v: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    total = w.sum()
    mean = float((w * v).sum() / total)
    d = v - mean
    var = float((w * (d * d)).sum() / (total - 1.0))
    return mean, math.sqrt(max(var, 0.0))


def describe(sketches, qs) -> list[float]:
    """Quantiles at ``qs`` of the pooled streams of ``sketches``, from one
    sort of their retained items.

    Each item keeps its own sketch's weight, so nothing is compacted: one
    sketch answers exactly as its ``quantile`` does, and the rank error of
    the pool is at most the largest of its sketches'.  All of ``qs`` are
    answered by one search of the items' cumulative weights.

    The sort need not be stable.  Every weight is a power of two, so every
    cumulative weight is an exact integer, and at the ends of a run of
    equal items it does not depend on the run's order; a search that
    lands in the run therefore lands in it in any order, on an item equal
    to the stable order's.  Equal means the same bits for every value but
    zero: 0.0 and -0.0 compare equal, so a zero answer is read again from
    the stable order, whose sign ``quantile`` gives."""
    if not all(0.0 <= q <= 1.0 for q in qs):
        raise ValueError("q must be in [0, 1]")
    n = sum(sk.n for sk in sketches)
    if n < 2:
        raise InsufficientHistoryError("need at least 2 pooled values")
    v, w = _pooled_items(sketches)
    order = np.argsort(v)
    answers = _quantiles(v[order], w[order], n, qs)
    if 0.0 in answers:
        answers = _quantiles(*_weighted_items(sketches), n, qs)
    return answers


def _window_value(v) -> float:
    """``v`` as a float a drift window takes, or ``ValueError``."""
    v = float(v)
    if not abs(v) <= WINDOW_VALUE_BOUND:
        raise ValueError(f"window value {v!r} is not finite or exceeds "
                         f"{WINDOW_VALUE_BOUND:g} in magnitude")
    return v


class AdwinWindow:
    """Adaptive window over a value stream with drift detection.

    Keeps an exponential histogram: buckets of size 2^level, at most
    ``_MAX_BUCKETS`` per level, ordered oldest to newest.  After each
    update the window is cut wherever two adjacent sub-windows have mean
    difference above a variance-aware Hoeffding-style bound at confidence
    ``delta``; the older part is dropped and the update reports drift.
    """

    def __init__(self, delta: float = 0.002):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        self.delta = float(delta)
        # per bucket, oldest first: the count, sum and sum of squares; a
        # count is always a power of two and counts never grow from oldest
        # to newest, so a bucket's level is read from its count
        self._counts, self._sums, self._sumsqs = (array("d"), array("d"),
                                                  array("d"))
        self.n_drifts = 0

    @property
    def width(self) -> int:
        return int(sum(self._counts))

    @property
    def mean(self) -> float:
        count = sum(self._counts)
        return sum(self._sums) / count if count > 0 else 0.0

    def _compress(self) -> None:
        # every size had at most _MAX_BUCKETS buckets before the new bucket
        # of size 1 came in, and a merge adds one bucket of the next size
        # only: a size has overflowed exactly when the row _MAX_BUCKETS
        # before the newest bucket of that size still holds that size
        counts = self._counts
        p, size = len(counts) - _MAX_BUCKETS - 1, 1.0
        while p >= 0 and counts[p] == size:
            # merge the two oldest buckets of this size into one of the
            # next size, which is then the newest of its size; totals are
            # unchanged
            for stat in (counts, self._sums, self._sumsqs):
                stat[p] += stat[p + 1]
                del stat[p + 1]
            p, size = p - _MAX_BUCKETS, 2 * size

    def _drop_oldest(self) -> None:
        for stat in (self._counts, self._sums, self._sumsqs):
            del stat[0]

    def update(self, v: float, scan: bool = True) -> bool:
        """Insert one value; returns True when a distribution shift was cut.

        A value that is not finite or exceeds ``WINDOW_VALUE_BOUND`` in
        magnitude raises ``ValueError`` before any bucket changes.
        ``scan=False`` is ``update_many``'s push: it has checked every value
        already, and it searches for cuts in many windows at once."""
        if scan:
            v = _window_value(v)
        self._counts.append(1.0)
        self._sums.append(v)
        self._sumsqs.append(v * v)
        # no size can have overflowed while the window holds at most
        # _MAX_BUCKETS buckets
        if len(self._counts) > _MAX_BUCKETS:
            self._compress()
        return scan and bool(_cut_windows([self]))

    # -- introspection --------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-data snapshot of the buckets, oldest first."""
        return {
            "delta": self.delta,
            "counts": self._counts.tolist(),
            "sums": self._sums.tolist(),
            "sumsqs": self._sumsqs.tolist(),
            "n_drifts": self.n_drifts,
        }


def _cut_windows(windows) -> set:
    """Cut every window until no cut is left; returns the windows cut.

    Each window drops its oldest bucket while its cut scan finds a cut, as
    ``update`` does after an insert.  One ``_kernels.adwin_cut`` call per
    round scans every window still cutting, and a window's count of drifts
    goes up once if it was cut."""
    cut = set()
    scanning = [w for w in windows if len(w._counts) >= 2]
    while scanning:
        rows = [len(w._counts) for w in scanning]
        width = max(rows)
        # one copy of every window's buffers, each zero-padded to the
        # widest, as a (window, statistic, row) stack
        pad = memoryview(bytes(8 * width))
        parts = []
        for w, r in zip(scanning, rows):
            tail = pad[8 * r:]
            parts += (w._counts, tail, w._sums, tail, w._sumsqs, tail)
        stats = np.frombuffer(b"".join(parts)).reshape(len(scanning), 3,
                                                        width)
        found = _kernels.adwin_cut(
            stats[:, 0], stats[:, 1], stats[:, 2],
            np.array([w.delta for w in scanning]), np.array(rows)).tolist()
        still = []
        for w, at in zip(scanning, found):
            if at < 0:
                continue
            w._drop_oldest()
            cut.add(w)
            if len(w._counts) >= 2:
                still.append(w)
        scanning = still
    for w in cut:
        w.n_drifts += 1
    return cut


def update_many(windows, values) -> list[bool]:
    """``[w.update(v) for w, v in zip(windows, values)]`` with the cut
    scans of every window in one kernel call per round.  Every value is
    checked before any window is fed, so one that ``update`` refuses raises
    ``ValueError`` with every window unchanged."""
    values = [_window_value(v) for v in values]
    for w, v in zip(windows, values):
        w.update(v, scan=False)
    cut = _cut_windows(windows)
    return [w in cut for w in windows]
