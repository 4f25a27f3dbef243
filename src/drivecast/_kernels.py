"""Hot numeric kernels in plain numpy.

Kernels here are the per-observation inner loops that dominate long runs:
the sliding-window KNN distance scan, the leaves' split-gain scan of the
incremental trees, and the adaptive-window cut scan of the drift detector.
Their arrays hold a few dozen values, so a numpy call costs more than its
arithmetic, and each kernel is written to make few of them.
Callers look each kernel up as ``_kernels.<name>`` at call time, so a
profiler that wraps the module attribute sees every call.
"""

from __future__ import annotations

import numpy as np

# Sub-windows shorter than this are never considered by the cut scan;
# keeps false positives down on freshly started windows.
_ADWIN_MIN_SUBWINDOW = 5.0


def sq_distances(points: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = points - x
    return np.einsum("ij,ij->i", diff, diff)


def split_gains(counts: np.ndarray, sums: np.ndarray, sumsqs: np.ndarray):
    """Best normalized variance reduction per feature over bin boundaries.

    counts/sums/sumsqs hold per-(feature, bin) target statistics.  Returns
    (best_gain, best_bin) arrays of length n_features; best_bin is -1 where
    no valid boundary exists.  Gains are (parent_var - weighted_child_var)
    normalized by parent_var, so they live in [0, 1].

    Every row is scored from its own bins alone: the rows of several
    leaves stacked into one call give, row for row, bit for bit, what one
    call per leaf gives.  The left-hand statistics of every boundary are
    the cumulative sums of the stack and the right-hand ones one
    subtraction from its totals; both sides are scored together.  A
    boundary counts only with a value on each side of a row of at least 2
    values and positive variance, so each division is left unguarded and
    the boundaries that fail are masked after the scan.
    """
    stats = np.stack((counts, sums, sumsqs))
    totals = stats.sum(axis=2)
    n, s, q = totals
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = s / n
        var = q / n - mu * mu
    row_ok = (n >= 2.0) & (var > 1e-12)
    if not row_ok.any():
        return np.zeros(len(n)), np.full(len(n), -1, dtype=np.int64)

    # (side, statistic, feature, boundary): left of each boundary, then right
    sides = np.empty((2,) + stats[:, :, :-1].shape)
    np.cumsum(stats[:, :, :-1], axis=2, out=sides[0])
    np.subtract(totals[:, :, None], sides[0], out=sides[1])
    cnt, sm, sq = sides[:, 0], sides[:, 1], sides[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        m = sm / cnt
        nv = cnt * np.maximum(sq / cnt - m * m, 0.0)
        child = (nv[0] + nv[1]) / n[:, None]
        red = (var[:, None] - child) / var[:, None]
    has = cnt >= 1.0
    red[~(has[0] & has[1] & row_ok[:, None])] = -1.0

    idx = red.argmax(axis=1)
    gain = red[np.arange(len(n)), idx]
    found = gain > 0.0
    return np.where(found, gain, 0.0), np.where(found, idx, -1)


def adwin_cut(counts: np.ndarray, sums: np.ndarray, sumsqs: np.ndarray,
              delta: float | np.ndarray, rows: np.ndarray | None = None):
    """First bucket index (oldest side) where the two sub-windows differ.

    Buckets are ordered oldest to newest.  Returns -1 when no cut point
    satisfies the variance-aware Hoeffding-style bound at confidence delta.

    Two-dimensional inputs are a stack of windows, one per row and
    left-aligned: window ``i`` is the first ``rows[i]`` columns (every
    column when ``rows`` is None), and ``delta`` may hold one confidence
    per window.  The result is then an integer array whose entry ``i``
    equals the one-dimensional call on window ``i`` alone.
    """
    if counts.ndim == 1:
        return int(adwin_cut(counts[None], sums[None], sumsqs[None],
                             delta)[0])
    k, width = counts.shape
    if width < 2:
        return np.full(k, -1)
    rows = np.full(k, width) if rows is None else np.asarray(rows)
    # a zero column before and after every window: reduceat then sums a
    # zero and the window's rows, grouping the terms as numpy's sum of
    # those rows alone does (the sum of a padded row groups them otherwise)
    stats = np.zeros((3, k, width + 2))
    stats[:, :, 1:-1] = (counts, sums, sumsqs)
    bounds = np.repeat(np.arange(0, k * (width + 2), width + 2), 2)
    bounds[1::2] += rows + 1
    n, total, sumsq = np.add.reduceat(stats.reshape(3, -1), bounds,
                                      axis=1)[:, ::2]
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = total / n
        var = np.maximum(sumsq / n - mean * mean, 0.0)[:, None]
        dd = np.log(2.0 * np.log(n) / delta)[:, None]

        n0, s0 = stats[:2, :, 1:width].cumsum(axis=-1)
        n1 = n[:, None] - n0
        s1 = total[:, None] - s0
        # no cut point lies past a window's rows; a window of fewer than
        # 2 rows or 2 values has none with 5 values on each side
        ok = ((n0 >= _ADWIN_MIN_SUBWINDOW) & (n1 >= _ADWIN_MIN_SUBWINDOW)
              & (np.arange(width - 1) < rows[:, None] - 1))
        minv = 1.0 / n0 + 1.0 / n1
        eps = np.sqrt(2.0 * minv * var * dd) + (2.0 / 3.0) * dd * minv
        diff = np.abs(s0 / n0 - s1 / n1)
    hit = ok & (diff > eps)
    first = hit.argmax(axis=1)
    return np.where(hit[np.arange(k), first], first, -1)
