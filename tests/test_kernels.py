"""Numeric kernels against brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivecast import _kernels


def brute_sq_distances(points, x):
    out = np.empty(len(points))
    for i, p in enumerate(points):
        acc = 0.0
        for a, b in zip(p, x):
            acc += (a - b) ** 2
        out[i] = acc
    return out


def brute_split_gains(samples_per_bin):
    """Best normalized variance reduction from raw per-bin sample lists.

    Variances use the n-denominator so the oracle matches sufficient
    statistics computed as E[y^2] - E[y]^2.
    """
    nonempty = [np.asarray(s, dtype=float) for s in samples_per_bin if len(s)]
    if not nonempty:
        return 0.0, -1
    everything = np.concatenate(nonempty)
    if len(everything) < 2:
        return 0.0, -1
    var = np.var(everything)
    if var <= 1e-12:
        return 0.0, -1
    best_gain, best_bin = 0.0, -1
    for b in range(len(samples_per_bin) - 1):
        left = np.concatenate([s for s in samples_per_bin[: b + 1] if len(s)] or [np.empty(0)])
        right = np.concatenate([s for s in samples_per_bin[b + 1:] if len(s)] or [np.empty(0)])
        if len(left) < 1 or len(right) < 1:
            continue
        child = (len(left) * np.var(left) + len(right) * np.var(right)) / len(everything)
        gain = (var - child) / var
        if gain > best_gain:
            best_gain, best_bin = gain, b
    return best_gain, best_bin


def bins_to_stats(samples_per_bin):
    n_bins = len(samples_per_bin)
    counts = np.zeros((1, n_bins))
    sums = np.zeros((1, n_bins))
    sumsqs = np.zeros((1, n_bins))
    for b, s in enumerate(samples_per_bin):
        s = np.asarray(s, dtype=float)
        counts[0, b] = len(s)
        sums[0, b] = s.sum()
        sumsqs[0, b] = (s ** 2).sum()
    return counts, sums, sumsqs


class TestSqDistances:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            points = rng.normal(size=(50, 7))
            x = rng.normal(size=7)
            np.testing.assert_allclose(
                _kernels.sq_distances(points, x),
                brute_sq_distances(points, x),
                rtol=1e-12, atol=1e-12,
            )

    def test_zero_for_identical_point(self):
        points = np.array([[1.0, 2.0], [3.0, 4.0]])
        d = _kernels.sq_distances(points, np.array([3.0, 4.0]))
        assert d[1] == 0.0 and d[0] > 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(8, 3)) * 10
        x = rng.normal(size=3)
        assert (_kernels.sq_distances(points, x) >= 0.0).all()


class TestSplitGains:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n_bins = int(rng.integers(2, 12))
            samples = [rng.normal(loc=rng.normal() * 3, size=rng.integers(0, 15))
                       for _ in range(n_bins)]
            counts, sums, sumsqs = bins_to_stats(samples)
            gain, bin_ = _kernels.split_gains(counts, sums, sumsqs)
            want_gain, want_bin = brute_split_gains(samples)
            assert bin_[0] == want_bin
            np.testing.assert_allclose(gain[0], want_gain, rtol=1e-9, atol=1e-9)

    def test_perfect_split_two_clusters(self):
        # bins 0-4 hold value 0, bins 5-9 hold value 10: cutting at bin 4
        # removes all variance
        samples = [[0.0] * 5 for _ in range(5)] + [[10.0] * 5 for _ in range(5)]
        counts, sums, sumsqs = bins_to_stats(samples)
        gain, bin_ = _kernels.split_gains(counts, sums, sumsqs)
        assert bin_[0] == 4
        assert gain[0] == pytest.approx(1.0)

    def test_constant_target_no_split(self):
        samples = [[5.0, 5.0], [5.0, 5.0], [5.0]]
        counts, sums, sumsqs = bins_to_stats(samples)
        gain, bin_ = _kernels.split_gains(counts, sums, sumsqs)
        assert bin_[0] == -1 and gain[0] == 0.0

    def test_single_observation_no_split(self):
        counts, sums, sumsqs = bins_to_stats([[3.0], [], []])
        gain, bin_ = _kernels.split_gains(counts, sums, sumsqs)
        assert bin_[0] == -1

    def test_multiple_features_independent(self):
        rng = np.random.default_rng(2)
        per_feature = [
            [rng.normal(size=5).tolist() for _ in range(6)],
            [[0.0] * 3, [0.0] * 3, [9.0] * 3, [9.0] * 3, [], []],
        ]
        stats = [bins_to_stats(s) for s in per_feature]
        counts = np.vstack([s[0] for s in stats])
        sums = np.vstack([s[1] for s in stats])
        sumsqs = np.vstack([s[2] for s in stats])
        gain, bin_ = _kernels.split_gains(counts, sums, sumsqs)
        for f in range(2):
            want_gain, want_bin = brute_split_gains(per_feature[f])
            assert bin_[f] == want_bin
            np.testing.assert_allclose(gain[f], want_gain, rtol=1e-9, atol=1e-9)
        assert bin_[1] == 1 and gain[1] == pytest.approx(1.0)


class TestStackedSplitGains:
    @staticmethod
    def leaf(rng, m, n_bins):
        """(statistic, feature, bin) histogram of one leaf, as weighted
        targets fill it: some features hold fewer than 2 values, some put
        every value in one bin, some see one target value only."""
        stats = np.zeros((3, m, n_bins))
        kinds = rng.integers(0, 4, m)
        for f, kind in enumerate(kinds):
            if kind == 0:
                cells = rng.integers(0, n_bins, rng.integers(0, 2))
            elif kind == 1:
                cells = np.full(rng.integers(2, 30), rng.integers(0, n_bins))
            else:
                cells = rng.integers(0, n_bins, rng.integers(2, 80))
            ys = rng.normal(rng.normal() * 3, rng.uniform(0.1, 5), len(cells))
            if kind == 3:
                ys[:] = ys[0]
            w = rng.integers(1, 13, len(cells)).astype(float)
            np.add.at(stats[0, f], cells, w)
            np.add.at(stats[1, f], cells, w * ys)
            np.add.at(stats[2, f], cells, w * ys * ys)
        return stats

    def test_every_leaf_equals_its_own_scan(self):
        """Rows of several leaves stacked into one call give, row for row
        and bit for bit, the gains and bins of one call per leaf: the
        forest scores all split attempts of an observation in one call."""
        rng = np.random.default_rng(16)
        short = one_bin = found = 0
        for _ in range(300):
            n_bins = int(rng.integers(2, 20))
            leaves = [self.leaf(rng, int(rng.integers(1, 7)), n_bins)
                      for _ in range(int(rng.integers(1, 9)))]
            gains, bins = _kernels.split_gains(*np.concatenate(leaves, axis=1))
            alone = [_kernels.split_gains(*leaf) for leaf in leaves]
            assert gains.tobytes() == np.concatenate(
                [g for g, _ in alone]).tobytes()
            assert bins.tobytes() == np.concatenate(
                [b for _, b in alone]).tobytes()
            counts = np.concatenate([leaf[0] for leaf in leaves])
            short += int((counts.sum(axis=1) < 2).sum())
            one_bin += int(((counts > 0).sum(axis=1) == 1).sum())
            found += int((bins >= 0).sum())
        assert short > 300 and one_bin > 1000 and found > 600


def reference_split_gains(counts, sums, sumsqs):
    """The split-gain scan as first written, with a guard on every
    division and both sides built separately: the faster kernel must give
    its gains and bins bit for bit."""
    stats = np.stack((counts, sums, sumsqs))
    n, s, q = stats.sum(axis=2)

    n_feat, n_bins = counts.shape
    best_gain = np.zeros(n_feat)
    best_bin = np.full(n_feat, -1, dtype=np.int64)

    valid_parent = n >= 2.0
    if not valid_parent.any():
        return best_gain, best_bin
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = np.where(n > 0, s / np.maximum(n, 1.0), 0.0)
        var = np.where(n > 0, q / np.maximum(n, 1.0) - mu * mu, 0.0)

    n0, s0, q0 = np.cumsum(stats[:, :, :-1], axis=2)
    n1 = n[:, None] - n0
    s1 = s[:, None] - s0
    q1 = q[:, None] - q0

    ok = ((n0 >= 1.0) & (n1 >= 1.0) & valid_parent[:, None]
          & (var[:, None] > 1e-12))
    with np.errstate(divide="ignore", invalid="ignore"):
        m0 = s0 / np.maximum(n0, 1.0)
        m1 = s1 / np.maximum(n1, 1.0)
        v0 = np.maximum(q0 / np.maximum(n0, 1.0) - m0 * m0, 0.0)
        v1 = np.maximum(q1 / np.maximum(n1, 1.0) - m1 * m1, 0.0)
        child = (n0 * v0 + n1 * v1) / np.maximum(n[:, None], 1.0)
        red = (var[:, None] - child) / np.where(var[:, None] > 1e-12,
                                                var[:, None], 1.0)
    red = np.where(ok, red, -1.0)

    idx = np.argmax(red, axis=1)
    gain = red[np.arange(n_feat), idx]
    found = gain > 0.0
    best_gain[found] = gain[found]
    best_bin[found] = idx[found]
    return best_gain, best_bin


class TestSplitGainsOracle:
    @staticmethod
    def leaf(rng, m, n_bins):
        """A leaf's histogram with every hard row: fewer than 2 values, one
        occupied bin, one target value only, and two occupied bins with
        empty ones between, whose boundaries all tie; weights include 0
        and fractions, as a tree's ``learn_one`` may take."""
        stats = np.zeros((3, m, n_bins))
        for f in range(m):
            kind = int(rng.integers(0, 5))
            if kind == 0:
                cells = rng.integers(0, n_bins, rng.integers(0, 3))
            elif kind == 1:
                cells = np.full(rng.integers(1, 20), rng.integers(0, n_bins))
            elif kind == 4:
                ends = np.sort(rng.choice(n_bins, 2, replace=False))
                cells = rng.choice(ends, rng.integers(2, 20))
            else:
                cells = rng.integers(0, n_bins, rng.integers(2, 60))
            ys = rng.normal(rng.normal() * 3, rng.uniform(0.1, 5), len(cells))
            if kind == 3:
                ys[:] = ys[0]
            w = rng.choice([0.0, 0.5, 1.0, 2.0, 3.0, 7.0], len(cells))
            np.add.at(stats[0, f], cells, w)
            np.add.at(stats[1, f], cells, w * ys)
            np.add.at(stats[2, f], cells, w * ys * ys)
        if m > 1 and rng.random() < 0.3:
            stats[:, -1] = stats[:, 0]  # a tie between two features
        return stats

    def test_equals_reference_bit_for_bit(self):
        rng = np.random.default_rng(20)
        short = one_bin = flat = tied = found = 0
        for _ in range(400):
            n_bins = int(rng.integers(2, 16))
            stats = self.leaf(rng, int(rng.integers(1, 13)), n_bins)
            gains, bins = _kernels.split_gains(*stats)
            want_gains, want_bins = reference_split_gains(*stats)
            assert gains.tobytes() == want_gains.tobytes()
            assert bins.tobytes() == want_bins.tobytes()
            assert bins.dtype == want_bins.dtype
            n = stats[0].sum(axis=1)
            short += int((n < 2).sum())
            one_bin += int(((stats[0] > 0).sum(axis=1) == 1).sum())
            with np.errstate(divide="ignore", invalid="ignore"):
                var = stats[2].sum(axis=1) / n - (stats[1].sum(axis=1) / n) ** 2
            flat += int(((n >= 2) & (np.abs(var) <= 1e-12)).sum())
            found += int((bins >= 0).sum())
            # two occupied bins with an empty one between: every boundary
            # from the first to the one before the second scores the same
            occupied = [np.flatnonzero(c) for c in stats[0]]
            tied += sum(len(o) == 2 and o[1] - o[0] > 1 and b >= 0
                        for o, b in zip(occupied, bins))
        assert min(short, one_bin, flat, tied) > 100 and found > 500

    def test_ties_within_a_row_take_the_first_boundary(self):
        # values only in bins 1 and 5: boundaries 1 to 4 split alike
        stats = np.zeros((3, 1, 8))
        stats[:, 0, 1] = (2.0, 2.0, 2.0)
        stats[:, 0, 5] = (3.0, 30.0, 300.0)
        gains, bins = _kernels.split_gains(*stats)
        assert bins.tolist() == [1] and gains[0] == pytest.approx(1.0)
        assert gains.tobytes() == reference_split_gains(*stats)[0].tobytes()


def brute_adwin_cut(counts, sums, sumsqs, delta):
    import math
    rows = len(counts)
    n = float(sum(counts))
    if rows < 2 or n < 2:
        return -1
    mean = sum(sums) / n
    var = max(sum(sumsqs) / n - mean * mean, 0.0)
    dd = math.log(2.0 * math.log(n) / delta)
    n0 = s0 = 0.0
    for r in range(rows - 1):
        n0 += counts[r]
        s0 += sums[r]
        n1, s1 = n - n0, sum(sums) - s0
        if n0 < 5 or n1 < 5:
            continue
        minv = 1.0 / n0 + 1.0 / n1
        eps = math.sqrt(2.0 * minv * var * dd) + (2.0 / 3.0) * dd * minv
        if abs(s0 / n0 - s1 / n1) > eps:
            return r
    return -1


class TestAdwinCut:
    @staticmethod
    def bucketize(values, size=4):
        values = np.asarray(values, dtype=float)
        k = len(values) // size
        chunks = np.split(values[: k * size], k) if k else []
        counts = np.array([float(size)] * k)
        sums = np.array([c.sum() for c in chunks])
        sumsqs = np.array([(c ** 2).sum() for c in chunks])
        return counts, sums, sumsqs

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            values = rng.normal(size=int(rng.integers(8, 200)))
            if rng.random() < 0.5:
                values[len(values) // 2:] += rng.normal() * 4
            counts, sums, sumsqs = self.bucketize(values)
            if len(counts) < 2:
                continue
            got = _kernels.adwin_cut(counts, sums, sumsqs, 0.002)
            want = brute_adwin_cut(counts, sums, sumsqs, 0.002)
            assert got == want

    def test_detects_large_shift(self):
        rng = np.random.default_rng(4)
        values = np.concatenate([rng.normal(0, 0.3, 200), rng.normal(8, 0.3, 200)])
        counts, sums, sumsqs = self.bucketize(values)
        assert _kernels.adwin_cut(counts, sums, sumsqs, 0.002) >= 0

    def test_no_cut_on_stationary(self):
        rng = np.random.default_rng(5)
        values = rng.normal(2.0, 1.0, 400)
        counts, sums, sumsqs = self.bucketize(values)
        assert _kernels.adwin_cut(counts, sums, sumsqs, 0.002) == -1

    def test_tiny_windows_never_cut(self):
        counts = np.array([2.0, 2.0])
        sums = np.array([0.0, 200.0])
        sumsqs = np.array([0.0, 20000.0])
        assert _kernels.adwin_cut(counts, sums, sumsqs, 0.002) == -1


def numpy_adwin_cut(counts, sums, sumsqs, delta):
    """The one-window numpy scan the stacked kernel must reproduce bit for
    bit: totals from numpy's sum of the window's own rows."""
    rows = counts.shape[0]
    if rows < 2:
        return -1
    n = counts.sum()
    if n < 2.0:
        return -1
    total = sums.sum()
    mean = total / n
    var = max(sumsqs.sum() / n - mean * mean, 0.0)
    dd = np.log(2.0 * np.log(n) / delta)
    n0 = counts[:-1].cumsum()
    s0 = sums[:-1].cumsum()
    n1 = n - n0
    s1 = total - s0
    ok = (n0 >= 5.0) & (n1 >= 5.0)
    if not ok.any():
        return -1
    with np.errstate(divide="ignore", invalid="ignore"):
        minv = 1.0 / n0 + 1.0 / n1
        eps = np.sqrt(2.0 * minv * var * dd) + (2.0 / 3.0) * dd * minv
        diff = np.abs(s0 / n0 - s1 / n1)
    hit = ok & (diff > eps)
    return int(np.argmax(hit)) if hit.any() else -1


class TestStackedAdwinCut:
    @staticmethod
    def window(rng, rows):
        """Exponential-histogram-like buckets, oldest (largest) first, with
        a shift planted at a random row; some have fewer than 2 values."""
        if rng.random() < 0.1:
            counts = rng.integers(0, 2, rows).astype(float)
        else:
            counts = np.sort(2.0 ** rng.integers(0, 8, rows))[::-1]
        at = rng.integers(0, rows + 1)
        means = np.where(np.arange(rows) < at, rng.uniform(0, 3),
                         rng.uniform(0, 3))
        values = rng.normal(means, rng.uniform(0.01, 2.0), rows)
        return (counts, counts * values,
                counts * (values ** 2 + rng.uniform(0, 1, rows)))

    def test_every_window_equals_its_own_scan(self):
        rng = np.random.default_rng(11)
        cuts = short = 0
        for _ in range(400):
            k = int(rng.integers(1, 16))
            rows = rng.integers(0, 61, k)
            rows[rng.random(k) < 0.1] = rng.integers(0, 2)
            windows = [self.window(rng, int(r)) for r in rows]
            width = int(rows.max() + rng.integers(0, 9))
            # columns past a window's rows hold leftovers, as a window's
            # buffer does after buckets merge or drop
            stack = rng.uniform(-50, 50, (3, k, width))
            for i, win in enumerate(windows):
                stack[:, i, :rows[i]] = win
            deltas = rng.choice([0.01, 0.002], k)
            got = _kernels.adwin_cut(*stack, deltas, rows)
            want = [numpy_adwin_cut(*win, d) for win, d in zip(windows, deltas)]
            assert got.tolist() == want
            for win, d, w in zip(windows, deltas, want):
                if len(win[0]):
                    assert _kernels.adwin_cut(*win, d) == w
            cuts += sum(w >= 0 for w in want)
            short += sum(r < 2 or c.sum() < 2 for r, (c, _, _)
                         in zip(rows, windows))
        assert cuts > 100 and short > 20

    @staticmethod
    def on_the_boundary(rng, rows, delta):
        """Two windows whose planted shifts are adjacent floats, the smaller
        one just short of a cut: their decisions turn on the last bit of
        the window totals, so a total summed in another order shows."""
        counts = np.sort(2.0 ** rng.integers(0, 6, rows))[::-1]
        at = int(rng.integers(2, rows - 1))
        base = rng.normal(1.0, 0.3, rows)

        def window(shift):
            values = base + np.where(np.arange(rows) >= at, shift, 0.0)
            return counts, counts * values, counts * (values ** 2 + 0.05)

        lo, hi = 0.0, 8.0
        if (numpy_adwin_cut(*window(lo), delta) >= 0
                or numpy_adwin_cut(*window(hi), delta) < 0):
            return []
        while lo < (mid := (lo + hi) / 2.0) < hi:
            if numpy_adwin_cut(*window(mid), delta) >= 0:
                hi = mid
            else:
                lo = mid
        return [window(lo), window(hi)]

    def test_decisions_on_the_boundary_match(self):
        rng = np.random.default_rng(14)
        windows = []
        while len(windows) < 120:
            windows += self.on_the_boundary(rng, int(rng.integers(9, 61)),
                                            0.002)
        rows = np.array([len(w[0]) for w in windows])
        stack = rng.uniform(-50, 50, (3, len(windows), rows.max() + 3))
        for i, win in enumerate(windows):
            stack[:, i, :rows[i]] = win
        got = _kernels.adwin_cut(*stack, 0.002, rows)
        want = [numpy_adwin_cut(*w, 0.002) for w in windows]
        assert got.tolist() == want
        assert want[::2].count(-1) == len(windows) // 2
        assert -1 not in want[1::2]

    def test_long_windows_match(self):
        """Past 128 rows numpy splits a sum in halves."""
        rng = np.random.default_rng(12)
        rows = np.array([129, 200, 300, 7])
        windows = [self.window(rng, int(r)) for r in rows]
        stack = np.zeros((3, len(rows), rows.max()))
        for i, win in enumerate(windows):
            stack[:, i, :rows[i]] = win
        got = _kernels.adwin_cut(*stack, 0.002, rows)
        assert got.tolist() == [numpy_adwin_cut(*w, 0.002) for w in windows]

    def test_full_rows_by_default_and_narrow_stacks(self):
        rng = np.random.default_rng(13)
        stack = np.stack([np.stack(self.window(rng, 12)) for _ in range(3)],
                         axis=1)
        got = _kernels.adwin_cut(*stack, 0.002)
        assert got.tolist() == [numpy_adwin_cut(*stack[:, i], 0.002)
                                for i in range(3)]
        assert _kernels.adwin_cut(*np.ones((3, 2, 1)), 0.002).tolist() == \
            [-1, -1]

