"""Quantile sketch accuracy/merge/memory and adaptive-window behavior."""

import copy
import hashlib
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivecast import streaming
from drivecast.exceptions import InsufficientHistoryError
from drivecast.streaming import (_MAX_BUCKETS, AdwinWindow, KllSketch,
                                  describe, update_many)

QS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)

# digests of fixed streams through both primitives, recorded while their
# floats were still held in Python lists and a numpy bucket matrix; a change
# to how they store floats must not move any of them
GOLDEN_ADWIN_DIGEST = (
    "359c8eaa050b5e8489739fef330e086f"
    "a40771f6bfd9f7233c7b00b253fd197c")
# the pooled items and quantiles; re-recorded when ``describe`` came to
# answer quantiles only
GOLDEN_POOL_DIGEST = (
    "9721dc6feefb31e08ff6e9a46b36ed7f"
    "e41eb7c93edd5fce4a0a728587dcfb2a")
# the pooled quantiles alone; recorded while ``describe`` still fitted a
# Gaussian and sorted the pooled items stably, and no faster query may
# move them
GOLDEN_POOL_QUANTILES_DIGEST = (
    "592dcc92cd124ee016ded7def95227fc"
    "1b344401c7b14bd9afa9b79ce32e39da")
GOLDEN_PICKLE_DIGEST = (
    "962fd03a9fe0596648cc5528fe60bb94"
    "f01f82449fd7f03ed24d92f023917810")


def rank_error(sketch, data, q):
    """|estimated rank - true rank| / n for the sketch's answer at q."""
    answer = sketch.quantile(q)
    true_rank = np.searchsorted(np.sort(data), answer, side="right")
    return abs(true_rank / len(data) - q)


def answers(sketch):
    """Everything the sketch tells a caller: its count, retained size,
    quantile at every percent, and fitted moments."""
    return (sketch.n, sketch.retained_items(),
            [sketch.quantile(q) for q in np.linspace(0.0, 1.0, 101)],
            sketch.moments())


class TestKllSketch:
    def test_exact_when_everything_fits(self):
        sk = KllSketch(k=64, seed=1)
        data = np.random.default_rng(1).normal(size=50)
        for v in data:
            sk.insert(v)
        s = np.sort(data)
        for q in QS:
            want = s[min(int(math.ceil(max(q * len(s), 1))) - 1, len(s) - 1)]
            assert sk.quantile(q) == want

    def test_rank_error_bound_large_stream(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=100_000)
        sk = KllSketch(k=200, seed=7)
        for v in data:
            sk.insert(v)
        for q in QS:
            assert rank_error(sk, data, q) <= 0.02

    def test_rank_error_skewed_stream(self):
        rng = np.random.default_rng(8)
        data = rng.lognormal(mean=2.0, sigma=1.0, size=50_000)
        sk = KllSketch(k=200, seed=8)
        for v in data:
            sk.insert(v)
        for q in QS:
            assert rank_error(sk, data, q) <= 0.02

    def test_memory_stays_logarithmic(self):
        sk = KllSketch(k=128, seed=2)
        rng = np.random.default_rng(2)
        for v in rng.normal(size=200_000):
            sk.insert(v)
        budget = 4 * 128 * math.log2(200_000 / 128)
        assert sk.retained_items() <= budget

    def test_total_weight_preserved(self):
        sk = KllSketch(k=32, seed=3)
        for v in np.random.default_rng(3).normal(size=5000):
            sk.insert(v)
        _, w = streaming._weighted_items([sk])
        assert w.sum() == sk.n == 5000

    def test_quantile_monotone_and_member(self):
        sk = KllSketch(k=32, seed=4)
        data = np.random.default_rng(4).uniform(size=3000)
        for v in data:
            sk.insert(v)
        answers = [sk.quantile(q) for q in np.linspace(0, 1, 21)]
        assert answers == sorted(answers)
        pool = set(data.tolist())
        assert all(a in pool for a in answers)

    def test_deterministic_for_seed(self):
        data = np.random.default_rng(5).normal(size=4000)
        a, b = KllSketch(k=64, seed=9), KllSketch(k=64, seed=9)
        for v in data:
            a.insert(v)
            b.insert(v)
        assert answers(a) == answers(b)

    def test_merge_accuracy(self):
        rng = np.random.default_rng(6)
        left = rng.normal(0, 1, 30_000)
        right = rng.normal(4, 2, 20_000)
        a, b = KllSketch(k=200, seed=1), KllSketch(k=200, seed=2)
        for v in left:
            a.insert(v)
        for v in right:
            b.insert(v)
        merged = KllSketch.merge(a, b)
        union = np.concatenate([left, right])
        assert merged.n == len(union)
        for q in QS:
            assert rank_error(merged, union, q) <= 0.02

    def test_merge_symmetric(self):
        rng = np.random.default_rng(9)
        a, b = KllSketch(k=32, seed=11), KllSketch(k=32, seed=22)
        for v in rng.normal(size=2000):
            a.insert(v)
        for v in rng.normal(3, 1, size=1500):
            b.insert(v)
        ab, ba = KllSketch.merge(a, b), KllSketch.merge(b, a)
        for q in QS:
            assert ab.quantile(q) == ba.quantile(q)

    def test_merge_leaves_inputs_untouched(self):
        def filled(seed, sign):
            sk = KllSketch(k=16, seed=seed)
            for v in range(100):
                sk.insert(sign * float(v))
            return sk

        a, b = filled(1, 1.0), filled(2, -1.0)
        KllSketch.merge(a, b)
        for sk, twin in ((a, filled(1, 1.0)), (b, filled(2, -1.0))):
            assert answers(sk) == answers(twin)
            # the coin flips too: later compactions still agree
            for v in range(100, 400):
                sk.insert(float(v))
                twin.insert(float(v))
            assert answers(sk) == answers(twin)

    @pytest.mark.parametrize("count", range(21))
    def test_weighted_insert_equals_single_inserts(self, count):
        # k=8 fills at 9 items, so the prefills put the bulk insert before,
        # on and across one or more compaction points
        for prefill in range(2, 40):
            bulk, single = (KllSketch(k=8, seed=prefill) for _ in range(2))
            for v in range(prefill):
                bulk.insert(float(v % 7))
                single.insert(float(v % 7))
            bulk.insert(2.5, count)
            for _ in range(count):
                single.insert(2.5)
            assert bulk._levels == single._levels
            assert answers(bulk) == answers(single)
            # and the coin flips: later compactions still agree
            for v in range(50):
                bulk.insert(v / 3.0)
                single.insert(v / 3.0)
            assert bulk._levels == single._levels

    def test_weighted_insert_rejects_negative_count(self):
        with pytest.raises(ValueError):
            KllSketch(k=8).insert(1.0, -1)

    def test_describe_matches_separate_queries(self):
        sk = KllSketch(k=16, seed=4)
        for v in np.random.default_rng(13).lognormal(size=700):
            sk.insert(v)
        qs = (0.05, 0.5, 0.95)
        assert describe([sk], qs) == [sk.quantile(q) for q in qs]

    def test_merge_mismatched_k_rejected(self):
        with pytest.raises(ValueError):
            KllSketch.merge(KllSketch(k=16), KllSketch(k=32))

    def test_moments_normal_data(self):
        rng = np.random.default_rng(10)
        sk = KllSketch(k=200, seed=10)
        for v in rng.normal(5.0, 2.0, 50_000):
            sk.insert(v)
        mean, std = sk.moments()
        assert mean == pytest.approx(5.0, abs=0.1)
        assert std == pytest.approx(2.0, abs=0.15)

    def test_moments_exact_small(self):
        sk = KllSketch(k=64, seed=0)
        for v in (1.0, 2.0, 3.0, 4.0):
            sk.insert(v)
        mean, std = sk.moments()
        assert mean == pytest.approx(2.5)
        assert std == pytest.approx(np.std([1, 2, 3, 4], ddof=1))

    def test_error_cases(self):
        sk = KllSketch(k=16)
        with pytest.raises(InsufficientHistoryError):
            sk.quantile(0.5)
        with pytest.raises(InsufficientHistoryError):
            sk.moments()
        sk.insert(1.0)
        with pytest.raises(ValueError):
            sk.quantile(1.5)
        with pytest.raises(ValueError):
            sk.insert(float("nan"))
        with pytest.raises(ValueError):
            sk.insert(float("inf"))
        with pytest.raises(ValueError):
            KllSketch(k=4)
        for seed in (-1, 1.5, "3", None):
            with pytest.raises(ValueError):
                KllSketch(64, seed=seed)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=300),
           st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_quantile_always_an_inserted_value(self, values, q):
        sk = KllSketch(k=8, seed=0)
        for v in values:
            sk.insert(v)
        assert sk.quantile(q) in values


def filled_sketches(rng, n_sketches):
    """Sketches of assorted k and stream lengths, so their heights differ;
    an empty one among them adds nothing to a pool."""
    sketches = []
    for i in range(n_sketches):
        sk = KllSketch(k=int(rng.choice([8, 16, 32, 64])),
                       seed=int(rng.integers(2 ** 31)))
        for v in rng.normal(i, 1.0 + i, int(rng.integers(0, 3000))):
            sk.insert(v)
        sketches.append(sk)
    return sketches


def expanded(sketches) -> list[float]:
    """Pure-Python reference for the pooled stream: every item of level h
    repeated 2^h times, sorted."""
    return sorted(v for sk in sketches for h, lvl in enumerate(sk._levels)
                  for v in lvl for _ in range(2 ** h))


def expanded_quantile(values, n, q):
    """The reference's value at rank ceil(max(q * n, 1))."""
    rank = math.ceil(max(q * n, 1.0))
    return values[min(rank, len(values)) - 1]


class TestDescribe:
    """``describe`` answers for the pooled streams of several sketches
    from their weighted retained items, with no compaction."""

    @pytest.mark.parametrize("k, size", [(8, 2), (64, 5000), (32, 129)])
    def test_one_sketch_equals_its_own_queries(self, k, size):
        sk = KllSketch(k=k, seed=4)
        for v in np.random.default_rng(13).lognormal(size=size):
            sk.insert(v)
        qs = (0.0, 0.05, 0.5, 0.95, 1.0)
        assert describe([sk], qs) == [sk.quantile(q) for q in qs]

    @pytest.mark.parametrize("seed", range(12))
    def test_pooled_quantiles_equal_expanded_reference(self, seed):
        rng = np.random.default_rng(seed)
        sketches = filled_sketches(rng, int(rng.integers(2, 13)))
        assert max(len(sk._levels) for sk in sketches) > 1
        qs = list(np.linspace(0.0, 1.0, 41)) + [0.05, 0.95]
        quantiles = describe(sketches, qs)
        values = expanded(sketches)
        n = sum(sk.n for sk in sketches)
        assert len(values) == n
        assert quantiles == [expanded_quantile(values, n, q) for q in qs]

    def test_pooled_inputs_are_untouched(self):
        sketches = filled_sketches(np.random.default_rng(21), 6)
        before = pickle.dumps(sketches)
        describe(sketches, (0.05, 0.95))
        assert pickle.dumps(sketches) == before

    def test_disjoint_streams_rank_error(self):
        rng = np.random.default_rng(6)
        streams = [rng.normal(0, 1, 30_000), rng.normal(4, 2, 20_000),
                   rng.lognormal(1.0, 0.5, 10_000)]
        sketches = []
        for i, data in enumerate(streams):
            sk = KllSketch(k=200, seed=i + 1)
            for v in data:
                sk.insert(v)
            sketches.append(sk)
        pooled = np.sort(np.concatenate(streams))
        quantiles = describe(sketches, QS)
        for q, answer in zip(QS, quantiles):
            true_rank = np.searchsorted(pooled, answer, side="right")
            assert abs(true_rank / len(pooled) - q) <= 0.02

    def test_needs_two_values_and_valid_qs(self):
        one = KllSketch(k=8)
        one.insert(1.0)
        for sketches in ([], [KllSketch(k=8)], [one, KllSketch(k=16)]):
            with pytest.raises(InsufficientHistoryError):
                describe(sketches, (0.5,))
        two = [one, copy.deepcopy(one)]
        assert describe(two, (0.5,)) == [1.0]
        with pytest.raises(ValueError):
            describe(two, (1.5,))


class TestAdwinWindow:
    def test_mean_tracks_stationary_stream_exactly(self):
        w = AdwinWindow(delta=0.002)
        values = np.random.default_rng(0).normal(3.0, 0.1, 500)
        drifted = False
        for v in values:
            drifted |= w.update(v)
        assert not drifted
        assert w.width == 500
        assert w.mean == pytest.approx(values.mean(), rel=1e-12)

    def test_bucket_counts_bounded(self):
        w = AdwinWindow(delta=0.002)
        for v in np.random.default_rng(1).normal(size=2000):
            w.update(v)
            counts = w.to_dict()["counts"]
            # sizes are powers of two, oldest first never smaller, and at
            # most five buckets of any one size
            assert all(c >= 1 and math.log2(c).is_integer() for c in counts)
            assert all(a >= b for a, b in zip(counts, counts[1:]))
            assert max(Counter(counts).values()) <= 5
            assert sum(counts) == w.width

    def test_rows_scanned_per_update_stay_bounded(self, monkeypatch):
        """Each cut scan reads a window's bucket rows: at most
        ``_MAX_BUCKETS`` of every size up to the window's width, so about
        ``_MAX_BUCKETS * log2(width)``.  The rows scanned per update stay
        flat from observation 1e3 to 1e4 of a stationary stream."""
        adwin_cut, scanned = streaming._kernels.adwin_cut, []

        def counted(counts, sums, sumsqs, deltas, rows):
            for row, r in zip(counts.tolist(), rows.tolist()):
                width = sum(row[:r])
                assert r <= _MAX_BUCKETS * (math.floor(math.log2(width)) + 1)
                scanned[-1] += r
            return adwin_cut(counts, sums, sumsqs, deltas, rows)

        monkeypatch.setattr(streaming._kernels, "adwin_cut", counted)
        w = AdwinWindow(delta=0.002)
        for v in np.random.default_rng(5).normal(size=10_000):
            scanned.append(0)
            w.update(v)
        early, late = np.mean(scanned[1000:2000]), np.mean(scanned[-1000:])
        assert early > 0
        assert late <= 1.5 * early, (early, late)

    def test_detects_step_change_quickly(self):
        rng = np.random.default_rng(2)
        w = AdwinWindow(delta=0.002)
        for v in rng.normal(0.0, 0.5, 500):
            assert not w.update(v)
        detected_at = None
        for i, v in enumerate(rng.normal(5.0, 0.5, 100)):
            if w.update(v):
                detected_at = i
                break
        assert detected_at is not None and detected_at < 50
        assert w.width < 500

    def test_window_shrinks_to_recent_regime(self):
        rng = np.random.default_rng(3)
        w = AdwinWindow(delta=0.002)
        for v in rng.normal(0.0, 0.3, 400):
            w.update(v)
        for v in rng.normal(4.0, 0.3, 400):
            w.update(v)
        assert w.mean == pytest.approx(4.0, abs=0.3)

    def test_false_positive_rate_low(self):
        alarms = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            w = AdwinWindow(delta=0.002)
            for v in rng.normal(size=2000):
                alarms += w.update(v)
        assert alarms <= 3

    def test_gradual_drift_keeps_mean_current(self):
        rng = np.random.default_rng(4)
        w = AdwinWindow(delta=0.002)
        for t in range(3000):
            w.update(t / 300.0 + rng.normal(0, 0.2))
        assert w.mean == pytest.approx(3000 / 300.0, abs=1.5)

    @pytest.mark.parametrize("warn_delta, drift_delta", [
        (0.01, 0.002), (0.002, 0.002), (0.002, 0.01)])
    def test_paired_scan_equals_independent_windows(self, monkeypatch,
                                                    warn_delta, drift_delta):
        rng = np.random.default_rng(5)
        stream = np.concatenate([rng.normal(0.0, 1.0, 700),
                                 rng.normal(1.5, 1.0, 700),
                                 rng.normal(-1.0, 2.0, 700)])
        scans = [0]
        adwin_cut = streaming._kernels.adwin_cut

        def counted(*args):
            scans[0] += 1
            return adwin_cut(*args)

        monkeypatch.setattr(streaming._kernels, "adwin_cut", counted)

        def run(update):
            """Flags per value; both windows restart after a drift, as
            the forest's do."""
            def pair():
                return AdwinWindow(warn_delta), AdwinWindow(drift_delta)

            warn, drift = pair()
            flags = []
            scans[0] = 0
            for v in stream:
                flags.append(update(warn, drift, v))
                if flags[-1][1]:
                    warn, drift = pair()
            return flags, scans[0], (warn.to_dict(), drift.to_dict())

        paired = run(lambda w, d, v: tuple(update_many([w, d], [v, v])))
        alone = run(lambda w, d, v: (w.update(v), d.update(v)))
        assert paired[0] == alone[0]
        assert paired[2] == alone[2]
        assert any(d for _, d in alone[0])
        if warn_delta > drift_delta:
            # the windows also fell out of step: a warning without a drift
            assert any(w and not d for w, d in alone[0])
        # both windows of a step share one kernel call per scan round
        assert paired[1] < alone[1]

    @pytest.mark.parametrize("warn_delta, drift_delta", [
        (0.01, 0.002), (0.002, 0.002), (0.002, 0.01)])
    def test_batched_pairs_equal_one_pair_at_a_time(self, monkeypatch,
                                                    warn_delta, drift_delta):
        """``update_many`` gives every window the flags and buckets that
        its own ``update`` gives it, in one kernel call per scan round."""
        rng = np.random.default_rng(6)
        n_pairs, steps = 6, 1500
        shift_at = rng.integers(200, 1200, n_pairs)
        streams = rng.normal(0.0, 1.0, (steps, n_pairs))
        streams += np.where(np.arange(steps)[:, None] >= shift_at,
                            rng.uniform(1.0, 3.0, n_pairs), 0.0)
        calls = [0]
        adwin_cut = streaming._kernels.adwin_cut

        def counted(*args):
            calls[0] += 1
            return adwin_cut(*args)

        monkeypatch.setattr(streaming._kernels, "adwin_cut", counted)

        def run(update):
            pairs = [(AdwinWindow(warn_delta), AdwinWindow(drift_delta))
                     for _ in range(n_pairs)]
            flags = []
            calls[0] = 0
            for values in streams:
                flags.append(update(pairs, values))
                for i, (_, drifted) in enumerate(flags[-1]):
                    if drifted:
                        pairs[i] = (AdwinWindow(warn_delta),
                                    AdwinWindow(drift_delta))
            return flags, calls[0], [(w.to_dict(), d.to_dict())
                                     for w, d in pairs]

        def batched_update(pairs, vs):
            flags = update_many([w for w, _ in pairs] + [d for _, d in pairs],
                                list(vs) + list(vs))
            return list(zip(flags[:n_pairs], flags[n_pairs:]))

        batched = run(batched_update)
        single = run(lambda pairs, vs: [(w.update(v), d.update(v))
                                        for (w, d), v in zip(pairs, vs)])
        assert batched[0] == single[0]
        assert batched[2] == single[2]
        assert any(d for step in single[0] for _, d in step)
        # at least one scan round per step, and far fewer than per window
        assert steps <= batched[1] < single[1] / 3

    def test_batched_scan_of_windows_of_unequal_length(self):
        """Windows holding 1, 2, about 40 and over 100 buckets, updated in
        one ``update_many`` call per step, get the flags and buckets that
        their own ``update`` gives them."""
        rng = np.random.default_rng(7)
        windows = []
        for size in (1, 2, 2000):
            w = AdwinWindow(0.002)
            for v in rng.normal(0.0, 1.0, size):
                w.update(v)
            windows.append(w)
        # five full buckets of every size from 2^20 down to 1, far more
        # values than a test can feed one at a time
        deep = AdwinWindow(0.01)
        for level in range(20, -1, -1):
            for _ in range(_MAX_BUCKETS):
                count = 2.0 ** level
                total = count * 0.1 + math.sqrt(count) * rng.normal()
                deep._counts.append(count)
                deep._sums.append(total)
                deep._sumsqs.append(count + total * total / count)
        windows.append(deep)
        lengths = [len(w.to_dict()["counts"]) for w in windows]
        assert lengths[:2] == [1, 2] and 35 <= lengths[2] <= 45
        assert lengths[3] > 100
        alone = copy.deepcopy(windows)
        cut_steps = [0] * len(windows)
        for v in rng.normal(4.0, 1.0, 40):
            flags = update_many(windows, [v] * len(windows))
            assert flags == [w.update(v) for w in alone]
            assert [w.to_dict() for w in windows] == [w.to_dict()
                                                      for w in alone]
            cut_steps = [c + f for c, f in zip(cut_steps, flags)]
        # the shift is cut in the long windows, and the fresh ones have
        # too few values on either side to cut
        assert cut_steps[0] == cut_steps[1] == 0
        assert cut_steps[2] > 0 and cut_steps[3] > 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), 1e200, -1e200])
    def test_non_finite_value_rejected_with_window_unchanged(self, bad):
        """A value whose square is not finite raises before any bucket
        changes, in ``update`` and in ``update_many``, and the window still
        cuts a later shift as a clean one does."""
        rng = np.random.default_rng(37)
        clean, fed = AdwinWindow(0.002), AdwinWindow(0.002)
        others = [AdwinWindow(0.01) for _ in range(3)]
        for v in rng.normal(1.0, 0.1, 100):
            clean.update(v)
            update_many([fed] + others, [v] * 4)
        before = [w.to_dict() for w in [fed] + others]
        with pytest.raises(ValueError, match="finite"):
            fed.update(bad)
        with pytest.raises(ValueError, match="finite"):
            update_many([fed] + others, [1.0, 1.0, bad, 1.0])
        assert [w.to_dict() for w in [fed] + others] == before
        assert repr(fed.to_dict()) == repr(clean.to_dict())
        shift = rng.normal(5.0, 0.1, 100)
        assert ([clean.update(v) for v in shift]
                == [fed.update(v) for v in shift])
        assert fed.n_drifts == clean.n_drifts > 0
        assert fed.mean == clean.mean

    def test_each_value_checked_once(self, monkeypatch):
        """``update`` checks its value once, and ``update_many`` checks each
        of its values once, all before any window is fed."""
        check, checked = streaming._window_value, []

        def counted(v):
            checked.append(v)
            return check(v)

        monkeypatch.setattr(streaming, "_window_value", counted)
        windows = [AdwinWindow(0.002) for _ in range(4)]
        windows[0].update(1.0)
        assert checked == [1.0]
        update_many(windows, [2.0, 3.0, 4.0, 5.0])
        assert checked == [1.0, 2.0, 3.0, 4.0, 5.0]
        assert [w.width for w in windows] == [2, 1, 1, 1]

    @pytest.mark.filterwarnings("error")
    def test_value_above_bound_rejected_and_later_shift_cut(self):
        """Four values of 1e154 each have a finite square, but their sum of
        squares does not: the window refuses them, stays empty, and then
        cuts a 1 -> 5 shift as a fresh window does, with no overflow
        warning from the cut scan."""
        shift = [1.0] * 200 + [5.0] * 200
        fresh, fed = AdwinWindow(0.002), AdwinWindow(0.002)
        for _ in range(4):
            with pytest.raises(ValueError, match="exceeds 1e\\+100"):
                fed.update(1e154)
            with pytest.raises(ValueError, match="exceeds 1e\\+100"):
                update_many([fed], [-1e154])
        assert fed.width == 0
        assert [fresh.update(v) for v in shift] == [fed.update(v)
                                                     for v in shift]
        assert fed.n_drifts == fresh.n_drifts == 8

    @pytest.mark.filterwarnings("error")
    def test_values_at_bound_keep_totals_finite(self):
        """Values of magnitude ``WINDOW_VALUE_BOUND`` are taken, and their
        totals stay finite through every cut scan."""
        bound = streaming.WINDOW_VALUE_BOUND
        w = AdwinWindow(0.002)
        for v in [bound, -bound] * 100 + [bound] * 100:
            w.update(v)
        assert all(math.isfinite(s) for s in w.to_dict()["sumsqs"])
        assert math.isfinite(w.mean)
        assert w.n_drifts > 0

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            AdwinWindow(delta=0.0)
        with pytest.raises(ValueError):
            AdwinWindow(delta=1.0)

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_totals_are_consistent(self, values):
        w = AdwinWindow(delta=0.002)
        for v in values:
            w.update(v)
        assert 1 <= w.width <= len(values)
        assert w.width == sum(w.to_dict()["counts"])
        # a cut drops the oldest buckets, so the window is the stream's tail
        assert w.mean == pytest.approx(np.mean(values[-w.width:]), abs=1e-6)


def three_regimes(rng, size):
    """A stream that shifts its mean up, then down with a wider spread."""
    return np.concatenate([rng.normal(0.0, 1.0, size),
                           rng.normal(2.5, 1.0, size),
                           rng.normal(-1.0, 3.0, size)])


def fill_weighted(rng, sketch, inserts):
    """Weighted inserts of counts 0-12, half of them repeats of a few
    values that include 0.0 and -0.0."""
    repeats = (0.0, -0.0, 1.0, -1.0, 2.5)
    for _ in range(inserts):
        if rng.random() < 0.5:
            value = repeats[int(rng.integers(len(repeats)))]
        else:
            value = round(float(rng.normal(0.0, 2.0)), 2)
        sketch.insert(value, int(rng.integers(0, 13)))


def reference_describe(sketches, qs):
    """``describe`` and its pooled items as first written: the weights
    from ``2.0 ** heights``, one search per quantile and squares by
    ``** 2``.  The faster query must answer bit for bit as this does."""
    levels = [lvl for sk in sketches for lvl in sk._levels]
    v = np.frombuffer(b"".join(levels))
    heights = [h for sk in sketches for h in range(len(sk._levels))]
    w = np.repeat(2.0 ** np.array(heights), [len(lvl) for lvl in levels])
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    n = sum(sk.n for sk in sketches)
    if n < 2:
        return v, w, None
    cum = np.cumsum(w)
    quantiles = []
    for q in qs:
        idx = int(np.searchsorted(cum, max(q * n, 1.0), side="left"))
        quantiles.append(float(v[min(idx, len(v) - 1)]))
    total = w.sum()
    mean = float((w * v).sum() / total)
    var = float((w * (v - mean) ** 2).sum() / (total - 1.0))
    return v, w, (quantiles, mean, math.sqrt(max(var, 0.0)))


class TestDescribeOracle:
    def test_equals_reference_bit_for_bit(self):
        """1 to 12 pooled sketches of shared values (0.0 and -0.0 among
        them) at several levels, filled by weighted inserts: the pooled
        items, their order and every answer equal the reference's."""
        rng = np.random.default_rng(36)
        qs = (0.0, 0.05, 0.05, 0.1, 0.5, 0.9, 0.95, 1.0)
        tall = signed_zeros = 0
        for _ in range(60):
            sketches = [KllSketch(k=int(rng.choice([8, 12, 16])),
                                  seed=int(rng.integers(2 ** 31)))
                        for _ in range(int(rng.integers(1, 13)))]
            for sk in sketches:
                fill_weighted(rng, sk, int(rng.integers(0, 40)))
            v, w = streaming._weighted_items(sketches)
            want_v, want_w, want = reference_describe(sketches, qs)
            assert v.tobytes() == want_v.tobytes()
            assert w.tobytes() == want_w.tobytes()
            if want is not None:
                got = describe(sketches, qs)
                assert repr(got) == repr(want[0])
                assert [math.copysign(1.0, q) for q in got] == [
                    math.copysign(1.0, q) for q in want[0]]
            for sk in sketches:
                if sk.n >= 2:
                    alone = reference_describe([sk], qs)[2]
                    assert repr([sk.quantile(q) for q in qs]) == repr(alone[0])
                    assert repr(sk.moments()) == repr(alone[1:])
            tall += max(len(sk._levels) for sk in sketches) > 2
            signed_zeros += bool(np.signbit(v[v == 0.0]).any()
                                 and (~np.signbit(v[v == 0.0])).any())
        assert tall > 30 and signed_zeros > 30

    def test_zero_answers_keep_the_stable_sign(self):
        """Pools of mostly 0.0 and -0.0 at several levels, so that most
        answers are zeros: each answer's sign is the reference's, which
        the stable order of the pooled items sets."""
        rng = np.random.default_rng(37)
        qs = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0)
        signs = set()
        for _ in range(40):
            sketches = [KllSketch(k=8, seed=int(rng.integers(2 ** 31)))
                        for _ in range(int(rng.integers(1, 6)))]
            for sk in sketches:
                for _ in range(int(rng.integers(1, 40))):
                    value = (0.0, -0.0, 1.0)[int(rng.choice(3, p=[.45, .45,
                                                                  .1]))]
                    sk.insert(value, int(rng.integers(1, 9)))
            want = reference_describe(sketches, qs)[2]
            if want is None:
                continue
            got = describe(sketches, qs)
            assert repr(got) == repr(want[0])
            signs.update(repr(q) for q in got if q == 0.0)
        assert signs == {"0.0", "-0.0"}


class TestCopies:
    @pytest.mark.parametrize("clone", [
        lambda obj: pickle.loads(pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)),
        copy.deepcopy], ids=["pickle", "deepcopy"])
    def test_copies_mid_stream_go_on_like_the_original(self, clone):
        """A sketch and a window copied mid-stream hold, flag and answer
        what the original does over 500 more values."""
        rng = np.random.default_rng(35)
        # the k=200 sketch has not compacted yet, so it has no generator
        sketches = [KllSketch(k=16, seed=3), KllSketch(k=200, seed=4)]
        window = AdwinWindow(0.002)
        for v in rng.normal(0.0, 1.0, 150):
            for sk in sketches:
                sk.insert(v)
            window.update(v)
        assert len(sketches[0]._levels) > 1 and len(sketches[1]._levels) == 1
        copies, window_copy = [clone(sk) for sk in sketches], clone(window)
        for v in three_regimes(rng, 500)[::3]:
            for sk, twin in zip(sketches, copies):
                sk.insert(v)
                twin.insert(v)
                assert twin._levels == sk._levels
                assert (describe([twin], (0.05, 0.5, 0.95))
                        == describe([sk], (0.05, 0.5, 0.95)))
            assert window_copy.update(v) == window.update(v)
            assert window_copy.to_dict() == window.to_dict()
        assert window.n_drifts > 0
        assert len(sketches[1]._levels) > 1


class TestGoldenStreams:
    """Bit-for-bit pins of what the sketch and the drift windows hold and
    answer; ``TestGoldenRecords`` and the forest's golden test pin them
    only through a model."""

    def test_golden_adwin_buckets_and_flags(self):
        digest = hashlib.sha256()
        stream = three_regimes(np.random.default_rng(31), 700)
        drifts = 0
        for delta in (0.002, 0.01):
            w = AdwinWindow(delta)
            for v in stream:
                drifts += w.update(v)
                digest.update(repr(w.to_dict()).encode())
        # six warn/drift pairs through update_many, each pair restarting
        # on a drift as the forest's do
        rng = np.random.default_rng(32)
        steps = 1500
        streams = rng.normal(0.0, 1.0, (steps, 6))
        streams += np.where(np.arange(steps)[:, None]
                            >= rng.integers(200, 1200, 6),
                            rng.uniform(1.0, 3.0, 6), 0.0)
        pairs = [(AdwinWindow(0.01), AdwinWindow(0.002)) for _ in range(6)]
        for values in streams:
            flags = update_many([w for w, _ in pairs] + [d for _, d in pairs],
                                list(values) * 2)
            digest.update(repr(flags).encode())
            for i, drifted in enumerate(flags[6:]):
                if drifted:
                    drifts += 1
                    pairs[i] = (AdwinWindow(0.01), AdwinWindow(0.002))
        digest.update(repr([(w.to_dict(), d.to_dict())
                            for w, d in pairs]).encode())
        assert drifts > 6
        assert digest.hexdigest() == GOLDEN_ADWIN_DIGEST

    def test_golden_pooled_items_and_intervals(self):
        rng = np.random.default_rng(33)
        sketches = [KllSketch(k=k, seed=40 + i)
                    for i, k in enumerate((8, 16, 8, 32, 12))]
        digest, quantiles = hashlib.sha256(), hashlib.sha256()
        for _ in range(12):
            for sk in sketches:
                fill_weighted(rng, sk, int(rng.integers(0, 30)))
            for size in range(1, len(sketches) + 1):
                pool = sketches[:size]
                v, w = streaming._weighted_items(pool)
                digest.update(v.tobytes())
                digest.update(w.tobytes())
                if sum(sk.n for sk in pool) >= 2:
                    answer = describe(pool, (0.05, 0.95))
                    digest.update(repr(answer).encode())
                    quantiles.update(repr(answer).encode())
        assert min(len(sk._levels) for sk in sketches) > 2
        assert quantiles.hexdigest() == GOLDEN_POOL_QUANTILES_DIGEST
        assert digest.hexdigest() == GOLDEN_POOL_DIGEST

    def test_golden_pickled_sketch(self):
        rng = np.random.default_rng(34)
        sk = KllSketch(k=8, seed=5)
        fill_weighted(rng, sk, 60)
        assert len(sk._levels) > 2
        digest = hashlib.sha256()
        for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
            digest.update(pickle.dumps(sk, protocol))
        assert digest.hexdigest() == GOLDEN_PICKLE_DIGEST
