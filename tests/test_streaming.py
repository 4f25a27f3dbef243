"""Quantile sketch accuracy/merge/memory and adaptive-window behavior."""

import copy
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivecast import streaming
from drivecast.exceptions import InsufficientHistoryError
from drivecast.streaming import AdwinWindow, KllSketch, describe, update_many

QS = (0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95)


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
        assert describe([sk], qs) == ([sk.quantile(q) for q in qs],
                                      *sk.moments())

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
        assert describe([sk], qs) == ([sk.quantile(q) for q in qs],
                                      *sk.moments())

    @pytest.mark.parametrize("seed", range(12))
    def test_pooled_quantiles_equal_expanded_reference(self, seed):
        rng = np.random.default_rng(seed)
        sketches = filled_sketches(rng, int(rng.integers(2, 13)))
        assert max(len(sk._levels) for sk in sketches) > 1
        qs = list(np.linspace(0.0, 1.0, 41)) + [0.05, 0.95]
        quantiles, mean, std = describe(sketches, qs)
        values = expanded(sketches)
        n = sum(sk.n for sk in sketches)
        assert len(values) == n
        assert quantiles == [expanded_quantile(values, n, q) for q in qs]
        assert mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-9)
        assert std == pytest.approx(np.std(values, ddof=1), rel=1e-9)

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
        quantiles, _, _ = describe(sketches, QS)
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
        assert describe(two, (0.5,)) == ([1.0], 1.0, 0.0)
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

    def test_batched_scan_of_windows_of_unequal_capacity(self):
        """Windows whose buffers differ in size scan as they do alone."""
        rng = np.random.default_rng(7)
        windows = []
        for shift in (0.0, 3.0, 5.0):
            w = AdwinWindow(0.002)
            for v in np.concatenate([rng.normal(0, 1, 300),
                                     rng.normal(shift, 1, 20)]):
                w.update(v, scan=False)
            windows.append(w)
        windows[1]._grow()
        alone = [copy.deepcopy(w) for w in windows]
        cut = streaming._cut_windows(windows)
        assert [w in cut for w in windows] == [
            bool(streaming._cut_windows([w])) for w in alone]
        assert [w.to_dict() for w in windows] == [w.to_dict() for w in alone]
        assert windows[1] in cut and windows[0] not in cut

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
