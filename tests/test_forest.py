"""Incremental tree growth, split correctness, and forest drift recovery."""

import copy
import functools
import hashlib
import math
import pickle

import numpy as np
import pytest

from drivecast import _kernels
from drivecast import forest as forest_module
from drivecast.exceptions import InsufficientHistoryError
from drivecast.forest import AdaptiveForest, HoeffdingTree, hoeffding_bound
from drivecast.models import QuantileForest
from drivecast.streaming import KllSketch

# every interval of the golden run, sigma included; recorded when sigma
# became None, with the bounds of GOLDEN_BOUNDS_DIGEST
GOLDEN_DIGEST = ("7f172ee440c4e2570803e2fb9a27bf61"
                 "298eefbb6a6d6ea39c5c5f87c1974bea")
# the points alone; recorded with one sketch insert per bag copy, pairwise
# sketch merges, two descents per tree and separate drift-window scans,
# and no faster path or interval query may move them
GOLDEN_POINTS_DIGEST = ("e09edfd1202b00fc84547275d603ee19"
                        "9fa3c081d26d967a7449ba0f1977d34c")
# the points and bounds alone; recorded while every interval still fitted
# a Gaussian sigma and sorted the pooled items stably
GOLDEN_BOUNDS_DIGEST = ("577e21c7e5b23b6682b8b4be0af95a6d"
                        "c0e6a5d34bf388fed4a61c82414580da")
GOLDEN_COUNTS = (28, 31, 80)  # warnings, replacements, splits


def threshold_stream(rng, n, flip=0.0):
    """y = +5 where x0 > 0 else -5 (plus noise); features are 3-dim."""
    xs = rng.normal(size=(n, 3))
    ys = np.where(xs[:, 0] > 0, 5.0, -5.0) + rng.normal(0, 0.3, n)
    if flip:
        ys = -ys
    return xs, ys


class TestHoeffdingBound:
    def test_formula(self):
        assert hoeffding_bound(1.0, 1e-5, 100) == pytest.approx(
            math.sqrt(math.log(1e5) / 200))
        assert hoeffding_bound(2.0, 0.05, 50) == pytest.approx(
            math.sqrt(4 * math.log(20) / 100))

    def test_shrinks_with_n(self):
        assert hoeffding_bound(1, 1e-5, 1000) < hoeffding_bound(1, 1e-5, 100)


class TestHoeffdingTree:
    def test_learns_threshold_function(self):
        rng = np.random.default_rng(0)
        xs, ys = threshold_stream(rng, 1500)
        tree = HoeffdingTree(3, seed=1, subspace=3)
        for x, y in zip(xs, ys):
            tree.learn_one(x, y)
        assert tree.n_splits >= 1
        test_x, test_y = threshold_stream(rng, 300)
        errs = [abs(tree.predict_one(x) - y) for x, y in zip(test_x, test_y)]
        assert np.mean(errs) < 1.5

    def test_split_picks_informative_feature(self):
        rng = np.random.default_rng(1)
        xs, ys = threshold_stream(rng, 2000)
        tree = HoeffdingTree(3, seed=2, subspace=3)
        for x, y in zip(xs, ys):
            tree.learn_one(x, y)
        from drivecast.forest import _Node
        assert isinstance(tree.root, _Node)
        assert tree.root.feature == 0
        assert abs(tree.root.threshold) < 1.0

    @pytest.mark.parametrize("param, bad", [
        ("grace_period", -5), ("grace_period", 0), ("grace_period", 2.5),
        ("grace_period", True), ("subspace", -1), ("subspace", 0),
        ("subspace", 2.5), ("subspace", True), ("max_depth", -1)])
    def test_counts_checked_at_construction(self, param, bad):
        """A grace period or subspace that is not a whole number >= 1, or
        a negative depth limit, fails when the tree is built, not at its
        first split attempt."""
        with pytest.raises(ValueError, match=param):
            HoeffdingTree(3, **{param: bad})
        with pytest.raises(ValueError, match=param):
            AdaptiveForest(3, n_trees=2, **{param: bad})

    def test_counts_accept_whole_floats_and_default_subspace(self):
        tree = HoeffdingTree(9, grace_period=20.0, subspace=2.0)
        assert (tree.grace_period, tree.subspace) == (20, 2)
        assert type(tree.grace_period) is int and type(tree.subspace) is int
        assert HoeffdingTree(9).subspace == HoeffdingTree(
            9, subspace=None).subspace == 3

    def test_cold_predictions(self):
        tree = HoeffdingTree(2, seed=0)
        assert tree.predict_one(np.zeros(2)) == 0.0
        tree.learn_one(np.zeros(2), 7.0)
        assert tree.predict_one(np.ones(2)) == pytest.approx(7.0)

    def test_max_depth_respected(self):
        rng = np.random.default_rng(2)
        tree = HoeffdingTree(2, seed=3, max_depth=3, grace_period=20,
                             subspace=2)
        for _ in range(4000):
            x = rng.normal(size=2)
            tree.learn_one(x, float(np.sin(3 * x[0]) + np.sin(3 * x[1])))
        assert tree.depth <= 3
        assert tree.n_leaves == tree.n_splits + 1

    def test_schema_mismatch(self):
        tree = HoeffdingTree(3, seed=0)
        with pytest.raises(ValueError):
            tree.predict_one(np.zeros(4))
        with pytest.raises(ValueError):
            tree.learn_one(np.zeros(2), 1.0)

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(3)
        xs, ys = threshold_stream(rng, 800)
        trees = [HoeffdingTree(3, seed=42, subspace=2) for _ in range(2)]
        for x, y in zip(xs, ys):
            for t in trees:
                t.learn_one(x, y)
        probe = rng.normal(size=(50, 3))
        for p in probe:
            assert trees[0].predict_one(p) == trees[1].predict_one(p)

    def test_weighted_learning_matches_repeats_in_stats(self):
        xs = np.random.default_rng(4).normal(size=(30, 2))
        a = HoeffdingTree(2, seed=5, grace_period=10 ** 9)
        b = HoeffdingTree(2, seed=5, grace_period=10 ** 9)
        for x in xs:
            a.learn_one(x, x[0], weight=3.0)
            for _ in range(3):
                b.learn_one(x, x[0], weight=1.0)
        assert a.n_seen == b.n_seen == 90
        np.testing.assert_allclose(a.root.stats[0], b.root.stats[0])
        np.testing.assert_allclose(a.root.stats[1], b.root.stats[1])

    def test_leaf_sketch_tracks_conditional_distribution(self):
        rng = np.random.default_rng(5)
        xs, ys = threshold_stream(rng, 3000)
        tree = HoeffdingTree(3, seed=6, subspace=3)
        for x, y in zip(xs, ys):
            tree.learn_one(x, y)
        sk = tree.leaf_sketch(np.array([1.5, 0.0, 0.0]))
        assert sk.n > 0
        assert sk.quantile(0.5) == pytest.approx(5.0, abs=1.0)


def learn_leaf_alone(leaf, x, y, weight):
    """One leaf's histogram update as it was made before leaves were
    learned in a batch: the oracle for ``_learn_leaves``."""
    counts, sums, sumsqs = leaf.stats
    fmin, fmax = leaf.ranges
    np.minimum(fmin, x, out=fmin)
    np.maximum(fmax, x, out=fmax)
    span = fmax - fmin
    raw = (x - fmin) / np.where(span > 0, span, 1.0)
    n_bins = counts.shape[1]
    bins = (raw * n_bins).astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    cells = bins + np.arange(0, counts.size, n_bins)
    counts.reshape(-1)[cells] += weight
    sums.reshape(-1)[cells] += weight * y
    sumsqs.reshape(-1)[cells] += weight * y * y
    return raw


class TestLearnLeaves:
    def test_batch_equals_one_leaf_at_a_time(self):
        """Batches of 1-20 distinct leaves with weights 1-12 match the
        one-leaf oracle bit for bit: on a feature that never varies, on
        values at a leaf's top edge, and on a fresh leaf's first value
        (its ranges still +-inf) in a batch with older leaves."""
        rng = np.random.default_rng(21)
        n_features, n_bins, n_leaves = 4, 10, 30

        def fresh():
            return forest_module._Leaf(n_features, n_bins, 64, 0, 0)

        batched = [fresh() for _ in range(n_leaves)]
        alone = [fresh() for _ in range(n_leaves)]
        top_edges = fresh_in_batch = 0
        for step in range(400):
            if step % 25 == 24:
                i = int(rng.integers(n_leaves))
                batched[i], alone[i] = fresh(), fresh()
            size = int(rng.integers(1, 21))
            chosen = rng.choice(n_leaves, size=size, replace=False)
            # a spread feature, a three-valued one that keeps landing on
            # the edges, a constant and a coarse one
            x = np.array([rng.normal(), rng.integers(-1, 2), 3.0,
                          rng.integers(0, 4) * 0.7])
            y = float(rng.normal(2.0, 3.0))
            weights = [float(w) for w in rng.integers(1, 13, size)]
            fresh_in_batch += any(np.isinf(alone[i].ranges).any()
                                  for i in chosen) and size > 1
            forest_module._learn_leaves([batched[i] for i in chosen], x, y,
                                        weights)
            for i, w in zip(chosen, weights):
                raw = learn_leaf_alone(alone[i], x, y, w)
                top_edges += int((raw == 1.0).sum())
            for b, a in zip(batched, alone):
                assert np.array_equal(b.stats, a.stats)
                assert np.array_equal(b.ranges, a.ranges)
        assert top_edges > 0 and fresh_in_batch > 0
        # the constant feature never spread, so it filled only bin 0
        for leaf in alone:
            assert not leaf.stats[0, 2, 1:].any()


def reference_split_if_best(tree, route, sel, gains, bins):
    """``HoeffdingTree._split_if_best`` as first written, ranking the
    gains with numpy: the oracle for the ranking the tree does now."""
    leaf, parent, left = route
    order = np.argsort(gains, kind="stable")[::-1]
    best = int(order[0])
    best_gain = float(gains[best])
    if best_gain <= 0.0 or bins[best] < 0:
        return
    second_gain = float(gains[int(order[1])]) if len(sel) > 1 else 0.0
    eps = hoeffding_bound(1.0, forest_module.DELTA_SPLIT, leaf.n)
    if not (best_gain - second_gain > eps or eps < forest_module.TIE_TAU):
        return
    feature = int(sel[best])
    lo, hi = leaf.ranges[:, feature]
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        return
    threshold = lo + (int(bins[best]) + 1) * (hi - lo) / tree.n_bins
    if not lo < threshold < hi:
        return
    node = forest_module._Node(feature, float(threshold),
                               tree._new_leaf(leaf.depth + 1),
                               tree._new_leaf(leaf.depth + 1))
    if parent is None:
        tree.root = node
    elif left:
        parent.left = node
    else:
        parent.right = node
    tree.n_splits += 1


class TestSplitRanking:
    def test_equals_numpy_ranking_with_ties(self):
        """Gains drawn from a few values, so the best and the runner-up
        often tie, on leaves with few and many values: the tree splits,
        or not, on the feature and threshold the numpy ranking gives, and
        draws the same seeds."""
        rng = np.random.default_rng(38)
        n_features = 8
        splits = tie_decided = 0
        for _ in range(1000):
            tree = HoeffdingTree(n_features, seed=int(rng.integers(99)),
                                 n_bins=int(rng.integers(2, 12)))
            leaf = tree.root
            leaf.n = float(rng.choice([3.0, 60.0, 5000.0]))
            lo = rng.normal(size=n_features)
            leaf.ranges[0] = lo
            leaf.ranges[1] = lo + rng.choice([0.0, 1e-300, 1.0, 4.0],
                                             n_features)
            size = int(rng.integers(1, n_features + 1))
            sel = rng.choice(n_features, size=size, replace=False)
            gains = rng.choice([0.0, 0.2, 0.2 + 1e-3, 0.6, 0.6], size)
            bins = rng.integers(-1, tree.n_bins - 1, size)
            ours, theirs = copy.deepcopy(tree), copy.deepcopy(tree)
            ours._split_if_best((ours.root, None, False), sel, gains, bins)
            reference_split_if_best(theirs, (theirs.root, None, False), sel,
                                    gains, bins)
            assert pickle.dumps(ours) == pickle.dumps(theirs)
            splits += ours.n_splits
            top = np.flatnonzero(gains == gains.max())
            tie_decided += bool(ours.n_splits and len(top) > 1
                                and ours.root.feature == sel[top[-1]])
        assert splits > 120 and tie_decided > 40


class TestAdaptiveForest:
    def test_learns_and_averages(self):
        rng = np.random.default_rng(10)
        xs, ys = threshold_stream(rng, 1200)
        forest = AdaptiveForest(3, n_trees=5, seed=0)
        for x, y in zip(xs, ys):
            forest.learn_one(x, y)
        test_x, test_y = threshold_stream(rng, 200)
        errs = [abs(forest.predict_sketches(x)[0] - y)
                for x, y in zip(test_x, test_y)]
        assert np.mean(errs) < 1.5

    def test_deterministic_for_seed(self):
        rng = np.random.default_rng(11)
        xs, ys = threshold_stream(rng, 400)
        a, b = (AdaptiveForest(3, n_trees=4, seed=9) for _ in range(2))
        for x, y in zip(xs, ys):
            a.learn_one(x, y)
            b.learn_one(x, y)
        probe = rng.normal(size=(20, 3))
        for p in probe:
            assert a.predict_sketches(p)[0] == b.predict_sketches(p)[0]

    def test_drift_triggers_replacements(self):
        rng = np.random.default_rng(12)
        adaptive = AdaptiveForest(3, n_trees=5, seed=1)
        frozen = AdaptiveForest(3, n_trees=5, seed=1, disable_drift=True)
        xs1, ys1 = threshold_stream(rng, 600)
        xs2, ys2 = threshold_stream(rng, 600, flip=True)
        for x, y in zip(np.vstack([xs1, xs2]), np.concatenate([ys1, ys2])):
            adaptive.learn_one(x, y)
            frozen.learn_one(x, y)
        assert adaptive.n_replacements > 0
        assert frozen.n_replacements == 0

    def test_leaves_learned_per_step_stay_bounded(self, monkeypatch):
        """Each ``learn_one`` makes at most one ``_learn_leaves`` call, on
        at most one leaf of every tree and one of every background tree:
        ``2 * n_trees`` leaves, through a drift and its replacements."""
        learn_leaves, per_step = forest_module._learn_leaves, []

        def counted(leaves, x, y, weights):
            per_step[-1].append(len(leaves))
            return learn_leaves(leaves, x, y, weights)

        monkeypatch.setattr(forest_module, "_learn_leaves", counted)
        rng = np.random.default_rng(12)
        forest = AdaptiveForest(3, n_trees=5, seed=1)
        xs1, ys1 = threshold_stream(rng, 600)
        xs2, ys2 = threshold_stream(rng, 600, flip=True)
        for x, y in zip(np.vstack([xs1, xs2]), np.concatenate([ys1, ys2])):
            per_step.append([])
            forest.learn_one(x, y)
        assert all(len(calls) <= 1 for calls in per_step)
        touched = [sum(calls) for calls in per_step]
        assert max(touched) <= 2 * forest.n_trees
        # some step trained background trees beside their trees, so the
        # bound is tested, not met by a forest that never warned
        assert max(touched) > forest.n_trees
        assert forest.n_replacements > 0

    def test_drift_recovery_beats_frozen(self):
        rng = np.random.default_rng(13)
        adaptive = AdaptiveForest(3, n_trees=5, seed=2)
        frozen = AdaptiveForest(3, n_trees=5, seed=2, disable_drift=True)
        xs1, ys1 = threshold_stream(rng, 800)
        for x, y in zip(xs1, ys1):
            adaptive.learn_one(x, y)
            frozen.learn_one(x, y)
        # regime flips; score prequentially over the post-shift stretch
        xs2, ys2 = threshold_stream(rng, 400, flip=True)
        err_a = err_f = 0.0
        for x, y in zip(xs2, ys2):
            err_a += abs(adaptive.predict_sketches(x)[0] - y)
            err_f += abs(frozen.predict_sketches(x)[0] - y)
            adaptive.learn_one(x, y)
            frozen.learn_one(x, y)
        assert err_a < err_f

    def test_predict_sketches_are_the_populated_routed_leaves(self):
        rng = np.random.default_rng(16)
        forest = AdaptiveForest(3, n_trees=6, seed=5)
        assert forest.predict_sketches(np.zeros(3)) == (0.0, [])
        xs, ys = threshold_stream(rng, 300)
        for x, y in zip(xs, ys):
            forest.learn_one(x, y)
        for p in rng.normal(size=(20, 3)):
            point, sketches = forest.predict_sketches(p)
            leaves = [tree._descend(p)[0] for tree in forest.trees]
            assert [id(s) for s in sketches] == [
                id(leaf.sketch) for leaf in leaves if leaf.sketch.n > 0]
            assert point == np.mean([tree.predict_one(p)
                                     for tree in forest.trees])
            assert sum(s.n for s in sketches) == forest.merged_sketch(p).n

    def test_merged_sketch_equals_pairwise_merge_chain(self):
        """``merged_sketch`` is ``KllSketch.merge`` folded over the routed
        leaves' sketches from the left, and hands out none of them."""
        def answers(sk):
            return (sk.n, sk.retained_items(),
                    [sk.quantile(q) for q in np.linspace(0.0, 1.0, 101)],
                    sk.moments())

        rng = np.random.default_rng(12)
        forest = AdaptiveForest(3, n_trees=6, seed=8)
        xs, ys = threshold_stream(rng, 1500)
        for x, y in zip(xs, ys):
            forest.learn_one(x, y)
        for p in rng.normal(size=(10, 3)):
            sketches = forest.predict_sketches(p)[1]
            assert len(sketches) >= 2
            assert len({sk.seed for sk in sketches}) > 1
            before = [answers(sk) for sk in sketches]
            merged = forest.merged_sketch(p)
            chain = functools.reduce(KllSketch.merge, sketches)
            assert merged._levels == chain._levels
            assert merged.seed == chain.seed
            assert answers(merged) == answers(chain)
            for v in rng.normal(size=500):
                merged.insert(v)
                chain.insert(v)
            assert answers(merged) == answers(chain)
            assert [answers(sk) for sk in sketches] == before

    def test_merged_sketch_needs_data(self):
        forest = AdaptiveForest(2, n_trees=3, seed=0)
        with pytest.raises(InsufficientHistoryError):
            forest.merged_sketch(np.zeros(2))

    def test_quantiles_from_leaves(self):
        rng = np.random.default_rng(14)
        forest = AdaptiveForest(1, n_trees=3, seed=3)
        for _ in range(2000):
            x = rng.normal(size=1)
            forest.learn_one(x, float(10 * (x[0] > 0)) + rng.normal(0, 0.5))
        hi = forest.merged_sketch(np.array([1.0])).quantile(0.5)
        lo = forest.merged_sketch(np.array([-1.0])).quantile(0.5)
        assert hi == pytest.approx(10.0, abs=1.5)
        assert lo == pytest.approx(0.0, abs=1.5)

    def test_single_tree_forest(self):
        rng = np.random.default_rng(15)
        forest = AdaptiveForest(2, n_trees=1, seed=4)
        for _ in range(300):
            x = rng.normal(size=2)
            forest.learn_one(x, float(x[0]))
        sk = forest.merged_sketch(np.array([1.5, 0.0]))
        assert sk.n > 0
        assert sk.quantile(0.5) == pytest.approx(1.5, abs=1.0)

    def test_every_window_joins_the_first_scan_round(self, monkeypatch):
        """Each ``learn_one`` feeds every tree's two windows through one
        ``update_many`` call, whose first stacked round scans every window
        that holds at least 2 buckets."""
        feeds, firsts = [], []
        adwin_cut, update_many = _kernels.adwin_cut, forest_module.update_many

        def recorded_update_many(windows, values):
            feeds.append(windows)
            return update_many(windows, values)

        def recorded_adwin_cut(counts, sums, sumsqs, deltas, rows):
            if len(firsts) < len(feeds):
                # nothing is cut before the first round: every window
                # still holds all the buckets it was fed
                scanned = [(float(d), counts[i, :r].tolist(),
                            sums[i, :r].tolist(), sumsqs[i, :r].tolist())
                           for i, (d, r) in enumerate(zip(deltas, rows))]
                fed = [(b["delta"], b["counts"], b["sums"], b["sumsqs"])
                       for b in (w.to_dict() for w in feeds[-1])
                       if len(b["counts"]) >= 2]
                firsts.append((scanned, fed))
            return adwin_cut(counts, sums, sumsqs, deltas, rows)

        monkeypatch.setattr(forest_module, "update_many", recorded_update_many)
        monkeypatch.setattr(_kernels, "adwin_cut", recorded_adwin_cut)
        rng = np.random.default_rng(8)
        xs, ys = threshold_stream(rng, 1500)
        ys[700:] += 6.0
        forest = AdaptiveForest(3, n_trees=4, seed=3)
        scanned_steps = 0
        for x, y in zip(xs, ys):
            windows = forest._warn + forest._drift
            feeds.clear()
            firsts.clear()
            forest.learn_one(x, y)
            assert [list(map(id, f)) for f in feeds] == [list(map(id, windows))]
            for scanned, fed in firsts:
                assert scanned == fed
            scanned_steps += bool(firsts)
        assert scanned_steps > 1400
        assert forest.n_replacements > 0 and forest.n_warnings > 0

    def test_every_due_leaf_joins_one_split_scan(self, monkeypatch):
        """Each ``learn_one`` makes at most one ``split_gains`` call, and its
        rows are the subspace rows of exactly the leaves whose grace period
        ran out on that step, in learner order."""
        scans, due = [], []
        split_gains = _kernels.split_gains
        learned_at = HoeffdingTree._learned_at

        def recorded_split_gains(counts, sums, sumsqs):
            scans.append(np.stack((counts, sums, sumsqs)))
            return split_gains(counts, sums, sumsqs)

        def recorded_learned_at(tree, route, y, weight):
            leaf = route[0]
            if (leaf.since_attempt + weight >= tree.grace_period
                    and leaf.depth < tree.max_depth and leaf.n + weight >= 2):
                # the tree's generator as it stands before the subspace draw
                due.append((tree, leaf, copy.deepcopy(tree._rng)))
            return learned_at(tree, route, y, weight)

        monkeypatch.setattr(_kernels, "split_gains", recorded_split_gains)
        monkeypatch.setattr(HoeffdingTree, "_learned_at", recorded_learned_at)
        rng = np.random.default_rng(8)
        xs, ys = threshold_stream(rng, 1500)
        ys[700:] += 6.0
        forest = AdaptiveForest(3, n_trees=4, seed=3)
        shared = 0
        for x, y in zip(xs, ys):
            scans.clear()
            due.clear()
            forest.learn_one(x, y)
            assert len(scans) == bool(due)
            if due:
                want = np.concatenate(
                    [leaf.stats[:, r.choice(tree.n_features, replace=False,
                                            size=tree.subspace)]
                     for tree, leaf, r in due], axis=1)
                assert scans[0].tobytes() == want.tobytes()
            shared += len(due) >= 2
        assert shared > 50
        assert sum(t.n_splits for t in forest.trees) > 0
        assert forest.n_replacements > 0

    def test_golden_intervals_and_counters(self):
        """Every interval and counter of a seeded run with a regime flip,
        pinned bit for bit: a speed-up of the forest, its sketches or its
        drift windows must not move any of them."""
        rng = np.random.default_rng(2024)
        xs = rng.normal(size=(2000, 3))
        ys = (np.where(xs[:, 0] > 0, 5.0, -5.0) + xs[:, 1]
              + rng.normal(0, 0.5, 2000))
        ys[1000:] = 3.0 - ys[1000:]
        model = QuantileForest(3, seed=7, n_trees=4)
        digest, bounds, points = (hashlib.sha256() for _ in range(3))
        for x, y in zip(xs, ys):
            try:
                pi = model.predict_interval(x)
                step = (pi.point, pi.lower, pi.upper, pi.sigma)
                point = pi.point
            except InsufficientHistoryError:
                step = point = None
            digest.update(repr(step).encode())
            bounds.update(repr(step and step[:3]).encode())
            points.update(repr(point).encode())
            model.learn_one(x, y)
        forest = model.forest
        splits = sum(t.n_splits for t in forest.trees)
        assert (forest.n_warnings, forest.n_replacements,
                splits) == GOLDEN_COUNTS
        assert points.hexdigest() == GOLDEN_POINTS_DIGEST
        assert bounds.hexdigest() == GOLDEN_BOUNDS_DIGEST
        assert digest.hexdigest() == GOLDEN_DIGEST


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad_x, bad_y", [
        (None, math.nan), (None, math.inf), (None, -math.inf),
        (math.nan, None), (-math.inf, None)])
    @pytest.mark.parametrize("make, predict", [
        (lambda: HoeffdingTree(3, seed=7, grace_period=20),
         HoeffdingTree.predict_one),
        (lambda: AdaptiveForest(3, n_trees=3, seed=7),
         AdaptiveForest.predict_sketches)],
        ids=["tree", "forest"])
    def test_rejected_before_any_state_changes(self, make, predict, bad_x,
                                               bad_y):
        """A non-finite feature or target raises and leaves the tree or
        forest byte-equal: it reaches no window, histogram or sketch."""
        rng = np.random.default_rng(13)
        learner = make()
        xs = rng.normal(size=(80, 3))
        for x in xs[:-1]:
            learner.learn_one(x, float(x[0] + rng.normal(0, 0.2)))
        x = xs[-1].copy()
        if bad_x is not None:
            x[1] = bad_x
        before = pickle.dumps(learner)
        with pytest.raises(ValueError, match="feature" if bad_y is None
                           else "target"):
            learner.learn_one(x, 1.0 if bad_y is None else bad_y)
        assert pickle.dumps(learner) == before
        if bad_x is not None:
            with pytest.raises(ValueError, match="feature"):
                predict(learner, x)

    @pytest.mark.parametrize("weight", [math.nan, -1.0, math.inf])
    def test_bad_weight_rejected_before_any_state_changes(self, weight):
        """A tree's weight must be finite and >= 0; a bad one raises and
        leaves the tree byte-equal."""
        rng = np.random.default_rng(13)
        tree = HoeffdingTree(2)
        for x in rng.normal(size=(30, 2)):
            tree.learn_one(x, float(x[0]))
        before = pickle.dumps(tree)
        with pytest.raises(ValueError, match="weight"):
            tree.learn_one([0.5, -0.5], 1.0, weight)
        assert pickle.dumps(tree) == before
