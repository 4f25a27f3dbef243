"""Incremental regression trees and a drift-adaptive bagged forest.

Trees grow one observation at a time.  Each leaf keeps equal-width
histogram statistics of the target per feature and converts a leaf into a
binary split only when a Hoeffding-style confidence bound says the best
candidate beats the runner-up with high probability, so the tree built
online converges to the one a batch learner would pick.  A leaf's
histogram is two arrays: ``stats``, the count, sum and sum of squares of
the targets per feature and bin, and ``ranges``, the least and greatest
value seen per feature, which set the bin edges.  Leaves also keep a
quantile sketch of their targets; a forest's interval is read from the
pooled items of the sketches of the leaves an input is routed to.

The forest combines such trees with Poisson online bagging and random
feature subspaces.  Every tree is paired with two adaptive windows fed
its absolute error: a sensitive one that starts a background replacement
tree on warning, and a conservative one that swaps the replacement in on
confirmed drift.  An observation updates the histograms of every leaf it
trains, in every tree and background, in one batched numpy pass; each
leaf ends up bit-equal to learning it alone.  The split attempts that
observation makes due are then scored in one stacked split-gain scan,
bit-equal to scoring them one leaf at a time.

Every public method of a tree or a forest rejects malformed or
non-finite features, and ``learn_one`` a non-finite target, before any
window, histogram or sketch changes.  Each setting is declared once: a
forest takes its own and hands every other keyword to its trees.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from . import _kernels
from .exceptions import InsufficientHistoryError
from .features import check_count, check_features, check_float, check_target
from .streaming import AdwinWindow, KllSketch, update_many

# A leaf splits when its best candidate beats the runner-up with
# probability 1 - DELTA_SPLIT or the bound falls below TIE_TAU (Domingos &
# Hulten, KDD 2000); bagging weights are Poisson(LAMBDA_BAG) (Gomes et al.,
# 2017); every leaf's quantile sketch has compactor capacity SKETCH_K.
DELTA_SPLIT = 1e-5
TIE_TAU = 0.05
LAMBDA_BAG = 6.0
SKETCH_K = 64


def hoeffding_bound(value_range: float, delta: float, n: float) -> float:
    """Deviation bound for a mean of n observations in [0, value_range]."""
    return math.sqrt(value_range * value_range * math.log(1.0 / delta)
                     / (2.0 * n))


class _Leaf:
    __slots__ = ("stats", "ranges", "n", "total", "sketch", "since_attempt",
                 "depth")

    def __init__(self, n_features: int, n_bins: int, sketch_k: int,
                 sketch_seed: int, depth: int):
        # per (feature, bin): the count, sum and sum of squares of targets
        self.stats = np.zeros((3, n_features, n_bins))
        # per feature: the least and greatest value seen
        self.ranges = np.repeat([[np.inf], [-np.inf]], n_features, axis=1)
        self.n = 0.0
        self.total = 0.0
        self.sketch = KllSketch(sketch_k, seed=sketch_seed)
        self.since_attempt = 0.0
        self.depth = depth

    def mean(self) -> float:
        return self.total / self.n if self.n > 0 else 0.0


def _learn_leaves(leaves: list, x: np.ndarray, y: float, weights) -> None:
    """Fold x into each leaf's ranges and its weighted y into the histogram
    cell of each feature's bin, for distinct leaves of one shape at once.

    Each cell of a leaf takes one add of (w, w*y, (w*y)*y), so the result
    is bit-equal to learning the leaves one at a time."""
    ranges = np.array([leaf.ranges for leaf in leaves])
    lo, hi = ranges[:, 0], ranges[:, 1]
    np.minimum(lo, x, out=lo)
    np.maximum(hi, x, out=hi)
    # now lo <= x <= hi, so x - lo is 0 where the span is 0 and the
    # position lies in [0, 1]: only the top edge needs clipping
    span = hi - lo
    raw = (x - lo) / np.where(span > 0, span, 1.0)
    n_stats, n_features, n_bins = leaves[0].stats.shape
    bins = (raw * n_bins).astype(np.int64)
    np.minimum(bins, n_bins - 1, out=bins)
    # flat index of each (statistic, feature) cell and the value it takes:
    # 1-d fancy indexing into a view costs half of indexing by (statistic,
    # feature, bin), and a broadcast add costs more than a repeated one
    firsts = np.arange(0, n_stats * n_features * n_bins, n_bins)
    cells = (bins[:, None, :]
             + firsts.reshape(n_stats, n_features)).reshape(len(leaves), -1)
    adds = np.repeat([(w, w * y, w * y * y) for w in weights], n_features,
                     axis=1)
    for leaf, r, c, a in zip(leaves, ranges, cells, adds):
        leaf.ranges[...] = r
        leaf.stats.ravel()[c] += a


class _Node:
    __slots__ = ("feature", "threshold", "left", "right")

    def __init__(self, feature: int, threshold: float, left, right):
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right


class HoeffdingTree:
    """Single incremental regression tree with histogram-based splits."""

    def __init__(self, n_features: int, seed: int = 0, grace_period: int = 50,
                 n_bins: int = 10, max_depth: int = 12,
                 subspace: int | None = None):
        if n_features < 1:
            raise ValueError("need at least one feature")
        self.n_features = n_features
        self.grace_period = check_count("grace_period", grace_period)
        if self.grace_period < 1:
            raise ValueError(
                f"grace_period must be at least 1, got {grace_period!r}")
        self.n_bins = check_count("n_bins", n_bins)
        if self.n_bins < 2:
            raise ValueError(f"n_bins must be at least 2, got {n_bins!r}")
        self.max_depth = check_count("max_depth", max_depth)
        if subspace is None:
            subspace = max(1, math.ceil(math.sqrt(n_features)))
        self.subspace = check_count("subspace", subspace)
        if self.subspace < 1:
            raise ValueError(f"subspace must be at least 1, got {subspace!r}")
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self.root = self._new_leaf(depth=0)
        self.n_seen = 0.0
        self.total = 0.0
        self.n_splits = 0

    def _new_leaf(self, depth: int) -> _Leaf:
        seed = int(self._rng.integers(0, 2 ** 31 - 1))
        return _Leaf(self.n_features, self.n_bins, SKETCH_K, seed, depth)

    def _descend(self, x: np.ndarray):
        """Leaf for a checked x, plus its parent and whether it is the
        parent's left child: the link needed to replace it."""
        node, parent, left = self.root, None, False
        while type(node) is _Node:
            parent = node
            left = x[node.feature] <= node.threshold
            node = node.left if left else node.right
        return node, parent, left

    def _value(self, leaf: _Leaf) -> float:
        """Prediction read from the leaf an input was routed to."""
        if leaf.n > 0:
            return leaf.mean()
        if self.n_seen > 0:
            return self.total / self.n_seen
        return 0.0

    def predict_one(self, x) -> float:
        x = check_features(x, self.n_features)
        return self._value(self._descend(x)[0])

    def leaf_sketch(self, x) -> KllSketch:
        return self._descend(check_features(x, self.n_features))[0].sketch

    def learn_one(self, x, y: float, weight: float = 1.0) -> None:
        y = check_target(y)
        x = check_features(x, self.n_features)
        weight = float(weight)
        if not (math.isfinite(weight) and weight >= 0.0):
            raise ValueError(f"weight must be finite and >= 0, got {weight!r}")
        route = self._descend(x)
        _learn_leaves([route[0]], x, y, [weight])
        if self._learned_at(route, y, weight):
            _attempt_splits([(self, route)])

    def _learned_at(self, route, y: float, weight: float) -> bool:
        """The rest of learning at ``route`` once ``_learn_leaves`` has
        updated its leaf's histogram: counts and sketch.  Returns whether
        the leaf is due for a split attempt (see ``_attempt_splits``)."""
        leaf = route[0]
        leaf.n += weight
        leaf.total += weight * y
        leaf.sketch.insert(y, int(round(weight)))
        leaf.since_attempt += weight
        self.n_seen += weight
        self.total += weight * y
        if leaf.since_attempt < self.grace_period:
            return False
        leaf.since_attempt = 0.0
        return leaf.depth < self.max_depth and leaf.n >= 2

    def _split_if_best(self, route, sel: np.ndarray, gains: np.ndarray,
                       bins: np.ndarray) -> None:
        """Split the leaf at ``route`` on the best of the features ``sel``
        scored ``gains`` and ``bins``, if the Hoeffding test accepts it."""
        leaf, parent, left = route
        # the order of np.argsort(gains, kind="stable")[::-1]: by gain,
        # the later of two equal gains first
        gains = gains.tolist()
        order = sorted(range(len(gains)), key=gains.__getitem__)[::-1]
        best = order[0]
        best_gain = gains[best]
        if best_gain <= 0.0 or bins[best] < 0:
            return
        second_gain = gains[order[1]] if len(sel) > 1 else 0.0
        eps = hoeffding_bound(1.0, DELTA_SPLIT, leaf.n)
        if not (best_gain - second_gain > eps or eps < TIE_TAU):
            return

        feature = int(sel[best])
        lo, hi = leaf.ranges[:, feature]
        if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
            return
        threshold = lo + (int(bins[best]) + 1) * (hi - lo) / self.n_bins
        if not lo < threshold < hi:
            return

        # a Python float pickles smaller than the numpy scalar and routes
        # every input the same way
        node = _Node(feature, float(threshold),
                     self._new_leaf(leaf.depth + 1),
                     self._new_leaf(leaf.depth + 1))
        if parent is None:
            self.root = node
        elif left:
            parent.left = node
        else:
            parent.right = node
        self.n_splits += 1

    # -- introspection --------------------------------------------------

    def _walk(self):
        """Every node with its depth, the root at depth 0."""
        stack = [(self.root, 0)]
        while stack:
            node, d = stack.pop()
            yield node, d
            if isinstance(node, _Node):
                stack.extend(((node.left, d + 1), (node.right, d + 1)))

    @property
    def n_leaves(self) -> int:
        return sum(1 for n, _ in self._walk() if isinstance(n, _Leaf))

    @property
    def depth(self) -> int:
        return max(d for _, d in self._walk())


def _attempt_splits(due: list) -> None:
    """Split attempts at the ``(tree, route)`` pairs of distinct trees of one
    shape, each route's leaf due for one, scored in one
    ``_kernels.split_gains`` call.

    Each tree draws its feature subspace in turn, and a tree that splits
    draws its new leaves' seeds after that, from its own generator, so
    every tree ends as if it had attempted alone."""
    if not due:
        return
    sels = [tree._rng.choice(tree.n_features,
                             size=min(tree.subspace, tree.n_features),
                             replace=False)
            for tree, _ in due]
    gains, bins = _kernels.split_gains(*np.concatenate(
        [route[0].stats[:, sel] for (_, route), sel in zip(due, sels)],
        axis=1))
    stop = 0
    for (tree, route), sel in zip(due, sels):
        start, stop = stop, stop + len(sel)
        tree._split_if_best(route, sel, gains[start:stop], bins[start:stop])


class AdaptiveForest:
    """Poisson-bagged ensemble of Hoeffding trees with drift recovery.

    Each observation trains every tree with an independent Poisson
    weight.  Every tree's absolute error stream feeds two adaptive
    windows: a warning window (larger delta, trips early) that starts a
    background tree trained in parallel, and a drift window that replaces
    the tree with its background (or a fresh one) when the error
    distribution has demonstrably shifted.  ``disable_drift`` turns all
    of that off, leaving plain online bagging.
    """

    def __init__(self, n_features: int, n_trees: int = 10, seed: int = 0,
                 warn_delta: float = 0.01, drift_delta: float = 0.002,
                 disable_drift: bool = False,
                 **tree_kw):
        n_trees = check_count("n_trees", n_trees)
        if n_trees < 1:
            raise ValueError("need at least one tree")
        self.n_features = n_features
        self.n_trees = n_trees
        self.warn_delta = check_float("warn_delta", warn_delta)
        self.drift_delta = check_float("drift_delta", drift_delta)
        self.disable_drift = disable_drift

        ss = np.random.SeedSequence(seed)
        bag_ss, spawn_ss, *tree_ss = ss.spawn(n_trees + 2)
        self._bag_rng = np.random.Generator(np.random.PCG64(bag_ss))
        self._spawn_rng = np.random.Generator(np.random.PCG64(spawn_ss))
        # a keyword no tree takes fails here, at construction; the forest
        # then keeps each setting as its trees resolved it
        self._tree_kw = tree_kw
        self.trees = [self._new_tree(s) for s in tree_ss]
        self._tree_kw = {name: getattr(self.trees[0], name)
                         for name in tree_kw}
        self._warn = [AdwinWindow(warn_delta) for _ in range(n_trees)]
        self._drift = [AdwinWindow(drift_delta) for _ in range(n_trees)]
        self.background: list[HoeffdingTree | None] = [None] * n_trees
        self.n_seen = 0
        self.n_replacements = 0
        self.n_warnings = 0

    def _new_tree(self, seed_source=None) -> HoeffdingTree:
        if seed_source is None:
            seed = int(self._spawn_rng.integers(0, 2 ** 31 - 1))
        else:
            seed = int(seed_source.generate_state(1)[0] & 0x7FFFFFFF)
        return HoeffdingTree(self.n_features, seed=seed, **self._tree_kw)

    def learn_one(self, x, y: float) -> None:
        y = check_target(y)
        x = check_features(x, self.n_features)
        weights = self._bag_rng.poisson(LAMBDA_BAG, self.n_trees)
        # a tree's error and its windows depend on that tree alone, so
        # every window is fed first and all are scanned together
        routes = [tree._descend(x) for tree in self.trees]
        if self.disable_drift:
            warns = drifts = [False] * self.n_trees
        else:
            errs = [abs(y - tree._value(route[0]))
                    for tree, route in zip(self.trees, routes)]
            flags = update_many(self._warn + self._drift, errs + errs)
            warns, drifts = flags[:self.n_trees], flags[self.n_trees:]
        # every learning tree and background in one histogram update; the
        # leaves are distinct, and a split touches only its own tree
        learners = []
        for i, (warned, drifted) in enumerate(zip(warns, drifts)):
            if drifted:
                replacement = self.background[i]
                self.trees[i] = (replacement if replacement is not None
                                 else self._new_tree())
                routes[i] = self.trees[i]._descend(x)
                self.background[i] = None
                self._warn[i] = AdwinWindow(self.warn_delta)
                self._drift[i] = AdwinWindow(self.drift_delta)
                self.n_replacements += 1
            elif warned and self.background[i] is None:
                self.background[i] = self._new_tree()
                self.n_warnings += 1
            w = float(weights[i])
            if w > 0:
                learners.append((self.trees[i], routes[i], w))
                background = self.background[i]
                if background is not None:
                    learners.append((background, background._descend(x), w))
        if learners:
            _learn_leaves([route[0] for _, route, _ in learners], x, y,
                          [w for _, _, w in learners])
            _attempt_splits([(tree, route) for tree, route, w in learners
                             if tree._learned_at(route, y, w)])
        self.n_seen += 1

    # -- interval support ------------------------------------------------

    def merged_sketch(self, x) -> KllSketch:
        """Sketch of the targets in every tree's routed leaf: ``merge``
        folded over the populated leaves in tree order, starting from a
        copy of the first, so no leaf's own sketch is handed out."""
        sketches = self.predict_sketches(x)[1]
        if not sketches:
            raise InsufficientHistoryError("no populated leaves for this input")
        return functools.reduce(KllSketch.merge, sketches[1:],
                                copy.deepcopy(sketches[0]))

    def predict_sketches(self, x) -> tuple[float, list[KllSketch]]:
        """The mean of every tree's prediction for x, and the sketches of
        the routed leaves that hold any target, from one descent per tree.

        ``streaming.describe`` reads an interval from the sketches' pooled
        items, with none of the compactions of ``merged_sketch``."""
        x = check_features(x, self.n_features)
        values, sketches = [], []
        for tree in self.trees:
            leaf = tree._descend(x)[0]
            values.append(tree._value(leaf))
            if leaf.sketch.n > 0:
                sketches.append(leaf.sketch)
        # numpy's pairwise sum, as np.mean adds
        return float(np.add.reduce(values)) / len(values), sketches
