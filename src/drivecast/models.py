"""Online predictors with calibrated prediction intervals.

Five model families share one two-call contract.  Each morning
``predict_interval(x)`` returns a ``PredictionInterval(point, lower,
upper, sigma)``: a point estimate with a central interval at the
configured confidence, made before the truth is known.  Once the day is
over, ``learn_one(x, y)`` folds the truth in.  All state updates are
constant-time and constant-memory per observation.  Every interval is
a ``PredictionInterval.gaussian`` (``mean`` and ``mcnn``, the only kinds
with a ``sigma``) or a ``PredictionInterval.around`` (the other three).

* ``mean``: running mean and std of the target, features ignored.  The
  floor every other model must beat.
* ``qr``: three linear heads trained by stochastic gradient descent on
  the tilted absolute (pinball) loss for the lower, median, and upper
  quantiles.
* ``qknn``: nearest neighbors within a sliding window; the interval is
  read from the empirical quantiles of the neighbor targets.
* ``qarf``: drift-adaptive forest of incremental trees; the interval is
  read from the pooled items of the quantile sketches of every tree's
  routed leaf.
* ``mcnn``: small feed-forward net whose predictive spread combines
  dropout-sampling variance (model uncertainty) with a running residual
  variance (noise), assuming a Gaussian predictive distribution.

Models that are scale-sensitive (``qr``, ``mcnn``) standardize the
target internally with running statistics; neighbor and tree models work
in natural units because their predictions are order statistics of
actually observed targets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import _kernels
from .exceptions import DivergenceError, InsufficientHistoryError
from .features import (RunningStats, check_features, check_setting,
                       check_target)
from .forest import AdaptiveForest
from .streaming import describe

MODEL_KINDS = ("mean", "qr", "qknn", "qarf", "mcnn")

# Two-sided 90% Gaussian quantile, pinned so intervals are reproducible
# to the digit across platforms.
Z90 = 1.6449

# ``qr``'s step after n observations is lr / (1 + LR_DECAY * n).
LR_DECAY = 0.01

# The largest value of each setting that sizes a model's memory: far
# above any grid in use, and refused before anything is allocated.
WINDOW_CAP = 100_000  # qknn rows, 274 years of days
HIDDEN_CAP = 1_024  # mcnn units per hidden layer
N_PASSES_CAP = 1_000  # mcnn stochastic passes per prediction
RESIDUAL_WINDOW_CAP = 10_000  # mcnn squared residuals kept


def z_for_confidence(confidence: float) -> float:
    confidence = check_setting("confidence", confidence, float, 0.0, 1.0,
                               low_open=True, high_open=True)
    if abs(confidence - 0.90) < 1e-12:
        return Z90
    return NormalDist().inv_cdf(0.5 + confidence / 2.0)


@dataclass
class PredictionInterval:
    point: float
    lower: float
    upper: float
    sigma: float | None = None

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def contains(self, y: float) -> bool:
        return self.lower <= y <= self.upper

    @classmethod
    def gaussian(cls, point: float, sigma: float,
                 z: float) -> "PredictionInterval":
        """``point +- z * sigma``: the central interval of a Gaussian
        predictive distribution."""
        return cls(point, point - z * sigma, point + z * sigma, sigma)

    @classmethod
    def around(cls, point: float, lower: float,
               upper: float) -> "PredictionInterval":
        """Two quantile estimates widened to hold ``point``.  On a tie,
        ``min`` and ``max`` return the bound, which keeps a zero's sign."""
        return cls(point, min(lower, point), max(upper, point), None)


class _TargetScaler(RunningStats):
    """Running standardization of the target.  ``transform`` always uses
    the statistics accumulated before the current observation."""

    __slots__ = ()

    @property
    def scale(self) -> float:
        s = self.std
        return s if self.count >= 2 and s > 1e-9 else 1.0

    def transform(self, y: float) -> float:
        return (y - self.mean) / self.scale

    def inverse(self, z: float) -> float:
        return z * self.scale + self.mean


class OnlineModel:
    """Shared contract: ``predict_interval`` answers before the truth is
    known, raising InsufficientHistoryError while the model has too little
    history to answer; ``learn_one`` then folds the truth in.  Both reject
    malformed or non-finite features, and a non-finite target, before any
    state changes."""

    kind = "base"

    def __init__(self, n_features: int, seed: int = 0,
                 confidence: float = 0.90):
        self.n_features = check_setting("n_features", n_features, int, 0)
        self.seed = check_setting("seed", seed, int, 0)
        # z_for_confidence checks its range
        self.confidence = check_setting("confidence", confidence, float)
        self.z = z_for_confidence(self.confidence)
        self.n_seen = 0

    @property
    def alpha(self) -> float:
        """The mass in each tail of the central interval."""
        return (1.0 - self.confidence) / 2.0

    def predict_interval(self, x) -> PredictionInterval:
        raise NotImplementedError

    def learn_one(self, x, y: float) -> None:
        raise NotImplementedError


class MeanBaseline(OnlineModel):
    """Running mean with a Gaussian interval.  Ignores features."""

    kind = "mean"

    def __init__(self, n_features: int, seed: int = 0,
                 confidence: float = 0.90):
        super().__init__(n_features, seed, confidence)
        self._stats = RunningStats()

    def predict_interval(self, x) -> PredictionInterval:
        check_features(x, self.n_features)
        if self._stats.count < 2:
            raise InsufficientHistoryError("need two observations for a spread")
        return PredictionInterval.gaussian(self._stats.mean, self._stats.std,
                                           self.z)

    def learn_one(self, x, y: float) -> None:
        y = check_target(y)
        check_features(x, self.n_features)
        self._stats.update(y)
        self.n_seen += 1


class QuantileRegressor(OnlineModel):
    """Linear quantile heads trained online with the pinball loss.

    Each head h with quantile level tau follows the subgradient

        dL/dtheta = -tau * x        if y >= theta . x
                    (1 - tau) * x   otherwise

    plus an L2 term.  Targets are standardized with running statistics;
    the interval is the lower/upper heads clamped around the median so
    crossing heads can never invert it.
    """

    kind = "qr"

    def __init__(self, n_features: int, seed: int = 0,
                 confidence: float = 0.90, lr: float | None = None,
                 l2: float = 1e-4):
        super().__init__(n_features, seed, confidence)
        if lr is None:
            # step size that keeps the heads stable regardless of how
            # many standardized columns feed them
            lr = 0.1 / math.sqrt(n_features + 1)
        self.lr = check_setting("lr", lr, float, 0.0, low_open=True)
        self.l2 = check_setting("l2", l2, float, 0.0)
        self.taus = (self.alpha, 0.5, 1.0 - self.alpha)
        self.thetas = np.zeros((3, n_features + 1))
        # targets arrive standardized, so the normal quantile is the
        # right starting intercept for each head; without it the tail
        # heads spend hundreds of steps just walking out to +-z
        self.thetas[0, -1] = -self.z
        self.thetas[2, -1] = self.z
        self._scaler = _TargetScaler()

    def _augment(self, x: np.ndarray) -> np.ndarray:
        """``x`` with the intercept's 1.0 appended, built per call so that
        the model holds no scratch state."""
        xa = np.empty(self.n_features + 1)
        xa[:-1] = x
        xa[-1] = 1.0
        return xa

    def predict_interval(self, x) -> PredictionInterval:
        x = check_features(x, self.n_features)
        if self.n_seen < 2:
            raise InsufficientHistoryError("heads are still at their origin")
        lower, point, upper = map(self._scaler.inverse, (
            self.thetas @ self._augment(x)).tolist())
        return PredictionInterval.around(point, lower, upper)

    def learn_one(self, x, y: float) -> None:
        y = check_target(y)
        x = check_features(x, self.n_features)
        y_z = self._scaler.transform(y)
        xa = self._augment(x)
        preds = (self.thetas @ xa).tolist()
        step = self.lr / (1.0 + LR_DECAY * self.n_seen)
        # each head's pinball subgradient is its own multiple of xa
        slopes = np.array([[-tau if y_z >= p else 1.0 - tau]
                           for tau, p in zip(self.taus, preds)])
        with np.errstate(over="ignore", invalid="ignore"):
            self.thetas -= step * (slopes * xa
                                   + 2.0 * self.l2 * self.thetas)
        if not np.isfinite(self.thetas).all():
            raise DivergenceError("quantile heads left the finite range")
        self._scaler.update(y)
        self.n_seen += 1


class QuantileKnn(OnlineModel):
    """Sliding-window nearest neighbors with order-statistic intervals.

    Keeps the last ``window`` observations.  The point prediction is the
    mean of the k nearest targets; the interval bounds are empirical
    quantiles of those targets.
    Distance ties break toward the earlier insertion, so predictions are
    exactly reproducible.  Learning writes one row and reads none: the
    window is scanned once per query, in ``predict_interval``.
    """

    kind = "qknn"

    def __init__(self, n_features: int, seed: int = 0,
                 confidence: float = 0.90, k: int = 20, window: int = 365,
                 min_neighbors: int = 5):
        super().__init__(n_features, seed, confidence)
        self.k = check_setting("k", k, int, 1)
        self.window = check_setting("window", window, int, 1, WINDOW_CAP)
        self.min_neighbors = check_setting("min_neighbors", min_neighbors,
                                           int, 1)
        self._xs = np.zeros((self.window, n_features))
        self._ys = np.zeros(self.window)
        self._stamps = np.zeros(self.window, dtype=np.int64)
        self.size = 0
        self._next = 0

    def predict_interval(self, x) -> PredictionInterval:
        x = check_features(x, self.n_features)
        if self.size < self.min_neighbors:
            raise InsufficientHistoryError(
                f"need {self.min_neighbors} stored observations, "
                f"have {self.size}")
        n = self.size
        dists = _kernels.sq_distances(self._xs[:n], x)
        order = np.lexsort((self._stamps[:n], dists))
        kk = min(self.k, n)
        neigh = np.sort(self._ys[:n][order[:kk]])
        # np.add.reduce is the pairwise sum mean() takes, to the bit
        point = float(np.add.reduce(neigh)) / kk
        # plotting-position ranks: the span between the chosen order
        # statistics covers about (hi-lo)/(kk+1) of the neighborhood
        # distribution, landing the nominal confidence in expectation
        alpha = self.alpha
        lo_rank = min(max(math.floor(alpha * (kk + 1)), 1), kk) - 1
        hi_rank = min(max(math.ceil((1.0 - alpha) * (kk + 1)), 1), kk) - 1
        return PredictionInterval.around(point, float(neigh[lo_rank]),
                                         float(neigh[hi_rank]))

    def learn_one(self, x, y: float) -> None:
        y = check_target(y)
        x = check_features(x, self.n_features)
        i = self._next
        self._xs[i] = x
        self._ys[i] = y
        self._stamps[i] = self.n_seen
        self._next = (self._next + 1) % self.window
        self.size = min(self.size + 1, self.window)
        self.n_seen += 1


class QuantileForest(OnlineModel):
    """Drift-adaptive forest; intervals from pooled leaf sketches.

    Every other keyword is a setting of ``AdaptiveForest`` or of its
    ``HoeffdingTree``s, which declare and check it."""

    kind = "qarf"

    def __init__(self, n_features: int, seed: int = 0,
                 confidence: float = 0.90, **forest_kw):
        super().__init__(n_features, seed, confidence)
        self.forest = AdaptiveForest(n_features, seed=self.seed, **forest_kw)

    def predict_interval(self, x) -> PredictionInterval:
        point, sketches = self.forest.predict_sketches(x)
        return PredictionInterval.around(
            point, *describe(sketches, (self.alpha, 1.0 - self.alpha)))

    def learn_one(self, x, y: float) -> None:
        self.forest.learn_one(x, y)
        self.n_seen += 1


class McDropoutNet(OnlineModel):
    """Feed-forward net with dropout kept on for uncertainty sampling.

    Training uses inverted dropout (activations scaled by 1/(1-p) while
    the mask is applied) so the deterministic pass needs no rescaling.
    The interval assumes a Gaussian predictive distribution with

        sigma^2 = var over B stochastic passes        (model uncertainty)
                + mean of the last few squared errors (observation noise)

    computed in standardized target units and mapped back.  Stochastic
    passes draw their masks from a generator re-derived from (seed, step
    count), so predicting is repeatable and never perturbs training.
    """

    kind = "mcnn"

    def __init__(self, n_features: int, seed: int = 0,
                 confidence: float = 0.90, hidden: tuple[int, ...] = (16,),
                 dropout: float = 0.1, lr: float = 0.02, n_passes: int = 50,
                 residual_window: int = 10, max_grad_norm: float = 10.0):
        super().__init__(n_features, seed, confidence)
        self.hidden = tuple(check_setting("hidden", h, int, 1, HIDDEN_CAP)
                            for h in hidden)
        if not self.hidden:
            raise ValueError("hidden must name at least one width")
        self.dropout = check_setting("dropout", dropout, float, 0.0, 1.0,
                                     high_open=True)
        self.lr = check_setting("lr", lr, float, 0.0, low_open=True)
        self.n_passes = check_setting("n_passes", n_passes, int, 2,
                                      N_PASSES_CAP)
        self.residual_window = check_setting(
            "residual_window", residual_window, int, 1, RESIDUAL_WINDOW_CAP)
        # +inf turns clipping off
        self.max_grad_norm = check_setting("max_grad_norm", max_grad_norm,
                                           float, 0.0, low_open=True,
                                           inf=True)

        self._train_rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, 0x7E57])))
        init = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, 0x1417])))
        sizes = (n_features,) + self.hidden + (1,)
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            std = math.sqrt(2.0 / max(fan_in, 1))
            self.weights.append(init.normal(0.0, std, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        self._scaler = _TargetScaler()
        self._sq_residuals: list[float] = []

    # -- forward/backward ------------------------------------------------

    def _forward(self, x: np.ndarray, masks: list[np.ndarray] | None,
                 first: np.ndarray | None = None):
        """Returns (output, activations); masks are per hidden layer.
        ``first``, the first hidden layer's ReLU output for ``x`` before
        any mask, is computed unless given."""
        acts = [x]
        a = x
        for i, (w, b) in enumerate(zip(self.weights[:-1], self.biases[:-1])):
            a = (first if i == 0 and first is not None
                 else np.maximum(w @ a + b, 0.0))
            if masks is not None:
                a = a * masks[i]
                a /= 1.0 - self.dropout
            acts.append(a)
        out = float((self.weights[-1] @ a + self.biases[-1])[0])
        return out, acts

    def _forward_batch(self, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """All stochastic passes at once; rows are passes."""
        # every pass reads the same x, which check_features made
        # contiguous: a read-only view with a zero row stride, the array
        # np.broadcast_to makes, built for less
        a = np.ndarray((self.n_passes, len(x)), x.dtype, x, 0, (0, x.itemsize))
        a.flags.writeable = False
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            a = a @ w.T
            a += b
            np.maximum(a, 0.0, out=a)
            a *= rng.random(a.shape) >= self.dropout
            a /= 1.0 - self.dropout
        return (a @ self.weights[-1].T + self.biases[-1]).ravel()

    def predict_interval(self, x) -> PredictionInterval:
        x = check_features(x, self.n_features)
        if self.n_seen == 0:
            raise InsufficientHistoryError("net has not seen any target")
        out, _ = self._forward(x, masks=None)
        point = self._scaler.inverse(out)

        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence([self.seed, 0xACC, self.n_seen])))
        samples = self._forward_batch(x, rng)
        # np.add.reduce is the pairwise sum np.mean takes
        d = samples - float(np.add.reduce(samples)) / self.n_passes
        var_model = float(np.add.reduce(d * d)) / self.n_passes
        var_noise = (sum(self._sq_residuals) / len(self._sq_residuals)
                     if self._sq_residuals else 0.0)
        sigma = math.sqrt(var_model + var_noise) * self._scaler.scale
        return PredictionInterval.gaussian(point, sigma, self.z)

    def learn_one(self, x, y: float) -> None:
        y = check_target(y)
        x = check_features(x, self.n_features)
        # clamp the standardized target: the running scaler can be wildly
        # off for the first few observations, and a single huge squared
        # error must not blow up the weights or the residual window; a
        # NaN passes through as np.clip passes it
        y_z = min(max(self._scaler.transform(y), -10.0), 10.0)

        with np.errstate(over="ignore", invalid="ignore"):
            out_pre, acts_pre = self._forward(x, masks=None)
        residual = y_z - out_pre
        self._sq_residuals.append(residual * residual)
        if len(self._sq_residuals) > self.residual_window:
            self._sq_residuals.pop(0)

        masks = [self._train_rng.random(h) >= self.dropout
                 for h in self.hidden]
        with np.errstate(over="ignore", invalid="ignore"):
            # the first layer's product is the one the pass above made
            out, acts = self._forward(x, masks, first=acts_pre[1])
            grad_out = out - y_z  # d/d_out of 0.5 (out - y)^2

            keep = 1.0 - self.dropout
            delta = np.array([grad_out])
            grads_w: list[np.ndarray] = []
            grads_b: list[np.ndarray] = []
            for i in range(len(self.weights) - 1, -1, -1):
                grads_w.append(delta[:, None] * acts[i])
                grads_b.append(delta)
                if i > 0:
                    # post-dropout activation is positive only where the
                    # unit both fired and survived the mask, so one
                    # indicator covers the relu and dropout derivatives
                    delta = self.weights[i].T @ delta
                    delta *= acts[i] > 0.0
                    delta /= keep
            grads_w.reverse()
            grads_b.reverse()
            norm = math.sqrt(sum(float(np.add.reduce(g * g, axis=None))
                                 for g in grads_w + grads_b))
            scale = 1.0
            if math.isfinite(norm) and norm > self.max_grad_norm:
                scale = self.max_grad_norm / norm
            for i in range(len(self.weights)):
                self.weights[i] -= self.lr * scale * grads_w[i]
                self.biases[i] -= self.lr * scale * grads_b[i]
        if not all(np.isfinite(w).all() for w in self.weights):
            raise DivergenceError("network weights left the finite range")
        self._scaler.update(y)
        self.n_seen += 1


_REGISTRY = {
    "mean": MeanBaseline,
    "qr": QuantileRegressor,
    "qknn": QuantileKnn,
    "qarf": QuantileForest,
    "mcnn": McDropoutNet,
}


def make_model(kind: str, n_features: int, seed: int = 0,
               confidence: float = 0.90, **hyper) -> OnlineModel:
    if kind not in _REGISTRY:
        raise ValueError(f"unknown model kind {kind!r}; know {MODEL_KINDS}")
    return _REGISTRY[kind](n_features, seed, confidence, **hyper)
