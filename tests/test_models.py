"""Model contracts: gradients, interval calibration, windows, checkpoints."""

import copy
import hashlib
import math
import pickle

import numpy as np
import pytest

from drivecast import _kernels, streaming
from drivecast.exceptions import DivergenceError, InsufficientHistoryError
from drivecast.models import (
    LR_DECAY,
    MODEL_KINDS,
    McDropoutNet,
    MeanBaseline,
    PredictionInterval,
    QuantileForest,
    QuantileKnn,
    QuantileRegressor,
    Z90,
    make_model,
    z_for_confidence,
)
from drivecast.forest import SKETCH_K

# sha256 over the pickled qr, qknn and mcnn of
# TestGoldenPickledModels, at the default and the highest protocol
GOLDEN_LIGHT_STATE_DIGEST = (
    "02768dd67acc0eb04a22cbcb381aa85a"
    "591f67a2aabf017e10bfcafa6b025b24")


class TestZ:
    def test_pinned_at_90(self):
        assert z_for_confidence(0.90) == Z90 == 1.6449

    @pytest.mark.parametrize("conf,want", [
        (0.95, 1.959964), (0.80, 1.281552), (0.50, 0.674490),
        (0.99, 2.575829),
    ])
    def test_inverse_normal(self, conf, want):
        assert z_for_confidence(conf) == pytest.approx(want, abs=2e-6)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            z_for_confidence(0.0)
        with pytest.raises(ValueError):
            z_for_confidence(1.0)


class TestPredictionInterval:
    def test_contains_is_closed(self):
        pi = PredictionInterval(1.0, 0.0, 2.0)
        assert pi.contains(0.0) and pi.contains(2.0) and not pi.contains(2.01)
        assert pi.width == 2.0

    def test_around_widens_to_the_point(self):
        pi = PredictionInterval.around(1.0, 2.0, 0.5)
        assert (pi.point, pi.lower, pi.upper, pi.sigma) == \
            (1.0, 1.0, 1.0, None)
        # a bound equal to the point is returned as given, zero sign and all
        pi = PredictionInterval.around(0.0, -0.0, 0.0)
        assert math.copysign(1.0, pi.lower) == -1.0
        pi = PredictionInterval.around(-0.0, 0.0, 0.0)
        assert math.copysign(1.0, pi.lower) == 1.0
        assert math.copysign(1.0, pi.upper) == 1.0


def crossed_qr(n_features):
    """A ``qr`` whose lower head learns the upper quantile and its upper
    head the lower one, so its heads cross on almost every day."""
    model = QuantileRegressor(n_features)
    model.taus = model.taus[::-1]
    model.thetas[[0, 2], -1] = model.thetas[[2, 0], -1]
    return model


class TestIntervalRule:
    @pytest.mark.parametrize("kind", MODEL_KINDS + ("qr-crossed",))
    def test_bounds_hold_the_point_and_sigma_only_if_gaussian(self, kind):
        """Every interval any kind gives holds its point, crossing ``qr``
        heads included, and only ``mean`` and ``mcnn`` give a ``sigma``."""
        model = (crossed_qr(3) if kind == "qr-crossed"
                 else make_model(kind, 3, seed=1))
        rng = np.random.default_rng(31)
        answered = collapsed = 0
        for t in range(120):
            x = rng.normal(size=3)
            try:
                pi = model.predict_interval(x)
            except InsufficientHistoryError:
                pi = None
            if pi is not None:
                assert pi.lower <= pi.point <= pi.upper, t
                assert (pi.sigma is None) == (kind not in ("mean", "mcnn")), t
                answered += 1
                collapsed += pi.lower == pi.upper
            model.learn_one(x, float(x @ (1.0, -2.0, 0.5) + rng.normal()))
        assert answered >= 100
        assert (collapsed > answered // 2) == (kind == "qr-crossed")


class TestMeanBaseline:
    def test_tracks_running_stats(self):
        rng = np.random.default_rng(0)
        ys = rng.normal(10, 3, 200)
        m = MeanBaseline(2)
        x = np.zeros(2)
        for y in ys:
            m.learn_one(x, y)
        assert m.predict_interval(x).point == pytest.approx(ys.mean())
        pi = m.predict_interval(x)
        assert pi.sigma == pytest.approx(ys.std(ddof=1))
        assert pi.lower == pytest.approx(ys.mean() - Z90 * pi.sigma)
        assert pi.upper == pytest.approx(ys.mean() + Z90 * pi.sigma)

    def test_needs_two_observations(self):
        m = MeanBaseline(1)
        m.learn_one(np.zeros(1), 5.0)
        with pytest.raises(InsufficientHistoryError):
            m.predict_interval(np.zeros(1))

    def test_rejects_nonfinite_features(self):
        m = MeanBaseline(1)
        with pytest.raises(ValueError):
            m.learn_one(np.array([np.nan]), 1.0)


def pinball_loss(theta, xa, y, tau, l2):
    pred = float(theta @ xa)
    diff = y - pred
    loss = tau * diff if diff >= 0 else (tau - 1.0) * diff
    return loss + l2 * float(theta @ theta)


class TestQuantileRegressorGradients:
    def test_update_matches_finite_differences(self):
        """The SGD step must equal lr times the loss gradient, checked by
        central differences at points safely away from the loss kink."""
        rng = np.random.default_rng(1)
        for trial in range(20):
            model = QuantileRegressor(4, lr=0.05, l2=1e-3)
            model.thetas = rng.normal(size=(3, 5)) * 0.5
            x = rng.normal(size=4)
            xa = np.append(x, 1.0)
            y = float(rng.normal() * 2)
            # keep every head at least 0.1 away from its kink
            if any(abs(y - float(t @ xa)) < 0.1 for t in model.thetas):
                continue
            before = model.thetas.copy()
            model.learn_one(x, y)
            for h, tau in enumerate(model.taus):
                step_grad = (before[h] - model.thetas[h]) / model.lr
                for j in range(5):
                    hstep = 1e-6
                    tp, tm = before[h].copy(), before[h].copy()
                    tp[j] += hstep
                    tm[j] -= hstep
                    want = (pinball_loss(tp, xa, y, tau, model.l2)
                            - pinball_loss(tm, xa, y, tau, model.l2)) / (2 * hstep)
                    assert step_grad[j] == pytest.approx(want, abs=1e-4)

    def test_equality_takes_low_side_gradient(self):
        # y lands exactly on the median head (initialized at zero), so
        # its update must follow the -tau branch; the tail heads start
        # at -+z and take their unambiguous side
        model = QuantileRegressor(1, lr=0.1, l2=0.0)
        z = model.z
        model.learn_one(np.zeros(1), 0.0)
        assert model.thetas[1][1] == pytest.approx(0.1 * 0.5)
        # y above the lower head: -tau branch moves it up
        assert model.thetas[0][1] == pytest.approx(-z + 0.1 * model.taus[0])
        # y below the upper head: (1 - tau) branch moves it down
        assert model.thetas[2][1] == pytest.approx(
            z - 0.1 * (1.0 - model.taus[2]))
        for h in range(3):
            assert model.thetas[h][0] == 0.0


class TestQuantileRegressorBehavior:
    def test_matches_gaussian_quantiles_intercept_only(self):
        rng = np.random.default_rng(2)
        model = QuantileRegressor(0)
        x = np.zeros(0)
        for y in rng.normal(3.0, 2.0, 3000):
            model.learn_one(x, y)
        pi = model.predict_interval(x)
        assert pi.point == pytest.approx(3.0, abs=0.4)
        assert pi.lower == pytest.approx(3.0 - 1.645 * 2.0, abs=0.7)
        assert pi.upper == pytest.approx(3.0 + 1.645 * 2.0, abs=0.7)

    def test_interval_never_inverted(self):
        rng = np.random.default_rng(3)
        model = QuantileRegressor(3, lr=0.3)
        for _ in range(300):
            x = rng.normal(size=3)
            model.learn_one(x, float(x @ [1.0, -2.0, 0.5] + rng.normal()))
            if model.n_seen >= 2:
                pi = model.predict_interval(rng.normal(size=3))
                assert pi.lower <= pi.point <= pi.upper

    def test_needs_history(self):
        model = QuantileRegressor(2)
        with pytest.raises(InsufficientHistoryError):
            model.predict_interval(np.zeros(2))

    def test_divergence_detected(self):
        model = QuantileRegressor(1, lr=1e155, l2=1e160)
        with pytest.raises(DivergenceError):
            for i in range(10):
                model.learn_one(np.ones(1), float(i))


def knn_oracle(stored, x, k, alpha):
    """Brute-force neighbor query over (stamp, x, y) triples."""
    dists = np.array([np.sum((np.asarray(px) - x) ** 2) for _, px, _ in stored])
    stamps = np.array([s for s, _, _ in stored])
    order = np.lexsort((stamps, dists))
    kk = min(k, len(stored))
    neigh = np.sort(np.array([stored[i][2] for i in order[:kk]]))
    lo = neigh[min(max(math.floor(alpha * (kk + 1)), 1), kk) - 1]
    hi = neigh[min(max(math.ceil((1 - alpha) * (kk + 1)), 1), kk) - 1]
    point = float(neigh.mean())
    return point, min(float(lo), point), max(float(hi), point)


class TestQuantileKnn:
    def test_exactly_matches_brute_force(self):
        rng = np.random.default_rng(4)
        model = QuantileKnn(3, k=7, window=50)
        stored = []
        for t in range(200):
            x = rng.normal(size=3).round(1)  # rounding forces distance ties
            y = float(rng.normal())
            if len(stored) >= model.min_neighbors:
                q = rng.normal(size=3).round(1)
                pi = model.predict_interval(q)
                want = knn_oracle(stored, q, 7, 0.05)
                assert pi.point == pytest.approx(want[0], abs=1e-12)
                assert pi.lower == pytest.approx(want[1], abs=1e-12)
                assert pi.upper == pytest.approx(want[2], abs=1e-12)
            model.learn_one(x, y)
            stored.append((t, x.copy(), y))
            if len(stored) > 50:
                stored.pop(0)

    def test_window_evicts_oldest(self):
        model = QuantileKnn(1, k=1, window=3, min_neighbors=1)
        for i, y in enumerate((10.0, 20.0, 30.0, 40.0)):
            model.learn_one(np.array([float(i)]), y)
        # x=0 was evicted; nearest stored point is x=1
        assert model.predict_interval(np.array([0.0])).point == 20.0

    def test_tie_breaks_toward_older(self):
        model = QuantileKnn(1, k=1, window=10, min_neighbors=1)
        model.learn_one(np.array([1.0]), 100.0)
        model.learn_one(np.array([1.0]), 200.0)
        pi = model.predict_interval(np.array([1.0]))
        assert (pi.point, pi.lower, pi.upper, pi.sigma) == \
            (100.0, 100.0, 100.0, None)

    def test_needs_min_neighbors(self):
        model = QuantileKnn(2, min_neighbors=5)
        for i in range(4):
            model.learn_one(np.ones(2) * i, float(i))
        with pytest.raises(InsufficientHistoryError):
            model.predict_interval(np.zeros(2))

    def test_interval_from_the_ten_oldest_equidistant_rows(self):
        model = QuantileKnn(1, k=10, window=20, min_neighbors=5)
        rng = np.random.default_rng(5)
        ys = rng.normal(0, 3, 20)
        for y in ys:
            model.learn_one(np.zeros(1), float(y))
        pi = model.predict_interval(np.zeros(1))
        # all stored points are equidistant; ties resolve to the 10 oldest,
        # whose ranks floor(0.05 * 11) and ceil(0.95 * 11) clamp to the
        # smallest and the largest
        oldest, newest = np.sort(ys[:10]), np.sort(ys[10:])
        assert (pi.point, pi.lower, pi.upper, pi.sigma) == \
            (float(oldest.mean()), oldest[0], oldest[-1], None)
        assert (oldest[0], oldest[-1]) != (newest[0], newest[-1])

    def test_one_window_scan_per_step_in_predict_only(self, monkeypatch):
        """Learning reads no stored row; each query scans the stored rows
        once, so the work per step stops growing once the window is full."""
        scan, rows = _kernels.sq_distances, []

        def counted(xs, x):
            rows.append(len(xs))
            return scan(xs, x)

        monkeypatch.setattr(_kernels, "sq_distances", counted)
        window = 30
        model = QuantileKnn(2, k=5, window=window)
        rng = np.random.default_rng(8)
        work = []
        for t in range(3 * window):
            x = rng.normal(size=2)
            if model.size >= model.min_neighbors:
                model.predict_interval(x)
            assert rows == ([min(t, window)] if t >= model.min_neighbors
                            else [])
            work.append(sum(rows))
            rows.clear()
            model.learn_one(x, float(rng.normal()))
            assert rows == []
        assert work[window:] == [window] * (2 * window)


class TestQuantileForestModel:
    def test_learns_conditional_intervals(self):
        rng = np.random.default_rng(6)
        model = QuantileForest(2, seed=0, n_trees=5)
        hits = total = 0
        for t in range(1500):
            x = rng.normal(size=2)
            y = float(8.0 * (x[0] > 0) + rng.normal(0, 0.5))
            if t > 300:
                try:
                    pi = model.predict_interval(x)
                    hits += pi.contains(y)
                    total += 1
                except InsufficientHistoryError:
                    pass
            model.learn_one(x, y)
        assert total > 1000
        assert hits / total > 0.75

    def test_abstains_cold(self):
        model = QuantileForest(2, seed=0)
        with pytest.raises(InsufficientHistoryError):
            model.predict_interval(np.zeros(2))

    def test_sorted_items_per_query_stay_bounded(self, monkeypatch):
        """Each interval query sorts the items its routed leaves' sketches
        keep, at most ``n_trees`` sketches' capacity, and that count stays
        flat from observation 1e3 to 1e4 of a stationary stream.

        A leaf sketch's level sizes follow from its count of values alone,
        so a ``KllSketch(SKETCH_K)`` given the largest routed count has the
        largest capacity any routed sketch had."""
        pool, sorted_items, counts = streaming._pooled_items, [], [0]

        def counted(sketches):
            v, w = pool(sketches)
            sorted_items.append(len(v))
            counts.extend(sk.n for sk in sketches)
            return v, w

        monkeypatch.setattr(streaming, "_pooled_items", counted)
        n, dim = 10_000, 4
        rng = np.random.default_rng(0)
        xs = rng.normal(size=(n, dim))
        ys = xs @ rng.normal(size=dim) + rng.normal(0.0, 0.5, size=n)
        model = QuantileForest(dim, seed=0)
        work = []
        for x, y in zip(xs, ys):
            sorted_items.clear()
            try:
                model.predict_interval(x)
            except InsufficientHistoryError:
                pass
            work.append(sum(sorted_items))
            model.learn_one(x, float(y))
        widest = streaming.KllSketch(SKETCH_K)
        widest.insert(0.0, max(counts))
        assert max(work) <= model.forest.n_trees * widest._max
        early, late = np.mean(work[1000:2000]), np.mean(work[-1000:])
        assert early > 0
        assert late <= 1.5 * early, (early, late)


class TestMcDropoutGradients:
    def test_backprop_matches_finite_differences(self):
        """With dropout off the training step must follow the exact
        gradient of the squared loss."""
        rng = np.random.default_rng(7)
        for trial in range(5):
            model = McDropoutNet(4, seed=trial, hidden=(8, 6), dropout=0.0,
                                 lr=0.01, max_grad_norm=math.inf)
            x = rng.normal(size=4)
            y = float(rng.normal())
            before_w = [w.copy() for w in model.weights]
            before_b = [b.copy() for b in model.biases]

            def loss(ws, bs):
                a = x
                for w, b in zip(ws[:-1], bs[:-1]):
                    a = np.maximum(w @ a + b, 0.0)
                out = float((ws[-1] @ a + bs[-1])[0])
                return 0.5 * (out - y) ** 2  # scaler is identity pre-data

            model.learn_one(x, y)
            for li in range(len(before_w)):
                got = (before_w[li] - model.weights[li]) / model.lr
                flat = got.ravel()
                idxs = rng.choice(flat.size, size=min(10, flat.size),
                                  replace=False)
                for fi in idxs:
                    i, j = np.unravel_index(fi, got.shape)
                    h = 1e-6
                    wp = [w.copy() for w in before_w]
                    wm = [w.copy() for w in before_w]
                    wp[li][i, j] += h
                    wm[li][i, j] -= h
                    want = (loss(wp, before_b) - loss(wm, before_b)) / (2 * h)
                    assert flat[fi] == pytest.approx(want, abs=1e-4)

    def test_bias_gradients_too(self):
        rng = np.random.default_rng(8)
        model = McDropoutNet(3, seed=1, hidden=(5,), dropout=0.0, lr=0.02,
                             max_grad_norm=math.inf)
        x = rng.normal(size=3)
        y = 1.3
        before_w = [w.copy() for w in model.weights]
        before_b = [b.copy() for b in model.biases]

        def loss(bs):
            a = np.maximum(before_w[0] @ x + bs[0], 0.0)
            return 0.5 * (float((before_w[1] @ a + bs[1])[0]) - y) ** 2

        model.learn_one(x, y)
        for li in range(2):
            got = (before_b[li] - model.biases[li]) / model.lr
            for j in range(len(got)):
                h = 1e-6
                bp = [b.copy() for b in before_b]
                bm = [b.copy() for b in before_b]
                bp[li][j] += h
                bm[li][j] -= h
                want = (loss(bp) - loss(bm)) / (2 * h)
                assert got[j] == pytest.approx(want, abs=1e-4)


class TestMcDropoutBehavior:
    def test_interval_calls_leave_training_untouched(self):
        rng = np.random.default_rng(9)
        xs = rng.normal(size=(80, 3))
        ys = xs @ np.array([1.0, 0.5, -1.0]) + rng.normal(0, 0.1, 80)
        a = McDropoutNet(3, seed=2, dropout=0.2)
        b = McDropoutNet(3, seed=2, dropout=0.2)
        for x, y in zip(xs, ys):
            a.learn_one(x, float(y))
            if b.n_seen > 0:
                b.predict_interval(x)
                b.predict_interval(x)
            b.learn_one(x, float(y))
        for w1, w2 in zip(a.weights, b.weights):
            np.testing.assert_array_equal(w1, w2)

    def test_interval_repeatable_at_fixed_step(self):
        rng = np.random.default_rng(10)
        model = McDropoutNet(2, seed=3, dropout=0.3)
        for _ in range(30):
            x = rng.normal(size=2)
            model.learn_one(x, float(x.sum()))
        x = np.ones(2)
        a, b = model.predict_interval(x), model.predict_interval(x)
        assert (a.point, a.lower, a.upper, a.sigma) == \
            (b.point, b.lower, b.upper, b.sigma)

    def test_sigma_positive_and_interval_symmetric(self):
        rng = np.random.default_rng(11)
        model = McDropoutNet(2, seed=4, dropout=0.2)
        for _ in range(60):
            x = rng.normal(size=2)
            model.learn_one(x, float(x[0] + rng.normal(0, 0.5)))
        pi = model.predict_interval(np.ones(2))
        assert pi.sigma > 0
        assert pi.upper - pi.point == pytest.approx(pi.point - pi.lower)
        assert pi.upper - pi.point == pytest.approx(Z90 * pi.sigma)

    def test_needs_history(self):
        model = McDropoutNet(2, seed=0)
        with pytest.raises(InsufficientHistoryError):
            model.predict_interval(np.zeros(2))

    def test_divergence_detected(self):
        # clipping off: the finite-weight check is the last line of defense
        model = McDropoutNet(1, seed=0, hidden=(4,), dropout=0.0, lr=1e8,
                             max_grad_norm=math.inf)
        with pytest.raises(DivergenceError):
            for i in range(200):
                model.learn_one(np.array([1.0]), float(1 + i % 3))

    def test_gradient_clipping_keeps_extreme_steps_finite(self):
        model = McDropoutNet(1, seed=0, hidden=(4,), dropout=0.0, lr=1e8)
        for i in range(200):
            model.learn_one(np.array([1.0]), float(1 + i % 3))
        assert all(np.isfinite(w).all() for w in model.weights)

    def test_validation(self):
        with pytest.raises(ValueError):
            McDropoutNet(2, hidden=())
        with pytest.raises(ValueError):
            McDropoutNet(2, dropout=1.0)
        with pytest.raises(ValueError):
            McDropoutNet(2, n_passes=1)


# values each setting refuses besides those its table below tries
REFUSED = {
    ("qarf", "max_depth"): (-3,),
    ("qr", "l2"): (-1.0,),
    ("mcnn", "lr"): (0, -0.5),
    ("qarf", "disable_drift"): ("no", 1),
}


class TestFactoryAndCheckpoints:
    def test_factory_kinds(self):
        for kind in MODEL_KINDS:
            model = make_model(kind, 3, seed=1)
            assert model.kind == kind
        with pytest.raises(ValueError):
            make_model("torch", 3)

    @pytest.mark.parametrize("kind, param, good", [
        ("qknn", "k", 10), ("qknn", "window", 30),
        ("qknn", "min_neighbors", 3), ("qarf", "n_trees", 3),
        ("qarf", "n_bins", 8), ("qarf", "max_depth", 6),
        ("mcnn", "n_passes", 5), ("mcnn", "residual_window", 4)])
    def test_count_params_are_whole_numbers(self, kind, param, good):
        """A bool or a fractional count is an error, not a truncation; an
        integral float is the same count."""
        for bad in (good + 0.5, True, False, float("nan"),
                    *REFUSED.get((kind, param), ())):
            with pytest.raises(ValueError, match=param):
                make_model(kind, 3, **{param: bad})
        model = make_model(kind, 3, **{param: float(good)})
        same = make_model(kind, 3, **{param: good})
        assert pickle.dumps(model) == pickle.dumps(same)

    @pytest.mark.parametrize("kind, param, good", [
        ("qr", "lr", 1), ("qr", "l2", 0), ("mcnn", "lr", 1),
        ("mcnn", "dropout", 0), ("mcnn", "max_grad_norm", 5),
        ("qarf", "warn_delta", 0.05), ("qarf", "drift_delta", 0.01),
        ("qarf", "disable_drift", True)])
    def test_float_params_refuse_booleans(self, kind, param, good):
        """A bool is an error, not 1.0 or 0.0; an int is the same
        setting as its float.  A bool setting takes a bool alone, numpy's
        as the same setting."""
        wrong = () if type(good) is bool else (True, False)
        for bad in (*wrong, "0.1", [good], *REFUSED.get((kind, param), ())):
            with pytest.raises(ValueError, match=param):
                make_model(kind, 3, **{param: bad})
        model = make_model(kind, 3, **{param: np.bool_(good)
                                       if type(good) is bool else float(good)})
        same = make_model(kind, 3, **{param: good})
        assert pickle.dumps(model) == pickle.dumps(same)

    @pytest.mark.parametrize("kind, param", [
        ("qr", "lr"), ("qr", "l2"), ("mcnn", "lr"), ("mcnn", "max_grad_norm")])
    def test_float_params_refuse_nan_and_infinities(self, kind, param):
        """A NaN or infinite setting fails at construction, not at the
        first ``learn_one`` or never; ``max_grad_norm`` alone takes +inf,
        which turns clipping off."""
        bads = [math.nan, np.float64("nan"), -math.inf]
        if param != "max_grad_norm":
            bads.append(math.inf)
        for bad in bads:
            with pytest.raises(ValueError, match=param):
                make_model(kind, 3, **{param: bad})

    def test_infinite_max_grad_norm_never_clips(self):
        rng = np.random.default_rng(14)
        unclipped = make_model("mcnn", 3, seed=2, max_grad_norm=math.inf)
        huge = make_model("mcnn", 3, seed=2, max_grad_norm=1e300)
        for x in rng.normal(size=(100, 3)):
            y = float(x.sum() * 50.0)
            unclipped.learn_one(x, y)
            huge.learn_one(x, y)
        assert unclipped.max_grad_norm == math.inf
        assert pickle.dumps(unclipped.weights) == pickle.dumps(huge.weights)

    def test_hidden_widths_are_whole_numbers(self):
        for bad in ((16.5,), (True,), (8, 4.25)):
            with pytest.raises(ValueError, match="hidden"):
                McDropoutNet(3, hidden=bad)
        assert McDropoutNet(3, hidden=(8.0, 4)).hidden == (8, 4)

    @pytest.mark.parametrize("kind", ["mean", "qr", "qknn", "qarf", "mcnn"])
    def test_roundtrip_then_identical_continuation(self, kind):
        """A pickled model is the whole model: the restored copy learns
        and predicts exactly like one that never stopped."""
        rng = np.random.default_rng(12)
        model = make_model(kind, 3, seed=7)
        xs = rng.normal(size=(60, 3))
        ys = xs @ np.array([2.0, -1.0, 0.3]) + rng.normal(0, 0.2, 60)
        for x, y in zip(xs[:40], ys[:40]):
            model.learn_one(x, float(y))
        clone = pickle.loads(pickle.dumps(model))
        for x, y in zip(xs[40:], ys[40:]):
            model.learn_one(x, float(y))
            clone.learn_one(x, float(y))
        probe = rng.normal(size=3)
        a, b = model.predict_interval(probe), clone.predict_interval(probe)
        assert (a.point, a.lower, a.upper, a.sigma) == \
            (b.point, b.lower, b.upper, b.sigma)


class TestNonFiniteTarget:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_rejected_before_any_state_changes(self, kind, bad):
        """A non-finite target raises and leaves the model byte-equal, so
        it reaches no running statistic, window, leaf or weight."""
        rng = np.random.default_rng(13)
        model = make_model(kind, 3, seed=7)
        xs = rng.normal(size=(80, 3))
        for x in xs[:-1]:
            model.learn_one(x, float(x[0] + rng.normal(0, 0.2)))
        before = pickle.dumps(model)
        with pytest.raises(ValueError, match="target"):
            model.learn_one(xs[-1], bad)
        assert pickle.dumps(model) == before


class TestIntervalCalibrationQuick:
    """Loose coverage check on stationary noise for every interval model."""

    @pytest.mark.parametrize("kind,hyper", [
        ("qr", {"lr": 0.1}),
        ("qknn", {"k": 40, "window": 300}),
        ("qarf", {"n_trees": 5}),
        ("mcnn", {"dropout": 0.1}),
    ])
    def test_coverage_near_nominal(self, kind, hyper):
        rng = np.random.default_rng(13)
        model = make_model(kind, 1, seed=0, **hyper)
        hits = total = 0
        for t in range(900):
            x = rng.normal(size=1)
            y = float(2.0 * x[0] + rng.normal(0, 1.0))
            if t >= 400:
                try:
                    pi = model.predict_interval(x)
                    hits += pi.contains(y)
                    total += 1
                except InsufficientHistoryError:
                    pass
            model.learn_one(x, y)
        assert total > 300
        assert 0.75 <= hits / total <= 1.0


# -- the light kinds' plainer numpy writing, kept as oracles ---------------
#
# Each reference step below is the model's own step as first written:
# np.append for the intercept, one update per quantile head, mean() over
# the neighbours, np.mean for the sample variance, one forward pass per
# call and np.clip/np.square/np.outer in the net's update.  The shipped
# steps must give the same bytes.


def reference_qr_predict(m, x):
    lo_z, mid_z, hi_z = m.thetas @ np.append(x, 1.0)
    point = m._scaler.inverse(float(mid_z))
    lower = min(m._scaler.inverse(float(lo_z)), point)
    upper = max(m._scaler.inverse(float(hi_z)), point)
    return PredictionInterval(point, lower, upper, None)


def reference_qr_learn(m, x, y):
    y_z = m._scaler.transform(y)
    xa = np.append(x, 1.0)
    preds = m.thetas @ xa
    step = m.lr / (1.0 + LR_DECAY * m.n_seen)
    with np.errstate(over="ignore", invalid="ignore"):
        for h, tau in enumerate(m.taus):
            grad = -tau * xa if y_z >= preds[h] else (1.0 - tau) * xa
            m.thetas[h] -= step * (grad + 2.0 * m.l2 * m.thetas[h])
    m._scaler.update(y)
    m.n_seen += 1


def reference_qknn_predict(m, x):
    n = m.size
    dists = _kernels.sq_distances(m._xs[:n], x)
    order = np.lexsort((m._stamps[:n], dists))
    kk = min(m.k, n)
    neigh = np.sort(m._ys[:n][order[:kk]])
    point = float(neigh.mean())
    alpha = (1.0 - m.confidence) / 2.0
    lo_rank = min(max(math.floor(alpha * (kk + 1)), 1), kk) - 1
    hi_rank = min(max(math.ceil((1.0 - alpha) * (kk + 1)), 1), kk) - 1
    lower = min(float(neigh[lo_rank]), point)
    upper = max(float(neigh[hi_rank]), point)
    return PredictionInterval(point, lower, upper, None)


def reference_mcnn_forward(m, x, masks):
    acts = [x]
    a = x
    for i, (w, b) in enumerate(zip(m.weights[:-1], m.biases[:-1])):
        a = np.maximum(w @ a + b, 0.0)
        if masks is not None:
            a = a * masks[i] / (1.0 - m.dropout)
        acts.append(a)
    return float((m.weights[-1] @ a + m.biases[-1])[0]), acts


def reference_mcnn_predict(m, x):
    out, _ = reference_mcnn_forward(m, x, None)
    point = m._scaler.inverse(out)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([m.seed, 0xACC, m.n_seen])))
    a = np.broadcast_to(x, (m.n_passes, len(x)))
    for w, b in zip(m.weights[:-1], m.biases[:-1]):
        a = np.maximum(a @ w.T + b, 0.0)
        mask = rng.random(a.shape) >= m.dropout
        a = a * mask / (1.0 - m.dropout)
    samples = (a @ m.weights[-1].T + m.biases[-1]).ravel()
    var_model = float(np.mean((samples - samples.mean()) ** 2))
    var_noise = (sum(m._sq_residuals) / len(m._sq_residuals)
                 if m._sq_residuals else 0.0)
    sigma = math.sqrt(var_model + var_noise) * m._scaler.scale
    return PredictionInterval.gaussian(point, sigma, m.z)


def reference_mcnn_learn(m, x, y):
    """Returns whether the gradient was clipped."""
    y_z = float(np.clip(m._scaler.transform(y), -10.0, 10.0))
    with np.errstate(over="ignore", invalid="ignore"):
        out_pre, _ = reference_mcnn_forward(m, x, None)
        m._sq_residuals.append(float(np.square(np.float64(y_z - out_pre))))
    if len(m._sq_residuals) > m.residual_window:
        m._sq_residuals.pop(0)
    masks = [(m._train_rng.random(h) >= m.dropout).astype(float)
             for h in m.hidden]
    with np.errstate(over="ignore", invalid="ignore"):
        out, acts = reference_mcnn_forward(m, x, masks)
        keep = 1.0 - m.dropout
        delta = np.array([out - y_z])
        grads_w, grads_b = [], []
        for i in range(len(m.weights) - 1, -1, -1):
            grads_w.append(np.outer(delta, acts[i]))
            grads_b.append(delta)
            if i > 0:
                delta = (m.weights[i].T @ delta) * (acts[i] > 0.0) / keep
        grads_w.reverse()
        grads_b.reverse()
        norm = math.sqrt(sum(float((g ** 2).sum())
                             for g in grads_w + grads_b))
        scale = 1.0
        if math.isfinite(norm) and norm > m.max_grad_norm:
            scale = m.max_grad_norm / norm
        for i in range(len(m.weights)):
            m.weights[i] -= m.lr * scale * grads_w[i]
            m.biases[i] -= m.lr * scale * grads_b[i]
    m._scaler.update(y)
    m.n_seen += 1
    return scale < 1.0


def interval_bits(pi):
    return repr((pi.point, pi.lower, pi.upper, pi.sigma))


def oracle_stream(seed, n, d, pool=None):
    """(x, y) pairs with heavy-tailed targets, so a net's clamp of the
    standardized target fires; rows come from ``pool`` when given, which
    makes exact duplicates and so distance ties."""
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=d)
    for t in range(n):
        x = (pool[rng.integers(len(pool))] if pool is not None
             else rng.normal(size=d) * rng.choice([0.1, 1.0, 5.0]))
        y = float(x @ coef + rng.standard_t(2))
        if pool is not None:
            y = round(y, 1)  # repeated target values tie in the sort
        yield x, y


class TestLightKindOracle:
    """``qr``, ``qknn`` and ``mcnn`` give the reference steps' bytes over
    long streams with settings the golden records do not reach."""

    @staticmethod
    def run(model, stream, reference_predict, reference_learn,
            pickle_every=1):
        ref = copy.deepcopy(model)
        results = []
        for t, (x, y) in enumerate(stream):
            try:
                got = interval_bits(model.predict_interval(x))
            except InsufficientHistoryError:
                got = None
            if got is not None:
                assert got == interval_bits(reference_predict(ref, x)), t
            model.learn_one(x, y)
            results.append(reference_learn(ref, x, y))
            if t % pickle_every == 0:
                assert pickle.dumps(model) == pickle.dumps(ref), t
        assert pickle.dumps(model) == pickle.dumps(ref)
        return results

    @pytest.mark.parametrize("hyper", [{}, {"lr": 0.1}])
    @pytest.mark.parametrize("d", [6, 35])
    def test_qr(self, hyper, d):
        model = QuantileRegressor(d, **hyper)
        self.run(model, oracle_stream(21, 2000, d), reference_qr_predict,
                 reference_qr_learn)

    @pytest.mark.parametrize("hyper, one_neighbour", [
        ({"k": 1, "min_neighbors": 1}, True),  # every interval is a point
        ({"k": 40, "window": 15, "min_neighbors": 2}, False),  # k > window
        ({"k": 10, "window": 120}, False),
    ])
    def test_qknn(self, hyper, one_neighbour):
        pool = np.random.default_rng(22).normal(size=(7, 4)).round(1)
        model = QuantileKnn(4, **hyper)
        widths = []

        def predict(m, x):
            pi = reference_qknn_predict(m, x)
            widths.append(pi.width)
            return pi

        self.run(model, oracle_stream(23, 1500, 4, pool), predict,
                 lambda m, x, y: m.learn_one(x, y), pickle_every=25)
        assert len(widths) > 1000
        assert all(w == 0.0 for w in widths) == one_neighbour

    @pytest.mark.parametrize("hyper", [
        {},
        {"hidden": (16, 8), "dropout": 0.3, "n_passes": 7,
         "residual_window": 3, "max_grad_norm": 0.5},
        {"hidden": (5,), "dropout": 0.0, "n_passes": 2},
    ])
    def test_mcnn(self, hyper):
        model = McDropoutNet(5, seed=9, **hyper)
        clipped = self.run(model, oracle_stream(24, 1500, 5),
                           reference_mcnn_predict, reference_mcnn_learn)
        if "max_grad_norm" in hyper:
            assert 0 < sum(clipped) < len(clipped)

    def test_mcnn_target_clamp_fires(self):
        """np.clip's clamp of the standardized target, at both ends."""
        model = McDropoutNet(2, seed=1, hidden=(3,), lr=1e-3)
        stream = [(np.array([0.5, -1.0]), v)
                  for v in (0.0, 1.0, 1e6, -1e6, 2.0, 1e150, -1e150, 3.0)]
        scaler = copy.deepcopy(model._scaler)
        clamped = 0
        for _, y in stream:
            clamped += abs(scaler.transform(y)) > 10.0
            scaler.update(y)
        assert clamped >= 2
        self.run(model, stream, reference_mcnn_predict, reference_mcnn_learn)

    def test_mcnn_strided_rows(self):
        """A row that is a strided view, every other value of a wider row
        or a reversed one, gives the ``np.broadcast_to`` reference's bytes
        on the row's contiguous copy, and is left as it was."""
        stream = []
        for t, (x, y) in enumerate(oracle_stream(26, 600, 5)):
            if t % 2:
                wide = np.zeros(10)
                wide[::2] = x
                x = wide[::2]
            else:
                x = x[::-1].copy()[::-1]
            assert not x.flags.c_contiguous
            stream.append((x, y))
        rows = [x.tobytes() for x, _ in stream]
        model = McDropoutNet(5, seed=3, hidden=(8, 4))
        self.run(model, stream,
                 lambda m, x: reference_mcnn_predict(m, x.copy()),
                 lambda m, x, y: reference_mcnn_learn(m, x.copy(), y))
        assert [x.tobytes() for x, _ in stream] == rows


class TestGoldenPickledModels:
    def test_golden_pickled_light_models(self):
        """The pickled bytes of ``qr``, ``qknn`` and ``mcnn`` after a fixed
        stream pin their weights, windows and residuals and the layout of
        their state: a step that changes a bit of it, or a scratch buffer
        kept on the model, fails here."""
        digest = hashlib.sha256()
        for kind in ("qr", "qknn", "mcnn"):
            model = make_model(kind, 4, seed=5)
            for x, y in oracle_stream(25, 400, 4):
                if model.n_seen >= 5:
                    model.predict_interval(x)
                model.learn_one(x, y)
            for protocol in (pickle.DEFAULT_PROTOCOL, pickle.HIGHEST_PROTOCOL):
                digest.update(pickle.dumps(model, protocol))
        assert digest.hexdigest() == GOLDEN_LIGHT_STATE_DIGEST
