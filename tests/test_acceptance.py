"""End-to-end acceptance checks for the toolkit's headline guarantees.

Each class verifies one property the package promises: exact small-scale
oracles, gradient correctness, interval calibration, fleet-level accuracy
against the running-mean baseline, drift recovery, routine-vehicle
selection, bounded per-observation cost and memory, and byte-identical
pipeline reruns.  The heavyweight set-ups are module fixtures so each
expensive simulation runs once.
"""

import copy
import json
import math
import time
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from drivecast.cli import main
from drivecast.data_model import build_daily_examples, preprocess_fleet
from drivecast.evaluation import evaluate_fleet
from drivecast.exceptions import InsufficientHistoryError
from drivecast.features import default_schema
from drivecast.models import McDropoutNet, QuantileKnn, QuantileRegressor, make_model
from drivecast.selection import encode_batch, pearson_screen, vif_scores
from drivecast.streaming import KllSketch
from drivecast.synthdata import DEFAULT_START, generate_fleet
from drivecast.selection import select_well_behaving

MODEL_KINDS = ("mean", "qr", "qknn", "qarf", "mcnn")
LEARNED_KINDS = ("qr", "qknn", "qarf", "mcnn")
INTERVAL_KINDS = ("qr", "qknn", "qarf", "mcnn")


# -- 1. exact oracles at small scale -------------------------------------

def brute_force_knn(stored, x, k, alpha):
    """Full-scan neighbor query over (stamp, x, y) triples, ties to older."""
    dists = np.array([float(np.sum((np.asarray(px) - x) ** 2))
                      for _, px, _ in stored])
    stamps = np.array([s for s, _, _ in stored])
    order = np.lexsort((stamps, dists))
    kk = min(k, len(stored))
    neigh = np.sort(np.array([stored[i][2] for i in order[:kk]]))
    lo = neigh[min(max(math.floor(alpha * (kk + 1)), 1), kk) - 1]
    hi = neigh[min(max(math.ceil((1 - alpha) * (kk + 1)), 1), kk) - 1]
    point = float(neigh.mean())
    return point, min(float(lo), point), max(float(hi), point)


class TestExactOracles:
    def test_knn_matches_full_scan_on_streams(self):
        """1000 streamed points per seed, 20 seeds, exact agreement."""
        t0 = time.time()
        for seed in range(20):
            rng = np.random.default_rng(seed)
            model = QuantileKnn(2, k=9, window=120)
            stored = []
            for t in range(1000):
                x = rng.normal(size=2).round(1)  # rounding forces ties
                y = float(rng.normal())
                if t >= model.min_neighbors and t % 7 == 0:
                    q = rng.normal(size=2).round(1)
                    pi = model.predict_interval(q)
                    want = brute_force_knn(stored, q, 9, 0.05)
                    assert pi.point == pytest.approx(want[0], abs=1e-12)
                    assert pi.lower == pytest.approx(want[1], abs=1e-12)
                    assert pi.upper == pytest.approx(want[2], abs=1e-12)
                model.learn_one(x, y)
                stored.append((t, x.copy(), y))
                if len(stored) > 120:
                    stored.pop(0)
        assert time.time() - t0 < 60.0

    def test_sketch_rank_error_within_two_percent(self):
        rng = np.random.default_rng(3)
        values = np.concatenate([rng.normal(size=60_000),
                                 rng.uniform(-4, 4, size=40_000)])
        sketch = KllSketch(k=200, seed=1)
        for v in values:
            sketch.insert(float(v))
        ordered = np.sort(values)
        for q in (0.05, 0.5, 0.95):
            est = sketch.quantile(q)
            rank = np.searchsorted(ordered, est) / len(ordered)
            assert abs(rank - q) <= 0.02

    def test_vif_matches_inverse_correlation_oracle(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(400, 3))
        x = np.column_stack([base[:, 0],
                             base[:, 0] * 0.8 + base[:, 1] * 0.6,
                             base[:, 2]])
        got = vif_scores(x)
        want = np.diag(np.linalg.inv(np.corrcoef(x, rowvar=False)))
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_pearson_matches_direct_correlation(self):
        schema = default_schema().subset(["prev_distance_km", "prev_temp_mean"])
        fleet, _ = generate_fleet(n_regular=3, n_irregular=0, n_days=120,
                                  seed=4)
        kept, _ = preprocess_fleet(fleet)
        examples = {v: build_daily_examples(h) for v, h in kept.items()}
        vid = sorted(examples)[0]
        xm, y = encode_batch(examples[vid], schema, "departure")
        # recompute that vehicle's correlations directly
        per_col = np.zeros(xm.shape[1])
        for j in range(xm.shape[1]):
            col = xm[:, j]
            m = np.isfinite(col)
            if m.sum() >= 3 and np.std(col[m]) > 0 and np.std(y[m]) > 0:
                per_col[j] = np.corrcoef(col[m], y[m])[0, 1]
        single = pearson_screen([(xm, y)], schema)
        got = np.array([single["per_column"][c] for c in schema.columns])
        np.testing.assert_allclose(got, per_col, atol=1e-8)


# -- 2. gradient checks --------------------------------------------------

class TestGradientChecks:
    def test_pinball_steps_match_finite_differences(self):
        t0 = time.time()
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 15:
            model = QuantileRegressor(3, lr=0.05, l2=1e-3)
            model.thetas = rng.normal(size=(3, 4)) * 0.5
            x = rng.normal(size=3)
            xa = np.append(x, 1.0)
            y = float(rng.normal() * 2)
            if any(abs(y - float(t @ xa)) < 0.1 for t in model.thetas):
                continue  # too close to the pinball kink
            checked += 1
            before = model.thetas.copy()
            model.learn_one(x, y)

            def loss(theta, tau):
                diff = y - float(theta @ xa)
                pin = tau * diff if diff >= 0 else (tau - 1.0) * diff
                return pin + model.l2 * float(theta @ theta)

            for h, tau in enumerate(model.taus):
                step = (before[h] - model.thetas[h]) / model.lr
                for j in range(4):
                    eps = 1e-6
                    tp, tm = before[h].copy(), before[h].copy()
                    tp[j] += eps
                    tm[j] -= eps
                    want = (loss(tp, tau) - loss(tm, tau)) / (2 * eps)
                    assert step[j] == pytest.approx(want, rel=1e-4, abs=1e-7)
        assert time.time() - t0 < 30.0

    def test_backprop_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        model = McDropoutNet(4, seed=2, hidden=(8, 5), dropout=0.0,
                             lr=0.01, max_grad_norm=math.inf)
        x = rng.normal(size=4)
        y = 0.7
        before_w = [w.copy() for w in model.weights]
        before_b = [b.copy() for b in model.biases]

        def loss(ws, bs):
            a = x
            for w, b in zip(ws[:-1], bs[:-1]):
                a = np.maximum(w @ a + b, 0.0)
            out = float((ws[-1] @ a + bs[-1])[0])
            return 0.5 * (out - y) ** 2  # target scaler is identity pre-data

        model.learn_one(x, y)
        for li in range(len(before_w)):
            got = (before_w[li] - model.weights[li]) / model.lr
            for fi in rng.choice(got.size, size=min(12, got.size),
                                 replace=False):
                i, j = np.unravel_index(fi, got.shape)
                h = 1e-6
                wp = [w.copy() for w in before_w]
                wm = [w.copy() for w in before_w]
                wp[li][i, j] += h
                wm[li][i, j] -= h
                want = (loss(wp, before_b) - loss(wm, before_b)) / (2 * h)
                assert got[i, j] == pytest.approx(want, abs=1e-4)


# -- 3. interval calibration on a well-specified stream ------------------

def _coverage(kind: str, seed: int, n: int = 500, warm: int = 200) -> float:
    """Empirical 90% coverage on y ~ N(mu, sigma) with an irrelevant
    standard-normal feature; scored over the last n - warm points."""
    rng = np.random.Generator(np.random.PCG64(seed))
    mu = 10.0 * rng.random() - 5.0
    sigma = 0.5 + 2.0 * rng.random()
    model = make_model(kind, n_features=1, seed=seed)
    inside = total = 0
    for t in range(n):
        x = np.array([rng.normal()])
        y = rng.normal(mu, sigma)
        if t >= warm:
            iv = model.predict_interval(x)
            total += 1
            inside += (iv.lower <= y <= iv.upper)
        model.learn_one(x, y)
    return inside / total


class TestIntervalCalibration:
    @pytest.mark.parametrize("kind", INTERVAL_KINDS)
    def test_ninety_percent_band_hit(self, kind):
        t0 = time.time()
        cov = [_coverage(kind, seed) for seed in range(20)]
        n_ok = sum(0.85 <= c <= 0.95 for c in cov)
        assert n_ok >= 18, f"{kind}: coverages {sorted(cov)}"
        assert time.time() - t0 < 300.0


# -- 4. fleet-scale accuracy against the running-mean baseline -----------

@pytest.fixture(scope="module")
def fleet_results():
    """All five models on both targets over the default fleet's routine
    cohort; returns (aggregates, elapsed seconds)."""
    t0 = time.time()
    fleet, _ = generate_fleet(seed=0)  # default 125 vehicles, 365 days
    kept, _ = preprocess_fleet(fleet)
    examples = {v: build_daily_examples(h) for v, h in kept.items()}
    chosen = select_well_behaving(examples, n_select=100, seed=0)["selected"]
    cohort = {v: examples[v] for v in chosen}
    schema = default_schema()
    agg = {}
    for kind in MODEL_KINDS:
        for target in ("departure", "distance"):
            res, _ = evaluate_fleet(cohort, kind, schema, target, run_seed=0)
            agg[(kind, target)] = res["aggregate"]
    return agg, time.time() - t0


class TestFleetAccuracy:
    def test_every_model_beats_running_mean_baseline(self, fleet_results):
        agg, _ = fleet_results
        for kind in LEARNED_KINDS:
            for target in ("departure", "distance"):
                assert agg[(kind, target)]["mae"] < agg[("mean", target)]["mae"], (
                    f"{kind} on {target}: {agg[(kind, target)]['mae']:.3f} vs "
                    f"baseline {agg[('mean', target)]['mae']:.3f}")

    def test_best_model_within_rate_is_1_5x_baseline(self, fleet_results):
        agg, _ = fleet_results
        for target in ("departure", "distance"):
            best = max(agg[(k, target)]["within_pct"] for k in LEARNED_KINDS)
            base = agg[("mean", target)]["within_pct"]
            assert best >= 1.5 * base, f"{target}: best {best} base {base}"

    def test_runs_inside_ten_minutes(self, fleet_results):
        _, elapsed = fleet_results
        assert elapsed < 600.0


# -- 5. drift recovery through tree replacement --------------------------

@pytest.fixture(scope="module")
def drift_ratios():
    """Median post-shift error ratio, adaptive vs detection-disabled.

    A +3 h departure shift lands on every vehicle at day 180 and stays in
    force through the 60-day measurement window.  Both arms share one
    configuration; only drift detection differs.  The feature set is
    calendar-only so recovery must come from tree replacement rather than
    from recent-average features tracking the shift.
    """
    t0 = time.time()
    schema = default_schema().subset(
        ["day_of_week", "day_of_week_cyc", "is_workday"])
    lo = DEFAULT_START + timedelta(days=180)
    hi = DEFAULT_START + timedelta(days=240)

    def window_mae(records):
        errs = [r.abs_error for r in records
                if lo <= r.day < hi and not r.warmup and not r.abstained]
        return float(np.mean(errs))

    hyper = {"warn_delta": 0.1, "drift_delta": 0.05}
    ablation = dict(hyper, disable_drift=True)
    ratios = []
    for seed in range(10):
        fleet, _ = generate_fleet(
            n_regular=5, n_irregular=0, n_days=250, seed=seed,
            drift={"day": 180, "departure_shift": 3.0,
                   "distance_shift": 0.0, "fraction": 1.0})
        kept, _ = preprocess_fleet(fleet)
        ex = {v: build_daily_examples(h) for v, h in kept.items()}
        _, adaptive = evaluate_fleet(ex, "qarf", schema, "departure",
                                     run_seed=0, hyper=hyper)
        _, frozen = evaluate_fleet(ex, "qarf", schema, "departure",
                                   run_seed=0, hyper=ablation)
        ratios.append(window_mae(adaptive) / window_mae(frozen))
    return ratios, time.time() - t0


class TestDriftRecovery:
    def test_adaptive_forest_beats_detection_disabled_ablation(
            self, drift_ratios):
        ratios, _ = drift_ratios
        assert float(np.median(ratios)) <= 0.8, ratios

    def test_runs_inside_five_minutes(self, drift_ratios):
        _, elapsed = drift_ratios
        assert elapsed < 300.0


# -- 6. routine-vehicle selection ----------------------------------------

class TestRoutineSelection:
    def test_recovers_planted_routine_drivers(self):
        t0 = time.time()
        fleet, truth = generate_fleet(n_regular=100, n_irregular=50,
                                      n_days=365, seed=0)
        kept, _ = preprocess_fleet(fleet)
        examples = {v: build_daily_examples(h) for v, h in kept.items()}
        sel = select_well_behaving(examples, n_select=100, seed=0)
        arche = {v: info["archetype"] for v, info in truth["vehicles"].items()}
        hits = sum(1 for v in sel["selected"] if arche[v] == "regular")
        assert hits >= 90
        assert time.time() - t0 < 120.0


# -- 7. per-observation cost and memory bounds ---------------------------

def _amortized_block_times(kind, n=100_000, block=1000, dim=4, seed=0,
                           replays=3):
    """Mean per-observation predict+learn seconds for the first and the
    last 1000-observation block of an n-observation stream.

    Each block is replayed ``replays`` times from a copy of the model as it
    stood before the block, and the fastest replay counts, so a burst of
    outside load during one run does not decide the ratio."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs = rng.normal(size=(n, dim))
    ys = xs @ rng.normal(size=dim) + rng.normal(0.0, 0.5, size=n)

    def step(model, i):
        try:
            model.predict_interval(xs[i])
        except InsufficientHistoryError:
            pass
        model.learn_one(xs[i], float(ys[i]))

    def fastest(model, start):
        best = math.inf
        for _ in range(replays):
            replay = copy.deepcopy(model)
            t0 = time.perf_counter()
            for i in range(start, start + block):
                step(replay, i)
            best = min(best, time.perf_counter() - t0)
        return best / block

    # warm a throwaway model first so one-time set-up stays out of the
    # first timed block
    warm = make_model(kind, n_features=dim, seed=seed)
    for i in range(30):
        step(warm, i)

    model = make_model(kind, n_features=dim, seed=seed)
    early = fastest(model, 0)
    for i in range(n - block):
        step(model, i)
    return early, fastest(model, n - block)


class TestResourceBounds:
    @pytest.mark.parametrize("kind", MODEL_KINDS)
    def test_amortized_cost_flat_from_1e3_to_1e5(self, kind):
        early, late = _amortized_block_times(kind)
        assert late <= 2.0 * early, (
            f"{kind}: early {early * 1e6:.1f}us late {late * 1e6:.1f}us")

    def test_knn_memory_stays_inside_window(self):
        model = QuantileKnn(3, k=10, window=250)
        rng = np.random.default_rng(0)
        for _ in range(100_000):
            model.learn_one(rng.normal(size=3), float(rng.normal()))
        assert model._xs.shape == (250, 3)
        assert model._ys.shape == (250,)
        assert model.size <= model.window

    def test_sketch_memory_sublinear_in_stream_length(self):
        sketch = KllSketch(k=200, seed=0)
        rng = np.random.default_rng(1)
        n = 1_000_000
        for chunk in range(100):
            for v in rng.normal(size=n // 100):
                sketch.insert(float(v))
        bound = 4 * 200 * math.log2(n / 200)
        assert sketch.retained_items() <= bound
        assert sketch.n == n


# -- 8. byte-identical pipeline reruns -----------------------------------

class TestPipelineDeterminism:
    def test_two_runs_produce_identical_artifacts(self, tmp_path):
        cfg = {
            "seed": 7,
            "synth": {"n_regular": 5, "n_irregular": 2, "n_days": 80},
            "select": {"n_select": 5, "max_vehicles": 4},
            "tune": {"max_vehicles": 2, "grids": {"qknn": {"k": [5, 15]}}},
            "evaluate": {"models": ["mean", "qr", "qknn"], "warmup": 10},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            rc = main(["all", "--config", str(cfg_path), "--out", str(out)])
            assert rc == 0
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*")
                         if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*")
                         if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), (
                f"{rel} differs between reruns")
        report = (out_a / "report" / "report.md").read_text()
        assert "qknn" in report
