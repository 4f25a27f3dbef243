"""Tests for cohort selection, feature screening, and grid search."""

import math
from datetime import date, timedelta

import numpy as np
import pytest

from drivecast.data_model import DailyExample
from drivecast.exceptions import ConfigError
from drivecast.features import RUN_AVG_WINDOW, FeatureSchema, FeatureSpec
from drivecast.selection import (
    backward_sfs,
    combine_screens,
    encode_batch,
    forward_sfs,
    grid_search,
    hopkins_statistic,
    pearson_screen,
    select_well_behaving,
    vif_prune,
    vif_scores,
)

D0 = date(2023, 5, 1)


def stream(vid, ys_by_day, features_fn, dists=None):
    out = []
    for i, y in enumerate(ys_by_day):
        dist = float(2 * y) if dists is None else float(dists[i])
        out.append(DailyExample(
            vehicle_id=vid, day=D0 + timedelta(days=i),
            features=features_fn(i), target_departure=float(y),
            target_distance=dist))
    return out


class TestHopkins:
    def test_tight_clusters_score_high(self):
        rng = np.random.default_rng(0)
        pts = np.vstack([rng.normal([2, 2], 0.05, size=(100, 2)),
                         rng.normal([8, 9], 0.05, size=(100, 2))])
        assert hopkins_statistic(pts, seed=1) > 0.85

    def test_uniform_scores_half(self):
        rng = np.random.default_rng(3)
        vals = [hopkins_statistic(rng.uniform(size=(300, 2)), seed=s)
                for s in range(10)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.06)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(50, 2))
        assert hopkins_statistic(pts, seed=9) == hopkins_statistic(pts, seed=9)

    def test_degenerate_dimension_ignored(self):
        rng = np.random.default_rng(2)
        pts = np.column_stack([rng.uniform(size=400), np.full(400, 3.0)])
        h = hopkins_statistic(pts, seed=0)
        assert h == pytest.approx(0.5, abs=0.12)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            hopkins_statistic(np.array([[1.0, 2.0]]))


class TestSelectWellBehaving:
    def fleet(self, n_tight=5, n_loose=5, n_days=120, seed=0):
        # routine drivers show separated modes (commute days vs weekend
        # outings); erratic ones fill the plane
        rng = np.random.default_rng(seed)
        out = {}
        for i in range(n_tight):
            half = n_days // 2
            ys = np.concatenate([rng.normal(8.0, 0.15, size=half),
                                 rng.normal(10.5, 0.2, size=n_days - half)])
            ds = np.concatenate([rng.normal(30.0, 1.0, size=half),
                                 rng.normal(55.0, 2.0, size=n_days - half)])
            out[f"tight-{i}"] = stream(f"tight-{i}", ys, lambda d: {},
                                       dists=ds)
        for i in range(n_loose):
            ys = rng.uniform(2.0, 20.0, size=n_days)
            ds = rng.uniform(1.0, 80.0, size=n_days)
            out[f"loose-{i}"] = stream(f"loose-{i}", ys, lambda d: {},
                                       dists=ds)
        return out

    def test_ranks_tight_vehicles_first(self):
        sel = select_well_behaving(self.fleet(), n_select=5, seed=0)
        assert set(sel["selected"]) == {f"tight-{i}" for i in range(5)}
        assert sel["shortfall"] == 0

    def test_split_is_disjoint_and_deterministic(self):
        fleet = self.fleet()
        s1 = select_well_behaving(fleet, n_select=10, seed=4)
        s2 = select_well_behaving(fleet, n_select=10, seed=4)
        assert s1 == s2
        assert set(s1["train"]) | set(s1["validation"]) == set(s1["selected"])
        assert not set(s1["train"]) & set(s1["validation"])
        assert len(s1["validation"]) == 2

    def test_shortfall_reported(self):
        sel = select_well_behaving(self.fleet(n_tight=2, n_loose=1),
                                   n_select=10, seed=0)
        assert sel["shortfall"] == 7
        assert len(sel["selected"]) == 3

    def test_tiny_history_ties_break_by_vehicle_id(self):
        fleet = {v: stream(v, [5.0], lambda d: {}) for v in ("b", "a", "c")}
        sel = select_well_behaving(fleet, n_select=2, seed=0)
        assert all(sel["hopkins"][v] == 0.0 for v in fleet)
        assert sel["selected"] == ["a", "b"]


def encode_fleet(fleet, schema, target="departure"):
    """One ``encode_batch`` pair per vehicle, as the select stage builds."""
    return [encode_batch(ex, schema, target) for ex in fleet.values()]


def abc_schema():
    return FeatureSchema([
        FeatureSpec("a", "numeric", "a"),
        FeatureSpec("b", "numeric", "b"),
        FeatureSpec("c", "numeric", "c"),
    ])


class TestEncodeBatch:
    def test_target_averages_are_causal(self):
        schema = FeatureSchema([
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("target_hist_avg", "numeric", "target_hist_avg"),
            FeatureSpec("target_run_avg", "numeric", "target_run_avg"),
        ])
        ys = [10.0, 14.0, 6.0, 12.0, 9.0, 15.0, 7.0, 11.0, 13.0, 8.0]
        examples = stream("v", ys, lambda d: {"a": float(d)})
        x, y = encode_batch(examples, schema, "departure")
        assert np.array_equal(y, ys)
        assert np.isnan(x[0, 1]) and np.isnan(x[0, 2])
        for i in range(1, len(ys)):
            assert x[i, 1] == pytest.approx(np.mean(ys[:i]))
            assert x[i, 2] == pytest.approx(
                np.mean(ys[max(0, i - RUN_AVG_WINDOW):i]))

    def test_distance_target(self):
        schema = abc_schema()
        examples = stream("v", [3.0, 4.0],
                          lambda d: {"a": 1.0, "b": 2.0, "c": 3.0})
        _, y = encode_batch(examples, schema, "distance")
        assert list(y) == [6.0, 8.0]


class TestPearsonScreen:
    def fleet(self, seed=0, n=400):
        rng = np.random.default_rng(seed)
        out = {}
        for vid in ("v1", "v2"):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            ys = 5.0 + 2.0 * a + rng.normal(0.0, 0.1, size=n)
            out[vid] = stream(vid, ys, lambda d, a=a, b=b: {
                "a": float(a[d]), "b": float(b[d]), "c": 1.0})
        return out

    def test_matches_numpy_oracle(self):
        fleet = self.fleet()
        schema = abc_schema()
        res = pearson_screen(encode_fleet(fleet, schema), schema)
        expected = np.zeros(3)
        for ex in fleet.values():
            x, y = encode_batch(ex, schema, "departure")
            for j in range(2):
                expected[j] += np.corrcoef(x[:, j], y)[0, 1] / len(fleet)
        assert res["per_column"]["a"] == pytest.approx(expected[0], abs=1e-8)
        assert res["per_column"]["b"] == pytest.approx(expected[1], abs=1e-8)

    def test_flags_weak_and_constant(self):
        # threshold sits well above the ~0.035 sampling noise of an
        # averaged correlation at this sample size
        schema = abc_schema()
        res = pearson_screen(encode_fleet(self.fleet(), schema), schema,
                             threshold=0.1)
        assert "a" not in res["weak"]
        assert "b" in res["weak"]  # pure noise
        assert "c" in res["weak"]  # constant, correlation defined as 0
        assert res["per_column"]["c"] == 0.0

    def test_onehot_group_needs_every_column_weak(self):
        rng = np.random.default_rng(4)
        cats = ("lo", "hi")
        schema = FeatureSchema([
            FeatureSpec("grp", "onehot", "grp", categories=cats)])
        picks = rng.choice(cats, size=200)
        ys = np.where(picks == "hi", 9.0, 3.0) + rng.normal(0, 0.2, 200)
        fleet = {"v": stream("v", ys,
                             lambda d: {"grp": str(picks[d])})}
        res = pearson_screen(encode_fleet(fleet, schema), schema)
        assert res["weak"] == []


class TestForwardSfs:
    def make_fleet(self, seed=0, n=200):
        rng = np.random.default_rng(seed)
        out = {}
        for vid in ("v1", "v2"):
            a = rng.normal(size=n)
            b = rng.normal(size=n)
            c = rng.normal(size=n)  # distractor
            ys = 4.0 + 3.0 * a - 2.0 * b + rng.normal(0.0, 0.05, size=n)
            out[vid] = stream(vid, ys, lambda d, a=a, b=b, c=c: {
                "a": float(a[d]), "b": float(b[d]), "c": float(c[d])})
        return out

    def test_selects_true_features_in_gain_order(self):
        schema = abc_schema()
        res = forward_sfs(encode_fleet(self.make_fleet(), schema), schema)
        assert res["selected"][:2] == ["a", "b"]
        assert "c" not in res["selected"]
        maes = [h["mae"] for h in res["history"]]
        assert maes == sorted(maes, reverse=True)
        assert res["mae"] < 0.1

    def test_onehot_moves_as_unit(self):
        rng = np.random.default_rng(2)
        cats = ("x", "y", "z")
        schema = FeatureSchema([
            FeatureSpec("noise", "numeric", "noise"),
            FeatureSpec("grp", "onehot", "grp", categories=cats),
        ])
        picks = rng.choice(cats, size=240)
        level = {"x": 2.0, "y": 8.0, "z": 15.0}
        ys = np.array([level[p] for p in picks]) + rng.normal(0, 0.1, 240)
        fleet = {"v": stream("v", ys, lambda d: {
            "noise": float(rng.normal()), "grp": str(picks[d])})}
        res = forward_sfs(encode_fleet(fleet, schema), schema)
        assert res["selected"] == ["grp"]


class TestVif:
    def test_scores_match_inverse_correlation_oracle(self):
        rng = np.random.default_rng(7)
        base = rng.normal(size=(400, 2))
        x = np.column_stack([
            base[:, 0],
            0.8 * base[:, 0] + 0.6 * rng.normal(size=400),
            base[:, 1],
            rng.normal(size=400),
        ])
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        got = vif_scores(xs)
        oracle = np.diag(np.linalg.inv(np.corrcoef(x, rowvar=False)))
        np.testing.assert_allclose(got, oracle, atol=1e-8)

    def test_perfect_collinearity_is_infinite(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=100)
        x = np.column_stack([a, 2.0 * a + 1.0, rng.normal(size=100)])
        xs = (x - x.mean(axis=0)) / x.std(axis=0)
        scores = vif_scores(xs)
        assert math.isinf(scores[0]) and math.isinf(scores[1])
        assert scores[2] < 2.0

    def test_prune_drops_duplicate_descriptor(self):
        rng = np.random.default_rng(3)
        schema = FeatureSchema([
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("a_twin", "numeric", "a"),  # same raw source
            FeatureSpec("b", "numeric", "b"),
        ])
        n = 150
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        fleet = {"v": stream("v", rng.normal(size=n),
                             lambda d: {"a": float(a[d]), "b": float(b[d])})}
        res = vif_prune(encode_fleet(fleet, schema), schema, schema.names)
        assert res["dropped"] == ["a"]  # worst column ties break earliest
        assert res["schema"].names == ["a_twin", "b"]

    def test_prune_keeps_independent_features(self):
        rng = np.random.default_rng(5)
        n = 150
        cols = rng.normal(size=(n, 3))
        fleet = {"v": stream("v", rng.normal(size=n), lambda d: {
            "a": float(cols[d, 0]), "b": float(cols[d, 1]),
            "c": float(cols[d, 2])})}
        schema = abc_schema()
        res = vif_prune(encode_fleet(fleet, schema), schema, schema.names)
        assert res["dropped"] == []
        assert res["schema"].names == ["a", "b", "c"]

    def test_onehot_exempt_from_pruning(self):
        rng = np.random.default_rng(6)
        cats = ("p", "q")
        schema = FeatureSchema([
            FeatureSpec("grp", "onehot", "grp", categories=cats),
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("a_twin", "numeric", "a"),
        ])
        n = 120
        a = rng.normal(size=n)
        picks = rng.choice(cats, size=n)
        fleet = {"v": stream("v", rng.normal(size=n), lambda d: {
            "grp": str(picks[d]), "a": float(a[d])})}
        res = vif_prune(encode_fleet(fleet, schema), schema, schema.names)
        assert "grp" not in res["dropped"]
        assert "grp" in res["schema"].names

    def test_named_columns_equal_encoding_under_their_subset(self):
        rng = np.random.default_rng(8)
        schema = FeatureSchema([
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("a_twin", "numeric", "a"),
            FeatureSpec("b", "numeric", "b"),
            FeatureSpec("b_near", "numeric", "b_near"),
            FeatureSpec("c", "numeric", "c"),
        ])
        n = 150
        cols = rng.normal(size=(n, 3))
        near = cols[:, 1] + rng.normal(0.0, 0.05, size=n)
        fleet = {vid: stream(vid, rng.normal(size=n), lambda d: {
            "a": float(cols[d, 0]), "b": float(cols[d, 1]),
            "b_near": float(near[d]), "c": float(cols[d, 2])})
            for vid in ("v1", "v2")}
        encoded = encode_fleet(fleet, schema)
        assert vif_prune(encoded, schema, schema.names)["dropped"] == [
            "a", "b"]
        for names in (["a", "b", "b_near", "c"], ["a_twin", "b", "c"]):
            sub = schema.subset(names)
            got = vif_prune(encoded, schema, names)
            want = vif_prune(encode_fleet(fleet, sub), sub, names)
            assert got["dropped"] == want["dropped"]
            assert got["schema"].names == want["schema"].names


class TestCombineScreens:
    def test_intersection_rule(self):
        schema = abc_schema()
        out = combine_screens(schema, weak_pearson=["a", "b"],
                              sfs_selected=["b", "c"])
        # only a is disfavored by both screens
        assert out.names == ["b", "c"]

    def test_nothing_dropped_when_screens_disagree(self):
        schema = abc_schema()
        out = combine_screens(schema, weak_pearson=["a"],
                              sfs_selected=["a", "b", "c"])
        assert out.names == ["a", "b", "c"]


def eval_fleet(seed=0, n=60, noise=2.0):
    rng = np.random.default_rng(seed)
    out = {}
    for vid in ("v1", "v2"):
        a = rng.normal(size=n)
        ys = 8.0 + 2.0 * a + rng.normal(0.0, noise, size=n)
        out[vid] = stream(vid, ys, lambda d, a=a: {
            "a": float(a[d]), "b": float(rng.normal(0.0, 30.0)),
            "c": 0.0})
    return out


class TestBackwardSfs:
    def test_no_change_when_features_are_ignored(self):
        fleet = eval_fleet()
        res = backward_sfs(fleet, abc_schema(), "departure", "mean",
                           run_seed=0, warmup=10)
        assert res["removed"] == []
        assert res["schema"].names == ["a", "b", "c"]

    def test_removes_harmful_feature(self):
        fleet = eval_fleet(seed=3, noise=0.3)
        base = backward_sfs(fleet, abc_schema(), "departure", "qknn",
                            run_seed=0, warmup=10,
                            hyper={"k": 10})
        assert "a" not in base["removed"]
        assert "b" in base["removed"]


class TestGridSearch:
    def test_picks_better_hyper(self):
        fleet = eval_fleet(seed=1, noise=3.0)
        res = grid_search(fleet, abc_schema(), "departure", "qknn",
                          {"k": [1, 25]}, run_seed=2, warmup=10)
        assert res["best"] == {"k": 25}  # heavy noise punishes 1-NN
        assert [r["params"]["k"] for r in res["results"]] == [1, 25]
        assert res["best_mae"] == min(r["mae"] for r in res["results"])

    def test_tie_keeps_first_in_product_order(self):
        fleet = eval_fleet(seed=2, n=40)
        res = grid_search(fleet, abc_schema(), "departure", "qknn",
                          {"k": [5], "window": [300, 400]},
                          run_seed=0, warmup=10)
        # the window never binds at 30 examples, so scores tie exactly
        assert res["results"][0]["mae"] == res["results"][1]["mae"]
        assert res["best"] == {"k": 5, "window": 300}

    def test_deterministic(self):
        fleet = eval_fleet(seed=4)
        kw = dict(run_seed=7, warmup=10)
        r1 = grid_search(fleet, abc_schema(), "departure", "qknn",
                         {"k": [3, 9]}, **kw)
        r2 = grid_search(fleet, abc_schema(), "departure", "qknn",
                         {"k": [3, 9]}, **kw)
        assert r1 == r2

    def test_diverging_setting_recorded_and_skipped(self):
        fleet = eval_fleet(seed=1)
        res = grid_search(fleet, abc_schema(), "departure", "qr",
                          {"lr": [1e300, 0.1]}, run_seed=2, warmup=10)
        assert res["results"][0] == {"params": {"lr": 1e300}, "mae": None}
        assert res["best"] == {"lr": 0.1}
        assert res["best_mae"] == res["results"][1]["mae"]
        with pytest.raises(ConfigError):
            grid_search(fleet, abc_schema(), "departure", "qr",
                        {"lr": [1e300]}, run_seed=2, warmup=10)

    def test_abstaining_setting_recorded_and_skipped(self):
        # a window below min_neighbors never holds enough neighbors
        fleet = eval_fleet(seed=1)
        res = grid_search(fleet, abc_schema(), "departure", "qknn",
                          {"window": [3, 365]}, run_seed=2, warmup=10)
        assert res["results"][0] == {"params": {"window": 3}, "mae": None}
        assert res["best"] == {"window": 365}
        with pytest.raises(ConfigError, match="abstained"):
            grid_search(fleet, abc_schema(), "departure", "qknn",
                        {"window": [3]}, run_seed=2, warmup=10)
        # the same window answers once min_neighbors fits inside it
        res = grid_search(fleet, abc_schema(), "departure", "qknn",
                          {"window": [3], "min_neighbors": [1]},
                          run_seed=2, warmup=10)
        assert res["results"][0]["mae"] is not None

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            grid_search({}, abc_schema(), "departure", "qknn", {})
        with pytest.raises(ValueError):
            grid_search({}, abc_schema(), "departure", "qknn", {"k": []})
