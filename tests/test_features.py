"""Encoders, schema plumbing, and online standardization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drivecast.exceptions import DataError
from drivecast.features import (
    RUN_AVG_WINDOW,
    FeaturePipeline,
    FeatureSchema,
    FeatureSpec,
    OnlineStandardizer,
    RunningStats,
    default_schema,
    part_of_day,
)


class TestPartOfDay:
    @pytest.mark.parametrize("hour,want", [
        (0.0, "night"), (5.99, "night"),
        (6.0, "morning"), (10.99, "morning"),
        (11.0, "noon"), (12.99, "noon"),
        (13.0, "afternoon"), (16.99, "afternoon"),
        (17.0, "evening"), (23.99, "evening"),
    ])
    def test_bins(self, hour, want):
        assert part_of_day(hour) == want

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            part_of_day(24.0)
        with pytest.raises(ValueError):
            part_of_day(-0.1)


class TestEncoding:
    def test_cyclic_matches_sincos(self):
        schema = FeatureSchema([
            FeatureSpec("hour_cyc", "cyclic", "hour", period=24.0)])
        x = schema.encode({"hour": 6.0})
        assert x[0] == pytest.approx(math.sin(2 * math.pi * 6 / 24))
        assert x[1] == pytest.approx(math.cos(2 * math.pi * 6 / 24))

    def test_cyclic_wraps_endpoints_close(self):
        schema = FeatureSchema([
            FeatureSpec("hour_cyc", "cyclic", "hour", period=24.0)])
        late = schema.encode({"hour": 23.0})
        early = schema.encode({"hour": 1.0})
        noonish = schema.encode({"hour": 12.0})
        assert np.linalg.norm(late - early) < np.linalg.norm(late - noonish)

    def test_cyclic_offset(self):
        schema = FeatureSchema([
            FeatureSpec("dom_cyc", "cyclic", "dom", period=31.0, offset=1.0)])
        x = schema.encode({"dom": 1.0})
        assert x[0] == pytest.approx(0.0) and x[1] == pytest.approx(1.0)

    def test_onehot(self):
        schema = FeatureSchema([
            FeatureSpec("pod", "onehot", "pod",
                        categories=("morning", "noon", "evening"))])
        np.testing.assert_array_equal(schema.encode({"pod": "noon"}),
                                      [0.0, 1.0, 0.0])
        np.testing.assert_array_equal(schema.encode({}), [0.0, 0.0, 0.0])
        with pytest.raises(DataError):
            schema.encode({"pod": "dawn"})

    def test_missing_numeric_becomes_nan(self):
        schema = FeatureSchema([
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("b_cyc", "cyclic", "b", period=10.0)])
        x = schema.encode({"a": None, "b": float("nan")})
        assert np.isnan(x).all()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            FeatureSpec("x", "weird", "x")
        with pytest.raises(ValueError):
            FeatureSpec("x", "cyclic", "x")
        with pytest.raises(ValueError):
            FeatureSpec("x", "onehot", "x")


class TestDefaultSchema:
    def test_dimensions(self):
        schema = default_schema()
        assert schema.dim == 35
        assert len(schema.names) == 25
        assert len(schema.columns) == 35
        assert len(set(schema.columns)) == 35

    def test_sources_align_with_daily_example_keys(self):
        from drivecast.data_model import RAW_FEATURE_KEYS
        allowed = set(RAW_FEATURE_KEYS) | {"target_hist_avg", "target_run_avg"}
        for spec in default_schema().specs:
            assert spec.source in allowed

    def test_passthrough_only_onehot(self):
        schema = default_schema()
        mask = schema.passthrough_mask()
        assert mask.sum() == 5
        assert mask[schema.group_slice("prev_start_part_of_day")].all()

    def test_subset_preserves_order(self):
        schema = default_schema()
        sub = schema.subset(["prev_end_hours", "day_of_week_cyc", "is_workday"])
        assert sub.names == ["day_of_week_cyc", "is_workday", "prev_end_hours"]
        assert sub.dim == 4
        with pytest.raises(ValueError):
            schema.subset(["nope"])

    def test_column_index_follows_given_order(self):
        schema = default_schema()
        names = ["prev_end_hours", "day_of_week_cyc", "is_workday"]
        cols = schema.column_index(names)
        assert [schema.columns[j] for j in cols] == [
            c for n in names for c in schema.columns[schema.group_slice(n)]]
        assert len(cols) == 4
        assert len(schema.column_index([])) == 0

    def test_roundtrip(self):
        schema = default_schema()
        again = FeatureSchema.from_dict(schema.to_dict())
        assert again.to_dict() == schema.to_dict()
        assert again.columns == schema.columns


class TestRunningStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=40)
        rs = RunningStats()
        for v in values:
            rs.update(v)
        assert rs.count == 40
        assert rs.mean == pytest.approx(values.mean())
        assert rs.std == pytest.approx(values.std(ddof=1))

    def test_short_history(self):
        rs = RunningStats()
        assert rs.std == 0.0
        rs.update(3.0)
        assert rs.mean == 3.0
        assert rs.std == 0.0


class TestOnlineStandardizer:
    def test_transform_before_update(self):
        std = OnlineStandardizer(1)
        assert std.transform_update(np.array([10.0]))[0] == 0.0
        assert std.transform_update(np.array([20.0]))[0] == 0.0
        # stats now cover {10, 20}: mean 15, std ~7.071
        z = std.transform_update(np.array([20.0]))[0]
        assert z == pytest.approx((20 - 15) / np.std([10, 20], ddof=1))

    def test_converges_to_batch_zscore(self):
        rng = np.random.default_rng(1)
        data = rng.normal(5.0, 3.0, size=2000)
        std = OnlineStandardizer(1)
        for v in data:
            std.transform_update(np.array([v]))
        z = std.transform_update(np.array([8.0]))[0]
        assert z == pytest.approx((8.0 - data.mean()) / data.std(ddof=1),
                                  rel=1e-6)

    def test_nan_input_gives_zero_and_skips_stats(self):
        std = OnlineStandardizer(1)
        for v in (1.0, 3.0):
            std.transform_update(np.array([v]))
        before = std.count.copy()
        assert std.transform_update(np.array([np.nan]))[0] == 0.0
        assert (std.count == before).all()

    def test_constant_column_gives_zero(self):
        std = OnlineStandardizer(1)
        for _ in range(10):
            z = std.transform_update(np.array([4.0]))
            assert z[0] == 0.0

    def test_passthrough_untouched(self):
        std = OnlineStandardizer(2, passthrough=np.array([False, True]))
        for v in (1.0, 5.0, 9.0):
            z = std.transform_update(np.array([v, 1.0]))
            assert z[1] == 1.0
        assert std.count[1] == 0

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            OnlineStandardizer(3).transform_update(np.zeros(2))

    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_output_always_finite(self, values):
        std = OnlineStandardizer(1)
        for v in values:
            assert np.isfinite(std.transform_update(np.array([v]))).all()


class TestFeaturePipeline:
    def make(self):
        schema = default_schema().subset(
            ["is_workday", "target_hist_avg", "target_run_avg"])
        return FeaturePipeline(schema), schema

    def test_target_averages_track_history(self):
        pipe, schema = self.make()
        hist = schema.group_slice("target_hist_avg").start
        run = schema.group_slice("target_run_avg").start

        # no history yet: average columns are missing, encoded as 0
        z = pipe.transform({"is_workday": 1.0})
        assert z[hist] == 0.0 and z[run] == 0.0
        raw = pipe.with_target_averages({"is_workday": 1.0})
        assert raw["target_hist_avg"] is None and raw["target_run_avg"] is None
        pipe.update_target(10.0)
        raw = pipe.with_target_averages({"is_workday": 1.0})
        assert raw["target_hist_avg"] == raw["target_run_avg"] == 10.0
        targets = [10.0 * (i + 1) for i in range(RUN_AVG_WINDOW + 3)]
        for y in targets[1:]:
            pipe.update_target(y)

        raw = pipe.with_target_averages({"is_workday": 1.0})
        assert raw["is_workday"] == 1.0
        assert raw["target_hist_avg"] == pytest.approx(np.mean(targets))
        assert raw["target_run_avg"] == pytest.approx(
            np.mean(targets[-RUN_AVG_WINDOW:]))

    def test_standardized_averages_match_oracle(self):
        pipe, schema = self.make()
        hist = schema.group_slice("target_hist_avg").start
        targets = [10.0, 20.0, 30.0, 40.0]
        zs = []
        for y in targets:
            zs.append(pipe.transform({"is_workday": 1.0})[hist])
            pipe.update_target(y)
        # day 4's hist-average input is mean(10,20,30)=20; the
        # standardizer has seen only the day-2 and day-3 inputs {10, 15}
        prior = np.array([10.0, 15.0])
        assert zs[3] == pytest.approx((20 - prior.mean()) / prior.std(ddof=1))

    def test_full_schema_smoke(self):
        pipe = FeaturePipeline(default_schema())
        raw = {
            "day_of_month": 5.0, "day_of_week": 2.0, "is_workday": 1.0,
            "prev_start_hour": 7.0, "prev_start_minute": 30.0,
            "prev_start_part_of_day": "morning", "prev_end_hours": 17.5,
            "prev_distance_km": 12.0, "charge_start_hours": 21.0,
            "charge_soc_initial": 40.0, "prev_speed_mean": 55.0,
            "prev_speed_std": 12.0, "prev_accel_mean": 0.1,
            "prev_accel_std": 0.9, "prev_temp_mean": 18.0,
            "prev_sunload_mean": 300.0, "prev_soc_mean": 70.0,
        }
        for day in range(10):
            z = pipe.transform(raw)
            assert z.shape == (35,)
            assert np.isfinite(z).all()
            pipe.update_target(7.0 + 0.1 * day)
