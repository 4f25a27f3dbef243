"""Encoders, schema plumbing, and online standardization."""

import math
import pickle

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
from drivecast.data_model import build_daily_examples, preprocess_fleet
from drivecast.synthdata import generate_fleet


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
        assert mask[schema.column_index(["prev_start_part_of_day"])].all()

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
        spec_columns = {s.name: s.columns for s in schema.specs}
        assert [schema.columns[j] for j in cols] == [
            c for n in names for c in spec_columns[n]]
        assert len(cols) == 4
        assert len(schema.column_index([])) == 0


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
        with pytest.raises(ValueError, match="passthrough"):
            OnlineStandardizer(3, passthrough=np.array([False, True]))

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
        hist, run = schema.column_index(["target_hist_avg", "target_run_avg"])

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
        [hist] = schema.column_index(["target_hist_avg"])
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

    def test_non_finite_target_rejected_with_state_unchanged(self):
        pipe, _ = self.make()
        for y in (10.0, 20.0):
            pipe.transform({"is_workday": 1.0})
            pipe.update_target(y)
        before = pickle.dumps(pipe)
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="finite"):
                pipe.update_target(bad)
            with pytest.raises(ValueError, match="finite"):
                pipe.remember_target(bad)
        assert pickle.dumps(pipe) == before
        assert pipe.target_stats.mean == 15.0

    def test_pickled_size_constant(self):
        """Constant memory per vehicle: a pipeline's pickled size is the
        same after 10^3 and after 10^4 rows."""
        rng = np.random.default_rng(5)
        pipe = FeaturePipeline(default_schema())
        keys = [s.source for s in pipe.schema.specs
                if s.kind != "onehot" and not s.source.startswith("target")]
        sizes = []
        for n in range(1, 10_001):
            raw = dict(zip(keys, rng.uniform(0.0, 30.0, len(keys))))
            raw["prev_start_part_of_day"] = "noon"
            pipe.transform(raw)
            pipe.update_target(float(n % 13))
            if n in (1_000, 10_000):
                sizes.append(len(pickle.dumps(pipe)))
        assert sizes[0] == sizes[1]


# -- the numpy writing of encode and the standardizer, kept as the oracle


def reference_encode(schema, raw):
    x = np.zeros(schema.dim)
    at = 0
    for s in schema.specs:
        sl = slice(at, at + s.width)
        at += s.width
        v = raw.get(s.source)
        if s.kind == "onehot":
            if v is None:
                continue
            if v not in s.categories:
                raise DataError(
                    f"unknown category {v!r} for descriptor {s.name}")
            x[sl.start + s.categories.index(v)] = 1.0
            continue
        if v is None or (isinstance(v, float) and math.isnan(v)):
            x[sl] = np.nan
            continue
        v = float(v)
        if s.kind == "numeric":
            x[sl.start] = v
        else:
            phase = 2.0 * math.pi * (v - s.offset) / s.period
            x[sl.start] = math.sin(phase)
            x[sl.start + 1] = math.cos(phase)
    return x


class ReferenceStandardizer:
    def __init__(self, dim, passthrough):
        self.dim = dim
        self.passthrough = np.asarray(passthrough)
        self.count = np.zeros(dim)
        self.mean = np.zeros(dim)
        self._m2 = np.zeros(dim)

    def std(self):
        out = np.zeros(self.dim)
        ok = self.count >= 2
        out[ok] = np.sqrt(np.maximum(self._m2[ok] / (self.count[ok] - 1),
                                     0.0))
        return out

    def transform_update(self, x):
        std = self.std()
        ready = (self.count >= 2) & (std > 1e-9) & np.isfinite(x)
        z = np.zeros(self.dim)
        z[ready] = np.clip((x[ready] - self.mean[ready]) / std[ready],
                           -8.0, 8.0)
        z[self.passthrough] = np.where(np.isfinite(x[self.passthrough]),
                                       x[self.passthrough], 0.0)
        finite = np.isfinite(x) & ~self.passthrough
        self.count[finite] += 1
        delta = x[finite] - self.mean[finite]
        self.mean[finite] += delta / self.count[finite]
        self._m2[finite] += delta * (x[finite] - self.mean[finite])
        return z


class TestTransformOracle:
    """``FeaturePipeline.transform`` and ``OnlineStandardizer`` give the
    bytes of the vectorised numpy writing above, row for row."""

    @staticmethod
    def assert_pipeline_matches(schema, raws, targets):
        pipe = FeaturePipeline(schema)
        ref = ReferenceStandardizer(schema.dim, schema.passthrough_mask())
        for raw, y in zip(raws, targets):
            want = ref.transform_update(
                reference_encode(schema, pipe.with_target_averages(raw)))
            assert pipe.transform(raw).tobytes() == want.tobytes()
            if y is not None:
                pipe.update_target(y)
        assert pipe._std.count.tobytes() == ref.count.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_fleet_row(self, seed):
        fleet, _ = generate_fleet(n_regular=3, n_irregular=1, n_days=200,
                                  seed=seed)
        kept, _ = preprocess_fleet(fleet)
        full = default_schema()
        sub = full.subset(["day_of_week_cyc", "prev_start_hour",
                           "prev_start_part_of_day", "prev_end_hours_cyc",
                           "prev_distance_km", "target_hist_avg",
                           "target_run_avg"])
        for vid in sorted(kept):
            examples = build_daily_examples(kept[vid])
            raws = [ex.features for ex in examples]
            for schema in (full, sub):
                self.assert_pipeline_matches(
                    schema, raws, [ex.target_departure for ex in examples])
                self.assert_pipeline_matches(
                    schema, raws, [ex.target_distance for ex in examples])

    def test_edge_rows(self):
        schema = FeatureSchema([
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("b_cyc", "cyclic", "b", period=24.0),
            FeatureSpec("pod", "onehot", "pod",
                        categories=("morning", "noon", "evening")),
            FeatureSpec("once", "numeric", "once"),
            FeatureSpec("flat", "numeric", "flat"),
            FeatureSpec("target_hist_avg", "numeric", "target_hist_avg"),
        ])
        nan = float("nan")
        raws = [
            {},
            {"a": None, "b": None, "pod": None, "flat": 4.0},
            {"a": nan, "b": nan, "flat": 4.0},
            {"a": 1.0, "b": 23.0, "pod": "noon", "flat": 4.0},
            {"a": 1.0, "b": 1.0, "once": 7.0, "flat": 4.0},
            {"a": 1.5, "b": np.float64(nan), "pod": "morning", "flat": 4.0},
            # z far beyond +8, then far below -8
            {"a": 1e6, "b": 12.0, "pod": "evening", "flat": 4.0},
            {"a": -1e9, "b": 6.0, "flat": 4.0},
            {"a": 2, "b": 0, "pod": "noon", "flat": 4.0},
            {"a": np.float32(nan), "b": -3.5, "flat": 4.0},
        ]
        self.assert_pipeline_matches(schema, raws,
                                     [1.0, None, 3.0, 2.0, None, 8.0, 5.0,
                                      1.0, 2.0, 4.0])

    @pytest.mark.parametrize("bad", ["dawn", 3.0, float("nan"), ["noon"]])
    def test_unknown_category_same_error(self, bad):
        schema = FeatureSchema([
            FeatureSpec("a", "numeric", "a"),
            FeatureSpec("pod", "onehot", "pod",
                        categories=("morning", "noon"))])
        with pytest.raises(DataError) as want:
            reference_encode(schema, {"a": 1.0, "pod": bad})
        with pytest.raises(DataError) as got:
            schema.encode({"a": 1.0, "pod": bad})
        assert str(got.value) == str(want.value)
        with pytest.raises(DataError) as got:
            FeaturePipeline(schema).transform({"a": 1.0, "pod": bad})
        assert str(got.value) == str(want.value)

    def test_standardizer_on_extreme_values(self):
        """Non-finite passthrough and scaled values, overflowing
        statistics, constant and sparse columns, against the oracle."""
        rng = np.random.default_rng(11)
        passthrough = np.array([False] * 6 + [True] * 2)
        std = OnlineStandardizer(8, passthrough)
        ref = ReferenceStandardizer(8, passthrough)
        # a finite mean under an infinite std, then a value whose distance
        # from the mean overflows: z is inf / inf, NaN, and stays NaN
        for v in (-1.5e308, -1.5e308 + 1e300, 1e308):
            x = np.full(8, np.nan)
            x[:3] = v
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref.transform_update(x)
            assert std.transform_update(x).tobytes() == want.tobytes()
        assert np.isnan(want[0])
        specials = [np.nan, np.inf, -np.inf, 1e308, -1e308, 0.0, -0.0]
        for i in range(400):
            x = rng.normal(size=8) * 10.0 ** rng.integers(-3, 4, 8)
            x[3] = 4.0  # constant column
            x[4] = 2.5 if i == 50 else np.nan  # one finite value only
            hit = rng.random(8) < 0.1
            x[hit] = rng.choice(specials, hit.sum())
            with np.errstate(over="ignore", invalid="ignore"):
                want = ref.transform_update(x)
            assert std.transform_update(x).tobytes() == want.tobytes()
        assert std.count.tobytes() == ref.count.tobytes()
