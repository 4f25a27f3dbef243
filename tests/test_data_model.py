"""Session validation, cleanup filters, daily examples, and CSV round trips."""

import math
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from drivecast.data_model import (
    ChargeSession,
    DailyExample,
    TripSession,
    VehicleHistory,
    build_daily_examples,
    filter_short_sessions,
    filter_sparse_vehicles,
    merge_adjacent_sessions,
    preprocess_fleet,
    preprocess_history,
    read_daily_examples_csv,
    read_sessions_csv,
    write_daily_examples_csv,
    write_sessions_csv,
)
from drivecast.exceptions import DataError

T0 = datetime(2024, 3, 4, 8, 0)  # a Monday


def trip(start, minutes, dist=10.0, vid="v1", **kw):
    return TripSession(vid, start, start + timedelta(minutes=minutes),
                       distance_km=dist, **kw)


class TestValidation:
    def test_trip_end_before_start(self):
        with pytest.raises(DataError):
            TripSession("v", T0, T0, 1.0)

    def test_negative_distance(self):
        with pytest.raises(DataError):
            trip(T0, 10, dist=-1.0)

    def test_negative_std(self):
        with pytest.raises(DataError):
            trip(T0, 10, speed_std=-0.5)

    def test_charge_soc_range(self):
        with pytest.raises(DataError):
            ChargeSession("v", T0, T0 + timedelta(hours=1),
                          soc_initial_pct=120.0)
        ChargeSession("v", T0, T0 + timedelta(hours=1),
                      soc_initial_pct=float("nan"))  # missing is fine


class TestFilters:
    def test_short_sessions_dropped(self):
        keep = trip(T0, 50 / 60)
        drop = TripSession("v1", T0, T0 + timedelta(seconds=49), 0.1)
        assert filter_short_sessions([keep, drop]) == [keep]

    def test_sparse_vehicles_dropped_by_drive_count(self):
        rich = VehicleHistory("rich", [trip(T0 + timedelta(days=i), 10)
                                       for i in range(50)])
        poor = VehicleHistory("poor", [trip(T0 + timedelta(days=i), 10)
                                       for i in range(49)])
        chargers = VehicleHistory("chargers", [trip(T0, 10)], [
            ChargeSession("chargers", T0 + timedelta(hours=i + 2),
                          T0 + timedelta(hours=i + 2, minutes=30))
            for i in range(100)
        ])
        kept = filter_sparse_vehicles([rich, poor, chargers])
        assert [h.vehicle_id for h in kept] == ["rich"]


class TestMerge:
    def test_gap_under_15min_merges(self):
        a = trip(T0, 20, dist=5.0)
        b = trip(T0 + timedelta(minutes=34, seconds=59), 10, dist=3.0)
        merged = merge_adjacent_sessions([a, b])
        assert len(merged) == 1
        m = merged[0]
        assert m.start == a.start and m.end == b.end
        assert m.distance_km == pytest.approx(8.0)

    def test_gap_of_exactly_15min_does_not_merge(self):
        a = trip(T0, 20)
        b = trip(T0 + timedelta(minutes=35), 10)
        assert len(merge_adjacent_sessions([a, b])) == 2

    def test_overlap_raises(self):
        a = trip(T0, 20)
        b = trip(T0 + timedelta(minutes=19), 10)
        with pytest.raises(DataError):
            merge_adjacent_sessions([a, b])

    def test_pooled_signal_stats_match_sample_oracle(self):
        # pretend 1 Hz signals: a 120 s part and a 60 s part; pooling
        # weighted by measured seconds must match concatenated samples
        rng = np.random.default_rng(0)
        sa = rng.normal(50, 5, 120)
        sb = rng.normal(30, 2, 60)
        a = trip(T0, 2, speed_mean=sa.mean(), speed_std=sa.std())
        b = trip(T0 + timedelta(minutes=3), 1, speed_mean=sb.mean(),
                 speed_std=sb.std())
        m = merge_adjacent_sessions([a, b])[0]
        both = np.concatenate([sa, sb])
        assert m.speed_mean == pytest.approx(both.mean())
        assert m.speed_std == pytest.approx(both.std())

    def test_three_way_merge_weights_measured_time(self):
        rng = np.random.default_rng(1)
        parts = [rng.normal(40, 6, n) for n in (300, 120, 600)]
        starts = [T0, T0 + timedelta(minutes=10), T0 + timedelta(minutes=20)]
        trips = [trip(s, len(p) / 60, speed_mean=p.mean(), speed_std=p.std())
                 for s, p in zip(starts, parts)]
        m = merge_adjacent_sessions(trips)
        assert len(m) == 1
        both = np.concatenate(parts)
        assert m[0].speed_mean == pytest.approx(both.mean())
        assert m[0].speed_std == pytest.approx(both.std())

    def test_missing_signals_do_not_poison(self):
        a = trip(T0, 10, temp_mean=20.0)
        b = trip(T0 + timedelta(minutes=12), 10, temp_mean=float("nan"))
        m = merge_adjacent_sessions([a, b])[0]
        assert m.temp_mean == pytest.approx(20.0)

    def test_distant_trips_untouched(self):
        a = trip(T0, 10)
        b = trip(T0 + timedelta(hours=5), 10)
        assert merge_adjacent_sessions([a, b]) == [a, b]


class TestPreprocessOrder:
    def test_blip_removed_before_merge_decision(self):
        # a 30 s blip sits between two drives 20 min apart; dropping it
        # first must leave the drives unmerged
        a = trip(T0, 10)
        blip = TripSession("v1", T0 + timedelta(minutes=20),
                           T0 + timedelta(minutes=20, seconds=30), 0.05)
        b = trip(T0 + timedelta(minutes=30), 10)
        h = preprocess_history(VehicleHistory("v1", [a, blip, b]))
        assert len(h.trips) == 2

    def test_fleet_preprocess_reports_dropped(self):
        rich = VehicleHistory("rich", [trip(T0 + timedelta(days=i), 10)
                                       for i in range(60)])
        poor = VehicleHistory("poor", [trip(T0, 10)])
        kept, dropped = preprocess_fleet({"rich": rich, "poor": poor})
        assert list(kept) == ["rich"] and dropped == ["poor"]


class TestDailyExamples:
    def make_history(self):
        # Mon: commute out 07:30 (12 km) and return 17:45; overnight
        # charge 21:00-23:30; Tue: first drive 08:15 (9 km); Thu: 09:00
        mon, tue, thu = T0.date(), T0.date() + timedelta(days=1), T0.date() + timedelta(days=3)
        trips = [
            TripSession("v1", datetime(2024, 3, 4, 7, 30),
                        datetime(2024, 3, 4, 7, 55), 12.0, speed_mean=40.0),
            TripSession("v1", datetime(2024, 3, 4, 17, 45),
                        datetime(2024, 3, 4, 18, 10), 12.5, speed_mean=38.0),
            TripSession("v1", datetime(2024, 3, 5, 8, 15),
                        datetime(2024, 3, 5, 8, 40), 9.0),
            TripSession("v1", datetime(2024, 3, 5, 12, 0),
                        datetime(2024, 3, 5, 12, 20), 4.0),
            TripSession("v1", datetime(2024, 3, 7, 9, 0),
                        datetime(2024, 3, 7, 9, 30), 20.0),
        ]
        charges = [ChargeSession("v1", datetime(2024, 3, 4, 21, 0),
                                 datetime(2024, 3, 4, 23, 30), 55.0)]
        return VehicleHistory("v1", trips, charges), (mon, tue, thu)

    def test_targets_and_prev_features(self):
        hist, (mon, tue, thu) = self.make_history()
        exs = build_daily_examples(hist)
        assert [e.day for e in exs] == [mon, tue, thu]

        first = exs[0]
        assert first.target_departure == pytest.approx(7.5)
        assert first.target_distance == 12.0
        assert "prev_end_hours" not in first.features
        assert "charge_start_hours" not in first.features
        assert first.features["is_workday"] == 1.0
        assert first.features["day_of_week"] == 0.0

        second = exs[1]
        assert second.target_departure == pytest.approx(8.25)
        assert second.target_distance == 9.0
        # previous drive is Monday's return, not the morning commute
        assert second.features["prev_start_hour"] == 17.0
        assert second.features["prev_start_minute"] == 45.0
        assert second.features["prev_start_part_of_day"] == "evening"
        assert second.features["prev_end_hours"] == pytest.approx(18.0 + 10 / 60)
        assert second.features["prev_distance_km"] == 12.5
        assert second.features["prev_speed_mean"] == 38.0
        assert second.features["charge_start_hours"] == pytest.approx(21.0)
        assert second.features["charge_soc_initial"] == 55.0

        third = exs[2]
        # Thursday's previous drive is Tuesday noon, charge unchanged
        assert third.features["prev_start_hour"] == 12.0
        assert third.features["charge_start_hours"] == pytest.approx(21.0)

    def test_weekend_flag(self):
        sat = datetime(2024, 3, 9, 10, 0)
        exs = build_daily_examples(
            VehicleHistory("v1", [TripSession("v1", sat,
                                              sat + timedelta(minutes=30), 5.0)]))
        assert exs[0].features["is_workday"] == 0.0

    def test_charge_running_past_departure_raises(self):
        trips = [TripSession("v1", datetime(2024, 3, 5, 7, 0),
                             datetime(2024, 3, 5, 7, 30), 5.0)]
        charges = [ChargeSession("v1", datetime(2024, 3, 4, 22, 0),
                                 datetime(2024, 3, 5, 7, 10))]
        with pytest.raises(DataError):
            build_daily_examples(VehicleHistory("v1", trips, charges))

    def test_overnight_charge_ending_before_departure_ok(self):
        trips = [TripSession("v1", datetime(2024, 3, 5, 7, 0),
                             datetime(2024, 3, 5, 7, 30), 5.0)]
        charges = [ChargeSession("v1", datetime(2024, 3, 4, 22, 0),
                                 datetime(2024, 3, 5, 6, 30), 40.0)]
        exs = build_daily_examples(VehicleHistory("v1", trips, charges))
        assert exs[0].features["charge_start_hours"] == pytest.approx(22.0)

    def test_overlapping_trips_rejected(self):
        trips = [trip(T0, 30), trip(T0 + timedelta(minutes=10), 30)]
        with pytest.raises(DataError):
            build_daily_examples(VehicleHistory("v1", trips))


def normalize(feats: dict) -> dict:
    return {k: v for k, v in feats.items()
            if isinstance(v, str) or (isinstance(v, float) and math.isfinite(v))}


class TestCsvRoundTrips:
    def test_sessions_roundtrip(self, tmp_path):
        hist = VehicleHistory(
            "v1",
            [trip(T0, 25, dist=12.345, speed_mean=41.5, speed_std=7.25,
                  accel_mean=0.11, accel_std=0.8, temp_mean=19.0,
                  sunload_mean=250.0, soc_mean=66.0)],
            [ChargeSession("v1", T0 + timedelta(hours=12),
                           T0 + timedelta(hours=14), 45.5)],
        )
        path = tmp_path / "sessions.csv"
        write_sessions_csv(path, {"v1": hist})
        back = read_sessions_csv(path)
        assert list(back) == ["v1"]
        t = back["v1"].trips[0]
        src = hist.trips[0]
        for f in ("start", "end", "distance_km", "speed_mean", "speed_std",
                  "accel_mean", "accel_std", "temp_mean", "sunload_mean",
                  "soc_mean"):
            assert getattr(t, f) == getattr(src, f)
        c = back["v1"].charges[0]
        assert (c.start, c.end, c.soc_initial_pct) == \
            (hist.charges[0].start, hist.charges[0].end, 45.5)

    def test_sessions_missing_fields_roundtrip(self, tmp_path):
        hist = VehicleHistory("v1", [trip(T0, 25)])
        path = tmp_path / "sessions.csv"
        write_sessions_csv(path, {"v1": hist})
        t = read_sessions_csv(path)["v1"].trips[0]
        assert math.isnan(t.speed_mean) and math.isnan(t.soc_mean)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("vehicle,kind\nv1,drive\n")
        with pytest.raises(DataError):
            read_sessions_csv(p)

    @pytest.mark.parametrize("row", [
        "v1,cruise,2024-03-04T08:00:00,2024-03-04T08:30:00,5,,,,,,,,",
        "v1,drive,notatime,2024-03-04T08:30:00,5,,,,,,,,",
        "v1,drive,2024-03-04T08:00:00,2024-03-04T08:30:00,abc,,,,,,,,",
        ",drive,2024-03-04T08:00:00,2024-03-04T08:30:00,5,,,,,,,,",
        "v1,drive,2024-03-04T08:00:00,2024-03-04T07:30:00,5,,,,,,,,",
        "v1,drive",  # fields missing
        "v1,drive,2024-03-04T08:00:00,2024-03-04T08:30:00,5,,,,,,,,,",  # extra
    ])
    def test_bad_rows_name_the_row(self, tmp_path, row):
        p = tmp_path / "x.csv"
        header = ("vehicle_id,kind,start_iso8601,end_iso8601,distance_km,"
                  "soc_initial_pct,speed_mean,speed_std,accel_mean,accel_std,"
                  "temp_mean,sunload_mean,soc_mean")
        p.write_text(header + "\n" + row + "\n")
        with pytest.raises(DataError, match="row 2|missing vehicle_id"):
            read_sessions_csv(p)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1e309"])
    @pytest.mark.parametrize("col", ["distance_km", "soc_mean"])
    def test_non_finite_numbers_name_row_and_column(self, tmp_path, text,
                                                    col):
        hist = VehicleHistory("v1", [trip(T0, 25, soc_mean=50.0)])
        path = tmp_path / "sessions.csv"
        write_sessions_csv(path, {"v1": hist})
        head, row = path.read_text().splitlines()
        fields = row.split(",")
        fields[head.split(",").index(col)] = text
        path.write_text(f"{head}\n{','.join(fields)}\n")
        with pytest.raises(DataError,
                           match=f"row 2: bad number in {col}: '{text}'"):
            read_sessions_csv(path)

    def test_daily_examples_roundtrip(self, tmp_path):
        hist = TestDailyExamples().make_history()[0]
        exs = build_daily_examples(hist)
        path = tmp_path / "daily.csv"
        write_daily_examples_csv(path, exs)
        back = read_daily_examples_csv(path)
        assert len(back) == len(exs)
        for a, b in zip(exs, back):
            assert (a.vehicle_id, a.day) == (b.vehicle_id, b.day)
            assert a.target_departure == b.target_departure
            assert a.target_distance == b.target_distance
            assert normalize(a.features) == normalize(b.features)
