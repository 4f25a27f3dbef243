"""Tests for the synthetic fleet generator."""

import math
from datetime import date, timedelta

import numpy as np
import pytest

from drivecast.data_model import (
    build_daily_examples,
    preprocess_fleet,
    preprocess_history,
)
from drivecast.synthdata import (
    DEFAULT_START,
    _lognormal,
    check_drift,
    generate_fleet,
    irregular_profile,
    plant_drift,
    regular_profile,
)


def small_fleet(seed=0, **kw):
    kw.setdefault("n_regular", 6)
    kw.setdefault("n_irregular", 4)
    kw.setdefault("n_days", 150)
    return generate_fleet(seed=seed, **kw)


class TestDeterminism:
    def test_same_seed_identical(self):
        f1, t1 = small_fleet(seed=42)
        f2, t2 = small_fleet(seed=42)
        assert t1 == t2
        assert list(f1) == list(f2)
        for vid in f1:
            assert f1[vid].trips == f2[vid].trips
            assert f1[vid].charges == f2[vid].charges

    def test_different_seed_differs(self):
        f1, _ = small_fleet(seed=1)
        f2, _ = small_fleet(seed=2)
        assert any(f1[v].trips != f2[v].trips for v in f1)


class TestStructure:
    def test_truth_bookkeeping(self):
        fleet, truth = small_fleet(seed=3)
        assert truth["n_regular"] == 6 and truth["n_irregular"] == 4
        assert truth["seed"] == 3
        assert set(truth["vehicles"]) == set(fleet)
        kinds = [v["archetype"] for v in truth["vehicles"].values()]
        assert kinds.count("regular") == 6
        assert kinds.count("irregular") == 4
        for vid, info in truth["vehicles"].items():
            assert vid.startswith("veh-") and len(vid) == len("veh-000")
            assert info["n_raw_sessions"] == (len(fleet[vid].trips)
                                              + len(fleet[vid].charges))
            assert "drive_prob" in info["profile"]

    def test_default_start_is_monday(self):
        assert DEFAULT_START.weekday() == 0

    def test_archetypes_interleaved(self):
        # assignment is permuted, not blocked by archetype
        _, truth = generate_fleet(n_regular=10, n_irregular=10, n_days=30,
                                  seed=0)
        kinds = [truth["vehicles"][v]["archetype"]
                 for v in sorted(truth["vehicles"])]
        assert kinds != ["regular"] * 10 + ["irregular"] * 10


class TestSessionValidity:
    def test_preprocesses_cleanly(self):
        fleet, _ = small_fleet(seed=5, n_days=365)
        kept, dropped = preprocess_fleet(fleet)
        assert dropped == []
        examples = {v: build_daily_examples(h) for v, h in kept.items()}
        assert all(len(e) > 30 for e in examples.values())

    def test_trips_never_cross_midnight(self):
        fleet, _ = small_fleet(seed=8, n_days=365)
        for h in fleet.values():
            for t in h.trips:
                assert t.start.date() == t.end.date()

    def test_charges_end_before_next_drive(self):
        fleet, _ = small_fleet(seed=9, n_days=365)
        for h in fleet.values():
            starts = sorted(t.start for t in h.trips)
            for c in h.charges:
                later = [s for s in starts if s > c.start]
                if later:
                    assert c.end <= later[0]

    def test_planted_quirks_present(self):
        fleet, _ = small_fleet(seed=7, n_days=365)
        short = sum(
            1 for h in fleet.values() for t in h.trips
            if (t.end - t.start).total_seconds() < 50.0)
        assert short > 0  # parking shuffles for the duration filter
        n_raw = sum(len(h.trips) for h in fleet.values())
        n_clean = sum(
            len(preprocess_history(h).trips) for h in fleet.values())
        # cleanup must both drop the shuffles and stitch split drives
        assert n_clean < n_raw - short

    def test_charges_generated(self):
        fleet, _ = small_fleet(seed=4)
        assert all(len(h.charges) > 10 for h in fleet.values())
        for h in fleet.values():
            for c in h.charges:
                assert 5.0 <= c.soc_initial_pct <= 95.0


class TestArchetypes:
    def test_departure_spread_separates(self):
        fleet, truth = generate_fleet(n_regular=8, n_irregular=8,
                                      n_days=365, seed=11)
        kept, _ = preprocess_fleet(fleet)
        spreads = {}
        for vid, h in kept.items():
            ex = build_daily_examples(h)
            deps = [e.target_departure for e in ex
                    if e.day.weekday() < 5]
            spreads[vid] = float(np.std(deps))
        reg = [spreads[v] for v, i in truth["vehicles"].items()
               if i["archetype"] == "regular"]
        irr = [spreads[v] for v, i in truth["vehicles"].items()
               if i["archetype"] == "irregular"]
        assert max(reg) < min(irr)

    def test_regular_profile_shape(self):
        rng = np.random.default_rng(0)
        p = regular_profile(rng)
        assert 6.5 <= p.weekday_departure_mean <= 9.0
        assert min(p.drive_prob[:5]) > max(p.drive_prob[5:])
        assert p.distance_range == ()

    def test_irregular_profile_shape(self):
        rng = np.random.default_rng(0)
        p = irregular_profile(rng)
        assert p.uniform_departure
        lo, hi = p.distance_range
        assert 0.0 < lo < hi

    def test_profile_to_dict_json_ready(self):
        import json
        rng = np.random.default_rng(1)
        for p in (regular_profile(rng), irregular_profile(rng)):
            d = p.to_dict()
            json.dumps(d)
            assert len(d["drive_prob"]) == 7


class TestDrift:
    def test_truth_marks_drifted_regulars(self):
        drift = {"day": 60, "departure_shift": 2.0, "distance_shift": 10.0,
                 "fraction": 0.5}
        _, truth = generate_fleet(n_regular=9, n_irregular=3, n_days=90,
                                  seed=2, drift=drift)
        drifted = [v for v, i in truth["vehicles"].items() if i["drifted"]]
        assert len(drifted) == math.ceil(0.5 * 9)
        for v in drifted:
            info = truth["vehicles"][v]
            assert info["archetype"] == "regular"
            assert info["profile"]["drift_events"] == [[60, None, 2.0, 10.0]]

    def test_departure_shift_visible_in_data(self):
        drift = {"day": 180, "departure_shift": 2.5, "distance_shift": 0.0,
                 "fraction": 1.0}
        fleet, truth = generate_fleet(n_regular=5, n_irregular=0,
                                      n_days=360, seed=6, drift=drift)
        cut = DEFAULT_START + timedelta(days=180)
        for vid, h in fleet.items():
            ex = build_daily_examples(preprocess_history(h))
            pre = [e.target_departure for e in ex
                   if e.day < cut and e.day.weekday() < 5]
            post = [e.target_departure for e in ex
                    if e.day >= cut and e.day.weekday() < 5]
            shift = np.mean(post) - np.mean(pre)
            assert shift == pytest.approx(2.5, abs=0.8)

    def test_plant_drift_accumulates(self):
        rng = np.random.default_rng(0)
        p = plant_drift(
            plant_drift(regular_profile(rng), 30,
                        departure_shift=1.0, distance_shift=5.0),
            90, duration=14.0, departure_shift=-0.5)
        assert p.drift_events == ((30, math.inf, 1.0, 5.0),
                                  (90, 14.0, -0.5, 0.0))

    def test_temporary_shift_reverts(self):
        drift = {"day": 60, "duration": 30, "departure_shift": 3.0,
                 "distance_shift": 0.0, "fraction": 1.0}
        fleet, _ = generate_fleet(n_regular=4, n_irregular=0, n_days=180,
                                  seed=9, drift=drift)
        on = DEFAULT_START + timedelta(days=60)
        off = DEFAULT_START + timedelta(days=90)
        for vid, h in fleet.items():
            ex = build_daily_examples(preprocess_history(h))
            pre = [e.target_departure for e in ex
                   if e.day < on and e.day.weekday() < 5]
            mid = [e.target_departure for e in ex
                   if on <= e.day < off and e.day.weekday() < 5]
            post = [e.target_departure for e in ex
                    if e.day >= off and e.day.weekday() < 5]
            assert np.mean(mid) - np.mean(pre) == pytest.approx(3.0, abs=1.0)
            assert abs(np.mean(post) - np.mean(pre)) < 1.0

    def test_bad_duration_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            plant_drift(regular_profile(rng), 30, duration=0.0)

    @pytest.mark.parametrize("drift, key", [
        # plants nothing, or fails halfway through the fleet
        ({"day": 5, "departure_shift": 3.0}, "drift.fraction"),
        ({"fraction": 1.0}, "drift.day"),
        ({}, "drift.day"),
        ({"day": 5, "fraction": 0.0}, "drift.fraction"),
        ({"day": 5, "fraction": 1.5}, "drift.fraction"),
        ({"day": -1, "fraction": 1.0}, "drift.day"),
        ({"day": 5.5, "fraction": 1.0}, "drift.day"),
        ({"day": True, "fraction": 1.0}, "drift.day"),
        ({"day": 5, "fraction": 1.0, "duration": 0}, "drift.duration"),
        ({"day": 5, "fraction": 1.0, "duration": math.inf}, "drift.duration"),
        ({"day": 5, "fraction": 1.0, "distance_shift": "far"},
         "drift.distance_shift"),
        ({"day": 5, "fraction": 1.0, "departure_shift": math.nan},
         "drift.departure_shift"),
        ({"day": 5, "fraction": 1.0, "shift": 2.0}, "drift"),
        ([5, 1.0], "drift"),
    ])
    def test_bad_drift_is_one_value_error_naming_the_key(self, drift, key):
        with pytest.raises(ValueError, match=f"^{key} "):
            generate_fleet(n_regular=2, n_irregular=0, n_days=10, drift=drift)

    def test_checked_drift_plants_the_same_fleet(self):
        """Integral floats, ints and an explicit null duration plant what
        their canonical spelling plants, and the dict given is left as
        it was."""
        loose = {"day": 20.0, "fraction": 1, "duration": None,
                 "departure_shift": 2}
        assert check_drift(loose) == {"day": 20, "fraction": 1.0,
                                      "duration": None,
                                      "departure_shift": 2.0}
        assert type(loose["day"]) is float
        kw = {"n_regular": 2, "n_irregular": 1, "n_days": 40, "seed": 4}
        _, a = generate_fleet(**kw, drift=loose)
        _, b = generate_fleet(**kw, drift={"day": 20, "fraction": 1.0,
                                           "departure_shift": 2.0})
        assert a == b
        assert sum(v["drifted"] for v in a["vehicles"].values()) == 2


class TestLognormal:
    def test_requested_moments(self):
        rng = np.random.default_rng(12)
        vals = np.array([_lognormal(rng, 20.0, 6.0) for _ in range(20000)])
        assert vals.mean() == pytest.approx(20.0, rel=0.03)
        assert vals.std() == pytest.approx(6.0, rel=0.05)
        assert (vals > 0).all()

    def test_mean_floor(self):
        rng = np.random.default_rng(1)
        vals = [_lognormal(rng, 0.0, 0.2) for _ in range(100)]
        assert np.mean(vals) == pytest.approx(0.5, abs=0.1)
