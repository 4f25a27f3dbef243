"""Tests for the predict-then-learn evaluation loop and its metrics."""

import csv
import hashlib
import math
from datetime import date, timedelta

import numpy as np
import pytest

from drivecast.data_model import (
    DailyExample,
    build_daily_examples,
    preprocess_fleet,
)
from drivecast.evaluation import (
    DEFAULT_WARMUP,
    TARGETS,
    DayRecord,
    Stream,
    compute_metrics,
    error_over_time,
    evaluate_fleet,
    progressive_validate,
    stable_seed,
    target_of,
    write_records_csv,
)
from drivecast.exceptions import DataError, InsufficientHistoryError
from drivecast.features import (
    FeaturePipeline,
    FeatureSchema,
    FeatureSpec,
    default_schema,
)
from drivecast.models import (
    MODEL_KINDS,
    MeanBaseline,
    OnlineModel,
    PredictionInterval,
    make_model,
)
from drivecast.synthdata import generate_fleet

D0 = date(2023, 3, 1)


def small_schema():
    return FeatureSchema([
        FeatureSpec("a", "numeric", "a"),
        FeatureSpec("b", "numeric", "b"),
    ])


def make_examples(vid, n, y_fn, day0=D0, step=1):
    out = []
    for i in range(n):
        y = float(y_fn(i))
        out.append(DailyExample(
            vehicle_id=vid, day=day0 + timedelta(days=i * step),
            features={"a": float(i), "b": float(i % 3)},
            target_departure=y, target_distance=2.0 * y + 1.0))
    return out


class ProbeModel(OnlineModel):
    """Predicts the number of learn calls so far; logs call order."""

    kind = "probe"

    def __init__(self, n_features, seed=0, confidence=0.90, abstain_first=0):
        super().__init__(n_features, seed, confidence)
        self.calls = []
        self.abstain_first = abstain_first
        self.learned = 0

    def predict_interval(self, x):
        self.calls.append(("predict", self.learned))
        if self.learned < self.abstain_first:
            raise InsufficientHistoryError("not yet")
        p = float(self.learned)
        return PredictionInterval(p, p - 1.0, p + 1.0, sigma=0.5)

    def learn_one(self, x, y):
        self.calls.append(("learn", float(y)))
        self.learned += 1


class TestProgressiveValidate:
    def test_predict_happens_before_learn(self):
        model = ProbeModel(2)
        pipe = FeaturePipeline(small_schema())
        examples = make_examples("v", 6, lambda i: 10.0 + i)
        records = progressive_validate(model, pipe, examples, "departure",
                                       warmup=2)
        # each day's point prediction equals the learn count before that
        # day, so the current truth can never have leaked in
        assert [r.point for r in records] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        kinds = [c[0] for c in model.calls]
        assert kinds == ["predict", "learn"] * 6

    def test_warmup_flags(self):
        model = ProbeModel(2)
        pipe = FeaturePipeline(small_schema())
        records = progressive_validate(
            model, pipe, make_examples("v", 7, lambda i: i), "departure",
            warmup=3)
        assert [r.warmup for r in records] == [True] * 3 + [False] * 4

    def test_abstention_uses_running_fallback(self):
        model = ProbeModel(2, abstain_first=100)
        pipe = FeaturePipeline(small_schema())
        ys = [4.0, 8.0, 3.0, 7.0, 11.0]
        records = progressive_validate(
            model, pipe, make_examples("v", 5, lambda i: ys[i]), "departure",
            warmup=0)
        assert all(r.abstained for r in records)
        for i, r in enumerate(records):
            past = ys[:i]
            mean = float(np.mean(past)) if past else 0.0
            std = float(np.std(past, ddof=1)) if len(past) >= 2 else 0.0
            assert r.point == pytest.approx(mean)
            assert r.lower == pytest.approx(mean - model.z * std)
            assert r.upper == pytest.approx(mean + model.z * std)
            assert r.sigma == pytest.approx(std)

    def test_out_of_order_days_rejected(self):
        model = ProbeModel(2)
        pipe = FeaturePipeline(small_schema())
        examples = make_examples("v", 3, lambda i: i)
        examples[2] = DailyExample("v", examples[0].day, {"a": 1.0, "b": 0.0},
                                   1.0, 1.0)
        with pytest.raises(DataError, match="out of order"):
            progressive_validate(model, pipe, examples, "departure")

    def test_distance_target(self):
        model = ProbeModel(2)
        pipe = FeaturePipeline(small_schema())
        examples = make_examples("v", 3, lambda i: 5.0 + i)
        records = progressive_validate(model, pipe, examples, "distance",
                                       warmup=0)
        assert [r.y for r in records] == [11.0, 13.0, 15.0]

    def test_target_of_unknown(self):
        ex = make_examples("v", 1, lambda i: 1.0)[0]
        with pytest.raises(ValueError, match="unknown target"):
            target_of(ex, "speed")


def rec(y, point, lower, upper, warmup=False, abstained=False, vid="v",
        day=D0):
    return DayRecord(vid, day, y, point, lower, upper, 1.0, abstained,
                     warmup)


class TestComputeMetrics:
    def test_matches_numpy_oracle(self):
        rng = np.random.default_rng(5)
        records = []
        for i in range(40):
            y = float(rng.normal(8.0, 2.0))
            p = y + float(rng.normal(0.0, 1.0))
            half = float(abs(rng.normal(1.5, 0.3)))
            records.append(rec(y, p, p - half, p + half, warmup=i < 10,
                               abstained=i % 7 == 0))
        m = compute_metrics(records, within_tol=1.0)
        scored = records[10:]
        errs = np.array([abs(r.y - r.point) for r in scored])
        assert m["n_scored"] == 30
        assert m["n_abstained"] == sum(r.abstained for r in scored)
        assert m["mae"] == pytest.approx(errs.mean())
        denom = np.maximum(np.abs([r.y for r in scored]), 0.1)
        assert m["mape_pct"] == pytest.approx((errs / denom).mean() * 100.0)
        assert m["within_pct"] == pytest.approx((errs <= 1.0).mean() * 100.0)
        cov = np.mean([r.lower <= r.y <= r.upper for r in scored])
        assert m["picp"] == pytest.approx(cov)
        wid = np.mean([r.upper - r.lower for r in scored])
        assert m["mpiw"] == pytest.approx(wid)

    def test_interval_containment_is_closed(self):
        records = [rec(2.0, 1.0, 0.0, 2.0), rec(0.0, 1.0, 0.0, 2.0),
                   rec(2.0001, 1.0, 0.0, 2.0)]
        m = compute_metrics(records, within_tol=5.0)
        assert m["picp"] == pytest.approx(2.0 / 3.0)

    def test_mape_guard_against_tiny_targets(self):
        records = [rec(0.0, 0.05, -1.0, 1.0)]
        m = compute_metrics(records, within_tol=1.0)
        assert m["mape_pct"] == pytest.approx(0.05 / 0.1 * 100.0)

    def test_all_warmup_raises(self):
        with pytest.raises(ValueError, match="warm-up"):
            compute_metrics([rec(1.0, 1.0, 0.0, 2.0, warmup=True)], 1.0)

    def test_all_abstained_raises(self):
        with pytest.raises(ValueError, match="abstention"):
            compute_metrics([rec(1.0, 1.0, 0.0, 2.0, abstained=True)], 1.0)


class TestErrorOverTime:
    def test_bucket_math(self):
        records = []
        for vid, errs in [("a", [1.0, 2.0, 3.0, 4.0, 5.0]),
                          ("b", [10.0, 20.0, 30.0])]:
            for i, e in enumerate(errs):
                records.append(rec(e, 0.0, -1.0, 1.0, vid=vid,
                                   day=D0 + timedelta(days=i)))
        curve = error_over_time(records, stride=2)
        assert [c["day_index"] for c in curve] == [0, 2, 4]
        assert curve[0]["mae"] == pytest.approx(np.mean([1, 2, 10, 20]))
        assert curve[0]["n"] == 4
        assert curve[1]["mae"] == pytest.approx(np.mean([3, 4, 30]))
        assert curve[2] == {"day_index": 4, "mae": 5.0, "n": 1}

    def test_bad_stride(self):
        with pytest.raises(ValueError):
            error_over_time([], stride=0)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed(3, "veh-001", "qr", "departure") == \
            stable_seed(3, "veh-001", "qr", "departure")

    def test_distinct_across_axes(self):
        seeds = {
            stable_seed(run, vid, kind, tgt)
            for run in (0, 1)
            for vid in ("veh-001", "veh-002")
            for kind in MODEL_KINDS
            for tgt in ("departure", "distance")
        }
        assert len(seeds) == 2 * 2 * len(MODEL_KINDS) * 2

    def test_independent_of_fleet_composition(self):
        # a pure function of its arguments: nothing else can perturb it
        before = stable_seed(0, "veh-042", "qknn", "distance")
        stable_seed(0, "veh-041", "qknn", "distance")
        stable_seed(9, "veh-042", "mean", "departure")
        assert stable_seed(0, "veh-042", "qknn", "distance") == before


class TestEvaluateFleet:
    def fleet(self):
        rng = np.random.default_rng(11)
        out = {}
        for vid in ("veh-b", "veh-a"):
            base = float(rng.uniform(6.0, 9.0))
            out[vid] = make_examples(
                vid, 60, lambda i: base + 0.5 * math.sin(i / 5.0)
                + float(rng.normal(0.0, 0.2)))
        return out

    def test_structure_and_determinism(self):
        fleet = self.fleet()
        res1, recs1 = evaluate_fleet(fleet, "qknn", small_schema(),
                                     "departure", run_seed=4, warmup=10)
        res2, recs2 = evaluate_fleet(fleet, "qknn", small_schema(),
                                     "departure", run_seed=4, warmup=10)
        assert res1 == res2
        assert recs1 == recs2
        assert res1["model"] == "qknn"
        assert res1["n_vehicles"] == 2
        assert set(res1["per_vehicle"]) == {"veh-a", "veh-b"}
        agg = res1["aggregate"]
        assert agg["n_scored"] == 2 * 50
        assert agg["mae"] > 0.0
        assert res1["curve"][0]["day_index"] == 0

    def test_vehicle_results_unaffected_by_fleet_composition(self):
        fleet = self.fleet()
        solo = {"veh-a": fleet["veh-a"]}
        res_pair, _ = evaluate_fleet(fleet, "qknn", small_schema(),
                                     "departure", run_seed=4, warmup=10)
        res_solo, _ = evaluate_fleet(solo, "qknn", small_schema(),
                                     "departure", run_seed=4, warmup=10)
        assert res_pair["per_vehicle"]["veh-a"] == \
            res_solo["per_vehicle"]["veh-a"]

    def test_short_vehicle_skipped_in_per_vehicle(self):
        fleet = self.fleet()
        fleet["veh-tiny"] = make_examples("veh-tiny", 5, lambda i: 7.0)
        res, _ = evaluate_fleet(fleet, "mean", small_schema(), "departure",
                                run_seed=0, warmup=10)
        assert "veh-tiny" not in res["per_vehicle"]
        assert res["n_vehicles"] == 2

    def test_abstaining_on_every_scored_day_raises(self):
        fleet = self.fleet()
        with pytest.raises(InsufficientHistoryError, match="every day after"):
            evaluate_fleet(fleet, "qknn", small_schema(), "departure",
                           warmup=10, hyper={"window": 3})

    def test_every_model_kind_runs(self):
        fleet = {"veh-a": self.fleet()["veh-a"][:40]}
        for kind in MODEL_KINDS:
            res, recs = evaluate_fleet(fleet, kind, small_schema(),
                                       "distance", run_seed=1, warmup=10)
            assert res["aggregate"]["n_scored"] == 30
            assert all(np.isfinite(r.point) for r in recs)


# SHA-256, per kind, of every record's (point, lower, upper, sigma,
# abstained) for every target on a small synthetic fleet; see
# TestGoldenRecords.  One digest per kind shows which kind a change
# moves.  ``qarf``'s moved when its intervals came to be read from the
# pooled leaf-sketch items instead of a union sketch, and again when its
# ``sigma`` became None; ``qknn``'s when it stopped fitting a ``sigma``
# to its neighbours.
GOLDEN_RECORDS_DIGESTS = {
    "mean": "466331763c70b08295e163f132ba2634de020947ab9a1ae86a8636fb2960bd31",
    "qr": "40dfc5c93efc04fd1856b2bc59fda8438a4009efaec00c2f97c503bb77bbd980",
    "qknn": "8688d92f6216a121b23750aeec8d8fb5178368f60d3be1a97062d796876bf776",
    "qarf": "700635a87106624932e060f0a413c04a6e3774238d3bf817e2f386a54b37a3f3",
    "mcnn": "f4e946d5cf469897bff203443c71ef94bd272fb47b447ac8730ed2b071a0521e",
}
# the same records without ``sigma``: (point, lower, upper, abstained).
# Recorded while ``qarf`` and ``qknn`` still fitted a ``sigma`` and ``qarf``
# sorted its pooled items stably; no faster interval query may move them
GOLDEN_INTERVAL_DIGESTS = {
    "mean": "da6ccf45a8730841b89dff849fe1786466bd2cb25f6d375077380a264af119d2",
    "qr": "f89d39a721f598b121da195d40992a58bbaaac8aa315bd048da6783e9ef1d7ac",
    "qknn": "f5ab68f2b5b0347b4ba91c2a1b3825bb38e6be6469369fc8e3a607ecf7a99bb8",
    "qarf": "6bb128dc6756f16c1b7ff25cc32bf6e1e9b2a6a483da09748c89ab73c5845080",
    "mcnn": "eac674bf5dc41663bfd9c0b75d4c60c834ba14ad8cbe8fd13484e16da02084ce",
}


class TestGoldenRecords:
    @pytest.fixture(scope="class")
    def records(self):
        """Every kind's records for every target and vehicle of a small
        synthetic fleet, in a fixed order."""
        fleet = golden_fleet()
        schema = default_schema()
        out = {}
        for kind in MODEL_KINDS:
            out[kind] = []
            for target in TARGETS:
                for vid, examples in fleet.items():
                    model = make_model(kind, schema.dim,
                                       seed=stable_seed(0, vid, kind, target))
                    out[kind] += progressive_validate(
                        model, FeaturePipeline(schema), examples, target)
        assert all(out.values())
        return out

    @staticmethod
    def digests(records, fields):
        """SHA-256 per kind of ``repr`` of each record's ``fields``:
        ``repr`` of a float round-trips, so a one-ulp change to any field
        moves the digest of its kind."""
        out = {}
        for kind, recs in records.items():
            digest = hashlib.sha256()
            for r in recs:
                digest.update(repr(tuple(getattr(r, f)
                                         for f in fields)).encode())
            out[kind] = digest.hexdigest()
        return out

    def test_every_kind_and_target_bit_for_bit(self, records):
        """Every interval and ``sigma`` any kind ships, pinned bit for
        bit."""
        assert self.digests(records, ("point", "lower", "upper", "sigma",
                                      "abstained")) == GOLDEN_RECORDS_DIGESTS

    def test_interval_bounds_bit_for_bit(self, records):
        """Every point, bound and abstention any kind ships, pinned bit for
        bit apart from ``sigma``."""
        assert self.digests(records, ("point", "lower", "upper",
                                      "abstained")) == GOLDEN_INTERVAL_DIGESTS


def golden_fleet():
    """``TestGoldenRecords``' fleet: each vehicle's daily examples."""
    fleet, _ = generate_fleet(n_regular=2, n_irregular=1, n_days=120, seed=0)
    kept, _ = preprocess_fleet(fleet)
    return {vid: build_daily_examples(kept[vid]) for vid in sorted(kept)}


def bits(pi, abstained, warmup):
    """A record's interval fields as ``repr``s, which round-trip floats."""
    return (repr(pi.point), repr(pi.lower), repr(pi.upper), repr(pi.sigma),
            abstained, warmup)


class TestServingOrder:
    def test_day_major_streams_match_progressive_validate(self):
        """A serving loop keeps every vehicle's stream open: each calendar
        morning it predicts for every vehicle with an example that day,
        and each evening it learns their truths.  Every record, abstained
        days included, equals ``progressive_validate``'s bit for bit."""
        examples = golden_fleet()
        schema = default_schema()
        days = {}
        for vid, exs in examples.items():
            for i, ex in enumerate(exs):
                days.setdefault(ex.day, []).append((vid, i, ex))
        n_abstained = 0
        for kind in MODEL_KINDS:
            for target in TARGETS:
                def stream(vid):
                    return Stream(make_model(kind, schema.dim,
                                             seed=stable_seed(0, vid, kind,
                                                              target)),
                                  FeaturePipeline(schema))

                streams = {vid: stream(vid) for vid in examples}
                got = {vid: [] for vid in examples}
                for day in sorted(days):
                    for vid, i, ex in days[day]:
                        pi, abstained = streams[vid].morning(ex.features)
                        got[vid].append(
                            bits(pi, abstained, i < DEFAULT_WARMUP))
                    for vid, _, ex in days[day]:
                        streams[vid].evening(target_of(ex, target))
                for vid, exs in examples.items():
                    ref = stream(vid)
                    want = progressive_validate(ref.model, ref.pipeline, exs,
                                                target)
                    assert got[vid] == [bits(r, r.abstained, r.warmup)
                                        for r in want], (kind, target, vid)
                    n_abstained += sum(r.abstained for r in want)
        assert n_abstained > 0


class TestStepCount:
    def test_each_example_is_one_step(self, monkeypatch):
        """One step per example: ``transform``, ``predict_interval``,
        ``learn_one`` and ``update_target``, once each and in that order,
        with ``remember_target`` called only inside ``update_target``.
        Step timers count steps by these calls."""
        log = []

        def spy(cls, name):
            inner = getattr(cls, name)

            def call(self, *args):
                log.append(name)
                try:
                    return inner(self, *args)
                finally:
                    log.append("/" + name)
            monkeypatch.setattr(cls, name, call)

        for name in ("transform", "update_target", "remember_target"):
            spy(FeaturePipeline, name)
        for name in ("predict_interval", "learn_one"):
            spy(MeanBaseline, name)
        examples = golden_fleet()
        evaluate_fleet(examples, "mean", default_schema(), "departure")
        step = ["transform", "/transform", "predict_interval",
                "/predict_interval", "learn_one", "/learn_one",
                "update_target", "remember_target", "/remember_target",
                "/update_target"]
        assert log == step * sum(len(exs) for exs in examples.values())


class TestRecordsCsv:
    def test_roundtrip_values(self, tmp_path):
        records = [
            DayRecord("v", D0, 1.25, 1.5, 0.5, 2.5, 0.75, False, True),
            DayRecord("v", D0 + timedelta(days=1), -0.1,
                      1.0 / 3.0, -1.0, 1.0, None, True, False),
        ]
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert rows[0]["vehicle_id"] == "v"
        assert rows[0]["day"] == "2023-03-01"
        assert float(rows[1]["point"]) == 1.0 / 3.0  # repr() round-trips
        assert rows[1]["sigma"] == ""
        assert rows[0]["warmup"] == "1" and rows[1]["abstained"] == "1"
