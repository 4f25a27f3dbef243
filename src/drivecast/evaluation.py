"""Prequential (predict-then-learn) evaluation over daily example streams.

Every day of every vehicle is scored in arrival order: the model first
predicts an interval from yesterday's knowledge, then learns the truth.
``Stream`` is that daily step, written once: ``morning`` transforms the
day's features and predicts, ``evening`` learns the truth and reveals it
to the feature pipeline.  Days a model abstains on (not enough history
yet) are still scored, using the running mean ± z·std of the stream's
past targets (the pipeline's ``target_stats``), and flagged, because a
deployed predictor must say something every morning.  The first
``warmup`` days per vehicle are recorded but excluded from all aggregate
metrics, covering the cold start where any learner is still guessing.
"""

from __future__ import annotations

import csv
import hashlib
from dataclasses import dataclass
from datetime import date

import numpy as np

from .data_model import DailyExample
from .exceptions import ConfigError, DataError, InsufficientHistoryError
from .features import FeaturePipeline, FeatureSchema, check_setting
from .models import MODEL_KINDS, OnlineModel, PredictionInterval, make_model

TARGETS = ("departure", "distance")
DEFAULT_WARMUP = 20
# Days per bucket of the error-over-time curve.
CURVE_STRIDE = 10

# Default "close enough" tolerance per target: an hour for departure
# time, five kilometers for distance.
DEFAULT_WITHIN_TOL = {"departure": 1.0, "distance": 5.0}


@dataclass(slots=True)
class DayRecord:
    vehicle_id: str
    day: date
    y: float
    point: float
    lower: float
    upper: float
    sigma: float | None
    abstained: bool
    warmup: bool

    @property
    def abs_error(self) -> float:
        return abs(self.y - self.point)

    @property
    def covered(self) -> bool:
        return self.lower <= self.y <= self.upper


def target_of(example: DailyExample, target: str) -> float:
    if target == "departure":
        return example.target_departure
    if target == "distance":
        return example.target_distance
    raise ValueError(f"unknown target {target!r}; know {TARGETS}")


class Stream:
    """One (vehicle, target) predict-then-learn stream: a model and the
    pipeline that feeds it.  Each day calls ``morning`` before the truth
    is known and ``evening`` once it is; ``x`` carries the morning's
    features to the evening."""

    __slots__ = ("model", "pipeline", "x")

    def __init__(self, model: OnlineModel, pipeline: FeaturePipeline):
        self.model = model
        self.pipeline = pipeline
        self.x = None

    def morning(self, features: dict) -> tuple[PredictionInterval, bool]:
        """The day's interval and whether the model abstained; on an
        abstention, the running mean ± z·std of the past targets."""
        self.x = self.pipeline.transform(features)
        try:
            return self.model.predict_interval(self.x), False
        except InsufficientHistoryError:
            past = self.pipeline.target_stats
            return PredictionInterval.gaussian(past.mean, past.std,
                                               self.model.z), True

    def evening(self, y: float) -> None:
        self.model.learn_one(self.x, y)
        self.pipeline.update_target(y)


def progressive_validate(model: OnlineModel, pipeline: FeaturePipeline,
                         examples: list[DailyExample], target: str,
                         warmup: int = DEFAULT_WARMUP) -> list[DayRecord]:
    """Score one vehicle's stream day by day, learning after each score."""
    stream = Stream(model, pipeline)
    records: list[DayRecord] = []
    prev_day = None
    for i, ex in enumerate(examples):
        if prev_day is not None and ex.day <= prev_day:
            raise DataError(
                f"examples for {ex.vehicle_id} are out of order: "
                f"{ex.day} after {prev_day}")
        prev_day = ex.day
        y = target_of(ex, target)
        pi, abstained = stream.morning(ex.features)
        records.append(DayRecord(
            vehicle_id=ex.vehicle_id, day=ex.day, y=y, point=pi.point,
            lower=pi.lower, upper=pi.upper, sigma=pi.sigma,
            abstained=abstained, warmup=i < warmup))
        stream.evening(y)
    return records


def compute_metrics(records: list[DayRecord], within_tol: float) -> dict:
    """Aggregate metrics over the non-warmup part of a record stream."""
    scored = [r for r in records if not r.warmup]
    if not scored:
        raise ValueError("no scored days: every record is inside the warm-up")
    if all(r.abstained for r in scored):
        raise ValueError("every scored day was an abstention")
    errs = np.array([r.abs_error for r in scored])
    ys = np.array([abs(r.y) for r in scored])
    widths = np.array([r.upper - r.lower for r in scored])
    return {
        "n_scored": len(scored),
        "n_abstained": int(sum(r.abstained for r in scored)),
        "mae": float(errs.mean()),
        "mape_pct": float((errs / np.maximum(ys, 0.1)).mean() * 100.0),
        "within_pct": float((errs <= within_tol).mean() * 100.0),
        "picp": float(np.mean([r.covered for r in scored])),
        "mpiw": float(widths.mean()),
    }


def error_over_time(records: list[DayRecord],
                    stride: int = CURVE_STRIDE) -> list[dict]:
    """Fleet error as history accumulates: records are bucketed by their
    within-vehicle day index and averaged per bucket of ``stride`` days."""
    stride = check_setting("stride", stride, int, 1)
    by_vehicle: dict[str, list[DayRecord]] = {}
    for r in records:
        by_vehicle.setdefault(r.vehicle_id, []).append(r)
    buckets: dict[int, list[float]] = {}
    for recs in by_vehicle.values():
        for i, r in enumerate(recs):
            buckets.setdefault(i // stride, []).append(r.abs_error)
    return [
        {"day_index": b * stride, "mae": float(np.mean(buckets[b])),
         "n": len(buckets[b])}
        for b in sorted(buckets)
    ]


def stable_seed(run_seed: int, vehicle_id: str, kind: str, target: str) -> int:
    """Per-(vehicle, model, target) seed that survives reordering.

    Derived from a cryptographic hash of the identifiers, so adding or
    removing vehicles never changes anyone else's stream.
    """
    digest = hashlib.sha256(vehicle_id.encode()).digest()
    entropy = [
        int(run_seed),
        int.from_bytes(digest[:8], "big"),
        MODEL_KINDS.index(kind),
        TARGETS.index(target),
    ]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def evaluate_fleet(examples_by_vehicle: dict[str, list[DailyExample]],
                   kind: str, schema: FeatureSchema, target: str,
                   run_seed: int = 0, warmup: int = DEFAULT_WARMUP,
                   within_tol: float | None = None,
                   confidence: float = 0.90,
                   hyper: dict | None = None) -> tuple[dict, list[DayRecord]]:
    """Run one model kind over every vehicle; per-vehicle and pooled metrics.

    Each vehicle gets its own model instance and pipeline, seeded
    independently of fleet composition.  Returns (results, records);
    results is JSON-ready.  ConfigError on ``evaluate.warmup`` when the
    warm-up covers every vehicle's whole stream; InsufficientHistoryError
    when the model abstained on every day after it.
    """
    if within_tol is None:
        within_tol = DEFAULT_WITHIN_TOL[target]
    hyper = hyper or {}
    all_records: list[DayRecord] = []
    per_vehicle: dict[str, dict] = {}
    for vid in sorted(examples_by_vehicle):
        examples = examples_by_vehicle[vid]
        if not examples:
            continue
        model = make_model(kind, schema.dim,
                           seed=stable_seed(run_seed, vid, kind, target),
                           confidence=confidence, **hyper)
        pipeline = FeaturePipeline(schema)
        records = progressive_validate(model, pipeline, examples, target,
                                       warmup)
        all_records.extend(records)
        try:
            per_vehicle[vid] = compute_metrics(records, within_tol)
        except ValueError:
            pass  # vehicle entirely inside warm-up; pooled check below
    if all(r.warmup for r in all_records):
        raise ConfigError("evaluate.warmup", f"no vehicle has a day after "
                          f"the {warmup}-day warm-up to score")
    if all(r.warmup or r.abstained for r in all_records):
        raise InsufficientHistoryError(
            f"{kind} abstained on every day after the {warmup}-day warm-up")
    aggregate = compute_metrics(all_records, within_tol)
    results = {
        "model": kind,
        "target": target,
        "confidence": confidence,
        "warmup": warmup,
        "within_tol": within_tol,
        "n_vehicles": len(per_vehicle),
        "aggregate": aggregate,
        "per_vehicle": per_vehicle,
        "curve": error_over_time(all_records),
    }
    return results, all_records


RECORD_COLUMNS = ["vehicle_id", "day", "y", "point", "lower", "upper",
                  "sigma", "abstained", "warmup"]


def write_records_csv(path, records: list[DayRecord]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_COLUMNS)
        for r in records:
            w.writerow([
                r.vehicle_id, r.day.isoformat(), repr(r.y), repr(r.point),
                repr(r.lower), repr(r.upper),
                "" if r.sigma is None else repr(r.sigma),
                int(r.abstained), int(r.warmup),
            ])
