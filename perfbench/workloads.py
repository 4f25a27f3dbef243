"""The three benchmark workloads and the correctness gate they share.

``study``          the staged CLI (synth ... report) on a pinned small config.
``morning_light``  a day-major serving loop, four light model kinds, one-year
                   histories of a whole fleet.
``morning_forest`` the same loop with ``qarf`` only, on a few multi-year
                   histories with a planted permanent shift.

A serving loop keeps one model and one feature pipeline per (vehicle, kind,
target) live for the whole run.  Each calendar morning it predicts every
stream that has a drive that day (``transform`` + ``predict_interval``);
each evening it reveals the targets (``learn_one`` + ``update_target``).
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import shutil
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Package functions are called as ``dc.name`` so that the traced run's
# wrappers, installed on the package's attributes, see these calls too.
import drivecast as dc
from drivecast import (DayRecord, DivergenceError, FeaturePipeline,
                       InsufficientHistoryError, default_schema, make_model,
                       stable_seed)

TARGETS = ("departure", "distance")
WARMUP = 20
CONFIDENCE = 0.90
WITHIN_TOL = {"departure": 1.0, "distance": 5.0}

STUDY_CONFIG = {
    "synth": {"n_regular": 16, "n_irregular": 4, "n_days": 365},
    "select": {"n_select": 12, "max_vehicles": 6},
    "tune": {"max_vehicles": 4},
}


@dataclass(frozen=True)
class MorningSpec:
    n_regular: int
    n_irregular: int
    n_days: int
    kinds: tuple[str, ...]
    drift: dict | None = None
    # vehicles whose records are re-derived with progressive_validate
    n_checked: int = 2


MORNING = {
    "morning_light": MorningSpec(16, 4, 365, ("mean", "qr", "qknn", "mcnn")),
    "morning_forest": MorningSpec(
        2, 1, 1095, ("qarf",),
        drift={"day": 540, "departure_shift": 2.0, "distance_shift": 15.0,
               "fraction": 0.5}),
}


@dataclass
class Outcome:
    """What one pass of a workload produced, before it becomes metrics."""
    attempted: int = 0
    failed: int = 0
    violations: list[str] = field(default_factory=list)
    records: dict = field(default_factory=dict)   # (kind, target) -> [DayRecord]
    abstained: dict = field(default_factory=dict)  # kind -> count
    diverged: dict = field(default_factory=dict)   # kind -> count


def check_interval(point: float, lower: float, upper: float) -> bool:
    """The emitted interval is finite and ordered lower <= point <= upper."""
    return (math.isfinite(point) and math.isfinite(lower)
            and math.isfinite(upper) and lower <= point <= upper)


def quality(outcome: Outcome) -> dict[str, float]:
    """Accuracy and calibration of the pooled records, per kind and target."""
    maes = {t: [] for t in TARGETS}
    gaps = []
    n_days = n_abstained = 0
    for (kind, target), recs in sorted(outcome.records.items()):
        agg = dc.compute_metrics(recs, WITHIN_TOL[target])
        maes[target].append(agg["mae"])
        gaps.append(abs(agg["picp"] - CONFIDENCE))
        n_days += len(recs)
        n_abstained += sum(r.abstained for r in recs)
    return {
        "mae_departure_h": float(np.mean(maes["departure"])),
        "mae_distance_km": float(np.mean(maes["distance"])),
        "picp_gap": float(np.mean(gaps)),
        "abstain_ratio": n_abstained / n_days,
    }


# -- morning serving loop ------------------------------------------------


def make_streams(spec: MorningSpec, data_seed: int) -> tuple[dict, int]:
    """Daily example streams per vehicle, and the raw session count."""
    fleet, _ = dc.generate_fleet(
        n_regular=spec.n_regular, n_irregular=spec.n_irregular,
        n_days=spec.n_days, seed=data_seed, drift=spec.drift)
    sessions = sum(len(h.trips) + len(h.charges) for h in fleet.values())
    kept, _ = dc.preprocess_fleet(fleet)
    streams = {vid: dc.build_daily_examples(kept[vid])
               for vid in sorted(kept)}
    return streams, sessions


class _Fallback:
    """Running mean +- z*std, emitted on days a model abstains."""

    def __init__(self, z: float):
        self.z, self.n, self.mean, self.m2 = z, 0, 0.0, 0.0

    def update(self, y: float) -> None:
        self.n += 1
        d = y - self.mean
        self.mean += d / self.n
        self.m2 += d * (y - self.mean)

    def interval(self) -> tuple[float, float, float, float]:
        std = math.sqrt(max(self.m2 / (self.n - 1), 0.0)) if self.n > 1 else 0.0
        return self.mean, self.mean - self.z * std, self.mean + self.z * std, std


class _Stream:
    __slots__ = ("kind", "target", "model", "pipeline", "fallback",
                 "records", "x", "dead")

    def __init__(self, vid, kind, target, schema, seed):
        self.kind = kind
        self.target = target
        self.model = make_model(kind, schema.dim,
                                seed=stable_seed(seed, vid, kind, target),
                                confidence=CONFIDENCE)
        self.pipeline = FeaturePipeline(schema)
        self.fallback = _Fallback(self.model.z)
        self.records: list[DayRecord] = []
        self.x = None
        self.dead = False


class MorningLoop:
    """One pass of the day-major loop over every live stream."""

    def __init__(self, streams: dict, kinds, model_seed: int,
                 order_seed: int):
        """Models are seeded from ``model_seed``; each morning serves its
        vehicles in an order drawn from ``order_seed``."""
        self.schema = default_schema()
        self.model_seed = model_seed
        self.by_vehicle = {
            vid: [_Stream(vid, k, t, self.schema, model_seed)
                  for k in kinds for t in TARGETS]
            for vid in streams}
        days: dict = {}
        for vid, examples in streams.items():
            for i, ex in enumerate(examples):
                days.setdefault(ex.day, []).append((vid, i, ex))
        rng = np.random.default_rng(order_seed)
        self.schedule = [[days[d][j] for j in rng.permutation(len(days[d]))]
                         for d in sorted(days)]
        self.predict_ns = array("q")
        self.learn_ns = array("q")

    def run(self, speed=None, clock=time.perf_counter_ns) -> Outcome:
        """One pass; ``speed``, when given, samples machine speed each
        morning."""
        out = Outcome()
        for today in self.schedule:
            if speed is not None:
                speed.sample(len(self.predict_ns))
            for vid, i, ex in today:
                for s in self.by_vehicle[vid]:
                    self._morning(s, i, ex, out, clock)
            for vid, i, ex in today:
                for s in self.by_vehicle[vid]:
                    self._evening(s, ex, out, clock)
        for streams in self.by_vehicle.values():
            for s in streams:
                out.records.setdefault((s.kind, s.target), []).extend(
                    s.records)
                out.abstained[s.kind] = out.abstained.get(s.kind, 0) + sum(
                    r.abstained for r in s.records)
        return out

    def _morning(self, s: _Stream, i, ex, out: Outcome, clock) -> None:
        out.attempted += 1
        if s.dead:
            out.failed += 1
            return
        abstained = False
        t0 = clock()
        try:
            x = s.pipeline.transform(ex.features)
            try:
                pi = s.model.predict_interval(x)
            except InsufficientHistoryError:
                abstained = True
        except Exception:
            self._kill(s, out)
            return
        self.predict_ns.append(clock() - t0)
        s.x = x
        if abstained:
            point, lower, upper, sigma = s.fallback.interval()
        else:
            point, lower, upper, sigma = pi.point, pi.lower, pi.upper, pi.sigma
        if not check_interval(point, lower, upper):
            out.failed += 1
            out.violations.append(
                f"interval_finite_and_ordered: {ex.vehicle_id} {ex.day} "
                f"{s.kind}/{s.target} gave ({lower}, {point}, {upper})")
        y = getattr(ex, f"target_{s.target}")
        s.records.append(DayRecord(
            vehicle_id=ex.vehicle_id, day=ex.day, y=y, point=point,
            lower=lower, upper=upper, sigma=sigma, abstained=abstained,
            warmup=i < WARMUP))

    def _evening(self, s: _Stream, ex, out: Outcome, clock) -> None:
        if s.dead:
            return
        y = getattr(ex, f"target_{s.target}")
        t0 = clock()
        try:
            s.model.learn_one(s.x, y)
            s.pipeline.update_target(y)
        except Exception:
            # the morning step already counted as attempted
            self._kill(s, out)
            return
        self.learn_ns.append(clock() - t0)
        s.fallback.update(y)

    @staticmethod
    def _kill(s: _Stream, out: Outcome) -> None:
        """A stream that raised is dead: this and every later step fail."""
        s.dead = True
        out.failed += 1
        out.diverged[s.kind] = out.diverged.get(s.kind, 0) + 1

    def release_models(self) -> None:
        """Drop models and pipelines; records stay for the gate."""
        for streams in self.by_vehicle.values():
            for s in streams:
                s.model = s.pipeline = s.x = None

    def models(self) -> list[tuple[str, object]]:
        return [(s.kind, s.model) for streams in self.by_vehicle.values()
                for s in streams]


def check_against_reference(loop: MorningLoop, streams: dict,
                            spec: MorningSpec) -> list[str]:
    """Re-score a few vehicles with ``progressive_validate`` and require the
    day-major records to match bit for bit on days neither abstained."""
    problems = []
    for vid in sorted(streams)[: spec.n_checked]:
        for s in loop.by_vehicle[vid]:
            model = make_model(s.kind, loop.schema.dim,
                               seed=stable_seed(loop.model_seed, vid, s.kind,
                                                s.target),
                               confidence=CONFIDENCE)
            name = f"matches_progressive_validate: {vid} {s.kind}/{s.target}"
            try:
                ref = dc.progressive_validate(
                    model, FeaturePipeline(loop.schema), streams[vid],
                    s.target, WARMUP)
            except DivergenceError:
                if not s.dead:
                    problems.append(f"{name}: only the reference diverged")
                continue
            if s.dead or len(ref) != len(s.records):
                problems.append(f"{name}: {len(s.records)} records, "
                                f"reference has {len(ref)}")
                continue
            for got, want in zip(s.records, ref):
                same = (got.day == want.day and got.y == want.y
                        and got.abstained == want.abstained
                        and got.warmup == want.warmup)
                if same and not got.abstained:
                    same = (got.point == want.point and got.lower == want.lower
                            and got.upper == want.upper
                            and got.sigma == want.sigma)
                if not same:
                    problems.append(f"{name}: first differs on {got.day}")
                    break
    return problems


# -- study ---------------------------------------------------------------


def run_study(out_dir: Path, data_seed: int
              ) -> tuple[tuple[int, int], Outcome]:
    """Run every stage through ``drivecast.cli.main``; returns the clock
    readings (ns) at the first stage's start and the last stage's end, and
    the outcome.

    Every stage runs with ``data_seed``: the study is one fixed job.  The
    stages' own console output is captured, not printed."""
    from drivecast import cli

    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(STUDY_CONFIG))
    outcome = Outcome()
    sink = io.StringIO()
    t0 = time.perf_counter_ns()
    for stage in cli.STAGES:
        outcome.attempted += 1
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                rc = cli.main([stage, "--config", str(cfg_path), "--out",
                               str(out_dir / "run"), "--seed", str(data_seed)])
        except Exception as e:  # a stage that crashes fails like any other
            rc = f"{type(e).__name__}: {e}"
        if rc != 0:
            outcome.failed += 1
            outcome.violations.append(f"stage_exit_code: {stage} returned {rc}")
            break
    t1 = time.perf_counter_ns()
    if not outcome.failed:
        outcome.violations += check_study_outputs(out_dir / "run", outcome)
    return (t0, t1), outcome


def study_sessions(out_dir: Path) -> int:
    """Raw sessions the synth stage generated, from its ground truth."""
    truth = json.loads((out_dir / "run" / "synth" / "truth.json").read_text())
    return sum(v["n_raw_sessions"] for v in truth["vehicles"].values())


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_study_outputs(run_dir: Path, outcome: Outcome) -> list[str]:
    """Manifest hashes match their files; every record interval is sound.

    Fills ``outcome.records`` from the evaluate stage's record files."""
    problems = []
    for stage_dir in sorted(p for p in run_dir.iterdir() if p.is_dir()):
        manifest = json.loads((stage_dir / "manifest.json").read_text())
        for name, digest in sorted(manifest["outputs"].items()):
            path = stage_dir / name
            if not path.exists() or _sha256(path) != digest:
                problems.append(f"manifest_hash: {stage_dir.name}/{name}")
    for path in sorted((run_dir / "evaluate").glob("records_*.csv")):
        kind, target = path.stem.split("_")[1:]
        recs = []
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rec = DayRecord(
                    vehicle_id=row["vehicle_id"], day=row["day"],
                    y=float(row["y"]), point=float(row["point"]),
                    lower=float(row["lower"]), upper=float(row["upper"]),
                    sigma=float(row["sigma"]) if row["sigma"] else None,
                    abstained=row["abstained"] == "1",
                    warmup=row["warmup"] == "1")
                if not check_interval(rec.point, rec.lower, rec.upper):
                    problems.append(
                        f"interval_finite_and_ordered: {path.name} "
                        f"{rec.vehicle_id} {rec.day}")
                recs.append(rec)
        outcome.records[(kind, target)] = recs
        outcome.abstained[kind] = outcome.abstained.get(kind, 0) + sum(
            r.abstained for r in recs)
    if not outcome.records:
        problems.append("study_records: evaluate wrote no record files")
    return problems


def package_path() -> Path:
    return Path(dc.__file__).resolve().parent
