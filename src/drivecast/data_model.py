"""Session records, cleanup filters, and per-day example construction.

Raw input is a stream of drive and charge sessions per vehicle.  Cleanup
drops noise sessions shorter than 50 seconds, merges drives separated by
less than 15 minutes (a short stop, not a new trip), and discards
vehicles with fewer than 50 drives of history.  The three thresholds
are fixed: ``MIN_SESSION_SECONDS``, ``MERGE_GAP_SECONDS`` and
``MIN_DRIVES_PER_VEHICLE``.  From the cleaned stream,
one example per active day is built: the targets are the departure time
(decimal hours after midnight) and distance of the day's first drive,
and the features describe the previous drive, the most recent charge,
and the calendar day.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date, datetime, time
from operator import attrgetter

from .exceptions import DataError
from .features import DRIVE_SIGNALS, part_of_day

MIN_SESSION_SECONDS = 50.0
MERGE_GAP_SECONDS = 900.0
MIN_DRIVES_PER_VEHICLE = 50

SESSION_COLUMNS = [
    "vehicle_id", "kind", "start_iso8601", "end_iso8601", "distance_km",
    "soc_initial_pct", *DRIVE_SIGNALS,
]

# Keys of the previous drive's signals, made once so that every daily
# example's features share these strings rather than hold copies.
_PREV_SIGNAL_KEYS = tuple(f"prev_{s}" for s in DRIVE_SIGNALS)
_drive_signals = attrgetter(*DRIVE_SIGNALS)

# Raw feature keys a daily example can carry, in canonical column order.
RAW_FEATURE_KEYS = (
    "day_of_month", "day_of_week", "is_workday",
    "prev_start_hour", "prev_start_minute", "prev_start_part_of_day",
    "prev_end_hours", "prev_distance_km",
    "charge_start_hours", "charge_soc_initial",
    *_PREV_SIGNAL_KEYS,
)

NAN = float("nan")


def _hours(dt: datetime) -> float:
    return (dt.hour + dt.minute / 60.0 + dt.second / 3600.0
            + dt.microsecond / 3.6e9)


@dataclass
class TripSession:
    vehicle_id: str
    start: datetime
    end: datetime
    distance_km: float
    speed_mean: float = NAN
    speed_std: float = NAN
    accel_mean: float = NAN
    accel_std: float = NAN
    temp_mean: float = NAN
    sunload_mean: float = NAN
    soc_mean: float = NAN

    def __post_init__(self):
        if self.end <= self.start:
            raise DataError(
                f"trip for {self.vehicle_id} ends at or before its start "
                f"({self.start} .. {self.end})")
        if not self.distance_km >= 0.0:
            raise DataError(
                f"trip for {self.vehicle_id} has negative or missing "
                f"distance: {self.distance_km}")
        for name in ("speed_std", "accel_std"):
            v = getattr(self, name)
            if math.isfinite(v) and v < 0.0:
                raise DataError(f"trip for {self.vehicle_id}: {name} < 0")

    @property
    def duration_s(self) -> float:
        return (self.end - self.start).total_seconds()


@dataclass
class ChargeSession:
    vehicle_id: str
    start: datetime
    end: datetime
    soc_initial_pct: float = NAN

    def __post_init__(self):
        if self.end <= self.start:
            raise DataError(
                f"charge for {self.vehicle_id} ends at or before its start "
                f"({self.start} .. {self.end})")
        v = self.soc_initial_pct
        if math.isfinite(v) and not 0.0 <= v <= 100.0:
            raise DataError(
                f"charge for {self.vehicle_id}: initial SoC {v} outside 0..100")

    @property
    def duration_s(self) -> float:
        return (self.end - self.start).total_seconds()


@dataclass
class VehicleHistory:
    vehicle_id: str
    trips: list[TripSession] = field(default_factory=list)
    charges: list[ChargeSession] = field(default_factory=list)


@dataclass
class DailyExample:
    vehicle_id: str
    day: date
    features: dict
    target_departure: float
    target_distance: float


# -- cleanup ------------------------------------------------------------


def filter_short_sessions(trips: list[TripSession]) -> list[TripSession]:
    return [t for t in trips if t.duration_s >= MIN_SESSION_SECONDS]


def _weighted_mean(parts: list[tuple[float, float]]) -> float:
    ok = [(w, v) for w, v in parts if math.isfinite(v) and w > 0]
    if not ok:
        return NAN
    total = sum(w for w, _ in ok)
    return sum(w * v for w, v in ok) / total


def _pooled_std(parts: list[tuple[float, float, float]]) -> float:
    """Std of the concatenation from per-part (weight, mean, std)."""
    ok = [(w, m, s) for w, m, s in parts
          if math.isfinite(m) and math.isfinite(s) and w > 0]
    if not ok:
        return NAN
    total = sum(w for w, _, _ in ok)
    mean = sum(w * m for w, m, _ in ok) / total
    second = sum(w * (s * s + m * m) for w, m, s in ok) / total
    return math.sqrt(max(second - mean * mean, 0.0))


def _merge_pair(a: TripSession, a_weight: float, b: TripSession) -> TripSession:
    wa, wb = a_weight, b.duration_s
    pooled = {}
    for name in DRIVE_SIGNALS:
        if name.endswith("_std"):
            # a std is pooled with the mean of the same signal
            mean = name.removesuffix("_std") + "_mean"
            pooled[name] = _pooled_std(
                [(wa, getattr(a, mean), getattr(a, name)),
                 (wb, getattr(b, mean), getattr(b, name))])
        else:
            pooled[name] = _weighted_mean(
                [(wa, getattr(a, name)), (wb, getattr(b, name))])
    return TripSession(a.vehicle_id, a.start, b.end,
                       a.distance_km + b.distance_km, **pooled)


def merge_adjacent_sessions(trips: list[TripSession]) -> list[TripSession]:
    """Fold drives separated by less than ``MERGE_GAP_SECONDS`` into one
    drive.

    Signal means and stds of merged drives are pooled weighted by the
    measured driving seconds of each part, so stop time between parts
    never dilutes the statistics.  Overlapping drives raise DataError.
    """
    if not trips:
        return []
    ordered = sorted(trips, key=lambda t: t.start)
    out: list[TripSession] = []
    pend = ordered[0]
    pend_weight = pend.duration_s
    for t in ordered[1:]:
        gap = (t.start - pend.end).total_seconds()
        if gap < 0:
            raise DataError(
                f"overlapping trips for {t.vehicle_id}: one ends {pend.end}, "
                f"next starts {t.start}")
        if gap < MERGE_GAP_SECONDS:
            pend = _merge_pair(pend, pend_weight, t)
            pend_weight += t.duration_s
        else:
            out.append(pend)
            pend = t
            pend_weight = t.duration_s
    out.append(pend)
    return out


def preprocess_history(history: VehicleHistory) -> VehicleHistory:
    trips = merge_adjacent_sessions(filter_short_sessions(history.trips))
    charges = sorted(history.charges, key=lambda c: c.start)
    return VehicleHistory(history.vehicle_id, trips, charges)


def filter_sparse_vehicles(histories: list[VehicleHistory]
                           ) -> list[VehicleHistory]:
    """Keep vehicles with enough drives to learn from.  Only drives count
    toward the threshold; charge sessions do not."""
    return [h for h in histories if len(h.trips) >= MIN_DRIVES_PER_VEHICLE]


def preprocess_fleet(histories: dict[str, VehicleHistory]
                     ) -> tuple[dict[str, VehicleHistory], list[str]]:
    """Clean every vehicle and drop the sparse ones.

    Returns the kept histories keyed by vehicle id plus the ids that were
    dropped for having too little history.
    """
    cleaned = {vid: preprocess_history(h) for vid, h in histories.items()}
    kept = {h.vehicle_id: h
            for h in filter_sparse_vehicles(list(cleaned.values()))}
    dropped = [vid for vid in cleaned if vid not in kept]
    return kept, dropped


# -- daily examples -----------------------------------------------------


def _check_ordered(sessions, what: str) -> None:
    for a, b in zip(sessions, sessions[1:]):
        if b.start < a.end:
            raise DataError(
                f"overlapping {what} for {a.vehicle_id}: one ends {a.end}, "
                f"next starts {b.start}")


def build_daily_examples(history: VehicleHistory) -> list[DailyExample]:
    """One example per day that has at least one drive.

    The previous-drive features come from the last drive that ended
    before the day's midnight, the charge features from the last charge
    started before midnight (typically the overnight charge).  A charge
    that is still running when the day's first drive departs means the
    two clocks disagree and raises DataError.
    """
    trips = sorted(history.trips, key=lambda t: t.start)
    charges = sorted(history.charges, key=lambda c: c.start)
    _check_ordered(trips, "trips")
    _check_ordered(charges, "charges")

    by_day: dict[date, TripSession] = {}
    for t in trips:
        day = t.start.date()
        if day not in by_day:
            by_day[day] = t  # first drive of the day (trips are sorted)

    examples: list[DailyExample] = []
    ti = ci = 0
    last_trip: TripSession | None = None
    last_charge: ChargeSession | None = None
    for day in sorted(by_day):
        first = by_day[day]
        midnight = datetime.combine(day, time.min)
        while ti < len(trips) and trips[ti].end < midnight:
            last_trip = trips[ti]
            ti += 1
        while ci < len(charges) and charges[ci].start < midnight:
            last_charge = charges[ci]
            ci += 1

        feats: dict = {
            "day_of_month": float(day.day),
            "day_of_week": float(day.weekday()),
            "is_workday": 1.0 if day.weekday() < 5 else 0.0,
        }
        if last_trip is not None:
            feats.update({
                "prev_start_hour": float(last_trip.start.hour),
                "prev_start_minute": float(last_trip.start.minute),
                "prev_start_part_of_day": part_of_day(_hours(last_trip.start)),
                "prev_end_hours": _hours(last_trip.end),
                "prev_distance_km": last_trip.distance_km,
            })
            feats.update(zip(_PREV_SIGNAL_KEYS, _drive_signals(last_trip)))
        if last_charge is not None:
            if last_charge.end > first.start:
                raise DataError(
                    f"charge for {history.vehicle_id} ends {last_charge.end}, "
                    f"after the first drive departs {first.start}; "
                    "session clocks disagree")
            feats.update({
                "charge_start_hours": _hours(last_charge.start),
                "charge_soc_initial": last_charge.soc_initial_pct,
            })

        examples.append(DailyExample(
            vehicle_id=history.vehicle_id,
            day=day,
            features=feats,
            target_departure=_hours(first.start),
            target_distance=first.distance_km,
        ))
    return examples


# -- CSV I/O ------------------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float) and not math.isfinite(v):
        return ""
    return repr(float(v))


def _parse_float(s: str, row: int, col: str) -> float:
    """A finite number, or NaN for a blank (missing) field."""
    if s.strip() == "":
        return NAN
    try:
        v = float(s)
    except ValueError:
        v = NAN
    if not math.isfinite(v):
        raise DataError(f"row {row}: bad number in {col}: {s!r}")
    return v


def _parse_dt(s: str, row: int, col: str) -> datetime:
    try:
        return datetime.fromisoformat(s.strip())
    except ValueError:
        raise DataError(f"row {row}: bad timestamp in {col}: {s!r}") from None


def _records(fh, columns: list[str], what: str):
    """(row number, record) of every data row of a CSV with exactly the
    header ``columns``; DataError names a row with a field too few or too
    many."""
    reader = csv.DictReader(fh)
    if reader.fieldnames != columns:
        raise DataError(f"unexpected {what} columns {reader.fieldnames}, "
                        f"want {columns}")
    for i, rec in enumerate(reader, start=2):
        if None in rec or None in rec.values():
            raise DataError(f"row {i}: want {len(columns)} fields")
        yield i, rec


def read_sessions_csv(path) -> dict[str, VehicleHistory]:
    """Parse a session stream; returns histories keyed by vehicle id.

    Vehicles appear in first-seen order.  Any malformed row raises
    DataError naming the row.
    """
    histories: dict[str, VehicleHistory] = {}
    with open(path, newline="") as fh:
        for i, rec in _records(fh, SESSION_COLUMNS, "session"):
            vid = rec["vehicle_id"].strip()
            if not vid:
                raise DataError(f"row {i}: missing vehicle_id")
            kind = rec["kind"].strip()
            start = _parse_dt(rec["start_iso8601"], i, "start_iso8601")
            end = _parse_dt(rec["end_iso8601"], i, "end_iso8601")
            hist = histories.setdefault(vid, VehicleHistory(vid))
            try:
                if kind == "drive":
                    hist.trips.append(TripSession(
                        vid, start, end,
                        distance_km=_parse_float(rec["distance_km"], i,
                                                 "distance_km"),
                        **{s: _parse_float(rec[s], i, s) for s in DRIVE_SIGNALS},
                    ))
                elif kind == "charge":
                    hist.charges.append(ChargeSession(
                        vid, start, end,
                        soc_initial_pct=_parse_float(rec["soc_initial_pct"], i,
                                                     "soc_initial_pct"),
                    ))
                else:
                    raise DataError(f"unknown session kind {kind!r}")
            except DataError as e:
                raise DataError(f"row {i}: {e}") from None
    return histories


def write_sessions_csv(path, histories: dict[str, VehicleHistory]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(SESSION_COLUMNS)
        for vid in histories:
            h = histories[vid]
            rows = ([("drive", t) for t in h.trips]
                    + [("charge", c) for c in h.charges])
            rows.sort(key=lambda kt: kt[1].start)
            for kind, s in rows:
                # a drive has no initial SoC, a charge only that
                w.writerow([vid, kind, s.start.isoformat(), s.end.isoformat()]
                           + [_fmt(getattr(s, col, None))
                              for col in SESSION_COLUMNS[4:]])


EXAMPLE_COLUMNS = (["vehicle_id", "date"] + list(RAW_FEATURE_KEYS)
                   + ["target_departure", "target_distance"])


def write_daily_examples_csv(path, examples: list[DailyExample]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(EXAMPLE_COLUMNS)
        for ex in examples:
            row = [ex.vehicle_id, ex.day.isoformat()]
            for key in RAW_FEATURE_KEYS:
                v = ex.features.get(key)
                if key == "prev_start_part_of_day":
                    row.append(v if v is not None else "")
                else:
                    row.append(_fmt(v))
            row.append(_fmt(ex.target_departure))
            row.append(_fmt(ex.target_distance))
            w.writerow(row)


def read_daily_examples_csv(path) -> list[DailyExample]:
    out: list[DailyExample] = []
    with open(path, newline="") as fh:
        for i, rec in _records(fh, EXAMPLE_COLUMNS, "example"):
            feats: dict = {}
            for key in RAW_FEATURE_KEYS:
                s = rec[key]
                if key == "prev_start_part_of_day":
                    if s:
                        feats[key] = s
                    continue
                v = _parse_float(s, i, key)
                if math.isfinite(v):
                    feats[key] = v
            try:
                day = date.fromisoformat(rec["date"])
            except ValueError:
                raise DataError(f"row {i}: bad date {rec['date']!r}") from None
            dep = _parse_float(rec["target_departure"], i, "target_departure")
            dist = _parse_float(rec["target_distance"], i, "target_distance")
            if not (math.isfinite(dep) and math.isfinite(dist)):
                raise DataError(f"row {i}: missing target")
            out.append(DailyExample(rec["vehicle_id"], day, feats, dep, dist))
    return out
