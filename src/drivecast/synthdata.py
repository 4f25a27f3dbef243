"""Seeded synthetic fleet generator.

Produces per-vehicle drive/charge session streams with the quirks the
cleanup stage exists for: sub-minute parking shuffles, drives split by a
short stop, overnight charges, telework days, seasonal temperature and
sun load, and optional mid-stream behavior shifts.  Two archetypes:

* regular drivers have a tight weekday departure routine, a distinct
  weekend pattern, and high drive probability;
* irregular drivers depart uniformly across the day, drive less often,
  and show no workday structure.

Everything derives from one seed through per-vehicle seed spawning, so a
fleet is reproducible vehicle by vehicle regardless of generation order.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta

import numpy as np

from .data_model import ChargeSession, TripSession, VehicleHistory
from .features import check_setting

DEFAULT_START = date(2023, 1, 2)  # a Monday


@dataclass(frozen=True)
class DriverProfile:
    """Distributional description of one driver's habits."""

    weekday_departure_mean: float
    weekday_departure_std: float
    weekend_departure_mean: float
    weekend_departure_std: float
    weekday_distance_mean: float
    weekday_distance_std: float
    weekend_distance_mean: float
    weekend_distance_std: float
    drive_prob: tuple[float, ...]  # per weekday, Monday first
    telework_prob: float = 0.0
    return_prob: float = 0.92
    charge_prob: float = 0.85
    uniform_departure: bool = False
    # when set, trip distances come from U(lo, hi) instead of the
    # lognormal around the means above; erratic drivers use this
    distance_range: tuple[float, float] = ()
    # (day_index, duration_days, departure_shift_hours, distance_shift_km);
    # shifts are additive and active for day_index <= d < day_index +
    # duration, with an infinite duration meaning a permanent change
    drift_events: tuple[tuple[int, float, float, float], ...] = ()

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["drive_prob"] = list(self.drive_prob)
        d["distance_range"] = list(self.distance_range)
        d["drift_events"] = [
            [day, None if math.isinf(dur) else dur, dep, dist]
            for day, dur, dep, dist in self.drift_events]
        return d


def plant_drift(profile: DriverProfile, day_index: int,
                duration: float = math.inf,
                departure_shift: float = 0.0,
                distance_shift: float = 0.0) -> DriverProfile:
    duration = check_setting("duration", duration, float, 0.0,
                             low_open=True, inf=True)
    events = profile.drift_events + ((day_index, duration, departure_shift,
                                      distance_shift),)
    return dataclasses.replace(profile, drift_events=events)


def check_drift(drift, n_regular: int, n_days: int,
                name: str = "drift") -> dict:
    """A copy of ``drift`` with each setting as ``check_setting`` returns
    it, or ``ValueError`` whose message starts with the key at fault
    (``drift.day``, under ``name`` in place of ``drift``).  ``day`` (an
    int from 0 to below ``n_days``) and ``fraction`` (in (0, 1]) are
    required; ``duration`` is positive, or None or absent for a permanent
    shift; the two shifts are real numbers, 0 when absent; no other key
    is allowed.  A fleet of ``n_regular`` 0 has no vehicle to drift."""
    drift = dict(check_setting(name, drift, dict))
    extra = set(drift) - {"day", "fraction", "duration", "departure_shift",
                          "distance_shift"}
    if extra:
        raise ValueError(f"{name} has unknown keys {sorted(extra)}")
    for key in ("day", "fraction"):
        if key not in drift:
            raise ValueError(f"{name}.{key} is required")
    # a drift planted on no vehicle, or on a day that never comes, would
    # pass unreported
    drift["day"] = check_setting(f"{name}.day", drift["day"], int, 0,
                                 n_days, high_open=True)
    drift["fraction"] = check_setting(f"{name}.fraction", drift["fraction"],
                                      float, 0.0, 1.0, low_open=True)
    if drift.get("duration") is not None:
        drift["duration"] = check_setting(f"{name}.duration",
                                          drift["duration"], float, 0.0,
                                          low_open=True)
    for key in ("departure_shift", "distance_shift"):
        if key in drift:
            drift[key] = check_setting(f"{name}.{key}", drift[key], float)
    if n_regular == 0:
        raise ValueError(f"{name} needs a regular vehicle to plant on, "
                         "and the fleet has none")
    return drift


def _lognormal(rng: np.random.Generator, mean: float, std: float) -> float:
    """Sample with the requested arithmetic mean and std."""
    mean = max(mean, 0.5)
    var_log = math.log(1.0 + (std / mean) ** 2)
    mu_log = math.log(mean) - var_log / 2.0
    return float(rng.lognormal(mu_log, math.sqrt(var_log)))


def regular_profile(rng: np.random.Generator) -> DriverProfile:
    dist_mean = float(rng.uniform(8.0, 40.0))
    # weekends are excursion days: clearly longer than the commute
    wk_dist = dist_mean + float(rng.uniform(18.0, 50.0))
    return DriverProfile(
        weekday_departure_mean=float(rng.uniform(6.5, 8.5)),
        weekday_departure_std=float(rng.uniform(0.15, 0.4)),
        weekend_departure_mean=float(rng.uniform(10.0, 12.5)),
        weekend_departure_std=float(rng.uniform(0.5, 0.9)),
        weekday_distance_mean=dist_mean,
        weekday_distance_std=dist_mean * float(rng.uniform(0.08, 0.18)),
        weekend_distance_mean=wk_dist,
        weekend_distance_std=wk_dist * float(rng.uniform(0.15, 0.4)),
        drive_prob=tuple(
            [float(rng.uniform(0.86, 0.98)) for _ in range(5)]
            + [float(rng.uniform(0.35, 0.7)) for _ in range(2)]),
        telework_prob=float(rng.uniform(0.05, 0.25)),
    )


def irregular_profile(rng: np.random.Generator) -> DriverProfile:
    dist_lo = float(rng.uniform(1.0, 6.0))
    dist_hi = dist_lo + float(rng.uniform(35.0, 110.0))
    dist_mean = (dist_lo + dist_hi) / 2.0
    return DriverProfile(
        weekday_departure_mean=float(rng.uniform(8.0, 16.0)),
        weekday_departure_std=float(rng.uniform(3.0, 5.0)),
        weekend_departure_mean=float(rng.uniform(8.0, 16.0)),
        weekend_departure_std=float(rng.uniform(3.0, 5.0)),
        weekday_distance_mean=dist_mean,
        weekday_distance_std=dist_mean * 0.577,
        weekend_distance_mean=dist_mean,
        weekend_distance_std=dist_mean * 0.577,
        drive_prob=tuple(float(rng.uniform(0.3, 0.65)) for _ in range(7)),
        telework_prob=float(rng.uniform(0.2, 0.5)),
        return_prob=0.5,
        uniform_departure=True,
        distance_range=(dist_lo, dist_hi),
    )


def _season_temp(day: date, rng: np.random.Generator) -> float:
    doy = day.timetuple().tm_yday
    return (11.0 - 9.0 * math.cos(2.0 * math.pi * (doy - 20) / 365.25)
            + float(rng.normal(0.0, 2.0)))


def _sunload(hour: float, day: date, rng: np.random.Generator) -> float:
    if not 6.0 <= hour <= 20.0:
        return 0.0
    doy = day.timetuple().tm_yday
    season = 0.85 - 0.35 * math.cos(2.0 * math.pi * (doy - 20) / 365.25)
    elev = math.sin(math.pi * (hour - 6.0) / 14.0)
    return max(0.0, 600.0 * elev * season + float(rng.normal(0.0, 30.0)))


def _dt(day: date, hours: float) -> datetime:
    return (datetime.combine(day, time.min)
            + timedelta(seconds=round(hours * 3600.0)))


class _DriverSim:
    def __init__(self, vid: str, profile: DriverProfile,
                 rng: np.random.Generator):
        self.vid = vid
        self.p = profile
        self.rng = rng
        self.soc = float(rng.uniform(50.0, 85.0))

    def _offsets(self, day_index: int) -> tuple[float, float]:
        dep = dist = 0.0
        for start, duration, dep_shift, dist_shift in self.p.drift_events:
            if start <= day_index < start + duration:
                dep += dep_shift
                dist += dist_shift
        return dep, dist

    def _drive(self, day: date, start_h: float, distance: float
               ) -> list[TripSession]:
        """One drive as one or (occasionally) two split sessions."""
        rng = self.rng
        speed = min(max(22.0 + 9.0 * math.sqrt(distance)
                        + rng.normal(0.0, 4.0), 18.0), 115.0)
        duration_h = max(distance / speed, 0.03)
        # drives never cross midnight: long tails get truncated in both
        # time and distance
        available = 23.85 - start_h
        if duration_h > available:
            duration_h = max(available, 0.03)
            distance = duration_h * speed
        temp = _season_temp(day, rng)
        self.soc = min(max(self.soc + rng.normal(-1.0, 4.0), 30.0), 95.0)

        def session(s_h: float, e_h: float, dist: float) -> TripSession:
            spd = min(max(speed + rng.normal(0.0, 2.0), 15.0), 120.0)
            return TripSession(
                self.vid, _dt(day, s_h), _dt(day, e_h), round(dist, 3),
                speed_mean=round(spd, 2),
                speed_std=round(abs(rng.normal(0.28 * spd, 2.0)), 2),
                accel_mean=round(rng.normal(0.05, 0.02), 4),
                accel_std=round(abs(rng.normal(0.8, 0.15)), 4),
                temp_mean=round(temp, 2),
                sunload_mean=round(_sunload(s_h, day, rng), 1),
                soc_mean=round(self.soc, 2),
            )

        split_roll = rng.random() < 0.06
        gap_h = float(rng.uniform(2.0, 12.0)) / 60.0
        if (split_roll and duration_h > 0.12
                and start_h + duration_h + gap_h < 23.8):
            # split the drive in two with a short stop in between; the
            # cleanup stage is expected to stitch these back together
            frac = float(rng.uniform(0.3, 0.7))
            mid = start_h + duration_h * frac
            return [
                session(start_h, mid, distance * frac),
                session(mid + gap_h, start_h + duration_h + gap_h,
                        distance * (1.0 - frac)),
            ]
        return [session(start_h, start_h + duration_h, distance)]

    def _micro(self, day: date, after_h: float) -> TripSession:
        start = after_h + float(self.rng.uniform(0.4, 2.0))
        dur_s = float(self.rng.uniform(15.0, 45.0))
        return TripSession(
            self.vid, _dt(day, start),
            _dt(day, start) + timedelta(seconds=round(dur_s)),
            round(float(self.rng.uniform(0.02, 0.2)), 3),
            speed_mean=10.0, speed_std=2.0)

    def simulate(self, start: date, n_days: int
                 ) -> tuple[list[TripSession], list[ChargeSession]]:
        rng = self.rng
        p = self.p
        trips: list[TripSession] = []
        for d in range(n_days):
            day = start + timedelta(days=d)
            wd = day.weekday()
            dep_off, dist_off = self._offsets(d)
            workday = wd < 5
            if rng.random() >= p.drive_prob[wd]:
                continue
            telework = workday and rng.random() < p.telework_prob
            if telework and rng.random() < 0.5:
                continue

            if p.uniform_departure:
                departure = float(rng.uniform(5.0, 21.0))
            elif telework:
                departure = float(rng.normal(13.5, 1.5))
            elif workday:
                departure = float(rng.normal(
                    p.weekday_departure_mean + dep_off,
                    p.weekday_departure_std))
            else:
                departure = float(rng.normal(
                    p.weekend_departure_mean + dep_off,
                    p.weekend_departure_std))
            departure = min(max(departure, 0.5), 21.5)

            if p.distance_range:
                distance = float(rng.uniform(*p.distance_range)) + dist_off
            elif workday and not telework:
                distance = _lognormal(rng, p.weekday_distance_mean + dist_off,
                                      p.weekday_distance_std)
            else:
                distance = _lognormal(rng, p.weekend_distance_mean + dist_off,
                                      p.weekend_distance_std)
            distance = max(distance, 0.5)

            day_trips = self._drive(day, departure, distance)
            out_end = (day_trips[-1].end - datetime.combine(day, time.min)
                       ).total_seconds() / 3600.0

            if workday and not telework and rng.random() < p.return_prob:
                back_start = out_end + float(rng.normal(8.8, 0.8))
                if back_start < 22.8:
                    back_dist = max(distance * float(rng.normal(1.0, 0.06)),
                                    0.5)
                    day_trips.extend(self._drive(day, back_start, back_dist))
            elif not workday and rng.random() < 0.4:
                second_start = out_end + float(rng.uniform(1.0, 4.0))
                if p.distance_range:
                    second_dist = float(rng.uniform(*p.distance_range))
                else:
                    second_dist = _lognormal(rng, p.weekend_distance_mean,
                                             p.weekend_distance_std)
                if second_start < 21.5:
                    day_trips.extend(self._drive(day, second_start,
                                                 second_dist))

            if rng.random() < 0.04:
                last_end = (day_trips[-1].end
                            - datetime.combine(day, time.min)
                            ).total_seconds() / 3600.0
                if last_end < 21.0:
                    day_trips.append(self._micro(day, last_end))

            trips.extend(day_trips)

        charges = self._charges(trips)
        return trips, charges

    def _charges(self, trips: list[TripSession]) -> list[ChargeSession]:
        """Overnight charges after the last drive of a day, never running
        into the next day's first drive."""
        rng = self.rng
        charges: list[ChargeSession] = []
        if not trips:
            return charges
        by_day: dict[date, list[TripSession]] = {}
        for t in trips:
            by_day.setdefault(t.start.date(), []).append(t)
        days = sorted(by_day)
        for i, day in enumerate(days):
            if rng.random() >= self.p.charge_prob:
                continue
            last_end = max(t.end for t in by_day[day])
            start = last_end + timedelta(
                seconds=round(float(rng.uniform(0.3, 2.5)) * 3600))
            end = start + timedelta(
                seconds=round(float(rng.uniform(1.5, 7.0)) * 3600))
            if i + 1 < len(days):
                next_first = min(t.start for t in by_day[days[i + 1]])
                limit = next_first - timedelta(minutes=5)
                if start >= limit:
                    continue
                end = min(end, limit)
            if end <= start:
                continue
            prev_dist = sum(t.distance_km for t in by_day[day])
            soc = min(max(78.0 - 0.45 * prev_dist + rng.normal(0, 6.0), 5.0),
                      95.0)
            charges.append(ChargeSession(self.vid, start, end,
                                         soc_initial_pct=round(soc, 2)))
        return charges


def generate_fleet(n_regular: int = 100, n_irregular: int = 25,
                   n_days: int = 365, seed: int = 0,
                   drift: dict | None = None
                   ) -> tuple[dict[str, VehicleHistory], dict]:
    """Build a fleet of session histories plus the ground truth behind it,
    every history starting on ``DEFAULT_START``.

    ``drift``, when given, plants a behavior shift on
    ``ceil(fraction * n_regular)`` regular vehicles, the first in fleet
    order: ``{"day": 180, "departure_shift": 2.0, "distance_shift": 15.0,
    "fraction": 0.5}``.  An optional ``"duration"`` (days) makes the
    shift temporary; omitted or None means permanent.  ``check_drift``
    states the rules, and a drift that breaks one raises ``ValueError``
    before anything is generated.
    """
    if drift is not None:
        drift = check_drift(drift, n_regular, n_days)
    n_total = n_regular + n_irregular
    root = np.random.SeedSequence(seed)
    assign_rng = np.random.Generator(np.random.PCG64(root.spawn(1)[0]))
    archetypes = (["regular"] * n_regular + ["irregular"] * n_irregular)
    order = assign_rng.permutation(n_total)
    archetypes = [archetypes[i] for i in order]

    drifted_budget = 0 if drift is None else math.ceil(
        drift["fraction"] * n_regular)

    histories: dict[str, VehicleHistory] = {}
    truth_vehicles: dict[str, dict] = {}
    width = max(3, len(str(n_total - 1)))
    child_seeds = root.spawn(n_total)
    drifted = 0
    for i in range(n_total):
        vid = f"veh-{i:0{width}d}"
        rng = np.random.Generator(np.random.PCG64(child_seeds[i]))
        if archetypes[i] == "regular":
            profile = regular_profile(rng)
            if drifted < drifted_budget:
                duration = drift.get("duration")
                profile = plant_drift(
                    profile, drift["day"],
                    math.inf if duration is None else duration,
                    drift.get("departure_shift", 0.0),
                    drift.get("distance_shift", 0.0))
                drifted += 1
        else:
            profile = irregular_profile(rng)
        sim = _DriverSim(vid, profile, rng)
        trips, charges = sim.simulate(DEFAULT_START, n_days)
        histories[vid] = VehicleHistory(vid, trips, charges)
        truth_vehicles[vid] = {
            "archetype": archetypes[i],
            "drifted": bool(profile.drift_events),
            "profile": profile.to_dict(),
            "n_raw_sessions": len(trips) + len(charges),
        }

    truth = {
        "seed": seed,
        "start": DEFAULT_START.isoformat(),
        "n_days": n_days,
        "n_regular": n_regular,
        "n_irregular": n_irregular,
        "vehicles": truth_vehicles,
    }
    return histories, truth
