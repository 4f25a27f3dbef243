"""Feature schema, encoders, and online standardization.

A schema is an ordered list of descriptors.  Each descriptor pulls one
value from a raw feature mapping and encodes it as one or more numeric
columns:

* ``numeric``: the value itself, one column.
* ``cyclic``: sine and cosine of 2*pi*phase/period, two columns, so that
  values at both ends of a wrapping range (hour 23 vs hour 0) end up
  close together.
* ``onehot``: one indicator column per category.

Missing values (``None`` or NaN) encode as NaN for numeric/cyclic
columns and all-zeros for one-hot groups; the standardizer maps NaN to 0,
which after centering means "average".  Encoded vectors are standardized
online: each column is shifted and scaled by the running mean and
standard deviation of everything seen so far, with the statistics updated
only after the current vector is transformed, so the output never
depends on the example being encoded.  One-hot columns pass through
unscaled.  The standardizer holds one ``RunningStats`` per scaled column,
the module's one Welford accumulator, and works on a row as a list of
Python floats: with a few dozen columns per call, numpy's per-call cost
would be most of the work.

The rules every learner applies to its inputs and count settings live
here once: ``check_features``, ``check_target`` and ``check_count``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError

# Ordered bins mapping hour-of-day to a coarse daypart category.
PART_OF_DAY_BINS = (
    ("night", 0.0, 6.0),
    ("morning", 6.0, 11.0),
    ("noon", 11.0, 13.0),
    ("afternoon", 13.0, 17.0),
    ("evening", 17.0, 24.0),
)
PART_OF_DAY_CATEGORIES = ("morning", "noon", "afternoon", "evening", "night")

# Signals a drive session summarizes, each as a mean or a std over the
# drive; a daily example carries the previous drive's as ``prev_<signal>``.
DRIVE_SIGNALS = ("speed_mean", "speed_std", "accel_mean", "accel_std",
                 "temp_mean", "sunload_mean", "soc_mean")

# Days in ``target_run_avg``, the running average of the latest targets.
RUN_AVG_WINDOW = 7


def part_of_day(hour: float) -> str:
    if not 0.0 <= hour < 24.0:
        raise ValueError(f"hour out of range: {hour}")
    for name, lo, hi in PART_OF_DAY_BINS:
        if lo <= hour < hi:
            return name
    raise AssertionError("unreachable")


@dataclass(frozen=True)
class FeatureSpec:
    """One descriptor: where to read the value and how to encode it."""

    name: str
    kind: str  # "numeric" | "cyclic" | "onehot"
    source: str
    period: float = 0.0  # cyclic only
    offset: float = 0.0  # cyclic only: phase = value - offset
    categories: tuple[str, ...] = ()  # onehot only

    def __post_init__(self):
        if self.kind not in ("numeric", "cyclic", "onehot"):
            raise ValueError(f"unknown descriptor kind: {self.kind}")
        if self.kind == "cyclic" and self.period <= 0:
            raise ValueError(f"cyclic descriptor {self.name} needs a period > 0")
        if self.kind == "onehot" and not self.categories:
            raise ValueError(f"onehot descriptor {self.name} needs categories")

    @property
    def width(self) -> int:
        if self.kind == "numeric":
            return 1
        if self.kind == "cyclic":
            return 2
        return len(self.categories)

    @property
    def columns(self) -> tuple[str, ...]:
        if self.kind == "numeric":
            return (self.name,)
        if self.kind == "cyclic":
            return (self.name + "_sin", self.name + "_cos")
        return tuple(f"{self.name}={c}" for c in self.categories)


class FeatureSchema:
    """Ordered collection of descriptors with encoding to a flat vector."""

    def __init__(self, specs: list[FeatureSpec]):
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate descriptor names")
        self.specs = list(specs)
        self._slices: dict[str, slice] = {}
        # what ``encode`` reads per descriptor, compiled once: kind, name,
        # source, first column, period, offset and category -> offset
        self._plan = []
        at = 0
        for s in self.specs:
            self._slices[s.name] = slice(at, at + s.width)
            self._plan.append((s.kind, s.name, s.source, at, s.period,
                               s.offset, {c: s.categories.index(c)
                                          for c in s.categories}))
            at += s.width
        self.dim = at

    def __reduce__(self):
        # the slices and the plan derive from the specs: pickle only those
        return (type(self), (self.specs,))

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.specs]

    @property
    def columns(self) -> list[str]:
        out: list[str] = []
        for s in self.specs:
            out.extend(s.columns)
        return out

    def column_index(self, names: list[str]) -> np.ndarray:
        """Indices of the named descriptors' columns, in the order given."""
        return np.array([j for n in names
                         for j in range(self._slices[n].start,
                                        self._slices[n].stop)], dtype=np.intp)

    def passthrough_mask(self) -> np.ndarray:
        """True for columns the standardizer must leave untouched."""
        mask = np.zeros(self.dim, dtype=bool)
        for s in self.specs:
            if s.kind == "onehot":
                mask[self._slices[s.name]] = True
        return mask

    def subset(self, names: list[str]) -> "FeatureSchema":
        known = set(self.names)
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown descriptors: {unknown}")
        keep = set(names)
        return FeatureSchema([s for s in self.specs if s.name in keep])

    def encode(self, raw: dict) -> np.ndarray:
        return np.array(self.encode_row(raw))

    def encode_row(self, raw: dict) -> list[float]:
        """``encode`` as a list of Python floats, the row the
        standardizer reads."""
        x = [0.0] * self.dim
        for kind, name, source, at, period, offset, index in self._plan:
            v = raw.get(source)
            if kind == "onehot":
                if v is None:
                    continue
                try:
                    x[at + index[v]] = 1.0
                except (KeyError, TypeError):
                    raise DataError(
                        f"unknown category {v!r} for descriptor {name}"
                    ) from None
                continue
            if v is None or (isinstance(v, float) and math.isnan(v)):
                x[at] = math.nan
                if kind == "cyclic":
                    x[at + 1] = math.nan
                continue
            v = float(v)
            if kind == "numeric":
                x[at] = v
            else:
                phase = 2.0 * math.pi * (v - offset) / period
                x[at] = math.sin(phase)
                x[at + 1] = math.cos(phase)
        return x


def default_schema() -> FeatureSchema:
    """Every descriptor the pipeline can derive from one day of context."""
    n = FeatureSpec
    return FeatureSchema([
        n("day_of_month", "numeric", "day_of_month"),
        n("day_of_month_cyc", "cyclic", "day_of_month", period=31.0, offset=1.0),
        n("day_of_week", "numeric", "day_of_week"),
        n("day_of_week_cyc", "cyclic", "day_of_week", period=7.0),
        n("is_workday", "numeric", "is_workday"),
        n("prev_start_hour", "numeric", "prev_start_hour"),
        n("prev_start_hour_cyc", "cyclic", "prev_start_hour", period=24.0),
        n("prev_start_minute", "numeric", "prev_start_minute"),
        n("prev_start_minute_cyc", "cyclic", "prev_start_minute", period=60.0),
        n("prev_start_part_of_day", "onehot", "prev_start_part_of_day",
          categories=PART_OF_DAY_CATEGORIES),
        n("prev_end_hours", "numeric", "prev_end_hours"),
        n("prev_end_hours_cyc", "cyclic", "prev_end_hours", period=24.0),
        n("prev_distance_km", "numeric", "prev_distance_km"),
        n("charge_start_hours", "numeric", "charge_start_hours"),
        n("charge_start_hours_cyc", "cyclic", "charge_start_hours", period=24.0),
        n("charge_soc_initial", "numeric", "charge_soc_initial"),
        *[n(f"prev_{s}", "numeric", f"prev_{s}") for s in DRIVE_SIGNALS],
        n("target_hist_avg", "numeric", "target_hist_avg"),
        n("target_run_avg", "numeric", "target_run_avg"),
    ])


# -- input rules every learner shares ------------------------------------


def check_features(x, n_features: int) -> np.ndarray:
    """``x`` as a vector of ``n_features`` finite floats."""
    x = np.asarray(x, dtype=float)
    if x.shape != (n_features,):
        raise ValueError(
            f"expected {n_features} features, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ValueError("features must be finite")
    return x


def check_target(y) -> float:
    """``y`` as a finite float."""
    y = float(y)
    if not math.isfinite(y):
        raise ValueError(f"target must be finite, got {y!r}")
    return y


def check_count(name: str, value) -> int:
    """``value`` as an int for a count-like hyperparameter.  A bool or a
    number with a fractional part is rejected, not truncated."""
    if isinstance(value, (bool, np.bool_)) or not (
            isinstance(value, (int, np.integer))
            or isinstance(value, (float, np.floating))
            and float(value).is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def check_float(name: str, value) -> float:
    """``value`` as a float for a real-valued hyperparameter.  A bool is
    rejected, not read as 0.0 or 1.0."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


class RunningStats:
    """Welford running mean and sample standard deviation of a scalar."""

    __slots__ = ("count", "mean", "m2")

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self.m2 = 0.0

    def update(self, v: float) -> None:
        self.count += 1
        delta = v - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (v - self.mean)

    @property
    def std(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(max(self.m2 / (self.count - 1), 0.0))


class OnlineStandardizer:
    """Per-column running standardization with transform-then-update order.

    Columns flagged in ``passthrough`` are returned unchanged.  For the
    rest, the output is (x - mean) / std using statistics accumulated
    from previous calls only; columns with fewer than two prior finite
    observations, a degenerate spread, or a non-finite input produce 0.
    Standardized values are clipped to [-8, 8]: with only a handful of
    observations the running std can be far too small, and an unclipped
    z in the hundreds hands gradient learners a step they never recover
    from.
    """

    def __init__(self, dim: int, passthrough: np.ndarray | None = None):
        self.dim = dim
        passthrough = ([False] * dim if passthrough is None
                       else np.asarray(passthrough, dtype=bool).tolist())
        if len(passthrough) != dim:
            raise ValueError(
                f"expected {dim} passthrough flags, got {len(passthrough)}")
        # one RunningStats per scaled column, None for a passthrough one
        self._stats = [None if p else RunningStats() for p in passthrough]

    @property
    def count(self) -> np.ndarray:
        """Finite values each column's statistics hold (0 if passthrough)."""
        return np.array([0.0 if s is None else s.count for s in self._stats])

    def transform_update(self, x) -> np.ndarray:
        """Standardize one row, then fold it into the statistics.  ``x`` is
        a vector of ``dim`` values, or a list of ``dim`` Python floats such
        as ``FeatureSchema.encode_row`` builds, which is read as it is."""
        if type(x) is list:
            if len(x) != self.dim:
                raise ValueError(
                    f"expected vector of length {self.dim}, got {len(x)}")
        else:
            x = np.asarray(x, dtype=float)
            if x.shape != (self.dim,):
                raise ValueError(f"expected vector of length {self.dim}, got {x.shape}")
            x = x.tolist()
        z = [0.0] * self.dim
        for j, (v, stats) in enumerate(zip(x, self._stats)):
            if not math.isfinite(v):
                continue
            if stats is None:
                z[j] = v
                continue
            std = stats.std
            if std > 1e-9:
                # clipped as np.clip does it: a NaN stays NaN
                zj = (v - stats.mean) / std
                z[j] = 8.0 if zj > 8.0 else -8.0 if zj < -8.0 else zj
            stats.update(v)
        return np.array(z)


@dataclass
class FeaturePipeline:
    """Stateful per-vehicle, per-target encoder.

    ``transform`` injects the running target averages into the raw
    mapping, encodes, and standardizes.  ``update_target`` must be called
    once per day after the true target is revealed; until then the
    averages reflect only past days.  ``target_stats`` is the running
    mean and std of every target revealed so far: the ``target_hist_avg``
    feature and the evaluation's abstention fallback both read it.  A
    target that is not finite raises ``ValueError`` before either changes.
    """

    schema: FeatureSchema
    _std: OnlineStandardizer = field(init=False)
    target_stats: RunningStats = field(init=False)
    _recent: deque = field(init=False)

    def __post_init__(self):
        self._std = OnlineStandardizer(self.schema.dim,
                                       self.schema.passthrough_mask())
        self.target_stats = RunningStats()
        self._recent = deque(maxlen=RUN_AVG_WINDOW)

    def with_target_averages(self, raw: dict) -> dict:
        """Copy of ``raw`` with the mean of every past target and of the
        last ``RUN_AVG_WINDOW`` targets filled in; both are None before
        the first target is known."""
        raw = dict(raw)
        if self.target_stats.count > 0:
            raw["target_hist_avg"] = self.target_stats.mean
            raw["target_run_avg"] = sum(self._recent) / len(self._recent)
        else:
            raw["target_hist_avg"] = None
            raw["target_run_avg"] = None
        return raw

    def transform(self, raw: dict) -> np.ndarray:
        return self._std.transform_update(
            self.schema.encode_row(self.with_target_averages(raw)))

    def update_target(self, y: float) -> None:
        self.remember_target(y)

    def remember_target(self, y: float) -> None:
        """What ``update_target`` does, for batch encoders outside the
        predict-then-learn loop: ``update_target`` then marks the end of
        exactly one prequential step, which step timers count on."""
        y = check_target(y)
        self.target_stats.update(y)
        self._recent.append(y)
