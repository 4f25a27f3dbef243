"""Pipeline configuration: defaults, JSON loading, validation.

A config is a plain nested dict.  Users supply a JSON file overriding
any subset of the defaults; unknown keys are rejected loudly because a
typoed option silently falling back to its default is the worst failure
mode a long batch run can have.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math

from .evaluation import DEFAULT_WARMUP, DEFAULT_WITHIN_TOL, TARGETS
from .exceptions import ConfigError
from .models import MODEL_KINDS, make_model

DEFAULT_CONFIG: dict = {
    "seed": 0,
    "out_dir": "out",
    "synth": {
        "n_regular": 100,
        "n_irregular": 25,
        "n_days": 365,
        "drift": None,
    },
    "select": {
        "n_select": 100,
        "run_backward": False,
        "max_vehicles": 12,
    },
    "tune": {
        "max_vehicles": 8,
        "grids": {
            "qr": {"lr": [0.1, 0.3, 1.0]},
            "qknn": {"k": [10, 20, 40]},
        },
    },
    "evaluate": {
        "models": list(MODEL_KINDS),
        "targets": list(TARGETS),
        "warmup": DEFAULT_WARMUP,
        "confidence": 0.90,
        "within_tol": dict(DEFAULT_WITHIN_TOL),
    },
}


def _merge(base: dict, override: dict, path: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(here, "unknown option")
        if isinstance(base[key], dict) and key not in ("drift", "grids",
                                                       "within_tol"):
            if not isinstance(value, dict):
                raise ConfigError(here, "expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _need(cfg: dict, field: str, kinds, low=None, high=None):
    parts = field.split(".")
    node = cfg
    for p in parts:
        node = node[p]
    if isinstance(node, bool) and bool not in (
            kinds if isinstance(kinds, tuple) else (kinds,)):
        raise ConfigError(field, f"expected {kinds}, got a boolean")
    if not isinstance(node, kinds):
        raise ConfigError(field, f"expected {kinds}, got {type(node).__name__}")
    if low is not None and node < low:
        raise ConfigError(field, f"must be >= {low}, got {node}")
    if high is not None and node > high:
        raise ConfigError(field, f"must be <= {high}, got {node}")
    return node


def check_model_param(field: str, kind: str, param: str, value) -> None:
    """Raise ConfigError on ``field`` unless the ``kind`` constructor
    accepts ``param=value``.

    The constructor is the one authority on names and ranges; seed and
    confidence are set per run, so naming either is rejected too."""
    try:
        make_model(kind, 1, seed=0, confidence=0.90, **{param: value})
    except (TypeError, ValueError) as e:
        raise ConfigError(field, str(e)) from None


def _check_finite(node, field: str) -> None:
    """ConfigError naming the first NaN or infinite float under ``node``."""
    if isinstance(node, float) and not math.isfinite(node):
        raise ConfigError(field, f"must be a finite number, got {node}")
    if isinstance(node, dict):
        for key, value in node.items():
            _check_finite(value, f"{field}.{key}" if field else str(key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            _check_finite(value, f"{field}[{i}]")


def validate_config(cfg: dict) -> dict:
    """Type- and range-check every option; returns the config unchanged.

    No float anywhere in it may be NaN or infinite: Python's json reads
    NaN, Infinity and numbers too large for a double, and no setting
    means anything by them."""
    _check_finite(cfg, "")
    _need(cfg, "seed", int, low=0)
    _need(cfg, "out_dir", str)
    _need(cfg, "synth.n_regular", int, low=0)
    _need(cfg, "synth.n_irregular", int, low=0)
    if cfg["synth"]["n_regular"] + cfg["synth"]["n_irregular"] < 1:
        raise ConfigError("synth", "fleet must contain at least one vehicle")
    _need(cfg, "synth.n_days", int, low=2)
    drift = cfg["synth"]["drift"]
    if drift is not None:
        if not isinstance(drift, dict):
            raise ConfigError("synth.drift", "expected an object or null")
        extra = set(drift) - {"day", "duration", "departure_shift",
                              "distance_shift", "fraction"}
        if extra:
            raise ConfigError("synth.drift", f"unknown keys {sorted(extra)}")
        for k, v in drift.items():
            if isinstance(v, bool):
                raise ConfigError(f"synth.drift.{k}",
                                  "expected a number, got a boolean")
        if not isinstance(drift.get("day"), int) or drift["day"] < 0:
            raise ConfigError("synth.drift.day", "need a day index >= 0")
        duration = drift.get("duration")
        if duration is not None and (
                not isinstance(duration, (int, float)) or duration <= 0):
            raise ConfigError("synth.drift.duration",
                              "must be a positive number of days or null")
        frac = drift.get("fraction", 0.0)
        if not isinstance(frac, (int, float)) or not 0.0 <= frac <= 1.0:
            raise ConfigError("synth.drift.fraction", "must lie in [0, 1]")
        for k in ("departure_shift", "distance_shift"):
            if not isinstance(drift.get(k, 0.0), (int, float)):
                raise ConfigError(f"synth.drift.{k}", "must be a number")

    _need(cfg, "select.n_select", int, low=1)
    _need(cfg, "select.run_backward", bool)
    _need(cfg, "select.max_vehicles", int, low=1)

    _need(cfg, "tune.max_vehicles", int, low=1)
    grids = _need(cfg, "tune.grids", dict)
    for kind, grid in grids.items():
        if kind not in MODEL_KINDS:
            raise ConfigError(f"tune.grids.{kind}",
                              f"unknown model; know {list(MODEL_KINDS)}")
        if not isinstance(grid, dict):
            raise ConfigError(f"tune.grids.{kind}", "expected an object")
        for param, values in grid.items():
            field = f"tune.grids.{kind}.{param}"
            if not isinstance(values, list) or not values:
                raise ConfigError(field, "expected a non-empty list of values")
            for value in values:
                check_model_param(field, kind, param, value)

    models = _need(cfg, "evaluate.models", list)
    for m in models:
        if m not in MODEL_KINDS:
            raise ConfigError("evaluate.models",
                              f"unknown model {m!r}; know {list(MODEL_KINDS)}")
    if not models:
        raise ConfigError("evaluate.models", "need at least one model")
    targets = _need(cfg, "evaluate.targets", list)
    for t in targets:
        if t not in TARGETS:
            raise ConfigError("evaluate.targets",
                              f"unknown target {t!r}; know {list(TARGETS)}")
    if not targets:
        raise ConfigError("evaluate.targets", "need at least one target")
    _need(cfg, "evaluate.warmup", int, low=0)
    _need(cfg, "evaluate.confidence", (int, float))
    if not 0.0 < cfg["evaluate"]["confidence"] < 1.0:
        raise ConfigError("evaluate.confidence", "must lie in (0, 1)")
    tol = _need(cfg, "evaluate.within_tol", dict)
    for t in targets:
        if t not in tol or not isinstance(tol[t], (int, float)) \
                or tol[t] <= 0:
            raise ConfigError(f"evaluate.within_tol.{t}",
                              "need a positive tolerance per target")
    return cfg


def load_config(path=None, overrides: dict | None = None) -> dict:
    """Defaults, overlaid with a JSON file and then explicit overrides."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                user = json.load(fh)
        except FileNotFoundError:
            raise ConfigError("config", f"file not found: {path}") from None
        except json.JSONDecodeError as e:
            raise ConfigError("config", f"invalid JSON: {e}") from None
        if not isinstance(user, dict):
            raise ConfigError("config", "top level must be an object")
        cfg = _merge(cfg, user, "")
    if overrides:
        cfg = _merge(cfg, overrides, "")
    return validate_config(cfg)


def config_digest(cfg: dict) -> str:
    """Stable fingerprint of a resolved config.

    The output directory is excluded: where artifacts land has no
    bearing on what they contain, and two runs into different
    directories should still fingerprint (and diff) identically."""
    trimmed = {k: v for k, v in cfg.items() if k != "out_dir"}
    blob = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
