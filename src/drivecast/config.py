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
from .features import check_setting
from .models import MODEL_KINDS, make_model
from .synthdata import check_drift

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
        if isinstance(base[key], dict) and key not in ("drift", "grids"):
            if not isinstance(value, dict):
                raise ConfigError(here, "expected an object")
            out[key] = _merge(base[key], value, here)
        else:
            out[key] = copy.deepcopy(value)
    return out


def _need(cfg: dict, field: str, kind: type, low=None, high=None,
          **bounds):
    """The setting at dotted ``field`` through ``check_setting``, written
    back as checked: ``{"seed": 2.0}`` loads as 2.  An absent or refused
    setting is a ConfigError on ``field``."""
    *path, key = field.split(".")
    node = cfg
    for p in path:
        node = node[p]
    if key not in node:
        raise ConfigError(field, "is required")
    try:
        node[key] = check_setting(field, node[key], kind, low, high,
                                  **bounds)
    except ValueError as e:
        raise ConfigError(field, str(e).removeprefix(f"{field} ")) from None
    return node[key]


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


def _no_repeats(field: str, values: list) -> None:
    """ConfigError naming the first entry of ``values`` that repeats an
    earlier one: it would be evaluated, or its setting tried, twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(field, f"lists {value!r} twice")


def validate_config(cfg: dict) -> dict:
    """Type- and range-check every option; returns the config, each
    setting as ``check_setting`` returns it (an integral float as an int
    where an int belongs, an int as a float where a float belongs).

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
    if cfg["synth"]["drift"] is not None:
        try:
            cfg["synth"]["drift"] = check_drift(
                cfg["synth"]["drift"], cfg["synth"]["n_regular"],
                cfg["synth"]["n_days"], "synth.drift")
        except ValueError as e:
            field, _, message = str(e).partition(" ")
            raise ConfigError(field, message) from None

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
            _no_repeats(field, values)

    models = _need(cfg, "evaluate.models", list)
    for m in models:
        if m not in MODEL_KINDS:
            raise ConfigError("evaluate.models",
                              f"unknown model {m!r}; know {list(MODEL_KINDS)}")
    _no_repeats("evaluate.models", models)
    if not models:
        raise ConfigError("evaluate.models", "need at least one model")
    targets = _need(cfg, "evaluate.targets", list)
    for t in targets:
        if t not in TARGETS:
            raise ConfigError("evaluate.targets",
                              f"unknown target {t!r}; know {list(TARGETS)}")
    _no_repeats("evaluate.targets", targets)
    if not targets:
        raise ConfigError("evaluate.targets", "need at least one target")
    _need(cfg, "evaluate.warmup", int, low=0)
    _need(cfg, "evaluate.confidence", float, 0.0, 1.0, low_open=True,
          high_open=True)
    tol = _need(cfg, "evaluate.within_tol", dict)
    for t in tol:
        if t not in TARGETS:
            raise ConfigError(f"evaluate.within_tol.{t}", "unknown option")
        _need(cfg, f"evaluate.within_tol.{t}", float, 0.0, low_open=True)
    for t in targets:
        if t not in tol:
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
