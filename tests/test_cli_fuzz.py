"""Fuzzed CLI inputs: every outcome is a documented exit code.

Corrupt session and example CSVs, corrupt selection, tuning and results
JSON, and random synth settings must end in exit 0, 2, 3 or 4; a
failure prints one stderr line and no traceback."""

import contextlib
import io
import json
import shutil
import tempfile
import traceback
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drivecast.cli import main

FUZZ = settings(max_examples=25, derandomize=True, deadline=None)

TINY = {
    "seed": 3,
    "synth": {"n_regular": 3, "n_irregular": 1, "n_days": 40},
    "select": {"n_select": 3, "max_vehicles": 2},
}

# field values a damaged or hand-edited file plausibly holds
JUNK_FIELDS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "-1", "0", "1e309",
                     "x", "2021-02-30", "2021-02-30T07:00:00",
                     "2021-01-01T25:00:00", "drive", "charge", "dawn",
                     "morning", '"', ",", "\x00"]),
    st.text(max_size=4))

# one edit of a CSV's lines: a field replaced, a line cut short, a line
# dropped or a line doubled
EDITS = st.tuples(
    st.sampled_from(["replace", "truncate", "drop", "double"]),
    st.integers(0, 10_000), st.integers(0, 30), JUNK_FIELDS)

# one edit of a JSON artifact: the value at the end of a random path
# replaced by junk or deleted, or the text cut short
JSON_JUNK = st.sampled_from([None, True, 0, -1, 2.5, float("nan"), "", "x",
                             "\n", [], [1], {}, {"x": 1}])
JSON_EDITS = st.tuples(st.sampled_from(["replace", "delete", "cut"]),
                       st.lists(st.integers(0, 10_000), max_size=6),
                       JSON_JUNK)

# values a config setting plausibly holds: mostly small numbers, some
# NaN, Infinity, huge floats, booleans, nulls and strings
NEAR_VALID = st.one_of(st.integers(-1, 8), st.floats(-2.0, 2.0))
JUNK_VALUES = st.one_of(
    NEAR_VALID, NEAR_VALID, NEAR_VALID, st.none(), st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), -float("inf")]),
    st.text(max_size=3))

DRIFT = {"day": 5, "duration": 10, "departure_shift": 1.0,
         "distance_shift": -3.0, "fraction": 1.0}

# up to two synth settings, or drift fields, set to junk
SYNTH_EDITS = st.lists(st.tuples(
    st.sampled_from(["n_regular", "n_irregular", "n_days", "drift",
                     *(f"drift.{key}" for key in DRIFT)]),
    JUNK_VALUES), max_size=2)


def run_cli(stage: str, cfg: dict, out: Path) -> tuple[int, str]:
    """Run one stage in process; the exit code and what went to stderr,
    with the traceback of an escaped exception as the interpreter would
    print it."""
    path = out / "config.json"
    path.write_text(json.dumps({**cfg, "out_dir": str(out / "out")}))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([stage, "--config", str(path)])
        except Exception:
            traceback.print_exc()
            code = 1
    return code, err.getvalue()


def assert_documented(code: int, err: str) -> None:
    assert code in (0, 2, 3, 4), err
    assert "Traceback" not in err, err
    if code != 0:
        assert len(err.strip().splitlines()) == 1, err


def corrupt(path: Path, edits) -> None:
    lines = path.read_text().splitlines()
    for op, row, col, junk in edits:
        if not lines:
            break
        i = row % len(lines)
        if op == "replace":
            fields = lines[i].split(",")
            fields[col % len(fields)] = junk
            lines[i] = ",".join(fields)
        elif op == "truncate":
            lines[i] = ",".join(lines[i].split(",")[:col])
        elif op == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    path.write_text("\n".join(lines) + "\n")


def corrupt_json(path: Path, edits) -> None:
    for op, steps, junk in edits:
        text = path.read_text()
        if op == "cut":
            path.write_text(text[:sum(steps) % (len(text) + 1)])
            continue
        try:
            box = [json.loads(text)]
        except ValueError:
            continue  # an earlier cut left no JSON to edit
        parent, key = box, 0
        for step in steps:
            node = parent[key]
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = list(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, keys[step % len(keys)]
        if op == "replace":
            parent[key] = junk
        else:
            del parent[key]
        path.write_text(json.dumps(box[0]) if box else "")


@pytest.fixture(scope="module")
def tiny_fleet(tmp_path_factory):
    """Every stage's outputs on a four-vehicle, 40-day fleet."""
    root = tmp_path_factory.mktemp("fuzz")
    for stage in ("synth", "preprocess", "select", "tune", "evaluate",
                  "report"):
        assert run_cli(stage, TINY, root) == (0, "")
    return root / "out"


def stage_on_corrupt(tiny_fleet, stage: str, rel: str, edits,
                     corrupt_fn=corrupt):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        shutil.copytree(tiny_fleet, tmp / "out")
        corrupt_fn(tmp / "out" / rel, edits)
        return run_cli(stage, TINY, tmp)


@FUZZ
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
def test_corrupt_sessions_preprocess(tiny_fleet, edits):
    assert_documented(*stage_on_corrupt(
        tiny_fleet, "preprocess", "synth/sessions.csv", edits))


@FUZZ
@given(edits=st.lists(EDITS, min_size=1, max_size=3))
def test_corrupt_examples_select(tiny_fleet, edits):
    assert_documented(*stage_on_corrupt(
        tiny_fleet, "select", "preprocess/examples.csv", edits))


@pytest.mark.parametrize("stage, rel", [
    ("tune", "select/selection.json"),
    ("evaluate", "select/selection.json"),
    ("evaluate", "tune/tuned.json"),
    ("report", "evaluate/results.json"),
])
@FUZZ
@given(edits=st.lists(JSON_EDITS, min_size=1, max_size=3))
def test_corrupt_json_artifacts(tiny_fleet, stage, rel, edits):
    assert_documented(*stage_on_corrupt(tiny_fleet, stage, rel, edits,
                                        corrupt_json))


@FUZZ
@given(edits=SYNTH_EDITS)
@example(edits=[("drift.departure_shift", float("nan"))])
def test_synth_overrides(edits):
    synth = {**TINY["synth"], "drift": dict(DRIFT)}
    for key, value in edits:
        head, _, field = key.partition(".")
        if not field:
            synth[head] = value
        elif isinstance(synth["drift"], dict):
            synth["drift"][field] = value
    with tempfile.TemporaryDirectory() as tmp:
        assert_documented(*run_cli("synth", {**TINY, "synth": synth},
                                   Path(tmp)))
