"""Tests of the benchmark's own arithmetic and gate.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from tracer import Tracer  # noqa: E402


class StepClock:
    """Advances by one unit each time it is read."""

    def __init__(self):
        self.t = 0

    def __call__(self):
        self.t += 1
        return self.t


def test_self_time_is_duration_minus_direct_children():
    tracer = Tracer(clock=StepClock())
    leaf = tracer.wrap("leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    mid = tracer.wrap("mid", middle)
    top = tracer.wrap("top", lambda: (mid(), leaf()))
    top()
    spans = tracer.spans()
    names = [spans.names[i] for i in spans.name_ids]
    assert names == ["top", "mid", "leaf", "leaf", "leaf"]
    assert spans.parents.tolist() == [-1, 0, 1, 1, 0]
    # each span reads the clock twice; nested reads advance it
    assert spans.durations.tolist() == [9, 5, 1, 1, 1]
    assert spans.self_times().tolist() == [9 - 5 - 1, 5 - 1 - 1, 1, 1, 1]
    assert spans.has_ancestor(3, "top") and not spans.has_ancestor(0, "mid")


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=StepClock())

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    spans = tracer.spans()
    assert spans.durations.tolist() == [1]


def test_function_is_wrapped_wherever_it_is_looked_up():
    from drivecast import cli, data_model
    original = data_model.read_daily_examples_csv
    stage = cli.STAGE_FN["synth"]
    tracer = Tracer()
    tracer.install_function("data_model.read_daily_examples_csv", data_model,
                            "read_daily_examples_csv")
    tracer.install_function("cli.stage_synth", cli, "stage_synth")
    try:
        assert cli.read_daily_examples_csv is data_model.read_daily_examples_csv
        assert cli.read_daily_examples_csv is not original
        assert cli.STAGE_FN["synth"] is cli.stage_synth is not stage
    finally:
        tracer.uninstall()
    assert cli.read_daily_examples_csv is original
    assert data_model.read_daily_examples_csv is original
    assert cli.STAGE_FN["synth"] is stage


def test_check_interval():
    assert wl.check_interval(1.0, 0.5, 2.0)
    assert wl.check_interval(1.0, 1.0, 1.0)
    assert not wl.check_interval(1.0, 2.0, 0.5)
    assert not wl.check_interval(1.0, 1.5, 2.0)
    assert not wl.check_interval(float("nan"), 0.0, 2.0)
    assert not wl.check_interval(1.0, 0.0, float("inf"))


SMALL = wl.MorningSpec(1, 0, 60, ("mean",), n_checked=1)


def test_gate_passes_a_sound_loop():
    streams, _ = wl.make_streams(SMALL, 3)
    loop = wl.MorningLoop(streams, SMALL.kinds, 3, 5)
    out = loop.run()
    assert out.failed == 0 and not out.violations
    assert out.attempted == 2 * len(next(iter(streams.values())))
    assert wl.check_against_reference(loop, streams, SMALL) == []


def test_gate_rejects_an_inverted_interval(monkeypatch):
    from drivecast import MeanBaseline, PredictionInterval
    honest = MeanBaseline.predict_interval

    def inverted(self, x):
        pi = honest(self, x)
        return PredictionInterval(pi.point, pi.upper + 1.0, pi.lower - 1.0,
                                  pi.sigma)

    monkeypatch.setattr(MeanBaseline, "predict_interval", inverted)
    streams, _ = wl.make_streams(SMALL, 3)
    out = wl.MorningLoop(streams, SMALL.kinds, 3, 5).run()
    assert out.failed > 0
    assert out.violations
    assert all(v.startswith("interval_finite_and_ordered")
               for v in out.violations)


def test_gate_rejects_records_that_differ_from_the_reference():
    streams, _ = wl.make_streams(SMALL, 3)
    loop = wl.MorningLoop(streams, SMALL.kinds, 3, 5)
    loop.run()
    stream = next(iter(loop.by_vehicle.values()))[0]
    rec = next(r for r in stream.records if not r.abstained)
    rec.point = np.nextafter(rec.point, np.inf)
    problems = wl.check_against_reference(loop, streams, SMALL)
    assert problems and problems[0].startswith("matches_progressive_validate")


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [
        name for name, _, _ in layers.metric_spec()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == layers.metric_spec()
    import run
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END


def test_speed_scale_uses_the_last_sample_before_each_step():
    from speed import REFERENCE_NS, Speedometer
    speed = Speedometer()
    speed.at.extend([0, 3])  # samples taken before steps 0 and 3
    speed.ns.extend([60_000, 120_000])
    assert speed.smoothed().tolist() == [60_000, 120_000]
    assert speed.step_scale(5).tolist() == (
        [REFERENCE_NS / 60_000] * 3 + [REFERENCE_NS / 120_000] * 2)
    assert speed.scale() == REFERENCE_NS / 90_000


def test_scaled_seconds_weights_each_stretch_by_its_sample():
    from speed import REFERENCE_NS, Speedometer
    speed = Speedometer()
    speed.at.extend([0, 3])
    speed.ns.extend([60_000, 120_000])
    speed.when.extend([1_000_000_000, 3_000_000_000])
    # 0..1 s and 1..3 s at the first sample's factor, 3..4 s at the second's
    want = (3 * REFERENCE_NS / 60_000 + 1 * REFERENCE_NS / 120_000)
    assert speed.scaled_seconds(0, 4_000_000_000) == pytest.approx(want)


def test_pair_best_takes_the_faster_of_each_pair_and_drops_the_odd_one():
    import run
    r = [run.Repeat(1.0, np.array([5.0, 1.0]), np.array([2.0, 2.0])),
         run.Repeat(1.0, np.array([3.0, 4.0]), np.array([1.0, 3.0])),
         run.Repeat(1.0, np.array([0.0, 0.0]), np.array([0.0, 0.0]))]
    predict, learn = run.pair_best(r)
    assert predict.tolist() == [3.0, 1.0]
    assert learn.tolist() == [1.0, 2.0]
    alone = run.pair_best(r[:1])
    assert alone[0].tolist() == [5.0, 1.0]
