"""drivecast benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload study --seed 0 --seconds 20 --trace 0

Workloads: ``study`` (the staged CLI on a pinned small config, run once)
and ``morning_light`` and ``morning_forest`` (day-major serving loops,
repeated at least twice and until about ``--seconds`` of loop time); see
``workloads.py``.  Every run checks its outputs.  With ``--trace 0`` it
reports the end-to-end metrics, with times on the reference scale of
``speed.py``; with ``--trace 1`` it wraps the package's public callables,
keeps one span per call in memory, writes the spans to ``perfbench/out/``
and reports the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  When a correctness check fails it names the check on
standard error, reports no metrics and exits with code 1.

The package is imported from ``src/`` of the checkout this file sits in.
"""

from __future__ import annotations

import os
import sys
import time

# one BLAS thread; must be set before numpy is first imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("study", "morning_light", "morning_forest")
# --data-seed makes the fleet and seeds every model, and is the study's CLI
# seed.  It is pinned, so a run's work and quality figures do not depend on
# which vehicles and model draws a seed happens to give.  --seed orders each
# morning's vehicles in the serving loops.  Confirm a claimed gain on the
# held-out data seed too.
DEFAULT_SEED = 0
DATA_SEED = 0
HELD_OUT_DATA_SEED = 1
SETUP_REPEATS = 5

if not (SRC / "drivecast" / "__init__.py").is_file():
    print(f"run.py: no drivecast package under {SRC}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import drivecast  # noqa: E402
import layers  # noqa: E402
import workloads as wl  # noqa: E402
from speed import Speedometer  # noqa: E402
from tracer import Tracer  # noqa: E402

END_TO_END = [
    # name, unit, better
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("obs_per_s", "1/s", "higher"),
    ("predict_p50_us", "us", "lower"),
    ("predict_p99_us", "us", "lower"),
    ("learn_p50_us", "us", "lower"),
    ("learn_p99_us", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("state_kib", "KiB", "lower"),
    ("mae_departure_h", "h", "lower"),
    ("mae_distance_km", "km", "lower"),
    ("picp_gap", "ratio", "lower"),
    ("abstain_ratio", "ratio", "lower"),
]


def machine_facts() -> dict:
    try:
        import numba  # noqa: F401
        numba_ok = True
    except ImportError:
        numba_ok = False
    threads = None
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    threads = int(line.split()[1])
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba_importable": numba_ok,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "process_threads": threads,
        "default_seeds": {"seed": DEFAULT_SEED, "data_seed": DATA_SEED},
        "held_out_data_seed": HELD_OUT_DATA_SEED,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- set-up --------------------------------------------------------------


def probe_setup(args) -> None:
    """What a fresh process does before its first timed operation."""
    if args.workload == "study":
        from drivecast import cli  # noqa: F401  (imports every stage)
        from drivecast.config import load_config
        load_config(None, {**wl.STUDY_CONFIG, "seed": args.data_seed})
    else:
        wl.make_streams(wl.MORNING[args.workload], args.data_seed)


def setup_seconds(args) -> float:
    """Median, over fresh processes that import and set up, of their wall
    time on the reference scale (calibrated just before each)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--data-seed", str(args.data_seed), "--probe-setup"]
    times = []
    for _ in range(SETUP_REPEATS):
        speed = Speedometer()
        for _ in range(5):
            speed.sample(0)
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        times.append((time.perf_counter() - t0) * speed.scale())
    return statistics.median(times)


# -- workloads -------------------------------------------------------------


def another_pass(walls: list[float], seconds: float, at_least: int) -> bool:
    """Repeat at least ``at_least`` times, then while the next repeat would
    end no later than half a repeat after ``seconds`` of measured time."""
    if len(walls) < at_least:
        return True
    return sum(walls) + statistics.mean(walls) / 2 < seconds


@dataclass
class Repeat:
    """One repeat's wall time and per-step times, on the reference scale."""
    wall_s: float
    predict_us: np.ndarray
    learn_us: np.ndarray

    @classmethod
    def scaled(cls, start_ns, end_ns, predict_ns, learn_ns,
               speed: Speedometer):
        return cls(speed.scaled_seconds(start_ns, end_ns),
                   np.asarray(predict_ns) * speed.step_scale(
                       len(predict_ns)) / 1e3,
                   np.asarray(learn_ns) * speed.step_scale(len(learn_ns))
                   / 1e3)


def step_latencies(spans) -> tuple[list[int], list[int]]:
    """Per-step predict (transform + predict_interval) and learn (learn_one +
    update_target) times from the spans of the step timer."""
    predict, learn = [], []
    names = spans.names
    pending = 0
    for nid, d in zip(spans.name_ids.tolist(), spans.durations.tolist()):
        name = names[nid]
        model_call = name.startswith("models.")
        if name == "features.transform" or (model_call
                                            and name.endswith(".learn")):
            pending = d
        elif model_call and name.endswith(".predict"):
            predict.append(pending + d)
        elif name == "features.update_target":
            learn.append(pending + d)
    return predict, learn


def adwin_windows(tracer: Tracer) -> list:
    return list(tracer.receivers.get("streaming.adwin_update", ()))


def sample_speed_every(speed: Speedometer, every: int):
    """Sample ``speed`` after every ``every``-th ``update_target`` call, the
    end of a step, outermost; returns the undo."""
    from drivecast.features import FeaturePipeline
    inner = FeaturePipeline.__dict__["update_target"]
    steps = 0

    def update_target(self, y):
        nonlocal steps
        inner(self, y)
        steps += 1
        if steps % every == 0:
            speed.sample(steps)

    FeaturePipeline.update_target = update_target
    return lambda: setattr(FeaturePipeline, "update_target", inner)


def run_study(args, tracer: Tracer | None) -> tuple[dict, wl.Outcome, dict]:
    """The staged CLI, with every model it creates kept for its size.

    Untraced, spans on the four calls of a step only (``STEP_SPANS``) give
    the per-step latencies."""
    from drivecast import evaluation

    out_dir = OUT / f"study-{args.seed}-{os.getpid()}"
    setup = None if tracer is not None else setup_seconds(args)
    made = []
    original_make = evaluation.make_model

    def keep(*a, **kw):
        made.append(original_make(*a, **kw))
        return made[-1]

    timer = tracer if tracer is not None else Tracer()
    info = {"missing": layers.install(
        timer, drivecast, None if tracer is not None else layers.STEP_SPANS)}
    speed = Speedometer()
    restore = sample_speed_every(speed, 64)
    evaluation.make_model = keep
    try:
        span_ns, first = wl.run_study(out_dir, args.data_seed)
        if first.violations:
            return {}, first, info
        wall = (span_ns[1] - span_ns[0]) / 1e9
        info["counted_end"] = timer.n_spans
        info["counters"], info["unread"] = layers.model_counters(
            [(m.kind, m) for m in made], adwin_windows(timer))
        info["sessions"] = wl.study_sessions(out_dir)
    finally:
        evaluation.make_model = original_make
        restore()
        timer.uninstall()
        shutil.rmtree(out_dir, ignore_errors=True)
    made.clear()
    predict, learn = step_latencies(timer.spans())
    info.update(passes=1, walls_s=[wall], steps=len(learn),
                round_ns=float(np.median(speed.ns)))
    repeats = [Repeat.scaled(*span_ns, predict, learn, speed)]
    return timings(tracer, setup, repeats, info), first, info


def run_morning(args, tracer: Tracer | None) -> tuple[dict, wl.Outcome, dict]:
    """Repeat the serving loop, at least twice, over the same streams."""
    spec = wl.MORNING[args.workload]
    setup = None if tracer is not None else setup_seconds(args)
    info = {}
    if tracer is not None:
        info["missing"] = layers.install(tracer, drivecast)
    streams, info["sessions"] = wl.make_streams(spec, args.data_seed)
    walls, repeats, rounds = [], [], []
    first = first_loop = loop = None
    try:
        while another_pass(walls, args.seconds, 2):
            loop = None  # let the last repeat's models go first
            loop = wl.MorningLoop(streams, spec.kinds, args.data_seed,
                                  args.seed)
            speed = Speedometer()
            t0 = time.perf_counter_ns()
            outcome = loop.run(speed)
            t1 = time.perf_counter_ns()
            walls.append((t1 - t0) / 1e9)
            repeats.append(Repeat.scaled(t0, t1, loop.predict_ns,
                                         loop.learn_ns, speed))
            rounds.append(float(np.median(speed.ns)))
            if first_loop is None:
                first, first_loop = outcome, loop
                traced = tracer is not None
                info["counted_end"] = tracer.n_spans if traced else 0
                info["counters"], info["unread"] = layers.model_counters(
                    loop.models(), adwin_windows(tracer) if traced else [])
                loop.release_models()
            if outcome.violations:
                break
    finally:
        if tracer is not None:
            tracer.uninstall()
    if not first.violations:
        first.violations += wl.check_against_reference(
            first_loop, streams, spec)
    info.update(passes=len(walls), walls_s=walls, round_ns=rounds,
                steps=len(first_loop.learn_ns))
    return timings(tracer, setup, repeats, info), first, info


def pair_best(repeats: list[Repeat]) -> tuple[np.ndarray, np.ndarray]:
    """Per-step times for the percentiles: each step's faster time in every
    pair of consecutive repeats, which run the same steps in the same
    order; a repeat without a partner is left out.  Noise from other
    processes only ever adds time, and a brief burst rarely hits the same
    step twice.  A single repeat (the study) is taken as it is."""
    if len(repeats) == 1:
        return repeats[0].predict_us, repeats[0].learn_us
    pairs = list(zip(repeats[0::2], repeats[1::2]))
    return (np.concatenate([np.minimum(a.predict_us, b.predict_us)
                            for a, b in pairs]),
            np.concatenate([np.minimum(a.learn_us, b.learn_us)
                            for a, b in pairs]))


def timings(tracer, setup, repeats: list[Repeat], info) -> dict:
    """Time metrics pooled over the repeats; traced, only the repeats' own
    throughput, for the tracing overhead."""
    wall = sum(r.wall_s for r in repeats)
    steps = sum(len(r.learn_us) for r in repeats)
    if tracer is not None:
        return {"trace.wall_s": wall, "trace.obs_per_s": steps / wall}
    predict, learn = pair_best(repeats)
    return {
        "setup_s": setup,
        "wall_s": statistics.median(r.wall_s for r in repeats),
        "obs_per_s": steps / wall,
        "predict_p50_us": float(np.percentile(predict, 50)),
        "predict_p99_us": float(np.percentile(predict, 99)),
        "learn_p50_us": float(np.percentile(learn, 50)),
        "learn_p99_us": float(np.percentile(learn, 99)),
        "state_kib": info["counters"]["state_kib"],
    }


def per_layer(args, tracer: Tracer, head: dict, outcome: wl.Outcome,
              info: dict) -> dict:
    spans = tracer.spans()
    OUT.mkdir(parents=True, exist_ok=True)
    spans.save(OUT / f"spans-{args.workload}-{args.seed}.npz")
    metrics = layers.span_metrics(spans, info["counted_end"])
    metrics.update({k: v for k, v in info["counters"].items()
                    if k != "state_kib"})
    metrics["synthdata.sessions"] = info["sessions"]
    for kind in layers.KINDS:
        metrics[f"models.{kind}.abstained"] = outcome.abstained.get(kind, 0)
        metrics[f"models.{kind}.diverged"] = outcome.diverged.get(kind, 0)
    metrics.update(layers.fixed_kernel_us(drivecast._kernels))
    metrics.update(head)
    unmeasured = dict(info["unread"])
    for span in info["missing"]:
        for name in metrics:
            if name.startswith(span):
                unmeasured[name] = f"{span}: the package has no such callable"
    for name, why in sorted(unmeasured.items()):
        metrics[name] = 0.0
        print(f"not measured: {name} ({why})", file=sys.stderr)
    info["unmeasured"] = unmeasured
    return metrics


def emit(correct: bool, outcome: wl.Outcome, metrics: dict, units: dict
         ) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--data-seed", type=int, default=DATA_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if wl.package_path() != (SRC / "drivecast").resolve():
        print(f"run.py: imported drivecast from {wl.package_path()}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        probe_setup(args)
        return 0

    tracer = Tracer() if args.trace else None
    runner = run_study if args.workload == "study" else run_morning
    head, outcome, info = runner(args, tracer)
    if outcome.violations:
        for v in outcome.violations[:20]:
            print(f"correctness check failed: {v}", file=sys.stderr)
        emit(False, outcome, {}, {})
        return 1

    if tracer is not None:
        metrics = per_layer(args, tracer, head, outcome, info)
        spec = layers.metric_spec()
    else:
        metrics = {**head, **wl.quality(outcome), "peak_rss_mb": peak_rss_mb()}
        metrics = {name: metrics[name] for name, _, _ in END_TO_END}
        spec = END_TO_END
    units = {name: unit for name, unit, _ in spec}
    result = {"workload": args.workload, "seed": args.seed,
              "data_seed": args.data_seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts(),
              "run": {k: v for k, v in info.items()
                      if k not in ("models", "counters")},
              "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1))
    for name, unit, better in spec:
        print(f"{name:44s} {metrics[name]:>14.6g} {unit:6s} {better}")
    emit(True, outcome, metrics, units)
    return 0


if __name__ == "__main__":
    sys.exit(main())
