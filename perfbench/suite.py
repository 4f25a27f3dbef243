"""Run every workload, untraced and traced, and summarize.

    python3 perfbench/suite.py [--seed 0] [--seconds 20]
    python3 perfbench/suite.py --spread morning_forest --seeds 1 2 3 4 5

Each run is a fresh ``run.py`` process, one at a time.  The default mode
runs each workload once untraced (end-to-end metrics) and twice traced
(per-layer metrics), requires the two traced runs to agree exactly on
every count, and reports the tracing overhead: traced against untraced
``obs_per_s``, and ``wall_s`` for the study.  ``--spread`` runs one
workload untraced once per seed and prints each metric's median and its
quartile spread as a share of the median.  Results go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("study", "morning_light", "morning_forest")
# counts and quality figures are deterministic; they must repeat exactly
EXACT_UNITS = {"count", "KiB", "ratio", "h", "km", "1/obs"}


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: "
                         f"exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()}


def exact_part(result: dict) -> dict[str, float]:
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in EXACT_UNITS}


def quartile_spread(xs: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) as ``statistics.quantiles`` gives them."""
    med = statistics.median(xs)
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return med, ((q3 - q1) / med if med else 0.0)


def spread(workload: str, seeds: list[int], seconds: float) -> dict:
    runs = [values(run(workload, s, seconds, 0)) for s in seeds]
    table = {}
    for name in runs[0]:
        med, spr = quartile_spread([r[name] for r in runs])
        table[name] = {"median": med, "spread": spr,
                       "values": [r[name] for r in runs]}
        print(f"{name:20s} median {med:14.6g}  spread {spr:7.2%}")
    return {"workload": workload, "seeds": seeds, "seconds": seconds,
            "metrics": table}


def suite(seed: int, seconds: float) -> dict:
    report: dict = {"seed": seed, "seconds": seconds, "workloads": {}}
    for w in WORKLOADS:
        plain = run(w, seed, seconds, 0)
        report.setdefault("machine", json.loads(
            (OUT / f"{w}-{seed}-trace0.json").read_text())["machine"])
        traced = [run(w, seed, seconds, 1) for _ in range(2)]
        a, b = (exact_part(t) for t in traced)
        differ = sorted(k for k in a if a[k] != b.get(k))
        e2e, layer = values(plain), values(traced[0])
        overhead = {
            "obs_per_s_untraced": e2e["obs_per_s"],
            "obs_per_s_traced": layer["trace.obs_per_s"],
            "slowdown": e2e["obs_per_s"] / layer["trace.obs_per_s"],
        }
        if w == "study":
            overhead.update(wall_s_untraced=e2e["wall_s"],
                            wall_s_traced=layer["trace.wall_s"])
        report["workloads"][w] = {
            "end_to_end": plain["metrics"], "per_layer": traced[0]["metrics"],
            "counts_repeat_exactly": not differ, "counts_that_differ": differ,
            "tracing_overhead": overhead}
        print(f"== {w}")
        for name, m in plain["metrics"].items():
            print(f"  {name:42s} {m['value']:>14.6g} {m['unit']}")
        print(f"  tracing slowdown (untraced / traced obs_per_s): "
              f"{overhead['slowdown']:.3f}")
        print(f"  counts repeat exactly: {not differ} {differ or ''}")
    return report


def baseline_tables(report: dict) -> None:
    """The stage times, per-model step costs, qarf sub-layer split and
    kernel timings, from the traced runs."""
    layer = {w: {k: v["value"] for k, v in r["per_layer"].items()}
             for w, r in report["workloads"].items()}
    study, light, forest = (layer[w] for w in WORKLOADS)
    print("== stage times (study, traced), s")
    for stage in ("synth", "preprocess", "select", "tune", "evaluate",
                  "report"):
        print(f"  {stage:12s} {study[f'cli.{stage}_s']:9.3f}")
    print("== per call p50, us: predict_interval / learn_one")
    for kind in ("mean", "qr", "qknn", "mcnn", "qarf"):
        src = forest if kind == "qarf" else light
        print(f"  {kind:6s} {src[f'models.{kind}.predict_us']:9.1f} "
              f"{src[f'models.{kind}.learn_us']:9.1f}")
    print("== qarf sub-layers (morning_forest), p50 us per call")
    for name in ("forest.tree_predict", "forest.tree_learn",
                 "forest.leaf_sketch", "forest.merged_sketch",
                 "streaming.kll_insert", "streaming.kll_merge",
                 "streaming.kll_quantile", "streaming.adwin_update"):
        print(f"  {name:26s} {forest[name + '_us']:9.2f} "
              f"x{forest[name + '.calls']}")
    print(f"  {'forest.learn_self':26s} {forest['forest.learn_self_us']:9.2f}")
    print("== kernels at fixed shapes (numpy), us per call")
    for k in ("sq_distances", "split_gains", "adwin_cut"):
        print(f"  {k:14s} {forest[f'kernels.{k}_fixed_us']:9.2f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--spread", choices=WORKLOADS)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    args = parser.parse_args()
    OUT.mkdir(parents=True, exist_ok=True)
    if args.spread:
        report = spread(args.spread, args.seeds, args.seconds)
        path = OUT / f"spread-{args.spread}.json"
    else:
        report = suite(args.seed, args.seconds)
        baseline_tables(report)
        path = OUT / f"suite-{args.seed}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"-> {path.relative_to(ROOT)}")
    bad = [w for w, r in report.get("workloads", {}).items()
           if not r["counts_repeat_exactly"]]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
