"""Staged command-line pipeline.

Each stage reads its predecessor's artifacts from the output directory,
writes its own into a stage subdirectory, and records a manifest with
content hashes so two runs can be compared byte for byte.  Stages:

  synth       generate a synthetic fleet of drive/charge sessions
  preprocess  clean sessions and build one daily example per drive day
  select      rank vehicles by routine strength, screen features
  tune        grid-search model hyperparameters on the tuning cohort
  evaluate    progressive validation of every model on every target
  report      render the evaluation into a markdown summary
  all         run every stage in order

Exit codes: 0 success, 2 bad configuration, 3 missing upstream
artifact, 4 corrupt input data.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

from .config import check_model_param, config_digest, load_config
from .data_model import (
    build_daily_examples,
    preprocess_fleet,
    read_daily_examples_csv,
    read_sessions_csv,
    write_daily_examples_csv,
    write_sessions_csv,
)
from .evaluation import compute_metrics, evaluate_fleet, write_records_csv
from .exceptions import (ConfigError, DataError, DivergenceError,
                         MissingArtifactError)
from .features import FeatureSchema, default_schema
from .selection import (
    backward_sfs,
    combine_screens,
    forward_sfs,
    grid_search,
    pearson_screen,
    select_well_behaving,
    vif_prune,
)
from .synthdata import generate_fleet

STAGES = ("synth", "preprocess", "select", "tune", "evaluate", "report")


# -- artifact plumbing --------------------------------------------------


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _atomic(path: Path, write_fn) -> Path:
    """Write through a sibling temp file so readers never see partials."""
    tmp = path.with_name(path.name + ".tmp")
    write_fn(tmp)
    os.replace(tmp, path)
    return path


def _write_json(path: Path, obj) -> Path:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    return _atomic(path, lambda p: p.write_text(text))


def _write_manifest(stage_dir: Path, stage: str, cfg: dict,
                    inputs: list[Path], outputs: list[Path]) -> None:
    manifest = {
        "stage": stage,
        "seed": cfg["seed"],
        "config_sha256": config_digest(cfg),
        "inputs": {p.name: _sha256(p) for p in sorted(inputs)},
        "outputs": {p.name: _sha256(p) for p in sorted(outputs)},
    }
    _write_json(stage_dir / "manifest.json", manifest)


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise MissingArtifactError(
            f"{path} does not exist; run the {producer!r} stage first")
    return path


def _stage_dir(out_root: Path, stage: str) -> Path:
    d = out_root / stage
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_examples_by_vehicle(path: Path) -> dict:
    by_vehicle: dict[str, list] = {}
    for ex in read_daily_examples_csv(path):
        by_vehicle.setdefault(ex.vehicle_id, []).append(ex)
    return by_vehicle


# -- stages -------------------------------------------------------------


def stage_synth(cfg: dict, out_root: Path) -> None:
    s = cfg["synth"]
    fleet, truth = generate_fleet(
        n_regular=s["n_regular"], n_irregular=s["n_irregular"],
        n_days=s["n_days"], seed=cfg["seed"], drift=s["drift"])
    d = _stage_dir(out_root, "synth")
    sessions = _atomic(d / "sessions.csv",
                       lambda p: write_sessions_csv(p, fleet))
    truth_path = _write_json(d / "truth.json", truth)
    _write_manifest(d, "synth", cfg, [], [sessions, truth_path])
    n_sessions = sum(len(h.trips) + len(h.charges) for h in fleet.values())
    print(f"synth: {len(fleet)} vehicles, {n_sessions} sessions "
          f"-> {sessions}")


def stage_preprocess(cfg: dict, out_root: Path) -> None:
    src = _require(out_root / "synth" / "sessions.csv", "synth")
    fleet = read_sessions_csv(src)
    kept, dropped = preprocess_fleet(fleet)
    examples = []
    for vid in sorted(kept):
        examples.extend(build_daily_examples(kept[vid]))
    d = _stage_dir(out_root, "preprocess")
    ex_path = _atomic(d / "examples.csv",
                      lambda p: write_daily_examples_csv(p, examples))
    summary = _write_json(d / "summary.json", {
        "n_vehicles_in": len(fleet),
        "n_vehicles_kept": len(kept),
        "dropped": sorted(dropped),
        "n_examples": len(examples),
    })
    _write_manifest(d, "preprocess", cfg, [src], [ex_path, summary])
    print(f"preprocess: kept {len(kept)}/{len(fleet)} vehicles, "
          f"{len(examples)} daily examples -> {ex_path}")


def stage_select(cfg: dict, out_root: Path) -> None:
    src = _require(out_root / "preprocess" / "examples.csv", "preprocess")
    by_vehicle = _load_examples_by_vehicle(src)
    sc = cfg["select"]
    cohort = select_well_behaving(by_vehicle, n_select=sc["n_select"],
                                  seed=cfg["seed"])
    if cohort["shortfall"]:
        print(f"select: warning: only {len(cohort['selected'])} vehicles "
              f"available of {sc['n_select']} requested", file=sys.stderr)

    screen_vids = cohort["train"][:sc["max_vehicles"]]
    screen_set = {v: by_vehicle[v] for v in screen_vids}
    schema = default_schema()
    features: dict[str, dict] = {}
    for target in cfg["evaluate"]["targets"]:
        pearson = pearson_screen(screen_set, schema, target)
        forward = forward_sfs(screen_set, schema, target)
        combined = combine_screens(schema, pearson["weak"],
                                   forward["selected"])
        pruned = vif_prune(screen_set, combined, target)
        final = pruned["schema"]
        backward_removed: list[str] = []
        if sc["run_backward"]:
            back = backward_sfs(screen_set, final, target, "qknn",
                                run_seed=cfg["seed"],
                                warmup=cfg["evaluate"]["warmup"])
            final = back["schema"]
            backward_removed = back["removed"]
        features[target] = {
            "pearson": pearson,
            "forward": forward,
            "vif_dropped": pruned["dropped"],
            "backward_removed": backward_removed,
            "schema": final.to_dict(),
            "n_features": final.dim,
        }
        print(f"select: {target}: {len(final.names)} descriptors "
              f"({final.dim} columns) kept of {len(schema.names)}")

    d = _stage_dir(out_root, "select")
    sel_path = _write_json(d / "selection.json", {
        "cohort": cohort,
        "screen_vehicles": screen_vids,
        "features": features,
    })
    _write_manifest(d, "select", cfg, [src], [sel_path])
    print(f"select: {len(cohort['selected'])} vehicles "
          f"({len(cohort['train'])} tune / {len(cohort['validation'])} "
          f"holdout) -> {sel_path}")


def _load_selection(out_root: Path) -> dict:
    path = _require(out_root / "select" / "selection.json", "select")
    with open(path) as fh:
        return json.load(fh)


def stage_tune(cfg: dict, out_root: Path) -> None:
    src = _require(out_root / "preprocess" / "examples.csv", "preprocess")
    selection = _load_selection(out_root)
    by_vehicle = _load_examples_by_vehicle(src)
    vids = selection["cohort"]["train"][:cfg["tune"]["max_vehicles"]]
    subset = {v: by_vehicle[v] for v in vids if v in by_vehicle}
    tuned: dict[str, dict] = {}
    for target in cfg["evaluate"]["targets"]:
        schema = FeatureSchema.from_dict(
            selection["features"][target]["schema"])
        tuned[target] = {}
        for kind in cfg["evaluate"]["models"]:
            grid = cfg["tune"]["grids"].get(kind)
            if not grid:
                continue
            res = grid_search(subset, schema, target, kind, grid,
                              run_seed=cfg["seed"],
                              warmup=cfg["evaluate"]["warmup"])
            tuned[target][kind] = {"params": res["best"],
                                   "mae": res["best_mae"]}
            print(f"tune: {kind}/{target}: best {res['best']} "
                  f"(mae {res['best_mae']:.4f})")
    d = _stage_dir(out_root, "tune")
    path = _write_json(d / "tuned.json", tuned)
    _write_manifest(d, "tune", cfg,
                    [src, out_root / "select" / "selection.json"], [path])
    print(f"tune: {len(vids)} vehicles -> {path}")


def stage_evaluate(cfg: dict, out_root: Path) -> None:
    src = _require(out_root / "preprocess" / "examples.csv", "preprocess")
    selection = _load_selection(out_root)
    by_vehicle = _load_examples_by_vehicle(src)
    inputs = [src, out_root / "select" / "selection.json"]
    tuned_path = out_root / "tune" / "tuned.json"
    tuned: dict = {}
    if tuned_path.exists():
        with open(tuned_path) as fh:
            tuned = json.load(fh)
        inputs.append(tuned_path)
    else:
        print("evaluate: no tuned.json, using model defaults",
              file=sys.stderr)

    cohort = {v: by_vehicle[v]
              for v in selection["cohort"]["selected"] if v in by_vehicle}
    validation = set(selection["cohort"]["validation"])
    ev = cfg["evaluate"]
    d = _stage_dir(out_root, "evaluate")
    results: dict[str, dict] = {}
    outputs = []
    for target in ev["targets"]:
        schema = FeatureSchema.from_dict(
            selection["features"][target]["schema"])
        results[target] = {}
        for kind in ev["models"]:
            hyper = tuned.get(target, {}).get(kind, {}).get("params", {})
            field = f"tuned.json {target}.{kind}"
            if not isinstance(hyper, dict):
                raise ConfigError(f"{field}.params", "expected an object")
            for param, value in hyper.items():
                check_model_param(f"{field}.{param}", kind, param, value)
            try:
                res, records = evaluate_fleet(
                    cohort, kind, schema, target, run_seed=cfg["seed"],
                    warmup=ev["warmup"], within_tol=ev["within_tol"][target],
                    confidence=ev["confidence"], hyper=hyper)
            except DivergenceError as e:
                raise ConfigError(
                    field, f"diverged on the evaluate cohort with params "
                    f"{hyper}: {e}") from None
            res["hyper"] = hyper
            holdout_recs = [r for r in records
                            if r.vehicle_id in validation]
            try:
                res["validation_aggregate"] = compute_metrics(
                    holdout_recs, ev["within_tol"][target])
            except ValueError:
                res["validation_aggregate"] = None
            rec_path = _atomic(
                d / f"records_{kind}_{target}.csv",
                lambda p, r=records: write_records_csv(p, r))
            outputs.append(rec_path)
            results[target][kind] = res
            agg = res["aggregate"]
            print(f"evaluate: {kind}/{target}: mae {agg['mae']:.4f} "
                  f"picp {agg['picp']:.3f} over {agg['n_scored']} days")
    res_path = _write_json(d / "results.json", results)
    _write_manifest(d, "evaluate", cfg, inputs, [res_path, *outputs])
    print(f"evaluate: -> {res_path}")


def _metric_table(block: dict, models: list[str]) -> list[str]:
    head = ("| model | MAE | MAPE % | within % | PICP | MPIW | abstained |"
            "\n|---|---|---|---|---|---|---|")
    lines = [head]
    for kind in models:
        agg = block[kind]["aggregate"]
        lines.append(
            f"| {kind} | {agg['mae']:.4f} | {agg['mape_pct']:.1f} "
            f"| {agg['within_pct']:.1f} | {agg['picp']:.3f} "
            f"| {agg['mpiw']:.3f} | {agg['n_abstained']} |")
    return lines


def stage_report(cfg: dict, out_root: Path) -> None:
    res_path = _require(out_root / "evaluate" / "results.json", "evaluate")
    with open(res_path) as fh:
        results = json.load(fh)
    ev = cfg["evaluate"]
    lines = [
        "# First-drive prediction report",
        "",
        f"Config fingerprint: `{config_digest(cfg)}`",
        f"Seed: {cfg['seed']}; warm-up: {ev['warmup']} days; "
        f"confidence: {ev['confidence']:.2f}",
        "",
    ]
    for target in ev["targets"]:
        block = results[target]
        models = [m for m in ev["models"] if m in block]
        any_res = block[models[0]]
        lines.append(f"## Target: {target}")
        lines.append("")
        lines.append(f"{any_res['n_vehicles']} vehicles, "
                     f"{any_res['aggregate']['n_scored']} scored days, "
                     f"tolerance {ev['within_tol'][target]}.")
        lines.append("")
        lines.extend(_metric_table(block, models))
        lines.append("")
        holdouts = [m for m in models if block[m]["validation_aggregate"]]
        if holdouts:
            lines.append("Held-out vehicles only:")
            lines.append("")
            sub = {m: {"aggregate": block[m]["validation_aggregate"]}
                   for m in holdouts}
            lines.extend(_metric_table(sub, holdouts))
            lines.append("")
        best = min(models, key=lambda m: block[m]["aggregate"]["mae"])
        lines.append(f"Error of `{best}` as history accumulates "
                     f"(bucket MAE by day index):")
        lines.append("")
        lines.append("| days seen | MAE | n |\n|---|---|---|")
        for pt in block[best]["curve"]:
            lines.append(f"| {pt['day_index']} | {pt['mae']:.4f} "
                         f"| {pt['n']} |")
        lines.append("")
    d = _stage_dir(out_root, "report")
    path = _atomic(d / "report.md",
                   lambda p: p.write_text("\n".join(lines)))
    _write_manifest(d, "report", cfg, [res_path], [path])
    print(f"report: -> {path}")


STAGE_FN = {
    "synth": stage_synth,
    "preprocess": stage_preprocess,
    "select": stage_select,
    "tune": stage_tune,
    "evaluate": stage_evaluate,
    "report": stage_report,
}


# -- entry point --------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drivecast",
        description="Online prediction of each vehicle's first daily "
                    "drive: departure time and distance with calibrated "
                    "intervals.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON config overriding the defaults")
    common.add_argument("--seed", type=int, help="override the run seed")
    common.add_argument("--out", metavar="DIR",
                        help="override the output directory")
    common.add_argument("--models", metavar="M1,M2",
                        help="comma-separated model subset to run")
    common.add_argument("--targets", metavar="T1,T2",
                        help="comma-separated target subset to run")
    sub = parser.add_subparsers(dest="stage", required=True)
    for stage in STAGES + ("all",):
        sub.add_parser(stage, parents=[common],
                       help=f"run the {stage} stage"
                       if stage != "all" else "run every stage in order")
    return parser


def _overrides(args) -> dict:
    out: dict = {}
    if args.seed is not None:
        out["seed"] = args.seed
    if args.out is not None:
        out["out_dir"] = args.out
    ev: dict = {}
    if args.models:
        ev["models"] = args.models.split(",")
    if args.targets:
        ev["targets"] = args.targets.split(",")
    if ev:
        out["evaluate"] = ev
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, _overrides(args))
        out_root = Path(cfg["out_dir"])
        stages = STAGES if args.stage == "all" else (args.stage,)
        for stage in stages:
            STAGE_FN[stage](cfg, out_root)
    except ConfigError as e:
        print(f"drivecast: config error: {e}", file=sys.stderr)
        return 2
    except MissingArtifactError as e:
        print(f"drivecast: {e}", file=sys.stderr)
        return 3
    except DataError as e:
        print(f"drivecast: data error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
