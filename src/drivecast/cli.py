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
    encode_batch,
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


class _Stage:
    """One stage's run in ``out_root/name``: every file it reads goes
    through ``read`` and every file it writes through ``write``, so the
    manifest ``close`` writes lists exactly those files."""

    def __init__(self, cfg: dict, out_root: Path, name: str):
        self.cfg, self.root, self.name = cfg, out_root, name
        self.inputs: list[Path] = []
        self.outputs: list[Path] = []

    def read(self, producer: str, name: str,
             required: bool = True) -> Path | None:
        """Path of ``producer``'s artifact ``name``, recorded as an input;
        None when it is absent and not ``required``."""
        path = self.root / producer / name
        if not path.exists():
            if not required:
                return None
            raise MissingArtifactError(
                f"{path} does not exist; run the {producer!r} stage first")
        self.inputs.append(path)
        return path

    def read_json(self, producer: str, name: str, parse,
                  required: bool = True):
        """``parse`` of a JSON artifact ``read`` finds; DataError names the
        file when it is not JSON or not of the shape ``parse`` takes."""
        path = self.read(producer, name, required)
        if path is None:
            return None
        try:
            return parse(json.loads(path.read_text()))
        except (LookupError, TypeError, AttributeError, ValueError) as e:
            raise DataError(f"{path}: malformed: {e!r}") from None

    def write(self, name: str, write_fn) -> Path:
        """Write ``name`` through a sibling temp file, so readers never
        see partials, and record it as an output."""
        path = self.root / self.name / name
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(name + ".tmp")
        write_fn(tmp)
        os.replace(tmp, path)
        self.outputs.append(path)
        return path

    def write_json(self, name: str, obj) -> Path:
        text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        return self.write(name, lambda p: p.write_text(text))

    def close(self) -> None:
        self.write_json("manifest.json", {
            "stage": self.name,
            "seed": self.cfg["seed"],
            "config_sha256": config_digest(self.cfg),
            "inputs": {p.name: _sha256(p) for p in sorted(self.inputs)},
            "outputs": {p.name: _sha256(p) for p in sorted(self.outputs)},
        })


def _load_examples_by_vehicle(path: Path) -> dict:
    by_vehicle: dict[str, list] = {}
    for ex in read_daily_examples_csv(path):
        by_vehicle.setdefault(ex.vehicle_id, []).append(ex)
    return by_vehicle


def _schema(names: list) -> FeatureSchema:
    """A selected schema: some of the default descriptors, in their order."""
    schema = default_schema().subset(names)
    if not names or schema.names != names:
        raise ValueError("descriptors are not a non-empty subset of the "
                         "default, in its order")
    return schema


def _selection(data: dict, targets: list[str], by_vehicle: dict) -> dict:
    """selection.json's cohorts, of examples.csv's vehicles, and the
    schema each target's descriptors name."""
    cohort = data["cohort"]
    for key in ("selected", "train", "validation"):
        vids = cohort[key]
        if not isinstance(vids, list) or not by_vehicle.keys() >= set(vids):
            raise ValueError(f"cohort.{key} is not a list of vehicles "
                             "of examples.csv")
        if not vids and key != "validation":
            raise ValueError(f"cohort.{key} is empty")
    return {"cohort": cohort,
            "schemas": {t: _schema(data["features"][t]["descriptors"])
                        for t in targets}}


# -- stages -------------------------------------------------------------


def stage_synth(cfg: dict, out_root: Path) -> None:
    s = cfg["synth"]
    fleet, truth = generate_fleet(
        n_regular=s["n_regular"], n_irregular=s["n_irregular"],
        n_days=s["n_days"], seed=cfg["seed"], drift=s["drift"])
    st = _Stage(cfg, out_root, "synth")
    sessions = st.write("sessions.csv",
                        lambda p: write_sessions_csv(p, fleet))
    st.write_json("truth.json", truth)
    st.close()
    n_sessions = sum(len(h.trips) + len(h.charges) for h in fleet.values())
    print(f"synth: {len(fleet)} vehicles, {n_sessions} sessions "
          f"-> {sessions}")


def stage_preprocess(cfg: dict, out_root: Path) -> None:
    st = _Stage(cfg, out_root, "preprocess")
    fleet = read_sessions_csv(st.read("synth", "sessions.csv"))
    kept, dropped = preprocess_fleet(fleet)
    examples = []
    for vid in sorted(kept):
        examples.extend(build_daily_examples(kept[vid]))
    ex_path = st.write("examples.csv",
                       lambda p: write_daily_examples_csv(p, examples))
    st.write_json("summary.json", {
        "n_vehicles_in": len(fleet),
        "n_vehicles_kept": len(kept),
        "dropped": sorted(dropped),
        "n_examples": len(examples),
    })
    st.close()
    print(f"preprocess: kept {len(kept)}/{len(fleet)} vehicles, "
          f"{len(examples)} daily examples -> {ex_path}")


def stage_select(cfg: dict, out_root: Path) -> None:
    st = _Stage(cfg, out_root, "select")
    by_vehicle = _load_examples_by_vehicle(
        st.read("preprocess", "examples.csv"))
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
        encoded = [encode_batch(ex, schema, target)
                   for ex in screen_set.values()]
        pearson = pearson_screen(encoded, schema)
        forward = forward_sfs(encoded, schema)
        combined = combine_screens(schema, pearson["weak"],
                                   forward["selected"])
        pruned = vif_prune(encoded, schema, combined.names)
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
            "descriptors": final.names,
            "n_features": final.dim,
        }
        print(f"select: {target}: {len(final.names)} descriptors "
              f"({final.dim} columns) kept of {len(schema.names)}")

    sel_path = st.write_json("selection.json", {
        "cohort": cohort,
        "screen_vehicles": screen_vids,
        "features": features,
    })
    st.close()
    print(f"select: {len(cohort['selected'])} vehicles "
          f"({len(cohort['train'])} tune / {len(cohort['validation'])} "
          f"holdout) -> {sel_path}")


def stage_tune(cfg: dict, out_root: Path) -> None:
    st = _Stage(cfg, out_root, "tune")
    by_vehicle = _load_examples_by_vehicle(
        st.read("preprocess", "examples.csv"))
    selection = st.read_json(
        "select", "selection.json",
        lambda data: _selection(data, cfg["evaluate"]["targets"], by_vehicle))
    vids = selection["cohort"]["train"][:cfg["tune"]["max_vehicles"]]
    subset = {v: by_vehicle[v] for v in vids}
    tuned: dict[str, dict] = {}
    for target in cfg["evaluate"]["targets"]:
        schema = selection["schemas"][target]
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
    path = st.write_json("tuned.json", tuned)
    st.close()
    print(f"tune: {len(vids)} vehicles -> {path}")


def _tuned_params(data: dict) -> dict:
    """tuned.json's params by (target, kind)."""
    return {(target, kind): entry["params"]
            for target, block in data.items()
            for kind, entry in block.items()}


def stage_evaluate(cfg: dict, out_root: Path) -> None:
    ev = cfg["evaluate"]
    st = _Stage(cfg, out_root, "evaluate")
    by_vehicle = _load_examples_by_vehicle(
        st.read("preprocess", "examples.csv"))
    selection = st.read_json(
        "select", "selection.json",
        lambda data: _selection(data, ev["targets"], by_vehicle))
    tuned = st.read_json("tune", "tuned.json", _tuned_params, required=False)
    if tuned is None:
        tuned = {}
        print("evaluate: no tuned.json, using model defaults",
              file=sys.stderr)

    cohort = {v: by_vehicle[v] for v in selection["cohort"]["selected"]}
    validation = set(selection["cohort"]["validation"])
    results: dict[str, dict] = {}
    for target in ev["targets"]:
        schema = selection["schemas"][target]
        results[target] = {}
        for kind in ev["models"]:
            hyper = tuned.get((target, kind), {})
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
            st.write(f"records_{kind}_{target}.csv",
                     lambda p, r=records: write_records_csv(p, r))
            results[target][kind] = res
            agg = res["aggregate"]
            print(f"evaluate: {kind}/{target}: mae {agg['mae']:.4f} "
                  f"picp {agg['picp']:.3f} over {agg['n_scored']} days")
    res_path = st.write_json("results.json", results)
    st.close()
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


def _report(cfg: dict, results: dict) -> str:
    """report.md rendered from results.json."""
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
    return "\n".join(lines)


def stage_report(cfg: dict, out_root: Path) -> None:
    st = _Stage(cfg, out_root, "report")
    text = st.read_json("evaluate", "results.json",
                        lambda results: _report(cfg, results))
    path = st.write("report.md", lambda p: p.write_text(text))
    st.close()
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
