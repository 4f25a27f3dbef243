"""Which drivecast callables the traced run wraps, and the per-layer metrics
derived from their spans.

Layers are the package modules.  Span names are ``<layer>.<call>``; the
``_kernels`` module is reported under the name ``kernels`` because a
metric name has to start with a letter.  Every workload wraps the same
set, so a layer that does no work on a workload reports zero calls and
zero time there.
"""

from __future__ import annotations

import pickle
import timeit

import numpy as np

KINDS = ("mean", "qr", "qknn", "qarf", "mcnn")
STAGES = ("synth", "preprocess", "select", "tune", "evaluate", "report")

FUNCTIONS = {
    # layer: (module, [function, ...]); span name is layer.function
    "cli": ("cli", ["stage_" + s for s in STAGES]),
    "synthdata": ("synthdata", ["generate_fleet"]),
    "data_model": ("data_model", [
        "read_sessions_csv", "write_sessions_csv", "preprocess_fleet",
        "build_daily_examples", "write_daily_examples_csv",
        "read_daily_examples_csv"]),
    "selection": ("selection", [
        "select_well_behaving", "pearson_screen", "forward_sfs", "vif_prune",
        "backward_sfs", "grid_search"]),
    "evaluation": ("evaluation", [
        "evaluate_fleet", "progressive_validate", "compute_metrics",
        "write_records_csv"]),
    "kernels": ("_kernels", ["sq_distances", "split_gains", "adwin_cut"]),
}

MODEL_CLASSES = {"mean": "MeanBaseline", "qr": "QuantileRegressor",
                 "qknn": "QuantileKnn", "qarf": "QuantileForest",
                 "mcnn": "McDropoutNet"}

# (span name, module, class, method, remember receivers)
METHODS = [
    ("features.transform", "features", "FeaturePipeline", "transform", False),
    ("features.update_target", "features", "FeaturePipeline",
     "update_target", False),
    ("features.encode", "features", "FeatureSchema", "encode", False),
    ("features.standardize", "features", "OnlineStandardizer",
     "transform_update", False),
    *[(f"models.{kind}.predict", "models", cls, "predict_interval", False)
      for kind, cls in MODEL_CLASSES.items()],
    *[(f"models.{kind}.learn", "models", cls, "learn_one", False)
      for kind, cls in MODEL_CLASSES.items()],
    ("forest.tree_predict", "forest", "HoeffdingTree", "predict_one", False),
    ("forest.tree_learn", "forest", "HoeffdingTree", "learn_one", False),
    ("forest.leaf_sketch", "forest", "HoeffdingTree", "leaf_sketch", False),
    ("forest.merged_sketch", "forest", "AdaptiveForest", "merged_sketch",
     False),
    ("forest.learn", "forest", "AdaptiveForest", "learn_one", False),
    ("streaming.kll_insert", "streaming", "KllSketch", "insert", False),
    ("streaming.kll_merge", "streaming", "KllSketch", "merge", False),
    ("streaming.kll_quantile", "streaming", "KllSketch", "quantile", False),
    ("streaming.kll_moments", "streaming", "KllSketch", "moments", False),
    ("streaming.adwin_update", "streaming", "AdwinWindow", "update", True),
]


STEP_SPANS = ("features.transform", "features.update_target",
              *[f"models.{kind}.{call}" for kind in MODEL_CLASSES
                for call in ("predict", "learn")])


def install(tracer, package, only=None) -> list[str]:
    """Wrap every traced callable of ``package`` (the imported drivecast),
    or those whose span name is in ``only``.

    Returns the span names it could not install because the package no
    longer has that callable."""
    import importlib

    def module(name):
        return importlib.import_module(f"{package.__name__}.{name}")

    missing = []
    for layer, (mod_name, functions) in FUNCTIONS.items():
        for fn in functions:
            if only is not None and f"{layer}.{fn}" not in only:
                continue
            try:
                tracer.install_function(f"{layer}.{fn}", module(mod_name), fn)
            except AttributeError:
                missing.append(f"{layer}.{fn}")
    for span, mod_name, cls_name, attr, track in METHODS:
        if only is not None and span not in only:
            continue
        try:
            cls = getattr(module(mod_name), cls_name)
            tracer.install_method(span, cls, attr, track)
        except (AttributeError, KeyError):
            missing.append(span)
    return missing


# -- metric table -------------------------------------------------------

TIMED_CALLS = [
    "forest.tree_predict", "forest.tree_learn", "forest.leaf_sketch",
    "forest.merged_sketch", "streaming.kll_insert", "streaming.kll_merge",
    "streaming.kll_quantile", "streaming.kll_moments",
    "streaming.adwin_update", "kernels.sq_distances", "kernels.split_gains",
    "kernels.adwin_cut",
]
FOREST_COUNTS = ("splits", "warnings", "replacements", "leaves", "max_depth")


def metric_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [(f"cli.{s}_s", "s", "lower") for s in STAGES]
    spec += [("synthdata.generate_fleet_s", "s", "lower"),
             ("synthdata.sessions", "count", "higher")]
    spec += [(f"data_model.{fn}_s", "s", "lower") for fn in (
        "read_sessions_csv", "preprocess_fleet", "build_daily_examples",
        "write_daily_examples_csv", "read_daily_examples_csv")]
    spec += [("data_model.read_daily_examples_csv.calls", "count", "lower")]
    spec += [(f"selection.{fn}_s", "s", "lower") for fn in (
        "select_well_behaving", "pearson_screen", "forward_sfs", "vif_prune",
        "grid_search")]
    spec += [("selection.grid_search.fleet_evals", "count", "lower")]
    spec += [("evaluation.evaluate_fleet_s", "s", "lower"),
             ("evaluation.evaluate_fleet.calls", "count", "lower"),
             ("evaluation.self_s", "s", "lower"),
             ("evaluation.compute_metrics_s", "s", "lower"),
             ("evaluation.write_records_csv_s", "s", "lower")]
    spec += [(f"features.{fn}_us", "us", "lower")
             for fn in ("transform", "encode", "standardize", "update_target")]
    spec += [("features.transform.calls", "count", "lower")]
    for kind in KINDS:
        spec += [(f"models.{kind}.predict_us", "us", "lower"),
                 (f"models.{kind}.learn_us", "us", "lower"),
                 (f"models.{kind}.state_kib", "KiB", "lower"),
                 (f"models.{kind}.abstained", "count", "lower"),
                 (f"models.{kind}.diverged", "count", "lower")]
    for call in TIMED_CALLS:
        spec += [(f"{call}_us", "us", "lower"), (f"{call}.calls", "count",
                                                 "lower")]
    spec += [("forest.learn_self_us", "us", "lower"),
             ("forest.descents_per_obs", "1/obs", "lower")]
    spec += [(f"forest.{c}", "count", "lower") for c in FOREST_COUNTS]
    spec += [("streaming.kll_retained_ratio", "ratio", "lower"),
             ("streaming.adwin_rows", "count", "lower")]
    spec += [(f"kernels.{k}_fixed_us", "us", "lower")
             for k in ("sq_distances", "split_gains", "adwin_cut")]
    spec += [("trace.wall_s", "s", "lower"),
             ("trace.obs_per_s", "1/s", "higher")]
    return spec


def span_metrics(spans, counted_end: int) -> dict[str, float]:
    """Per-layer times and call counts from the spans.

    Counts and totals (``.calls``, ``_s``) cover spans [0, counted_end):
    the set-up plus the first pass, which is the same work on every run.
    Per-call medians (``_us``) pool every span recorded."""
    dur = spans.durations
    self_ns = spans.self_times()
    out: dict[str, float] = {}

    def p50_us(name, values=dur):
        sel = spans.mask(name)
        return float(np.median(values[sel])) / 1e3 if sel.any() else 0.0

    def total_s(name):
        return float(dur[spans.mask(name, 0, counted_end)].sum()) / 1e9

    def calls(name):
        return int(spans.mask(name, 0, counted_end).sum())

    for stage in STAGES:
        out[f"cli.{stage}_s"] = total_s(f"cli.stage_{stage}")
    out["synthdata.generate_fleet_s"] = total_s("synthdata.generate_fleet")
    for fn in ("read_sessions_csv", "preprocess_fleet", "build_daily_examples",
               "write_daily_examples_csv", "read_daily_examples_csv"):
        out[f"data_model.{fn}_s"] = total_s(f"data_model.{fn}")
    out["data_model.read_daily_examples_csv.calls"] = calls(
        "data_model.read_daily_examples_csv")
    for fn in ("select_well_behaving", "pearson_screen", "forward_sfs",
               "vif_prune", "grid_search"):
        out[f"selection.{fn}_s"] = total_s(f"selection.{fn}")
    fleet_evals = np.flatnonzero(
        spans.mask("evaluation.evaluate_fleet", 0, counted_end))
    out["selection.grid_search.fleet_evals"] = sum(
        spans.has_ancestor(int(i), "selection.grid_search")
        for i in fleet_evals)
    out["evaluation.evaluate_fleet_s"] = total_s("evaluation.evaluate_fleet")
    out["evaluation.evaluate_fleet.calls"] = len(fleet_evals)
    harness = (spans.mask("evaluation.evaluate_fleet", 0, counted_end)
               | spans.mask("evaluation.progressive_validate", 0, counted_end))
    out["evaluation.self_s"] = float(self_ns[harness].sum()) / 1e9
    out["evaluation.compute_metrics_s"] = total_s("evaluation.compute_metrics")
    out["evaluation.write_records_csv_s"] = total_s(
        "evaluation.write_records_csv")
    for fn in ("transform", "encode", "standardize", "update_target"):
        out[f"features.{fn}_us"] = p50_us(f"features.{fn}")
    out["features.transform.calls"] = calls("features.transform")
    for kind in KINDS:
        out[f"models.{kind}.predict_us"] = p50_us(f"models.{kind}.predict")
        out[f"models.{kind}.learn_us"] = p50_us(f"models.{kind}.learn")
    for call in TIMED_CALLS:
        out[f"{call}_us"] = p50_us(call)
        out[f"{call}.calls"] = calls(call)
    out["forest.learn_self_us"] = p50_us("forest.learn", self_ns)
    qarf_steps = calls("models.qarf.learn")
    descents = sum(calls(c) for c in ("forest.tree_predict",
                                      "forest.tree_learn",
                                      "forest.leaf_sketch"))
    out["forest.descents_per_obs"] = descents / qarf_steps if qarf_steps else 0.0
    return out


def model_counters(slots, adwin_windows) -> tuple[dict, dict]:
    """Counters read from the public state of the first pass's models.

    ``slots`` are the (kind, model) pairs alive at the end of the pass;
    ``adwin_windows`` are the drift windows that received updates.
    Returns the counters and, for any the models no longer expose, why
    they could not be read."""
    out: dict[str, float] = {}
    unread: dict[str, str] = {}
    sizes: dict[str, list[int]] = {k: [] for k in KINDS}
    for kind, model in slots:
        sizes[kind].append(len(pickle.dumps(model, pickle.HIGHEST_PROTOCOL)))
    out["state_kib"] = float(np.mean(sum(sizes.values(), []))) / 1024
    for kind in KINDS:
        out[f"models.{kind}.state_kib"] = (
            float(np.mean(sizes[kind])) / 1024 if sizes[kind] else 0.0)
    forests = [m.forest for k, m in slots if k == "qarf"]
    try:
        out.update(_forest_counts(forests))
    except AttributeError as e:
        for name in [f"forest.{c}" for c in FOREST_COUNTS] + [
                "streaming.kll_retained_ratio"]:
            unread[name] = f"forest state not readable: {e}"
    try:
        out["streaming.adwin_rows"] = sum(
            len(w.to_dict()["counts"]) for w in adwin_windows)
    except AttributeError as e:
        unread["streaming.adwin_rows"] = f"window rows not readable: {e}"
    return out, unread


def _forest_counts(forests) -> dict[str, float]:
    splits = warnings = replacements = leaves = max_depth = 0
    retained = inserted = 0
    for forest in forests:
        warnings += forest.n_warnings
        replacements += forest.n_replacements
        for tree in forest.trees:
            splits += tree.n_splits
            leaves += tree.n_leaves
            max_depth = max(max_depth, tree.depth)
            for sketch in _leaf_sketches(tree):
                retained += sketch.retained_items()
                inserted += sketch.n
    return {"forest.splits": splits, "forest.warnings": warnings,
            "forest.replacements": replacements, "forest.leaves": leaves,
            "forest.max_depth": max_depth,
            "streaming.kll_retained_ratio": (retained / inserted
                                             if inserted else 0.0)}


def _leaf_sketches(tree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        if hasattr(node, "sketch"):
            yield node.sketch
        else:
            stack.extend((node.left, node.right))


# -- fixed-shape kernel timings ------------------------------------------


def fixed_kernel_us(kernels, repeat: int = 2000, rounds: int = 7
                    ) -> dict[str, float]:
    """Median per-call time of each numpy kernel at fixed shapes: a 365x35
    window distance scan, a 35-feature x 10-bin split-gain scan and a
    48-bucket drift-window cut scan."""
    rng = np.random.default_rng(0)
    window = rng.normal(size=(365, 35))
    x = rng.normal(size=35)
    counts = rng.integers(0, 40, size=(35, 10)).astype(float)
    sums = counts * rng.normal(1.0, 0.3, size=(35, 10))
    sumsqs = np.abs(sums) * rng.normal(2.0, 0.2, size=(35, 10)) + counts
    buckets = rng.integers(1, 64, size=48).astype(float)
    bsums = buckets * rng.normal(0.5, 0.2, size=48)
    bsumsqs = np.abs(bsums) + buckets * 0.3
    cases = {
        "sq_distances": (window, x),
        "split_gains": (counts, sums, sumsqs),
        "adwin_cut": (buckets, bsums, bsumsqs, 0.002),
    }
    out = {}
    for name, args in cases.items():
        # the numpy twin where a compiled one exists beside it
        fn = getattr(kernels, f"_{name}_np", None) or getattr(kernels, name)
        fn(*args)
        times = timeit.repeat(lambda: fn(*args), number=repeat, repeat=rounds)
        out[f"kernels.{name}_fixed_us"] = float(np.median(times)) / repeat * 1e6
    return out
