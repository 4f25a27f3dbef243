"""Cohort and feature selection plus hyperparameter grid search.

Vehicles worth modeling are found by ranking the clusterability of their
(departure, distance) pairs with the Hopkins statistic: routine drivers
produce tight clusters (H near 1), erratic drivers look uniform (H near
0.5).  Features are screened three ways: a per-vehicle Pearson relevance
screen, greedy forward selection against a cheap least-squares scorer,
and variance-inflation pruning of redundant columns.  A descriptor is
dropped only when both the relevance screen and the forward selection
disfavor it, so a feature that helps one view survives.  Backward
elimination against the full progressive-validation loop and a
hyperparameter grid search round out the toolkit.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

from .data_model import DailyExample
from .evaluation import DEFAULT_WARMUP, evaluate_fleet, target_of
from .exceptions import ConfigError, DivergenceError
from .features import FeaturePipeline, FeatureSchema

VIF_THRESHOLD = 10.0
PEARSON_THRESHOLD = 0.02
# Share of the selected vehicles held out as the validation set.
HOLDOUT_FRACTION = 0.2
# Relative MAE gain a forward-selection step must bring to be taken.
SFS_MIN_GAIN = 0.01
# Share of each vehicle's most recent days the forward-selection scorer
# holds out.
LS_HOLDOUT_FRACTION = 0.2


def _vid_seed(seed: int, vehicle_id: str, salt: int = 0) -> int:
    digest = hashlib.sha256(vehicle_id.encode()).digest()
    entropy = [int(seed), int.from_bytes(digest[8:16], "big"), salt]
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


# -- clusterability -----------------------------------------------------


def hopkins_statistic(points: np.ndarray, seed: int = 0) -> float:
    """Clusterability of a point set in [0, 1]; 0.5 means uniform noise.

    Min-max scales each dimension, samples m real points and m uniform
    points (m is a tenth of the points, at least 1 and at most 100, and
    below their count), and compares nearest-neighbor distances: H is the
    uniform-point share of the total, approaching 1 when the real data
    clumps much tighter than noise would.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or len(pts) < 2:
        raise ValueError("need at least two points in a 2-d array")
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    span = hi - lo
    scaled = np.zeros_like(pts)
    live = span > 0
    scaled[:, live] = (pts[:, live] - lo[live]) / span[live]

    n = len(scaled)
    m = min(int(min(max(0.1 * n, 1), 100)), n - 1)
    rng = np.random.Generator(np.random.PCG64(seed))
    sample_ix = rng.choice(n, size=m, replace=False)
    synth = rng.uniform(size=(m, pts.shape[1]))
    synth[:, ~live] = 0.0

    d_real = np.empty(m)
    for j, ix in enumerate(sample_ix):
        d = np.sum((scaled - scaled[ix]) ** 2, axis=1)
        d[ix] = np.inf
        d_real[j] = math.sqrt(d.min())
    d_synth = np.empty(m)
    for j in range(m):
        d_synth[j] = math.sqrt(
            np.sum((scaled - synth[j]) ** 2, axis=1).min())

    denom = d_real.sum() + d_synth.sum()
    if denom == 0.0:
        return 0.5
    return float(d_synth.sum() / denom)


def select_well_behaving(examples_by_vehicle: dict[str, list[DailyExample]],
                         n_select: int = 100, seed: int = 0) -> dict:
    """Rank vehicles by clusterability and keep the top ``n_select``.

    The kept vehicles are split into a tuning set and a held-out
    validation set, ``HOLDOUT_FRACTION`` of them.  Ties in the ranking
    break toward the smaller vehicle id so reruns agree exactly.
    """
    scores: dict[str, float] = {}
    for vid, examples in examples_by_vehicle.items():
        pts = np.array([[e.target_departure, e.target_distance]
                        for e in examples])
        if len(pts) < 2:
            scores[vid] = 0.0
            continue
        scores[vid] = hopkins_statistic(pts, seed=_vid_seed(seed, vid))

    ranking = sorted(scores, key=lambda v: (-scores[v], v))
    selected = ranking[:n_select]
    shortfall = max(0, n_select - len(ranking))

    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([int(seed), 0x5E1EC7])))
    order = rng.permutation(len(selected))
    n_holdout = int(round(HOLDOUT_FRACTION * len(selected)))
    holdout = sorted(selected[i] for i in order[:n_holdout])
    train = sorted(selected[i] for i in order[n_holdout:])
    return {
        "hopkins": scores,
        "ranking": ranking,
        "selected": selected,
        "train": train,
        "validation": holdout,
        "shortfall": shortfall,
    }


# -- feature relevance --------------------------------------------------


def encode_batch(examples: list[DailyExample], schema: FeatureSchema,
                 target: str) -> tuple[np.ndarray, np.ndarray]:
    """Causally encoded (X, y) for one vehicle, unstandardized, NaN where
    a value is missing.  The target-average columns see only past days,
    exactly as the online pipeline would provide them."""
    pipeline = FeaturePipeline(schema)
    rows = []
    ys = []
    for ex in examples:
        rows.append(schema.encode(pipeline.with_target_averages(ex.features)))
        y = target_of(ex, target)
        ys.append(y)
        pipeline.remember_target(y)
    return np.vstack(rows), np.asarray(ys)


def _standardize_columns(x: np.ndarray) -> np.ndarray:
    """Column z-scores over finite entries; NaN and dead columns go to 0."""
    out = np.zeros_like(x)
    for j in range(x.shape[1]):
        col = x[:, j]
        ok = np.isfinite(col)
        if ok.sum() < 2:
            continue
        std = col[ok].std()
        if std <= 1e-12:
            continue
        out[ok, j] = (col[ok] - col[ok].mean()) / std
    return out


def pearson_screen(encoded: list[tuple[np.ndarray, np.ndarray]],
                   schema: FeatureSchema,
                   threshold: float = PEARSON_THRESHOLD) -> dict:
    """Average per-vehicle Pearson correlation of every encoded column
    with the target, from one ``encode_batch`` pair per vehicle under
    ``schema``.  A descriptor is weak when every one of its columns
    averages inside the threshold."""
    sums = np.zeros(schema.dim)
    counts = np.zeros(schema.dim)
    for x, y in encoded:
        if len(y) < 3 or y.std() <= 1e-12:
            continue
        for j in range(schema.dim):
            col = x[:, j]
            ok = np.isfinite(col)
            if ok.sum() < 3 or col[ok].std() <= 1e-12:
                r = 0.0
            else:
                r = float(np.corrcoef(col[ok], y[ok])[0, 1])
            sums[j] += r
            counts[j] += 1
    avg = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    per_column = {col: float(avg[j]) for j, col in enumerate(schema.columns)}
    weak = [name for name in schema.names
            if np.all(np.abs(avg[schema.column_index([name])]) < threshold)]
    return {"per_column": per_column, "weak": weak, "threshold": threshold}


# -- wrapper selection --------------------------------------------------


def _pooled_ls_mae(zs: list[tuple[np.ndarray, np.ndarray]],
                   cols: np.ndarray) -> float:
    """Temporal-holdout MAE of per-vehicle least-squares fits on the
    ``cols`` of each vehicle's standardized matrix.

    Each vehicle's stream is fit on its earliest days and scored on the
    most recent ones, mirroring the online setting; an extra feature only
    helps the score if it generalizes forward in time."""
    total_err = 0.0
    total_n = 0
    for z, y in zs:
        a = np.hstack([z[:, cols], np.ones((len(z), 1))])
        cut = len(y) - int(LS_HOLDOUT_FRACTION * len(y))
        if cut < 2 or cut >= len(y):
            cut = max(len(y) - 1, 1)
        theta, *_ = np.linalg.lstsq(a[:cut], y[:cut], rcond=None)
        total_err += float(np.abs(a[cut:] @ theta - y[cut:]).sum())
        total_n += len(y) - cut
    return total_err / total_n if total_n else math.inf


def forward_sfs(encoded: list[tuple[np.ndarray, np.ndarray]],
                schema: FeatureSchema) -> dict:
    """Greedy forward selection of descriptors against a least-squares
    scorer.  One-hot and sine/cosine groups move as a unit.  A step is
    only taken when it improves the pooled holdout MAE by at least the
    ``SFS_MIN_GAIN`` relative margin, so chance-level fluctuations from
    irrelevant columns do not extend the selection.  Each vehicle's
    ``encode_batch`` pair under ``schema`` is standardized once, which
    works column by column, and every candidate scores columns of it."""
    zs = [(_standardize_columns(x), y) for x, y in encoded]
    chosen: list[str] = []
    remaining = list(schema.names)
    best_score = math.inf
    history = []
    while remaining:
        step_best = None
        step_score = best_score
        for name in remaining:  # schema order, so ties keep earlier names
            # columns in the order chosen, as the scorer's fit sees them
            score = _pooled_ls_mae(zs, schema.column_index(chosen + [name]))
            if score < step_score * (1.0 - SFS_MIN_GAIN):
                step_score = score
                step_best = name
        if step_best is None:
            break
        chosen.append(step_best)
        remaining.remove(step_best)
        best_score = step_score
        history.append({"added": step_best, "mae": step_score})
    return {"selected": chosen, "history": history, "mae": best_score}


# -- redundancy ---------------------------------------------------------


def vif_scores(x: np.ndarray) -> np.ndarray:
    """Variance inflation factor per column of a standardized matrix."""
    n, d = x.shape
    out = np.empty(d)
    for j in range(d):
        others = np.hstack([np.delete(x, j, axis=1), np.ones((n, 1))])
        theta, *_ = np.linalg.lstsq(others, x[:, j], rcond=None)
        resid = x[:, j] - others @ theta
        total = float(((x[:, j] - x[:, j].mean()) ** 2).sum())
        if total <= 1e-12:
            out[j] = 1.0
            continue
        r2 = 1.0 - float((resid ** 2).sum()) / total
        out[j] = math.inf if r2 >= 1.0 - 1e-12 else 1.0 / (1.0 - r2)
    return out


def vif_prune(encoded: list[tuple[np.ndarray, np.ndarray]],
              schema: FeatureSchema, names: list[str]) -> dict:
    """Iteratively drop the descriptor among ``names`` owning the
    worst-inflated column while its VIF exceeds ``VIF_THRESHOLD``.

    One-hot groups are exempt: their columns are mutually exclusive
    indicators whose joint collinearity with the intercept is structural,
    not a sign of redundant information.  ``encoded`` holds one
    ``encode_batch`` pair per vehicle under the whole ``schema``; the
    stacked cohort is standardized once, which works column by column,
    so every round scores exactly the columns an encoding under the
    named descriptors alone would give.
    """
    numeric = [s.name for s in schema.subset(names).specs
               if s.kind != "onehot"]
    dropped: list[str] = []
    if len(numeric) >= 2:
        z = _standardize_columns(np.vstack([x for x, _ in encoded]))
    while len(numeric) >= 2:
        cols = schema.column_index(numeric)
        vifs = vif_scores(z[:, cols])
        worst = int(np.argmax(vifs))
        if not vifs[worst] > VIF_THRESHOLD:
            break
        victim = next(n for n in numeric
                      if cols[worst] in schema.column_index([n]))
        dropped.append(victim)
        numeric.remove(victim)
    work = schema.subset([n for n in names if n not in dropped])
    return {"schema": work, "dropped": dropped}


# -- full-loop wrappers -------------------------------------------------


def backward_sfs(examples_by_vehicle: dict[str, list[DailyExample]],
                 schema: FeatureSchema, target: str, kind: str,
                 run_seed: int = 0, hyper: dict | None = None,
                 warmup: int = DEFAULT_WARMUP) -> dict:
    """Drop descriptors one at a time while the progressive-validation
    MAE strictly improves.  Expensive; meant for a small tuning cohort."""

    def score(s: FeatureSchema) -> float:
        results, _ = evaluate_fleet(examples_by_vehicle, kind, s, target,
                                    run_seed=run_seed, warmup=warmup,
                                    hyper=hyper)
        return results["aggregate"]["mae"]

    work = schema
    best = score(work)
    removed: list[str] = []
    improved = True
    while improved and len(work.names) > 1:
        improved = False
        for name in list(work.names):
            candidate = work.subset([n for n in work.names if n != name])
            mae = score(candidate)
            if mae < best - 1e-12:
                best = mae
                work = candidate
                removed.append(name)
                improved = True
                break
    return {"schema": work, "removed": removed, "mae": best}


def combine_screens(schema: FeatureSchema, weak_pearson: list[str],
                    sfs_selected: list[str]) -> FeatureSchema:
    """Drop descriptors disfavored by BOTH screens; keep everything else."""
    doomed = set(weak_pearson) - set(sfs_selected)
    return schema.subset([n for n in schema.names if n not in doomed])


def grid_search(examples_by_vehicle: dict[str, list[DailyExample]],
                schema: FeatureSchema, target: str, kind: str,
                grid: dict[str, list], run_seed: int = 0,
                warmup: int = DEFAULT_WARMUP) -> dict:
    """Exhaustive search over the cartesian product of ``grid``.

    Combinations are scored by pooled progressive-validation MAE; ties
    keep the earliest combination in product order, so results do not
    depend on dict hashing.  A combination whose learner diverges, or
    whose MAE is not finite, is recorded with ``"mae": None`` and
    skipped; ConfigError is raised when every combination is."""
    if not grid or any(len(v) == 0 for v in grid.values()):
        raise ValueError("grid must name at least one non-empty axis")
    keys = list(grid)
    results = []
    best = None
    for combo in itertools.product(*(grid[k] for k in keys)):
        hyper = dict(zip(keys, combo))
        try:
            res, _ = evaluate_fleet(examples_by_vehicle, kind, schema, target,
                                    run_seed=run_seed, warmup=warmup,
                                    hyper=hyper)
            mae = res["aggregate"]["mae"]
        except DivergenceError:
            mae = math.nan
        finite = math.isfinite(mae)
        results.append({"params": hyper, "mae": mae if finite else None})
        if finite and (best is None or mae < best["mae"] - 1e-12):
            best = {"params": hyper, "mae": mae}
    if best is None:
        raise ConfigError(f"tune.grids.{kind}",
                          f"every setting diverged on {target}")
    return {"best": best["params"], "best_mae": best["mae"],
            "results": results}
