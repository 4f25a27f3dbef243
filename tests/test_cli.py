"""Tests for configuration handling and the staged pipeline CLI."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import drivecast
from drivecast.cli import main
from drivecast.config import (
    DEFAULT_CONFIG,
    config_digest,
    load_config,
    validate_config,
)
from drivecast.exceptions import ConfigError
from drivecast.features import PART_OF_DAY_CATEGORIES, default_schema


# configs that name a boolean where a number belongs, or an entry twice,
# with the field each is refused on
BOOLEANS_AND_DUPLICATES = [
    ({"evaluate": {"within_tol": {"departure": True, "distance": 5.0}}},
     "evaluate.within_tol.departure"),
    ({"tune": {"grids": {"qr": {"lr": [True]}}}}, "tune.grids.qr.lr"),
    ({"tune": {"grids": {"qr": {"l2": [False]}}}}, "tune.grids.qr.l2"),
    ({"tune": {"grids": {"mcnn": {"lr": [True]}}}}, "tune.grids.mcnn.lr"),
    ({"tune": {"grids": {"mcnn": {"dropout": [False]}}}},
     "tune.grids.mcnn.dropout"),
    ({"tune": {"grids": {"mcnn": {"max_grad_norm": [True]}}}},
     "tune.grids.mcnn.max_grad_norm"),
    ({"tune": {"grids": {"qarf": {"warn_delta": [True]}}}},
     "tune.grids.qarf.warn_delta"),
    ({"evaluate": {"models": ["qr", "qr"]}}, "evaluate.models"),
    ({"evaluate": {"targets": ["distance", "distance"]}},
     "evaluate.targets"),
    ({"tune": {"grids": {"qknn": {"k": [5, 10, 5.0]}}}}, "tune.grids.qknn.k"),
]


class TestConfig:
    def test_defaults_validate(self):
        cfg = load_config(None)
        assert cfg == validate_config(cfg)
        assert cfg["evaluate"]["warmup"] == 20

    def test_file_overrides_merge_deeply(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(
            {"seed": 9, "synth": {"n_days": 50}}))
        cfg = load_config(path)
        assert cfg["seed"] == 9
        assert cfg["synth"]["n_days"] == 50
        # untouched siblings keep their defaults
        assert cfg["synth"]["n_regular"] == \
            DEFAULT_CONFIG["synth"]["n_regular"]

    def test_explicit_overrides_win(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 9}))
        cfg = load_config(path, {"seed": 11})
        assert cfg["seed"] == 11

    @pytest.mark.parametrize("bad, field", [
        ({"sede": 1}, "sede"),
        ({"synth": {"n_days": 1}}, "synth.n_days"),
        ({"seed": -1}, "seed"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"evaluate": {"models": ["nope"]}}, "evaluate.models"),
        ({"evaluate": {"targets": []}}, "evaluate.targets"),
        ({"evaluate": {"confidence": 1.0}}, "evaluate.confidence"),
        ({"evaluate": {"within_tol": {"departure": -1.0}}},
         "evaluate.within_tol"),
        ({"tune": {"grids": {"nope": {"k": [1]}}}}, "tune.grids.nope"),
        ({"tune": {"grids": {"qknn": {"k": []}}}}, "tune.grids.qknn.k"),
        ({"synth": {"drift": {"day": -1}}}, "synth.drift.day"),
        ({"synth": {"drift": {"day": 1, "fraction": 2.0}}},
         "synth.drift.fraction"),
        ({"select": {"holdout_fraction": 0.95}},
         "select.holdout_fraction"),
        ({"tune": {"grids": {"qknn": {"k": [10.5]}}}}, "tune.grids.qknn.k"),
        ({"tune": {"grids": {"mcnn": {"hidden": [[16, 8.5]]}}}},
         "tune.grids.mcnn.hidden"),
        # settings that are module constants now, named at their old values
        ({"select": {"holdout_fraction": 0.2}}, "select.holdout_fraction"),
        ({"select": {"pearson_threshold": 0.02}}, "select.pearson_threshold"),
        ({"select": {"sfs_min_gain": 0.01}}, "select.sfs_min_gain"),
        ({"select": {"vif_threshold": 10.0}}, "select.vif_threshold"),
        ({"evaluate": {"curve_stride": 10}}, "evaluate.curve_stride"),
        ({"tune": {"grids": {"qr": {"lr_decay": [0.01]}}}},
         "tune.grids.qr.lr_decay"),
        ({"tune": {"grids": {"qarf": {"lambda_bag": [6.0]}}}},
         "tune.grids.qarf.lambda_bag"),
        ({"tune": {"grids": {"qarf": {"delta_split": [1e-5]}}}},
         "tune.grids.qarf.delta_split"),
        ({"tune": {"grids": {"qarf": {"tie_tau": [0.05]}}}},
         "tune.grids.qarf.tie_tau"),
        ({"tune": {"grids": {"qarf": {"sketch_k": [64]}}}},
         "tune.grids.qarf.sketch_k"),
        # json writes and reads NaN and Infinity; a config may hold neither
        ({"synth": {"drift": {"day": 1, "fraction": 1.0,
                              "departure_shift": float("nan")}}},
         "synth.drift.departure_shift"),
        ({"evaluate": {"within_tol": {"departure": float("nan")}}},
         "evaluate.within_tol.departure"),
        ({"synth": {"drift": {"day": 1, "duration": float("inf")}}},
         "synth.drift.duration"),
        ({"evaluate": {"confidence": -float("inf")}}, "evaluate.confidence"),
        ({"synth": {"drift": {"day": True}}}, "synth.drift.day"),
        ({"synth": {"drift": {"day": 1, "fraction": True}}},
         "synth.drift.fraction"),
    ])
    def test_rejects_bad_values(self, tmp_path, bad, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.field.startswith(field.split(".")[0])

    @pytest.mark.parametrize("bad, field", BOOLEANS_AND_DUPLICATES)
    def test_rejects_booleans_as_numbers_and_duplicates(self, bad, field):
        """``True`` is not 1.0, and naming a model, target or grid value
        twice would run it twice."""
        with pytest.raises(ConfigError) as err:
            load_config(None, bad)
        assert err.value.field == field

    @pytest.mark.parametrize("text, field", [
        ('{"evaluate": {"confidence": 1e999}}', "evaluate.confidence"),
        ('{"tune": {"grids": {"qr": {"lr": [0.1, NaN]}}}}',
         "tune.grids.qr.lr[1]"),
        ('{"synth": {"drift": {"day": 1, "distance_shift": -Infinity}}}',
         "synth.drift.distance_shift"),
    ])
    def test_rejects_non_finite_text(self, tmp_path, text, field):
        path = tmp_path / "c.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match="finite") as err:
            load_config(path)
        assert err.value.field == field

    @pytest.mark.parametrize("overrides, field", [
        ({"evaluate": {"within_tol": {"departure": float("nan"),
                                      "distance": 5.0}}},
         "evaluate.within_tol.departure"),
        ({"synth": {"drift": {"day": 1, "departure_shift": float("nan"),
                              "fraction": 1.0}}},
         "synth.drift.departure_shift"),
    ])
    def test_overrides_must_be_finite(self, overrides, field):
        with pytest.raises(ConfigError, match="finite") as err:
            load_config(None, overrides)
        assert err.value.field == field

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_readme_block_is_the_defaults(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == DEFAULT_CONFIG

    def test_digest_ignores_out_dir_only(self):
        a = load_config(None)
        b = load_config(None, {"out_dir": "elsewhere"})
        c = load_config(None, {"seed": 1})
        assert config_digest(a) == config_digest(b)
        assert config_digest(a) != config_digest(c)


def write_config(tmp_path, **extra):
    cfg = {
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
        "synth": {"n_regular": 5, "n_irregular": 2, "n_days": 80},
        "select": {"n_select": 5, "max_vehicles": 3},
        "tune": {"max_vehicles": 2, "grids": {"qknn": {"k": [5, 15]}}},
        "evaluate": {"models": ["mean", "qknn"], "warmup": 10},
    }
    cfg.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    """One full tiny pipeline, shared by the read-only assertions."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(tmp_path)
    code = main(["all", "--config", str(cfg_path)])
    assert code == 0
    return tmp_path, cfg_path


class TestPipeline:
    def test_all_stages_produce_artifacts(self, pipeline_run):
        tmp_path, _ = pipeline_run
        out = tmp_path / "out"
        for rel in ("synth/sessions.csv", "synth/truth.json",
                    "preprocess/examples.csv", "preprocess/summary.json",
                    "select/selection.json", "tune/tuned.json",
                    "evaluate/results.json",
                    "evaluate/records_qknn_departure.csv",
                    "report/report.md"):
            assert (out / rel).exists(), rel
        for stage in ("synth", "preprocess", "select", "tune",
                      "evaluate", "report"):
            assert (out / stage / "manifest.json").exists()

    def test_manifest_hashes_match_files(self, pipeline_run):
        tmp_path, _ = pipeline_run
        stage_dir = tmp_path / "out" / "evaluate"
        manifest = json.loads((stage_dir / "manifest.json").read_text())
        assert set(manifest) == {"stage", "seed", "config_sha256",
                                 "inputs", "outputs"}  # and no timestamps
        assert manifest["stage"] == "evaluate"
        assert manifest["seed"] == 5
        for name, digest in manifest["outputs"].items():
            got = hashlib.sha256((stage_dir / name).read_bytes()).hexdigest()
            assert got == digest, name
        # every file the stage read, tuned params included
        inputs = {"examples.csv": "preprocess", "selection.json": "select",
                  "tuned.json": "tune"}
        assert set(manifest["inputs"]) == set(inputs)
        for name, stage in inputs.items():
            path = tmp_path / "out" / stage / name
            got = hashlib.sha256(path.read_bytes()).hexdigest()
            assert manifest["inputs"][name] == got, name

    @pytest.mark.parametrize("stage, inputs", [
        ("synth", []),
        ("preprocess", ["synth/sessions.csv"]),
        ("select", ["preprocess/examples.csv"]),
        ("tune", ["preprocess/examples.csv", "select/selection.json"]),
        ("evaluate", ["preprocess/examples.csv", "select/selection.json",
                      "tune/tuned.json"]),
        ("report", ["evaluate/results.json"]),
    ])
    def test_manifest_is_exact(self, pipeline_run, stage, inputs):
        """A manifest hashes every file its stage read, and every file
        in the stage directory but itself."""
        out = pipeline_run[0] / "out"
        manifest = json.loads((out / stage / "manifest.json").read_text())
        assert manifest["inputs"] == {
            Path(rel).name: hashlib.sha256((out / rel).read_bytes())
            .hexdigest() for rel in inputs}
        assert manifest["outputs"] == {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (out / stage).iterdir() if p.name != "manifest.json"}

    def test_evaluate_without_tune_reads_no_tuned_json(self, pipeline_run,
                                                        tmp_path, capsys):
        shutil.copytree(pipeline_run[0] / "out", tmp_path / "out")
        shutil.rmtree(tmp_path / "out" / "tune")
        cfg = write_config(tmp_path)
        assert main(["evaluate", "--config", str(cfg), "--models", "mean",
                     "--targets", "departure"]) == 0
        assert "no tuned.json" in capsys.readouterr().err
        manifest = json.loads(
            (tmp_path / "out" / "evaluate" / "manifest.json").read_text())
        assert set(manifest["inputs"]) == {"examples.csv", "selection.json"}

    def test_results_structure(self, pipeline_run):
        tmp_path, _ = pipeline_run
        results = json.loads(
            (tmp_path / "out" / "evaluate" / "results.json").read_text())
        assert set(results) == {"departure", "distance"}
        assert set(results["departure"]) == {"mean", "qknn"}
        block = results["departure"]["qknn"]
        assert block["hyper"] == json.loads(
            (tmp_path / "out" / "tune" / "tuned.json").read_text()
        )["departure"]["qknn"]["params"]
        assert 0.0 < block["aggregate"]["picp"] <= 1.0

    def test_report_mentions_models(self, pipeline_run):
        tmp_path, _ = pipeline_run
        text = (tmp_path / "out" / "report" / "report.md").read_text()
        assert "qknn" in text and "mean" in text
        assert "departure" in text and "distance" in text

    def test_backward_elimination_trims_the_schema(self, pipeline_run,
                                                   tmp_path):
        shutil.copytree(pipeline_run[0] / "out", tmp_path / "out")
        cfg = write_config(tmp_path, select={"n_select": 5, "max_vehicles": 3,
                                             "run_backward": True})
        assert main(["select", "--config", str(cfg)]) == 0
        selection = json.loads(
            (tmp_path / "out" / "select" / "selection.json").read_text())
        for target, block in selection["features"].items():
            names = block["descriptors"]
            assert not set(block["backward_removed"]) & set(names), target
            assert block["n_features"] == \
                default_schema().subset(names).dim, target

    def test_rerun_is_byte_identical(self, pipeline_run):
        tmp_path, cfg_path = pipeline_run
        out2 = tmp_path / "out2"
        assert main(["all", "--config", str(cfg_path),
                     "--out", str(out2)]) == 0
        out1 = tmp_path / "out"
        files1 = sorted(p.relative_to(out1)
                        for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2)
                        for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


# SHA-256 of selection.json's per-target feature blocks (both screens,
# VIF drops, chosen descriptors) on the tiny pipeline config; see
# TestGoldenSelection.  Recorded when a block still held the chosen
# descriptors' full specs, with their names put in their place.
GOLDEN_SELECTION_DIGEST = \
    "3363b38720e8b577a5bb03fed0ee17986a960b3137e3e62d78aaa7f3bc0bf1d6"


class TestGoldenSelection:
    def test_features_block_of_every_target(self, tmp_path):
        """Every screen score and chosen descriptor pinned: json writes
        a float's ``repr``, so a one-ulp change moves the digest."""
        cfg = write_config(tmp_path)
        for stage in ("synth", "preprocess", "select"):
            assert main([stage, "--config", str(cfg)]) == 0
        features = json.loads(
            (tmp_path / "out" / "select" / "selection.json").read_text()
        )["features"]
        text = json.dumps(features, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            GOLDEN_SELECTION_DIGEST


class TestStageIsolation:
    def test_synth_only(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert (out / "synth" / "sessions.csv").exists()
        assert not (out / "preprocess").exists()

    def test_missing_upstream_is_exit_3(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["preprocess", "--config", str(cfg)]) == 3
        assert "synth" in capsys.readouterr().err

    def test_seed_override_changes_synth(self, tmp_path):
        cfg = write_config(tmp_path)
        main(["synth", "--config", str(cfg)])
        base = (tmp_path / "out" / "synth" / "sessions.csv").read_bytes()
        main(["synth", "--config", str(cfg), "--seed", "6",
              "--out", str(tmp_path / "o6")])
        main(["synth", "--config", str(cfg), "--seed", "5",
              "--out", str(tmp_path / "o5")])
        assert (tmp_path / "o6" / "synth" /
                "sessions.csv").read_bytes() != base
        assert (tmp_path / "o5" / "synth" /
                "sessions.csv").read_bytes() == base


class TestCliErrors:
    def test_bad_config_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"sede": 3}))
        assert main(["synth", "--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad, field", BOOLEANS_AND_DUPLICATES)
    def test_boolean_or_duplicate_is_one_line_exit_2(self, tmp_path, capsys,
                                                     bad, field):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**bad, "out_dir": str(tmp_path / "out")}))
        assert main(["synth", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "config error" in err and field in err

    def test_absent_config_is_exit_2(self, tmp_path):
        assert main(["synth", "--config",
                     str(tmp_path / "nope.json")]) == 2

    def test_corrupt_data_is_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        sessions = tmp_path / "out" / "synth" / "sessions.csv"
        lines = sessions.read_text().splitlines()
        parts = lines[1].split(",")
        # swap the start and end timestamps of the first session
        parts[2], parts[3] = parts[3], parts[2]
        lines[1] = ",".join(parts)
        sessions.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", "--config", str(cfg)]) == 4
        assert "data error" in capsys.readouterr().err

    def test_non_finite_session_number_is_exit_4(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        sessions = tmp_path / "out" / "synth" / "sessions.csv"
        lines = sessions.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if ",drive," in line)
        parts = lines[row].split(",")
        parts[4] = "inf"  # distance_km
        lines[row] = ",".join(parts)
        sessions.write_text("\n".join(lines) + "\n")
        assert main(["preprocess", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert f"row {row + 1}: bad number in distance_km: 'inf'" in err
        assert not (tmp_path / "out" / "preprocess").exists()

    @pytest.mark.parametrize("stage, rel, text", [
        ("tune", "select/selection.json", "{}"),
        ("tune", "select/selection.json", "[1]"),
        ("evaluate", "select/selection.json", '{"cohort": {}}'),
        ("evaluate", "tune/tuned.json", "[]"),
        ("report", "evaluate/results.json", "{}"),
        ("report", "evaluate/results.json", '{"departure": {}}'),
        ("tune", "select/selection.json", "{not json"),
        ("evaluate", "tune/tuned.json", "{not json"),
        ("report", "evaluate/results.json", "{not json"),
    ])
    def test_malformed_artifact_is_exit_4(self, pipeline_run, tmp_path,
                                          capsys, stage, rel, text):
        shutil.copytree(pipeline_run[0] / "out", tmp_path / "out")
        (tmp_path / "out" / rel).write_text(text)
        cfg = write_config(tmp_path)
        assert main([stage, "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert f"data error: {tmp_path / 'out' / rel}: malformed" in err

    def test_old_selection_format_is_exit_4(self, pipeline_run, tmp_path,
                                            capsys):
        """A selection.json that stores each target's full schema, as
        earlier versions wrote it, is refused: rerun select."""
        shutil.copytree(pipeline_run[0] / "out", tmp_path / "out")
        path = tmp_path / "out" / "select" / "selection.json"
        selection = json.loads(path.read_text())
        for block in selection["features"].values():
            specs = default_schema().subset(block.pop("descriptors")).specs
            block["schema"] = {"version": 1, "specs": [
                {"name": sp.name, "kind": sp.kind, "source": sp.source,
                 "period": sp.period, "offset": sp.offset,
                 "categories": list(sp.categories)} for sp in specs]}
        path.write_text(json.dumps(selection))
        cfg = write_config(tmp_path)
        assert main(["tune", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert f"data error: {path}: malformed: KeyError('descriptors')" \
            in err

    @pytest.mark.parametrize("stage", ["tune", "evaluate"])
    def test_warmup_past_every_stream_is_exit_2(self, pipeline_run, tmp_path,
                                                capsys, stage):
        shutil.copytree(pipeline_run[0] / "out", tmp_path / "out")
        cfg = write_config(tmp_path, evaluate={"models": ["mean", "qknn"],
                                               "warmup": 1000})
        assert main([stage, "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "config error: evaluate.warmup: " in err

    def test_model_filter(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["synth", "--config", str(cfg)]) == 0
        assert main(["preprocess", "--config", str(cfg)]) == 0
        assert main(["select", "--config", str(cfg)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--models", "mean",
                     "--targets", "departure"]) == 0
        results = json.loads(
            (tmp_path / "out" / "evaluate" / "results.json").read_text())
        assert list(results) == ["departure"]
        assert list(results["departure"]) == ["mean"]

    @pytest.mark.parametrize("stage, grids, dawn, tuned, code", [
        ("tune", {"qknn": {"kk": [3]}}, False, None, 2),  # misspelled name
        ("select", {}, True, None, 4),  # one-hot category the schema lacks
        ("tune", {"qr": {"lr": [1e300]}}, False, None, 2),  # all diverge
        ("evaluate", {}, False, ("qr", {"kk": 3}), 2),  # names no param
        ("evaluate", {}, False, ("qr", {"lr": 1e300}), 2),  # diverges
        ("evaluate", {}, False, ("qr", [0.1]), 2),  # params not an object
        ("tune", {"qknn": {"k": [10.5]}}, False, None, 2),  # truncated count
        ("tune", {"qknn": {"k": [True]}}, False, None, 2),  # count as a bool
        ("tune", {"qarf": {"n_tree": [5]}}, False, None, 2),  # no tree takes
        ("tune", {"qarf": {"n_bins": [1]}}, False, None, 2),  # no split
        ("tune", {"qarf": {"tie_tau": [0.1]}}, False, None, 2),  # a constant
        ("tune", {"qarf": {"subspace": [-1]}}, False, None, 2),
        ("tune", {"qarf": {"subspace": [2.5]}}, False, None, 2),
        ("tune", {"qarf": {"grace_period": [-5]}}, False, None, 2),
        ("tune", {"qarf": {"grace_period": [2.5]}}, False, None, 2),
        # a window below min_neighbors: qknn never answers
        ("tune", {"qknn": {"window": [3]}}, False, None, 2),
        ("evaluate", {}, False, ("qknn", {"window": 3}), 2),
    ], ids=["unknown-param", "unknown-category", "all-diverge",
            "tuned-unknown-param", "tuned-diverges", "tuned-not-object",
            "fractional-count", "boolean-count", "forwarded-unknown-param",
            "one-bin", "constant-param", "negative-subspace",
            "fractional-subspace", "negative-grace-period",
            "fractional-grace-period", "all-abstain", "tuned-all-abstain"])
    def test_bad_input_is_one_line_error(self, pipeline_run, tmp_path, stage,
                                         grids, dawn, tuned, code):
        shutil.copytree(pipeline_run[0] / "out", tmp_path / "out")
        cfg = write_config(tmp_path, tune={"max_vehicles": 2, "grids": grids},
                           evaluate={"models": ["mean", "qr", "qknn"],
                                     "warmup": 10})
        if tuned is not None:
            kind, params = tuned
            path = tmp_path / "out" / "tune" / "tuned.json"
            edited = json.loads(path.read_text())
            edited["departure"][kind] = {"params": params, "mae": 1.0}
            path.write_text(json.dumps(edited))
        if dawn:
            path = tmp_path / "out" / "preprocess" / "examples.csv"
            text = path.read_text()
            for category in PART_OF_DAY_CATEGORIES:
                text = text.replace(f",{category},", ",dawn,")
            path.write_text(text)
        env = {**os.environ,
               "PYTHONPATH": str(Path(drivecast.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "drivecast.cli", stage, "--config",
             str(cfg)], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        if tuned is not None:
            assert f"tuned.json departure.{kind}" in proc.stderr
