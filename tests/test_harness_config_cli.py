"""Config file round-trips, stage-tagged failures, and the CLI surface."""
import csv
import io
import json
import math
import re
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from cli_checks import run_checks
from conftest import json_edited, json_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedboost.classifiers.adapters import IdentityAdapter, KnnAdapter, SvmAdapter
from guidedboost.classifiers.linear import LinearConfig, SvmConfig
from guidedboost.data import confusion_partition
from guidedboost.harness import cli
from guidedboost.harness.cli import main
from guidedboost.harness.config import (
    BASE_KINDS,
    BASE_PARAMS,
    ExperimentConfig,
    SyntheticSpec,
    config_from_dict,
    config_to_dict,
    load_config,
    save_config,
)
from guidedboost.harness import experiment
from guidedboost.harness.experiment import VARIANTS, StageError, prepare, run_experiment
from guidedboost.nn.network import encoder_spec, projection_spec
from guidedboost.nn.training import TrainConfig
from guidedboost.persistence import load
from guidedboost.pipeline import MODEL_PAIRS, RetrainConfig
from guidedboost.thresholding import ToleranceConfig, select_thresholds, tolerated_counts


def _small_cfg(**overrides):
    base = dict(
        synthetic=SyntheticSpec(n_per_class=100, n_features=3, seed=0),
        base="logistic",
        tolerance=ToleranceConfig(X=5.0, Y=5.0),
        retrain=RetrainConfig(
            encoder=encoder_spec((8, 4)),
            projection=projection_spec((4, 2)),
            train=TrainConfig(max_epochs=3, patience=2, learning_rate=0.01),
        ),
        feature_top_k=0,
        seed=0,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_config_round_trip_synthetic():
    cfg = _small_cfg(base="forest", base_params={"n_trees": 7}, feature_top_k=2,
                     fractions=(0.6, 0.2, 0.2), seed=9, out_dir="somewhere")
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_round_trip_path():
    cfg = ExperimentConfig(data_path="d.csv", data_format="sparse", base="knn")
    back = config_from_dict(config_to_dict(cfg))
    assert back == cfg
    assert back.data_path == "d.csv"
    assert back.synthetic is None


def test_config_defaults_from_empty_dict():
    cfg = config_from_dict({"data": {"path": "x.csv"}})
    assert cfg.base == "svm"
    assert cfg.tolerance == ToleranceConfig(5.0, 5.0)
    assert cfg.retrain.encoder.layer_widths == (256, 128, 64, 32)
    assert cfg.feature_top_k == 0


@pytest.mark.parametrize("edit, key", [
    ({"feature_topk": 3}, "feature_topk"),
    ({"tolerance": {"x": 1.0}}, "tolerance.x"),
    ({"base": {"kind": "svm", "param": {"epochs": 3}}}, "base.param"),
    ({"data": {"path": "d.csv", "fromat": "sparse"}}, "data.fromat"),
    ({"data": {"synthetic": {"n_per_class": 10}, "path": "d.csv"}}, "data.path"),
    ({"seed": 1.7}, "seed"),
    ({"feature_top_k": 2.0}, "feature_top_k"),
    ({"base": "svm"}, "base"),
    (None, "config"),  # a JSON list as the whole config
    ({"data": {"synthetic": {"planted": "no"}}}, "data.synthetic.planted"),
    ({"fractions": ["0.8", "0.1", "0.1"]}, "fractions"),
    ({"encoder_widths": ["8"]}, "encoder_widths"),
    ({"encoder_widths": 5}, "encoder_widths"),
    ({"train": {"max_epochs": 2.5}}, "train.max_epochs"),
    ({"train": {"max_epochs": "5"}}, "train.max_epochs"),
    ({"tolerance": {"X": "5"}}, "tolerance.X"),
    ({"out_dir": 5}, "out_dir"),
    ({"seed": -1}, "seed"),
    ({"tolerance": {"X": -1}}, "tolerance"),
    ({"base": {"kind": "x"}}, "base.kind"),
    ({"base": {"kind": "forest", "params": {"n_trees": 2.5}}}, "base.params.n_trees"),
    ({"base": {"kind": "svm", "params": {"epochs": -1}}}, "base.params.epochs"),
    ({"base": {"kind": "knn", "params": {"bogus": 1}}}, "base.params.bogus"),
    ({"base": {"kind": "logistic", "params": {"seed": 1}}}, "base.params.seed"),
    ({"base": {"kind": "svm", "params": {"learning_rate": 0}}}, "base.params"),
    ({"base": {"kind": "forest", "params": {"max_depth": -1}}}, "base.params.max_depth"),
    ({"base": {"kind": "svm", "params": {"regularization": -5.0}}},
     "base.params.regularization"),
    ({"base": {"kind": "logistic", "params": {"l2": -5}}}, "base.params.l2"),
    ({"data": {}}, "data"),
    ({"fractions": [0.5, -0.1, 0.6]}, "fractions[1]"),
    ({"fractions": [0.5, 0.5, 0.5]}, "fractions"),
    ({"fractions": [0.5, 0.5]}, "fractions"),
], ids=["top-level", "tolerance", "base", "data", "synthetic-and-path", "float-seed",
        "float-top-k", "section-not-object", "list", "string-planted", "string-fractions",
        "string-widths", "int-widths", "float-epochs", "string-epochs", "string-tolerance",
        "int-out-dir", "negative-seed", "tolerance-range", "unknown-kind", "float-trees",
        "negative-epochs", "unknown-knn-param", "linear-seed", "zero-learning-rate",
        "negative-depth", "negative-regularization", "negative-l2", "no-data-source",
        "negative-fraction", "fraction-sum", "two-fractions"])
def test_config_loader_rejects_what_it_does_not_know(edit, key, tmp_path, capsys):
    d = [] if edit is None else {"data": {"path": "d.csv"}, **edit}
    named = _named(key)
    with pytest.raises(ValueError, match=named):
        config_from_dict(d)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    assert main(["run", "--config", str(path)]) == 1
    assert re.search(rf"^error: run: .*{named}", capsys.readouterr().err)


def _named(key):
    """A pattern that finds key as a whole word, not as part of a longer key path."""
    return rf"(?<![\w.]){re.escape(key)}(?![\w.])"


_README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
QUICK_START = json.loads(
    _README.split("cat > config.json <<'EOF'\n", 1)[1].split("\nEOF\n", 1)[0]
)
# every value in the quick-start config, and each setting of its base kind,
# which its empty base.params leaves out
_QUICK_START_PATHS = [
    *json_paths(QUICK_START),
    *(("base", "params", f.name) for f in fields(BASE_PARAMS[QUICK_START["base"]["kind"]])),
]


def test_readme_quick_start_config_loads():
    cfg = config_from_dict(QUICK_START)
    assert (cfg.base, cfg.synthetic.n_per_class, cfg.retrain.train.max_epochs) == ("svm", 2000, 300)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(path=st.sampled_from(_QUICK_START_PATHS),
       value=st.sampled_from([None, "x", -1, 2.5, [], {}, True]))
def test_an_edited_quick_start_config_loads_or_names_the_key(path, value):
    """One value of the quick-start config replaced: the config loads, or the
    ValueError names the key path or a key on it (the section, or the key
    itself as a dataclass's range check spells it)."""
    keys = [k for k in path if isinstance(k, str)]
    try:
        config_from_dict(json_edited(QUICK_START, path, value))
    except ValueError as exc:
        names = [".".join(keys), *keys]
        assert any(re.search(_named(k), str(exc)) for k in names), (path, value, str(exc))


def test_save_and_load_config(tmp_path):
    cfg = _small_cfg(out_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_config(path)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig()
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(data_path="x.csv", synthetic=SyntheticSpec())
    with pytest.raises(ValueError, match="data_format"):
        ExperimentConfig(data_path="x.csv", data_format="parquet")
    with pytest.raises(ValueError, match="base must be one of"):
        ExperimentConfig(data_path="x.csv", base="xgboost")
    with pytest.raises(ValueError, match="summing to 1"):
        ExperimentConfig(data_path="x.csv", fractions=(0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="feature_top_k"):
        ExperimentConfig(data_path="x.csv", feature_top_k=-1)


def test_run_experiment_tags_failing_stage(tmp_path):
    cfg = ExperimentConfig(data_path=str(tmp_path / "missing.csv"))
    with pytest.raises(StageError, match="stage load:") as err:
        run_experiment(cfg)
    assert err.value.stage == "load"


@pytest.mark.parametrize("base", ["forest", "knn"])
@pytest.mark.parametrize("setting", ["min_leaf", "n_trees"])
@pytest.mark.parametrize("value", [0, -1])
def test_forest_counts_below_one_name_the_setting(base, setting, value):
    with pytest.raises(ValueError, match=f"base_params .* {setting} must be at least 1, got {value}"):
        _small_cfg(base=base, base_params={setting: value})


_NON_FINITE_RULES = [
    (TrainConfig, "learning_rate", "TrainConfig: learning_rate and temperature must be positive"),
    (TrainConfig, "temperature", "TrainConfig: learning_rate and temperature must be positive"),
    (LinearConfig, "learning_rate", "LinearConfig: need epochs >= 0 and learning_rate > 0, got"),
    (LinearConfig, "l2", "LinearConfig: settings must be finite, got"),
    (SvmConfig, "learning_rate", "SvmConfig: need epochs >= 0 and learning_rate > 0, got"),
    (SvmConfig, "regularization", "SvmConfig: settings must be finite, got"),
    (SyntheticSpec, "mean_negative", "SyntheticSpec: mean_negative must be below mean_positive"),
    (SyntheticSpec, "mean_positive", "SyntheticSpec: mean_negative must be below mean_positive"),
    (SyntheticSpec, "cov_scale", "SyntheticSpec: cov_scale must be non-negative"),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("cls, setting, rule", _NON_FINITE_RULES,
                         ids=[f"{cls.__name__}.{setting}" for cls, setting, _ in _NON_FINITE_RULES])
def test_settings_built_in_code_refuse_non_finite_values(cls, setting, rule, value):
    # the config-file loader refuses these already; a dataclass built in code must too
    with pytest.raises(ValueError, match=f"^{re.escape(rule)}"):
        cls(**{setting: value})


@pytest.mark.parametrize("cls, setting, base", [(LinearConfig, "l2", "logistic"),
                                                (SvmConfig, "regularization", "svm")])
def test_a_negative_linear_penalty_is_refused_naming_the_setting(cls, setting, base):
    # a negative penalty grows the weights every epoch instead of shrinking them
    with pytest.raises(ValueError, match=f"^{cls.__name__}: {setting} must be non-negative, "
                                         r"got -5\.0$"):
        cls(**{setting: -5.0})
    assert getattr(cls(**{setting: 0.0}), setting) == 0.0
    with pytest.raises(ValueError, match=f"base_params .* {setting} must be non-negative"):
        _small_cfg(base=base, base_params={setting: -5.0})


def test_unknown_base_params_fail_when_the_config_is_built():
    with pytest.raises(ValueError, match=r"base_params \{'bogus': 1\} do not fit base 'svm': .*'bogus'"):
        ExperimentConfig(synthetic=SyntheticSpec(n_per_class=50, n_features=3), base="svm",
                         base_params={"bogus": 1})


def test_a_run_that_cannot_retrain_says_why(tmp_path):
    # knn's in-sample error proxy reads q == 0 on every row at this size, so
    # every probability is 0 or 1 and no calibrated cut leaves a row difficult
    result = run_experiment(_small_cfg(base="knn", out_dir=str(tmp_path)))
    assert result.skipped == "difficult training set is empty"
    assert (result.guided, result.classic) == (None, None)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["skipped"] == result.skipped


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_prepare_calibrates_every_kind_on_its_one_scoring_pass(kind, monkeypatch):
    calls = []
    for adapter in (IdentityAdapter, SvmAdapter, KnnAdapter):
        def counted(self, X, score=adapter.predict_probabilities):
            calls.append(len(X))
            return score(self, X)

        for name in ("predict_probabilities", "routing_probabilities"):
            monkeypatch.setattr(adapter, name, counted, raising=False)
    cfg = _small_cfg(base=kind)
    prep = prepare(cfg)
    assert calls == [prep.train.n_samples, prep.val.n_samples, prep.test.n_samples]
    for split, report in prep.reports.items():
        assert np.array_equal(prep.routing[split], report.probabilities)
    tags = confusion_partition(prep.routing["validation"], prep.val.labels)
    budget = tolerated_counts(cfg.tolerance, int((tags == "FP").sum()), int((tags == "FN").sum()))
    assert prep.tolerated == budget
    assert prep.thresholds == select_thresholds(
        prep.reports["validation"].probabilities, tags, budget
    )


def test_prepare_lets_go_of_the_loaded_matrix(monkeypatch):
    loaded = []
    load_data = experiment.load_data

    def keep_a_weakref(cfg):
        data = load_data(cfg)
        loaded.append(weakref.ref(data))
        return data

    monkeypatch.setattr(experiment, "load_data", keep_a_weakref)
    prep = prepare(_small_cfg())
    assert len(loaded) == 1 and loaded[0]() is None
    assert (prep.n_samples, prep.n_raw_features) == (200, 3)


def test_raw_width_survives_feature_selection(tmp_path):
    result = run_experiment(_small_cfg(feature_top_k=2, out_dir=str(tmp_path)))
    assert result.skipped is None
    for pipe in (result.guided, result.classic):
        assert pipe.n_raw_features == 3 and len(pipe.feature_selection) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert (summary["n_samples"], summary["n_features"]) == (200, 3)


def test_guided_pair_tags_come_from_the_routing_probabilities(monkeypatch):
    cfg = _small_cfg()
    prep = prepare(cfg)
    seen, rounds = [], []
    guided_fit, run_all = experiment.guided_fit, experiment.run_all

    def record(train, probs, val, val_probs, retrain, seed, models_1_to_4):
        seen.append((train, probs, val, val_probs))
        return guided_fit(train, probs, val, val_probs, retrain, seed=seed,
                          models_1_to_4=models_1_to_4)

    def record_round(jobs):
        rounds.append(jobs)
        return run_all(jobs)

    def refuse(*args):
        raise AssertionError("the base scored the difficult rows a second time")

    monkeypatch.setattr(experiment, "guided_fit", record)
    monkeypatch.setattr(experiment, "run_all", record_round)
    monkeypatch.setattr(experiment, "_report_for", refuse)
    monkeypatch.setattr(experiment, "prepare", lambda cfg: prep)
    run_experiment(cfg, variants=("guided",))
    (train, probs, val, val_probs), = seen
    assert train.n_samples and val.n_samples  # fixture sanity: both splits reach the fit
    for split, part, data, got in (("train", prep.train, train, probs),
                                   ("validation", prep.val, val, val_probs)):
        hard = ~prep.thresholds.easy(prep.routing[split])
        assert np.array_equal(data.ids, part.ids[hard])
        assert np.array_equal(got, prep.routing[split][hard])
    # round 1: each pair Model's rows are its cells under the routing probabilities
    pair_jobs = rounds[0]
    assert pair_jobs  # fixture sanity: some pairing is trained
    hard = ~prep.thresholds.easy(prep.routing["train"])
    tags = confusion_partition(prep.routing["train"][hard], prep.train.labels[hard])
    for job in pair_jobs:
        k, rows = job.args[0], job.args[2]
        assert np.array_equal(rows, np.flatnonzero(np.isin(tags, MODEL_PAIRS[k - 1])))


# ------------------------------------------------------------ CLI

@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One full CLI run shared by the artifact checks below."""
    root = tmp_path_factory.mktemp("cli")
    out = root / "out"
    cfg = _small_cfg(out_dir=str(out))
    cfg_path = root / "cfg.json"
    save_config(cfg, cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert main(["synth", "--config", str(cfg_path)]) == 0
    return out


def test_cli_run_writes_bundle(run_dir, capsys):
    for name in ("metrics.csv", "summary.json", "config.json",
                 "curve_validation.csv", "curve_test.csv"):
        assert (run_dir / name).exists(), name
    header = (run_dir / "metrics.csv").read_text().splitlines()[0]
    assert header == "predictor,scope,n,accuracy,f1,errors,delta_errors,errors_reduction_pct"
    summary = json.loads((run_dir / "summary.json").read_text())
    assert summary["n_samples"] == 200
    assert "error_capture_pct" in summary


def test_run_metrics_rows_count_the_test_split(run_dir):
    prep = prepare(_small_cfg())
    test = prep.assignments["test"]
    n_test = prep.test.n_samples
    assert test.easy_ids and test.difficult_ids  # fixture sanity: both scopes reported
    rows = list(csv.DictReader(io.StringIO((run_dir / "metrics.csv").read_text())))
    n = {(r["predictor"], r["scope"]): int(r["n"]) for r in rows}
    assert n["base", "easy"] == len(test.easy_ids)
    assert n["base", "difficult"] == len(test.difficult_ids)
    assert n["base", "easy"] + n["base", "difficult"] == n_test
    for variant in ("guided", "classic"):
        assert n[variant, "combined"] == n_test
    # combined errors: the base's on the easy test rows plus the head's on
    # the difficult ones
    errors = {(r["predictor"], r["scope"]): int(r["errors"]) for r in rows}
    difficult = prep.difficult_test
    for variant in ("guided", "classic"):
        head = load(run_dir / f"pipeline_{variant}.zip").stage.predict(difficult.values)
        head_errors = int(np.sum(head != difficult.labels))
        assert errors[variant, "difficult"] == head_errors
        assert errors[variant, "combined"] == errors["base", "easy"] + head_errors


def _metrics_table(out):
    return list(csv.reader(io.StringIO((out / "metrics.csv").read_text())))


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_single_variant_run_writes_its_own_part_of_the_full_run(variant, run_dir, tmp_path):
    result = run_experiment(_small_cfg(out_dir=str(tmp_path)), variants=(variant,))
    others = [v for v in VARIANTS if v != variant]
    full = _metrics_table(run_dir)
    assert {row[0] for row in full[1:]} == {"base", *VARIANTS}  # fixture sanity
    assert _metrics_table(tmp_path) == [row for row in full if row[0] not in others]
    summary = json.loads((tmp_path / "summary.json").read_text())
    full_summary = json.loads((run_dir / "summary.json").read_text())
    assert summary == {key: value for key, value in full_summary.items()
                       if not key.startswith(tuple(f"{v}_" for v in others))}
    assert [p.name for p in tmp_path.glob("pipeline_*.zip")] == [f"pipeline_{variant}.zip"]
    assert getattr(result, variant) is not None
    assert all(getattr(result, v) is None for v in others)


def test_an_unknown_variant_is_named():
    with pytest.raises(ValueError, match="unknown variants.*'boosted'"):
        run_experiment(_small_cfg(), variants=("boosted",))


def test_cli_partial_commands(run_dir, tmp_path, capsys):
    cfg_path = run_dir.parent / "cfg.json"
    assert main(["train-base", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "train: n=" in out and "test: n=" in out
    assert (tmp_path / "base_metrics.csv").exists()

    assert main(["calibrate", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "th_n=" in out and "th_p=" in out
    thresholds = json.loads((tmp_path / "thresholds.json").read_text())
    assert 0.0 <= thresholds["th_n"] <= 0.5 <= thresholds["th_p"] <= 1.0

    assert main(["split", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    body = (tmp_path / "assignments.csv").read_text().splitlines()
    assert body[0] == "split,id,subset"
    assert {line.split(",")[2] for line in body[1:]} == {"easy", "difficult"}


def test_cli_evaluate_and_predict(run_dir, tmp_path, capsys):
    pipe = run_dir / "pipeline_guided.zip"
    data = run_dir / "synthetic.csv"
    assert pipe.exists() and data.exists()

    assert main(["evaluate", "--pipeline", str(pipe), "--data", str(data)]) == 0
    out = capsys.readouterr().out
    assert "whole:" in out and "easy:" in out and "difficult:" in out

    assert main(["predict", "--pipeline", str(pipe), "--data", str(data),
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "predictions.csv").read_text().splitlines()
    assert lines[0] == "id,prediction,route"
    assert len(lines) == 201
    routes = {line.split(",")[2] for line in lines[1:]}
    assert routes <= {"base", "auxiliary"}


def test_cli_reads_sparse_files_at_the_pipeline_width(run_dir, tmp_path, capsys):
    # the pipeline takes 3 features; the last is zero in every row, so no
    # sparse line mentions it
    rows = [(1, 0.5, -1.25), (0, -2.0, 0.75), (1, 3.0, 1.5), (0, -0.5, -3.0)]
    (tmp_path / "d.svm").write_text("".join(f"{y} 0:{a!r} 1:{b!r}\n" for y, a, b in rows))
    (tmp_path / "d.csv").write_text(
        "f0,f1,f2,label\n" + "".join(f"{a!r},{b!r},0.0,{y}\n" for y, a, b in rows)
    )
    pipe = str(run_dir / "pipeline_guided.zip")
    outputs = {}
    for fmt, name in (("sparse", "d.svm"), ("dense", "d.csv")):
        data = ["--pipeline", pipe, "--data", str(tmp_path / name), "--format", fmt]
        assert main(["evaluate", *data]) == 0, capsys.readouterr().err
        evaluated = capsys.readouterr().out
        assert main(["predict", *data]) == 0, capsys.readouterr().err
        outputs[fmt] = evaluated, capsys.readouterr().out
    assert outputs["sparse"] == outputs["dense"]
    assert len(outputs["sparse"][1].splitlines()) == 1 + len(rows)


def test_cli_determinism(run_dir, tmp_path):
    cfg = _small_cfg(out_dir=str(tmp_path / "again"))
    cfg_path = tmp_path / "cfg.json"
    save_config(cfg, cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "again" / "metrics.csv").read_text() == \
        (run_dir / "metrics.csv").read_text()


def test_cli_error_paths(tmp_path, capsys):
    assert main(["run"]) == 1
    assert "requires --config" in capsys.readouterr().err

    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error: run" in capsys.readouterr().err

    bad = tmp_path / "bad.zip"
    bad.write_text("not a zip")
    data = tmp_path / "d.csv"
    data.write_text("f0,label\n1.0,0\n2.0,1\n")
    assert main(["evaluate", "--pipeline", str(bad), "--data", str(data)]) == 1
    assert "not a readable pipeline container" in capsys.readouterr().err

    cfg_path = tmp_path / "path_cfg.json"
    save_config(ExperimentConfig(data_path=str(tmp_path / "missing.csv")), cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "stage load" in capsys.readouterr().err

    save_config(ExperimentConfig(data_path=str(data)), cfg_path)
    assert main(["synth", "--config", str(cfg_path)]) == 1
    assert "synthetic data section" in capsys.readouterr().err

    # the networks take the top-level seed alone, so train.seed is rejected
    d = config_to_dict(_small_cfg())
    d["train"]["seed"] = 3
    cfg_path.write_text(json.dumps(d))
    assert main(["run", "--config", str(cfg_path)]) == 1
    assert "'seed'" in capsys.readouterr().err

    with pytest.raises(SystemExit):
        main([])


def test_cli_seed_override(run_dir, tmp_path, capsys):
    cfg_path = run_dir.parent / "cfg.json"
    assert main(["calibrate", "--config", str(cfg_path), "--seed", "1"]) == 0
    seeded = capsys.readouterr().out
    assert main(["calibrate", "--config", str(cfg_path)]) == 0
    default = capsys.readouterr().out
    assert seeded != default  # different split, different thresholds line


def test_cli_seed_override_obeys_the_config_rule(run_dir, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cli, "run_experiment", lambda *a, **k: calls.append(a))
    cfg_path = run_dir.parent / "cfg.json"
    assert main(["run", "--config", str(cfg_path), "--seed", "-1"]) == 1
    assert re.search(rf"^error: run: .*{_named('seed')}", capsys.readouterr().err)
    assert calls == []  # no stage ran


def test_the_command_line_checks_pass_on_the_module_entry_point(tmp_path, monkeypatch):
    # the checks that CI runs on the installed console script
    monkeypatch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"))
    run_checks([sys.executable, "-m", "guidedboost.harness.cli"], tmp_path)
