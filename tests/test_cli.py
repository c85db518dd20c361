import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gesturelab.cli import main
from gesturelab.data import default_templates, generate_synthetic, load_dataset, save_dataset
from gesturelab.harness import config_from_dict, experiment_cells
from gesturelab.image import UndistortionMap
from gesturelab.svm import class_pairs, load_model


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    code = run_cli("synth", "--out", out, "--subjects", 2, "--reps", 4, "--seed", 9)
    assert code == 0
    return out


def test_synth_writes_loadable_dataset(dataset_dir):
    samples = load_dataset(dataset_dir)
    assert len(samples) == 2 * 10 * 4
    assert all(len(s.images) == 1 for s in samples)


def test_extract_then_train_then_predict(tmp_path, dataset_dir):
    features = tmp_path / "features.npz"
    assert run_cli("extract", "--manifest", dataset_dir, "--out", features) == 0
    data = np.load(features)
    assert data["tracking"].shape == (80, 25)
    assert data["hog"].shape == (80, 1764)

    model_path = tmp_path / "model.json"
    code = run_cli(
        "train",
        "--features-file", features,
        "--features", "ang+dist+tip",
        "--k", 1.0,
        "--c", 10.0,
        "--gamma", 0.02,
        "--out", model_path,
    )
    assert code == 0
    model = load_model(model_path)
    assert model.n_pairs == 45
    assert model.preprocessing.fusion.hog_dim == 1764

    predictions = tmp_path / "pred.csv"
    code = run_cli(
        "predict",
        "--model", model_path,
        "--features-file", features,
        "--out", predictions,
    )
    assert code == 0
    lines = predictions.read_text().strip().split("\n")
    assert lines[0] == "sample_id,true,pred,votes"
    assert len(lines) == 81


def test_predict_from_dataset(tmp_path, dataset_dir):
    features = tmp_path / "f.npz"
    run_cli("extract", "--manifest", dataset_dir, "--no-hog", "--out", features)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train",
        "--features-file", features,
        "--no-hog",
        "--features", "ang+dist+tip",
        "--c", 10.0,
        "--gamma", 0.5,
        "--out", model_path,
    )
    assert code == 0
    out = tmp_path / "p.csv"
    code = run_cli("predict", "--model", model_path, "--manifest", dataset_dir, "--out", out)
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    correct = sum(r.split(",")[1] == r.split(",")[2] for r in rows)
    assert correct / len(rows) > 0.9  # training data, should be near-perfect


def test_hog_asked_for_without_hog_features_is_a_data_error(tmp_path, dataset_dir, capsys):
    # --use-hog is the default; features extracted with --no-hog have no
    # HOG to fuse, so neither a model nor a CV table is written.
    hogless, full = tmp_path / "hogless.npz", tmp_path / "full.npz"
    assert run_cli("extract", "--manifest", dataset_dir, "--no-hog", "--out", hogless) == 0
    commands = {
        "train": ("--c", 10.0, "--gamma", 0.02, "--out", tmp_path / "m.json"),
        "grid-search": ("--c-grid", 10, "--gamma-grid", 0.02, "--folds", 2,
                        "--out", tmp_path / "cv.csv"),
    }
    for command, flags in commands.items():
        capsys.readouterr()
        assert run_cli(command, "--features-file", hogless, *flags) == 2, command
        assert capsys.readouterr().err == (
            "data error: HOG features are asked for, but the feature store has none\n"
        )
    assert not (tmp_path / "m.json").exists() and not (tmp_path / "cv.csv").exists()
    # A fused model predicting from features without HOG fails the same way.
    assert run_cli("extract", "--manifest", dataset_dir, "--out", full) == 0
    assert run_cli("train", "--features-file", full, *commands["train"]) == 0
    capsys.readouterr()
    code = run_cli("predict", "--model", tmp_path / "m.json", "--features-file", hogless,
                   "--out", tmp_path / "p.csv")
    assert code == 2 and "the feature store has none" in capsys.readouterr().err


def test_grid_search_command(tmp_path, dataset_dir):
    cv = tmp_path / "cv.csv"
    code = run_cli(
        "grid-search",
        "--manifest", dataset_dir,
        "--no-hog",
        "--features", "ang+dist+tip",
        "--c-grid", "1,10",
        "--gamma-grid", "0.1,0.5",
        "--folds", 2,
        "--out", cv,
    )
    assert code == 0
    lines = cv.read_text().strip().split("\n")
    assert lines[0] == "c,gamma,accuracy"
    assert len(lines) == 5


def test_report_with_config_and_overrides(tmp_path, dataset_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "manifest": str(dataset_dir),
                "features": "ang+dist+tip",
                "use_hog": False,
                "c_grid": [10.0],
                "gamma_grid": [0.5],
                "folds": 2,
                "repetitions": 3,
                "seed": 4,
            }
        )
    )
    out_dir = tmp_path / "out"
    code = run_cli("report", "--config", cfg_path, "--repetitions", 1, "--out-dir", out_dir)
    assert code == 0
    report = (out_dir / "report.csv").read_text().strip().split("\n")
    assert len(report) == 3  # header + 1 repetition + mean (flag override wins)


def test_ablation_command(tmp_path, dataset_dir):
    out_dir = tmp_path / "out"
    code = run_cli(
        "ablation",
        "--manifest", dataset_dir,
        "--combos", "ang+dist+tip;ang+dist+elev",
        "--c-grid", "10",
        "--gamma-grid", "0.5",
        "--folds", 2,
        "--repetitions", 1,
        "--seed", 4,
        "--out-dir", out_dir,
    )
    assert code == 0
    lines = (out_dir / "report.csv").read_text().strip().split("\n")
    combos = {line.split(",")[0] for line in lines[1:]}
    assert combos == {"ang+dist+tip", "ang+dist+elev"}


def test_sweep_command(tmp_path, dataset_dir):
    out_dir = tmp_path / "out"
    code = run_cli(
        "sweep",
        "--manifest", dataset_dir,
        "--k-values", "0.0,1.0",
        "--retentions", "none",
        "--c-grid", "10",
        "--gamma-grid", "0.02",
        "--folds", 2,
        "--repetitions", 1,
        "--seed", 4,
        "--out-dir", out_dir,
    )
    assert code == 0
    lines = (out_dir / "report.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2 * 2  # two cells x (1 rep + mean)


def test_sweep_defaults_to_ten_repetitions_unless_configured(tmp_path, dataset_dir):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"repetitions": 3}))
    flags = (
        "--manifest", dataset_dir, "--k-values", 1.0, "--retentions", "none",
        "--c-grid", 10, "--gamma-grid", 0.02, "--folds", 2,
    )
    for config, repetitions in (((), 10), (("--config", cfg_path), 3)):
        out_dir = tmp_path / f"out{repetitions}"
        assert run_cli("sweep", *config, *flags, "--out-dir", out_dir) == 0
        lines = (out_dir / "report.csv").read_text().strip().split("\n")
        assert len(lines) == 1 + repetitions + 1  # header, one row per repetition, mean


def test_synth_flags_fill_synthetic_spec(tmp_path):
    out = tmp_path / "cli"
    code = run_cli(
        "synth", "--out", out, "--subjects", 1, "--reps", 3, "--seed", 5, "--pos-noise", 0,
        "--rot-noise", 0, "--translation", 0, "--image-size", 64,
    )
    assert code == 0
    samples = generate_synthetic(
        templates=default_templates(pos_noise_mm=0.0, rot_noise_deg=0.0),
        subjects=1,
        reps=3,
        seed=5,
        translation_mm=0.0,
        image_size=64,
    )
    save_dataset(samples, tmp_path / "direct")
    written = sorted(p.relative_to(out) for p in out.rglob("*") if p.is_file())
    assert len(written) == 1 + 2 * 30  # manifest, one frame and one image per sample
    for rel in written:
        assert (out / rel).read_bytes() == (tmp_path / "direct" / rel).read_bytes(), rel


def test_one_value_flags_are_k_values_and_retentions(tmp_path, dataset_dir):
    fixed = ("train", "--manifest", dataset_dir, "--c", 10.0, "--gamma", 0.02, "--out")
    spellings = {
        "one_value": ("--k", 2, "--retention", 0.9),
        "lists": ("--k-values", 2, "--retentions", 0.9),
        "last_wins": ("--k-values", 5, "--k", 2, "--retention", 0.5, "--retentions", 0.9),
    }
    models = {}
    for name, flags in spellings.items():
        assert run_cli(*fixed, tmp_path / f"{name}.json", *flags) == 0, name
        models[name] = (tmp_path / f"{name}.json").read_bytes()
    assert models["one_value"] == models["lists"] == models["last_wins"]


def test_show_config_merges_flags(capsys):
    assert run_cli("show-config", "--seed", 123, "--no-hog") == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["seed"] == 123
    assert merged["use_hog"] is False


def test_show_config_round_trips_whole_number_floats(tmp_path, capsys):
    # A retention of 1.0 keeps all the variance and 1 keeps one component,
    # and (1,) == (1.0,): compare the types and the cell tags they give.
    cfg_path = tmp_path / "cfg.json"
    assert run_cli("show-config", "--retentions", 1.0, "--k-values", 1.0) == 0
    cfg_path.write_text(capsys.readouterr().out)
    assert run_cli("show-config", "--config", cfg_path) == 0
    cfg = config_from_dict(json.loads(capsys.readouterr().out))
    assert [type(v) for v in (*cfg.retentions, *cfg.k_values)] == [float, float]
    assert [cell.tag() for cell in experiment_cells(cfg)] == ["ang+dist+tip+hog_K1.0_ret1.0"]


def test_exit_code_config_error(tmp_path):
    assert run_cli("report", "--bogus-flag") == 1
    assert run_cli("train", "--out", "x.json", "--features", "nope") == 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b'{"seed": \xff}')
    assert run_cli("show-config", "--config", cfg_path) == 1
    for content in ('{"image": 5}', '{"repetitions": "x"}'):
        cfg_path.write_text(content)
        assert run_cli("show-config", "--config", cfg_path) == 1, content
    assert run_cli("grid-search", "--folds", 1) == 1
    assert run_cli("train", "--c", -1, "--gamma", 0.1, "--out", "x.json") == 1


BAD_VALUES = [
    ("show-config", "--k-values", "none"),
    ("show-config", "--k-values", -1),
    ("show-config", "--c-grid", "none"),
    ("show-config", "--gamma-grid", "0.1,none"),
    ("show-config", "--c-grid", "abc"),
    ("show-config", "--k-values", "inf"),
    ("show-config", "--retentions", "nan"),
    ("show-config", "--reps", 0),
    ("train", "--k", -1),
    ("train", "--retention", 0),
    ("train", "--retention", 1.5),
    ("train", "--retention", "x"),
    ("train", "--c", "inf"),
    ("train", "--gamma", "inf"),
    ("train", "--c", "nan"),
    ("show-config", "--c-grid", "1,1e999"),
    ("show-config", "--gamma-grid", "1e999"),
    ("synth", "--subjects", 0),
    ("synth", "--pos-noise", -1),
    ("synth", "--image-size", 0),
    ("report", "--subjects", 0),
    ({"image": {"hog": {"cell_size": 0}}},),
    ({"image": {"hog": {"bins": 0}}},),
    ({"image": {"hog": {"block_stride": 0}}},),
    ({"image": {"hog_size": [0, 0]}},),
    ({"image": {"crop_margin": -3}},),
    ({"image": {"threshold": 1000}},),
    ({"image": {"threshold": 0}},),
    ({"image": {"threshold": -5}},),
    ({"k_values": [-1.0]},),
    ({"svm_max_iter": 0},),
    ({"svm_max_iter": -1},),
    ({"c_grid": [float("inf")]},),
    ({"gamma_grid": [0.1, float("inf")]},),
    ([1], "--subjects", 2),
    ({"synthetic": 5}, "--subjects", 2),
]


@pytest.mark.parametrize(
    "case", BAD_VALUES, ids=lambda case: " ".join(json.dumps(v) for v in case)
)
def test_bad_value_exits_with_config_error(case, tmp_path, dataset_dir, capsys):
    """Out-of-range flags and config values exit 1 with a message, never a traceback.

    A case that starts with a JSON value runs show-config on it as a config file.
    """
    command, *flags = case
    if command == "train":
        fixed = ["--manifest", dataset_dir, "--c", 10, "--gamma", 0.1, "--out", tmp_path / "m.json"]
        flags = fixed + flags
    elif command == "synth":
        flags = ["--out", tmp_path / "ds", *flags]
    elif not isinstance(command, str):
        (tmp_path / "cfg.json").write_text(json.dumps(command))
        command, flags = "show-config", ["--config", tmp_path / "cfg.json", *flags]
    assert run_cli(command, *flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "Traceback" not in err


@pytest.mark.parametrize(
    "flags",
    [
        ("--features", "ang"), ("--use-hog",), ("--no-hog",), ("--k-values", 7),
        ("--retentions", 1), ("--c-grid", 5), ("--gamma-grid", 9), ("--folds", 3),
        ("--repetitions", 7), ("--train-fraction", 0.5), ("--seed", 4),
        ("--grid-mode", "per_repetition"),
    ],
)
def test_predict_refuses_feature_flags(flags, tmp_path, capsys):
    """The model fixes the features and the classifier, so predict takes
    no flag that sets them."""
    code = run_cli(
        "predict", "--model", tmp_path / "m.json", "--features-file", tmp_path / "f.npz",
        "--out", tmp_path / "p.csv", *flags,
    )
    assert code == 1
    assert capsys.readouterr().err.startswith("config error:")


def test_exit_code_config_file_missing(tmp_path):
    assert run_cli("report", "--config", tmp_path / "absent.json") == 1


def test_exit_code_data_error(tmp_path, dataset_dir):
    assert run_cli("extract", "--manifest", tmp_path / "nope", "--out", tmp_path / "f.npz") == 2
    nan_map = UndistortionMap.identity(3, 3).samples.astype("<f4")
    nan_map[1, 1] = np.nan
    maps = {
        "short_header": b"LMUM\x01\x00",
        "nan_point": b"LMUM" + struct.pack("<II", 3, 3) + nan_map.tobytes(),
        "missing": None,
    }
    for name, content in maps.items():
        path = tmp_path / f"{name}.lmum"
        if content is not None:
            path.write_bytes(content)
        code = run_cli(
            "extract", "--manifest", dataset_dir, "--undistort-map", path,
            "--out", tmp_path / "f.npz",
        )
        assert code == 2, name
    (tmp_path / "garbage.json").write_text("{not json")
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train", "--manifest", dataset_dir, "--no-hog", "--retention", 0.9,
        "--c", 1.0, "--gamma", 0.1, "--out", model_path,
    )
    assert code == 0

    def edited(edit):
        record = json.loads(model_path.read_text())
        edit(record)
        return record

    def fusion(record):
        return record["preprocessing"]["fusion"]

    def pca(record):
        return record["preprocessing"]["pca"]

    def non_finite(record):  # written as NaN and Infinity
        record["bias"][0] = float("nan")
        record["support_vectors"][0][0] = float("inf")

    def string_class(record):  # with the pairs of the edited class list
        classes = ["a", *record["classes"][1:]]
        record.update(classes=classes, pairs=[list(pair) for pair in class_pairs(classes)])

    bad_models = {
        "no_pairs.json": {"version": 2},
        "list.json": [1],
        "no_second.json": edited(lambda r: r["pairs"][0].pop()),
        "non_finite.json": edited(non_finite),
        "no_classes.json": edited(lambda r: r.update(classes=[], pairs=[])),
        "unlisted_class.json": edited(lambda r: r["classes"].pop()),
        "extra_class.json": edited(lambda r: r["classes"].append(len(r["classes"]))),
        "reordered_pairs.json": edited(lambda r: r["pairs"].reverse()),
        "string_class.json": edited(string_class),
        "short_coefs.json": edited(lambda r: r["coef"].pop()),
        "flat_vectors.json": edited(lambda r: r.update(support_vectors=[0.5])),
        "short_pca_mean.json": edited(lambda r: r["preprocessing"]["pca"]["mean"].pop()),
        "string_flag.json": edited(lambda r: r["converged"].__setitem__(0, "false")),
        "number_flag.json": edited(lambda r: r["converged"].__setitem__(0, 0.5)),
        "string_c.json": edited(lambda r: r.update(c="10")),
        "bool_gamma.json": edited(lambda r: r.update(gamma=True)),
        "string_bias.json": edited(lambda r: r.update(bias=[str(b) for b in r["bias"]])),
        "bool_coef.json": edited(lambda r: r["coef"][0].__setitem__(0, True)),
        "string_vector.json": edited(lambda r: r["support_vectors"][0].__setitem__(0, "1e3")),
        "string_hog_weight.json": edited(lambda r: fusion(r).update(hog_weight="2.5")),
        "string_hog_dim.json": edited(lambda r: fusion(r).update(hog_dim=str(fusion(r)["hog_dim"]))),
        "float_hog_dim.json": edited(lambda r: fusion(r).update(hog_dim=float(fusion(r)["hog_dim"]))),
        "string_retained.json": edited(lambda r: pca(r).update(retained_fraction="0.9")),
        "bool_pca_mean.json": edited(lambda r: pca(r)["mean"].__setitem__(0, True)),
        "string_pca_component.json": edited(lambda r: pca(r)["components"][0].__setitem__(0, "0.1")),
        "bool_pca_variance.json": edited(lambda r: pca(r)["variances"].__setitem__(0, False)),
        "long_pca_variances.json": edited(lambda r: pca(r)["variances"].extend([1.0, 1.0])),
        "big_retained.json": edited(lambda r: pca(r).update(retained_fraction=7.5)),
        "negative_pca_variance.json": edited(lambda r: pca(r)["variances"].__setitem__(-1, -1.0)),
        "scaled_pca_component.json": edited(
            lambda r: pca(r)["components"].__setitem__(0, [10.0 * x for x in pca(r)["components"][0]])
        ),
    }
    for name, content in bad_models.items():
        (tmp_path / name).write_text(json.dumps(content))
    for model in ("garbage.json", "absent.json", *bad_models):
        code = run_cli(
            "predict", "--model", tmp_path / model, "--manifest", dataset_dir,
            "--out", tmp_path / "p.csv",
        )
        assert code == 2, model

    manifest = json.loads((dataset_dir / "dataset.json").read_text())
    bad_manifests = {
        "int_frame": dict(manifest, samples=[dict(manifest["samples"][0], frame=5)]),
        "int_samples": dict(manifest, samples=7),
    }
    for name, content in bad_manifests.items():
        path = tmp_path / name / "dataset.json"
        path.parent.mkdir()
        path.write_text(json.dumps(content))
        assert run_cli("extract", "--manifest", path, "--out", tmp_path / "f.npz") == 2, name


def _feature_arrays(**changes):
    """A valid 6-sample, 2-class feature archive with `changes` applied."""
    rng = np.random.default_rng(3)
    arrays = {
        "tracking": rng.uniform(0.5, 1.0, size=(6, 25)),
        "hog": rng.uniform(0.0, 1.0, size=(6, 4)),
        "labels": np.array([0, 0, 0, 1, 1, 1]),
        "sample_ids": np.array([f"s{i}" for i in range(6)]),
    }
    arrays.update(changes)
    return arrays


def _with_value(name, row, col, value):
    arrays = _feature_arrays()
    arrays[name][row, col] = value
    return arrays


def test_exit_code_feature_file_missing_arrays(tmp_path):
    cases = {
        "labels only": {"labels": np.arange(4)},
        "short labels": _feature_arrays(labels=np.array([0, 1])),
        "short sample_ids": _feature_arrays(sample_ids=np.array(["s0", "s1"])),
        "short hog": _feature_arrays(hog=np.zeros((4, 4))),
        "narrow tracking": _feature_arrays(tracking=np.ones((6, 3))),
        "nan tracking": _with_value("tracking", 2, 7, np.nan),
        "inf hog": _with_value("hog", 4, 1, np.inf),
        "string labels": _feature_arrays(labels=np.array(list("aaabbb"))),
        "float labels": _feature_arrays(labels=np.array([0.5, 0.5, 0.5, 1.5, 1.5, 1.5])),
        "label out of range": _feature_arrays(labels=np.array([0, 0, 0, 10, 10, 10])),
    }
    for name, arrays in cases.items():
        features = tmp_path / "f.npz"
        np.savez(features, **arrays)
        code = run_cli(
            "train", "--features-file", features, "--c", 1.0, "--gamma", 0.1,
            "--out", tmp_path / "model.json",
        )
        assert code == 2, name


def test_train_grid_on_single_class_is_a_data_error(tmp_path, capsys):
    features = tmp_path / "f.npz"
    np.savez(features, **_feature_arrays(labels=np.zeros(6, dtype=int)))
    code = run_cli(
        "train", "--features-file", features, "--c-grid", 1, "--gamma-grid", 0.1,
        "--folds", 2, "--out", tmp_path / "model.json",
    )
    assert code == 2
    assert capsys.readouterr().err.startswith("data error:")


@pytest.mark.parametrize("command", ["train", "grid-search"])
def test_grid_search_budget_exits_3(tmp_path, command):
    # At 20 iterations the C=1000 fits of the grid search stop unconverged,
    # while the C=0.1 model that train fits afterwards converges.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "svm_max_iter": 20, "use_hog": False, "synthetic": {"subjects": 3, "reps": 6, "seed": 21},
    }))
    out = ["--out", str(tmp_path / "model.json")] if command == "train" else []
    result = subprocess.run(
        [sys.executable, "-m", "gesturelab.cli", command, "--config", str(cfg),
         "--c-grid", "0.1,1000", "--gamma-grid", "0.5", "--folds", "3", *out],
        env=dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 3, result.stderr
    assert result.stderr.splitlines() == [
        "warning: some pair models hit the iteration budget" if command == "train"
        else "warning: some models hit the iteration budget"
    ]
    if command == "train":
        assert all(json.loads((tmp_path / "model.json").read_text())["converged"])


def test_exit_code_nonconvergence(tmp_path, dataset_dir):
    # One iteration leaves pairs unconverged; a budget below 1 is a config error.
    for budget, expected in ((1, 3), (-1, 1)):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"svm_max_iter": budget, "use_hog": False}))
        code = run_cli(
            "train",
            "--config", cfg_path,
            "--manifest", dataset_dir,
            "--c", 10.0,
            "--gamma", 0.5,
            "--out", tmp_path / f"model{budget}.json",
        )
        assert code == expected, budget
    flags = json.loads((tmp_path / "model1.json").read_text())["converged"]  # still written, flagged
    assert not all(flags)
    assert not (tmp_path / "model-1.json").exists()
