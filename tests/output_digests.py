"""SHA-256 digests of the outputs of small fixed runs.

`tests/data/output_digests.json` holds, with the numpy version that
wrote it, the digest of:

- the decision values of four small fixed models (plain, fused, fused
  with PCA, and one with no support vectors), as one batch and row by
  row;
- the dataset tree that the CLI's `synth` writes and the `.npz` that
  `extract` writes from it;
- the model.json that the CLI's `train` writes, with and without PCA,
  and the CSV that `predict` writes from each;
- every file of the report tree of a 3-combo ablation, and of a
  K 0/1/3 x retention none/0.8/5 components sweep in each grid mode;
- the tracking features of 20 synthetic captures at the default noise,
  20 at 40 mm / 45 degrees and hand-built frames with 0 and 1
  fingertips, and the image features of the 40 synthetic captures
  without a map and through a barrel map with invalid corner points;
- the image features, without a map and through the barrel map, of
  gray captures made from the default ones: two gray levels plus
  seeded Gaussian noise, whole and as one odd-sized crop, so that the
  histogram of images that are not two-valued is pinned too.

`tests/test_output_digests.py` recomputes them.  A change that alters
output bits on purpose regenerates the file with

    PYTHONPATH=src python tests/output_digests.py

and lists each changed case, and why, in `CHANGES.md`.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

from gesturelab.cli import main as cli_main
from gesturelab.data import default_templates, generate_synthetic
from gesturelab.fusion import FusionConfig, fit_pca
from gesturelab.harness import (
    ExperimentConfig,
    SyntheticSpec,
    ablation_table,
    build_feature_store,
    emit_report,
    fusion_sweep,
    load_samples,
)
from gesturelab.image import UndistortionMap, extract_image_features
from gesturelab.svm import (
    KernelParams,
    MulticlassSvm,
    Preprocessing,
    decision_table,
    train_multiclass,
)
from gesturelab.tracking import FeatureMask, HandFrame, extract_tracking_features

DIGEST_PATH = Path(__file__).parent / "data" / "output_digests.json"

ADT = FeatureMask.parse("ang+dist+tip")
# 2 subjects x 10 gestures x 3 repetitions = 60 samples, noisy enough that
# accuracies, votes and CV tables stay off their ceiling.
SYNTHETIC = dict(subjects=2, reps=3, seed=5, pos_noise_mm=30.0, rot_noise_deg=40.0)


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _tree(directory):
    """{file name: sha256} of every file in `directory`."""
    return {p.name: _sha(p.read_bytes()) for p in sorted(Path(directory).iterdir())}


def _tree_sha(directory):
    """One sha256 over the relative path, size and bytes of every file under `directory`."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        data = path.read_bytes()
        digest.update(f"{path.relative_to(directory).as_posix()}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _models():
    """name -> (model, query rows) of the fixed decision-table cases."""
    rng = np.random.default_rng(11)
    centers = rng.normal(0.0, 1.0, size=(4, ADT.dims() + 16))
    raw = np.vstack([rng.normal(center, 0.8, size=(15, len(center))) for center in centers])
    labels = np.repeat(np.arange(4), 15)
    queries = rng.normal(0.0, 1.2, size=(25, raw.shape[1]))
    fused = Preprocessing(fusion=FusionConfig(mask=ADT, hog_weight=0.5, hog_dim=16))
    pca = Preprocessing(fusion=fused.fusion, pca=fit_pca(fused.apply(raw), retained_fraction=0.9))
    empty = MulticlassSvm(
        classes=[0, 1, 2], support_vectors=np.empty((0, 3)), coef=np.empty((0, 3)),
        bias=np.array([0.25, -0.5, 0.75]), params=KernelParams(1.0, 1.0),
        converged=np.ones(3, dtype=bool),
    )
    params = KernelParams(10.0, 0.05)
    return {
        "plain": (train_multiclass(raw, labels, KernelParams(10.0, 0.02)), queries),
        "fused": (train_multiclass(fused.apply(raw), labels, params, preprocessing=fused), queries),
        "fused_pca": (train_multiclass(pca.apply(raw), labels, params, preprocessing=pca), queries),
        "no_support_vectors": (empty, queries[:, :3]),
    }


def decision_digests():
    """{case: {"batch", "rows"}}: decision values of all queries at once and one by one."""
    out = {}
    for name, (model, queries) in _models().items():
        rows = np.vstack([decision_table(model, row) for row in queries])
        out[name] = {
            "batch": _sha(decision_table(model, queries).tobytes()),
            "rows": _sha(rows.tobytes()),
        }
    return out


def _cli(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"gesturelab {argv[0]} exited with {code}")


def cli_digests(tmp):
    """The dataset `synth` writes and the features `extract` reads from it;
    model.json of `train` on them without PCA (grid-searched) and with PCA,
    and the CSV of each model's `predict` on samples of another data seed."""
    config, dataset = tmp / "config.json", tmp / "dataset"
    features, unseen = tmp / "features.npz", tmp / "unseen.npz"
    config.write_text(json.dumps({"synthetic": SYNTHETIC}))
    _cli("synth", "--out", dataset, "--subjects", 2, "--reps", 3, "--seed", 5,  # SYNTHETIC
         "--pos-noise", 30.0, "--rot-noise", 40.0)
    _cli("extract", "--manifest", dataset, "--out", features)
    _cli("extract", "--config", config, "--data-seed", 6, "--out", unseen)
    out = {"synth": _tree_sha(dataset), "extract": _sha(features.read_bytes())}
    runs = {
        "train": ("--c-grid", "1,100", "--gamma-grid", "0.01,0.1", "--folds", 3),
        "train_pca": ("--retention", 0.9, "--c", 10.0, "--gamma", 0.05),
    }
    for name, flags in runs.items():
        model, predictions = tmp / f"{name}.json", tmp / f"{name}.csv"
        _cli("train", "--features-file", features, "--k", 0.5, *flags, "--out", model)
        _cli("predict", "--model", model, "--features-file", unseen, "--out", predictions)
        out[name] = {"model": _sha(model.read_bytes()), "predict": _sha(predictions.read_bytes())}
    return out


def report_digests(tmp):
    """Report trees of a 3-combo ablation and of a 3 K x 3 retention sweep
    in each grid mode, over one 60-sample store."""
    cfg = ExperimentConfig(
        synthetic=SyntheticSpec(**SYNTHETIC), c_grid=(1.0, 100.0), gamma_grid=(0.01, 0.1),
        folds=3, repetitions=2,
    )
    store = build_feature_store(load_samples(cfg), cfg)
    reports = {
        "ablation": ablation_table(
            cfg, ["ang+dist+tip", "dist+elev+tip", "ang+elev+tip"], store=store
        ),
    }
    for mode in ("per_cell", "per_repetition"):
        cfg.grid_mode = mode
        reports[f"sweep_{mode}"] = fusion_sweep(cfg, (0.0, 1.0, 3.0), (None, 0.8, 5), store=store)
    out = {}
    for name, report in reports.items():
        emit_report(report, tmp / name)
        out[name] = _tree(tmp / name)
    return out


def _barrel_map(grid=16, strength=0.12):
    """Barrel-style map with invalid points at the four corners."""
    us = np.linspace(0.0, 1.0, grid)
    uu, vv = np.meshgrid(us, us)
    scale = 1.0 - strength * ((uu - 0.5) ** 2 + (vv - 0.5) ** 2)
    samples = np.stack([0.5 + (uu - 0.5) * scale, 0.5 + (vv - 0.5) * scale], axis=2)
    for y, x in ((0, 0), (0, grid - 1), (grid - 1, 0), (grid - 1, grid - 1)):
        samples[y, x] = -1.0
    return UndistortionMap(samples)


def _hand_built_frames():
    """Frames with no fingertip and with one (the middle one)."""
    pose = dict(palm_center=[12.5, -40.0, 180.0], palm_normal=[0.0, 0.6, 0.8],
                hand_direction=[0.0, 0.8, -0.6])
    return [
        HandFrame(fingertips=np.empty((0, 3)), **pose),
        HandFrame(fingertips=[[20.0, 35.0, 150.0]], middle_index=0, **pose),
    ]


def _gray_images(samples, seed=19, sigma=12.0):
    """The samples' first images as gray captures: background 60, hand 170,
    plus Gaussian noise, rounded and clipped to uint8."""
    rng = np.random.default_rng(seed)
    out = []
    for sample in samples:
        img = sample.images[0]
        gray = np.where(img > 0, 170.0, 60.0) + rng.normal(0.0, sigma, size=img.shape)
        out.append(np.clip(np.rint(gray), 0, 255).astype(np.uint8))
    return out


def capture_digests():
    """Tracking and image features of single captures, one digest per set."""
    captures = {
        "default": generate_synthetic(subjects=1, reps=2, seed=17),
        "noisy": generate_synthetic(default_templates(40.0, 45.0), subjects=1, reps=2, seed=18),
    }
    umap = _barrel_map()
    gray = _gray_images(captures["default"])
    grays = {"gray": gray, "gray_crop": [img[61:200, 63:180] for img in gray]}  # 139 x 117, cuts hands
    out = {}
    for name, samples in captures.items():
        out[name] = {
            "tracking": _sha(np.vstack([extract_tracking_features(s.frame).vector() for s in samples]).tobytes()),
            "image": _sha(np.vstack([extract_image_features(s.images) for s in samples]).tobytes()),
            "image_undistorted": _sha(
                np.vstack([extract_image_features(s.images, umap=umap) for s in samples]).tobytes()
            ),
        }
    for name, images in grays.items():
        out[name] = {
            "image": _sha(np.vstack([extract_image_features([img]) for img in images]).tobytes()),
            "image_undistorted": _sha(
                np.vstack([extract_image_features([img], umap=umap) for img in images]).tobytes()
            ),
        }
    out["hand_built"] = {
        "tracking": _sha(np.vstack([extract_tracking_features(f).vector() for f in _hand_built_frames()]).tobytes()),
    }
    return out


def compute():
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        return {
            "capture": capture_digests(),
            "decision_table": decision_digests(),
            "cli": cli_digests(tmp),
            "reports": report_digests(tmp),
        }


def main():
    record = {"numpy": np.__version__, "cases": compute()}
    DIGEST_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGEST_PATH}")


if __name__ == "__main__":
    main()
