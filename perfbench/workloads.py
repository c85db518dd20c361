"""The four benchmark workloads.

Each workload is a closed loop driven by one process: it sends its next
operation only after the previous one has returned.  A workload makes
its inputs from the benchmark seed in `setup`, runs one operation per
`run_op` call, and checks every output it gets back.  Only public
names of gesturelab are used, and none that the roadmap plans to
delete, so the benchmark keeps running across refactors.

* extract   one operation = load a dataset from disk and build its
            feature store (tracking + HOG through a calibration map)
* recognize one operation = one capture through tracking features,
            image features and a single-row `classify`
* sweep     one operation = `fusion_sweep` on a prebuilt fused store,
            from config to a written report
* ablation  one operation = `ablation_table` over the default tracking
            combos, from config to a written report
"""

import dataclasses
import hashlib
import math
import os
import shutil

import numpy as np

from gesturelab import data, fusion, harness, image, svm, tracking

# Sizes, chosen so that one operation repeats many times per run (see
# README.md for the reasoning and the measured costs).
EXTRACT_SUBJECTS, EXTRACT_REPS = 1, 4  # 40 samples on disk
RECOGNIZE_TRAIN = (2, 10)  # 200 training samples
RECOGNIZE_CAPTURES = (2, 10)  # 200 held-out captures, cycled
RECOGNIZE_PARAMS = dict(c=10.0, gamma=0.01)
SWEEP_DATA = (5, 10)  # 500 samples
SWEEP_PROTOCOL = dict(c_grid=(10.0,), gamma_grid=(1e-3, 1e-2), folds=2, repetitions=2,
                      grid_mode="per_repetition")
ABLATION_DATA = (5, 10)  # 500 samples
ABLATION_PROTOCOL = dict(c_grid=(1.0, 1000.0), gamma_grid=(0.1,), folds=2, repetitions=2)

FUSED_MASK = "ang+dist+tip"
TRAIN_FRACTION = 0.8
MAP_GRID = 16


def derive(seed, tag):
    """Independent stream per input, reproducible from the run seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def synth(spec, seed):
    subjects, reps = spec
    return data.generate_synthetic(subjects=subjects, reps=reps, seed=seed)


class OpResult:
    """Outcome of one operation: whether it missed, and how many of the
    labels (or rows) it produced were right out of how many."""

    __slots__ = ("ok", "hits", "total", "note")

    def __init__(self, ok, hits=0, total=0, note=""):
        self.ok = ok
        self.hits = hits
        self.total = total
        self.note = note


def miss(note):
    return OpResult(False, note=note)


# ---------------------------------------------------------------------------


def calibration_map(grid=MAP_GRID, strength=0.12):
    """Barrel-style LMUM map with invalid points in the four corners."""
    us = np.linspace(0.0, 1.0, grid)
    uu, vv = np.meshgrid(us, us)
    r2 = (uu - 0.5) ** 2 + (vv - 0.5) ** 2
    scale = 1.0 - strength * r2
    samples = np.stack([0.5 + (uu - 0.5) * scale, 0.5 + (vv - 0.5) * scale], axis=2)
    for y, x in ((0, 0), (0, grid - 1), (grid - 1, 0), (grid - 1, grid - 1)):
        samples[y, x] = -1.0
    return image.UndistortionMap(samples)


class Extract:
    name = "extract"
    why = "undistortion plus manifest, PGM and frame-JSON loading; the only workload that reads a dataset from disk"

    def setup(self, seed, workdir):
        samples = synth((EXTRACT_SUBJECTS, EXTRACT_REPS), derive(seed, "extract"))
        manifest = data.save_dataset(samples, os.path.join(workdir, "dataset"))
        map_path = os.path.join(workdir, "calibration.lmum")
        calibration_map().save(map_path)
        cfg = harness.ExperimentConfig(use_hog=True, undistort_map=map_path)
        return {"samples": samples, "manifest": manifest, "cfg": cfg, "digests": []}

    def ops_per_unit(self, state):
        return 1

    def run_op(self, state, i):
        loaded = data.load_dataset(state["manifest"])
        return harness.build_feature_store(loaded, state["cfg"])

    def check(self, state, i, store):
        n = len(state["samples"])
        hog_dim = state["cfg"].image.descriptor_length()
        if store.tracking.shape != (n, 25) or store.hog is None or store.hog.shape != (n, hog_dim):
            return miss(f"feature shapes {store.tracking.shape} / "
                        f"{None if store.hog is None else store.hog.shape}")
        if not (np.isfinite(store.tracking).all() and np.isfinite(store.hog).all()):
            return miss("non-finite features")
        state["digests"].append(_row_digests(store))
        return OpResult(True)

    def finish(self, state, results):
        """Compare every pass with the same samples extracted in memory.

        Rows that differ show that loading from disk changed the input;
        `accuracy` on this workload is the share of rows that match.
        """
        reference = harness.build_feature_store(state["samples"], state["cfg"])
        expected = _row_digests(reference)
        digests = iter(state["digests"])
        for result in results:
            if not result.ok:
                continue
            got = next(digests)
            result.total = len(expected)
            result.hits = sum(a == b for a, b in zip(got, expected))
            if result.hits != result.total:
                result.ok = False
                result.note = f"{result.total - result.hits} rows differ from the in-memory extraction"


def _row_digests(store):
    rows = np.hstack([store.tracking, store.hog])
    return [
        hashlib.blake2b(row.tobytes() + bytes([int(lab)]), digest_size=8).digest()
        for row, lab in zip(rows, store.labels)
    ]


# ---------------------------------------------------------------------------


class Recognize:
    name = "recognize"
    why = "one capture at a time through a loaded fused+PCA model; single-row prediction and PCA applied without fitting"

    def setup(self, seed, workdir):
        train = synth(RECOGNIZE_TRAIN, derive(seed, "recognize-train"))
        store = harness.build_feature_store(train, harness.ExperimentConfig(use_hog=True))
        mask = tracking.FeatureMask.parse(FUSED_MASK)
        cols = mask.column_indices()
        layout = fusion.FusionConfig(mask=mask, hog_weight=1.0, hog_dim=store.hog.shape[1])
        weighted = fusion.fuse_matrix(store.tracking[:, cols], store.hog, layout)
        pre = svm.Preprocessing(fusion=layout, pca=fusion.fit_pca(weighted, retained_fraction=0.8))
        raw = np.hstack([store.tracking[:, cols], store.hog])
        trained = svm.train_multiclass(
            pre.apply(raw), store.labels, svm.KernelParams(**RECOGNIZE_PARAMS), preprocessing=pre
        )
        path = os.path.join(workdir, "model.json")
        svm.save_model(trained, path)
        model = svm.load_model(path)
        captures = synth(RECOGNIZE_CAPTURES, derive(seed, "recognize-captures"))
        return {
            "model": model,
            "converged": model.all_converged(),
            "mask": mask,
            "image_cfg": image.ImagePipelineConfig(),
            "captures": captures,
            "rows": {},
            "answers": [],
        }

    def ops_per_unit(self, state):
        return len(state["captures"])

    def run_op(self, state, i):
        capture = state["captures"][i % len(state["captures"])]
        t = tracking.extract_tracking_features(capture.frame).vector(state["mask"])
        h = image.extract_image_features(capture.images, state["image_cfg"])
        row = np.concatenate([t, h])[np.newaxis, :]
        labels, _ = svm.classify(state["model"], row)
        return row, labels

    def check(self, state, i, output):
        row, labels = output
        k = i % len(state["captures"])
        state["rows"].setdefault(k, row)
        if len(labels) != 1 or labels[0] not in state["model"].classes:
            return miss(f"capture {k}: no label")
        if not state["converged"]:
            return miss("model has unconverged pairs")
        label = int(labels[0])
        state["answers"].append((k, label))
        return OpResult(True, hits=int(label == state["captures"][k].gesture), total=1)

    def finish(self, state, results):
        """Single-row labels must equal one batch `classify` of the same rows."""
        keys = sorted(state["rows"])
        if not keys:
            return
        batch, _ = svm.classify(state["model"], np.vstack([state["rows"][k] for k in keys]))
        expected = dict(zip(keys, (int(b) for b in batch)))
        answers = iter(state["answers"])
        for result in results:
            if not result.ok:
                continue
            k, label = next(answers)
            if label != expected[k]:
                result.ok = False
                result.note = f"capture {k}: single-row label {label} != batch label {expected[k]}"


# ---------------------------------------------------------------------------


class _Protocol:
    """One operation runs the protocol on one prebuilt store, from config
    to a written report.  Every operation does the same work.  The SMO
    iteration count is heavy-tailed: a few hard pair solves take a large
    share of it.  So the dataset is large, which keeps the count of one
    operation within about 6% across seeds (README.md).  The check reads
    the report back: one row per rep per cell, and every confusion
    matrix sums to test size x reps."""

    cells = 0
    data = (1, 1)
    protocol = {}
    use_hog = False

    def ops_per_unit(self, state):
        return 1

    def setup(self, seed, workdir):
        samples = synth(self.data, derive(seed, f"{self.name}-0"))
        store = harness.build_feature_store(samples, harness.ExperimentConfig(use_hog=self.use_hog))
        counts = np.unique(store.labels, return_counts=True)[1]
        test_size = len(store.labels) - sum(math.floor(TRAIN_FRACTION * c) for c in counts)
        cfg = harness.ExperimentConfig(
            train_fraction=TRAIN_FRACTION, seed=derive(seed, self.name + "-protocol"),
            use_hog=self.use_hog, **self.protocol
        )
        return {"store": store, "cfg": cfg, "test_size": int(test_size), "workdir": workdir}

    def run_op(self, state, i):
        report = self.run_protocol(state["cfg"], state["store"])
        out_dir = os.path.join(state["workdir"], f"report_{i}")
        harness.emit_report(report, out_dir)
        return report, out_dir

    def check(self, state, i, output):
        report, out_dir = output
        try:
            return self._check_report(state, report, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def _check_report(self, state, report, out_dir):
        reps = self.protocol["repetitions"]
        all_converged = getattr(report, "all_converged", None)
        if all_converged is not None and not all_converged():
            return miss("report has unconverged models")
        with open(os.path.join(out_dir, "report.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        rows = {}
        for line in lines[1:]:
            combo, k, ret, rep, _ = line.split(",")
            if rep != "mean":
                rows[(combo, k, ret)] = rows.get((combo, k, ret), 0) + 1
        if len(rows) != self.cells or any(n != reps for n in rows.values()):
            return miss(f"report rows per cell {sorted(rows.values())}, want {self.cells} x {reps}")
        matrices = sorted(f for f in os.listdir(out_dir) if f.startswith("confusion_"))
        if len(matrices) != self.cells:
            return miss(f"{len(matrices)} confusion files for {self.cells} cells")
        hits = total = 0
        for name in matrices:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                body = fh.read().splitlines()[1:-1]
            matrix = np.array([[int(v) for v in line.split(",")[1:]] for line in body])
            if matrix.sum() != state["test_size"] * reps:
                return miss(f"{name}: confusion sum {matrix.sum()} != "
                            f"{state['test_size']} x {reps}")
            hits += int(np.trace(matrix))
            total += int(matrix.sum())
        return OpResult(True, hits=hits, total=total)

    def finish(self, state, results):
        pass


class Sweep(_Protocol):
    name = "sweep"
    why = "fusion-weight x retention protocol on 1789-dim fused features: the only workload with PCA fits and kernels over high-dimensional rows"
    cells = 2
    data = SWEEP_DATA
    protocol = SWEEP_PROTOCOL
    use_hog = True

    def run_protocol(self, cfg, store):
        cfg = dataclasses.replace(cfg, features=FUSED_MASK)
        return harness.fusion_sweep(cfg, k_values=(1.0,), retentions=(None, 0.8), store=store)


class Ablation(_Protocol):
    name = "ablation"
    why = "tracking-only combos (<= 25 dims), C up to 1000: many small SMO solves. Short tracking-only fits varied 0.32-0.59 s across identical runs, hence long runs"
    cells = len(harness.DEFAULT_ABLATION_COMBOS)
    data = ABLATION_DATA
    protocol = ABLATION_PROTOCOL

    def run_protocol(self, cfg, store):
        return harness.ablation_table(cfg, harness.DEFAULT_ABLATION_COMBOS, store=store)


WORKLOADS = {w.name: w for w in (Extract(), Recognize(), Sweep(), Ablation())}
