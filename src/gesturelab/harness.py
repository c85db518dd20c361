"""Experiment harness: the repeated 80/20 protocol with grid search,
feature ablations, and the fusion-weight x PCA-retention sweep.

Every experiment is a pure function of its configuration and master
seed.  Per-repetition seeds derive from the master seed through
SHA-256 of ``"gesturelab:<master>:<tag>"`` (first 8 bytes, little
endian), so repetitions are independent but exactly reproducible.
Reports are written as CSV (one accuracy row per repetition plus an
aggregate, a summed confusion matrix per cell, and per-sample
prediction logs); plotting is left to external tools.

Cells run in batches of units, each one squared-distance matrix over
all rows of a cell, training and test: one per cell without PCA, and
one per repetition with PCA.  A batch stacks its units' matrices, then
runs all its grid searches and then all its final fits, each stage in
shared lockstep calls over per-gamma kernel stacks
(`svm._grid_searches`, `svm._final_fits`).
"""

import hashlib
import math
import os
from dataclasses import dataclass, field, fields, is_dataclass, replace
from types import UnionType
from typing import get_args, get_origin

import numpy as np

from .data import default_templates, generate_synthetic, load_dataset, split_indices
from .errors import ConfigError, GestureLabError
from .fusion import FusionConfig, fit_pca
from .image import ImagePipelineConfig, UndistortionMap, extract_image_features
from .svm import STACK_ENTRIES, KernelParams, Preprocessing, _blame, _final_fits, _grid_searches
from .svm import _slab, _squared_distances, _training_rows
from .tracking import FULL_MASK, FeatureMask, extract_tracking_features

def derive_seed(master_seed, tag):
    """Published seed derivation: SHA-256 of 'gesturelab:<master>:<tag>'."""
    digest = hashlib.sha256(f"gesturelab:{master_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# ---------------------------------------------------------------------------
# Configuration


@dataclass
class SyntheticSpec:
    subjects: int = 13
    reps: int = 20
    seed: int = 2024
    pos_noise_mm: float = 3.0
    rot_noise_deg: float = 10.0
    translation_mm: float = 100.0
    image_size: int = 240

    def __post_init__(self):
        if min(self.subjects, self.reps, self.image_size) < 1:
            raise ValueError("subjects, reps and image_size must be >= 1")
        if min(self.pos_noise_mm, self.rot_noise_deg, self.translation_mm) < 0:
            raise ValueError("pos_noise_mm, rot_noise_deg and translation_mm must be >= 0")


@dataclass
class ExperimentConfig:
    """One experiment: dataset source, feature cells, and protocol knobs.

    `retentions` entries may be None (no PCA), a float in (0, 1]
    (retained-variance fraction) or an int >= 1 (component count).
    `grid_mode` "per_cell" grid-searches once per cell, on split 0 (the
    split repetition 0 trains on); "per_repetition" searches on every
    repetition's split.
    """

    manifest: str | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    features: str = "ang+dist+tip"
    use_hog: bool = True
    k_values: tuple[float, ...] = (1.0,)
    retentions: tuple[int | float | None, ...] = (None,)
    image: ImagePipelineConfig = field(default_factory=ImagePipelineConfig)
    undistort_map: str | None = None
    c_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    gamma_grid: tuple[float, ...] = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    folds: int = 10
    repetitions: int = 50
    train_fraction: float = 0.8
    seed: int = 7
    grid_mode: str = "per_cell"  # or "per_repetition"
    svm_max_iter: int = 1_000_000

    def validate(self):
        if self.repetitions < 1:
            raise ConfigError("repetitions must be >= 1")
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        if self.svm_max_iter < 1:
            raise ConfigError("svm_max_iter must be >= 1")
        if not self.k_values or not self.retentions:
            raise ConfigError("k_values and retentions must be non-empty")
        if not all(0.0 <= k < math.inf for k in self.k_values):
            raise ConfigError("k_values must be finite and >= 0")
        if not self.c_grid or not self.gamma_grid:
            raise ConfigError("c_grid and gamma_grid must be non-empty")
        if not all(0 < v < math.inf for v in (*self.c_grid, *self.gamma_grid)):
            raise ConfigError("c_grid and gamma_grid values must be finite and > 0")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if self.grid_mode not in ("per_cell", "per_repetition"):
            raise ConfigError(f"unknown grid_mode {self.grid_mode!r}")
        for ret in self.retentions:
            if ret is None:
                continue
            if isinstance(ret, bool) or not isinstance(ret, (int, float)):
                raise ConfigError(f"bad retention value {ret!r}")
            if isinstance(ret, float) and not 0.0 < ret <= 1.0:
                raise ConfigError(f"retention fraction {ret} outside (0, 1]")
            if isinstance(ret, int) and ret < 1:
                raise ConfigError(f"retention component count {ret} must be >= 1")
        try:
            FeatureMask.parse(self.features)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return self


def config_from_dict(data):
    """Build an ExperimentConfig from a plain (JSON) dictionary.

    Unknown keys and values that do not match their field's type raise
    ConfigError.
    """
    return _dataclass_from_dict(ExperimentConfig, data, "config").validate()


def _dataclass_from_dict(cls, data, where):
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object, got {data!r}")
    kinds = {f.name: f.type for f in fields(cls)}
    unknown = set(data) - set(kinds)
    if unknown:
        raise ConfigError(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    values = {key: _typed(kinds[key], value, f"{where}.{key}") for key, value in data.items()}
    try:
        return cls(**values)
    except ValueError as exc:  # a range rule of the dataclass's __post_init__
        raise ConfigError(f"{where}: {exc}") from exc


def _typed(kind, value, where):
    """`value` checked against the field type `kind`, else ConfigError.

    A dataclass field takes an object and a tuple field a list, with its
    items checked when the annotation types them; both are converted.
    Any other value is returned as is if it fits (see _fits).
    """
    if is_dataclass(kind):
        return _dataclass_from_dict(kind, value, where)
    for option in get_args(kind) if isinstance(kind, UnionType) else (kind,):
        if (get_origin(option) or option) is tuple:
            if isinstance(value, list):
                items = get_args(option)
                if items[-1:] == (Ellipsis,):
                    items = items[:1] * len(value)
                if not items:
                    return tuple(value)
                if len(items) == len(value):
                    return tuple(_typed(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(items, value)))
        elif _fits(option, value):
            return value
    name = kind.__name__ if isinstance(kind, type) else str(kind)
    raise ConfigError(f"{where}: {value!r} is not a valid {name}")


def _fits(option, value):
    """A bool is only a bool; an int is also a float; floats are finite."""
    if option is type(None):
        return value is None
    if isinstance(value, bool):
        return option is bool
    if option is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int too large for a float
            return False
    return isinstance(value, option)


# ---------------------------------------------------------------------------
# Feature extraction


@dataclass
class FeatureStore:
    """Per-sample features computed once and reused across cells."""

    tracking: np.ndarray  # (n, 25) full tracking segments
    hog: np.ndarray | None  # (n, hog_dim) raw (unweighted) descriptors
    labels: np.ndarray
    sample_ids: list


def build_feature_store(samples, cfg):
    """Extract tracking (and optionally HOG) features for every sample."""
    umap = None
    if cfg.undistort_map is not None:
        umap = UndistortionMap.load(cfg.undistort_map)
    tracking = np.empty((len(samples), FULL_MASK.dims()))
    hog = None
    for i, sample in enumerate(samples):
        tracking[i] = extract_tracking_features(sample.frame).vector(FULL_MASK)
        if cfg.use_hog:
            vec = extract_image_features(sample.images, cfg.image, umap)
            if hog is None:
                hog = np.empty((len(samples), len(vec)))
            hog[i] = vec
    return FeatureStore(
        tracking=tracking,
        hog=hog,
        labels=np.array([s.gesture for s in samples], dtype=int),
        sample_ids=[s.sample_id for s in samples],
    )


def load_samples(cfg):
    """Materialize the configured dataset (manifest or synthetic)."""
    if cfg.manifest is not None:
        return load_dataset(cfg.manifest)
    spec = cfg.synthetic
    return generate_synthetic(
        templates=default_templates(
            pos_noise_mm=spec.pos_noise_mm, rot_noise_deg=spec.rot_noise_deg
        ),
        subjects=spec.subjects,
        reps=spec.reps,
        seed=spec.seed,
        translation_mm=spec.translation_mm,
        image_size=spec.image_size,
    )


# ---------------------------------------------------------------------------
# Cells and results


@dataclass(frozen=True)
class CellSpec:
    """One experiment cell: feature mask, HOG usage, weight, retention."""

    mask: FeatureMask
    use_hog: bool
    k: float | None = None
    retention: object = None

    def label(self):
        base = self.mask.label()
        if self.use_hog:
            return "hog" if base == "none" else base + "+hog"
        return base

    def tag(self):
        return f"{self.label()}_K{_fmt(self.k)}_ret{_fmt(self.retention)}"


def _fmt(value):
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


@dataclass
class CellResult:
    cell: CellSpec
    params: KernelParams
    cv_table: list
    classes: list
    accuracies: list
    confusion: np.ndarray  # (m, m) summed over repetitions
    predictions: list  # per rep: list of (sample_id, true, pred, votes_won)
    all_converged: bool

    @property
    def mean_accuracy(self):
        return float(np.mean(self.accuracies))

    @property
    def std_accuracy(self):
        return float(np.std(self.accuracies))


@dataclass
class Report:
    config: ExperimentConfig
    cells: list

    def all_converged(self):
        return all(c.all_converged for c in self.cells)

    def aggregate_rows(self):
        return [
            (c.cell.label(), c.cell.k, c.cell.retention, c.mean_accuracy, c.std_accuracy)
            for c in self.cells
        ]


def raw_features(store, mask, use_hog, k):
    """Unweighted [tracking[mask], hog] rows of a store and their layout.

    The returned FusionConfig weights the HOG segment by `k` when HOG is
    used; Preprocessing.apply turns the raw rows into fused ones.
    """
    tracking = store.tracking[:, mask.column_indices()]
    hog = store.hog if use_hog else None
    fusion = FusionConfig(
        mask=mask,
        hog_weight=float(k) if use_hog else 1.0,
        hog_dim=0 if hog is None else hog.shape[1],
    )
    raw = tracking if hog is None else np.hstack([tracking, hog])
    return raw, fusion


def fit_preprocessing(raw, fusion, retention):
    """Preprocessing fitted on the raw training rows `raw`.

    `retention` is None (no PCA), an int component count or a float
    retained-variance fraction; PCA is fitted on the weighted rows.
    Returns (pre, rows): the preprocessing and `raw` passed through it,
    the same values pre.apply(raw) gives, computed once.
    """
    pre = Preprocessing(fusion=fusion)
    weighted = pre.apply(raw)
    if retention is None:
        return pre, weighted
    pre.pca = _fit_pca(weighted, retention)
    return pre, pre.pca.transform(weighted)


def _fit_pca(weighted, retention):
    """PCA of the weighted rows: an int retention is a component count,
    a float a retained-variance fraction."""
    if isinstance(retention, int) and not isinstance(retention, bool):
        return fit_pca(weighted, n_components=retention)
    return fit_pca(weighted, retained_fraction=float(retention))


def experiment_cells(cfg):
    """The (fusion weight x retention) cell grid an experiment will run."""
    mask = FeatureMask.parse(cfg.features)
    cells = []
    ks = list(cfg.k_values) if cfg.use_hog else [None]
    for k in ks:
        for retention in cfg.retentions:
            cells.append(CellSpec(mask=mask, use_hog=cfg.use_hog, k=k, retention=retention))
    return cells


def _run_cells(store, cells, cfg):
    """The repeated 80/20 protocol on every cell, in batches of units.

    A unit is one squared-distance matrix over all rows of a cell: one per
    cell without PCA, and one per repetition with PCA, fitted on that
    repetition's training rows.  Consecutive units form a batch while they
    fit in STACK_ENTRIES (a larger unit runs alone), written into one
    stack; the batch runs all its grid searches, then all its final fits.
    Every cell shares the splits.  The results are those of grid_search,
    train_multiclass and classify per repetition; a failure raises with
    the tag of its cell.
    """
    labels, n, reps = store.labels, len(store.labels), range(cfg.repetitions)
    splits = [
        split_indices(labels, cfg.train_fraction, derive_seed(cfg.seed, f"split:{r}"))
        for r in reps
    ]
    per_repetition = cfg.grid_mode == "per_repetition"
    units = [  # (cell index, the repetitions that share the unit's rows)
        (c, group) for c, cell in enumerate(cells)
        for group in ([reps] if cell.retention is None else [[r] for r in reps])
    ]
    searches, outcomes = {}, {}  # by (cell index, repetition)
    fused = (None, None)  # (cell index, fused rows) of the PCA cell in progress
    size = max(1, STACK_ENTRIES // n**2)  # units per batch
    for start in range(0, len(units), size):
        batch = units[start : start + size]
        try:
            # Fusing and PCA fits hold the most memory, so they run before
            # the stack exists: first every PCA unit's fit and projection,
            # then each unit's rows, with the stack made after the first.
            projected = {}
            for u, (c, group) in enumerate(batch):
                if cells[c].retention is not None:
                    with _blame(u):
                        if fused[0] != c:
                            fused = (c, None)  # the last cell's rows go before this cell's come
                            fused = (c, _fused_rows(store, cells[c]))
                        pca = _fit_pca(fused[1][splits[group[0]][0]], cells[c].retention)
                        projected[u] = pca.transform(fused[1])
            if start + size >= len(units) or units[start + size][0] != fused[0]:
                fused = (None, None)  # no later unit needs these rows
            sq = None
            for u, (c, _) in enumerate(batch):
                with _blame(u):
                    rows = projected.pop(u) if u in projected else _fused_rows(store, cells[c])
                    rows, _ = _training_rows(rows, labels)
                    if sq is None:
                        sq = np.empty((len(batch) * n, n))
                    _squared_distances(rows, rows, out=_slab(sq, u))
                    del rows

            # Stage 1: every grid search, then stage 2: every final fit.
            wanted = [(u, c, r) for u, (c, group) in enumerate(batch) for r in group
                      if per_repetition or r == 0]
            tags = [f"grid:{cells[c].tag()}" for _, c, _ in wanted]
            seeds = [
                derive_seed(cfg.seed, f"{tag}:{r}" if per_repetition else tag)
                for tag, (_, _, r) in zip(tags, wanted)
            ]
            found = _grid_searches(sq, labels, [
                (u, splits[r][0], seed) for (u, _, r), seed in zip(wanted, seeds)
            ], cfg.c_grid, cfg.gamma_grid, cfg.folds, cfg.svm_max_iter)
            searches.update(((c, r), result) for (_, c, r), result in zip(wanted, found))
            fits = [(u, c, r) for u, (c, group) in enumerate(batch) for r in group]
            done = _final_fits(sq, labels, [
                (u, *splits[r], searches[c, r if per_repetition else 0][0]) for u, c, r in fits
            ], cfg.svm_max_iter)
            outcomes.update(((c, r), outcome) for (_, c, r), outcome in zip(fits, done))
        except GestureLabError as exc:
            raise type(exc)(f"[cell {cells[batch[exc.unit][0]].tag()}] {exc}") from exc
        del sq
    searched = reps if per_repetition else [0]
    return [_cell_result(store, cell, splits, [outcomes[c, r] for r in reps],
                         [searches[c, r] for r in searched]) for c, cell in enumerate(cells)]


def _fused_rows(store, cell):
    """All rows of the store, fused for the cell."""
    raw, fusion_cfg = raw_features(store, cell.mask, cell.use_hog, cell.k)
    return Preprocessing(fusion=fusion_cfg).apply(raw)


def _cell_result(store, cell, splits, outcomes, searches):
    """CellResult of a cell's (predicted, votes won, converged) outcome per
    repetition and (params, CV table, converged) grid searches; it reports
    the last search, and converged only if every fit and search did."""
    labels = store.labels
    classes = [int(c) for c in np.unique(labels)]
    accuracies = []
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    predictions = []
    for (_, test_idx), (predicted, votes_won, _) in zip(splits, outcomes):
        truth = labels[test_idx]
        accuracies.append(float(np.mean(predicted == truth)))
        np.add.at(confusion, tuple(np.searchsorted(classes, [truth, predicted])), 1)
        ids = [store.sample_ids[t] for t in test_idx]
        predictions.append(list(zip(ids, truth.tolist(), predicted.tolist(), votes_won.tolist())))
    params, cv_table, _ = searches[-1]
    return CellResult(
        cell=cell,
        params=params,
        cv_table=cv_table,
        classes=classes,
        accuracies=accuracies,
        confusion=confusion,
        predictions=predictions,
        all_converged=all(converged for *_, converged in outcomes + searches),
    )


def _store_for(cfg, store):
    """The given feature store, else one built from the config's dataset."""
    return store if store is not None else build_feature_store(load_samples(cfg), cfg)


def run_experiment(cfg, store=None):
    """Run the configured cells over repeated stratified 80/20 splits."""
    cfg.validate()
    store = _store_for(cfg, store)
    return Report(config=cfg, cells=_run_cells(store, experiment_cells(cfg), cfg))


def ablation_table(cfg, combos, store=None):
    """Tracking-only accuracy per feature combination (no HOG)."""
    cfg.validate()
    if not combos:
        raise ConfigError("combos must be non-empty")
    store = _store_for(cfg, store)
    cells = []
    for combo in combos:
        mask = combo if isinstance(combo, FeatureMask) else FeatureMask.parse(combo)
        cells.append(CellSpec(mask=mask, use_hog=False, k=None, retention=None))
    return Report(config=cfg, cells=_run_cells(store, cells, cfg))


def fusion_sweep(cfg, k_values=None, retentions=None, store=None):
    """Full fusion-weight x retention accuracy grid on fused features."""
    k_values = tuple(k_values if k_values is not None else cfg.k_values)
    retentions = tuple(retentions if retentions is not None else cfg.retentions)
    sweep_cfg = replace(cfg, use_hog=True, k_values=k_values, retentions=retentions)
    return run_experiment(sweep_cfg, store=store)


DEFAULT_ABLATION_COMBOS = (
    "dist+elev+tip",
    "ang+elev+tip",
    "ang+dist+elev",
    "ang+dist+tip",
    "ang+dist+elev+tip",
)


# ---------------------------------------------------------------------------
# Report emission


def write_report_csv(report, path):
    """Long-format accuracies: one row per repetition plus a mean row."""
    lines = ["combo,K,retention,rep,accuracy"]
    for result in report.cells:
        combo = result.cell.label()
        k = _fmt(result.cell.k)
        ret = _fmt(result.cell.retention)
        for r, acc in enumerate(result.accuracies):
            lines.append(f"{combo},{k},{ret},{r},{acc!r}")
        lines.append(f"{combo},{k},{ret},mean,{result.mean_accuracy!r}")
    _write_lines(lines, path)


def write_confusion_csv(classes, matrix, path):
    """Confusion counts with class-label headers and an accuracy line."""
    matrix = np.asarray(matrix)
    lines = ["class," + ",".join(str(c) for c in classes)]
    for i, cls in enumerate(classes):
        lines.append(f"{cls}," + ",".join(str(int(v)) for v in matrix[i]))
    total = int(matrix.sum())
    accuracy = float(np.trace(matrix) / total) if total else 0.0
    lines.append(f"accuracy,{accuracy!r}")
    _write_lines(lines, path)


def write_predictions_csv(rows, path):
    lines = ["sample_id,true,pred,votes"]
    for sample_id, true, pred, votes in rows:
        lines.append(f"{sample_id},{true},{pred},{votes}")
    _write_lines(lines, path)


def write_cv_table_csv(cv_table, path):
    lines = ["c,gamma,accuracy"]
    for row in cv_table:
        lines.append(f"{row['c']!r},{row['gamma']!r},{row['accuracy']!r}")
    _write_lines(lines, path)


def emit_report(report, out_dir):
    """Write report.csv plus per-cell confusion and prediction logs."""
    os.makedirs(out_dir, exist_ok=True)
    write_report_csv(report, os.path.join(out_dir, "report.csv"))
    for result in report.cells:
        tag = result.cell.tag()
        write_confusion_csv(
            result.classes, result.confusion, os.path.join(out_dir, f"confusion_{tag}.csv")
        )
        for r, rows in enumerate(result.predictions):
            write_predictions_csv(
                rows, os.path.join(out_dir, f"predictions_{tag}_rep{r:03d}.csv")
            )
        if result.cv_table:
            write_cv_table_csv(result.cv_table, os.path.join(out_dir, f"cv_{tag}.csv"))
    return os.path.join(out_dir, "report.csv")


def _write_lines(lines, path):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
