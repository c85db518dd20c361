"""Command-line interface.

Subcommands: synth, extract, train, predict, grid-search, ablation,
sweep, report.  Options can come from one JSON config file (--config)
with individual flags taking precedence.  Exit codes: 0 success,
1 configuration error, 2 data error, 3 numerical failure.  An output
path that cannot be written is a data error, found before any work
when its directory is missing or it names a file where a directory
belongs.
"""

import argparse
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from . import harness, jsonio
from .data import NUM_GESTURES, dataset_summary, save_dataset
from .errors import ConfigError, DataError, GestureLabError, InsufficientData, NumericalError
from .harness import (
    DEFAULT_ABLATION_COMBOS,
    FeatureStore,
    ablation_table,
    build_feature_store,
    config_from_dict,
    emit_report,
    experiment_cells,
    fit_preprocessing,
    fusion_sweep,
    load_samples,
    raw_features,
    run_experiment,
    write_cv_table_csv,
    write_predictions_csv,
)
from .svm import KernelParams, classify, grid_search, load_model, save_model, train_multiclass
from .tracking import FULL_MASK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse normally exits 2; that's our data code
        raise ConfigError(message)


def _parse_values(text):
    """Comma-separated floats/ints or 'none'; any other token is a ValueError."""
    out = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if token.lower() == "none":
            out.append(None)
        elif any(ch in token for ch in ".eE") and not token.lstrip("+-").isdigit():
            out.append(float(token))
        else:
            out.append(int(token))
    if not out:
        raise ConfigError(f"empty value list: {text!r}")
    return out


def _one_value(text):
    (value,) = _parse_values(text)  # several values: a ValueError, which argparse reports
    return [value]


def _add_source_args(p):
    """Flags over the config file that choose the samples and how they are read."""
    p.add_argument("--config", help="JSON experiment config file")
    p.add_argument("--manifest", help="dataset manifest path (overrides config)")
    p.add_argument("--subjects", type=int, help="synthetic subjects (overrides config)")
    p.add_argument("--reps", type=int, help="synthetic repetitions per gesture")
    p.add_argument("--data-seed", type=int, help="synthetic dataset seed")
    p.add_argument("--undistort-map", help="calibration map file for raw images")


def _add_override_args(p):
    """The sample flags plus every experiment flag over the config file."""
    _add_source_args(p)
    p.add_argument("--features", help="tracking feature mask, e.g. ang+dist+tip")
    hog = p.add_mutually_exclusive_group()
    hog.add_argument("--use-hog", dest="use_hog", action="store_true", default=None)
    hog.add_argument("--no-hog", dest="use_hog", action="store_false", default=None)
    p.add_argument("--k-values", type=_parse_values, help="comma-separated fusion weights")
    p.add_argument(
        "--retentions", type=_parse_values, help="comma-separated retentions (floats, ints, or none)"
    )
    p.add_argument("--c-grid", type=_parse_values, help="comma-separated C grid")
    p.add_argument("--gamma-grid", type=_parse_values, help="comma-separated gamma grid")
    p.add_argument("--folds", type=int)
    p.add_argument("--repetitions", type=int)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--seed", type=int, help="master experiment seed")
    p.add_argument("--grid-mode", choices=["per_cell", "per_repetition"])


def _add_one_value_args(p):
    """--k and --retention: one-value spellings of --k-values and --retentions."""
    p.add_argument("--k", dest="k_values", type=_one_value, help="HOG segment fusion weight")
    p.add_argument(
        "--retention",
        dest="retentions",
        type=_one_value,
        help="PCA retention (float fraction, int count, or none)",
    )


def _build_config(args, **defaults):
    """The config from `defaults`, then the --config file, then every flag
    given, each layer over the ones before, checked by config_from_dict.

    A flag whose dest names a config field sets that field; --subjects,
    --reps, --data-seed and synth's flags fill the `synthetic` section.
    """
    given = {name: value for name, value in vars(args).items() if value is not None}
    file = {}
    if "config" in given:
        try:
            file = jsonio.load_path(given["config"])
        except DataError as exc:
            raise ConfigError(f"config {exc}") from exc
        if not isinstance(file, dict) or not isinstance(file.get("synthetic", {}), dict):
            return config_from_dict(file)  # raises: no flag can be merged over it
    synthetic = {f.name: given[f.name] for f in fields(harness.SyntheticSpec) if f.name in given}
    synthetic.pop("seed", None)  # --seed is the experiment seed, --data-seed this one
    if "data_seed" in given:
        synthetic["seed"] = given["data_seed"]
    flags = {f.name: given[f.name] for f in fields(harness.ExperimentConfig) if f.name in given}
    flags["synthetic"] = file.get("synthetic", {}) | synthetic
    return config_from_dict(defaults | file | flags)


def _check_outputs(args):
    """Refuse, before any work, a file output (--out of extract, train,
    predict and grid-search) whose directory does not exist, and a
    directory output (synth's --out, --out-dir) that is a file."""
    out = getattr(args, "out", None)
    if out is not None and not os.path.isdir(os.path.dirname(os.path.abspath(out))):
        raise DataError(f"cannot write {out}: its directory does not exist")
    out_dir = getattr(args, "out_dir", None)
    if out_dir is not None and os.path.exists(out_dir) and not os.path.isdir(out_dir):
        raise DataError(f"cannot write into {out_dir}: not a directory")


def _one_cell(cfg):
    """The one cell that train and grid-search fit, else ConfigError."""
    cells = experiment_cells(cfg)
    if len(cells) > 1:
        raise ConfigError(
            f"train and grid-search fit one cell; the K values and retentions give {len(cells)}"
        )
    return cells[0]


def _load_store(args, cfg):
    features_file = getattr(args, "features_file", None)
    if features_file:
        return _read_feature_store(features_file)
    return build_feature_store(load_samples(cfg), cfg)


def _read_feature_store(path):
    try:
        data = np.load(path, allow_pickle=False)
        files = getattr(data, "files", ())  # a plain .npy file loads as one array
        missing = [k for k in ("tracking", "labels", "sample_ids") if k not in files]
        if missing:
            raise DataError(f"feature file {path} lacks {', '.join(missing)}")
        tracking = np.asarray(data["tracking"], dtype=float)
        hog = np.asarray(data["hog"], dtype=float) if "hog" in files else None
        labels, sample_ids = data["labels"], data["sample_ids"]
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read feature file {path}: {exc}") from exc
    if tracking.ndim != 2 or tracking.shape[1] != FULL_MASK.dims():
        raise DataError(
            f"feature file {path}: tracking is {tracking.shape}, expected (n, {FULL_MASK.dims()})"
        )
    n = len(tracking)
    if n == 0:
        raise InsufficientData(f"feature file {path} holds no samples")
    for name, array, ndim in (("labels", labels, 1), ("sample_ids", sample_ids, 1), ("hog", hog, 2)):
        if array is not None and (array.ndim != ndim or len(array) != n):
            raise DataError(f"feature file {path}: {name} is {array.shape}, tracking has {n} rows")
    for name, array in (("tracking", tracking), ("hog", hog)):
        if array is not None and not np.isfinite(array).all():
            raise DataError(f"feature file {path}: {name} holds non-finite values")
    if labels.dtype.kind not in "iu" or not ((labels >= 0) & (labels < NUM_GESTURES)).all():
        raise DataError(f"feature file {path}: labels must be integers in [0, {NUM_GESTURES})")
    return FeatureStore(
        tracking=tracking, hog=hog, labels=labels, sample_ids=[str(s) for s in sample_ids]
    )


def _write_feature_store(store, path):
    arrays = {
        "tracking": store.tracking,
        "labels": store.labels,
        "sample_ids": np.array(store.sample_ids),
    }
    if store.hog is not None:
        arrays["hog"] = store.hog
    np.savez_compressed(path, **arrays)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_synth(args):
    samples = load_samples(_build_config(args))
    manifest = save_dataset(samples, args.out_dir)
    counts = dataset_summary(samples)
    print(f"wrote {len(samples)} samples over {len(counts)} (subject, gesture) groups")
    print(f"manifest: {manifest}")
    return 0


def _cmd_extract(args):
    store = _load_store(args, _build_config(args))
    _write_feature_store(store, args.out)
    hog_dim = 0 if store.hog is None else store.hog.shape[1]
    print(
        f"extracted {len(store.labels)} samples: tracking {store.tracking.shape[1]} dims, "
        f"hog {hog_dim} dims -> {args.out}"
    )
    return 0


def _cmd_train(args):
    cfg = _build_config(args)
    if (args.c is None) != (args.gamma is None):
        raise ConfigError("--c and --gamma go together; without both, train grid-searches")
    params = None
    if args.c is not None:
        try:
            params = KernelParams(c=args.c, gamma=args.gamma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    cell = _one_cell(cfg)
    store = _load_store(args, cfg)
    pre, projected = fit_preprocessing(store, cell)

    searched = True
    if params is None:
        params, _, searched = grid_search(
            projected, store.labels, cfg.c_grid, cfg.gamma_grid, cfg.folds,
            harness.derive_seed(cfg.seed, "grid:train"), cfg.svm_max_iter,
        )
        print(f"grid search selected C={params.c} gamma={params.gamma}")
    model = train_multiclass(
        projected,
        store.labels,
        params,
        max_iter=cfg.svm_max_iter,
        preprocessing=pre,
    )
    save_model(model, args.out)
    print(
        f"trained {model.n_pairs} pair models on {len(store.labels)} samples "
        f"({len(model.support_vectors)} support vectors) -> {args.out}"
    )
    if not (searched and model.all_converged()):
        print("warning: some pair models hit the iteration budget", file=sys.stderr)
        return 3
    return 0


def _cmd_predict(args):
    model = load_model(args.model)
    if model.preprocessing is None:
        raise DataError("model carries no preprocessing; cannot derive features")
    cfg = _build_config(args)
    cfg.use_hog = model.preprocessing.fusion.hog_dim > 0
    store = _load_store(args, cfg)
    labels, votes = classify(model, raw_features(store, model.preprocessing.fusion))
    rows = [
        (store.sample_ids[i], int(store.labels[i]), int(labels[i]), int(votes[i]))
        for i in range(len(labels))
    ]
    write_predictions_csv(rows, args.out)
    accuracy = float(np.mean(labels == store.labels))
    print(f"predicted {len(labels)} samples, accuracy {accuracy:.4f} -> {args.out}")
    return 0


def _cmd_grid_search(args):
    cfg = _build_config(args)
    cell = _one_cell(cfg)
    store = _load_store(args, cfg)
    _, projected = fit_preprocessing(store, cell)
    params, table, converged = grid_search(
        projected, store.labels, cfg.c_grid, cfg.gamma_grid, cfg.folds,
        harness.derive_seed(cfg.seed, "grid:cli"), cfg.svm_max_iter,
    )
    if args.out:
        write_cv_table_csv(table, args.out)
        print(f"cv table -> {args.out}")
    best = max(row["accuracy"] for row in table)
    print(f"best: C={params.c} gamma={params.gamma} cv-accuracy={best:.4f}")
    if not converged:
        print("warning: some models hit the iteration budget", file=sys.stderr)
        return 3
    return 0


def _finish_report(report, out_dir):
    path = emit_report(report, out_dir)
    for combo, k, retention, mean, std in report.aggregate_rows():
        label = f"{combo} K={harness._fmt(k)} ret={harness._fmt(retention)}"
        print(f"{label}: mean accuracy {mean:.4f} (std {std:.4f})")
    print(f"report -> {path}")
    if not report.all_converged():
        print("warning: some models hit the iteration budget", file=sys.stderr)
        return 3
    return 0


def _cmd_ablation(args):
    cfg = _build_config(args)
    combos = (
        [c.strip() for c in args.combos.split(";")] if args.combos else DEFAULT_ABLATION_COMBOS
    )
    report = ablation_table(cfg, combos)
    return _finish_report(report, args.out_dir)


def _cmd_sweep(args):
    cfg = _build_config(args, repetitions=10)  # sweeps default to fewer repetitions per cell
    report = fusion_sweep(cfg)
    return _finish_report(report, args.out_dir)


def _cmd_report(args):
    cfg = _build_config(args)
    report = run_experiment(cfg)
    return _finish_report(report, args.out_dir)


def _cmd_show_config(args):
    print(jsonio.dumps(asdict(_build_config(args))))
    return 0


def build_parser():
    parser = _Parser(prog="gesturelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset on disk")
    p.add_argument("--out", dest="out_dir", required=True, help="output dataset directory")
    p.add_argument("--subjects", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--seed", dest="data_seed", type=int)
    p.add_argument("--pos-noise", dest="pos_noise_mm", type=float, help="fingertip noise sigma, mm")
    p.add_argument("--rot-noise", dest="rot_noise_deg", type=float, help="rotation noise sigma, deg")
    p.add_argument(
        "--translation", dest="translation_mm", type=float, help="translation half-range, mm"
    )
    p.add_argument("--image-size", type=int)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("extract", help="extract features into an .npz file")
    _add_override_args(p)
    p.add_argument("--out", required=True, help="output .npz path")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train", help="fit preprocessing and a multi-class model")
    _add_override_args(p)
    p.add_argument("--features-file", help="reuse features from an extract .npz")
    _add_one_value_args(p)
    p.add_argument("--c", type=float, help="fixed C, with --gamma: skips the grid search")
    p.add_argument("--gamma", type=float, help="fixed gamma, with --c: skips the grid search")
    p.add_argument("--out", required=True, help="output model.json path")
    p.set_defaults(func=_cmd_train)

    # The model fixes the features and the classifier, so predict takes
    # only the flags that choose the samples.  Without abbreviations,
    # --features is not read as --features-file.
    p = sub.add_parser(
        "predict", help="classify a dataset with a trained model", allow_abbrev=False
    )
    _add_source_args(p)
    p.add_argument("--model", required=True)
    p.add_argument("--features-file", help="reuse features from an extract .npz")
    p.add_argument("--out", required=True, help="output predictions CSV")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("grid-search", help="cross-validated hyper-parameter search")
    _add_override_args(p)
    p.add_argument("--features-file", help="reuse features from an extract .npz")
    _add_one_value_args(p)
    p.add_argument("--out", help="output CV-table CSV")
    p.set_defaults(func=_cmd_grid_search)

    p = sub.add_parser("ablation", help="tracking-feature combination table")
    _add_override_args(p)
    p.add_argument("--combos", help="semicolon-separated masks (default: standard five)")
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_ablation)

    p = sub.add_parser("sweep", help="fusion-weight x retention accuracy grid")
    _add_override_args(p)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("report", help="run the configured experiment cells")
    _add_override_args(p)
    p.add_argument("--out-dir", default="out")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("show-config", help="print the merged effective config")
    _add_override_args(p)
    p.set_defaults(func=_cmd_show_config)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_outputs(args)
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except GestureLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # inputs are read through typed errors, so this is an output
        print(f"data error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
