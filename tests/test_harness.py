import os
from dataclasses import replace

import numpy as np
import pytest

from gesturelab.data import split_indices
from gesturelab.errors import ConfigError, DataError
from gesturelab.harness import (
    DEFAULT_ABLATION_COMBOS,
    ExperimentConfig,
    SyntheticSpec,
    ablation_table,
    build_feature_store,
    config_from_dict,
    derive_seed,
    emit_report,
    experiment_cells,
    fusion_sweep,
    load_samples,
    raw_features,
    run_experiment,
    write_confusion_csv,
    write_report_csv,
)
from gesturelab.fusion import FusionConfig, fit_pca
from gesturelab.svm import Preprocessing, classify, grid_search, train_multiclass
from gesturelab.tracking import FeatureMask


def small_config(**overrides):
    base = dict(
        synthetic=SyntheticSpec(subjects=3, reps=6, seed=21),
        features="ang+dist+tip",
        use_hog=False,
        k_values=(1.0,),
        retentions=(None,),
        c_grid=(10.0,),
        gamma_grid=(0.5,),
        folds=3,
        repetitions=2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def store():
    cfg = small_config(use_hog=True)  # build HOG once; cells may ignore it
    samples = load_samples(cfg)
    return build_feature_store(samples, cfg)


@pytest.fixture(scope="module")
def noisy_store():
    # Off the accuracy ceiling: grid points and repetitions score differently.
    spec = SyntheticSpec(subjects=3, reps=6, seed=21, pos_noise_mm=20.0, rot_noise_deg=30.0)
    cfg = small_config(use_hog=True, synthetic=spec)
    return build_feature_store(load_samples(cfg), cfg)


# ---------------------------------------------------------------------------
# Configuration


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        small_config(repetitions=0).validate()
    with pytest.raises(ConfigError):
        small_config(k_values=()).validate()
    with pytest.raises(ConfigError):
        small_config(grid_mode="sometimes").validate()
    with pytest.raises(ConfigError):
        small_config(retentions=(1.5,)).validate()
    with pytest.raises(ConfigError):
        small_config(features="bogus").validate()


def test_config_from_dict_nested():
    cfg = config_from_dict(
        {
            "synthetic": {"subjects": 2, "reps": 3},
            "image": {"hog": {"cell_size": 16}, "hog_size": [64, 64]},
            "k_values": [1, 5],
            "retentions": [0.8, None],
            "repetitions": 1,
        }
    )
    assert cfg.synthetic.subjects == 2
    assert cfg.image.hog.cell_size == 16
    assert cfg.k_values == (1, 5)
    assert cfg.retentions == (0.8, None)


def test_config_from_dict_unknown_key():
    with pytest.raises(ConfigError):
        config_from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"synthetic": {"bogus": 1}})


def test_derive_seed_is_stable():
    assert derive_seed(7, "split:0") == derive_seed(7, "split:0")
    assert derive_seed(7, "split:0") != derive_seed(7, "split:1")
    assert derive_seed(7, "split:0") != derive_seed(8, "split:0")


def test_experiment_cell_grid_shape():
    cfg = small_config(
        use_hog=True,
        k_values=tuple(float(k) for k in range(1, 10)),
        retentions=(0.6, 0.7, 0.8, 0.9, 1.0),
    )
    cells = experiment_cells(cfg)
    assert len(cells) == 45
    assert all(c.use_hog for c in cells)


# ---------------------------------------------------------------------------
# run_experiment


def test_run_experiment_report_shape(store):
    cfg = small_config()
    report = run_experiment(cfg, store=store)
    assert len(report.cells) == 1
    cell = report.cells[0]
    assert len(cell.accuracies) == cfg.repetitions
    assert cell.mean_accuracy == pytest.approx(np.mean(cell.accuracies), abs=1e-12)
    # confusion row sums: repetitions x per-class test count
    per_class_test = 18 - int(np.floor(0.8 * 18))  # 18 samples per gesture
    assert np.all(cell.confusion.sum(axis=1) == cfg.repetitions * per_class_test)


def test_confusion_matches_prediction_log(store):
    cfg = small_config()
    report = run_experiment(cfg, store=store)
    cell = report.cells[0]
    recount = np.zeros_like(cell.confusion)
    index = {c: k for k, c in enumerate(cell.classes)}
    correct = 0
    total = 0
    for rows in cell.predictions:
        for _, true, pred, _ in rows:
            recount[index[true], index[pred]] += 1
            correct += true == pred
            total += 1
    assert np.array_equal(recount, cell.confusion)
    assert correct / total == pytest.approx(
        np.trace(cell.confusion) / cell.confusion.sum(), abs=0
    )
    # accuracy from the log equals the mean of per-rep accuracies
    assert correct / total == pytest.approx(np.mean(cell.accuracies), abs=1e-12)


def test_reports_are_byte_identical(tmp_path, store):
    cfg = small_config()
    for name in ("a", "b"):
        emit_report(run_experiment(cfg, store=store), tmp_path / name)
    a_files = sorted(os.listdir(tmp_path / "a"))
    b_files = sorted(os.listdir(tmp_path / "b"))
    assert a_files == b_files
    for name in a_files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_different_master_seed_changes_splits(store):
    cfg_a = small_config()
    cfg_b = small_config(seed=6)
    rep_a = run_experiment(cfg_a, store=store)
    rep_b = run_experiment(cfg_b, store=store)
    # same data, different splits; prediction logs should differ
    assert rep_a.cells[0].predictions != rep_b.cells[0].predictions


def test_per_repetition_grid_mode(store):
    cfg = small_config(grid_mode="per_repetition", repetitions=1)
    report = run_experiment(cfg, store=store)
    assert len(report.cells[0].cv_table) == 1


@pytest.mark.parametrize("grid_mode", ["per_cell", "per_repetition"])
def test_pca_fitted_once_per_repetition(store, monkeypatch, grid_mode):
    from gesturelab import harness, svm

    calls = {"fit_pca": 0, "fuse_matrix": 0, "apply": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(harness, "fit_pca")
    counting(harness, "fuse_matrix")
    counting(svm.Preprocessing, "apply")
    cfg = small_config(retentions=(0.9,), repetitions=3, grid_mode=grid_mode)
    report = run_experiment(cfg, store=store)
    assert len(report.cells) == 1
    assert calls["fit_pca"] == cfg.repetitions
    # each repetition fuses all rows, training and test, in one call, and
    # no raw rows are joined and split again
    assert calls["fuse_matrix"] == cfg.repetitions and calls["apply"] == 0


def test_grid_search_fits_get_the_iteration_budget(store, monkeypatch):
    # The 3-fold fits at C = 1000 need 22 SMO iterations, the final fits at
    # the chosen C = 0.1 need 17: a budget of 20 stops only grid-search
    # fits, and the cell is flagged as not converged all the same.
    from gesturelab import svm

    budgets = []
    lockstep = svm._smo_lockstep

    def spy(kernel, index, labels, c, tol, max_iter):
        budgets.append(max_iter)
        return lockstep(kernel, index, labels, c, tol, max_iter)

    monkeypatch.setattr(svm, "_smo_lockstep", spy)
    cfg = small_config(c_grid=(0.1, 1000.0), svm_max_iter=20)
    report = run_experiment(cfg, store=store)
    assert budgets == [20, 20]  # the grid search's call, then the final fits'
    assert report.cells[0].params.c == 0.1
    assert not report.all_converged()
    assert run_experiment(replace(cfg, svm_max_iter=100), store=store).all_converged()


def reference_cell(store, cell, cfg):
    """The protocol as a plain loop over repetitions: Preprocessing.apply
    and fit_pca, grid_search, train_multiclass and classify on each
    split's own raw rows.  Returns the CellResult fields it determines."""
    labels = store.labels
    hog_dim = store.hog.shape[1] if cell.use_hog else 0
    fusion = FusionConfig(cell.mask, cell.k if cell.use_hog else 1.0, hog_dim)
    raw = raw_features(store, fusion)
    classes = [int(c) for c in np.unique(labels)]
    per_repetition = cfg.grid_mode == "per_repetition"
    accuracies, predictions, converged = [], [], True
    confusion = np.zeros((len(classes), len(classes)), dtype=int)
    for r in range(cfg.repetitions):
        train, test = split_indices(labels, cfg.train_fraction, derive_seed(cfg.seed, f"split:{r}"))
        pre = Preprocessing(fusion=fusion)
        if cell.retention is not None:
            pre.pca = fit_pca(pre.apply(raw[train]), retained_fraction=cell.retention)
        rows = pre.apply(raw[train])
        if per_repetition or r == 0:
            tag = f"grid:{cell.tag()}:{r}" if per_repetition else f"grid:{cell.tag()}"
            params, cv_table, _ = grid_search(
                rows, labels[train], cfg.c_grid, cfg.gamma_grid,
                folds=cfg.folds, seed=derive_seed(cfg.seed, tag), max_iter=cfg.svm_max_iter,
            )
        model = train_multiclass(
            rows, labels[train], params, max_iter=cfg.svm_max_iter, preprocessing=pre
        )
        converged &= model.all_converged()
        predicted, won = classify(model, raw[test])
        truth = labels[test]
        accuracies.append(float(np.mean(predicted == truth)))
        for t, p in zip(truth, predicted):
            confusion[classes.index(t), classes.index(p)] += 1
        ids = [store.sample_ids[t] for t in test]
        predictions.append(list(zip(ids, truth.tolist(), predicted.tolist(), won.tolist())))
    return dict(
        params=params, cv_table=cv_table, classes=classes, accuracies=accuracies,
        confusion=confusion, predictions=predictions, all_converged=converged,
    )


def assert_cells_equal_reference(report, store, cfg):
    """Asserts every cell of the report equals reference_cell; returns the references."""
    references = [reference_cell(store, result.cell, cfg) for result in report.cells]
    for result, expected in zip(report.cells, references):
        for name, value in expected.items():
            got = getattr(result, name)
            assert np.array_equal(got, value) if name == "confusion" else got == value, name
    return references


@pytest.mark.parametrize(
    "retention, grid_mode, slots",
    [
        (None, "per_cell", None),
        (None, "per_repetition", None),
        (0.9, "per_cell", None),
        (0.9, "per_repetition", None),
        (None, "per_cell", 3000),
    ],
)
def test_run_cell_equals_reference_loop(noisy_store, monkeypatch, retention, grid_mode, slots):
    # A cell shares one distance matrix across its repetitions (or builds
    # one per repetition with PCA, all in one stack) and batches the final
    # fits of a gamma into lockstep calls; its results must be the plain
    # loop's.
    from gesturelab import svm

    if slots is not None:
        # 140 training rows of 10 classes: 45 pairs of 28 rows, 1,260 slots a
        # fit, so two repetition fits share a call and the third gets its own.
        monkeypatch.setattr(svm, "LOCKSTEP_SLOTS", slots)
    final_calls = []
    fit_pairs = svm._fit_pairs

    def counted(kernel, labels, fits, max_iter):
        sizes = [len(rows) for _, rows, _ in fits]
        if max(sizes) == 140:  # a final fit; a grid search fold trains on fewer
            final_calls.append(len(fits))
        return fit_pairs(kernel, labels, fits, max_iter)

    monkeypatch.setattr(svm, "_fit_pairs", counted)
    cfg = small_config(
        use_hog=retention is not None, retentions=(retention,), grid_mode=grid_mode,
        c_grid=(0.1, 100.0), gamma_grid=(0.02, 0.5) if retention is None else (0.002, 0.02),
        repetitions=3,
    )
    report = run_experiment(cfg, store=noisy_store)
    monkeypatch.setattr(svm, "_fit_pairs", fit_pairs)
    [expected] = assert_cells_equal_reference(report, noisy_store, cfg)
    assert len({row["accuracy"] for row in expected["cv_table"]}) > 1  # the grid points differ
    if slots is not None:
        assert final_calls == [2, 1]
    elif grid_mode == "per_cell":
        assert final_calls == [3]  # every repetition fit in one lockstep call, PCA or not
    else:  # one call per gamma the repetitions' searches chose
        assert sum(final_calls) == 3 and len(final_calls) <= len(cfg.gamma_grid)


@pytest.mark.parametrize(
    "experiment, grid_mode, units_per_batch",
    [
        ("ablation", "per_cell", None),
        ("ablation", "per_repetition", None),
        ("ablation", "per_cell", 2),
        ("sweep", "per_cell", None),
        ("sweep", "per_repetition", None),
        ("sweep", "per_cell", 3),
    ],
)
def test_experiments_equal_reference_loop(noisy_store, monkeypatch, experiment, grid_mode,
                                          units_per_batch):
    # Every cell of a multi-cell experiment equals the plain per-repetition
    # loop, whether its units share a batch with other cells' or a batch
    # boundary falls between them: 3 ablation cells in batches of 2 units,
    # and the no-PCA cell plus 3 PCA repetitions of a sweep in batches of 3.
    from gesturelab import harness

    n = len(noisy_store.labels)
    if units_per_batch is not None:
        monkeypatch.setattr(harness, "STACK_ENTRIES", units_per_batch * n * n)
    cfg = small_config(grid_mode=grid_mode, c_grid=(0.1, 100.0), repetitions=3)
    if experiment == "ablation":
        cfg = replace(cfg, gamma_grid=(0.02, 0.5))
        combos = ("ang+dist+tip", "dist+elev+tip", "ang+elev")
        report = ablation_table(cfg, combos, store=noisy_store)
    else:
        cfg = replace(cfg, use_hog=True, gamma_grid=(0.002, 0.02))
        report = fusion_sweep(cfg, k_values=(1.0,), retentions=(None, 0.9), store=noisy_store)
    assert len(report.cells) == (3 if experiment == "ablation" else 2)
    assert_cells_equal_reference(report, noisy_store, cfg)


def lockstep_calls(monkeypatch):
    """The list that collects the problem count of each svm._smo_lockstep call."""
    from gesturelab import svm

    calls, solve = [], svm._smo_lockstep

    def counted(kernel, index, *args):
        calls.append(len(index))
        return solve(kernel, index, *args)

    monkeypatch.setattr(svm, "_smo_lockstep", counted)
    return calls


def test_experiment_makes_one_lockstep_call_per_stage(store, monkeypatch):
    # All grid searches of a batch share a call per gamma, and all its final
    # fits a call per chosen gamma: five one-gamma cells make two calls.
    calls = lockstep_calls(monkeypatch)
    cfg = small_config(c_grid=(1.0, 1000.0), folds=2)
    ablation_table(cfg, DEFAULT_ABLATION_COMBOS, store=store)
    # 45 pairs per fit: 5 cells x 2 C x 2 folds, then 5 cells x 2 repetitions
    assert calls == [45 * 20, 45 * 10]
    calls.clear()
    cfg = small_config(grid_mode="per_repetition", gamma_grid=(0.1, 0.5), repetitions=3)
    run_experiment(cfg, store=store)
    # one grid call per gamma serves all 3 repetitions' searches (3 folds each)
    assert calls[:2] == [45 * 9, 45 * 9] and sum(calls[2:]) == 45 * 3


def test_every_solved_kernel_has_a_unit_diagonal(store, monkeypatch):
    # _smo_lockstep takes K_ii + K_tt - 2 K_it as 2 - 2 K_it, so every row a
    # problem addresses must have a diagonal entry of exactly 1.0 in its
    # unit's kernel: in a train_multiclass, a grid_search, and an
    # experiment whose PCA and non-PCA units share one kernel stack.
    from gesturelab import svm

    calls, solve = [], svm._smo_lockstep

    def checked(kernel, index, *args):
        n = kernel.shape[1]
        calls.append((len(kernel) // n, np.unique(kernel.take(index * n + index % n))))
        return solve(kernel, index, *args)

    monkeypatch.setattr(svm, "_smo_lockstep", checked)
    train_multiclass(store.tracking, store.labels, svm.KernelParams(10.0, 0.5))
    grid_search(store.tracking, store.labels, [1.0, 100.0], [0.1, 0.5], folds=3, seed=2)
    run_experiment(small_config(use_hog=True, retentions=(0.9, None)), store=store)
    assert len(calls) == 1 + 2 + 2 and max(units for units, _ in calls) == 3
    assert all(diagonal.tolist() == [1.0] for _, diagonal in calls)


def test_splits_computed_once_per_experiment(store, monkeypatch):
    from gesturelab import harness

    calls = []

    def counted(*args):
        calls.append(args)
        return split_indices(*args)

    monkeypatch.setattr(harness, "split_indices", counted)
    cfg = small_config(repetitions=3)
    ablation_table(cfg, DEFAULT_ABLATION_COMBOS, store=store)
    assert len(calls) == cfg.repetitions


@pytest.mark.parametrize("grid_mode", ["per_cell", "per_repetition"])
def test_distances_built_once_per_cell_or_repetition(store, monkeypatch, grid_mode):
    # No repetition builds its own distances without PCA: the grid search
    # and the final fits of every repetition index one matrix over all
    # rows of the cell.  With PCA the rows change per repetition.
    from gesturelab import harness, svm

    shapes = []
    squared_distances = svm._squared_distances

    def counted(X, Y, *args, **kwargs):
        shapes.append((len(X), len(Y)))
        return squared_distances(X, Y, *args, **kwargs)

    for module in (svm, harness):
        monkeypatch.setattr(module, "_squared_distances", counted)
    n = len(store.labels)
    cfg = small_config(repetitions=3, grid_mode=grid_mode)
    ablation_table(cfg, ("ang+dist+tip", "dist+elev+tip"), store=store)
    assert shapes == [(n, n)] * 2  # one per cell
    shapes.clear()
    cfg = small_config(use_hog=True, retentions=(0.9,), repetitions=3, grid_mode=grid_mode)
    run_experiment(cfg, store=store)
    assert shapes == [(n, n)] * 3  # one per repetition


def test_errors_carry_cell_context(store, monkeypatch):
    from gesturelab import smo
    from gesturelab.errors import InsufficientData, NumericalError

    # one sample per class: the 80% split leaves an empty training set
    cfg = small_config(synthetic=SyntheticSpec(subjects=1, reps=1, seed=1), repetitions=1)
    with pytest.raises(InsufficientData, match=r"\[cell ang\+dist\+tip"):
        run_experiment(cfg)

    # Two cells in one batch, the second at fault; "elev" is only in the
    # second: a NaN fails its row check, a huge value its kernel slab, and
    # a corrupted multiplier its share of a merged SMO call.
    cfg = small_config(repetitions=2)
    combos = ("ang+dist+tip", "dist+elev+tip")
    elev = FeatureMask.parse("elev").column_indices()
    for bad, match in ((np.nan, "training rows"), (1e200, "training kernel")):
        tracking = store.tracking.copy()
        tracking[3, elev[0]] = bad
        bad_store = replace(store, tracking=tracking)
        failure = pytest.raises(NumericalError, match=rf"\[cell dist\+elev\+tip_.*{match}")
        with np.errstate(all="ignore"), failure:  # 1e200 squared overflows
            ablation_table(cfg, combos, store=bad_store)
    results = smo._smo_results

    def corrupted(y, c, alpha, v, up, low, converged, iterations, units):
        alpha[units == 1] = -1.0  # every problem over the second kernel
        return results(y, c, alpha, v, up, low, converged, iterations, units)

    monkeypatch.setattr(smo, "_smo_results", corrupted)
    with pytest.raises(NumericalError, match=r"\[cell dist\+elev\+tip_.*infeasible"):
        ablation_table(cfg, combos, store=store)


# ---------------------------------------------------------------------------
# Ablation and sweep


def test_ablation_rows_and_consistency(store):
    cfg = small_config(repetitions=1)
    combos = ("dist+elev+tip", "ang+elev+tip", "ang+dist+elev", "ang+dist+tip", "ang+dist+elev+tip")
    report = ablation_table(cfg, combos, store=store)
    assert [c.cell.label() for c in report.cells] == list(combos)
    single = ablation_table(cfg, ("ang+dist+tip",), store=store)
    full_cell = next(c for c in report.cells if c.cell.label() == "ang+dist+tip")
    assert single.cells[0].accuracies == full_cell.accuracies


def test_ablation_information_monotonicity(store):
    cfg = small_config(repetitions=2)
    report = ablation_table(cfg, ("ang+dist+elev", "ang+dist+elev+tip"), store=store)
    ade = report.cells[0].mean_accuracy
    adet = report.cells[1].mean_accuracy
    assert adet >= ade - 0.02


def test_sweep_retention_one_equals_no_pca(store):
    cfg = small_config(use_hog=True, gamma_grid=(0.02,))
    report = fusion_sweep(cfg, k_values=(1.0,), retentions=(1.0, None), store=store)
    with_pca, without = report.cells
    assert with_pca.cell.retention == 1.0 and without.cell.retention is None
    assert np.abs(np.array(with_pca.accuracies) - np.array(without.accuracies)).max() <= 1e-12


def test_sweep_k_zero_equals_tracking_only(store):
    cfg = small_config(gamma_grid=(0.5,))
    tracking_report = run_experiment(cfg, store=store)
    fused_cfg = small_config(use_hog=True, gamma_grid=(0.5,))
    fused_report = fusion_sweep(fused_cfg, k_values=(0.0,), retentions=(None,), store=store)
    a = tracking_report.cells[0]
    b = fused_report.cells[0]
    assert a.accuracies == b.accuracies
    for rows_a, rows_b in zip(a.predictions, b.predictions):
        assert [(sid, t, p) for sid, t, p, _ in rows_a] == [
            (sid, t, p) for sid, t, p, _ in rows_b
        ]


def test_sweep_on_a_store_without_hog_is_a_data_error(store):
    # A HOG-less store would otherwise give "+hog" cells of tracking rows
    # alone, every K the same.
    cfg = small_config(use_hog=True)
    no_hog = replace(store, hog=None)
    with pytest.raises(DataError, match=r"\[cell ang\+dist\+tip\+hog_K1\.0_ret.*has none"):
        fusion_sweep(cfg, k_values=(1.0, 3.0), retentions=(None, 0.8), store=no_hog)
    assert ablation_table(cfg, ("ang+dist+tip",), store=no_hog).cells  # tracking-only runs


def test_retention_component_count_mode(store):
    cfg = small_config(use_hog=True, gamma_grid=(0.02,), repetitions=1)
    report = fusion_sweep(cfg, k_values=(1.0,), retentions=(10,), store=store)
    assert report.cells[0].cell.retention == 10
    assert 0.0 <= report.cells[0].mean_accuracy <= 1.0


# ---------------------------------------------------------------------------
# Emission formats


def test_report_csv_format(tmp_path, store):
    cfg = small_config()
    report = run_experiment(cfg, store=store)
    path = tmp_path / "report.csv"
    write_report_csv(report, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "combo,K,retention,rep,accuracy"
    assert len(lines) == 1 + cfg.repetitions + 1  # header + reps + mean
    cells = [line.split(",") for line in lines[1:]]
    assert [c[3] for c in cells] == ["0", "1", "mean"]
    mean = float(cells[-1][4])
    assert mean == pytest.approx(np.mean([float(c[4]) for c in cells[:-1]]), abs=1e-12)


def test_confusion_csv_format(tmp_path, store):
    report = run_experiment(small_config(repetitions=1), store=store)
    cell = report.cells[0]
    path = tmp_path / "confusion.csv"
    write_confusion_csv(cell.classes, cell.confusion, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "class," + ",".join(str(c) for c in cell.classes)
    assert len(lines) == 1 + len(cell.classes) + 1
    assert lines[-1].startswith("accuracy,")
    grid = np.array([[int(v) for v in line.split(",")[1:]] for line in lines[1:-1]])
    assert np.array_equal(grid, cell.confusion)
    assert float(lines[-1].split(",")[1]) == pytest.approx(
        np.trace(cell.confusion) / cell.confusion.sum(), abs=1e-12
    )


def test_emit_report_writes_expected_files(tmp_path, store):
    cfg = small_config(repetitions=2)
    report = run_experiment(cfg, store=store)
    emit_report(report, tmp_path / "out")
    names = sorted(os.listdir(tmp_path / "out"))
    tag = report.cells[0].cell.tag()
    assert "report.csv" in names
    assert f"confusion_{tag}.csv" in names
    assert f"predictions_{tag}_rep000.csv" in names
    assert f"predictions_{tag}_rep001.csv" in names
    pred_lines = (tmp_path / "out" / f"predictions_{tag}_rep000.csv").read_text().strip().split("\n")
    assert pred_lines[0] == "sample_id,true,pred,votes"
    assert len(pred_lines) == 1 + len(report.cells[0].predictions[0])
