"""Each benchmark workload sets up, runs one operation and checks it.

The benchmark under perfbench/ calls public names of gesturelab; this
smoke run fails when a change breaks one of them, long before a timed
benchmark run would.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_checked_operation(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, str(tmp_path))
    result = workload.check(state, 0, workload.run_op(state, 0))
    workload.finish(state, [result])
    assert result.ok, result.note


def test_tracer_sees_each_pca_fit_of_a_sweep(tmp_path):
    # The tracer swaps the names the package binds; a fit_pca call moved
    # behind another name would read 0 in fusion.fit_pca_* unnoticed.
    # The sweep has 1 PCA cell x 2 repetitions.
    workload = workloads.WORKLOADS["sweep"]
    state = workload.setup(1, str(tmp_path))
    with tracer.Tracer() as traced:
        output = workload.run_op(state, 0)
    assert workload.check(state, 0, output).ok
    assert [span.name for span in traced.spans].count("fusion.fit_pca") == 2


def test_tracer_sees_each_binarize_and_hog_of_recognize(tmp_path):
    # image.binarize_s and image.hog_s are the time in these spans; a stage
    # the pipeline reached by another name would read 0 unnoticed.
    workload = workloads.WORKLOADS["recognize"]
    state = workload.setup(1, str(tmp_path))
    ops = 5
    with tracer.Tracer() as traced:
        start = traced.mark()
        outputs = [workload.run_op(state, i) for i in range(ops)]
        metrics = traced.metrics([(start, traced.mark())])
    assert all(workload.check(state, i, output).ok for i, output in enumerate(outputs))
    names = [span.name for span in traced.spans]
    assert names.count("image.binarize") == names.count("image.hog") == ops
    assert metrics["image.binarize_s"] > 0 and metrics["image.hog_s"] > 0


def test_tracer_sees_each_undistort_of_extract(tmp_path):
    # image.undistort_s is the time in these spans; undistortion work moved
    # behind another name would read 0 unnoticed.  One extract operation
    # undistorts the first image of each of its 40 samples.
    workload = workloads.WORKLOADS["extract"]
    state = workload.setup(1, str(tmp_path))
    with tracer.Tracer() as traced:
        start = traced.mark()
        output = workload.run_op(state, 0)
        metrics = traced.metrics([(start, traced.mark())])
    assert workload.check(state, 0, output).ok
    assert [span.name for span in traced.spans].count("image.undistort") == len(state["samples"]) == 40
    assert metrics["image.undistort_s"] > 0
