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
