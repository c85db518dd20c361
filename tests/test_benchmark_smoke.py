"""Each benchmark workload sets up, runs one operation and checks it.

The benchmark under perfbench/ calls public names of gesturelab; this
smoke run fails when a change breaks one of them, long before a timed
benchmark run would.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_checked_operation(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    state = workload.setup(1, str(tmp_path))
    result = workload.check(state, 0, workload.run_op(state, 0))
    workload.finish(state, [result])
    assert result.ok, result.note
