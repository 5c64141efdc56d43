"""One round of each benchmark workload (perfbench/workloads.py) runs clean.

The benchmark builds its inputs and calls the program through the names
its workloads import; this runs each workload once, so a change that
breaks one of those names, or the answers its checks accept, fails here.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


@pytest.mark.parametrize("name", ["hsi-diff-l1", "doas-align"])
def test_one_round_of_each_workload_passes_its_checks(name):
    work = _workloads()[name](1)
    work.prepare()
    x, failed, _ = work.solve()
    assert failed == set()
    assert all(work.check(x, p) for p in range(work.n_ops))
