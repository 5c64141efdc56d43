"""hsi-diff-l1 outputs are bit-identical for one and for two solver threads.

    python3 -m pytest perfbench/test_determinism.py
"""

import sys
from pathlib import Path

from threadpin import pin_one_thread

pin_one_thread()
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


def test_hsi_outputs_do_not_depend_on_thread_count():
    work = WORKLOADS["hsi-diff-l1"](1)
    work.prepare()
    x1, failed1, _ = work.solve(threads=1)
    x2, failed2, _ = work.solve(threads=2)
    assert failed1 == failed2 == set()
    assert np.array_equal(x1, x2)
