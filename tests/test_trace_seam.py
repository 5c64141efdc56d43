"""The names the benchmark's tracer patches (perfbench/tracing.py) stay live.

The tracer counts factorisations by replacing ``scipy.linalg.cho_factor``
and wraps the other layers by the names their callers look up; a refactor
that binds one of them elsewhere would leave a traced run counting zero.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.sgp import SgpParams, solve_problem2

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_solve_problem2_factors_once_per_call_at_call_time():
    rng = np.random.default_rng(0)
    offsets = np.array([0, 3, 6, 8])
    dct = GroupedDictionary(rng.normal(size=(24, 8)), offsets)
    b = dct.entries @ np.array([1.0, 0, 0, 0, 0.7, 0, 0, 1.2]) + 0.01 * rng.normal(size=24)
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.02, eps=np.full(3, 0.05), r=1.0)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        reports = [solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-12)) for _ in range(2)]
    assert all(rep.outer_iters >= 2 for rep in reports)
    assert tracer.counts["qp.factorisations"] == 2


def test_every_traced_name_is_the_function_its_caller_uses():
    tracing = _tracing()
    patches = tracing._patches(tracing.Tracer())
    for owner, attr, wrapper in patches:
        assert getattr(owner, attr) is wrapper.__wrapped__, f"{owner.__name__}.{attr}"
