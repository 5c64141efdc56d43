"""The names the benchmark's tracer patches (perfbench/tracing.py) stay live.

The tracer counts inner sweeps by replacing ``kernels.admm_nonneg`` and
wraps the other layers by the names their callers look up; a refactor
that binds one of them elsewhere would leave a traced run counting zero.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ssnnls import kernels
from ssnnls.qp import AdmmParams, QpSubproblem, solve_qp_p2

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_solve_qp_p2_looks_up_admm_kernel_at_call_time(monkeypatch):
    calls = []
    kernel = kernels.admm_nonneg

    def counting(*args):
        result = kernel(*args)
        calls.append(result[3])  # the sweep count, which the tracer reads
        return result

    monkeypatch.setattr(kernels, "admm_nonneg", counting)
    rng = np.random.default_rng(0)
    a = rng.normal(size=(12, 5))
    sub = QpSubproblem(gram=a.T @ a, lin=rng.normal(size=5), anchor=np.full(5, 0.1),
                       shift=np.full(5, 1e-3))
    sol = solve_qp_p2(sub, AdmmParams(tol=1e-8))
    assert calls and sum(calls) == sol.iterations > 0


def test_every_traced_name_is_the_function_its_caller_uses():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    patches = tracing._patches(tracing.Tracer())
    for owner, attr, wrapper in patches:
        assert getattr(owner, attr) is wrapper.__wrapped__, f"{owner.__name__}.{attr}"
