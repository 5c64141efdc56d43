"""The names the benchmark's tracer patches (perfbench/tracing.py) stay live.

The tracer counts factorisations by replacing ``scipy.linalg.cho_factor``
and wraps the other layers by the names their callers look up; a refactor
that binds one of them elsewhere would leave a traced run counting zero.
Problem 2 never calls ``cho_factor``: its active set factors passive
blocks with LAPACK ``dpotrf`` through ``qp.model_cholesky``.
The l1 baselines factor their active blocks through the same passive-block
solve, so their solves show as ``baselines.l1_penalized`` spans and never
as problem-2 factorisations.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from ssnnls import qp
from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.hsi import HsiScene, demix_scene
from ssnnls.sgp import TERM_ENERGY, SgpParams, solve_problem2

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_solve_problem2_makes_no_traced_factorisation():
    # the active set factors only small passive blocks, which the tracer
    # does not count
    rng = np.random.default_rng(0)
    dct = GroupedDictionary(rng.normal(size=(24, 8)), np.array([0, 3, 6, 8]))
    b = dct.entries @ np.array([1.0, 0, 0, 0, 0.7, 0, 0, 1.2]) + 0.01 * rng.normal(size=24)
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.02, eps=np.full(3, 0.05), r=1.0)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        reports = [solve_problem2(dct, b, cfg, SgpParams(tol_energy=1e-12)) for _ in range(2)]
    assert all(rep.outer_iters >= 2 for rep in reports)
    assert tracer.counts["qp.factorisations"] == 0


def test_demix_l1_records_baseline_spans_and_no_qp_factorisation():
    rng = np.random.default_rng(1)
    dct = GroupedDictionary(rng.normal(size=(24, 8)), np.array([0, 3, 6, 8]))
    scene = HsiScene(dct, np.ones(8), dct.entries @ np.abs(rng.normal(size=(8, 5))))
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        demix_scene(scene, cfg, solver="l1", l1_gamma=0.1)
    assert tracer.totals()["baselines.l1_penalized"][0] == 5
    assert tracer.counts["qp.factorisations"] == 0


@pytest.mark.parametrize("params, worse_step", [
    (SgpParams(tol_energy=1e-8), None),
    (SgpParams(max_outer=1), None),
    (SgpParams(tol_energy=0.0), 3),
])
def test_traced_problem2_counts_every_objective_evaluation(monkeypatch, params, worse_step):
    # one evaluation at the start and one per step, the last step's too
    # when its candidate raised the objective and was not accepted
    rng = np.random.default_rng(2)
    dct = GroupedDictionary(rng.normal(size=(24, 8)), np.array([0, 3, 6, 8]))
    b = dct.entries @ np.array([1.0, 0, 0, 0, 0.7, 0, 0, 1.2]) + 0.01 * rng.normal(size=24)
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.02, eps=np.full(3, 0.05), r=1.0)
    solve_qp, steps = qp.solve_qp_p2, []

    def worse(*args):
        z, iters = solve_qp(*args)
        steps.append(z)
        if len(steps) == worse_step:
            z = z + 1.0
        return z, iters

    # the tracer wraps qp's own name into sgp, so the stand-in goes there
    monkeypatch.setattr(qp, "solve_qp_p2", worse)
    tracing = _tracing()
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        report = solve_problem2(dct, b, cfg, params)
    unaccepted = worse_step is not None
    if unaccepted:
        assert report.termination == TERM_ENERGY and report.outer_iters == worse_step - 1
    assert tracer.totals()["core.eval_objective"][0] == report.outer_iters + 1 + unaccepted


def test_every_traced_name_is_the_function_its_caller_uses():
    tracing = _tracing()
    patches = tracing._patches(tracing.Tracer())
    for owner, attr, wrapper in patches:
        assert getattr(owner, attr) is wrapper.__wrapped__, f"{owner.__name__}.{attr}"
