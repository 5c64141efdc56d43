"""The names the benchmark's tracer patches (perfbench/tracing.py) stay live.

The tracer wraps the layers by the names their callers look up; a
refactor that binds one of them elsewhere would leave a traced run
counting zero.  Its factorisation count reads 0 by construction: it
replaces ``scipy.linalg.cho_factor``, which nothing calls, since every
active set keeps the inverse Cholesky factor of its passive block with
numpy (``qp._PassiveFactor``).  ``l1_penalized`` is one call of problem
2's active set, so its solves show as ``baselines.l1_penalized`` spans.
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


def test_traced_p2_scene_counts_steps_and_evaluates_once_per_block_step():
    # the pixels run as one block: the tracer adds the block's summed steps,
    # and each block step evaluates every live pixel in one call
    rng = np.random.default_rng(3)
    dct = GroupedDictionary(rng.normal(size=(24, 8)), np.array([0, 3, 6, 8]))
    truth = np.where(rng.uniform(size=(8, 6)) < 0.3, rng.uniform(0.5, 1.5, size=(8, 6)), 0.0)
    scene = HsiScene(dct, np.ones(8), dct.entries @ truth + 0.05 * rng.normal(size=(24, 6)))
    cfg = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.02, eps=np.full(3, 0.05), r=1.0)
    params = SgpParams(tol_energy=1e-6)
    tracing = _tracing()
    evaluations = []
    for p in range(scene.n_pixels):
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            solve_problem2(dct, scene.pixels[:, p], cfg, params)
        evaluations.append(tracer.totals()["core.eval_objective"][0])
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        out = demix_scene(scene, cfg, solver="diff_p2", sgp=params)
    assert out.failed_pixels == [] and out.outer_iters.sum() > scene.n_pixels
    assert tracer.counts["sgp.outer_steps"] == out.outer_iters.sum()
    spans = tracer.totals()["core.eval_objective"][0]
    assert spans == max(evaluations) < sum(evaluations)


def test_every_traced_name_is_the_function_its_caller_uses():
    tracing = _tracing()
    patches = tracing._patches(tracing.Tracer())
    for owner, attr, wrapper in patches:
        assert getattr(owner, attr) is wrapper.__wrapped__, f"{owner.__name__}.{attr}"
