"""Hyperspectral demixing: scene synthesis, per-pixel solving, metrics."""

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from ssnnls import qp, sgp
from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.errors import ConfigError, NonConvergenceError
from ssnnls.hsi import (HSI_SOLVERS, HsiScene, compute_metrics, demix_scene,
                        synthesize_endmember_library, synthesize_mixed_scene)
from ssnnls.sgp import SgpParams, solve_problem2


@pytest.fixture(scope="module")
def tiny_scene():
    library, scales = synthesize_endmember_library(40, (3, 3, 2), seed=2)
    return synthesize_mixed_scene(library, scales, (3, 2), noise_sd=0.005, seed=5)


def tiny_cfg():
    return SparsityConfig(gamma=np.full(3, 1e-4), gamma0=0.01, eps=np.full(3, 0.01), r=1.0)


SGP_FAST = SgpParams(c_matrix_scale=1e-9, tol_energy=1e-5)


# ---------------------------------------------------------------- synthesis


def test_endmember_library_structure():
    library, scales = synthesize_endmember_library(64, (4, 3), seed=9)
    assert library.entries.shape == (64, 7)
    assert np.array_equal(library.offsets, [0, 4, 7])
    assert np.all(library.entries > 0)
    assert np.linalg.norm(library.entries, axis=0) == pytest.approx(np.ones(7))
    assert np.all(scales > 0)
    again, _ = synthesize_endmember_library(64, (4, 3), seed=9)
    assert np.array_equal(library.entries, again.entries)
    a, b = library.entries[:, 0], library.entries[:, 1]
    assert float(a @ b) > 0.95  # variants of one material stay highly correlated
    with pytest.raises(ValueError):
        synthesize_endmember_library(64, (3, 0), seed=0)


def test_mixed_scene_schedule_and_unit_norm():
    library, scales = synthesize_endmember_library(48, (3, 3, 2, 2), seed=1)
    counts = (4, 3, 2)
    scene = synthesize_mixed_scene(library, scales, counts, noise_sd=0.0, seed=3)
    assert scene.n_pixels == 9
    assert np.linalg.norm(scene.pixels, axis=0) == pytest.approx(np.ones(9))
    group_sums = np.add.reduceat(scene.truth, library.offsets[:-1], axis=0)
    active_groups = (np.abs(group_sums) > 0).sum(axis=0)
    assert list(active_groups) == [1] * 4 + [2] * 3 + [3] * 2
    per_group_counts = np.add.reduceat((scene.truth > 0).astype(int),
                                       library.offsets[:-1], axis=0)
    assert per_group_counts.max() <= 1
    noisy = synthesize_mixed_scene(library, scales, counts, noise_sd=0.01, seed=3)
    assert np.array_equal(noisy.truth, scene.truth)
    assert not np.allclose(noisy.pixels, scene.pixels)


def test_mixed_scene_validation():
    library, scales = synthesize_endmember_library(32, (2, 2), seed=0)
    with pytest.raises(ValueError):
        synthesize_mixed_scene(library, scales, (1, 1, 1), 0.0, 0)
    with pytest.raises(ValueError):
        synthesize_mixed_scene(library, scales, (-1, 2), 0.0, 0)
    with pytest.raises(ValueError):
        synthesize_mixed_scene(library, scales, (0, 0), 0.0, 0)
    with pytest.raises(ValueError):
        synthesize_mixed_scene(library, scales, (1,), -0.1, 0)


def test_scene_validation():
    library, scales = synthesize_endmember_library(32, (2, 2), seed=0)
    with pytest.raises(ValueError):
        HsiScene(library, scales, np.zeros(32))
    with pytest.raises(ValueError):
        HsiScene(library, scales, np.zeros((31, 2)))
    with pytest.raises(ValueError):
        HsiScene(library, scales, np.zeros((32, 2)), truth=np.zeros((3, 2)))


# ---------------------------------------------------------------- demixing


@pytest.mark.parametrize("solver", HSI_SOLVERS)
def test_demix_each_solver(tiny_scene, solver):
    kwargs = dict(l1_gamma=0.05) if solver == "l1" else {}
    out = demix_scene(tiny_scene, tiny_cfg(), solver=solver, sgp=SGP_FAST, **kwargs)
    assert out.values.shape == (8, 5)
    assert not out.failed_pixels
    assert out.values.min() >= -1e-9
    if solver in ("hoyer_p1", "diff_p2"):
        assert out.outer_iters is not None
        assert np.all(out.outer_iters >= 1)
    else:
        assert out.outer_iters is None
    if solver == "pd":
        counts = np.add.reduceat((np.abs(out.values) > 1e-9).astype(int),
                                 tiny_scene.dictionary.offsets[:-1], axis=0)
        assert counts.max() <= 1


def test_demix_l1_solves_on_the_kept_gram_matrix_alone(tiny_scene, monkeypatch):
    # every pixel runs problem 2's active set on the Gram matrix the
    # dictionary keeps: no dense factor and no scipy NNLS
    dct = GroupedDictionary(tiny_scene.dictionary.entries, tiny_scene.dictionary.offsets)
    scene = HsiScene(dct, tiny_scene.scales, tiny_scene.pixels)

    def forbidden(*args, **kwargs):
        raise AssertionError("an l1 pixel called a scipy solver")

    monkeypatch.setattr(scipy.linalg, "cholesky", forbidden)
    monkeypatch.setattr(scipy.optimize, "nnls", forbidden)
    assert "gram" not in dct.__dict__
    out = demix_scene(scene, tiny_cfg(), solver="l1", l1_gamma=0.05)
    gram = dct.__dict__["gram"]
    again = demix_scene(scene, tiny_cfg(), solver="l1", l1_gamma=0.05)
    assert scene.n_pixels == 5 and not out.failed_pixels
    assert dct.__dict__["gram"] is gram
    assert np.array_equal(out.values, again.values)


def test_demix_config_errors(tiny_scene):
    with pytest.raises(ConfigError):
        demix_scene(tiny_scene, tiny_cfg(), solver="magic")
    with pytest.raises(ConfigError):
        demix_scene(tiny_scene, tiny_cfg(), solver="l1")


def test_demix_failed_pixels_recorded(tiny_scene, monkeypatch):
    # an active set capped at zero iterations makes every pixel fail
    # without crashing
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    out = demix_scene(tiny_scene, tiny_cfg(), solver="hoyer_p1", sgp=SGP_FAST)
    assert len(out.failed_pixels) == 5
    assert [p for p, _ in out.failed_pixels] == list(range(5))
    assert np.all(out.values == 0.0)


def test_problem2_nnls_cap_fails_the_pixel(tiny_scene, monkeypatch):
    # a problem-2 step whose active set hits its iteration cap is a
    # non-convergence, and demix_scene records the pixel as failed
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    with pytest.raises(NonConvergenceError, match="nnls"):
        solve_problem2(tiny_scene.dictionary, tiny_scene.pixels[:, 0], tiny_cfg(), SGP_FAST)
    out = demix_scene(tiny_scene, tiny_cfg(), solver="diff_p2", sgp=SGP_FAST)
    assert [p for p, _ in out.failed_pixels] == list(range(5))
    assert np.all(out.values == 0.0)


@pytest.mark.parametrize("solver", ["diff_p2", "hoyer_p1", "nnls"])
def test_demix_a_scene_without_pixels(tiny_scene, solver):
    scene = HsiScene(tiny_scene.dictionary, tiny_scene.scales, np.zeros((40, 0)))
    out = demix_scene(scene, tiny_cfg(), solver=solver, sgp=SGP_FAST)
    assert out.values.shape == (8, 0) and out.failed_pixels == []
    assert out.outer_iters is None if solver == "nnls" else out.outer_iters.shape == (0,)


def test_p2_pixel_steps_do_not_depend_on_the_block():
    # the hsi-structured scene at scale 10: a block's products round otherwise
    # than a single solve's, and a last step whose change is rounding must
    # stop each pixel alike in both
    library, scales = synthesize_endmember_library(204, (10,) * 4, seed=3757552657)
    scene = synthesize_mixed_scene(library, scales, (100, 50, 5, 1), noise_sd=0.005,
                                   seed=673228719)
    cfg = SparsityConfig(gamma=np.full(4, 1e-4), gamma0=0.01, eps=np.full(4, 0.01), r=1.0)
    block = solve_problem2(library, scene.pixels, cfg, SGP_FAST)
    for p, col in enumerate(block.columns):
        one = solve_problem2(library, scene.pixels[:, p], cfg, SGP_FAST)
        assert (col.outer_iters, col.termination) == (one.outer_iters, one.termination), p


def test_demix_p2_fails_one_pixel_alone(tiny_scene, monkeypatch):
    # the pixels run as one block; the active set of pixel 2's second step
    # raises, and only that pixel fails: a zero column, an entry in
    # failed_pixels, and every other pixel as its own solve leaves it
    dct, cfg = tiny_scene.dictionary, tiny_cfg()
    singles = [solve_problem2(dct, tiny_scene.pixels[:, p], cfg, SGP_FAST)
               for p in range(tiny_scene.n_pixels)]
    assert min(one.outer_iters for one in singles) >= 2  # all five take a second step
    real, calls = sgp.solve_qp_p2, []

    def failing(*args):
        calls.append(args)
        if len(calls) == tiny_scene.n_pixels + 3:
            raise NonConvergenceError("nnls: stand-in failure", iterations=0)
        return real(*args)

    monkeypatch.setattr(sgp, "solve_qp_p2", failing)
    out = demix_scene(tiny_scene, cfg, solver="diff_p2", sgp=SGP_FAST)
    assert out.failed_pixels == [(2, "nnls: stand-in failure")]
    assert np.all(out.values[:, 2] == 0.0) and out.outer_iters[2] == 1
    for p, one in enumerate(singles):
        if p != 2:
            assert np.max(np.abs(out.values[:, p] - one.x)) <= 1e-12 * np.max(np.abs(one.x))
            assert out.outer_iters[p] == one.outer_iters


# ---------------------------------------------------------------- metrics


def test_compute_metrics_hand_checked():
    offsets = np.array([0, 2, 4])
    values = np.array([[0.5, 0.0], [0.0, 0.4], [0.0, 0.3], [0.2, 0.3]])
    report = compute_metrics(values, offsets)
    assert report.fraction_nonzero == pytest.approx(5 / 8)
    assert report.group_one_sparse_fraction == pytest.approx(0.5)  # pixel 1 has 2 in group 1
    assert report.sse is None
    truth = np.array([[0.5, 0.0], [0.0, 0.0], [0.0, 0.3], [0.2, 0.0]])
    full = compute_metrics(values, offsets, truth)
    assert full.sse == pytest.approx(0.16 + 0.09)
    assert full.support_mismatch == 1  # pixel 1, group 1 active only in values
    assert full.group_mae == pytest.approx([0.2, 0.15])
    with pytest.raises(ValueError):
        compute_metrics(values, offsets, truth[:-1])
    # a fifth row that offsets do not cover is an error, with or without truth
    extra = np.vstack([values, [[0.1, 0.1]]])
    for with_truth in (None, extra):
        with pytest.raises(ValueError, match="rows"):
            compute_metrics(extra, offsets, with_truth)


def test_metrics_zero_tolerance_boundary():
    values = np.array([[1e-7], [2e-6]])
    report = compute_metrics(values, np.array([0, 2]))
    assert report.fraction_nonzero == pytest.approx(0.5)
    assert report.group_one_sparse_fraction == 1.0

