"""Hyperspectral demixing: scene synthesis, per-pixel solving, metrics, I/O."""

import numpy as np
import pytest

from ssnnls import hsi, qp
from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.errors import ConfigError, NonConvergenceError
from ssnnls.hsi import (HSI_SOLVERS, GroupCollapser, HsiScene, compute_metrics, demix_scene,
                        load_scene, resolve_threads, save_scene, synthesize_endmember_library,
                        synthesize_mixed_scene)
from ssnnls.sgp import SgpParams, solve_problem2


@pytest.fixture(scope="module")
def tiny_scene():
    library, scales = synthesize_endmember_library(40, (3, 3, 2), seed=2)
    return synthesize_mixed_scene(library, scales, (3, 2), noise_sd=0.005, seed=5)


def tiny_cfg():
    return SparsityConfig(gamma=np.full(3, 1e-4), gamma0=0.01, eps=np.full(3, 0.01), r=1.0)


SGP_FAST = SgpParams(c_matrix_scale=1e-9, tol_energy=1e-5)


# ---------------------------------------------------------------- threads


def test_resolve_threads_env_cap(monkeypatch):
    monkeypatch.setenv("SSNNLS_MAX_THREADS", "2")
    assert resolve_threads(8) == 2
    assert resolve_threads(1) == 1
    assert resolve_threads(0) <= 2
    assert resolve_threads(None) <= 2
    monkeypatch.setenv("SSNNLS_MAX_THREADS", "0")
    with pytest.raises(ConfigError):
        resolve_threads(1)
    monkeypatch.setenv("SSNNLS_MAX_THREADS", "lots")
    with pytest.raises(ConfigError):
        resolve_threads(1)
    monkeypatch.delenv("SSNNLS_MAX_THREADS")
    assert resolve_threads(3) <= 3
    with pytest.raises(ConfigError):
        resolve_threads(-2)


# ---------------------------------------------------------------- collapser


def test_group_collapser():
    col = GroupCollapser(np.array([0, 2, 5]))
    vals = np.arange(10, dtype=float).reshape(5, 2)
    out = col.apply(vals)
    assert out == pytest.approx(np.array([[0 + 2, 1 + 3], [4 + 6 + 8, 5 + 7 + 9]]))
    assert col.matrix() == pytest.approx(np.array([[1, 1, 0, 0, 0], [0, 0, 1, 1, 1.0]]))
    assert col.matrix() @ vals == pytest.approx(out)
    with pytest.raises(ValueError):
        col.apply(np.zeros((4, 2)))


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
    collapser = scene.collapser()
    active_groups = (np.abs(collapser.apply(scene.truth)) > 0).sum(axis=0)
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
    out = demix_scene(tiny_scene, tiny_cfg(), solver=solver, sgp=SGP_FAST,
                      threads=1, **kwargs)
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
                                 out.offsets[:-1], axis=0)
        assert counts.max() <= 1
    assert out.column(2) == pytest.approx(out.values[:, 2])


def test_demix_thread_count_invariance(tiny_scene):
    serial = demix_scene(tiny_scene, tiny_cfg(), solver="diff_p2", sgp=SGP_FAST,
                         threads=1)
    pooled = demix_scene(tiny_scene, tiny_cfg(), solver="diff_p2", sgp=SGP_FAST,
                         threads=3)
    assert np.array_equal(serial.values, pooled.values)
    assert np.array_equal(serial.outer_iters, pooled.outer_iters)
    again = demix_scene(tiny_scene, tiny_cfg(), solver="diff_p2", sgp=SGP_FAST,
                        threads=3)
    assert np.array_equal(pooled.values, again.values)


def test_demix_forms_the_gram_before_its_workers(tiny_scene, monkeypatch):
    # the dictionary caches its Gram matrix without a lock, so every pooled
    # pixel must find it already formed
    dct = GroupedDictionary(tiny_scene.dictionary.entries, tiny_scene.dictionary.offsets)
    scene = HsiScene(dct, tiny_scene.scales, tiny_scene.pixels)
    seen = []
    real = hsi.solve_problem2

    def solve(d, *args, **kwargs):
        seen.append("gram" in d.__dict__)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(hsi, "solve_problem2", solve)
    assert "gram" not in dct.__dict__
    demix_scene(scene, tiny_cfg(), solver="diff_p2", sgp=SGP_FAST, threads=3)
    assert seen == [True] * scene.n_pixels


def test_demix_config_errors(tiny_scene):
    with pytest.raises(ConfigError):
        demix_scene(tiny_scene, tiny_cfg(), solver="magic")
    with pytest.raises(ConfigError):
        demix_scene(tiny_scene, tiny_cfg(), solver="l1")


def test_demix_failed_pixels_recorded(tiny_scene, monkeypatch):
    # an active set capped at zero iterations makes every pixel fail
    # without crashing
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    out = demix_scene(tiny_scene, tiny_cfg(), solver="hoyer_p1", sgp=SGP_FAST, threads=2)
    assert len(out.failed_pixels) == 5
    assert [p for p, _ in out.failed_pixels] == list(range(5))
    assert np.all(out.values == 0.0)


def test_problem2_nnls_cap_fails_the_pixel(tiny_scene, monkeypatch):
    # a problem-2 step whose active set hits its iteration cap is a
    # non-convergence, and demix_scene records the pixel as failed
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    with pytest.raises(NonConvergenceError, match="nnls"):
        solve_problem2(tiny_scene.dictionary, tiny_scene.pixels[:, 0], tiny_cfg(), SGP_FAST)
    out = demix_scene(tiny_scene, tiny_cfg(), solver="diff_p2", sgp=SGP_FAST, threads=2)
    assert [p for p, _ in out.failed_pixels] == list(range(5))
    assert np.all(out.values == 0.0)


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


def test_metrics_zero_tolerance_boundary():
    values = np.array([[1e-7], [2e-6]])
    report = compute_metrics(values, np.array([0, 2]), zero_tol=1e-6)
    assert report.fraction_nonzero == pytest.approx(0.5)
    assert report.group_one_sparse_fraction == 1.0


# ---------------------------------------------------------------- io


def test_scene_round_trip(tmp_path, tiny_scene):
    prefix = str(tmp_path / "scene")
    save_scene(prefix, tiny_scene)
    back = load_scene(prefix)
    assert back.pixels == pytest.approx(tiny_scene.pixels, abs=1e-12)
    assert back.dictionary.entries == pytest.approx(tiny_scene.dictionary.entries, abs=1e-12)
    assert np.array_equal(back.dictionary.offsets, tiny_scene.dictionary.offsets)
    assert back.truth == pytest.approx(tiny_scene.truth, abs=1e-12)
    assert back.scales == pytest.approx(tiny_scene.scales, abs=1e-12)

    bare = HsiScene(tiny_scene.dictionary, tiny_scene.scales, tiny_scene.pixels)
    save_scene(str(tmp_path / "bare"), bare)
    assert load_scene(str(tmp_path / "bare")).truth is None
