"""Spectral fitting pipeline: deformation dictionaries, background operator, fits."""

import numpy as np
import pytest
import scipy.fft

from ssnnls import doas
from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.doas import (DOAS_SOLVERS, DeformationGrid, DoasFitConfig,
                         ReferenceSpectrum, _sample_with_reflection, build_background_operator,
                         build_deformation_dictionary, deformed_column, fit_doas,
                         quartic_background, sample_planted_coeffs, synthesize_doas_data,
                         synthesize_references, wavelength_grid)
from ssnnls.errors import ConfigError, DegenerateColumnError
from ssnnls.sgp import SgpParams


@pytest.fixture(scope="module")
def desk():
    wl = wavelength_grid(256)
    refs = synthesize_references(wl, seed=7)
    grid = DeformationGrid.desk_grid()
    return wl, refs, grid, build_deformation_dictionary(refs, grid, wl)


def desk_sparsity():
    return SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.0, eps=np.full(3, 0.05), r=1.0)


def test_wavelength_grid_spacing():
    wl = wavelength_grid(6)
    assert wl[0] == pytest.approx(340.0)
    assert np.diff(wl) == pytest.approx(np.full(5, 0.04038), abs=1e-12)


def test_reference_spectrum_validation():
    with pytest.raises(ValueError):
        ReferenceSpectrum("x", np.array([340.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        ReferenceSpectrum("x", np.array([340.0, 340.0]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        ReferenceSpectrum("x", np.array([340.0, 341.0]), np.array([1.0, 2.0, 3.0]))


def test_synthesize_references_defaults():
    wl = wavelength_grid(64)
    refs = synthesize_references(wl, seed=7)
    assert tuple(r.name for r in refs) == ("HONO", "NO2", "O3")
    for ref in refs:
        assert ref.values.shape == wl.shape
        assert np.max(np.abs(ref.values)) == pytest.approx(1.0)
    again = synthesize_references(wl, seed=7)
    assert refs[0].values == pytest.approx(again[0].values, abs=0.0)
    (hono,) = synthesize_references(wl, names=("HONO",), seed=3)
    assert hono.name == "HONO" and hono.values.shape == wl.shape


def test_deformation_grid_shapes_and_round_trip():
    full = DeformationGrid.full_grid()
    assert full.slopes.size == 21 and full.offsets.size == 21
    assert full.slopes[0] == pytest.approx(-0.1) and full.slopes[-1] == pytest.approx(0.1)
    assert full.offsets[0] == pytest.approx(-1.0) and full.offsets[-1] == pytest.approx(1.0)
    desk = DeformationGrid.desk_grid()
    assert desk.size == 25
    for k in range(desk.slopes.size):
        for ell in range(desk.offsets.size):
            flat = desk.flat_index(k, ell)
            assert desk.deformation(flat) == (desk.slopes[k], desk.offsets[ell])
    with pytest.raises(ValueError):
        DeformationGrid(np.array([]), np.array([]))


def test_reflection_sampler_odd_extension(desk):
    wl, refs, _, _ = desk
    ref = refs[0]
    inside = np.array([wl[0] + 0.3, wl[3], wl[-1] - 0.7])
    assert _sample_with_reflection(ref.wavelengths, ref.values, inside) == pytest.approx(
        np.interp(inside, ref.wavelengths, ref.values), abs=1e-12)
    s = 0.37
    low = _sample_with_reflection(ref.wavelengths, ref.values, np.array([wl[0] - s]))
    mirrored = np.interp(wl[0] + s, ref.wavelengths, ref.values)
    assert low[0] == pytest.approx(2.0 * ref.values[0] - mirrored, abs=1e-12)
    high = _sample_with_reflection(ref.wavelengths, ref.values, np.array([wl[-1] + s]))
    mirrored = np.interp(wl[-1] - s, ref.wavelengths, ref.values)
    assert high[0] == pytest.approx(2.0 * ref.values[-1] - mirrored, abs=1e-12)
    with pytest.raises(ValueError):
        _sample_with_reflection(ref.wavelengths, ref.values, np.array([wl[0] - 1e6]))


def test_dictionary_columns_match_single_deformations(desk):
    wl, refs, grid, ddict = desk
    dct = ddict.dictionary
    assert dct.n_columns == 3 * grid.size
    assert np.linalg.norm(dct.entries, axis=0) == pytest.approx(np.ones(dct.n_columns))
    for j, k, ell in [(0, 0, 0), (1, 2, 3), (2, 4, 4), (0, 3, 1)]:
        col = dct.entries[:, int(dct.offsets[j]) + grid.flat_index(k, ell)]
        ref_col = deformed_column(refs[j], float(grid.slopes[k]), float(grid.offsets[ell]), wl)
        assert col == pytest.approx(ref_col, abs=1e-12)


def test_degenerate_deformation_raises(desk):
    wl, refs, _, _ = desk
    far = DeformationGrid(np.array([0.0]), np.array([1e5]))
    with pytest.raises(DegenerateColumnError):
        build_deformation_dictionary(refs, far, wl)
    with pytest.raises(DegenerateColumnError):
        deformed_column(refs[0], 0.0, 1e5, wl)


def test_sample_planted_coeffs(desk):
    _, _, grid, ddict = desk
    coeffs, planted = sample_planted_coeffs(ddict, seed=5)
    assert len(planted) == 3
    for j, local, mag in planted:
        assert coeffs[int(ddict.dictionary.offsets[j]) + local] == mag
        assert mag > 0
    fixed, planted2 = sample_planted_coeffs(ddict, seed=5, group_cols=[1, 2, 3],
                                            magnitudes=[1.0, 2.0, 3.0])
    assert [(p[1], p[2]) for p in planted2] == [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert np.count_nonzero(fixed) == 3
    with pytest.raises(ValueError):
        sample_planted_coeffs(ddict, seed=0, group_cols=[0, 0, grid.size])
    with pytest.raises(ValueError):
        sample_planted_coeffs(ddict, seed=0, magnitude_means=(1.0,))


def test_synthesize_doas_data(desk):
    wl, _, _, ddict = desk
    coeffs, _ = sample_planted_coeffs(ddict, seed=1)
    clean = synthesize_doas_data(ddict, coeffs, noise_sd=0.0, seed=9)
    assert clean == pytest.approx(ddict.dictionary.entries @ coeffs, abs=0.0)
    bg = quartic_background(wl)
    with_bg = synthesize_doas_data(ddict, coeffs, 0.0, 9, background=bg)
    assert with_bg == pytest.approx(clean + bg, abs=0.0)
    noisy = synthesize_doas_data(ddict, coeffs, 0.01, seed=9)
    assert noisy == pytest.approx(synthesize_doas_data(ddict, coeffs, 0.01, seed=9), abs=0.0)
    assert not np.allclose(noisy, clean)
    with pytest.raises(ValueError):
        synthesize_doas_data(ddict, coeffs, -1.0, 9)
    with pytest.raises(ValueError):
        synthesize_doas_data(ddict, coeffs, 0.0, 9, background=bg[:-1])


def test_quartic_background_shape(desk):
    wl = desk[0]
    bg = quartic_background(wl, scale=2.0)
    assert bg.shape == wl.shape
    assert np.all(bg > 0)
    assert np.all(np.diff(bg) < 0)


def test_background_operator_annihilates_affine_exactly():
    op = build_background_operator(64)
    i = np.arange(64, dtype=float)
    affine = 3.0 + 0.5 * i
    assert np.all(op.apply(affine) == 0.0)
    assert np.all(op.apply(np.full(64, 2.25)) == 0.0)


def test_background_operator_matches_matrix():
    rng = np.random.default_rng(0)
    op = build_background_operator(32)
    assert op.matrix.shape == (30, 32)
    for _ in range(5):
        b = rng.normal(size=32)
        assert op.apply(b) == pytest.approx(op.matrix @ b, rel=1e-9, abs=1e-9)
    gamma = scipy.fft.dst(np.eye(6), type=1, norm="ortho", axis=0)
    assert gamma.T @ gamma == pytest.approx(np.eye(6), abs=1e-12)
    with pytest.raises(ValueError):
        build_background_operator(3)
    with pytest.raises(ValueError):
        op.apply(np.zeros(31))


def test_fit_doas_recovers_planted_atoms(desk):
    _, _, grid, ddict = desk
    coeffs, planted = sample_planted_coeffs(ddict, seed=3)
    data = synthesize_doas_data(ddict, coeffs, 0.0, 0)
    base = dict(sparsity=desk_sparsity(),
                sgp=SgpParams(c_matrix_scale=1e-9, tol_energy=1e-8))
    for solver in ("nnls", "pd", "hoyer_p1", "diff_p2"):
        cfg = DoasFitConfig(solver=solver, pd_init="nnls", **base)
        result = fit_doas(data, ddict, cfg)
        assert result.background is None
        assert result.residual.shape == data.shape
        for sel, (j, local, _) in zip(result.selections, planted):
            slope, offset = grid.deformation(local)
            assert sel.group == j and sel.name == ddict.names[j]
            assert (sel.slope, sel.offset) == (slope, offset)
            assert sel.magnitude > 0
        if solver in ("hoyer_p1", "diff_p2"):
            assert result.report is not None
            assert result.report.outer_iters > 0
        else:
            assert result.report is None
    l1 = fit_doas(data, ddict, DoasFitConfig(solver="l1", l1_tau=0.02, **base))
    for sel, (j, local, _) in zip(l1.selections, planted):
        assert (sel.slope, sel.offset) == grid.deformation(local)


def test_gram_is_formed_on_first_fit_and_kept(desk):
    # the Gram matrix stays out of the dictionary build (the benchmark's
    # setup time) and is formed once for every fit against the dictionary
    wl, refs, grid, _ = desk
    ddict = build_deformation_dictionary(refs, grid, wl)
    dct = ddict.dictionary
    assert "gram" not in dct.__dict__
    assert "gram" not in GroupedDictionary(dct.entries, dct.offsets).__dict__
    cfg = DoasFitConfig(solver="diff_p2", sparsity=desk_sparsity(),
                        sgp=SgpParams(c_matrix_scale=1e-9, tol_energy=1e-8))
    datas = [synthesize_doas_data(ddict, sample_planted_coeffs(ddict, seed=s)[0], 0.01, s)
             for s in (12, 13)]
    fits = [fit_doas(datas[0], ddict, cfg).coeffs.x]
    gram = dct.__dict__["gram"]
    fits.append(fit_doas(datas[1], ddict, cfg).coeffs.x)
    assert dct.__dict__["gram"] is gram
    for data, x in zip(datas, fits):
        fresh = build_deformation_dictionary(refs, grid, wl)
        assert np.array_equal(fit_doas(data, fresh, cfg).coeffs.x, x)


def test_fit_doas_lstsq_gauge(desk):
    _, _, _, ddict = desk
    coeffs, _ = sample_planted_coeffs(ddict, seed=6)
    data = synthesize_doas_data(ddict, coeffs, 0.0, 0)
    cfg = DoasFitConfig(solver="lstsq", sparsity=desk_sparsity(), lstsq_draws=50, seed=11)
    result = fit_doas(data, ddict, cfg)
    assert np.count_nonzero(result.coeffs.x) == 0
    for sel in result.selections:
        assert sel.support_size == 0
        assert np.isnan(sel.slope)
        assert np.isfinite(sel.magnitude)
    again = fit_doas(data, ddict, cfg)
    assert [s.magnitude for s in again.selections] == [s.magnitude for s in result.selections]


def test_fit_doas_background_block(desk):
    wl, _, _, ddict = desk
    coeffs, _ = sample_planted_coeffs(ddict, seed=8)
    bg = quartic_background(wl, scale=0.5)
    data = synthesize_doas_data(ddict, coeffs, 0.0, 0, background=bg)
    # an inter-group weight penalises the reference groups alone, background or not
    inter = SparsityConfig(gamma=np.full(3, 0.05), gamma0=0.01, eps=np.full(3, 0.05), r=1.0)
    for cfg in (DoasFitConfig(solver="nnls", sparsity=desk_sparsity(), alpha=1e-5),
                DoasFitConfig(solver="diff_p2", sparsity=inter, alpha=1e-5)):
        result = fit_doas(data, ddict, cfg)
        assert result.background is not None and result.background.shape == wl.shape
        assert np.all(np.isfinite(result.background))
        expected = data - ddict.dictionary.entries @ result.coeffs.x - result.background
        assert result.residual == pytest.approx(expected, abs=1e-12)


def test_fit_doas_lstsq_with_background_matches_a_dense_design_per_draw(desk):
    # each draw is the least-squares fit of one column per group beside the
    # unscaled background block [I; sqrt(alpha) Q], from a design of its own
    wl, _, _, ddict = desk
    coeffs, _ = sample_planted_coeffs(ddict, seed=9)
    data = synthesize_doas_data(ddict, coeffs, 1e-4, 3,
                                background=quartic_background(wl, scale=0.5))
    alpha, draws = 1e-5, 20
    result = fit_doas(data, ddict, DoasFitConfig(solver="lstsq", sparsity=desk_sparsity(),
                                                 alpha=alpha, lstsq_draws=draws, seed=5))

    dct = ddict.dictionary
    a, sizes = dct.entries, dct.group_sizes()
    w, m = a.shape[0], dct.n_groups
    bottom = np.hstack([np.zeros((w - 2, m)),
                        np.sqrt(alpha) * build_background_operator(w).matrix])
    rhs = np.concatenate([data, np.zeros(w - 2)])
    rng = np.random.default_rng(np.random.SeedSequence(5))
    total = np.zeros(m + w)
    for _ in range(draws):
        picks = [int(dct.offsets[j]) + int(rng.integers(sizes[j])) for j in range(m)]
        design = np.vstack([np.hstack([a[:, picks], np.eye(w)]), bottom])
        total += np.linalg.lstsq(design, rhs, rcond=None)[0]
    total /= draws

    mags = np.array([sel.magnitude for sel in result.selections])
    for got, ref in ((mags, total[:m]), (result.background, total[m:])):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert result.residual == pytest.approx(data - total[m:], abs=1e-12)


def _stacked_background(a, data, alpha, x):
    """(argmin, min) over y of |A x + y - data|^2 / 2 + alpha |Q y|^2 / 2, by dense lstsq."""
    w = data.size
    design = np.vstack([np.eye(w), np.sqrt(alpha) * build_background_operator(w).matrix])
    rhs = np.concatenate([data - a @ x, np.zeros(w - 2)])
    y = np.linalg.lstsq(design, rhs, rcond=None)[0]
    resid = design @ y - rhs
    return y, 0.5 * float(resid @ resid)


def test_background_reduction_is_exact(desk):
    # the reduced fit |R (A x - data)|^2 / 2 is the stacked fit minimised
    # over the background, at any x >= 0, and fit_doas's background is
    # that minimiser at its own x
    wl, _, _, ddict = desk
    a = ddict.dictionary.entries
    coeffs, _ = sample_planted_coeffs(ddict, seed=10, magnitude_means=(0.01, 0.002, 0.015))
    data = synthesize_doas_data(ddict, coeffs, 1e-4, 4,
                                background=quartic_background(wl, scale=0.5))
    rng = np.random.default_rng(12)
    for alpha in (1e-5, 1e-2):
        reduction = doas._background_reduction(wl.size, alpha)
        assert reduction.shape == (wl.size - 2, wl.size)
        for _ in range(5):
            x = np.where(rng.uniform(size=a.shape[1]) < 0.05,
                         rng.uniform(0.0, 0.02, a.shape[1]), 0.0)
            r = reduction @ (a @ x - data)
            _, ref = _stacked_background(a, data, alpha, x)
            assert 0.5 * float(r @ r) == pytest.approx(ref, rel=1e-12)
        for solver in ("nnls", "diff_p2"):
            result = fit_doas(data, ddict, DoasFitConfig(solver=solver, sparsity=desk_sparsity(),
                                                         alpha=alpha))
            y, _ = _stacked_background(a, data, alpha, result.coeffs.x)
            assert np.max(np.abs(result.background - y)) <= 1e-12 * np.max(np.abs(y))


def test_baseline_backgrounds_take_their_sign(desk):
    # nnls and l1 leave the background free: where the truth is well below
    # zero, so is the fit
    wl, _, _, ddict = desk
    coeffs, _ = sample_planted_coeffs(ddict, seed=0, magnitude_means=(0.01, 0.002, 0.015))
    background = quartic_background(wl, scale=0.5) - 1e-4
    data = synthesize_doas_data(ddict, coeffs, 1e-5, 0, background=background)
    deep = background < 0.5 * background.min()
    assert 0.25 < np.mean(deep) < 0.75
    for solver in ("nnls", "l1"):
        cfg = DoasFitConfig(solver=solver, sparsity=desk_sparsity(), alpha=1e-5,
                            l1_tau=1.5e-5 * np.sqrt(wl.size))
        result = fit_doas(data, ddict, cfg)
        assert np.all(result.background[deep] < 0.0), solver


def test_background_reduction_is_formed_only_with_alpha_and_once_per_band_count(
        desk, monkeypatch):
    # the benchmark's fits (alpha = 0) and its dictionary build never
    # factor Q; fits with a background factor it once per band count
    wl, refs, grid, _ = desk

    def no_svd(w):
        raise AssertionError("Q was factored")

    monkeypatch.setattr(doas, "_roughness_svd", no_svd)
    ddict = build_deformation_dictionary(refs, grid, wl)
    data = synthesize_doas_data(ddict, sample_planted_coeffs(ddict, seed=1)[0], 0.01, 1)
    assert fit_doas(data, ddict, DoasFitConfig(sparsity=desk_sparsity())).background is None
    monkeypatch.undo()

    calls = []
    real = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    doas._roughness_svd.cache_clear()
    monkeypatch.setattr(np.linalg, "svd", counting)
    fits = [fit_doas(data, ddict, DoasFitConfig(solver="nnls", sparsity=desk_sparsity(),
                                                alpha=alpha)) for alpha in (1e-5, 1e-3, 1e-5)]
    assert len(calls) == 1
    assert np.array_equal(fits[0].background, fits[2].background)


@pytest.mark.parametrize("alpha", [np.nan, np.inf])
def test_fit_doas_rejects_a_non_finite_alpha_naming_it(desk, alpha):
    # NaN once fitted silently with no background, and infinity failed
    # inside the reduction with a message that did not name alpha
    _, _, _, ddict = desk
    with pytest.raises(ConfigError, match="alpha"):
        fit_doas(np.zeros(ddict.wavelengths.size), ddict,
                 DoasFitConfig(solver="nnls", sparsity=desk_sparsity(), alpha=alpha))


def test_fit_doas_config_errors(desk):
    _, _, _, ddict = desk
    data = np.zeros(ddict.wavelengths.size)
    with pytest.raises(ConfigError):
        fit_doas(data, ddict, DoasFitConfig(solver="magic", sparsity=desk_sparsity()))
    with pytest.raises(ConfigError):
        fit_doas(data, ddict, DoasFitConfig(solver="nnls", sparsity=desk_sparsity(), alpha=-1.0))
    with pytest.raises(ConfigError):
        fit_doas(data, ddict, DoasFitConfig(solver="l1", sparsity=desk_sparsity()))
    for draws in (0, 2.5):
        with pytest.raises(ConfigError, match="lstsq_draws"):
            fit_doas(data, ddict, DoasFitConfig(solver="lstsq", sparsity=desk_sparsity(),
                                                lstsq_draws=draws))
    with pytest.raises(ValueError):
        fit_doas(data[:-1], ddict, DoasFitConfig(solver="nnls", sparsity=desk_sparsity()))
    assert set(DOAS_SOLVERS) == {"nnls", "l1", "pd", "lstsq", "hoyer_p1", "diff_p2"}
