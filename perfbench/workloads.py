"""Workload inputs, solver settings, output checks and quality figures.

Every input is generated here with this file's own code, the scenes
from ``SCENE_SEED`` and the noise from the run's seed.  The program
receives only arrays (wrapped in its public input types), so a change to
the program's own ``synthesize_*`` helpers cannot change a workload.
The checks recompute the models from the paper's formulas rather than
calling the program's objective code, and the quality figures compare
against the truth planted here.

Solver weights and tolerances are those of the command-line experiments
``hsi-structured`` and ``doas-align``.
"""

import sys
import time
from functools import cached_property

import numpy as np

from ssnnls import doas, hsi
from ssnnls.core import GroupedDictionary, SparsityConfig
from ssnnls.qp import AdmmParams
from ssnnls.sgp import SgpParams

# What is measured is the same in every run: the endmember library, the
# pixel mixtures, the reference spectra and the misaligned atoms planted
# in each spectrum.  The seed draws the measurement noise.  With the
# scenes drawn per seed too, five seeds spread solve speed by 25-45% and
# the atoms hit by 25-30% (IQR over median), more than any bound allows.
SCENE_SEED = 1301_0413

# Start point of the structured solver (0.1 in every coordinate); the
# model objective at the returned point must be no higher than here.
START_VALUE = 0.1
# A coefficient counts as nonzero above this (the pipelines' zero_tol).
ZERO_TOL = 1e-6
# l1 model: each coordinate's projected-gradient residual
# |min(x_i, g_i)|, g the gradient of the penalized objective, may be at
# most this share of |A'b|_inf.  FISTA's own stopping test left up to
# 1.1e-6 on 160 pixel solves (median 9e-8); the solution for a weight
# 0.1% off leaves about 1e-3.
L1_KKT_TOL = 1e-4
# diff_p2: the same residual for the smoothed problem-2 objective.  Over
# 624 hsi pixel solves (four seeds) it was at most 2.0e-4 (median 4.8e-6),
# over 10 full-scale spectra at most 2.2e-4; the start point leaves 0.1,
# the zero vector 0.95, and moving each group's dominant coefficient to
# the next variant a median of 2e-3.
P2_KKT_TOL = 1e-3


def _smooth_noise(rng, n, width):
    """Gaussian-filtered white noise on n samples, scaled to max |.| = 1."""
    t = np.arange(-3 * width, 3 * width + 1, dtype=float)
    kern = np.exp(-0.5 * (t / width) ** 2)
    raw = rng.normal(size=n + 2 * t.size)
    out = np.convolve(raw, kern / kern.sum(), mode="valid")[:n]
    return out / np.max(np.abs(out))


def _diff_l1_l2(v, eps):
    """Smoothed l1 - l2 penalty of problem 2 on a non-negative vector: value, gradient.

    The l2 norm is Huber-smoothed: |v|^2 / (2 eps) inside the ball of
    radius eps, |v| - eps / 2 outside.
    """
    n2 = float(np.linalg.norm(v))
    if n2 <= eps:
        return float(np.sum(v)) - n2 * n2 / (2.0 * eps), 1.0 - v / eps
    return float(np.sum(v)) - (n2 - eps / 2.0), 1.0 - v / n2


def _problem2(a, b, x, offsets, gamma, eps, gamma0=0.0, eps0=1.0):
    """Problem 2 at x: value and gradient of 0.5 |Ax - b|^2 plus the penalties.

    gamma[j] weighs the smoothed l1 - l2 penalty of group j
    (``offsets[j]:offsets[j + 1]``), gamma0 that of the whole of x.
    """
    r = a @ x - b
    val, grad = 0.5 * float(r @ r), a.T @ r
    for j in range(len(offsets) - 1):
        sl = slice(offsets[j], offsets[j + 1])
        pv, pg = _diff_l1_l2(x[sl], eps[j])
        val += gamma[j] * pv
        grad[sl] += gamma[j] * pg
    if gamma0:
        pv, pg = _diff_l1_l2(x, eps0)
        val += gamma0 * pv
        grad += gamma0 * pg
    return val, grad


def _kkt_ok(x, grad, atb, tol):
    """KKT over x >= 0: max_i |min(x_i, g_i)| <= tol * max(1, |A'b|_inf)."""
    scale = max(1.0, float(np.max(np.abs(atb))))
    return float(np.max(np.abs(np.minimum(x, grad)))) <= tol * scale


def _problem2_ok(model, x, atb):
    """The checks of a problem-2 solution: objective below the start, and KKT.

    ``model(x)`` returns the objective's value and gradient.
    """
    val, grad = model(x)
    return val <= model(np.full(x.size, START_VALUE))[0] and \
        _kkt_ok(x, grad, atb, P2_KKT_TOL)


def _atoms_hit(x, offsets, planted):
    """Planted (group, column) pairs that are their group's dominant nonzero column."""
    hits = 0
    for g, col in planted:
        seg = x[offsets[g]:offsets[g + 1]]
        best = int(offsets[g]) + int(np.argmax(seg))
        hits += best == col and x[col] > ZERO_TOL
    return hits


def _quality(a, x, x_true, planted, offsets):
    coef = np.linalg.norm(x - x_true) / np.linalg.norm(x_true)
    signal = np.linalg.norm(a @ (x - x_true)) / np.linalg.norm(a @ x_true)
    hits = sum(_atoms_hit(x[:, k], offsets, planted[k]) for k in range(x.shape[1]))
    return {"coef_err": float(coef), "signal_err": float(signal), "atoms_hit": int(hits)}


# ---------------------------------------------------------------------------
# hyperspectral demixing
# ---------------------------------------------------------------------------

HSI_BANDS = 204
HSI_GROUPS = 4
HSI_VARIANTS = 10
HSI_NOISE_SD = 0.005
HSI_SPARSITY = dict(gamma=1e-4, gamma0=0.01, eps=0.01, r=1.0)
HSI_SGP = SgpParams(c_matrix_scale=1e-9, tol_energy=1e-5)
HSI_ADMM = AdmmParams(tol=1e-6)
HSI_L1_GAMMA = 0.1


def hsi_library(rng):
    """Smooth positive spectra: HSI_GROUPS materials x HSI_VARIANTS coherent variants.

    Each material has a base curve; a variant multiplies it by a smooth
    field of relative size 8% and adds a smaller smooth term, so
    columns within a group are highly correlated.  Columns are scaled to
    unit norm.
    """
    cols = []
    for _ in range(HSI_GROUPS):
        base = _smooth_noise(rng, HSI_BANDS, HSI_BANDS // 16)
        base = 0.25 + 0.75 * (base - base.min()) / (base.max() - base.min())
        for _ in range(HSI_VARIANTS):
            bump = _smooth_noise(rng, HSI_BANDS, HSI_BANDS // 24)
            add = _smooth_noise(rng, HSI_BANDS, HSI_BANDS // 10)
            cols.append(np.maximum(base * (1.0 + 0.08 * bump) + 0.0016 * add, 1e-3))
    a = np.stack(cols, axis=1)
    return a / np.linalg.norm(a, axis=0)


def hsi_pixels(rng, noise_rng, a, counts):
    """Pixels mixing k+1 materials for counts[k] pixels each, in shuffled order.

    One variant per chosen material, magnitudes uniform in [0.2, 1];
    each clean pixel is scaled to unit norm before Gaussian noise from
    ``noise_rng``.  Returns (pixels, truth, planted) with planted[p] the
    (group, column) pairs of pixel p.
    """
    n_pix = sum(counts)
    truth = np.zeros((a.shape[1], n_pix))
    planted = []
    p = 0
    for k, count in enumerate(counts, start=1):
        for _ in range(count):
            groups = rng.choice(HSI_GROUPS, size=k, replace=False)
            pairs = []
            for g in sorted(int(g) for g in groups):
                col = g * HSI_VARIANTS + int(rng.integers(HSI_VARIANTS))
                truth[col, p] = rng.uniform(0.2, 1.0)
                pairs.append((g, col))
            truth[:, p] /= np.linalg.norm(a @ truth[:, p])
            planted.append(pairs)
            p += 1
    order = rng.permutation(n_pix)
    pixels = a @ truth + noise_rng.normal(0.0, HSI_NOISE_SD, (a.shape[0], n_pix))
    return pixels[:, order], truth[:, order], [planted[i] for i in order]


class HsiWorkload:
    """Pixels of one scene solved by several solvers, as hsi-structured compares them.

    ``solvers`` lists (solver, n): the solver solves the scene's first n
    pixels, in calls of ``demix_scene`` on ``scene_pixels`` pixels each.
    Operations (columns of the output) run solver by solver.

    demix_scene solves a call's first pixel alone and starts every later
    pixel from the ADMM penalty that pixel settled on.  Two 150-pixel
    scenes drawn alike took 12 s and 8 s as single calls, the slower
    with 40% more sweeps and seven times the refactorisations.  Several
    calls per round average over which pixel opens a call.
    """

    def __init__(self, seed, solvers, scene_pixels):
        scene_rng = np.random.default_rng(SCENE_SEED)
        self.a = hsi_library(scene_rng)
        pixels, truth, planted = hsi_pixels(
            scene_rng, np.random.default_rng(np.random.SeedSequence(seed)), self.a, HSI_COUNTS)
        cols = [p for _, n in solvers for p in range(n)]
        self.pixels, self.truth = pixels[:, cols], truth[:, cols]
        self.planted = [planted[p] for p in cols]
        self.solver_of = [solver for solver, n in solvers for _ in range(n)]
        self.n_ops = len(cols)
        self.calls = []  # (solver, first column, pixels)
        first = 0
        for solver, n in solvers:
            self.calls += [(solver, first + p, min(scene_pixels, n - p))
                           for p in range(0, n, scene_pixels)]
            first += n
        self.offsets = np.arange(HSI_GROUPS + 1) * HSI_VARIANTS
        s = HSI_SPARSITY
        self.cfg = SparsityConfig(gamma=np.full(HSI_GROUPS, s["gamma"]), gamma0=s["gamma0"],
                                  eps=np.full(HSI_GROUPS, s["eps"]), r=s["r"])
        self.scenes = None

    def prepare(self):
        dct = GroupedDictionary(self.a, self.offsets)
        self.scenes = [hsi.HsiScene(dct, np.ones(self.a.shape[1]), self.pixels[:, p0:p0 + n])
                       for _, p0, n in self.calls]

    def solve(self, threads=1):
        """Solve every pixel: (coefficients, failed pixels, seconds per demix_scene call)."""
        x = np.zeros_like(self.truth)
        failed = set()
        seconds = []
        for (solver, p0, n), scene in zip(self.calls, self.scenes):
            t0 = time.perf_counter()
            res = hsi.demix_scene(scene, self.cfg, solver=solver, sgp=HSI_SGP,
                                  admm=HSI_ADMM, l1_gamma=HSI_L1_GAMMA, threads=threads)
            seconds.append(time.perf_counter() - t0)
            x[:, p0:p0 + n] = res.values
            failed.update(p0 + p for p, _ in res.failed_pixels)
        return x, failed, seconds

    def check(self, x, p):
        xp, b = x[:, p], self.pixels[:, p]
        if not np.all(np.isfinite(xp)) or np.any(xp < 0.0):
            return False
        if self.solver_of[p] == "l1":
            return _kkt_ok(xp, self.a.T @ (self.a @ xp - b) + HSI_L1_GAMMA, self.a.T @ b,
                           L1_KKT_TOL)
        return _problem2_ok(lambda v: self._problem2(v, b), xp, self.a.T @ b)

    def quality(self, x):
        return _quality(self.a, x, self.truth, self.planted, self.offsets)

    def _problem2(self, x, b):
        """Least squares plus smoothed l1 - l2 of each group and of all x."""
        c = self.cfg
        return _problem2(self.a, b, x, self.offsets, c.gamma, c.eps, c.gamma0,
                         float(np.min(c.eps)))


# ---------------------------------------------------------------------------
# spectral fitting under wavelength misalignment
# ---------------------------------------------------------------------------

DOAS_BANDS = 1024
DOAS_SPECTRA = 10
DOAS_NAMES = ("HONO", "NO2", "O3")
DOAS_MAGNITUDES = (1.0, 0.1, 1.5)
DOAS_NOISE_SD = 0.005
DOAS_SLOPES = np.linspace(-0.1, 0.1, 21)
DOAS_OFFSETS = np.linspace(-1.0, 1.0, 21)
DOAS_JITTER = 0.25
DOAS_WEIGHT = 0.05
DOAS_SGP = SgpParams(c_matrix_scale=1e-9, tol_energy=1e-8, max_outer=500)
DOAS_ADMM = AdmmParams(tol=1e-4, max_iters=50000)
# The references cover every deformed sample position, so the program's
# reflection at the domain edges never applies.
DOAS_REF_RANGE = (300.0, 425.0)
DOAS_REF_STEP = 0.01


def doas_wavelengths():
    return 340.0 + 0.04038 * np.arange(DOAS_BANDS)


def doas_references(rng):
    """Narrowband reference cross-sections: Gabor bumps less a cubic trend."""
    wl = np.arange(DOAS_REF_RANGE[0], DOAS_REF_RANGE[1] + DOAS_REF_STEP / 2, DOAS_REF_STEP)
    refs = []
    for _ in DOAS_NAMES:
        n_bumps = 56
        c = rng.uniform(wl[0], wl[-1], n_bumps)
        w = rng.uniform(0.4, 1.8, n_bumps)
        period = rng.uniform(0.7, 2.8, n_bumps)
        phase = rng.uniform(0.0, 2.0 * np.pi, n_bumps)
        amp = rng.uniform(0.4, 1.0, n_bumps) * rng.choice((-1.0, 1.0), n_bumps)
        v = np.zeros_like(wl)
        for k in range(n_bumps):
            v += amp[k] * np.exp(-0.5 * ((wl - c[k]) / w[k]) ** 2) * \
                np.cos(2.0 * np.pi * (wl - c[k]) / period[k] + phase[k])
        v -= np.polynomial.Polynomial.fit(wl, v, deg=3)(wl)
        refs.append((wl, v / np.max(np.abs(v))))
    return refs


def deformed(ref, slope, offset, wl):
    """Unit-norm reference sampled at (1 + slope) * lam + offset."""
    col = np.interp((1.0 + slope) * wl + offset, ref[0], ref[1])
    return col / np.linalg.norm(col)


class DoasWorkload:
    """Spectra misaligned against a shared deformation dictionary; one fit_doas each.

    Each spectrum plants one atom per reference at a slope/offset grid
    point away from the grid's edges, scaled by its mean magnitude times
    U(0.5, 1.5), with its offset shifted off the grid by up to a quarter
    step; the seed draws the Gaussian noise.  The truth is the planted
    grid atom.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        scene_rng = np.random.default_rng(SCENE_SEED)
        self.wl = doas_wavelengths()
        self.refs = doas_references(scene_rng)
        k_sz = DOAS_SLOPES.size
        self.offsets = np.arange(len(DOAS_NAMES) + 1) * k_sz * DOAS_OFFSETS.size
        step_q = DOAS_OFFSETS[1] - DOAS_OFFSETS[0]
        self.truth = np.zeros((self.offsets[-1], DOAS_SPECTRA))
        self.data = rng.normal(0.0, DOAS_NOISE_SD, (DOAS_BANDS, DOAS_SPECTRA))
        self.planted = []
        for p in range(DOAS_SPECTRA):
            pairs = []
            for j, ref in enumerate(self.refs):
                k, ell = (int(v) for v in scene_rng.integers(5, 16, size=2))
                col = self.offsets[j] + ell * k_sz + k
                self.truth[col, p] = DOAS_MAGNITUDES[j] * scene_rng.uniform(0.5, 1.5)
                q = DOAS_OFFSETS[ell] + DOAS_JITTER * step_q * scene_rng.uniform(-1.0, 1.0)
                self.data[:, p] += self.truth[col, p] * deformed(ref, DOAS_SLOPES[k], q, self.wl)
                pairs.append((j, col))
            self.planted.append(pairs)
        m = len(DOAS_NAMES)
        self.fit_cfg = doas.DoasFitConfig(
            sparsity=SparsityConfig(gamma=np.full(m, DOAS_WEIGHT), gamma0=0.0,
                                    eps=np.full(m, DOAS_WEIGHT), r=1.0),
            solver="diff_p2", sgp=DOAS_SGP, admm=DOAS_ADMM)
        self.n_ops = DOAS_SPECTRA
        self.ddict = None

    @cached_property
    def a(self):
        """Own copy of the dictionary, to check the program's and to score against."""
        k_sz = DOAS_SLOPES.size
        a = np.empty((DOAS_BANDS, self.offsets[-1]))
        for j, ref in enumerate(self.refs):
            for ell, q in enumerate(DOAS_OFFSETS):
                for k, s in enumerate(DOAS_SLOPES):
                    a[:, self.offsets[j] + ell * k_sz + k] = deformed(ref, s, q, self.wl)
        return a

    def prepare(self):
        refs = [doas.ReferenceSpectrum(name, wl, v)
                for name, (wl, v) in zip(DOAS_NAMES, self.refs)]
        grid = doas.DeformationGrid(DOAS_SLOPES, DOAS_OFFSETS)
        self.ddict = doas.build_deformation_dictionary(refs, grid, self.wl)

    @cached_property
    def dictionary_matches(self):
        """The program's dictionary against this file's own construction."""
        got = self.ddict.dictionary
        return np.array_equal(got.offsets, self.offsets) and \
            np.allclose(got.entries, self.a, rtol=0.0, atol=1e-12)

    def solve(self):
        """Fit every spectrum: (coefficients, failed spectra, seconds per fit_doas call)."""
        x = np.zeros_like(self.truth)
        failed = set()
        seconds = []
        for p in range(DOAS_SPECTRA):
            t0 = time.perf_counter()
            try:
                x[:, p] = doas.fit_doas(self.data[:, p], self.ddict, self.fit_cfg).coeffs.x
            except Exception as exc:  # noqa: BLE001 - one failed operation, counted
                print(f"spectrum {p}: {type(exc).__name__}: {exc}", file=sys.stderr)
                failed.add(p)
            seconds.append(time.perf_counter() - t0)
        return x, failed, seconds

    def check(self, x, p):
        xp = x[:, p]
        if not (self.dictionary_matches and np.all(np.isfinite(xp))) or np.any(xp < 0.0):
            return False
        b = self.data[:, p]
        weights = np.full(len(DOAS_NAMES), DOAS_WEIGHT)
        return _problem2_ok(lambda v: _problem2(self.a, b, v, self.offsets, weights, weights),
                            xp, self.a.T @ b)

    def quality(self, x):
        return _quality(self.a, x, self.truth, self.planted, self.offsets)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

# Pixels per mixture size (1, 2, 3, 4 materials): the command line's
# hsi-structured experiment at scale 10, the workload ROADMAP.md measures.
HSI_COUNTS = (100, 50, 5, 1)
# diff_p2 solves every pixel, the l1 baseline the first 24.
HSI_SOLVERS = (("diff_p2", sum(HSI_COUNTS)), ("l1", 24))
SCENE_PIXELS = 10

WORKLOADS = {
    "hsi-diff-l1": lambda seed: HsiWorkload(seed, HSI_SOLVERS, SCENE_PIXELS),
    "doas-align": DoasWorkload,
}
