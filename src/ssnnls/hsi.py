"""Per-pixel hyperspectral demixing with grouped endmember libraries.

A scene is a band-by-pixel matrix, each pixel a non-negative combination
of library spectra; the library's columns cluster into groups of variants
of the same material.  Demixing solves one structured-sparse problem per
pixel against the dictionary's cached Gram matrix: problem 2 solves a
call's pixels as one block (:func:`ssnnls.sgp.solve_problem2`), with one
A'B product and one objective evaluation per step for every live pixel,
and the other solvers run one loop over the pixels.  Metrics compare
recovered abundances against the planted truth, per column and
collapsed per group.
"""

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baselines import l1_penalized, l1_weight, nnls, penalty_decomposition_l0
from .core import ZERO_TOL, GroupedDictionary, SparsityConfig, normalize_columns
from .errors import ConfigError, NonConvergenceError
from .qp import AdmmParams
from .sgp import SgpParams, solve_problem1, solve_problem2

HSI_SOLVERS = ("nnls", "l1", "pd", "hoyer_p1", "diff_p2")


@dataclass
class HsiScene:
    """Library, pixel data, and (for synthetic scenes) the planted truth."""

    dictionary: GroupedDictionary
    scales: np.ndarray
    pixels: np.ndarray
    truth: Optional[np.ndarray] = None

    def __post_init__(self):
        self.pixels = np.asarray(self.pixels, dtype=float)
        if self.pixels.ndim != 2:
            raise ValueError(f"pixels must be 2-d, got shape {self.pixels.shape}")
        if self.pixels.shape[0] != self.dictionary.n_rows:
            raise ValueError(
                f"pixels have {self.pixels.shape[0]} bands, dictionary has "
                f"{self.dictionary.n_rows}")
        if self.truth is not None:
            self.truth = np.asarray(self.truth, dtype=float)
            if self.truth.shape != (self.dictionary.n_columns, self.pixels.shape[1]):
                raise ValueError("truth shape must be (n_columns, n_pixels)")

    @property
    def n_pixels(self) -> int:
        return self.pixels.shape[1]


@dataclass
class AbundanceMatrix:
    """Recovered abundances (n_columns, n_pixels) plus per-pixel failures.

    ``outer_iters`` holds the outer-iteration count per pixel for the two
    structured solvers, a failed pixel's the steps it made before it
    failed (none for problem 1's), and is None for the baselines.
    """

    values: np.ndarray
    failed_pixels: List[Tuple[int, str]] = field(default_factory=list)
    outer_iters: Optional[np.ndarray] = None


def _smooth_noise(rng: np.random.Generator, n: int, width: int) -> np.ndarray:
    raw = rng.normal(0.0, 1.0, n + 2 * width)
    t = np.arange(-3 * width, 3 * width + 1, dtype=float)
    kern = np.exp(-0.5 * (t / max(width, 1)) ** 2)
    kern /= kern.sum()
    sm = np.convolve(raw, kern, mode="same")[width:width + n]
    return sm / max(float(np.max(np.abs(sm))), 1e-12)


def synthesize_endmember_library(n_bands: int, group_sizes: Sequence[int], seed: int,
                                 within_spread: float = 0.08
                                 ) -> Tuple[GroupedDictionary, np.ndarray]:
    """Smooth positive endmember spectra in groups of correlated variants.

    Each group has a base curve (smoothed noise, shifted positive) and
    ``group_sizes[j]`` variants obtained by multiplying with a smooth
    field of relative size ``within_spread`` plus a small additive smooth
    term, so within-group correlation is high.  Columns are normalised;
    the original norms are returned alongside.
    """
    group_sizes = [int(s) for s in group_sizes]
    if any(s <= 0 for s in group_sizes):
        raise ValueError("group sizes must be positive")
    children = np.random.SeedSequence(seed).spawn(len(group_sizes))
    cols = []
    for size, child in zip(group_sizes, children):
        rng = np.random.default_rng(child)
        base = _smooth_noise(rng, n_bands, max(4, n_bands // 16))
        base = 0.25 + 0.75 * (base - base.min()) / max(base.max() - base.min(), 1e-12)
        for _ in range(size):
            bump = _smooth_noise(rng, n_bands, max(4, n_bands // 24))
            add = _smooth_noise(rng, n_bands, max(4, n_bands // 10))
            var = base * (1.0 + within_spread * bump) + 0.02 * within_spread * add
            cols.append(np.maximum(var, 1e-3))
    raw = np.stack(cols).T  # column-major, as GroupedDictionary keeps it
    normalized, scales = normalize_columns(raw)
    offsets = np.concatenate([[0], np.cumsum(group_sizes)]).astype(np.int64)
    return GroupedDictionary(normalized, offsets), scales


def synthesize_mixed_scene(library: GroupedDictionary, scales: np.ndarray,
                           counts: Sequence[int], noise_sd: float, seed: int) -> HsiScene:
    """Scene with a schedule of mixture sizes and unit-norm clean pixels.

    ``counts[k]`` pixels mix k+1 materials: k+1 groups drawn without
    replacement, one uniform column within each, magnitudes uniform in
    [0, 1].  Every truth column keeps at most one active atom per group.
    Truth columns are rescaled so the noise-free pixel has unit Euclidean
    norm; Gaussian noise is added afterwards.
    """
    counts = [int(c) for c in counts]
    if len(counts) > library.n_groups:
        raise ValueError(f"counts allows at most {library.n_groups} mixture sizes, "
                         f"got {len(counts)}")
    if any(c < 0 for c in counts):
        raise ValueError("counts must be non-negative")
    n_pixels = sum(counts)
    if n_pixels == 0:
        raise ValueError("counts must place at least one pixel")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    truth = np.zeros((library.n_columns, n_pixels))
    sizes = library.group_sizes()
    p = 0
    for k, count in enumerate(counts, start=1):
        for _ in range(count):
            # redraw on the (improbable) all-tiny-magnitudes outcome
            for _ in range(100):
                col = np.zeros(library.n_columns)
                groups = rng.choice(library.n_groups, size=k, replace=False)
                for g in groups:
                    i = int(library.offsets[g]) + int(rng.integers(sizes[int(g)]))
                    col[i] = rng.uniform(0.0, 1.0)
                norm = float(np.linalg.norm(library.entries @ col))
                if norm > 1e-9:
                    break
            else:
                raise ValueError("could not draw a non-degenerate pixel")
            truth[:, p] = col / norm
            p += 1
    pixels = library.entries @ truth
    if noise_sd > 0:
        pixels = pixels + rng.normal(0.0, noise_sd, pixels.shape)
    return HsiScene(library, np.asarray(scales, dtype=float), pixels, truth)


def demix_scene(scene: HsiScene, cfg: SparsityConfig, solver: str = "diff_p2",
                sgp: Optional[SgpParams] = None, admm: Optional[AdmmParams] = None,
                l1_gamma: Optional[float] = None,
                threads: Optional[int] = None) -> AbundanceMatrix:
    """Solve one problem per pixel with the chosen solver.

    "l1" is the penalized form at weight ``l1_gamma`` (finite, >= 0;
    :func:`ssnnls.baselines.l1_penalized`, one exact solve by problem
    2's active set per pixel on the dictionary's kept Gram matrix, with
    no settings of its own); "pd"
    runs with the default :class:`PdParams` and the ``PD_TOL_INNER``,
    ``PD_MAX_INNER``, ``PD_MAX_OUTER`` and ``PD_RHO_CAP`` constants; the
    structured solvers take ``sgp`` plus the constants of
    :mod:`ssnnls.sgp` (``C0``, ``SIGMA``, ``XI1``, ``XI2``, ``RHO``,
    ``MAX_REJECTIONS``, ``NO_DESCENT_ULPS``) and
    ``qp.ACTIVE_SET_ITERS_PER_COLUMN``.
    ``admm`` is retired and ignored (see :class:`ssnnls.qp.AdmmParams`),
    and so is ``threads``.  "diff_p2" solves the scene's pixels as one
    block of :func:`ssnnls.sgp.solve_problem2`: the data and the config
    are checked and A'B formed once, and each step evaluates every live
    pixel in one call, while each pixel keeps its own stop and step
    count.  The other solvers run one serial loop over the pixels.
    Pixels whose solver raises a non-convergence error get a zero column
    and an entry in ``failed_pixels``, and the others go on.
    """
    if solver not in HSI_SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; choose from {HSI_SOLVERS}")
    dct = scene.dictionary
    cfg.validate(dct.n_groups)
    sgp = sgp or SgpParams()
    if solver == "l1":
        if l1_gamma is None:
            raise ConfigError("the l1 solver needs l1_gamma")
        l1_gamma = l1_weight(l1_gamma, "l1_gamma")

    if solver == "diff_p2":
        rep = solve_problem2(dct, scene.pixels, cfg, sgp)
        outer = np.array([col.outer_iters for col in rep.columns], dtype=np.int64)
        return AbundanceMatrix(rep.x, rep.failed, outer)

    def solve_pixel(y: np.ndarray) -> Tuple[np.ndarray, int]:
        if solver == "nnls":
            return nnls(dct, y), 0
        if solver == "l1":
            return l1_penalized(dct, y, l1_gamma), 0
        if solver == "pd":
            return penalty_decomposition_l0(dct, y, cfg), 0
        rep = solve_problem1(dct, y, cfg, sgp)
        return rep.x, rep.outer_iters

    values = np.zeros((dct.n_columns, scene.n_pixels))
    outer = np.zeros(scene.n_pixels, dtype=np.int64)
    failed: List[Tuple[int, str]] = []
    for p in range(scene.n_pixels):
        try:
            values[:, p], outer[p] = solve_pixel(scene.pixels[:, p])
        except NonConvergenceError as exc:
            failed.append((p, str(exc)))
    iters_out = outer if solver == "hoyer_p1" else None
    return AbundanceMatrix(values, failed, iters_out)


@dataclass
class MetricsReport:
    """Scene-level recovery metrics; truth-dependent fields are None without truth."""

    fraction_nonzero: float
    group_one_sparse_fraction: float
    sse: Optional[float] = None
    support_mismatch: Optional[int] = None
    group_mae: Optional[np.ndarray] = None


def compute_metrics(values: np.ndarray, offsets: np.ndarray,
                    truth: Optional[np.ndarray] = None) -> MetricsReport:
    """Sparsity and recovery metrics for an abundance matrix.

    ``fraction_nonzero``: entries above ``ZERO_TOL`` over all entries.
    ``group_one_sparse_fraction``: pixels whose every group has at most
    one entry above ``ZERO_TOL``.  With truth: squared recovery error,
    the number of group-support disagreements after summing each group,
    and the per-group mean absolute error of those sums.  ``values`` must
    have one row per column ``offsets`` covers.
    """
    values = np.asarray(values, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    if values.shape[0] != int(offsets[-1]):
        raise ValueError(f"offsets cover {int(offsets[-1])} rows, values have {values.shape[0]}")
    starts = offsets[:-1]
    nz = np.abs(values) > ZERO_TOL
    fraction = float(nz.mean()) if values.size else 0.0
    counts = np.add.reduceat(nz.astype(np.int64), starts, axis=0)
    one_sparse = float(np.mean(np.all(counts <= 1, axis=0))) if values.shape[1] else 0.0
    if truth is None:
        return MetricsReport(fraction, one_sparse)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != values.shape:
        raise ValueError(f"truth shape {truth.shape} does not match values {values.shape}")
    sse = float(np.sum((values - truth) ** 2))
    tv = np.add.reduceat(values, starts, axis=0)
    tt = np.add.reduceat(truth, starts, axis=0)
    mismatch = int(np.sum((np.abs(tv) > ZERO_TOL) != (np.abs(tt) > ZERO_TOL)))
    group_mae = np.mean(np.abs(tv - tt), axis=1)
    return MetricsReport(fraction, one_sparse, sse, mismatch, group_mae)
