"""Per-pixel hyperspectral demixing with grouped endmember libraries.

A scene is a band-by-pixel matrix, each pixel a non-negative combination
of library spectra; the library's columns cluster into groups of variants
of the same material.  Demixing solves one structured-sparse problem per
pixel (pixels are independent, so they run on a thread pool sharing the
dictionary's Gram matrix) and metrics compare recovered abundances against the
planted truth, per column and collapsed per group.
"""

import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baselines import l1_penalized, l1_weight, nnls, penalty_decomposition_l0
from .core import GroupedCoeffs, GroupedDictionary, SparsityConfig, normalize_columns
from .errors import ConfigError, NonConvergenceError
from .qp import AdmmParams
from .sgp import SgpParams, solve_problem1, solve_problem2

THREADS_ENV = "SSNNLS_MAX_THREADS"

HSI_SOLVERS = ("nnls", "l1", "pd", "hoyer_p1", "diff_p2")


def resolve_threads(requested: Optional[int]) -> int:
    """Thread count: requested (0/None = all cores), capped by SSNNLS_MAX_THREADS."""
    cap = os.environ.get(THREADS_ENV, "").strip()
    try:
        limit = int(cap) if cap else os.cpu_count() or 1
    except ValueError:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {cap!r}") from None
    if limit < 1:
        raise ConfigError(f"{THREADS_ENV} must be a positive integer, got {cap!r}")
    if requested is None or requested == 0:
        return min(os.cpu_count() or 1, limit)
    if requested < 0:
        raise ConfigError(f"thread count must be positive, got {requested}")
    return min(requested, limit)


@dataclass(frozen=True)
class GroupCollapser:
    """Sums coefficients within each group: S (n_cols, P) -> (n_groups, P)."""

    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=np.int64))

    @property
    def n_groups(self) -> int:
        return self.offsets.size - 1

    def apply(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape[0] != int(self.offsets[-1]):
            raise ValueError(f"expected {int(self.offsets[-1])} rows, got {values.shape[0]}")
        return np.add.reduceat(values, self.offsets[:-1], axis=0)

    def matrix(self) -> np.ndarray:
        n = int(self.offsets[-1])
        t = np.zeros((self.n_groups, n))
        for j in range(self.n_groups):
            t[j, self.offsets[j]:self.offsets[j + 1]] = 1.0
        return t


@dataclass
class HsiScene:
    """Library, pixel data, and (for synthetic scenes) the planted truth."""

    dictionary: GroupedDictionary
    scales: np.ndarray
    pixels: np.ndarray
    truth: Optional[np.ndarray] = None
    names: Tuple[str, ...] = ()

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

    def collapser(self) -> GroupCollapser:
        return GroupCollapser(self.dictionary.offsets)


@dataclass
class AbundanceMatrix:
    """Recovered abundances (n_columns, n_pixels) plus per-pixel failures.

    ``outer_iters`` holds the outer-iteration count per pixel for the two
    structured solvers and is None for the baselines.
    """

    values: np.ndarray
    offsets: np.ndarray
    failed_pixels: List[Tuple[int, str]] = field(default_factory=list)
    outer_iters: Optional[np.ndarray] = None

    def column(self, p: int) -> np.ndarray:
        return self.values[:, p]


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
    raw = np.stack(cols, axis=1)
    normalized, scales = normalize_columns(raw)
    offsets = np.concatenate([[0], np.cumsum(group_sizes)]).astype(np.int64)
    return GroupedDictionary(normalized, offsets), scales


def synthesize_mixed_scene(library: GroupedDictionary, scales: np.ndarray,
                           counts: Sequence[int], noise_sd: float, seed: int,
                           names: Sequence[str] = ()) -> HsiScene:
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
    return HsiScene(library, np.asarray(scales, dtype=float), pixels, truth, tuple(names))


def demix_scene(scene: HsiScene, cfg: SparsityConfig, solver: str = "diff_p2",
                sgp: Optional[SgpParams] = None, admm: Optional[AdmmParams] = None,
                l1_gamma: Optional[float] = None,
                threads: Optional[int] = 1) -> AbundanceMatrix:
    """Solve one problem per pixel with the chosen solver.

    "l1" is the penalized form at weight ``l1_gamma`` (finite, >= 0;
    :func:`ssnnls.baselines.l1_penalized`, one exact NNLS per pixel with
    the ``L1_SHIFT`` ridge and no settings of its own); "pd" runs with
    the default :class:`PdParams` and the ``PD_TOL_INNER``,
    ``PD_MAX_INNER``, ``PD_MAX_OUTER`` and ``PD_RHO_CAP`` constants; the
    structured solvers take ``sgp`` plus the constants of
    :mod:`ssnnls.sgp` (``C0``, ``SIGMA``, ``XI1``, ``XI2``, ``RHO``,
    ``MAX_REJECTIONS``, ``TOL_STEP``) and ``qp.ACTIVE_SET_ITERS_PER_COLUMN``.
    ``admm`` is retired and ignored (see :class:`ssnnls.qp.AdmmParams`).
    Pixels whose solver raises a non-convergence error get a zero column
    and an entry in ``failed_pixels``.  Pixels run on ``threads`` workers (default 1;
    0/None = all cores; capped by the SSNNLS_MAX_THREADS environment
    variable); results do not depend on the worker count.
    """
    if solver not in HSI_SOLVERS:
        raise ConfigError(f"unknown solver {solver!r}; choose from {HSI_SOLVERS}")
    dct = scene.dictionary
    cfg.validate(dct.n_groups)
    sgp = sgp or SgpParams()
    n_threads = resolve_threads(threads)

    # the dictionary caches its Gram matrix without a lock: form it here,
    # before any worker could race to compute it
    if solver in ("hoyer_p1", "diff_p2"):
        dct.gram
    if solver == "l1":
        if l1_gamma is None:
            raise ConfigError("the l1 solver needs l1_gamma")
        l1_gamma = l1_weight(l1_gamma, "l1_gamma")

    def solve_pixel(p: int) -> Tuple[np.ndarray, int]:
        y = scene.pixels[:, p]
        if solver == "nnls":
            return nnls(dct.entries, y), 0
        if solver == "l1":
            return l1_penalized(dct.entries, y, l1_gamma), 0
        if solver == "pd":
            return penalty_decomposition_l0(dct, y, cfg).x, 0
        if solver == "hoyer_p1":
            rep = solve_problem1(dct, y, cfg, sgp)
        else:
            rep = solve_problem2(dct, y, cfg, sgp)
        return rep.final.x, rep.outer_iters

    values = np.zeros((dct.n_columns, scene.n_pixels))
    outer = np.zeros(scene.n_pixels, dtype=np.int64)
    failed: List[Tuple[int, str]] = []

    def run(p: int):
        try:
            x, iters = solve_pixel(p)
            return p, x, iters, None
        except NonConvergenceError as exc:
            return p, None, 0, str(exc)

    def record(result):
        p, x, iters, err = result
        if err is None:
            values[:, p] = x
            outer[p] = iters
        else:
            failed.append((p, err))

    pixels = range(scene.n_pixels)
    if n_threads == 1:
        for result in map(run, pixels):
            record(result)
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for result in pool.map(run, pixels):
                record(result)
    failed.sort(key=lambda t: t[0])
    iters_out = outer if solver in ("hoyer_p1", "diff_p2") else None
    return AbundanceMatrix(values, dct.offsets.copy(), failed, iters_out)


@dataclass
class MetricsReport:
    """Scene-level recovery metrics; truth-dependent fields are None without truth."""

    fraction_nonzero: float
    group_one_sparse_fraction: float
    sse: Optional[float] = None
    support_mismatch: Optional[int] = None
    group_mae: Optional[np.ndarray] = None


def compute_metrics(values: np.ndarray, offsets: np.ndarray,
                    truth: Optional[np.ndarray] = None,
                    zero_tol: float = 1e-6) -> MetricsReport:
    """Sparsity and recovery metrics for an abundance matrix.

    ``fraction_nonzero``: entries above ``zero_tol`` over all entries.
    ``group_one_sparse_fraction``: pixels whose every group has at most
    one entry above ``zero_tol``.  With truth: squared recovery error,
    the number of group-support disagreements after collapsing, and the
    per-group mean absolute error of collapsed abundances.
    """
    values = np.asarray(values, dtype=float)
    offsets = np.asarray(offsets, dtype=np.int64)
    collapser = GroupCollapser(offsets)
    nz = np.abs(values) > zero_tol
    fraction = float(nz.mean()) if values.size else 0.0
    counts = np.add.reduceat(nz.astype(np.int64), offsets[:-1], axis=0)
    one_sparse = float(np.mean(np.all(counts <= 1, axis=0))) if values.shape[1] else 0.0
    if truth is None:
        return MetricsReport(fraction, one_sparse)
    truth = np.asarray(truth, dtype=float)
    if truth.shape != values.shape:
        raise ValueError(f"truth shape {truth.shape} does not match values {values.shape}")
    sse = float(np.sum((values - truth) ** 2))
    tv = collapser.apply(values)
    tt = collapser.apply(truth)
    mismatch = int(np.sum((np.abs(tv) > zero_tol) != (np.abs(tt) > zero_tol)))
    group_mae = np.mean(np.abs(tv - tt), axis=1)
    return MetricsReport(fraction, one_sparse, sse, mismatch, group_mae)


def save_scene(prefix: str, scene: HsiScene) -> None:
    """Write pixels and dictionary as CSVs plus a JSON sidecar of metadata."""
    np.savetxt(prefix + ".csv", scene.pixels, delimiter=",",
               header=",".join(f"p{i}" for i in range(scene.n_pixels)))
    np.savetxt(prefix + ".dict.csv", scene.dictionary.entries, delimiter=",",
               header=",".join(f"c{i}" for i in range(scene.dictionary.n_columns)))
    meta = {
        "offsets": scene.dictionary.offsets.tolist(),
        "scales": scene.scales.tolist(),
        "names": list(scene.names),
        "truth": None if scene.truth is None else scene.truth.tolist(),
    }
    with open(prefix + ".json", "w") as fh:
        json.dump(meta, fh)


def load_scene(prefix: str) -> HsiScene:
    pixels = np.loadtxt(prefix + ".csv", delimiter=",", ndmin=2)
    entries = np.loadtxt(prefix + ".dict.csv", delimiter=",", ndmin=2)
    with open(prefix + ".json") as fh:
        meta = json.load(fh)
    truth = None if meta["truth"] is None else np.asarray(meta["truth"], dtype=float)
    return HsiScene(GroupedDictionary(entries, np.asarray(meta["offsets"], dtype=np.int64)),
                    np.asarray(meta["scales"], dtype=float), pixels, truth,
                    tuple(meta["names"]))
