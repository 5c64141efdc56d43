"""Spectral fitting with wavelength misalignment and background estimation.

The measured optical depth is modelled as a non-negative combination of
deformed reference spectra plus a smooth background:

    J(lam) = sum_j a_j y_j((1 + p) lam + q) + B(lam) + noise

Each reference is expanded into a group of columns, one per (slope p,
offset q) grid point, so misalignment becomes a structured-sparsity
problem: pick (at most) one deformation per reference.

The background B is linear and unpenalised in the coefficients, with the
roughness penalty alpha/2 |Q B|^2 of :func:`build_background_operator`.
So for fixed coefficients x it has a closed form, and projecting it out
leaves a plain grouped fit (variable projection for linear variables,
Golub & Pereyra, SIAM J. Numer. Anal. 1973).  With Q = U diag(sigma) V'
and lam = sigma^2, the reduced system is

    min over x of 1/2 |R (A x - data)|^2,   R = diag(sqrt(alpha lam / (1 + alpha lam))) V',

where V' holds Q's w - 2 right singular vectors: the two affine
backgrounds that Q annihilates cost nothing and drop out.  Every solver
fits R A to R data, and the background is
B = (I + alpha Q'Q)^-1 r = r - R'R r with r = data - A x.  The SVD
depends only on the band count w; it is taken once per w, and only when
alpha > 0, as is SciPy's sine transform, which builds Q: so a fit with
alpha = 0 by diff_p2 never loads SciPy.  Q itself is factored, not Q'Q,
whose condition number is the square of Q's (2.9e4 at 256 bands, 4.6e5
at 1024).
"""

import functools
import numbers
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .baselines import PdParams, l1_bregman, l1_weight, nnls, penalty_decomposition_l0
from .core import (ZERO_TOL, GroupedCoeffs, GroupedDictionary, SparsityConfig,
                   as_data_vector, normalize_columns, support_matvec)
from .errors import ConfigError, DegenerateColumnError
from .qp import AdmmParams
from .sgp import SgpParams, SolveReport, solve_problem1, solve_problem2

WAVELENGTH_START = 340.0
WAVELENGTH_STEP = 0.04038

DOAS_SOLVERS = ("nnls", "l1", "pd", "lstsq", "hoyer_p1", "diff_p2")


def wavelength_grid(n_samples: int) -> np.ndarray:
    """Uniform wavelength grid starting at 340 nm with 0.04038 nm spacing."""
    return WAVELENGTH_START + WAVELENGTH_STEP * np.arange(n_samples)


@dataclass(frozen=True)
class ReferenceSpectrum:
    """A named reference cross-section sampled on an increasing grid."""

    name: str
    wavelengths: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        wl = np.asarray(self.wavelengths, dtype=float).ravel()
        vals = np.asarray(self.values, dtype=float).ravel()
        object.__setattr__(self, "wavelengths", wl)
        object.__setattr__(self, "values", vals)
        if wl.size != vals.size:
            raise ValueError(f"{self.name}: {wl.size} wavelengths but {vals.size} values")
        if wl.size < 2:
            raise ValueError(f"{self.name}: need at least 2 samples")
        if np.any(np.diff(wl) <= 0):
            raise ValueError(f"{self.name}: wavelengths must be strictly increasing")


def synthesize_references(wavelengths: np.ndarray,
                          names: Sequence[str] = ("HONO", "NO2", "O3"),
                          seed: int = 7) -> List[ReferenceSpectrum]:
    """Generate narrowband differential-style reference spectra.

    Each reference is a sum of Gabor-like bumps (Gaussian envelope times a
    local oscillation) with a smooth cubic trend removed, normalised to
    unit sup-norm.  Bump widths are a few tenths of a nanometre up to a
    couple of nanometres, so small wavelength shifts decorrelate the
    spectra the way real differential cross-sections do.
    """
    wavelengths = np.asarray(wavelengths, dtype=float)
    out = []
    children = np.random.SeedSequence(seed).spawn(len(names))
    for name, child in zip(names, children):
        rng = np.random.default_rng(child)
        lo, hi = wavelengths[0] - 6.0, wavelengths[-1] + 6.0
        n_bumps = 24
        centers = rng.uniform(lo, hi, n_bumps)
        widths = rng.uniform(0.4, 1.8, n_bumps)
        periods = rng.uniform(0.7, 2.8, n_bumps)
        phases = rng.uniform(0.0, 2.0 * np.pi, n_bumps)
        amps = rng.uniform(0.4, 1.0, n_bumps) * rng.choice((-1.0, 1.0), n_bumps)
        vals = np.zeros_like(wavelengths)
        for c, w, t, ph, a in zip(centers, widths, periods, phases, amps):
            vals += a * np.exp(-0.5 * ((wavelengths - c) / w) ** 2) * \
                np.cos(2.0 * np.pi * (wavelengths - c) / t + ph)
        trend = np.polynomial.Polynomial.fit(wavelengths, vals, deg=3)
        vals = vals - trend(wavelengths)
        vals /= np.max(np.abs(vals))
        out.append(ReferenceSpectrum(name, wavelengths.copy(), vals))
    return out


@dataclass(frozen=True)
class DeformationGrid:
    """Slope/offset grid; flat order is offset-major (offsets outer, slopes inner)."""

    slopes: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "slopes", np.asarray(self.slopes, dtype=float).ravel())
        object.__setattr__(self, "offsets", np.asarray(self.offsets, dtype=float).ravel())
        if self.slopes.size == 0 or self.offsets.size == 0:
            raise ValueError("deformation grid must be non-empty")

    @classmethod
    def full_grid(cls) -> "DeformationGrid":
        return cls(np.linspace(-0.1, 0.1, 21), np.linspace(-1.0, 1.0, 21))

    @classmethod
    def desk_grid(cls) -> "DeformationGrid":
        return cls(np.linspace(-0.02, 0.02, 5), np.linspace(-0.2, 0.2, 5))

    @property
    def size(self) -> int:
        return self.slopes.size * self.offsets.size

    def flat_index(self, slope_idx: int, offset_idx: int) -> int:
        return offset_idx * self.slopes.size + slope_idx

    def deformation(self, flat: int) -> Tuple[float, float]:
        k = flat % self.slopes.size
        ell = flat // self.slopes.size
        return float(self.slopes[k]), float(self.offsets[ell])


def _sample_with_reflection(wl: np.ndarray, vals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Sample a tabulated function at t, odd-reflecting about both endpoints."""
    a, b = wl[0], wl[-1]
    va, vb = vals[0], vals[-1]
    pos = t.astype(float).copy()
    sgn = np.ones_like(pos)
    off = np.zeros_like(pos)
    for _ in range(64):
        over = pos > b
        under = pos < a
        if not (over.any() or under.any()):
            break
        # y(t) = 2*y(edge) - y(2*edge - t), folded into the running transform
        off[over] += 2.0 * vb * sgn[over]
        sgn[over] = -sgn[over]
        pos[over] = 2.0 * b - pos[over]
        off[under] += 2.0 * va * sgn[under]
        sgn[under] = -sgn[under]
        pos[under] = 2.0 * a - pos[under]
    else:
        raise ValueError("deformed sample positions too far outside the reference domain")
    return off + sgn * np.interp(pos, wl, vals)


@dataclass
class DeformationDictionary:
    """Normalised deformed-reference dictionary plus its provenance."""

    dictionary: GroupedDictionary
    grid: DeformationGrid
    names: Tuple[str, ...]
    wavelengths: np.ndarray


def _deformed_samples(ref: ReferenceSpectrum, grid: DeformationGrid,
                      wavelengths: np.ndarray) -> np.ndarray:
    """``ref`` sampled under every deformation of ``grid``, one row per flat index.

    Row ``l*K + k`` samples the reference at
    ``(1 + slopes[k]) * lam + offsets[l]``, odd-reflected about its
    endpoints.  A deformation whose positions all leave the reference's
    domain raises :class:`DegenerateColumnError`.
    """
    t = ((1.0 + grid.slopes)[:, None] * wavelengths
         + grid.offsets[:, None, None]).reshape(grid.size, wavelengths.size)
    outside = np.all((t < ref.wavelengths[0]) | (t > ref.wavelengths[-1]), axis=1)
    if outside.any():
        slope, offset = grid.deformation(int(np.argmax(outside)))
        raise DegenerateColumnError(
            f"reference {ref.name!r}: deformation (slope={slope}, offset={offset}) "
            f"falls entirely outside its domain")
    return _sample_with_reflection(ref.wavelengths, ref.values, t)


def build_deformation_dictionary(refs: Sequence[ReferenceSpectrum], grid: DeformationGrid,
                                 wavelengths: np.ndarray) -> DeformationDictionary:
    """Expand each reference over the deformation grid and normalise columns.

    Column ``offsets[j] + l*K + k`` of the result samples reference j at
    ``(1 + slopes[k]) * lam + offsets_nm[l]``; samples falling outside a
    reference's domain are odd-reflected about its endpoints.  A column
    whose deformed positions all leave the domain raises
    :class:`DegenerateColumnError`.
    """
    wavelengths = np.asarray(wavelengths, dtype=float).ravel()
    per_group = grid.size
    # column-major, as GroupedDictionary keeps it; the column norms of
    # normalize_columns depend on the layout at rounding level
    cols = np.empty((wavelengths.size, len(refs) * per_group), order="F")
    for j, ref in enumerate(refs):
        cols[:, j * per_group:(j + 1) * per_group] = _deformed_samples(ref, grid, wavelengths).T
    offsets = np.arange(len(refs) + 1, dtype=np.int64) * per_group
    return DeformationDictionary(GroupedDictionary(normalize_columns(cols)[0], offsets), grid,
                                 tuple(r.name for r in refs), wavelengths)


def deformed_column(ref: ReferenceSpectrum, slope: float, offset: float,
                    wavelengths: np.ndarray) -> np.ndarray:
    """Sample one reference at ``(1 + slope) * lam + offset``.

    Accepts arbitrary (slope, offset) pairs, not just grid points, so data
    can be synthesised from deformations that fall between dictionary
    atoms.  Unit-normalised to match dictionary columns.
    """
    wavelengths = np.asarray(wavelengths, dtype=float).ravel()
    col = _deformed_samples(ref, DeformationGrid([slope], [offset]), wavelengths)[0]
    nrm = float(np.linalg.norm(col))
    if nrm == 0.0:
        raise DegenerateColumnError(
            f"reference {ref.name!r}: deformed column is identically zero")
    return col / nrm


def sample_planted_coeffs(ddict: DeformationDictionary, seed: int,
                          magnitude_means: Sequence[float] = (1.0, 0.1, 1.5),
                          group_cols: Optional[Sequence[int]] = None,
                          magnitudes: Optional[Sequence[float]] = None,
                          ) -> Tuple[np.ndarray, List[Tuple[int, int, float]]]:
    """Plant one active column per group.

    Columns are drawn uniformly per group unless ``group_cols`` gives the
    group-local flat indices; magnitudes default to
    ``mean * uniform(0.5, 1.5)``.  Returns the coefficient vector (on the
    normalised dictionary) and the planted (group, local column,
    magnitude) triples.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    dct = ddict.dictionary
    if len(magnitude_means) != dct.n_groups and magnitudes is None:
        raise ValueError(f"need {dct.n_groups} magnitude means")
    for name, values in (("magnitudes", magnitudes), ("group_cols", group_cols)):
        if values is not None and len(values) != dct.n_groups:
            raise ValueError(f"need {dct.n_groups} {name}, got {len(values)}")
    x = np.zeros(dct.n_columns)
    planted = []
    for j in range(dct.n_groups):
        size = int(dct.offsets[j + 1] - dct.offsets[j])
        local = int(group_cols[j]) if group_cols is not None else int(rng.integers(size))
        if not 0 <= local < size:
            raise ValueError(f"group {j}: column {local} out of range 0..{size - 1}")
        if magnitudes is not None:
            mag = float(magnitudes[j])
        else:
            mag = float(magnitude_means[j]) * float(rng.uniform(0.5, 1.5))
        x[int(dct.offsets[j]) + local] = mag
        planted.append((j, local, mag))
    return x, planted


def synthesize_doas_data(ddict: DeformationDictionary, x: np.ndarray,
                         noise_sd: float, seed: int,
                         background: Optional[np.ndarray] = None) -> np.ndarray:
    """Form data = dictionary @ x + background + Gaussian noise."""
    data = ddict.dictionary.entries @ x
    if background is not None:
        background = np.asarray(background, dtype=float).ravel()
        if background.size != data.size:
            raise ValueError(f"background must have {data.size} samples, got {background.size}")
        data = data + background
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    if noise_sd > 0:
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        data = data + rng.normal(0.0, noise_sd, data.size)
    return data


def quartic_background(wavelengths: np.ndarray, scale: float = 2.0) -> np.ndarray:
    """Smooth decaying background ``scale / (lam - 334)^4``."""
    wavelengths = np.asarray(wavelengths, dtype=float)
    return scale / (wavelengths - 334.0) ** 4


@dataclass(frozen=True)
class BackgroundOperator:
    """Roughness operator Q = W Gamma L penalising non-smooth backgrounds.

    L subtracts the line through the endpoints (so affine trends map to
    zero), Gamma is the orthonormal sine transform on the interior
    samples, and W scales frequency k by ``k**2``.
    """

    matrix: np.ndarray
    weights: np.ndarray

    def apply(self, background: np.ndarray) -> np.ndarray:
        """Apply Q factor by factor.

        Unlike ``matrix @ b``, this annihilates affine inputs exactly: the
        line subtraction cancels before any transform coefficients are
        rounded.
        """
        import scipy.fft  # on first use: a fit with alpha = 0 runs without SciPy

        b = np.asarray(background, dtype=float).ravel()
        w = self.matrix.shape[1]
        if b.size != w:
            raise ValueError(f"background must have {w} samples, got {b.size}")
        i = np.arange(1, w - 1, dtype=float)
        interior = (b[1:-1] - b[0]) - (b[-1] - b[0]) * i / (w - 1)
        return self.weights * scipy.fft.dst(interior, type=1, norm="ortho")


def build_background_operator(n_samples: int) -> BackgroundOperator:
    import scipy.fft  # on first use: a fit with alpha = 0 runs without SciPy

    if n_samples < 4:
        raise ValueError(f"need at least 4 samples, got {n_samples}")
    w = n_samples
    m = w - 2
    i = np.arange(1, w - 1, dtype=float)
    line_sub = np.zeros((m, w))
    line_sub[np.arange(m), np.arange(1, w - 1)] = 1.0
    line_sub[:, 0] = -(w - 1 - i) / (w - 1)
    line_sub[:, w - 1] = -i / (w - 1)
    sine = scipy.fft.dst(np.eye(m), type=1, norm="ortho", axis=0)
    weights = np.arange(1, m + 1, dtype=float) ** 2
    return BackgroundOperator((weights[:, None] * sine) @ line_sub, weights)


@dataclass
class GroupSelection:
    """Per-reference summary of a fit: dominant atom and its deformation."""

    group: int
    name: str
    magnitude: float
    slope: float
    offset: float
    support_size: int


@dataclass
class DoasFitConfig:
    """Solver choice and model weights for one fit.

    ``sparsity`` covers the reference groups.  With ``alpha > 0`` a smooth
    background with the roughness penalty ``alpha/2 |Q y|^2``
    (:func:`build_background_operator`) is fitted beside them: it is
    projected out in closed form (see the module docstring), so it is
    sign-free and unpenalised in every solver.  "hoyer_p1" and
    "diff_p2" solve their models exactly; ``admm`` is retired and ignored
    (see :class:`ssnnls.qp.AdmmParams`).  ``l1_tau`` is
    the residual radius of "l1" (:func:`ssnnls.baselines.l1_bregman`, an
    exact walk down the non-negative lasso path to the weight whose
    residual is ``l1_tau``, with no settings of its own); it must be
    finite and positive.
    """

    sparsity: SparsityConfig
    solver: str = "diff_p2"
    alpha: float = 0.0
    sgp: SgpParams = field(default_factory=SgpParams)
    admm: AdmmParams = field(default_factory=AdmmParams)
    pd: PdParams = field(default_factory=PdParams)
    pd_init: Union[str, np.ndarray] = "zero"
    l1_tau: Optional[float] = None
    lstsq_draws: int = 1000
    seed: int = 0


@dataclass
class DoasFitResult:
    """Fitted coefficients (normalised-column units), background, diagnostics."""

    coeffs: GroupedCoeffs
    background: Optional[np.ndarray]
    selections: List[GroupSelection]
    residual: np.ndarray
    report: Optional[SolveReport] = None


@functools.lru_cache(maxsize=4)
def _roughness_svd(w: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(lam, vt)``: the squared singular values of Q on w bands and its right singular vectors.

    ``vt`` holds the w - 2 rows of V' that span Q's row space; the affine
    backgrounds, Q's null space, are left out.  Read-only; the last four
    band counts' are kept.
    """
    _, sigma, vt = np.linalg.svd(build_background_operator(w).matrix, full_matrices=False)
    lam = sigma * sigma
    lam.flags.writeable = False
    vt.flags.writeable = False
    return lam, vt


def _background_reduction(w: int, alpha: float) -> np.ndarray:
    """R with R'R = I - (I + alpha Q'Q)^-1: the fit left once the background is projected out."""
    lam, vt = _roughness_svd(w)
    return np.sqrt(alpha * lam / (1.0 + alpha * lam))[:, None] * vt


def _lstsq_oracle(dct: GroupedDictionary, b: np.ndarray, cfg: DoasFitConfig) -> np.ndarray:
    """Average plain least-squares estimates over random one-atom-per-group draws.

    Each draw solves on one column of every group of ``dct``.  Returns the
    mean coefficients on ``dct``, zero off the drawn columns.
    """
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    offsets, sizes = dct.offsets, dct.group_sizes()
    total = np.zeros(dct.n_columns)
    for _ in range(cfg.lstsq_draws):
        picks = [int(offsets[j]) + int(rng.integers(sizes[j])) for j in range(dct.n_groups)]
        total[picks] += np.linalg.lstsq(dct.entries[:, picks], b, rcond=None)[0]
    return total / cfg.lstsq_draws


def fit_doas(data: np.ndarray, ddict: DeformationDictionary,
             cfg: DoasFitConfig) -> DoasFitResult:
    """Fit one spectrum with the configured solver.

    Solvers: "hoyer_p1" / "diff_p2" (structured-sparse models), "nnls"
    (plain non-negative fit), "l1" (least |x|_1 within radius ``l1_tau``),
    "pd" (one column per group, exactly), "lstsq" (averaged random-support
    least-squares gauge, no support estimate).  With ``alpha > 0`` each
    fits the reduced system R A x ~ R data of the module docstring, and
    the background follows from its x in closed form; with ``alpha == 0``
    each fits A x ~ data and ``background`` is None.
    """
    data = as_data_vector(data, ddict.wavelengths.size)
    if cfg.solver not in DOAS_SOLVERS:
        raise ConfigError(f"unknown solver {cfg.solver!r}; choose from {DOAS_SOLVERS}")
    if not 0 <= cfg.alpha < np.inf:
        raise ConfigError(f"alpha must be finite and non-negative, got {cfg.alpha}")
    if not isinstance(cfg.lstsq_draws, numbers.Integral) or cfg.lstsq_draws < 1:
        raise ConfigError(f"lstsq_draws must be a whole number of at least 1, "
                          f"got {cfg.lstsq_draws!r}")
    if cfg.solver == "l1":
        if cfg.l1_tau is None:
            raise ConfigError("the l1 solver needs l1_tau")
        l1_tau = l1_weight(cfg.l1_tau, "l1_tau", positive=True)
    dct = ddict.dictionary
    cfg.sparsity.validate(dct.n_groups)
    m = dct.n_groups
    if cfg.alpha > 0:
        reduction = _background_reduction(data.size, cfg.alpha)
        # (A'R')' is R A laid out column-major, as GroupedDictionary keeps it
        solved = GroupedDictionary((dct.entries.T @ reduction.T).T, dct.offsets)
        b = reduction @ data
    else:
        solved, b = dct, data

    report: Optional[SolveReport] = None
    if cfg.solver == "lstsq":
        x_fit = _lstsq_oracle(solved, b, cfg)
    elif cfg.solver == "nnls":
        x_fit = nnls(solved.entries, b)
    elif cfg.solver == "l1":
        x_fit = l1_bregman(solved, b, l1_tau)
    elif cfg.solver == "pd":
        x_fit = penalty_decomposition_l0(solved, b, cfg.sparsity, cfg.pd, cfg.pd_init)
    elif cfg.solver == "hoyer_p1":
        report = solve_problem1(solved, b, cfg.sparsity, cfg.sgp)
        x_fit = report.x
    else:  # diff_p2
        report = solve_problem2(solved, b, cfg.sparsity, cfg.sgp)
        x_fit = report.x

    fitted = support_matvec(dct.entries, x_fit)
    background = None
    if cfg.alpha > 0:
        # y = r - R'R r for r = data - A x, where R r = R data - (R A) x
        background = data - fitted - reduction.T @ (b - support_matvec(solved.entries, x_fit))

    if cfg.solver == "lstsq":
        # a gauge of the group magnitudes alone: no coefficients, no support
        mags = np.add.reduceat(x_fit, dct.offsets[:-1])
        selections = [GroupSelection(j, ddict.names[j], float(mags[j]),
                                     float("nan"), float("nan"), 0) for j in range(m)]
        x_fit, fitted = np.zeros(dct.n_columns), 0.0
    else:
        selections = []
        for j in range(m):
            seg = x_fit[dct.group_slice(j)]
            nz = int(np.sum(np.abs(seg) > ZERO_TOL))
            if nz:
                local = int(np.argmax(np.abs(seg)))
                slope, offset = ddict.grid.deformation(local)
                selections.append(GroupSelection(j, ddict.names[j], float(seg[local]),
                                                 slope, offset, nz))
            else:
                selections.append(GroupSelection(j, ddict.names[j], 0.0,
                                                 float("nan"), float("nan"), 0))
    resid = data - fitted - (background if background is not None else 0.0)
    return DoasFitResult(GroupedCoeffs(x_fit), background, selections, resid, report)
