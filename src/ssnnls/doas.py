"""Spectral fitting with wavelength misalignment and background estimation.

The measured optical depth is modelled as a non-negative combination of
deformed reference spectra plus a smooth background:

    J(lam) = sum_j a_j y_j((1 + p) lam + q) + B(lam) + noise

Each reference is expanded into a group of columns, one per (slope p,
offset q) grid point, so misalignment becomes a structured-sparsity
problem: pick (at most) one deformation per reference.  The background
is handled by stacking a roughness operator underneath the system and
leaving the background block sign-free and unpenalised.
"""

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.fft

from .baselines import PdParams, l1_bregman, l1_weight, nnls, penalty_decomposition_l0
from .core import (GroupedCoeffs, GroupedDictionary, SparsityConfig, as_data_vector,
                   normalize_columns, support_matvec)
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


def write_reference_csv(path: str, ref: ReferenceSpectrum) -> None:
    """Two-column CSV (wavelength, value) with the name in a # comment."""
    with open(path, "w") as fh:
        fh.write(f"# name={ref.name}\n")
        fh.write("# wavelength,value\n")
        for wl, v in zip(ref.wavelengths, ref.values):
            fh.write(f"{float(wl)!r},{float(v)!r}\n")


def read_reference_csv(path: str) -> ReferenceSpectrum:
    """Read a two-column CSV; # lines are comments, `# name=` sets the name."""
    name = os.path.splitext(os.path.basename(path))[0]
    wl, vals = [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("name="):
                    name = body[len("name="):].strip()
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns, got {len(parts)}")
            wl.append(float(parts[0]))
            vals.append(float(parts[1]))
    return ReferenceSpectrum(name, np.array(wl), np.array(vals))


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
    scales: np.ndarray
    grid: DeformationGrid
    names: Tuple[str, ...]
    wavelengths: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.dictionary.n_groups


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
    n_samples = wavelengths.size
    per_group = grid.size
    cols = np.empty((n_samples, len(refs) * per_group))
    for j, ref in enumerate(refs):
        lo, hi = ref.wavelengths[0], ref.wavelengths[-1]
        for ell, q in enumerate(grid.offsets):
            for k, p in enumerate(grid.slopes):
                t = (1.0 + p) * wavelengths + q
                if np.all((t < lo) | (t > hi)):
                    raise DegenerateColumnError(
                        f"reference {ref.name!r}: deformation (slope={p}, offset={q}) "
                        f"falls entirely outside its domain")
                cols[:, j * per_group + grid.flat_index(k, ell)] = \
                    _sample_with_reflection(ref.wavelengths, ref.values, t)
    normalized, scales = normalize_columns(cols)
    offsets = np.arange(len(refs) + 1, dtype=np.int64) * per_group
    return DeformationDictionary(GroupedDictionary(normalized, offsets), scales, grid,
                                 tuple(r.name for r in refs), wavelengths)


def deformed_column(ref: ReferenceSpectrum, slope: float, offset: float,
                    wavelengths: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Sample one reference at ``(1 + slope) * lam + offset``.

    Accepts arbitrary (slope, offset) pairs, not just grid points, so data
    can be synthesised from deformations that fall between dictionary
    atoms.  Unit-normalised by default to match dictionary columns.
    """
    wavelengths = np.asarray(wavelengths, dtype=float).ravel()
    t = (1.0 + slope) * wavelengths + offset
    if np.all((t < ref.wavelengths[0]) | (t > ref.wavelengths[-1])):
        raise DegenerateColumnError(
            f"reference {ref.name!r}: deformation (slope={slope}, offset={offset}) "
            f"falls entirely outside its domain")
    col = _sample_with_reflection(ref.wavelengths, ref.values, t)
    if normalize:
        nrm = float(np.linalg.norm(col))
        if nrm == 0.0:
            raise DegenerateColumnError(
                f"reference {ref.name!r}: deformed column is identically zero")
        col = col / nrm
    return col


def save_dictionary(path_csv: str, ddict: DeformationDictionary) -> None:
    """Write the dictionary matrix as CSV plus a JSON sidecar of metadata."""
    header = ",".join(
        f"g{j}_f{i}" for j in range(ddict.n_groups)
        for i in range(int(ddict.dictionary.offsets[j + 1] - ddict.dictionary.offsets[j])))
    np.savetxt(path_csv, ddict.dictionary.entries, delimiter=",", header=header)
    meta = {
        "offsets": ddict.dictionary.offsets.tolist(),
        "scales": ddict.scales.tolist(),
        "slopes": ddict.grid.slopes.tolist(),
        "grid_offsets": ddict.grid.offsets.tolist(),
        "names": list(ddict.names),
        "wavelengths": ddict.wavelengths.tolist(),
    }
    with open(path_csv + ".json", "w") as fh:
        json.dump(meta, fh)


def load_dictionary(path_csv: str) -> DeformationDictionary:
    entries = np.loadtxt(path_csv, delimiter=",", ndmin=2)
    with open(path_csv + ".json") as fh:
        meta = json.load(fh)
    return DeformationDictionary(
        GroupedDictionary(entries, np.asarray(meta["offsets"], dtype=np.int64)),
        np.asarray(meta["scales"], dtype=float),
        DeformationGrid(np.asarray(meta["slopes"]), np.asarray(meta["grid_offsets"])),
        tuple(meta["names"]),
        np.asarray(meta["wavelengths"], dtype=float))


def sample_planted_coeffs(ddict: DeformationDictionary, seed: int,
                          magnitude_means: Sequence[float] = (1.0, 0.1, 1.5),
                          group_cols: Optional[Sequence[int]] = None,
                          magnitudes: Optional[Sequence[float]] = None,
                          ) -> Tuple[GroupedCoeffs, List[Tuple[int, int, float]]]:
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
    return GroupedCoeffs(x), planted


def synthesize_doas_data(ddict: DeformationDictionary, planted: GroupedCoeffs,
                         noise_sd: float, seed: int,
                         background: Optional[np.ndarray] = None) -> np.ndarray:
    """Form data = dictionary @ planted + background + Gaussian noise."""
    data = ddict.dictionary.entries @ planted.x
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


def quartic_background(wavelengths: np.ndarray, scale: float = 2.0,
                       pole: float = 334.0) -> np.ndarray:
    """Smooth decaying background ``scale / (lam - pole)^4``."""
    wavelengths = np.asarray(wavelengths, dtype=float)
    return scale / (wavelengths - pole) ** 4


@dataclass(frozen=True)
class BackgroundOperator:
    """Roughness operator Q = W Gamma L penalising non-smooth backgrounds.

    L subtracts the line through the endpoints (so affine trends map to
    zero), Gamma is the orthonormal sine transform on the interior
    samples, and W scales frequency k by ``k**exponent``.
    """

    matrix: np.ndarray
    exponent: float
    weights: np.ndarray

    def apply(self, background: np.ndarray) -> np.ndarray:
        """Apply Q factor by factor.

        Unlike ``matrix @ b``, this annihilates affine inputs exactly: the
        line subtraction cancels before any transform coefficients are
        rounded.
        """
        b = np.asarray(background, dtype=float).ravel()
        w = self.matrix.shape[1]
        if b.size != w:
            raise ValueError(f"background must have {w} samples, got {b.size}")
        i = np.arange(1, w - 1, dtype=float)
        interior = (b[1:-1] - b[0]) - (b[-1] - b[0]) * i / (w - 1)
        return self.weights * scipy.fft.dst(interior, type=1, norm="ortho")


def build_background_operator(n_samples: int, exponent: float = 2.0) -> BackgroundOperator:
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
    weights = np.arange(1, m + 1, dtype=float) ** exponent
    return BackgroundOperator((weights[:, None] * sine) @ line_sub, exponent, weights)


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

    ``sparsity`` covers the reference groups only; when ``alpha > 0`` the
    background block is appended internally as a trailing sign-free
    group, which requires ``sparsity.gamma0 == 0``.  "hoyer_p1" and
    "diff_p2" solve their models exactly; ``admm`` is retired and ignored
    (see :class:`ssnnls.qp.AdmmParams`).  ``l1_tau`` is
    the residual radius of "l1" (:func:`ssnnls.baselines.l1_bregman`, a
    search on the penalty weight with one exact NNLS per step and no
    settings of its own); it must be finite and positive.
    """

    sparsity: SparsityConfig
    solver: str = "diff_p2"
    alpha: float = 0.0
    background_exponent: float = 2.0
    sgp: SgpParams = field(default_factory=SgpParams)
    admm: AdmmParams = field(default_factory=AdmmParams)
    pd: PdParams = field(default_factory=PdParams)
    pd_init: Union[str, np.ndarray] = "zero"
    l1_tau: Optional[float] = None
    lstsq_draws: int = 1000
    seed: int = 0
    zero_tol: float = 1e-6


@dataclass
class DoasFitResult:
    """Fitted coefficients (normalised-column units), background, diagnostics.

    ``coeffs_raw`` rescales to the units of the unnormalised deformed
    references (divide by the stored column scales).
    """

    coeffs: GroupedCoeffs
    coeffs_raw: GroupedCoeffs
    background: Optional[np.ndarray]
    selections: List[GroupSelection]
    residual: np.ndarray
    report: Optional[SolveReport] = None


def _stacked_system(ddict: DeformationDictionary, data: np.ndarray, cfg: DoasFitConfig):
    a = ddict.dictionary.entries
    w, n = a.shape
    bg_op = build_background_operator(w, cfg.background_exponent)
    top = np.hstack([a, np.eye(w)])
    bot = np.hstack([np.zeros((w - 2, n)), np.sqrt(cfg.alpha) * bg_op.matrix])
    stacked, st_scales = normalize_columns(np.vstack([top, bot]))
    offsets = np.append(ddict.dictionary.offsets, n + w).astype(np.int64)
    sdict = GroupedDictionary(stacked, offsets)
    m = ddict.n_groups
    scfg = dataclasses.replace(
        cfg.sparsity,
        gamma=np.append(cfg.sparsity.gamma, 0.0),
        eps=np.append(cfg.sparsity.eps, 1.0),
        free_groups=(m,))
    b_st = np.concatenate([data, np.zeros(w - 2)])
    return sdict, scfg, b_st, st_scales


def _lstsq_oracle(ddict: DeformationDictionary, data: np.ndarray, cfg: DoasFitConfig):
    """Average plain least-squares estimates over random one-atom-per-group draws."""
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    a = ddict.dictionary.entries
    w, _ = a.shape
    m = ddict.n_groups
    sizes = ddict.dictionary.group_sizes()
    if cfg.alpha > 0:
        bg_op = build_background_operator(w, cfg.background_exponent)
        bot_bg = np.sqrt(cfg.alpha) * bg_op.matrix
        rhs = np.concatenate([data, np.zeros(w - 2)])
    else:
        rhs = data
    mags = np.zeros(m)
    bg = np.zeros(w)
    for _ in range(cfg.lstsq_draws):
        picks = [int(ddict.dictionary.offsets[j]) + int(rng.integers(sizes[j])) for j in range(m)]
        cols = a[:, picks]
        if cfg.alpha > 0:
            design = np.vstack([np.hstack([cols, np.eye(w)]),
                                np.hstack([np.zeros((w - 2, m)), bot_bg])])
        else:
            design = cols
        sol = np.linalg.lstsq(design, rhs, rcond=None)[0]
        mags += sol[:m]
        if cfg.alpha > 0:
            bg += sol[m:]
    mags /= cfg.lstsq_draws
    bg = bg / cfg.lstsq_draws if cfg.alpha > 0 else None
    return mags, bg


def fit_doas(data: np.ndarray, ddict: DeformationDictionary,
             cfg: DoasFitConfig) -> DoasFitResult:
    """Fit one spectrum with the configured solver.

    Solvers: "hoyer_p1" / "diff_p2" (structured-sparse models), "nnls"
    (plain non-negative fit; with ``alpha > 0`` the background is forced
    non-negative too), "l1" (least |x|_1 within radius ``l1_tau``), "pd"
    (one column per group, exactly), "lstsq" (averaged random-support
    least-squares gauge, no support estimate).
    """
    data = as_data_vector(data, ddict.wavelengths.size)
    if cfg.solver not in DOAS_SOLVERS:
        raise ConfigError(f"unknown solver {cfg.solver!r}; choose from {DOAS_SOLVERS}")
    if cfg.alpha < 0:
        raise ConfigError(f"alpha must be non-negative, got {cfg.alpha}")
    if cfg.lstsq_draws < 1:
        raise ConfigError(f"lstsq_draws must be at least 1, got {cfg.lstsq_draws}")
    if cfg.solver == "l1":
        if cfg.l1_tau is None:
            raise ConfigError("the l1 solver needs l1_tau")
        l1_tau = l1_weight(cfg.l1_tau, "l1_tau", positive=True)
    dct = ddict.dictionary
    cfg.sparsity.validate(dct.n_groups)
    n = dct.n_columns
    m = ddict.n_groups

    if cfg.solver == "lstsq":
        mags, bg = _lstsq_oracle(ddict, data, cfg)
        x = np.zeros(n)
        selections = [GroupSelection(j, ddict.names[j], float(mags[j]),
                                     float("nan"), float("nan"), 0) for j in range(m)]
        resid = data - (bg if bg is not None else 0.0)
        return DoasFitResult(GroupedCoeffs(x), GroupedCoeffs(x / ddict.scales), bg,
                             selections, resid, None)

    if cfg.alpha > 0:
        sdict, scfg, b_st, st_scales = _stacked_system(ddict, data, cfg)
    else:
        sdict, scfg, b_st, st_scales = dct, cfg.sparsity, data, np.ones(n)

    report: Optional[SolveReport] = None
    if cfg.solver == "nnls":
        x_full = nnls(sdict.entries, b_st)
    elif cfg.solver == "l1":
        x_full = l1_bregman(sdict, b_st, l1_tau)
    elif cfg.solver == "pd":
        x_full = penalty_decomposition_l0(sdict, b_st, scfg, cfg.pd, cfg.pd_init).x
    elif cfg.solver == "hoyer_p1":
        report = solve_problem1(sdict, b_st, scfg, cfg.sgp)
        x_full = report.final.x
    else:  # diff_p2
        report = solve_problem2(sdict, b_st, scfg, cfg.sgp)
        x_full = report.final.x

    x = x_full[:n]
    background = x_full[n:] / st_scales[n:] if cfg.alpha > 0 else None

    selections = []
    for j in range(m):
        sl = dct.group_slice(j)
        seg = x[sl]
        nz = int(np.sum(np.abs(seg) > cfg.zero_tol))
        if nz:
            local = int(np.argmax(np.abs(seg)))
            slope, offset = ddict.grid.deformation(local)
            selections.append(GroupSelection(j, ddict.names[j], float(seg[local]),
                                             slope, offset, nz))
        else:
            selections.append(GroupSelection(j, ddict.names[j], 0.0,
                                             float("nan"), float("nan"), 0))
    fitted = support_matvec(dct.entries, x)
    resid = data - fitted - (background if background is not None else 0.0)
    return DoasFitResult(GroupedCoeffs(x.copy()), GroupedCoeffs(x / ddict.scales),
                         background, selections, resid, report)
