"""Experiment driver: synthetic protocols and solver comparisons.

Experiments (``--experiment``):

* ``doas-align``: spectral fit against a misaligned deformation grid,
* ``doas-background``: the same plus a smooth background block,
* ``hsi-inter``: unmixing with a flat library and inter-column sparsity,
* ``hsi-structured``: grouped library with intra- and inter-group sparsity.

``--scale k`` shrinks the protocol sizes by roughly k for quick runs;
``--config`` merges a JSON file of knob overrides and run settings (CLI
flags win, but the file's run settings are checked all the same).  Exit
codes: 0 success, 2 bad configuration (a value not of its ``KINDS``
kind, one the protocols reject, such as a negative noise level, or a
knob the chosen experiment does not read), 3 when a solver fails to
converge, 4 I/O failure.  A solver that fails to converge is recorded
with the termination ``nonconvergence: <message>`` and the run goes on
to the next solver, so ``records.json`` still holds every solver's record.
"""

import argparse
import dataclasses
import json
import numbers
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .baselines import PD_STARTS, PdParams, l1_weight
from .core import ZERO_TOL, SparsityConfig
from .doas import (DOAS_SOLVERS, DeformationGrid, DoasFitConfig,
                   build_deformation_dictionary, deformed_column, quartic_background,
                   sample_planted_coeffs, synthesize_doas_data, synthesize_references,
                   fit_doas, wavelength_grid)
from .errors import ConfigError, DegenerateColumnError, NonConvergenceError
from .hsi import (HSI_SOLVERS, compute_metrics, demix_scene, synthesize_endmember_library,
                  synthesize_mixed_scene)
from .sgp import SgpParams

EXPERIMENTS = ("doas-align", "doas-background", "hsi-inter", "hsi-structured")

# termination of a solver that raised NonConvergenceError, before its message
NONCONVERGENCE = "nonconvergence"

# spellings are matched with case, "-" and "_" ignored
_ALIASES = {e.replace("-", ""): e for e in EXPERIMENTS}

# The knobs each protocol reads: a config file may override these and no others.
_DOAS_KNOBS = ("bands noise_sd tau_over_sqrt_w eps r tol_energy max_outer pd_rho0 pd_growth "
               "pd_init ")
_HSI_KNOBS = "bands counts noise_sd eps gamma0 r c_scale tol_energy l1_gamma "
KNOBS = {experiment: frozenset(knobs.split()) for experiment, knobs in {
    "doas-align": _DOAS_KNOBS + "magnitude_means jitter gamma_p1 gamma_p2 c_scale",
    "doas-background": _DOAS_KNOBS + "group_cols magnitudes bg_scale gamma alpha c_scale_p1 "
                                     "c_scale_p2 pd_tol_outer lstsq_draws",
    "hsi-inter": _HSI_KNOBS + "endmembers",
    "hsi-structured": _HSI_KNOBS + "group_size n_groups gamma",
}.items()}


def _whole(name: str, value) -> int:
    """``value`` as an int; anything but a whole number is a ConfigError naming ``name``."""
    if isinstance(value, float) and value.is_integer() or \
            isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def _finite(name: str, value) -> float:
    """``value`` as a float; anything but a finite number is a ConfigError naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and np.isfinite(value):
        return float(value)
    raise ConfigError(f"{name} must be finite and a number, got {value!r}")


def _string(name: str, value) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"{name} must be a string, got {value!r}")


def _list_of(kind):
    """The kind of a list whose every entry is of ``kind``."""
    def check(name: str, value) -> list:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        return [kind(name, v) for v in value]
    return check


def _pd_start(name: str, value):
    """One of ``PD_STARTS``, or a list of finite numbers."""
    if not isinstance(value, str):
        return _list_of(_finite)(name, value)
    if value not in PD_STARTS:
        raise ConfigError(f"{name} must be a list of numbers or one of {PD_STARTS}, got {value!r}")
    return value


# The kind of each knob, checked once when the ExperimentConfig is built;
# every knob not listed is a finite number.
KINDS = {
    **dict.fromkeys(("bands", "max_outer", "lstsq_draws", "endmembers", "group_size",
                     "n_groups"), _whole),
    **dict.fromkeys(("counts", "group_cols"), _list_of(_whole)),
    **dict.fromkeys(("magnitudes", "magnitude_means"), _list_of(_finite)),
    "pd_init": _pd_start,
}

# the config file's keys that are run settings rather than knobs
RUN_SETTINGS = ("experiment", "seed", "scale", "out", "solvers")


@dataclass
class ExperimentConfig:
    """One experiment invocation: protocol, solvers, seeds, output location.

    Every value is checked by its kind (``KINDS``) on construction, before
    any data is synthesised; ``overrides`` keeps the values as given.
    """

    experiment: str
    seed: int = 0
    scale: int = 1
    out: Optional[str] = None
    solvers: Optional[List[str]] = None
    overrides: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.seed, self.scale = _whole("seed", self.seed), _whole("scale", self.scale)
        if self.out is not None:
            self.out = _string("out", self.out)
        if self.solvers is not None:
            self.solvers = _list_of(_string)("solvers", self.solvers)
        canon = _ALIASES.get(_string("experiment", self.experiment).strip().lower()
                             .replace("-", "").replace("_", ""))
        if canon is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENTS}")
        self.experiment = canon
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        unknown = sorted(set(self.overrides) - KNOBS[canon])
        if unknown:
            raise ConfigError(f"{canon} reads no knob {', '.join(map(repr, unknown))}; "
                              f"its knobs are {', '.join(sorted(KNOBS[canon]))}")
        self._values = {k: KINDS.get(k, _finite)(k, v) for k, v in self.overrides.items()}

    def knob(self, name, default):
        """Knob ``name``'s checked value, or ``default`` when the config file sets none."""
        if name not in KNOBS[self.experiment]:
            raise KeyError(f"{name!r} is missing from the {self.experiment} knob table")
        return self._values.get(name, default)


@dataclass
class RunRecord:
    """Outcome of one (experiment, solver) run, JSON-serialisable.

    ``overrides`` echoes the config file's knobs; with ``seed`` and
    ``scale`` they reproduce the run.
    """

    experiment: str
    solver: str
    seed: int
    scale: int
    runtime_s: float
    metrics: Dict
    params: Dict = field(default_factory=dict)
    overrides: Dict = field(default_factory=dict)
    termination: Optional[str] = None
    outer_iters: Optional[int] = None

    def to_json(self) -> Dict:
        """The record in plain JSON types: numpy arrays and scalars become lists and numbers."""
        return json.loads(json.dumps(dataclasses.asdict(self), default=lambda obj: obj.tolist()))


def _seeds(cfg: ExperimentConfig, n: int) -> List[int]:
    ss = np.random.SeedSequence(cfg.seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


# ---------------------------------------------------------------------------
# DOAS experiments
# ---------------------------------------------------------------------------


def _doas_protocol(cfg: ExperimentConfig):
    w = cfg.knob("bands", max(64, 1024 // cfg.scale))
    wl = wavelength_grid(w)
    grid = DeformationGrid.full_grid() if cfg.scale == 1 and w >= 1024 \
        else DeformationGrid.desk_grid()
    seed_refs, seed_plant, seed_noise, seed_jitter = _seeds(cfg, 4)
    refs = synthesize_references(wl, seed=seed_refs)
    try:
        ddict = build_deformation_dictionary(refs, grid, wl)
    except DegenerateColumnError as exc:
        raise ConfigError(f"{w} bands span less than the deformation grid shifts ({exc}); "
                          f"raise bands or lower --scale") from exc
    return wl, refs, ddict, seed_plant, seed_noise, seed_jitter


def _selection_metrics(result, planted_info, ddict):
    hits = 0
    rows = []
    for sel, (g, local, mag) in zip(result.selections, planted_info):
        true_slope, true_offset = ddict.grid.deformation(local)
        hit = np.isfinite(sel.slope) and sel.slope == true_slope and sel.offset == true_offset
        hits += bool(hit)
        rows.append({
            "group": g, "name": sel.name, "magnitude": sel.magnitude,
            "true_magnitude": mag, "slope": sel.slope, "offset": sel.offset,
            "true_slope": true_slope, "true_offset": true_offset,
            "support_size": sel.support_size, "hit": bool(hit),
        })
    nnz = int(np.sum(np.abs(result.coeffs.x) > ZERO_TOL))
    return {
        "groups": rows,
        "support_hits": hits,
        "nnz": nnz,
        "residual_norm": float(np.linalg.norm(result.residual)),
    }


def _solvers(cfg: ExperimentConfig, default, known) -> List[str]:
    """``--solver``'s choices (``default`` without any), each checked against ``known``."""
    solvers = cfg.solvers or list(default)
    for solver in solvers:
        if solver not in known:
            raise ConfigError(f"unknown solver {solver!r}; choose from {known}")
    return solvers


def _record(cfg: ExperimentConfig, solver: str, runtime_s: float, metrics: Dict,
            params: Dict, **outcome) -> RunRecord:
    """One solver's record, echoing ``cfg``'s seed, scale and overrides."""
    return RunRecord(cfg.experiment, solver, cfg.seed, cfg.scale, runtime_s, metrics,
                     params=dict(params), overrides=dict(cfg.overrides), **outcome)


def _doas_records(cfg: ExperimentConfig, data, ddict, info, solvers, fit_config,
                  background=None) -> List[RunRecord]:
    """Fit ``data`` once per solver; ``fit_config(solver)`` gives (DoasFitConfig, params).

    A solver that raises :class:`NonConvergenceError` gets a failed record.
    """
    runs = [(solver, *fit_config(solver)) for solver in _solvers(cfg, solvers, DOAS_SOLVERS)]
    n = ddict.dictionary.n_columns
    for _, fit_cfg, _ in runs:  # every solver's settings are checked before the first fit
        fit_cfg.sparsity.validate(ddict.dictionary.n_groups)
        if not isinstance(fit_cfg.pd_init, str) and len(fit_cfg.pd_init) != n:
            raise ConfigError(f"pd_init must hold one value per column ({n}), "
                              f"got {len(fit_cfg.pd_init)}")
        l1_weight(fit_cfg.l1_tau, "tau = tau_over_sqrt_w * sqrt(bands)", positive=True)
    records = []
    for solver, fit_cfg, params in runs:
        t0 = time.perf_counter()
        try:
            result = fit_doas(data, ddict, fit_cfg)
        except NonConvergenceError as exc:
            records.append(_record(cfg, solver, time.perf_counter() - t0, {}, params,
                                   termination=f"{NONCONVERGENCE}: {exc}"))
            continue
        rt = time.perf_counter() - t0
        metrics = _selection_metrics(result, info, ddict)
        if background is not None and result.background is not None:
            err = result.background - background
            metrics["background_rel_err"] = float(
                np.linalg.norm(err) / np.linalg.norm(background))
        records.append(_record(
            cfg, solver, rt, metrics, params,
            termination=result.report.termination if result.report else None,
            outer_iters=result.report.outer_iters if result.report else None))
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            np.savetxt(os.path.join(cfg.out, f"coeffs_{solver}.csv"),
                       result.coeffs.x, delimiter=",", header="coefficient")
            if result.background is not None:
                np.savetxt(os.path.join(cfg.out, f"background_{solver}.csv"),
                           result.background, delimiter=",", header="background")
    return records


def run_doas_align(cfg: ExperimentConfig) -> List[RunRecord]:
    wl, refs, ddict, seed_plant, seed_noise, seed_jitter = _doas_protocol(cfg)
    noise_sd = cfg.knob("noise_sd", 0.005)
    _, info = sample_planted_coeffs(ddict, seed_plant,
                                    magnitude_means=cfg.knob("magnitude_means", (1.0, 0.1, 1.5)))
    # Sub-grid misalignment: the true offset sits jitter*step away from the
    # planted atom's, so no exact nonnegative combination of columns
    # reproduces the data even at noise 0.  The shift stays well under the
    # structure period, keeping the planted atom the best correlate.
    jitter = cfg.knob("jitter", 0.25)
    if jitter < 0:
        raise ConfigError(f"jitter must be non-negative, got {jitter}")
    if noise_sd < 0:
        raise ValueError(f"noise_sd must be non-negative, got {noise_sd}")
    rng = np.random.default_rng(np.random.SeedSequence(seed_jitter))
    step_q = float(ddict.grid.offsets[1] - ddict.grid.offsets[0]) \
        if ddict.grid.offsets.size > 1 else 0.1
    data = np.zeros(wl.size)
    for g, local, mag in info:
        p, q = ddict.grid.deformation(local)
        q += jitter * step_q * float(rng.uniform(-1.0, 1.0))
        data = data + mag * deformed_column(refs[g], p, q, wl)
    if noise_sd > 0:
        noise_rng = np.random.default_rng(np.random.SeedSequence(seed_noise))
        data = data + noise_rng.normal(0.0, noise_sd, data.size)
    tau = cfg.knob("tau_over_sqrt_w", max(noise_sd, 1e-3)) * np.sqrt(wl.size)
    m = ddict.dictionary.n_groups
    eps = cfg.knob("eps", 0.05)

    def fit_config(solver):
        gamma = cfg.knob("gamma_p1", 0.1) if solver == "hoyer_p1" else cfg.knob("gamma_p2", 0.05)
        sparsity = SparsityConfig(gamma=np.full(m, gamma), gamma0=0.0,
                                  eps=np.full(m, eps), r=cfg.knob("r", 1.0))
        fit_cfg = DoasFitConfig(
            sparsity=sparsity, solver=solver,
            sgp=SgpParams(c_matrix_scale=cfg.knob("c_scale", 1e-9),
                          tol_energy=cfg.knob("tol_energy", 1e-8),
                          max_outer=cfg.knob("max_outer", 500)),
            pd=PdParams(rho0=cfg.knob("pd_rho0", 0.05), growth=cfg.knob("pd_growth", 1.2)),
            pd_init=cfg.knob("pd_init", "nnls"), l1_tau=tau, seed=cfg.seed)
        return fit_cfg, {"noise_sd": noise_sd, "gamma": gamma, "eps": eps, "tau": tau,
                         "jitter": jitter, "bands": wl.size,
                         "grid": [ddict.grid.slopes.size, ddict.grid.offsets.size]}

    return _doas_records(cfg, data, ddict, info, ("nnls", "l1", "pd", "hoyer_p1", "diff_p2"),
                         fit_config)


def run_doas_background(cfg: ExperimentConfig) -> List[RunRecord]:
    wl, _refs, ddict, seed_plant, seed_noise, _ = _doas_protocol(cfg)
    noise_sd = cfg.knob("noise_sd", 5.58e-5)
    full_grid = ddict.grid.size == 441
    x_true, info = sample_planted_coeffs(
        ddict, seed_plant, magnitudes=cfg.knob("magnitudes", (0.01206, 0.00112, 0.01589)),
        group_cols=cfg.knob("group_cols", [179, 240, 220] if full_grid else None))
    background = quartic_background(wl, scale=cfg.knob("bg_scale", 2.0))
    data = synthesize_doas_data(ddict, x_true, noise_sd, seed_noise, background=background)
    tau = cfg.knob("tau_over_sqrt_w", max(noise_sd, 1e-6)) * np.sqrt(wl.size)
    m = ddict.dictionary.n_groups
    eps = cfg.knob("eps", 0.001)
    gamma = cfg.knob("gamma", 0.001)
    alpha = cfg.knob("alpha", 1e-5)

    def fit_config(solver):
        c_scale = cfg.knob("c_scale_p1", 1e-4) if solver == "hoyer_p1" \
            else cfg.knob("c_scale_p2", 1e-7)
        sparsity = SparsityConfig(gamma=np.full(m, gamma), gamma0=0.0,
                                  eps=np.full(m, eps), r=cfg.knob("r", 1.0))
        fit_cfg = DoasFitConfig(
            sparsity=sparsity, solver=solver, alpha=alpha,
            sgp=SgpParams(c_matrix_scale=c_scale, tol_energy=cfg.knob("tol_energy", 5e-9),
                          max_outer=cfg.knob("max_outer", 500)),
            pd=PdParams(rho0=cfg.knob("pd_rho0", 1e-6), growth=cfg.knob("pd_growth", 1.1),
                        tol_outer=cfg.knob("pd_tol_outer", 1e-6)),
            pd_init=cfg.knob("pd_init", "zero"), l1_tau=tau,
            lstsq_draws=cfg.knob("lstsq_draws", 200), seed=cfg.seed)
        return fit_cfg, {"noise_sd": noise_sd, "gamma": gamma, "eps": eps, "alpha": alpha,
                         "tau": tau, "bands": wl.size, "c_scale": c_scale}

    return _doas_records(cfg, data, ddict, info,
                         ("nnls", "l1", "pd", "lstsq", "hoyer_p1", "diff_p2"), fit_config,
                         background)


# ---------------------------------------------------------------------------
# HSI experiments
# ---------------------------------------------------------------------------


def _hsi_records(cfg: ExperimentConfig, scene, params, sparsity, sgp,
                 l1_gamma) -> List[RunRecord]:
    """Demix ``scene`` once per solver, every run with the same settings and ``params``.

    A solver that raises :class:`NonConvergenceError` gets a failed record.
    """
    l1_weight(l1_gamma, "l1_gamma")  # checked before the first fit
    records = []
    for solver in _solvers(cfg, ("nnls", "l1", "hoyer_p1", "diff_p2"), HSI_SOLVERS):
        t0 = time.perf_counter()
        try:
            result = demix_scene(scene, sparsity, solver=solver, sgp=sgp, l1_gamma=l1_gamma)
        except NonConvergenceError as exc:
            records.append(_record(cfg, solver, time.perf_counter() - t0, {}, params,
                                   termination=f"{NONCONVERGENCE}: {exc}"))
            continue
        rt = time.perf_counter() - t0
        rep = compute_metrics(result.values, scene.dictionary.offsets, scene.truth)
        misfit = scene.dictionary.entries @ result.values - scene.pixels
        metrics = {
            "fraction_nonzero": rep.fraction_nonzero,
            "group_one_sparse_fraction": rep.group_one_sparse_fraction,
            "sse": rep.sse,
            "fit_sse": float(np.sum(misfit * misfit)),
            "support_mismatch": rep.support_mismatch,
            "group_mae": None if rep.group_mae is None else rep.group_mae.tolist(),
            "failed_pixels": len(result.failed_pixels),
        }
        if result.outer_iters is not None:
            ok = np.delete(result.outer_iters, [p for p, _ in result.failed_pixels])
            if ok.size:
                metrics["outer_iters_min"] = int(ok.min())
                metrics["outer_iters_max"] = int(ok.max())
        records.append(_record(cfg, solver, rt, metrics, params))
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            np.savetxt(os.path.join(cfg.out, f"abundance_{solver}.csv"),
                       result.values, delimiter=",")
    return records


def _mixture_counts(cfg: ExperimentConfig, full_counts) -> List[int]:
    counts = cfg.knob("counts", [c // cfg.scale for c in full_counts])
    if sum(counts) == 0:
        raise ConfigError(f"scale {cfg.scale} leaves no pixels; pass explicit counts")
    return counts


def run_hsi_inter(cfg: ExperimentConfig) -> List[RunRecord]:
    bands = cfg.knob("bands", 204)
    n_members = cfg.knob("endmembers", 6)
    counts = _mixture_counts(cfg, (960, 480))
    seed_lib, seed_scene = _seeds(cfg, 2)
    library, scales = synthesize_endmember_library(bands, [1] * n_members, seed_lib,
                                                   within_spread=0.0)
    noise_sd = cfg.knob("noise_sd", 0.005)
    scene = synthesize_mixed_scene(library, scales, counts, noise_sd, seed_scene)
    eps = cfg.knob("eps", 0.01)
    gamma0 = cfg.knob("gamma0", 0.01)
    m = library.n_groups
    sparsity = SparsityConfig(gamma=np.zeros(m), gamma0=gamma0, eps=np.full(m, eps),
                              r=cfg.knob("r", 1.0))
    sgp = SgpParams(c_matrix_scale=cfg.knob("c_scale", 1e-9),
                    tol_energy=cfg.knob("tol_energy", 1e-3))
    l1_gamma = cfg.knob("l1_gamma", 0.1)
    return _hsi_records(cfg, scene, {"noise_sd": noise_sd, "gamma0": gamma0, "eps": eps,
                                     "counts": counts}, sparsity, sgp, l1_gamma)


def run_hsi_structured(cfg: ExperimentConfig) -> List[RunRecord]:
    bands = cfg.knob("bands", 204)
    group_size = cfg.knob("group_size", max(4, 100 // cfg.scale))
    n_groups = cfg.knob("n_groups", 4)
    counts = _mixture_counts(cfg, (1000, 500, 50, 10))
    seed_lib, seed_scene = _seeds(cfg, 2)
    library, scales = synthesize_endmember_library(bands, [group_size] * n_groups, seed_lib)
    noise_sd = cfg.knob("noise_sd", 0.005)
    scene = synthesize_mixed_scene(library, scales, counts, noise_sd, seed_scene)
    eps = cfg.knob("eps", 0.01)
    gamma = cfg.knob("gamma", 1e-4)
    gamma0 = cfg.knob("gamma0", 0.01)
    sparsity = SparsityConfig(gamma=np.full(n_groups, gamma), gamma0=gamma0,
                              eps=np.full(n_groups, eps), r=cfg.knob("r", 1.0))
    sgp = SgpParams(c_matrix_scale=cfg.knob("c_scale", 1e-9),
                    tol_energy=cfg.knob("tol_energy", 1e-5))
    # weight picked so the plain l1 model lands near the structured solvers'
    # sparsity level, which is what makes its fit error comparable
    l1_gamma = cfg.knob("l1_gamma", 0.1)
    return _hsi_records(cfg, scene, {"noise_sd": noise_sd, "gamma": gamma, "gamma0": gamma0,
                                     "eps": eps, "counts": counts, "group_size": group_size},
                        sparsity, sgp, l1_gamma)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

_RUNNERS = {
    "doas-align": run_doas_align,
    "doas-background": run_doas_background,
    "hsi-inter": run_hsi_inter,
    "hsi-structured": run_hsi_structured,
}


def run_experiment(cfg: ExperimentConfig) -> List[RunRecord]:
    """Run one experiment for every configured solver; returns the records."""
    records = _RUNNERS[cfg.experiment](cfg)
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        with open(os.path.join(cfg.out, "records.json"), "w") as fh:
            json.dump([r.to_json() for r in records], fh, indent=2)
    return records


def compare_solvers(records: List[RunRecord]) -> str:
    """Fixed-width table of the headline metrics, one row per record."""
    keys = []
    for rec in records:
        for k, v in rec.metrics.items():
            if isinstance(v, (int, float)) and v is not None and k not in keys:
                keys.append(k)
    keys = keys[:6]
    header = ["solver", "runtime_s"] + keys + ["outer_iters", "termination"]
    rows = [header]
    for rec in records:
        row = [rec.solver, f"{rec.runtime_s:.3f}"]
        row += [f"{v:.4g}" if isinstance(v, float) else str(v)
                for v in (rec.metrics.get(k, "") for k in keys)]
        row += [str(rec.outer_iters if rec.outer_iters is not None else "-"),
                rec.termination or "-"]
        rows.append(row)
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
             for row in rows]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssnnls",
        description="Structured-sparse non-negative demixing experiments.")
    parser.add_argument("--experiment", required=True,
                        help=f"one of {', '.join(EXPERIMENTS)} (aliases like DoasAlign work)")
    parser.add_argument("--config", help="JSON file of knob overrides")
    parser.add_argument("--solver", action="append", dest="solvers", metavar="NAME",
                        help="restrict to this solver (repeatable)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", help="directory for records.json and CSV outputs")
    parser.add_argument("--scale", type=int, default=None,
                        help="shrink protocol sizes by this factor (default 1)")
    return parser


def config_from_args(args) -> ExperimentConfig:
    file_cfg: Dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: top level must be a JSON object")
    settings = {k: file_cfg[k] for k in RUN_SETTINGS if k in file_cfg}
    flags = {k: v for k, v in vars(args).items() if k in RUN_SETTINGS and v is not None}
    cfg = ExperimentConfig(**{**settings, **flags},
                           overrides={k: v for k, v in file_cfg.items() if k not in RUN_SETTINGS})
    # the file's run settings are checked by kind, also those a flag replaces
    if ExperimentConfig(**{**flags, **settings}).experiment != cfg.experiment:
        raise ConfigError(f"{args.config}: experiment {settings['experiment']!r} is not "
                          f"--experiment {args.experiment!r}")
    return cfg


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        records = run_experiment(cfg)
        print(compare_solvers(records))
        failed = [r for r in records if (r.termination or "").startswith(NONCONVERGENCE)]
        for rec in failed:
            message = rec.termination.partition(": ")[2]
            print(f"solver failed to converge: {rec.solver}: {message}", file=sys.stderr)
        return 3 if failed else 0
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
