"""Experiment driver: synthetic protocols and solver comparisons.

Experiments (``--experiment``):

* ``doas-align``: spectral fit against a misaligned deformation grid,
* ``doas-background``: the same plus a smooth background block,
* ``hsi-inter``: unmixing with a flat library and inter-column sparsity,
* ``hsi-structured``: grouped library with intra- and inter-group sparsity.

``--scale k`` shrinks the protocol sizes by roughly k for quick runs;
``--config`` merges a JSON file of knob overrides (CLI flags win).  Exit
codes: 0 success, 2 bad configuration (including knob values the
protocols reject, such as a negative noise level, and knobs the chosen
experiment does not read), 3 when a solver fails to converge, 4 I/O
failure.  A solver that fails to converge is recorded with the
termination ``nonconvergence: <message>`` and the run goes on to the next
solver, so ``records.json`` still holds every solver's record.
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

from .baselines import PdParams
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


@dataclass
class ExperimentConfig:
    """One experiment invocation: protocol, solvers, seeds, output location."""

    experiment: str
    seed: int = 0
    scale: int = 1
    out: Optional[str] = None
    solvers: Optional[List[str]] = None
    overrides: Dict = field(default_factory=dict)

    def __post_init__(self):
        canon = _ALIASES.get(self.experiment.strip().lower().replace("-", "").replace("_", ""))
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

    def knob(self, name, default):
        if name not in KNOBS[self.experiment]:
            raise KeyError(f"{name!r} is missing from the {self.experiment} knob table")
        return self.overrides.get(name, default)


def _whole(name: str, value) -> int:
    """``value`` as an int; anything but a whole number is a ConfigError naming ``name``."""
    if isinstance(value, numbers.Integral) or (isinstance(value, float) and value.is_integer()):
        return int(value)
    raise ConfigError(f"{name} must be a whole number, got {value!r}")


def _listed(name: str, value) -> list:
    """``value`` as a list; anything but a list is a ConfigError naming ``name``."""
    if isinstance(value, (list, tuple)):
        return list(value)
    raise ConfigError(f"{name} must be a list, got {value!r}")


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
        def clean(obj):
            if isinstance(obj, dict):
                return {k: clean(v) for k, v in obj.items()}
            if isinstance(obj, (list, tuple)):
                return [clean(v) for v in obj]
            if isinstance(obj, np.ndarray):
                return obj.tolist()
            if isinstance(obj, (np.floating, np.integer)):
                return obj.item()
            return obj
        return clean(dataclasses.asdict(self))


def _seeds(cfg: ExperimentConfig, n: int) -> List[int]:
    ss = np.random.SeedSequence(cfg.seed)
    return [int(s.generate_state(1)[0]) for s in ss.spawn(n)]


# ---------------------------------------------------------------------------
# DOAS experiments
# ---------------------------------------------------------------------------


def _doas_protocol(cfg: ExperimentConfig):
    w = _whole("bands", cfg.knob("bands", max(64, 1024 // cfg.scale)))
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


def _pd_init(value):
    """``pd_init``: a start name, passed on, or a list of numbers as a vector.

    Anything else is a ConfigError naming ``pd_init``.
    """
    if isinstance(value, str):
        return value
    if isinstance(value, list) and all(isinstance(v, numbers.Real) for v in value):
        return np.array(value, dtype=float)
    raise ConfigError(f"pd_init must be a start name or a list of numbers, got {value!r}")


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
    records = []
    for solver in _solvers(cfg, solvers, DOAS_SOLVERS):
        fit_cfg, params = fit_config(solver)
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
    noise_sd = float(cfg.knob("noise_sd", 0.005))
    means = _listed("magnitude_means", cfg.knob("magnitude_means", (1.0, 0.1, 1.5)))
    x_true, info = sample_planted_coeffs(ddict, seed_plant, magnitude_means=means)
    # Sub-grid misalignment: the true offset sits jitter*step away from the
    # planted atom's, so no exact nonnegative combination of columns
    # reproduces the data even at noise 0.  The shift stays well under the
    # structure period, keeping the planted atom the best correlate.
    jitter = float(cfg.knob("jitter", 0.25))
    if not 0.0 <= jitter < np.inf:
        raise ConfigError(f"jitter must be finite and non-negative, got {jitter}")
    if jitter > 0.0:
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
    else:
        data = synthesize_doas_data(ddict, x_true, noise_sd, seed_noise)
    tau = float(cfg.knob("tau_over_sqrt_w", max(noise_sd, 1e-3))) * np.sqrt(wl.size)
    m = ddict.dictionary.n_groups
    eps = float(cfg.knob("eps", 0.05))

    def fit_config(solver):
        gamma = float(cfg.knob("gamma_p1", 0.1)) if solver == "hoyer_p1" \
            else float(cfg.knob("gamma_p2", 0.05))
        sparsity = SparsityConfig(gamma=np.full(m, gamma), gamma0=0.0,
                                  eps=np.full(m, eps), r=float(cfg.knob("r", 1.0)))
        fit_cfg = DoasFitConfig(
            sparsity=sparsity, solver=solver,
            sgp=SgpParams(c_matrix_scale=float(cfg.knob("c_scale", 1e-9)),
                          tol_energy=float(cfg.knob("tol_energy", 1e-8)),
                          max_outer=_whole("max_outer", cfg.knob("max_outer", 500))),
            pd=PdParams(rho0=float(cfg.knob("pd_rho0", 0.05)),
                        growth=float(cfg.knob("pd_growth", 1.2))),
            pd_init=_pd_init(cfg.knob("pd_init", "nnls")),
            l1_tau=tau, seed=cfg.seed)
        return fit_cfg, {"noise_sd": noise_sd, "gamma": gamma, "eps": eps, "tau": tau,
                         "jitter": jitter, "bands": wl.size,
                         "grid": [ddict.grid.slopes.size, ddict.grid.offsets.size]}

    return _doas_records(cfg, data, ddict, info, ("nnls", "l1", "pd", "hoyer_p1", "diff_p2"),
                         fit_config)


def run_doas_background(cfg: ExperimentConfig) -> List[RunRecord]:
    wl, _refs, ddict, seed_plant, seed_noise, _ = _doas_protocol(cfg)
    noise_sd = float(cfg.knob("noise_sd", 5.58e-5))
    full_grid = ddict.grid.size == 441
    group_cols = cfg.knob("group_cols", [179, 240, 220] if full_grid else None)
    if group_cols is not None:
        group_cols = [_whole("group_cols", c) for c in _listed("group_cols", group_cols)]
    magnitudes = _listed("magnitudes", cfg.knob("magnitudes", (0.01206, 0.00112, 0.01589)))
    x_true, info = sample_planted_coeffs(ddict, seed_plant, group_cols=group_cols,
                                         magnitudes=magnitudes)
    background = quartic_background(wl, scale=float(cfg.knob("bg_scale", 2.0)))
    data = synthesize_doas_data(ddict, x_true, noise_sd, seed_noise, background=background)
    tau = float(cfg.knob("tau_over_sqrt_w", max(noise_sd, 1e-6))) * np.sqrt(wl.size)
    m = ddict.dictionary.n_groups
    eps = float(cfg.knob("eps", 0.001))
    gamma = float(cfg.knob("gamma", 0.001))
    alpha = float(cfg.knob("alpha", 1e-5))

    def fit_config(solver):
        c_scale = float(cfg.knob("c_scale_p1", 1e-4)) if solver == "hoyer_p1" \
            else float(cfg.knob("c_scale_p2", 1e-7))
        sparsity = SparsityConfig(gamma=np.full(m, gamma), gamma0=0.0,
                                  eps=np.full(m, eps), r=float(cfg.knob("r", 1.0)))
        fit_cfg = DoasFitConfig(
            sparsity=sparsity, solver=solver, alpha=alpha,
            sgp=SgpParams(c_matrix_scale=c_scale,
                          tol_energy=float(cfg.knob("tol_energy", 5e-9)),
                          max_outer=_whole("max_outer", cfg.knob("max_outer", 500))),
            pd=PdParams(rho0=float(cfg.knob("pd_rho0", 1e-6)),
                        growth=float(cfg.knob("pd_growth", 1.1)),
                        tol_outer=float(cfg.knob("pd_tol_outer", 1e-6))),
            pd_init=_pd_init(cfg.knob("pd_init", "zero")),
            l1_tau=tau, lstsq_draws=_whole("lstsq_draws", cfg.knob("lstsq_draws", 200)),
            seed=cfg.seed)
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
            ok = np.ones(result.outer_iters.size, dtype=bool)
            for p, _ in result.failed_pixels:
                ok[p] = False
            if ok.any():
                metrics["outer_iters_min"] = int(result.outer_iters[ok].min())
                metrics["outer_iters_max"] = int(result.outer_iters[ok].max())
        records.append(_record(cfg, solver, rt, metrics, params))
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            np.savetxt(os.path.join(cfg.out, f"abundance_{solver}.csv"),
                       result.values, delimiter=",")
    return records


def _mixture_counts(cfg: ExperimentConfig, full_counts) -> List[int]:
    counts = cfg.knob("counts", None)
    if counts is None:
        counts = [c // cfg.scale for c in full_counts]
    counts = [_whole("counts", c) for c in _listed("counts", counts)]
    if sum(counts) == 0:
        raise ConfigError(f"scale {cfg.scale} leaves no pixels; pass explicit counts")
    return counts


def run_hsi_inter(cfg: ExperimentConfig) -> List[RunRecord]:
    bands = _whole("bands", cfg.knob("bands", 204))
    n_members = _whole("endmembers", cfg.knob("endmembers", 6))
    counts = _mixture_counts(cfg, (960, 480))
    seed_lib, seed_scene = _seeds(cfg, 2)
    library, scales = synthesize_endmember_library(bands, [1] * n_members, seed_lib,
                                                   within_spread=0.0)
    noise_sd = float(cfg.knob("noise_sd", 0.005))
    scene = synthesize_mixed_scene(library, scales, counts, noise_sd, seed_scene)
    eps = float(cfg.knob("eps", 0.01))
    gamma0 = float(cfg.knob("gamma0", 0.01))
    m = library.n_groups
    sparsity = SparsityConfig(gamma=np.zeros(m), gamma0=gamma0, eps=np.full(m, eps),
                              r=float(cfg.knob("r", 1.0)))
    sgp = SgpParams(c_matrix_scale=float(cfg.knob("c_scale", 1e-9)),
                    tol_energy=float(cfg.knob("tol_energy", 1e-3)))
    l1_gamma = float(cfg.knob("l1_gamma", 0.1))
    return _hsi_records(cfg, scene, {"noise_sd": noise_sd, "gamma0": gamma0, "eps": eps,
                                     "counts": counts}, sparsity, sgp, l1_gamma)


def run_hsi_structured(cfg: ExperimentConfig) -> List[RunRecord]:
    bands = _whole("bands", cfg.knob("bands", 204))
    group_size = _whole("group_size", cfg.knob("group_size", max(4, 100 // cfg.scale)))
    n_groups = _whole("n_groups", cfg.knob("n_groups", 4))
    counts = _mixture_counts(cfg, (1000, 500, 50, 10))
    seed_lib, seed_scene = _seeds(cfg, 2)
    library, scales = synthesize_endmember_library(bands, [group_size] * n_groups, seed_lib)
    noise_sd = float(cfg.knob("noise_sd", 0.005))
    scene = synthesize_mixed_scene(library, scales, counts, noise_sd, seed_scene)
    eps = float(cfg.knob("eps", 0.01))
    gamma = float(cfg.knob("gamma", 1e-4))
    gamma0 = float(cfg.knob("gamma0", 0.01))
    sparsity = SparsityConfig(gamma=np.full(n_groups, gamma), gamma0=gamma0,
                              eps=np.full(n_groups, eps), r=float(cfg.knob("r", 1.0)))
    sgp = SgpParams(c_matrix_scale=float(cfg.knob("c_scale", 1e-9)),
                    tol_energy=float(cfg.knob("tol_energy", 1e-5)))
    # weight picked so the plain l1 model lands near the structured solvers'
    # sparsity level, which is what makes its fit error comparable
    l1_gamma = float(cfg.knob("l1_gamma", 0.1))
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


def _format_value(v) -> str:
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


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
        row += [_format_value(rec.metrics.get(k, "")) for k in keys]
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


def _reject_constant(name: str):
    raise ConfigError(f"non-finite value {name} in the config file")


def config_from_args(args) -> ExperimentConfig:
    file_cfg: Dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh, parse_constant=_reject_constant)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: invalid JSON ({exc})") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError(f"{args.config}: top level must be a JSON object")
    known = {"experiment", "seed", "scale", "out", "solvers"}
    overrides = {k: v for k, v in file_cfg.items() if k not in known}
    merged = {
        "experiment": args.experiment or file_cfg.get("experiment"),
        "seed": _whole("seed", args.seed if args.seed is not None else file_cfg.get("seed", 0)),
        "scale": _whole("scale",
                        args.scale if args.scale is not None else file_cfg.get("scale", 1)),
        "out": args.out or file_cfg.get("out"),
        "solvers": args.solvers or file_cfg.get("solvers"),
        "overrides": overrides,
    }
    if merged["solvers"] is not None and not isinstance(merged["solvers"], list):
        raise ConfigError("solvers must be a list")
    return ExperimentConfig(**merged)


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
