"""Experiment driver: synthetic protocols and solver comparisons.

Experiments (``--experiment``):

* ``doas-align``: spectral fit against a misaligned deformation grid,
* ``doas-background``: the same plus a smooth background block,
* ``hsi-inter``: unmixing with a flat library and inter-column sparsity,
* ``hsi-structured``: grouped library with intra- and inter-group sparsity.

``--scale k`` shrinks the protocol sizes by roughly k for quick runs;
``--config`` merges a JSON file of knob overrides (CLI flags win).  Exit
codes: 0 success, 2 bad configuration (including knob values the
protocols reject, such as a negative noise level), 3 solver
non-convergence, 4 I/O failure.
"""

import argparse
import dataclasses
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from .baselines import PdParams
from .core import SparsityConfig
from .doas import (DOAS_SOLVERS, DeformationGrid, DoasFitConfig, build_deformation_dictionary,
                   deformed_column, quartic_background, sample_planted_coeffs,
                   synthesize_doas_data, synthesize_references, fit_doas, wavelength_grid)
from .errors import ConfigError, NonConvergenceError
from .hsi import (HSI_SOLVERS, compute_metrics, demix_scene, resolve_threads,
                  synthesize_endmember_library, synthesize_mixed_scene)
from .sgp import SgpParams

EXPERIMENTS = ("doas-align", "doas-background", "hsi-inter", "hsi-structured")

_EXPERIMENT_ALIASES = {
    "doasalign": "doas-align",
    "doas_align": "doas-align",
    "doasbackground": "doas-background",
    "doas_background": "doas-background",
    "hsiinter": "hsi-inter",
    "hsi_inter": "hsi-inter",
    "hsistructured": "hsi-structured",
    "hsi_structured": "hsi-structured",
}


@dataclass
class ExperimentConfig:
    """One experiment invocation: protocol, solvers, seeds, output location."""

    experiment: str
    seed: int = 0
    scale: int = 1
    out: Optional[str] = None
    solvers: Optional[List[str]] = None
    threads: int = 1
    overrides: Dict = field(default_factory=dict)

    def __post_init__(self):
        key = self.experiment.strip().lower().replace("-", "").replace("_", "")
        canon = _EXPERIMENT_ALIASES.get(key) or _EXPERIMENT_ALIASES.get(
            self.experiment.strip().lower())
        if canon is None:
            raise ConfigError(f"unknown experiment {self.experiment!r}; "
                              f"choose from {EXPERIMENTS}")
        self.experiment = canon
        if self.scale < 1:
            raise ConfigError(f"scale must be >= 1, got {self.scale}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def knob(self, name, default):
        return self.overrides.get(name, default)


@dataclass
class RunRecord:
    """Outcome of one (experiment, solver) run, JSON-serialisable."""

    experiment: str
    solver: str
    seed: int
    scale: int
    runtime_s: float
    metrics: Dict
    params: Dict = field(default_factory=dict)
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
    w = int(cfg.knob("bands", max(64, 1024 // cfg.scale)))
    wl = wavelength_grid(w)
    grid = DeformationGrid.full_grid() if cfg.scale == 1 and w >= 1024 \
        else DeformationGrid.desk_grid()
    seed_refs, seed_plant, seed_noise, seed_jitter = _seeds(cfg, 4)
    refs = synthesize_references(wl, seed=seed_refs)
    ddict = build_deformation_dictionary(refs, grid, wl)
    return wl, refs, ddict, seed_plant, seed_noise, seed_jitter


def _selection_metrics(result, planted_info, ddict, zero_tol=1e-6):
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
    nnz = int(np.sum(np.abs(result.coeffs.x) > zero_tol))
    return {
        "groups": rows,
        "support_hits": hits,
        "nnz": nnz,
        "residual_norm": float(np.linalg.norm(result.residual)),
    }


def run_doas_align(cfg: ExperimentConfig) -> List[RunRecord]:
    wl, refs, ddict, seed_plant, seed_noise, seed_jitter = _doas_protocol(cfg)
    noise_sd = float(cfg.knob("noise_sd", 0.005))
    planted, info = sample_planted_coeffs(ddict, seed_plant,
                                          magnitude_means=tuple(cfg.knob(
                                              "magnitude_means", (1.0, 0.1, 1.5))))
    # Sub-grid misalignment: the true offset sits jitter*step away from the
    # planted atom's, so no exact nonnegative combination of columns
    # reproduces the data even at noise 0.  The shift stays well under the
    # structure period, keeping the planted atom the best correlate.
    jitter = float(cfg.knob("jitter", 0.25))
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
        data = synthesize_doas_data(ddict, planted, noise_sd, seed_noise)
    tau = float(cfg.knob("tau_over_sqrt_w", max(noise_sd, 1e-3))) * np.sqrt(wl.size)
    m = ddict.n_groups
    eps = float(cfg.knob("eps", 0.05))
    records = []
    for solver in cfg.solvers or ["nnls", "l1", "pd", "hoyer_p1", "diff_p2"]:
        if solver not in DOAS_SOLVERS:
            raise ConfigError(f"unknown solver {solver!r}; choose from {DOAS_SOLVERS}")
        gamma = float(cfg.knob("gamma_p1", 0.1)) if solver == "hoyer_p1" \
            else float(cfg.knob("gamma_p2", 0.05))
        sparsity = SparsityConfig(gamma=np.full(m, gamma), gamma0=0.0,
                                  eps=np.full(m, eps), r=float(cfg.knob("r", 1.0)))
        fit_cfg = DoasFitConfig(
            sparsity=sparsity, solver=solver,
            sgp=SgpParams(c_matrix_scale=float(cfg.knob("c_scale", 1e-9)),
                          tol_energy=float(cfg.knob("tol_energy", 1e-8)),
                          max_outer=int(cfg.knob("max_outer", 500))),
            pd=PdParams(rho0=float(cfg.knob("pd_rho0", 0.05)),
                        growth=float(cfg.knob("pd_growth", 1.2))),
            pd_init=cfg.knob("pd_init", "nnls"),
            l1_tau=tau, seed=cfg.seed)
        t0 = time.perf_counter()
        result = fit_doas(data, ddict, fit_cfg)
        rt = time.perf_counter() - t0
        metrics = _selection_metrics(result, info, ddict)
        records.append(RunRecord(
            cfg.experiment, solver, cfg.seed, cfg.scale, rt, metrics,
            params={"noise_sd": noise_sd, "gamma": gamma, "eps": eps, "tau": tau,
                    "jitter": jitter, "bands": wl.size,
                    "grid": [ddict.grid.slopes.size, ddict.grid.offsets.size]},
            termination=result.report.termination if result.report else None,
            outer_iters=result.report.outer_iters if result.report else None))
        _write_doas_outputs(cfg, solver, result)
    return records


def run_doas_background(cfg: ExperimentConfig) -> List[RunRecord]:
    wl, _refs, ddict, seed_plant, seed_noise, _ = _doas_protocol(cfg)
    noise_sd = float(cfg.knob("noise_sd", 5.58e-5))
    full_grid = ddict.grid.size == 441
    group_cols = cfg.knob("group_cols", [179, 240, 220] if full_grid else None)
    magnitudes = tuple(cfg.knob("magnitudes", (0.01206, 0.00112, 0.01589)))
    planted, info = sample_planted_coeffs(ddict, seed_plant, group_cols=group_cols,
                                          magnitudes=magnitudes)
    background = quartic_background(wl, scale=float(cfg.knob("bg_scale", 2.0)))
    data = synthesize_doas_data(ddict, planted, noise_sd, seed_noise, background=background)
    tau = float(cfg.knob("tau_over_sqrt_w", max(noise_sd, 1e-6))) * np.sqrt(wl.size)
    m = ddict.n_groups
    eps = float(cfg.knob("eps", 0.001))
    gamma = float(cfg.knob("gamma", 0.001))
    alpha = float(cfg.knob("alpha", 1e-5))
    records = []
    for solver in cfg.solvers or ["nnls", "l1", "pd", "lstsq", "hoyer_p1", "diff_p2"]:
        if solver not in DOAS_SOLVERS:
            raise ConfigError(f"unknown solver {solver!r}; choose from {DOAS_SOLVERS}")
        c_scale = float(cfg.knob("c_scale_p1", 1e-4)) if solver == "hoyer_p1" \
            else float(cfg.knob("c_scale_p2", 1e-7))
        sparsity = SparsityConfig(gamma=np.full(m, gamma), gamma0=0.0,
                                  eps=np.full(m, eps), r=float(cfg.knob("r", 1.0)))
        fit_cfg = DoasFitConfig(
            sparsity=sparsity, solver=solver, alpha=alpha,
            sgp=SgpParams(c_matrix_scale=c_scale,
                          tol_energy=float(cfg.knob("tol_energy", 5e-9)),
                          max_outer=int(cfg.knob("max_outer", 500))),
            pd=PdParams(rho0=float(cfg.knob("pd_rho0", 1e-6)),
                        growth=float(cfg.knob("pd_growth", 1.1)),
                        tol_outer=float(cfg.knob("pd_tol_outer", 1e-6))),
            pd_init=cfg.knob("pd_init", "zero"),
            l1_tau=tau, lstsq_draws=int(cfg.knob("lstsq_draws", 200)), seed=cfg.seed)
        t0 = time.perf_counter()
        result = fit_doas(data, ddict, fit_cfg)
        rt = time.perf_counter() - t0
        metrics = _selection_metrics(result, info, ddict)
        if result.background is not None:
            err = result.background - background
            metrics["background_rel_err"] = float(
                np.linalg.norm(err) / np.linalg.norm(background))
        records.append(RunRecord(
            cfg.experiment, solver, cfg.seed, cfg.scale, rt, metrics,
            params={"noise_sd": noise_sd, "gamma": gamma, "eps": eps, "alpha": alpha,
                    "tau": tau, "bands": wl.size, "c_scale": c_scale},
            termination=result.report.termination if result.report else None,
            outer_iters=result.report.outer_iters if result.report else None))
        _write_doas_outputs(cfg, solver, result)
    return records


def _write_doas_outputs(cfg: ExperimentConfig, solver: str, result) -> None:
    if not cfg.out:
        return
    os.makedirs(cfg.out, exist_ok=True)
    np.savetxt(os.path.join(cfg.out, f"coeffs_{solver}.csv"),
               result.coeffs.x, delimiter=",", header="coefficient")
    if result.background is not None:
        np.savetxt(os.path.join(cfg.out, f"background_{solver}.csv"),
                   result.background, delimiter=",", header="background")


# ---------------------------------------------------------------------------
# HSI experiments
# ---------------------------------------------------------------------------


def _hsi_records(cfg: ExperimentConfig, scene, solver_specs) -> List[RunRecord]:
    records = []
    for solver, kwargs, params in solver_specs:
        t0 = time.perf_counter()
        result = demix_scene(scene, threads=cfg.threads, solver=solver, **kwargs)
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
        records.append(RunRecord(cfg.experiment, solver, cfg.seed, cfg.scale,
                                 rt, metrics, params=params))
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            np.savetxt(os.path.join(cfg.out, f"abundance_{solver}.csv"),
                       result.values, delimiter=",")
    return records


def _mixture_counts(cfg: ExperimentConfig, full_counts) -> List[int]:
    counts = cfg.knob("counts", None)
    if counts is None:
        counts = [c // cfg.scale for c in full_counts]
    counts = [int(c) for c in counts]
    if sum(counts) == 0:
        raise ConfigError(f"scale {cfg.scale} leaves no pixels; pass explicit counts")
    return counts


def run_hsi_inter(cfg: ExperimentConfig) -> List[RunRecord]:
    bands = int(cfg.knob("bands", 204))
    n_members = int(cfg.knob("endmembers", 6))
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
    specs = []
    for solver in cfg.solvers or ["nnls", "l1", "hoyer_p1", "diff_p2"]:
        if solver not in HSI_SOLVERS:
            raise ConfigError(f"unknown solver {solver!r}; choose from {HSI_SOLVERS}")
        kwargs = {"cfg": sparsity, "sgp": sgp, "l1_gamma": l1_gamma}
        specs.append((solver, kwargs, {"noise_sd": noise_sd, "gamma0": gamma0,
                                       "eps": eps, "counts": counts}))
    return _hsi_records(cfg, scene, specs)


def run_hsi_structured(cfg: ExperimentConfig) -> List[RunRecord]:
    bands = int(cfg.knob("bands", 204))
    group_size = int(cfg.knob("group_size", max(4, 100 // cfg.scale)))
    n_groups = int(cfg.knob("n_groups", 4))
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
    specs = []
    for solver in cfg.solvers or ["nnls", "l1", "hoyer_p1", "diff_p2"]:
        if solver not in HSI_SOLVERS:
            raise ConfigError(f"unknown solver {solver!r}; choose from {HSI_SOLVERS}")
        kwargs = {"cfg": sparsity, "sgp": sgp, "l1_gamma": l1_gamma}
        specs.append((solver, kwargs, {"noise_sd": noise_sd, "gamma": gamma,
                                       "gamma0": gamma0, "eps": eps, "counts": counts,
                                       "group_size": group_size}))
    return _hsi_records(cfg, scene, specs)


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
    parser.add_argument("--threads", type=int, default=None,
                        help="worker threads for per-pixel solves (default 1; "
                             "0 = all cores; capped by SSNNLS_MAX_THREADS)")
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
    known = {"experiment", "seed", "scale", "out", "solvers", "threads"}
    overrides = {k: v for k, v in file_cfg.items() if k not in known}
    merged = {
        "experiment": args.experiment or file_cfg.get("experiment"),
        "seed": args.seed if args.seed is not None else int(file_cfg.get("seed", 0)),
        "scale": args.scale if args.scale is not None else int(file_cfg.get("scale", 1)),
        "out": args.out or file_cfg.get("out"),
        "solvers": args.solvers or file_cfg.get("solvers"),
        "threads": args.threads if args.threads is not None
        else int(file_cfg.get("threads", 1)),
        "overrides": overrides,
    }
    if merged["solvers"] is not None and not isinstance(merged["solvers"], list):
        raise ConfigError("solvers must be a list")
    return ExperimentConfig(**merged)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
        resolve_threads(cfg.threads)  # validate the env cap early
        records = run_experiment(cfg)
        print(compare_solvers(records))
        return 0
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NonConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
