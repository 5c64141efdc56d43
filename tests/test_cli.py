"""Experiment driver: config merging, records, the table, and exit codes."""

import inspect
import json
import os

import numpy as np
import pytest

from ssnnls import qp
from ssnnls.cli import (EXPERIMENTS, ExperimentConfig, RunRecord, _mixture_counts, _seeds,
                        build_parser, compare_solvers, config_from_args, main,
                        run_doas_align, run_experiment)
from ssnnls.errors import ConfigError
from ssnnls.hsi import demix_scene, resolve_threads


def test_experiment_aliases_and_validation():
    assert ExperimentConfig("DoasAlign").experiment == "doas-align"
    assert ExperimentConfig("doas_background").experiment == "doas-background"
    assert ExperimentConfig("HSI-Structured").experiment == "hsi-structured"
    assert ExperimentConfig(" hsi_inter ").experiment == "hsi-inter"
    with pytest.raises(ConfigError):
        ExperimentConfig("doas")
    with pytest.raises(ConfigError):
        ExperimentConfig("bench")
    with pytest.raises(ConfigError):
        ExperimentConfig("hsi-inter", scale=0)
    with pytest.raises(ConfigError):
        ExperimentConfig("hsi-inter", seed=-1)
    cfg = ExperimentConfig("hsi-inter", overrides={"noise_sd": 0.0})
    assert cfg.knob("noise_sd", 0.005) == 0.0
    assert cfg.knob("eps", 0.01) == 0.01


def test_run_record_to_json_cleans_numpy_types():
    rec = RunRecord("doas-align", "s", 0, 1, np.float64(0.5),
                    metrics={"a": np.float64(1.5), "b": np.int64(3),
                             "c": np.arange(3), "d": {"e": [np.float64(0.25)]}},
                    params={"f": np.int32(7)})
    payload = rec.to_json()
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["metrics"] == {"a": 1.5, "b": 3, "c": [0, 1, 2], "d": {"e": [0.25]}}
    assert back["params"] == {"f": 7}


def test_seeds_deterministic_and_seed_dependent():
    cfg = ExperimentConfig("hsi-inter", seed=5)
    assert _seeds(cfg, 4) == _seeds(cfg, 4)
    assert _seeds(cfg, 4) != _seeds(ExperimentConfig("hsi-inter", seed=6), 4)


def test_mixture_counts_scaling_and_override():
    assert _mixture_counts(ExperimentConfig("hsi-structured", scale=10),
                           (1000, 500, 50, 10)) == [100, 50, 5, 1]
    cfg = ExperimentConfig("hsi-structured", scale=10, overrides={"counts": [4, 2]})
    assert _mixture_counts(cfg, (1000, 500)) == [4, 2]
    with pytest.raises(ConfigError):
        _mixture_counts(ExperimentConfig("hsi-structured", scale=100), (10, 20, 30))


def test_config_from_args_merging(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiment": "hsi-inter", "seed": 7, "scale": 2,
                                "solvers": ["nnls"], "noise_sd": 0.25, "max_outer": 4}))
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(
        ["--experiment", "doas-align", "--config", str(path), "--seed", "11"]))
    assert cfg.experiment == "doas-align"  # CLI wins over the file
    assert cfg.seed == 11
    assert cfg.scale == 2  # from the file
    assert cfg.solvers == ["nnls"]
    assert cfg.overrides == {"noise_sd": 0.25, "max_outer": 4}

    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        config_from_args(parser.parse_args(["--experiment", "doas-align",
                                            "--config", str(bad)]))
    listy = tmp_path / "list.json"
    listy.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        config_from_args(parser.parse_args(["--experiment", "doas-align",
                                            "--config", str(listy)]))
    scalar = tmp_path / "scalar.json"
    scalar.write_text(json.dumps({"solvers": "nnls"}))
    with pytest.raises(ConfigError):
        config_from_args(parser.parse_args(["--experiment", "doas-align",
                                            "--config", str(scalar)]))


def test_compare_solvers_table_layout():
    records = [
        RunRecord("doas-align", "nnls", 0, 1, 0.25, {"support_hits": 2, "nnz": 11}),
        RunRecord("doas-align", "diff_p2", 0, 1, 1.5, {"support_hits": 3, "nnz": 3},
                  termination="energy_tol", outer_iters=6),
    ]
    table = compare_solvers(records)
    lines = table.splitlines()
    assert len(lines) == 4  # header, rule, two rows
    assert lines[0].startswith("solver")
    assert "support_hits" in lines[0] and "termination" in lines[0]
    assert lines[2].startswith("nnls") and lines[2].rstrip().endswith("-")
    assert "energy_tol" in lines[3] and "6" in lines[3]


def desk_align_cfg(**kw):
    over = {"noise_sd": 0.0}
    over.update(kw.pop("overrides", {}))
    return ExperimentConfig("doas-align", seed=0, scale=4, solvers=kw.pop("solvers", ["nnls"]),
                            overrides=over, **kw)


def test_run_experiment_writes_records_and_outputs(tmp_path):
    out = str(tmp_path / "run")
    cfg = desk_align_cfg(out=out)
    records = run_experiment(cfg)
    assert [r.solver for r in records] == ["nnls"]
    rec = records[0]
    assert rec.params["bands"] == 256
    assert rec.params["noise_sd"] == 0.0
    assert rec.params["grid"] == [5, 5]
    assert {"support_hits", "nnz", "residual_norm"} <= set(rec.metrics)
    assert rec.runtime_s > 0
    with open(os.path.join(out, "records.json")) as fh:
        stored = json.load(fh)
    assert len(stored) == 1 and stored[0]["solver"] == "nnls"
    assert os.path.exists(os.path.join(out, "coeffs_nnls.csv"))


def test_doas_align_runs_are_deterministic():
    first = run_doas_align(desk_align_cfg())
    second = run_doas_align(desk_align_cfg())
    assert first[0].metrics == second[0].metrics
    assert first[0].params == second[0].params


def desk_align_argv(tmp_path, out):
    cfg = tmp_path / "align.json"
    cfg.write_text(json.dumps({"noise_sd": 0.0}))
    return ["--experiment", "doas-align", "--scale", "4", "--seed", "0", "--solver", "nnls",
            "--config", str(cfg), "--out", out]


def test_main_success_doas_align(tmp_path, capsys):
    out = str(tmp_path / "align_out")
    assert main(desk_align_argv(tmp_path, out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("solver") and "support_hits" in lines[0]
    assert len(lines) == 3 and lines[2].startswith("nnls")
    with open(os.path.join(out, "records.json")) as fh:
        stored = json.load(fh)
    assert len(stored) == 1
    assert stored[0]["experiment"] == "doas-align" and stored[0]["solver"] == "nnls"
    assert stored[0]["params"]["noise_sd"] == 0.0
    assert {"support_hits", "nnz", "residual_norm"} <= set(stored[0]["metrics"])


def test_main_config_error(capsys):
    assert main(["--experiment", "warp-drive"]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert main(["--experiment", "bench"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


@pytest.mark.parametrize("experiment, knobs", [
    ("doas-background", '{"noise_sd": -1}'),
    ("doas-background", '{"bg_scale": NaN}'),
    ("doas-align", '{"noise_sd": NaN}'),
    ("doas-align", '{"noise_sd": -1}'),
])
def test_main_bad_knob_value_exits_2(tmp_path, capsys, experiment, knobs):
    cfg = tmp_path / "knobs.json"
    cfg.write_text(knobs)
    code = main(["--experiment", experiment, "--scale", "4", "--solver", "nnls",
                 "--config", str(cfg)])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


def test_main_infinite_weight_exits_2(tmp_path, capsys):
    # JSON's 1e999 parses to infinity past the guard on NaN and Infinity
    cfg = tmp_path / "knobs.json"
    cfg.write_text('{"gamma0": 1e999}')
    code = main(["--experiment", "hsi-structured", "--scale", "20", "--solver", "diff_p2",
                 "--config", str(cfg)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err


def test_default_thread_count_is_one(monkeypatch):
    monkeypatch.delenv("SSNNLS_MAX_THREADS", raising=False)
    cfg = config_from_args(build_parser().parse_args(["--experiment", "hsi-inter"]))
    assert cfg.threads == ExperimentConfig("hsi-inter").threads == 1
    assert resolve_threads(cfg.threads) == 1
    assert inspect.signature(demix_scene).parameters["threads"].default == 1


def test_main_nonconvergence_exit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(qp, "ACTIVE_SET_ITERS_PER_COLUMN", 0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"noise_sd": 0.0}))
    code = main(["--experiment", "doas-align", "--scale", "4", "--solver", "hoyer_p1",
                 "--config", str(cfg)])
    assert code == 3
    assert "converge" in capsys.readouterr().err


def test_main_io_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("x")
    assert main(desk_align_argv(tmp_path, str(blocker / "sub"))) == 4
    assert "i/o error" in capsys.readouterr().err


def test_experiment_list_is_stable():
    assert EXPERIMENTS == ("doas-align", "doas-background", "hsi-inter", "hsi-structured")
