"""Experiment driver: config merging, records, the table, and exit codes."""

import json
import os

import numpy as np
import pytest

from ssnnls import cli, qp
from ssnnls.cli import (EXPERIMENTS, ExperimentConfig, RunRecord, _mixture_counts, _seeds,
                        build_parser, compare_solvers, config_from_args, main,
                        run_doas_align, run_experiment)
from ssnnls.errors import ConfigError, NonConvergenceError


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


def test_knobs_outside_the_experiment_table_are_rejected():
    # a config key the protocol does not read fails before any solve
    with pytest.raises(ConfigError, match="'max_outer'"):
        ExperimentConfig("hsi-inter", overrides={"max_outer": 4})
    assert ExperimentConfig("doas-align", overrides={"max_outer": 4}).knob("max_outer", 1) == 4
    # and the code cannot read a knob its table lacks
    with pytest.raises(KeyError):
        ExperimentConfig("hsi-inter").knob("max_outer", 500)


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
                                "solvers": ["nnls"], "noise_sd": 0.25, "eps": 0.02}))
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(
        ["--experiment", "doas-align", "--config", str(path), "--seed", "11"]))
    assert cfg.experiment == "doas-align"  # CLI wins over the file
    assert cfg.seed == 11
    assert cfg.scale == 2  # from the file
    assert cfg.solvers == ["nnls"]
    assert cfg.overrides == {"noise_sd": 0.25, "eps": 0.02}

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
    assert stored[0]["overrides"] == {"noise_sd": 0.0}  # the config file, echoed
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


@pytest.mark.parametrize("experiment, solver, knob, value, field", [
    ("doas-align", "diff_p2", "max_outer", -3, "max_outer"),
    ("doas-align", "diff_p2", "max_outer", 0, "max_outer"),
    ("doas-align", "diff_p2", "tol_energy", -1, "tol_energy"),
    ("doas-align", "hoyer_p1", "c_scale", -1e-9, "c_matrix_scale"),
    ("doas-background", "lstsq", "lstsq_draws", 0, "lstsq_draws"),
    ("doas-background", "lstsq", "lstsq_draws", -2, "lstsq_draws"),
    ("doas-align", "diff_p2", "jitter", -0.25, "jitter"),
    ("doas-background", "nnls", "magnitudes", [5], "magnitudes"),
    ("doas-background", "nnls", "group_cols", [1], "group_cols"),
    ("doas-align", "pd", "pd_init", {}, "pd_init"),
    ("doas-align", "pd", "pd_init", 5, "pd_init"),
    ("doas-background", "pd", "pd_init", ["0.1", None], "pd_init"),
])
def test_main_bad_solver_setting_exits_2(tmp_path, capsys, experiment, solver, knob, value,
                                         field):
    # each is rejected naming its field before a solve; the first five once
    # exited 0 (no outer step, or NaN or zero magnitudes), c_scale failed
    # inside the first model solve, a negative jitter fitted unjittered data
    # and exited 0, a list of the wrong length crashed with IndexError, and a
    # pd_init that is neither a start name nor a list of numbers ({}) with TypeError
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps({knob: value}))
    code = main(["--experiment", experiment, "--scale", "4", "--solver", solver,
                 "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and field in err


@pytest.mark.parametrize("experiment, solver, knobs", [
    ("doas-align", "diff_p2", {"max_outer": 2.5, "noise_sd": 0.0}),
    ("doas-align", "nnls", {"bands": 100.5}),
    ("doas-background", "lstsq", {"lstsq_draws": 2.7}),
    ("hsi-inter", "nnls", {"endmembers": 3.5}),
    ("hsi-structured", "nnls", {"counts": [4, 2.5]}),
    ("hsi-structured", "nnls", {"group_size": 4.5}),
    ("hsi-structured", "nnls", {"n_groups": 2.5}),
    ("hsi-structured", "nnls", {"seed": 0.5}),
    ("hsi-structured", "nnls", {"scale": 20.5}),
    ("doas-background", "nnls", {"group_cols": [3.7, 2, 1]}),
    ("doas-background", "nnls", {"group_cols": ["3", 2, 1]}),
])
def test_main_fractional_whole_number_exits_2(tmp_path, capsys, monkeypatch, experiment,
                                              solver, knobs):
    # int() once truncated these: max_outer 2.5 ran 2 steps and exited 0
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "fit_doas", no_solve)
    monkeypatch.setattr(cli, "demix_scene", no_solve)
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps(knobs))
    argv = ["--experiment", experiment, "--solver", solver, "--config", str(cfg)]
    if "scale" not in knobs:
        argv += ["--scale", "4" if experiment.startswith("doas") else "20"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    name = next(k for k in knobs if k != "noise_sd")
    assert "configuration error" in err and f"{name} must be a whole number" in err


@pytest.mark.parametrize("experiment, scale, knob", [
    ("hsi-structured", 20, "counts"),
    ("doas-background", 4, "magnitudes"),
    ("doas-background", 4, "group_cols"),
    ("doas-align", 4, "magnitude_means"),
])
def test_main_list_knob_given_a_number_exits_2(tmp_path, capsys, monkeypatch, experiment,
                                               scale, knob):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "fit_doas", no_solve)
    monkeypatch.setattr(cli, "demix_scene", no_solve)
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps({knob: 5}))
    code = main(["--experiment", experiment, "--scale", str(scale), "--solver", "nnls",
                 "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{knob} must be a list" in err


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_at_scale_8_exits_0_or_2(capsys, experiment):
    # a desk DOAS run with fewer bands than the grid's shifts once died with
    # a DegenerateColumnError traceback; it is a configuration error
    code = main(["--experiment", experiment, "--scale", "8", "--solver", "nnls"])
    assert code in (0, 2)
    if code == 2:
        err = capsys.readouterr().err
        assert "configuration error" in err and "bands" in err and "--scale" in err


@pytest.mark.parametrize("knobs", [
    {"noise_sd": 0.0, "admm_tol": 1e-14, "admm_max_iters": 3, "gama_p1": 5},
    {"threads": 2},
])
def test_main_unread_knob_exits_2(tmp_path, capsys, monkeypatch, knobs):
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "fit_doas", no_solve)
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps(knobs))
    code = main(["--experiment", "doas-align", "--scale", "4", "--solver", "hoyer_p1",
                 "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert all(f"'{k}'" in err for k in knobs if k != "noise_sd")


def test_threads_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--experiment", "hsi-inter", "--threads", "2"])
    assert info.value.code == 2
    assert "--threads" in capsys.readouterr().err


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


@pytest.mark.parametrize("experiment, scale, entry, failing, solvers", [
    ("doas-align", 4, "fit_doas", "pd", ["nnls", "pd", "diff_p2"]),
    ("hsi-structured", 20, "demix_scene", "l1", ["nnls", "l1", "diff_p2"]),
])
def test_one_solver_failing_keeps_the_others_records(tmp_path, capsys, monkeypatch,
                                                      experiment, scale, entry, failing,
                                                      solvers):
    real = getattr(cli, entry)

    def failing_solver(*args, **kwargs):
        solver = args[2].solver if entry == "fit_doas" else kwargs["solver"]
        if solver == failing:
            raise NonConvergenceError("stub: iteration cap", iterations=7)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, entry, failing_solver)
    out = str(tmp_path / "run")
    argv = ["--experiment", experiment, "--scale", str(scale), "--out", out]
    for solver in solvers:
        argv += ["--solver", solver]
    assert main(argv) == 3
    assert f"{failing}: stub: iteration cap" in capsys.readouterr().err
    with open(os.path.join(out, "records.json")) as fh:
        stored = {rec["solver"]: rec for rec in json.load(fh)}
    assert list(stored) == solvers
    assert stored[failing]["termination"] == "nonconvergence: stub: iteration cap"
    assert stored[failing]["metrics"] == {}
    for solver in solvers:
        if solver != failing:
            assert stored[solver]["metrics"] and \
                not (stored[solver]["termination"] or "").startswith("nonconvergence")
