"""Experiment driver: config merging, records, the table, and exit codes."""

import json
import os

import numpy as np
import pytest

from ssnnls import cli, qp
from ssnnls.cli import (EXPERIMENTS, KINDS, KNOBS, ExperimentConfig, RunRecord, _mixture_counts,
                        _seeds, build_parser, compare_solvers, config_from_args, main,
                        run_doas_align, run_experiment)
from ssnnls.doas import DOAS_SOLVERS
from ssnnls.errors import ConfigError, NonConvergenceError
from ssnnls.hsi import HSI_SOLVERS


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


def test_knob_returns_the_checked_value_and_overrides_echo_the_file():
    over = {"bands": 256.0, "r": 1, "pd_init": [0, 1.5]}
    cfg = ExperimentConfig("doas-align", overrides=over)
    assert cfg.knob("bands", 1) == 256 and isinstance(cfg.knob("bands", 1), int)
    assert cfg.knob("r", 0.5) == 1.0 and isinstance(cfg.knob("r", 0.5), float)
    assert cfg.knob("pd_init", "nnls") == [0.0, 1.5]
    assert cfg.knob("eps", 0.05) == 0.05  # unset: the default, as given
    assert cfg.overrides == over and isinstance(cfg.overrides["bands"], float)


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_the_knob_table_and_the_reads_agree(monkeypatch, experiment):
    # a knob the table lists but no code reads would be accepted and ignored;
    # one read but not listed raises KeyError.  Every solver is chosen so that
    # each solver-specific read happens, and the fits are stubbed out.
    def no_fit(*args, **kwargs):
        raise NonConvergenceError("stub")

    monkeypatch.setattr(cli, "fit_doas", no_fit)
    monkeypatch.setattr(cli, "demix_scene", no_fit)
    read = set()
    knob = ExperimentConfig.knob

    def recording_knob(self, name, default):
        read.add(name)
        return knob(self, name, default)

    monkeypatch.setattr(ExperimentConfig, "knob", recording_knob)
    doas = experiment.startswith("doas")
    cfg = ExperimentConfig(experiment, scale=4 if doas else 20,
                           solvers=list(DOAS_SOLVERS if doas else HSI_SOLVERS))
    records = cli._RUNNERS[experiment](cfg)
    assert [r.solver for r in records] == cfg.solvers
    assert read == KNOBS[experiment]
    assert set(KINDS) <= set().union(*KNOBS.values())


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
    path.write_text(json.dumps({"experiment": "DoasAlign", "seed": 7, "scale": 2,
                                "solvers": ["nnls"], "noise_sd": 0.25, "eps": 0.02}))
    parser = build_parser()
    cfg = config_from_args(parser.parse_args(
        ["--experiment", "doas-align", "--config", str(path), "--seed", "11"]))
    assert cfg.experiment == "doas-align"  # the file's spelling names the same experiment
    assert cfg.seed == 11  # CLI wins over the file
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


@pytest.mark.parametrize("settings, name", [
    ({"experiment": 5, "seed": "x"}, "seed"),
    ({"experiment": 5}, "experiment"),
    ({"seed": -1}, "seed"),
    ({"scale": 0}, "scale"),
    ({"out": 5}, "out"),
    ({"solvers": "nnls"}, "solvers"),
    ({"experiment": "doas-align"}, "experiment"),
])
def test_config_file_run_settings_are_checked_when_a_flag_replaces_them(
        tmp_path, capsys, monkeypatch, settings, name):
    # these once exited 0: the flags replaced the file's values unchecked
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "demix_scene", no_solve)
    cfg = tmp_path / "settings.json"
    cfg.write_text(json.dumps(settings))
    assert main(["--experiment", "hsi-inter", "--scale", "20", "--seed", "0", "--solver",
                 "nnls", "--out", str(tmp_path / "out"), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and name in err
    assert not (tmp_path / "out").exists()


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


def test_main_doas_align_diff_p2_runs_at_no_shift(tmp_path):
    # at c_scale 0 the full-scale deformation dictionary (1323 columns on
    # 1024 bands) makes the model singular; the active set leaves its
    # dependent columns out, as NNLS does, and finds the three atoms
    cfg = tmp_path / "shift.json"
    cfg.write_text(json.dumps({"c_scale": 0}))
    out = str(tmp_path / "out")
    assert main(["--experiment", "doas-align", "--scale", "1", "--seed", "0",
                 "--solver", "diff_p2", "--config", str(cfg), "--out", out]) == 0
    with open(os.path.join(out, "records.json")) as fh:
        stored = json.load(fh)
    assert stored[0]["overrides"] == {"c_scale": 0}
    assert stored[0]["metrics"]["support_hits"] == 3


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
    # JSON's 1e999 parses to infinity, which fails the finite-number kind
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


@pytest.mark.parametrize("experiment, knobs", [
    ("hsi-inter", {"noise_sd": {}}),
    ("hsi-inter", {"noise_sd": None}),
    ("hsi-inter", {"noise_sd": "0.01"}),
    ("hsi-inter", {"noise_sd": True}),
    ("doas-align", {"max_outer": True}),
    ("hsi-inter", {"seed": True}),
    ("hsi-inter", {"out": 5}),
    ("doas-align", {"pd_init": "warm"}),
    ("doas-background", {"magnitudes": [0.01, "x", 0.02]}),
])
def test_main_value_of_the_wrong_kind_exits_2_before_any_fit(tmp_path, capsys, monkeypatch,
                                                             experiment, knobs):
    # each is checked by its kind when the config is built: the first two once
    # died with a TypeError traceback, the next four ran as 0.01, 1, 1 and 1
    # and exited 0, out 5 failed with a traceback after the fits, and
    # pd_init "warm" was rejected only once nnls and l1 had been fitted
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "fit_doas", no_solve)
    monkeypatch.setattr(cli, "demix_scene", no_solve)
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps(knobs))
    scale = "4" if experiment.startswith("doas") else "20"
    assert main(["--experiment", experiment, "--scale", scale, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and f"{next(iter(knobs))} must be" in err


def test_pd_init_of_the_wrong_length_exits_2_before_the_first_fit(tmp_path, capsys):
    # it was once rejected only when pd ran, after nnls had written its CSVs,
    # by a message that did not name pd_init
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps({"pd_init": [1, 2]}))
    out = tmp_path / "out"
    assert main(["--experiment", "doas-background", "--scale", "4", "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "pd_init" in err and "(75), got 2" in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, scale, knob, value", [
    ("doas-align", "4", "tau_over_sqrt_w", -1.0),
    ("hsi-structured", "20", "l1_gamma", -0.5),
])
def test_main_bad_l1_weight_exits_2_before_the_first_fit(tmp_path, capsys, experiment, scale,
                                                         knob, value):
    # the l1 weight was once rejected only when l1 ran, after nnls had
    # written its CSV, by a message that named the library's argument
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps({knob: value}))
    out = tmp_path / "out"
    assert main(["--experiment", experiment, "--scale", scale, "--config", str(cfg),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and knob in err
    assert not out.exists()


@pytest.mark.parametrize("experiment, knobs", [
    ("doas-align", {"gamma_p1": -1}),
    ("doas-background", {"c_scale_p1": -1}),
])
def test_main_bad_solver_setting_exits_2_before_the_first_fit(tmp_path, capsys, monkeypatch,
                                                              experiment, knobs):
    # every chosen solver's settings are built and checked before any fit;
    # these were once rejected only at hoyer_p1, after nnls, l1 and pd had
    # been fitted and their CSVs written
    def no_solve(*args, **kwargs):
        raise AssertionError("a solve ran")

    monkeypatch.setattr(cli, "fit_doas", no_solve)
    cfg = tmp_path / "knobs.json"
    cfg.write_text(json.dumps(knobs))
    out = tmp_path / "run"
    assert main(["--experiment", experiment, "--scale", "4", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


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
