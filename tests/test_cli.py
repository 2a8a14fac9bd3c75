"""Command-line surface: fit, forecast, simulate, evaluate, oracle-check."""

import csv
import hashlib
import json
import shutil
import tempfile
from dataclasses import replace
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pupcast import HoldingTimePmf, default_scenario, simulate
from pupcast.arrivals import DailyVolumeModel, HourlyProfile, fit_daily_volume, fit_hourly_profile
from pupcast.cli import main
from pupcast.estimation import SelectionModel, estimate_pickup_kernel, estimate_selection, estimate_transit_kernel
from pupcast.kernel import TransitionKernel
from pupcast.records import EventLog
from pupcast.scenario import ScenarioConfig

from helpers import pooled_status, write_rows


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A config, a simulated trace on disk and fitted models."""
    root = tmp_path_factory.mktemp("cli")
    config = root / "config.json"
    default_scenario(horizon_days=35, ramp=0.0).save(config)
    sim_dir = root / "sim"
    assert main(["simulate", "--config", str(config), "--out", str(sim_dir)]) == 0
    models = root / "models"
    assert main([
        "fit", "--config", str(config),
        "--log", str(sim_dir / "events.csv"), "--out", str(models),
    ]) == 0
    return {"root": root, "config": config, "sim": sim_dir, "models": models}


def test_simulate_outputs(workspace):
    assert (workspace["sim"] / "events.csv").exists()
    load_lines = (workspace["sim"] / "load_true.csv").read_text().splitlines()
    assert load_lines[0] == "k,load"
    assert len(load_lines) == 35 * 24 + 1


# sha256 of the files `pupcast simulate` writes for the default config,
# recorded with a row-by-row csv.writer: the column-wise writer matches it
SIMULATED_FILES = {
    "events.csv": "332344047024c78201797d790eace7f872626865187a0c7778e1f3e5e0466341",
    "load_true.csv": "6c8db1f0f2f2c007e6c1b8957b1a9f0fe2c1a0fc9b5fc985bd4d68b9e200a1c0",
}


# sha256 of the model files `pupcast fit` writes from those events; a change
# to an estimator or a model schema re-pins them on purpose
FITTED_FILES = {
    "kernel.json": "4b5137d7b86346700aa07366c59af7da8bbccc8520ea404c46e2c3a96ca5ba08",
    "profile.json": "e4e968224095bac311d7812a90a5204fcbe55f7256a6a82a27093abcb91c60c2",
    "volumes.json": "7bc5f14e9e93848ee29fb16e9e972c633fa81d51a51f3c9c6edc95a7636221e6",
    "selection.json": "47baf22affa75b07934e72ae529aaba2dae3638fc0afe76b0ded69b2a59badf0",
}


def test_simulate_writes_the_golden_files(tmp_path):
    config = tmp_path / "config.json"
    default_scenario().save(config)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    for name, digest in SIMULATED_FILES.items():
        assert hashlib.sha256((tmp_path / "sim" / name).read_bytes()).hexdigest() == digest, name


def test_fit_writes_the_golden_files(tmp_path):
    config = tmp_path / "config.json"
    default_scenario().save(config)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    assert main(["fit", "--config", str(config), "--log", str(tmp_path / "sim" / "events.csv"),
                 "--out", str(tmp_path / "models")]) == 0
    for name, digest in FITTED_FILES.items():
        assert hashlib.sha256((tmp_path / "models" / name).read_bytes()).hexdigest() == digest, name


def test_fit_of_a_log_with_every_field_quoted_writes_the_golden_files(tmp_path):
    config = tmp_path / "config.json"
    default_scenario().save(config)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 0
    with open(tmp_path / "sim" / "events.csv", newline="", encoding="utf-8") as fh:
        write_rows(tmp_path / "quoted.csv", list(csv.reader(fh)), csv.QUOTE_ALL, "\r\n")
    assert main(["fit", "--config", str(config), "--log", str(tmp_path / "quoted.csv"),
                 "--out", str(tmp_path / "models")]) == 0
    for name, digest in FITTED_FILES.items():
        assert hashlib.sha256((tmp_path / "models" / name).read_bytes()).hexdigest() == digest, name


def test_fit_outputs(workspace):
    for name in ("kernel.json", "profile.json", "volumes.json", "selection.json"):
        assert (workspace["models"] / name).exists()


def test_forecast(workspace, capsys):
    out = workspace["root"] / "forecast.json"
    code = main([
        "forecast", "--config", str(workspace["config"]),
        "--models", str(workspace["models"]),
        "--log", str(workspace["sim"] / "events.csv"),
        "--k", str(30 * 24), "--horizons", "13,37", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [f["j"] for f in doc["forecasts"]] == [13, 37]
    for f in doc["forecasts"]:
        assert abs(sum(f["pmf"]) - 1.0) < 1e-6
        assert f["q05"] <= f["q50"] <= f["q95"]


def test_forecast_before_any_parcel_names_the_pup(workspace):
    out = workspace["root"] / "early.json"
    code = main([
        "forecast", "--config", str(workspace["config"]),
        "--models", str(workspace["models"]),
        "--log", str(workspace["sim"] / "events.csv"),
        "--k", "-1", "--horizons", "13", "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text())
    assert [f["pup"] for f in doc["forecasts"]] == [doc["pup"]] == ["corner-shop"]


def test_evaluate(workspace):
    out = workspace["root"] / "report.csv"
    code = main([
        "evaluate", "--config", str(workspace["config"]),
        "--horizons", "13,37", "--first-anchor-day", "28", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "method,j,mae,mape,n,n_mape_excluded"
    assert len(lines) == 1 + 3 * 2  # three methods, two horizons


def test_nan_in_kernel_exits_2_naming_the_file(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    doc = json.loads((models / "kernel.json").read_text())
    for level in doc["statuses"]["3"]:  # the pickup pmfs
        for entry in level["pmfs"]:
            entry["probs"][1] = float("nan")
    (models / "kernel.json").write_text(json.dumps(doc))
    code = main([
        "forecast", "--config", str(workspace["config"]), "--models", str(models),
        "--log", str(workspace["sim"] / "events.csv"), "--k", str(30 * 24), "--horizons", "13",
    ])
    assert code == 2
    assert str(models / "kernel.json") in capsys.readouterr().err


def test_nan_in_profile_exits_2_naming_the_file(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    doc = json.loads((models / "profile.json").read_text())
    doc["2|c1"] = [float("nan")] * 24
    (models / "profile.json").write_text(json.dumps(doc))
    code = main([
        "forecast", "--config", str(workspace["config"]), "--models", str(models),
        "--log", str(workspace["sim"] / "events.csv"), "--k", str(29 * 24), "--horizons", "13",
    ])
    assert code == 2
    assert str(models / "profile.json") in capsys.readouterr().err


BAD_JSON = {"wrong shape": '{"pup": "x"}', "not json": "not json", "missing": None}


@pytest.mark.parametrize("text", BAD_JSON.values(), ids=BAD_JSON.keys())
def test_bad_config_exits_2_naming_the_file(tmp_path, capsys, text):
    config = tmp_path / "c.json"
    if text is not None:
        config.write_text(text)
    assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "sim")]) == 2
    assert f"{config}: " in capsys.readouterr().err


@pytest.mark.parametrize("text", BAD_JSON.values(), ids=BAD_JSON.keys())
def test_bad_profile_exits_2_naming_the_file(workspace, tmp_path, capsys, text):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    (models / "profile.json").unlink()
    if text is not None:
        (models / "profile.json").write_text(text)
    code = main([
        "forecast", "--config", str(workspace["config"]), "--models", str(models),
        "--log", str(workspace["sim"] / "events.csv"), "--k", str(29 * 24), "--horizons", "13",
    ])
    assert code == 2
    assert f"{models / 'profile.json'}: " in capsys.readouterr().err


CONFIG_COMMANDS = ["fit", "forecast", "simulate", "evaluate"]
SCENARIO_COMMANDS = ["simulate", "evaluate"]  # the two that read the ground truth as well as the site


def copy_config(workspace, tmp_path, site=None, truth=None) -> tuple[Path, Path]:
    """The workspace's site and ground-truth files copied to ``tmp_path``, their documents passed
    through the edits ``site`` and ``truth`` where given; return the two paths."""
    config = tmp_path / "config.json"
    ground_truth = tmp_path / json.loads(workspace["config"].read_text())["ground_truth"]
    for path, edit in ((config, site), (ground_truth, truth)):
        doc = json.loads((workspace["config"].parent / path.name).read_text())
        if edit is not None:
            edit(doc)
        path.write_text(json.dumps(doc))
    return config, ground_truth


def command_args(workspace, tmp_path, command) -> list[str]:
    """``command``'s arguments on the workspace, but for ``--config``."""
    return {
        "fit": ["--log", str(workspace["sim"] / "events.csv"), "--out", str(tmp_path / "m")],
        "forecast": [
            "--models", str(workspace["models"]), "--log", str(workspace["sim"] / "events.csv"),
            "--k", str(30 * 24), "--horizons", "13",
        ],
        "simulate": ["--out", str(tmp_path / "sim")],
        "evaluate": ["--horizons", "13", "--out", str(tmp_path / "report.csv")],
    }[command]


def at_epoch(epoch: str, key: str):
    """An edit of a config document: the epoch of its ``key`` (a timebase or a kernel) set to ``epoch``."""
    return lambda doc: doc[key].update(epoch=epoch)


def run_with_config(workspace, tmp_path, command, site=None, truth=None) -> tuple[Path, Path]:
    """Run ``command`` on the workspace with its config edited as by ``copy_config``, expecting exit 2;
    return the site's and the ground truth's paths."""
    config, ground_truth = copy_config(workspace, tmp_path, site, truth)
    assert main([command, "--config", str(config), *command_args(workspace, tmp_path, command)]) == 2
    return config, ground_truth


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_entry_status_outside_the_chain_exits_2_naming_the_config(workspace, tmp_path, capsys, command):
    # the default chain has statuses 0..3
    config, _ = run_with_config(workspace, tmp_path, command, site=lambda doc: doc.update(entry_status=4))
    assert f"{config}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_kernel_timebase_apart_from_the_site_exits_2_naming_the_ground_truth(workspace, tmp_path, capsys, command):
    # the kernel keeps 2017-07-03
    _, truth = run_with_config(workspace, tmp_path, command, site=at_epoch("2017-07-05T00:00:00", "timebase"))
    err = capsys.readouterr().err
    assert f"{truth}: " in err and "2017-07-05" in err and "2017-07-03" in err


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
@pytest.mark.parametrize("named", [True, False], ids=["file-deleted", "none-named"])
def test_a_scenario_command_without_its_ground_truth_exits_2_naming_the_file(
    workspace, tmp_path, capsys, command, named
):
    config, truth = copy_config(workspace, tmp_path, site=None if named else lambda doc: doc.update(ground_truth=None))
    truth.unlink()
    assert main([command, "--config", str(config), *command_args(workspace, tmp_path, command)]) == 2
    assert f"{truth if named else config}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
def test_a_config_in_the_one_file_layout_exits_2_naming_the_file_and_a_site_key(workspace, tmp_path, capsys, command):
    # the layout before the site had a file of its own: the ground truth's
    # keys and the site's in one document, without n_statuses or ground_truth
    config, truth = copy_config(workspace, tmp_path)
    site = json.loads(config.read_text())
    doc = {**json.loads(truth.read_text()), **site}
    del doc["n_statuses"], doc["ground_truth"]
    assert sorted(doc) == [
        "capacity", "daily_volumes", "entry_status", "horizon_days", "kernel", "opening", "profile", "pup",
        "seed", "selection", "timebase",
    ]
    config.write_text(json.dumps(doc))
    truth.unlink()
    assert main([command, "--config", str(config), *command_args(workspace, tmp_path, command)]) == 2
    err = capsys.readouterr().err
    assert f"{config}: " in err and "n_statuses" in err


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
def test_models_fitted_under_another_calendar_exit_2_naming_the_kernel(workspace, tmp_path, capsys, command):
    # a consistent config a day later than the one the models were fitted under:
    # the log would be read on one calendar and the kernel keyed on the other
    later = "2017-07-04T00:00:00"  # the models keep 2017-07-03
    config, _ = copy_config(workspace, tmp_path, site=at_epoch(later, "timebase"), truth=at_epoch(later, "kernel"))
    args = {
        "forecast": ["--log", str(workspace["sim"] / "events.csv"), "--k", "1200", "--horizons", "13,37"],
        "evaluate": ["--horizons", "13", "--out", str(tmp_path / "report.csv")],
    }
    assert main([command, "--config", str(config), "--models", str(workspace["models"]), *args[command]]) == 2
    err = capsys.readouterr().err
    assert str(workspace["models"] / "kernel.json") in err and "2017-07-04" in err and "2017-07-03" in err


MODEL_CHAINS = {  # edits of kernel.json, and what the error says
    # a fifth status would make picked-up parcels count as stored
    "a fifth status": (lambda doc: doc.update(n_statuses=5, statuses={**doc["statuses"], "4": doc["statuses"]["3"]}),
                       "5 statuses"),
    # the pickup status alone is a valid kernel, but a forecast runs every
    # status from the entry status, 2, to the last
    "no entry status": (lambda doc: doc["statuses"].pop("2"), "entry status 2"),
}


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
@pytest.mark.parametrize("edit, message", MODEL_CHAINS.values(), ids=MODEL_CHAINS.keys())
def test_models_with_another_status_chain_exit_2_naming_the_kernel(workspace, tmp_path, capsys, command, edit, message):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    doc = json.loads((models / "kernel.json").read_text())
    edit(doc)
    (models / "kernel.json").write_text(json.dumps(doc))
    args = {
        "forecast": ["--log", str(workspace["sim"] / "events.csv"), "--k", "696", "--horizons", "13"],
        "evaluate": ["--horizons", "13", "--out", str(tmp_path / "report.csv")],
    }
    assert main([command, "--config", str(workspace["config"]), "--models", str(models), *args[command]]) == 2
    err = capsys.readouterr().err
    assert f"{models / 'kernel.json'}: " in err and message in err


@pytest.mark.parametrize("command", ["forecast", "evaluate"])
@pytest.mark.parametrize("levels", [1, 2], ids=["a-level-without-pmfs", "no-pooled-level"])
def test_a_kernel_status_without_its_pooled_level_exits_2_naming_the_kernel(
    workspace, tmp_path, capsys, command, levels
):
    # the pickup status keeps its first levels only: the weekday x hour one,
    # which holds no pmf after 35 days, or that and the weekday one
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    doc = json.loads((models / "kernel.json").read_text())
    assert [len(level["pmfs"]) for level in doc["statuses"]["3"]][:1] == [0]
    doc["statuses"]["3"] = doc["statuses"]["3"][:levels]
    (models / "kernel.json").write_text(json.dumps(doc))
    args = {
        "forecast": ["--log", str(workspace["sim"] / "events.csv"), "--k", "696", "--horizons", "13,37"],
        "evaluate": ["--horizons", "13", "--out", str(tmp_path / "report.csv")],
    }
    assert main([command, "--config", str(workspace["config"]), "--models", str(models), *args[command]]) == 2
    err = capsys.readouterr().err
    assert f"{models / 'kernel.json'}: status 3: " in err and "pooled level" in err


CONFIG_KERNELS = {  # edits of the site and of the ground truth
    "a gap in the statuses": {"truth": lambda doc: doc["kernel"]["statuses"].update(
        {"0": doc["kernel"]["statuses"]["2"]}
    )},
    "the last status unfitted": {"truth": lambda doc: doc["kernel"]["statuses"].pop("3")},
    "the entry status unfitted": {"site": lambda doc: doc.update(entry_status=1)},
}


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
@pytest.mark.parametrize("edits", CONFIG_KERNELS.values(), ids=CONFIG_KERNELS.keys())
def test_a_ground_truth_kernel_with_a_gap_or_an_unfitted_entry_exits_2_naming_it(
    workspace, tmp_path, capsys, command, edits
):
    # the default kernel fits statuses 2 and 3 of 4
    _, truth = run_with_config(workspace, tmp_path, command, **edits)
    err = capsys.readouterr().err
    assert f"{truth}: " in err and "status" in err


def test_volumes_without_a_carrier_exit_2_naming_the_file(workspace, tmp_path, capsys):
    models = tmp_path / "models"
    shutil.copytree(workspace["models"], models)
    doc = json.loads((models / "volumes.json").read_text())
    doc["history"] = {}
    (models / "volumes.json").write_text(json.dumps(doc))
    code = main([
        "forecast", "--config", str(workspace["config"]), "--models", str(models),
        "--log", str(workspace["sim"] / "events.csv"), "--k", str(30 * 24), "--horizons", "13",
    ])
    assert code == 2
    assert f"{models / 'volumes.json'}: " in capsys.readouterr().err


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
@pytest.mark.parametrize(
    "field, value",
    [("seed", -1), ("horizon_days", -3), ("horizon_days", 0), ("seed", 1.9), ("horizon_days", 7.8), ("seed", True)],
)
def test_negative_seed_or_short_horizon_exits_2_naming_the_ground_truth(
    workspace, tmp_path, capsys, command, field, value
):
    _, truth = run_with_config(workspace, tmp_path, command, truth=lambda doc: doc.update({field: value}))
    err = capsys.readouterr().err
    assert f"{truth}: " in err and field in err


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"entry_status": 1}, "no completed transit transitions out of status 1 for pup 'corner-shop'"),
        ({"pup": "nowhere"}, "no records for pup 'nowhere': no transit transitions out of status 2"),
    ],
)
def test_a_site_its_log_cannot_fit_exits_2_naming_the_status_and_the_config(workspace, tmp_path, capsys, edit, message):
    # the default log enters at status 2, and all its parcels are bound for corner-shop
    config, _ = run_with_config(workspace, tmp_path, "fit", site=lambda doc: doc.update(edit))
    assert f"error: {config}: {message}\n" == capsys.readouterr().err


SITE_VALUES = [
    ("capacity", "forty"), ("capacity", -3), ("capacity", 4.5), ("capacity", True), ("pup", 7), ("pup", ""),
    ("entry_status", 2.7), ("n_statuses", "4"),
]


@pytest.mark.parametrize("command", CONFIG_COMMANDS)
@pytest.mark.parametrize("field, value", SITE_VALUES)
def test_a_site_field_of_the_wrong_kind_exits_2_naming_the_config(workspace, tmp_path, capsys, command, field, value):
    # a pup is a non-empty string, a capacity null or a whole number of parcels,
    # and the status count and entry status integers, never rounded down
    config, _ = run_with_config(workspace, tmp_path, command, site=lambda doc: doc.update({field: value}))
    err = capsys.readouterr().err
    assert f"{config}: " in err and field in err


@pytest.mark.parametrize("command", ["simulate", "evaluate"])
def test_negative_seed_option_exits_2_naming_the_config(workspace, tmp_path, capsys, command):
    out = ["--out", str(tmp_path / "out")] + (["--horizons", "13"] if command == "evaluate" else [])
    assert main([command, "--config", str(workspace["config"]), "--seed", "-1", *out]) == 2
    err = capsys.readouterr().err
    assert str(workspace["config"]) in err and "seed" in err


def test_evaluate_unknown_method_exits_2_naming_the_accepted_ones(workspace, tmp_path, capsys):
    code = main([
        "evaluate", "--config", str(workspace["config"]), "--methods", "lifecycle,bogus",
        "--out", str(tmp_path / "report.csv"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "bogus" in err
    assert all(name in err for name in ("lifecycle", "seasonal-naive", "holt-winters"))


def test_evaluate_without_anchors_exits_2(workspace, tmp_path, capsys):
    code = main([
        "evaluate", "--config", str(workspace["config"]), "--first-anchor-day", "400",
        "--out", str(tmp_path / "report.csv"),
    ])
    assert code == 2
    assert "anchor" in capsys.readouterr().err
    assert not (tmp_path / "report.csv").exists()


def test_evaluate_with_an_epoch_off_midnight_anchors_at_midnight(workspace, tmp_path):
    # days count from the epoch's date: day 28's midnight is slot 28 * 24 - 5
    five_am = "2017-07-03T05:00:00"
    config, _ = copy_config(workspace, tmp_path, site=at_epoch(five_am, "timebase"), truth=at_epoch(five_am, "kernel"))
    out = tmp_path / "report.csv"
    assert main(["evaluate", "--config", str(config), "--horizons", "13,37", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        assert {row["n"] for row in csv.DictReader(fh)} == {"6"}  # days 28..33


def test_oracle_check(capsys):
    assert main(["oracle-check", "--instances", "20", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out


def test_oracle_check_reports_what_it_compared(capsys):
    # an instance whose closed form raises (impossible evidence, a window
    # without a pmf) is skipped and counted; the draws are those of seed 0
    assert main(["oracle-check", "--instances", "200", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "200 random instances drawn, 150 compared, 50 skipped" in out
    assert "worst |closed - exact| = 2.920e-15" in out


def test_oracle_check_with_nothing_compared_exits_2(capsys):
    assert main(["oracle-check", "--instances", "1", "--seed", "3"]) == 2  # its one draw is skipped
    out = capsys.readouterr().out
    assert "0 compared, 1 skipped" in out and "FAIL: no instance was compared" in out


@pytest.mark.parametrize("instances", ["0", "-3"])
def test_oracle_check_of_no_instance_exits_2(capsys, instances):
    assert main(["oracle-check", "--instances", instances]) == 2
    assert "--instances" in capsys.readouterr().err


def test_malformed_log_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "parcel_id,retailer,carrier,pup,status,entry_iso8601\n"
        "P1,r1,c1,shop,x,2017-07-03T10:00:00\n"
    )
    code = main(["fit", "--config", str(workspace["config"]), "--log", str(bad), "--out", str(tmp_path / "m")])
    assert code == 2
    assert ":2" in capsys.readouterr().err


def test_empty_log_exits_2(workspace, tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("parcel_id,retailer,carrier,pup,status,entry_iso8601\n")
    code = main(["fit", "--config", str(workspace["config"]), "--log", str(empty), "--out", str(tmp_path / "m")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["fit", "forecast"])
def test_missing_log_exits_2_naming_the_file(workspace, tmp_path, capsys, command):
    missing = tmp_path / "missing.csv"
    rest = ["--out", str(tmp_path / "m")] if command == "fit" else ["--models", str(workspace["models"]), "--k", "240"]
    assert main([command, "--config", str(workspace["config"]), "--log", str(missing), *rest]) == 2
    assert str(missing) in capsys.readouterr().err


def rewrite_rows(src: Path, dst: Path, edit) -> None:
    """Copy an events CSV, passing each data row (a list) through ``edit``."""
    with open(src, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        for i, row in enumerate(rows[1:]):
            writer.writerow(edit(i, row))


def fit(workspace, log: Path, out: Path) -> int:
    return main(["fit", "--config", str(workspace["config"]), "--log", str(log), "--out", str(out)])


def test_timezone_aware_timestamp_exits_2(workspace, tmp_path, capsys):
    bad = tmp_path / "tz.csv"
    rewrite_rows(
        workspace["sim"] / "events.csv", bad,
        lambda i, row: row[:5] + [row[5] + "+02:00"] if i == 0 else row,
    )
    assert fit(workspace, bad, tmp_path / "m") == 2
    assert "tz.csv:2" in capsys.readouterr().err


def test_non_utf8_log_exits_2_naming_its_line(workspace, tmp_path, capsys):
    lines = (workspace["sim"] / "events.csv").read_bytes().splitlines(keepends=True)
    lines[51] = b"\xff" + lines[51]
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"".join(lines))
    assert fit(workspace, bad, tmp_path / "m") == 2
    err = capsys.readouterr().err
    assert "latin.csv:52: not UTF-8" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["fit", "forecast"])
def test_a_field_over_the_csv_field_limit_exits_2_naming_its_line(workspace, tmp_path, capsys, command):
    with open(workspace["sim"] / "events.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[5][0] = "P" * 200_000
    long = tmp_path / "long.csv"
    write_rows(long, rows)
    argv = {
        "fit": ["--out", str(tmp_path / "m")],
        "forecast": ["--models", str(workspace["models"]), "--k", "720", "--horizons", "13",
                     "--out", str(tmp_path / "f.json")],
    }[command]
    assert main([command, "--config", str(workspace["config"]), "--log", str(long), *argv]) == 2
    err = capsys.readouterr().err
    assert "long.csv:6: field larger than field limit" in err and "Traceback" not in err


@pytest.mark.parametrize("field", ['P"1', '"P1"x'], ids=["in a bare field", "after a closing quote"])
def test_a_quote_out_of_place_exits_2_naming_its_line(workspace, tmp_path, capsys, field):
    lines = (workspace["sim"] / "events.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    lines[9] = field + lines[9][lines[9].index(","):]
    bad = tmp_path / "quote.csv"
    bad.write_text("".join(lines), encoding="utf-8")
    assert fit(workspace, bad, tmp_path / "m") == 2
    err = capsys.readouterr().err
    assert "quote.csv:10: quote out of place" in err and "Traceback" not in err


def test_fit_with_unknown_retailers(workspace, tmp_path):
    mixed = tmp_path / "mixed.csv"
    rewrite_rows(
        workspace["sim"] / "events.csv", mixed,
        lambda i, row: [row[0], "" if int(row[0][1:]) % 2 else row[1], *row[2:]],
    )
    assert fit(workspace, mixed, tmp_path / "m") == 0
    doc = json.loads((tmp_path / "m" / "selection.json").read_text())
    assert "" in doc["p_retailer"] and "r1" in doc["p_retailer"]


FIELD_VALUES = (
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=24)
    | st.integers(-3, 12).map(str)
    | st.datetimes(
        min_value=datetime(2017, 1, 1), max_value=datetime(2018, 12, 31),
        timezones=st.none() | st.just(timezone(timedelta(hours=2))),
    ).map(datetime.isoformat)
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(row=st.integers(min_value=0), field=st.integers(0, 5), value=FIELD_VALUES)
def test_corrupted_field_exits_0_or_2(workspace, row, field, value):
    # any single corrupted field is either accepted or rejected with exit 2,
    # never a traceback
    events = workspace["sim"] / "events.csv"
    row %= len(events.read_text().splitlines()) - 1
    with tempfile.TemporaryDirectory() as tmp:
        log = Path(tmp) / "events.csv"
        rewrite_rows(
            events, log,
            lambda i, r: [value if f == field else x for f, x in enumerate(r)] if i == row else r,
        )
        assert fit(workspace, log, Path(tmp) / "m") in (0, 2)


def test_far_timestamp_exits_2_naming_its_line(workspace, tmp_path, capsys):
    # One mistyped year on a parcel's last entry used to pass every check and
    # fit a daily-volume history millions of days long.
    events = workspace["sim"] / "events.csv"
    with open(events, newline="", encoding="utf-8") as fh:
        pickup = next(i for i, row in enumerate(list(csv.reader(fh))[1:]) if row[4] == "4")
    far = tmp_path / "far.csv"
    rewrite_rows(events, far, lambda i, row: row[:5] + ["9999-07-05T23:00:00"] if i == pickup else row)
    assert fit(workspace, far, tmp_path / "m") == 2
    assert f"far.csv:{pickup + 2}: entry at 9999-07-05T23:00:00" in capsys.readouterr().err


MODEL_FILES = ("kernel.json", "profile.json", "volumes.json", "selection.json")


def test_fit_writes_the_same_bytes_twice(workspace, tmp_path):
    assert fit(workspace, workspace["sim"] / "events.csv", tmp_path / "again") == 0
    for name in MODEL_FILES:
        assert (tmp_path / "again" / name).read_bytes() == (workspace["models"] / name).read_bytes()


def fitted_files(config: ScenarioConfig, log: Path, out: Path) -> dict[str, bytes]:
    """``pupcast fit``'s model files for ``log`` under ``config``, its ground-truth file deleted before the fit."""
    site = out.with_suffix(".json")
    config.save(site)
    site.with_name(json.loads(site.read_text())["ground_truth"]).unlink()
    assert main(["fit", "--config", str(site), "--log", str(log), "--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in MODEL_FILES}


def test_fit_reads_no_pmf_of_the_config(tmp_path):
    # a chain entering at the order (status 1, a seller's preparation) before
    # the take-over: every status up to the last is fitted from the log
    cfg = default_scenario(seed=3, horizon_days=70)
    statuses = {1: pooled_status(HoldingTimePmf.uniform(4, 40)), **cfg.kernel.statuses}
    cfg = replace(cfg, kernel=TransitionKernel(4, statuses, cfg.timebase), entry_status=1)
    simulate(cfg).event_log().to_csv(tmp_path / "events.csv")
    other = {**statuses, 2: pooled_status(HoldingTimePmf.uniform(10, 60))}
    other_cfg = replace(cfg, kernel=TransitionKernel(4, other, cfg.timebase))
    files = fitted_files(cfg, tmp_path / "events.csv", tmp_path / "a")
    assert files == fitted_files(other_cfg, tmp_path / "events.csv", tmp_path / "b")
    assert sorted(json.loads(files["kernel.json"])["statuses"]) == ["1", "2", "3"]
    # nor any byte of the ground-truth file: without it, the default config fits
    # the golden files, and a forecast reads the site and those files alone
    simulate(default_scenario()).event_log().to_csv(tmp_path / "default.csv")
    files = fitted_files(default_scenario(), tmp_path / "default.csv", tmp_path / "c")
    assert {name: hashlib.sha256(data).hexdigest() for name, data in files.items()} == FITTED_FILES
    assert main(["forecast", "--config", str(tmp_path / "c.json"), "--models", str(tmp_path / "c"),
                 "--log", str(tmp_path / "default.csv"), "--k", "2400", "--out", str(tmp_path / "f.json")]) == 0


def test_fit_counts_only_the_config_pups_parcels(workspace, tmp_path):
    # another pup's parcels, under their own ids and up to the same last entry,
    # take over with the same carriers and retailers
    other = replace(default_scenario(seed=2, horizon_days=35, ramp=0.0), pup="other-shop")
    simulate(other).event_log().to_csv(tmp_path / "other.csv")
    with open(workspace["sim"] / "events.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    with open(tmp_path / "other.csv", newline="", encoding="utf-8") as fh:
        extra = list(csv.reader(fh))[1:]
    last = max(row[5] for row in rows[1:])
    with open(tmp_path / "both.csv", "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows + [["Q" + row[0], *row[1:]] for row in extra if row[5] <= last])
    config = ScenarioConfig.load(workspace["config"])
    assert fitted_files(config, tmp_path / "both.csv", tmp_path / "both") == {
        name: (workspace["models"] / name).read_bytes() for name in MODEL_FILES
    }


def test_model_files_load_back_bit_for_bit(workspace):
    config = ScenarioConfig.load(workspace["config"])
    log = EventLog.from_csv(workspace["sim"] / "events.csv", config.timebase)
    models = workspace["models"]
    entry, last = config.entry_status, config.n_statuses - 1
    kernel = TransitionKernel.load(models / "kernel.json")
    fitted = {
        entry: estimate_transit_kernel(log, config.pup, status_from=entry),
        last: estimate_pickup_kernel(log, config.pup, config.opening, status_from=last),
    }
    for n, status in fitted.items():
        for mine, saved in zip(status.levels, kernel.statuses[n].levels, strict=True):
            assert mine.schema == saved.schema and mine.pmfs.keys() == saved.pmfs.keys()
            for key, pmf in mine.pmfs.items():
                assert pmf.probs.tobytes() == saved.pmfs[key].probs.tobytes()
    profile = HourlyProfile.from_json_dict(json.loads((models / "profile.json").read_text()))
    rho = fit_hourly_profile(log, status=entry).rho
    assert rho.keys() == profile.rho.keys()
    assert all(rho[key].tobytes() == profile.rho[key].tobytes() for key in rho)
    volume = DailyVolumeModel.from_json_dict(json.loads((models / "volumes.json").read_text()))
    history = fit_daily_volume(log, status=entry).history
    assert history.keys() == volume.history.keys()
    assert all(history[c].tobytes() == volume.history[c].tobytes() for c in history)
    selection = SelectionModel.from_json_dict(json.loads((models / "selection.json").read_text()))
    assert selection == estimate_selection(log)


def test_models_in_the_indented_layout_give_the_same_forecast(workspace, tmp_path):
    indented = tmp_path / "indented"
    indented.mkdir()
    for name in MODEL_FILES:  # the layout model files had before they were written compact
        doc = json.loads((workspace["models"] / name).read_text())
        with open(indented / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
    outputs = []
    for models in (workspace["models"], indented):
        out = tmp_path / f"{models.name}.json"
        assert main([
            "forecast", "--config", str(workspace["config"]), "--models", str(models),
            "--log", str(workspace["sim"] / "events.csv"), "--k", str(30 * 24), "--horizons", "13,37", "--out", str(out),
        ]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
