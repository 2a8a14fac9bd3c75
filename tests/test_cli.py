"""Command-line surface: fit, forecast, simulate, evaluate, oracle-check."""

import csv
import json
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pupcast import default_scenario
from pupcast.cli import main


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


def test_oracle_check(capsys):
    assert main(["oracle-check", "--instances", "20", "--seed", "7"]) == 0
    assert "PASS" in capsys.readouterr().out


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
