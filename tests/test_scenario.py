"""Scenario configuration checks."""

import json
from dataclasses import replace
from datetime import timedelta

import pytest

from pupcast import OrderIntensity, ScenarioConfig, Site, default_scenario
from pupcast.errors import ValidationError
from pupcast.kernel import read_model


def test_entry_status_must_be_a_status_of_the_chain():
    cfg = default_scenario(horizon_days=7)
    for entry in (-1, cfg.n_statuses):
        with pytest.raises(ValidationError, match=f"entry status {entry} outside 0..3"):
            replace(cfg, entry_status=entry)
        with pytest.raises(ValidationError):
            Site.from_json_dict({**cfg.site.to_json_dict(), "entry_status": entry})


@pytest.mark.parametrize("days", [{}, {"c2": {0: 3.0, 2: 1.5}}], ids=["no carrier", "one carrier with a gap"])
def test_a_saved_config_keeps_its_intensity(tmp_path, days):
    # the volumes are written from the intensity, every day of its span
    cfg = default_scenario(horizon_days=14)
    start = cfg.timebase.epoch.date()
    schedule = {c: {start + timedelta(days=d): v for d, v in by_day.items()} for c, by_day in days.items()}
    cfg.intensity = OrderIntensity.from_schedule(cfg.intensity.profile, schedule)
    cfg.save(tmp_path / "config.json")
    back = ScenarioConfig.load(tmp_path / "config.json").intensity
    assert (back.carriers, back.start) == (cfg.intensity.carriers, cfg.intensity.start)
    assert back.volumes.tobytes() == cfg.intensity.volumes.tobytes()


def test_save_writes_the_site_apart_from_its_ground_truth(tmp_path):
    cfg = default_scenario(horizon_days=7)
    cfg.save(tmp_path / "config.json")
    assert read_model(tmp_path / "config.json", Site) == replace(cfg.site, ground_truth="config.truth.json")
    assert (tmp_path / "config.json").stat().st_size < 1024  # the kernel is in config.truth.json
    back = ScenarioConfig.load(tmp_path / "config.json")
    assert back.site == cfg.site and (back.seed, back.horizon_days) == (cfg.seed, cfg.horizon_days)


def test_a_site_with_another_status_count_than_its_kernel_is_refused(tmp_path):
    default_scenario(horizon_days=7).save(tmp_path / "config.json")
    doc = json.loads((tmp_path / "config.json").read_text())
    (tmp_path / "config.json").write_text(json.dumps({**doc, "n_statuses": 5}))
    with pytest.raises(ValidationError, match="config.truth.json: kernel has 4 statuses, the site 5"):
        ScenarioConfig.load(tmp_path / "config.json")
