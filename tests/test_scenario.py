"""Scenario configuration checks."""

from dataclasses import replace
from datetime import timedelta

import pytest

from pupcast import OrderIntensity, ScenarioConfig, default_scenario
from pupcast.errors import ValidationError
from pupcast.kernel import read_model


def test_entry_status_must_be_a_status_of_the_chain():
    cfg = default_scenario(horizon_days=7)
    for entry in (-1, cfg.n_statuses):
        with pytest.raises(ValidationError, match=f"entry status {entry} outside 0..3"):
            replace(cfg, entry_status=entry)
        with pytest.raises(ValidationError):
            ScenarioConfig.from_json_dict({**cfg.to_json_dict(), "entry_status": entry})


@pytest.mark.parametrize("days", [{}, {"c2": {0: 3.0, 2: 1.5}}], ids=["no carrier", "one carrier with a gap"])
def test_a_saved_config_keeps_its_intensity(tmp_path, days):
    # the volumes are written from the intensity, every day of its span
    cfg = default_scenario(horizon_days=14)
    start = cfg.timebase.epoch.date()
    schedule = {c: {start + timedelta(days=d): v for d, v in by_day.items()} for c, by_day in days.items()}
    cfg.intensity = OrderIntensity.from_schedule(cfg.intensity.profile, schedule)
    cfg.save(tmp_path / "config.json")
    back = read_model(tmp_path / "config.json", ScenarioConfig).intensity
    assert (back.carriers, back.start) == (cfg.intensity.carriers, cfg.intensity.start)
    assert back.volumes.tobytes() == cfg.intensity.volumes.tobytes()
