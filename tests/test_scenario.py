"""Scenario configuration checks."""

from dataclasses import replace

import pytest

from pupcast import ScenarioConfig, default_scenario
from pupcast.errors import ValidationError


def test_entry_status_must_be_a_status_of_the_chain():
    cfg = default_scenario(horizon_days=7)
    for entry in (-1, cfg.n_statuses):
        with pytest.raises(ValidationError, match=f"entry status {entry} outside 0..3"):
            replace(cfg, entry_status=entry)
        with pytest.raises(ValidationError):
            ScenarioConfig.from_json_dict({**cfg.to_json_dict(), "entry_status": entry})
