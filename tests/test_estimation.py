"""Empirical kernel estimation and the selection model."""

import json

import pytest

from pupcast import EventLog, ParcelRecord
from pupcast.errors import EmptyLog, NoCompletedTransitions, ValidationError
from pupcast.estimation import (
    OpeningHours,
    SelectionModel,
    estimate_pickup_kernel,
    estimate_selection,
    estimate_transit_kernel,
)

from helpers import TB

SHOP_HOURS = OpeningHours({w: (9, 19) for w in range(1, 7)} | {7: (9, 12)})


def parcel(pid, carrier, t2, t3=None, t4=None, pup="shop", retailer="r1"):
    entries = {2: t2}
    if t3 is not None:
        entries[3] = t3
    if t4 is not None:
        entries[4] = t4
    return ParcelRecord(pid, carrier, pup, retailer, entries)


class TestOpeningHours:
    def test_valid_keys_count(self):
        keys = SHOP_HOURS.valid_keys()
        assert len(keys) == 6 * 11 + 4  # 9..19 inclusive Mon-Sat, 9..12 Sunday
        assert (7, 12) in keys and (7, 15) not in keys

    def test_bad_hours_rejected(self):
        with pytest.raises(ValidationError):
            OpeningHours({8: (9, 12)})
        with pytest.raises(ValidationError):
            OpeningHours({1: (12, 9)})


class TestTransitKernel:
    def test_empirical_frequencies(self):
        # three Monday take-overs by the same carrier with delays 24, 24, 48 h
        recs = [
            parcel("P1", "c1", 8, 8 + 24),
            parcel("P2", "c1", 9, 9 + 24),
            parcel("P3", "c1", 10, 10 + 48),
        ]
        log = EventLog(recs, cutoff=100, timebase=TB)
        sk = estimate_transit_kernel(log, "shop", status_from=2, min_count=1)
        pmf = sk.lookup({"weekday": 1, "carrier": "c1"})
        assert pmf.probs[24] == pytest.approx(2 / 3)
        assert pmf.probs[48] == pytest.approx(1 / 3)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_single_observation_point_mass(self):
        log = EventLog([parcel("P1", "c1", 8, 32)], cutoff=50, timebase=TB)
        sk = estimate_transit_kernel(log, "shop", status_from=2, min_count=1)
        pmf = sk.lookup({"weekday": 1, "carrier": "c1"})
        assert pmf.probs[24] == 1.0

    def test_incomplete_transitions_fall_back(self):
        # all c2 parcels still in transit at the cutoff: their keys are
        # absent and lookups fall back to the pooled pmf
        recs = [
            parcel("P1", "c1", 8, 32),
            parcel("P2", "c2", 9),  # no delivery yet
        ]
        log = EventLog(recs, cutoff=50, timebase=TB)
        sk = estimate_transit_kernel(log, "shop", status_from=2, min_count=1)
        pooled = sk.lookup({"weekday": 1, "carrier": "c2"})
        assert pooled.probs[24] == 1.0  # only the completed c1 transition

    def test_no_look_ahead(self):
        recs = [
            parcel("P1", "c1", 8, 32),
            parcel("P2", "c1", 9, 9 + 90),
        ]
        full = EventLog(recs, cutoff=200, timebase=TB)
        early = full.truncated(50)
        sk = estimate_transit_kernel(early, "shop", status_from=2, min_count=1)
        pmf = sk.lookup({"weekday": 1, "carrier": "c1"})
        assert pmf.probs[24] == 1.0  # the slow parcel's delivery is censored

    def test_errors(self):
        log = EventLog([parcel("P1", "c1", 8)], cutoff=50, timebase=TB)
        with pytest.raises(EmptyLog, match="pup 'nowhere': no transit transitions out of status 2"):
            estimate_transit_kernel(log, "nowhere", status_from=2)
        with pytest.raises(NoCompletedTransitions, match="transit transitions out of status 2 for pup 'shop'"):
            estimate_transit_kernel(log, "shop", status_from=2)
        with pytest.raises(NoCompletedTransitions, match="pickup transitions out of status 3 for pup 'shop'"):
            estimate_pickup_kernel(log, "shop", SHOP_HOURS, status_from=3)

    def test_sparse_cells_defer_to_coarser_level(self):
        # 25 Monday observations, 1 Tuesday observation, min_count 20:
        # the Tuesday cell defers to the per-carrier pooled pmf
        recs = [parcel(f"P{i}", "c1", 8, 8 + 24) for i in range(25)]
        recs.append(parcel("Q1", "c1", 24 + 8, 24 + 8 + 48))
        log = EventLog(recs, cutoff=200, timebase=TB)
        sk = estimate_transit_kernel(log, "shop", status_from=2, min_count=20)
        mon = sk.lookup({"weekday": 1, "carrier": "c1"})
        assert mon.probs[24] == 1.0
        tue = sk.lookup({"weekday": 2, "carrier": "c1"})
        assert tue.probs[48] == pytest.approx(1 / 26)  # pooled over all weekdays


class TestPickupKernel:
    def test_empirical_frequencies(self):
        t_mon10 = 10  # Monday 10:00
        recs = [
            parcel("P1", "c1", 5, t_mon10, t_mon10 + 2),
            parcel("P2", "c1", 5, t_mon10, t_mon10 + 2),
            parcel("P3", "c1", 5, t_mon10, t_mon10 + 26),
        ]
        log = EventLog(recs, cutoff=100, timebase=TB)
        sk = estimate_pickup_kernel(log, "shop", SHOP_HOURS, status_from=3, min_count=1)
        pmf = sk.lookup({"weekday": 1, "hour": 10})
        assert pmf.probs[2] == pytest.approx(2 / 3)
        assert pmf.probs[26] == pytest.approx(1 / 3)

    def test_closed_hours_feed_only_fallback(self):
        sunday_15 = 6 * 24 + 15  # Sunday 15:00, outside opening hours
        recs = [
            parcel("P1", "c1", 5, sunday_15, sunday_15 + 3),
            parcel("P2", "c1", 5, 10, 10 + 5),
        ]
        log = EventLog(recs, cutoff=300, timebase=TB)
        sk = estimate_pickup_kernel(log, "shop", SHOP_HOURS, status_from=3, min_count=1)
        assert (7, 15) not in sk.levels[0].pmfs
        fallback = sk.lookup({"weekday": 7, "hour": 15})
        assert fallback.probs[3] == 1.0  # per-weekday fallback still keyed Sunday

    def test_mass_beyond_max_sojourn_truncated(self):
        recs = [
            parcel("P1", "c1", 5, 10, 10 + 100),
            parcel("P2", "c1", 5, 10, 10 + 400),  # beyond the two-week sojourn cap
        ]
        log = EventLog(recs, cutoff=500, timebase=TB)
        sk = estimate_pickup_kernel(log, "shop", SHOP_HOURS, status_from=3, min_count=1)
        pmf = sk.lookup({"weekday": 1, "hour": 10})
        assert pmf.support_max == 336
        assert pmf.probs[100] == 1.0  # renormalized after truncation
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestSelection:
    def test_carrier_shares(self):
        recs = [parcel(f"P{i}", "c1", 5) for i in range(6)]
        recs += [parcel(f"Q{i}", "c2", 5) for i in range(4)]
        model = estimate_selection(EventLog(recs, cutoff=10, timebase=TB))
        assert model.p_retailer == {"r1": 1.0}
        assert model.p_carrier_given_retailer["r1"] == pytest.approx({"c1": 0.6, "c2": 0.4})

    def test_disjoint_carriers_give_point_masses(self):
        recs = [parcel("P1", "c1", 5, retailer="rA"), parcel("P2", "c2", 5, retailer="rB")]
        model = estimate_selection(EventLog(recs, cutoff=10, timebase=TB))
        assert model.p_carrier_given_retailer["rA"] == {"c1": 1.0}
        assert model.p_carrier_given_retailer["rB"] == {"c2": 1.0}
        assert model.p_retailer_given_carrier("c1") == {"rA": 1.0}

    def test_empty_log(self):
        with pytest.raises(EmptyLog):
            estimate_selection(EventLog([], cutoff=10, timebase=TB))

    def test_pairs_and_validation(self):
        with pytest.raises(ValidationError):
            SelectionModel({"r1": 0.5}, {})
        for bad in ({"r1": float("nan")}, {"r1": 1.5, "r2": -0.5}):
            with pytest.raises(ValidationError):
                SelectionModel(bad, {"r1": {"c1": 1.0}, "r2": {"c1": 1.0}})
            with pytest.raises(ValidationError):
                SelectionModel({"r1": 1.0}, {"r1": {f"c{i}": p for i, p in enumerate(bad.values())}})
        model = SelectionModel({"r1": 0.5, "r2": 0.5}, {"r1": {"c1": 1.0}, "r2": {"c1": 0.5, "c2": 0.5}})
        joint = {(r, c): p for r, c, p in model.pairs()}
        assert joint[("r2", "c2")] == pytest.approx(0.25)
        assert model.p_retailer_given_carrier("c1") == pytest.approx({"r1": 2 / 3, "r2": 1 / 3})

    def test_json_round_trip_with_unknown_retailer(self):
        model = SelectionModel(
            {None: 0.25, "r1": 0.75}, {None: {"c1": 1.0}, "r1": {"c1": 0.5, "c2": 0.5}}
        )
        doc = json.loads(json.dumps(model.to_json_dict()))
        assert doc["p_retailer"] == {"": 0.25, "r1": 0.75}
        assert SelectionModel.from_json_dict(doc) == model
        only_unknown = SelectionModel({None: 1.0}, {None: {"c1": 1.0}})
        assert SelectionModel.from_json_dict(only_unknown.to_json_dict()) == only_unknown
