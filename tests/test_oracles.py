"""Whole-class array queries against the per-AP and per-user loops they replaced.

`query_oracle` holds the loops; every comparison here is exact.
"""
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import query_oracle

from roomsense.mapping import SWEEP_RESOLUTIONS, compute_ap_features, sample_times
from roomsense.pipeline import map_stage
from roomsense.records import ClassEvent, parse_stamp, to_minutes
from roomsense.userfeatures import FEATURE_NAMES, extract_class_features

from conftest import DAY, make_session, pipeline_config, record_store, small_logs

ROSTERS = st.frozensets(st.sampled_from(["u1", "u2", "u3", "ghost"]))
MAPPED = st.frozensets(st.sampled_from(["ap1", "ap2", "ap10", "nosuch"]))


@st.composite
def class_events(draw):
    """A class of 21 minutes to 3 hours starting 8am-9pm, so some cross 9am or 9pm."""
    start = parse_stamp(f"{DAY} 08:00") + timedelta(minutes=draw(st.integers(0, 13 * 60)))
    return ClassEvent("c1", "room1", start, start + timedelta(minutes=draw(st.integers(21, 180))))


def assert_same_series(new, old):
    assert [s.ap_name for s in new] == [s.ap_name for s in old]
    for a, b in zip(new, old):
        assert a.resolution == b.resolution
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.frac_class, b.frac_class)
        assert np.array_equal(a.class_frac, b.class_frac)


class TestCountsMatchPerApOracle:
    @settings(max_examples=150, deadline=None)
    @given(
        records=small_logs(),
        event=class_events(),
        roster=ROSTERS,
        resolution=st.sampled_from(SWEEP_RESOLUTIONS),
    )
    def test_generated_stores(self, records, event, roster, resolution):
        store = record_store(records)
        member_ids = store.user_ids(roster)
        times = sample_times(event, resolution)
        total, members = store.user_counts_at(times, member_ids)
        assert total.shape == members.shape == (len(store.table.ap_names), len(times))
        for code, ap in enumerate(store.table.ap_names):
            old_total, old_members = query_oracle.user_counts_at(store, ap, times, member_ids)
            assert np.array_equal(total[code], old_total)
            assert np.array_equal(members[code], old_members)
        assert_same_series(
            compute_ap_features(store, event, roster, resolution),
            query_oracle.compute_ap_features(store, event, roster, resolution),
        )

    @pytest.mark.parametrize(
        "first, last, covered",
        [
            ("10:59", "11:30", [1, 0]),  # only the first sample, by the longest interval
            ("09:30", "10:00", [0, 1]),  # only the last sample, by an interval starting there
        ],
    )
    def test_search_window_edges(self, store_builder, first, last, covered):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        times = np.array(
            [to_minutes(parse_stamp(f"{DAY} {first}")), to_minutes(parse_stamp(f"{DAY} {last}"))]
        )
        total, members = store.user_counts_at(times, store.user_ids({"u1"}))
        assert total.tolist() == members.tolist() == [covered]

    def test_long_session_widens_only_its_own_ap(self, store_builder):
        days = 3 * 24 * 60
        store = store_builder(
            replace(make_session("u1", "ap1", "09:00", "10:00"), duration=days),
            make_session("u2", "ap2", "09:00", "09:30", mac="m2"),
            make_session("u2", "ap2", "10:00", "10:45", mac="m2"),
        )
        # each AP's search window reaches back by its own longest interval
        assert store._merged[0].longest.tolist() == [days, 45]
        member_ids = store.user_ids({"u1", "u2"})
        for day in range(3):
            start = parse_stamp(f"{DAY} 09:00") + timedelta(days=day)
            times = sample_times(ClassEvent("c1", "room1", start, start + timedelta(hours=2)), 1)
            total, members = store.user_counts_at(times, member_ids)
            for code, ap in enumerate(store.table.ap_names):
                old_total, old_members = query_oracle.user_counts_at(store, ap, times, member_ids)
                assert np.array_equal(total[code], old_total)
                assert np.array_equal(members[code], old_members)

    def test_times_outside_the_log_count_zero(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        times = np.array([0, 10**9], dtype=np.int64)
        total, members = store.user_counts_at(times, store.user_ids({"u1"}))
        assert total.tolist() == members.tolist() == [[0, 0]]


def assert_same_features(new, old):
    assert new.users == old.users
    assert new.matrix.shape == old.matrix.shape == (len(old.users), len(FEATURE_NAMES))
    assert np.array_equal(new.matrix, old.matrix, equal_nan=True)
    assert new.occupant.tolist() == old.occupant.tolist()


class TestUserFeaturesMatchPerUserOracle:
    @settings(max_examples=200, deadline=None)
    @given(records=small_logs(), event=class_events(), mapped=MAPPED)
    def test_generated_stores(self, records, event, mapped):
        store = record_store(records)
        assert_same_features(
            extract_class_features(store, event, mapped),
            query_oracle.extract_class_features(store, event, mapped),
        )


class TestSeed42Corpus:
    @pytest.mark.parametrize("resolution", [1, 10, 60])
    def test_ap_features_every_class(self, corpus42, resolution):
        for event in corpus42.events:
            if event.duration_minutes < 20 + resolution:
                continue
            roster = corpus42.rosters[event.class_id]
            assert_same_series(
                compute_ap_features(corpus42.store, event, roster, resolution),
                query_oracle.compute_ap_features(corpus42.store, event, roster, resolution),
            )

    def test_user_features_under_the_pipeline_mapping(self, corpus42, corpus42_dir):
        results, _ = map_stage(corpus42, pipeline_config(corpus42_dir))
        for event in corpus42.events:
            mapped = results[event.class_id].mapped
            assert_same_features(
                extract_class_features(corpus42.store, event, mapped),
                query_oracle.extract_class_features(corpus42.store, event, mapped),
            )
