"""Whole-class array queries against the per-AP and per-user loops they replaced.

`query_oracle` holds the loops; every comparison here is exact.
"""
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import query_oracle

from roomsense.clustering import _kmeanspp_init, too_few_distinct
from roomsense.mapping import (
    DEFAULT_RESAMPLE_LEN,
    SWEEP_RESOLUTIONS,
    _margin_scores,
    build_feature_matrix,
    compute_ap_features,
    sample_times,
)
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
    """The same AP names and the same two share matrices, exactly."""
    new_names, new_frac_class, new_class_frac = new
    old_names, old_frac_class, old_class_frac = old
    assert new_names == old_names
    assert np.array_equal(new_frac_class, old_frac_class)
    assert np.array_equal(new_class_frac, old_class_frac)


def assert_same_matrix(frac_class, class_frac, resample_len):
    """`build_feature_matrix` gives exactly the per-AP sort-and-resample matrix."""
    names = [f"ap{i:03d}" for i in range(len(frac_class))]
    expected, ordered = query_oracle.build_feature_matrix(
        names, frac_class, class_frac, resample_len
    )
    assert ordered == names
    matrix = build_feature_matrix(frac_class, class_frac, resample_len)
    assert matrix.shape == expected.shape and matrix.tobytes() == expected.tobytes()  # bit for bit


@st.composite
def share_matrices(draw):
    """fracClass and classFrac matrices of 1-6 APs by 1-40 samples."""
    shape = (draw(st.integers(1, 6)), draw(st.integers(1, 40)))
    shares = arrays(np.float64, shape, elements=st.floats(0.0, 100.0))
    return draw(shares), draw(shares)


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


class TestFeatureMatrixMatchesPerApResampling:
    @settings(max_examples=300, deadline=None)
    @given(shares=share_matrices(), resample_len=st.integers(1, 100))
    @example(shares=(np.array([[42.0], [7.5]]), np.array([[100.0], [0.0]])), resample_len=5)
    @example(shares=(np.array([[0.0, 50.0, 100.0]]), np.array([[9.0, 3.0, 1.0]])), resample_len=1)
    @example(shares=(np.array([[10.0, 30.0], [5.0, 0.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])),
             resample_len=7)
    def test_generated_matrices(self, shares, resample_len):
        assert_same_matrix(*shares, resample_len)


# Values that compare equal without being the same bits, and others.
VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]) | st.floats(-1e6, 1e6)


@st.composite
def repeating_matrices(draw, min_rows=0):
    """Matrices of up to 8 rows, each a copy of one of a few drawn rows."""
    width = draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(VALUES, min_size=width, max_size=width), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=min_rows, max_size=8))
    return np.array([pool[i] for i in picks], dtype=float).reshape(len(picks), width)


class TestClusteringShortcutsMatchTheirOracles:
    @settings(max_examples=300, deadline=None)
    @given(X=repeating_matrices())
    @example(X=np.array([[0.0, 1.0], [-0.0, 1.0]]))
    @example(X=np.zeros((3, 0)))
    def test_two_distinct_rows_without_a_sort(self, X):
        assert too_few_distinct(X) == query_oracle.too_few_distinct(X, 2)

    @settings(max_examples=300, deadline=None)
    @given(X=repeating_matrices(min_rows=1), seed=st.integers(0, 2**32 - 1))
    @example(X=np.array([[0.0, 1.0], [-0.0, 1.0]]), seed=0)
    def test_kmeanspp_same_draws_in_the_same_order(self, X, seed):
        new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        new = _kmeanspp_init(X, new_rng)
        assert new.tobytes() == query_oracle.kmeanspp_init(X, 2, old_rng).tobytes()
        assert new_rng.bit_generator.state == old_rng.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(X=repeating_matrices(min_rows=2), data=st.data())
    @example(X=np.array([[0.0, -0.0], [-0.0, 0.0], [3.0, 4.0]]), data=None)
    def test_margins_bit_for_bit(self, X, data):
        if data is None:
            is_mapped = np.array([True, True, False])
        else:
            flags = st.lists(st.booleans(), min_size=len(X), max_size=len(X))
            is_mapped = np.array(data.draw(flags.filter(lambda f: any(f) and not all(f))))
        new = np.array(_margin_scores(X, is_mapped))
        assert new.tobytes() == np.array(query_oracle.margin_scores(X, is_mapped)).tobytes()


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
            new = compute_ap_features(corpus42.store, event, roster, resolution)
            assert_same_series(
                new, query_oracle.compute_ap_features(corpus42.store, event, roster, resolution)
            )
            if new[0]:
                assert_same_matrix(new[1], new[2], DEFAULT_RESAMPLE_LEN)

    def test_user_features_under_the_pipeline_mapping(self, corpus42, corpus42_dir):
        results, _ = map_stage(corpus42, pipeline_config(corpus42_dir))
        for event in corpus42.events:
            mapped = results[event.class_id].mapped
            assert_same_features(
                extract_class_features(corpus42.store, event, mapped),
                query_oracle.extract_class_features(corpus42.store, event, mapped),
            )
