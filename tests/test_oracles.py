"""Many-class array queries against the one-class queries, and the per-AP and
per-user loops, that they replaced.

`query_oracle` holds the replaced code; every comparison here is exact.
"""
from dataclasses import replace
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import query_oracle

from roomsense import clustering, store as store_module
from roomsense.clustering import _generator, _kmeanspp_init, kmeans, too_few_distinct
from roomsense.mapping import (
    DEFAULT_RESAMPLE_LEN,
    SWEEP_RESOLUTIONS,
    _margin_scores,
    build_feature_matrix,
    compute_ap_features,
    map_class_aps,
    map_classes,
    sample_grid,
)
from roomsense.pipeline import map_stage
from roomsense.records import ClassEvent, parse_stamp, to_minutes
from roomsense.store import batches
from roomsense.userfeatures import FEATURE_NAMES, extract_class_features

from conftest import DAY, make_session, pipeline_config, record_store, small_logs

ROSTERS = st.frozensets(st.sampled_from(["u1", "u2", "u3", "ghost"]))
MAPPED = st.frozensets(st.sampled_from(["ap1", "ap2", "ap10", "nosuch"]))


@st.composite
def class_events(draw):
    """A class of 21 minutes to 3 hours starting 8am-9pm, so some cross 9am or 9pm."""
    start = parse_stamp(f"{DAY} 08:00") + timedelta(minutes=draw(st.integers(0, 13 * 60)))
    return ClassEvent("c1", "room1", start, start + timedelta(minutes=draw(st.integers(21, 180))))


@st.composite
def class_lists(draw, extra=st.none()):
    """0-6 classes, each as (event, its own draw of `extra`), some on the day after DAY."""
    classes = []
    for i in range(draw(st.integers(0, 6))):
        event = draw(class_events())
        event = replace(event, class_id=f"c{i}")
        if draw(st.booleans()):
            event = replace(event, start=event.start + timedelta(days=1), end=event.end + timedelta(days=1))
        classes.append((event, draw(extra)))
    return classes


def one_class_counts(store, step, grid, member_ids):
    """`query_oracle.class_user_counts_at` on the times of a (first, count) grid."""
    first, count = grid
    return query_oracle.class_user_counts_at(store, first + step * np.arange(count), member_ids)


def assert_same_counts(new, old):
    """The same (total, members) arrays, to the shape and dtype."""
    for a, b in zip(new, old):
        assert a.dtype == b.dtype == np.int64 and a.shape == b.shape and np.array_equal(a, b)


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
        times = query_oracle.sample_times(event, resolution)
        ((total, members),) = store.user_counts_at(resolution, [sample_grid(event, resolution)], [member_ids])
        assert total.shape == members.shape == (len(store.table.ap_names), len(times))
        for code, ap in enumerate(store.table.ap_names):
            old_total, old_members = query_oracle.user_counts_at(store, ap, times, member_ids)
            assert np.array_equal(total[code], old_total)
            assert np.array_equal(members[code], old_members)
        (series,) = compute_ap_features(store, [event], [roster], resolution)
        assert_same_series(series, query_oracle.compute_ap_features(store, event, roster, resolution))

    @pytest.mark.parametrize(
        "first, last, covered",
        [
            ("10:59", "11:30", [1, 0]),  # only the first sample, by the longest interval
            ("09:30", "10:00", [0, 1]),  # only the last sample, by an interval starting there
        ],
    )
    def test_search_window_edges(self, store_builder, first, last, covered):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        first, last = (to_minutes(parse_stamp(f"{DAY} {at}")) for at in (first, last))
        ((total, members),) = store.user_counts_at(last - first, [(first, 2)], [store.user_ids({"u1"})])
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
        events = [
            ClassEvent(f"c{day}", "room1", start, start + timedelta(hours=2))
            for day in range(3)
            for start in [parse_stamp(f"{DAY} 09:00") + timedelta(days=day)]
        ]
        # the three days in one query
        counts = store.user_counts_at(1, [sample_grid(e, 1) for e in events], [member_ids] * 3)
        for event, (total, members) in zip(events, counts):
            times = query_oracle.sample_times(event, 1)
            for code, ap in enumerate(store.table.ap_names):
                old_total, old_members = query_oracle.user_counts_at(store, ap, times, member_ids)
                assert np.array_equal(total[code], old_total)
                assert np.array_equal(members[code], old_members)

    def test_times_outside_the_log_count_zero(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        ((total, members),) = store.user_counts_at(10**9, [(0, 2)], [store.user_ids({"u1"})])
        assert total.tolist() == members.tolist() == [[0, 0]]

    def test_no_class_and_an_empty_grid(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        assert store.user_counts_at(1, [], []) == []
        ((total, members),) = store.user_counts_at(1, [(0, 0)], [store.user_ids({"u1"})])
        assert total.shape == members.shape == (1, 0)


class TestManyClassCountsMatchOneClassOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        records=small_logs(),
        classes=class_lists(ROSTERS),
        resolution=st.sampled_from(SWEEP_RESOLUTIONS),
        batch=st.integers(1, 4),
    )
    @example(records=[], classes=[], resolution=1, batch=1)
    def test_generated_stores(self, records, classes, resolution, batch):
        """Empty and unknown-user rosters, classes without a featured AP, and
        classes on both sides of a batch boundary (`QUERY_BATCH` set to `batch`)."""
        store = record_store(records)
        events = [event for event, _ in classes]
        rosters = {event.class_id: roster for event, roster in classes}
        assume(all(e.duration_minutes >= 20 + resolution for e in events))
        grids = [sample_grid(e, resolution) for e in events]
        member_ids = [store.user_ids(rosters[e.class_id]) for e in events]
        counts = store.user_counts_at(resolution, grids, member_ids)
        assert len(counts) == len(events)
        for grid, ids, new in zip(grids, member_ids, counts):
            assert_same_counts(new, one_class_counts(store, resolution, grid, ids))
        with mock.patch.object(store_module, "QUERY_BATCH", batch):
            mapped = list(map_classes(store, events, rosters, resolution, algorithm="hierarchical"))
        for event, (result, (matrix, ap_names)) in zip(events, mapped, strict=True):
            series = query_oracle.compute_ap_features(store, event, rosters[event.class_id], resolution)
            expected, (expected_matrix, expected_names) = map_class_aps(
                event.class_id, series, algorithm="hierarchical"
            )
            assert result == expected and ap_names == expected_names
            assert matrix.tobytes() == expected_matrix.tobytes()

    def test_a_multi_day_session(self, store_builder):
        """A session over three days, against classes on each day and on the day after it."""
        store = store_builder(
            replace(make_session("u1", "ap1", "09:00", "10:00"), duration=3 * 24 * 60),
            make_session("u2", "ap1", "09:30", "10:30", mac="m2"),
        )
        starts = [parse_stamp(f"{DAY} 08:30") + timedelta(days=day, minutes=7 * day) for day in range(5)]
        events = [ClassEvent(f"c{i}", "room1", s, s + timedelta(minutes=95)) for i, s in enumerate(starts)]
        member_ids = [store.user_ids({"u1"})] * len(events)
        for resolution in SWEEP_RESOLUTIONS:
            grids = [sample_grid(e, resolution) for e in events]
            for grid, ids, new in zip(grids, member_ids, store.user_counts_at(resolution, grids, member_ids)):
                assert_same_counts(new, one_class_counts(store, resolution, grid, ids))


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

    @settings(max_examples=200, deadline=None)
    @given(
        matrices=st.lists(repeating_matrices(min_rows=2).filter(lambda X: not too_few_distinct(X)),
                          min_size=1, max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kmeans_draws_as_from_a_fresh_generator(self, matrices, seed):
        """One generator per seed, restored before each class: the same draws in the
        same order, the same `n_iter` and the same assignment as `default_rng(seed)`."""
        for X in matrices:
            new = kmeans(X, seed=seed)
            used = clustering._SEEDED.generators[seed][0].bit_generator.state
            fresh = np.random.default_rng(seed)
            _kmeanspp_init(X, fresh)
            assert used == fresh.bit_generator.state  # the same draws, in the same order
            with mock.patch.object(clustering, "_generator", np.random.default_rng):
                old = kmeans(X, seed=seed)
            assert new.n_iter == old.n_iter and new.sse_history == old.sse_history
            assert new.assignment.tobytes() == old.assignment.tobytes()
        rng = _generator(seed)
        assert _generator(seed) is rng
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state

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
        (features,) = extract_class_features(store, [event], [mapped]).classes
        assert_same_features(features, query_oracle.extract_class_features(store, event, mapped))

    @settings(max_examples=200, deadline=None)
    @given(records=small_logs(), classes=class_lists(MAPPED))
    @example(records=[], classes=[])
    @example(  # one user in two classes of one day: a (class, user) group each
        records=[make_session("u1", "ap1", "10:00", "11:00")],
        classes=[
            (ClassEvent(f"c{i}", "room1", parse_stamp(f"{DAY} 09:30"), parse_stamp(f"{DAY} {end}")),
             frozenset({"ap1"}))
            for i, end in enumerate(["10:30", "11:00"])
        ],
    )
    def test_many_classes(self, records, classes):
        """Empty mapped sets, unknown APs, classes crossing 9am or 9pm, and classes of another day."""
        store = record_store(records)
        events, mapped = [event for event, _ in classes], [aps for _, aps in classes]
        found = extract_class_features(store, events, mapped)
        assert len(found.classes) == len(events)
        assert len(found) == sum(map(len, found.classes))
        for event, aps, features in zip(events, mapped, found.classes):
            assert_same_features(features, query_oracle.class_features(store, event, aps))
            assert_same_features(features, query_oracle.extract_class_features(store, event, aps))

    def test_a_multi_day_session(self, store_builder):
        store = store_builder(
            replace(make_session("u1", "ap1", "08:00", "10:00"), duration=2 * 24 * 60 + 60),
            make_session("u2", "ap1", "09:30", "10:30", mac="m2", rssi=None),
            make_session("u1", "ap2", "20:30", "21:00", mac="m3"),
        )
        starts = [parse_stamp(f"{DAY} 08:30") + timedelta(days=day, hours=6 * day) for day in range(4)]
        events = [ClassEvent(f"c{i}", "room1", s, s + timedelta(minutes=95)) for i, s in enumerate(starts)]
        mapped = [frozenset({"ap1", "ap2"})] * len(events)
        for event, aps, features in zip(events, mapped, extract_class_features(store, events, mapped).classes):
            assert_same_features(features, query_oracle.extract_class_features(store, event, aps))


class TestSeed42Corpus:
    @pytest.mark.parametrize("resolution", [1, 10, 60])
    def test_ap_features_every_class(self, corpus42, resolution):
        events = [e for e in corpus42.events if e.duration_minutes >= 20 + resolution]
        assert len(batches(events)) > 1
        for batch in batches(events):
            rosters = [corpus42.rosters[e.class_id] for e in batch]
            for event, roster, new in zip(
                batch, rosters, compute_ap_features(corpus42.store, batch, rosters, resolution)
            ):
                assert_same_series(
                    new, query_oracle.compute_ap_features(corpus42.store, event, roster, resolution)
                )
                if new[0]:
                    assert_same_matrix(new[1], new[2], DEFAULT_RESAMPLE_LEN)

    @pytest.mark.parametrize("resolution", SWEEP_RESOLUTIONS)
    def test_counts_every_class_at_every_sweep_resolution(self, corpus42, resolution):
        store = corpus42.store
        events = [e for e in corpus42.events if e.duration_minutes >= 20 + resolution]
        for batch in batches(events):
            grids = [sample_grid(e, resolution) for e in batch]
            member_ids = [store.user_ids(corpus42.rosters[e.class_id]) for e in batch]
            for grid, ids, new in zip(grids, member_ids, store.user_counts_at(resolution, grids, member_ids)):
                assert_same_counts(new, one_class_counts(store, resolution, grid, ids))

    def test_user_features_under_the_pipeline_mapping(self, corpus42, corpus42_dir):
        results, _ = map_stage(corpus42, pipeline_config(corpus42_dir))
        assert len(batches(corpus42.events)) > 1
        for batch in batches(corpus42.events):
            mapped = [results[event.class_id].mapped for event in batch]
            found = extract_class_features(corpus42.store, batch, mapped)
            for event, aps, features in zip(batch, mapped, found.classes):
                assert_same_features(features, query_oracle.class_features(corpus42.store, event, aps))
                assert_same_features(
                    features, query_oracle.extract_class_features(corpus42.store, event, aps)
                )
