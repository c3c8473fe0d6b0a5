"""Per-user feature extraction, including the four worked trace examples."""
import numpy as np
import pytest

from roomsense.records import ClassEvent, parse_stamp
from roomsense.userfeatures import (
    AVG_RSSI,
    FEATURE_NAMES,
    extract_class_features,
    impute_rssi,
    label_vectors,
)

from conftest import DAY, make_session, record_store


def event(class_id="c1", start="11:00", end="14:00"):
    return ClassEvent(class_id, "room1", parse_stamp(f"{DAY} {start}"), parse_stamp(f"{DAY} {end}"))


AP = frozenset(["room-ap"])


def by_user(features) -> dict[str, dict[str, float]]:
    """An extracted class as {user: {feature name: value}}."""
    return {
        user: dict(zip(FEATURE_NAMES, row.tolist()))
        for user, row in zip(features.users, features.matrix)
    }


def user_features(store, event, user, aps=AP) -> dict[str, float] | None:
    """One user's features, or None when the user is not featured."""
    return by_user(extract_class_features(store, event, aps)).get(user)


def only_user(sessions) -> dict[str, float]:
    """The features of the single user of `sessions` in the default class."""
    (features,) = by_user(extract_class_features(record_store(sessions), event(), AP)).values()
    return features


def build_four_user_day():
    """Four users against a 1-hour class (9-10) and a 3-hour class (11-14)."""
    sessions = [
        # S1: two overlapping device sessions inside the 1-hour class
        make_session("S1", "room-ap", "09:20", "09:40", mac="s1:a"),
        make_session("S1", "room-ap", "09:30", "10:00", mac="s1:b"),
        # S2: 10 min before class3 plus 50 in; later 20 min after it
        make_session("S2", "room-ap", "10:50", "11:50", mac="s2:a"),
        make_session("S2", "room-ap", "14:20", "14:40", mac="s2:a"),
        # S3: a single 45-minute session inside class3
        make_session("S3", "room-ap", "12:00", "12:45", mac="s3:a"),
        # S4: seen through the day, 40 min inside class3 and 85 outside
        make_session("S4", "room-ap", "09:30", "10:30", mac="s4:a"),
        make_session("S4", "room-ap", "12:30", "13:10", mac="s4:a"),
        make_session("S4", "room-ap", "15:00", "15:25", mac="s4:a"),
    ]
    return record_store(sessions)


class TestWorkedExamples:
    def test_s1_one_hour_class(self):
        store = build_four_user_day()
        vec = user_features(store, event(start="09:00", end="10:00"), "S1")
        assert vec["t_in"] == pytest.approx(66.7, abs=0.05)
        assert vec["t_out"] == pytest.approx(0.0, abs=0.05)
        assert vec["n_devices"] == 2
        assert vec["n_sessions"] == 2
        assert vec["arrival_delay"] == 20

    def test_s2_three_hour_class(self):
        store = build_four_user_day()
        vec = user_features(store, event(), "S2")
        assert vec["t_in"] == pytest.approx(27.8, abs=0.05)
        assert vec["t_out"] == pytest.approx(5.6, abs=0.05)

    def test_s3_three_hour_class(self):
        store = build_four_user_day()
        vec = user_features(store, event(), "S3")
        assert vec["t_in"] == pytest.approx(25.0, abs=0.05)
        assert vec["t_out"] == pytest.approx(0.0, abs=0.05)

    def test_s4_three_hour_class(self):
        store = build_four_user_day()
        vec = user_features(store, event(), "S4")
        assert vec["t_in"] == pytest.approx(22.2, abs=0.05)
        assert vec["t_out"] == pytest.approx(15.7, abs=0.05)


class TestExtraction:
    def test_unfeatured_user_skipped_not_bystander(self):
        store = build_four_user_day()
        assert user_features(store, event(), "S1") is None
        assert extract_class_features(store, event(), AP).users == ["S2", "S3", "S4"]

    def test_t_in_capped_at_100_with_many_devices(self):
        sessions = [
            make_session("u", "room-ap", "10:55", "14:05", mac=f"d{i}") for i in range(4)
        ]
        vec = only_user(sessions)
        assert vec["t_in"] == pytest.approx(100.0)
        assert vec["n_devices"] == 4

    def test_out_time_window_is_9_to_21(self):
        sessions = [
            make_session("u", "room-ap", "12:00", "12:30"),  # featured
            make_session("u", "room-ap", "07:00", "08:00"),  # before teaching day
            make_session("u", "room-ap", "20:30", "21:40"),  # clipped at 21:00
        ]
        vec = only_user(sessions)
        # only the 20:30-21:00 slice counts: 30 / (720 - 180)
        assert vec["t_out"] == pytest.approx(100.0 * 30 / 540)

    def test_early_connector_gets_zero_arrival_delay(self):
        sessions = [make_session("u", "room-ap", "10:30", "12:00")]
        vec = only_user(sessions)
        assert vec["arrival_delay"] == 0.0

    def test_mean_rssi_magnitude(self):
        sessions = [
            make_session("u", "room-ap", "11:10", "11:40", rssi=-60, mac="a"),
            make_session("u", "room-ap", "12:10", "12:40", rssi=-70, mac="a"),
        ]
        vec = only_user(sessions)
        assert vec["avg_rssi"] == pytest.approx(65.0)

    def test_sessions_off_mapped_aps_ignored(self):
        sessions = [
            make_session("u", "room-ap", "11:10", "11:40"),
            make_session("u", "elsewhere", "12:00", "13:00"),
        ]
        vec = only_user(sessions)
        assert vec["t_in"] == pytest.approx(100.0 * 30 / 180)
        assert vec["n_sessions"] == 1

    def test_empty_mapped_set_features_nobody(self):
        store = build_four_user_day()
        features = extract_class_features(store, event(), frozenset())
        assert len(features) == 0 and features.matrix.shape == (0, len(FEATURE_NAMES))


class TestLabelsAndImputation:
    def test_label_vectors(self):
        store = build_four_user_day()
        features = extract_class_features(store, event(), AP)
        assert features.occupant.tolist() == [False, False, False]
        label_vectors(features, frozenset(["S2", "S3", "nobody"]))
        assert dict(zip(features.users, features.occupant.tolist())) == {
            "S2": True,
            "S3": True,
            "S4": False,
        }

    def test_missing_rssi_imputed_with_corpus_mean_and_flagged(self):
        sessions = [
            make_session("u1", "room-ap", "11:10", "11:40", rssi=-60),
            make_session("u2", "room-ap", "11:10", "11:40", rssi=-70, mac="b"),
            make_session("u3", "room-ap", "11:10", "11:40", rssi=None, mac="c"),
        ]
        features = extract_class_features(record_store(sessions), event(), AP)
        assert np.isnan(features.matrix[:, AVG_RSSI]).tolist() == [False, False, True]
        empty = extract_class_features(record_store(sessions), event(), frozenset())
        fill = impute_rssi([features, empty])
        assert fill == pytest.approx(65.0)
        assert features.matrix[:, AVG_RSSI].tolist() == pytest.approx([60.0, 70.0, 65.0])

    def test_impute_with_explicit_fill(self):
        sessions = [make_session("u", "room-ap", "11:10", "11:40", rssi=None)]
        features = extract_class_features(record_store(sessions), event(), AP)
        assert impute_rssi([features], 58.5) == 58.5
        assert features.matrix[0, AVG_RSSI] == pytest.approx(58.5)
        assert impute_rssi([]) == 0.0
