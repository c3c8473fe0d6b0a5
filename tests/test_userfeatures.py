"""Per-user feature extraction, including the four worked trace examples."""
import pytest

from roomsense.records import BYSTANDER, OCCUPANT, ClassEvent, parse_stamp
from roomsense.userfeatures import (
    extract_class_features,
    extract_user_features,
    impute_rssi,
    label_user,
    label_vectors,
)

from conftest import DAY, make_session, record_store


def event(class_id="c1", start="11:00", end="14:00"):
    return ClassEvent(class_id, "room1", parse_stamp(f"{DAY} {start}"), parse_stamp(f"{DAY} {end}"))


AP = frozenset(["room-ap"])


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
        vec = extract_user_features(store, event(start="09:00", end="10:00"), AP, "S1")
        assert vec.t_in == pytest.approx(66.7, abs=0.05)
        assert vec.t_out == pytest.approx(0.0, abs=0.05)
        assert vec.n_devices == 2
        assert vec.n_sessions == 2
        assert vec.arrival_delay == 20

    def test_s2_three_hour_class(self):
        store = build_four_user_day()
        vec = extract_user_features(store, event(), AP, "S2")
        assert vec.t_in == pytest.approx(27.8, abs=0.05)
        assert vec.t_out == pytest.approx(5.6, abs=0.05)

    def test_s3_three_hour_class(self):
        store = build_four_user_day()
        vec = extract_user_features(store, event(), AP, "S3")
        assert vec.t_in == pytest.approx(25.0, abs=0.05)
        assert vec.t_out == pytest.approx(0.0, abs=0.05)

    def test_s4_three_hour_class(self):
        store = build_four_user_day()
        vec = extract_user_features(store, event(), AP, "S4")
        assert vec.t_in == pytest.approx(22.2, abs=0.05)
        assert vec.t_out == pytest.approx(15.7, abs=0.05)


class TestExtraction:
    def test_unfeatured_user_skipped_not_bystander(self):
        store = build_four_user_day()
        assert extract_user_features(store, event(), AP, "S1") is None
        vectors = extract_class_features(store, event(), AP)
        assert sorted(v.user_id for v in vectors) == ["S2", "S3", "S4"]

    def test_t_in_capped_at_100_with_many_devices(self):
        sessions = [
            make_session("u", "room-ap", "10:55", "14:05", mac=f"d{i}") for i in range(4)
        ]
        vec = extract_class_features(record_store(sessions), event(), AP)[0]
        assert vec.t_in == pytest.approx(100.0)
        assert vec.n_devices == 4

    def test_out_time_window_is_9_to_21(self):
        sessions = [
            make_session("u", "room-ap", "12:00", "12:30"),  # featured
            make_session("u", "room-ap", "07:00", "08:00"),  # before teaching day
            make_session("u", "room-ap", "20:30", "21:40"),  # clipped at 21:00
        ]
        vec = extract_class_features(record_store(sessions), event(), AP)[0]
        # only the 20:30-21:00 slice counts: 30 / (720 - 180)
        assert vec.t_out == pytest.approx(100.0 * 30 / 540)

    def test_early_connector_gets_zero_arrival_delay(self):
        sessions = [make_session("u", "room-ap", "10:30", "12:00")]
        vec = extract_class_features(record_store(sessions), event(), AP)[0]
        assert vec.arrival_delay == 0.0

    def test_mean_rssi_magnitude(self):
        sessions = [
            make_session("u", "room-ap", "11:10", "11:40", rssi=-60, mac="a"),
            make_session("u", "room-ap", "12:10", "12:40", rssi=-70, mac="a"),
        ]
        vec = extract_class_features(record_store(sessions), event(), AP)[0]
        assert vec.avg_rssi == pytest.approx(65.0)

    def test_sessions_off_mapped_aps_ignored(self):
        sessions = [
            make_session("u", "room-ap", "11:10", "11:40"),
            make_session("u", "elsewhere", "12:00", "13:00"),
        ]
        vec = extract_class_features(record_store(sessions), event(), AP)[0]
        assert vec.t_in == pytest.approx(100.0 * 30 / 180)
        assert vec.n_sessions == 1

    def test_empty_mapped_set_features_nobody(self):
        store = build_four_user_day()
        assert extract_class_features(store, event(), frozenset()) == []


class TestLabelsAndImputation:
    def test_label_user(self):
        assert label_user("u1", frozenset(["u1"])) == OCCUPANT
        assert label_user("u2", frozenset(["u1"])) == BYSTANDER

    def test_label_vectors(self):
        store = build_four_user_day()
        vectors = label_vectors(
            extract_class_features(store, event(), AP), frozenset(["S2", "S3"])
        )
        labels = {v.user_id: v.label for v in vectors}
        assert labels == {"S2": OCCUPANT, "S3": OCCUPANT, "S4": BYSTANDER}

    def test_missing_rssi_imputed_with_corpus_mean_and_flagged(self):
        sessions = [
            make_session("u1", "room-ap", "11:10", "11:40", rssi=-60),
            make_session("u2", "room-ap", "11:10", "11:40", rssi=-70, mac="b"),
            make_session("u3", "room-ap", "11:10", "11:40", rssi=None, mac="c"),
        ]
        vectors = extract_class_features(record_store(sessions), event(), AP)
        fill = impute_rssi(vectors)
        assert fill == pytest.approx(65.0)
        by_user = {v.user_id: v for v in vectors}
        assert by_user["u3"].avg_rssi == pytest.approx(65.0)
        assert by_user["u3"].rssi_imputed
        assert not by_user["u1"].rssi_imputed

    def test_impute_with_explicit_fill(self):
        sessions = [make_session("u", "room-ap", "11:10", "11:40", rssi=None)]
        vectors = extract_class_features(record_store(sessions), event(), AP)
        impute_rssi(vectors, 58.5)
        assert vectors[0].avg_rssi == pytest.approx(58.5)
