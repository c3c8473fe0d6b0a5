"""Synthetic campus generator: determinism, conservation, closure, round-trips."""
import filecmp
import os
import tempfile
from datetime import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sim_oracle

from roomsense.records import ConfigError, to_minutes
from roomsense.simulate import (
    SIM_BOUNDS,
    SimConfig,
    generate_campus,
    load_ground_truth_counts,
    simulate_corpus,
    simulate_sessions,
    write_sessions_csv,
)
from roomsense.store import load_sessions

FAST = dict(seed=11, weeks=2, room_capacities=(42, 110), classes_per_room_per_week=2)

# Late evenings before a midnight, a month end, 29 February and a year end.
STAMP_ANCHORS = [
    datetime(2025, 3, 3, 22, 0),
    datetime(2025, 3, 31, 23, 0),
    datetime(2025, 4, 30, 22, 30),
    datetime(2024, 2, 28, 23, 30),
    datetime(2024, 2, 29, 23, 0),
    datetime(2025, 2, 28, 23, 30),
    datetime(2024, 12, 31, 23, 0),
]
# The MAC packs the user index into three bytes.
USER_INDICES = st.one_of(st.integers(0, 0xFFFF), st.integers(0x10000, 0xFFFFFF))
AP_NAMES = st.sampled_from(["ap1", "bldA-f1-cor1", "a,b", "a;b", "a\tb", 'q"uote', "sp ace"])


@st.composite
def session_rows(draw):
    """Rows in `simulate_sessions` layout, drawn from small pools so that
    stamps, users and durations repeat across rows with different partners."""
    minutes = draw(
        st.lists(
            st.builds(
                lambda anchor, offset: to_minutes(anchor) + offset,
                st.sampled_from(STAMP_ANCHORS),
                st.integers(-90, 150),
            ),
            min_size=1,
            max_size=6,
        )
    )
    users = draw(st.lists(USER_INDICES.map("u{:05d}".format), min_size=1, max_size=4))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        start = draw(st.sampled_from(minutes))
        end = draw(st.one_of(st.sampled_from(minutes), st.integers(start + 1, start + 1500)))
        rows.append(
            (
                start,
                draw(st.sampled_from(users)),
                draw(st.integers(0, 3)),
                draw(AP_NAMES),
                max(end, start + 1),
                draw(st.booleans()),
                draw(st.integers(-95, -30)),
                draw(st.integers(5, 60)),
                draw(st.integers(0, 10**7)),
                draw(st.integers(0, 10**7)),
            )
        )
    return rows


def _both_writers(rows, delimiter=","):
    """The bytes of the memoised writer's file and of the per-row oracle's."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        write_sessions_csv(new, rows, delimiter=delimiter)
        sim_oracle.write_sessions_csv(old, rows, delimiter=delimiter)
        with open(new, "rb") as a, open(old, "rb") as b:
            return a.read(), b.read()


class TestGenerateCampus:
    def test_paper_room_capacities_echoed(self):
        campus = generate_campus(SimConfig(seed=1))
        caps = sorted(r.capacity for r in campus.rooms)
        assert caps == [42, 42, 110, 231, 246, 472, 497]

    def test_seed_repeatable(self):
        a = generate_campus(SimConfig(**FAST))
        b = generate_campus(SimConfig(**FAST))
        assert [r.room_id for r in a.rooms] == [r.room_id for r in b.rooms]
        assert a.rosters == b.rosters
        assert [(e.class_id, e.start) for e in a.events] == [
            (e.class_id, e.start) for e in b.events
        ]

    def test_one_room_one_class(self):
        config = SimConfig(seed=2, weeks=1, room_capacities=(50,), classes_per_room_per_week=1)
        campus = generate_campus(config)
        assert len(campus.events) == 1
        assert len(campus.rooms) == 1

    def test_no_double_booked_rooms(self):
        campus = generate_campus(SimConfig(seed=3))
        by_room_day = {}
        for event in campus.events:
            key = (event.room_id, event.date)
            for start, end in by_room_day.get(key, []):
                assert not (event.start < end and event.end > start)
            by_room_day.setdefault(key, []).append((event.start, event.end))

    def test_allowed_durations_only(self):
        campus = generate_campus(SimConfig(seed=4))
        assert {e.duration_minutes for e in campus.events} <= {30, 60, 90, 120, 150, 180, 240}

    def test_zero_rooms_rejected(self):
        with pytest.raises(ConfigError):
            generate_campus(SimConfig(seed=0, room_capacities=()))

    def test_bad_probability_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(seed=0, non_connect_prob=1.5).validate()

    @pytest.mark.parametrize(
        "setting",
        [
            {"churn_gap_minutes": (5, 1)},  # an empty randint range
            {"churn_gap_minutes": (-10, -6)},  # stepped time backwards for ever
            {"bystander_dwell_mean": 0.0},  # divided by zero
            {"room_ap_counts": (3,)},  # one count for two rooms
            {"room_ap_counts": (0, 3)},  # a room without an AP
            {"corridor_aps_per_room": 0},
            {"walkway_ap_count": 0},
            {"days_per_week": 1_000_000_000},  # overflowed the class dates
            {"weeks": 1_000_000},
            {"device_count_weights": {1_000_000: 1.0}},  # ran for hours
            {"early_arrival_limit": 1_000_000_000, "arrival_mean": -1e9},
            {"depart_sd": 1e9},
        ],
    )
    def test_settings_that_crashed_the_simulator_rejected(self, setting):
        with pytest.raises(ConfigError):
            SimConfig(**{"seed": 0, "weeks": 1, "room_capacities": (42, 60), **setting}).validate()

    @pytest.mark.parametrize("name", sorted(SIM_BOUNDS))
    @pytest.mark.parametrize("end", [0, 1])
    def test_each_bound_is_inclusive(self, name, end):
        """A setting at its bound is accepted, one step beyond it is refused."""
        value = SIM_BOUNDS[name][end]
        beyond = value + (1 if end else -1)
        shape = {"room_capacities": lambda v: (v, 60), "room_ap_counts": lambda v: (v, 3),
                 "device_count_weights": lambda v: {v: 1.0}}.get(name, lambda v: v)
        SimConfig(**{**FAST, name: shape(value)}).validate()
        with pytest.raises(ConfigError, match=f"{name} must lie in"):
            SimConfig(**{**FAST, name: shape(beyond)}).validate()


class TestSimulateSessions:
    def test_determinism_byte_identical(self, tmp_path):
        config = SimConfig(**FAST)
        simulate_corpus(config, tmp_path / "a")
        simulate_corpus(config, tmp_path / "b")
        for name in (
            "sessions.csv",
            "timetable.csv",
            "roster.csv",
            "inventory.csv",
            "ground_truth_users.csv",
            "ground_truth_counts.csv",
        ):
            assert filecmp.cmp(tmp_path / "a" / name, tmp_path / "b" / name, shallow=False), name

    def test_conservation_per_class(self):
        campus = generate_campus(SimConfig(**FAST))
        rows, truth = simulate_sessions(campus, SimConfig(**FAST))
        users_with_sessions = {}
        for row in rows:
            users_with_sessions.setdefault(row[1], []).append(row)
        for class_id, attendees in truth.attendees.items():
            silent = truth.non_connecting[class_id]
            assert silent <= attendees
            connecting = attendees - silent
            for user in connecting:
                assert user in users_with_sessions, f"{user} attended but never appears"
            assert len(connecting) + len(silent) == truth.count(class_id)

    def test_every_ap_and_user_known(self):
        campus = generate_campus(SimConfig(**FAST))
        rows, _ = simulate_sessions(campus, SimConfig(**FAST))
        population = set(campus.population)
        for row in rows:
            assert row[3] in campus.inventory
            assert row[1] in population

    def test_round_trip_through_loader_zero_rejects(self, tmp_path):
        simulate_corpus(SimConfig(**FAST), tmp_path)
        records, report = load_sessions(tmp_path / "sessions.csv")
        assert report.rejects == []
        assert len(records) > 100

    def test_attendees_subset_of_roster_by_default(self):
        campus = generate_campus(SimConfig(**FAST))
        _, truth = simulate_sessions(campus, SimConfig(**FAST))
        for class_id, attendees in truth.attendees.items():
            assert attendees <= campus.rosters[class_id]

    def test_walkins_injected_when_enabled(self):
        config = SimConfig(walkin_prob=0.2, **FAST)
        campus = generate_campus(config)
        _, truth = simulate_sessions(campus, config)
        outside = sum(
            len(truth.attendees[cid] - campus.rosters[cid]) for cid in truth.attendees
        )
        assert outside > 0

    def test_zero_churn_single_device_full_attendance_single_session(self):
        config = SimConfig(
            seed=5,
            weeks=1,
            room_capacities=(40,),
            classes_per_room_per_week=1,
            churn_prob_per_10min=0.0,
            device_count_weights={1: 1.0},
            attendance_ratio=(1.0, 1.0),
            non_connect_prob=0.0,
            lingerer_prob=0.0,
            remote_prob=0.0,
            cross_room_attach_prob=0.0,
            near_room_attach_prob=0.0,
            bystander_rate_per_hour=0.0,
            walkway_bystander_rate_per_hour=0.0,
            ambient_per_corridor_ap=0.0,
            ambient_per_walkway_ap=0.0,
            idle_room_users_per_ap=0.0,
        )
        campus = generate_campus(config)
        rows, truth = simulate_sessions(campus, config)
        class_id = campus.events[0].class_id
        per_user = {}
        for row in rows:
            per_user.setdefault(row[1], []).append(row)
        for user in truth.attendees[class_id]:
            assert len(per_user[user]) == 1

    def test_bystanderless_config_only_occupants_on_room_aps(self):
        config = SimConfig(
            seed=6,
            weeks=1,
            room_capacities=(60,),
            classes_per_room_per_week=1,
            bystander_rate_per_hour=0.0,
            walkway_bystander_rate_per_hour=0.0,
            ambient_per_corridor_ap=0.0,
            ambient_per_walkway_ap=0.0,
            idle_room_users_per_ap=0.0,
            cross_room_attach_prob=0.0,
            lingerer_prob=0.0,
            remote_prob=0.0,
        )
        campus = generate_campus(config)
        rows, truth = simulate_sessions(campus, config)
        room_aps = set(campus.rooms[0].aps)
        attendees = set().union(*truth.attendees.values())
        for row in rows:
            if row[3] in room_aps:
                assert row[1] in attendees

    def test_sessions_cut_at_report_time_marked_ongoing(self):
        config = SimConfig(**FAST)
        campus = generate_campus(config)
        rows, _ = simulate_sessions(campus, config)
        report_minute = 21 * 60
        for start, user, device, ap, end, ongoing, *_ in rows:
            assert end - (end // 1440) * 1440 <= report_minute
            if ongoing:
                assert end - (end // 1440) * 1440 == report_minute


class TestGroundTruthCounts:
    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("class_id,true_count\n\nc1,3\n , \nc2,0\n")
        assert load_ground_truth_counts(path) == {"c1": 3, "c2": 0}


class TestWriterMatchesOracle:
    @settings(max_examples=200, deadline=None)
    @given(rows=session_rows(), delimiter=st.sampled_from([",", ";", "\t"]))
    def test_generated_rows(self, rows, delimiter):
        new, old = _both_writers(rows, delimiter)
        assert new == old

    def test_small_corpus(self):
        config = SimConfig(**FAST)
        rows, _ = simulate_sessions(generate_campus(config), config)
        new, old = _both_writers(rows)
        assert new == old
        assert new.count(b"\n") == len(rows) + 1


class TestDefaultCorpus:
    def test_at_least_200_classes(self, sim42):
        _, campus, _ = sim42
        assert len(campus.events) >= 200

    def test_non_connecting_fraction_near_configured(self, sim42):
        _, _, truth = sim42
        total = sum(len(v) for v in truth.attendees.values())
        silent = sum(len(v) for v in truth.non_connecting.values())
        assert abs(silent / total - 0.18) <= 0.03

    def test_rosters_stable_across_weeks(self, sim42):
        _, campus, _ = sim42
        by_course = {}
        for class_id, roster in campus.rosters.items():
            course = class_id.rsplit("-w", 1)[0]
            by_course.setdefault(course, set()).add(roster)
        assert all(len(rosters) == 1 for rosters in by_course.values())
