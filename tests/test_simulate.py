"""Synthetic campus generator: determinism, conservation, closure, round-trips."""
import contextlib
import filecmp
import hashlib
import io
import math
import multiprocessing
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter
from datetime import datetime
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sim_oracle

from roomsense.cli import main
from roomsense.records import REPORT_HOUR, TEACHING_DAY_START_MIN, ConfigError, to_minutes
from roomsense.simulate import (
    CLASS_STARTS_PER_DAY,
    MAX_ROOMS,
    MAX_SESSION_ROWS,
    MAX_WALKIN_SCANS,
    POISSON_SPLIT,
    SIM_BOUNDS,
    SimConfig,
    _poisson,
    _Random,
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


def _both_writers(rows):
    """The bytes of the memoised writer's file and of the per-row oracle's."""
    with tempfile.TemporaryDirectory() as tmp:
        new, old = os.path.join(tmp, "new.csv"), os.path.join(tmp, "old.csv")
        write_sessions_csv(new, rows)
        sim_oracle.write_sessions_csv(old, rows)
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
            {"churn_prob_per_10min": 1e9},  # a probability; 1e9 quadrupled the work
            {"churn_prob_per_10min": 1.01},
            {"churn_prob_per_10min": -0.1},
            {"bystander_rate_per_hour": 1e300},  # planted a capped ~745 passersby
            {"idle_room_users_per_ap": -1.0},
            {"churn_gap_minutes": (0.0, 4.0)},  # integer draws take whole numbers
            {"days_per_week": 5.0},
        ],
    )
    def test_settings_that_crashed_the_simulator_rejected(self, setting):
        with pytest.raises(ConfigError):
            SimConfig(**{"seed": 0, "weeks": 1, "room_capacities": (42, 60), **setting}).validate()

    def test_churn_probability_out_of_range_is_exit_1(self, tmp_path):
        config = tmp_path / "sim.cfg"
        config.write_text("weeks = 1\nchurn_prob_per_10min = 1e9\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.getvalue() == "error: probabilities must lie in [0, 1]\n"
        assert not (tmp_path / "out").exists()

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


def _weekly_courses(campus) -> list[Counter]:
    """Each room's courses as a one-week timetable drew them: {(class minutes, enrolled seats): count}."""
    courses = {room.room_id: Counter() for room in campus.rooms}
    for event in campus.events:
        minutes = to_minutes(event.end) - to_minutes(event.start)
        courses[event.room_id][minutes, len(campus.rosters[event.class_id])] += 1
    return [courses[room.room_id] for room in campus.rooms]


class TestSimulatorWork:
    """The room count, the weekly classes and the estimated log size are bounded."""

    def test_room_count_bound(self):
        SimConfig(seed=0, weeks=1, room_capacities=(10,) * MAX_ROOMS, classes_per_room_per_week=1).validate()
        with pytest.raises(ConfigError, match=f"1..{MAX_ROOMS} rooms"):
            SimConfig(seed=0, weeks=1, room_capacities=(10,) * (MAX_ROOMS + 1)).validate()

    @pytest.mark.parametrize("days", [1, 5, 7])
    def test_weekly_classes_bounded_by_the_class_starts(self, days):
        slots = days * CLASS_STARTS_PER_DAY
        SimConfig(**{**FAST, "days_per_week": days, "classes_per_room_per_week": slots}).validate()
        for classes in (0, slots + 1, 1_000_000):
            with pytest.raises(ConfigError, match="classes_per_room_per_week must lie in"):
                SimConfig(**{**FAST, "days_per_week": days, "classes_per_room_per_week": classes}).validate()

    def test_every_key_at_its_bound_is_refused(self):
        highs = {name: high for name, (_, high) in SIM_BOUNDS.items()}
        config = SimConfig(
            seed=5, weeks=highs["weeks"], days_per_week=highs["days_per_week"],
            room_capacities=(highs["room_capacities"],) * MAX_ROOMS,
            room_ap_counts=(highs["room_ap_counts"],) * MAX_ROOMS,
            corridor_aps_per_room=highs["corridor_aps_per_room"], walkway_ap_count=highs["walkway_ap_count"],
            device_count_weights={highs["device_count_weights"]: 1.0},
            early_arrival_limit=highs["early_arrival_limit"], depart_sd=highs["depart_sd"],
            bystander_rate_per_hour=highs["bystander_rate_per_hour"],
            walkway_bystander_rate_per_hour=highs["walkway_bystander_rate_per_hour"],
            ambient_per_corridor_ap=highs["ambient_per_corridor_ap"],
            ambient_per_walkway_ap=highs["ambient_per_walkway_ap"],
            idle_room_users_per_ap=highs["idle_room_users_per_ap"],
        )
        with pytest.raises(ConfigError, match="session rows"):
            config.validate()

    def test_a_config_over_the_row_limit_is_exit_1(self, tmp_path):
        config = tmp_path / "sim.cfg"
        # the tiny config of the exit-code tests with four keys at their bounds; it once
        # took 30 s and wrote 2.4M rows
        config.write_text(
            "weeks = 52\ndays_per_week = 7\nroom_capacities = 42,60\nclasses_per_room_per_week = 2\n"
            "walkway_ap_count = 64\ncorridor_aps_per_room = 64\n"
        )
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.getvalue().startswith("error: this config would write about ")
        assert err.getvalue().endswith(f"session rows; the limit is {MAX_SESSION_ROWS}\n")
        assert not (tmp_path / "out").exists()

    def test_walkin_scans_over_the_limit_are_exit_1(self, tmp_path):
        config = tmp_path / "sim.cfg"
        # no rows to write, yet each of the 800 classes scanned all 90,000 users for walk-ins
        config.write_text(
            "walkin_prob = 0.5\nroom_capacities = " + ",".join(["1000"] * 10) + "\n"
            "classes_per_room_per_week = 20\nweeks = 4\nattendance_ratio = 0,0\nnon_connect_prob = 1\n"
            "bystander_rate_per_hour = 0\nwalkway_bystander_rate_per_hour = 0\nambient_per_corridor_ap = 0\n"
            "ambient_per_walkway_ap = 0\nidle_room_users_per_ap = 0\n"
        )
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
        assert code == 1
        assert err.getvalue() == (
            "error: this config's walk-ins would scan 7.2e+07 users (classes x population); "
            f"the limit is {MAX_WALKIN_SCANS}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_a_year_of_the_default_campus_with_walkins_passes(self):
        SimConfig(weeks=52, days_per_week=7, walkin_prob=0.3).validate()  # 2.4M walk-in scans

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        days=st.integers(1, 7),
        capacities=st.lists(st.integers(2, 150), min_size=1, max_size=4),
        classes=st.integers(1, 4),
        rates=st.tuples(st.floats(0, 30), st.floats(0, 30), st.floats(0, 5), st.floats(0, 5), st.floats(0, 5)),
        churn=st.floats(0, 1),
        attendance=st.floats(0, 1),
        walkins=st.sampled_from([0.0, 0.5, 1.0]),
    )
    # Every attendee brings one walk-in, and nothing else writes rows.
    @example(seed=0, days=1, capacities=[9], classes=2, rates=(0.0,) * 5, churn=1.0, attendance=1.0, walkins=1.0)
    # Only class rows, from one class much longer and one much shorter than the mean.
    @example(seed=231, days=1, capacities=[11], classes=1, rates=(0.0,) * 5, churn=1.0, attendance=1.0, walkins=0.0)
    @example(seed=4, days=1, capacities=[19], classes=1, rates=(0.0,) * 5, churn=1.0, attendance=1.0, walkins=0.5)
    # A packed day of mostly 60-minute classes.
    @example(seed=26, days=1, capacities=[72, 126, 9, 57], classes=4, rates=(0.0,) * 5, churn=1.0,
             attendance=1.0, walkins=0.0)
    def test_estimate_tracks_the_rows_written(
        self, seed, days, capacities, classes, rates, churn, attendance, walkins
    ):
        """Counting every day, the estimate may run high only by the days without a class.

        The estimate is given the class lengths and enrolments the timetable
        drew, which can lie far from the expected ones on a small campus.
        """
        classes = min(classes, days * CLASS_STARTS_PER_DAY)
        config = SimConfig(
            seed=seed, weeks=1, days_per_week=days, room_capacities=tuple(capacities),
            classes_per_room_per_week=classes, walkway_ap_count=2,
            bystander_rate_per_hour=rates[0], walkway_bystander_rate_per_hour=rates[1],
            ambient_per_corridor_ap=rates[2], ambient_per_walkway_ap=rates[3], idle_room_users_per_ap=rates[4],
            churn_prob_per_10min=churn, attendance_ratio=(attendance, attendance), walkin_prob=walkins,
        )
        campus = generate_campus(config)
        rows, _ = simulate_sessions(campus, config)
        estimate = config.estimated_session_rows(_weekly_courses(campus))
        class_days = len({e.date for e in campus.events}) / days
        assert len(rows) <= 1.3 * estimate + 60
        assert len(rows) >= 0.6 * class_days * estimate - 60


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
        report_minute = REPORT_HOUR * 60
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
    @given(rows=session_rows())
    def test_generated_rows(self, rows):
        new, old = _both_writers(rows)
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


def _campus_facts(campus) -> tuple:
    """Everything a `Campus` holds, in comparable form."""
    return (
        [(r.room_id, r.building, r.floor, r.capacity, r.aps, r.corner_aps, r.corridor_aps)
         for r in campus.rooms],
        [(ap, campus.inventory.location(ap)) for ap in campus.inventory],
        campus.events,
        campus.rosters,
        campus.population,
        campus.walkway_aps,
    )


@st.composite
def small_configs(draw) -> SimConfig:
    """One-week simulator configs of one to three small rooms, drawn so that
    every branch of the simulator is reached across examples."""
    n_rooms = draw(st.integers(1, 3))
    capacities = tuple(draw(st.integers(2, 40)) for _ in range(n_rooms))
    ap_counts = draw(st.none() | st.just(tuple(draw(st.integers(1, 8)) for _ in range(n_rooms))))
    return SimConfig(
        seed=draw(st.integers(0, 2**32)),
        weeks=1,
        days_per_week=draw(st.integers(1, 3)),
        room_capacities=capacities,
        room_ap_counts=ap_counts,
        corner_ap_fraction=draw(st.sampled_from([0.0, 0.15, 0.5])),
        corner_ap_weight=draw(st.sampled_from([0.3, 1.0, 2.5])),
        corridor_aps_per_room=draw(st.integers(1, 2)),
        walkway_ap_count=draw(st.integers(1, 3)),
        classes_per_room_per_week=draw(st.integers(1, 2)),
        device_count_weights=draw(st.sampled_from([{1: 1.0}, {1: 0.55, 2: 0.35, 3: 0.1}, {3: 1.0}])),
        churn_prob_per_10min=draw(st.sampled_from([0.0, 0.22, 1.0])),
        churn_gap_minutes=draw(st.sampled_from([(0, 4), (0, 0), (3, 9)])),
        sticky_ap_prob=draw(st.sampled_from([0.0, 0.6, 1.0])),
        cross_room_attach_prob=draw(st.sampled_from([0.0, 0.015, 0.5, 1.0])),
        near_room_attach_prob=draw(st.sampled_from([0.0, 0.12, 1.0])),
        arrival_mean=draw(st.sampled_from([8.0, -30.0, -1000.0])),
        early_arrival_limit=draw(st.sampled_from([15, 240])),
        depart_sd=draw(st.sampled_from([0.0, 4.0, 40.0])),
        bystander_rate_per_hour=draw(st.sampled_from([0.0, 2.0, 10.0])),
        walkway_bystander_rate_per_hour=draw(st.sampled_from([0.0, 8.0])),
        bystander_in_room_prob=draw(st.sampled_from([0.0, 0.15, 1.0])),
        lingerer_prob=draw(st.sampled_from([0.0, 0.35, 1.0])),
        remote_prob=draw(st.sampled_from([0.0, 0.12, 1.0])),
        ambient_per_corridor_ap=draw(st.sampled_from([0.0, 2.0])),
        ambient_per_walkway_ap=draw(st.sampled_from([0.0, 2.0])),
        idle_room_users_per_ap=draw(st.sampled_from([0.0, 1.5])),
        walkin_prob=draw(st.sampled_from([0.0, 0.3])),
    )


# Each example reaches one branch for certain: walk-ins, no churn, every
# attendee in a neighbouring room, corner weights, several devices, the base
# config alone, some of whose sessions run past the 21:00 report time and are
# cut there and marked ongoing, and every attendee of a seven-day week
# arriving at the earliest a config allows, 240 minutes before class.
BRANCH_BASE = dict(seed=3, weeks=1, room_capacities=(30, 12))
BRANCHES = [
    dict(walkin_prob=0.3),
    dict(churn_prob_per_10min=0.0),
    dict(cross_room_attach_prob=1.0, sticky_ap_prob=0.0, idle_room_users_per_ap=0.0,
         lingerer_prob=0.0, bystander_in_room_prob=0.0),
    dict(room_ap_counts=(7, 3), corner_ap_fraction=0.5, corner_ap_weight=2.5,
         cross_room_attach_prob=0.0, near_room_attach_prob=0.0),
    dict(device_count_weights={1: 0.2, 2: 0.3, 3: 0.5}),
    dict(),
    dict(days_per_week=7, early_arrival_limit=240, arrival_mean=-1000.0),
]


class TestSimulatorMatchesOracle:
    """The simulator makes the draws of the loops it replaced, in their order."""

    @staticmethod
    def _check(config: SimConfig):
        """(campus, rows, truth), after requiring that the oracle gives the same."""
        campus = generate_campus(config)
        assert _campus_facts(campus) == _campus_facts(sim_oracle.generate_campus(config))
        rows, truth = simulate_sessions(campus, config)
        old_rows, old_truth = sim_oracle.simulate_sessions(campus, config)
        assert rows == old_rows
        assert truth == old_truth
        return campus, rows, truth

    @settings(max_examples=150, deadline=None)
    @given(config=small_configs())
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[0]))
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[1]))
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[2]))
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[3]))
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[4]))
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[5]))
    @example(config=SimConfig(**BRANCH_BASE, **BRANCHES[6]))
    def test_small_configs(self, config):
        self._check(config)

    def test_branch_examples_reach_their_branch(self):
        campus, _, truth = self._check(SimConfig(**BRANCH_BASE, **BRANCHES[0]))
        assert any(truth.attendees[c] - campus.rosters[c] for c in truth.attendees)
        # Only attendees reach room APs here, and each attaches into the other room.
        campus, rows, truth = self._check(SimConfig(**BRANCH_BASE, **BRANCHES[2]))
        held_in = {e.class_id: e.room_id for e in campus.events}
        rooms_attended = {}
        for class_id, users in truth.attendees.items():
            for user in users:
                rooms_attended.setdefault(user, set()).add(held_in[class_id])
        on_room_aps = [(r[1], r[3].split("-")[0]) for r in rows if r[3].startswith("room")]
        assert on_room_aps
        assert all(rooms_attended[user] - {room} for user, room in on_room_aps)
        campus, _, _ = self._check(SimConfig(**BRANCH_BASE, **BRANCHES[3]))
        assert len(campus.rooms[0].corner_aps) == 4
        _, rows, _ = self._check(SimConfig(**BRANCH_BASE, **BRANCHES[4]))
        assert max(r[2] for r in rows) == 2
        _, rows, _ = self._check(SimConfig(**BRANCH_BASE, **BRANCHES[5]))
        assert any(r[5] for r in rows) and all(r[4] % 1440 <= REPORT_HOUR * 60 for r in rows)
        _, rows, _ = self._check(SimConfig(**BRANCH_BASE, **BRANCHES[6]))
        assert min(r[0] % 1440 for r in rows) == TEACHING_DAY_START_MIN - SIM_BOUNDS["early_arrival_limit"][1]

    def test_small_corpus(self):
        self._check(SimConfig(**FAST))


class TestSessionWriterProcess:
    """`simulate_corpus` hands each sorted day to a writer process."""

    @pytest.mark.parametrize("branch", BRANCHES)
    def test_writes_the_log_the_rows_make(self, tmp_path, branch):
        config = SimConfig(**BRANCH_BASE, **branch)
        simulate_corpus(config, tmp_path / "corpus")
        rows, _ = simulate_sessions(generate_campus(config), config)
        write_sessions_csv(tmp_path / "in_memory.csv", rows)
        assert (tmp_path / "corpus" / "sessions.csv").read_bytes() == (tmp_path / "in_memory.csv").read_bytes()
        assert multiprocessing.active_children() == []

    def test_simulate_prints_its_one_summary_line(self, tmp_path):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "roomsense.cli", "simulate", "--seed", "42", "--weeks", "1",
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        assert done.stdout == f"simulated 21 classes, 59 APs, 2214 students -> {tmp_path}\n"
        assert done.stderr == ""


def _stdlib_calls(ops):
    """The values the stdlib returns for `ops`, then its state."""
    rng, out = random.Random(ops[0]), []
    for op, *args in ops[1:]:
        if op == "gauss_pair":
            out.append((rng.gauss(*args[:2]), rng.gauss(*args[2:])))
        else:
            out.append(getattr(rng, op)(*args))
    return out, rng.getstate()


def _fast_calls(ops):
    rng, out = _Random(ops[0]), []
    for op, *args in ops[1:]:
        out.append(getattr(rng, op)(*args))
    return out, rng.getstate()


WIDTHS = st.one_of(st.integers(1, 70), st.integers(1, 2**70 + 3), st.sampled_from([2**k for k in range(66)]))
DRAW_OPS = st.lists(
    st.one_of(
        WIDTHS.map(lambda n: ("randrange", n)),
        st.tuples(st.integers(-2**70, 2**70), WIDTHS).map(lambda p: ("randrange", p[0], p[0] + p[1])),
        st.tuples(st.integers(-2**70, 2**70), WIDTHS).map(lambda p: ("randint", p[0], p[0] + p[1] - 1)),
        st.integers(1, 70).map(lambda n: ("choice", list(range(n)))),
        st.tuples(st.floats(-100, 100), st.floats(0, 10)).map(lambda p: ("gauss", *p)),
        st.tuples(st.floats(-100, 100), st.floats(0, 10)).map(lambda p: ("gauss_pair", *p, 32.0, 6.0)),
        st.integers(0, 20).map(lambda k: ("sample", list(range(20)), k)),
        st.just(("random",)),
    ),
    max_size=30,
)


class TestRandomDraws:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64), ops=DRAW_OPS)
    def test_draws_equal_the_stdlib(self, seed, ops):
        assert _fast_calls([seed, *ops]) == _stdlib_calls([seed, *ops])

    @pytest.mark.parametrize("call", [("randrange", 0), ("randrange", -3), ("randrange", 5, 5),
                                      ("randint", 4, 3), ("choice", [])])
    def test_empty_ranges_raise_as_the_stdlib(self, call):
        op, *args = call
        with pytest.raises(Exception) as fast:
            getattr(_Random(1), op)(*args)
        with pytest.raises(Exception) as stdlib:
            getattr(random.Random(1), op)(*args)
        assert type(fast.value) is type(stdlib.value)


class TestPoisson:
    @pytest.mark.parametrize("mean", [0.5, 12.9, 120.0, 499.0, POISSON_SPLIT])
    def test_means_up_to_the_split_draw_as_before(self, mean):
        for seed in range(20):
            assert _poisson(random.Random(seed), mean) == sim_oracle._poisson(random.Random(seed), mean)

    @pytest.mark.parametrize("mean", [822.86, 5000.0, 1e6])
    def test_large_means_are_not_capped(self, mean):
        """The old loop drew about 745 for any mean above that; the split draw tracks the mean."""
        draws = [_poisson(random.Random(seed), mean) for seed in range(6)]
        assert all(abs(d - mean) <= 6 * math.sqrt(mean) for d in draws), draws
        assert all(sim_oracle._poisson(random.Random(seed), mean) < 800 for seed in range(6))


# sha256 of every file `roomsense simulate --seed 42 --weeks 1` writes. The
# six CSV files are unchanged since the simulator's first release;
# `sim_config.txt` changed when its echo came to read back as written (an unset
# `room_ap_counts` is an empty value) and `report_hour` was removed.
PINNED_WEEK = {
    "ground_truth_counts.csv": "cdc69663e0c4fc6470a5d0e266df32833f6062ffe52a24e62e19133f174ec8b2",
    "ground_truth_users.csv": "35a010055a3fb9224dd9239700fb1324318e1cad620357a80ac68c8a64d5d3f7",
    "inventory.csv": "9f6fe3118c4bd6b276b7dd3e39a828c483c39346c5d0959ec42c2290f6f5de01",
    "roster.csv": "741b3e6519b446251534789f53b59af5abc6dcbce9a6bcc732c6327fd1a87420",
    "sessions.csv": "847a5afc854edf7861556b3c9ea6240bb4a0c29d5b9dd479954ae198f8817634",
    "sim_config.txt": "6c03e8b05c04cad35fd7f9d23e7daf154d1badea1b8a5a0b83f9c15764c7afe5",
    "timetable.csv": "c071c9d4c9116b6ef8665686629950af16a42c0ea283b3bb1545953c899f1183",
}


@pytest.mark.parametrize("hash_seed", ["1", "2"])
def test_pinned_corpus_whatever_the_hash_seed(tmp_path, hash_seed):
    """The corpus is fixed by its seed alone, not by the order of any set or dict of strings."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONHASHSEED": hash_seed,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-m", "roomsense.cli", "simulate", "--seed", "42", "--weeks", "1",
         "--out", str(tmp_path)],
        env=env, check=True, stdout=subprocess.DEVNULL,
    )
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == PINNED_WEEK
