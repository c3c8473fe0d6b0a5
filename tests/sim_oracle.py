"""The simulator and the session-log writer as first written, kept as test oracles.

`generate_campus` and `simulate_sessions` are the straightforward loops that
`roomsense.simulate` replaced: the stdlib's integer draws, the attendee AP
weights rebuilt and sorted on every pick, and every class of the day scanned
for each background user. `write_sessions_csv` formats both stamps, the MAC
and the duration anew for every row. test_simulate.py checks that the
program's versions give the same rows, ground truth and bytes.

Two differences are kept on purpose. This `_poisson` caps any mean above
about 745, so the comparisons keep every mean at or below the program's
split. This AP weight total uses `sum()`, which compensates from Python 3.12
on and may then differ from the program's plain loop in the last bit.
"""
from __future__ import annotations

import csv
import math
import random
from datetime import datetime, timedelta

from roomsense.records import (
    REPORT_HOUR,
    SESSION_COLUMNS,
    TEACHING_DAY_END_MIN,
    TEACHING_DAY_START_MIN,
    ApInventory,
    ApLocation,
    ClassEvent,
    ConfigError,
    format_minutes,
    to_minutes,
)
from roomsense.simulate import (
    SEMESTER_START,
    Campus,
    GroundTruth,
    Room,
    SimConfig,
    _device_mac,
)


def _weighted_choice(rng: random.Random, weights: dict):
    r = rng.random()
    acc = 0.0
    keys = sorted(weights)
    for key in keys:
        acc += weights[key]
        if r < acc:
            return key
    return keys[-1]


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= rng.random()
        if p <= threshold:
            return k
        k += 1


def generate_campus(config: SimConfig) -> Campus:
    """Rooms, APs, courses, rosters and a clash-free timetable, all seeded."""
    config.validate()
    rng = random.Random(config.seed)
    buildings = [f"bld{chr(ord('A') + i)}" for i in range((len(config.room_capacities) + 1) // 2)]

    rooms: list[Room] = []
    locations: dict[str, ApLocation] = {}
    for i, capacity in enumerate(config.room_capacities):
        room_id = f"room{i + 1}"
        building = buildings[i // 2]
        floor = i % 2 + 1
        if config.room_ap_counts is not None:
            ap_count = config.room_ap_counts[i]
        else:
            ap_count = max(3, math.ceil(capacity / 45))
        aps = [f"{room_id}-ap{j + 1:02d}" for j in range(ap_count)]
        n_corner = round(config.corner_ap_fraction * ap_count)
        corner = frozenset(aps[-n_corner:]) if n_corner else frozenset()
        corridor = [f"{building}-f{floor}-cor{j + 1}" for j in range(config.corridor_aps_per_room)]
        for ap in aps:
            locations[ap] = ApLocation(room_id, building, floor)
        for ap in corridor:
            locations[ap] = ApLocation(None, building, floor)
        rooms.append(Room(room_id, building, floor, capacity, aps, corner, corridor))

    walkways = [f"wk{j + 1:02d}" for j in range(config.walkway_ap_count)]
    for ap in walkways:
        locations[ap] = ApLocation(None, "campus", 0)

    slots = sum(config.room_capacities) * config.classes_per_room_per_week
    pop_size = max(2 * max(config.room_capacities), int(0.45 * slots))
    population = [f"u{i:05d}" for i in range(pop_size)]

    events: list[ClassEvent] = []
    rosters: dict[str, frozenset[str]] = {}
    for room in rooms:
        taken: list[tuple[int, int, int]] = []  # (weekday, start_min, end_min)
        for course_no in range(config.classes_per_room_per_week):
            for _ in range(200):
                weekday = rng.randrange(config.days_per_week)
                duration = _weighted_choice(rng, config.duration_weights)
                latest = TEACHING_DAY_END_MIN - duration
                start_min = rng.randrange(TEACHING_DAY_START_MIN // 60, latest // 60 + 1) * 60
                end_min = start_min + duration
                clash = any(
                    wd == weekday and start_min < e and end_min > s for wd, s, e in taken
                )
                if not clash:
                    taken.append((weekday, start_min, end_min))
                    break
            else:
                raise ConfigError(f"could not timetable {room.room_id} without clashes")
            size = max(2, round(rng.uniform(*config.enrollment_ratio) * room.capacity))
            roster = frozenset(rng.sample(population, min(size, len(population))))
            course_id = f"{room.room_id}c{course_no + 1}"
            for week in range(config.weeks):
                date = SEMESTER_START + timedelta(days=7 * week + weekday)
                start = date + timedelta(minutes=start_min)
                end = date + timedelta(minutes=end_min)
                class_id = f"{course_id}-w{week + 1:02d}"
                events.append(ClassEvent(class_id, room.room_id, start, end))
                rosters[class_id] = roster

    events.sort(key=lambda e: (e.start, e.room_id))
    return Campus(rooms, ApInventory(locations), events, rosters, population, walkways)


class _Emitter:
    """Collects raw sessions and cuts them at the daily report time."""

    def __init__(self, config: SimConfig, rng: random.Random):
        self.config = config
        self.rng = rng
        self.rows: list[tuple] = []

    def emit(self, user: str, device: int, ap: str, start: int, end: int, in_room: bool):
        report = (start // 1440) * 1440 + REPORT_HOUR * 60
        if start >= report:
            return
        ongoing = end > report
        end = min(end, report)
        if end <= start:
            return
        cfg = self.config
        mean = cfg.rssi_in_mean if in_room else cfg.rssi_out_mean
        sd = cfg.rssi_in_sd if in_room else cfg.rssi_out_sd
        rssi = -round(min(95.0, max(30.0, self.rng.gauss(mean, sd))))
        snr = round(min(60.0, max(5.0, self.rng.gauss(32.0, 6.0))))
        minutes = end - start
        bytes_tx = self.rng.randint(1000, 5000) * max(1, minutes)
        bytes_rcvd = self.rng.randint(2000, 9000) * max(1, minutes)
        self.rows.append((start, user, device, ap, end, ongoing, rssi, snr, bytes_tx, bytes_rcvd))


def _presence_sessions(rng, config, t0: int, t1: int) -> list[tuple[int, int]]:
    """Churned connection segments covering a presence interval."""
    if t1 - t0 < 1:
        return []
    segments = []
    t = t0
    while t < t1:
        if config.churn_prob_per_10min <= 0:
            segments.append((t, t1))
            break
        mean_len = 10.0 / config.churn_prob_per_10min
        length = max(3, round(rng.expovariate(1.0 / mean_len)))
        end = min(t1, t + length)
        if end > t:
            segments.append((t, end))
        t = end + rng.randint(*config.churn_gap_minutes)
    return segments


def _pick_attendee_ap(rng, config, room: Room, rooms: list[Room], prev: str | None) -> str:
    if prev is not None and rng.random() < config.sticky_ap_prob:
        return prev
    r = rng.random()
    if r < config.cross_room_attach_prob and len(rooms) > 1:
        neighbours = [x for x in rooms if x.building == room.building and x.room_id != room.room_id]
        if not neighbours:
            neighbours = [x for x in rooms if x.room_id != room.room_id]
        other = neighbours[rng.randrange(len(neighbours))]
        return other.aps[rng.randrange(len(other.aps))]
    if r < config.cross_room_attach_prob + config.near_room_attach_prob:
        return room.corridor_aps[rng.randrange(len(room.corridor_aps))]
    weights = {ap: (config.corner_ap_weight if ap in room.corner_aps else 1.0) for ap in room.aps}
    total = sum(weights.values())
    return _weighted_choice(rng, {ap: w / total for ap, w in weights.items()})


def _free_user(rng, population, today_windows, t0: int, t1: int) -> str:
    """A user not enrolled in any class running during [t0, t1).

    Keeps background traffic physically consistent: someone attending (or due
    to attend) a class cannot simultaneously idle elsewhere on campus.
    """
    user = population[rng.randrange(len(population))]
    for _ in range(10):
        busy = any(s < t1 and e > t0 and user in roster for s, e, roster in today_windows)
        if not busy:
            return user
        user = population[rng.randrange(len(population))]
    return user


def simulate_sessions(campus: Campus, config: SimConfig) -> tuple[list[tuple], GroundTruth]:
    """Emit session-log rows (time-sorted tuples) plus the planted ground truth."""
    config.validate()
    rng = random.Random(config.seed + 1)
    emitter = _Emitter(config, rng)
    rooms_by_id = {r.room_id: r for r in campus.rooms}

    attendees: dict[str, frozenset[str]] = {}
    non_connecting: dict[str, frozenset[str]] = {}

    all_days = sorted({e.date for e in campus.events})
    events_by_day: dict[datetime, list[ClassEvent]] = {}
    for event in campus.events:
        events_by_day.setdefault(event.date, []).append(event)

    for day in all_days:
        midnight = to_minutes(day)
        day_lo, day_hi = midnight + TEACHING_DAY_START_MIN, midnight + TEACHING_DAY_END_MIN
        todays = sorted(events_by_day[day], key=lambda e: (e.room_id, e.start))
        today_windows = [
            (to_minutes(e.start), to_minutes(e.end), campus.rosters[e.class_id]) for e in todays
        ]

        for event in todays:
            room = rooms_by_id[event.room_id]
            roster = sorted(campus.rosters[event.class_id])
            start, end = to_minutes(event.start), to_minutes(event.end)
            duration = end - start

            ratio = rng.uniform(*config.attendance_ratio)
            going = rng.sample(roster, max(1, round(ratio * len(roster))))
            if config.walkin_prob > 0:
                extras = round(config.walkin_prob * len(going))
                outsiders = [u for u in campus.population if u not in campus.rosters[event.class_id]]
                going.extend(rng.sample(outsiders, min(extras, len(outsiders))))
            silent: set[str] = set()
            for user in sorted(going):
                if rng.random() < config.non_connect_prob:
                    silent.add(user)
                    continue
                offset = rng.gauss(config.arrival_mean, config.arrival_sd)
                offset = max(-config.early_arrival_limit, min(duration - 15, offset))
                arrive = start + round(offset)
                depart = max(arrive + 10, end + round(rng.gauss(0.0, config.depart_sd)))
                n_devices = _weighted_choice(rng, config.device_count_weights)
                for device in range(n_devices):
                    dev_start = arrive if device == 0 else min(depart - 5, arrive + rng.randint(0, 40))
                    prev = None
                    for s, e in _presence_sessions(rng, config, dev_start, depart):
                        ap = _pick_attendee_ap(rng, config, room, campus.rooms, prev)
                        prev = ap
                        emitter.emit(user, device, ap, s, e, in_room=ap in room.aps)

            attendees[event.class_id] = frozenset(going)
            non_connecting[event.class_id] = frozenset(silent)

            for user in sorted(set(roster) - set(going)):
                r = rng.random()
                if r < config.lingerer_prob:
                    win_lo = max(day_lo, start - 45)
                    win_hi = min(day_hi, end + 45)
                    for _ in range(rng.randint(1, 2)):
                        s = rng.randint(win_lo, max(win_lo, win_hi - 10))
                        e = min(win_hi, s + rng.randint(4, 14))
                        if rng.random() < 0.8:
                            ap = room.corridor_aps[rng.randrange(len(room.corridor_aps))]
                        else:
                            ap = room.aps[rng.randrange(len(room.aps))]
                        emitter.emit(user, 0, ap, s, e, in_room=False)
                elif r < config.lingerer_prob + config.remote_prob:
                    far_corridors = sorted(
                        x.corridor_aps[0]
                        for x in campus.rooms
                        if x.room_id != room.room_id and x.corridor_aps
                    )
                    if rng.random() < 0.6 or not far_corridors:
                        ap = campus.walkway_aps[rng.randrange(len(campus.walkway_aps))]
                    else:
                        ap = far_corridors[rng.randrange(len(far_corridors))]
                    s = rng.randint(day_lo, day_hi - 25)
                    e = min(day_hi, s + rng.randint(20, 120))
                    emitter.emit(user, 0, ap, s, e, in_room=False)

        # non-class traffic: short passersby plus a steady ambient population
        # of long-dwell users (staff, students between classes) per spot
        floor_spots = [
            (room.building, room.floor, room.corridor_aps, room,
             config.bystander_rate_per_hour, config.ambient_per_corridor_ap)
            for room in campus.rooms
        ]
        for ap in campus.walkway_aps:
            floor_spots.append(
                ("campus", 0, [ap], None,
                 config.walkway_bystander_rate_per_hour, config.ambient_per_walkway_ap)
            )
        for building, floor, corridor_aps, room, rate, ambient in sorted(
            floor_spots, key=lambda f: (f[0], f[1], f[2])
        ):
            n_pass = _poisson(rng, rate * (TEACHING_DAY_END_MIN - TEACHING_DAY_START_MIN) / 60)
            for _ in range(n_pass):
                t = rng.randint(day_lo, day_hi - 2)
                dwell = max(1, round(rng.expovariate(1.0 / config.bystander_dwell_mean)))
                user = _free_user(rng, campus.population, today_windows, t, t + dwell)
                if room is not None and rng.random() < config.bystander_in_room_prob:
                    ap = room.aps[rng.randrange(len(room.aps))]
                else:
                    ap = corridor_aps[rng.randrange(len(corridor_aps))]
                emitter.emit(user, 0, ap, t, t + dwell, in_room=False)
            target = ambient * len(corridor_aps)
            arrivals = [day_lo] * _poisson(rng, target)
            arrivals += [
                rng.randint(day_lo, day_hi - 30)
                for _ in range(_poisson(rng, target * 60 / 112 * (day_hi - day_lo) / 60))
            ]
            for t in sorted(arrivals):
                e = min(day_hi, t + rng.randint(45, 180))
                user = _free_user(rng, campus.population, today_windows, t, e)
                prev = None
                for s, seg_e in _presence_sessions(rng, config, t, e):
                    if prev is None or rng.random() > 0.6:
                        prev = corridor_aps[rng.randrange(len(corridor_aps))]
                    emitter.emit(user, 0, prev, s, seg_e, in_room=False)

        # students using rooms while idle
        for room in sorted(campus.rooms, key=lambda r: r.room_id):
            busy = sorted(
                (to_minutes(e.start), to_minutes(e.end))
                for e in todays
                if e.room_id == room.room_id
            )
            idle: list[tuple[int, int]] = []
            cursor = day_lo
            for s, e in busy:
                if s > cursor:
                    idle.append((cursor, s))
                cursor = max(cursor, e)
            if cursor < day_hi:
                idle.append((cursor, day_hi))
            # target a steady per-AP concurrency: an initial batch present when the
            # window opens plus Poisson arrivals balancing the ~112 min mean dwell
            target = config.idle_room_users_per_ap * len(room.aps)
            for win_lo, win_hi in idle:
                if win_hi - win_lo < 15:
                    continue
                hours = (win_hi - win_lo) / 60
                arrivals = [win_lo] * _poisson(rng, target)
                arrivals += [
                    rng.randint(win_lo, max(win_lo, win_hi - 10))
                    for _ in range(_poisson(rng, target * 60 / 112 * hours))
                ]
                for t in arrivals:
                    e = min(win_hi, t + rng.randint(45, 180))
                    user = _free_user(rng, campus.population, today_windows, t, e)
                    ap = room.aps[rng.randrange(len(room.aps))]
                    emitter.emit(user, 0, ap, t, e, in_room=True)

    emitter.rows.sort(key=lambda row: (row[0], row[1], row[2], row[3], row[4]))
    return emitter.rows, GroundTruth(attendees, non_connecting)



def write_sessions_csv(path, rows, delimiter: str = ",") -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(SESSION_COLUMNS)
        for start, user, device, ap, end, ongoing, rssi, snr, tx, rcvd in rows:
            writer.writerow(
                [
                    user,
                    _device_mac(user, device),
                    format_minutes(start),
                    "-" if ongoing else format_minutes(end),
                    f"{end - start} min",
                    ap,
                    tx,
                    rcvd,
                    snr,
                    rssi,
                    "Ass" if ongoing else "Disass",
                ]
            )
