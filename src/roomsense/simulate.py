"""Synthetic campus generator with planted ground truth.

Behavioral rather than radio-physical: device-to-AP attachment is sampled
from configured probabilities. The generator plants every connection pattern
the estimator must cope with: multi-device users, session churn with short
gaps, occupants sticking to corridor APs near doorways, occupants attached
into adjacent rooms, passersby, long-dwell corridor workers, students using
idle rooms, enrolled no-shows lingering nearby or appearing across campus,
and occupants who never touch WiFi.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field, fields
from datetime import datetime, timedelta
from math import cos, log, sin, sqrt, tau
from operator import itemgetter

from .records import (
    ALLOWED_CLASS_MINUTES,
    CLOCK_FMT,
    DATE_FMT,
    GROUND_TRUTH_COUNT_COLUMNS,
    GROUND_TRUTH_USER_COLUMNS,
    INVENTORY_COLUMNS,
    REPORT_HOUR,
    ROSTER_COLUMNS,
    SESSION_COLUMNS,
    TEACHING_DAY_END_MIN,
    TEACHING_DAY_START_MIN,
    TIMETABLE_COLUMNS,
    ApInventory,
    ApLocation,
    ClassEvent,
    ConfigError,
    DataValidationError,
    format_minutes,
    to_minutes,
)
from .store import _Memo, _check_row, read_rows, write_rows

SEMESTER_START = datetime(2025, 3, 3)  # a Monday
CLASS_STARTS_PER_DAY = (TEACHING_DAY_END_MIN - TEACHING_DAY_START_MIN) // 60  # classes start on the hour
LONG_DWELL = (45, 180)  # minutes a long-dwell or idle-room stay lasts, drawn uniformly
# Poisson arrivals per hour of long-dwell or idle-room users: the target
# concurrency times 60 / LONG_DWELL_TURNOVER, about the mean stay in minutes
LONG_DWELL_TURNOVER = 112
MIN_SEGMENT = 3  # minutes: the shortest churned connection segment

# `SimConfig.validate` refuses more rooms than MAX_ROOMS, a config whose
# `estimated_session_rows` exceed MAX_SESSION_ROWS, and one whose walk-ins
# scan more than MAX_WALKIN_SCANS users. The simulator holds every row in
# memory before it writes the log: 2M rows take about 500 MB and half a
# minute, and make a log of about 200 MB. A year of seven-day weeks on the
# default campus is about 1.6M rows. With `walkin_prob` above 0, every class
# scans the whole population for its non-enrolled users, whether or not it
# writes rows: on a 2-vCPU host (Python 3.11), `simulate` took 3.4 s for 9M
# scans and 16 s for 72M. The default campus with walk-ins scans 0.5M users
# in 10 weeks, and 2.4M in a year of seven-day weeks.
MAX_ROOMS = 100
MAX_SESSION_ROWS = 2_000_000
MAX_WALKIN_SCANS = 10_000_000

# (lowest, highest) of each setting that sizes the campus or scales the
# simulator's work or time span; a tuple or dict setting bounds each of its
# values or keys.
SIM_BOUNDS = {
    "weeks": (1, 52),
    "days_per_week": (1, 7),
    "room_capacities": (1, 1000),
    "room_ap_counts": (1, 64),
    "corridor_aps_per_room": (1, 64),
    "walkway_ap_count": (1, 64),
    "device_count_weights": (1, 8),
    "early_arrival_limit": (0, 240),  # minutes
    "depart_sd": (0, 240),  # minutes
    "bystander_rate_per_hour": (0, 1000),
    "walkway_bystander_rate_per_hour": (0, 1000),
    "ambient_per_corridor_ap": (0, 100),
    "ambient_per_walkway_ap": (0, 100),
    "idle_room_users_per_ap": (0, 100),
}


@dataclass
class SimConfig:
    seed: int = 42
    weeks: int = 10
    days_per_week: int = 5
    room_capacities: tuple = (42, 42, 110, 231, 246, 472, 497)
    room_ap_counts: tuple | None = None  # derived from capacity when None
    corner_ap_fraction: float = 0.15
    corner_ap_weight: float = 0.3
    corridor_aps_per_room: int = 1
    walkway_ap_count: int = 8
    classes_per_room_per_week: int = 3
    duration_weights: dict = field(
        default_factory=lambda: {60: 0.46, 90: 0.02, 120: 0.45, 150: 0.01, 180: 0.05, 240: 0.01}
    )
    enrollment_ratio: tuple = (0.75, 1.05)
    attendance_ratio: tuple = (0.3, 0.9)
    non_connect_prob: float = 0.18
    device_count_weights: dict = field(default_factory=lambda: {1: 0.55, 2: 0.35, 3: 0.10})
    churn_prob_per_10min: float = 0.22
    churn_gap_minutes: tuple = (0, 4)
    sticky_ap_prob: float = 0.6
    cross_room_attach_prob: float = 0.015
    near_room_attach_prob: float = 0.12
    arrival_mean: float = 8.0
    arrival_sd: float = 12.0
    early_arrival_limit: int = 15
    depart_sd: float = 4.0
    rssi_in_mean: float = 59.4
    rssi_in_sd: float = 6.0
    rssi_out_mean: float = 66.4
    rssi_out_sd: float = 6.0
    bystander_rate_per_hour: float = 10.0
    walkway_bystander_rate_per_hour: float = 8.0
    bystander_dwell_mean: float = 5.0
    bystander_in_room_prob: float = 0.15
    lingerer_prob: float = 0.35
    remote_prob: float = 0.12
    ambient_per_corridor_ap: float = 2.0  # mean concurrent long-dwell users per corridor AP
    ambient_per_walkway_ap: float = 2.0
    idle_room_users_per_ap: float = 1.5  # mean concurrent studiers per AP while a room is idle
    walkin_prob: float = 0.0

    def validate(self) -> None:
        if not 1 <= len(self.room_capacities) <= MAX_ROOMS:
            raise ConfigError(f"room_capacities must list 1..{MAX_ROOMS} rooms")
        probs = (
            self.non_connect_prob,
            self.cross_room_attach_prob,
            self.near_room_attach_prob,
            self.sticky_ap_prob,
            self.bystander_in_room_prob,
            self.lingerer_prob,
            self.remote_prob,
            self.walkin_prob,
            self.corner_ap_fraction,
            self.churn_prob_per_10min,
        )
        if any(p < 0 or p > 1 for p in probs):
            raise ConfigError("probabilities must lie in [0, 1]")
        if abs(sum(self.duration_weights.values()) - 1.0) > 1e-9:
            raise ConfigError("duration weights must sum to 1")
        if abs(sum(self.device_count_weights.values()) - 1.0) > 1e-9:
            raise ConfigError("device count weights must sum to 1")
        for f in fields(self):
            values = getattr(self, f.name)
            values = list(values.values()) if isinstance(values, dict) else values
            if not isinstance(values, (list, tuple)):
                values = [values]
            if any(isinstance(v, float) and not math.isfinite(v) for v in values):
                raise ConfigError(f"{f.name} must be finite")
        if not set(self.duration_weights) <= ALLOWED_CLASS_MINUTES:
            raise ConfigError(f"class lengths must be among {sorted(ALLOWED_CLASS_MINUTES)} minutes")
        if self.room_ap_counts is not None and len(self.room_ap_counts) != len(self.room_capacities):
            raise ConfigError("room_ap_counts needs one count per room")
        for name, (low, high) in SIM_BOUNDS.items():
            values = getattr(self, name)
            if values is None:  # room_ap_counts unset: derived from capacity
                continue
            if not isinstance(values, (tuple, list, dict)):
                values = [values]
            if not all(low <= v <= high for v in values):
                raise ConfigError(f"{name} must lie in {low}..{high}")
        if not all(isinstance(v, int) for v in (self.days_per_week, *self.churn_gap_minutes)):
            raise ConfigError("days_per_week and churn_gap_minutes must be whole numbers")
        for name in ("churn_gap_minutes", "enrollment_ratio", "attendance_ratio"):
            bounds = getattr(self, name)
            if len(bounds) != 2 or not 0 <= bounds[0] <= bounds[1]:
                raise ConfigError(f"{name} must be two values low,high with 0 <= low <= high")
        if self.attendance_ratio[1] > 1:
            raise ConfigError("attendance_ratio is a share of the roster and cannot exceed 1")
        if self.bystander_dwell_mean <= 0 or self.corner_ap_weight <= 0:
            raise ConfigError("bystander_dwell_mean and corner_ap_weight must be positive")
        slots = self.days_per_week * CLASS_STARTS_PER_DAY
        if not 1 <= self.classes_per_room_per_week <= slots:
            raise ConfigError(
                f"classes_per_room_per_week must lie in 1..{slots}, the hourly class starts of a week"
            )
        if not self.estimated_session_rows() <= MAX_SESSION_ROWS:  # also refuses nan
            raise ConfigError(
                f"this config would write about {self.estimated_session_rows():.3g} session rows; "
                f"the limit is {MAX_SESSION_ROWS}"
            )
        if self.walkin_prob > 0:
            scans = self.weeks * len(self.room_capacities) * self.classes_per_room_per_week * self.population_size()
            if scans > MAX_WALKIN_SCANS:
                raise ConfigError(
                    f"this config's walk-ins would scan {scans:.3g} users (classes x population); "
                    f"the limit is {MAX_WALKIN_SCANS}"
                )

    def population_size(self) -> int:
        """How many users the campus has: enough to fill every room twice, or
        about half the weekly enrolled seats."""
        slots = sum(self.room_capacities) * self.classes_per_room_per_week
        return max(2 * max(self.room_capacities), int(0.45 * slots))

    def ap_counts(self) -> tuple[int, ...]:
        """Each room's AP count: `room_ap_counts`, or if unset one per 45 seats and at least 3."""
        if self.room_ap_counts is not None:
            return tuple(self.room_ap_counts)
        return tuple(max(3, math.ceil(capacity / 45)) for capacity in self.room_capacities)

    def estimated_session_rows(self) -> float:
        """About how many session rows `simulate_sessions` writes for this config.

        The expected counts of its draws: per class, the attendees' churned
        device sessions, walk-ins included, and the absentees' visits; per
        day, the passers-by and long-dwell users of every corridor and
        walkway spot, and the idle-room studiers. Every day counts, although
        the simulator skips a day without a class, so with fewer courses than
        weekdays the estimate runs high.
        """
        hours = (TEACHING_DAY_END_MIN - TEACHING_DAY_START_MIN) / 60
        churn_every = max(MIN_SEGMENT, _churn_mean_minutes(self.churn_prob_per_10min))
        gap = sum(self.churn_gap_minutes) / 2
        stay = sum(LONG_DWELL) / 2

        def sessions(minutes: float) -> float:  # churned sessions covering `minutes` of presence
            return 1 + minutes / (churn_every + gap)

        def spot(passers_per_hour: float, concurrent: float) -> float:  # one corridor or walkway, one day
            return passers_per_hour * hours + concurrent * (1 + hours * 60 / LONG_DWELL_TURNOVER) * sessions(stay)

        class_minutes = sum(m * w for m, w in self.duration_weights.items())
        early = min(max(-self.arrival_mean, 0), self.early_arrival_limit)
        presence = class_minutes + early + 0.4 * self.depart_sd  # 0.4 sd: mean of a half-normal tail
        devices = sum(k * w for k, w in self.device_count_weights.items())
        enrolled, attending = sum(self.enrollment_ratio) / 2, sum(self.attendance_ratio) / 2
        classes, population, week = self.classes_per_room_per_week, self.population_size(), 0.0
        for capacity, aps in zip(self.room_capacities, self.ap_counts()):
            roster = max(2.0, enrolled * capacity)
            going = max(1.0, attending * roster)
            walkins = min(self.walkin_prob * going, max(0.0, population - roster))
            per_class = (going + walkins) * (1 - self.non_connect_prob) * devices * sessions(presence)
            per_class += (roster - going) * (1.5 * self.lingerer_prob + self.remote_prob)
            idle_hours = max(0.0, self.days_per_week * hours - classes * class_minutes / 60)
            idle_windows = self.days_per_week + classes
            idle = self.idle_room_users_per_ap * aps * (idle_windows + idle_hours * 60 / LONG_DWELL_TURNOVER)
            week += classes * per_class + idle
        day = len(self.room_capacities) * spot(
            self.bystander_rate_per_hour, self.ambient_per_corridor_ap * self.corridor_aps_per_room
        ) + self.walkway_ap_count * spot(self.walkway_bystander_rate_per_hour, self.ambient_per_walkway_ap)
        return self.weeks * (week + self.days_per_week * day)


@dataclass
class Room:
    room_id: str
    building: str
    floor: int
    capacity: int
    aps: list[str]
    corner_aps: frozenset[str]
    corridor_aps: list[str]


@dataclass
class Campus:
    rooms: list[Room]
    inventory: ApInventory
    events: list[ClassEvent]
    rosters: dict[str, frozenset[str]]
    population: list[str]
    walkway_aps: list[str]


@dataclass
class GroundTruth:
    """Planted truth: who actually attended each class."""

    attendees: dict[str, frozenset[str]]
    non_connecting: dict[str, frozenset[str]]

    def count(self, class_id: str) -> int:
        return len(self.attendees[class_id])


class _Random(random.Random):
    """`random.Random` with CPython's own draws made in fewer calls.

    `randrange(n)`, `randrange(a, b)`, `randint(a, b)` and `choice(seq)` draw
    an integer below a width `n` as the stdlib does for integer arguments:
    `getrandbits(k)`, with `k` the bit length of `n`, repeated until it falls
    below `n`; each spells the loop out, as a shared helper would add a call
    to every draw. `gauss_pair` makes two `gauss` draws in one call. Each
    returns what the stdlib calls return and leaves the generator in the
    state they would. Every other method is the stdlib's.
    """

    def randrange(self, start: int, stop: int | None = None) -> int:
        if stop is None:
            start, stop = 0, start
        width = stop - start
        if width <= 0:
            raise ValueError(f"empty range for randrange({start}, {stop})")
        k = width.bit_length()
        r = self.getrandbits(k)
        while r >= width:
            r = self.getrandbits(k)
        return start + r

    def randint(self, a: int, b: int) -> int:
        width = b + 1 - a
        if width <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        k = width.bit_length()
        r = self.getrandbits(k)
        while r >= width:
            r = self.getrandbits(k)
        return a + r

    def choice(self, seq):
        width = len(seq)
        if not width:
            raise IndexError("Cannot choose from an empty sequence")
        k = width.bit_length()
        r = self.getrandbits(k)
        while r >= width:
            r = self.getrandbits(k)
        return seq[r]

    def gauss_pair(self, mu1: float, sigma1: float, mu2: float, sigma2: float) -> tuple[float, float]:
        """`(gauss(mu1, sigma1), gauss(mu2, sigma2))`.

        The stdlib's `gauss` returns the value it holds from its last
        Box-Muller pair, if any, and otherwise draws a new pair, returns one
        value and holds the other. Two draws in a row therefore take one new
        pair, and hold its second value only if a value was held before.
        """
        held = self.gauss_next
        x2pi = self.random() * tau
        g2rad = sqrt(-2.0 * log(1.0 - self.random()))
        if held is None:
            return mu1 + cos(x2pi) * g2rad * sigma1, mu2 + sin(x2pi) * g2rad * sigma2
        self.gauss_next = sin(x2pi) * g2rad
        return mu1 + held * sigma1, mu2 + cos(x2pi) * g2rad * sigma2


def _cumulative(weights: dict) -> list[tuple[float, object]]:
    """(running total, key) for every key in key order: the table `_weighted_choice` scans."""
    table, acc = [], 0.0
    for key in sorted(weights):
        acc += weights[key]
        table.append((acc, key))
    return table


def _weighted_choice(r: float, table: list[tuple[float, object]]):
    """The first key whose running total exceeds the uniform draw `r`, else the last key."""
    for acc, key in table:
        if r < acc:
            return key
    return table[-1][1]


# A Poisson mean above this is drawn as the sum of two draws of half the mean,
# since `exp(-mean)` underflows to 0 above about 745.
POISSON_SPLIT = 500.0


def _poisson(rng: random.Random, lam: float) -> int:
    if lam <= 0:
        return 0
    if lam > POISSON_SPLIT:
        return _poisson(rng, lam / 2) + _poisson(rng, lam / 2)
    threshold = math.exp(-lam)
    uniform = rng.random
    k, p = 0, 1.0
    while True:
        p *= uniform()
        if p <= threshold:
            return k
        k += 1


def generate_campus(config: SimConfig) -> Campus:
    """Rooms, APs, courses, rosters and a clash-free timetable, all seeded."""
    config.validate()
    rng = _Random(config.seed)
    durations = _cumulative(config.duration_weights)
    buildings = [f"bld{chr(ord('A') + i)}" for i in range((len(config.room_capacities) + 1) // 2)]

    rooms: list[Room] = []
    locations: dict[str, ApLocation] = {}
    for i, (capacity, ap_count) in enumerate(zip(config.room_capacities, config.ap_counts())):
        room_id = f"room{i + 1}"
        building = buildings[i // 2]
        floor = i % 2 + 1
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

    population = [f"u{i:05d}" for i in range(config.population_size())]

    events: list[ClassEvent] = []
    rosters: dict[str, frozenset[str]] = {}
    for room in rooms:
        taken: list[tuple[int, int, int]] = []  # (weekday, start_min, end_min)
        for course_no in range(config.classes_per_room_per_week):
            for _ in range(200):
                weekday = rng.randrange(config.days_per_week)
                duration = _weighted_choice(rng.random(), durations)
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


def _emitter(config: SimConfig, rng: random.Random):
    """(rows, emit): `emit(user, device, ap, start, end, in_room)` appends one session row.

    A session is cut at its day's report time: one that starts at or after
    it is dropped, one that runs past it ends there and is marked ongoing.
    """
    rows: list[tuple] = []
    append, gauss_pair, getrandbits = rows.append, rng.gauss_pair, rng.getrandbits
    report_minute = REPORT_HOUR * 60
    rssi_in = (config.rssi_in_mean, config.rssi_in_sd)
    rssi_out = (config.rssi_out_mean, config.rssi_out_sd)

    def emit(user: str, device: int, ap: str, start: int, end: int, in_room: bool) -> None:
        report = start - start % 1440 + report_minute
        if start >= report:
            return
        ongoing = end > report
        if ongoing:
            end = report
        if end <= start:
            return
        mean, sd = rssi_in if in_room else rssi_out
        rssi, snr = gauss_pair(mean, sd, 32.0, 6.0)
        # randint(1000, 5000) and randint(2000, 9000), drawn inline as `_Random.randint` draws them
        tx = getrandbits(12)
        while tx >= 4001:
            tx = getrandbits(12)
        rcvd = getrandbits(13)
        while rcvd >= 7001:
            rcvd = getrandbits(13)
        minutes = end - start
        append((
            start, user, device, ap, end, ongoing,
            -round(95.0 if rssi > 95.0 else 30.0 if rssi < 30.0 else rssi),
            round(60.0 if snr > 60.0 else 5.0 if snr < 5.0 else snr),
            (1000 + tx) * minutes,
            (2000 + rcvd) * minutes,
        ))

    return rows, emit


def _device_mac(user: str, device: int) -> str:
    idx = int(user[1:])
    return f"02:00:{(idx >> 16) & 0xFF:02x}:{(idx >> 8) & 0xFF:02x}:{idx & 0xFF:02x}:{device:02x}"


def _churn_mean_minutes(churn_prob_per_10min: float) -> float:
    """The mean drawn length of a churned connection segment; inf without churn.

    A churn rate so small that 10 / churn overflows gives inf as well.
    """
    return 10.0 / churn_prob_per_10min if churn_prob_per_10min > 0 else math.inf


def _presence(config: SimConfig, rng: random.Random):
    """`segments(t0, t1)`: the churned connection segments covering a presence interval."""
    lambd = 1.0 / _churn_mean_minutes(config.churn_prob_per_10min)
    gap_low, gap_high = config.churn_gap_minutes
    expovariate, randint = rng.expovariate, rng.randint

    def segments(t0: int, t1: int) -> list[tuple[int, int]]:
        if t1 - t0 < 1:
            return []
        if lambd <= 0:  # no churn
            return [(t0, t1)]
        out = []
        t = t0
        while t < t1:
            end = min(t1, t + max(MIN_SEGMENT, round(expovariate(lambd))))
            out.append((t, end))
            t = end + randint(gap_low, gap_high)
        return out

    return segments


def _attendee_picker(config: SimConfig, rng: random.Random, campus: Campus):
    """`pick(room, prev)`: the AP an attendee's next segment in `room` attaches to.

    Each room's neighbours and AP weight table are built once.
    """
    uniform, choice = rng.random, rng.choice
    sticky, cross = config.sticky_ap_prob, config.cross_room_attach_prob
    near = config.cross_room_attach_prob + config.near_room_attach_prob
    crossing = len(campus.rooms) > 1
    neighbours, tables = {}, {}
    for room in campus.rooms:
        others = [x for x in campus.rooms if x.building == room.building and x.room_id != room.room_id]
        neighbours[room.room_id] = others or [x for x in campus.rooms if x.room_id != room.room_id]
        weights = {ap: (config.corner_ap_weight if ap in room.corner_aps else 1.0) for ap in room.aps}
        total = 0.0  # added in order, as `sum` adds floats before Python 3.12
        for w in weights.values():
            total += w
        tables[room.room_id] = _cumulative({ap: w / total for ap, w in weights.items()})

    def pick(room: Room, prev: str | None) -> str:
        if prev is not None and uniform() < sticky:
            return prev
        r = uniform()
        if r < cross and crossing:
            return choice(choice(neighbours[room.room_id]).aps)
        if r < near:
            return choice(room.corridor_aps)
        return _weighted_choice(uniform(), tables[room.room_id])

    return pick


def simulate_sessions(campus: Campus, config: SimConfig) -> tuple[list[tuple], GroundTruth]:
    """Emit session-log rows (time-sorted tuples) plus the planted ground truth."""
    config.validate()
    rng = _Random(config.seed + 1)
    uniform, choice, randint, gauss = rng.random, rng.choice, rng.randint, rng.gauss
    dwell_lo, dwell_hi = LONG_DWELL
    rows, emit = _emitter(config, rng)
    segments = _presence(config, rng)
    pick = _attendee_picker(config, rng, campus)
    devices = _cumulative(config.device_count_weights)
    rooms_by_id = {r.room_id: r for r in campus.rooms}
    population = campus.population

    attendees: dict[str, frozenset[str]] = {}
    non_connecting: dict[str, frozenset[str]] = {}

    all_days = sorted({e.date for e in campus.events})
    events_by_day: dict[datetime, list[ClassEvent]] = {}
    for event in campus.events:
        events_by_day.setdefault(event.date, []).append(event)

    def free_user(t0: int, t1: int) -> str:
        """A user not enrolled in any class running during [t0, t1).

        Keeps background traffic physically consistent: someone attending (or
        due to attend) a class cannot simultaneously idle elsewhere on campus.
        """
        user = choice(population)
        for _ in range(10):
            windows = enrolled_windows.get(user)
            if windows is None or not any(s < t1 and e > t0 for s, e in windows):
                return user
            user = choice(population)
        return user

    for day in all_days:
        midnight = to_minutes(day)
        day_lo, day_hi = midnight + TEACHING_DAY_START_MIN, midnight + TEACHING_DAY_END_MIN
        todays = sorted(events_by_day[day], key=lambda e: (e.room_id, e.start))
        enrolled_windows: dict[str, list[tuple[int, int]]] = {}  # user -> today's class times
        for e in todays:
            window = (to_minutes(e.start), to_minutes(e.end))
            for user in campus.rosters[e.class_id]:
                enrolled_windows.setdefault(user, []).append(window)

        for event in todays:
            room = rooms_by_id[event.room_id]
            own_aps = frozenset(room.aps)
            roster = sorted(campus.rosters[event.class_id])
            start, end = to_minutes(event.start), to_minutes(event.end)
            duration = end - start

            ratio = rng.uniform(*config.attendance_ratio)
            going = rng.sample(roster, max(1, round(ratio * len(roster))))
            if config.walkin_prob > 0:
                extras = round(config.walkin_prob * len(going))
                outsiders = [u for u in population if u not in campus.rosters[event.class_id]]
                going.extend(rng.sample(outsiders, min(extras, len(outsiders))))
            silent: set[str] = set()
            for user in sorted(going):
                if uniform() < config.non_connect_prob:
                    silent.add(user)
                    continue
                offset = gauss(config.arrival_mean, config.arrival_sd)
                offset = max(-config.early_arrival_limit, min(duration - 15, offset))
                arrive = start + round(offset)
                depart = max(arrive + 10, end + round(gauss(0.0, config.depart_sd)))
                for device in range(_weighted_choice(uniform(), devices)):
                    dev_start = arrive if device == 0 else min(depart - 5, arrive + randint(0, 40))
                    ap = None
                    for s, e in segments(dev_start, depart):
                        ap = pick(room, ap)
                        emit(user, device, ap, s, e, ap in own_aps)

            attendees[event.class_id] = frozenset(going)
            non_connecting[event.class_id] = frozenset(silent)

            for user in sorted(set(roster) - set(going)):
                r = uniform()
                if r < config.lingerer_prob:
                    win_lo = max(day_lo, start - 45)
                    win_hi = min(day_hi, end + 45)
                    for _ in range(randint(1, 2)):
                        s = randint(win_lo, max(win_lo, win_hi - 10))
                        e = min(win_hi, s + randint(4, 14))
                        if uniform() < 0.8:
                            ap = choice(room.corridor_aps)
                        else:
                            ap = choice(room.aps)
                        emit(user, 0, ap, s, e, False)
                elif r < config.lingerer_prob + config.remote_prob:
                    far_corridors = sorted(
                        x.corridor_aps[0]
                        for x in campus.rooms
                        if x.room_id != room.room_id and x.corridor_aps
                    )
                    if uniform() < 0.6 or not far_corridors:
                        ap = choice(campus.walkway_aps)
                    else:
                        ap = choice(far_corridors)
                    s = randint(day_lo, day_hi - 25)
                    e = min(day_hi, s + randint(20, 120))
                    emit(user, 0, ap, s, e, False)

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
                t = randint(day_lo, day_hi - 2)
                dwell = max(1, round(rng.expovariate(1.0 / config.bystander_dwell_mean)))
                user = free_user(t, t + dwell)
                if room is not None and uniform() < config.bystander_in_room_prob:
                    ap = choice(room.aps)
                else:
                    ap = choice(corridor_aps)
                emit(user, 0, ap, t, t + dwell, False)
            target = ambient * len(corridor_aps)
            arrivals = [day_lo] * _poisson(rng, target)
            arrivals += [
                randint(day_lo, day_hi - 30)
                for _ in range(_poisson(rng, target * 60 / LONG_DWELL_TURNOVER * (day_hi - day_lo) / 60))
            ]
            for t in sorted(arrivals):
                e = min(day_hi, t + randint(dwell_lo, dwell_hi))
                user = free_user(t, e)
                prev = None
                for s, seg_e in segments(t, e):
                    if prev is None or uniform() > 0.6:
                        prev = choice(corridor_aps)
                    emit(user, 0, prev, s, seg_e, False)

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
            # window opens plus Poisson arrivals balancing the mean stay
            target = config.idle_room_users_per_ap * len(room.aps)
            for win_lo, win_hi in idle:
                if win_hi - win_lo < 15:
                    continue
                hours = (win_hi - win_lo) / 60
                arrivals = [win_lo] * _poisson(rng, target)
                arrivals += [
                    randint(win_lo, max(win_lo, win_hi - 10))
                    for _ in range(_poisson(rng, target * 60 / LONG_DWELL_TURNOVER * hours))
                ]
                for t in arrivals:
                    e = min(win_hi, t + randint(dwell_lo, dwell_hi))
                    user = free_user(t, e)
                    ap = choice(room.aps)
                    emit(user, 0, ap, t, e, True)

    rows.sort(key=itemgetter(0, 1, 2, 3, 4))
    return rows, GroundTruth(attendees, non_connecting)


def write_sessions_csv(path, rows) -> None:
    """Write session-log rows; each distinct day, stamp, MAC and duration is formatted once."""
    days = _Memo(lambda day: format_minutes(day * 1440)[:-5])  # the stamp without `HH:MM`
    clocks = [f"{minute // 60:02d}:{minute % 60:02d}" for minute in range(1440)]
    stamps = _Memo(lambda minutes: days[minutes // 1440] + clocks[minutes % 1440])
    macs = _Memo(lambda pair: _device_mac(*pair))
    lengths = _Memo("{} min".format)
    lines = (
        (user, macs[user, device], stamps[start], "-" if ongoing else stamps[end],
         lengths[end - start], ap, tx, rcvd, snr, rssi, "Ass" if ongoing else "Disass")
        for start, user, device, ap, end, ongoing, rssi, snr, tx, rcvd in rows
    )
    write_rows(path, SESSION_COLUMNS, lines)


def write_timetable_csv(path, events: list[ClassEvent]) -> None:
    lines = (
        (e.class_id, e.room_id, e.start.strftime(DATE_FMT), e.start.strftime(CLOCK_FMT),
         e.end.strftime(CLOCK_FMT))
        for e in events
    )
    write_rows(path, TIMETABLE_COLUMNS, lines)


def write_roster_csv(path, rosters: dict[str, frozenset[str]]) -> None:
    lines = ((class_id, user) for class_id in sorted(rosters) for user in sorted(rosters[class_id]))
    write_rows(path, ROSTER_COLUMNS, lines)


def write_inventory_csv(path, inventory: ApInventory) -> None:
    locations = ((ap, inventory.location(ap)) for ap in inventory)
    lines = ((ap, loc.room_id or "corridor", loc.building, loc.floor) for ap, loc in locations)
    write_rows(path, INVENTORY_COLUMNS, lines)


def write_ground_truth(users_path, counts_path, campus: Campus, truth: GroundTruth) -> None:
    attendees = sorted(truth.attendees.items())
    users = (
        (class_id, user, int(user in present))
        for class_id, present in attendees
        for user in sorted(campus.rosters[class_id] | present)
    )
    write_rows(users_path, GROUND_TRUTH_USER_COLUMNS, users)
    counts = ((class_id, len(present)) for class_id, present in attendees)
    write_rows(counts_path, GROUND_TRUTH_COUNT_COLUMNS, counts)


def load_ground_truth_counts(path, delimiter: str = ",") -> dict[str, int]:
    """class_id -> true occupancy; blank rows are skipped, any other malformed row is fatal."""
    counts: dict[str, int] = {}
    for line_no, fields in read_rows(path, delimiter, GROUND_TRUTH_COUNT_COLUMNS):
        _check_row(path, line_no, fields, GROUND_TRUTH_COUNT_COLUMNS)
        class_id, text = fields[:2]
        try:
            count = int(text)
        except ValueError:
            count = -1
        if count < 0:
            raise DataValidationError(
                f"{path}: row {line_no}: true_count {text!r} is not a non-negative integer"
            )
        if class_id in counts:
            raise DataValidationError(f"{path}: row {line_no}: duplicate class_id {class_id}")
        counts[class_id] = count
    return counts


def simulate_corpus(config: SimConfig, out_dir) -> tuple[Campus, GroundTruth]:
    """Generate a campus and write the full corpus file set into `out_dir`."""
    campus = generate_campus(config)
    rows, truth = simulate_sessions(campus, config)
    os.makedirs(out_dir, exist_ok=True)
    write_sessions_csv(os.path.join(out_dir, "sessions.csv"), rows)
    write_timetable_csv(os.path.join(out_dir, "timetable.csv"), campus.events)
    write_roster_csv(os.path.join(out_dir, "roster.csv"), campus.rosters)
    write_inventory_csv(os.path.join(out_dir, "inventory.csv"), campus.inventory)
    write_ground_truth(
        os.path.join(out_dir, "ground_truth_users.csv"),
        os.path.join(out_dir, "ground_truth_counts.csv"),
        campus,
        truth,
    )
    return campus, truth
