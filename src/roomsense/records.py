"""Domain records: class events and the AP inventory, the corpus file columns,
the error classes and the minute-precision time helpers.

All timestamps are naive local time at minute precision. Sessions are treated
as half-open intervals [assoc, end): a session ending exactly at an instant
does not cover it.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime, timedelta

TIME_FMT = "%d/%m/%Y %H:%M"
DATE_FMT = "%d/%m/%Y"
CLOCK_FMT = "%H:%M"

OCCUPANT = "occupant"
BYSTANDER = "bystander"

# Lectures run 9am-9pm; every session log, simulated or loaded, is reported at 9pm.
TEACHING_DAY_START_MIN = 9 * 60
TEACHING_DAY_END_MIN = 21 * 60
REPORT_HOUR = 21

# Column order of a session-log file. Trailing extra columns (e.g. Retries)
# are accepted and ignored.
SESSION_COLUMNS = (
    "User ID",
    "MAC address",
    "Association time",
    "Disassociation time",
    "Session duration",
    "AP name",
    "Bytes Tx",
    "Bytes Rcvd",
    "SNR",
    "RSSI",
    "Status",
)

TIMETABLE_COLUMNS = ("class_id", "room_id", "date", "start", "end")
ROSTER_COLUMNS = ("class_id", "user_id")
INVENTORY_COLUMNS = ("ap_name", "room_id", "building", "floor")
GROUND_TRUTH_COUNT_COLUMNS = ("class_id", "true_count")
GROUND_TRUTH_USER_COLUMNS = ("class_id", "user_id", "occupant")

ALLOWED_CLASS_MINUTES = frozenset({30, 60, 90, 120, 150, 180, 240})

CORRIDOR_MARKERS = frozenset({"corridor", "walkway"})

_EPOCH = datetime(1970, 1, 1)


class RoomsenseError(Exception):
    """Base class for all errors raised by this package; `exit_code` is the CLI's."""

    exit_code = 1


class ConfigError(RoomsenseError):
    """Bad configuration or usage (exit code 1)."""


class DataValidationError(RoomsenseError):
    """Fatal input-data problem (exit code 2)."""

    exit_code = 2


class NumericalError(RoomsenseError):
    """Numerical failure in a model or clustering stage (exit code 3)."""

    exit_code = 3


class DegenerateDataError(NumericalError):
    """Input too degenerate for the requested computation."""


def to_minutes(stamp: datetime) -> int:
    """Minutes since epoch for a naive timestamp (seconds discarded)."""
    delta = stamp - _EPOCH
    return delta.days * 1440 + delta.seconds // 60


def from_minutes(minutes: int) -> datetime:
    return _EPOCH + timedelta(minutes=int(minutes))


def parse_stamp(text: str) -> datetime:
    """Parse 'dd/mm/yyyy HH:MM'. Raises ValueError on malformed input."""
    day_part, clock_part = text.strip().split(" ", 1)
    day, month, year = day_part.split("/")
    hour, minute = clock_part.strip().split(":")
    return datetime(int(year), int(month), int(day), int(hour), int(minute))


def format_stamp(stamp: datetime) -> str:
    return stamp.strftime(TIME_FMT)


def format_minutes(minutes: int) -> str:
    return format_stamp(from_minutes(minutes))


def day_start(stamp: datetime) -> datetime:
    return stamp.replace(hour=0, minute=0)


@dataclass(frozen=True)
class ClassEvent:
    """A timetabled class held in one room."""

    class_id: str
    room_id: str
    start: datetime
    end: datetime

    @property
    def duration_minutes(self) -> int:
        return to_minutes(self.end) - to_minutes(self.start)

    @property
    def date(self) -> datetime:
        return day_start(self.start)


@dataclass(frozen=True)
class ApLocation:
    """Ground-truth location of one AP. room_id is None for corridor/walkway APs."""

    room_id: str | None
    building: str
    floor: int

    @property
    def is_corridor(self) -> bool:
        return self.room_id is None


class ApInventory:
    """Ground-truth AP locations; used only to evaluate mappings, never to make them."""

    def __init__(self, locations: dict[str, ApLocation]):
        self._locations = dict(locations)
        self._positives: dict[tuple[str, bool], frozenset[str]] = {}

    def __contains__(self, ap_name: str) -> bool:
        return ap_name in self._locations

    def __len__(self) -> int:
        return len(self._locations)

    def __iter__(self):
        return iter(sorted(self._locations))

    def location(self, ap_name: str) -> ApLocation:
        return self._locations[ap_name]

    def room_aps(self, room_id: str) -> frozenset[str]:
        return frozenset(a for a, loc in self._locations.items() if loc.room_id == room_id)

    def positives_for_room(self, room_id: str, adjacency: bool = True) -> frozenset[str]:
        """APs that ground truth associates with a room.

        With `adjacency` on, corridor APs on the building+floor of the room's
        first AP count as associated as well. A room without an AP of its own
        has no positive AP in either mode. Each answer is computed once.
        """
        key = (room_id, adjacency)
        if key not in self._positives:
            names = self.room_aps(room_id)
            home = next((loc for loc in self._locations.values() if loc.room_id == room_id), None)
            if adjacency and home is not None:
                names |= {
                    ap
                    for ap, loc in self._locations.items()
                    if loc.is_corridor and (loc.building, loc.floor) == (home.building, home.floor)
                }
            self._positives[key] = names
        return self._positives[key]
