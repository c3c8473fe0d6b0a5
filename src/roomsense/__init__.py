"""roomsense: classroom occupancy estimation from WiFi session logs."""

from .records import ApInventory, ApLocation, ClassEvent
from .store import SessionStore, SessionTable, load_inventory, load_rosters, load_sessions, load_timetable

__version__ = "0.1.0"

__all__ = [
    "ApInventory",
    "ApLocation",
    "ClassEvent",
    "SessionStore",
    "SessionTable",
    "load_inventory",
    "load_rosters",
    "load_sessions",
    "load_timetable",
    "__version__",
]
