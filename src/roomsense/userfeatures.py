"""Per-user features separating room occupants from bystanders.

For one class, a user is featured when they have at least one session on the
class's mapped APs during the class window. Six features are computed from
those sessions plus the user's other activity on the same APs during the
9am-9pm teaching day:

  t_in          % of the class covered by merged in-class connected time
  t_out         % of the rest of the teaching day spent connected nearby
  arrival_delay minutes from class start to first in-class appearance
  n_sessions    raw session count during the class
  n_devices     distinct devices during the class
  avg_rssi      mean signal-strength magnitude over those sessions
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .records import TEACHING_DAY_END_MIN, TEACHING_DAY_START_MIN, ClassEvent, from_minutes, to_minutes
from .store import RSSI_MISSING, SessionStore, grouped_running_max

FEATURE_NAMES = ("t_in", "t_out", "arrival_delay", "n_sessions", "n_devices", "avg_rssi")
AVG_RSSI = FEATURE_NAMES.index("avg_rssi")


@dataclass(eq=False)
class ClassFeatures:
    """The featured users of one class, one row each.

    `matrix` is float64 of shape (users, len(FEATURE_NAMES)); `avg_rssi` is
    NaN for a user without any RSSI reading until `impute_rssi` fills it.
    `occupant` flags the rows `label_vectors` marked as enrolled users.
    """

    users: list[str]
    matrix: np.ndarray
    occupant: np.ndarray

    def __len__(self) -> int:
        return len(self.users)


def stack(features: list[ClassFeatures]) -> tuple[np.ndarray, np.ndarray]:
    """The rows and occupant flags of several classes, in list order."""
    if not features:
        return np.empty((0, len(FEATURE_NAMES))), np.empty(0, dtype=bool)
    return np.vstack([f.matrix for f in features]), np.concatenate([f.occupant for f in features])


def _union_minutes(group: np.ndarray, start: np.ndarray, end: np.ndarray, n_groups: int):
    """Per-group length of the union of the intervals [start, end).

    Rows are sorted by (group, start), with group codes 0..n_groups-1. Each
    row adds the part of it past the running maximum end of the earlier rows
    of its group; a row with end <= start adds nothing.
    """
    reach = np.empty_like(end)
    reach[1:] = grouped_running_max(group, end)[:-1]
    firsts = np.flatnonzero(np.diff(group, prepend=-1))
    reach[firsts] = start[firsts]
    added = np.maximum(end - np.maximum(start, reach), 0)
    return np.bincount(group, weights=added, minlength=n_groups)


def extract_class_features(
    store: SessionStore, event: ClassEvent, mapped_aps: frozenset[str]
) -> ClassFeatures:
    """Features of every user featured in this class, in user-code order.

    Users with no session on the mapped APs during the class window are
    skipped entirely: they are unfeatured, not bystanders by fiat. Every
    row starts as a bystander until `label_vectors` marks the occupants.
    """
    class_lo, class_hi = to_minutes(event.start), to_minutes(event.end)
    duration = class_hi - class_lo
    midnight = to_minutes(event.date)
    day_lo = midnight + TEACHING_DAY_START_MIN
    day_hi = midnight + TEACHING_DAY_END_MIN

    rows = store.sessions_overlapping(mapped_aps, from_minutes(day_lo), from_minutes(day_hi))
    table = store.table
    rows = rows[np.lexsort((table.start[rows], table.user[rows]))]
    user, start, end = table.user[rows], table.start[rows], table.end[rows]
    opens = np.ones(rows.size, dtype=bool)
    opens[1:] = user[1:] != user[:-1]
    group = np.cumsum(opens) - 1
    n_users = int(opens.sum())

    def union(lo, hi):
        return _union_minutes(group, np.maximum(start, lo), np.minimum(end, hi), n_users)

    in_minutes = union(class_lo, class_hi)
    # the teaching-day union minus its part inside the class window; a class
    # may run past 9pm, so that part is not the in-class union
    out_minutes = union(day_lo, day_hi) - union(max(day_lo, class_lo), min(day_hi, class_hi))

    in_class = np.flatnonzero(np.minimum(end, class_hi) > np.maximum(start, class_lo))
    in_group = group[in_class]
    n_sessions = np.bincount(in_group, minlength=n_users)
    n_macs = len(table.mac_names)
    devices = np.unique(in_group * n_macs + table.mac[rows[in_class]])
    n_devices = np.bincount(devices // n_macs, minlength=n_users)
    # rows are sorted by start, so a user's first in-class row starts earliest
    firsts = in_class[np.flatnonzero(np.diff(in_group, prepend=-1))]
    arrival = np.maximum(start[firsts], class_lo) - class_lo

    rssi = table.rssi[rows[in_class]]
    known = rssi != RSSI_MISSING
    rssi_count = np.bincount(in_group[known], minlength=n_users)
    # float64 sums of the integer magnitudes are exact below 2**53 and, unlike
    # an int64 sum, cannot wrap; divided by the count they equal np.mean
    rssi_sum = np.bincount(in_group[known], weights=np.abs(rssi[known]), minlength=n_users)

    featured = n_sessions > 0
    t_in = 100.0 * in_minutes[featured] / duration
    out_denom = (day_hi - day_lo) - duration
    t_out = 100.0 * out_minutes[featured] / out_denom if out_denom > 0 else np.zeros_like(t_in)
    with np.errstate(divide="ignore", invalid="ignore"):
        avg_rssi = rssi_sum[featured] / rssi_count[featured]  # 0 / 0 is NaN: no RSSI
    matrix = np.column_stack(
        [t_in, t_out, arrival, n_sessions[featured], n_devices[featured], avg_rssi]
    )
    users = [table.user_names[code] for code in user[opens][featured].tolist()]
    return ClassFeatures(users, matrix, np.zeros(len(users), dtype=bool))


def label_vectors(features: ClassFeatures, enrolled: frozenset[str]) -> None:
    """Mark the featured users appearing in the class list as occupants."""
    features.occupant[:] = [user in enrolled for user in features.users]


def impute_rssi(features: list[ClassFeatures], fill: float | None = None) -> float:
    """Fill missing avg_rssi in place with `fill` (or the mean of the known
    values over all the classes); returns the fill used."""
    if fill is None:
        rssi = stack(features)[0][:, AVG_RSSI]
        known = rssi[~np.isnan(rssi)]
        fill = float(np.mean(known)) if known.size else 0.0
    for f in features:
        rssi = f.matrix[:, AVG_RSSI]
        rssi[np.isnan(rssi)] = fill
    return fill
