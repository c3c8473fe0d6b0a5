"""Per-user features separating room occupants from bystanders.

For one class, a user is featured when they have at least one session on the
class's mapped APs during the class window. `extract_class_features` takes
many classes in one pass. Six features are computed from
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

from .records import TEACHING_DAY_END_MIN, TEACHING_DAY_START_MIN, ClassEvent, to_minutes
from .store import RSSI_MISSING, SessionStore, _row_order, grouped_running_max

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


@dataclass(eq=False)
class BatchFeatures:
    """The `ClassFeatures` of several classes, in the order they were asked for.

    Its length is the number of featured users over all the classes.
    """

    classes: list[ClassFeatures]

    def __len__(self) -> int:
        return sum(map(len, self.classes))


def extract_class_features(
    store: SessionStore, events: list[ClassEvent], mapped_aps: list[frozenset[str]]
) -> BatchFeatures:
    """Features of every user featured in each class, in user-code order.

    `mapped_aps[i]` is the AP set of `events[i]`. One `sessions_overlapping`
    query gathers the sessions of every class, and rows are grouped by
    (class, user). Users with no session on the mapped APs during the class
    window are skipped entirely: they are unfeatured, not bystanders by fiat.
    Every row starts as a bystander until `label_vectors` marks the occupants.
    """
    n_classes = len(events)
    class_lo = np.array([to_minutes(e.start) for e in events], dtype=np.int64)
    class_hi = np.array([to_minutes(e.end) for e in events], dtype=np.int64)
    midnight = np.array([to_minutes(e.date) for e in events], dtype=np.int64)
    day_lo = midnight + TEACHING_DAY_START_MIN
    day_hi = midnight + TEACHING_DAY_END_MIN

    rows, query = store.sessions_overlapping(mapped_aps, list(zip(day_lo.tolist(), day_hi.tolist())))
    table = store.table
    order = _row_order(query, table.user[rows], table.start[rows])
    rows, query = rows[order], query[order]
    user, start, end = table.user[rows], table.start[rows], table.end[rows]
    opens = np.ones(rows.size, dtype=bool)
    opens[1:] = (query[1:] != query[:-1]) | (user[1:] != user[:-1])
    group = np.cumsum(opens) - 1
    heads = np.flatnonzero(opens)
    n_groups = heads.size
    # the latest end among each row's earlier rows of its group; none for a group's first row
    reach = np.empty_like(end)
    reach[1:] = grouped_running_max(group, end)[:-1]
    reach[heads] = np.iinfo(np.int64).min
    # each row's class window and teaching day
    row_class_lo, row_class_hi = class_lo[query], class_hi[query]
    row_day_lo, row_day_hi = day_lo[query], day_hi[query]

    def union(lo, hi):
        """Per group, the minutes of the union of its sessions clipped to [lo, hi) of each row.

        Each row adds the part of it past the latest end of its group's
        earlier rows; clipped to the window, that end is min(reach, hi).
        """
        start_in, end_in = np.maximum(start, lo), np.minimum(end, hi)
        added = end_in - np.maximum(start_in, np.minimum(reach, hi))
        return np.bincount(group, weights=np.maximum(added, 0), minlength=n_groups)

    in_minutes = union(row_class_lo, row_class_hi)
    # the teaching-day union minus its part inside the class window; a class
    # may run past 9pm, so that part is not the in-class union
    out_minutes = union(row_day_lo, row_day_hi) - union(
        np.maximum(row_day_lo, row_class_lo), np.minimum(row_day_hi, row_class_hi)
    )

    in_class = np.flatnonzero(np.minimum(end, row_class_hi) > np.maximum(start, row_class_lo))
    in_group = group[in_class]
    n_sessions = np.bincount(in_group, minlength=n_groups)
    n_macs = len(table.mac_names)
    # sorted here, not by np.unique, which imports numpy.ma on its first call (8 ms)
    devices = np.sort(in_group * n_macs + table.mac[rows[in_class]])
    distinct = np.ones(devices.size, dtype=bool)
    distinct[1:] = devices[1:] != devices[:-1]
    n_devices = np.bincount(devices[distinct] // n_macs, minlength=n_groups)
    # rows are sorted by start, so a group's first in-class row starts earliest
    first_in = np.ones(in_group.size, dtype=bool)
    first_in[1:] = in_group[1:] != in_group[:-1]
    firsts = in_class[first_in]
    arrival = np.maximum(start[firsts], row_class_lo[firsts]) - row_class_lo[firsts]

    rssi = table.rssi[rows[in_class]]
    known = rssi != RSSI_MISSING
    rssi_count = np.bincount(in_group[known], minlength=n_groups)
    # float64 sums of the integer magnitudes are exact below 2**53 and, unlike
    # an int64 sum, cannot wrap; divided by the count they equal np.mean
    rssi_sum = np.bincount(in_group[known], weights=np.abs(rssi[known]), minlength=n_groups)

    featured = n_sessions > 0
    klass = query[heads][featured]  # the class of each featured group
    duration = (class_hi - class_lo)[klass]
    t_in = 100.0 * in_minutes[featured] / duration
    out_denom = (TEACHING_DAY_END_MIN - TEACHING_DAY_START_MIN) - duration
    with np.errstate(divide="ignore", invalid="ignore"):
        t_out = np.where(out_denom > 0, 100.0 * out_minutes[featured] / out_denom, 0.0)
        avg_rssi = rssi_sum[featured] / rssi_count[featured]  # 0 / 0 is NaN: no RSSI
    matrix = np.column_stack(
        [t_in, t_out, arrival, n_sessions[featured], n_devices[featured], avg_rssi]
    )
    users = [table.user_names[code] for code in user[heads][featured].tolist()]
    bounds = np.zeros(n_classes + 1, dtype=np.int64)
    np.cumsum(np.bincount(klass, minlength=n_classes), out=bounds[1:])
    return BatchFeatures([
        ClassFeatures(users[lo:hi], matrix[lo:hi], np.zeros(hi - lo, dtype=bool))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ])


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
