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

from dataclasses import dataclass, replace

import numpy as np

from .records import (
    BYSTANDER,
    OCCUPANT,
    TEACHING_DAY_END_MIN,
    TEACHING_DAY_START_MIN,
    ClassEvent,
    day_start,
    to_minutes,
)
from .store import RSSI_MISSING, SessionStore, grouped_running_max

FEATURE_NAMES = ("t_in", "t_out", "arrival_delay", "n_sessions", "n_devices", "avg_rssi")


@dataclass
class UserFeatureVector:
    user_id: str
    class_id: str
    t_in: float
    t_out: float
    arrival_delay: float
    n_sessions: int
    n_devices: int
    avg_rssi: float | None  # None until imputed when the user has no RSSI at all
    label: str | None = None
    rssi_imputed: bool = False

    def as_array(self) -> np.ndarray:
        if self.avg_rssi is None:
            raise ValueError(f"user {self.user_id}: avg_rssi missing and not imputed")
        return np.array(
            [
                self.t_in,
                self.t_out,
                self.arrival_delay,
                float(self.n_sessions),
                float(self.n_devices),
                self.avg_rssi,
            ]
        )


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
) -> list[UserFeatureVector]:
    """Feature vectors for every user featured in this class, in user-code order.

    Users with no session on the mapped APs during the class window are
    skipped entirely: they are unfeatured, not bystanders by fiat.
    """
    if not mapped_aps:
        return []
    class_lo, class_hi = to_minutes(event.start), to_minutes(event.end)
    duration = class_hi - class_lo
    midnight = to_minutes(day_start(event.start))
    day_lo = midnight + TEACHING_DAY_START_MIN
    day_hi = midnight + TEACHING_DAY_END_MIN

    rows = store.sessions_overlapping(
        mapped_aps, event.date.replace(hour=9), event.date.replace(hour=21)
    )
    if rows.size == 0:
        return []
    table = store.table
    rows = rows[np.lexsort((table.start[rows], table.user[rows]))]
    user, start, end = table.user[rows], table.start[rows], table.end[rows]
    opens = np.ones(rows.size, dtype=bool)
    opens[1:] = user[1:] != user[:-1]
    group = np.cumsum(opens) - 1
    n_users = int(group[-1]) + 1

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
    rssi_count, rssi_sum = rssi_count[featured], rssi_sum[featured]
    with np.errstate(divide="ignore", invalid="ignore"):
        avg_rssi = rssi_sum / rssi_count
    names = table.user_names
    return [
        UserFeatureVector(
            user_id=names[code],
            class_id=event.class_id,
            t_in=t_in_u,
            t_out=t_out_u,
            arrival_delay=float(delay),
            n_sessions=sessions,
            n_devices=devices_u,
            avg_rssi=mean if count else None,
        )
        for code, t_in_u, t_out_u, delay, sessions, devices_u, mean, count in zip(
            user[opens][featured].tolist(),
            t_in.tolist(),
            t_out.tolist(),
            arrival.tolist(),
            n_sessions[featured].tolist(),
            n_devices[featured].tolist(),
            avg_rssi.tolist(),
            rssi_count.tolist(),
        )
    ]


def extract_user_features(
    store: SessionStore, event: ClassEvent, mapped_aps: frozenset[str], user_id: str
) -> UserFeatureVector | None:
    """Features for one user, or None when the user is not featured."""
    for vector in extract_class_features(store, event, mapped_aps):
        if vector.user_id == user_id:
            return vector
    return None


def label_user(user_id: str, enrolled: frozenset[str]) -> str:
    """A featured user appearing in the class list counts as an occupant."""
    return OCCUPANT if user_id in enrolled else BYSTANDER


def label_vectors(
    vectors: list[UserFeatureVector], enrolled: frozenset[str]
) -> list[UserFeatureVector]:
    return [replace(v, label=label_user(v.user_id, enrolled)) for v in vectors]


def impute_rssi(vectors: list[UserFeatureVector], fill: float | None = None) -> float:
    """Fill missing avg_rssi in place with `fill` (or the corpus mean); returns the fill used."""
    if fill is None:
        known = [v.avg_rssi for v in vectors if v.avg_rssi is not None]
        if not known:
            fill = 0.0
        else:
            fill = float(np.mean(known))
    for i, v in enumerate(vectors):
        if v.avg_rssi is None:
            vectors[i] = replace(v, avg_rssi=fill, rssi_imputed=True)
    return fill
