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
from itertools import groupby
from operator import itemgetter

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
from .store import RSSI_MISSING, SessionStore, merge_intervals

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


def _overlap(lo: int, hi: int, start: int, end: int) -> tuple[int, int] | None:
    s, e = max(lo, start), min(hi, end)
    return (s, e) if e > s else None


def extract_class_features(
    store: SessionStore, event: ClassEvent, mapped_aps: frozenset[str]
) -> list[UserFeatureVector]:
    """Feature vectors for every user featured in this class.

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
    table = store.table
    # a stable sort keeps each user's sessions in the store's AP-then-time order
    rows = rows[np.argsort(table.user[rows], kind="stable")]
    sessions = zip(
        table.user[rows].tolist(),
        table.mac[rows].tolist(),
        table.start[rows].tolist(),
        table.end[rows].tolist(),
        table.rssi[rows].tolist(),
    )

    out: list[UserFeatureVector] = []
    out_denom = (day_hi - day_lo) - duration
    for user, user_sessions in groupby(sessions, key=itemgetter(0)):
        in_class = []
        day_spans = []
        macs = set()
        rssi_vals = []
        first_seen = None
        for _, mac, s, e, rssi in user_sessions:
            span = _overlap(class_lo, class_hi, s, e)
            if span is not None:
                in_class.append(span)
                macs.add(mac)
                if rssi != RSSI_MISSING:
                    rssi_vals.append(abs(rssi))
                if first_seen is None or span[0] < first_seen:
                    first_seen = span[0]
            day_span = _overlap(day_lo, day_hi, s, e)
            if day_span is not None:
                day_spans.append(day_span)
        if not in_class:
            continue

        merged_in = merge_intervals(in_class)
        in_minutes = sum(e - s for s, e in merged_in)
        merged_day = merge_intervals(day_spans)
        day_minutes = sum(e - s for s, e in merged_day)
        out_minutes = day_minutes - sum(
            e - s
            for s, e in (
                _overlap(class_lo, class_hi, ds, de) or (0, 0) for ds, de in merged_day
            )
        )
        out.append(
            UserFeatureVector(
                user_id=table.user_names[user],
                class_id=event.class_id,
                t_in=100.0 * in_minutes / duration,
                t_out=100.0 * out_minutes / out_denom if out_denom > 0 else 0.0,
                arrival_delay=float(max(0, first_seen - class_lo)),
                n_sessions=len(in_class),
                n_devices=len(macs),
                avg_rssi=float(np.mean(rssi_vals)) if rssi_vals else None,
            )
        )
    return out


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
