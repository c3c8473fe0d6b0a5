"""The per-AP mapping queries and the per-user feature loop, kept as test oracles.

These are the loops that `SessionStore.user_counts_at`,
`mapping.compute_ap_features` and `userfeatures.extract_class_features`
replaced with whole-class array operations. The oracle tests in
test_oracles.py require the new code to return exactly what these return.
"""
from __future__ import annotations

from datetime import timedelta
from itertools import groupby
from operator import itemgetter

import numpy as np

from roomsense.mapping import TRIM_MINUTES, ApFeatureSeries, sample_times
from roomsense.records import (
    TEACHING_DAY_END_MIN,
    TEACHING_DAY_START_MIN,
    ClassEvent,
    day_start,
    to_minutes,
)
from roomsense.store import RSSI_MISSING, SessionStore
from roomsense.userfeatures import FEATURE_NAMES, ClassFeatures


def merge_intervals(intervals):
    """Merge [start, end] pairs into a disjoint sorted list.

    Touching intervals (end == next start) coalesce, matching the half-open
    convention used everywhere else. Works on any comparable endpoint type.
    """
    spans = sorted((s, e) for s, e in intervals)
    merged: list[list] = []
    for start, end in spans:
        if merged and start <= merged[-1][1]:
            if end > merged[-1][1]:
                merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged]


def _merged(store: SessionStore, ap_name: str):
    """(start, end, user) of the store's merged intervals on one AP, or None."""
    code = store._ap_code.get(ap_name)
    if code is None:
        return None
    merged = store._merged
    rows = np.arange(merged.offsets[code], merged.offsets[code + 1])
    return merged.starts(rows, code), merged.end[rows], merged.user[rows]


def user_counts_at(
    store: SessionStore, ap_name: str, times: np.ndarray, member_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-user connection counts on one AP at each sample time: (total, members)."""
    merged = _merged(store, ap_name)
    n = len(times)
    if merged is None or merged[0].size == 0:
        zero = np.zeros(n, dtype=np.int64)
        return zero, zero.copy()
    m_start, m_end, m_user = merged
    lo, hi = int(times.min()), int(times.max())
    window = (m_start <= hi) & (m_end > lo)
    starts, ends, users = m_start[window], m_end[window], m_user[window]
    cover = (starts[:, None] <= times[None, :]) & (times[None, :] < ends[:, None])
    total = cover.sum(axis=0)
    if member_ids is None or member_ids.size == 0:
        members = np.zeros(n, dtype=np.int64)
    else:
        members = cover[np.isin(users, member_ids)].sum(axis=0)
    return total, members


def compute_ap_features(
    store: SessionStore, event: ClassEvent, enrolled: frozenset[str], resolution: int
) -> list[ApFeatureSeries]:
    """Feature series for every AP with enrolled activity, one AP at a time."""
    times = sample_times(event, resolution)
    member_ids = store.user_ids(enrolled)
    window_lo = event.start + timedelta(minutes=TRIM_MINUTES)
    window_hi = event.end - timedelta(minutes=TRIM_MINUTES)
    # +1 minute: a session starting exactly at the last (inclusive) sample
    # instant still covers it under the half-open convention
    aps = store.active_aps(window_lo, window_hi + timedelta(minutes=1))

    totals = np.zeros((len(aps), len(times)), dtype=np.int64)
    members = np.zeros_like(totals)
    for i, ap in enumerate(aps):
        totals[i], members[i] = user_counts_at(store, ap, times, member_ids)

    enrolled_sum = members.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        frac_class = np.where(enrolled_sum > 0, 100.0 * members / enrolled_sum, 0.0)
        class_frac = np.where(totals > 0, 100.0 * members / totals, 0.0)

    series = []
    for i, ap in enumerate(aps):
        if members[i].sum() == 0:
            continue
        series.append(ApFeatureSeries(ap, resolution, times, frac_class[i], class_frac[i]))
    return series


def _overlap(lo: int, hi: int, start: int, end: int) -> tuple[int, int] | None:
    s, e = max(lo, start), min(hi, end)
    return (s, e) if e > s else None


def extract_class_features(
    store: SessionStore, event: ClassEvent, mapped_aps: frozenset[str]
) -> ClassFeatures:
    """Features of every user featured in this class, one user at a time."""
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

    users, rows_out = [], []
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
        users.append(table.user_names[user])
        rows_out.append(
            [
                100.0 * in_minutes / duration,
                100.0 * out_minutes / out_denom if out_denom > 0 else 0.0,
                float(max(0, first_seen - class_lo)),
                len(in_class),
                len(macs),
                float(np.mean(rssi_vals)) if rssi_vals else np.nan,
            ]
        )
    matrix = np.array(rows_out, dtype=np.float64).reshape(len(users), len(FEATURE_NAMES))
    return ClassFeatures(users, matrix, np.zeros(len(users), dtype=bool))
