"""The per-AP mapping queries and the per-user feature loop, kept as test oracles.

These are the loops that `SessionStore.user_counts_at`,
`mapping.compute_ap_features`, `mapping.build_feature_matrix` and
`userfeatures.extract_class_features` replaced with whole-class array
operations; the whole-class queries (`class_user_counts_at`,
`class_features`) that the many-class ones replaced; the per-class numpy
calls that `clustering.too_few_distinct` and `mapping._margin_scores`
replaced with cheaper ones; and the k-cluster seeding loop that
`clustering._kmeanspp_init` replaced with a two-cluster one. The oracle
tests in test_oracles.py require the new code to return exactly what these
return.
"""
from __future__ import annotations

from datetime import timedelta
from itertools import groupby
from operator import itemgetter

import numpy as np

from roomsense.mapping import TRIM_MINUTES, sample_grid
from roomsense.records import (
    TEACHING_DAY_END_MIN,
    TEACHING_DAY_START_MIN,
    ClassEvent,
    day_start,
    to_minutes,
)
from roomsense.store import RSSI_MISSING, SessionStore, _offsets, _row_order, grouped_running_max
from roomsense.userfeatures import FEATURE_NAMES, ClassFeatures


def sample_times(event: ClassEvent, resolution: int) -> np.ndarray:
    """The sample instants of `mapping.sample_grid`, as an array."""
    first, count = sample_grid(event, resolution)
    return first + resolution * np.arange(count, dtype=np.int64)


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
    index, start, end, user = store._merged
    rows = index.row[index.key // index.span == code]
    return start[rows], end[rows], user[rows]


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


def _sum_by_group(rows: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Column sums of the 2-D `rows` per group code; `groups` is sorted.

    Returns shape (n_groups, columns), with zeros for groups without rows.
    """
    sums = np.zeros((rows.shape[0] + 1, rows.shape[1]), dtype=np.int64)
    np.cumsum(rows, axis=0, out=sums[1:])
    cuts = _offsets(groups, n_groups)
    return sums[cuts[1:]] - sums[cuts[:-1]]


def class_user_counts_at(
    store: SessionStore, times: np.ndarray, member_ids: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct-user connection counts of every AP at each sample time of one class, every AP at once.

    Returns (total, members), int64 arrays of shape (AP code, sample).
    """
    times = np.asarray(times, dtype=np.int64)
    n_aps = len(store.table.ap_names)
    index, start, end, user = store._merged
    if times.size == 0:
        zero = np.zeros((n_aps, 0), dtype=np.int64)
        return zero, zero.copy()
    lo, hi = int(times.min()), int(times.max())
    codes = np.arange(n_aps)
    # an interval covering a sample time in [lo, hi] starts before hi + 1
    rows, query = index.search(codes, lo, hi + 1)
    ap = codes[query]
    ending = end[rows] > lo
    rows, ap = rows[ending], ap[ending]
    cover = (start[rows, None] <= times) & (times < end[rows, None])
    total = _sum_by_group(cover, ap, n_aps)
    if member_ids is None or member_ids.size == 0:
        return total, np.zeros_like(total)
    enrolled = np.zeros(len(store.table.user_names), dtype=bool)
    enrolled[member_ids] = True
    enrolled = enrolled[user[rows]]
    return total, _sum_by_group(cover[enrolled], ap[enrolled], n_aps)


def compute_ap_features(
    store: SessionStore, event: ClassEvent, enrolled: frozenset[str], resolution: int
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """(AP names, fracClass, classFrac) of every AP with enrolled activity, one AP at a time."""
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

    featured = [i for i in range(len(aps)) if members[i].sum() > 0]
    return [aps[i] for i in featured], frac_class[featured], class_frac[featured]


def resample_series(values, target_len: int) -> np.ndarray:
    """Linear interpolation onto `target_len` points over normalized index [0, 1]."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0:
        raise ValueError("cannot resample an empty series")
    if vals.size == 1:
        return np.full(target_len, vals[0])
    src = np.linspace(0.0, 1.0, vals.size)
    dst = np.linspace(0.0, 1.0, target_len)
    return np.interp(dst, src, vals)


def build_feature_matrix(
    ap_names: list[str], frac_class: np.ndarray, class_frac: np.ndarray, resample_len: int
) -> tuple[np.ndarray, list[str]]:
    """Rows sorted by AP name, one AP at a time: resampled fracClass ++ resampled classFrac."""
    ordered = sorted(zip(ap_names, frac_class, class_frac), key=lambda s: s[0])
    rows = [
        np.concatenate([resample_series(f, resample_len), resample_series(c, resample_len)])
        for _, f, c in ordered
    ]
    return np.array(rows), [ap for ap, _, _ in ordered]


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

    rows, _ = store.sessions_overlapping([mapped_aps], [(day_lo, day_hi)])
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


def class_features(store: SessionStore, event: ClassEvent, mapped_aps: frozenset[str]) -> ClassFeatures:
    """Features of every user featured in one class, every user at once, in user-code order."""
    class_lo, class_hi = to_minutes(event.start), to_minutes(event.end)
    duration = class_hi - class_lo
    midnight = to_minutes(event.date)
    day_lo = midnight + TEACHING_DAY_START_MIN
    day_hi = midnight + TEACHING_DAY_END_MIN

    rows, _ = store.sessions_overlapping([mapped_aps], [(day_lo, day_hi)])
    table = store.table
    rows = rows[_row_order(table.user[rows], table.start[rows])]
    user, start, end = table.user[rows], table.start[rows], table.end[rows]
    opens = np.ones(rows.size, dtype=bool)
    opens[1:] = user[1:] != user[:-1]
    group = np.cumsum(opens) - 1
    heads = np.flatnonzero(opens)
    n_users = heads.size
    reach = np.empty_like(end)
    reach[1:] = grouped_running_max(group, end)[:-1]
    reach[heads] = np.iinfo(np.int64).min

    def union(lo, hi):
        start_in, end_in = np.maximum(start, lo), np.minimum(end, hi)
        added = end_in - np.maximum(start_in, np.minimum(reach, hi))
        return np.bincount(group, weights=np.maximum(added, 0), minlength=n_users)

    in_minutes = union(class_lo, class_hi)
    out_minutes = union(day_lo, day_hi) - union(max(day_lo, class_lo), min(day_hi, class_hi))

    in_class = np.flatnonzero(np.minimum(end, class_hi) > np.maximum(start, class_lo))
    in_group = group[in_class]
    n_sessions = np.bincount(in_group, minlength=n_users)
    n_macs = len(table.mac_names)
    devices = np.sort(in_group * n_macs + table.mac[rows[in_class]])
    distinct = np.ones(devices.size, dtype=bool)
    distinct[1:] = devices[1:] != devices[:-1]
    n_devices = np.bincount(devices[distinct] // n_macs, minlength=n_users)
    first_in = np.ones(in_group.size, dtype=bool)
    first_in[1:] = in_group[1:] != in_group[:-1]
    firsts = in_class[first_in]
    arrival = np.maximum(start[firsts], class_lo) - class_lo

    rssi = table.rssi[rows[in_class]]
    known = rssi != RSSI_MISSING
    rssi_count = np.bincount(in_group[known], minlength=n_users)
    rssi_sum = np.bincount(in_group[known], weights=np.abs(rssi[known]), minlength=n_users)

    featured = n_sessions > 0
    t_in = 100.0 * in_minutes[featured] / duration
    out_denom = (day_hi - day_lo) - duration
    t_out = 100.0 * out_minutes[featured] / out_denom if out_denom > 0 else np.zeros_like(t_in)
    with np.errstate(divide="ignore", invalid="ignore"):
        avg_rssi = rssi_sum[featured] / rssi_count[featured]
    matrix = np.column_stack(
        [t_in, t_out, arrival, n_sessions[featured], n_devices[featured], avg_rssi]
    )
    users = [table.user_names[code] for code in user[heads][featured].tolist()]
    return ClassFeatures(users, matrix, np.zeros(len(users), dtype=bool))


def too_few_distinct(X: np.ndarray, k: int) -> bool:
    """Whether `X` has fewer than `k` distinct rows, counted by sorting them."""
    return np.unique(X, axis=0).shape[0] < k


def kmeanspp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding of `k` centroids, each drawn by squared distance to the nearest so far."""
    n = X.shape[0]
    centroids = np.empty((k, X.shape[1]))
    centroids[0] = X[rng.integers(n)]
    for j in range(1, k):
        d2 = np.min(((X[:, None, :] - centroids[None, :j, :]) ** 2).sum(axis=2), axis=1)
        total = d2.sum()
        if total <= 0:
            centroids[j] = X[rng.integers(n)]
            continue
        centroids[j] = X[rng.choice(n, p=d2 / total)]
    return centroids


def margin_scores(matrix: np.ndarray, is_mapped: np.ndarray) -> list[float]:
    """Each row's `np.linalg.norm` distance to the rival centroid minus that to the mapped one."""
    mapped = matrix[is_mapped].mean(axis=0)
    rival = matrix[~is_mapped].mean(axis=0)
    return [
        float(np.linalg.norm(row - rival)) - float(np.linalg.norm(row - mapped)) for row in matrix
    ]
