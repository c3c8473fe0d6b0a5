"""Columnar session-log loading and time-window queries.

`load_sessions` parses a session log straight into a `SessionTable` of numpy
columns. `SessionStore` indexes the table once; every query is read-only.
"""
from __future__ import annotations

import csv
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime

import numpy as np

from .records import (
    ALLOWED_CLASS_MINUTES,
    CORRIDOR_MARKERS,
    DEFAULT_REPORT_HOUR,
    INVENTORY_COLUMNS,
    ROSTER_COLUMNS,
    SESSION_COLUMNS,
    TIMETABLE_COLUMNS,
    ApInventory,
    ApLocation,
    ClassEvent,
    DataValidationError,
    parse_stamp,
    to_minutes,
)

# `rssi` column value of a session whose RSSI was logged as `-` or empty.
RSSI_MISSING = -(2**63)


@dataclass(frozen=True, eq=False)
class SessionTable:
    """Accepted sessions as parallel int64 columns, one entry per session.

    `user`, `mac` and `ap` are codes into the sorted name lists, so ordering
    by code is ordering by name. `start` and `end` are minutes since epoch of
    the half-open interval [start, end); `end` is the effective end (the
    report time for ongoing sessions). `rssi` holds RSSI_MISSING where unknown.
    """

    user_names: list[str]
    mac_names: list[str]
    ap_names: list[str]
    user: np.ndarray
    mac: np.ndarray
    ap: np.ndarray
    start: np.ndarray
    end: np.ndarray
    rssi: np.ndarray

    def __len__(self) -> int:
        return len(self.start)


@dataclass
class LoadReport:
    """Per-file validation outcome: rejected rows and non-fatal warnings."""

    rejects: list[tuple[int, str]] = field(default_factory=list)
    warnings: list[tuple[int, str]] = field(default_factory=list)
    rows_read: int = 0

    def reject(self, line_no: int, reason: str) -> None:
        self.rejects.append((line_no, reason))

    def warn(self, line_no: int, message: str) -> None:
        self.warnings.append((line_no, message))


@contextmanager
def _open_rows(path, delimiter: str):
    """The csv rows of a text file, with read and parse errors as `DataValidationError`.

    Guards the whole `with` body: an undecodable byte or a csv error (such as
    a field beyond the csv module's size limit) names the file and its line.
    """
    try:
        handle = open(path, "r", newline="")
    except OSError as exc:
        raise DataValidationError(f"cannot read {path}: {exc}") from exc
    rows = csv.reader(handle, delimiter=delimiter)
    with handle:
        try:
            yield rows
        except UnicodeDecodeError as exc:
            line = _undecodable_line(path, handle.encoding)
            raise DataValidationError(
                f"{path}: line {line}: not valid {handle.encoding} text ({exc.reason})"
            ) from exc
        except csv.Error as exc:
            raise DataValidationError(f"{path}: line {rows.line_num}: {exc}") from exc
        except OSError as exc:
            raise DataValidationError(f"cannot read {path}: {exc}") from exc


def _undecodable_line(path, encoding: str) -> int:
    """Line number of the first byte sequence in `path` that `encoding` cannot decode.

    A text reader decodes in chunks, so its error does not say which line
    holds the bad byte; the file is decoded again as a whole to find it.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode(encoding)
    except UnicodeDecodeError as exc:
        return data.count(b"\n", 0, exc.start) + 1
    return 0


def _check_header(path, header, expected) -> None:
    if header is None:
        raise DataValidationError(f"{path}: empty file, expected header {expected}")
    got = [h.strip() for h in header[: len(expected)]]
    if [g.lower() for g in got] != [e.lower() for e in expected]:
        raise DataValidationError(
            f"{path}: header mismatch, expected columns {list(expected)}, found {got}"
        )


def read_rows(path, delimiter: str, columns):
    """(line number, fields) of every non-blank data row of a tabular file.

    The header must start with `columns`, compared without surrounding
    whitespace and case; extra trailing columns are allowed. Every field is
    stripped, and a row whose fields are all blank is skipped. What a short
    or malformed row means is left to the caller.
    """
    with _open_rows(path, delimiter) as rows:
        _check_header(path, next(rows, None), columns)
        for line_no, fields in enumerate(rows, start=2):
            fields = list(map(str.strip, fields))
            if any(fields):
                yield line_no, fields


def _check_row(path, line_no: int, fields: list[str], columns) -> None:
    """A non-blank row of a per-class file must hold every column and a class_id."""
    if len(fields) < len(columns):
        raise DataValidationError(
            f"{path}: line {line_no}: expected {len(columns)} fields, found {len(fields)}"
        )
    if not fields[0]:
        raise DataValidationError(f"{path}: line {line_no}: blank class_id")


def _maybe_fatal_rejects(path, report: LoadReport) -> None:
    if report.rows_read and len(report.rejects) * 2 > report.rows_read:
        raise DataValidationError(
            f"{path}: {len(report.rejects)} of {report.rows_read} rows rejected; "
            "this does not look like the right file"
        )


def _stamp_minutes(text: str) -> int | None:
    """Minutes since epoch of a `dd/mm/yyyy HH:MM` stamp, or None if malformed."""
    try:
        return to_minutes(parse_stamp(text))
    except (ValueError, IndexError, OverflowError):
        return None


def _logged_minutes(text: str) -> tuple[str, int] | None:
    """(leading token, its value) of a logged duration such as `35 min`, or None.

    Only a token of digits with an optional leading minus is compared with
    the recomputed duration.
    """
    logged = text.split()
    if not logged or not logged[0].lstrip("-").isdecimal():
        return None
    try:
        return logged[0], int(logged[0])
    except ValueError:  # "--5", or more digits than int() accepts
        return None


def _rssi_value(text: str) -> int | None:
    """RSSI of a field: RSSI_MISSING for `-` or empty, None when malformed."""
    if text in ("", "-"):
        return RSSI_MISSING
    try:
        value = int(text)
    except ValueError:
        return None
    return value if abs(value) < 2**63 else None  # beyond the int64 column


class _Memo(dict):
    """`memo[key]` is `compute(key)`, computed once per distinct key."""

    def __init__(self, compute):
        super().__init__()
        self.compute = compute

    def __missing__(self, key):
        value = self[key] = self.compute(key)
        return value


def _sorted_codes(codes: array, names: dict[str, int]) -> tuple[np.ndarray, list[str]]:
    """Renumber first-seen name codes so that code order is name order."""
    seen = list(names)
    order = sorted(range(len(seen)), key=seen.__getitem__)
    rank = np.empty(len(seen), dtype=np.int64)
    rank[order] = np.arange(len(seen), dtype=np.int64)
    return rank[np.frombuffer(codes, dtype=np.int64)], [seen[i] for i in order]


def load_sessions(
    path, report_time: datetime | None = None, delimiter: str = ","
) -> tuple[SessionTable, LoadReport]:
    """Load and validate a session-log file into a `SessionTable`.

    Ongoing (`Ass`) sessions get their effective end from `report_time`; when
    it is None, the default 9pm report time on the row's own date applies.
    Bytes, SNR and Retries are validated but not kept.
    """
    report = LoadReport()
    reject = report.reject
    report_end = None if report_time is None else to_minutes(report_time)
    n_columns = len(SESSION_COLUMNS)
    stamps = _Memo(_stamp_minutes)
    rssi_values = _Memo(_rssi_value)
    durations = _Memo(_logged_minutes)
    users: dict[str, int] = {}
    macs: dict[str, int] = {}
    aps: dict[str, int] = {}
    user_col, mac_col, ap_col, start_col, end_col, rssi_col = (array("q") for _ in range(6))
    rows_read = 0
    for line_no, fields in read_rows(path, delimiter, SESSION_COLUMNS):
        rows_read += 1
        if len(fields) < n_columns:
            reject(line_no, f"expected {n_columns} columns, found {len(fields)}")
            continue
        (user_id, mac, assoc_text, disassoc_text, logged_text, ap_name,
         bytes_tx, bytes_rcvd, snr, rssi_text, status_text) = fields[:n_columns]
        if not user_id or not mac:
            reject(line_no, "missing user id or MAC address")
            continue
        assoc = stamps[assoc_text]
        if assoc is None:
            reject(line_no, f"bad association time {assoc_text!r}")
            continue

        status = status_text.lower()
        if status in ("disass", "disassociated"):
            ongoing = False
        elif status in ("ass", "associated"):
            ongoing = True
        else:
            reject(line_no, f"unknown status {status_text!r}")
            continue

        disassoc = None
        if disassoc_text not in ("", "-"):
            disassoc = stamps[disassoc_text]
            if disassoc is None:
                reject(line_no, f"bad disassociation time {disassoc_text!r}")
                continue

        if not ongoing:
            if disassoc is None:
                reject(line_no, "disassociated session without disassociation time")
                continue
            if disassoc < assoc:
                reject(line_no, "disassociation time precedes association time")
                continue
            end = disassoc
        else:
            if disassoc is not None:
                reject(line_no, "ongoing session carries a disassociation time")
                continue
            if report_end is None:
                end = assoc - assoc % 1440 + DEFAULT_REPORT_HOUR * 60
            else:
                end = report_end
            if end < assoc:
                reject(line_no, "ongoing session starts after report generation time")
                continue

        rssi = rssi_values[rssi_text]  # None when malformed
        try:  # bytes and SNR are validated, not kept
            int(bytes_tx)
            int(bytes_rcvd)
            if snr not in ("", "-"):
                int(snr)
        except ValueError:
            rssi = None
        if rssi is None:
            reject(line_no, "bad numeric field")
            continue

        logged = durations[logged_text]
        if logged is not None and logged[1] != end - assoc:
            report.warn(
                line_no, f"logged duration {logged[0]} min != recomputed {end - assoc} min"
            )

        user_col.append(users.setdefault(user_id, len(users)))
        mac_col.append(macs.setdefault(mac, len(macs)))
        ap_col.append(aps.setdefault(ap_name, len(aps)))
        start_col.append(assoc)
        end_col.append(end)
        rssi_col.append(rssi)
    report.rows_read = rows_read
    _maybe_fatal_rejects(path, report)
    user_codes, user_names = _sorted_codes(user_col, users)
    mac_codes, mac_names = _sorted_codes(mac_col, macs)
    ap_codes, ap_names = _sorted_codes(ap_col, aps)
    table = SessionTable(
        user_names=user_names,
        mac_names=mac_names,
        ap_names=ap_names,
        user=user_codes,
        mac=mac_codes,
        ap=ap_codes,
        start=np.frombuffer(start_col, dtype=np.int64),
        end=np.frombuffer(end_col, dtype=np.int64),
        rssi=np.frombuffer(rssi_col, dtype=np.int64),
    )
    return table, report


def load_timetable(path, delimiter: str = ",") -> tuple[list[ClassEvent], LoadReport]:
    report = LoadReport()
    events: list[ClassEvent] = []
    seen_ids: set[str] = set()
    for line_no, fields in read_rows(path, delimiter, TIMETABLE_COLUMNS):
        report.rows_read += 1
        if len(fields) < 5:
            report.reject(line_no, "expected 5 columns")
            continue
        class_id, room_id, date, start, end = fields[:5]
        try:
            start_dt = parse_stamp(f"{date} {start}")
            end_dt = parse_stamp(f"{date} {end}")
        except (ValueError, OverflowError):
            report.reject(line_no, "bad date or time")
            continue
        if end_dt <= start_dt:
            report.reject(line_no, "class end not after start")
            continue
        minutes = to_minutes(end_dt) - to_minutes(start_dt)
        if minutes not in ALLOWED_CLASS_MINUTES:
            report.reject(line_no, f"class duration {minutes} min not in allowed set")
            continue
        if class_id in seen_ids:
            report.reject(line_no, f"duplicate class_id {class_id}")
            continue
        seen_ids.add(class_id)
        events.append(ClassEvent(class_id, room_id, start_dt, end_dt))
    _maybe_fatal_rejects(path, report)
    return events, report


def load_rosters(path, delimiter: str = ",") -> tuple[dict[str, frozenset[str]], LoadReport]:
    report = LoadReport()
    enrolled: dict[str, set[str]] = {}
    for line_no, fields in read_rows(path, delimiter, ROSTER_COLUMNS):
        report.rows_read += 1
        if len(fields) < 2 or not fields[0] or not fields[1]:
            report.reject(line_no, "expected class_id,user_id")
            continue
        class_id, user_id = fields[:2]
        members = enrolled.setdefault(class_id, set())
        if user_id in members:
            report.warn(line_no, f"duplicate enrolment {user_id} in {class_id}")
        members.add(user_id)
    _maybe_fatal_rejects(path, report)
    return {cid: frozenset(m) for cid, m in enrolled.items()}, report


def load_inventory(path, delimiter: str = ",") -> tuple[ApInventory, LoadReport]:
    report = LoadReport()
    locations: dict[str, ApLocation] = {}
    for line_no, fields in read_rows(path, delimiter, INVENTORY_COLUMNS):
        report.rows_read += 1
        if len(fields) < 4:
            report.reject(line_no, "expected 4 columns")
            continue
        ap, room, building, floor = fields[:4]
        if ap in locations:
            report.reject(line_no, f"duplicate ap_name {ap}")
            continue
        try:
            floor_no = int(floor)
        except ValueError:
            report.reject(line_no, f"bad floor {floor!r}")
            continue
        room_id = None if room.lower() in CORRIDOR_MARKERS else room
        locations[ap] = ApLocation(room_id, building, floor_no)
    _maybe_fatal_rejects(path, report)
    return ApInventory(locations), report


def _offsets(sorted_codes: np.ndarray, n_codes: int) -> np.ndarray:
    """CSR offsets: rows of code k are [offsets[k], offsets[k + 1])."""
    return np.searchsorted(sorted_codes, np.arange(n_codes + 1))


def _sum_by_group(rows: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Column sums of the 2-D `rows` per group code; `groups` is sorted.

    Returns shape (n_groups, columns), with zeros for groups without rows.
    """
    sums = np.zeros((rows.shape[0] + 1, rows.shape[1]), dtype=np.int64)
    np.cumsum(rows, axis=0, out=sums[1:])
    cuts = _offsets(groups, n_groups)
    return sums[cuts[1:]] - sums[cuts[:-1]]


def grouped_running_max(group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Running maximum of int64 `values` that restarts at each group.

    `group` holds nondecreasing integer codes, one per row. Lifting each
    group's values by its code times the value range puts them above every
    earlier group's, so one running maximum over the whole column serves all
    groups; int64 holds the lifted values while the largest group code times
    the value range stays well below 2**63.
    """
    if values.size == 0:
        return values.copy()
    lift = group * (int(values.max()) - int(values.min()) + 1)
    out = values + lift
    np.maximum.accumulate(out, out=out)
    out -= lift
    return out


def _merged_intervals(table: SessionTable):
    """Per-(ap, user) unions of session intervals, ordered by (ap, start).

    Returns (start, end, user, ap) columns. Touching intervals coalesce: a
    session starting at or before the running maximum end of its (ap, user)
    group joins the current merged interval.
    """
    order = np.lexsort((table.start, table.user, table.ap))
    ap, user = table.ap[order], table.user[order]
    start, end = table.start[order], table.end[order]
    n = order.size
    if n == 0:
        return start, end, user, ap
    opens = np.ones(n, dtype=bool)
    opens[1:] = (ap[1:] != ap[:-1]) | (user[1:] != user[:-1])
    reach = grouped_running_max(np.cumsum(opens, dtype=np.int64), end)
    opens[1:] |= start[1:] > reach[:-1]
    heads = np.flatnonzero(opens)
    tails = np.append(heads[1:], n) - 1
    by_start = np.lexsort((start[heads], ap[heads]))
    heads, tails = heads[by_start], tails[by_start]
    return start[heads], reach[tails], user[heads], ap[heads]


class SessionStore:
    """Immutable time-window queries over a `SessionTable`.

    Two indexes, each grouped by AP code with CSR offsets: the raw sessions in
    (ap, start, end, row) order, and the per-(ap, user) merged intervals in
    (ap, start) order. The merged intervals also carry an int64 search key,
    `ap * span + (start - low)`, which is sorted, so one binary search finds
    any AP's intervals that start in a given time range.
    """

    def __init__(self, table: SessionTable):
        self.table = table
        self._ap_code = {name: i for i, name in enumerate(table.ap_names)}
        self._user_code = {name: i for i, name in enumerate(table.user_names)}
        n_aps = len(table.ap_names)

        # lexsort is stable, so rows tied on (ap, start, end) stay in row order
        self._raw_row = np.lexsort((table.end, table.start, table.ap))
        self._raw_start = table.start[self._raw_row]
        self._raw_end = table.end[self._raw_row]
        self._raw_offsets = _offsets(table.ap[self._raw_row], n_aps)

        self._m_start, self._m_end, self._m_user, m_ap = _merged_intervals(table)
        self._m_offsets = _offsets(m_ap, n_aps)
        # per AP, the length of its longest merged interval (0 without any)
        self._longest = np.zeros(n_aps, dtype=np.int64)
        self._low, self._span = 0, 1
        if m_ap.size:
            self._low = int(self._m_start.min())
            self._span = int(self._m_start.max()) - self._low + 1
            heads = self._m_offsets[:-1]
            busy = heads < self._m_offsets[1:]
            self._longest[busy] = np.maximum.reduceat(self._m_end - self._m_start, heads[busy])
        self._m_key = m_ap * self._span + (self._m_start - self._low)

    def user_ids(self, user_names) -> np.ndarray:
        """Integer ids for the given user names; unknown names are dropped."""
        ids = [self._user_code[u] for u in user_names if u in self._user_code]
        return np.array(sorted(ids), dtype=np.int64)

    def user_counts_at(
        self, times: np.ndarray, member_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Distinct-user connection counts of every AP at each sample time.

        Returns (total, members), int64 arrays of shape (AP code, sample);
        `member_ids` restricts the second count to a user subset (typically a
        class roster). Multi-device users count once because intervals are
        merged per user.
        """
        times = np.asarray(times, dtype=np.int64)
        n_aps = len(self.table.ap_names)
        if times.size == 0 or self._m_key.size == 0:
            zero = np.zeros((n_aps, times.size), dtype=np.int64)
            return zero, zero.copy()
        lo, hi = int(times.min()), int(times.max())
        # An interval covering a time in [lo, hi] starts in [lo - longest, hi],
        # with the longest interval of its own AP. Offsets are clipped to
        # [0, span] so that each AP's search stays inside its own key range.
        base = np.arange(n_aps, dtype=np.int64) * self._span
        first = np.searchsorted(
            self._m_key, base + np.clip(lo - self._longest - self._low, 0, self._span)
        )
        stop = np.searchsorted(self._m_key, base + min(max(hi + 1 - self._low, 0), self._span))
        counts = stop - first
        ap = np.repeat(np.arange(n_aps), counts)
        rows = np.arange(ap.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        ending = self._m_end[rows] > lo
        ap, rows = ap[ending], rows[ending]
        starts, ends = self._m_start[rows, None], self._m_end[rows, None]
        cover = (starts <= times) & (times < ends)
        total = _sum_by_group(cover, ap, n_aps)
        if member_ids is None or member_ids.size == 0:
            return total, np.zeros_like(total)
        enrolled = np.zeros(len(self.table.user_names), dtype=bool)
        enrolled[member_ids] = True
        enrolled = enrolled[self._m_user[rows]]
        return total, _sum_by_group(cover[enrolled], ap[enrolled], n_aps)

    def active_aps(self, lo: datetime, hi: datetime) -> list[str]:
        """APs with at least one session overlapping [lo, hi), in name order."""
        table = self.table
        hit = (table.start < to_minutes(hi)) & (table.end > to_minutes(lo))
        return [table.ap_names[code] for code in np.unique(table.ap[hit])]

    def sessions_overlapping(self, ap_names, lo: datetime, hi: datetime) -> np.ndarray:
        """Table rows of raw (unclipped) sessions on the given APs overlapping [lo, hi).

        Rows come grouped by AP name in sorted order, then by (start, end, row).
        """
        lo_m, hi_m = to_minutes(lo), to_minutes(hi)
        parts = []
        for ap in sorted(set(ap_names)):
            code = self._ap_code.get(ap)
            if code is None:
                continue
            a, b = self._raw_offsets[code], self._raw_offsets[code + 1]
            mask = (self._raw_start[a:b] < hi_m) & (self._raw_end[a:b] > lo_m)
            parts.append(self._raw_row[a:b][mask])
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
