"""Columnar session-log loading and time-window queries.

`read_rows` and `write_rows` frame every tabular file the program reads or
writes. `load_sessions` parses a session log straight into a `SessionTable` of numpy
columns. `SessionStore` indexes the table once; every query is read-only.
"""
from __future__ import annotations

import codecs
import csv
import os
import stat
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


def write_rows(path, columns, rows, delimiter: str = ",") -> None:
    """Write a tabular file: the `columns` header, then every row of `rows`.

    The csv module frames the fields: CRLF line ends, and quotes around a
    field only where it must (one holding the delimiter, a quote or a line
    end). `None` is written as an empty field.
    """
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(columns)
        writer.writerows(rows)


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


# Status words, compared in lower case, and whether each marks an ongoing session.
_STATUS_ONGOING = {"ass": True, "associated": True, "disass": False, "disassociated": False}

# The numpy path of `load_sessions`; see `_load_canonical`.
_BLOCK_BYTES = 1 << 21  # read size; each block is cut at its last line end
_MAX_LINE_BYTES = 1 << 22  # a longer line sends the file to the row loop
_TEXT_BYTES = 64  # widest name, status, RSSI or duration field taken by numpy
_MIN_LINE_BYTES = 33  # shortest canonical line: a stamp, four 1-byte fields, `Ass`, 10 delimiters
_CANONICAL_DELIMITERS = frozenset(",;\t|")
_STAMP_DIGITS = [0, 1, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15]  # in `dd/mm/yyyy HH:MM`
_STAMP_MARKS = [2, 5, 10, 13]
_STAMP_MARK_BYTES = np.frombuffer(b"// :", dtype=np.uint8)
_WORD = np.dtype("<u8")
_KEEP_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=_WORD)  # a word's first n bytes


def _load_canonical(path, report_end: int | None, delimiter: str) -> SessionTable | None:
    """The `SessionTable` of a session log in canonical form, or None for any other file.

    Canonical form is printable ASCII without `"`, plus the delimiter (one of
    `,;|` or tab) and one kind of line end, LF or CRLF. The header passes
    `_check_header`; every other line is a data line with as many fields as
    the header, none with surrounding spaces or as long as the csv field
    limit; and the row loop would take every row without a reject or a
    warning (`_CanonicalBlocks.add`). The csv module splits such a file at
    every delimiter and line end, so both paths build the same table. The
    file is read in blocks of about `_BLOCK_BYTES`, each cut at a line end.
    """
    if delimiter not in _CANONICAL_DELIMITERS:
        return None
    try:
        with open(path, "r", newline="") as handle:  # as the row loop opens it
            file_stat = os.fstat(handle.fileno())
            if not stat.S_ISREG(file_stat.st_mode):
                return None  # the row loop could not read a pipe again
            if codecs.lookup(handle.encoding).name not in ("utf-8", "ascii"):
                return None
            parser, pending = None, b""
            while True:
                block = handle.buffer.read(_BLOCK_BYTES)
                data = pending + block
                cut = data.rfind(b"\n") + 1 if block else len(data)
                if block and not cut:
                    if len(data) > _MAX_LINE_BYTES:
                        return None
                    pending = data
                    continue
                lines, pending = data[:cut], data[cut:]
                if parser is None:
                    header, _, lines = lines.partition(b"\n")
                    parser = _CanonicalBlocks.start(path, header, delimiter, report_end, file_stat.st_size)
                    if parser is None:
                        return None
                if lines and not parser.add(lines):
                    return None
                if not block:
                    return parser.table()
    except OSError:
        return None


def _day_minutes(key: int) -> int | None:
    """Minutes since epoch of the midnight starting date key `yyyymmdd`, or None."""
    return _stamp_minutes(f"{key % 100:02d}/{key // 100 % 100:02d}/{key // 10000:04d} 00:00")


def _field_words(buf: np.ndarray, starts: np.ndarray, lens: np.ndarray, n_words: int) -> np.ndarray:
    """(row, n_words) little-endian uint64 matrix of the fields starting at `starts`.

    Viewed as bytes, each row is its field zero-padded to 8 * n_words bytes.
    `buf` needs 8 * n_words readable bytes past the last start.
    """
    at = np.ndarray((buf.size - 7,), dtype=_WORD, buffer=buf, strides=(1,))  # the word at each byte
    words = np.empty((len(starts), n_words), dtype=_WORD)
    for i in range(n_words):
        words[:, i] = at[starts + 8 * i] & _KEEP_BYTES[np.clip(lens - 8 * i, 0, 8)]
    return words


def _distinct(buf, starts, lens) -> tuple[list[str], np.ndarray] | None:
    """(distinct texts, each row's index into them) of one column's fields.

    Fields are grouped as zero-padded 8-byte words; None when a field is
    wider than `_TEXT_BYTES`.
    """
    n_words = max(1, -(-int(lens.max()) // 8))
    if 8 * n_words > _TEXT_BYTES:
        return None
    words = _field_words(buf, starts, lens, n_words)
    order = np.lexsort(words.T) if n_words > 1 else np.argsort(words[:, 0])
    words = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return words[first].view(f"S{8 * n_words}").ravel().astype(str).tolist(), inverse


def _digits(buf, starts, lens) -> np.ndarray:
    """Per field: 1 to 18 ASCII digits."""
    digits = _field_words(buf, starts, lens, 3).view(np.uint8) - 48  # other bytes wrap above 9
    return (lens >= 1) & (lens <= 18) & ((digits <= 9).sum(axis=1) == lens)


def _blank(buf, starts, lens) -> np.ndarray:
    """Per field: empty or `-`."""
    return (lens == 0) | ((lens == 1) & (buf[starts] == ord("-")))


class _CanonicalBlocks:
    """The data lines of a canonical session log, parsed with numpy block by block."""

    def __init__(self, delimiter: str, n_fields: int, crlf: bool, report_end: int | None, file_bytes: int):
        self.delimiter = ord(delimiter)
        self.n_fields = n_fields
        self.crlf = crlf
        self.report_end = report_end
        self.field_limit = csv.field_size_limit()
        self.names: tuple[dict[str, int], ...] = ({}, {}, {})  # user, MAC, AP: first-seen codes
        self.days = _Memo(_day_minutes)
        self.statuses = _Memo(lambda text: _STATUS_ONGOING.get(text.lower()))
        self.rssi_values = _Memo(_rssi_value)
        self.durations = _Memo(_logged_minutes)
        # The table's columns, allocated once for as many rows as the file can
        # hold; only the pages that rows are written to take memory.
        capacity = (file_bytes + 1) // _MIN_LINE_BYTES
        self.columns = [np.empty(capacity, dtype=np.int64) for _ in range(6)]
        self.n_rows = 0

    @classmethod
    def start(cls, path, header: bytes, delimiter: str, report_end: int | None, file_bytes: int):
        """A parser for the lines after `header`, or None when the header is not canonical."""
        crlf = header.endswith(b"\r")
        header = header[:-1] if crlf else header
        fields = header.decode("latin-1").split(delimiter)
        parser = cls(delimiter, len(fields), crlf, report_end, file_bytes)
        if not header.isascii() or not all(f.isprintable() and '"' not in f for f in fields):
            return None
        if max(map(len, fields)) >= parser.field_limit:
            return None
        try:
            _check_header(path, fields, SESSION_COLUMNS)
        except DataValidationError:
            return None
        return parser

    def _stamps(self, buf, starts) -> np.ndarray | None:
        """Minutes since epoch of 16-byte `dd/mm/yyyy HH:MM` fields, or None if one is not."""
        rows = _field_words(buf, starts, np.full_like(starts, 16), 2).view(np.uint8)
        digits = rows[:, _STAMP_DIGITS] - 48  # uint8: any other byte wraps above 9
        if (digits > 9).any() or (rows[:, _STAMP_MARKS] != _STAMP_MARK_BYTES).any():
            return None
        d = digits.astype(np.int64).T
        hour, minute = d[8] * 10 + d[9], d[10] * 10 + d[11]
        if (hour > 23).any() or (minute > 59).any():
            return None
        year = d[4] * 1000 + d[5] * 100 + d[6] * 10 + d[7]
        keys = year * 10000 + (d[2] * 10 + d[3]) * 100 + d[0] * 10 + d[1]  # yyyymmdd
        keys, inverse = np.unique(keys, return_inverse=True)
        days = [self.days[key] for key in keys.tolist()]
        if None in days:
            return None
        return np.array(days, dtype=np.int64)[inverse] + hour * 60 + minute

    def _resolved(self, buf, starts, lens, memo) -> tuple[list, np.ndarray] | None:
        """(memo value of each distinct text, each row's index into them) of one column."""
        found = _distinct(buf, starts, lens)
        return None if found is None else ([memo[text] for text in found[0]], found[1])

    def add(self, lines: bytes) -> bool:
        """Parse whole lines into the table; False if one is not canonical.

        False also for a row the row loop would reject or warn about, so the
        caller can hand the whole file to the row loop.
        """
        if not lines.endswith(b"\n"):  # the last line of a file without a final line end
            lines += b"\r\n" if self.crlf else b"\n"
        buf = np.zeros(len(lines) + _TEXT_BYTES, dtype=np.uint8)  # zero tail for `_field_words`
        text = buf[: len(lines)]
        text[:] = np.frombuffer(lines, dtype=np.uint8)
        line_ends, delimiters = text == ord("\n"), text == self.delimiter
        n_lines, n_delimiters = np.count_nonzero(line_ends), np.count_nonzero(delimiters)
        n_returns = np.count_nonzero(text == ord("\r"))
        if n_delimiters != n_lines * (self.n_fields - 1) or n_returns != n_lines * self.crlf:
            return False
        # beyond these, only printable ASCII other than `"`
        n_controls = n_lines + n_returns + n_delimiters * (self.delimiter < 0x20)
        if np.count_nonzero(text < 0x20) != n_controls or (text > 0x7E).any() or (text == ord('"')).any():
            return False
        ends = np.flatnonzero(line_ends | delimiters)
        ends = ends.reshape(n_lines, self.n_fields)
        if (text[ends[:, -1]] != ord("\n")).any():
            return False
        starts = np.empty_like(ends)
        flat = starts.reshape(-1)
        flat[0] = 0
        np.add(ends.reshape(-1)[:-1], 1, out=flat[1:])
        if self.crlf:
            ends[:, -1] -= 1
            if (text[ends[:, -1]] != ord("\r")).any():
                return False
        lens = ends - starts
        filled = lens > 0
        if lens.max() >= self.field_limit or not filled[:, :2].all():  # user ID and MAC
            return False
        if (text[starts[filled]] == ord(" ")).any() or (text[ends[filled] - 1] == ord(" ")).any():
            return False

        if not (lens[:, 2] == 16).all():
            return False
        assoc = self._stamps(buf, starts[:, 2])
        closed = lens[:, 3] == 16
        if assoc is None or not (closed | _blank(buf, starts[:, 3], lens[:, 3])).all():
            return False
        disassoc = self._stamps(buf, starts[closed, 3])
        status = self._resolved(buf, starts[:, 10], lens[:, 10], self.statuses)
        if disassoc is None or status is None or None in status[0]:
            return False
        ongoing = np.array(status[0], dtype=bool)[status[1]]
        if (ongoing == closed).any():  # the status and the disassociation time disagree
            return False
        if self.report_end is None:
            end = assoc - assoc % 1440 + DEFAULT_REPORT_HOUR * 60
        else:
            end = np.full_like(assoc, self.report_end)
        end[closed] = disassoc
        if (end < assoc).any():
            return False

        rssi = self._resolved(buf, starts[:, 9], lens[:, 9], self.rssi_values)
        if rssi is None or None in rssi[0]:
            return False
        numbers = _digits(buf, starts[:, 6], lens[:, 6]) & _digits(buf, starts[:, 7], lens[:, 7])
        numbers &= _blank(buf, starts[:, 8], lens[:, 8]) | _digits(buf, starts[:, 8], lens[:, 8])
        if not numbers.all():  # bytes Tx and Rcvd, SNR
            return False
        logged = self._resolved(buf, starts[:, 4], lens[:, 4], self.durations)
        if logged is None or any(v is not None and not 0 <= v[1] < 2**62 for v in logged[0]):
            return False  # a negative logged duration never matches, so the row loop warns
        expected = np.array([-1 if v is None else v[1] for v in logged[0]], dtype=np.int64)[logged[1]]
        if ((expected >= 0) & (expected != end - assoc)).any():
            return False

        codes = []
        for column, names in zip((0, 1, 5), self.names):
            found = _distinct(buf, starts[:, column], lens[:, column])
            if found is None:
                return False
            texts, inverse = found
            codes.append(np.array([names.setdefault(t, len(names)) for t in texts], dtype=np.int64)[inverse])
        rssi = np.array(rssi[0], dtype=np.int64)[rssi[1]]
        rows = slice(self.n_rows, self.n_rows + n_lines)
        if rows.stop > len(self.columns[0]):  # the file grew while it was read
            return False
        for full, column in zip(self.columns, (*codes, assoc, end, rssi)):
            full[rows] = column
        self.n_rows = rows.stop
        return True

    def table(self) -> SessionTable:
        """The parsed rows; each full-capacity column is released once copied."""
        n, full = self.n_rows, self.columns
        self.columns = []
        (user, user_names), (mac, mac_names), (ap, ap_names) = (
            _sorted_codes(full.pop(0)[:n], names) for names in self.names
        )
        start, end, rssi = (full.pop(0)[:n].copy() for _ in range(3))
        return SessionTable(user_names, mac_names, ap_names, user, mac, ap, start, end, rssi)


def load_sessions(
    path, report_time: datetime | None = None, delimiter: str = ","
) -> tuple[SessionTable, LoadReport]:
    """Load and validate a session-log file into a `SessionTable`.

    Ongoing (`Ass`) sessions get their effective end from `report_time`; when
    it is None, the default 9pm report time on the row's own date applies.
    Bytes, SNR and Retries are validated but not kept.

    A log in canonical form is parsed with numpy, block by block; any other
    file is read from its first line by the row loop, which alone rejects
    rows and warns.
    """
    report_end = None if report_time is None else to_minutes(report_time)
    table = _load_canonical(path, report_end, delimiter)
    if table is not None:
        return table, LoadReport(rows_read=len(table))
    return _load_rows(path, report_end, delimiter)


def _load_rows(path, report_end: int | None, delimiter: str) -> tuple[SessionTable, LoadReport]:
    """The row loop of `load_sessions`: every rule, reject and warning, row by row."""
    report = LoadReport()
    reject = report.reject
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

        ongoing = _STATUS_ONGOING.get(status_text.lower())
        if ongoing is None:
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
