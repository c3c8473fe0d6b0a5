"""Columnar session-log loading and time-window queries.

`read_rows` and `write_rows` frame every tabular file the program reads or
writes, and `read_key_values` and `write_key_values` every `key = value` file.
`load_sessions` parses a session log straight into a `SessionTable` of numpy
columns. A canonical log is parsed in blocks: `_CanonicalBlocks.split` and
`parse` turn one block into columns, `parse` on a worker thread, and `merge`
appends the blocks to the table in file order, on the calling thread only.
The table of a canonical log is kept beside it in a snapshot file, keyed by
the log's bytes (`_Snapshot`), so a later load of the same bytes reads the
table back instead of parsing the log again.
`SessionStore` answers both time-window queries with one `_IntervalIndex`
layout and search: the raw sessions for `sessions_overlapping`, and the
merged intervals for `user_counts_at`. Each query answers many classes in
one call, and every query is read-only. The snapshot keeps both indexes
beside the table, so a warm load reads them instead of sorting the log.
"""
from __future__ import annotations

import csv
import os
import re
import stat
import tempfile
import threading
from array import array
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from datetime import datetime
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import ne

import numpy as np

from .records import (
    ALLOWED_CLASS_MINUTES,
    CORRIDOR_MARKERS,
    INVENTORY_COLUMNS,
    REPORT_HOUR,
    ROSTER_COLUMNS,
    SESSION_COLUMNS,
    TIMETABLE_COLUMNS,
    ApInventory,
    ApLocation,
    ClassEvent,
    DataValidationError,
    RoomsenseError,
    parse_stamp,
    to_minutes,
)

# `rssi` column value of a session whose RSSI was logged as `-` or empty.
RSSI_MISSING = -(2**63)
# The names of the store's two interval indexes: the raw sessions, searched by
# `sessions_overlapping`, and the merged intervals, searched by `user_counts_at`.
RAW_INDEX, MERGED_INDEX = "sessions", "merged"
INDEXES = (RAW_INDEX, MERGED_INDEX)


@dataclass(frozen=True, eq=False)
class SessionTable:
    """Accepted sessions as parallel int64 columns, one entry per session.

    `user`, `mac` and `ap` are codes into the sorted name lists, so ordering
    by code is ordering by name. `start` and `end` are minutes since epoch of
    the half-open interval [start, end); `end` is the effective end (the
    report time for ongoing sessions). `rssi` holds RSSI_MISSING where unknown.
    `indexes` holds the `SessionStore` indexes of this table, by name
    (`INDEXES`), that a snapshot gave or a load built to store in one.
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
    indexes: dict = field(default_factory=dict, repr=False)

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
        handle = open(path, "r", encoding="utf-8", newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise DataValidationError(f"cannot read {path}: {exc}") from exc
    rows = csv.reader(handle, delimiter=delimiter)
    with handle:
        try:
            yield rows
        except UnicodeDecodeError as exc:
            raise DataValidationError(_not_utf8(path, exc)) from exc
        except csv.Error as exc:
            raise DataValidationError(f"{path}: line {rows.line_num}: {exc}") from exc
        except OSError as exc:
            raise DataValidationError(f"cannot read {path}: {exc}") from exc


def _not_utf8(path, exc: UnicodeDecodeError) -> str:
    """The message for a text file that is not UTF-8, naming the line of its first bad byte.

    A text reader decodes in chunks, so its error does not say which line
    holds the bad byte; the file is decoded again as a whole to find it.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as whole:
        line = data.count(b"\n", 0, whole.start) + 1
    else:
        line = 0
    return f"{path}: line {line}: not valid UTF-8 text ({exc.reason})"


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
    or malformed row means is left to the caller. A row's line number is
    that of its first line in the file, so a quoted field holding a line end
    shifts no later row's number.
    """
    with _open_rows(path, delimiter) as rows:
        _check_header(path, next(rows, None), columns)
        line_no = rows.line_num + 1
        for fields in rows:
            fields = list(map(str.strip, fields))
            if any(fields):
                yield line_no, fields
            line_no = rows.line_num + 1


# `write_rows` frames this many rows at a time.
_CHUNK_ROWS = 10_000
# The field types whose `%s` text is the text the csv module writes for them.
_PLAIN_TYPES = frozenset({str, int, float, bool})


def write_rows(path, columns, rows) -> None:
    """Write a comma-separated file: the `columns` header, then every row of `rows`.

    The csv module frames the fields: CRLF line ends, and quotes around a
    field only where it must (one holding a comma, a quote or a line end, and
    a row's only field when it is empty). `None` is written as an empty field.

    Rows are framed `_CHUNK_ROWS` at a time. A chunk that `_plain_text` can
    frame is written as one string; any other chunk goes through `csv.writer`.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        rows = chain([columns], rows)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            text = _plain_text(chunk, len(columns))
            if text is None:
                writer.writerows(chunk)
            else:
                handle.write(text)


def _plain_text(chunk: list, width: int) -> str | None:
    """The text `csv.writer` writes for `chunk` when no field needs quoting, else None.

    Every row must hold `width` fields, each a str, int, float or bool, and
    a row of one field must not be empty. The rows are then formatted with
    one `%`, and the text is kept only if it holds no quote character, no NUL
    (which `csv.writer` refuses before Python 3.11), and exactly the commas
    and line ends that the format puts there, so that no field holds one.
    """
    line, count = ",".join(["%s"] * width) + "\r\n", len(chunk)
    try:
        if set(map(len, chunk)) != {width}:
            return None
        fields = tuple(chain.from_iterable(chunk))
        if not set(map(type, fields)) <= _PLAIN_TYPES or (width == 1 and "" in fields):
            return None
        text = (line * count) % fields
    except (TypeError, ValueError):  # a row without a length, or an int too long to print
        return None
    if (
        '"' in text
        or "\0" in text
        or text.count(",") != (width - 1) * count
        or text.count("\r") != count
        or text.count("\n") != count
    ):
        return None
    return text


def read_key_values(path, error: type[RoomsenseError]) -> dict[str, tuple[int, str]]:
    """(line number, value) of each key of a `key = value` file; a later line for a key wins.

    Blank and `#` lines are skipped. Keys are stripped of whitespace and values
    of spaces only, so a value may be a tab. An unreadable file, text that is
    not UTF-8 or a line without `=` raises `error`, naming the file and the line.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except UnicodeDecodeError as exc:
        raise error(_not_utf8(path, exc)) from exc
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise error(f"cannot read {path}: {exc}") from exc
    values = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise error(f"{path}: line {line_no}: expected 'key = value'")
        values[key.strip()] = (line_no, value.strip(" \n"))
    return values


def write_key_values(path, pairs, comment: str = "") -> None:
    """Write a `# comment` line if `comment` is given, then a `key = value` line per pair."""
    lines = [f"# {comment}"] if comment else []
    lines += [f"{key} = {value}" for key, value in pairs]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


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


def _sorted_texts(codes: np.ndarray, parts: list[np.ndarray]) -> tuple[np.ndarray, list[str]]:
    """(codes, texts): `codes`, which index the concatenated `parts`, renumbered to
    index the sorted distinct texts of `parts`, and those texts."""
    if not parts:
        return codes.copy(), []
    texts = np.concatenate(parts)  # zero-padded to the widest part, a multiple of 8 bytes
    words, group = _groups(texts.view(_WORD).reshape(len(texts), -1))
    texts, rank = np.unique(words.view(texts.dtype).ravel(), return_inverse=True)
    return rank.reshape(-1)[group][codes], texts.astype(str).tolist()


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
_BLOCK_BYTES = 1 << 20  # read size; each block is cut at its last line end
_MAX_LINE_BYTES = 1 << 22  # a longer line sends the file to the row loop
_TEXT_BYTES = 64  # widest name, status, RSSI or duration field taken by numpy
_MIN_LINE_BYTES = 33  # shortest canonical line: a stamp, four 1-byte fields, `Ass`, 10 delimiters
_CANONICAL_DELIMITERS = frozenset(",;\t|")
_STAMP_DIGITS = [0, 1, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15]  # in `dd/mm/yyyy HH:MM`
_STAMP_MARKS = [2, 5, 10, 13]
_STAMP_MARK_BYTES = np.frombuffer(b"// :", dtype=np.uint8)
_WORD = np.dtype("<u8")
_KEEP_BYTES = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=_WORD)  # a word's first n bytes
_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier that mixes a field's words into one sort key


def _load_canonical(path, delimiter: str, snapshot: _Snapshot | None = None) -> SessionTable | None:
    """The `SessionTable` of a session log in canonical form, or None for any other file.

    With a `snapshot`, a regular file is first looked up in it, and a table
    parsed from the file is stored in it, with both its indexes, under the
    hash of the bytes parsed.

    Canonical form is printable ASCII without `"`, plus the delimiter (one of
    `,;|` or tab) and one kind of line end, LF or CRLF. The header passes
    `_check_header`; every other line is a data line with as many fields as
    the header, none with surrounding spaces or as long as the csv field
    limit; and the row loop would take every row without a reject or a
    warning (`_CanonicalBlocks`). The csv module splits such a file at every
    delimiter and line end, so both paths build the same table.

    The file is read in blocks of about `_BLOCK_BYTES`, each cut at a line
    end. A worker thread parses each block while this thread splits the
    next one; numpy releases the GIL for most of that work. The
    whole-block scans of `split` stay on this thread, so the worker's own
    memory is small, and freed memory that the C allocator keeps for the
    worker is not wasted. This thread alone merges the parsed blocks into
    the table, in file order, and the worker is shut down on every way out
    of this function.
    """
    if delimiter not in _CANONICAL_DELIMITERS:
        return None
    try:
        with open(path, "rb") as handle:
            file_stat = os.fstat(handle.fileno())
            if not stat.S_ISREG(file_stat.st_mode):
                return None  # the row loop could not read a pipe again
            digest = None
            if snapshot is not None and not snapshot.is_beside(file_stat):
                snapshot = None  # no name leads to the file opened: a deleted file or a memfd
            if snapshot is not None:
                table = snapshot.read(handle, file_stat.st_uid)
                if table is not None:
                    return table
                digest = snapshot.digest()
            header = handle.readline(_MAX_LINE_BYTES + 1)
            if digest is not None:
                digest.update(header)
            if len(header) > _MAX_LINE_BYTES:
                return None
            parser = _CanonicalBlocks.start(path, header.removesuffix(b"\n"), delimiter, file_stat.st_size)
            if parser is None:
                return None
            # imported here: a command that reads no session log need not load it
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=1) as pool:
                ahead = None  # the worker's parse of the block before this one
                for block in _line_blocks(handle, digest):
                    fields = None if block is None else parser.split(*block)
                    if ahead is not None and not parser.merge(ahead.result()):
                        return None
                    ahead = None
                    if fields is None:
                        return None
                    ahead = pool.submit(parser.parse, fields)
                if ahead is not None and not parser.merge(ahead.result()):
                    return None
            table = parser.table()
            if snapshot is not None:
                snapshot.write(digest, table)
            return table
    except OSError:
        return None


def _line_blocks(raw, digest=None):
    """The rest of `raw` in blocks of whole lines, each about `_BLOCK_BYTES` long.

    A block is (buffer, size): its lines are the first `size` bytes of the
    buffer, followed by at least `_TEXT_BYTES` spare bytes. Only the last
    block may end without a line end. None stands for the rest of the file
    when a line is longer than `_MAX_LINE_BYTES`. Every byte read is fed to
    `digest`, if one is given.
    """
    pending = b""
    while True:
        data = bytearray(len(pending) + _BLOCK_BYTES + _TEXT_BYTES)
        data[: len(pending)] = pending
        fresh = memoryview(data)[len(pending) : len(pending) + _BLOCK_BYTES]
        read = raw.readinto(fresh)
        if digest is not None:
            digest.update(fresh[:read])
        size = len(pending) + read
        if not read:
            if size:
                yield data, size
            return
        cut = data.rfind(b"\n", 0, size) + 1
        if not cut and size > _MAX_LINE_BYTES:
            yield None
            return
        pending = data[cut:size]
        if cut:
            yield data, cut


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


def _groups(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a row of each group of equal rows, each row's group) of a uint64 matrix.

    Rows are ordered by one key that mixes their words, and a group ends
    wherever neighbouring rows differ in any word. Equal rows have equal
    keys, so they form one group unless other rows share their key; those
    may then split them, and two groups hold equal rows.
    """
    key = words[:, 0].copy()
    for i in range(1, words.shape[1]):
        key *= _MIX
        key ^= words[:, i]
    order = np.argsort(key)
    words = words[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (words[1:] != words[:-1]).any(axis=1)
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return words[first], inverse


def _distinct(buf, starts, lens) -> tuple[np.ndarray, np.ndarray] | None:
    """(texts, each row's index into them) of one column's fields.

    The texts are a bytes array (numpy `S` dtype), and may list a text more
    than once (`_groups`). Fields are compared as zero-padded 8-byte words;
    None when a field is wider than `_TEXT_BYTES`.
    """
    n_words = max(1, -(-int(lens.max()) // 8))
    if 8 * n_words > _TEXT_BYTES:
        return None
    words, inverse = _groups(_field_words(buf, starts, lens, n_words))
    return words.view(f"S{8 * n_words}").ravel(), inverse


def _blank(buf, starts, lens) -> np.ndarray:
    """Per field: empty or `-`."""
    return (lens == 0) | ((lens == 1) & (buf[starts] == ord("-")))


@dataclass(frozen=True)
class _Fields:
    """One block split into fields: (line, field) offsets and lengths into `buf`,
    and each line's session start and effective end in minutes."""

    buf: np.ndarray
    starts: np.ndarray
    lens: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass(frozen=True)
class _Block:
    """The parsed rows of one block: each name column as (texts, row index into them)."""

    names: tuple[tuple[np.ndarray, np.ndarray], ...]  # user, MAC, AP
    start: np.ndarray
    end: np.ndarray
    rssi: np.ndarray


class _CanonicalBlocks:
    """The data lines of a canonical session log, parsed with numpy block by block.

    A block goes through three steps. `split` scans every byte to find
    the fields, and decodes the numbers and times; `parse` looks up each
    text column's distinct texts. Neither changes the parser but for its
    memos, which cache pure functions, and the two use different memos, so
    `parse` may run on a worker thread while `split` runs on another.
    `merge` appends a parsed block to the table; blocks must be merged in
    file order, on one thread.
    """

    def __init__(self, delimiter: str, n_fields: int, crlf: bool, file_bytes: int):
        self.delimiter = ord(delimiter)
        self.n_fields = n_fields
        self.crlf = crlf
        self.field_limit = csv.field_size_limit()
        # Per name column (user, MAC, AP), the texts of each merged block; a
        # row's code indexes their concatenation until `table` sorts them.
        self.texts: tuple[list[np.ndarray], ...] = ([], [], [])
        self.n_texts = [0, 0, 0]
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
    def start(cls, path, header: bytes, delimiter: str, file_bytes: int):
        """A parser for the lines after `header`, or None when the header is not canonical."""
        crlf = header.endswith(b"\r")
        header = header[:-1] if crlf else header
        fields = header.decode("latin-1").split(delimiter)
        parser = cls(delimiter, len(fields), crlf, file_bytes)
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
        d = digits.astype(np.int32).T  # a yyyymmdd key fits in int32
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
        if found is None:
            return None
        texts, inverse = found
        return [memo[text] for text in texts.astype(str).tolist()], inverse

    def split(self, data: bytearray, size: int) -> _Fields | None:
        """The fields of the whole lines that are the first `size` bytes of `data`.

        The checks by position: None if a line is not canonical, or if the
        row loop would reject a row for its field count, an empty user ID or
        MAC, a byte count or SNR that is not a number, or its times. `data`
        needs `_TEXT_BYTES` readable bytes after the lines.
        """
        buf = np.frombuffer(data, dtype=np.uint8)
        if buf[size - 1] != ord("\n"):  # the last line of a file without a final line end
            line_end = b"\r\n" if self.crlf else b"\n"
            buf = np.frombuffer(bytes(data[:size]) + line_end + bytes(_TEXT_BYTES), dtype=np.uint8)
            size += len(line_end)
        text = buf[:size]
        separators = text == ord("\n")
        n_lines = np.count_nonzero(separators)
        delimiters = text == self.delimiter
        n_delimiters = np.count_nonzero(delimiters)
        separators |= delimiters
        del delimiters
        n_returns = np.count_nonzero(text == ord("\r"))
        if n_delimiters != n_lines * (self.n_fields - 1) or n_returns != n_lines * self.crlf:
            return None
        # beyond these, only printable ASCII other than `"`
        n_controls = n_lines + n_returns + n_delimiters * (self.delimiter < 0x20)
        if np.count_nonzero(text < 0x20) != n_controls or (text > 0x7E).any() or (text == ord('"')).any():
            return None
        # Field positions fit in int32, which halves the largest arrays of a block.
        ends = np.flatnonzero(separators).astype(np.int32).reshape(n_lines, self.n_fields)
        if (text[ends[:, -1]] != ord("\n")).any():
            return None
        starts = np.empty_like(ends)
        starts[0, 0] = 0
        np.add(ends.reshape(-1)[:-1], 1, out=starts.reshape(-1)[1:])
        # Per line, the bytes that are not digits from the start of Bytes Tx to
        # the end of SNR, their three closing delimiters included; uint8 sums
        # wrap only past 255 bytes, and the checks below need at most 57.
        not_digit = separators.view(np.uint8)  # the separators are not needed again
        np.subtract(text, 48, out=not_digit)  # any byte but a digit wraps above 9
        np.greater(not_digit, 9, out=separators)
        numeric_span = np.add.reduceat(not_digit, starts[:, [6, 9]].ravel(), dtype=np.uint8)[::2]
        del separators, not_digit
        if self.crlf:
            ends[:, -1] -= 1
            if (text[ends[:, -1]] != ord("\r")).any():
                return None
        # An empty field starts at its own delimiter or line end and ends after
        # the one before it, so neither byte is a space.
        if (text[starts] == ord(" ")).any() or (text[ends - 1] == ord(" ")).any():
            return None
        lens = np.subtract(ends, starts, out=ends)  # in place: the ends are not needed again
        if lens.max() >= self.field_limit or not lens[:, :2].all():  # user ID and MAC
            return None
        # Bytes Tx and Rcvd: 1 to 18 digits; SNR the same, or blank. Then the
        # span holds only digits, the three delimiters and an SNR of `-`.
        lens_ok = (lens[:, 6:8] >= 1).all(axis=1) & (lens[:, 6:9] <= 18).all(axis=1)
        dash = (lens[:, 8] == 1) & (buf[starts[:, 8]] == ord("-"))
        if not (lens_ok & (numeric_span == 3 + dash)).all():
            return None

        if not (lens[:, 2] == 16).all():
            return None
        assoc = self._stamps(buf, starts[:, 2])
        closed = lens[:, 3] == 16
        if assoc is None or not (closed | _blank(buf, starts[:, 3], lens[:, 3])).all():
            return None
        disassoc = self._stamps(buf, starts[closed, 3])
        if disassoc is None:
            return None
        end = assoc - assoc % 1440 + REPORT_HOUR * 60
        end[closed] = disassoc
        if (end < assoc).any():
            return None
        return _Fields(buf, starts, lens, assoc, end)

    def parse(self, fields: _Fields) -> _Block | None:
        """The rows of split lines; None if the row loop would reject or warn about one.

        The checks that look up each column's distinct texts: status, RSSI
        and logged duration; then the name columns' texts.
        """
        buf, starts, lens = fields.buf, fields.starts, fields.lens
        status = self._resolved(buf, starts[:, 10], lens[:, 10], self.statuses)
        if status is None or None in status[0]:
            return None
        ongoing = np.array(status[0], dtype=bool)[status[1]]
        if (ongoing == (lens[:, 3] == 16)).any():  # the status and the disassociation time disagree
            return None
        rssi = self._resolved(buf, starts[:, 9], lens[:, 9], self.rssi_values)
        if rssi is None or None in rssi[0]:
            return None
        logged = self._resolved(buf, starts[:, 4], lens[:, 4], self.durations)
        if logged is None or any(v is not None and not 0 <= v[1] < 2**62 for v in logged[0]):
            return None  # a negative logged duration never matches, so the row loop warns
        expected = np.array([-1 if v is None else v[1] for v in logged[0]], dtype=np.int64)[logged[1]]
        if ((expected >= 0) & (expected != fields.end - fields.start)).any():
            return None

        names = tuple(_distinct(buf, starts[:, column], lens[:, column]) for column in (0, 1, 5))
        if None in names:
            return None
        return _Block(names, fields.start, fields.end, np.array(rssi[0], dtype=np.int64)[rssi[1]])

    def merge(self, block: _Block | None) -> bool:
        """Append a parsed block's rows to the table.

        False for a block that is not canonical (None), or when the file
        grew while it was read.
        """
        if block is None:
            return False
        rows = slice(self.n_rows, self.n_rows + len(block.start))
        if rows.stop > len(self.columns[0]):
            return False
        for c, (texts, inverse) in enumerate(block.names):
            np.add(inverse, self.n_texts[c], out=self.columns[c][rows])
            self.texts[c].append(texts.copy())  # a worker's memory is not kept past its block
            self.n_texts[c] += len(texts)
        for full, column in zip(self.columns[3:], (block.start, block.end, block.rssi)):
            full[rows] = column
        self.n_rows = rows.stop
        return True

    def table(self) -> SessionTable:
        """The parsed rows; each full-capacity column is released once copied.

        A text may be listed by many blocks, or twice by one; `np.unique`
        sorts the texts of each name column and merges the copies. ASCII
        bytes sort as their text does.
        """
        n, full = self.n_rows, self.columns
        self.columns = []
        (user, user_names), (mac, mac_names), (ap, ap_names) = (
            _sorted_texts(full.pop(0)[:n], parts) for parts in self.texts
        )
        start, end, rssi = (full.pop(0)[:n].copy() for _ in range(3))
        return SessionTable(user_names, mac_names, ap_names, user, mac, ap, start, end, rssi)


# The snapshot file of a session log is the path the log resolves to plus this suffix.
SNAPSHOT_SUFFIX = ".roomsense.npz"
# Part of every snapshot key: raise it when the file layout or the table a
# log parses to changes, and every older snapshot is a miss. A golden test
# pins it with the table of a fixed log, so a changed parse that leaves it
# as it is fails that test.
_SNAPSHOT_VERSION = 2
_NAME_LISTS = ("user_names", "mac_names", "ap_names")
_COLUMNS = ("user", "mac", "ap", "start", "end", "rssi")  # the codes first, in `_NAME_LISTS` order
# An index's arrays in a snapshot, each stored as `<index name>_<part>`.
_INDEX_PARTS = ("row", "key", "longest", "bounds")
_MERGED_COLUMNS = ("start", "end", "user")
_MEMBERS = frozenset(
    ("key", *_NAME_LISTS, *_COLUMNS)
    + tuple(f"{name}_{part}" for name in INDEXES for part in _INDEX_PARTS)
    + tuple(f"{MERGED_INDEX}_{column}" for column in _MERGED_COLUMNS)
)


class _Snapshot:
    """The snapshot beside a session log: the log's canonical `SessionTable` and its two indexes.

    One uncompressed `np.savez` file holds the key, the six int64 columns,
    the three name lists as `S` arrays, and the arrays of both `INDEXES`
    (`_index_arrays`). The key is the hex SHA-256 of
    `_SNAPSHOT_VERSION`, the delimiter, the csv field size limit, the
    constants the parse writes into the table (`REPORT_HOUR`, `RSSI_MISSING`)
    and the log's bytes, so a snapshot stands for exactly the bytes its table
    was parsed from. It lies beside the file the log's path resolves to. It is
    only ever a cache: a snapshot that cannot be read, checked or trusted is a
    miss, and one that cannot be written is left unwritten. A read takes the
    table and only the `indexes` named, so a command reads only the index its
    queries search.
    """

    def __init__(self, log, delimiter: str, indexes=INDEXES):
        self.log = os.path.realpath(os.fsdecode(log))  # beside the file, not beside a link to it
        self.path = self.log + SNAPSHOT_SUFFIX
        self.indexes = indexes
        self.salt = (
            f"roomsense snapshot {_SNAPSHOT_VERSION}\n{delimiter}\n{csv.field_size_limit()}\n"
            f"{REPORT_HOUR}\n{RSSI_MISSING}\n"
        ).encode()

    def is_beside(self, log_stat: os.stat_result) -> bool:
        """Whether the log's resolved path names the file `log_stat` describes."""
        try:
            named = os.stat(self.log)
        except OSError:
            return False
        return (named.st_dev, named.st_ino) == (log_stat.st_dev, log_stat.st_ino)

    def digest(self):
        """A SHA-256 of the key's other parts, to be fed the log's bytes."""
        # imported here: its OpenSSL library adds 4 MB to a command that reads no session log
        import hashlib

        return hashlib.sha256(self.salt)

    def read(self, raw, log_owner: int) -> SessionTable | None:
        """The table stored for the bytes of the binary file `raw`, or None; `raw` is rewound.

        The log is hashed only when a snapshot file is there to compare with,
        on a worker thread while this thread reads the stored table; both
        mostly run with the GIL released.
        Anyone who can read the log can compute its key, so only a snapshot
        owned by the log's owner (`log_owner`) or by this process's user, and
        writable by no one else, is trusted.
        """
        try:
            fd = os.open(self.path, os.O_RDONLY | os.O_NONBLOCK)  # a FIFO at the path must not block
        except OSError:
            return None
        try:
            with open(fd, "rb") as handle:
                own = os.fstat(fd)
                if not stat.S_ISREG(own.st_mode) or own.st_mode & 0o022:
                    return None
                if own.st_uid not in (log_owner, os.geteuid()):
                    return None
                with np.load(handle, allow_pickle=False) as stored:
                    if set(stored.files) != _MEMBERS:
                        return None
                    key = stored["key"].tobytes()
                    digesting = _Digesting(self.digest(), raw)
                    try:
                        table = _stored_table(stored, self.indexes)  # read while the worker hashes the log
                    finally:
                        digest = digesting.hexdigest()
                    return table if key == digest.encode() else None
        except Exception:  # whatever the snapshot's bytes make numpy or zipfile raise, the log is parsed
            return None
        finally:
            raw.seek(0)

    def write(self, digest, table: SessionTable) -> None:
        """Store `table` and both its indexes under the key that `digest` has hashed.

        An index the table lacks is built into `table.indexes` first. The file
        is written as a temporary file beside the snapshot, then `os.replace`d.
        An `OSError` leaves the snapshot as it was: a read-only directory, a
        full disk or a directory at its path.
        """
        if RAW_INDEX not in table.indexes:
            table.indexes[RAW_INDEX] = _raw_index(table)
        if MERGED_INDEX not in table.indexes:
            table.indexes[MERGED_INDEX] = _merge_intervals(table)
        folder, name = os.path.split(self.path)
        try:
            fd, temp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=folder)
        except OSError:
            return
        try:
            with open(fd, "wb") as handle:
                np.savez(
                    handle,
                    key=np.array(digest.hexdigest().encode()),
                    **{column: getattr(table, column) for column in _COLUMNS},
                    **{names: np.array(getattr(table, names), dtype=bytes) for names in _NAME_LISTS},
                    **_index_arrays(RAW_INDEX, table.indexes[RAW_INDEX]),
                    **_index_arrays(MERGED_INDEX, *table.indexes[MERGED_INDEX]),
                )
            os.replace(temp, self.path)
        except OSError:
            with suppress(OSError):
                os.remove(temp)


class _Digesting(threading.Thread):
    """Feeds the rest of the binary file `raw` to `digest`, on a thread of its own."""

    def __init__(self, digest, raw):
        super().__init__(name="roomsense-snapshot-digest")
        self.digest, self.raw, self.error = digest, raw, None
        self.start()

    def run(self) -> None:
        try:
            block = bytearray(_BLOCK_BYTES)
            while read := self.raw.readinto(block):
                self.digest.update(memoryview(block)[:read])
        except Exception as exc:  # an unreadable log: raised again on the thread that asks for the digest
            self.error = exc

    def hexdigest(self) -> str:
        """The digest once the whole file is fed; the thread has ended when this returns."""
        self.join()
        if self.error is not None:
            raise self.error
        return self.digest.hexdigest()


def _index_arrays(name: str, index: _IntervalIndex, *columns: np.ndarray) -> dict[str, np.ndarray]:
    """The snapshot arrays of the index `name`: its row order, keys, longest
    interval per AP and (low, span), and the merged index's own columns."""
    arrays = {
        f"{name}_row": index.row,
        f"{name}_key": index.key,
        f"{name}_longest": index.longest,
        f"{name}_bounds": np.array([index.low, index.span], dtype=np.int64),
    }
    arrays.update((f"{name}_{column}", values) for column, values in zip(_MERGED_COLUMNS, columns))
    return arrays


def _int64_vectors(length: int, *arrays: np.ndarray) -> bool:
    """Whether every array is a 1-D native int64 array of `length` entries."""
    return all(a.dtype == np.int64 and a.shape == (length,) for a in arrays)


def _within(codes: np.ndarray, n_codes: int) -> bool:
    """Whether every code lies in [0, n_codes)."""
    return not codes.size or 0 <= codes.min() <= codes.max() < n_codes


def _stored_table(stored, indexes) -> SessionTable | None:
    """The table of a snapshot's arrays, with the indexes named by `indexes`,
    or None when they do not form one as the parse does: six int64 columns
    of one length, strictly increasing `S` name lists, codes that index them,
    no session ending before it starts, and indexes that pass `_stored_index`."""
    names = [stored[key] for key in _NAME_LISTS]
    columns = [stored[key] for key in _COLUMNS]
    if columns[0].ndim != 1 or not _int64_vectors(len(columns[0]), *columns):
        return None
    if any(texts.dtype.kind != "S" or texts.ndim != 1 or (texts[1:] <= texts[:-1]).any() for texts in names):
        return None
    if (columns[_COLUMNS.index("end")] < columns[_COLUMNS.index("start")]).any():
        return None
    if not all(_within(codes, len(texts)) for codes, texts in zip(columns, names)):
        return None
    table = SessionTable(*(texts.astype(str).tolist() for texts in names), *columns)
    for name in indexes:
        index = _stored_index(stored, name, table)
        if index is None:
            return None
        table.indexes[name] = index
    return table


def _stored_index(stored, name: str, table: SessionTable):
    """The index `name` of `table` from a snapshot's arrays, or None when they do not form one.

    They form one when every array is native int64 of the right shape; the
    row order is a permutation of the intervals; the keys do not decrease and
    lie in [0, APs * span); no AP's longest interval is negative; and the
    span is at least 1. The merged index's own columns are one length, hold
    user codes in range, and no interval of theirs ends before it starts.
    These bound every search to the arrays, whatever the bytes; they do not
    show that the index was built from this table, which the key stands for.
    """
    n_aps = len(table.ap_names)
    if name == MERGED_INDEX:
        columns = [stored[f"{name}_{column}"] for column in _MERGED_COLUMNS]
        start, end, user = columns
        if start.ndim != 1 or not _int64_vectors(len(start), *columns):
            return None
        if (end < start).any() or not _within(user, len(table.user_names)):
            return None
        n = len(start)
    else:
        columns, n = [], len(table)
    row, key, longest, bounds = (stored[f"{name}_{part}"] for part in _INDEX_PARTS)
    if not (_int64_vectors(n, row, key) and _int64_vectors(n_aps, longest) and _int64_vectors(2, bounds)):
        return None
    low, span = bounds.tolist()
    if span < 1 or n_aps * span >= 2**63 or (longest < 0).any():
        return None
    if (key[1:] < key[:-1]).any() or not _within(key, n_aps * span) or not _within(row, n):
        return None
    seen = np.zeros(n, dtype=bool)
    seen[row] = True
    if not seen.all():  # n codes in range, each seen: a permutation
        return None
    index = _IntervalIndex(row, key, longest, low, span)
    return (index, *columns) if columns else index


def load_sessions(path, delimiter: str = ",", indexes=INDEXES) -> tuple[SessionTable, LoadReport]:
    """Load and validate a session-log file into a `SessionTable`.

    Ongoing (`Ass`) sessions end at the 9pm report time on their own date.
    Bytes, SNR and Retries are validated but not kept.

    A log in canonical form is parsed with numpy, block by block, and its
    table kept in a snapshot beside it with both store indexes; a later load
    of the same bytes reads that snapshot instead, with the indexes named by
    `indexes` (those the caller's queries search). Any other file is read
    from its first line by the row loop, which alone rejects rows and warns.
    """
    table = _load_canonical(path, delimiter, _Snapshot(path, delimiter, indexes))
    if table is not None:
        return table, LoadReport(rows_read=len(table))
    return _load_rows(path, delimiter)


def _load_rows(path, delimiter: str) -> tuple[SessionTable, LoadReport]:
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
            end = assoc - assoc % 1440 + REPORT_HOUR * 60
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
    """The enrolled users of each class, by class id in order of first appearance.

    A roster in canonical form is read in one pass (`_canonical_rosters`).
    Any other file is read from its first line by the row loop, which alone
    rejects rows and warns.
    """
    rosters = _canonical_rosters(path, delimiter)
    if rosters is not None:
        return rosters, LoadReport(rows_read=sum(map(len, rosters.values())))
    return _roster_rows(path, delimiter)


def _canonical_rosters(path, delimiter: str) -> dict[str, frozenset[str]] | None:
    """The rosters of a roster file in canonical form, or None for any other file.

    Canonical form is a regular file of UTF-8 text with one kind of line end,
    LF or CRLF, and one of the delimiters `,;|` or tab. Its header is
    exactly `class_id`, the delimiter and `user_id`; every other line holds
    two fields, each non-empty, no longer than the csv field limit and free
    of quotes, NULs and whitespace; and no class lists a user twice. The row
    loop takes every row of such a file as it stands, without a reject or a
    warning, so both paths return the same rosters.
    """
    if delimiter not in _CANONICAL_DELIMITERS:
        return None
    try:
        with open(path, "rb") as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                return None  # the row loop could not read a pipe again
            text = handle.read().decode("utf-8")
    except (OSError, ValueError):  # ValueError: text that is not UTF-8, or a NUL in the path
        return None
    eol = "\r\n" if "\r" in text else "\n"
    header, _, body = text.partition(eol)
    body = body.removesuffix(eol)
    # the pattern bounds a field by at most 2**31 characters; the row loop reads any longer one
    field = f'[^{re.escape(delimiter)}\\s"\\0]{{1,{min(csv.field_size_limit(), 2**31)}}}'
    row = f"{field}{re.escape(delimiter)}{field}"
    if header != delimiter.join(ROSTER_COLUMNS) or not re.fullmatch(f"(?:{row}(?:{eol}{row})*)?", body):
        return None
    fields = body.replace(eol, delimiter).split(delimiter) if body else []
    classes, users = fields[0::2], fields[1::2]
    # a class's rows are usually adjacent: take each run of one class at once
    starts = list(compress(range(len(classes)), map(ne, classes, chain([None], classes))))
    rosters: dict[str, frozenset[str]] = {}
    for lo, hi in zip(starts, [*starts[1:], len(classes)]):
        earlier = rosters.get(classes[lo], frozenset())
        members = earlier.union(users[lo:hi])
        if len(members) != len(earlier) + hi - lo:
            return None  # a duplicate enrolment, which the row loop warns about
        rosters[classes[lo]] = members
    return rosters


def _roster_rows(path, delimiter: str) -> tuple[dict[str, frozenset[str]], LoadReport]:
    """The row loop of `load_rosters`: every rule, reject and warning, row by row."""
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


def _longest(lengths: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per group of the CSR `offsets`, the largest of its `lengths` (0 for an empty group)."""
    longest = np.zeros(len(offsets) - 1, dtype=np.int64)
    busy = offsets[:-1] < offsets[1:]
    longest[busy] = np.maximum.reduceat(lengths, offsets[:-1][busy])
    return longest


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


def _row_order(*keys: np.ndarray) -> np.ndarray:
    """The stable order of rows by int64 `keys`, the first key most significant.

    The same order as `np.lexsort(keys[::-1])`. When the keys' value ranges
    and the row index fit in 63 bits together, the packed keys carry the row
    index in their low bits: every packed value is then distinct, so numpy's
    fastest sort, which is not stable, finds the stable order, and the low
    bits are that order. When only the keys fit, one stable argsort of the
    packed keys finds it.
    """
    n = keys[0].size
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    lows = [int(k.min()) for k in keys]
    widths = [(int(k.max()) - low).bit_length() for k, low in zip(keys, lows)]
    row_bits = (n - 1).bit_length()
    if sum(widths) > 63:
        return np.lexsort(keys[::-1])
    packed = np.zeros(n, dtype=np.int64)
    for key, low, width in zip(keys, lows, widths):
        packed <<= width
        packed += key - low
    if sum(widths) + row_bits > 63:
        return np.argsort(packed, kind="stable")
    packed <<= row_bits
    packed += np.arange(n, dtype=np.int64)
    packed.sort()
    packed &= (1 << row_bits) - 1
    return packed


@dataclass(frozen=True)
class _IntervalIndex:
    """Intervals [start, end) on AP codes, searchable by AP and start time.

    `row` lists the intervals in (ap, start, end) order, ties in input order.
    `key`, `ap * span + (start - low)` in that order, is sorted, so one binary
    search per AP finds its intervals that start in a given time range.
    `longest` is each AP's longest interval (0 without any). The index keeps
    no starts or ends: its users keep those.
    """

    row: np.ndarray
    key: np.ndarray
    longest: np.ndarray
    low: int
    span: int

    @classmethod
    def build(cls, ap: np.ndarray, start: np.ndarray, end: np.ndarray, n_aps: int) -> _IntervalIndex:
        """The index of the intervals [start[i], end[i]) on AP codes ap[i].

        No more than two sorted columns are alive beside `row` at once; numpy
        reuses a temporary operand for a result in place.
        """
        row = _row_order(ap, start, end)
        longest = _longest(end[row] - start[row], _offsets(ap[row], n_aps))
        low, high = (int(start.min()), int(start.max())) if start.size else (0, 0)
        span = high - low + 1
        key = ap[row] * span
        key += start[row]
        key -= low
        return cls(row, key, longest, low, span)

    def search(self, codes: np.ndarray, lo, hi) -> tuple[np.ndarray, np.ndarray]:
        """(rows, query of each) of the intervals, for each query q, on AP
        codes[q] that start in [lo[q] - longest, hi[q]), with the longest
        interval of that AP; `lo` and `hi` are arrays like `codes`, or numbers.

        Every interval on codes[q] that overlaps [lo[q], hi[q]), lo[q] <= hi[q],
        is among them. Both bounds are clipped to [0, span], so each search
        stays inside its AP's key range; rows come by query, each query's in
        the index's order.
        """
        base = codes * self.span
        # np.minimum and np.maximum: np.clip costs more than the search on a few codes
        first = np.searchsorted(
            self.key, base + np.minimum(np.maximum(lo - self.longest[codes] - self.low, 0), self.span)
        )
        stop = np.searchsorted(self.key, base + np.minimum(np.maximum(hi - self.low, 0), self.span))
        counts = stop - first
        query = np.repeat(np.arange(codes.size), counts)
        positions = np.arange(query.size) + np.repeat(first - (np.cumsum(counts) - counts), counts)
        return self.row[positions], query


def _raw_index(table: SessionTable) -> _IntervalIndex:
    """The index of the table's own sessions."""
    return _IntervalIndex.build(table.ap, table.start, table.end, len(table.ap_names))


def _merge_intervals(table: SessionTable) -> tuple[_IntervalIndex, np.ndarray, np.ndarray, np.ndarray]:
    """(index, start, end, user) of the per-(ap, user) unions of session intervals.

    Touching intervals coalesce: a session starting at or before the running
    maximum end of its (ap, user) group joins the current one.
    """
    order = _row_order(table.ap, table.user, table.start)
    ap, user = table.ap[order], table.user[order]
    start, end = table.start[order], table.end[order]
    opens = np.ones(order.size, dtype=bool)
    opens[1:] = (ap[1:] != ap[:-1]) | (user[1:] != user[:-1])
    reach = grouped_running_max(np.cumsum(opens, dtype=np.int64), end)
    opens[1:] |= start[1:] > reach[:-1]
    heads = np.flatnonzero(opens)
    start, end = start[heads], np.maximum.reduceat(end, heads)  # the latest end of each union
    return _IntervalIndex.build(ap[heads], start, end, len(table.ap_names)), start, end, user[heads]


# The most classes a caller asks one query about: the memory of a query
# grows with its classes, and batches of this size keep it small.
QUERY_BATCH = 32


def batches(items: list) -> list[list]:
    """`items` in consecutive lists of at most `QUERY_BATCH`."""
    return [items[i : i + QUERY_BATCH] for i in range(0, len(items), QUERY_BATCH)]


class SessionStore:
    """Immutable time-window queries over a `SessionTable`, many classes per call.

    Both AP queries search an `_IntervalIndex`: the raw sessions for
    `sessions_overlapping`, and the per-(ap, user) merged intervals for
    `user_counts_at`. Each is taken from `table.indexes` when a load gave it,
    and otherwise built on the first call that reads it, so a store that is
    never asked one of the queries never builds its index.
    """

    def __init__(self, table: SessionTable):
        self.table = table
        self._ap_code = {name: i for i, name in enumerate(table.ap_names)}
        self._user_code = {name: i for i, name in enumerate(table.user_names)}

    @cached_property
    def _sessions(self) -> _IntervalIndex:
        stored = self.table.indexes.get(RAW_INDEX)
        return _raw_index(self.table) if stored is None else stored

    @cached_property
    def _merged(self) -> tuple[_IntervalIndex, np.ndarray, np.ndarray, np.ndarray]:
        stored = self.table.indexes.get(MERGED_INDEX)
        return _merge_intervals(self.table) if stored is None else stored

    def user_ids(self, user_names) -> np.ndarray:
        """Integer ids for the given user names, in ascending order; unknown names are dropped."""
        ids = np.fromiter(map(self._user_code.get, user_names, repeat(-1)), dtype=np.int64)
        return np.sort(ids[ids >= 0])

    def user_counts_at(self, step: int, grids, member_ids) -> list[tuple[np.ndarray, np.ndarray]]:
        """Distinct-user connection counts of every AP on the sample grid of each of several classes.

        Samples are `step` minutes apart, step > 0. `grids[c]` is class c's
        grid (first, count): the sample times first + step * k for
        0 <= k < count. `member_ids[c]` holds the user ids (`user_ids`) whose
        connections alone the class's second count takes, typically its
        roster. Returns per class (total, members), int64 arrays of shape
        (AP code, sample). Multi-device users count once because intervals
        are merged per user.

        A merged interval [start, end) covers the samples k in
        [ceil((start - first) / step), ceil((end - first) / step)), clipped to
        [0, count]. Each (class, AP) pair owns count + 1 slots of one flat
        grid; every interval adds 1 at its first sample's slot and -1 at the
        slot past its last, and one running sum gives every count.
        """
        n_aps, n_classes = len(self.table.ap_names), len(grids)
        if not n_classes:
            return []
        index, start, end, user = self._merged
        first, count = (np.array(column, dtype=np.int64) for column in zip(*grids))
        width = count + 1
        offsets = np.zeros(n_classes + 1, dtype=np.int64)
        np.cumsum(n_aps * width, out=offsets[1:])
        # one search per (class, AP) pair q = class * n_aps + AP code, each
        # pair's values taken once; an interval covering a sample starts
        # before the last sample's next minute
        pair_class = np.repeat(np.arange(n_classes), n_aps)
        codes = np.tile(np.arange(n_aps), n_classes)
        pair_first, pair_count = first[pair_class], count[pair_class]
        pair_last = pair_first + step * np.maximum(pair_count - 1, 0)
        rows, pair = index.search(codes, pair_first, pair_last + 1)
        f, n = pair_first[pair], pair_count[pair]
        slot = (offsets[pair_class] + codes * width[pair_class])[pair]
        opens = slot + np.minimum(np.maximum(-((f - start[rows]) // step), 0), n)
        closes = slot + np.minimum(np.maximum(-((f - end[rows]) // step), 0), n)
        del f, n, slot
        size = int(offsets[-1])

        def counts(keep) -> np.ndarray:
            marks = np.bincount(opens[keep], minlength=size)
            marks -= np.bincount(closes[keep], minlength=size)
            return np.cumsum(marks, out=marks)

        total = counts(slice(None))
        # whether each (class, user) pair is enrolled, and so each interval found
        n_users = len(self.table.user_names)
        enrolled = np.zeros(n_classes * n_users, dtype=bool)
        for c, ids in enumerate(member_ids):
            enrolled[c * n_users + np.asarray(ids, dtype=np.int64)] = True
        members = counts(enrolled[(pair_class * n_users)[pair] + user[rows]])
        return [
            tuple(flat[offsets[c] : offsets[c + 1]].reshape(n_aps, width[c])[:, : count[c]]
                  for flat in (total, members))
            for c in range(n_classes)
        ]

    def active_aps(self, lo: datetime, hi: datetime) -> list[str]:
        """APs with at least one session overlapping [lo, hi), in name order."""
        table = self.table
        hit = (table.start < to_minutes(hi)) & (table.end > to_minutes(lo))
        return [table.ap_names[code] for code in np.unique(table.ap[hit])]

    def sessions_overlapping(self, ap_names, windows) -> tuple[np.ndarray, np.ndarray]:
        """Table rows of raw (unclipped) sessions overlapping each of several windows on its APs.

        Query q is the APs named in `ap_names[q]`, unknown names ignored, and
        the window `windows[q]`, (lo, hi) in minutes since the epoch for
        [lo, hi). Returns (rows, query of each row). Rows come by query, then
        grouped by AP name in sorted order, then by (start, end, row).
        """
        codes = [sorted({self._ap_code[ap] for ap in aps if ap in self._ap_code}) for aps in ap_names]
        lo = np.array([window[0] for window in windows], dtype=np.int64)
        hi = np.array([window[1] for window in windows], dtype=np.int64)
        code_query = np.repeat(np.arange(len(codes)), list(map(len, codes)))
        flat = np.fromiter(chain.from_iterable(codes), dtype=np.int64, count=code_query.size)
        rows, pair = self._sessions.search(flat, lo[code_query], hi[code_query])
        query = code_query[pair]
        ending = self.table.end[rows] > lo[query]
        return rows[ending], query[ending]
