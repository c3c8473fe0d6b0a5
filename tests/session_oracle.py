"""The record-building session loader, kept as a test oracle.

This is the loader the columnar `roomsense.store.load_sessions` replaced: it
parses each row into a `SessionRecord` holding `datetime`s. The oracle tests
in test_store.py check that both loaders accept the same rows with the same
values and report the same rejects and warnings.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime

from roomsense.records import REPORT_HOUR, SESSION_COLUMNS, parse_stamp, to_minutes
from roomsense.store import LoadReport, _check_header, _maybe_fatal_rejects, _open_rows

STATUS_ASSOCIATED = "Associated"
STATUS_DISASSOCIATED = "Disassociated"


@dataclass(frozen=True)
class SessionRecord:
    """One WiFi association event.

    `duration` runs to the effective end: the disassociation time for closed
    sessions, the report-generation time for sessions still open when the log
    was cut. It is authoritative; the logged duration field is only checked
    against it at load time.
    """

    user_id: str
    device_mac: str
    assoc_time: datetime
    disassoc_time: datetime | None
    duration: int
    ap_name: str
    bytes_tx: int
    bytes_rcvd: int
    snr: int | None
    rssi: int | None
    status: str
    retries: int | None = None


def _parse_optional_int(text: str) -> int | None:
    text = text.strip()
    if text in ("", "-"):
        return None
    return int(text)


def parse_session_row(
    fields: list[str], report_time: datetime | None
) -> tuple[SessionRecord | None, str | None, str | None]:
    """Parse one data row; returns (record, reject_reason, warning)."""
    if len(fields) < len(SESSION_COLUMNS):
        return None, f"expected {len(SESSION_COLUMNS)} columns, found {len(fields)}", None
    vals = [f.strip() for f in fields]
    user_id, mac = vals[0], vals[1]
    if not user_id or not mac:
        return None, "missing user id or MAC address", None
    try:
        assoc = parse_stamp(vals[2])
    except (ValueError, IndexError, OverflowError):
        return None, f"bad association time {vals[2]!r}", None

    status_text = vals[10].lower()
    if status_text in ("ass", "associated"):
        status = STATUS_ASSOCIATED
    elif status_text in ("disass", "disassociated"):
        status = STATUS_DISASSOCIATED
    else:
        return None, f"unknown status {vals[10]!r}", None

    disassoc = None
    if vals[3] not in ("", "-"):
        try:
            disassoc = parse_stamp(vals[3])
        except (ValueError, IndexError, OverflowError):
            return None, f"bad disassociation time {vals[3]!r}", None

    if status == STATUS_DISASSOCIATED:
        if disassoc is None:
            return None, "disassociated session without disassociation time", None
        if disassoc < assoc:
            return None, "disassociation time precedes association time", None
        end = disassoc
    else:
        if disassoc is not None:
            return None, "ongoing session carries a disassociation time", None
        end = report_time if report_time is not None else assoc.replace(
            hour=REPORT_HOUR, minute=0
        )
        if end < assoc:
            return None, "ongoing session starts after report generation time", None

    try:
        bytes_tx = int(vals[6])
        bytes_rcvd = int(vals[7])
        snr = _parse_optional_int(vals[8])
        rssi = _parse_optional_int(vals[9])
    except ValueError:
        return None, "bad numeric field", None
    if rssi is not None and abs(rssi) >= 2**63:
        return None, "bad numeric field", None

    duration = to_minutes(end) - to_minutes(assoc)
    warning = None
    logged = vals[4].split()
    if logged and logged[0].lstrip("-").isdecimal():
        try:
            mismatch = int(logged[0]) != duration
        except ValueError:  # "--5", or more digits than int() accepts
            mismatch = False
        if mismatch:
            warning = f"logged duration {logged[0]} min != recomputed {duration} min"

    retries = None
    if len(vals) > len(SESSION_COLUMNS):
        try:
            retries = _parse_optional_int(vals[len(SESSION_COLUMNS)])
        except ValueError:
            retries = None

    record = SessionRecord(
        user_id=user_id,
        device_mac=mac,
        assoc_time=assoc,
        disassoc_time=disassoc,
        duration=duration,
        ap_name=vals[5],
        bytes_tx=bytes_tx,
        bytes_rcvd=bytes_rcvd,
        snr=snr,
        rssi=rssi,
        status=status,
        retries=retries,
    )
    return record, None, warning


def load_sessions(
    path, report_time: datetime | None = None, delimiter: str = ","
) -> tuple[list[SessionRecord], LoadReport]:
    """Load and validate a session-log file.

    Ongoing (`Ass`) sessions get their effective end from `report_time`; when
    it is None, the default 9pm report time on the row's own date applies.
    """
    report = LoadReport()
    records: list[SessionRecord] = []
    with _open_rows(path, delimiter) as rows:
        header = next(rows, None)
        _check_header(path, header, SESSION_COLUMNS)
        for line_no, fields in enumerate(rows, start=2):
            if not fields or all(not f.strip() for f in fields):
                continue
            report.rows_read += 1
            record, reason, warning = parse_session_row(fields, report_time)
            if reason is not None:
                report.reject(line_no, reason)
                continue
            if warning is not None:
                report.warn(line_no, warning)
            records.append(record)
    _maybe_fatal_rejects(path, report)
    return records, report
