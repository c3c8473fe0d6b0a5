"""The per-row session-log writer, kept as a test oracle.

This is the writer the memoised `roomsense.simulate.write_sessions_csv`
replaced: it formats both stamps, the MAC and the duration anew for every
row. test_simulate.py checks that both writers produce byte-identical files.
"""
from __future__ import annotations

import csv

from roomsense.records import SESSION_COLUMNS, format_minutes
from roomsense.simulate import _device_mac


def write_sessions_csv(path, rows, delimiter: str = ",") -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(SESSION_COLUMNS)
        for start, user, device, ap, end, ongoing, rssi, snr, tx, rcvd in rows:
            writer.writerow(
                [
                    user,
                    _device_mac(user, device),
                    format_minutes(start),
                    "-" if ongoing else format_minutes(end),
                    f"{end - start} min",
                    ap,
                    tx,
                    rcvd,
                    snr,
                    rssi,
                    "Ass" if ongoing else "Disass",
                ]
            )
