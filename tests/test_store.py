"""Session-log loading, validation and time-window queries."""
import contextlib
import io
import os
import tempfile
import threading
from datetime import datetime, timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import session_oracle

from roomsense import store
from roomsense.cli import main
from roomsense.estimation import OccupancyEstimate
from roomsense.mapping import MappingResult
from roomsense.pipeline import (
    read_estimates_csv,
    read_mapping_csv,
    write_estimates_csv,
    write_mapping_csv,
    write_sweep_csv,
)
from roomsense.records import (
    ALLOWED_CLASS_MINUTES,
    CORRIDOR_MARKERS,
    GROUND_TRUTH_USER_COLUMNS,
    ROSTER_COLUMNS,
    ApInventory,
    ApLocation,
    ClassEvent,
    DataValidationError,
    parse_stamp,
    to_minutes,
)
from roomsense.simulate import (
    Campus,
    GroundTruth,
    load_ground_truth_counts,
    write_ground_truth,
    write_inventory_csv,
    write_roster_csv,
    write_timetable_csv,
)
from roomsense.store import (
    RSSI_MISSING,
    grouped_running_max,
    load_inventory,
    load_rosters,
    load_sessions,
    load_timetable,
    read_rows,
)

from conftest import DAY, make_session, record_store, small_logs
from query_oracle import merge_intervals

SESSIONS_HEADER = (
    "User ID,MAC address,Association time,Disassociation time,"
    "Session duration,AP name,Bytes Tx,Bytes Rcvd,SNR,RSSI,Status"
)


def write(tmp_path, name, lines):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadSessions:
    def test_table_sample_row(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            [
                SESSIONS_HEADER,
                "145e7e26, 00:08:22:60:fb:fe, 31/07/2017 10:40, 31/07/2017 11:15,"
                " 35 min, mattap1, 2717397, 1717397, 31, -63, Disass",
            ],
        )
        table, report = load_sessions(path)
        assert len(table) == 1 and not report.rejects
        assert table.end[0] - table.start[0] == 35
        assert table.user_names[table.user[0]] == "145e7e26"
        assert table.mac_names[table.mac[0]] == "00:08:22:60:fb:fe"
        assert table.ap_names[table.ap[0]] == "mattap1"
        assert table.rssi[0] == -63
        assert table.end[0] == to_minutes(parse_stamp("31/07/2017 11:15"))  # Disass: logged end

    def test_ongoing_session_gets_default_report_end(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            [
                SESSIONS_HEADER,
                "490801c0, 00:3b:21:5d:fb:80, 31/07/2017 20:40, -, 20 min, clb17,"
                " 156318, 3462431, 49, -45, Ass",
            ],
        )
        table, _ = load_sessions(path)
        assert table.end[0] == to_minutes(parse_stamp("31/07/2017 21:00"))
        assert table.end[0] - table.start[0] == 20

    def test_empty_stream_with_header(self, tmp_path):
        path = write(tmp_path, "s.csv", [SESSIONS_HEADER])
        table, report = load_sessions(path)
        assert len(table) == 0 and report.rejects == []

    def test_unreadable_source_fatal(self, tmp_path):
        with pytest.raises(DataValidationError):
            load_sessions(tmp_path / "missing.csv")

    def test_header_mismatch_fatal(self, tmp_path):
        path = write(tmp_path, "s.csv", ["a,b,c", "1,2,3"])
        with pytest.raises(DataValidationError):
            load_sessions(path)

    def test_mostly_rejected_rows_fatal(self, tmp_path):
        rows = [SESSIONS_HEADER]
        rows += ["garbage,row"] * 6
        rows += ["u1, m1, 31/07/2017 10:00, 31/07/2017 10:10, 10 min, ap, 1, 1, 30, -60, Disass"]
        path = write(tmp_path, "s.csv", rows)
        with pytest.raises(DataValidationError):
            load_sessions(path)

    def test_rejects_collected_with_row_numbers(self, tmp_path):
        good = "u1, m1, 31/07/2017 10:00, 31/07/2017 10:10, 10 min, ap, 1, 1, 30, -60, Disass"
        path = write(
            tmp_path,
            "s.csv",
            [SESSIONS_HEADER, good, "u2, m2, notadate, -, 5 min, ap, 1, 1, 30, -60, Ass", good, good],
        )
        table, report = load_sessions(path)
        assert len(table) == 3
        assert [line for line, _ in report.rejects] == [3]

    def test_disassociated_without_time_rejected(self, tmp_path):
        good = "u1, m1, 31/07/2017 10:00, 31/07/2017 10:10, 10 min, ap, 1, 1, 30, -60, Disass"
        path = write(
            tmp_path,
            "s.csv",
            [SESSIONS_HEADER, good, "u1, m1, 31/07/2017 10:00, -, 10 min, ap, 1, 1, 30, -60, Disass", good],
        )
        table, report = load_sessions(path)
        assert len(table) == 2 and len(report.rejects) == 1

    def test_duration_mismatch_is_warning_not_reject(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            [SESSIONS_HEADER, "u1, m1, 31/07/2017 10:00, 31/07/2017 10:30, 7 min, ap, 1, 1, 30, -60, Disass"],
        )
        table, report = load_sessions(path)
        assert table.end[0] - table.start[0] == 30  # recomputed value wins
        assert not report.rejects and len(report.warnings) == 1

    def test_extra_trailing_columns_ignored_retries_optional(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            [
                SESSIONS_HEADER + ",Retries",
                "u1, m1, 31/07/2017 10:00, 31/07/2017 10:30, 30 min, ap, 1, 1, 30, -60, Disass, 142",
            ],
        )
        table, report = load_sessions(path)
        assert not report.rejects and not report.warnings
        assert len(table) == 1  # Retries is validated by nothing and not kept

    def test_missing_rssi_parsed_as_none(self, tmp_path):
        path = write(
            tmp_path,
            "s.csv",
            [SESSIONS_HEADER, "u1, m1, 31/07/2017 10:00, 31/07/2017 10:30, 30 min, ap, 1, 1, 30, -, Disass"],
        )
        table, _ = load_sessions(path)
        assert table.rssi[0] == RSSI_MISSING


def _stamp(moment: datetime, padded: bool) -> str:
    if padded:
        return moment.strftime("%d/%m/%Y %H:%M")
    return f"{moment.day}/{moment.month}/{moment.year} {moment.hour}:{moment.minute}"


BAD_STAMPS = (
    "notadate",
    "31/02/2025 10:00",
    "03/03/2025 24:00",
    "03/03/2025",
    "03-03-2025 10:00",
    "03/03/99999999999999999999 09:00",
    "99999999999999999999/03/2025 09:00",
)


def _mostly(draw, good, bad):
    """`good` fifteen times in sixteen, otherwise one of `bad`."""
    return draw(st.sampled_from(bad)) if draw(st.integers(0, 15)) == 0 else good


@st.composite
def session_lines(draw):
    """One data line: mostly valid rows, plus every malformation the loader handles."""
    kind = draw(st.sampled_from(["row"] * 13 + ["short", "blank", "spaces"]))
    if kind == "short":
        return ",".join(draw(st.lists(st.sampled_from(["u1", "m1", "", " x "]), max_size=10)))
    if kind == "blank":
        return ""
    if kind == "spaces":
        return draw(st.sampled_from(["   ", " , ,", "\t"]))
    assoc = datetime(2025, 3, 3) + timedelta(minutes=draw(st.integers(7 * 60, 22 * 60)))
    length = _mostly(draw, draw(st.integers(0, 240)), [-1, -30])
    ongoing = draw(st.booleans())
    status = draw(st.sampled_from(["Ass", "associated"] if ongoing else ["Disass", "Disassociated", "DISASS"]))
    disassoc = "-" if ongoing else _stamp(assoc + timedelta(minutes=length), draw(st.booleans()))
    logged = draw(st.sampled_from([f"{length} min", f"{length}", "", "-"]))
    fields = [
        _mostly(draw, draw(st.sampled_from(["u1", "u2", "u10", "u3"])), [""]),
        _mostly(draw, draw(st.sampled_from(["m1", "m2", "aa:bb"])), [""]),
        _mostly(draw, _stamp(assoc, draw(st.booleans())), BAD_STAMPS),
        _mostly(draw, disassoc, ["-", "", *[_stamp(assoc, True)] * 4, *BAD_STAMPS]),
        _mostly(draw, logged, [f"{length + 5} min", "-5 min", "--5 min", "abc", "7"]),
        draw(st.sampled_from(["ap1", "ap2", "ap10", ""])),
        _mostly(draw, "1000", ["x1", "", "1.5"]),
        _mostly(draw, "2000", ["x1", "", "1.5"]),
        _mostly(draw, draw(st.sampled_from(["30", "-", ""])), ["snr", "3.0"]),
        _mostly(draw, draw(st.sampled_from(["-60", "-45", "-", ""])), ["weak", str(2**63), str(-(2**63))]),
        _mostly(draw, status, ["gone", "", "Disass" if ongoing else "Ass"]),
    ]
    retries = draw(st.sampled_from([None, "142", "-", "x"]))
    if retries is not None:
        fields.append(retries)
    pad = draw(st.sampled_from(["", " "]))
    return ",".join(pad + f for f in fields)


def _load_both(path, delimiter=","):
    """(columnar outcome, oracle outcome); a fatal load becomes its message."""
    outcomes = []
    for loader in (load_sessions, session_oracle.load_sessions):
        try:
            outcomes.append(loader(path, delimiter=delimiter))
        except DataValidationError as exc:
            outcomes.append(str(exc))
    return outcomes


def _table_rows(table):
    return [
        (table.user_names[u], table.mac_names[m], table.ap_names[a], s, e, None if r == RSSI_MISSING else r)
        for u, m, a, s, e, r in zip(
            table.user.tolist(),
            table.mac.tolist(),
            table.ap.tolist(),
            table.start.tolist(),
            table.end.tolist(),
            table.rssi.tolist(),
        )
    ]


def _record_rows(records):
    return [
        (
            r.user_id,
            r.device_mac,
            r.ap_name,
            to_minutes(r.assoc_time),
            to_minutes(r.assoc_time) + r.duration,
            r.rssi,
        )
        for r in records
    ]


def assert_matches_oracle(path, delimiter=","):
    columnar, oracle = _load_both(path, delimiter)
    if isinstance(oracle, str) or isinstance(columnar, str):
        assert columnar == oracle
        return
    (table, report), (records, expected) = columnar, oracle
    assert _table_rows(table) == _record_rows(records)
    assert report.rejects == expected.rejects
    assert report.warnings == expected.warnings
    assert report.rows_read == expected.rows_read


class TestLoaderMatchesOracle:
    """The columnar loader against the record-building loader it replaced."""

    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(session_lines(), max_size=30), retries_header=st.booleans())
    def test_generated_logs(self, lines, retries_header):
        header = SESSIONS_HEADER + (",Retries" if retries_header else "")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sessions.csv")
            with open(path, "w", newline="") as handle:
                handle.write("\n".join([header, *lines]) + "\n")
            assert_matches_oracle(path)

    def test_seed42_corpus(self, corpus42_dir):
        assert_matches_oracle(os.path.join(corpus42_dir, "sessions.csv"))


def _closed_or_ongoing(draw, assoc: datetime) -> tuple[str, str, str]:
    """(disassociation time, logged duration, status) of a row the numpy path takes."""
    if draw(st.booleans()):
        end = assoc.replace(hour=21, minute=0)
        disassoc = draw(st.sampled_from(["-", ""]))
        status = draw(st.sampled_from(["Ass", "associated", "ASSOCIATED"]))
    else:
        end = assoc + timedelta(minutes=draw(st.integers(0, 300)))
        disassoc = _stamp(end, True)
        status = draw(st.sampled_from(["Disass", "Disassociated", "DISASS"]))
    minutes = (end - assoc) // timedelta(minutes=1)
    logged = draw(st.sampled_from([f"{minutes} min", str(minutes), "", "-", "n/a"]))
    return disassoc, logged, status


def _canonical_fields(draw, retries: bool) -> list[str]:
    assoc = datetime(2025, 3, 3) + timedelta(minutes=draw(st.integers(7 * 60, 21 * 60 - 1)))
    disassoc, logged, status = _closed_or_ongoing(draw, assoc)
    fields = [
        draw(st.sampled_from(["u1", "u2", "u10", "u00042", "user-" + "x" * 40])),
        draw(st.sampled_from(["02:00:00:00:1a:00", "m1", "aa:bb"])),
        _stamp(assoc, True),
        disassoc,
        logged,
        draw(st.sampled_from(["room1-ap01", "bldC-f1-cor1", "ap2", ""])),
        str(draw(st.integers(0, 10**18 - 1))),
        draw(st.sampled_from(["0", "007", "2000"])),
        draw(st.sampled_from(["30", "-", "", "007"])),
        draw(st.sampled_from(["-60", "-45", "-", "", "0", "+3"])),
        status,
    ]
    return fields + [draw(st.sampled_from(["142", "-", "x", ""]))] * retries


def _set(index, value):
    def mutate(fields):
        fields[index] = value(fields[index]) if callable(value) else value
    return mutate


# One-line changes that make a canonical log just miss canonical form, or
# make the row loop reject or warn. Each is (name, change to the fields).
NEAR_MISSES = [
    ("31/02", _set(2, "31/02/2025 10:00")),
    ("24:00", _set(2, lambda v: v[:11] + "24:00")),
    ("year 0000", _set(2, lambda v: v[:6] + "0000" + v[10:])),
    ("unpadded day", _set(2, lambda v: v.replace("03/03/", "3/03/", 1))),
    ("unpadded hour", _set(2, lambda v: v[:11] + str(int(v[11:13])) + v[13:])),
    ("trailing space", _set(5, lambda v: v + " ")),
    ("leading space", _set(1, lambda v: " " + v)),
    ("NUL", _set(0, lambda v: v + "\0")),
    ("non-ASCII name", _set(0, "ü1")),
    ("quoted field", _set(5, lambda v: f'"{v}"')),
    ("bare CR", _set(5, lambda v: v + "\r")),
    ("plus sign", _set(6, "+5")),
    ("minus sign", _set(7, "-5")),
    ("19 digits", _set(6, "1" * 19)),
    ("letter in a byte count", _set(7, lambda v: v + "x")),
    ("SNR not a number", _set(8, "n/a")),
    ("ongoing with stamp", _set(10, "Ass")),
    ("duration mismatch", _set(4, "99999 min")),
    ("ten fields", lambda fields: fields.pop()),
    ("one more field", lambda fields: fields.append("7")),
]


@st.composite
def canonical_logs(draw, n_rows=st.integers(0, 12), late=0.0):
    """(file bytes, delimiter, mutated): a canonical log with at most one near miss.

    A near miss in a row falls in the last `1 - late` of the rows.
    """
    delimiter = draw(st.sampled_from([",", ";", "\t", "|"]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    retries = draw(st.booleans())
    rows = [_canonical_fields(draw, retries) for _ in range(draw(n_rows))]
    header = SESSIONS_HEADER.split(",") + ["Retries"] * retries
    lines = [delimiter.join(header), *(delimiter.join(fields) for fields in rows)]
    endings = [newline] * len(lines)
    if not draw(st.booleans()):
        endings[-1] = ""
    kind = draw(st.sampled_from(["none", "fields", "fields", "fields", "blank line", "mixed line ends"]))
    if kind == "fields" and rows:
        at = draw(st.integers(int(late * (len(rows) - 1)), len(rows) - 1))
        _, mutate = draw(st.sampled_from(NEAR_MISSES))
        mutate(rows[at])
        lines[at + 1] = delimiter.join(rows[at])
    elif kind == "blank line":
        at = draw(st.integers(1, len(lines)))
        lines.insert(at, "")
        endings.insert(at, newline)
    elif kind == "mixed line ends" and len(lines) > 1:
        at = draw(st.integers(0, len(lines) - 2))
        endings[at] = "\r\n" if newline == "\n" else "\n"
    text = "".join(line + ending for line, ending in zip(lines, endings))
    return text.encode("utf-8"), delimiter, kind != "none"


class TestCanonicalPath:
    """The numpy path of `load_sessions` against the record-building oracle."""

    @settings(max_examples=500, deadline=None)
    @given(log=canonical_logs())
    def test_canonical_logs_with_one_near_miss(self, log):
        data, delimiter, mutated = log
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sessions.csv")
            with open(path, "wb") as handle:
                handle.write(data)
            if not mutated:
                assert store._load_canonical(path, delimiter) is not None
            assert_matches_oracle(path, delimiter)

    def test_seed42_corpus_takes_the_numpy_path(self, corpus42_dir, monkeypatch):
        def row_loop(*args):
            raise AssertionError("a canonical log reached the row loop")

        monkeypatch.setattr(store, "_load_rows", row_loop)
        table, report = load_sessions(os.path.join(corpus42_dir, "sessions.csv"))
        assert len(table) == report.rows_read > 0
        assert not report.rejects and not report.warnings

    @pytest.mark.parametrize("final_line_end", [True, False])
    def test_tiny_blocks_change_nothing(self, small_corpus_dir, tmp_path, monkeypatch, final_line_end):
        with open(os.path.join(small_corpus_dir, "sessions.csv"), "rb") as handle:
            data = b"".join(handle.readlines()[:300])
        path = tmp_path / "sessions.csv"
        path.write_bytes(data if final_line_end else data.rstrip(b"\r\n"))
        expected = load_sessions(path)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 37)
        monkeypatch.setattr(store, "_load_rows", None)  # the numpy path must take this log
        table, report = load_sessions(path)
        assert _table_rows(table) == _table_rows(expected[0]) and len(table) == 299
        assert report == expected[1]


def _parse_threads() -> set[threading.Thread]:
    return {t for t in threading.enumerate() if t is not threading.current_thread()}


class TestThreadedParse:
    """Blocks parsed on a worker thread build what the row loop builds."""

    @settings(max_examples=60, deadline=None)
    @given(
        log=canonical_logs(n_rows=st.integers(16, 40), late=0.75),
        block_bytes=st.integers(64, 1200),
    )
    def test_matches_the_row_loop(self, log, block_bytes):
        data, delimiter, mutated = log
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "sessions.csv")
            with open(path, "wb") as handle:
                handle.write(data)
            outcomes = []
            running = _parse_threads()
            for load in (
                lambda: load_sessions(path, delimiter=delimiter),
                lambda: store._load_rows(path, delimiter),
            ):
                with mock.patch.object(store, "_BLOCK_BYTES", block_bytes):
                    try:
                        outcomes.append(load())
                    except DataValidationError as exc:
                        outcomes.append(str(exc))
                    if not mutated:
                        assert store._load_canonical(path, delimiter) is not None
                assert _parse_threads() == running  # the worker is gone, on either path
        threaded, rows = outcomes
        if isinstance(threaded, str) or isinstance(rows, str):
            assert threaded == rows
        else:
            assert _table_rows(threaded[0]) == _table_rows(rows[0])
            assert threaded[1] == rows[1]

    def test_a_failing_parse_stops_the_worker(self, small_corpus_dir, monkeypatch):
        calls = []
        parse = store._CanonicalBlocks.parse

        def fail_on_third(self, fields):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise RuntimeError("parse failed")
            return parse(self, fields)

        monkeypatch.setattr(store._CanonicalBlocks, "parse", fail_on_third)
        monkeypatch.setattr(store, "_BLOCK_BYTES", 4096)
        running = _parse_threads()
        with pytest.raises(RuntimeError, match="parse failed"):
            load_sessions(os.path.join(small_corpus_dir, "sessions.csv"))
        assert _parse_threads() == running
        assert threading.main_thread() not in calls  # every block was parsed by the worker

    def test_colliding_sort_keys_change_nothing(self, small_corpus_dir, monkeypatch):
        """With a mixing factor of 0, a multi-word field's key is its last word alone."""
        path = os.path.join(small_corpus_dir, "sessions.csv")
        expected = load_sessions(path)
        monkeypatch.setattr(store, "_MIX", np.uint64(0))
        monkeypatch.setattr(store, "_BLOCK_BYTES", 4096)
        monkeypatch.setattr(store, "_load_rows", None)  # the numpy path must take this log
        table, report = load_sessions(path)
        assert _table_rows(table) == _table_rows(expected[0])
        assert table.mac_names == expected[0].mac_names and table.ap_names == expected[0].ap_names
        assert report == expected[1]


class TestRowOrder:
    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.integers(-3, 3), st.integers(0, 5), st.integers(-(2**62), 2**62) | st.integers(0, 9)),
            max_size=40,
        ),
    )
    def test_matches_lexsort(self, rows):
        keys = [np.array(column, dtype=np.int64) for column in zip(*rows)] or [np.zeros(0, np.int64)] * 3
        assert store._row_order(*keys).tolist() == np.lexsort(keys[::-1]).tolist()


class TestLazyMergedIndex:
    def test_built_on_the_first_count_query(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        assert "_merged" not in vars(store)
        assert connected(store, "10:30") == (1, 0)
        assert "_merged" in vars(store)

    def test_train_and_estimate_never_build_it(self, small_corpus_dir, tmp_path, monkeypatch):
        corpus = small_corpus_dir
        inputs = ["--sessions", f"{corpus}/sessions.csv", "--timetable", f"{corpus}/timetable.csv",
                  "--rosters", f"{corpus}/roster.csv"]
        truth = ["--ground-truth-counts", f"{corpus}/ground_truth_counts.csv"]
        out = str(tmp_path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["map-aps", *inputs, "--seed", "7", "--out", out]) == 0

            def refuse(table):
                raise AssertionError("the merged-interval index was built")

            monkeypatch.setattr(store, "_merge_intervals", refuse)
            assert main(["train", *inputs, "--mapping", f"{out}/mapping.csv", *truth, "--out", out]) == 0
            assert main(["estimate", *inputs, "--mapping", f"{out}/mapping.csv",
                         "--model", f"{out}/model.txt", *truth, "--out", out]) == 0


class TestMergeIntervals:
    def test_paper_overlap_example(self):
        merged = merge_intervals([(20, 40), (30, 60)])
        assert merged == [(20, 60)]
        assert sum(e - s for s, e in merged) == 40

    def test_disjoint_unchanged(self):
        assert merge_intervals([(1, 2), (3, 4)]) == [(1, 2), (3, 4)]

    def test_touching_coalesce(self):
        assert merge_intervals([(0, 10), (10, 20)]) == [(0, 20)]

    def test_empty(self):
        assert merge_intervals([]) == []

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 500)).map(
                lambda p: (min(p), max(p))
            ),
            max_size=25,
        )
    )
    def test_idempotent_disjoint_and_length_bounded(self, intervals):
        merged = merge_intervals(intervals)
        assert merge_intervals(merged) == merged
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2  # disjoint, sorted, not even touching
        assert sum(e - s for s, e in merged) <= sum(e - s for s, e in intervals)

    @given(
        st.lists(
            st.tuples(st.integers(0, 500), st.integers(1, 60)).map(
                lambda p: (p[0], p[0] + p[1])
            ),
            max_size=20,
        )
    )
    def test_union_preserved(self, intervals):
        merged = merge_intervals(intervals)
        covered = set()
        for s, e in intervals:
            covered.update(range(s, e))
        merged_cover = set()
        for s, e in merged:
            merged_cover.update(range(s, e))
        assert covered == merged_cover


class TestGroupedRunningMax:
    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(-(10**6), 10**6)), max_size=40))
    def test_matches_a_loop(self, rows):
        rows = sorted(rows, key=lambda row: row[0])  # values stay unordered within a group
        expected, prev, best = [], None, None
        for g, v in rows:
            best = v if g != prev else max(best, v)
            prev = g
            expected.append(best)
        group = np.array([g for g, _ in rows], dtype=np.int64)
        values = np.array([v for _, v in rows], dtype=np.int64)
        assert grouped_running_max(group, values).tolist() == expected


def connected(store, at: str, ap: str = "ap1", members=()) -> tuple[int, int]:
    """`user_counts_at` on one AP at one 'HH:MM' instant of DAY: (total, members)."""
    times = np.array([to_minutes(parse_stamp(f"{DAY} {at}"))], dtype=np.int64)
    total, enrolled = store.user_counts_at(times, store.user_ids(members))
    code = store.table.ap_names.index(ap)
    return int(total[code, 0]), int(enrolled[code, 0])


class TestConnectedUsers:
    def test_multi_session_user_counted_once(self, store_builder):
        store = store_builder(
            make_session("u1", "ap1", "09:20", "09:40", mac="m1"),
            make_session("u1", "ap1", "09:30", "10:00", mac="m2"),
        )
        assert connected(store, "09:35", members={"u1"}) == (1, 1)

    def test_before_all_sessions_empty(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "09:20", "09:40"))
        assert connected(store, "08:00", members={"u1"}) == (0, 0)

    def test_two_devices_three_records_fixture(self, store_builder):
        # enumerated by hand: u1 covers 09:00-10:00 via two devices, u2 09:30-09:45
        store = store_builder(
            make_session("u1", "ap1", "09:00", "09:30", mac="m1"),
            make_session("u1", "ap1", "09:25", "10:00", mac="m2"),
            make_session("u2", "ap1", "09:30", "09:45", mac="m3"),
        )
        assert connected(store, "09:35", members={"u2"}) == (2, 1)
        assert connected(store, "09:50", members={"u2"}) == (1, 0)

    def test_unknown_ap_is_empty_not_error(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "09:00", "09:30"))
        at = parse_stamp(f"{DAY} 09:10")
        total, _ = store.user_counts_at(np.array([to_minutes(at)]), store.user_ids({"u1"}))
        # one row per AP in the log and nothing else
        assert store.table.ap_names == ["ap1"] and total.tolist() == [[1]]
        assert store.sessions_overlapping(["nosuch"], at, at + timedelta(minutes=1)).size == 0

    def test_half_open_convention(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "09:00", "09:30"))
        assert connected(store, "09:00") == (1, 0)
        assert connected(store, "09:30") == (0, 0)

    def test_monotone_in_the_log(self, store_builder):
        base = [make_session("u1", "ap1", "09:00", "09:30")]
        extra = make_session("u2", "ap1", "09:10", "09:20", mac="m9")
        small = connected(record_store(base), "09:15", members={"u1", "u2"})
        large = connected(record_store(base + [extra]), "09:15", members={"u1", "u2"})
        assert small == (1, 1) and large == (2, 2)

    def test_counts_cover_every_ap(self, store_builder):
        store = store_builder(
            make_session("u1", "ap1", "09:00", "09:30"),
            make_session("u2", "ap2", "09:00", "09:30", mac="m2"),
        )
        assert connected(store, "09:10", "ap1", {"u1"}) == (1, 1)
        assert connected(store, "09:10", "ap2", {"u1"}) == (1, 0)


class TestIndexMatchesBruteForce:
    """Store queries against direct scans of the hand-built sessions."""

    @settings(max_examples=150, deadline=None)
    @given(
        records=small_logs(),
        # minutes after the log day's midnight: inside the log, across its edges, or wholly before or after it
        lo=st.integers(9 * 60, 14 * 60) | st.integers(5 * 60, 25 * 60) | st.integers(-3 * 1440, 3 * 1440),
        length=st.integers(1, 120),
        aps=st.lists(st.sampled_from(["ap1", "ap2", "ap10", "nosuch"]), max_size=6),
    )
    def test_queries(self, records, lo, length, aps):
        store = record_store(records)
        midnight = to_minutes(parse_stamp(f"{DAY} 00:00"))
        spans = [
            (r.user_id, r.ap_name, to_minutes(r.assoc_time), to_minutes(r.assoc_time) + r.duration)
            for r in records
        ]
        lo_m, hi_m = midnight + lo, midnight + lo + length
        for times in (np.arange(midnight + 9 * 60, midnight + 14 * 60, 7), np.arange(lo_m, hi_m, 7)):
            total, members = store.user_counts_at(times, store.user_ids({"u1", "u3", "nosuch"}))
            assert total.shape == members.shape == (len(store.table.ap_names), len(times))
            for code, ap in enumerate(store.table.ap_names):
                covering = [{u for u, a, s, e in spans if a == ap and s <= t < e} for t in times]
                assert total[code].tolist() == [len(users) for users in covering]
                assert members[code].tolist() == [len(users & {"u1", "u3"}) for users in covering]

        lo_at = parse_stamp(f"{DAY} 00:00") + timedelta(minutes=lo)
        window = (lo_at, lo_at + timedelta(minutes=length))
        hits = [i for i, (_, a, s, e) in enumerate(spans) if s < hi_m and e > lo_m]
        assert store.active_aps(*window) == sorted({spans[i][1] for i in hits})
        expected = sorted(
            (i for i in hits if spans[i][1] in aps),
            key=lambda i: (spans[i][1], spans[i][2], spans[i][3], i),
        )
        assert store.sessions_overlapping(aps, *window).tolist() == expected


class TestClassWindowSessions:
    """`sessions_overlapping` rows clipped to the class window [start, end)."""

    def _event(self, start="11:00", end="14:00"):
        from roomsense.records import ClassEvent

        return ClassEvent("c1", "room1", parse_stamp(f"{DAY} {start}"), parse_stamp(f"{DAY} {end}"))

    def _clipped(self, store, event, aps):
        rows = store.sessions_overlapping(aps, event.start, event.end)
        lo, hi = to_minutes(event.start), to_minutes(event.end)
        table = store.table
        return [(max(s, lo), min(e, hi)) for s, e in zip(table.start[rows], table.end[rows])]

    def test_clipping(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "10:50", "14:40"))
        clipped = self._clipped(store, self._event(), {"ap1"})
        assert len(clipped) == 1
        assert clipped[0][0] == to_minutes(parse_stamp(f"{DAY} 11:00"))
        assert clipped[0][1] == to_minutes(parse_stamp(f"{DAY} 14:00"))

    def test_inside_unchanged(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "11:30", "12:00"))
        clipped = self._clipped(store, self._event(), {"ap1"})
        assert clipped[0][0] == to_minutes(parse_stamp(f"{DAY} 11:30"))
        assert clipped[0][1] - clipped[0][0] == 30

    def test_boundary_session_excluded(self, store_builder):
        store = store_builder(make_session("u1", "ap1", "10:00", "11:00"))
        assert self._clipped(store, self._event(), {"ap1"}) == []

    def test_all_clipped_within_window(self, store_builder):
        store = store_builder(
            make_session("u1", "ap1", "08:00", "12:00"),
            make_session("u2", "ap1", "13:59", "18:00", mac="m2"),
            make_session("u3", "ap1", "11:10", "11:20", mac="m3"),
        )
        event = self._event()
        clipped = self._clipped(store, event, {"ap1"})
        assert len(clipped) == 3
        for start, end in clipped:
            assert start >= to_minutes(event.start)
            assert end <= to_minutes(event.end)


class TestOtherLoaders:
    def test_timetable_duration_whitelist(self, tmp_path):
        path = write(
            tmp_path,
            "t.csv",
            [
                "class_id,room_id,date,start,end",
                "c1,room1,03/03/2025,09:00,10:00",
                "c2,room1,03/03/2025,10:00,10:45",  # 45 min not allowed
            ],
        )
        events, report = load_timetable(path)
        assert [e.class_id for e in events] == ["c1"]
        assert len(report.rejects) == 1

    def test_roster_duplicates_warn(self, tmp_path):
        path = write(tmp_path, "r.csv", ["class_id,user_id", "c1,u1", "c1,u1", "c1,u2"])
        rosters, report = load_rosters(path)
        assert rosters["c1"] == {"u1", "u2"}
        assert len(report.warnings) == 1

    def test_inventory_corridor_markers(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            ["ap_name,room_id,building,floor", "ap1,room1,bldA,2", "ap2,corridor,bldA,2"],
        )
        inventory, _ = load_inventory(path)
        assert inventory.location("ap1").room_id == "room1"
        assert inventory.location("ap2").is_corridor
        assert inventory.positives_for_room("room1", adjacency=True) == {"ap1", "ap2"}
        assert inventory.positives_for_room("room1", adjacency=False) == {"ap1"}

    def test_inventory_duplicate_ap_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            ["ap_name,room_id,building,floor", "ap1,room1,bldA,2", "ap1,room2,bldA,1", "ap2,room2,bldA,1"],
        )
        inventory, report = load_inventory(path)
        assert inventory.location("ap1").room_id == "room1"  # first row wins
        assert len(report.rejects) == 1
    def test_inventory_room_without_aps_has_no_positives(self, tmp_path):
        path = write(
            tmp_path,
            "i.csv",
            ["ap_name,room_id,building,floor", "ap1,room1,bldA,2", "ap2,corridor,bldA,2"],
        )
        inventory, _ = load_inventory(path)
        assert inventory.positives_for_room("room2", adjacency=True) == frozenset()
        assert inventory.positives_for_room("room2", adjacency=False) == frozenset()


# One small clean file per tabular reader, and a function turning what the
# reader returns into a value that compares equal for equal content.
CLEAN_FILES = {
    "sessions": (
        SESSIONS_HEADER,
        "u1,m1,03/03/2025 09:00,03/03/2025 09:40,40 min,ap1,10,20,30,-60,Disass",
        "u2,m2,03/03/2025 09:05,-,0 min,ap2,10,20,-,-,Ass",
        "u1,m3,03/03/2025 10:00,03/03/2025 10:10,12 min,ap2,10,20,30,-71,Disass",
    ),
    "timetable": (
        "class_id,room_id,date,start,end",
        "c1,room1,03/03/2025,09:00,10:00",
        "c2,room2,03/03/2025,10:00,12:00",
    ),
    "rosters": ("class_id,user_id", "c1,u1", "c1,u2", "c2,u1"),
    "inventory": (
        "ap_name,room_id,building,floor",
        "ap1,room1,bldA,1",
        "ap2,corridor,bldA,1",
        "ap3,room2,bldB,2",
    ),
    "ground_truth_counts": ("class_id,true_count", "c1,30", "c2,0"),
    "mapping": ("class_id,ap_name,mapped,score", "c1,ap1,1,0.5", "c1,ap2,0,-1.25", "c2,ap3,1,2.0"),
    "estimates": (
        "class_id,room_id,wifi_count,enrolled_wifi_count,lda_count,calibrated_count,ground_truth",
        "c1,room1,40,30,28,31,30",
        "c2,room2,5,3,2,1,",
    ),
}


def _read(kind, path):
    if kind == "sessions":
        table, report = load_sessions(path)
        return _table_rows(table), report.rows_read, [message for _, message in report.warnings]
    if kind == "timetable":
        events, report = load_timetable(path)
        return events, report.rows_read
    if kind == "rosters":
        rosters, report = load_rosters(path)
        return rosters, report.rows_read
    if kind == "inventory":
        inventory, report = load_inventory(path)
        return {ap: inventory.location(ap) for ap in inventory}, report.rows_read
    if kind == "ground_truth_counts":
        return load_ground_truth_counts(path)
    if kind == "mapping":
        return read_mapping_csv(path)
    return read_estimates_csv(path)


def _padded(lines):
    """Every field padded with spaces, the header upper-cased, blank rows between rows."""
    out = []
    for i, line in enumerate(lines):
        out.append(",".join(f"  {field} " for field in line.split(",")))
        out.append("" if i % 2 else " , ,\t")
    out[0] = out[0].upper()
    return out


class TestReadRows:
    @pytest.mark.parametrize("kind", sorted(CLEAN_FILES))
    def test_padding_blank_rows_and_header_case_change_nothing(self, tmp_path, kind):
        clean = write(tmp_path, "clean.csv", CLEAN_FILES[kind])
        padded = write(tmp_path, "padded.csv", _padded(CLEAN_FILES[kind]))
        assert _read(kind, padded) == _read(kind, clean)

    def test_mapping_keys_are_stripped(self, tmp_path):
        padded = write(
            tmp_path,
            "mapping.csv",
            ["class_id,ap_name,mapped,score", " c1,ap1 ,1,0.5", "c2 , ap2,0,-0.5"],
        )
        clean = write(
            tmp_path, "clean.csv", ["class_id,ap_name,mapped,score", "c1,ap1,1,0.5", "c2,ap2,0,-0.5"]
        )
        results = read_mapping_csv(padded)
        assert sorted(results) == ["c1", "c2"]
        assert results["c1"].mapped == {"ap1"} and results["c2"].not_mapped == {"ap2"}
        assert results == read_mapping_csv(clean)

    def test_yields_stripped_fields_with_line_numbers(self, tmp_path):
        path = write(tmp_path, "r.csv", ["Class_ID , User_ID,extra", "", " c1 ,u1", "  ,  ", "c2"])
        assert list(read_rows(path, ",", ROSTER_COLUMNS)) == [(3, ["c1", "u1"]), (5, ["c2"])]

    def test_report_header_may_carry_extra_columns(self, tmp_path):
        path = write(
            tmp_path, "mapping.csv", ["CLASS_ID,ap_name,mapped,score,note", "c1,ap1,1,0.5,x"]
        )
        assert read_mapping_csv(path)["c1"].mapped == {"ap1"}

    @pytest.mark.parametrize("kind", sorted(CLEAN_FILES))
    def test_wrong_header_names_both_expectation_and_finding(self, tmp_path, kind):
        path = write(tmp_path, "bad.csv", ["wrong,columns", "1,2"])
        with pytest.raises(DataValidationError, match="header mismatch, expected columns"):
            _read(kind, path)


# Names that need quoting or are not ASCII. Readers strip every field, so no
# name carries surrounding whitespace.
NAMES = st.one_of(
    st.sampled_from([",", ";", '"', 'a"b', '"a,"', "a,b", "é", "教室 1", "ß x"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=8),
).filter(lambda name: name and name == name.strip())
ROOMS = NAMES.filter(lambda name: name.lower() not in CORRIDOR_MARKERS)
COUNTS = st.integers(-(10**9), 10**9)


def _round_trip(write, read, *args):
    """`read(path)` of the file that `write(path, *args)` made."""
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "file.csv")
        write(path, *args)
        return read(path)


class TestWriteRows:
    def test_framing(self, tmp_path):
        path = tmp_path / "t.csv"
        store.write_rows(path, ("a", "b"), [("x,y", None), ('q"', 1), ("é", 2.5)])
        assert path.read_bytes() == 'a,b\r\n"x,y",\r\n"q""",1\r\né,2.5\r\n'.encode()

    def test_skipped_sweep_row_leaves_the_rates_empty(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(
            path,
            [{"resolution": 1, "skipped": True},
             {"resolution": 5, "skipped": False, "classes": 3, "tp_rate": 0.5, "tn_rate": 1.0}],
        )
        assert path.read_text() == "resolution,skipped,classes,tp_rate,tn_rate\n1,1,0,,\n5,0,3,0.500000,1.000000\n"

    @settings(max_examples=100, deadline=None)
    @given(
        classes=st.dictionaries(
            NAMES,
            st.dictionaries(NAMES, st.tuples(st.booleans(), st.floats(-1e6, 1e6)), max_size=4),
            max_size=4,
        )
    )
    def test_mapping(self, classes):
        results = {
            cid: MappingResult(
                cid,
                frozenset(ap for ap, (flag, _) in aps.items() if flag),
                frozenset(ap for ap, (flag, _) in aps.items() if not flag),
                "kmeans",
                {ap: score for ap, (_, score) in aps.items()},
            )
            for cid, aps in classes.items()
        }
        expected = {
            cid: MappingResult(
                cid, r.mapped, r.not_mapped, "file",
                {ap: float(f"{score:.6f}") for ap, score in r.scores.items()},
            )
            for cid, r in results.items()
            if r.featured
        }
        assert _round_trip(write_mapping_csv, read_mapping_csv, results) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.dictionaries(
            NAMES,
            st.tuples(NAMES, COUNTS, COUNTS, COUNTS, COUNTS, st.none() | COUNTS),
            max_size=5,
        )
    )
    def test_estimates(self, rows):
        estimates = [OccupancyEstimate(cid, *fields) for cid, fields in rows.items()]
        read = _round_trip(write_estimates_csv, read_estimates_csv, estimates)
        assert read == sorted(estimates, key=lambda e: e.class_id)

    @settings(max_examples=100, deadline=None)
    @given(
        rows=st.dictionaries(
            NAMES,
            st.tuples(
                ROOMS,
                st.datetimes(datetime(2000, 1, 1), datetime(2099, 12, 31)),
                st.sampled_from(sorted(ALLOWED_CLASS_MINUTES)),
            ),
            max_size=5,
        )
    )
    def test_timetable(self, rows):
        events = []
        for cid, (room, day, minutes) in rows.items():
            start = day.replace(hour=day.hour % 20, second=0, microsecond=0)  # ends the same day
            events.append(ClassEvent(cid, room, start, start + timedelta(minutes=minutes)))
        read, report = _round_trip(write_timetable_csv, load_timetable, events)
        assert (read, report.rejects, report.warnings) == (events, [], [])

    @settings(max_examples=100, deadline=None)
    @given(rosters=st.dictionaries(NAMES, st.frozensets(NAMES, min_size=1, max_size=4), max_size=4))
    def test_roster(self, rosters):
        read, report = _round_trip(write_roster_csv, load_rosters, rosters)
        assert (read, report.rejects, report.warnings) == (rosters, [], [])

    @settings(max_examples=100, deadline=None)
    @given(
        locations=st.dictionaries(
            NAMES,
            st.builds(ApLocation, st.none() | ROOMS, NAMES, st.integers(-5, 50)),
            max_size=5,
        )
    )
    def test_inventory(self, locations):
        read, report = _round_trip(write_inventory_csv, load_inventory, ApInventory(locations))
        assert {ap: read.location(ap) for ap in read} == locations
        assert report.rejects == report.warnings == []

    @settings(max_examples=100, deadline=None)
    @given(
        classes=st.dictionaries(
            NAMES,
            st.tuples(st.frozensets(NAMES, max_size=4), st.frozensets(NAMES, max_size=4)),
            max_size=4,
        )
    )
    def test_ground_truth(self, classes):
        rosters = {cid: roster for cid, (roster, _) in classes.items()}
        truth = GroundTruth({cid: present for cid, (_, present) in classes.items()}, {})
        campus = Campus([], ApInventory({}), [], rosters, [], [])
        with tempfile.TemporaryDirectory() as scratch:
            users, counts = os.path.join(scratch, "users.csv"), os.path.join(scratch, "counts.csv")
            write_ground_truth(users, counts, campus, truth)
            assert load_ground_truth_counts(counts) == {
                cid: len(present) for cid, (_, present) in classes.items()
            }
            assert [fields for _, fields in read_rows(users, ",", GROUND_TRUTH_USER_COLUMNS)] == [
                [cid, user, str(int(user in present))]
                for cid, (roster, present) in sorted(classes.items())
                for user in sorted(roster | present)
            ]
