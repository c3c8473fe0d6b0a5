"""The snapshot of a parsed session log, kept beside the log.

A snapshot is untrusted bytes. Whatever it holds, `load_sessions` gives
exactly the table and `LoadReport` that parsing the log gives, and the CLI
keeps its exit code and output. Writing a snapshot may fail; that changes
nothing either.
"""
import contextlib
import csv
import hashlib
import io
import os
import shutil
import tempfile
import threading
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roomsense import store
from roomsense.cli import main
from roomsense.simulate import simulate_corpus
from roomsense.store import SNAPSHOT_SUFFIX, load_sessions

from conftest import TINY, without_snapshot

NAME_LISTS = ("user_names", "mac_names", "ap_names")
COLUMNS = ("user", "mac", "ap", "start", "end", "rssi")
INDEX_ARRAYS = tuple(f"{name}_{part}" for name in ("sessions", "merged") for part in ("row", "key", "longest", "bounds")) + (
    "merged_start", "merged_end", "merged_user")


def assert_same_load(got, expected):
    """Two `load_sessions` results hold the same names, the same columns to the dtype, and equal reports."""
    (table, report), (want, want_report) = got, expected
    for names in NAME_LISTS:
        assert getattr(table, names) == getattr(want, names), names
    for column in COLUMNS:
        a, b = getattr(table, column), getattr(want, column)
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), column
    assert report == want_report


class Logs(NamedTuple):
    """Two canonical logs as (bytes, parse), and the snapshot that parsing `this` leaves."""

    this: tuple
    other: tuple
    snapshot: bytes


@pytest.fixture(scope="module")
def logs(small_corpus_dir) -> Logs:
    lines = Path(small_corpus_dir, "sessions.csv").read_bytes().splitlines(keepends=True)
    this, other = b"".join(lines[:300]), b"".join(lines[:1] + lines[150:400])
    (this_parse, snapshot), (other_parse, _) = _parse(this), _parse(other)
    assert len(this_parse[0]) == 299 and len(other_parse[0]) == 250
    return Logs((this, this_parse), (other, other_parse), snapshot)


def _parse(data: bytes):
    """(`load_sessions` result, snapshot bytes) of a log holding `data`, parsed in a new directory."""
    with log_dir(data) as path:
        return load_sessions(path), Path(path + SNAPSHOT_SUFFIX).read_bytes()


@contextlib.contextmanager
def log_dir(data: bytes):
    """The path of a session log holding `data`, alone in a new directory."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "sessions.csv")
        Path(path).write_bytes(data)
        yield path


def refuse_to_parse(monkeypatch):
    def refuse(*args):
        raise AssertionError("the log was parsed")

    monkeypatch.setattr(store._CanonicalBlocks, "parse", refuse)
    monkeypatch.setattr(store, "_load_rows", refuse)


def store_snapshot(path, data: bytes, table, delimiter=","):
    """Store `table` beside `path` under the key of the log bytes `data`."""
    snapshot = store._Snapshot(path, delimiter)
    digest = snapshot.digest()
    digest.update(data)
    snapshot.write(digest, table)


class TestSnapshotHit:
    def test_a_second_load_reads_the_snapshot(self, logs, monkeypatch):
        data, parsed = logs.this
        with log_dir(data) as path:
            assert_same_load(load_sessions(path), parsed)
            assert sorted(os.listdir(os.path.dirname(path))) == ["sessions.csv", "sessions.csv" + SNAPSHOT_SUFFIX]
            refuse_to_parse(monkeypatch)
            assert_same_load(load_sessions(path), parsed)

    def test_the_file_holds_the_key_columns_and_names(self, logs):
        (data, (table, _)), snapshot = logs.this, logs.snapshot
        with log_dir(data) as path:
            Path(path + SNAPSHOT_SUFFIX).write_bytes(snapshot)
            with np.load(path + SNAPSHOT_SUFFIX, allow_pickle=False) as stored:
                assert sorted(stored.files) == sorted(("key", *COLUMNS, *NAME_LISTS, *INDEX_ARRAYS))
                digest = store._Snapshot(path, ",").digest()
                digest.update(data)  # the log's exact bytes
                assert stored["key"].tobytes() == digest.hexdigest().encode()
                for column in COLUMNS:
                    assert np.array_equal(stored[column], getattr(table, column))
                for names in NAME_LISTS:
                    assert stored[names].dtype.kind == "S"
                    assert stored[names].astype(str).tolist() == getattr(table, names)

    def test_the_stored_indexes_equal_fresh_ones(self, logs, monkeypatch):
        data, parsed = logs.this
        with log_dir(data) as path:
            load_sessions(path)
            refuse_to_parse(monkeypatch)
            table, _ = load_sessions(path)
            with np.load(path + SNAPSHOT_SUFFIX, allow_pickle=False) as stored:
                arrays = {name: stored[name] for name in INDEX_ARRAYS}
        sessions, merged = table.indexes["sessions"], table.indexes["merged"]
        fresh_sessions, fresh_merged = store._raw_index(table), store._merge_intervals(table)
        assert store.INDEXES == ("sessions", "merged")
        for name, got, want in (("sessions", sessions, fresh_sessions), ("merged", merged[0], fresh_merged[0])):
            for part in ("row", "key", "longest"):
                assert np.array_equal(getattr(got, part), getattr(want, part)), (name, part)
                assert np.array_equal(arrays[f"{name}_{part}"], getattr(want, part)), (name, part)
            assert (got.low, got.span) == (want.low, want.span)
            assert arrays[f"{name}_bounds"].tolist() == [want.low, want.span]
        for column, got, want in zip(("start", "end", "user"), merged[1:], fresh_merged[1:]):
            assert np.array_equal(got, want) and np.array_equal(arrays[f"merged_{column}"], want), column

    @pytest.mark.parametrize("indexes", [(), ("sessions",), ("merged",), ("sessions", "merged")])
    def test_a_load_reads_only_the_indexes_asked_for(self, logs, monkeypatch, indexes):
        data, parsed = logs.this
        with log_dir(data) as path:
            load_sessions(path)
            refuse_to_parse(monkeypatch)
            read, stored_index = [], store._stored_index

            def record(stored, name, table):
                read.append(name)
                return stored_index(stored, name, table)

            monkeypatch.setattr(store, "_stored_index", record)
            table, _ = load_sessions(path, indexes=indexes)
            assert read == list(indexes) and list(table.indexes) == list(indexes)

    def test_the_log_is_hashed_on_a_worker_that_ends_with_the_load(self, logs, monkeypatch):
        data, parsed = logs.this
        hashed_on = []
        run = store._Digesting.run

        def record(self):
            hashed_on.append(threading.current_thread())
            run(self)

        monkeypatch.setattr(store._Digesting, "run", record)
        with log_dir(data) as path:
            load_sessions(path)
            running = set(threading.enumerate())
            refuse_to_parse(monkeypatch)
            assert_same_load(load_sessions(path), parsed)
            assert set(threading.enumerate()) == running
        assert len(hashed_on) == 1 and hashed_on[0] is not threading.current_thread()

    def test_a_log_that_fails_while_hashed_is_parsed(self, logs, monkeypatch):
        data, parsed = logs.this
        with log_dir(data) as path:
            load_sessions(path)

            def fail(self):
                self.error = OSError("read failed")

            monkeypatch.setattr(store._Digesting, "run", fail)
            assert_same_load(load_sessions(path), parsed)

    def test_the_key_alone_decides_a_hit(self, logs, monkeypatch):
        """The control for the misses below: another table stored under this log's key is read back."""
        (data, _), (_, other) = logs.this, logs.other
        with log_dir(data) as path:
            store_snapshot(path, data, other[0])
            refuse_to_parse(monkeypatch)
            assert_same_load(load_sessions(path), other)


# A log that the numpy parse takes: an ongoing session, which ends at the
# report hour, a missing RSSI and SNR, a zero-length session, and names out
# of order.
GOLDEN_LOG = (
    "User ID,MAC address,Association time,Disassociation time,Session duration,AP name,"
    "Bytes Tx,Bytes Rcvd,SNR,RSSI,Status\n"
    "u00025,02:00:00:00:19:00,03/03/2025 09:00,03/03/2025 10:31,91 min,wk03,157885,511875,28,-68,Disass\n"
    "u00010,02:00:00:00:0a:00,03/03/2025 09:00,03/03/2025 10:14,74 min,room6-ap10,342250,634846,,-,Disass\n"
    "u00010,02:00:00:00:0a:01,03/04/2025 20:49,-,11 min,wk03,53152,78958,-,-70,Ass\n"
    "u00003,02:00:00:00:03:00,03/04/2025 13:05,03/04/2025 13:05,0 min,room6-ap10,1,2,37,-75,Disass\n"
)
# (`store._SNAPSHOT_VERSION`, `table_digest` of the table GOLDEN_LOG parses to).
# A parse that changes this table must raise `store._SNAPSHOT_VERSION`, then
# pin both anew: the key covers the log's bytes, not the code that parses
# them, so snapshots written by the old parse would be read as the new one's.
GOLDEN = (2, "1fb4b5a587d39f11e37a3d80697f4820ab90d075c9d16cb83cb13e8f3a9c4bf1")


def table_digest(table) -> str:
    digest = hashlib.sha256()
    for names in NAME_LISTS:
        digest.update("\n".join(getattr(table, names)).encode() + b"\0")
    for column in COLUMNS:
        digest.update(getattr(table, column).astype("<i8").tobytes())
    return digest.hexdigest()


def test_the_parse_of_a_fixed_log_is_pinned_with_the_snapshot_version(tmp_path):
    path = tmp_path / "sessions.csv"
    path.write_text(GOLDEN_LOG)
    table = store._load_canonical(path, ",")
    assert table is not None
    assert (store._SNAPSHOT_VERSION, table_digest(table)) == GOLDEN


def _flip(snapshot: bytes, at: int, mask: int) -> bytes:
    damaged = bytearray(snapshot)
    damaged[at % len(damaged)] ^= mask
    return bytes(damaged)


@st.composite
def damaged_snapshots(draw, snapshot: bytes) -> bytes:
    kind = draw(st.sampled_from(["bytes", "truncated", "flipped"]))
    if kind == "bytes":
        return draw(st.binary(max_size=2000) | st.binary(max_size=200).map(lambda b: snapshot[:30] + b))
    if kind == "truncated":
        return snapshot[: draw(st.integers(0, len(snapshot) - 1))]
    return _flip(snapshot, draw(st.integers(0, len(snapshot) - 1)), draw(st.integers(1, 255)))


class TestUntrustedSnapshot:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_bytes_give_the_parse(self, logs, data):
        (log, parsed), snapshot = logs.this, logs.snapshot
        damaged = data.draw(damaged_snapshots(snapshot), label="snapshot")
        with log_dir(log) as path:
            Path(path + SNAPSHOT_SUFFIX).write_bytes(damaged)
            assert_same_load(load_sessions(path), parsed)

    @pytest.mark.parametrize("case", ["other log", "other delimiter", "other version", "other field limit",
                                      "other report hour", "other missing RSSI"])
    def test_a_snapshot_of_other_input_is_a_miss(self, logs, monkeypatch, case):
        (log, parsed), (other_log, other) = logs.this, logs.other
        with log_dir(log) as path:
            if case == "other log":
                store_snapshot(path, other_log, other[0])
            elif case == "other delimiter":
                store_snapshot(path, log, other[0], delimiter=";")
            elif case in ("other version", "other report hour", "other missing RSSI"):
                constant = {"other version": "_SNAPSHOT_VERSION", "other report hour": "REPORT_HOUR",
                            "other missing RSSI": "RSSI_MISSING"}[case]
                with monkeypatch.context() as patch:
                    patch.setattr(store, constant, getattr(store, constant) + 1)
                    store_snapshot(path, log, other[0])
            else:
                limit = csv.field_size_limit(csv.field_size_limit() // 2)
                try:
                    store_snapshot(path, log, other[0])
                finally:
                    csv.field_size_limit(limit)
            assert_same_load(load_sessions(path), parsed)
            refuse_to_parse(monkeypatch)  # the parse replaced the stale snapshot
            assert_same_load(load_sessions(path), parsed)

    # Arrays under this log's key that do not form its table.
    BAD_ARRAYS = {
        "int32 column": lambda a: a.update(start=a["start"].astype(np.int32)),
        "big-endian column": lambda a: a.update(end=a["end"].astype(">i8")),
        "short column": lambda a: a.update(rssi=a["rssi"][:-1]),
        "2-D columns": lambda a: a.update({c: a[c].reshape(-1, 1) for c in COLUMNS}),
        "code past its names": lambda a: a["ap"].__setitem__(0, len(a["ap_names"])),
        "negative code": lambda a: a["user"].__setitem__(0, -1),
        "str names": lambda a: a.update(mac_names=a["mac_names"].astype(str)),
        "pickled names": lambda a: a.update(user_names=np.array(list(a["user_names"]), dtype=object)),
        "unsorted names": lambda a: a.update(ap_names=a["ap_names"][::-1]),
        "repeated name": lambda a: a["mac_names"].__setitem__(1, a["mac_names"][0]),
        "end before start": lambda a: a["end"].__setitem__(0, a["start"][0] - 1),
        "missing column": lambda a: a.pop("end"),
        "missing key": lambda a: a.pop("key"),
        # the stored indexes
        "short index rows": lambda a: a.update(merged_row=a["merged_row"][:-1]),
        "int32 index keys": lambda a: a.update(sessions_key=a["sessions_key"].astype(np.int32)),
        "rows not a permutation": lambda a: a["sessions_row"].__setitem__(0, a["sessions_row"][1]),
        "row past the intervals": lambda a: a["merged_row"].__setitem__(0, len(a["merged_row"])),
        "unsorted keys": lambda a: a.update(merged_key=a["merged_key"][::-1]),
        "key past the last AP": lambda a: a["sessions_key"].__setitem__(
            -1, len(a["ap_names"]) * a["sessions_bounds"][1]),
        "negative longest": lambda a: a["sessions_longest"].__setitem__(0, -1),
        "short longest": lambda a: a.update(merged_longest=a["merged_longest"][:-1]),
        "zero span": lambda a: a["merged_bounds"].__setitem__(1, 0),
        "merged end before start": lambda a: a["merged_end"].__setitem__(0, a["merged_start"][0] - 1),
        "merged user past its names": lambda a: a["merged_user"].__setitem__(0, len(a["user_names"])),
        "short merged column": lambda a: a.update(merged_end=a["merged_end"][:-1]),
        "missing index part": lambda a: a.pop("merged_longest"),
        "extra member": lambda a: a.update(extra=np.zeros(1)),
    }

    @pytest.mark.parametrize("case", BAD_ARRAYS)
    def test_arrays_that_are_not_the_table_are_a_miss(self, logs, monkeypatch, case):
        (log, parsed), snapshot = logs.this, logs.snapshot
        with log_dir(log) as path:
            Path(path + SNAPSHOT_SUFFIX).write_bytes(snapshot)
            with np.load(path + SNAPSHOT_SUFFIX, allow_pickle=False) as stored:
                arrays = {name: stored[name] for name in stored.files}
            self.BAD_ARRAYS[case](arrays)
            np.savez(path + SNAPSHOT_SUFFIX, **arrays)
            os.chmod(path + SNAPSHOT_SUFFIX, 0o600)  # trusted, so only the arrays make it a miss
            with monkeypatch.context() as patch:
                parses, parse = [], store._CanonicalBlocks.parse
                patch.setattr(store._CanonicalBlocks, "parse", lambda *args: parses.append(1) or parse(*args))
                assert_same_load(load_sessions(path), parsed)
                assert parses  # a miss, though the table alone may be intact
            refuse_to_parse(monkeypatch)  # the parse replaced the bad snapshot
            assert_same_load(load_sessions(path), parsed)

    def test_a_directory_at_the_snapshot_path(self, logs):
        log, parsed = logs.this
        with log_dir(log) as path:
            os.mkdir(path + SNAPSHOT_SUFFIX)
            for _ in range(2):
                assert_same_load(load_sessions(path), parsed)
            assert os.listdir(path + SNAPSHOT_SUFFIX) == []
            assert sorted(os.listdir(os.path.dirname(path))) == ["sessions.csv", "sessions.csv" + SNAPSHOT_SUFFIX]

    def test_a_fifo_at_the_snapshot_path_is_not_waited_on(self, logs):
        log, parsed = logs.this
        with log_dir(log) as path:
            os.mkfifo(path + SNAPSHOT_SUFFIX)
            assert_same_load(load_sessions(path), parsed)

    @pytest.mark.parametrize("failing", ["replace", "mkstemp"])
    def test_a_snapshot_that_cannot_be_written(self, logs, monkeypatch, failing):
        """A read-only directory or a full disk, as the `OSError` it raises."""
        log, parsed = logs.this

        def fail(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store.os if failing == "replace" else store.tempfile, failing, fail)
        with log_dir(log) as path:
            for _ in range(2):
                assert_same_load(load_sessions(path), parsed)
            assert os.listdir(os.path.dirname(path)) == ["sessions.csv"]

    def test_a_log_rewritten_after_the_lookup_is_stored_under_its_new_bytes(self, logs, monkeypatch):
        (log, parsed), (other_log, other) = logs.this, logs.other
        lookup = store._Snapshot.read

        def rewrite_after_lookup(snapshot, raw, log_owner):
            found = lookup(snapshot, raw, log_owner)
            with open(snapshot.path.removesuffix(SNAPSHOT_SUFFIX), "r+b") as handle:
                handle.write(other_log)
                handle.truncate()
            return found

        with log_dir(log) as path:
            with monkeypatch.context() as patch:
                patch.setattr(store._Snapshot, "read", rewrite_after_lookup)
                assert_same_load(load_sessions(path), other)  # what the parse read
            with monkeypatch.context() as patch:
                refuse_to_parse(patch)  # stored under the bytes parsed
                assert_same_load(load_sessions(path), other)
            Path(path).write_bytes(log)
            assert_same_load(load_sessions(path), parsed)

    @pytest.mark.parametrize("mode", [0o620, 0o602, 0o666])
    def test_a_snapshot_others_can_write_is_a_miss(self, logs, monkeypatch, mode):
        (log, parsed), (_, other) = logs.this, logs.other
        with log_dir(log) as path:
            store_snapshot(path, log, other[0])
            os.chmod(path + SNAPSHOT_SUFFIX, mode)
            assert_same_load(load_sessions(path), parsed)
            refuse_to_parse(monkeypatch)  # the parse replaced it with its own
            assert_same_load(load_sessions(path), parsed)

    @pytest.mark.parametrize("owner", ["stranger", "log's owner"])
    def test_only_a_snapshot_of_this_user_or_the_logs_owner_is_read(self, logs, monkeypatch, owner):
        (log, parsed), (_, other) = logs.this, logs.other
        stranger = os.geteuid() + 4242
        with log_dir(log) as path:
            store_snapshot(path, log, other[0])
            try:
                os.chown(path + SNAPSHOT_SUFFIX, stranger, -1)
                if owner == "log's owner":
                    os.chown(path, stranger, -1)
            except PermissionError:
                pytest.skip("giving a file to another user needs root")
            if owner == "stranger":
                assert_same_load(load_sessions(path), parsed)
            else:
                refuse_to_parse(monkeypatch)
                assert_same_load(load_sessions(path), other)

    @pytest.mark.parametrize("via", ["link", "/dev/fd"])
    def test_the_snapshot_lies_beside_the_file_the_path_leads_to(self, logs, monkeypatch, tmp_path, via):
        log, parsed = logs.this
        with log_dir(log) as path, open(path, "rb") as handle:
            if via == "link":
                name = tmp_path / "sessions.csv"
                name.symlink_to(path)
            else:
                name = f"/dev/fd/{handle.fileno()}"
            assert_same_load(load_sessions(name), parsed)
            assert not os.path.lexists(os.fspath(name) + SNAPSHOT_SUFFIX)
            assert sorted(os.listdir(os.path.dirname(path))) == ["sessions.csv", "sessions.csv" + SNAPSHOT_SUFFIX]
            refuse_to_parse(monkeypatch)
            assert_same_load(load_sessions(path), parsed)

    def test_a_deleted_log_is_never_snapshotted(self, logs, monkeypatch):
        log, parsed = logs.this

        def refuse(*args):
            raise AssertionError("a deleted log was hashed or snapshotted")

        monkeypatch.setattr(store._Snapshot, "read", refuse)
        monkeypatch.setattr(store._Snapshot, "write", refuse)
        with log_dir(log) as path, open(path, "rb") as handle:
            os.remove(path)
            assert_same_load(load_sessions(f"/dev/fd/{handle.fileno()}"), parsed)
            assert os.listdir(os.path.dirname(path)) == []

    def test_a_pipe_is_read_once_and_never_snapshotted(self, logs, monkeypatch, tmp_path):
        log, parsed = logs.this

        def refuse(*args):
            raise AssertionError("a pipe was hashed or snapshotted")

        monkeypatch.setattr(store._Snapshot, "read", refuse)
        monkeypatch.setattr(store._Snapshot, "write", refuse)
        read_end, write_end = os.pipe()
        writer = threading.Thread(target=lambda: (os.write(write_end, log), os.close(write_end)))
        writer.start()
        try:
            path = tmp_path / "sessions.csv"
            path.symlink_to(f"/dev/fd/{read_end}")
            # The row loop reads the pipe to its end: a second read would find it empty.
            assert_same_load(load_sessions(path), parsed)
            assert os.read(read_end, 1) == b""
        finally:
            writer.join()
            os.close(read_end)
        assert os.listdir(tmp_path) == ["sessions.csv"]


CORPUS_FLAGS = (("--sessions", "sessions.csv"), ("--timetable", "timetable.csv"), ("--rosters", "roster.csv"),
                ("--inventory", "inventory.csv"), ("--ground-truth-counts", "ground_truth_counts.csv"))


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory) -> Path:
    root = tmp_path_factory.mktemp("tiny_snapshot")
    simulate_corpus(TINY, root)
    return root


def _run(corpus: Path, out: Path):
    """(exit code, stdout, stderr, {report: bytes}) of `run` on the corpus."""
    shutil.rmtree(out, ignore_errors=True)
    flags = [arg for flag, name in CORPUS_FLAGS for arg in (flag, str(corpus / name))]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["run", *flags, "--seed", "5", "--output-dir", str(out)])
    reports = {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), reports


class TestCliWithASnapshot:
    DAMAGE = {
        "valid": lambda path: None,
        "garbage": lambda path: path.write_bytes(b"PK\x03\x04" + bytes(100)),
        "truncated": lambda path: path.write_bytes(path.read_bytes()[:-100]),
        "flipped": lambda path: path.write_bytes(_flip(path.read_bytes(), len(path.read_bytes()) // 2, 0x40)),
        "empty": lambda path: path.write_bytes(b""),
        "directory": lambda path: (path.unlink(), path.mkdir()),
    }

    @pytest.mark.parametrize("damage", DAMAGE)
    def test_exit_code_and_output_are_the_parse_run(self, tiny_corpus, tmp_path, damage):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus)
        without_snapshot(corpus / "sessions.csv")
        cold = _run(corpus, tmp_path / "out")
        assert cold[0] == 0 and len(cold[3]) == 7
        self.DAMAGE[damage](corpus / ("sessions.csv" + SNAPSHOT_SUFFIX))
        assert _run(corpus, tmp_path / "out") == cold

    def test_a_snapshot_that_cannot_be_written(self, tiny_corpus, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus)
        without_snapshot(corpus / "sessions.csv")
        cold = _run(corpus, tmp_path / "out")
        without_snapshot(corpus / "sessions.csv")

        def fail(*args):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(store.os, "replace", fail)
        assert _run(corpus, tmp_path / "out") == cold
        assert not (corpus / ("sessions.csv" + SNAPSHOT_SUFFIX)).exists()

    # One snapshot per check of the stored indexes, each under the log's key.
    CORRUPT_INDEXES = {
        "wrong length": lambda a: a.update(merged_row=a["merged_row"][:-1]),
        "wrong dtype": lambda a: a.update(sessions_key=a["sessions_key"].astype(np.int32)),
        "row not a permutation": lambda a: a["sessions_row"].__setitem__(0, a["sessions_row"][1]),
        "unsorted key": lambda a: a.update(merged_key=a["merged_key"][::-1]),
        "out-of-range code": lambda a: a["merged_user"].__setitem__(0, len(a["user_names"])),
        "missing member": lambda a: a.pop("sessions_longest"),
    }

    @pytest.mark.parametrize("case", [*CORRUPT_INDEXES, "version-1 snapshot"])
    def test_a_corrupt_index_is_parsed_again_and_rewritten(self, tiny_corpus, tmp_path, monkeypatch, case):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus)
        log, snapshot = corpus / "sessions.csv", corpus / ("sessions.csv" + SNAPSHOT_SUFFIX)
        without_snapshot(log)
        cold = _run(corpus, tmp_path / "out")
        assert cold[0] == 0 and cold[2] == ""
        with np.load(snapshot, allow_pickle=False) as stored:
            written = {name: stored[name] for name in stored.files}
        if case == "version-1 snapshot":
            # the layout and key that version 1 wrote: the table alone
            arrays = {name: written[name] for name in ("key", *COLUMNS, *NAME_LISTS)}
            with monkeypatch.context() as patch:
                patch.setattr(store, "_SNAPSHOT_VERSION", 1)
                digest = store._Snapshot(log, ",").digest()
            digest.update(log.read_bytes())
            arrays["key"] = np.array(digest.hexdigest().encode())
        else:
            arrays = {name: array.copy() for name, array in written.items()}
            self.CORRUPT_INDEXES[case](arrays)
        np.savez(snapshot, **arrays)
        os.chmod(snapshot, 0o600)  # trusted, so only the arrays make it a miss

        parses = []
        parse = store._CanonicalBlocks.parse
        monkeypatch.setattr(store._CanonicalBlocks, "parse", lambda *args: parses.append(1) or parse(*args))
        assert _run(corpus, tmp_path / "out") == cold
        assert parses  # the log was parsed again
        with np.load(snapshot, allow_pickle=False) as stored:  # and the snapshot rewritten
            assert sorted(stored.files) == sorted(written)
            for name in stored.files:
                assert stored[name].dtype == written[name].dtype, name
                assert np.array_equal(stored[name], written[name]), name

    def test_train_and_estimate_read_only_the_raw_index(self, tiny_corpus, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        shutil.copytree(tiny_corpus, corpus)
        log, snapshot = corpus / "sessions.csv", corpus / ("sessions.csv" + SNAPSHOT_SUFFIX)
        without_snapshot(log)
        cold = _run(corpus, tmp_path / "out")
        with np.load(snapshot, allow_pickle=False) as stored:
            arrays = {name: stored[name] for name in stored.files}
        arrays["merged_key"] = arrays["merged_key"][::-1].copy()  # a merged index no query could use
        np.savez(snapshot, **arrays)
        os.chmod(snapshot, 0o600)

        def refuse(*args):
            raise AssertionError("the merged-interval index was read or built")

        refuse_to_parse(monkeypatch)
        monkeypatch.setattr(store, "_merge_intervals", refuse)
        inputs = [arg for flag, name in CORPUS_FLAGS[:3] for arg in (flag, str(corpus / name))]
        truth = ["--ground-truth-counts", str(corpus / "ground_truth_counts.csv")]
        out = tmp_path / "staged"
        mapping = str(tmp_path / "out" / "mapping.csv")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", *inputs, "--mapping", mapping, *truth, "--seed", "5", "--out", str(out)]) == 0
            assert main(["estimate", *inputs, "--mapping", mapping, "--model", str(out / "model.txt"),
                         *truth, "--out", str(out)]) == 0
        assert (out / "model.txt").read_bytes() == cold[3]["model.txt"]
        assert (out / "estimates.csv").read_bytes() == cold[3]["estimates.csv"]
