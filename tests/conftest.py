"""Shared fixtures: tiny hand-built stores plus one seeded synthetic corpus.

The seed-42 default corpus is expensive enough to build that every test
needing it shares a single session-scoped copy.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from roomsense.config import PipelineConfig
from roomsense.pipeline import LoadedCorpus, load_corpus, run_pipeline
from roomsense.records import parse_stamp, to_minutes
from roomsense.simulate import SimConfig, simulate_corpus
from roomsense.store import RSSI_MISSING, SessionStore, SessionTable

from session_oracle import STATUS_DISASSOCIATED, SessionRecord

DAY = "03/03/2025"


def make_session(
    user: str,
    ap: str,
    start: str,
    end: str,
    mac: str = "aa:aa:aa:aa:aa:01",
    rssi: int | None = -60,
    day: str = DAY,
) -> SessionRecord:
    """Closed session on one day, times as 'HH:MM'."""
    assoc = parse_stamp(f"{day} {start}")
    disassoc = parse_stamp(f"{day} {end}")
    minutes = int((disassoc - assoc).total_seconds() // 60)
    return SessionRecord(
        user_id=user,
        device_mac=mac,
        assoc_time=assoc,
        disassoc_time=disassoc,
        duration=minutes,
        ap_name=ap,
        bytes_tx=1000,
        bytes_rcvd=2000,
        snr=30,
        rssi=rssi,
        status=STATUS_DISASSOCIATED,
    )


def _codes(names: list[str]) -> tuple[list[str], np.ndarray]:
    ordered = sorted(set(names))
    index = {name: i for i, name in enumerate(ordered)}
    return ordered, np.array([index[name] for name in names], dtype=np.int64)


def record_store(records) -> SessionStore:
    """A store over hand-built records, as if `load_sessions` had read them from a log."""
    records = list(records)
    user_names, user = _codes([r.user_id for r in records])
    mac_names, mac = _codes([r.device_mac for r in records])
    ap_names, ap = _codes([r.ap_name for r in records])
    start = np.array([to_minutes(r.assoc_time) for r in records], dtype=np.int64)
    duration = np.array([r.duration for r in records], dtype=np.int64)
    rssi = [RSSI_MISSING if r.rssi is None else r.rssi for r in records]
    table = SessionTable(
        user_names=user_names,
        mac_names=mac_names,
        ap_names=ap_names,
        user=user,
        mac=mac,
        ap=ap,
        start=start,
        end=start + duration,
        rssi=np.array(rssi, dtype=np.int64),
    )
    return SessionStore(table)


@st.composite
def small_logs(draw):
    """Hand-built sessions on one day: few users, APs and devices, so intervals
    overlap and touch. Some start before 9am or end after 9pm, some are ongoing
    (their effective end is the 9pm report time), and some lack an RSSI."""
    records = []
    for _ in range(draw(st.integers(0, 25))):
        start = draw(st.integers(7 * 60, 22 * 60))
        if draw(st.integers(0, 5)) == 0 and start <= 21 * 60:
            end = 21 * 60
        else:
            end = min(start + draw(st.integers(0, 180)), 24 * 60 - 1)
        records.append(
            make_session(
                draw(st.sampled_from(["u1", "u2", "u3"])),
                draw(st.sampled_from(["ap1", "ap2", "ap10"])),
                f"{start // 60:02d}:{start % 60:02d}",
                f"{end // 60:02d}:{end % 60:02d}",
                mac=draw(st.sampled_from(["m1", "m2", "m3"])),
                rssi=draw(st.sampled_from([-60, -45, -71, None])),
            )
        )
    return records


@pytest.fixture()
def store_builder():
    def build(*records: SessionRecord) -> SessionStore:
        return record_store(records)

    return build


@pytest.fixture(scope="session")
def sim42(tmp_path_factory):
    """Default-config seed-42 corpus, generated once: (dir, campus, ground truth)."""
    out = tmp_path_factory.mktemp("corpus42")
    campus, truth = simulate_corpus(SimConfig(seed=42), out)
    return str(out), campus, truth


@pytest.fixture(scope="session")
def corpus42_dir(sim42) -> str:
    return sim42[0]


@pytest.fixture(scope="session")
def corpus42(corpus42_dir) -> LoadedCorpus:
    return load_corpus(pipeline_config(corpus42_dir))


def pipeline_config(corpus_dir: str, out_dir: str | None = None, **overrides) -> PipelineConfig:
    config = PipelineConfig(
        sessions=f"{corpus_dir}/sessions.csv",
        timetable=f"{corpus_dir}/timetable.csv",
        rosters=f"{corpus_dir}/roster.csv",
        inventory=f"{corpus_dir}/inventory.csv",
        ground_truth_counts=f"{corpus_dir}/ground_truth_counts.csv",
        output_dir=out_dir or f"{corpus_dir}/out",
        seed=42,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


@pytest.fixture(scope="session")
def pipeline42(corpus42_dir, tmp_path_factory) -> dict[str, str]:
    """Full pipeline report bundle for the seed-42 corpus."""
    out = tmp_path_factory.mktemp("pipeline42")
    return run_pipeline(pipeline_config(corpus42_dir, str(out)))


@pytest.fixture(scope="session")
def small_corpus_dir(tmp_path_factory) -> str:
    """A fast 3-room corpus for pipeline and CLI tests."""
    out = tmp_path_factory.mktemp("small_corpus")
    config = SimConfig(
        seed=7, weeks=3, room_capacities=(42, 110, 246), classes_per_room_per_week=2
    )
    simulate_corpus(config, out)
    return str(out)
