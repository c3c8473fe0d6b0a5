"""The exit-code contract under hostile input.

Whatever one line of one input file, report, `run --config` file or
`simulate --config` file holds, `roomsense` returns 0 (success), 1 (usage or
config), 2 (data) or 3 (numerical); a failure prints one `error:` line, and
no exception escapes `main`.
"""
import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roomsense.cli import main
from roomsense.config import echo_config
from roomsense.simulate import SimConfig, simulate_corpus

# Two rooms, four classes: a whole `run` takes a few tens of milliseconds.
TINY = SimConfig(
    seed=5, weeks=1, days_per_week=2, room_capacities=(42, 60),
    classes_per_room_per_week=2, walkway_ap_count=2,
)
CORPUS = {
    "sessions": "sessions.csv",
    "timetable": "timetable.csv",
    "rosters": "roster.csv",
    "inventory": "inventory.csv",
    "ground_truth_counts": "ground_truth_counts.csv",
}
SETTINGS = (
    "resolution = 10\nalgorithm = kmeans\nresample_len = 8\nseed = 5\ntrain_ratio = 0.7\n"
    "adjacency = true\nuse_room_aps = false\ndelimiter = ,\n"
)

# Field values that sit at the edge of some parser: special floats, signs,
# overlong integers, csv quoting, NUL and the other delimiter.
FIELD = st.one_of(
    st.text(max_size=12),
    st.sampled_from(
        ["", " ", "-", "nan", "inf", "-inf", "-1", "0", "1e400", "99999999999999999999",
         '"', '"a""', "\x00", ";", "Ass", "Disass", "corridor", "31/02/2025 09:00", "24:00"]
    ),
    st.integers(-3, 300).map(str),
)


def _flags(files) -> list[str]:
    return [arg for key in CORPUS for arg in ("--" + key.replace("_", "-"), str(files[key]))]


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> dict[str, Path]:
    """{input name: path} for a tiny valid corpus, its reports and a `run` config file."""
    root = tmp_path_factory.mktemp("tiny")
    simulate_corpus(TINY, root)
    files = {key: root / name for key, name in CORPUS.items()}
    reports = root / "reports"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", *_flags(files), "--seed", "5", "--output-dir", str(reports)]) == 0
    config = root / "run.cfg"
    config.write_text("".join(f"{key} = {files[key]}\n" for key in CORPUS) + SETTINGS)
    files.update(
        mapping=reports / "mapping.csv",
        model=reports / "model.txt",
        estimates=reports / "estimates.csv",
        config=config,
    )
    return files


def _argv(target: str, files, out: str) -> list[str]:
    """The subcommand that reads `target`, on `files`."""
    if target in CORPUS:
        return ["run", *_flags(files), "--seed", "5", "--output-dir", out]
    if target == "mapping":
        return ["train", *_flags(files), "--mapping", str(files["mapping"]), "--seed", "5", "--out", out]
    if target == "model":
        return ["estimate", *_flags(files), "--mapping", str(files["mapping"]),
                "--model", str(files["model"]), "--out", out]
    if target == "estimates":
        return ["evaluate", "--estimates", str(files["estimates"]), "--seed", "5", "--out", out]
    return ["run", "--config", str(files["config"]), "--output-dir", out]


@st.composite
def edited_lines(draw, lines: list[bytes], separator: bytes) -> list[bytes]:
    """`lines` with one line replaced by text or bytes, one of its fields replaced, or removed."""
    lines = list(lines)
    at = draw(st.integers(0, len(lines) - 1))
    how = draw(st.sampled_from(["line", "field", "drop"]))
    if how == "line":
        lines[at] = draw(st.binary(max_size=40) | st.text(max_size=40).map(str.encode))
    elif how == "field":
        fields = lines[at].split(separator)
        fields[draw(st.integers(0, len(fields) - 1))] = draw(FIELD).encode()
        lines[at] = separator.join(fields)
    else:
        del lines[at]
    return lines


@settings(max_examples=250, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_bad_line_keeps_the_exit_code_contract(tiny, data):
    target = data.draw(st.sampled_from(sorted(tiny)), label="target")
    separator = b" " if target in ("model", "config") else b","
    lines = data.draw(edited_lines(tiny[target].read_bytes().splitlines(), separator), label="lines")
    with tempfile.TemporaryDirectory() as scratch:
        files = dict(tiny)
        files[target] = Path(scratch) / tiny[target].name
        files[target].write_bytes(b"\n".join(lines) + b"\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(_argv(target, files, str(Path(scratch) / "out")))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


# Simulator settings that scale the corpus (classes, enrolment and dwell) and
# that `SimConfig.validate` does not bound draw from these small values only,
# so that no example builds a large corpus.
SIZE_KEYS = frozenset({"classes_per_room_per_week", "enrollment_ratio", "bystander_dwell_mean"})
SMALL = st.sampled_from(
    ["", "x", "-1", "0", "1", "2", "3", "0.5", "nan", "inf", "-inf", "1e400", "1,2", "2,1", "0,3",
     "1,2,3", "-10,-6", "5,1", "1:1", "1:0.5,2:0.5", "0:1", "-1:1", "60:1", "1:nan"]
)
# `SimConfig.validate` bounds the length, rooms, APs, devices, presence
# times, traffic rates and churn probability; these values sit at and beyond
# those bounds.
BOUNDED = st.sampled_from(
    ["7", "8", "52", "53", "64", "65", "100", "101", "240", "241", "1000", "1001", "1000000",
     "1000000000", "-1000000000", "1e9", "-1e9", "99999999999999999999", "1.0", "1.01", "-0.01",
     "42,1001", "64,1", "8:1", "9:1", "1000000:1", "1:0.5,1000000:0.5"]
)


def _simulate(lines: list[str], scratch: str) -> tuple[int, str]:
    """(exit code, stderr) of `simulate --config` on a file of `lines`."""
    config = Path(scratch) / "sim.cfg"
    config.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(config), "--out", str(Path(scratch) / "out")])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def sim_config(tmp_path_factory) -> list[str]:
    """The `key = value` lines of the tiny simulator config; it simulates."""
    root = tmp_path_factory.mktemp("sim")
    echo_config(root / "echo.cfg", TINY)
    lines = [line for line in (root / "echo.cfg").read_text().splitlines() if not line.endswith("= None")]
    assert _simulate(lines, str(root)) == (0, "")
    return lines


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_bad_simulator_setting_keeps_the_exit_code_contract(sim_config, data):
    at = data.draw(st.integers(0, len(sim_config) - 1), label="line")
    key = sim_config[at].split(" = ")[0]
    value = data.draw(SMALL if key in SIZE_KEYS else FIELD | SMALL | BOUNDED, label=key)
    lines = list(sim_config)
    lines[at] = f"{key} = {value}"
    with tempfile.TemporaryDirectory() as scratch:
        code, err = _simulate(lines, scratch)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")
