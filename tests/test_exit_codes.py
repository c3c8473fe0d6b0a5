"""The exit-code contract under hostile input.

Whatever one line of one input file, report, `run --config` file or
`simulate --config` file holds, `roomsense` returns 0 (success), 1 (usage or
config), 2 (data) or 3 (numerical); a failure prints one `error:` line, and
no exception escapes `main`.
"""
import argparse
import contextlib
import io
import multiprocessing
import os
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from roomsense import simulate
from roomsense.cli import build_parser, main
from roomsense.config import echo_config
from roomsense.records import NumericalError
from roomsense.simulate import SIM_BOUNDS, SimConfig, simulate_corpus

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


# Simulator settings that scale the corpus (enrolment and dwell) and that
# `SimConfig.validate` bounds only through its row estimate draw from these
# small values only, so that no example builds a large corpus.
SIZE_KEYS = frozenset({"enrollment_ratio", "bystander_dwell_mean"})
SMALL = st.sampled_from(
    ["", "x", "-1", "0", "1", "2", "3", "0.5", "nan", "inf", "-inf", "1e400", "1,2", "2,1", "0,3",
     "1,2,3", "-10,-6", "5,1", "1:1", "1:0.5,2:0.5", "0:1", "-1:1", "60:1", "1:nan"]
)
# `SimConfig.validate` bounds the length, rooms, classes, APs, devices,
# presence times, traffic rates and churn probability; these values sit at
# and beyond those bounds.
BOUNDED = st.sampled_from(
    ["7", "8", "35", "36", "52", "53", "64", "65", "84", "85", "100", "101", "240", "241", "1000",
     "1001", "1000000", "1000000000", "-1000000000", "1e9", "-1e9", "99999999999999999999", "1.0",
     "1.01", "-0.01", "42,1001", "64,1", "8:1", "9:1", "1000000:1", "1:0.5,1000000:0.5",
     ",".join(["1000"] * 100), ",".join(["1"] * 101)]
)
# The keys that `SimConfig.validate` bounds, each alone or through the row estimate.
BOUNDED_KEYS = sorted({*SIM_BOUNDS, "classes_per_room_per_week"} - {"room_ap_counts"})


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
    lines = (root / "echo.cfg").read_text().splitlines()
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


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_several_simulator_settings_at_their_bounds_keep_the_exit_code_contract(sim_config, data):
    """Keys at their bounds together; the row limit is lowered so that what passes simulates fast."""
    keys = data.draw(st.sets(st.sampled_from(BOUNDED_KEYS), min_size=2, max_size=6), label="keys")
    values = {key: data.draw(BOUNDED, label=key) for key in sorted(keys)}
    lines = [line for line in sim_config if line.split(" = ")[0] not in values]
    lines += [f"{key} = {value}" for key, value in values.items()]
    with tempfile.TemporaryDirectory() as scratch, mock.patch.object(simulate, "MAX_SESSION_ROWS", 20_000):
        code, err = _simulate(lines, scratch)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ")


def _options(command: str) -> tuple[list[str], list[str]]:
    """(flags that take a value, flags that take none) of a subcommand, except its output flag."""
    subcommands = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = [a for a in subcommands.choices[command]._actions if a.option_strings]
    output = {"--out", "--output-dir", "-h"}
    valued = [a.option_strings[0] for a in actions if a.nargs is None and a.option_strings[0] not in output]
    switches = [a.option_strings[0] for a in actions if a.nargs == 0 and a.option_strings[0] not in output]
    return valued, switches


FLAG_VALUES = FIELD | st.sampled_from(
    ["10", "1", "0.5", "1.5", "kmeans", "hierarchical", ",", "\t", "1,2", "5,abc", "c1", "nosuch.csv", ".",
     "r1c1-w01", "99999999999999999999"]
)


def _command_argv(command: str, files, out: str) -> list[str]:
    """A pipeline subcommand that succeeds on `files`."""
    if command == "map-aps":
        inputs = [arg for key in ("sessions", "timetable", "rosters", "inventory")
                  for arg in ("--" + key, str(files[key]))]
        return ["map-aps", *inputs, "--seed", "5", "--out", out]
    target = {"train": "mapping", "estimate": "model", "evaluate": "estimates", "run": "sessions"}[command]
    return _argv(target, files, out)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_flag_values_keep_the_exit_code_contract(tiny, data):
    """A pipeline subcommand with some of its flags given drawn values, garbage included."""
    command = data.draw(st.sampled_from(["map-aps", "train", "estimate", "evaluate", "run"]), label="command")
    with tempfile.TemporaryDirectory() as scratch:
        argv = _command_argv(command, tiny, str(Path(scratch) / "out"))
        valued, switches = _options(command)
        for _ in range(data.draw(st.integers(1, 3), label="flags")):
            flag = data.draw(st.sampled_from([*valued, *switches, "--nosuch"]), label="flag")
            argv += [flag] if flag in switches else [flag, data.draw(FLAG_VALUES, label=flag)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert err.getvalue().startswith("error: ")


@pytest.mark.parametrize("target", ["mapping", "model", "estimates"])
def test_a_nul_in_an_input_path_is_a_data_error(tiny, tmp_path, capfd, target):
    """`open` refuses such a path with a ValueError, not an OSError."""
    files = dict(tiny)
    files[target] = "bad\x00path"
    assert main(_argv(target, files, str(tmp_path / "out"))) == 2
    assert capfd.readouterr().err == "error: cannot read bad\x00path: embedded null byte\n"


@pytest.mark.parametrize("command", ["simulate", "map-aps", "run"])
def test_an_output_path_that_is_a_file_is_one_error_line(tiny, tmp_path, capfd, command):
    taken = tmp_path / "taken"
    taken.write_text("")
    if command == "simulate":
        argv = ["simulate", "--weeks", "1", "--out", str(taken)]
    else:
        argv = _command_argv(command, tiny, str(taken))
    assert main(argv) == 1
    assert capfd.readouterr() == ("", f"error: cannot write {taken}: File exists\n")
    assert multiprocessing.active_children() == []


def _fail_after_the_first_day(failure):
    """A `write_sessions_csv` for the writer process that fails once a day has arrived."""

    def write(path, rows):
        next(iter(rows))
        if failure is None:
            os._exit(3)  # as if the process were killed
        raise failure

    return write


@pytest.mark.parametrize(
    "failure, message",
    [
        (PermissionError(13, "Permission denied"), "error: cannot write {path}: Permission denied\n"),
        (RuntimeError("boom"), "error: the session-log writer failed on {path}: RuntimeError('boom')\n"),
        (None, "error: the session-log writer stopped before writing {path}\n"),
    ],
    ids=["OSError", "another error", "no word"],
)
def test_a_failing_session_writer_is_one_error_line(sim_config, tmp_path, capfd, monkeypatch, failure, message):
    """The writer process fails; `simulate` reports it once, and no process outlives it."""
    monkeypatch.setattr(simulate, "write_sessions_csv", _fail_after_the_first_day(failure))
    config = tmp_path / "sim.cfg"
    config.write_text("\n".join(sim_config) + "\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capfd.readouterr() == ("", message.format(path=os.path.join(tmp_path / "out", "sessions.csv")))
    assert multiprocessing.active_children() == []


def test_a_failure_while_drawing_stops_the_writer(sim_config, tmp_path, capfd, monkeypatch):
    """The parent fails after handing over a day; the writer is joined and the parent's error stands."""
    drawn = simulate.simulate_sessions

    def failing(campus, config, on_day):
        def send(rows):
            on_day(rows)
            raise NumericalError("drawing failed")

        return drawn(campus, config, send)

    monkeypatch.setattr(simulate, "simulate_sessions", failing)
    config = tmp_path / "sim.cfg"
    config.write_text("\n".join(sim_config) + "\n")
    code = main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert (code, *capfd.readouterr()) == (3, "", "error: drawing failed\n")
    assert multiprocessing.active_children() == []
