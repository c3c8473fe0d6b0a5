"""End-to-end pipeline behavior and the CLI surface.

Covers stage composability through files, exit codes, and the documented
report formats.
"""
import contextlib
import csv
import filecmp
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from roomsense.cli import main
from roomsense.config import PipelineConfig, echo_config, pipeline_config_from, sim_config_from
from roomsense.mapping import ALGORITHMS
from roomsense.pipeline import (
    ESTIMATE_COLUMNS,
    MAPPING_COLUMNS,
    PCA_COLUMNS,
    read_estimates_csv,
    read_mapping_csv,
    run_pipeline,
)
from roomsense.records import ConfigError
from roomsense.simulate import SimConfig, simulate_corpus
from roomsense.store import SNAPSHOT_SUFFIX, read_key_values
from conftest import TINY, pipeline_config, without_snapshot


@pytest.fixture(scope="module")
def small_run(small_corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("small_run")
    config = pipeline_config(small_corpus_dir, str(out), seed=7)
    paths = run_pipeline(config)
    return small_corpus_dir, config, paths


class TestRunPipeline:
    def test_all_report_files_present(self, small_run):
        _, _, paths = small_run
        for name in ("mapping", "pca", "mapping_report", "model", "estimates", "evaluation"):
            assert os.path.exists(paths[name]), name
        assert os.path.exists(os.path.join(os.path.dirname(paths["model"]), "config.txt"))

    def test_headers_and_decimal_points(self, small_run):
        _, _, paths = small_run
        with open(paths["estimates"]) as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == list(ESTIMATE_COLUMNS)
        with open(paths["mapping"]) as handle:
            header = next(csv.reader(handle))
        assert header == list(MAPPING_COLUMNS)
        with open(paths["pca"]) as handle:
            pca_rows = list(csv.reader(handle))
        assert pca_rows[0] == list(PCA_COLUMNS)
        for row in pca_rows[1:5]:
            assert "," not in row[2] and "." in row[2]  # locale-independent decimals

    def test_estimates_respect_count_invariants(self, small_run):
        _, _, paths = small_run
        estimates = read_estimates_csv(paths["estimates"])
        assert estimates, "no estimates written"
        for e in estimates:
            assert e.enrolled_wifi_count <= e.wifi_count
            assert e.lda_count <= e.wifi_count
            assert e.calibrated_count >= 0

    def test_rerun_byte_identical(self, small_corpus_dir, tmp_path):
        config_a = pipeline_config(small_corpus_dir, str(tmp_path / "a"), seed=7)
        config_b = pipeline_config(small_corpus_dir, str(tmp_path / "b"), seed=7)
        paths_a = run_pipeline(config_a)
        paths_b = run_pipeline(config_b)
        for key in ("estimates", "mapping", "pca", "evaluation", "model"):
            assert filecmp.cmp(paths_a[key], paths_b[key], shallow=False), key

    def test_evaluation_reports_all_methods(self, small_run):
        _, _, paths = small_run
        report = json.loads(open(paths["evaluation"]).read())
        assert set(report["methods"]) == {"wifi_count_lr", "enrolled_count_lr", "lda", "lda_lr"}
        assert report["train_classes"] > 0 and report["test_classes"] > 0


# The stages that take each `run` option.
_OPTION_STAGES = {
    "--algorithm": ("map-aps",),
    "--resolution": ("map-aps",),
    "--resample-len": ("map-aps",),
    "--no-adjacency": ("map-aps",),
    "--train-ratio": ("train", "evaluate"),
    "--use-room-aps": ("train", "estimate"),
}

# Option sets of `run`, each a list of (flag, value...) tuples.
_OPTION_SETS = {
    "default": [],
    "hierarchical-5min": [("--algorithm", "hierarchical"), ("--resolution", "5")],
    "em-gmm-resample-30": [("--algorithm", "em-gmm"), ("--resample-len", "30")],
    "half-train-no-adjacency": [("--train-ratio", "0.5"), ("--no-adjacency",)],
    "room-aps": [("--use-room-aps",)],
}


def _options(option_set, stage=None):
    """The option set's arguments, or only those `stage` takes."""
    return [
        arg for option in option_set
        if stage is None or stage in _OPTION_STAGES[option[0]]
        for arg in option
    ]


@st.composite
def staged_examples(draw):
    """(tiny simulator config, delimiter, `run` option set, pipeline seed)."""
    config = SimConfig(
        seed=draw(st.integers(0, 2**32 - 1)),
        weeks=draw(st.integers(1, 2)),
        days_per_week=draw(st.integers(1, 3)),
        room_capacities=tuple(draw(st.lists(st.sampled_from([12, 42, 60]), min_size=1, max_size=3))),
        classes_per_room_per_week=draw(st.integers(1, 3)),
        walkway_ap_count=draw(st.integers(1, 2)),
    )
    valued = {
        "--algorithm": st.sampled_from(ALGORITHMS),
        "--resolution": st.sampled_from(["5", "10", "30"]),
        "--resample-len": st.sampled_from(["4", "8", "30"]),
        "--train-ratio": st.sampled_from(["0.3", "0.5", "0.7"]),
    }
    option_set = [(flag, draw(values)) for flag, values in valued.items() if draw(st.booleans())]
    option_set += [(flag,) for flag in ("--no-adjacency", "--use-room-aps") if draw(st.booleans())]
    return config, draw(st.sampled_from([",", ";", "|", "\t"])), option_set, draw(st.integers(0, 99))


def _stage_argvs(base, out, option_set, seed):
    """The four stage commands that `run` with `option_set` stands for, writing to `out`."""
    mapping = ["--mapping", str(out / "mapping.csv")]
    return [
        ["map-aps", *base, "--seed", str(seed), *_options(option_set, "map-aps"), "--out", str(out)],
        ["train", *base, *mapping, "--seed", str(seed), *_options(option_set, "train"), "--out", str(out)],
        ["estimate", *base, *mapping, "--model", str(out / "model.txt"), *_options(option_set, "estimate"),
         "--out", str(out)],
        ["evaluate", "--estimates", str(out / "estimates.csv"), "--seed", str(seed),
         *_options(option_set, "evaluate"), "--out", str(out)],
    ]


def _outcome(argv) -> tuple[int, str]:
    """(exit code, `error:` line or "") of one command through `main`."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "Traceback" not in err.getvalue()
    return code, err.getvalue().splitlines()[0] if code else ""


_REPORTS = ("mapping.csv", "pca.csv", "mapping_report.json", "model.txt", "estimates.csv", "evaluation.json")


def _reports(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in _REPORTS}


class TestStageComposability:
    @pytest.mark.parametrize("option_set", _OPTION_SETS.values(), ids=_OPTION_SETS.keys())
    def test_staged_files_match_single_process_run(self, small_corpus_dir, tmp_path, option_set):
        corpus_dir = small_corpus_dir
        run, stage = tmp_path / "run", tmp_path / "staged"
        base = [
            "--sessions", f"{corpus_dir}/sessions.csv",
            "--timetable", f"{corpus_dir}/timetable.csv",
            "--rosters", f"{corpus_dir}/roster.csv",
            "--inventory", f"{corpus_dir}/inventory.csv",
        ]
        truth = ["--ground-truth-counts", f"{corpus_dir}/ground_truth_counts.csv"]
        assert main(
            ["run", *base, *truth, "--seed", "7", *_options(option_set), "--output-dir", str(run)]
        ) == 0
        assert main(
            ["map-aps", *base, "--seed", "7", *_options(option_set, "map-aps"), "--out", str(stage)]
        ) == 0
        assert main(
            ["train", *base, *truth, "--mapping", str(stage / "mapping.csv"), "--seed", "7",
             *_options(option_set, "train"), "--out", str(stage)]
        ) == 0
        assert main(
            ["estimate", *base, *truth, "--mapping", str(stage / "mapping.csv"),
             "--model", str(stage / "model.txt"), *_options(option_set, "estimate"),
             "--out", str(stage)]
        ) == 0
        assert main(
            ["evaluate", "--estimates", str(stage / "estimates.csv"), "--seed", "7",
             *_options(option_set, "evaluate"), "--out", str(stage)]
        ) == 0

        for name in _REPORTS:
            assert filecmp.cmp(stage / name, run / name, shallow=False), name

    @settings(max_examples=25, deadline=None)
    @given(example=staged_examples())
    def test_staged_equals_run_cold_and_warm(self, example):
        """On tiny corpora in any canonical delimiter, the stages end as `run` does: the
        same six reports, or the same exit code and `error:` line. So does a second
        pass that reads the snapshots of the session log that the first pass left."""
        config, delimiter, option_set, seed = example
        with tempfile.TemporaryDirectory() as tmp:
            corpus = Path(tmp, "corpus")
            simulate_corpus(config, corpus)
            for name in ("sessions.csv", "timetable.csv", "roster.csv", "inventory.csv",
                         "ground_truth_counts.csv"):
                with open(corpus / name, newline="") as handle:
                    rows = list(csv.reader(handle))
                with open(corpus / name, "w", newline="") as handle:
                    csv.writer(handle, delimiter=delimiter).writerows(rows)
            log = corpus / "sessions.csv"
            passes = []
            for warm in (False, True):
                assert Path(f"{log}{SNAPSHOT_SUFFIX}").exists() == warm
                out = Path(tmp, "warm" if warm else "cold")
                base = [*_corpus_args(corpus), "--inventory", str(corpus / "inventory.csv"),
                        "--delimiter", delimiter]
                if not warm:
                    without_snapshot(log)
                ran = _outcome(["run", *base, "--seed", str(seed), *_options(option_set),
                                "--output-dir", str(out / "run")])
                staged = []
                for argv in _stage_argvs(base, out / "staged", option_set, seed):
                    if not warm and "--sessions" in argv:
                        without_snapshot(log)
                    staged.append(_outcome(argv))
                    if staged[-1][0]:
                        break
                assert staged[-1] == ran
                reports = [_reports(out / "run"), _reports(out / "staged")] if not ran[0] else []
                if reports:
                    assert reports[0] == reports[1]
                passes.append((ran, staged, reports))
            assert passes[0] == passes[1]

    def test_class_without_mapping_rows_maps_no_ap(self, small_run, tmp_path):
        """A class whose mapping featured no AP has no `mapping.csv` row."""
        corpus_dir, _, run_paths = small_run
        lines = Path(run_paths["mapping"]).read_text().splitlines()
        dropped = lines[1].split(",")[0]
        mapping = tmp_path / "mapping.csv"
        mapping.write_text("\n".join(x for x in lines if not x.startswith(dropped + ",")) + "\n")
        corpus = _corpus_args(corpus_dir)
        assert main(
            ["train", *corpus, "--mapping", str(mapping), "--seed", "7", "--out", str(tmp_path)]
        ) == 0
        assert main(
            ["estimate", *corpus, "--mapping", str(mapping),
             "--model", run_paths["model"], "--out", str(tmp_path)]
        ) == 0
        staged = {e.class_id: e for e in read_estimates_csv(tmp_path / "estimates.csv")}
        full = {e.class_id: e for e in read_estimates_csv(run_paths["estimates"])}
        empty = staged.pop(dropped)
        assert (empty.wifi_count, empty.enrolled_wifi_count, empty.lda_count) == (0, 0, 0)
        del full[dropped]
        assert staged == full

    def test_semicolon_corpus_through_run_delimiter(self, small_run, tmp_path):
        """`run --delimiter ';'` on a `;` copy of the corpus writes the same reports."""
        corpus_dir, _, run_paths = small_run
        semi = tmp_path / "semi"
        semi.mkdir()
        for name in ("sessions.csv", "timetable.csv", "roster.csv", "inventory.csv",
                     "ground_truth_counts.csv"):
            with open(f"{corpus_dir}/{name}", newline="") as src, \
                    open(semi / name, "w", newline="") as dst:
                csv.writer(dst, delimiter=";").writerows(csv.reader(src))
        assert ";" in (semi / "sessions.csv").read_text()
        out = tmp_path / "out"
        assert main(
            ["run", *_corpus_args(semi), "--inventory", str(semi / "inventory.csv"),
             "--delimiter", ";", "--seed", "7", "--output-dir", str(out)]
        ) == 0
        for name, path in run_paths.items():
            assert filecmp.cmp(out / Path(path).name, path, shallow=False), name

    def test_mapping_round_trip(self, small_run):
        _, _, paths = small_run
        results = read_mapping_csv(paths["mapping"])
        assert results
        for result in results.values():
            assert result.mapped.isdisjoint(result.not_mapped)
            assert set(result.scores) == result.featured

    def test_report_rates_match_recount_of_emitted_decisions(self, small_run):
        """Independent recount: rebuild the confusion from mapping.csv rows."""
        corpus_dir, _, paths = small_run
        from roomsense.store import load_inventory, load_timetable

        inventory, _ = load_inventory(f"{corpus_dir}/inventory.csv")
        events, _ = load_timetable(f"{corpus_dir}/timetable.csv")
        rooms = {e.class_id: e.room_id for e in events}
        mapped_by_class = {}
        with open(paths["mapping"]) as handle:
            for row in list(csv.reader(handle))[1:]:
                mapped_by_class.setdefault(row[0], set())
                if row[2] == "1":
                    mapped_by_class[row[0]].add(row[1])
        tp = fn = tn = fp = 0
        for class_id, mapped in mapped_by_class.items():
            positives = inventory.positives_for_room(rooms[class_id], adjacency=True)
            for ap in inventory:
                if ap in positives:
                    tp, fn = (tp + 1, fn) if ap in mapped else (tp, fn + 1)
                else:
                    fp, tn = (fp + 1, tn) if ap in mapped else (fp, tn + 1)
        report = json.loads(open(paths["mapping_report"]).read())
        assert report["counts"] == {"tp": tp, "fn": fn, "tn": tn, "fp": fp}
        assert report["tp_rate"] == pytest.approx(tp / (tp + fn), abs=1e-6)
        assert report["tn_rate"] == pytest.approx(tn / (tn + fp), abs=1e-6)


# Python's text encoding under each locale: ASCII once locale coercion and UTF-8
# mode are off, and UTF-8.
ASCII_LOCALE = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
UTF8_LOCALE = {"LC_ALL": "C.UTF-8"}
# Data-row renames that give user, room, class and AP names non-ASCII letters.
_ACCENTS = (("u0", "\u00fc0"), ("room", "sal\u00f3n"), ("bldA", "b\u00e2tA"), ("wk", "w\u00e9"))


def _cli(locale: dict, argv, cwd) -> subprocess.CompletedProcess:
    """`python -m roomsense.cli` in a child process under `locale`; `argv` may hold bytes."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **locale,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "roomsense.cli", *argv], cwd=cwd, env=env, capture_output=True
    )


class TestAnyLocale:
    """Every file is read and written as UTF-8, whatever the locale."""

    @pytest.fixture(scope="class")
    def accented(self, tmp_path_factory) -> Path:
        """A directory holding `corpus/`: the tiny corpus with non-ASCII names in every data file."""
        root = tmp_path_factory.mktemp("accented")
        simulate_corpus(TINY, root / "plain")
        (root / "corpus").mkdir()
        for name in ("sessions.csv", "timetable.csv", "roster.csv", "inventory.csv", "ground_truth_counts.csv"):
            header, body = (root / "plain" / name).read_bytes().decode("ascii").split("\n", 1)
            for old, new in _ACCENTS:
                body = body.replace(old, new)
            (root / "corpus" / name).write_bytes(f"{header}\n{body}".encode("utf-8"))
        return root

    def test_same_reports_in_an_ascii_and_a_utf8_locale(self, accented):
        """`run` and the four stages exit 0 and write the same bytes and stdout in both locales."""
        base = [arg for flag, name in (("--sessions", "sessions"), ("--timetable", "timetable"),
                                       ("--rosters", "roster"), ("--inventory", "inventory"))
                for arg in (flag, f"../corpus/{name}.csv")]
        truth = ["--ground-truth-counts", "../corpus/ground_truth_counts.csv"]
        argvs = [["run", *base, *truth, "--seed", "5", "--output-dir", "run"],
                 *_stage_argvs([*base, *truth], Path("staged"), [], 5)]
        written = {}
        for label, locale in (("ascii", ASCII_LOCALE), ("utf8", UTF8_LOCALE)):
            cwd = accented / label
            cwd.mkdir()
            outcomes = [_cli(locale, argv, cwd) for argv in argvs]
            assert [(p.returncode, p.stderr) for p in outcomes] == [(0, b"")] * len(argvs), label
            files = {str(p.relative_to(cwd)): p.read_bytes() for p in sorted(cwd.rglob("*")) if p.is_file()}
            written[label] = [p.stdout for p in outcomes], files
        stdout, files = written["ascii"]
        assert written["utf8"] == (stdout, files)
        assert {name: files[f"staged/{name}"] for name in _REPORTS} == {
            name: files[f"run/{name}"] for name in _REPORTS
        }
        assert "sal\u00f3n1c1-w01,b\u00e2tA".encode("utf-8") in files["run/mapping.csv"]

    @pytest.mark.parametrize(
        "locale, output_dir, message",
        [
            (UTF8_LOCALE, b"out\xe9", "error: output_dir 'out\\udce9' is not UTF-8 text"),
            (ASCII_LOCALE, None, "error: output_dir 'out\\xe9' is not a name the OS can hold"),
        ],
        ids=["argv-not-utf8", "config-not-nameable"],
    )
    def test_an_output_dir_that_cannot_be_echoed_or_named_is_a_config_error(
        self, accented, tmp_path, locale, output_dir, message
    ):
        """Refused with exit 1 before any report is written: a path whose bytes the
        UTF-8 `config.txt` cannot hold, and a `--config` path the OS cannot name."""
        corpus = accented / "plain"
        settings = [(key, corpus / name) for key, name in (
            ("sessions", "sessions.csv"), ("timetable", "timetable.csv"), ("rosters", "roster.csv"),
            ("ground_truth_counts", "ground_truth_counts.csv"),
        )]
        if output_dir is None:
            config = tmp_path / "run.cfg"
            config.write_text(
                "".join(f"{key} = {path}\n" for key, path in settings) + "output_dir = out\u00e9\n",
                encoding="utf-8",
            )
            argv = ["run", "--config", str(config)]
        else:
            argv = ["run", *(arg for key, path in settings
                             for arg in ("--" + key.replace("_", "-"), str(path))),
                    b"--output-dir", output_dir]
        outcome = _cli(locale, argv, tmp_path)
        assert outcome.returncode == 1
        assert outcome.stdout == b""
        assert outcome.stderr.decode("ascii").startswith(message)
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if output_dir is None else [])


class TestCli:
    def test_simulate_writes_corpus(self, tmp_path):
        code = main(["simulate", "--out", str(tmp_path / "sim"), "--seed", "3", "--weeks", "1"])
        assert code == 0
        for name in ("sessions.csv", "timetable.csv", "roster.csv", "inventory.csv",
                     "ground_truth_users.csv", "ground_truth_counts.csv", "sim_config.txt"):
            assert (tmp_path / "sim" / name).exists(), name

    def test_missing_roster_file_exit_code_and_message(self, small_corpus_dir, tmp_path, capsys):
        code = main(
            ["run",
             "--sessions", f"{small_corpus_dir}/sessions.csv",
             "--timetable", f"{small_corpus_dir}/timetable.csv",
             "--rosters", f"{small_corpus_dir}/nope.csv",
             "--ground-truth-counts", f"{small_corpus_dir}/ground_truth_counts.csv",
             "--output-dir", str(tmp_path)]
        )
        assert code == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_schema_mismatch_between_stages_fatal(self, tmp_path, capsys):
        bad = tmp_path / "estimates.csv"
        bad.write_text("wrong,columns\n1,2\n")
        code = main(["evaluate", "--estimates", str(bad), "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "expected columns" in err

    def test_evaluate_on_handwritten_estimates(self, tmp_path):
        path = tmp_path / "estimates.csv"
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(ESTIMATE_COLUMNS)
            for i in range(10):
                truth = 50 + 10 * i
                writer.writerow([f"c{i}", "room1", truth + 20, truth + 5, truth - 8, truth, truth])
        code = main(["evaluate", "--estimates", str(path), "--seed", "1", "--out", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "evaluation.json").read_text())
        assert set(report["methods"]) == {"wifi_count_lr", "enrolled_count_lr", "lda", "lda_lr"}

    def test_run_flag_overrides_config_file(self, small_corpus_dir, tmp_path):
        config_file = tmp_path / "pipe.cfg"
        config_file.write_text(
            "\n".join(
                [
                    f"sessions = {small_corpus_dir}/sessions.csv",
                    f"timetable = {small_corpus_dir}/timetable.csv",
                    f"rosters = {small_corpus_dir}/roster.csv",
                    f"inventory = {small_corpus_dir}/inventory.csv",
                    f"ground_truth_counts = {small_corpus_dir}/ground_truth_counts.csv",
                    f"output_dir = {tmp_path / 'from_file'}",
                    "seed = 99",
                ]
            )
        )
        code = main(["run", "--config", str(config_file), "--output-dir", str(tmp_path / "ovr"),
                     "--seed", "7"])
        assert code == 0
        assert (tmp_path / "ovr" / "estimates.csv").exists()
        echoed = (tmp_path / "ovr" / "config.txt").read_text()
        assert "seed = 7" in echoed

    def test_map_aps_class_filter(self, small_corpus_dir, tmp_path, capsys):
        with open(f"{small_corpus_dir}/timetable.csv") as handle:
            first, second = [row[0] for row in list(csv.reader(handle))[1:3]]

        def map_aps(classes, out):
            return main(["map-aps", *_corpus_args(small_corpus_dir), "--classes", classes,
                         "--seed", "7", "--out", str(tmp_path / out)])

        assert map_aps(first, "one") == 0
        with open(tmp_path / "one" / "mapping.csv") as handle:
            class_ids = {row[0] for row in list(csv.reader(handle))[1:]}
        assert class_ids == {first}
        # without an inventory the report carries no accuracy section
        report = json.loads((tmp_path / "one" / "mapping_report.json").read_text())
        assert "tp_rate" not in report
        # ids are stripped
        assert map_aps(f" {first}, {second} ", "two") == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("mapped 2 classes")
        # an id the timetable lacks is a usage error that names it
        assert map_aps(f"{first}, {second},nosuch", "bad") == 1
        assert capsys.readouterr().err == "error: --classes: not in the timetable: 'nosuch'\n"
        assert not (tmp_path / "bad").exists()

    def test_inventory_without_a_timetabled_room(self, small_corpus_dir, tmp_path):
        """A room with none of its APs in the inventory has no positive AP in either mode."""
        lines = Path(f"{small_corpus_dir}/inventory.csv").read_text().splitlines()
        inventory = tmp_path / "inventory.csv"
        inventory.write_text("\n".join(x for x in lines if not x.startswith("room1-")) + "\n")
        assert len(inventory.read_text().splitlines()) < len(lines)
        for flags in ([], ["--no-adjacency"]):
            out = tmp_path / f"out{len(flags)}"
            assert main(
                ["map-aps", *_corpus_args(small_corpus_dir), "--inventory", str(inventory),
                 *flags, "--seed", "7", "--out", str(out)]
            ) == 0
            room = json.loads((out / "mapping_report.json").read_text())["per_room"]["room1"]
            assert room["tp"] == room["fn"] == 0 and room["tn"] > 0

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        config_file = tmp_path / "bad.cfg"
        config_file.write_text("definitely_not_a_key = 1\n")
        assert main(["run", "--config", str(config_file)]) == 1

    def test_simulate_config_echo_reproduces_the_corpus(self, tmp_path):
        """`sim_config.txt` of the default config, unset `room_ap_counts` included, simulates it again."""
        first, second = tmp_path / "c1", tmp_path / "c2"
        assert main(["simulate", "--seed", "3", "--weeks", "1", "--out", str(first)]) == 0
        assert main(["simulate", "--config", str(first / "sim_config.txt"), "--out", str(second)]) == 0
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second)) and len(names) == 7
        _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        assert mismatch == errors == []

    def test_map_aps_resolution_sweep_table(self, small_corpus_dir, tmp_path):
        code = main(
            ["map-aps",
             "--sessions", f"{small_corpus_dir}/sessions.csv",
             "--timetable", f"{small_corpus_dir}/timetable.csv",
             "--rosters", f"{small_corpus_dir}/roster.csv",
             "--inventory", f"{small_corpus_dir}/inventory.csv",
             "--sweep", "10,30", "--seed", "7", "--out", str(tmp_path)]
        )
        assert code == 0
        with open(tmp_path / "resolution_sweep.csv") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["resolution", "skipped", "classes", "tp_rate", "tn_rate"]
        assert [r[0] for r in rows[1:]] == ["10", "30"]

    def test_use_room_aps_fallback(self, small_corpus_dir, tmp_path):
        config = pipeline_config(
            small_corpus_dir, str(tmp_path / "roomaps"), seed=7, use_room_aps=True
        )
        paths = run_pipeline(config)
        estimates = read_estimates_csv(paths["estimates"])
        assert estimates and all(e.wifi_count >= 0 for e in estimates)


    def test_train_notes_users_without_rssi(self, small_corpus_dir, tmp_path, capsys):
        """Every third session loses its RSSI; `train` fills the users left with none."""
        lines = Path(f"{small_corpus_dir}/sessions.csv").read_text().splitlines()
        for i in range(1, len(lines), 3):
            fields = lines[i].split(",")
            fields[9] = ""
            lines[i] = ",".join(fields)
        sessions = tmp_path / "sessions.csv"
        sessions.write_text("\n".join(lines) + "\n")
        config = pipeline_config(small_corpus_dir, str(tmp_path / "run"), seed=7)
        config.sessions = str(sessions)
        paths = run_pipeline(config)
        capsys.readouterr()
        assert main(
            ["train", *_corpus_args(small_corpus_dir, sessions=sessions),
             "--mapping", paths["mapping"], "--seed", "7", "--out", str(tmp_path / "train")]
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "note: 146 users had no RSSI; filled with corpus mean 61.8"
        assert filecmp.cmp(tmp_path / "train" / "model.txt", paths["model"], shallow=False)


# Text a config value may hold: no line end, and no space at either end.
VALUES = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp")), max_size=12).map(str.strip)


@st.composite
def pipeline_configs(draw) -> PipelineConfig:
    paths = {key: draw(VALUES) for key in
             ("sessions", "timetable", "rosters", "inventory", "ground_truth_counts", "output_dir")}
    return PipelineConfig(
        **paths,
        resolution=draw(st.integers()),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        resample_len=draw(st.integers()),
        seed=draw(st.integers()),
        train_ratio=draw(st.floats(allow_nan=False)),
        adjacency=draw(st.booleans()),
        use_room_aps=draw(st.booleans()),
        delimiter=draw(st.sampled_from([",", ";", "|", "\t"]) | st.characters(min_codepoint=33, max_codepoint=126)),
    )


@st.composite
def sim_configs(draw) -> SimConfig:
    """Simulator configs that validate, with `room_ap_counts` unset or set."""
    rooms = draw(st.lists(st.integers(1, 300), min_size=1, max_size=4))
    counts = st.lists(st.integers(1, 64), min_size=len(rooms), max_size=len(rooms)).map(tuple)
    probability = st.floats(0, 1)
    config = SimConfig(
        seed=draw(st.integers(0, 2**64)),
        weeks=draw(st.integers(1, 6)),
        days_per_week=draw(st.integers(1, 7)),
        room_capacities=tuple(rooms),
        room_ap_counts=draw(st.none() | counts),
        corner_ap_fraction=draw(probability),
        duration_weights=draw(st.sampled_from([{60: 1.0}, {90: 0.25, 240: 0.75}])),
        enrollment_ratio=tuple(sorted(draw(st.tuples(st.floats(0, 2), st.floats(0, 2))))),
        non_connect_prob=draw(probability),
        device_count_weights=draw(st.sampled_from([{1: 1.0}, {2: 0.5, 8: 0.5}])),
        churn_prob_per_10min=draw(probability),
        churn_gap_minutes=tuple(sorted(draw(st.tuples(st.integers(0, 9), st.integers(0, 9))))),
        arrival_mean=draw(st.floats(-100, 100)),
        rssi_in_mean=draw(st.floats(-1e6, 1e6)),
        bystander_dwell_mean=draw(st.floats(1e-6, 60)),
        walkin_prob=draw(probability),
    )
    try:
        config.validate()
    except ConfigError:
        assume(False)
    return config


class TestConfigEcho:
    @settings(max_examples=200, deadline=None)
    @given(config=sim_configs() | pipeline_configs())
    def test_echo_reads_back_to_its_config(self, tmp_path_factory, config):
        """`echo_config` then `read_key_values` gives the config back, a tab delimiter included."""
        path = tmp_path_factory.mktemp("echo") / "config.txt"
        echo_config(path, config)
        values = read_key_values(path, ConfigError)
        read = sim_config_from(values) if isinstance(config, SimConfig) else pipeline_config_from(values)
        assert read == config


class TestEnrolledNeverExceedsWifi:
    def test_on_small_corpus(self, small_run):
        _, _, paths = small_run
        for e in read_estimates_csv(paths["estimates"]):
            assert e.enrolled_wifi_count <= e.wifi_count


class TestModelReuseAcrossCorpora:
    def test_train_here_estimate_there(self, small_run, tmp_path):
        """A model file trained on one corpus drives estimates on a disjoint one."""
        from roomsense.model import load_model
        from roomsense.pipeline import estimate_stage, features_stage, load_corpus, map_stage
        from roomsense.simulate import SimConfig, simulate_corpus

        _, _, trained = small_run
        other = tmp_path / "other_corpus"
        simulate_corpus(
            SimConfig(seed=55, weeks=2, room_capacities=(110, 246), classes_per_room_per_week=2),
            other,
        )
        out = tmp_path / "other_out"
        base = [
            "--sessions", f"{other}/sessions.csv",
            "--timetable", f"{other}/timetable.csv",
            "--rosters", f"{other}/roster.csv",
        ]
        assert main(["map-aps", *base, "--seed", "55", "--out", str(out)]) == 0
        assert main(
            ["estimate", *base, "--mapping", str(out / "mapping.csv"),
             "--model", trained["model"], "--out", str(out)]
        ) == 0
        from_cli = read_estimates_csv(out / "estimates.csv")

        config = pipeline_config(str(other), str(tmp_path / "inproc"), seed=55)
        config.inventory = ""
        config.ground_truth_counts = ""
        corpus = load_corpus(config)
        results, _ = map_stage(corpus, config)
        lda, calibration = load_model(trained["model"])
        features = features_stage(corpus, results, config)
        in_process = estimate_stage(corpus, features, lda, calibration)

        assert [(e.class_id, e.wifi_count, e.lda_count, e.calibrated_count) for e in from_cli] == [
            (e.class_id, e.wifi_count, e.lda_count, e.calibrated_count) for e in in_process
        ]


def _corpus_args(corpus_dir, **paths):
    files = {
        "sessions": f"{corpus_dir}/sessions.csv",
        "timetable": f"{corpus_dir}/timetable.csv",
        "rosters": f"{corpus_dir}/roster.csv",
        "ground-truth-counts": f"{corpus_dir}/ground_truth_counts.csv",
    }
    files.update({key.replace("_", "-"): str(value) for key, value in paths.items()})
    return [arg for key, value in files.items() for arg in (f"--{key}", value)]


class TestMalformedInputs:
    HUGE_YEAR = "03/03/99999999999999999999 09:00"

    @pytest.mark.parametrize("sweep", ["10,abc", "10,0", "-5", "10,"])
    def test_bad_sweep_is_usage_error_before_any_report(self, small_corpus_dir, tmp_path, capsys, sweep):
        code = main(
            ["map-aps", *_corpus_args(small_corpus_dir),
             "--inventory", f"{small_corpus_dir}/inventory.csv",
             "--sweep", sweep, "--out", str(tmp_path)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: --sweep")
        assert not (tmp_path / "mapping.csv").exists()

    def test_huge_year_in_session_log_is_a_rejected_row(self, small_corpus_dir, tmp_path, capsys):
        sessions = tmp_path / "sessions.csv"
        text = open(f"{small_corpus_dir}/sessions.csv").read()
        bad = f"u1,m1,{self.HUGE_YEAR},-,5 min,ap1,1,1,30,-60,Ass\n"
        bad += f"u1,m1,03/03/2025 09:00,{self.HUGE_YEAR},5 min,ap1,1,1,30,-60,Disass\n"
        sessions.write_text(text + bad)
        code = main(["map-aps", *_corpus_args(small_corpus_dir, sessions=sessions),
                     "--seed", "7", "--out", str(tmp_path / "out")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_huge_year_in_timetable_is_a_rejected_row(self, small_corpus_dir, tmp_path, capsys):
        timetable = tmp_path / "timetable.csv"
        text = open(f"{small_corpus_dir}/timetable.csv").read()
        timetable.write_text(text + "cX,room1,03/03/99999999999999999999,09:00,10:00\n")
        code = main(["map-aps", *_corpus_args(small_corpus_dir, timetable=timetable),
                     "--seed", "7", "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code in (0, 2) and "Traceback" not in err
        assert "bad date or time" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "cannot read"),
            ("class,count\nc1,3\n", "header mismatch"),
            ("class_id,true_count\nc1,three\n", "row 2: true_count 'three'"),
            ("class_id,true_count\nc1,3\nc2,-1\n", "row 3: true_count '-1'"),
            ("class_id,true_count\nc1,3\nc2,4\nc1,5\n", "row 4: duplicate class_id c1"),
            ("class_id,true_count\nc1\nc2,5\n", "line 2: expected 2 fields, found 1"),
            ("class_id,true_count\nc1,3\n,7\nc2,5\n", "line 3: blank class_id"),
        ],
        ids=["unreadable", "header", "non-integer", "negative", "duplicate", "short-row", "blank-class-id"],
    )
    def test_malformed_ground_truth_counts_are_data_errors(
        self, small_corpus_dir, tmp_path, capsys, content, message
    ):
        truth = tmp_path / "truth"
        if content is None:
            truth.mkdir()  # exists, so it passes the config check, but cannot be read
        else:
            truth.write_text(content)
        code = main(["train", *_corpus_args(small_corpus_dir, ground_truth_counts=truth),
                     "--mapping", str(tmp_path / "mapping.csv"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and message in err

    @staticmethod
    def _edited(source, target, old, new):
        """Copy a report with its first line starting with `old` replaced by `new`."""
        lines = Path(source).read_text().splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(old))
        lines[at] = new
        target.write_text("\n".join(lines) + "\n")
        return str(target), at + 1

    @staticmethod
    def _sessions_with(small_corpus_dir, target, bad_row: bytes):
        """The log's header and first rows, with `bad_row` as line 5."""
        with open(f"{small_corpus_dir}/sessions.csv", "rb") as handle:
            lines = handle.read().splitlines()[:8]
        lines.insert(4, bad_row)
        target.write_bytes(b"\n".join(lines) + b"\n")
        return str(target), 5

    @pytest.mark.parametrize(
        "case",
        [
            "model-value",
            "model-shape",
            "mapping-score",
            "estimates-count",
            "mapping-flag",
            "mapping-duplicate",
            "estimates-duplicate",
            "mapping-short-row",
            "estimates-short-row",
            "mapping-blank-class",
            "estimates-blank-class",
            "sessions-byte",
            "sessions-field",
            "config-byte",
            "model-byte",
            "config-jobs",
            "sim-config-report-hour",
            "model-no-equals",
            "unknown-flag",
            "bad-flag-value",
            "model-nan",
            "config-algorithm",
            "negative-seed",
            "huge-resample-len",
            "config-output-nul",
        ],
    )
    def test_error_line_and_exit_code(self, small_run, tmp_path, capsys, case):
        corpus_dir, _, paths = small_run
        corpus = _corpus_args(corpus_dir)
        bad, line, code, fragment = None, None, 2, ""
        if case == "model-value":
            bad, line = self._edited(paths["model"], tmp_path / "model.txt", "slope =", "slope = abc")
            argv = ["estimate", *corpus, "--mapping", paths["mapping"], "--model", bad]
        elif case == "model-shape":
            bad, line = self._edited(
                paths["model"], tmp_path / "model.txt", "mean_occupant =", "mean_occupant = 1.0 2.0"
            )
            argv = ["estimate", *corpus, "--mapping", paths["mapping"], "--model", bad]
        elif case == "mapping-score":
            first_row = Path(paths["mapping"]).read_text().splitlines()[1]
            bad, line = self._edited(
                paths["mapping"], tmp_path / "mapping.csv", first_row,
                first_row.rsplit(",", 1)[0] + ",xyz",
            )
            argv = ["train", *corpus, "--mapping", bad, "--out", str(tmp_path)]
        elif case == "estimates-count":
            first_row = Path(paths["estimates"]).read_text().splitlines()[1].split(",")
            first_row[4] = "1.5"
            bad, line = self._edited(
                paths["estimates"], tmp_path / "estimates.csv", ",".join(first_row[:2]),
                ",".join(first_row),
            )
            argv = ["evaluate", "--estimates", bad]
        elif case == "mapping-flag":
            first_row = Path(paths["mapping"]).read_text().splitlines()[1].split(",")
            first_row[2] = "yes"
            bad, line = self._edited(
                paths["mapping"], tmp_path / "mapping.csv", ",".join(first_row[:2]) + ",",
                ",".join(first_row),
            )
            argv, fragment = ["train", *corpus, "--mapping", bad], "mapped 'yes' is not 0 or 1"
        elif case.endswith("-duplicate"):  # the second row repeated as the third
            report = case.split("-", 1)[0]
            rows = Path(paths[report]).read_text().splitlines()
            bad, line = self._edited(paths[report], tmp_path / f"{report}.csv", rows[2], rows[1])
            if report == "mapping":
                argv, fragment = ["train", *corpus, "--mapping", bad], "duplicate ap_name"
            else:
                argv, fragment = ["evaluate", "--estimates", bad], "duplicate class_id"
        elif case.startswith(("mapping-", "estimates-")):
            report = case.split("-", 1)[0]
            first_row = Path(paths[report]).read_text().splitlines()[1]
            if case.endswith("short-row"):
                edited = first_row.rsplit(",", 1)[0]
                fragment = "expected 4 fields" if report == "mapping" else "expected 7 fields"
            else:
                edited, fragment = "," + first_row.split(",", 1)[1], "blank class_id"
            bad, line = self._edited(paths[report], tmp_path / f"{report}.csv", first_row, edited)
            if report == "mapping":
                argv = ["train", *corpus, "--mapping", bad]
            else:
                argv = ["evaluate", "--estimates", bad]
        elif case in ("sessions-byte", "sessions-field"):
            row = b"u1,m1,\xff" if case == "sessions-byte" else b"u1," + b"x" * 200_000
            bad, line = self._sessions_with(corpus_dir, tmp_path / "sessions.csv", row)
            argv = ["map-aps", *_corpus_args(corpus_dir, sessions=bad)]
        elif case in ("config-byte", "model-byte"):  # Latin-1 text, not UTF-8
            bad, line, fragment = str(tmp_path / "bad.txt"), 2, "not valid UTF-8 text"
            Path(bad).write_bytes(b"# by hand\nseed = caf\xe9\n")
            if case == "config-byte":
                argv, code = ["run", "--config", bad], 1
            else:
                argv = ["estimate", *corpus, "--mapping", paths["mapping"], "--model", bad]
        elif case == "config-jobs":
            config = tmp_path / "run.cfg"
            config.write_text(f"sessions = {corpus_dir}/sessions.csv\njobs = 2\n")
            argv, code, fragment = ["run", "--config", str(config)], 1, "'jobs'"
        elif case == "sim-config-report-hour":  # removed: every log is reported at 21:00
            config = tmp_path / "sim.cfg"
            config.write_text("report_hour = 21\n")
            argv, code, fragment = ["simulate", "--config", str(config)], 1, "'report_hour'"
        elif case == "model-no-equals":
            bad, line = self._edited(paths["model"], tmp_path / "model.txt", "slope =", "slope 1.0")
            argv = ["estimate", *corpus, "--mapping", paths["mapping"], "--model", bad]
            fragment = "expected 'key = value'"
        elif case == "unknown-flag":
            argv, code, fragment = ["run", "--bogus"], 1, "--bogus"
        elif case == "model-nan":
            bad, line = self._edited(paths["model"], tmp_path / "model.txt", "slope =", "slope = nan")
            argv = ["estimate", *corpus, "--mapping", paths["mapping"], "--model", bad]
            fragment = "slope is not finite"
        elif case in ("config-algorithm", "config-output-nul"):
            # a shell cannot pass a NUL in argv, but a config file can hold one
            tail, fragment = {
                "config-algorithm": (
                    f"output_dir = {tmp_path / 'out'}\nalgorithm = bogus\n", "'bogus'"
                ),
                "config-output-nul": (f"output_dir = {tmp_path / 'a'}\0b\n", "holds a NUL byte"),
            }[case]
            config = tmp_path / "run.cfg"
            config.write_text(
                "".join(f"{key} = {corpus_dir}/{name}\n" for key, name in (
                    ("sessions", "sessions.csv"), ("timetable", "timetable.csv"),
                    ("rosters", "roster.csv"), ("ground_truth_counts", "ground_truth_counts.csv"),
                ))
                + tail
            )
            argv, code = ["run", "--config", str(config)], 1
        elif case == "negative-seed":
            argv, code, fragment = ["map-aps", *corpus, "--seed", "-1"], 1, "seed -1"
        elif case == "huge-resample-len":
            argv, code = ["map-aps", *corpus, "--resample-len", "99999999999999999999"], 1
            fragment = "resample_len 99999999999999999999 exceeds"
        else:
            argv, code, fragment = ["map-aps", *corpus, "--resolution", "x"], 1, "'x'"
        if argv[0] != "run" and "--out" not in argv:
            argv += ["--out", str(tmp_path / "out")]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err and fragment in err
        if bad is not None:
            assert bad in err and f"line {line}" in err, err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "usage:" in capsys.readouterr().out
