"""roomsense benchmark: simulate a corpus, time the documented CLI commands, check outputs.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the program is taken from `src/` next to this directory.
Each workload first runs `roomsense simulate` in its own child process and
fsyncs the corpus (the set-up), then repeats rounds of its CLI commands, each
a fresh `python -m roomsense.cli` child, until `--seconds` have passed (at
least one round). Every command's outputs are checked by `verify.py`, which
does not import the program.

With `--trace 0` the last stdout line is a JSON object holding the end-to-end
metrics; with `--trace 1` the set-up and a second copy of each round run under
`trace_hooks.py` and the line holds the per-layer metrics instead. See
README.md for the workloads, the metrics and reference figures.
"""
from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import filecmp  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Callable  # noqa: E402

import trace_hooks  # noqa: E402
import verify  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")
SWEEP = (1, 2, 5, 10, 15, 30, 45, 60)
SEED_CANDIDATES = 1024
CLI_METRICS = (
    ("simulate", "wall_s"), ("run", "wall_s"), ("run", "cpu_s"), ("run", "rss_mb"),
    ("map-aps", "wall_s"), ("map-aps", "rss_mb"), ("train", "wall_s"),
    ("estimate", "wall_s"), ("evaluate", "wall_s"),
)


def unit_of(metric: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return unit
    return "count"


@dataclass(frozen=True)
class Op:
    """One CLI command of a round and the checks on what it wrote."""

    name: str
    args: list[str]
    check: Callable[[verify.Corpus], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    weeks: int
    ops: Callable[[str, str, int], list[Op]]  # (corpus dir, output dir, seed) -> one round


@dataclass
class Child:
    name: str
    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    trace: dict | None = None


def _inputs(c: str) -> list[str]:
    return ["--sessions", f"{c}/sessions.csv", "--timetable", f"{c}/timetable.csv",
            "--rosters", f"{c}/roster.csv"]


def run_default_ops(c: str, out: str, seed: int) -> list[Op]:
    est, mp = f"{out}/estimates.csv", f"{out}/mapping.csv"

    def check(corpus):
        return (verify.check_wifi_counts(corpus, est, mp) + verify.check_estimates(corpus, est)
                + verify.check_mapping_report(corpus, mp, f"{out}/mapping_report.json")
                + verify.check_evaluation(corpus, est, f"{out}/evaluation.json", seed)
                + verify.check_model(f"{out}/model.txt"))

    args = ["run", *_inputs(c), "--inventory", f"{c}/inventory.csv",
            "--ground-truth-counts", f"{c}/ground_truth_counts.csv", "--output-dir", out,
            "--seed", str(seed), "--resolution", "10", "--algorithm", "kmeans"]
    return [Op("run", args, check)]


def sweep_ward_ops(c: str, out: str, seed: int) -> list[Op]:
    def check(corpus):
        return (verify.check_mapping_report(corpus, f"{out}/mapping.csv", f"{out}/mapping_report.json")
                + verify.check_sweep(corpus, f"{out}/resolution_sweep.csv", SWEEP))

    args = ["map-aps", *_inputs(c), "--inventory", f"{c}/inventory.csv", "--algorithm", "hierarchical",
            "--sweep", ",".join(map(str, SWEEP)), "--seed", str(seed), "--out", out]
    return [Op("map-aps", args, check)]


def stages_long_ops(c: str, out: str, seed: int) -> list[Op]:
    mp, model, est = f"{out}/mapping.csv", f"{out}/model.txt", f"{out}/estimates.csv"
    truth = ["--ground-truth-counts", f"{c}/ground_truth_counts.csv"]
    return [
        Op("map-aps", ["map-aps", *_inputs(c), "--inventory", f"{c}/inventory.csv", "--seed", str(seed),
                       "--out", out],
           lambda corpus: verify.check_mapping_report(corpus, mp, f"{out}/mapping_report.json")),
        Op("train", ["train", *_inputs(c), "--mapping", mp, *truth, "--seed", str(seed), "--out", out],
           lambda corpus: verify.check_model(model)),
        Op("estimate", ["estimate", *_inputs(c), "--mapping", mp, "--model", model, *truth, "--out", out],
           lambda corpus: verify.check_wifi_counts(corpus, est, mp) + verify.check_estimates(corpus, est)),
        Op("evaluate", ["evaluate", "--estimates", est, "--seed", str(seed), "--out", out],
           lambda corpus: verify.check_evaluation(corpus, est, f"{out}/evaluation.json", seed)),
    ]


# README.md records why each workload exists, and why sweep-ward is run by hand
# rather than listed in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("run-default", 10, run_default_ops),
        Workload("sweep-ward", 4, sweep_ward_ops),
        Workload("stages-long", 16, stages_long_ops),
    )
}


def simulator_seed(seed: int) -> int:
    """The simulator seed that workload seed `seed` stands for.

    The simulator draws each course's length and enrolment once and repeats
    them every week, so class minutes and enrolled seat-minutes, and with them
    the work of every command and its memory, differ by 10-13% from seed to
    seed. The benchmark takes the first candidate, in a list that starts with
    `seed` and continues with draws seeded by it, whose weekly timetable lies
    within 1.5% of the expected class minutes and 3% of the expected
    seat-minutes; corpora still differ in everything else the seed drives.
    """
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from roomsense.simulate import SimConfig, generate_campus

        config = SimConfig()
        minutes = sum(m * w for m, w in config.duration_weights.items()) * config.classes_per_room_per_week
        targets = (minutes * len(config.room_capacities),
                   minutes * sum(config.room_capacities) * statistics.fmean(config.enrollment_ratio))
        draws = random.Random(seed)
        candidate, best, best_miss = seed, seed, float("inf")
        for _ in range(SEED_CANDIDATES):
            campus = generate_campus(SimConfig(seed=candidate, weeks=1))
            lengths = [(e.end - e.start).total_seconds() / 60 for e in campus.events]
            sizes = [len(campus.rosters[e.class_id]) for e in campus.events]
            misses = (abs(sum(lengths) / targets[0] - 1) / 0.015,
                      abs(sum(a * b for a, b in zip(lengths, sizes)) / targets[1] - 1) / 0.03)
            if max(misses) <= 1:
                return candidate
            if max(misses) < best_miss:
                best, best_miss = candidate, max(misses)
            candidate = draws.randrange(2**31)
    except (ImportError, AttributeError, TypeError) as exc:
        print(f"perfbench: warning: cannot screen timetables ({exc!r}); simulating seed {seed}", file=sys.stderr)
        return seed
    finally:
        sys.path.pop(0)
    return best


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        PYTHONPYCACHEPREFIX=os.path.join(WORK, "pycache"),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(name: str, cli_args: list[str], log_path: str, trace_path: str | None = None) -> Child:
    """Run one CLI command as a fresh child; wall, CPU and peak RSS come from wait4."""
    if trace_path is None:
        argv = [sys.executable, "-m", "roomsense.cli", *cli_args]
    else:
        argv = [sys.executable, os.path.join(HERE, "trace_hooks.py"), trace_path, repr(time.time()),
                *cli_args]
    with open(log_path, "ab") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    child = Child(name, proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)
    if trace_path is not None and os.path.exists(trace_path):
        with open(trace_path) as handle:
            child.trace = json.load(handle)
    return child


def fsync_tree(path: str) -> None:
    for name in sorted(os.listdir(path)):
        fd = os.open(os.path.join(path, name), os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class Round:
    children: list[Child]
    attempted: int = 0
    failed: int = 0
    check_failures: int = 0

    @property
    def wall_s(self) -> float:
        return sum(c.wall_s for c in self.children)


def run_round(ops: list[Op], out: str, corpus: verify.Corpus, log: str, trace_dir: str | None) -> Round:
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    result = Round([])
    for i, op in enumerate(ops):
        trace = None if trace_dir is None else os.path.join(trace_dir, f"{i}-{op.name}.json")
        child = spawn(op.name, op.args, log, trace)
        result.children.append(child)
        result.attempted += 1
        if child.rc != 0:
            errors = [f"{op.name} exited with {child.rc}; see {log}"]
        else:
            try:
                errors = op.check(corpus)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                errors = [f"{op.name} outputs unreadable: {exc!r}"]
            result.check_failures += bool(errors)
        if errors:
            result.failed += 1
            for line in errors[:10]:
                print(f"FAILED {op.name}: {line}", file=sys.stderr)
    return result


def same_files(a: str, b: str) -> bool:
    names = sorted(os.listdir(a))
    if names != sorted(os.listdir(b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    return not mismatch and not errors


def layer_metrics(setup: Child, plain: Round, traced: Round, out: str) -> dict[str, float]:
    """Per-layer metrics of one traced round, summed over its commands."""
    children = [setup, *traced.children]
    metrics: dict[str, float] = {}
    for cmd, kind in CLI_METRICS:
        values = [getattr(c, kind) for c in children if c.name == cmd]
        metrics[f"cli.{cmd}.{kind}"] = max(values, default=0.0) if kind == "rss_mb" else sum(values)
    startups = [c.trace["startup_s"] for c in traced.children if c.trace]
    if startups:
        metrics["cli.startup_s"] = statistics.fmean(startups)
    for child in children:
        if not child.trace:
            continue
        for name, value in child.trace["metrics"].items():
            if name in trace_hooks.PEAK_METRICS:
                metrics[name] = max(metrics.get(name, 0.0), value)
            else:
                metrics[name] = metrics.get(name, 0) + value
    for rate, count, seconds in (
        ("store.sessions_per_s", "store.rows_read", "store.load_sessions_s"),
        ("userfeatures.vectors_per_s", "userfeatures.vectors", "userfeatures.extract_s"),
    ):
        if count in metrics and seconds in metrics:
            metrics[rate] = metrics[count] / metrics[seconds] if metrics[seconds] > 0 else 0.0
    metrics["pipeline.output_bytes"] = sum(
        os.path.getsize(os.path.join(out, name)) for name in os.listdir(out)
    )
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return metrics


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, started: float) -> dict:
    """Set up and measure one workload; `started` is when its set-up began."""
    base = os.path.join(WORK, workload.name)
    corpus_dir, out, log = os.path.join(base, "corpus"), os.path.join(base, "out"), os.path.join(base, "log.txt")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    seed = simulator_seed(seed)
    print(f"{workload.name} simulator seed {seed}")
    sim_args = ["simulate", "--out", corpus_dir, "--seed", str(seed), "--weeks", str(workload.weeks)]
    setup = spawn("simulate", sim_args, log, os.path.join(base, "trace-simulate.json") if trace else None)
    if setup.rc != 0:
        raise SystemExit(f"perfbench: simulate exited with {setup.rc}; see {log}")
    fsync_tree(corpus_dir)
    setup_s = time.perf_counter() - started

    corpus = verify.load_corpus(corpus_dir)
    ops = workload.ops(corpus_dir, out, seed)
    rounds: list[Round] = []
    layers: list[dict[str, float]] = []
    identical = True
    began = time.perf_counter()
    while not rounds or time.perf_counter() - began < seconds:
        rounds.append(run_round(ops, out, corpus, log, None))
        if trace:
            plain_out = out + "-untraced"
            shutil.rmtree(plain_out, ignore_errors=True)
            os.replace(out, plain_out)
            trace_dir = os.path.join(base, f"trace-round{len(layers)}")
            os.makedirs(trace_dir)
            traced = run_round(ops, out, corpus, log, trace_dir)
            rounds.append(traced)
            if not same_files(plain_out, out):
                identical = False
                print(f"FAILED: traced outputs differ from untraced ones ({plain_out} vs {out})",
                      file=sys.stderr)
            layers.append(layer_metrics(setup, rounds[-2], traced, out))
    os.remove(os.path.join(corpus_dir, "sessions.csv"))

    if trace:
        missing = sorted({m for c in [setup, *rounds[-1].children] if c.trace for m in c.trace["missing"]})
        for hook in missing:
            print(f"perfbench: warning: trace hook {hook} not found; its metrics are left out", file=sys.stderr)
        names = sorted(set().union(*layers))
        metrics = {n: statistics.median(layer[n] for layer in layers if n in layer) for n in names}
    else:
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(r.wall_s for r in rounds),
            "peak_rss_mb": max(c.rss_mb for r in rounds for c in r.children),
        }
    return {
        "correct": identical and not any(r.check_failures for r in rounds),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=42, help="corpus and pipeline seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="minimum measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "roomsense", "cli.py")):
        print(f"perfbench: no roomsense sources under {ROOT}/src", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    started = PROCESS_START
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), started)
        started = time.perf_counter()
        for metric, entry in result["metrics"].items():
            print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
        print(f"{name} operations attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
