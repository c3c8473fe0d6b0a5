"""Shared fixture: one small simulated corpus and the program's reports on it."""
from __future__ import annotations

import os
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import run  # noqa: E402
import verify  # noqa: E402

SEED = 7
SWEEP = (10, 30, 60)


def cli(*args: str) -> None:
    subprocess.run([sys.executable, "-m", "roomsense.cli", *args], check=True, env=run.child_env(),
                   stdout=subprocess.DEVNULL)


@pytest.fixture(scope="session")
def reports(tmp_path_factory):
    """(corpus, corpus dir, run output dir, sweep output dir) for a 3-week campus."""
    base = tmp_path_factory.mktemp("perfbench")
    corpus, out, sweep = (str(base / name) for name in ("corpus", "out", "sweep"))
    cli("simulate", "--out", corpus, "--seed", str(SEED), "--weeks", "3")
    inputs = run._inputs(corpus) + ["--inventory", f"{corpus}/inventory.csv"]
    cli("run", *inputs, "--ground-truth-counts", f"{corpus}/ground_truth_counts.csv",
        "--output-dir", out, "--seed", str(SEED))
    cli("map-aps", *inputs, "--sweep", ",".join(map(str, SWEEP)), "--seed", str(SEED), "--out", sweep)
    return verify.load_corpus(corpus), corpus, out, sweep
