"""Trace hooks: missing functions are skipped, traced commands write the same reports."""
from __future__ import annotations

import filecmp
import json
import os
import subprocess
import sys
import time

import pytest
from conftest import SEED

import run
import trace_hooks
from trace_hooks import Hook, Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture()
def restore_package(monkeypatch):
    """Undo the tracer's patches: re-set every package attribute through monkeypatch."""
    import roomsense.cli  # noqa: F401  (loads every module the hooks touch)
    from roomsense.store import SessionStore

    for name, module in list(sys.modules.items()):
        if name.startswith("roomsense"):
            for attr, value in list(vars(module).items()):
                if callable(value):
                    monkeypatch.setattr(module, attr, value)
    for attr, value in list(vars(SessionStore).items()):
        if callable(value):
            monkeypatch.setattr(SessionStore, attr, value)


def test_missing_hook_is_skipped_with_a_warning(restore_package, capsys):
    from roomsense import clustering

    tracer = Tracer()
    tracer.install([
        Hook("store.SessionStore.snapshot_gone", "store.snapshot_s", "store.snapshot_calls"),
        Hook("no_such_module.f", "gone_s"),
        Hook("clustering.pca_project", "clustering.pca_s"),
    ])
    assert tracer.missing == ["store.SessionStore.snapshot_gone", "no_such_module.f"]
    assert "store.SessionStore.snapshot_gone" in capsys.readouterr().err
    clustering.pca_project([[0.0, 1.0], [1.0, 0.0], [2.0, 2.0]])
    assert set(tracer.totals) == {"clustering.pca_s"}
    assert tracer.totals["clustering.pca_s"] > 0


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    tracer.totals.update({"inner_s": 0.0, "outer_s": 0.0, "outer_calls": 0})
    inner = tracer._wrap(lambda: time.sleep(0.05), Hook("x.inner", "inner_s"))
    outer = tracer._wrap(lambda: (inner(), time.sleep(0.02)), Hook("x.outer", "outer_s", "outer_calls"))
    outer()
    assert 0.05 <= tracer.totals["inner_s"] < 0.2
    assert 0.02 <= tracer.totals["outer_s"] < 0.05
    assert tracer.totals["outer_calls"] == 1


def test_every_per_layer_metric_has_a_source_and_unit():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        pytest.skip("no BENCHMARK.json next to the benchmark")
    with open(path) as handle:
        spec = json.load(handle)
    produced = {f"cli.{cmd}.{kind}" for cmd, kind in run.CLI_METRICS} | {
        "cli.startup_s", "store.sessions_per_s", "userfeatures.vectors_per_s",
        "pipeline.output_bytes", "trace.overhead_s",
    }
    for hook in trace_hooks.HOOKS:
        produced |= {hook.time, hook.calls, hook.count and hook.count[0]} - {None}
    for metric in spec["per_layer"] + spec["end_to_end"]:
        assert metric["unit"] == run.unit_of(metric["name"]), metric
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_traced_command_writes_identical_reports(reports, tmp_path):
    _, _, out, _ = reports
    plain, traced, trace_json = tmp_path / "plain", tmp_path / "traced", tmp_path / "trace.json"
    env = run.child_env()
    for dst, prefix in ((plain, [sys.executable, "-m", "roomsense.cli"]),
                        (traced, [sys.executable, trace_hooks.__file__, str(trace_json), repr(time.time())])):
        subprocess.run([*prefix, "evaluate", "--estimates", f"{out}/estimates.csv", "--seed", str(SEED),
                        "--out", str(dst)], check=True, env=env, stdout=subprocess.DEVNULL)
    assert filecmp.cmp(plain / "evaluation.json", traced / "evaluation.json", shallow=False)
    with open(trace_json) as handle:
        trace = json.load(handle)
    assert trace["missing"] == []
    assert trace["metrics"]["estimation.method_comparison_s"] > 0
    assert trace["metrics"]["pipeline.read_reports_s"] > 0
    assert 0 < trace["startup_s"] < 60
