"""Run one roomsense CLI command with timing wrappers around each layer.

    python perfbench/trace_hooks.py TRACE_JSON SPAWN_TIME COMMAND [ARGS...]

SPAWN_TIME is the parent's `time.time()` just before it started this
process, so the trace can report interpreter start plus imports. The
wrappers record self time (a span's duration minus its child spans), call
counts and a few work counts, keyed by per-layer metric name, and the
aggregate is written to TRACE_JSON when the command ends.

A hooked function that no longer exists is skipped with a warning naming the
hook; metrics fed only by missing hooks are left out of the trace, and the
command runs unchanged.
"""
from __future__ import annotations

import functools
import importlib
import json
import resource
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "roomsense"


@dataclass(frozen=True)
class Hook:
    target: str  # "module.function" or "module.Class.method" inside the package
    time: str  # metric that receives the self time
    calls: str | None = None  # metric that counts calls
    count: tuple[str, Callable] | None = None  # (metric, fn(result, args) -> amount)


def _peak_rss_mb(result, args) -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Metrics whose values combine by maximum rather than by sum.
PEAK_METRICS = frozenset({"store.rss_after_load_mb"})

HOOKS = (
    Hook("simulate.generate_campus", "simulate.generate_s"),
    Hook("simulate.simulate_sessions", "simulate.generate_s",
         count=("simulate.sessions", lambda r, a: len(r[0]))),
    Hook("simulate.write_sessions_csv", "simulate.write_s"),
    Hook("simulate.write_timetable_csv", "simulate.write_s"),
    Hook("simulate.write_roster_csv", "simulate.write_s"),
    Hook("simulate.write_inventory_csv", "simulate.write_s"),
    Hook("simulate.write_ground_truth", "simulate.write_s"),
    Hook("store.load_sessions", "store.load_sessions_s",
         count=("store.rows_read", lambda r, a: r[1].rows_read)),
    Hook("store.SessionStore.__init__", "store.index_s",
         count=("store.rss_after_load_mb", _peak_rss_mb)),
    Hook("store.load_timetable", "store.load_other_s"),
    Hook("store.load_rosters", "store.load_other_s"),
    Hook("store.load_inventory", "store.load_other_s"),
    Hook("simulate.load_ground_truth_counts", "store.load_other_s"),
    Hook("store.SessionStore.active_aps", "store.active_aps_s", "store.active_aps_calls"),
    Hook("store.SessionStore.user_counts_at", "store.user_counts_at_s", "store.user_counts_at_calls"),
    Hook("store.SessionStore.sessions_overlapping", "store.sessions_overlapping_s",
         "store.sessions_overlapping_calls"),
    Hook("mapping.map_class_aps", "mapping.map_class_aps_s", "mapping.map_class_aps_calls",
         count=("mapping.featured_aps", lambda r, a: len(r[0].featured))),
    Hook("mapping.build_feature_matrix", "mapping.build_feature_matrix_s",
         "mapping.build_feature_matrix_calls"),
    Hook("mapping.resolution_sweep", "mapping.resolution_sweep_s"),
    Hook("mapping.evaluate_mapping", "mapping.evaluate_s"),
    Hook("mapping.consistency", "mapping.evaluate_s"),
    Hook("clustering.kmeans", "clustering.kmeans_s", "clustering.kmeans_calls",
         count=("clustering.kmeans_iters", lambda r, a: r.n_iter)),
    Hook("clustering.hierarchical", "clustering.hierarchical_s", "clustering.hierarchical_calls",
         count=("clustering.hierarchical_rows", lambda r, a: len(a[0]))),
    Hook("clustering.pca_project", "clustering.pca_s"),
    Hook("userfeatures.extract_class_features", "userfeatures.extract_s", "userfeatures.extract_calls",
         count=("userfeatures.vectors", lambda r, a: len(r))),
    Hook("userfeatures.label_vectors", "userfeatures.label_s"),
    Hook("userfeatures.impute_rssi", "userfeatures.impute_s"),
    Hook("model.train_lda", "model.train_lda_s"),
    Hook("model.count_occupants", "model.count_occupants_s", "model.count_occupants_calls"),
    Hook("model.save_model", "model.save_s"),
    Hook("model.load_model", "model.load_s"),
    Hook("estimation.estimate_class", "estimation.estimate_class_s"),
    Hook("estimation.method_comparison", "estimation.method_comparison_s"),
    Hook("pipeline.load_corpus", "pipeline.load_corpus_s"),
    Hook("pipeline.map_stage", "pipeline.map_stage_s"),
    Hook("pipeline.features_stage", "pipeline.features_stage_s"),
    Hook("pipeline.train_stage", "pipeline.train_stage_s"),
    Hook("pipeline.estimate_stage", "pipeline.estimate_stage_s"),
    Hook("pipeline.write_mapping_csv", "pipeline.write_reports_s"),
    Hook("pipeline.write_pca_csv", "pipeline.write_reports_s"),
    Hook("pipeline.write_json", "pipeline.write_reports_s"),
    Hook("pipeline.write_sweep_csv", "pipeline.write_reports_s"),
    Hook("pipeline.write_estimates_csv", "pipeline.write_reports_s"),
    Hook("pipeline.read_mapping_csv", "pipeline.read_reports_s"),
    Hook("pipeline.read_estimates_csv", "pipeline.read_reports_s"),
)


class Tracer:
    """Installs the hooks and accumulates self time and counts per metric."""

    def __init__(self):
        self.totals: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []

    def install(self, hooks=HOOKS) -> None:
        for hook in hooks:
            owner_path, _, attr = hook.target.rpartition(".")
            try:
                module_name, _, class_name = owner_path.partition(".")
                owner = importlib.import_module(f"{PACKAGE}.{module_name}")
                if class_name:
                    owner = getattr(owner, class_name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(hook.target)
                print(f"perfbench: trace hook {hook.target} not found; its metrics are left out",
                      file=sys.stderr)
                continue
            wrapped = self._wrap(original, hook)
            setattr(owner, attr, wrapped)
            if not class_name:
                self._rebind(original, wrapped)
            for name in (hook.time, hook.calls, hook.count and hook.count[0]):
                if name:
                    self.totals.setdefault(name, 0)

    @staticmethod
    def _rebind(original, wrapped) -> None:
        """Replace `from module import name` copies held by other package modules."""
        for name, module in list(sys.modules.items()):
            if name == PACKAGE or name.startswith(PACKAGE + "."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    def _wrap(self, fn, hook: Hook):
        stack, totals = self._stack, self.totals

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                totals[hook.time] += elapsed - frame[0]
                if hook.calls:
                    totals[hook.calls] += 1
            if hook.count and hook.count[0] in totals:
                name, amount = hook.count
                try:
                    value = amount(result, args)
                except (AttributeError, IndexError, KeyError, TypeError) as exc:
                    # the function changed shape: drop the count, keep the command running
                    del totals[name]
                    print(f"perfbench: trace hook {hook.target} cannot count {name} ({exc!r}); "
                          "it is left out", file=sys.stderr)
                    return result
                totals[name] = max(totals[name], value) if name in PEAK_METRICS else totals[name] + value
            return result

        return timed


def main(argv: list[str]) -> int:
    trace_path, spawn_time, command = argv[0], float(argv[1]), argv[2:]
    cli = importlib.import_module(f"{PACKAGE}.cli")
    startup_s = time.time() - spawn_time
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(command)
    finally:
        with open(trace_path, "w") as handle:
            json.dump({"startup_s": startup_s, "metrics": tracer.totals, "missing": tracer.missing}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
