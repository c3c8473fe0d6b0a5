"""End-to-end orchestration and the on-disk report formats.

Stages compose through files: running map-aps, train, estimate and evaluate
separately against the documented CSV/JSON formats yields byte-identical
results to one in-process `run_pipeline` call with the same config and seed.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import estimation, mapping, model as model_mod, userfeatures
from .clustering import pca_project
from .config import PipelineConfig, echo_config
from .records import ApInventory, ClassEvent, DataValidationError
from .simulate import load_ground_truth_counts
from .store import (
    SessionStore,
    _check_row,
    load_inventory,
    load_rosters,
    load_sessions,
    load_timetable,
    read_rows,
    write_rows,
)

ESTIMATE_COLUMNS = (
    "class_id",
    "room_id",
    "wifi_count",
    "enrolled_wifi_count",
    "lda_count",
    "calibrated_count",
    "ground_truth",
)
MAPPING_COLUMNS = ("class_id", "ap_name", "mapped", "score")
PCA_COLUMNS = ("class_id", "ap_name", "pc1", "pc2", "mapped", "ground_truth")
SWEEP_COLUMNS = ("resolution", "skipped", "classes", "tp_rate", "tn_rate")
# File name of each report the map stage writes, by the name `run` prints.
MAP_REPORTS = {"mapping": "mapping.csv", "pca": "pca.csv", "mapping_report": "mapping_report.json"}


@dataclass
class LoadedCorpus:
    store: SessionStore
    events: list[ClassEvent]
    rosters: dict[str, frozenset[str]]
    inventory: ApInventory | None
    truth_counts: dict[str, int] | None

    @property
    def events_by_id(self) -> dict[str, ClassEvent]:
        return {e.class_id: e for e in self.events}


def load_corpus(config: PipelineConfig) -> LoadedCorpus:
    sessions, _ = load_sessions(config.sessions, delimiter=config.delimiter)
    events, timetable_report = load_timetable(config.timetable, delimiter=config.delimiter)
    if timetable_report.rejects:
        first = timetable_report.rejects[0]
        raise DataValidationError(
            f"{config.timetable}: rejected row {first[0]}: {first[1]}"
        )
    rosters, _ = load_rosters(config.rosters, delimiter=config.delimiter)
    inventory = None
    if config.inventory:
        inventory, _ = load_inventory(config.inventory, delimiter=config.delimiter)
    truth = None
    if config.ground_truth_counts:
        truth = load_ground_truth_counts(config.ground_truth_counts, delimiter=config.delimiter)
    missing = [e.class_id for e in events if e.class_id not in rosters]
    if missing:
        raise DataValidationError(f"no roster for classes: {', '.join(sorted(missing)[:5])}")
    return LoadedCorpus(SessionStore(sessions), events, rosters, inventory, truth)


def map_stage(
    corpus: LoadedCorpus, config: PipelineConfig
) -> tuple[dict[str, mapping.MappingResult], dict[str, tuple[np.ndarray, list[str]]]]:
    """Mapping results and the clustered (feature matrix, AP names), by class id."""
    results, features = {}, {}
    for event in sorted(corpus.events, key=lambda e: e.class_id):
        results[event.class_id], features[event.class_id] = mapping.map_class_aps(
            corpus.store,
            event,
            corpus.rosters[event.class_id],
            resolution=config.resolution,
            resample_len=config.resample_len,
            algorithm=config.algorithm,
            seed=config.seed,
        )
    return results, features


def mapped_aps_for(
    event: ClassEvent,
    results: dict[str, mapping.MappingResult],
    corpus: LoadedCorpus,
    config: PipelineConfig,
) -> frozenset[str]:
    """Class AP set: the clustering's mapped set, or inventory room APs as fallback.

    A class without a mapping result maps no AP: `mapping.csv` holds no row
    for a class whose mapping featured no AP.
    """
    if config.use_room_aps:
        if corpus.inventory is None:
            raise DataValidationError("use_room_aps requires an inventory")
        return corpus.inventory.room_aps(event.room_id)
    result = results.get(event.class_id)
    return result.mapped if result is not None else frozenset()


def features_stage(
    corpus: LoadedCorpus,
    results: dict[str, mapping.MappingResult],
    config: PipelineConfig,
    class_ids: set[str] | None = None,
) -> dict[str, userfeatures.ClassFeatures]:
    """Labelled user features by class id, for every class or only `class_ids`."""
    features = {}
    for event in sorted(corpus.events, key=lambda e: e.class_id):
        if class_ids is not None and event.class_id not in class_ids:
            continue
        aps = mapped_aps_for(event, results, corpus, config)
        features[event.class_id] = userfeatures.extract_class_features(corpus.store, event, aps)
        userfeatures.label_vectors(features[event.class_id], corpus.rosters[event.class_id])
    return features


def train_stage(
    corpus: LoadedCorpus,
    features: dict[str, userfeatures.ClassFeatures],
    train_ids: set,
) -> tuple[model_mod.LdaModel, model_mod.CalibrationModel]:
    """Fit the classifier and calibration on the training classes, filling
    their missing RSSI in place with the training mean."""
    training = [features[cid] for cid in sorted(train_ids)]
    fill = userfeatures.impute_rssi(training)
    lda = model_mod.train_lda(training, rssi_fill=fill)
    if corpus.truth_counts is None:
        raise DataValidationError("training requires ground-truth counts")
    pairs = [
        (model_mod.count_occupants(lda, features[cid]), corpus.truth_counts[cid])
        for cid in sorted(train_ids)
        if cid in corpus.truth_counts
    ]
    calibration = model_mod.fit_calibration(pairs)
    return lda, calibration


def estimate_stage(
    corpus: LoadedCorpus,
    features: dict[str, userfeatures.ClassFeatures],
    lda: model_mod.LdaModel,
    calibration: model_mod.CalibrationModel,
) -> list[estimation.OccupancyEstimate]:
    userfeatures.impute_rssi(list(features.values()), lda.rssi_fill)
    estimates = []
    for event in sorted(corpus.events, key=lambda e: e.class_id):
        truth = None
        if corpus.truth_counts is not None:
            truth = corpus.truth_counts.get(event.class_id)
        estimates.append(
            estimation.estimate_class(
                event.class_id,
                event.room_id,
                features[event.class_id],
                corpus.rosters[event.class_id],
                lda,
                calibration,
                ground_truth=truth,
            )
        )
    return estimates


def write_mapping_csv(path, results: dict[str, mapping.MappingResult]) -> None:
    lines = (
        (class_id, ap, int(ap in result.mapped), f"{result.scores.get(ap, 0.0):.6f}")
        for class_id, result in sorted(results.items())
        for ap in sorted(result.featured)
    )
    write_rows(path, MAPPING_COLUMNS, lines)


def read_mapping_csv(path) -> dict[str, mapping.MappingResult]:
    results: dict[str, dict] = {}
    for line_no, fields in read_rows(path, ",", MAPPING_COLUMNS):
        _check_row(path, line_no, fields, MAPPING_COLUMNS)
        class_id, ap, flag, score = fields[:4]
        try:
            value = float(score)
        except ValueError:
            raise DataValidationError(
                f"{path}: line {line_no}: score {score!r} is not a number"
            ) from None
        entry = results.setdefault(class_id, {"mapped": set(), "not": set(), "scores": {}})
        (entry["mapped"] if flag == "1" else entry["not"]).add(ap)
        entry["scores"][ap] = value
    return {
        cid: mapping.MappingResult(
            cid, frozenset(e["mapped"]), frozenset(e["not"]), "file", e["scores"]
        )
        for cid, e in results.items()
    }


def write_pca_csv(
    path,
    corpus: LoadedCorpus,
    results: dict[str, mapping.MappingResult],
    features_by_class: dict[str, tuple[np.ndarray, list[str]]],
    config: PipelineConfig,
) -> None:
    """2-D projections of each class's clustered AP features, for plotting only."""

    def rows():
        for event in sorted(corpus.events, key=lambda e: e.class_id):
            matrix, ap_names = features_by_class.get(event.class_id, (None, []))
            if len(ap_names) < 2:
                continue
            mapped = results[event.class_id].mapped
            coords, _ = pca_project(matrix, components=2)
            positives = None
            if corpus.inventory is not None:
                positives = corpus.inventory.positives_for_room(
                    event.room_id, adjacency=config.adjacency
                )
            for ap, (x, y) in zip(ap_names, coords):
                truth_flag = None if positives is None else int(ap in positives)
                yield event.class_id, ap, f"{x:.6f}", f"{y:.6f}", int(ap in mapped), truth_flag

    write_rows(path, PCA_COLUMNS, rows())


def mapping_report(
    corpus: LoadedCorpus, results: dict[str, mapping.MappingResult], config: PipelineConfig
) -> dict:
    report: dict = {"algorithm": config.algorithm, "resolution": config.resolution}
    if corpus.inventory is None:
        report["note"] = "no inventory supplied; accuracy not evaluated"
        return report
    scored = mapping.evaluate_mapping(
        list(results.values()), corpus.inventory, corpus.events_by_id, adjacency=config.adjacency
    )
    per_ap = mapping.consistency(
        list(results.values()), corpus.inventory, corpus.events_by_id, adjacency=config.adjacency
    )
    report.update(
        {
            "tp_rate": round(scored.tp_rate, 6),
            "tn_rate": round(scored.tn_rate, 6),
            "counts": {"tp": scored.tp, "fn": scored.fn, "tn": scored.tn, "fp": scored.fp},
            "per_room": scored.per_room,
            "unevaluable": scored.unevaluable,
            "consistency": {ap: round(v, 6) for ap, v in per_ap.items()},
            "consistency_ccdf": [
                [t, round(f, 6)] for t, f in mapping.consistency_ccdf(per_ap)
            ],
        }
    )
    return report


def write_sweep_csv(path, rows: list[dict]) -> None:
    lines = (
        (row["resolution"], 1, 0, None, None)
        if row.get("skipped")
        else (row["resolution"], 0, row["classes"], f"{row['tp_rate']:.6f}", f"{row['tn_rate']:.6f}")
        for row in rows
    )
    write_rows(path, SWEEP_COLUMNS, lines)


def write_estimates_csv(path, estimates: list[estimation.OccupancyEstimate]) -> None:
    lines = (
        (e.class_id, e.room_id, e.wifi_count, e.enrolled_wifi_count, e.lda_count,
         e.calibrated_count, e.ground_truth)
        for e in sorted(estimates, key=lambda x: x.class_id)
    )
    write_rows(path, ESTIMATE_COLUMNS, lines)


def read_estimates_csv(path) -> list[estimation.OccupancyEstimate]:
    estimates = []
    for line_no, fields in read_rows(path, ",", ESTIMATE_COLUMNS):
        _check_row(path, line_no, fields, ESTIMATE_COLUMNS)
        try:
            wifi, enrolled, lda, calibrated = (int(f) for f in fields[2:6])
            truth = int(fields[6]) if fields[6] else None
        except ValueError:
            raise DataValidationError(
                f"{path}: line {line_no}: counts {fields[2:7]} are not all integers"
            ) from None
        estimates.append(
            estimation.OccupancyEstimate(
                class_id=fields[0],
                room_id=fields[1],
                wifi_count=wifi,
                enrolled_wifi_count=enrolled,
                lda_count=lda,
                calibrated_count=calibrated,
                ground_truth=truth,
            )
        )
    return estimates


def evaluate_estimates(estimates, seed: int, train_ratio: float) -> dict:
    """Method comparison on the seed-derived class split (reproducible across stages)."""
    train_ids, test_ids = estimation.split_classes(
        [e.class_id for e in estimates], train_ratio=train_ratio, seed=seed
    )
    report = estimation.method_comparison(estimates, train_ids, test_ids)
    report["seed"] = seed
    report["train_ratio"] = train_ratio
    for key, value in report["methods"].items():
        report["methods"][key] = round(value, 6)
    for row in report["by_occupancy_level"] + report["by_room"]:
        row["smape"] = round(row["smape"], 6)
        if "mean_occupancy" in row:
            row["mean_occupancy"] = round(row["mean_occupancy"], 6)
    return report


def write_map_reports(
    corpus: LoadedCorpus,
    results: dict[str, mapping.MappingResult],
    clustered: dict[str, tuple[np.ndarray, list[str]]],
    config: PipelineConfig,
) -> dict[str, str]:
    """Write the map stage's reports into the output directory; returns their paths by name."""
    paths = {name: os.path.join(config.output_dir, file) for name, file in MAP_REPORTS.items()}
    write_mapping_csv(paths["mapping"], results)
    write_pca_csv(paths["pca"], corpus, results, clustered, config)
    write_json(paths["mapping_report"], mapping_report(corpus, results, config))
    return paths


def write_json(path, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """load -> map -> features -> train -> estimate -> evaluate, writing all reports.

    Returns the paths of the written report files.
    """
    config.validate(require_truth=True)
    os.makedirs(config.output_dir, exist_ok=True)
    corpus = load_corpus(config)

    results, clustered = map_stage(corpus, config)
    features = features_stage(corpus, results, config)
    train_ids, _ = estimation.split_classes(
        [e.class_id for e in corpus.events], train_ratio=config.train_ratio, seed=config.seed
    )
    lda, calibration = train_stage(corpus, features, train_ids)
    estimates = estimate_stage(corpus, features, lda, calibration)
    evaluation = evaluate_estimates(estimates, config.seed, config.train_ratio)

    paths = write_map_reports(corpus, results, clustered, config)
    paths.update(
        model=os.path.join(config.output_dir, "model.txt"),
        estimates=os.path.join(config.output_dir, "estimates.csv"),
        evaluation=os.path.join(config.output_dir, "evaluation.json"),
    )
    model_mod.save_model(paths["model"], lda, calibration)
    write_estimates_csv(paths["estimates"], estimates)
    write_json(paths["evaluation"], evaluation)
    echo_config(os.path.join(config.output_dir, "config.txt"), config)
    return paths
