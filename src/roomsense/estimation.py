"""Per-class occupancy estimates and the four-way method comparison.

The comparison scores, on a held-out class split:
  (a) linear regression on the raw WiFi user count,
  (b) linear regression on the enrolled WiFi user count,
  (c) the classifier's occupant count taken as-is, and
  (d) the classifier count passed through the calibration regression.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .metrics import smape
from .model import CalibrationModel, LdaModel, count_occupants, fit_calibration
from .records import DataValidationError
from .userfeatures import ClassFeatures

OCCUPANCY_BINS = ((0, 100), (101, 200), (201, 300), (301, 400), (401, 500), (501, None))


@dataclass
class OccupancyEstimate:
    """All counts produced for one class."""

    class_id: str
    room_id: str
    wifi_count: int
    enrolled_wifi_count: int
    lda_count: int
    calibrated_count: int
    ground_truth: int | None = None


def split_classes(class_ids, train_ratio: float = 0.7, seed: int = 0) -> tuple[set, set]:
    """Deterministic train/test split by class id.

    Depends only on the sorted id set, the ratio, and the seed, so separate
    pipeline stages derive the identical split.
    """
    ids = sorted(class_ids)
    if not ids:
        raise DataValidationError("no classes to split")
    rng = random.Random(seed)
    shuffled = rng.sample(ids, len(ids))
    n_train = round(train_ratio * len(ids))
    train = set(shuffled[:n_train])
    return train, set(ids) - train


def estimate_class(
    class_id: str,
    room_id: str,
    features: ClassFeatures,
    enrolled: frozenset[str],
    model: LdaModel,
    calibration: CalibrationModel,
    ground_truth: int | None = None,
) -> OccupancyEstimate:
    lda_count = count_occupants(model, features)
    return OccupancyEstimate(
        class_id=class_id,
        room_id=room_id,
        wifi_count=len(features.users),
        enrolled_wifi_count=len(enrolled.intersection(features.users)),
        lda_count=lda_count,
        calibrated_count=calibration.predict(lda_count),
        ground_truth=ground_truth,
    )


def _fit_and_score(train_pairs, test_pairs) -> float:
    model = fit_calibration(train_pairs)
    forecasts = [model.predict(x) for x, _ in test_pairs]
    actuals = [y for _, y in test_pairs]
    return smape(forecasts, actuals)


def method_comparison(
    estimates: list[OccupancyEstimate],
    train_ids: set,
    test_ids: set,
) -> dict:
    """sMAPE per method, plus per-occupancy-level and per-room breakdowns.

    Regressions for methods (a), (b) and (d) are fitted on the training
    classes and all four methods are scored on the test classes.
    """
    with_truth = [e for e in estimates if e.ground_truth is not None]
    train = [e for e in with_truth if e.class_id in train_ids]
    test = [e for e in with_truth if e.class_id in test_ids]
    if not test:
        raise DataValidationError("empty test split")
    if len(train) < 2:
        raise DataValidationError("need at least 2 training classes with ground truth")

    methods = {
        "wifi_count_lr": _fit_and_score(
            [(e.wifi_count, e.ground_truth) for e in train],
            [(e.wifi_count, e.ground_truth) for e in test],
        ),
        "enrolled_count_lr": _fit_and_score(
            [(e.enrolled_wifi_count, e.ground_truth) for e in train],
            [(e.enrolled_wifi_count, e.ground_truth) for e in test],
        ),
        "lda": smape([e.lda_count for e in test], [e.ground_truth for e in test]),
        "lda_lr": _fit_and_score(
            [(e.lda_count, e.ground_truth) for e in train],
            [(e.lda_count, e.ground_truth) for e in test],
        ),
    }

    # breakdowns use the full method (d): calibration refitted on train
    calibration = fit_calibration([(e.lda_count, e.ground_truth) for e in train])
    by_level = []
    for lo, hi in OCCUPANCY_BINS:
        rows = [e for e in test if e.ground_truth >= lo and (hi is None or e.ground_truth <= hi)]
        if not rows:
            continue
        by_level.append(
            {
                "level": f"{lo}-{hi}" if hi is not None else f"{lo}+",
                "classes": len(rows),
                "smape": smape(
                    [calibration.predict(e.lda_count) for e in rows],
                    [e.ground_truth for e in rows],
                ),
            }
        )
    by_room = []
    for room in sorted({e.room_id for e in test}):
        rows = [e for e in test if e.room_id == room]
        by_room.append(
            {
                "room_id": room,
                "classes": len(rows),
                "mean_occupancy": sum(e.ground_truth for e in rows) / len(rows),
                "smape": smape(
                    [calibration.predict(e.lda_count) for e in rows],
                    [e.ground_truth for e in rows],
                ),
            }
        )
    return {
        "methods": methods,
        "by_occupancy_level": by_level,
        "by_room": by_room,
        "train_classes": len(train),
        "test_classes": len(test),
    }
