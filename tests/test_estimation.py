"""Per-class estimates, splitting and the four-method comparison."""
import pytest

from roomsense.estimation import (
    OccupancyEstimate,
    estimate_class,
    method_comparison,
    split_classes,
)
from roomsense.model import CalibrationModel, train_lda
from roomsense.records import DataValidationError

from test_model import features, make_corpus
import numpy as np


class TestSplitClasses:
    def test_deterministic_and_disjoint(self):
        ids = [f"c{i}" for i in range(20)]
        a_train, a_test = split_classes(ids, 0.7, seed=5)
        b_train, b_test = split_classes(list(reversed(ids)), 0.7, seed=5)
        assert a_train == b_train and a_test == b_test
        assert a_train | a_test == set(ids)
        assert not a_train & a_test
        assert len(a_train) == 14

    def test_different_seed_different_split(self):
        ids = [f"c{i}" for i in range(30)]
        a, _ = split_classes(ids, 0.7, seed=1)
        b, _ = split_classes(ids, 0.7, seed=2)
        assert a != b

    def test_empty_errors(self):
        with pytest.raises(DataValidationError):
            split_classes([], 0.7, seed=0)


class TestEstimateClass:
    def test_counts_and_invariants(self):
        rng = np.random.default_rng(22)
        model = train_lda([make_corpus(rng, 10, 10)])
        calib = CalibrationModel(slope=1.2, intercept=1.0)
        corpus = make_corpus(np.random.default_rng(23), 6, 4)
        enrolled = frozenset(u for u, flag in zip(corpus.users, corpus.occupant) if flag)
        roster = enrolled | {"absent"}
        est = estimate_class("c1", "room1", corpus, roster, model, calib, ground_truth=9)
        assert est.wifi_count == 10
        assert est.enrolled_wifi_count == 6
        assert est.enrolled_wifi_count <= est.wifi_count
        assert est.lda_count <= est.wifi_count
        assert est.calibrated_count >= 0
        assert est.calibrated_count == calib.predict(est.lda_count)

    def test_no_vectors(self):
        rng = np.random.default_rng(24)
        model = train_lda([make_corpus(rng, 5, 5)])
        est = estimate_class(
            "c1", "room1", features([]), frozenset(), model, CalibrationModel(1, 0)
        )
        assert est.wifi_count == est.enrolled_wifi_count == est.lda_count == 0


def synthetic_estimates(n=40, oracle=False, room_of=None):
    """Estimates where lda_count == truth exactly when oracle=True."""
    rng = np.random.default_rng(77)
    rows = []
    for i in range(n):
        truth = int(rng.integers(20, 400))
        lda = truth if oracle else max(0, int(truth * 0.8 + rng.normal(0, 6)))
        wifi = int(truth * 1.3 + rng.normal(0, 25))
        enrolled = int(truth * 0.9 + rng.normal(0, 12))
        rows.append(
            OccupancyEstimate(
                class_id=f"c{i:03d}",
                room_id=room_of(i) if room_of else f"room{i % 4 + 1}",
                wifi_count=max(0, wifi),
                enrolled_wifi_count=max(0, enrolled),
                lda_count=lda,
                calibrated_count=lda,
                ground_truth=truth,
            )
        )
    return rows


class TestMethodComparison:
    def test_oracle_corpus_scores_zero_for_lda_methods(self):
        rows = synthetic_estimates(oracle=True)
        train, test = split_classes([e.class_id for e in rows], 0.7, seed=0)
        report = method_comparison(rows, train, test)
        assert report["methods"]["lda"] == pytest.approx(0.0)
        assert report["methods"]["lda_lr"] == pytest.approx(0.0)
        assert report["methods"]["wifi_count_lr"] > 0

    def test_single_room_breakdown_single_row(self):
        rows = synthetic_estimates(room_of=lambda i: "theonlyroom")
        train, test = split_classes([e.class_id for e in rows], 0.7, seed=0)
        report = method_comparison(rows, train, test)
        assert [r["room_id"] for r in report["by_room"]] == ["theonlyroom"]

    def test_occupancy_level_bins_cover_test_rows(self):
        rows = synthetic_estimates()
        train, test = split_classes([e.class_id for e in rows], 0.7, seed=0)
        report = method_comparison(rows, train, test)
        assert sum(r["classes"] for r in report["by_occupancy_level"]) == len(test)
        assert report["train_classes"] + report["test_classes"] == len(rows)

    def test_empty_test_split_errors(self):
        rows = synthetic_estimates(n=10)
        ids = {e.class_id for e in rows}
        with pytest.raises(DataValidationError):
            method_comparison(rows, ids, set())

    def test_missing_ground_truth_rows_excluded(self):
        rows = synthetic_estimates(n=12)
        for e in rows[:3]:
            e.ground_truth = None
        train, test = split_classes([e.class_id for e in rows], 0.7, seed=0)
        report = method_comparison(rows, train, test)
        assert report["train_classes"] + report["test_classes"] == 9
