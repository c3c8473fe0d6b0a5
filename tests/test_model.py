"""Feature ranking, the discriminant classifier and count calibration."""
import math

import numpy as np
import pytest

from roomsense.model import (
    CalibrationModel,
    fit_calibration,
    count_occupants,
    load_model,
    predict_lda,
    rank_features,
    save_model,
    train_lda,
)
from roomsense.records import BYSTANDER, OCCUPANT, DataValidationError, NumericalError
from roomsense.userfeatures import ClassFeatures


def vec(user, label, t_in=50, t_out=5, delay=10, sessions=2, devices=1, rssi=60):
    """One featured user: (name, occupant flag, feature row)."""
    return user, label == OCCUPANT, [t_in, t_out, delay, sessions, devices, rssi]


def features(vectors) -> ClassFeatures:
    """A class whose featured users are the given `vec`s, in order."""
    users, occupant, rows = zip(*vectors) if vectors else ((), (), ())
    return ClassFeatures(
        list(users), np.array(rows, dtype=float).reshape(-1, 6), np.array(occupant, dtype=bool)
    )


def row(**feature_values) -> np.ndarray:
    return features([vec("x", None, **feature_values)]).matrix


def make_corpus(rng, n_occ=12, n_bys=12):
    vectors = []
    for i in range(n_occ):
        vectors.append(
            vec(
                f"o{i}",
                OCCUPANT,
                t_in=rng.normal(85, 8),
                t_out=rng.normal(4, 2),
                delay=abs(rng.normal(10, 6)),
                sessions=int(rng.integers(1, 5)),
                devices=int(rng.integers(1, 4)),
                rssi=rng.normal(59, 5),
            )
        )
    for i in range(n_bys):
        vectors.append(
            vec(
                f"b{i}",
                BYSTANDER,
                t_in=rng.normal(20, 10),
                t_out=rng.normal(25, 8),
                delay=abs(rng.normal(40, 20)),
                sessions=1,
                devices=1,
                rssi=rng.normal(66, 5),
            )
        )
    return features(vectors)


class TestRankFeatures:
    def test_hand_computed_anova(self):
        # single informative feature: occupants t_in {1,2,3,4}, bystanders {5,6,7,8}
        vectors = [vec(f"o{i}", OCCUPANT, t_in=i + 1) for i in range(4)]
        vectors += [vec(f"b{i}", BYSTANDER, t_in=i + 5) for i in range(4)]
        scores = dict(rank_features([features(vectors)]))
        # SSB = 4*(2.5-4.5)^2 + 4*(6.5-4.5)^2 = 32; SSW = 5 + 5 = 10; F = 32/(10/6)
        assert scores["t_in"] == pytest.approx(19.2)

    def test_constant_feature_scores_zero(self):
        vectors = [vec(f"o{i}", OCCUPANT) for i in range(3)]
        vectors += [vec(f"b{i}", BYSTANDER) for i in range(3)]
        scores = dict(rank_features([features(vectors)]))
        assert scores["avg_rssi"] == 0.0

    def test_zero_within_variance_ranks_first_as_infinity(self):
        vectors = [vec(f"o{i}", OCCUPANT, t_in=0) for i in range(2)]
        vectors += [vec(f"b{i}", BYSTANDER, t_in=1) for i in range(2)]
        ranked = rank_features([features(vectors)])
        assert ranked[0][0] == "t_in" and math.isinf(ranked[0][1])

    def test_missing_label_errors(self):
        vectors = [vec(f"o{i}", OCCUPANT) for i in range(4)]
        with pytest.raises(DataValidationError):
            rank_features([features(vectors)])

    def test_descending_order(self):
        rng = np.random.default_rng(0)
        ranked = rank_features([make_corpus(rng)])
        values = [f for _, f in ranked]
        assert values == sorted(values, reverse=True)


class TestTrainLda:
    def test_model_matches_direct_computation(self):
        rng = np.random.default_rng(42)
        corpus = make_corpus(rng, 6, 6)
        model = train_lda([corpus])
        X = corpus.matrix
        occ, bys = X[:6], X[6:]
        assert np.allclose(model.mean_occupant, occ.mean(axis=0))
        assert np.allclose(model.mean_bystander, bys.mean(axis=0))
        pooled = (
            (occ - occ.mean(axis=0)).T @ (occ - occ.mean(axis=0))
            + (bys - bys.mean(axis=0)).T @ (bys - bys.mean(axis=0))
        ) / (len(X) - 2)
        reg = 1e-6 * pooled.trace() / 6 * np.eye(6)
        assert np.allclose(model.covariance, pooled + reg, atol=1e-12)
        assert model.prior_occupant == pytest.approx(0.5)

    def test_duplicated_dataset_same_parameters(self):
        rng = np.random.default_rng(1)
        corpus = make_corpus(rng, 8, 8)
        a = train_lda([corpus])
        b = train_lda([corpus, corpus])
        assert np.allclose(a.mean_occupant, b.mean_occupant)
        assert np.allclose(a.mean_bystander, b.mean_bystander)
        # pooled covariance uses n-2: duplicated data halves the denominator gap
        assert np.allclose(a.covariance, b.covariance, rtol=0.12)
        assert a.prior_occupant == pytest.approx(b.prior_occupant)

    def test_needs_both_labels(self):
        vectors = [vec(f"o{i}", OCCUPANT) for i in range(4)]
        with pytest.raises(DataValidationError):
            train_lda([features(vectors)])

    def test_all_constant_features_numerical_error_names_feature(self):
        vectors = [vec(f"o{i}", OCCUPANT) for i in range(3)]
        vectors += [vec(f"b{i}", BYSTANDER) for i in range(3)]
        with pytest.raises(NumericalError, match="t_in"):
            train_lda([features(vectors)])


class TestPredictLda:
    def test_12_sample_oracle_direct_discriminant(self):
        rng = np.random.default_rng(7)
        model = train_lda([make_corpus(rng, 6, 6)])
        X = make_corpus(np.random.default_rng(99), 5, 5).matrix
        labels, scores = predict_lda(model, X)

        # independent evaluation: explicit inverse and per-row arithmetic
        inv = np.linalg.inv(model.covariance)
        for i, row in enumerate(X):
            d_occ = (
                row @ inv @ model.mean_occupant
                - 0.5 * model.mean_occupant @ inv @ model.mean_occupant
                + math.log(model.prior_occupant)
            )
            d_bys = (
                row @ inv @ model.mean_bystander
                - 0.5 * model.mean_bystander @ inv @ model.mean_bystander
                + math.log(model.prior_bystander)
            )
            assert scores[i, 0] == pytest.approx(d_occ, rel=1e-9)
            assert scores[i, 1] == pytest.approx(d_bys, rel=1e-9)
            assert labels[i] == (OCCUPANT if d_occ > d_bys else BYSTANDER)

    def test_class_mean_classified_to_own_class(self):
        rng = np.random.default_rng(3)
        model = train_lda([make_corpus(rng, 10, 10)])
        labels, _ = predict_lda(model, [model.mean_occupant])
        assert labels == [OCCUPANT]

    def test_prior_dominates_when_means_equal(self):
        base = [vec(f"o{i}", OCCUPANT, t_in=50 + (i % 2)) for i in range(9)]
        base += [vec(f"b{i}", BYSTANDER, t_in=50 + (i % 2)) for i in range(1)]
        # force both labels to share feature distribution but unbalanced priors
        base += [vec("b9", BYSTANDER, t_in=51)]
        model = train_lda([features(base)])
        labels, _ = predict_lda(model, row())
        assert labels == [OCCUPANT]

    def test_exact_tie_goes_to_bystander(self):
        model = train_lda(
            [
                features(
                    [vec("o1", OCCUPANT, t_in=40), vec("o2", OCCUPANT, t_in=60)]
                    + [vec("b1", BYSTANDER, t_in=40), vec("b2", BYSTANDER, t_in=60)]
                )
            ]
        )
        # identical class distributions and priors: every point is an exact tie
        labels, scores = predict_lda(model, row(t_in=50))
        assert scores[0, 0] == pytest.approx(scores[0, 1])
        assert labels == [BYSTANDER]

    def test_training_set_confusion_is_deterministic(self):
        rng = np.random.default_rng(31)
        train = make_corpus(rng, 20, 20)
        model = train_lda([train])
        X = train.matrix
        labels, _ = predict_lda(model, X)
        truths = [OCCUPANT if flag else BYSTANDER for flag in train.occupant]
        confusion = set(zip(truths, labels))
        counts = {}
        for truth, predicted in zip(truths, labels):
            counts[(truth, predicted)] = counts.get((truth, predicted), 0) + 1
        again, _ = predict_lda(train_lda([train]), X)
        assert labels == again
        # separable fixture: the classifier reproduces the labels exactly
        assert counts == {(OCCUPANT, OCCUPANT): 20, (BYSTANDER, BYSTANDER): 20}
        assert confusion == {(OCCUPANT, OCCUPANT), (BYSTANDER, BYSTANDER)}

    def test_affine_invariance_of_labels(self):
        rng = np.random.default_rng(11)
        train = make_corpus(rng, 15, 15)
        test = make_corpus(np.random.default_rng(12), 10, 10)
        X_test = test.matrix

        model = train_lda([train])
        labels, scores = predict_lda(model, X_test)
        margins = np.abs(scores[:, 0] - scores[:, 1])

        A = np.diag([0.5, 2.0, 1.5, 0.8, 1.2, 0.6]) @ rng.normal(0, 1, (6, 6))
        assert abs(np.linalg.det(A)) > 1e-6
        b = rng.normal(0, 5, 6)

        transformed = ClassFeatures(train.users, train.matrix @ A.T + b, train.occupant)
        model_t = train_lda([transformed])
        labels_t, _ = predict_lda(model_t, X_test @ A.T + b)
        for lab, lab_t, margin in zip(labels, labels_t, margins):
            if margin > 1e-8:
                assert lab == lab_t


class TestCalibration:
    def test_identity_pairs(self):
        model = fit_calibration([(10, 10), (20, 20)])
        assert model.slope == pytest.approx(1.0)
        assert model.intercept == pytest.approx(0.0)

    def test_double_pairs(self):
        model = fit_calibration([(10, 20), (20, 40)])
        assert model.slope == pytest.approx(2.0)
        assert model.intercept == pytest.approx(0.0)

    def test_planted_slope_recovery(self):
        rng = np.random.default_rng(50)
        xs = rng.uniform(5, 80, 50)
        ys = 1.22 * xs + 4.0 + rng.normal(0, 3, 50)
        model = fit_calibration(list(zip(xs, ys)))
        assert model.slope == pytest.approx(1.22, abs=0.1)

    def test_normal_equation_residuals(self):
        rng = np.random.default_rng(51)
        xs = rng.uniform(0, 100, 40)
        ys = 0.8 * xs + 12 + rng.normal(0, 5, 40)
        model = fit_calibration(list(zip(xs, ys)))
        residuals = ys - (model.slope * xs + model.intercept)
        scale = np.abs(ys).sum()
        assert abs(residuals.sum()) / scale < 1e-8
        assert abs((residuals * xs).sum()) / (scale * np.abs(xs).max()) < 1e-8

    def test_identical_inputs_error(self):
        with pytest.raises(DataValidationError):
            fit_calibration([(5, 10), (5, 20), (5, 30)])

    def test_too_few_pairs_error(self):
        with pytest.raises(DataValidationError):
            fit_calibration([(5, 10)])

    def test_prediction_rounds_half_up_and_clamps(self):
        model = CalibrationModel(slope=1.0, intercept=0.5)
        assert model.predict(10) == 11  # 10.5 rounds up
        negative = CalibrationModel(slope=1.0, intercept=-100.0)
        assert negative.predict(3) == 0


class TestCountAndModelFile:
    def test_count_occupants_matches_hand_recount(self):
        rng = np.random.default_rng(13)
        model = train_lda([make_corpus(rng, 10, 10)])
        mixed = make_corpus(np.random.default_rng(14), 7, 9)
        labels, _ = predict_lda(model, mixed.matrix)
        expected = sum(1 for lab in labels if lab == OCCUPANT)
        assert count_occupants(model, mixed) == expected

    def test_count_empty_and_all_bystanders(self):
        rng = np.random.default_rng(15)
        model = train_lda([make_corpus(rng, 8, 8)])
        assert count_occupants(model, features([])) == 0
        far_bystanders = [
            vec(f"b{i}", None, t_in=1, t_out=45, delay=100, rssi=75) for i in range(5)
        ]
        assert count_occupants(model, features(far_bystanders)) == 0

    def test_model_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(16)
        model = train_lda([make_corpus(rng, 6, 6)], rssi_fill=61.25)
        calib = CalibrationModel(slope=1.3125, intercept=-2.5)
        path = tmp_path / "model.txt"
        save_model(path, model, calib)
        loaded, calib2 = load_model(path)
        assert np.array_equal(loaded.mean_occupant, model.mean_occupant)
        assert np.array_equal(loaded.covariance, model.covariance)
        assert loaded.prior_occupant == model.prior_occupant
        assert loaded.rssi_fill == 61.25
        assert (calib2.slope, calib2.intercept) == (1.3125, -2.5)

    def test_model_file_text_format(self, tmp_path):
        rng = np.random.default_rng(17)
        model = train_lda([make_corpus(rng, 6, 6)])
        save_model(tmp_path / "m.txt", model, CalibrationModel(1.0, 0.0))
        text = (tmp_path / "m.txt").read_text()
        for key in ("features", "mean_occupant", "covariance_0", "prior_occupant", "slope"):
            assert f"{key} = " in text or text.startswith(f"{key} =")

    def test_missing_key_rejected(self, tmp_path):
        (tmp_path / "bad.txt").write_text("slope = 1.0\n")
        with pytest.raises(DataValidationError):
            load_model(tmp_path / "bad.txt")
