"""Occupant/bystander classification and count calibration.

The classifier is linear discriminant analysis over the six user features;
the calibration step is a univariate least-squares fit from the classifier's
per-class occupant count to ground-truth occupancy, compensating for
occupants who never appear in WiFi.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .records import BYSTANDER, OCCUPANT, DataValidationError, NumericalError
from .store import read_key_values, write_key_values
from .userfeatures import FEATURE_NAMES, ClassFeatures, stack

LDA_REGULARIZER = 1e-6


def rank_features(
    features: list[ClassFeatures], feature_names=FEATURE_NAMES
) -> list[tuple[str, float]]:
    """Features ordered by one-way ANOVA F-statistic (descending).

    A feature with zero within-group variance but distinct group means gets an
    infinite F and ranks first; a feature identical everywhere scores 0.
    """
    X, y = _design(features)
    n = len(y)
    groups = [X[y == 0], X[y == 1]]
    if any(g.shape[0] < 2 for g in groups):
        raise DataValidationError("F-test needs at least 2 samples per label")
    grand = X.mean(axis=0)
    between = sum(g.shape[0] * (g.mean(axis=0) - grand) ** 2 for g in groups)
    within = sum(((g - g.mean(axis=0)) ** 2).sum(axis=0) for g in groups)
    scores = []
    for j, name in enumerate(feature_names):
        if within[j] <= 0:
            f = math.inf if between[j] > 0 else 0.0
        else:
            f = float((between[j] / 1.0) / (within[j] / (n - 2)))
        scores.append((name, f))
    return sorted(scores, key=lambda item: -item[1])


@dataclass
class LdaModel:
    """Gaussian LDA with pooled within-class covariance."""

    mean_occupant: np.ndarray
    mean_bystander: np.ndarray
    covariance: np.ndarray
    prior_occupant: float
    prior_bystander: float
    rssi_fill: float = 0.0

    @cached_property
    def _weights(self) -> tuple[np.ndarray, np.ndarray]:
        """S^-1 mu_k for both classes, solved once per model."""
        try:
            return (
                np.linalg.solve(self.covariance, self.mean_occupant),
                np.linalg.solve(self.covariance, self.mean_bystander),
            )
        except np.linalg.LinAlgError as exc:
            raise NumericalError("singular pooled covariance") from exc

    def discriminants(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """delta_k(x) = x' S^-1 mu_k - mu_k' S^-1 mu_k / 2 + ln pi_k for both classes."""
        X = np.atleast_2d(X)
        a_occ, a_bys = self._weights
        d_occ = X @ a_occ - 0.5 * self.mean_occupant @ a_occ + math.log(self.prior_occupant)
        d_bys = X @ a_bys - 0.5 * self.mean_bystander @ a_bys + math.log(self.prior_bystander)
        return d_occ, d_bys


def _design(features: list[ClassFeatures]) -> tuple[np.ndarray, np.ndarray]:
    X, occupant = stack(features)
    if not len(X):
        raise DataValidationError("no feature vectors")
    y = occupant.astype(int)
    if y.min() == y.max():
        raise DataValidationError("both occupant and bystander samples are required")
    return X, y


def train_lda(features: list[ClassFeatures], rssi_fill: float = 0.0) -> LdaModel:
    """Fit class means, pooled covariance (regularized) and priors."""
    X, y = _design(features)
    occ, bys = X[y == 1], X[y == 0]
    if occ.shape[0] < 2 or bys.shape[0] < 2:
        raise DataValidationError("need at least 2 samples in each class")
    n = X.shape[0]
    mu_occ, mu_bys = occ.mean(axis=0), bys.mean(axis=0)
    scatter = (occ - mu_occ).T @ (occ - mu_occ) + (bys - mu_bys).T @ (bys - mu_bys)
    cov = scatter / (n - 2)
    cov = cov + LDA_REGULARIZER * float(np.mean(np.diag(cov))) * np.eye(cov.shape[0])
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        flat = np.diag(cov)
        worst = FEATURE_NAMES[int(np.argmin(flat))]
        raise NumericalError(
            f"pooled covariance singular after regularization; feature {worst!r} "
            "has (near-)zero variance"
        ) from exc
    return LdaModel(
        mean_occupant=mu_occ,
        mean_bystander=mu_bys,
        covariance=cov,
        prior_occupant=occ.shape[0] / n,
        prior_bystander=bys.shape[0] / n,
        rssi_fill=rssi_fill,
    )


def predict_lda(model: LdaModel, X) -> tuple[list[str], np.ndarray]:
    """Labels plus the (occupant, bystander) discriminant scores per row.

    An exact tie goes to bystander, which never inflates the occupancy count.
    """
    d_occ, d_bys = model.discriminants(np.atleast_2d(np.asarray(X, dtype=float)))
    labels = [OCCUPANT if o > b else BYSTANDER for o, b in zip(d_occ, d_bys)]
    return labels, np.column_stack([d_occ, d_bys])


def count_occupants(model: LdaModel, features: ClassFeatures) -> int:
    """Featured users (one row each) the classifier calls occupants."""
    if not len(features):
        return 0
    labels, _ = predict_lda(model, features.matrix)
    return labels.count(OCCUPANT)


@dataclass
class CalibrationModel:
    """Univariate least squares from classifier count to true occupancy."""

    slope: float
    intercept: float

    def predict(self, x: float) -> int:
        """Round half-up to whole persons, clamped at zero."""
        return max(0, int(math.floor(self.slope * x + self.intercept + 0.5)))


def fit_calibration(pairs: list[tuple[float, float]]) -> CalibrationModel:
    """Ordinary least squares on (classifier count, ground truth) pairs."""
    if len(pairs) < 2:
        raise DataValidationError("calibration needs at least 2 pairs")
    xs = np.array([p[0] for p in pairs], dtype=float)
    ys = np.array([p[1] for p in pairs], dtype=float)
    var = float(((xs - xs.mean()) ** 2).sum())
    if var == 0:
        raise DataValidationError("all classifier counts identical; slope unidentifiable")
    slope = float(((xs - xs.mean()) * (ys - ys.mean())).sum()) / var
    intercept = float(ys.mean() - slope * xs.mean())
    return CalibrationModel(slope, intercept)


def save_model(path, model: LdaModel, calibration: CalibrationModel) -> None:
    """Plain-text key/value model file covering classifier and calibration."""
    numbers = {
        "mean_occupant": model.mean_occupant,
        "mean_bystander": model.mean_bystander,
        **{f"covariance_{i}": row for i, row in enumerate(model.covariance)},
        "prior_occupant": [model.prior_occupant],
        "prior_bystander": [model.prior_bystander],
        "rssi_fill": [model.rssi_fill],
        "slope": [calibration.slope],
        "intercept": [calibration.intercept],
    }
    pairs = [("features", " ".join(FEATURE_NAMES))]
    pairs += [(key, " ".join(repr(float(v)) for v in values)) for key, values in numbers.items()]
    write_key_values(path, pairs, comment="roomsense occupancy model")


def load_model(path) -> tuple[LdaModel, CalibrationModel]:
    """Read a `save_model` file; an unreadable file, a line without `=`, a
    missing key, a malformed value or a shape that does not fit
    `FEATURE_NAMES` is a `DataValidationError` naming the line."""
    values = read_key_values(path, DataValidationError)

    def entry(key):
        if key not in values:
            raise DataValidationError(f"model file {path} missing key {key!r}")
        return values[key]

    def vec(key, length):
        line_no, text = entry(key)
        try:
            out = np.array([float(v) for v in text.split()])
        except ValueError:
            raise DataValidationError(f"{path}: line {line_no}: {key} is not numeric: {text!r}") from None
        if out.size != length:
            raise DataValidationError(
                f"{path}: line {line_no}: {key} has {out.size} values, expected {length}"
            )
        if not np.isfinite(out).all():
            raise DataValidationError(f"{path}: line {line_no}: {key} is not finite: {text!r}")
        return out

    def number(key):
        return float(vec(key, 1)[0])

    line_no, names = entry("features")
    if names.split() != list(FEATURE_NAMES):
        raise DataValidationError(
            f"{path}: line {line_no}: features {names!r} are not {' '.join(FEATURE_NAMES)!r}"
        )
    dim = len(FEATURE_NAMES)
    model = LdaModel(
        mean_occupant=vec("mean_occupant", dim),
        mean_bystander=vec("mean_bystander", dim),
        covariance=np.array([vec(f"covariance_{i}", dim) for i in range(dim)]),
        prior_occupant=number("prior_occupant"),
        prior_bystander=number("prior_bystander"),
        rssi_fill=number("rssi_fill"),
    )
    for key in ("prior_occupant", "prior_bystander"):
        if not getattr(model, key) > 0:
            raise DataValidationError(f"{path}: line {entry(key)[0]}: {key} must be positive")
    return model, CalibrationModel(number("slope"), number("intercept"))
