"""Forecast-error metrics."""
from __future__ import annotations

import numpy as np

from .records import DataValidationError


def smape(forecasts, actuals) -> float:
    """Symmetric mean absolute percentage error, in [0, 100].

    Each term is |F - A| / (|F| + |A|); a (0, 0) pair contributes 0, the
    natural continuous extension.
    """
    F = np.asarray(forecasts, dtype=float)
    A = np.asarray(actuals, dtype=float)
    if F.shape != A.shape or F.ndim != 1 or F.size == 0:
        raise DataValidationError("smape needs two equal-length non-empty series")
    denom = np.abs(F) + np.abs(A)
    terms = np.where(denom > 0, np.abs(F - A) / np.where(denom > 0, denom, 1.0), 0.0)
    return float(100.0 * terms.mean())

