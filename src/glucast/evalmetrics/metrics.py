"""Post-processing and statistical accuracy metrics.

Predictions emerge from the model standardized and in sample order, which
is target-time order; before any evaluation they and the reference readings
are rescaled to mg/dL into one prediction series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PredictionSeries:
    """Reference and predicted glucose paired on an ordered time axis."""

    t: np.ndarray        # datetime64[m], strictly increasing
    y_true: np.ndarray   # mg/dL
    y_pred: np.ndarray   # mg/dL

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype="datetime64[m]")
        self.y_true = np.asarray(self.y_true, dtype=np.float64)
        self.y_pred = np.asarray(self.y_pred, dtype=np.float64)
        n = self.t.shape[0]
        if self.y_true.shape != (n,) or self.y_pred.shape != (n,):
            raise ValueError("prediction series columns have inconsistent lengths")
        if n > 1 and not np.all(np.diff(self.t).astype(np.int64) > 0):
            raise ValueError("prediction series timestamps must be increasing")
        if not (np.all(self.y_true > 0) and np.all(self.y_pred > 0)):  # NaN too
            raise ValueError("glucose values must be positive numbers")

    def __len__(self):
        return self.t.shape[0]


def reconstruct(t, y_std, pred_std, scaling) -> PredictionSeries:
    """The series of targets ``y_std`` and predictions ``pred_std``, both
    standardized and aligned row by row with the target times ``t`` (already
    in increasing order), rescaled to mg/dL."""
    return PredictionSeries(t, scaling.invert_target(y_std),
                            scaling.invert_target(pred_std))


def rmse(series: PredictionSeries) -> float:
    if len(series) == 0:
        raise ValueError("rmse of an empty series")
    return float(np.sqrt(np.mean((series.y_pred - series.y_true) ** 2)))


def mape(series: PredictionSeries) -> float:
    """Mean absolute percentage error, in percent."""
    if len(series) == 0:
        raise ValueError("mape of an empty series")
    return float(np.mean(np.abs(series.y_pred - series.y_true) / series.y_true) * 100.0)


def rates(series: PredictionSeries):
    """Per-step change rates in mg/dL/min for both series.

    Uses the actual timestamp difference of each consecutive pair; the first
    point carries no rate and is excluded from clinical classification.
    """
    if len(series) < 2:
        raise ValueError("rates need at least 2 points")
    dt = np.diff(series.t).astype(np.int64).astype(np.float64)  # minutes
    rate_true = np.diff(series.y_true) / dt
    rate_pred = np.diff(series.y_pred) / dt
    return rate_true, rate_pred
