"""Training objective: glucose MSE plus a weighted patient-classification term.

The combined loss is  MSE(y, y_hat) + lam * CrossEntropy(patient, probs),
with natural-log cross-entropy over clamped probabilities. The adversarial
sign flip is not part of the loss value; it lives in the gradient path (see
``grad_reverse`` in the kernel and ``backward_with_reversal`` in the loop).
"""

from __future__ import annotations

import numpy as np

from ..kernel import tape as T

PROB_FLOOR = 1e-12


def cross_entropy(labels, probs):
    """Mean multi-class cross-entropy in nats; labels index probability rows."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    if probs.ndim != 2 or labels.shape != (probs.shape[0],):
        raise ValueError(f"need (B, K) probs and (B,) labels, got {probs.shape}, {labels.shape}")
    if np.any(np.abs(probs.sum(axis=1) - 1.0) > 1e-6):
        raise ValueError("class probability rows must sum to 1")
    if np.any(labels < 0) or np.any(labels >= probs.shape[1]):
        raise ValueError(f"class label out of range [0, {probs.shape[1]})")
    picked = probs[np.arange(probs.shape[0]), labels]
    return float(np.mean(-np.log(np.maximum(picked, PROB_FLOOR))))


def mse_node(tp, pred, y_true):
    """Graph node for the mean squared error of a (B,) prediction node."""
    diff = T.sub(pred, np.asarray(y_true, dtype=np.float64), tp)
    return T.mean_all(T.mul(diff, diff, tp), tp)


def cross_entropy_node(tp, probs, labels):
    """Graph node for the mean cross-entropy of a (B, K) probability node."""
    picked = T.gather_rows(probs, labels, tp)
    return T.neg(T.mean_all(T.log(T.clip_min(picked, PROB_FLOOR, tp), tp), tp), tp)
