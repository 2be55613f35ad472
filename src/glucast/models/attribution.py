"""Exact per-input contribution of each (timestep, variable) to a prediction.

Because the embedding and the readout are linear, the prediction rewrites as

    y_hat = sum_{i,j} a_i * out_w . (b_i * embed_w[:, j]) * x[i, j] + out_b

where a_i is the temporal weight and b_i the per-feature weight vector of
timestep i. The summand is the contribution of input x[i, j]; the factor in
front of x[i, j] is its contribution coefficient. The absolute normalized
variant rescales |contribution| to sum to 1 over the window, which makes
attributions comparable across samples of different prediction amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConsistencyError, DegenerateAttributionError, DimensionError
from .retain import ForwardTrace, first_bad_window

RECONSTRUCTION_RTOL = 1e-6


@dataclass
class ContributionMap:
    """Additive decomposition of one prediction over its input window, or of
    a batch of predictions with a leading batch axis."""

    contribution: np.ndarray  # (..., L, r), sums with bias to y_hat
    coefficients: np.ndarray  # (..., L, r), contribution without the input factor
    bias: float


def contributions(x, trace: ForwardTrace, params: dict) -> ContributionMap:
    """Decompose trace.y_hat into per-input contributions for window x, or
    for every window of a (B, L, r) batch and its batch trace; ``params`` is
    the retain model's flat parameter dict."""
    x = np.asarray(x, dtype=np.float64)
    embed_w, out_w = params["embed_w"], params["out_w"]
    m, r = embed_w.shape
    lead = trace.temporal_weights.shape[:-1]
    seq_len = trace.temporal_weights.shape[-1]
    if x.shape != (*lead, seq_len, r):
        raise ConsistencyError(
            f"window shape {x.shape} does not match trace/params "
            f"{(*lead, seq_len, r)}")
    if trace.variable_weights.shape != (*lead, seq_len, m) or out_w.shape != (m,):
        raise ConsistencyError("trace shapes do not match params; stale trace?")

    coeff = np.einsum("...l,...lm,mr->...lr", trace.temporal_weights,
                      trace.variable_weights * out_w, embed_w)
    omega = coeff * x
    cmap = ContributionMap(contribution=omega, coefficients=coeff,
                           bias=float(params["out_b"]))

    recon = omega.sum(axis=(-2, -1)) + cmap.bias
    y_hat = np.asarray(trace.y_hat)
    bad = np.abs(recon - y_hat) > RECONSTRUCTION_RTOL * np.maximum(1.0, np.abs(y_hat))
    if bad.any():
        i = np.flatnonzero(bad)[0] if bad.ndim else ()
        raise ConsistencyError(
            f"contributions do not reconstruct the prediction{first_bad_window(bad)} "
            f"({recon[i]} vs {y_hat[i]}); stale trace?")
    return cmap


def normalized_contributions(cmap: ContributionMap) -> np.ndarray:
    """Absolute contributions rescaled to sum to 1 over each window."""
    magnitude = np.abs(cmap.contribution)
    total = magnitude.sum(axis=(-2, -1), keepdims=True)
    zero = total[..., 0, 0] == 0.0
    if zero.any():
        raise DegenerateAttributionError(
            f"all contributions are zero{first_bad_window(zero)}; normalized "
            "attribution is undefined")
    return magnitude / total


def aggregate_attributions(samples, mode) -> np.ndarray:
    """Elementwise mean or max of normalized attribution matrices."""
    if len(samples) == 0:
        raise ValueError("cannot aggregate an empty list of attributions")
    stack = np.asarray(samples, dtype=np.float64)
    if mode == "mean":
        return stack.mean(axis=0)
    if mode == "max":
        return stack.max(axis=0)
    raise ValueError(f"unknown aggregation mode {mode!r} (use 'mean' or 'max')")


@dataclass
class EventAttributionProfile:
    """Mean attribution keyed by how long ago an event entered the window."""

    offsets_minutes: list  # ascending, step = sampling period
    counts: list           # samples with an event at exactly that offset
    means: list            # (L, r) mean attribution per offset, None when count 0
    total_events: int


def event_conditioned_attributions(event_mask, attributions, horizon_after_minutes,
                                   period_minutes) -> EventAttributionProfile:
    """Average attributions over samples grouped by event recency.

    event_mask: (N, L) booleans, True where the event variable fires at that
    window position. Offset o minutes before the window end corresponds to
    window row L-1-o/period. A window with several events is counted at each
    of its offsets. Returns an empty profile when no events exist at all.
    """
    mask = np.asarray(event_mask, dtype=bool)
    att = np.asarray(attributions, dtype=np.float64)
    if mask.shape[0] != att.shape[0] or mask.shape[1] != att.shape[1]:
        raise DimensionError(
            f"event mask {mask.shape} does not align with attributions {att.shape[:2]}")
    if not mask.any():
        return EventAttributionProfile([], [], [], total_events=0)

    seq_len = mask.shape[1]
    offsets, counts, means = [], [], []
    for offset in range(0, horizon_after_minutes + 1, period_minutes):
        row = seq_len - 1 - offset // period_minutes
        if row < 0:
            break
        hit = mask[:, row]
        offsets.append(offset)
        counts.append(int(hit.sum()))
        means.append(att[hit].mean(axis=0) if hit.any() else None)
    return EventAttributionProfile(offsets, counts, means,
                                   total_events=int(mask.sum()))


def event_mask_from_windows(x_std, scaling, var_index, threshold=1e-9) -> np.ndarray:
    """Locate events in standardized windows by undoing the ``Scaling``."""
    return scaling.invert_inputs(x_std)[:, :, var_index] > threshold
