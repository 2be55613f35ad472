"""Reference predictors sharing the numeric kernel.

Two baselines: a recurrent model with the standard single-level attention
mechanism (dense scores on LSTM states, softmax, weighted state sum, linear
readout), and a plain stacked-LSTM regressor whose last hidden state feeds
both the scalar readout and a patient-classifier head. The default stacked
sizes are two layers of 256 units.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass

import numpy as np

from ..errors import AT_LEAST_1, DimensionError, check_fields, tunable
from ..kernel import glorot, init_lstm_params, lstm_scan
from ..kernel import tape as T

LSTM_REG_L2 = 1e-4  # weight penalty used when training the stacked regressor


@dataclass
class StdAttnConfig:
    """Sizes of the single-level attention baseline (in saved key order)."""

    input_dim: int = tunable(MISSING, AT_LEAST_1, key=None)
    hidden: int = tunable(128, AT_LEAST_1, key="stdattn_hidden")

    __post_init__ = check_fields


def init_std_attn_params(config: StdAttnConfig, rng) -> dict:
    hidden = config.hidden
    return {
        **init_lstm_params("rnn", config.input_dim, hidden, rng),  # r -> p
        "attn_w": glorot(rng, hidden, 1)[:, 0],                    # (p,)
        "attn_b": np.zeros(()),                                    # ()
        "out_w": glorot(rng, hidden, 1)[:, 0],                     # (p,)
        "out_b": np.zeros(()),                                     # ()
    }


@dataclass
class LstmRegConfig:
    """Sizes of the stacked regressor (in saved key order)."""

    input_dim: int = tunable(MISSING, AT_LEAST_1, key=None)
    hidden1: int = tunable(256, AT_LEAST_1, key="lstm_hidden1")
    hidden2: int = tunable(256, AT_LEAST_1, key="lstm_hidden2")
    n_sources: int = tunable(1, AT_LEAST_1, key=None)

    __post_init__ = check_fields


def init_lstm_reg_params(config: LstmRegConfig, rng) -> dict:
    hidden1, hidden2, k = config.hidden1, config.hidden2, config.n_sources
    return {
        **init_lstm_params("layer1", config.input_dim, hidden1, rng),  # r -> n1
        **init_lstm_params("layer2", hidden1, hidden2, rng),           # n1 -> n2
        "out_w": glorot(rng, hidden2, 1)[:, 0],                        # (n2,)
        "out_b": np.zeros(()),                                         # ()
        "adv_w": glorot(rng, k, hidden2),                              # (K, n2)
        "adv_b": np.zeros(k),                                          # (K,)
    }


def std_attn_graph(tp, x_batch, p):
    """Graph for a (B, L, r) batch: a dict of the nodes ``y_hat`` (B,) and
    ``weights`` (B, L), and ``adv_probs`` None (the baseline has no adversary)."""
    x = T.value_of(x_batch)
    if x.ndim != 3:
        raise DimensionError(f"expected a (B, L, r) batch, got shape {x.shape}")
    batch, seq_len, _ = x.shape
    (states,) = lstm_scan(tp, p, ("rnn",), x_batch)
    flat = T.reshape(states, (batch * seq_len, -1), tp)
    scores = T.reshape(T.add(T.matmul(flat, p["attn_w"], tp), p["attn_b"], tp),
                       (batch, seq_len), tp)
    weights = T.softmax(scores, tp)
    pooled = T.sum_axis(T.mul(states, T.reshape(weights, (batch, seq_len, 1), tp), tp),
                        1, tp)                               # (B, p)
    y_hat = T.add(T.matmul(pooled, p["out_w"], tp), p["out_b"], tp)
    return {"y_hat": y_hat, "weights": weights, "adv_probs": None}


def _last_step(seq, tp):
    """The final timestep (B, n) of a (B, L, n) node."""
    sv = T.value_of(seq)

    def vjp(g):
        out = np.zeros_like(sv)
        out[:, -1] = g
        return (out,)

    return T.emit(tp, sv[:, -1], (seq,), vjp)


def lstm_reg_graph(tp, x_batch, p, with_adversary=True, reverse_adversary=True):
    """Graph for the stacked regressor: a dict of the nodes ``y_hat`` (B,),
    ``hidden`` (the last hidden state, (B, n2)) and ``adv_probs`` (B, K)
    (None without the adversary)."""
    x = T.value_of(x_batch)
    if x.ndim != 3:
        raise DimensionError(f"expected a (B, L, r) batch, got shape {x.shape}")
    (h2,) = lstm_scan(tp, p, ("layer1", "layer2"), x_batch, stacked=True)
    hidden = _last_step(h2, tp)                              # (B, n2)
    y_hat = T.add(T.matmul(hidden, p["out_w"], tp), p["out_b"], tp)
    adv_probs = None
    if with_adversary:
        fed = T.grad_reverse(hidden, tp) if reverse_adversary else hidden
        logits = T.add(T.matmul(fed, T.transpose(p["adv_w"], tp), tp), p["adv_b"], tp)
        adv_probs = T.softmax(logits, tp)
    return {"y_hat": y_hat, "hidden": hidden, "adv_probs": adv_probs}
