"""Two-level-attention recurrent regressor with an exact linear readout.

The prediction pipeline: a bias-free linear embedding of each input vector,
one LSTM producing a scalar temporal weight per timestep (softmax over the
window), a second LSTM producing a tanh-bounded per-feature weight vector,
an attention-weighted context vector, and a linear readout. Because the
embedding and readout are linear, the prediction decomposes exactly into
per-(timestep, variable) contributions; see :mod:`glucast.models.attribution`.

A patient-classification head (dense + softmax on the context vector) makes
the model usable for adversarial multi-source transfer.

:func:`build_graph` returns its nodes by name, taped or not. Predictions and
traces (:class:`ForwardTrace`) come from ``RetainModel`` in
:mod:`glucast.models.wrappers`, whose one untaped runner checks the windows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datapipe import SplitSpec
from ..errors import (
    AT_LEAST_1,
    AT_LEAST_2,
    ConsistencyError,
    DimensionError,
    check_fields,
    tunable,
)
from ..kernel import glorot, init_lstm_params, lstm_scan
from ..kernel import tape as T


@dataclass
class RetainConfig:
    """Model dimensions. Defaults follow the production configuration: the
    preprocessing spec's window, 3 input signals, 64-dim embeddings and
    single-layer 128-unit LSTMs for both attention networks."""

    seq_len: int = tunable(SplitSpec.seq_len, AT_LEAST_2, key=None)
    input_dim: int = tunable(3, AT_LEAST_1, key=None)
    embed_dim: int = tunable(64, AT_LEAST_1)
    alpha_hidden: int = tunable(128, AT_LEAST_1)
    beta_hidden: int = tunable(128, AT_LEAST_1)
    n_sources: int = tunable(1, AT_LEAST_1, key=None)
    reverse_time: bool = tunable(False, (lambda v: isinstance(v, bool), "true or false"))

    __post_init__ = check_fields


def init_retain_params(config: RetainConfig, rng) -> dict:
    """The model's flat name -> array parameter dict."""
    m, r = config.embed_dim, config.input_dim
    p, q, k = config.alpha_hidden, config.beta_hidden, config.n_sources
    return {
        "embed_w": glorot(rng, m, r),                # (m, r) bias-free embedding
        **init_lstm_params("alpha_rnn", m, p, rng),  # m -> p
        "alpha_w": glorot(rng, p, 1)[:, 0],          # (p,)
        "alpha_b": np.zeros(()),                     # ()
        **init_lstm_params("beta_rnn", m, q, rng),   # m -> q
        "beta_w": glorot(rng, m, q),                 # (m, q)
        "beta_b": np.zeros(m),                       # (m,)
        "out_w": glorot(rng, m, 1)[:, 0],            # (m,)
        "out_b": np.zeros(()),                       # ()
        "adv_w": glorot(rng, k, m),                  # (K, m) patient-classifier head
        "adv_b": np.zeros(k),                        # (K,)
    }


def first_bad_window(bad) -> str:
    """' (window i)' naming the first True of per-window flags, or '' for the
    scalar flag of a single window."""
    bad = np.asarray(bad)
    return f" (window {int(np.flatnonzero(bad)[0])})" if bad.ndim else ""


def _check_rows(bad, message):
    if np.any(bad):
        raise ConsistencyError(message + first_bad_window(bad))


@dataclass
class ForwardTrace:
    """Every intermediate of a forward pass, kept for attribution. A batch
    trace (from ``RetainModel.trace_batch``) carries a leading (B,) axis on
    every field; a single-window trace has none and a float ``y_hat``."""

    embeddings: np.ndarray        # (L, m) v_i
    scores: np.ndarray            # (L,) pre-softmax temporal scores
    temporal_weights: np.ndarray  # (L,) softmax-normalized
    variable_weights: np.ndarray  # (L, m) tanh-bounded
    context: np.ndarray           # (m,)
    y_hat: float
    adv_probs: np.ndarray         # (K,)

    def __post_init__(self):
        _check_rows(np.abs(self.temporal_weights.sum(axis=-1) - 1.0) > 1e-9,
                    "temporal attention weights do not sum to 1")
        _check_rows(np.any(np.abs(self.variable_weights) > 1.0, axis=(-2, -1)),
                    "variable attention weights outside [-1, 1]")
        _check_rows(np.abs(self.adv_probs.sum(axis=-1) - 1.0) > 1e-9,
                    "classifier probabilities do not sum to 1")

    def row(self, i) -> "ForwardTrace":
        """The single-window trace of row i of a batch trace."""
        return ForwardTrace(
            embeddings=self.embeddings[i], scores=self.scores[i],
            temporal_weights=self.temporal_weights[i],
            variable_weights=self.variable_weights[i], context=self.context[i],
            y_hat=float(self.y_hat[i]), adv_probs=self.adv_probs[i])


def build_graph(tp, x_batch, p, config: RetainConfig, with_adversary=True,
                reverse_adversary=True) -> dict:
    """The forward graph of a (B, L, r) input batch, as a dict of its named
    nodes: ``y_hat`` (B,), ``adv_probs`` (B, K) (None without the adversary)
    and the other intermediates under their :class:`ForwardTrace` names.

    ``p`` maps the flat parameter names (the keys of
    :func:`init_retain_params`) to arrays or tape nodes. When
    ``reverse_adversary`` is set, the classifier head reads the context
    vector through a gradient-reversing identity, so its cross-entropy
    gradient arrives sign-flipped at the context computation and everything
    upstream of it.
    """
    x = T.value_of(x_batch)
    if x.ndim != 3:
        raise DimensionError(f"expected a (B, L, r) batch, got shape {x.shape}")
    batch, seq_len, _ = x.shape
    m = config.embed_dim

    flat = T.reshape(x_batch, (batch * seq_len, -1), tp) if isinstance(x_batch, T.Node) \
        else x.reshape(batch * seq_len, -1)
    v_flat = T.matmul(flat, T.transpose(p["embed_w"], tp), tp)
    embeddings = T.reshape(v_flat, (batch, seq_len, m), tp)

    g_seq, h_seq = lstm_scan(tp, p, ("alpha_rnn", "beta_rnn"), embeddings,
                             reverse_time=config.reverse_time)
    g_all = T.reshape(g_seq, (batch * seq_len, -1), tp)
    scores = T.reshape(T.add(T.matmul(g_all, p["alpha_w"], tp), p["alpha_b"], tp),
                       (batch, seq_len), tp)
    temporal = T.softmax(scores, tp)

    h_all = T.reshape(h_seq, (batch * seq_len, -1), tp)
    variable = T.reshape(
        T.tanh(T.add(T.matmul(h_all, T.transpose(p["beta_w"], tp), tp),
                     p["beta_b"], tp), tp),
        (batch, seq_len, m), tp)

    weighted = T.mul(T.mul(variable, embeddings, tp),
                     T.reshape(temporal, (batch, seq_len, 1), tp), tp)
    context = T.sum_axis(weighted, 1, tp)

    y_hat = T.add(T.matmul(context, p["out_w"], tp), p["out_b"], tp)

    adv_probs = None
    if with_adversary:
        fed = T.grad_reverse(context, tp) if reverse_adversary else context
        logits = T.add(T.matmul(fed, T.transpose(p["adv_w"], tp), tp), p["adv_b"], tp)
        adv_probs = T.softmax(logits, tp)

    return {"embeddings": embeddings, "scores": scores, "temporal_weights": temporal,
            "variable_weights": variable, "context": context, "y_hat": y_hat,
            "adv_probs": adv_probs}
