"""Uniform handles around the three model families.

The training loop and the CLI only need a handful of operations: the live
parameter arrays, a loss-ready forward graph for a batch, cheap batched
prediction, the window geometry the model takes (``window_geometry``: input
width, and window length where the model fixes one), and snapshot/restore. Each wrapper provides those for one
parameter set.
"""

from __future__ import annotations

import numpy as np

from ..kernel import init_lstm_params
from . import baselines, retain

PREDICT_CHUNK = 512  # windows per untaped prediction pass


class RetainModel:
    kind = "retain"
    format_version = "retain-v1"
    attributable = True
    supports_adversary = True
    l2_weight = 0.0

    def __init__(self, config: retain.RetainConfig, params: retain.RetainParams):
        self.config = config
        self.params = params

    @classmethod
    def create(cls, config: retain.RetainConfig, seed) -> "RetainModel":
        rng = np.random.default_rng(seed)
        return cls(config, retain.init_retain_params(config, rng))

    def param_arrays(self):
        return retain.param_arrays(self.params)

    def graph(self, tp, x_batch, p, with_adversary=True):
        outs = retain.build_graph(tp, x_batch, p, self.config,
                                  with_adversary=with_adversary)
        return outs.y_hat, outs.adv_probs

    def predict(self, x) -> np.ndarray:
        return retain.in_chunks(
            lambda xs: retain.predict_batch(xs, self.params, self.config), x,
            PREDICT_CHUNK)

    def forward(self, x) -> retain.ForwardTrace:
        return retain.forward(x, self.params, self.config)

    def trace_batch(self, x) -> retain.ForwardTrace:
        return retain.trace_batch(x, self.params, self.config)

    def window_geometry(self) -> dict:
        return {"seq_len": self.config.seq_len, "input_dim": self.config.input_dim}


class StdAttnModel:
    kind = "stdattn"
    format_version = "stdattn-v1"
    attributable = False
    supports_adversary = False
    l2_weight = 0.0

    def __init__(self, params: baselines.StdAttnParams):
        self.params = params

    @classmethod
    def create(cls, input_dim, hidden, seed) -> "StdAttnModel":
        rng = np.random.default_rng(seed)
        return cls(baselines.init_std_attn_params(input_dim, hidden, rng))

    def param_arrays(self):
        p = self.params
        return {"rnn.w_in": p.rnn.w_in, "rnn.w_rec": p.rnn.w_rec,
                "rnn.bias": p.rnn.bias, "attn_w": p.attn_w, "attn_b": p.attn_b,
                "out_w": p.out_w, "out_b": p.out_b}

    def window_geometry(self) -> dict:
        return {"input_dim": self.params.rnn.input_size}

    def graph(self, tp, x_batch, p, with_adversary=False):
        y_hat, _ = baselines.std_attn_graph(tp, x_batch, p)
        return y_hat, None

    def predict(self, x) -> np.ndarray:
        return retain.in_chunks(
            lambda xs: baselines.std_attn_graph(None, xs, self.param_arrays())[0].value, x,
            PREDICT_CHUNK)


class LstmRegModel:
    kind = "lstmreg"
    format_version = "lstmreg-v1"
    attributable = False
    supports_adversary = True
    l2_weight = baselines.LSTM_REG_L2

    def __init__(self, params: baselines.LstmRegParams):
        self.params = params

    @classmethod
    def create(cls, input_dim, n_sources, seed, hidden1=256, hidden2=256) -> "LstmRegModel":
        rng = np.random.default_rng(seed)
        return cls(baselines.init_lstm_reg_params(input_dim, n_sources, rng,
                                                  hidden1=hidden1, hidden2=hidden2))

    def param_arrays(self):
        p = self.params
        return {"layer1.w_in": p.layer1.w_in, "layer1.w_rec": p.layer1.w_rec,
                "layer1.bias": p.layer1.bias, "layer2.w_in": p.layer2.w_in,
                "layer2.w_rec": p.layer2.w_rec, "layer2.bias": p.layer2.bias,
                "out_w": p.out_w, "out_b": p.out_b,
                "adv_w": p.adv_w, "adv_b": p.adv_b}

    def window_geometry(self) -> dict:
        return {"input_dim": self.params.layer1.input_size}

    def graph(self, tp, x_batch, p, with_adversary=True):
        y_hat, _, adv = baselines.lstm_reg_graph(tp, x_batch, p,
                                                 with_adversary=with_adversary)
        return y_hat, adv

    def predict(self, x) -> np.ndarray:
        return retain.in_chunks(
            lambda xs: baselines.lstm_reg_graph(None, xs, self.param_arrays(),
                                                with_adversary=False)[0].value, x,
            PREDICT_CHUNK)


def snapshot(model) -> dict:
    return {name: arr.copy() for name, arr in model.param_arrays().items()}


def restore(model, snap) -> None:
    for name, arr in model.param_arrays().items():
        arr[...] = snap[name]
