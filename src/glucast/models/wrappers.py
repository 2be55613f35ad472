"""Uniform handles around the three model families, and their registry.

Each family is one class: its CLI name (``kind``), its file format tag, its
config dataclass, its parameter init and its forward graph. Everything else
is shared: the model is ``Cls(config, params)``, ``build(config, seed)``
makes a fresh one, ``param_arrays`` is the generic flat view of the params
dataclass, ``window_geometry`` reads the config (input width, and window
length where the config fixes one) and ``predict`` is one untaped pass.
The training loop, the CLI and serialization use only these, and find a
family through ``MODELS``.
"""

from __future__ import annotations

import numpy as np

from ..kernel import param_arrays
from . import baselines, retain

PREDICT_CHUNK = 512  # windows per untaped prediction pass


class _Model:
    """What every family shares. ``graph`` and ``predict`` are each family
    class's own attributes, as ``perfbench/tracer.py`` patches them there."""

    cli_keys = {}  # config field -> the train config key it comes from, if renamed

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config, seed):
        """A freshly initialised model of this family from its config."""
        return cls(config, cls.init_params(config, np.random.default_rng(seed)))

    def param_arrays(self) -> dict:
        return param_arrays(self.params)

    def window_geometry(self) -> dict:
        return {name: getattr(self.config, name)
                for name in ("seq_len", "input_dim") if hasattr(self.config, name)}


def untaped_pass(model, x, with_adversary=False):
    """(y_hat, adv_probs) of a (B, L, r) batch through the model's untaped
    graph, PREDICT_CHUNK windows at a time; adv_probs is None without the
    adversary."""
    if not len(x):
        return np.empty(0), None
    arrays = model.param_arrays()

    def chunk(xs):
        y_hat, adv = model.graph(None, xs, arrays, with_adversary=with_adversary)
        return y_hat.value, None if adv is None else adv.value

    return retain.in_chunks(chunk, x, PREDICT_CHUNK)


def _predict(self, x) -> np.ndarray:
    return untaped_pass(self, x)[0]


class RetainModel(_Model):
    kind = "retain"
    format_version = "retain-v1"
    config_type = retain.RetainConfig
    init_params = staticmethod(retain.init_retain_params)
    attributable = True
    supports_adversary = True
    l2_weight = 0.0

    @classmethod
    def create(cls, config: retain.RetainConfig, seed) -> "RetainModel":
        return cls.build(config, seed)

    def graph(self, tp, x_batch, p, with_adversary=True):
        outs = retain.build_graph(tp, x_batch, p, self.config,
                                  with_adversary=with_adversary)
        return outs.y_hat, outs.adv_probs

    predict = _predict

    def forward(self, x) -> retain.ForwardTrace:
        return retain.forward(x, self.params, self.config)

    def trace_batch(self, x) -> retain.ForwardTrace:
        return retain.trace_batch(x, self.params, self.config)


class StdAttnModel(_Model):
    kind = "stdattn"
    format_version = "stdattn-v1"
    config_type = baselines.StdAttnConfig
    init_params = staticmethod(baselines.init_std_attn_params)
    cli_keys = {"hidden": "stdattn_hidden"}
    attributable = False
    supports_adversary = False
    l2_weight = 0.0

    @classmethod
    def create(cls, input_dim, hidden, seed) -> "StdAttnModel":
        return cls.build(baselines.StdAttnConfig(input_dim, hidden), seed)

    def graph(self, tp, x_batch, p, with_adversary=False):
        y_hat, _ = baselines.std_attn_graph(tp, x_batch, p)
        return y_hat, None

    predict = _predict


class LstmRegModel(_Model):
    kind = "lstm"
    format_version = "lstmreg-v1"
    config_type = baselines.LstmRegConfig
    init_params = staticmethod(baselines.init_lstm_reg_params)
    cli_keys = {"hidden1": "lstm_hidden1", "hidden2": "lstm_hidden2"}
    attributable = False
    supports_adversary = True
    l2_weight = baselines.LSTM_REG_L2

    @classmethod
    def create(cls, input_dim, n_sources, seed, hidden1=256, hidden2=256) -> "LstmRegModel":
        return cls.build(
            baselines.LstmRegConfig(input_dim, hidden1, hidden2, n_sources), seed)

    def graph(self, tp, x_batch, p, with_adversary=True):
        y_hat, _, adv = baselines.lstm_reg_graph(tp, x_batch, p,
                                                 with_adversary=with_adversary)
        return y_hat, adv

    predict = _predict


# every model family by its CLI name
MODELS = {cls.kind: cls for cls in (RetainModel, StdAttnModel, LstmRegModel)}


def snapshot(model) -> dict:
    return {name: arr.copy() for name, arr in model.param_arrays().items()}


def restore(model, snap) -> None:
    for name, arr in model.param_arrays().items():
        arr[...] = snap[name]
