"""Uniform handles around the three model families, their registry, and
the one untaped runner.

Each family is one class: its CLI name (``kind``), its file format tag, its
config dataclass, its parameter init and its forward graph, which returns
a dict of named nodes (``y_hat``, ``adv_probs`` and any intermediates). A
family names no config keys: the CLI fills the config dataclass's fields
from its own keys.
Everything else is shared: the model is ``Cls(config, params)``, where
``params`` is the one flat name -> array dict its init built (the same
names, in the same order, as in ``model.json``); ``build(config, seed)``
makes a fresh one, ``param_arrays`` returns that dict itself, and
``window_geometry`` reads the config (input width, and window length where
the config fixes one).

``untaped_pass`` is the only code that runs a graph without a tape:
``predict``, validation and the retain trace behind ``explain`` all go
through it, and so through one window check (``check_windows``), which the
training loop also runs on the windows it tapes. The training loop, the CLI
and serialization use only these, and find a family through ``MODELS``.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from ..errors import DimensionError
from ..kernel import check_finite
from . import baselines, retain

# windows per untaped pass of predict and validation; validation's adv_probs
# (and so history.csv) change in the last bits at other chunk sizes
PREDICT_CHUNK = 512
# windows per untaped pass of a retain trace: bounds the intermediates alive
# at once, which set the peak memory of explain (512 raises it by about 5 MB)
TRACE_CHUNK = 128

TRACE_FIELDS = tuple(f.name for f in fields(retain.ForwardTrace))


def check_windows(model, x) -> np.ndarray:
    """x as a float64 (B >= 1, L >= 1, r) array of finite windows that the
    model's window geometry takes; ValueError or DimensionError otherwise."""
    x = check_finite(x, "input windows")
    want = model.window_geometry()
    if (x.ndim != 3 or 0 in x.shape[:2] or x.shape[2] != want["input_dim"]
            or x.shape[1] != want.get("seq_len", x.shape[1])):
        raise DimensionError(f"input windows have shape {x.shape}, expected "
                             f"(B >= 1, {want.get('seq_len', 'L >= 1')}, {want['input_dim']})")
    return x


def untaped_pass(model, x, outputs, chunk=PREDICT_CHUNK) -> dict:
    """{name: array} of the named graph outputs for a batch of windows,
    checked once and run ``chunk`` windows at a time. The adversary head
    runs only when ``adv_probs`` is named."""
    x = check_windows(model, x)
    arrays = model.param_arrays()

    def run(xs):  # a chunk's other nodes are freed before the next chunk runs
        nodes = model.graph(None, xs, arrays, with_adversary="adv_probs" in outputs)
        return [nodes[name].value for name in outputs]

    parts = [run(x[lo:lo + chunk]) for lo in range(0, len(x), chunk)]
    return {name: np.concatenate(values) for name, values in zip(outputs, zip(*parts))}


class _Model:
    """What every family shares. ``graph`` and ``predict`` are each family
    class's own attributes, as ``perfbench/tracer.py`` patches them there."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @classmethod
    def build(cls, config, seed):
        """A freshly initialised model of this family from its config."""
        return cls(config, cls.init_params(config, np.random.default_rng(seed)))

    def param_arrays(self) -> dict:
        return self.params

    def window_geometry(self) -> dict:
        return {name: getattr(self.config, name)
                for name in ("seq_len", "input_dim") if hasattr(self.config, name)}


def _predict(self, x) -> np.ndarray:
    return untaped_pass(self, x, ("y_hat",))["y_hat"]


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
        return retain.build_graph(tp, x_batch, p, self.config,
                                  with_adversary=with_adversary)

    predict = _predict

    def forward(self, x) -> retain.ForwardTrace:
        """The trace of one (L, r) window."""
        return self.trace_batch(np.asarray(x)[None]).row(0)

    def trace_batch(self, x) -> retain.ForwardTrace:
        """The trace of a (B, L, r) batch, every field with a leading batch axis."""
        return retain.ForwardTrace(**untaped_pass(self, x, TRACE_FIELDS, TRACE_CHUNK))


class StdAttnModel(_Model):
    kind = "stdattn"
    format_version = "stdattn-v1"
    config_type = baselines.StdAttnConfig
    init_params = staticmethod(baselines.init_std_attn_params)
    attributable = False
    supports_adversary = False
    l2_weight = 0.0

    @classmethod
    def create(cls, input_dim, hidden, seed) -> "StdAttnModel":
        return cls.build(baselines.StdAttnConfig(input_dim, hidden), seed)

    def graph(self, tp, x_batch, p, with_adversary=False):
        return baselines.std_attn_graph(tp, x_batch, p)

    predict = _predict


class LstmRegModel(_Model):
    kind = "lstm"
    format_version = "lstmreg-v1"
    config_type = baselines.LstmRegConfig
    init_params = staticmethod(baselines.init_lstm_reg_params)
    attributable = False
    supports_adversary = True
    l2_weight = baselines.LSTM_REG_L2

    @classmethod
    def create(cls, input_dim, n_sources, seed, hidden1=baselines.LstmRegConfig.hidden1,
               hidden2=baselines.LstmRegConfig.hidden2) -> "LstmRegModel":
        return cls.build(
            baselines.LstmRegConfig(input_dim, hidden1, hidden2, n_sources), seed)

    def graph(self, tp, x_batch, p, with_adversary=True):
        return baselines.lstm_reg_graph(tp, x_batch, p, with_adversary=with_adversary)

    predict = _predict


# every model family by its CLI name
MODELS = {cls.kind: cls for cls in (RetainModel, StdAttnModel, LstmRegModel)}


def snapshot(model) -> dict:
    return {name: arr.copy() for name, arr in model.param_arrays().items()}


def restore(model, snap) -> None:
    for name, arr in model.param_arrays().items():
        arr[...] = snap[name]
