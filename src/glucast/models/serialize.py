"""JSON persistence for model parameters.

One document per model: a format-version tag, a config block, and the named
parameter arrays as nested lists. Floats are written through Python's repr,
which is the shortest exact decimal form of an IEEE double, so a save/load
round trip restores every value bit-for-bit.
"""

from __future__ import annotations

import json

import numpy as np

from ..errors import ConfigError
from . import retain
from .wrappers import LstmRegModel, RetainModel, StdAttnModel


def _arrays_to_lists(arrays):
    return {name: np.asarray(arr, dtype=np.float64).tolist()
            for name, arr in arrays.items()}


def save_model(model, path) -> None:
    if isinstance(model, RetainModel):
        cfg = model.config
        config = {"seq_len": cfg.seq_len, "input_dim": cfg.input_dim,
                  "embed_dim": cfg.embed_dim, "alpha_hidden": cfg.alpha_hidden,
                  "beta_hidden": cfg.beta_hidden, "n_sources": cfg.n_sources,
                  "reverse_time": cfg.reverse_time}
    elif isinstance(model, StdAttnModel):
        config = {"input_dim": model.params.rnn.input_size,
                  "hidden": model.params.rnn.hidden_size}
    elif isinstance(model, LstmRegModel):
        config = {"input_dim": model.params.layer1.input_size,
                  "hidden1": model.params.layer1.hidden_size,
                  "hidden2": model.params.layer2.hidden_size,
                  "n_sources": model.params.adv_w.shape[0]}
    else:
        raise ConfigError(f"cannot serialize object of type {type(model).__name__}")

    doc = {"format": model.format_version, "config": config,
           "params": _arrays_to_lists(model.param_arrays())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# a freshly initialised model of each format tag, from its config block
_BLANK_MODELS = {
    "retain-v1": lambda cfg: RetainModel.create(retain.RetainConfig(**cfg), seed=0),
    "stdattn-v1": lambda cfg: StdAttnModel.create(cfg["input_dim"], cfg["hidden"], seed=0),
    "lstmreg-v1": lambda cfg: LstmRegModel.create(
        cfg["input_dim"], cfg["n_sources"], seed=0, hidden1=cfg["hidden1"],
        hidden2=cfg["hidden2"]),
}


def load_model(path):
    """Read a saved model, checking that every parameter array is present and
    has the shape its config block implies; ConfigError names the file and
    the field otherwise."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ConfigError(f"model {path} is not a JSON object")
    blank = _BLANK_MODELS.get(doc.get("format"))
    if blank is None:
        raise ConfigError(f"model {path} has unknown model format {doc.get('format')!r}")
    try:
        model = blank(doc.get("config") or {})
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"model {path} has a bad config block: {exc!r}") from exc
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ConfigError(f"model {path} has no params block")
    for name, arr in model.param_arrays().items():
        if name not in params:
            raise ConfigError(f"model {path} lacks parameter {name!r}")
        try:
            value = np.asarray(params[name], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"model {path}: parameter {name!r} is not a numeric array") from exc
        if value.shape != arr.shape:
            raise ConfigError(
                f"model {path}: parameter {name!r} has shape {value.shape}, "
                f"but its config block implies {arr.shape}")
        arr[...] = value
    return model
