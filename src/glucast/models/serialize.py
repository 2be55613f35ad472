"""JSON persistence for model parameters.

One document per model: a format-version tag, a config block (the model's
config dataclass, field by field) and the named parameter arrays as nested
lists. Floats are written through Python's repr, which is the shortest exact
decimal form of an IEEE double, so a save/load round trip restores every
value bit-for-bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from ..errors import ConfigError
from .wrappers import MODELS


def _arrays_to_lists(arrays):
    return {name: np.asarray(arr, dtype=np.float64).tolist()
            for name, arr in arrays.items()}


def save_model(model, path) -> None:
    doc = {"format": model.format_version, "config": asdict(model.config),
           "params": _arrays_to_lists(model.param_arrays())}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_model(path):
    """Read a saved model, checking that its config block has exactly the
    fields of its format's config, with valid values, and that every
    parameter array is present, holds only finite numbers and has the shape
    the config implies; ConfigError names the file and the field otherwise."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"model {path} is not UTF-8 JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"model {path} is not a JSON object")
    cls = next((c for c in MODELS.values() if c.format_version == doc.get("format")),
               None)
    if cls is None:
        raise ConfigError(f"model {path} has unknown model format {doc.get('format')!r}")
    config = doc.get("config")
    if not isinstance(config, dict):
        raise ConfigError(f"model {path} has no config block")
    names = [f.name for f in fields(cls.config_type)]
    for name in names:
        if name not in config:
            raise ConfigError(f"model {path}: config block lacks {name!r}")
    for name in config:
        if name not in names:
            raise ConfigError(f"model {path}: config block has unknown key {name!r}")
    try:
        model = cls.build(cls.config_type(**config), seed=0)
    except ValueError as exc:
        raise ConfigError(f"model {path} has a bad config block: {exc}") from exc
    params = doc.get("params")
    if not isinstance(params, dict):
        raise ConfigError(f"model {path} has no params block")
    for name, arr in model.param_arrays().items():
        if name not in params:
            raise ConfigError(f"model {path} lacks parameter {name!r}")
        try:
            value = np.asarray(params[name])
        except ValueError as exc:  # a ragged nesting of lists
            raise ConfigError(
                f"model {path}: parameter {name!r} is not a numeric array") from exc
        if value.dtype.kind not in "iuf":
            raise ConfigError(f"model {path}: parameter {name!r} holds entries that "
                              f"are not numbers (such as strings or null)")
        value = value.astype(np.float64)
        if not np.isfinite(value).all():
            raise ConfigError(
                f"model {path}: parameter {name!r} holds non-finite entries")
        if value.shape != arr.shape:
            raise ConfigError(
                f"model {path}: parameter {name!r} has shape {value.shape}, "
                f"but its config block implies {arr.shape}")
        arr[...] = value
    return model
