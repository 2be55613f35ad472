import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glucast.errors import ConfigError
from glucast.models import (
    LstmRegModel,
    RetainConfig,
    RetainModel,
    StdAttnModel,
    load_model,
    save_model,
)

CFG = RetainConfig(seq_len=5, input_dim=3, embed_dim=4, alpha_hidden=3,
                   beta_hidden=3, n_sources=2)


def test_retain_round_trip_bit_exact(tmp_path):
    model = RetainModel.create(CFG, seed=42)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert isinstance(loaded, RetainModel)
    assert loaded.config == model.config
    for name, arr in model.param_arrays().items():
        assert np.array_equal(arr, loaded.param_arrays()[name]), name


def test_saved_format_tag_and_unknown_format(tmp_path):
    model = StdAttnModel.create(input_dim=3, hidden=4, seed=0)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert doc["format"] == "stdattn-v1"
    assert set(doc) == {"format", "config", "params"}

    doc["format"] = "bogus-v9"
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        load_model(path)


# sha256 of a freshly built model's model.json: guards the names, their order
# and the order of the random draws behind each parameter
@pytest.mark.parametrize("build, digest", [
    (lambda: RetainModel.create(CFG, seed=11),
     "d1086c796125fd1f9d57f4d31c00c392fbf4d32552306d6867ff883d69d989e1"),
    (lambda: StdAttnModel.create(input_dim=3, hidden=4, seed=11),
     "8d0791b11856fd2edba72ffef035e620890ef84df3c4781db44da87a036bd5eb"),
    (lambda: LstmRegModel.create(input_dim=3, n_sources=2, seed=11, hidden1=4, hidden2=3),
     "3bf20198f02179d0dfede53c47e37ff19c186db311bddbea2d98a15da4534a7d"),
], ids=["retain", "stdattn", "lstm"])
def test_fresh_model_json_bytes_are_pinned(tmp_path, build, digest):
    path = tmp_path / "model.json"
    save_model(build(), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("data", [b"garbage{", b"\xff\xfe", b"", b'{"format": "retain-v1",'])
def test_load_model_names_a_file_that_is_not_utf8_json(tmp_path, data):
    path = tmp_path / "model.json"
    path.write_bytes(data)
    with pytest.raises(ConfigError, match=re.escape(f"model {path} is not UTF-8 JSON")):
        load_model(path)


@pytest.mark.parametrize("build", [
    lambda: RetainModel.create(CFG, seed=7),
    lambda: StdAttnModel.create(input_dim=3, hidden=4, seed=7),
    lambda: LstmRegModel.create(input_dim=3, n_sources=2, seed=7, hidden1=4, hidden2=3),
])
def test_save_load_forward_bit_identical(build, tmp_path, ):
    model = build()
    path = tmp_path / "m.json"
    save_model(model, path)
    loaded = load_model(path)

    rng = np.random.default_rng(5)
    xs = rng.normal(size=(20, 5, 3))
    before = model.predict(xs)
    after = loaded.predict(xs)
    assert np.array_equal(before, after)


@pytest.mark.parametrize("build, key", [
    (lambda: StdAttnModel.create(input_dim=3, hidden=4, seed=7), "hidden"),
    (lambda: RetainModel.create(CFG, seed=7), "embed_dim"),
    (lambda: LstmRegModel.create(input_dim=3, n_sources=2, seed=7, hidden1=4,
                                 hidden2=3), "hidden2"),
])
def test_load_rejects_config_block_without_a_dimension(build, key, tmp_path):
    path = tmp_path / "m.json"
    save_model(build(), path)
    doc = json.loads(path.read_text())
    del doc["config"][key]
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key) as err:
        load_model(path)
    assert str(path) in str(err.value)


BUILDS = {
    "retain-v1": lambda: RetainModel.create(CFG, seed=7),
    "stdattn-v1": lambda: StdAttnModel.create(input_dim=3, hidden=4, seed=7),
    "lstmreg-v1": lambda: LstmRegModel.create(input_dim=3, n_sources=2, seed=7,
                                              hidden1=4, hidden2=3),
}


@pytest.mark.parametrize("fmt, key, value", [
    ("retain-v1", "dropout", 0.5), ("stdattn-v1", "dropout", 0.5),
    ("lstmreg-v1", "dropout", 0.5),
    ("retain-v1", "embed_dim", 0), ("retain-v1", "seq_len", 1),
    ("stdattn-v1", "hidden", 0), ("stdattn-v1", "hidden", -1),
    ("lstmreg-v1", "hidden1", -1), ("lstmreg-v1", "n_sources", 2.0),
])
def test_load_rejects_unknown_key_or_dimension_below_one(fmt, key, value, tmp_path):
    path = tmp_path / "m.json"
    save_model(BUILDS[fmt](), path)
    doc = json.loads(path.read_text())
    doc["config"][key] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=key) as err:
        load_model(path)
    assert str(path) in str(err.value)


DELETE = object()


@settings(max_examples=150, deadline=None)
@given(fmt=st.sampled_from(sorted(BUILDS)), data=st.data(),
       value=st.one_of(st.integers(-2, 3), st.floats(), st.text(max_size=3),
                       st.booleans(), st.none(), st.just(DELETE)))
def test_load_model_fuzzed_config_block(fmt, data, value):
    """A mutated config value either fails as ConfigError or loads a model
    that predicts windows of its own geometry."""
    model = BUILDS[fmt]()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.json"
        save_model(model, path)
        doc = json.loads(path.read_text())
        key = data.draw(st.sampled_from(sorted(doc["config"])))
        if value is DELETE:
            del doc["config"][key]
        else:
            doc["config"][key] = value
        path.write_text(json.dumps(doc))
        try:
            loaded = load_model(path)
        except ConfigError:
            return
    geometry = loaded.window_geometry()
    x = np.random.default_rng(0).normal(
        size=(2, geometry.get("seq_len", 5), geometry["input_dim"]))
    assert np.all(np.isfinite(loaded.predict(x)))
