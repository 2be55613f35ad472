import json

import numpy as np
import pytest

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
