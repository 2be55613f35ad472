import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glucast import cli
from glucast.cli import CONFIG_DEFAULTS, load_config, main
from glucast.datapipe import (
    GlucoseSeries,
    SplitSpec,
    build_samples,
    clean_spikes,
    read_archive,
    resample,
    write_series_csv,
)
from glucast.errors import ConfigError, config_key
from glucast.models import (
    LstmRegConfig,
    LstmRegModel,
    RetainConfig,
    StdAttnConfig,
    StdAttnModel,
    load_model,
    save_model,
)
from glucast.synthdata import PatientProfile, default_cohort, generate_patient
from glucast.training import TrainConfig


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def mini_run(tmp_path_factory):
    """A small but complete synth -> preprocess -> train pipeline."""
    root = tmp_path_factory.mktemp("mini")
    raw = root / "raw"
    prep = root / "prep"
    out = root / "run"
    assert run("synth", "--patients", "3", "--days", "8", "--seed", "3",
               "--out", str(raw)) == 0
    assert run("preprocess", "--data", str(raw), "--out", str(prep),
               "--config", str(_mini_cfg(root))) == 0
    assert run("train", "--data", str(prep), "--target", "p02",
               "--sources", "p00,p01", "--model", "retain",
               "--max-epochs", "2", "--seed", "3",
               "--config", str(_mini_cfg(root)), "--out", str(out)) == 0
    return root


def _mini_cfg(root):
    path = root / "mini.cfg"
    if not path.exists():
        path.write_text(
            "embed_dim = 6\n"
            "alpha_hidden = 8\n"
            "beta_hidden = 8\n"
            "test_days = 2\n"
            "patience_source = 2\n"
            "patience_finetune = 2\n")
    return path


# --- config handling ---------------------------------------------------------

def test_config_file_overrides_and_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("seed = 42\nlambda = 0.01  # inline comment\n")
    cfg = load_config(cfg_file)
    assert cfg["seed"] == 42 and cfg["lambda"] == 0.01

    cfg = load_config(cfg_file, {"seed": 7})
    assert cfg["seed"] == 7  # flags beat the file

    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 1\n")
    with pytest.raises(ConfigError):
        load_config(bad)
    worse = tmp_path / "worse.cfg"
    worse.write_text("just some text\n")
    with pytest.raises(ConfigError):
        load_config(worse)


def test_config_key_set_twice_in_a_file_exits_2_naming_both_lines(tmp_path, capsys):
    cfg_file = tmp_path / "twice.cfg"
    cfg_file.write_text("seed = 4\n# the same key again\nseed = 5\n")
    assert run("synth", "--config", str(cfg_file), "--out", str(tmp_path / "raw")) == 2
    err = capsys.readouterr().err
    assert f"{cfg_file} lines 1 and 3: config key 'seed' is set twice" in err
    assert not (tmp_path / "raw").exists()
    # a flag still overrides a key the file sets once
    cfg_file.write_text("seed = 4\n")
    assert load_config(cfg_file, {"seed": 5})["seed"] == 5


def test_config_boolean_coercion(tmp_path):
    cfg_file = tmp_path / "b.cfg"
    cfg_file.write_text("reverse_time = true\n")
    assert load_config(cfg_file)["reverse_time"] is True
    cfg_file.write_text("reverse_time = banana\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file)


@pytest.mark.parametrize("line, key", [
    ("batch_size = abc", "batch_size"), ("seed = 1.5", "seed"), ("max_epochs =", "max_epochs"),
    ("lambda = ten", "lambda"), ("valid_fraction = 0,2", "valid_fraction"),
    ("reverse_time = maybe", "reverse_time"),
])
def test_config_names_file_line_and_key_of_a_bad_value(tmp_path, capsys, line, key):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"seed = 4\n# a comment\n{line}\n")
    with pytest.raises(ConfigError, match=re.escape(f"{cfg_file} line 3: config key {key!r}")):
        load_config(cfg_file)
    assert run("synth", "--config", str(cfg_file), "--out", str(tmp_path / "s")) == 2
    err = capsys.readouterr().err
    assert f"{cfg_file} line 3" in err and repr(key) in err and "Traceback" not in err


@pytest.mark.parametrize("key, value", [
    ("seq_len", "0"), ("ph_steps", "0"), ("period_minutes", "0"), ("test_days", "-1"),
], ids=["seq_len", "ph_steps", "period_minutes", "test_days"])
def test_config_names_file_line_and_key_of_a_geometry_value_below_one(
        tmp_path, capsys, key, value):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"seed = 4\n# a comment\n{key} = {value}\n")
    where = f"{cfg_file} line 3: config key {key!r}: must be {cli.CONFIG_KEYS[key][1][1]}"
    with pytest.raises(ConfigError, match=re.escape(where)):
        load_config(cfg_file)
    raw = tmp_path / "raw"
    raw.mkdir()
    write_series_csv(generate_patient(default_cohort(1, seed=3)[0], 8), raw / "p00.csv")
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(raw), "--config", str(cfg_file),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert where in err and "p00.csv" not in err and "Traceback" not in err
    assert not out.exists()


# values of each key's type outside its domain
OUT_OF_DOMAIN = {
    "model": ["rnn", "Retain"],
    "seq_len": ["0", "-2"],
    "embed_dim": ["0", "-64"],
    "alpha_hidden": ["0", "-1"],
    "beta_hidden": ["0", "-1"],
    "reverse_time": ["2", "-1"],
    "stdattn_hidden": ["0", "-1"],
    "lstm_hidden1": ["0", "-256"],
    "lstm_hidden2": ["0", "-1"],
    "batch_size": ["0", "-50"],
    "lr_source": ["-1", "0", "nan", "inf"],
    "lr_finetune": ["nan", "0", "-1e-4", "-inf"],
    "patience_source": ["0", "-1"],
    "patience_finetune": ["0", "-25"],
    "lambda": ["-0.5", "inf", "nan"],
    "max_epochs": ["-1", "-500"],
    "seed": ["-1", "-7"],
    "test_days": ["0", "-1"],
    "valid_fraction": ["1.5", "0", "1", "nan", "-0.2"],
    "ph_steps": ["0", "-6"],
    "period_minutes": ["0", "-5"],
    "spike_threshold": ["-1", "0", "nan", "inf"],
    "patients": ["0", "-6"],
    "days": ["0", "-21"],
    "noise_std": ["-1", "nan", "inf"],
    "missing_rate": ["1", "1.5", "-0.1", "nan"],
}


def _typed(key, text):
    """text as a library caller or a flag passes it: a bool key's bad value
    as an int, a number in the default's type."""
    default = CONFIG_DEFAULTS[key]
    if isinstance(default, bool):
        return int(text)
    return type(default)(text) if isinstance(default, (int, float)) else text


# each config key that sets a library dataclass field: (the dataclass, the field)
KEY_FIELDS = {
    **{key: (RetainConfig, key) for key in ("embed_dim", "alpha_hidden", "beta_hidden",
                                            "reverse_time")},
    "stdattn_hidden": (StdAttnConfig, "hidden"),
    "lstm_hidden1": (LstmRegConfig, "hidden1"),
    "lstm_hidden2": (LstmRegConfig, "hidden2"),
    **{key: (TrainConfig, key) for key in ("batch_size", "lr_source", "lr_finetune",
                                           "patience_source", "patience_finetune",
                                           "max_epochs", "seed")},
    "lambda": (TrainConfig, "lam"),
    **{key: (SplitSpec, key) for key in ("test_days", "valid_fraction", "seq_len",
                                         "ph_steps", "period_minutes", "spike_threshold")},
    "noise_std": (PatientProfile, "noise_std"),
    "missing_rate": (PatientProfile, "missing_rate"),
}


def _library_config(cls, name, value):
    """The dataclass ``cls`` with field ``name`` set to ``value``, and each
    field without a default to 3."""
    required = {f.name: 3 for f in fields(cls) if f.default is MISSING}
    return cls(**{**required, name: value})


@pytest.mark.parametrize("key", OUT_OF_DOMAIN)
def test_config_value_outside_its_domain_is_named_where_it_enters(tmp_path, capsys, key):
    assert set(OUT_OF_DOMAIN) == set(CONFIG_DEFAULTS)
    for bad in OUT_OF_DOMAIN[key]:
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"seed = 4\n# a comment\n{key} = {bad}\n")
        where = f"{cfg_file} line 3: config key {key!r}: "
        with pytest.raises(ConfigError, match=re.escape(where)):
            load_config(cfg_file)
        with pytest.raises(ConfigError, match=re.escape(f"config key {key!r}: ")):
            load_config(None, {key: _typed(key, bad)})
        if key in KEY_FIELDS:  # the library's own dataclass rejects it too
            cls, name = KEY_FIELDS[key]
            with pytest.raises(ConfigError, match=f"^{name} must be "):
                _library_config(cls, name, _typed(key, bad))
        out = tmp_path / "s"
        assert run("synth", "--patients", "1", "--days", "1", "--config", str(cfg_file),
                   "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err
        assert not out.exists()


@pytest.mark.parametrize("command, flag, key, value", [
    ("synth", "--patients", "patients", "0"),
    ("synth", "--days", "days", "-1"),
    ("synth", "--seed", "seed", "-1"),
    ("synth", "--noise-std", "noise_std", "-1"),
    ("synth", "--missing-rate", "missing_rate", "1.0"),
    ("train", "--max-epochs", "max_epochs", "-1"),
    ("train", "--seed", "seed", "-1"),
    ("train", "--model", "model", "rnn"),
])
def test_flag_outside_its_domain_exits_2_naming_the_key(tmp_path, capsys, command, flag,
                                                        key, value):
    inputs = {"synth": [], "preprocess": ["--data", str(tmp_path)],
              "train": ["--data", str(tmp_path), "--target", "p00"]}[command]
    out = tmp_path / "out"
    assert run(command, *inputs, f"{flag}={value}", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}: must be" in err and "Traceback" not in err
    assert not out.exists()


def test_every_flag_sets_a_config_key():
    assert set(cli.FLAGS) == {"synth", "preprocess", "train", "evaluate", "explain"}
    assert all(key in cli.CONFIG_KEYS for keys in cli.FLAGS.values() for key in keys)


@pytest.mark.parametrize("command, flag, key, value", [
    ("synth", "--seed", "seed", "abc"),
    ("synth", "--noise-std", "noise_std", "1,5"),
    ("train", "--max-epochs", "max_epochs", "1.5"),
])
def test_flag_of_the_wrong_type_exits_2_naming_the_key(tmp_path, capsys, command, flag,
                                                       key, value):
    inputs = {"synth": [], "train": ["--data", str(tmp_path), "--target", "p00"]}[command]
    out = tmp_path / "out"
    assert run(command, *inputs, flag, value, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"config key {key!r}: expected" in err and "Traceback" not in err
    assert not out.exists()


def test_preprocess_takes_no_seed_flag(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run("preprocess", "--data", str(tmp_path), "--seed", "3", "--out", str(tmp_path))
    assert exc.value.code == 2 and "--seed" in capsys.readouterr().err


# a value for each flag's key other than its default, some in a form other
# than the one effective.cfg echoes
FLAG_VALUES = {"patients": "2", "days": "01", "seed": "5", "noise_std": "1e0",
               "missing_rate": ".25", "model": "stdattn", "max_epochs": "1"}


@pytest.mark.parametrize("command, key", [(command, key) for command, keys in
                                          cli.FLAGS.items() for key in keys])
def test_flag_writes_the_effective_cfg_of_its_key_in_a_config_file(mini_run, tmp_path,
                                                                    command, key):
    mini = _mini_cfg(mini_run).read_text()
    base = tmp_path / "base.cfg"
    base.write_text(mini + "max_epochs = 0\n")
    with_key = tmp_path / "key.cfg"  # a file sets each key once
    with_key.write_text(mini + "".join(f"{k} = {v}\n" for k, v in
                                       {"max_epochs": 0, key: FLAG_VALUES[key]}.items()))
    inputs = {"synth": ["--days", "1"] if key != "days" else [],
              "train": ["--data", str(mini_run / "prep"), "--target", "p00"]}[command]
    flag = f"--{key.replace('_', '-')}={FLAG_VALUES[key]}"
    assert run(command, *inputs, flag, "--config", str(base),
               "--out", str(tmp_path / "flag")) == 0
    assert run(command, *inputs, "--config", str(with_key),
               "--out", str(tmp_path / "file")) == 0
    echoed = [(tmp_path / side / "effective.cfg").read_text() for side in ("flag", "file")]
    assert echoed[0] == echoed[1]
    assert f"\n{key} = {cli.CONFIG_DEFAULTS[key]}\n" not in echoed[0]


def test_default_and_example_configs_are_the_same_values():
    example = Path(__file__).resolve().parents[1] / "configs" / "example.cfg"
    assert load_config(example) == load_config() == CONFIG_DEFAULTS
    lines = [line.split("#", 1)[0] for line in example.read_text().splitlines()]
    keys = [line.split("=", 1)[0].strip() for line in lines if line.strip()]
    assert sorted(keys) == sorted(CONFIG_DEFAULTS)  # every key, each once


# every library dataclass with a field that a config key sets
CONFIG_CLASSES = (RetainConfig, StdAttnConfig, LstmRegConfig, TrainConfig, SplitSpec,
                  PatientProfile)


def test_each_field_key_is_declared_once_on_its_field():
    assert len(KEY_FIELDS) == 23
    assert set(KEY_FIELDS) == set(cli.CONFIG_KEYS) - {"model", "patients", "days"}
    for key, (cls, name) in KEY_FIELDS.items():
        declared = [(c, f) for c in CONFIG_CLASSES for f in fields(c)
                    if config_key(f) == key]
        assert [(c, f.name) for c, f in declared] == [(cls, name)], key
        field = declared[0][1]
        default, domain = cli.CONFIG_KEYS[key]
        assert default is field.default and domain is field.metadata["domain"], key


# values outside a field's domain, noise_std = nan among them, are in OUT_OF_DOMAIN
@pytest.mark.parametrize("cls, name, value, message", [
    (TrainConfig, "batch_size", 2.5, "an integer, got 2.5"),
    (TrainConfig, "max_epochs", True, "an integer, got True"),
    (RetainConfig, "reverse_time", 1, "true or false, got 1"),
], ids=["int-float", "int-bool", "bool-int"])
def test_library_config_of_the_wrong_type_is_named(cls, name, value, message):
    with pytest.raises(ConfigError, match=f"^{name} must be {re.escape(message)}$"):
        _library_config(cls, name, value)


def test_config_defaults_are_the_library_defaults():
    # the train-small and train-prod workloads run on the library's defaults,
    # the CLI and the pipeline workload on CONFIG_KEYS: each key both set agrees
    pairs = [(cls.__name__, config_key(f), f.default)
             for cls in (RetainConfig, TrainConfig, SplitSpec) for f in fields(cls)]
    # the model's window length, which train sets from the preprocessing spec
    pairs += [("RetainConfig", "seq_len", RetainConfig().seq_len)]
    renamed = {"threshold": "spike_threshold"}  # clean_spikes's parameter
    pairs += [(func.__name__, renamed.get(name, name), param.default)
              for func in (clean_spikes, resample, build_samples, default_cohort)
              for name, param in inspect.signature(func).parameters.items()
              if param.default is not param.empty]
    pairs = [(owner, key, default) for owner, key, default in pairs
             if key in CONFIG_DEFAULTS]
    assert len(pairs) == 26
    assert [(owner, key, default) for owner, key, default in pairs
            if (type(default), default) != (type(CONFIG_DEFAULTS[key]),
                                            CONFIG_DEFAULTS[key])] == []


def test_config_names_a_file_that_is_not_utf8(tmp_path, capsys):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_bytes(b"seed = 4\n\xff\xfe = 1\n")
    assert run("synth", "--config", str(cfg_file), "--out", str(tmp_path / "s")) == 2
    err = capsys.readouterr().err
    assert f"{cfg_file}: not UTF-8 text" in err and "Traceback" not in err


# --- synth ---------------------------------------------------------------------

def test_synth_deterministic_rerun(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("synth", "--patients", "2", "--days", "3", "--seed", "9",
               "--out", str(a)) == 0
    assert run("synth", "--patients", "2", "--days", "3", "--seed", "9",
               "--out", str(b)) == 0
    for name in ("p00.csv", "p01.csv", "profiles.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    assert (a / "effective.cfg").exists()


def test_synth_rejects_zero_patients(tmp_path):
    assert run("synth", "--patients", "0", "--days", "3",
               "--out", str(tmp_path / "x")) == 2


def test_preprocess_rejects_windows_of_one_step_naming_the_config_line(tmp_path,
                                                                      capsys):
    raw = tmp_path / "raw"
    assert run("synth", "--patients", "1", "--days", "8", "--out", str(raw)) == 0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("# one-step windows\nseq_len = 1\n")
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(raw), "--config", str(cfg_file),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"{cfg_file} line 2: config key 'seq_len': must be at least 2" in err
    assert "Traceback" not in err and not out.exists()


def test_preprocess_missing_dir_exit_3(tmp_path):
    assert run("preprocess", "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")) == 3


def _spiked_cohort(raw):
    """3 patients x 8 days with 10% of glucose missing, injected spikes (an
    alternating run among them) and timestamps jittered off the grid."""
    raw.mkdir()
    for profile in default_cohort(3, seed=11, missing_rate=0.1):
        s = generate_patient(profile, 8)
        rng = np.random.default_rng(profile.seed)
        g = s.glucose.copy()
        spikes = rng.choice(len(g), size=40, replace=False)
        g[spikes] = np.where(g[spikes] > 250, g[spikes] - 120, g[spikes] + 150)
        g[300:311] = np.where(np.arange(11) % 2 == 0, 100.0, 240.0)
        t = s.t + rng.integers(-2, 3, size=len(g)) * np.timedelta64(1, "m")
        write_series_csv(GlucoseSeries(profile.patient_id, t, np.clip(g, 1, 599),
                                       s.cho, s.insulin),
                         raw / f"{profile.patient_id}.csv")


# sha256 of the raw CSVs, the archives below (as first written by the
# per-reading and per-window implementation of the chain) and the
# effective.cfg echo; without effective.cfg the files hash to
# 446e434677cccd4ecfe739aa87fe3d829e6e032d771d118f347c3e7b8633b12c
PINNED_PREPROCESS_SHA256 = "6be6067064a3783558cb8852271bb217b401c9b964cc5fefc43aa1322dbf6f13"


def test_preprocess_archive_bytes_are_pinned(tmp_path):
    _spiked_cohort(tmp_path / "raw")
    assert run("preprocess", "--data", str(tmp_path / "raw"),
               "--out", str(tmp_path / "prep")) == 0
    digest = hashlib.sha256()
    for path in sorted(tmp_path.rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    assert digest.hexdigest() == PINNED_PREPROCESS_SHA256


PATIENT_CSV = ["datetime,glucose,CHO,insulin", "2026-01-05T00:00,100.0,0,0",
               "2026-01-05T00:05,,12.5,0", "2026-01-05T00:10,104.5,0,1.5",
               "2026-01-05T00:15,107.0,0,0"]


@pytest.mark.parametrize("row, column", [
    pytest.param("2026-01-05T00:10,104.5,0", "insulin", id="short-row"),
    pytest.param("2026-01-05T00:10,104.5,0,1.5,3", "insulin", id="long-row"),
    pytest.param("2026-13-05T00:10,104.5,0,1.5", "datetime", id="bad-timestamp"),
    pytest.param("2026-01-05T00:10+01:00,104.5,0,1.5", "datetime", id="timestamp-offset"),
    pytest.param("2026-01-05T00:10Z,104.5,0,1.5", "datetime", id="timestamp-utc"),
    pytest.param("2026-01-05T00:05,104.5,0,1.5", "datetime", id="repeated-timestamp"),
    pytest.param("2026-01-05T00:01,104.5,0,1.5", "datetime", id="earlier-timestamp"),
    pytest.param("2026-01-05T00:10,abc,0,1.5", "glucose", id="glucose-abc"),
    pytest.param("2026-01-05T00:10,inf,0,1.5", "glucose", id="glucose-inf"),
    pytest.param("2026-01-05T00:10,nan,0,1.5", "glucose", id="glucose-nan"),
    pytest.param("2026-01-05T00:10,600.0,0,1.5", "glucose", id="glucose-too-high"),
    pytest.param("2026-01-05T00:10,0,0,1.5", "glucose", id="glucose-zero"),
    pytest.param("2026-01-05T00:10,104.5,1e999,1.5", "CHO", id="cho-inf"),
    pytest.param("2026-01-05T00:10,104.5,0,x", "insulin", id="insulin-abc"),
])
def test_preprocess_names_file_line_and_column_of_a_bad_patient_row(tmp_path, capsys,
                                                                    row, column):
    raw = tmp_path / "raw"
    raw.mkdir()
    path = raw / "p00.csv"
    path.write_text("\n".join(PATIENT_CSV[:3] + [row] + PATIENT_CSV[4:]) + "\n")
    assert run("preprocess", "--data", str(raw), "--out", str(tmp_path / "prep")) == 3
    err = capsys.readouterr().err
    assert f"{path}: line 4, column {column!r}" in err and "Traceback" not in err
    assert not (tmp_path / "prep" / "p00").exists()


@pytest.mark.parametrize("n_lines", [1, 3, 40])
def test_preprocess_names_a_patient_file_too_short_to_split(tmp_path, capsys, n_lines):
    raw = tmp_path / "raw"
    assert run("synth", "--patients", "1", "--days", "1", "--out", str(raw)) == 0
    path = raw / "p00.csv"
    path.write_bytes(b"".join(path.read_bytes().splitlines(keepends=True)[:n_lines]))
    assert run("preprocess", "--data", str(raw), "--out", str(tmp_path / "prep")) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: " in err and "Traceback" not in err


@pytest.mark.parametrize("line, points", [("seq_len = 300", 288),
                                          ("period_minutes = 1000", 2)],
                         ids=["seq_len", "period_minutes"])
def test_preprocess_names_the_window_a_patient_file_is_too_short_for(tmp_path, capsys,
                                                                     line, points):
    raw = tmp_path / "raw"
    assert run("synth", "--patients", "1", "--days", "1", "--out", str(raw)) == 0
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(line + "\n")
    out = tmp_path / "prep"
    assert run("preprocess", "--data", str(raw), "--config", str(cfg_file),
               "--out", str(out)) == 2
    cfg = load_config(cfg_file)
    err = capsys.readouterr().err
    assert (f"error: {raw / 'p00.csv'}: {points} grid points at period_minutes = "
            f"{cfg['period_minutes']}, fewer than one window of seq_len = "
            f"{cfg['seq_len']} plus ph_steps = 6 to its target\n") in err
    assert "Traceback" not in err and not (out / "p00").exists()


# --- train / evaluate / explain -----------------------------------------------------

def test_train_outputs_and_determinism(mini_run):
    out = mini_run / "run"
    assert (out / "model.json").exists()
    assert (out / "history.csv").exists()
    assert (out / "effective.cfg").exists()
    with open(out / "history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["phase"] for r in rows} == {"source", "finetune"}

    rerun = mini_run / "run_again"
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p02",
               "--sources", "p00,p01", "--model", "retain",
               "--max-epochs", "2", "--seed", "3",
               "--config", str(_mini_cfg(mini_run)), "--out", str(rerun)) == 0
    assert (rerun / "model.json").read_bytes() == (out / "model.json").read_bytes()
    assert (rerun / "history.csv").read_bytes() == (out / "history.csv").read_bytes()


# a glucast process: argv[1] "streamed" lets every LSTM layer use the worker
# (at one BLAS thread: the two-layer scans and the streamed weight gradients)
GLUCAST_CHILD = ("import sys\n"
                 "from glucast import cli\n"
                 "from glucast.kernel import lstm\n"
                 "if sys.argv[1] == 'streamed':\n"
                 "    lstm.PARALLEL_STEP_WORK = 0\n"
                 "sys.exit(cli.main(sys.argv[2:]))\n")


def _pipeline_bytes(prep, out, threads, mode):
    """{path: bytes} of what train, evaluate (each family) and explain (retain)
    write at the acceptance size in child processes at ``threads`` BLAS
    threads."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env.update(OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    cfg = out / "small.cfg"
    out.mkdir()
    cfg.write_text("embed_dim = 16\nalpha_hidden = 24\nbeta_hidden = 24\n"
                   "stdattn_hidden = 24\nlstm_hidden1 = 24\nlstm_hidden2 = 24\n")

    def glucast(*argv):
        done = subprocess.run([sys.executable, "-c", GLUCAST_CHILD, mode, *map(str, argv)],
                              env=env, capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr[-2000:]

    for model in ("retain", "stdattn", "lstm"):
        glucast("train", "--data", prep, "--target", "p02", "--sources", "p00,p01",
                "--model", model, "--max-epochs", 1, "--seed", 3, "--config", cfg,
                "--out", out / model / "run")
        glucast("evaluate", "--model", out / model / "run" / "model.json", "--data", prep,
                "--target", "p02", "--out", out / model / "eval")
    glucast("explain", "--model", out / "retain" / "run" / "model.json", "--data", prep,
            "--target", "p02", "--sample", 2, "--event", "cho",
            "--out", out / "retain" / "explain")
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_every_output_is_the_same_at_one_and_two_blas_threads(mini_run, tmp_path):
    # each weight gradient sums fixed row blocks, so no bit depends on how
    # BLAS splits a product across its threads, or on the worker: at one
    # thread the "streamed" children run every BPTT that can on both cores,
    # at two threads (on two cores) everything on the calling thread
    prep = mini_run / "prep"
    expect = _pipeline_bytes(prep, tmp_path / "plain-1", 1, "plain")
    assert all(Path(model, step, name) in expect for model in ("retain", "stdattn", "lstm")
               for step, name in (("run", "model.json"), ("eval", "points.csv")))
    assert Path("retain", "explain", "attribution_mean.csv") in expect
    for threads, mode in ((2, "plain"), (1, "streamed"), (2, "streamed")):
        got = _pipeline_bytes(prep, tmp_path / f"{mode}-{threads}", threads, mode)
        assert sorted(got) == sorted(expect)
        differ = [str(name) for name in expect if got[name] != expect[name]]
        assert not differ, f"{mode} at {threads} BLAS thread(s): {differ} differ"


def test_train_without_sources_skips_source_phase(mini_run):
    out = mini_run / "solo"
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p00",
               "--model", "retain", "--max-epochs", "1", "--seed", "1",
               "--config", str(_mini_cfg(mini_run)), "--out", str(out)) == 0
    with open(out / "history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["phase"] for r in rows} == {"finetune"}


@pytest.mark.parametrize("lr, kept_epoch", [("1e-3", 2), ("10", 0)])
def test_train_prints_the_kept_models_validation_mse_and_epoch(mini_run, tmp_path,
                                                              capsys, lr, kept_epoch):
    # at lr 10 no finetune epoch improves on the initial model, which is kept
    cfg = tmp_path / "lr.cfg"
    cfg.write_text(_mini_cfg(mini_run).read_text() + f"lr_finetune = {lr}\n")
    out = tmp_path / "run"
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p00",
               "--model", "retain", "--max-epochs", "2", "--seed", "1",
               "--config", str(cfg), "--out", str(out)) == 0
    _, _, valid = read_archive(mini_run / "prep" / "p00", "valid")
    kept = np.mean((load_model(out / "model.json").predict(valid.x) - valid.y) ** 2)
    with open(out / "history.csv") as fh:
        epochs = [float(r["valid_mse"]) for r in csv.DictReader(fh)]
    assert len(epochs) == 2
    if kept_epoch:
        assert kept == epochs[kept_epoch - 1] == min(epochs)
    else:
        assert kept < min(epochs)
    assert capsys.readouterr().out.endswith(
        f"kept the finetune epoch {kept_epoch} model, valid MSE {kept:.6f}\n")


def test_train_missing_archive_exit_3(mini_run):
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p99",
               "--model", "retain", "--max-epochs", "1",
               "--config", str(_mini_cfg(mini_run)),
               "--out", str(mini_run / "zz")) == 3


def test_train_single_source_is_usage_error(mini_run):
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p02",
               "--sources", "p00", "--model", "retain", "--max-epochs", "1",
               "--config", str(_mini_cfg(mini_run)),
               "--out", str(mini_run / "zz2")) == 2


@pytest.mark.parametrize("sources", ["p00", "p00,p01,p00", "p00,p02"])
def test_train_rejects_one_source_or_a_repeated_one_before_reading(tmp_path, capsys,
                                                                   sources):
    out = tmp_path / "run"
    assert run("train", "--data", str(tmp_path / "missing"), "--target", "p02",
               "--sources", sources, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert f"--sources {sources}: " in err and "Traceback" not in err
    assert ("--target p02" in err) == ("p02" in sources)
    assert not out.exists()


def test_train_reads_no_test_split_and_evaluate_names_the_missing_one(mini_run,
                                                                      tmp_path, capsys):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep", prep)
    for path in prep.glob("*/test.csv"):
        path.unlink()
    out = tmp_path / "run"
    assert run("train", "--data", str(prep), "--target", "p02",
               "--sources", "p00,p01", "--model", "retain",
               "--max-epochs", "2", "--seed", "3",
               "--config", str(_mini_cfg(mini_run)), "--out", str(out)) == 0
    for name in ("model.json", "history.csv"):
        assert (out / name).read_bytes() == (mini_run / "run" / name).read_bytes()
    capsys.readouterr()
    assert run("evaluate", "--model", str(out / "model.json"), "--data", str(prep),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 3
    err = capsys.readouterr().err
    assert str(prep / "p02" / "test.csv") in err and "Traceback" not in err


def test_no_command_reads_an_archive_through_read_patient_archive():
    # the name stays imported into cli only for the benchmark tracer to bind
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    assert not [node.lineno for node in ast.walk(tree)
                if isinstance(node, ast.Name) and node.id == "read_patient_archive"]


def test_evaluate_writes_metrics_and_cgega(mini_run):
    out = mini_run / "eval"
    assert run("evaluate", "--model", str(mini_run / "run" / "model.json"),
               "--data", str(mini_run / "prep"), "--target", "p02",
               "--out", str(out)) == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["rmse_mgdl"] > 0 and 0 <= metrics["overall_cg_ega"]["AP"] <= 1
    cgega = json.loads((out / "cgega.json").read_text())
    assert cgega["n_classified"] == metrics["n_test"] - 1
    with open(out / "points.csv") as fh:
        assert len(list(csv.DictReader(fh))) == cgega["n_classified"]


def test_evaluate_missing_model_exit_3(mini_run):
    assert run("evaluate", "--model", str(mini_run / "missing.json"),
               "--data", str(mini_run / "prep"), "--target", "p02",
               "--out", str(mini_run / "ev2")) == 3


def _corrupt(line_no, column, token):
    """An edit of an archive CSV that sets one field of one line (1-based)."""
    def edit(lines):
        fields = lines[line_no - 1].split(",")
        fields[column] = token
        lines[line_no - 1] = ",".join(fields)
    return edit


def _swap(line_no):
    """An edit of an archive CSV that swaps one line (1-based) with the next."""
    def edit(lines):
        lines[line_no - 1], lines[line_no] = lines[line_no], lines[line_no - 1]
    return edit


@pytest.mark.parametrize("edit, where", [
    pytest.param(_corrupt(5, 40, "abc"), "line 5, column 'cho_2'", id="token"),
    pytest.param(_corrupt(12, -1, "inf"), "line 12, column 'target'", id="inf-target"),
    pytest.param(lambda lines: lines.__delitem__(slice(1, None)), "no sample rows",
                 id="header-only"),
    # CG-EGA needs two points
    pytest.param(lambda lines: lines.__delitem__(slice(2, None)), "1 sample row",
                 id="one-row"),
    # the error grid reads the rows in time order: evaluate sorts nothing
    pytest.param(_swap(5), "line 6, column 'timestamp'", id="swapped-rows"),
    pytest.param(lambda lines: lines.insert(7, lines[6]), "line 8, column 'timestamp'",
                 id="repeated-row"),
    pytest.param(_corrupt(5, -1, "-100"), "line 5, column 'target'",
                 id="non-positive-target"),
])
def test_evaluate_rejects_corrupted_test_csv_exit_3(mini_run, tmp_path, capsys,
                                                    edit, where):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep" / "p02", prep / "p02")
    path = prep / "p02" / "test.csv"
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    edit(lines)
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    assert run("evaluate", "--model", str(mini_run / "run" / "model.json"),
               "--data", str(prep), "--target", "p02",
               "--out", str(tmp_path / "ev")) == 3
    err = capsys.readouterr().err
    assert f"{path}: {where}" in err and "Traceback" not in err
    assert not (tmp_path / "ev").exists()


# faults that no row of an archive CSV can hold, whichever split it is: rows
# out of time order, and a target that stands for glucose below 0 mg/dL
SPLIT_FAULTS = {
    "swapped-rows": (_swap(5), "line 6, column 'timestamp'"),
    "repeated-row": (lambda lines: lines.insert(7, lines[6]), "line 8, column 'timestamp'"),
    "negative-target": (_corrupt(5, -1, "-100"), "line 5, column 'target'"),
}


@pytest.mark.parametrize("fault", list(SPLIT_FAULTS))
@pytest.mark.parametrize("command, split", [
    ("train", "p02/train.csv"), ("train", "p02/valid.csv"), ("train", "p00/train.csv"),
    ("train", "p00/valid.csv"), ("explain", "p02/test.csv")])
def test_split_fault_exits_3_under_every_command_naming_file_line_and_column(
        mini_run, tmp_path, capsys, command, split, fault):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep", prep)
    path = prep / split
    edit, where = SPLIT_FAULTS[fault]
    lines = path.read_bytes().decode().split("\r\n")[:-1]
    edit(lines)
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    argv = {"train": ["train", "--sources", "p00,p01", "--max-epochs", "1",
                      "--config", str(_mini_cfg(mini_run))],
            "explain": ["explain", "--model", str(mini_run / "run" / "model.json"),
                        "--sample", "0"]}[command]
    out = tmp_path / "out"
    assert run(*argv, "--data", str(prep), "--target", "p02", "--out", str(out)) == 3
    err = capsys.readouterr().err
    assert f"{path}: {where}" in err and "Traceback" not in err
    assert not out.exists()


SIDECAR_KEYS = ["format", "input_mean", "input_std", "target_mean", "target_std",
                "seq_len", "ph_steps", "period_minutes", "patient_id"]


def _set_key(key, value):
    def edit(doc):
        doc[key] = value
    return edit


@pytest.mark.parametrize("edit, key", [
    *[pytest.param(lambda doc, k=k: doc.pop(k), k, id=f"no-{k}") for k in SIDECAR_KEYS],
    pytest.param(_set_key("format", "glucast-scaling-v0"), "format", id="format"),
    pytest.param(_set_key("input_mean", [120.0, "a", 1.0]), "input_mean", id="mean-string"),
    pytest.param(_set_key("input_mean", []), "input_mean", id="mean-empty"),
    pytest.param(_set_key("input_std", [25.0, 0.0, 1.0]), "input_std", id="std-zero"),
    pytest.param(_set_key("input_std", [25.0, 1.0]), "input_std", id="std-length"),
    pytest.param(_set_key("target_mean", float("nan")), "target_mean", id="mean-nan"),
    pytest.param(_set_key("target_std", -1.0), "target_std", id="std-negative"),
    pytest.param(_set_key("target_std", float("inf")), "target_std", id="std-inf"),
    pytest.param(_set_key("seq_len", "37"), "seq_len", id="seq-len-string"),
    pytest.param(_set_key("seq_len", True), "seq_len", id="seq-len-bool"),
    pytest.param(_set_key("ph_steps", 0), "ph_steps", id="ph-steps-zero"),
    pytest.param(_set_key("period_minutes", 2.5), "period_minutes", id="period-float"),
    pytest.param(_set_key("patient_id", 2), "patient_id", id="patient-id-int"),
])
def test_evaluate_rejects_bad_scaling_sidecar_exit_3(mini_run, tmp_path, capsys,
                                                     edit, key):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep" / "p02", prep / "p02")
    path = prep / "p02" / "scaling.json"
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    assert run("evaluate", "--model", str(mini_run / "run" / "model.json"),
               "--data", str(prep), "--target", "p02",
               "--out", str(tmp_path / "ev")) == 3
    err = capsys.readouterr().err
    assert f"{path}: key {key!r}" in err and "Traceback" not in err
    assert not (tmp_path / "ev").exists()


def test_evaluate_rejects_non_finite_metrics_exit_4(mini_run, tmp_path, capsys):
    doc = json.loads((mini_run / "run" / "model.json").read_text())
    doc["params"]["out_b"] = 1e308  # finite, but no prediction in mg/dL is
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("evaluate", "--model", str(model), "--data", str(mini_run / "prep"),
                   "--target", "p02", "--out", str(tmp_path / "ev")) == 4
    err = capsys.readouterr().err
    assert str(model) in err and "non-finite" in err
    assert not (tmp_path / "ev").exists()


def test_evaluate_rejects_predictions_at_or_below_zero_exit_4(mini_run, tmp_path,
                                                              capsys):
    doc = json.loads((mini_run / "run" / "model.json").read_text())
    doc["params"]["out_b"] = -100.0
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert run("evaluate", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 4
    err = capsys.readouterr().err
    assert f"model {model} predicts glucose at or below 0 mg/dL" in err
    assert "windows of p02" in err and "Traceback" not in err
    assert not (tmp_path / "ev").exists()


def _fill_param(mini_run, tmp_path, name, value):
    """The mini run's model with every entry of the parameter ``name`` set
    to ``value``."""
    doc = json.loads((mini_run / "run" / "model.json").read_text())
    doc["params"][name] = np.full(np.shape(doc["params"][name]), value).tolist()
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    return model


@pytest.mark.parametrize("command, name, value, cause", [
    ("evaluate", "alpha_w", 1e308, "softmax input contains NaN or Inf entries"),
    ("explain", "alpha_w", 1e308, "softmax input contains NaN or Inf entries"),
    ("explain", "out_w", 0.0, "all contributions are zero (window 0)"),
])
def test_a_model_that_fails_on_the_test_windows_exits_4_naming_it_and_the_target(
        mini_run, tmp_path, capsys, command, name, value, cause):
    model = _fill_param(mini_run, tmp_path, name, value)
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert run(command, "--model", str(model), "--data", str(mini_run / "prep"),
                   "--target", "p02", "--out", str(out)) == 4
    err = capsys.readouterr().err
    assert f"error: model {model} fails on the test windows of p02: {cause}" in err
    assert "Traceback" not in err and not out.exists()


def test_evaluate_scores_a_constant_predictor(mini_run, tmp_path):
    model = _fill_param(mini_run, tmp_path, "out_w", 0.0)
    assert run("evaluate", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 0
    assert (tmp_path / "ev" / "metrics.json").exists()


def test_train_whose_scores_overflow_exits_4_naming_phase_and_epoch(mini_run, tmp_path,
                                                                   capsys):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text("embed_dim = 4\nalpha_hidden = 4\nbeta_hidden = 4\n"
                   "lr_source = 1e200\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert run("train", "--data", str(mini_run / "prep"), "--target", "p02",
                   "--sources", "p00,p01", "--max-epochs", "2", "--seed", "3",
                   "--config", str(cfg), "--out", str(tmp_path / "run")) == 4
    err = capsys.readouterr().err
    assert "error: source: loss diverged at epoch 1\n" in err and "Traceback" not in err
    assert not list((tmp_path / "run").iterdir())  # made before training, left empty


def test_explain_sample_reconstructs_prediction(mini_run):
    out = mini_run / "explain"
    assert run("explain", "--model", str(mini_run / "run" / "model.json"),
               "--data", str(mini_run / "prep"), "--target", "p02",
               "--sample", "0", "--event", "cho", "--out", str(out)) == 0
    assert (out / "attribution_mean.csv").exists()
    assert (out / "attribution_max.csv").exists()

    with open(out / "contributions_0.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "age_minutes"
    *body, bias_row, pred_row = rows[1:]
    total = sum(float(v) for row in body for v in row[1:])
    assert bias_row[0] == "bias" and pred_row[0] == "prediction"
    recon = total + float(bias_row[1])
    y_hat = float(pred_row[1])
    assert abs(recon - y_hat) <= 1e-6 * max(1.0, abs(y_hat))

    with open(out / "event_cho.csv") as fh:
        event_rows = list(csv.DictReader(fh))
    assert event_rows, "meal events should appear in the test windows"
    assert all(int(r["count"]) >= 0 for r in event_rows)


def _read_matrix(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) if v else np.nan for v in row[1:]] for row in rows])


def test_explain_aggregate_matches_offline_recomputation(mini_run):
    out = mini_run / "explain"
    from glucast.datapipe import read_archive
    from glucast.models import (contributions, load_model,
                                normalized_contributions, aggregate_attributions,
                                event_conditioned_attributions)
    from glucast.models.attribution import event_mask_from_windows
    model = load_model(mini_run / "run" / "model.json")
    scaling, meta, test = read_archive(mini_run / "prep" / "p02", "test")
    atts = []
    for x in test.x:
        trace = model.forward(x)
        atts.append(normalized_contributions(contributions(x, trace, model.params)))
    for mode in ("mean", "max"):
        got = _read_matrix(out / f"attribution_{mode}.csv")
        assert np.allclose(got, aggregate_attributions(atts, mode), rtol=0, atol=1e-12)

    mask = event_mask_from_windows(test.x, scaling, 1)
    profile = event_conditioned_attributions(
        mask, atts, 60, meta["period_minutes"])
    expect = np.array([np.full(3, np.nan) if mean is None else mean.sum(axis=0)
                       for mean in profile.means])
    got = _read_matrix(out / "event_cho.csv")
    assert np.array_equal(got[:, 0], np.array(profile.counts, dtype=float))
    assert np.allclose(got[:, 1:], expect, rtol=0, atol=1e-12, equal_nan=True)


def test_explain_rerun_is_byte_identical(mini_run, tmp_path):
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("explain", "--model", str(mini_run / "run" / "model.json"),
                   "--data", str(mini_run / "prep"), "--target", "p02",
                   "--sample", "3", "--event", "cho", "--out", str(out)) == 0
        runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    assert runs[0] == runs[1]
    assert "contributions_3.csv" in runs[0] and "event_cho.csv" in runs[0]


@pytest.fixture(scope="module")
def two_var_run(mini_run, tmp_path_factory):
    """The target's archive cut to glucose and CHO, and a retain model
    trained on it, which takes its input width from the archive."""
    root = tmp_path_factory.mktemp("two_var")
    shutil.copytree(mini_run / "prep" / "p02", root / "prep" / "p02")
    _drop_insulin(root / "prep" / "p02")
    assert run("train", "--data", str(root / "prep"), "--target", "p02",
               "--max-epochs", "1", "--seed", "3", "--config", str(_mini_cfg(mini_run)),
               "--out", str(root / "run")) == 0
    assert json.loads((root / "run" / "model.json").read_text())["config"]["input_dim"] == 2
    return root


def _drop_insulin_columns(path):
    """Cut the insulin_* columns from an archive split's CSV."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if not name.startswith("insulin_")]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([row[i] for i in keep] for row in rows)


def _drop_insulin(archive):
    """Cut a patient's archive to glucose and CHO: its windows and its sidecar."""
    for split in ("train", "valid", "test"):
        _drop_insulin_columns(archive / f"{split}.csv")
    sidecar = archive / "scaling.json"
    doc = json.loads(sidecar.read_text())
    doc["input_mean"], doc["input_std"] = doc["input_mean"][:2], doc["input_std"][:2]
    sidecar.write_text(json.dumps(doc))


def test_explain_tables_of_a_two_variable_archive_have_two_columns(two_var_run):
    out = two_var_run / "explain"
    assert run("explain", "--model", str(two_var_run / "run" / "model.json"),
               "--data", str(two_var_run / "prep"), "--target", "p02",
               "--sample", "0", "--event", "cho", "--out", str(out)) == 0
    for name in ("attribution_mean.csv", "attribution_max.csv", "contributions_0.csv"):
        with open(out / name, newline="") as fh:
            header, *rows = list(csv.reader(fh))
        suffix = "_contribution" if name.startswith("contributions") else ""
        assert header == ["age_minutes", f"glucose{suffix}", f"cho{suffix}"], name
        assert all(len(row) == 3 for row in rows), name
    with open(out / "event_cho.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["offset_minutes", "count", "glucose_share", "cho_share"]
    assert rows and all(len(row) == 4 for row in rows)


def test_explain_event_missing_from_the_archive_exits_2(two_var_run, tmp_path, capsys):
    out = tmp_path / "ex"
    assert run("explain", "--model", str(two_var_run / "run" / "model.json"),
               "--data", str(two_var_run / "prep"), "--target", "p02",
               "--event", "insulin", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--event insulin" in err and "Traceback" not in err
    assert str(two_var_run / "prep" / "p02" / "scaling.json") in err
    assert not out.exists()


def test_explain_rejects_a_negative_horizon_before_writing(mini_run, tmp_path, capsys):
    out = tmp_path / "ex"
    assert run("explain", "--model", str(mini_run / "run" / "model.json"),
               "--data", str(mini_run / "prep"), "--target", "p02", "--event", "cho",
               "--horizon", "-5", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "--horizon" in err and "Traceback" not in err
    assert not out.exists()


def _edit_model(src, dst, **config):
    doc = json.loads(Path(src).read_text())
    doc["config"].update(config)
    if "input_dim" in config:  # a model of that width, which load_model accepts
        doc["params"]["embed_w"] = [row[:config["input_dim"]]
                                    for row in doc["params"]["embed_w"]]
    Path(dst).write_text(json.dumps(doc))
    return dst


@pytest.mark.parametrize("field, value", [("seq_len", 12), ("input_dim", 2)])
def test_evaluate_rejects_model_of_other_window_geometry(mini_run, tmp_path,
                                                         capsys, field, value):
    model = _edit_model(mini_run / "run" / "model.json", tmp_path / "model.json",
                        **{field: value})
    assert run("evaluate", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 2
    err = capsys.readouterr().err
    assert str(model) in err and field in err
    assert str(mini_run / "prep" / "p02" / "scaling.json") in err
    assert not (tmp_path / "ev" / "metrics.json").exists()


def test_evaluate_names_the_width_of_test_windows_narrower_than_the_sidecar(
        mini_run, tmp_path, capsys):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep" / "p02", prep / "p02")
    _drop_insulin_columns(prep / "p02" / "test.csv")
    assert run("evaluate", "--model", str(mini_run / "run" / "model.json"), "--data",
               str(prep), "--target", "p02", "--out", str(tmp_path / "ev")) == 2
    err = capsys.readouterr().err
    assert "input_dim = 3, but the archive" in err and "have input_dim = 2" in err
    assert str(prep / "p02" / "scaling.json") in err


def test_explain_rejects_model_of_other_window_geometry(mini_run, tmp_path, capsys):
    model = _edit_model(mini_run / "run" / "model.json", tmp_path / "model.json",
                        seq_len=12)
    assert run("explain", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--sample", "0", "--out", str(tmp_path / "ex")) == 2
    err = capsys.readouterr().err
    assert str(model) in err and "seq_len" in err
    assert str(mini_run / "prep" / "p02" / "scaling.json") in err
    assert not (tmp_path / "ex").exists()


@pytest.mark.parametrize("family, field, value", [
    ("retain", "seq_len", 12), ("stdattn", "seq_len", 12), ("retain", "ph_steps", 12),
    ("retain", "period_minutes", 10)])
def test_train_rejects_archives_of_other_window_geometry(mini_run, tmp_path, capsys,
                                                         family, field, value):
    raw = tmp_path / "raw"
    raw.mkdir()
    shutil.copy(mini_run / "raw" / "p01.csv", raw)
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep", prep)
    cfg = tmp_path / "p01.cfg"
    cfg.write_text(_mini_cfg(mini_run).read_text() + f"{field} = {value}\n")
    assert run("preprocess", "--data", str(raw), "--config", str(cfg),
               "--out", str(prep)) == 0
    out = tmp_path / "run"
    assert run("train", "--data", str(prep), "--target", "p02", "--sources", "p00,p01",
               "--model", family, "--max-epochs", "1", "--config",
               str(_mini_cfg(mini_run)), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert (f"the target archive {prep / 'p02' / 'scaling.json'} has "
            f"{field} = {CONFIG_DEFAULTS[field]}, but the archive "
            f"{prep / 'p01' / 'scaling.json'}") in err
    assert f"have {field} = {value}" in err
    assert "Traceback" not in err and not out.exists()


def test_train_takes_the_window_from_the_target_archive(mini_run, tmp_path):
    cfg = tmp_path / "w20.cfg"
    cfg.write_text("seq_len = 20\ntest_days = 2\n")
    prep, out = tmp_path / "prep", tmp_path / "run"
    assert run("preprocess", "--data", str(mini_run / "raw"), "--config", str(cfg),
               "--out", str(prep)) == 0
    assert run("train", "--data", str(prep), "--target", "p02", "--sources", "p00,p01",
               "--max-epochs", "1", "--out", str(out)) == 0  # the config's seq_len is 37
    assert json.loads((out / "model.json").read_text())["config"]["seq_len"] == 20
    assert run("evaluate", "--model", str(out / "model.json"), "--data", str(prep),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 0


def test_train_rejects_a_source_archive_narrower_than_the_target(mini_run, tmp_path,
                                                                 capsys):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep", prep)
    _drop_insulin(prep / "p00")
    out = tmp_path / "run"
    assert run("train", "--data", str(prep), "--target", "p02", "--sources", "p00,p01",
               "--max-epochs", "1", "--config", str(_mini_cfg(mini_run)),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert (f"the target archive {prep / 'p02' / 'scaling.json'} has input_dim = 3, "
            f"but the archive {prep / 'p00' / 'scaling.json'}") in err
    assert "have input_dim = 2" in err and "Traceback" not in err and not out.exists()


@pytest.mark.parametrize("split", ["train", "valid"])
def test_train_names_the_target_split_narrower_than_its_own_sidecar(
        mini_run, tmp_path, capsys, split):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep", prep)
    _drop_insulin_columns(prep / "p02" / f"{split}.csv")
    out = tmp_path / "run"
    assert run("train", "--data", str(prep), "--target", "p02", "--sources", "p00,p01",
               "--max-epochs", "1", "--config", str(_mini_cfg(mini_run)),
               "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert (f"{prep / 'p02' / 'scaling.json'} has input_dim = 3, but the archive "
            f"windows in {prep / 'p02' / f'{split}.csv'} have input_dim = 2") in err
    assert err.count("scaling.json") == 1 and "Traceback" not in err and not out.exists()


# each family's config-key sizes and the model.json config block they give
# (the archive's width and the number of sources filled in)
FAMILY_SIZES = {
    "retain": ("embed_dim = 5\nalpha_hidden = 7\nbeta_hidden = 4\nreverse_time = true\n",
               {"seq_len": 20, "input_dim": 3, "embed_dim": 5, "alpha_hidden": 7,
                "beta_hidden": 4, "n_sources": 2, "reverse_time": True}),
    "stdattn": ("stdattn_hidden = 5\n", {"input_dim": 3, "hidden": 5}),
    "lstm": ("lstm_hidden1 = 5\nlstm_hidden2 = 4\n",
             {"input_dim": 3, "hidden1": 5, "hidden2": 4, "n_sources": 2}),
}


@pytest.mark.parametrize("family", FAMILY_SIZES)
def test_config_keys_reach_every_family_and_the_training_and_split_configs(
        mini_run, tmp_path, monkeypatch, family):
    sizes, block = FAMILY_SIZES[family]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(sizes + "lambda = 0.25\nbatch_size = 7\ntest_days = 3\n"
                   "valid_fraction = 0.3\npatience_source = 2\npatience_finetune = 2\n"
                   "seq_len = 20\nph_steps = 3\nperiod_minutes = 10\n"
                   "spike_threshold = 40\n")
    seen = []

    def spy(real, at):  # records the config argument at position ``at``
        def call(*args, **kwargs):
            seen.append(args[at])
            return real(*args, **kwargs)
        return call

    for name, at in (("preprocess_series", 1), ("train_source", 2), ("finetune", 2)):
        monkeypatch.setattr(cli, name, spy(getattr(cli, name), at))
    prep, out = tmp_path / "prep", tmp_path / "run"
    assert run("preprocess", "--data", str(mini_run / "raw"), "--config", str(cfg),
               "--out", str(prep)) == 0
    assert run("train", "--data", str(prep), "--target", "p02", "--sources", "p00,p01",
               "--model", family, "--max-epochs", "1", "--seed", "3",
               "--config", str(cfg), "--out", str(out)) == 0
    split = SplitSpec(test_days=3, valid_fraction=0.3, seq_len=20, ph_steps=3,
                      period_minutes=10, spike_threshold=40.0)
    train = TrainConfig(batch_size=7, lam=0.25, max_epochs=1, seed=3,
                        patience_source=2, patience_finetune=2)
    assert seen == [split] * 3 + [train] * 2
    assert all(type(spec.spike_threshold) is float for spec in seen[:3])
    doc = json.loads((out / "model.json").read_text())
    assert doc["config"] == block
    sidecar = json.loads((prep / "p02" / "scaling.json").read_text())
    assert (sidecar["seq_len"], sidecar["ph_steps"], sidecar["period_minutes"]) == (20, 3, 10)
    assert doc["config"]["input_dim"] == len(sidecar["input_mean"])


def _target_is_a_file(mini_run, tmp_path):
    target = "p02/scaling.json"
    return (["evaluate", "--model", str(mini_run / "run" / "model.json"), "--data",
             str(mini_run / "prep"), "--target", target, "--out", str(tmp_path / "ev")],
            mini_run / "prep" / target)


def _directory_among_patient_csvs(mini_run, tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    shutil.copy(mini_run / "raw" / "p00.csv", raw)
    (raw / "zz.csv").mkdir()
    return (["preprocess", "--data", str(raw), "--config", str(_mini_cfg(mini_run)),
             "--out", str(tmp_path / "prep")], raw / "zz.csv")


def _test_split_is_a_directory(mini_run, tmp_path):
    prep = tmp_path / "prep"
    shutil.copytree(mini_run / "prep" / "p02", prep / "p02")
    (prep / "p02" / "test.csv").unlink()
    (prep / "p02" / "test.csv").mkdir()
    return (["evaluate", "--model", str(mini_run / "run" / "model.json"), "--data",
             str(prep), "--target", "p02", "--out", str(tmp_path / "ev")],
            prep / "p02" / "test.csv")


@pytest.mark.parametrize("case", [_target_is_a_file, _directory_among_patient_csvs,
                                  _test_split_is_a_directory],
                         ids=["target-is-a-file", "dir-named-csv", "test-csv-is-a-dir"])
def test_filesystem_fault_on_an_input_exits_3_naming_the_path(mini_run, tmp_path,
                                                              capsys, case):
    argv, path = case(mini_run, tmp_path)
    assert run(*argv) == 3
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def _delete_param(params, name):
    del params[name]


def _truncate_param(params, name):
    params[name] = params[name][:-1]


def _set_first_entry(value):
    def edit(params, name):
        row = params[name]
        while isinstance(row[0], list):
            row = row[0]
        row[0] = value
    return edit


@pytest.mark.parametrize("edit, field", [
    (_delete_param, "beta_b"),
    (_truncate_param, "out_w"),
    (_truncate_param, "alpha_rnn.w_in"),
    (lambda params, name: params.__setitem__(name, "nan"), "out_b"),
    (_set_first_entry(None), "beta_w"),
    (_set_first_entry(float("nan")), "alpha_rnn.w_rec"),
    (_set_first_entry(float("-inf")), "embed_w"),
    (_set_first_entry("0.5"), "out_w"),
])
def test_evaluate_rejects_model_with_bad_parameter(mini_run, tmp_path, capsys,
                                                   edit, field):
    doc = json.loads((mini_run / "run" / "model.json").read_text())
    edit(doc["params"], field)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(doc))
    assert run("evaluate", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 2
    err = capsys.readouterr().err
    assert str(model) in err and repr(field) in err and "Traceback" not in err
    assert not (tmp_path / "ev").exists()


@pytest.mark.parametrize("build, field, value", [
    (lambda: StdAttnModel.create(input_dim=3, hidden=4, seed=0), "hidden", 0),
    (lambda: LstmRegModel.create(input_dim=3, n_sources=2, seed=0, hidden1=4,
                                 hidden2=3), "hidden1", -1),
])
def test_evaluate_rejects_baseline_dimension_below_one(mini_run, tmp_path, capsys,
                                                       build, field, value):
    model = tmp_path / "model.json"
    save_model(build(), model)
    _edit_model(model, model, **{field: value})
    assert run("evaluate", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--out", str(tmp_path / "ev")) == 2
    err = capsys.readouterr().err
    assert str(model) in err and field in err and "Traceback" not in err
    assert not (tmp_path / "ev").exists()


def test_train_rejects_baseline_dimension_below_one(mini_run, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(_mini_cfg(mini_run).read_text() + "stdattn_hidden = 0\n")
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p00",
               "--model", "stdattn", "--max-epochs", "1", "--config", str(cfg),
               "--out", str(tmp_path / "tr")) == 2
    assert "hidden" in capsys.readouterr().err
    assert not (tmp_path / "tr" / "model.json").exists()


def test_explain_non_attributable_model_exit_5(mini_run, tmp_path):
    out = mini_run / "lstm_run"
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p00",
               "--model", "stdattn", "--max-epochs", "1", "--seed", "1",
               "--config", str(_mini_cfg(mini_run)), "--out", str(out)) == 0
    assert run("explain", "--model", str(out / "model.json"),
               "--data", str(mini_run / "prep"), "--target", "p00",
               "--out", str(tmp_path / "nope")) == 5


def test_explain_of_a_non_attributable_model_exits_5_before_reading_the_archive(
        tmp_path, capsys):
    model = tmp_path / "model.json"
    save_model(StdAttnModel.create(input_dim=3, hidden=4, seed=0), model)
    assert run("explain", "--model", str(model), "--data", str(tmp_path / "missing"),
               "--target", "p00", "--out", str(tmp_path / "ex")) == 5
    assert f"model {model} is not attributable" in capsys.readouterr().err
    assert not (tmp_path / "ex").exists()


# --- every input kind, corrupted ------------------------------------------------

def _bad_byte(draw, data):
    """``data`` with a byte that is never UTF-8 put in somewhere."""
    at = draw(st.integers(0, len(data)))
    return data[:at] + b"\xff" + data[at:]


def _replace_field(lines, i, k, token):
    fields = lines[i].split(",")
    fields[k] = token
    lines[i] = ",".join(fields)


def _corrupt_lines(draw, data, bad_tokens, too_short):
    """A CSV with CRLF rows made invalid: a bad token in one field, a field
    too few or too many, a bad header, too few rows, or a byte that is not
    UTF-8. bad_tokens maps a column index to tokens that are never valid
    there; too_short is how many lines (header included) are too few."""
    lines = data.decode().split("\r\n")[:-1]
    how = draw(st.sampled_from(["field", "fewer", "more", "header", "short", "bytes"]))
    i = draw(st.integers(1, len(lines) - 1))
    if how == "field":
        k = draw(st.sampled_from(sorted(bad_tokens)))
        _replace_field(lines, i, k, draw(st.sampled_from(bad_tokens[k])))
    elif how == "fewer":
        lines[i] = lines[i].rsplit(",", 1)[0]
    elif how == "more":
        lines[i] += ",7"
    elif how == "header":
        lines[0] = draw(st.sampled_from(["", "datetime", lines[0] + ",x",
                                         lines[0].replace(",", ";")]))
    elif how == "short":
        del lines[draw(st.integers(1, too_short)):]
    data = "".join(line + "\r\n" for line in lines).encode()
    return _bad_byte(draw, data) if how == "bytes" else data


def _corrupt_patient_csv(draw, data):
    lines = data.decode().split("\r\n")
    if draw(st.booleans()):  # a timestamp that does not follow the previous one
        i = draw(st.integers(2, len(lines) - 2))
        _replace_field(lines, i, 0, lines[i - draw(st.integers(1, 2))].split(",")[0])
        return "\r\n".join(lines).encode()
    return _corrupt_lines(draw, data, {
        0: ["yesterday", "2026-13-05T00:10", "20260105", "2026-01-05T25:00"],
        1: ["abc", "nan", "inf", "0", "600", "-4", "1e999"],
        2: ["abc", "nan", "-inf", "1e999"], 3: ["x", "inf", "NaN", "--1"]},
        too_short=30)  # under one window


def _corrupt_archive_csv(draw, data):
    bad = ["abc", "nan", "inf", "", "1e999", "0x1"]
    return _corrupt_lines(draw, data, {0: ["2026-13-05T00:10", "x", "2026-01-05 00:10"],
                                       1: bad, 40: bad, 112: bad}, too_short=1)


def _corrupt_json(draw, data, edits):
    """A JSON document truncated, given a byte that is not UTF-8, or edited
    by one of ``edits`` (functions of the parsed document and ``draw``)."""
    how = draw(st.sampled_from(["truncate", "bytes", "edit"]))
    if how == "truncate":
        return data.rstrip()[:draw(st.integers(0, len(data.rstrip()) - 1))]
    if how == "bytes":
        return _bad_byte(draw, data)
    doc = json.loads(data)
    draw(st.sampled_from(edits))(doc, draw)
    return json.dumps(doc).encode()




def _edit_sidecar(doc, draw):
    key = draw(st.sampled_from(SIDECAR_KEYS))
    if draw(st.booleans()):
        del doc[key]
    else:
        doc[key] = draw(st.sampled_from([None, [], {}, True]))  # valid for no key


def _edit_model_config(doc, draw):
    key = draw(st.sampled_from(sorted(doc["config"])))
    if draw(st.booleans()):
        del doc["config"][key]
    else:
        doc["config"][key] = draw(st.sampled_from([None, [], {}, "x", 0, -1]))


def _edit_model_param(doc, draw):
    params = doc["params"]
    name = draw(st.sampled_from(sorted(params)))
    if draw(st.booleans()):
        del params[name]
    elif isinstance(params[name], list):
        draw(st.sampled_from([_truncate_param, _set_first_entry(None),
                              _set_first_entry("0.5"), _set_first_entry([])]))(params, name)
    else:
        params[name] = draw(st.sampled_from([None, "0.5", []]))


def _edit_model_format(doc, draw):
    doc[draw(st.sampled_from(["format", "config", "params"]))] = \
        draw(st.sampled_from(["retain-v0", None, [], 3]))


def _overflow_scores(doc, draw):
    """Every entry of embed_w or alpha_w at +-1e308: finite, but the
    attention scores of every test window overflow."""
    name = draw(st.sampled_from(["embed_w", "alpha_w"]))
    doc["params"][name] = np.full(np.shape(doc["params"][name]),
                                  draw(st.sampled_from([1e308, -1e308]))).tolist()


CONFIG_TYPED_KEYS = [key for key, value in CONFIG_DEFAULTS.items()
                     if not isinstance(value, str)]


def _corrupt_config(draw, data):
    how = draw(st.sampled_from(["value", "domain", "unknown", "no-equals", "bytes"]))
    if how == "bytes":
        return _bad_byte(draw, data)
    key = draw(st.sampled_from(CONFIG_TYPED_KEYS))
    default = CONFIG_DEFAULTS[key]
    bad = ("maybe" if isinstance(default, bool) else
           draw(st.sampled_from(["abc", "", "1.5" if isinstance(default, int) else "1,5"])))
    if how == "domain":
        key = draw(st.sampled_from(sorted(OUT_OF_DOMAIN)))
        bad = draw(st.sampled_from(OUT_OF_DOMAIN[key]))
    line = {"value": f"{key} = {bad}", "domain": f"{key} = {bad}",
            "unknown": "no_such_key = 1", "no-equals": f"{key} {default}"}[how]
    lines = data.decode().splitlines()
    lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines).encode()


PATIENTS = ("p00", "p01", "p02")


def _argv(command, root):
    """The arguments of ``command`` on a copy of the mini run at ``root``."""
    if command == "preprocess":
        return ["preprocess", "--data", str(root / "raw")]
    if command == "train":
        return ["train", "--data", str(root / "prep"), "--target", "p02",
                "--sources", "p00,p01", "--max-epochs", "0"]
    return [command, "--model", str(root / "run" / "model.json"),
            "--data", str(root / "prep"), "--target", "p02"]


# input kind -> (the commands that read it, and a corruption)
INPUT_KINDS = {
    "patient-csv": (["preprocess"], _corrupt_patient_csv),
    "archive-csv": (["train", "evaluate", "explain"], _corrupt_archive_csv),
    "scaling-json": (["train", "evaluate", "explain"],
                     lambda draw, data: _corrupt_json(draw, data, [_edit_sidecar])),
    "model-json": (["evaluate", "explain"], lambda draw, data: _corrupt_json(
        draw, data, [_edit_model_config, _edit_model_param, _edit_model_format,
                     _overflow_scores])),
    "config": (["preprocess"], _corrupt_config),
}
INPUT_FILES = ["raw/p02.csv", "mini.cfg", "run/model.json",
               *(f"prep/{pid}/{name}" for pid in PATIENTS
                 for name in ("scaling.json", "train.csv", "valid.csv", "test.csv"))]


def _input_file(draw, kind, command):
    """The file of the mini run that ``command`` reads as an input of
    ``kind``: train reads every patient's train.csv and valid.csv, evaluate
    and explain the target's test.csv."""
    fixed = {"patient-csv": "raw/p02.csv", "model-json": "run/model.json",
             "config": "mini.cfg"}
    if kind in fixed:
        return fixed[kind]
    pid = draw(st.sampled_from(PATIENTS)) if command == "train" else "p02"
    if kind == "scaling-json":
        return f"prep/{pid}/scaling.json"
    split = draw(st.sampled_from(["train", "valid"])) if command == "train" else "test"
    return f"prep/{pid}/{split}.csv"


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(sorted(INPUT_KINDS)), data=st.data())
def test_corrupted_input_of_every_kind_is_named_with_a_documented_exit(mini_run, kind,
                                                                      data):
    commands, corrupt = INPUT_KINDS[kind]
    command = data.draw(st.sampled_from(commands))
    relative = _input_file(data.draw, kind, command)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in INPUT_FILES:  # the corrupted file is the only copy
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            if name == relative:
                (root / name).write_bytes(corrupt(data.draw, (mini_run / name).read_bytes()))
            else:
                (root / name).symlink_to(mini_run / name)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), np.errstate(over="ignore", invalid="ignore"):
            code = run(*_argv(command, root), "--config", str(root / "mini.cfg"),
                       "--out", str(root / "out"))
        # preprocess makes --out before it reads the first patient file
        created = (root / "out").exists() and kind != "patient-csv"
    assert code in (2, 3, 4, 5), (kind, command, err.getvalue())
    assert str(root / relative) in err.getvalue() and "Traceback" not in err.getvalue(), \
        (kind, command, err.getvalue())
    assert not created, (kind, command, err.getvalue())
