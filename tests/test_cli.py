import csv
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from glucast.cli import load_config, main
from glucast.errors import ConfigError
from glucast.models import LstmRegModel, StdAttnModel, save_model


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


def test_config_boolean_coercion(tmp_path):
    cfg_file = tmp_path / "b.cfg"
    cfg_file.write_text("reverse_time = true\n")
    assert load_config(cfg_file)["reverse_time"] is True
    cfg_file.write_text("reverse_time = banana\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file)


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


def test_preprocess_missing_dir_exit_3(tmp_path):
    assert run("preprocess", "--data", str(tmp_path / "nope"),
               "--out", str(tmp_path / "o")) == 3


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


def test_train_without_sources_skips_source_phase(mini_run):
    out = mini_run / "solo"
    assert run("train", "--data", str(mini_run / "prep"), "--target", "p00",
               "--model", "retain", "--max-epochs", "1", "--seed", "1",
               "--config", str(_mini_cfg(mini_run)), "--out", str(out)) == 0
    with open(out / "history.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["phase"] for r in rows} == {"finetune"}


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
    """An edit of test.csv that sets one field of one line (1-based)."""
    def edit(lines):
        fields = lines[line_no - 1].split(",")
        fields[column] = token
        lines[line_no - 1] = ",".join(fields)
    return edit


@pytest.mark.parametrize("edit, where", [
    pytest.param(_corrupt(5, 40, "abc"), "line 5, column 'cho_2'", id="token"),
    pytest.param(_corrupt(12, -1, "inf"), "line 12, column 'target'", id="inf-target"),
    pytest.param(lambda lines: lines.__delitem__(slice(1, None)), "no sample rows",
                 id="header-only"),
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
    from glucast.datapipe import read_patient_archive
    from glucast.models import (contributions, load_model,
                                normalized_contributions, aggregate_attributions,
                                event_conditioned_attributions)
    from glucast.models.attribution import event_mask_from_windows
    model = load_model(mini_run / "run" / "model.json")
    archive = read_patient_archive(mini_run / "prep", "p02")
    test, scaling = archive["test"], archive["scaling"]
    atts = []
    for x in test.x:
        trace = model.forward(x)
        atts.append(normalized_contributions(contributions(x, trace, model.params)))
    for mode in ("mean", "max"):
        got = _read_matrix(out / f"attribution_{mode}.csv")
        assert np.allclose(got, aggregate_attributions(atts, mode), rtol=0, atol=1e-12)

    mask = event_mask_from_windows(test.x, scaling.input_mean, scaling.input_std, 1)
    profile = event_conditioned_attributions(
        mask, atts, 60, archive["meta"]["period_minutes"])
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


def test_explain_rejects_model_of_other_window_geometry(mini_run, tmp_path, capsys):
    model = _edit_model(mini_run / "run" / "model.json", tmp_path / "model.json",
                        seq_len=12)
    assert run("explain", "--model", str(model), "--data", str(mini_run / "prep"),
               "--target", "p02", "--sample", "0", "--out", str(tmp_path / "ex")) == 2
    err = capsys.readouterr().err
    assert str(model) in err and "seq_len" in err
    assert str(mini_run / "prep" / "p02" / "scaling.json") in err
    assert not (tmp_path / "ex").exists()


def _delete_param(params, name):
    del params[name]


def _truncate_param(params, name):
    params[name] = params[name][:-1]


@pytest.mark.parametrize("edit, field", [
    (_delete_param, "beta_b"),
    (_truncate_param, "out_w"),
    (_truncate_param, "alpha_rnn.w_in"),
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
