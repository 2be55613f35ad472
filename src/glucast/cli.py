"""Batch command-line front end.

Subcommands wire the pipeline end to end: ``synth`` writes a deterministic
cohort of patient CSVs, ``preprocess`` turns them into standardized sample
archives, ``train`` runs the two-phase adversarial transfer, ``evaluate``
produces RMSE/MAPE and the clinical error-grid report, and ``explain`` dumps
per-input contribution tables. Every command echoes its effective
configuration into the output directory, so a run is reproducible from the
echo plus the seed.

Exit codes, from the error class raised: 0 ok, 2 usage/config, 3 missing or
unreadable input (any OSError too), 4 numeric failure, 5 capability mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import sys
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .datapipe import (
    VARIABLES,
    SplitSpec,
    preprocess_series,
    read_archive,
    read_patient_archive,  # no command calls it: perfbench/tracer.py binds it here
    read_series_csv,
    write_patient_archive,
    write_series_csv,
)
from .errors import (
    AT_LEAST_1,
    CapabilityError,
    ConfigError,
    EvaluationError,
    GlucastError,
    IngestionError,
    config_key,
)
from .evalmetrics import (
    cg_ega_report,
    mape,
    reconstruct,
    rmse,
    write_points_csv,
    write_report_json,
)
from .models import (
    MODELS,
    aggregate_attributions,
    contributions,
    event_conditioned_attributions,
    load_model,
    normalized_contributions,
    save_model,
)
from .models.attribution import event_mask_from_windows
from .synthdata import PatientProfile, default_cohort, generate_patient
from .training import PatientSplits, TrainConfig, finetune, train_source, write_history_csv

# every tunable, as key: (default, domain). The default fixes the type; the
# domain is (test, description) of the values beyond that type, checked where
# a value enters. Every key but the three here sets a library dataclass field,
# declared on it (errors.tunable) and checked there again.
CONFIG_KEYS = {
    "model": ("retain", (lambda v: v in MODELS, "one of " + ", ".join(MODELS))),
    **{config_key(f): (f.default, f.metadata["domain"])
       for cls in (*(family.config_type for family in MODELS.values()), TrainConfig,
                   SplitSpec, PatientProfile)
       for f in fields(cls) if config_key(f)},
    "patients": (6, AT_LEAST_1),
    "days": (21, AT_LEAST_1),
}
CONFIG_DEFAULTS = {key: default for key, (default, _) in CONFIG_KEYS.items()}

# the config keys each command also takes as flags, --<key with dashes>: a
# flag's value is parsed and checked as the key's value in a config file is
FLAGS = {
    "synth": ("patients", "days", "seed", "noise_std", "missing_rate"),
    "preprocess": (),
    "train": ("model", "max_epochs", "seed"),
    "evaluate": (),
    "explain": (),
}


def _coerce(key, text, where=""):
    """The value of ``text`` for ``key``: ConfigError naming ``where`` and
    the key unless it parses as the default's type and lies in the key's
    domain."""
    default, (test, domain) = CONFIG_KEYS[key]
    value = text
    if isinstance(default, bool):
        value = {"1": True, "true": True, "yes": True, "on": True, "0": False,
                 "false": False, "no": False, "off": False}.get(text.lower())
        if value is None:
            raise ConfigError(f"{where}config key {key!r}: expected a boolean, got {text!r}")
    elif isinstance(default, (int, float)):
        try:
            value = type(default)(text)
        except ValueError:
            kind = "an integer" if isinstance(default, int) else "a number"
            raise ConfigError(f"{where}config key {key!r}: expected {kind}, "
                              f"got {text!r}") from None
    if not test(value):
        raise ConfigError(f"{where}config key {key!r}: must be {domain}, got {text!r}")
    return value


def load_config(path=None, overrides=None) -> dict:
    """Defaults, overlaid by a flat key=value file, overlaid by CLI flags.
    ConfigError names the file and the line of a bad line in the file, and
    both lines of a key the file sets twice."""
    cfg = dict(CONFIG_DEFAULTS)
    if path is not None:
        try:
            lines = Path(path).read_text(encoding="utf-8").splitlines()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason})") from None
        set_on = {}  # key -> the line that set it
        for line_no, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path} line {line_no}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in cfg:
                raise ConfigError(f"{path} line {line_no}: unknown config key {key!r}")
            cfg[key] = _coerce(key, value, f"{path} line {line_no}: ")
            if key in set_on:
                raise ConfigError(f"{path} lines {set_on[key]} and {line_no}: config "
                                  f"key {key!r} is set twice")
            set_on[key] = line_no
    for key, value in (overrides or {}).items():
        if value is None:
            continue
        if key not in cfg:
            raise ConfigError(f"unknown config key {key!r}")
        cfg[key] = _coerce(key, str(value))
    return cfg


def echo_config(cfg, out_dir, command) -> None:
    lines = [f"# effective configuration for `glucast {command}`"]
    lines += [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    (Path(out_dir) / "effective.cfg").write_text("\n".join(lines) + "\n",
                                                 encoding="utf-8")


def _ensure_out_dir(path):
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
        probe = out / ".write_probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory {path} is not writable: {exc}") from exc
    return out


def _from_config(cls, cfg, **derived):
    """The dataclass ``cls``, each field read from ``derived`` (values worked
    out from the inputs) or else from the config key it declares."""
    return cls(**{f.name: derived[f.name] if f.name in derived else cfg[config_key(f)]
                  for f in fields(cls)})


def _build_model(cfg, **derived):
    """A fresh model of the family cfg["model"] names, its config read by
    ``_from_config``."""
    cls = MODELS[cfg["model"]]
    try:
        config = _from_config(cls.config_type, cfg, **derived)
    except ConfigError as exc:
        raise ConfigError(f"{cls.kind} model: {exc}") from exc
    return cls.build(config, seed=cfg["seed"])


# --- subcommands -------------------------------------------------------------

def cmd_synth(args, cfg) -> None:
    out = _ensure_out_dir(args.out)
    profiles = default_cohort(cfg["patients"], cfg["seed"],
                              noise_std=cfg["noise_std"],
                              missing_rate=cfg["missing_rate"])
    for profile in profiles:
        series = generate_patient(profile, cfg["days"])
        write_series_csv(series, out / f"{profile.patient_id}.csv")
    with open(out / "profiles.json", "w", encoding="utf-8") as fh:
        json.dump([asdict(profile) for profile in profiles], fh, indent=1)
    print(f"wrote {len(profiles)} patient series to {out}")


def cmd_preprocess(args, cfg) -> None:
    data = Path(args.data)
    if not data.is_dir():
        raise FileNotFoundError(f"raw data directory {data} does not exist")
    csvs = sorted(p for p in data.glob("*.csv"))
    if not csvs:
        raise FileNotFoundError(f"no patient CSVs in {data}")
    out = _ensure_out_dir(args.out)
    spec = _from_config(SplitSpec, cfg)
    for path in csvs:
        series = read_series_csv(path)
        try:
            train, valid, test, scaling = preprocess_series(series, spec)
        except ConfigError as exc:  # a series too short to split, say
            raise ConfigError(f"{path}: {exc}") from None
        write_patient_archive(out, series.patient_id, train, valid, test, scaling, spec)
        print(f"{series.patient_id}: train={len(train)} valid={len(valid)} "
              f"test={len(test)}")


def cmd_train(args, cfg) -> None:
    source_ids = [p for p in args.sources.split(",") if p]
    if len(source_ids) == 1 or len(set(source_ids)) < len(source_ids):
        raise ConfigError(f"--sources {args.sources}: source training needs at least "
                          "2 source patients, each named once")
    if args.target in source_ids:
        raise ConfigError(f"--sources {args.sources}: names the --target {args.target}, "
                          "whose splits are for finetuning only")
    data = Path(args.data)
    if not data.is_dir():
        raise FileNotFoundError(f"archive directory {data} does not exist")
    try:
        archives = [read_archive(data / pid, "train", "valid")
                    for pid in [*source_ids, args.target]]
    except FileNotFoundError as exc:
        raise FileNotFoundError(f"missing preprocessed archive: {exc}") from exc
    # the target archive sets the window geometry of every source and of the model
    scaling, meta = archives[-1][:2]
    geometry = {"seq_len": meta["seq_len"], "input_dim": len(scaling.input_mean),
                "ph_steps": meta["ph_steps"], "period_minutes": meta["period_minutes"]}
    target_sidecar = f"the target archive {data / args.target / 'scaling.json'}"
    for pid, (scaling, meta, _, _) in zip(source_ids, archives):
        _check_geometry(geometry, target_sidecar, data / pid, scaling, meta)
    model = _build_model(cfg, n_sources=max(len(source_ids), 1), **geometry)
    *sources, target = (PatientSplits(train_x=train.x, train_y=train.y, valid_x=valid.x,
                                      valid_y=valid.y, patient_id=meta["patient_id"])
                        for _, meta, train, valid in archives)

    out = _ensure_out_dir(args.out)
    train_cfg = _from_config(TrainConfig, cfg)

    history = []
    if sources:
        history += train_source(model, sources, train_cfg)
    history += finetune(model, target, train_cfg)

    save_model(model, out / "model.json")
    write_history_csv(history, out / "history.csv")
    final = history[-1]["valid_mse"] if history else float("nan")
    print(f"trained {cfg['model']} on target {args.target} "
          f"({len(source_ids)} sources); final valid MSE {final:.6f}")


def _check_geometry(geometry, owner, root, scaling, meta):
    """ConfigError naming ``owner`` (the model file, or the target archive)
    and the archive's scaling.json unless each field of ``geometry`` has the
    sidecar's value (each split's windows were checked against it)."""
    archive = {**meta, "input_dim": len(scaling.input_mean)}
    for name, value in geometry.items():
        if archive[name] != value:
            raise ConfigError(
                f"{owner} has {name} = {value}, but the archive "
                f"{root / 'scaling.json'} and its windows have {name} = {archive[name]}")


def _load_target_test(data_dir, target, model, model_path):
    """The target's test split (train.csv and valid.csv are not read), after
    checking that the model takes the archive's windows."""
    root = Path(data_dir) / target
    scaling, meta, test = read_archive(root, "test")
    _check_geometry(model.window_geometry(), f"model {model_path}", root, scaling, meta)
    return meta, test, scaling


@contextlib.contextmanager
def _scoring(model_path, target):
    """A numeric failure of the model on the target's test windows (attention
    scores that overflow, say) as an EvaluationError naming both."""
    try:
        yield
    except (FloatingPointError, GlucastError) as exc:
        raise EvaluationError(f"model {model_path} fails on the test windows of "
                              f"{target}: {exc}") from exc


def _read_model(args):
    """The path and the model of the --model file."""
    path = Path(args.model)
    if not path.is_file():
        raise FileNotFoundError(f"model file {path} does not exist")
    return path, load_model(path)


def cmd_evaluate(args, cfg) -> None:
    model_path, model = _read_model(args)
    _, test, scaling = _load_target_test(args.data, args.target, model, model_path)
    # the error grid reads consecutive points in time order (reading the
    # split checked the order): there must be two
    if len(test.y) < 2:
        raise IngestionError(f"{Path(args.data) / args.target / 'test.csv'}: "
                             f"{len(test.y)} sample row, but the error grid needs at least 2")

    with _scoring(model_path, args.target):
        preds = model.predict(test.x)
    low = np.flatnonzero(scaling.invert_target(preds) <= 0)
    if low.size:
        raise EvaluationError(
            f"model {model_path} predicts glucose at or below 0 mg/dL for {low.size} "
            f"of the {len(preds)} test windows of {args.target}, the first for "
            f"{test.target_t[low[0]]}")
    series = reconstruct(test.target_t, test.y, preds, scaling)
    report = cg_ega_report(series)
    metrics = {"rmse_mgdl": rmse(series), "mape_pct": mape(series),
               "n_test": len(series), "overall_cg_ega": report.overall}
    if not all(map(math.isfinite, [metrics["rmse_mgdl"], metrics["mape_pct"],
                                   *report.overall.values()])):
        raise EvaluationError(f"model {model_path} gives non-finite metrics on the "
                              f"test split of {args.target}: {metrics}")
    out = _ensure_out_dir(args.out)
    with open(out / "metrics.json", "w", encoding="utf-8") as fh:
        json.dump(metrics, fh, indent=1)
    write_report_json(report, out / "cgega.json")
    write_points_csv(series, report, out / "points.csv")
    print(f"RMSE {metrics['rmse_mgdl']:.2f} mg/dL, MAPE {metrics['mape_pct']:.2f}%, "
          f"AP {report.overall['AP']:.3f}")


def _write_matrix_csv(path, matrix, period_minutes, suffix="", footer=()):
    """An (L, r) window matrix, one row per step labelled with its age in
    minutes and one column per variable (its name plus ``suffix``), then a
    row per (label, value) of ``footer``."""
    seq_len, n_vars = matrix.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age_minutes"] + [v + suffix for v in VARIABLES[:n_vars]])
        for i in range(seq_len):
            age = (seq_len - 1 - i) * period_minutes
            writer.writerow([age] + [repr(float(v)) for v in matrix[i]])
        for label, value in footer:
            writer.writerow([label, repr(value)] + [""] * (n_vars - 1))


def cmd_explain(args, cfg) -> None:
    if args.horizon < 0:
        raise ConfigError(f"--horizon must be at least 0 minutes, got {args.horizon}")
    model_path, model = _read_model(args)
    if not model.attributable:
        raise CapabilityError(f"model {model_path} is not attributable (per-input "
                              "contributions need the two-level-attention model)")

    meta, test, scaling = _load_target_test(args.data, args.target, model, model_path)
    if args.sample is not None and not 0 <= args.sample < len(test):
        raise ConfigError(f"--sample must be in [0, {len(test)})")
    names = VARIABLES[:test.x.shape[2]]
    if args.event is not None and args.event not in names:
        raise ConfigError(f"--event {args.event}: the archive "
                          f"{Path(args.data) / args.target / 'scaling.json'} has "
                          f"only the variables {', '.join(names)}")
    with _scoring(model_path, args.target):
        trace = model.trace_batch(test.x)
        cmap = contributions(test.x, trace, model.params)
        attributions = normalized_contributions(cmap)
    period = meta["period_minutes"]
    out = _ensure_out_dir(args.out)

    _write_matrix_csv(out / "attribution_mean.csv",
                      aggregate_attributions(attributions, "mean"), period)
    _write_matrix_csv(out / "attribution_max.csv",
                      aggregate_attributions(attributions, "max"), period)

    if args.sample is not None:
        _write_matrix_csv(out / f"contributions_{args.sample}.csv",
                          cmap.contribution[args.sample], period, "_contribution",
                          [("bias", cmap.bias),
                           ("prediction", float(trace.y_hat[args.sample]))])

    if args.event is not None:
        mask = event_mask_from_windows(test.x, scaling, names.index(args.event))
        profile = event_conditioned_attributions(mask, attributions,
                                                 args.horizon, period)
        with open(out / f"event_{args.event}.csv", "w", newline="",
                  encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["offset_minutes", "count"] + [f"{v}_share" for v in names])
            for offset, count, mean in zip(profile.offsets_minutes,
                                           profile.counts, profile.means):
                shares = ["" for _ in names] if mean is None else \
                    [repr(float(s)) for s in mean.sum(axis=0)]
                writer.writerow([offset, count] + shares)
        if profile.total_events == 0:
            warnings.warn(f"no {args.event} events in the test windows; "
                          "event table is empty")

    print(f"explained {len(test)} test samples into {out}")


# --- entry point -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glucast",
        description="Interpretable attention-based glucose forecasting pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, help="flat key = value file")
    common.add_argument("--out", required=True)
    scored = argparse.ArgumentParser(add_help=False)  # what evaluate and explain read
    scored.add_argument("--model", required=True, help="model JSON file")
    scored.add_argument("--data", required=True, help="directory of sample archives")
    scored.add_argument("--target", required=True)

    def command(name, func, help, parents=()):
        p = sub.add_parser(name, help=help, parents=[common, *parents])
        for key in FLAGS[name]:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=CONFIG_KEYS[key][1][1])
        p.set_defaults(func=func)
        return p

    command("synth", cmd_synth, "generate a deterministic synthetic cohort")
    p = command("preprocess", cmd_preprocess, "raw patient CSVs -> sample archives")
    p.add_argument("--data", required=True, help="directory of patient CSVs")
    p = command("train", cmd_train, "source training plus target finetuning")
    p.add_argument("--data", required=True, help="directory of sample archives")
    p.add_argument("--target", required=True)
    p.add_argument("--sources", default="", help="comma-separated patient ids")
    command("evaluate", cmd_evaluate, "RMSE, MAPE, and CG-EGA on the test split",
            [scored])
    p = command("explain", cmd_explain, "contribution tables for a trained model",
                [scored])
    p.add_argument("--sample", type=int, default=None)
    p.add_argument("--event", choices=("cho", "insulin"), default=None)
    p.add_argument("--horizon", type=int, default=60,
                   help="minutes after the event to profile")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        flags = {key: getattr(args, key) for key in FLAGS[args.command]}
        cfg = load_config(args.config, flags)
        args.func(args, cfg)  # a command that fails raises, and leaves no echo
        echo_config(cfg, args.out, args.command)
        return 0
    except GlucastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # a missing or unreadable input
        print(f"error: {exc}", file=sys.stderr)
        return IngestionError.exit_code


if __name__ == "__main__":
    sys.exit(main())
