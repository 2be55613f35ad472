"""Sample archives on disk: one CSV per split plus a JSON scaling sidecar.

Each CSV row is ``timestamp, <L*r inputs>, target`` with the window flattened
oldest-first, variable-major (all glucose steps, then all CHO steps, then all
insulin steps). The timestamp is the window end (when the prediction is
made); the sidecar carries the horizon so target times are derivable.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from ..errors import IngestionError
from .pipeline import Scaling, SampleSet

SCALING_FORMAT = "glucast-scaling-v1"
VARIABLES = ["glucose", "cho", "insulin"]


def write_sample_csv(sample_set: SampleSet, path) -> None:
    n, seq_len, n_vars = sample_set.x.shape
    header = ["timestamp"]
    for var in VARIABLES[:n_vars]:
        header += [f"{var}_{k}" for k in range(seq_len)]
    header.append("target")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(n):
            row = [str(sample_set.t[i])]
            for j in range(n_vars):
                row += [repr(float(v)) for v in sample_set.x[i, :, j]]
            row.append(repr(float(sample_set.y[i])))
            writer.writerow(row)


def read_sample_csv(path, seq_len, provenance, period_minutes, ph_steps,
                    scaling=None) -> SampleSet:
    xs, ys, ts = [], [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[0] != "timestamp" or header[-1] != "target":
            raise IngestionError(f"{path}: not a sample archive")
        n_vars = (len(header) - 2) // seq_len
        if len(header) != 2 + n_vars * seq_len:
            raise IngestionError(f"{path}: column count does not match seq_len={seq_len}")
        for row in reader:
            ts.append(np.datetime64(row[0], "m"))
            values = np.array([float(v) for v in row[1:-1]])
            xs.append(values.reshape(n_vars, seq_len).T)
            ys.append(float(row[-1]))
    x = np.stack(xs) if xs else np.empty((0, seq_len, 3))
    t = np.array(ts, dtype="datetime64[m]")
    horizon = np.timedelta64(ph_steps * period_minutes, "m")
    return SampleSet(x=x, y=np.array(ys), t=t, target_t=t + horizon,
                     provenance=provenance, scaling=scaling)


def write_scaling_json(scaling: Scaling, path, seq_len, ph_steps, period_minutes,
                       patient_id) -> None:
    doc = {
        "format": SCALING_FORMAT,
        "input_mean": scaling.input_mean.tolist(),
        "input_std": scaling.input_std.tolist(),
        "target_mean": scaling.target_mean,
        "target_std": scaling.target_std,
        "seq_len": seq_len,
        "ph_steps": ph_steps,
        "period_minutes": period_minutes,
        "patient_id": patient_id,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def read_scaling_json(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != SCALING_FORMAT:
        raise IngestionError(f"{path}: unknown scaling format {doc.get('format')!r}")
    scaling = Scaling(input_mean=np.asarray(doc["input_mean"], dtype=np.float64),
                      input_std=np.asarray(doc["input_std"], dtype=np.float64),
                      target_mean=float(doc["target_mean"]),
                      target_std=float(doc["target_std"]))
    meta = {k: doc[k] for k in ("seq_len", "ph_steps", "period_minutes", "patient_id")}
    return scaling, meta


def write_patient_archive(directory, patient_id, train, valid, test, scaling,
                          seq_len, ph_steps, period_minutes) -> Path:
    """Write train/valid/test CSVs plus the scaling sidecar for one patient."""
    root = Path(directory) / patient_id
    root.mkdir(parents=True, exist_ok=True)
    write_sample_csv(train, root / "train.csv")
    write_sample_csv(valid, root / "valid.csv")
    write_sample_csv(test, root / "test.csv")
    write_scaling_json(scaling, root / "scaling.json", seq_len, ph_steps,
                       period_minutes, patient_id)
    return root


def read_archive_split(root, split, scaling, meta) -> SampleSet:
    """Load one split ("train", "valid" or "test") of the patient archive in
    directory ``root``, given its sidecar as returned by read_scaling_json."""
    return read_sample_csv(Path(root) / f"{split}.csv", seq_len=meta["seq_len"],
                           provenance=split, period_minutes=meta["period_minutes"],
                           ph_steps=meta["ph_steps"], scaling=scaling)


def read_patient_archive(directory, patient_id):
    """Load one patient's archive back into SampleSets."""
    root = Path(directory) / patient_id
    scaling, meta = read_scaling_json(root / "scaling.json")
    archive = {split: read_archive_split(root, split, scaling, meta)
               for split in ("train", "valid", "test")}
    return {**archive, "scaling": scaling, "meta": meta}
