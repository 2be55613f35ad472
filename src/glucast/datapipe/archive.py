"""Sample archives on disk: one CSV per split plus a JSON scaling sidecar.

Each CSV row is ``timestamp, <L*r inputs>, target`` with the window flattened
oldest-first, variable-major (all glucose steps, then all CHO steps, then all
insulin steps). The timestamp is the window end (when the prediction is
made); the sidecar carries the horizon so target times are derivable.

Rows end in CRLF (as ``csv.writer`` writes them) and every value is the
shortest decimal that round-trips (``repr``), so a read gives back the
written arrays bit for bit. Both directions work ``BLOCK_ROWS`` rows at a
time: consecutive windows share all but one step, so a block holds few
distinct values, and no temporary grows with the split.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np

from ..errors import IngestionError
from .pipeline import Scaling, SampleSet

SCALING_FORMAT = "glucast-scaling-v1"
VARIABLES = ["glucose", "cho", "insulin"]
BLOCK_ROWS = 64


def _header(seq_len, n_vars):
    return (["timestamp"]
            + [f"{var}_{k}" for var in VARIABLES[:n_vars] for k in range(seq_len)]
            + ["target"])


def _shortest_reprs(values):
    """``repr`` of each float64 in ``values`` as an object array of the same
    shape, computed once per distinct bit pattern (-0.0 stays apart from 0.0)."""
    bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    strings = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse].reshape(values.shape)


def write_sample_csv(sample_set: SampleSet, path) -> None:
    n, seq_len, n_vars = sample_set.x.shape
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_header(seq_len, n_vars)) + "\r\n")
        for lo in range(0, n, BLOCK_ROWS):
            x = sample_set.x[lo:lo + BLOCK_ROWS]
            rows = np.empty((len(x), n_vars * seq_len + 1))
            rows[:, :-1] = x.transpose(0, 2, 1).reshape(len(x), -1)
            rows[:, -1] = sample_set.y[lo:lo + BLOCK_ROWS]
            stamps = sample_set.t[lo:lo + BLOCK_ROWS].astype(str).tolist()
            fh.writelines(f"{t},{','.join(row)}\r\n"
                          for t, row in zip(stamps, _shortest_reprs(rows).tolist()))


class _FloatMemo(dict):
    """token -> float(token), parsing each distinct token once. One per block,
    so it stays small whatever the file holds."""

    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def _is_stamp(token):
    """Whether ``token`` is a minute timestamp as the writer formats one."""
    try:
        stamp = np.datetime64(token, "m")
    except ValueError:
        return False
    return not np.isnat(stamp) and str(stamp) == token


def _is_finite(token):
    try:
        return math.isfinite(float(token))
    except ValueError:
        return False


def _first_fault(path, header, first_line, lines):
    """The error for the first bad line of a block that did not parse."""
    for line_no, line in enumerate(lines, first_line):
        fields = line.rstrip("\r\n").split(",")
        if len(fields) < len(header):
            return IngestionError(
                f"{path}: line {line_no}, column {header[len(fields)]!r}: the row "
                f"has {len(fields)} fields, the header {len(header)}")
        if len(fields) > len(header):
            return IngestionError(
                f"{path}: line {line_no}, column {header[-1]!r}: the row has "
                f"{len(fields) - len(header)} fields past the last column")
        if not _is_stamp(fields[0]):
            return IngestionError(f"{path}: line {line_no}, column {header[0]!r}: "
                                  f"{fields[0]!r} is not a YYYY-MM-DDThh:mm timestamp")
        for column, token in zip(header[1:], fields[1:]):
            if not _is_finite(token):
                return IngestionError(f"{path}: line {line_no}, column {column!r}: "
                                      f"{token!r} is not a finite number")
    return IngestionError(f"{path}: lines {first_line}-{line_no} do not parse")


def _parse_block(path, header, first_line, lines, seq_len, n_vars):
    """The windows (variable-major, ``(B, r, L)``), targets and timestamps
    of one block of data lines."""
    rows = [line.rstrip("\r\n").split(",") for line in lines]
    if any(len(row) != len(header) for row in rows):
        raise _first_fault(path, header, first_line, lines)
    stamps = [row.pop(0) for row in rows]
    try:
        values = np.fromiter(map(_FloatMemo().__getitem__, chain.from_iterable(rows)),
                             dtype=np.float64, count=len(rows) * (len(header) - 1))
        t = np.array(stamps, dtype="datetime64[m]")
    except ValueError:
        raise _first_fault(path, header, first_line, lines) from None
    if (not np.isfinite(values).all() or np.isnat(t).any()
            or t.astype(str).tolist() != stamps):
        raise _first_fault(path, header, first_line, lines)
    values = values.reshape(len(rows), -1)
    return values[:, :-1].reshape(len(rows), n_vars, seq_len), values[:, -1], t


def read_sample_csv(path, seq_len, provenance, period_minutes, ph_steps,
                    scaling=None) -> SampleSet:
    xs, ys, ts = [], [], []
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\r\n").split(",")
            n_vars = next((n for n in range(1, len(VARIABLES) + 1)
                           if header == _header(seq_len, n)), None)
            if n_vars is None:
                raise IngestionError(f"{path}: line 1 is not a sample archive header "
                                     f"for seq_len={seq_len}")
            first_line = 2
            while lines := list(islice(fh, BLOCK_ROWS)):
                x, y, t = _parse_block(path, header, first_line, lines, seq_len, n_vars)
                xs.append(x)
                ys.append(y)
                ts.append(t)
                first_line += len(lines)
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not xs:
        raise IngestionError(f"{path}: no sample rows after the header")
    t = np.concatenate(ts)
    horizon = np.timedelta64(ph_steps * period_minutes, "m")
    # window i is the transpose of its row's (r, L) block: x keeps the row's
    # variable-major memory order
    return SampleSet(x=np.concatenate(xs).transpose(0, 2, 1), y=np.concatenate(ys),
                     t=t, target_t=t + horizon, provenance=provenance, scaling=scaling)


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
