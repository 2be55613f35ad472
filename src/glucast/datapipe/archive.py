"""Sample archives on disk: one CSV per split plus a JSON scaling sidecar.

Each CSV row is ``timestamp, <L*r inputs>, target`` with the window flattened
oldest-first, variable-major (all glucose steps, then all CHO steps, then all
insulin steps). The timestamp is the window end (when the prediction is
made); the sidecar carries the horizon so target times are derivable.

Rows end in CRLF (as ``csv.writer`` writes them) and every value is the
shortest decimal that round-trips (``repr``), so a read gives back the
written arrays bit for bit. Both directions work ``BLOCK_ROWS`` rows at a
time: consecutive windows share all but one step, so a block holds few
distinct values, and no temporary grows with the split. A block that does
not parse is read again row by row by ``series._row_fault``, given this
format's checks, to name the line and the column of the first bad field.
Reading a split also checks what ``preprocess`` guarantees of every split:
rows in strictly increasing time, and targets above 0 mg/dL.
"""

from __future__ import annotations

import json
import math
from itertools import chain, islice
from pathlib import Path

import numpy as np

from ..errors import ConfigError, IngestionError
from .pipeline import SampleSet, Scaling, SplitSpec
from .series import _FloatMemo, _row_fault, _shortest_reprs

SCALING_FORMAT = "glucast-scaling-v1"
VARIABLES = ["glucose", "cho", "insulin"]
BLOCK_ROWS = 64


def _header(seq_len, n_vars):
    return (["timestamp"]
            + [f"{var}_{k}" for var in VARIABLES[:n_vars] for k in range(seq_len)]
            + ["target"])


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


def _stamp_fault(token):
    try:
        written = str(np.datetime64(token, "m"))
    except ValueError:
        written = None
    if written != token or token == "NaT":
        return "is not a YYYY-MM-DDThh:mm timestamp"


def _block_fault(path, header, first_line, lines):
    """The error for the first bad line of a block that did not parse."""
    rows = enumerate((line.rstrip("\r\n").split(",") for line in lines), first_line)
    number = _FloatMemo().fault
    checks = [(header[0], _stamp_fault), *((column, number) for column in header[1:])]
    return _row_fault(path, header, rows, checks) or IngestionError(
        f"{path}: lines {first_line}-{first_line + len(lines) - 1} do not parse")


def _parse_block(path, header, first_line, lines, seq_len, n_vars):
    """The windows (variable-major, ``(B, r, L)``), targets and timestamps
    of one block of data lines."""
    rows = [line.rstrip("\r\n").split(",") for line in lines]
    if any(len(row) != len(header) for row in rows):
        raise _block_fault(path, header, first_line, lines)
    stamps = [row.pop(0) for row in rows]
    try:
        values = np.fromiter(map(_FloatMemo().__getitem__, chain.from_iterable(rows)),
                             dtype=np.float64, count=len(rows) * (len(header) - 1))
        t = np.array(stamps, dtype="datetime64[m]")
    except ValueError:
        raise _block_fault(path, header, first_line, lines) from None
    if np.isnat(t).any() or t.astype(str).tolist() != stamps:
        raise _block_fault(path, header, first_line, lines)
    values = values.reshape(len(rows), -1)
    return values[:, :-1].reshape(len(rows), n_vars, seq_len), values[:, -1], t


def read_sample_csv(path, seq_len, period_minutes, ph_steps) -> SampleSet:
    """The windows, targets and times of one archive split, in file order.
    IngestionError names the file when it is not UTF-8 text, line 1 is not
    the header of ``seq_len``-step windows or no row follows it, and names
    the line and the column of the first row with a field too many or too
    few, a timestamp not in the writer's form or a number not finite. Row
    order and target range are read_archive_split's checks."""
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
                     t=t, target_t=t + horizon)


def write_scaling_json(scaling: Scaling, path, spec: SplitSpec, patient_id) -> None:
    doc = {
        "format": SCALING_FORMAT,
        "input_mean": scaling.input_mean.tolist(),
        "input_std": scaling.input_std.tolist(),
        "target_mean": scaling.target_mean,
        "target_std": scaling.target_std,
        "seq_len": spec.seq_len,
        "ph_steps": spec.ph_steps,
        "period_minutes": spec.period_minutes,
        "patient_id": patient_id,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)


def _is_number(value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def _is_geometry(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# every sidecar key and the test its value must pass
_SIDECAR_KEYS = {
    "format": ("the tag " + repr(SCALING_FORMAT), lambda v: v == SCALING_FORMAT),
    "input_mean": ("a non-empty list of finite numbers",
                   lambda v: isinstance(v, list) and v and all(map(_is_number, v))),
    "input_std": ("a non-empty list of finite numbers above 0",
                  lambda v: isinstance(v, list) and v
                  and all(_is_number(x) and x > 0 for x in v)),
    "target_mean": ("a finite number", _is_number),
    "target_std": ("a finite number above 0", lambda v: _is_number(v) and v > 0),
    "seq_len": ("an integer of at least 1", _is_geometry),
    "ph_steps": ("an integer of at least 1", _is_geometry),
    "period_minutes": ("an integer of at least 1", _is_geometry),
    "patient_id": ("a string", lambda v: isinstance(v, str)),
}


def read_scaling_json(path):
    """The scaling and the window geometry of a sidecar. IngestionError
    names the file and the key when the file is not JSON, or a key is
    missing or fails its test."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IngestionError(f"{path}: not a JSON scaling sidecar ({exc})") from None
    if not isinstance(doc, dict):
        raise IngestionError(f"{path}: not a JSON object")
    for key, (expected, valid) in _SIDECAR_KEYS.items():
        if key not in doc:
            raise IngestionError(f"{path}: key {key!r} is missing")
        if not valid(doc[key]):
            raise IngestionError(f"{path}: key {key!r} is {doc[key]!r}, not {expected}")
    if len(doc["input_mean"]) != len(doc["input_std"]):
        raise IngestionError(f"{path}: key 'input_std' has {len(doc['input_std'])} "
                             f"entries, 'input_mean' {len(doc['input_mean'])}")
    scaling = Scaling(input_mean=np.asarray(doc["input_mean"], dtype=np.float64),
                      input_std=np.asarray(doc["input_std"], dtype=np.float64),
                      target_mean=float(doc["target_mean"]),
                      target_std=float(doc["target_std"]))
    meta = {k: doc[k] for k in ("seq_len", "ph_steps", "period_minutes", "patient_id")}
    return scaling, meta


def write_patient_archive(directory, patient_id, train, valid, test, scaling,
                          spec: SplitSpec) -> Path:
    """Write train/valid/test CSVs plus the scaling sidecar, with the window
    of the SplitSpec ``spec``, for one patient."""
    root = Path(directory) / patient_id
    root.mkdir(parents=True, exist_ok=True)
    write_sample_csv(train, root / "train.csv")
    write_sample_csv(valid, root / "valid.csv")
    write_sample_csv(test, root / "test.csv")
    write_scaling_json(scaling, root / "scaling.json", spec, patient_id)
    return root


def read_archive_split(root, split, scaling, meta) -> SampleSet:
    """Load one split ("train", "valid" or "test") of the patient archive in
    directory ``root``, given its sidecar as returned by read_scaling_json.
    ConfigError names the split's file when its windows are of another width
    than the sidecar's (their length is the header's, checked on reading),
    and IngestionError its line and column when a row does not come after
    the previous one, or its target is glucose at or below 0 mg/dL."""
    path = Path(root) / f"{split}.csv"
    samples = read_sample_csv(path, meta["seq_len"], meta["period_minutes"], meta["ph_steps"])
    width = len(scaling.input_mean)
    if samples.x.shape[2] != width:
        raise ConfigError(f"{Path(root) / 'scaling.json'} has input_dim = {width}, but "
                          f"the archive windows in {path} have input_dim = "
                          f"{samples.x.shape[2]}")
    # row i is on line i + 2
    late = np.flatnonzero(np.diff(samples.t) <= np.timedelta64(0, "m"))
    if late.size:
        row = late[0] + 1
        raise IngestionError(
            f"{path}: line {row + 2}, column 'timestamp': {samples.t[row]} does not "
            f"come after the previous row's ({samples.t[row - 1]})")
    low = np.flatnonzero(scaling.invert_target(samples.y) <= 0)
    if low.size:
        raise IngestionError(f"{path}: line {low[0] + 2}, column 'target': "
                             f"{samples.y[low[0]]} is glucose at or below 0 mg/dL")
    return samples


def read_archive(root, *splits):
    """The scaling and metadata of the patient archive in directory ``root``,
    then a SampleSet per split named: no other file of the archive is read."""
    scaling, meta = read_scaling_json(Path(root) / "scaling.json")
    return scaling, meta, *(read_archive_split(root, s, scaling, meta) for s in splits)


def read_patient_archive(directory, patient_id):
    """One patient's whole archive: its three splits by name, "scaling" and "meta"."""
    names = ("train", "valid", "test")
    scaling, meta, *sets = read_archive(Path(directory) / patient_id, *names)
    return {**dict(zip(names, sets)), "scaling": scaling, "meta": meta}
