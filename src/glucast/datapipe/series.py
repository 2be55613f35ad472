"""Timestamped multivariate glucose series and their CSV form.

CSV contract (one file per patient): header ``datetime,glucose,CHO,insulin``,
ISO-8601 timestamps at minute resolution, empty field = missing. Glucose is
mg/dL, CHO grams, insulin units. CHO and insulin are event masses: absent
means zero.

The writer emits CRLF rows, ``YYYY-MM-DDThh:mm`` timestamps and the shortest
decimal that round-trips for every value. The reader parses whole columns at
once when every line has that plain form, and otherwise (quoted fields,
blank rows, other ISO-8601 forms, or a bad line) reads the file line by line
with the ``csv`` module; both give the same arrays, and a bad line fails
with the file, the line and the column.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

from ..errors import IngestionError

CSV_HEADER = ["datetime", "glucose", "CHO", "insulin"]
GLUCOSE_MIN = 0.0
GLUCOSE_MAX = 600.0
# the writer's timestamps, one a line. numpy rejects an impossible date or
# time in this form, and datetime.fromisoformat reads the rest from year 1 on.
_PLAIN_STAMPS = re.compile(r"(?:\d{4}-\d\d-\d\dT\d\d:\d\d\n)*", re.ASCII)
_FIRST_STAMP = np.datetime64("0001-01-01T00:00", "m")


@dataclass
class GlucoseSeries:
    """Ordered readings; NaN marks a missing glucose value."""

    patient_id: str
    t: np.ndarray        # datetime64[m], strictly increasing
    glucose: np.ndarray  # mg/dL or NaN
    cho: np.ndarray      # grams, 0 when absent
    insulin: np.ndarray  # units, 0 when absent

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype="datetime64[m]")
        self.glucose = np.asarray(self.glucose, dtype=np.float64)
        self.cho = np.asarray(self.cho, dtype=np.float64)
        self.insulin = np.asarray(self.insulin, dtype=np.float64)
        n = self.t.shape[0]
        if not (self.glucose.shape == self.cho.shape == self.insulin.shape == (n,)):
            raise IngestionError("series columns have inconsistent lengths")
        if n > 1 and not np.all(np.diff(self.t).astype(np.int64) > 0):
            raise IngestionError(
                f"timestamps must be strictly increasing (patient {self.patient_id})")
        present = np.isfinite(self.glucose)
        if np.any((self.glucose[present] <= GLUCOSE_MIN)
                  | (self.glucose[present] >= GLUCOSE_MAX)):
            raise IngestionError(
                f"glucose readings outside ({GLUCOSE_MIN}, {GLUCOSE_MAX}) mg/dL "
                f"(patient {self.patient_id})")
        if np.any(~np.isfinite(self.cho)) or np.any(~np.isfinite(self.insulin)):
            raise IngestionError("CHO/insulin columns must be finite (0 when absent)")

    def __len__(self):
        return self.t.shape[0]


def _shortest_reprs(values):
    """``repr`` of each float64 in ``values`` as an object array of the same
    shape, computed once per distinct bit pattern (-0.0 stays apart from 0.0)."""
    bits, inverse = np.unique(values.view(np.uint64).ravel(), return_inverse=True)
    strings = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return strings[inverse].reshape(values.shape)


class _FloatMemo(dict):
    """token -> float(token), parsing each distinct token once. Use a fresh
    one per block of tokens, so it stays small whatever the file holds."""

    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def _parse_timestamp(token):
    """The minute of an ISO-8601 field as ``datetime.fromisoformat`` reads
    it, or None."""
    try:
        dt = datetime.fromisoformat(token.strip())
    except ValueError:
        return None
    return np.datetime64(dt).astype("datetime64[m]")


def _field_value(token, missing):
    """A number field's value: ``missing`` when blank, else a finite float;
    None when it is neither."""
    if not token.strip():
        return missing
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _read_columns(text):
    """The columns of a file in the writer's plain form, parsed a column at
    a time; None when a line has another form or fails a check."""
    if '"' in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(CSV_HEADER):
        return None
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(CSV_HEADER) for row in rows):
        return None
    stamps, *fields = list(zip(*rows)) or [()] * len(CSV_HEADER)
    if not _PLAIN_STAMPS.fullmatch("".join(stamp + "\n" for stamp in stamps)):
        return None
    try:
        t = np.array(stamps, dtype="datetime64[m]")
        glucose, cho, insulin = (
            np.fromiter(map(_FloatMemo({"": missing}).__getitem__, column),
                        dtype=np.float64, count=len(column))
            for column, missing in zip(fields, (np.nan, 0.0, 0.0)))
    except ValueError:
        return None
    if (np.any(t < _FIRST_STAMP)
            or np.any(np.diff(t) <= np.timedelta64(0, "m"))
            or np.count_nonzero(np.isnan(glucose)) != fields[0].count("")
            or np.any((glucose <= GLUCOSE_MIN) | (glucose >= GLUCOSE_MAX))
            or not np.isfinite(cho).all() or not np.isfinite(insulin).all()):
        return None
    return t, glucose, cho, insulin


def _read_rows(path, text):
    """The columns of any file the ``csv`` module reads, line by line, or an
    IngestionError naming the file, the line and the column of the first
    bad field. Blank rows are skipped."""
    reader = csv.reader(io.StringIO(text, newline=""))
    stamps, glucose, cho, insulin = [], [], [], []
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != CSV_HEADER:
            raise IngestionError(f"{path}: line 1 is not the header "
                                 f"{','.join(CSV_HEADER)}")
        for row in reader:
            if all(not field.strip() for field in row):
                continue
            where = f"{path}: line {reader.line_num}, column"
            if len(row) < len(CSV_HEADER):
                raise IngestionError(
                    f"{where} {CSV_HEADER[len(row)]!r}: the row has {len(row)} "
                    f"fields, the header {len(CSV_HEADER)}")
            if len(row) > len(CSV_HEADER):
                raise IngestionError(
                    f"{where} {CSV_HEADER[-1]!r}: the row has "
                    f"{len(row) - len(CSV_HEADER)} fields past the last column")
            stamp = _parse_timestamp(row[0])
            if stamp is None:
                raise IngestionError(f"{where} 'datetime': {row[0]!r} is not an "
                                     f"ISO-8601 timestamp")
            if stamps and stamp <= stamps[-1]:
                raise IngestionError(f"{where} 'datetime': {row[0]!r} does not come "
                                     f"after the previous reading ({stamps[-1]})")
            values = [_field_value(token, missing)
                      for token, missing in zip(row[1:], (np.nan, 0.0, 0.0))]
            for column, token, value in zip(CSV_HEADER[1:], row[1:], values):
                if value is None:
                    raise IngestionError(f"{where} {column!r}: {token!r} is neither "
                                         f"empty nor a finite number")
            if not (GLUCOSE_MIN < values[0] < GLUCOSE_MAX or math.isnan(values[0])):
                raise IngestionError(f"{where} 'glucose': {row[1]!r} lies outside "
                                     f"({GLUCOSE_MIN}, {GLUCOSE_MAX}) mg/dL")
            stamps.append(stamp)
            glucose.append(values[0])
            cho.append(values[1])
            insulin.append(values[2])
    except csv.Error as exc:
        raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(stamps, dtype="datetime64[m]"), glucose, cho, insulin


def read_series_csv(path, patient_id=None) -> GlucoseSeries:
    """One patient's series; the patient id defaults to the file's stem.

    A malformed line raises IngestionError naming the file, the 1-based line
    and the column: a wrong field count, a bad timestamp or one not after
    the previous reading's, a number field neither empty nor finite, or
    glucose outside (0, 600) mg/dL.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    t, glucose, cho, insulin = _read_columns(text) or _read_rows(path, text)
    return GlucoseSeries(patient_id=path.stem if patient_id is None else patient_id,
                         t=t, glucose=glucose, cho=cho, insulin=insulin)


def write_series_csv(series: GlucoseSeries, path) -> None:
    glucose = _shortest_reprs(series.glucose)
    glucose[~np.isfinite(series.glucose)] = ""
    cho = _shortest_reprs(series.cho)
    cho[series.cho == 0.0] = "0"
    insulin = _shortest_reprs(series.insulin)
    insulin[series.insulin == 0.0] = "0"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\r\n")
        fh.writelines(f"{t},{g},{c},{i}\r\n" for t, g, c, i in zip(
            series.t.astype(str).tolist(), glucose.tolist(), cho.tolist(),
            insulin.tolist()))
