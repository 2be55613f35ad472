"""Timestamped multivariate glucose series and their CSV form.

CSV contract (one file per patient): header ``datetime,glucose,CHO,insulin``,
ISO-8601 timestamps at minute resolution without a UTC offset, empty field =
missing. Glucose is mg/dL, CHO grams, insulin units. CHO and insulin are
event masses: absent means zero.

The writer emits CRLF rows, ``YYYY-MM-DDThh:mm`` timestamps and the shortest
decimal that round-trips for every value. The reader takes every file the
same way: the ``csv`` module splits it into rows (any line ending, quoted
fields, blank rows skipped), then each column is parsed at once, the
timestamps in one numpy call when all of them have the writer's form, and
the columns become a ``GlucoseSeries``, whose checks are the only ones on
order and range. When anything fails, one more pass over the rows finds
the first bad line with ``_row_fault``, the locator that the sample
archives' reader shares, and raises an error naming the file, the line and
the column.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from datetime import datetime
from itertools import compress
from pathlib import Path

import numpy as np

from ..errors import IngestionError

CSV_HEADER = ["datetime", "glucose", "CHO", "insulin"]
GLUCOSE_MIN = 0.0
GLUCOSE_MAX = 600.0
# the writer's timestamps, one a line, which numpy parses at once. numpy rejects
# an impossible date or time as datetime.fromisoformat does, but reads year 0,
# which fromisoformat rejects, so year 0 is kept out of this form.
_PLAIN_STAMPS = re.compile(r"(?:(?!0000)\d{4}-\d\d-\d\dT\d\d:\d\d\n)*", re.ASCII)
_MISSING = (np.nan, 0.0, 0.0)  # the value of an empty glucose, CHO, insulin field


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
    """token -> float(token), parsing each distinct token once; a token that
    is not a finite number raises ValueError, and so does a blank or
    whitespace-only one unless ``missing`` gives its value. Use a fresh one
    per block of tokens, so it stays small whatever the file holds."""

    def __init__(self, missing=None):
        super().__init__()
        self.missing = missing

    def __missing__(self, token):
        if self.missing is not None and not token.strip():
            value = self.missing
        elif not math.isfinite(value := float(token)):
            raise ValueError(f"{token!r} is not a finite number")
        self[token] = value
        return value

    def fault(self, token):
        """None for a token this memo parses, else the fault text."""
        try:
            self[token]
        except ValueError:
            return ("is not a finite number" if self.missing is None
                    else "is neither empty nor a finite number")


def _parse_timestamp(token):
    """The minute of an ISO-8601 field as ``datetime.fromisoformat`` reads
    it; ValueError when it reads none or the field carries a UTC offset."""
    stamp = datetime.fromisoformat(token.strip())
    if stamp.tzinfo is not None:
        raise ValueError(f"{token!r} carries a UTC offset")
    return np.datetime64(stamp).astype("datetime64[m]")


def _row_fault(path, header, rows, checks):
    """The IngestionError naming the file, the line and the column of the
    first fault in ``rows``, (line number, fields) pairs, or None: a field
    count other than ``header``'s, or the text that one of ``checks``,
    (column, check) pairs run in their order, maps the column's token to."""
    for line_no, fields in rows:
        where = f"{path}: line {line_no}, column"
        if len(fields) < len(header):
            return IngestionError(f"{where} {header[len(fields)]!r}: the row has "
                                  f"{len(fields)} fields, the header {len(header)}")
        if len(fields) > len(header):
            return IngestionError(f"{where} {header[-1]!r}: the row has "
                                  f"{len(fields) - len(header)} fields past the last column")
        for column, check in checks:
            token = fields[header.index(column)]
            if (fault := check(token)) is not None:
                return IngestionError(f"{where} {column!r}: {token!r} {fault}")


def _glucose_fault(token):  # of a token that parses
    value = _FloatMemo(np.nan)[token]
    if not (GLUCOSE_MIN < value < GLUCOSE_MAX or math.isnan(value)):
        return f"lies outside ({GLUCOSE_MIN}, {GLUCOSE_MAX}) mg/dL"


def _series_fault(path, text):
    """The IngestionError naming the first bad line of ``text``, read line by
    line with the ``csv`` module, and its column, or None."""
    previous = None

    def stamp_fault(token):  # the one check that carries state
        nonlocal previous
        try:
            stamp = _parse_timestamp(token)
        except ValueError:
            return "is not an ISO-8601 timestamp without a UTC offset"
        if previous is not None and stamp <= previous:
            return f"does not come after the previous reading ({previous})"
        previous = stamp

    number = _FloatMemo(0.0).fault
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if [h.strip() for h in next(reader, [])] != CSV_HEADER:
            return IngestionError(f"{path}: line 1 is not the header "
                                  f"{','.join(CSV_HEADER)}")
        rows = ((reader.line_num, row) for row in reader if any(map(str.strip, row)))
        # glucose's range is checked once every number of the row parses
        return _row_fault(path, CSV_HEADER, rows, [
            ("datetime", stamp_fault), *((c, number) for c in CSV_HEADER[1:]),
            ("glucose", _glucose_fault)])
    except csv.Error as exc:
        return IngestionError(f"{path}: line {reader.line_num}: {exc}")


def read_series_csv(path) -> GlucoseSeries:
    """One patient's series; the patient id is the file's stem.

    A malformed line raises IngestionError naming the file, the 1-based line
    and the column: a wrong field count, a bad timestamp (one with a UTC
    offset included) or one not after the previous reading's, a number
    field neither empty nor finite, or glucose outside (0, 600) mg/dL.
    """
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    try:
        header, *rows = list(csv.reader(io.StringIO(text, newline=""))) or [[]]
        # skip blank and whitespace-only rows
        rows = list(compress(rows, map(str.strip, map("".join, rows))))
        if ([h.strip() for h in header] != CSV_HEADER
                or set(map(len, rows)) - {len(CSV_HEADER)}):
            raise ValueError("a bad header or field count")
        stamps, *fields = list(zip(*rows)) or [()] * len(CSV_HEADER)
        plain = _PLAIN_STAMPS.fullmatch("\n".join(stamps) + "\n")
        t = np.array(stamps if plain else list(map(_parse_timestamp, stamps)),
                     dtype="datetime64[m]")
        glucose, cho, insulin = (
            np.fromiter(map(_FloatMemo(missing).__getitem__, column),
                        dtype=np.float64, count=len(column))
            for column, missing in zip(fields, _MISSING))
        return GlucoseSeries(patient_id=path.stem, t=t, glucose=glucose, cho=cho,
                             insulin=insulin)
    except (ValueError, csv.Error) as exc:
        raise _series_fault(path, text) or IngestionError(f"{path}: {exc}") from None


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
