"""Shared test helpers: central-difference gradients, and plain-loop
reference implementations that vectorized code must match bit for bit."""

import csv
import io
import math
import re
from datetime import datetime
from pathlib import Path

import numpy as np

from glucast.datapipe import GlucoseSeries
from glucast.errors import IngestionError
from glucast.kernel import tape as T


def finite_diff_params(value_fn, arrays, eps=1e-5):
    """Central-difference gradients of value_fn() w.r.t. live param arrays."""
    out = {}
    for name, arr in arrays.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + eps
            hi = value_fn()
            flat[i] = keep - eps
            lo = value_fn()
            flat[i] = keep
            gf[i] = (hi - lo) / (2.0 * eps)
        out[name] = g
    return out


def max_rel_err(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1e-8, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def oracle_lstm_cell(x, h, c, w_in, w_rec, bias):
    """Straight-line transcription of the cell equations for a (B, input)
    batch of inputs and (B, hidden) states; returns the new (h, c)."""
    hs = w_rec.shape[1]
    z = x @ w_in.T + h @ w_rec.T + bias
    i = _sigmoid(z[:, :hs])
    f = _sigmoid(z[:, hs:2 * hs])
    g = np.tanh(z[:, 2 * hs:3 * hs])
    o = _sigmoid(z[:, 3 * hs:])
    c_new = f * c + i * g
    return o * np.tanh(c_new), c_new


def oracle_lstm(x, w_in, w_rec, bias, reverse_time=False):
    """A (B, L, input) batch through the LSTM one cell at a time from zero
    states, in plain numpy; (B, L, hidden) in the original time order."""
    batch, length, _ = x.shape
    hs = w_rec.shape[1]
    h = np.zeros((batch, hs))
    c = np.zeros((batch, hs))
    out = np.empty((batch, length, hs))
    for t in (range(length - 1, -1, -1) if reverse_time else range(length)):
        h, c = oracle_lstm_cell(x[:, t], h, c, w_in, w_rec, bias)
        out[:, t] = h
    return out


def oracle_block_sum(a, b, rows=100):
    """``a.T @ b`` as the products of the ``rows``-row blocks of the rows of
    ``a`` and ``b`` (0-99, 100-199, ..., the last one short), one matmul per
    block, added from the last block to the first."""
    starts = range(0, len(a), rows)
    if not starts:
        return np.zeros((a.shape[1], b.shape[1]))
    products = [a[k:k + rows].T @ b[k:k + rows] for k in starts]
    total = products[-1]
    for product in products[-2::-1]:
        total = total + product
    return total


def oracle_lstm_scan(tp, p, layers, seq, reverse_time=False):
    """The fused LSTM op of one layer as it was with whole-sequence buffers:
    the input projection of all steps in one batched matmul, and the BPTT
    factors of all steps built from gate- and cell-sized temporaries. Same
    signature and node protocol as ``kernel.lstm_scan``, for one layer. Its
    sums over rows are those of the kernel, which the bits depend on: the
    weight gradients are block sums, the sequence gradient one product per
    block of rows."""
    (name,) = layers
    parents = (p[f"{name}.w_in"], p[f"{name}.w_rec"], p[f"{name}.bias"], seq)
    wi, wr, b, x = map(T.value_of, parents)
    h4, n_in = wi.shape
    hidden = h4 // 4
    batch, length, _ = x.shape

    gate_scale = np.full(h4, 0.5)
    gate_scale[2 * hidden:3 * hidden] = 1.0
    xs = x.transpose(1, 0, 2)
    if reverse_time:
        xs = xs[::-1]
    z = np.empty((length, batch, h4))
    np.matmul(xs, (wi * gate_scale[:, None]).T, out=z)
    z += b * gate_scale
    wr_t = (wr * gate_scale[:, None]).T
    gate_shift = 1.0 - gate_scale

    h = np.empty((length, batch, hidden))
    c = np.empty((length if tp is not None else 2, batch, hidden))
    for s in range(length):
        a = z[s]
        if s:
            a += h[s - 1] @ wr_t
        np.tanh(a, out=a)
        a *= gate_scale
        a += gate_shift
        i, f, g, o = (a[:, k * hidden:(k + 1) * hidden] for k in range(4))
        c_s = c[s % len(c)]
        if s:
            np.multiply(f, c[(s - 1) % len(c)], out=c_s)
            c_s += i * g
        else:
            np.multiply(i, g, out=c_s)
        np.tanh(c_s, out=h[s])
        h[s] *= o

    value = (h[::-1] if reverse_time else h).transpose(1, 0, 2)
    def bptt(grad):
        gs = grad.transpose(1, 0, 2)
        if reverse_time:
            gs = gs[::-1]
        gates = z.reshape(length, batch, 4, hidden)
        i, f, g, o = (gates[:, :, k] for k in range(4))
        tanh_c = np.tanh(c)
        dz = gates * (1.0 - gates)
        dz[:, :, 0] *= g
        dz[1:, :, 1] *= c[:-1]
        dz[0, :, 1] = 0.0
        dz[:, :, 2] = i * (1.0 - g * g)
        dz[:, :, 3] *= tanh_c
        dc_dh = o * (1.0 - tanh_c * tanh_c)

        dc_next = None
        for s in range(length - 1, -1, -1):
            dh = gs[s] + dz[s + 1].reshape(batch, h4) @ wr if s + 1 < length else gs[s]
            dc = dh * dc_dh[s]
            if dc_next is not None:
                dc += dc_next
            dz[s, :, :3] *= dc[:, None, :]
            dz[s, :, 3] *= dh
            dc_next = dc * f[s]

        flat = dz.reshape(length * batch, h4)
        d_w_in = oracle_block_sum(flat, np.ascontiguousarray(xs).reshape(-1, n_in))
        d_w_rec = oracle_block_sum(flat[batch:], h[:-1].reshape(-1, hidden))
        d_seq = None
        if isinstance(seq, T.Node):
            d_seq = np.concatenate([flat[r:r + T.GRAD_BLOCK_ROWS] @ wi
                                    for r in range(0, len(flat), T.GRAD_BLOCK_ROWS)])
            d_seq = d_seq.reshape(length, batch, n_in)
            d_seq = (d_seq[::-1] if reverse_time else d_seq).transpose(1, 0, 2)
        grads = (d_w_in, d_w_rec, flat.sum(axis=0), d_seq)
        return tuple(d if isinstance(x, T.Node) else None for x, d in zip(parents, grads))

    return T.emit(tp, (value,), parents, bptt)


def oracle_backward(tape, root):
    """``Tape.backward`` as it was, keeping every adjoint it computes: the
    replay loop over ``tape``'s recorded ops, seeded with ones."""
    for outs, _, _ in tape._ops:
        for out in outs:
            out.grad = None
    root.grad = np.ones_like(root.value)
    for outs, parents, vjp in reversed(tape._ops):
        adjoints = [out.grad for out in outs]
        if all(g is None for g in adjoints):
            continue
        for parent, contrib in zip(parents, vjp(*adjoints)):
            if contrib is not None:
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def oracle_clean_spikes(glucose, threshold):
    """Spike removal one present reading at a time, in time order, on the
    glucose already cleaned; returns the cleaned copy."""
    glucose = glucose.copy()
    present = np.flatnonzero(np.isfinite(glucose))
    for j in range(1, len(present) - 1):
        k_prev, k, k_next = present[j - 1], present[j], present[j + 1]
        before = glucose[k] - glucose[k_prev]
        after = glucose[k_next] - glucose[k]
        if abs(before) > threshold and abs(after) > threshold and before * after < 0:
            glucose[k] = np.nan
    return glucose


def oracle_resample(t, glucose, cho, insulin, p):
    """Gridding one reading at a time: (grid, glucose, cho, insulin)."""
    offsets = (t - t[0]).astype(np.int64)
    n_slots = int(offsets[-1] // p) + 1
    slots = np.minimum((2 * offsets + p - 1) // (2 * p), n_slots - 1)
    distance = np.abs(offsets - slots * p)
    out_glucose = np.full(n_slots, np.nan)
    best = np.full(n_slots, np.iinfo(np.int64).max)
    out_cho = np.zeros(n_slots)
    out_insulin = np.zeros(n_slots)
    for i in range(len(t)):
        k = int(slots[i])
        if np.isfinite(glucose[i]) and distance[i] < best[k]:
            out_glucose[k] = glucose[i]
            best[k] = distance[i]
        out_cho[k] += cho[i]
        out_insulin[k] += insulin[i]
    grid = t[0] + np.arange(n_slots, dtype=np.int64) * np.timedelta64(p, "m")
    return grid, out_glucose, out_cho, out_insulin


def oracle_recover_missing(x, y):
    """Gap recovery one window at a time: the indices of the kept windows
    and their recovered inputs."""
    kept, windows = [], []
    for i in range(len(y)):
        g = x[i, :, 0]
        known = np.flatnonzero(np.isfinite(g))
        if not np.isfinite(y[i]) or known.size < 2:
            continue
        inputs = x[i].copy()
        if known.size < g.shape[0]:
            idx = np.arange(g.shape[0], dtype=np.float64)
            filled = np.interp(idx, known.astype(np.float64), g[known])
            first, second = known[0], known[1]
            lead_slope = (g[second] - g[first]) / (second - first)
            filled[:first] = g[first] - lead_slope * (first - idx[:first])
            last, prev = known[-1], known[-2]
            trail_slope = (g[last] - g[prev]) / (last - prev)
            filled[last + 1:] = g[last] + trail_slope * (idx[last + 1:] - last)
            inputs[:, 0] = filled
        kept.append(i)
        windows.append(inputs)
    return np.array(kept, dtype=np.int64), np.array(windows).reshape(-1, *x.shape[1:])


# --- the patient CSV reader as it was with two paths: whole columns for the
# writer's plain form, the csv module line by line for every other form

_ORACLE_HEADER = ["datetime", "glucose", "CHO", "insulin"]
_ORACLE_PLAIN_STAMPS = re.compile(r"(?:\d{4}-\d\d-\d\dT\d\d:\d\d\n)*", re.ASCII)


class _OracleFloatMemo(dict):
    def __missing__(self, token):
        value = self[token] = float(token)
        return value


def _oracle_timestamp(token):
    try:
        dt = datetime.fromisoformat(token.strip())
    except ValueError:
        return None
    if dt.tzinfo is not None:  # an offset is rejected, not converted to UTC
        return None
    return np.datetime64(dt).astype("datetime64[m]")


def _oracle_field_value(token, missing):
    if not token.strip():
        return missing
    try:
        value = float(token)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _oracle_read_columns(text):
    if '"' in text or text.count("\r") != text.count("\r\n"):
        return None
    lines = text.replace("\r\n", "\n").split("\n")
    if lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != ",".join(_ORACLE_HEADER):
        return None
    rows = [line.split(",") for line in lines[1:]]
    if any(len(row) != len(_ORACLE_HEADER) for row in rows):
        return None
    stamps, *fields = list(zip(*rows)) or [()] * len(_ORACLE_HEADER)
    if not _ORACLE_PLAIN_STAMPS.fullmatch("".join(stamp + "\n" for stamp in stamps)):
        return None
    try:
        t = np.array(stamps, dtype="datetime64[m]")
        glucose, cho, insulin = (
            np.fromiter(map(_OracleFloatMemo({"": missing}).__getitem__, column),
                        dtype=np.float64, count=len(column))
            for column, missing in zip(fields, (np.nan, 0.0, 0.0)))
    except ValueError:
        return None
    if (np.any(t < np.datetime64("0001-01-01T00:00", "m"))
            or np.any(np.diff(t) <= np.timedelta64(0, "m"))
            or np.count_nonzero(np.isnan(glucose)) != fields[0].count("")
            or np.any((glucose <= 0.0) | (glucose >= 600.0))
            or not np.isfinite(cho).all() or not np.isfinite(insulin).all()):
        return None
    return t, glucose, cho, insulin


def _oracle_read_rows(path, text):
    reader = csv.reader(io.StringIO(text, newline=""))
    stamps, glucose, cho, insulin = [], [], [], []
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != _ORACLE_HEADER:
            raise IngestionError(f"{path}: line 1 is not the header "
                                 f"{','.join(_ORACLE_HEADER)}")
        for row in reader:
            if all(not field.strip() for field in row):
                continue
            where = f"{path}: line {reader.line_num}, column"
            if len(row) < len(_ORACLE_HEADER):
                raise IngestionError(
                    f"{where} {_ORACLE_HEADER[len(row)]!r}: the row has {len(row)} "
                    f"fields, the header {len(_ORACLE_HEADER)}")
            if len(row) > len(_ORACLE_HEADER):
                raise IngestionError(
                    f"{where} {_ORACLE_HEADER[-1]!r}: the row has "
                    f"{len(row) - len(_ORACLE_HEADER)} fields past the last column")
            stamp = _oracle_timestamp(row[0])
            if stamp is None:
                raise IngestionError(f"{where} 'datetime': {row[0]!r} is not an "
                                     f"ISO-8601 timestamp without a UTC offset")
            if stamps and stamp <= stamps[-1]:
                raise IngestionError(f"{where} 'datetime': {row[0]!r} does not come "
                                     f"after the previous reading ({stamps[-1]})")
            values = [_oracle_field_value(token, missing)
                      for token, missing in zip(row[1:], (np.nan, 0.0, 0.0))]
            for column, token, value in zip(_ORACLE_HEADER[1:], row[1:], values):
                if value is None:
                    raise IngestionError(f"{where} {column!r}: {token!r} is neither "
                                         f"empty nor a finite number")
            if not (0.0 < values[0] < 600.0 or math.isnan(values[0])):
                raise IngestionError(f"{where} 'glucose': {row[1]!r} lies outside "
                                     f"(0.0, 600.0) mg/dL")
            stamps.append(stamp)
            glucose.append(values[0])
            cho.append(values[1])
            insulin.append(values[2])
    except csv.Error as exc:
        raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None
    return np.array(stamps, dtype="datetime64[m]"), glucose, cho, insulin


def oracle_read_series_csv(path):
    """A patient CSV as the two-path reader read it: the series, or the
    IngestionError it raised."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc.reason})") from None
    t, glucose, cho, insulin = _oracle_read_columns(text) or _oracle_read_rows(path, text)
    return GlucoseSeries(patient_id=path.stem, t=t, glucose=glucose, cho=cho,
                         insulin=insulin)
