"""Shared helpers for gradient comparisons against central differences."""

import numpy as np


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
