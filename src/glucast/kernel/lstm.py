"""A plain LSTM layer as one fused tape operation.

Gate layout is fixed: the stacked weight rows hold the input, forget,
cell-candidate and output gates, in that order. Initial hidden and cell
states are zero vectors. A layer's parameters are three entries of its
model's flat name -> array dict: ``<layer>.w_in`` (4*hidden, input),
``<layer>.w_rec`` (4*hidden, hidden) and ``<layer>.bias`` (4*hidden,). Also
here, for every model family built on these layers: the dimension check of
a config dataclass.
"""

from __future__ import annotations

import numbers
from dataclasses import fields

import numpy as np

from ..errors import ConfigError, DimensionError
from . import tape as T


def check_dimensions(config) -> None:
    """Raise ConfigError naming the first field of a model config dataclass
    that is not an integer of at least 1 (a bool field must be a bool)."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type in ("bool", bool):
            if not isinstance(value, bool):
                raise ConfigError(f"{f.name} must be true or false, got {value!r}")
        elif (isinstance(value, bool) or not isinstance(value, numbers.Integral)
              or value < 1):
            raise ConfigError(f"{f.name} must be an integer of at least 1, got {value!r}")


def glorot(rng, rows, cols):
    limit = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def init_lstm_params(name, input_size, hidden_size, rng) -> dict:
    """The layer's entries of a model's flat parameter dict, each key
    prefixed ``<name>.``: Glorot-uniform weights, zero biases except forget
    gate bias = 1."""
    bias = np.zeros(4 * hidden_size)
    bias[hidden_size:2 * hidden_size] = 1.0
    return {f"{name}.w_in": glorot(rng, 4 * hidden_size, input_size),
            f"{name}.w_rec": glorot(rng, 4 * hidden_size, hidden_size),
            f"{name}.bias": bias}


def lstm_scan(tp, w_in, w_rec, bias, seq, reverse_time=False):
    """Run the LSTM over a (B, L, input) sequence as one taped op.

    Returns a (B, L, hidden) node aligned to the original time order
    regardless of the scan direction. All buffers are time-major in scan
    order, so each step reads and writes one contiguous block. The sigmoid
    gate rows of the weights are pre-scaled by 0.5, so one tanh per step
    evaluates all four gates (sigmoid(z) = 0.5 * tanh(z / 2) + 0.5, exact in
    binary floating point). The input is projected into the gate buffer one
    step at a time. Recording keeps every step's gate activations and cell
    states for the hand-written backward pass through time; an untaped run
    keeps only the hidden states, one step of gates and two cell rows.
    """
    wi, wr, b, x = T._val(w_in), T._val(w_rec), T._val(bias), T._val(seq)
    h4, n_in = wi.shape
    hidden = h4 // 4
    if x.ndim != 3 or x.shape[2] != n_in:
        raise DimensionError(
            f"LSTM input has shape {x.shape}, expected (B, L, {n_in})")
    batch, length, _ = x.shape

    gate_scale = np.full(h4, 0.5)
    gate_scale[2 * hidden:3 * hidden] = 1.0
    xs = x.transpose(1, 0, 2)
    if reverse_time:
        xs = xs[::-1]
    wi_t = (wi * gate_scale[:, None]).T
    b_scaled = b * gate_scale
    wr_t = (wr * gate_scale[:, None]).T
    gate_shift = 1.0 - gate_scale

    z = np.empty((length if tp is not None else 1, batch, h4))
    h = np.empty((length, batch, hidden))
    c = np.empty((length if tp is not None else 2, batch, hidden))
    rec = np.empty((batch, h4))
    ig = np.empty((batch, hidden))
    for s in range(length):
        a = z[s % len(z)]
        np.matmul(xs[s], wi_t, out=a)
        a += b_scaled
        if s:
            a += np.matmul(h[s - 1], wr_t, out=rec)
        np.tanh(a, out=a)
        a *= gate_scale
        a += gate_shift
        i, f, g, o = (a[:, k * hidden:(k + 1) * hidden] for k in range(4))
        c_s = c[s % len(c)]
        if s:
            np.multiply(f, c[(s - 1) % len(c)], out=c_s)
            c_s += np.multiply(i, g, out=ig)
        else:
            np.multiply(i, g, out=c_s)
        np.tanh(c_s, out=h[s])
        h[s] *= o

    value = (h[::-1] if reverse_time else h).transpose(1, 0, 2)
    if tp is None:
        return T.Node(value)

    def bptt(grad):
        """(dW_in, dW_rec, dbias, dseq) of the whole scan for an upstream
        (B, L, hidden) gradient; dseq is None for a constant sequence."""
        gs = grad.transpose(1, 0, 2)
        if reverse_time:
            gs = gs[::-1]
        gates = z.reshape(length, batch, 4, hidden)
        i, f, g, o = (gates[:, :, k] for k in range(4))
        # dz = [dc * d_i, dc * d_f, dc * d_g, dh * d_o], where dc and dh are the
        # step's cell and hidden adjoints; fill the d_* factors for all steps
        # in the one gate-sized buffer, and dc_dh in the tanh(c) buffer
        dz = np.subtract(1.0, z)
        dz *= z
        d = dz.reshape(length, batch, 4, hidden)
        d[:, :, 0] *= g
        d[1:, :, 1] *= c[:-1]
        d[0, :, 1] = 0.0
        d_g = np.multiply(g, g, out=d[:, :, 2])
        np.subtract(1.0, d_g, out=d_g)
        d_g *= i
        dc_dh = np.tanh(c)
        d[:, :, 3] *= dc_dh
        np.multiply(dc_dh, dc_dh, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o

        dh, dc, dc_next = np.empty((3, batch, hidden))
        for s in range(length - 1, -1, -1):
            if s + 1 < length:
                np.matmul(dz[s + 1], wr, out=dh)
                dh += gs[s]
            else:
                dh[...] = gs[s]
            np.multiply(dh, dc_dh[s], out=dc)
            if s + 1 < length:
                dc += dc_next
            d[s, :, :3] *= dc[:, None, :]
            d[s, :, 3] *= dh
            np.multiply(dc, f[s], out=dc_next)
        del dc_dh  # not alive through the weight-gradient GEMMs below

        flat = dz.reshape(length * batch, h4)
        d_w_in = flat.T @ np.ascontiguousarray(xs).reshape(-1, n_in)
        d_w_rec = flat[batch:].T @ h[:-1].reshape(-1, hidden)
        d_seq = None
        if isinstance(seq, T.Node):
            d_seq = (flat @ wi).reshape(length, batch, n_in)
            d_seq = (d_seq[::-1] if reverse_time else d_seq).transpose(1, 0, 2)
        return d_w_in, d_w_rec, flat.sum(axis=0), d_seq

    return T._emit_shared(tp, value, (w_in, w_rec, bias, seq), bptt)
