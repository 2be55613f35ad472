"""Plain LSTM layers reading one sequence, as one fused tape operation.

Layers that read the same sequence (retain's alpha and beta) are one op
with one output per layer. Above ``PARALLEL_STEP_WORK``, a persistent
worker thread runs every layer after the first while the calling thread
runs the first; the worker only writes into buffers the calling thread
allocated, and the op is recorded on the tape from the calling thread only,
after both have finished. Gate layout is fixed: the stacked weight rows hold the input, forget,
cell-candidate and output gates, in that order. Initial hidden and cell
states are zero vectors. A layer's parameters are three entries of its
model's flat name -> array dict: ``<layer>.w_in`` (4*hidden, input),
``<layer>.w_rec`` (4*hidden, hidden) and ``<layer>.bias`` (4*hidden,). Also
here, for every model family built on these layers: the dimension check of
a config dataclass.
"""

from __future__ import annotations

import numbers
from concurrent import futures
from dataclasses import fields

import numpy as np

from ..errors import ConfigError, DimensionError
from . import tape as T

# Above this many multiply-adds per step in every layer of a scan, batch *
# 4*hidden * (hidden + input), lstm_scan runs its layers after the first on
# the worker thread. Two layers, graph plus backward, on 2 cores at one BLAS
# thread: below 1.5e6 the thread won nothing (0.8-1.2x), from 1.6e6 it won
# 1.3-1.9x (64/128 at batch 50, 4.9e6: 1.45-1.6x). 2.5e6 leaves a margin
# and keeps every batch of the 16/24 acceptance size, up to PREDICT_CHUNK's
# 512 windows (2.0e6), on one thread.
PARALLEL_STEP_WORK = 2_500_000

# the one worker thread, started on first use; it runs only _Layer.forward and
# _Layer.bptt, never a traced or tape function
_WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="lstm_scan")


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


# The calling thread allocates the worker's buffers (``loop_buffers`` and
# ``grad_buffers``, handed over as ``bufs``) to keep peak memory down, not
# for correctness. With the worker allocating its own BPTT buffers instead
# (19 lines fewer, every output bit the same), perfbench train-prod peak RSS
# rose in 3 of 3 run pairs on a 2-core machine, from 192.6-193.7 MB to
# 201.5-205.6 MB, at an unchanged train_samples_per_s (592-642 against
# 593-649). The likely cause, not verified, is glibc's per-thread malloc
# arena: what the worker frees stays in its own arena, where the calling
# thread's allocations cannot reuse it.
class _Layer:
    """One layer of a scan: its weights with the sigmoid gate rows scaled by
    0.5, and the buffers its step loops write. Every buffer is allocated by
    the calling thread; ``forward`` and ``bptt`` only write into them, so
    they may run on the worker thread."""

    def __init__(self, wi, wr, b, batch, length, taped):
        h4 = len(wi)
        hidden = h4 // 4
        self.wi, self.wr = wi, wr
        self.gate_scale = np.full(h4, 0.5)
        self.gate_scale[2 * hidden:3 * hidden] = 1.0
        self.gate_shift = 1.0 - self.gate_scale
        self.wi_t = (wi * self.gate_scale[:, None]).T
        self.b_scaled = b * self.gate_scale
        self.wr_t = (wr * self.gate_scale[:, None]).T
        self.z = np.empty((length if taped else 1, batch, h4))
        self.h = np.empty((length, batch, hidden))
        self.c = np.empty((length if taped else 2, batch, hidden))
        self.rec = np.empty((batch, h4))
        self.ig = np.empty((batch, hidden))

    def work(self):
        """Multiply-adds per step: batch * 4*hidden * (hidden + input)."""
        return self.z[0].size * (self.wr.shape[1] + self.wi.shape[1])

    def forward(self, xs):
        z, h, c, hidden = self.z, self.h, self.c, self.h.shape[2]
        for s in range(len(h)):
            a = z[s % len(z)]
            np.matmul(xs[s], self.wi_t, out=a)
            a += self.b_scaled
            if s:
                a += np.matmul(h[s - 1], self.wr_t, out=self.rec)
            np.tanh(a, out=a)
            a *= self.gate_scale
            a += self.gate_shift
            i, f, g, o = (a[:, k * hidden:(k + 1) * hidden] for k in range(4))
            c_s = c[s % len(c)]
            if s:
                np.multiply(f, c[(s - 1) % len(c)], out=c_s)
                c_s += np.multiply(i, g, out=self.ig)
            else:
                np.multiply(i, g, out=c_s)
            np.tanh(c_s, out=h[s])
            h[s] *= o
        # what only the step loop reads need not live on the tape until bptt
        self.wi_t = self.wr_t = self.b_scaled = self.rec = self.ig = None

    def loop_buffers(self):
        """dz, dc_dh and the (dh, dc, dc_next) state of a BPTT's step loop."""
        return [np.empty_like(self.z), np.empty_like(self.c),
                np.empty((3, *self.c.shape[1:]))]

    def grad_buffers(self, want):
        """The gradients of the parents flagged in ``want`` (w_in, w_rec,
        bias, seq), None where not wanted."""
        length, batch, h4 = self.z.shape
        shapes = (self.wi.shape, self.wr.shape, (h4,), (length * batch, self.wi.shape[1]))
        return [np.empty(shape) if w else None for shape, w in zip(shapes, want)]

    def bptt(self, gs, xs_flat, want, bufs):
        """The gradients of ``grad_buffers(want)`` for the time-major,
        scan-order upstream gradient ``gs``. ``bufs`` is a list of every buffer
        (``loop_buffers`` then ``grad_buffers``), which this empties, or None
        to allocate each as it is needed; dc_dh is freed once the step loop
        has used it."""
        z, c, h = self.z, self.c, self.h
        length, batch, h4 = z.shape
        hidden = h4 // 4
        gates = z.reshape(length, batch, 4, hidden)
        i, f, g, o = (gates[:, :, k] for k in range(4))
        # dz = [dc * d_i, dc * d_f, dc * d_g, dh * d_o], where dc and dh are the
        # step's cell and hidden adjoints; fill the d_* factors for all steps
        # in the one gate-sized buffer, and dc_dh in a cell-sized one
        if bufs is None:
            bufs = self.loop_buffers()
        dz, dc_dh, (dh, dc, dc_next), *grads = bufs
        bufs.clear()  # so that the caller's list keeps no buffer alive
        np.subtract(1.0, z, out=dz)
        dz *= z
        d = dz.reshape(length, batch, 4, hidden)
        d[:, :, 0] *= g
        d[1:, :, 1] *= c[:-1]
        d[0, :, 1] = 0.0
        d_g = np.multiply(g, g, out=d[:, :, 2])
        np.subtract(1.0, d_g, out=d_g)
        d_g *= i
        np.tanh(c, out=dc_dh)
        d[:, :, 3] *= dc_dh
        np.multiply(dc_dh, dc_dh, out=dc_dh)
        np.subtract(1.0, dc_dh, out=dc_dh)
        dc_dh *= o

        for s in range(length - 1, -1, -1):
            if s + 1 < length:
                np.matmul(dz[s + 1], self.wr, out=dh)
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

        d_w_in, d_w_rec, d_bias, d_seq = grads = grads or self.grad_buffers(want)
        flat = dz.reshape(length * batch, h4)
        if d_w_in is not None:
            np.matmul(flat.T, xs_flat, out=d_w_in)
        if d_w_rec is not None:
            np.matmul(flat[batch:].T, h[:-1].reshape(-1, hidden), out=d_w_rec)
        if d_bias is not None:
            flat.sum(axis=0, out=d_bias)
        if d_seq is not None:
            np.matmul(flat, self.wi, out=d_seq)
        return grads


def _each_layer(jobs, threaded):
    """``[work(bufs) for (alloc, work) in jobs]``. Unthreaded, the jobs run
    in turn with ``bufs`` None, the last first: for BPTTs that is the order
    in which one op per layer would be replayed, so the buffers are
    allocated and freed in that order too. Threaded, this thread first runs
    ``alloc()`` for jobs[1:]; then the worker runs those jobs in turn on
    their buffers while this thread runs jobs[0] with ``bufs`` None; it
    returns, or raises jobs[0]'s exception (else the worker's), only after
    both threads have ended."""
    if not threaded:
        return [work(None) for _, work in jobs[::-1]][::-1]
    bufs = [alloc() for alloc, _ in jobs[1:]]
    rest = _WORKER.submit(lambda: [work(b) for (_, work), b in zip(jobs[1:], bufs)])
    try:
        first = jobs[0][1](None)
    finally:
        futures.wait((rest,))
    return [first, *rest.result()]


def lstm_scan(tp, p, layers, seq, reverse_time=False):
    """Run the LSTM layers named in ``layers`` over one (B, L, input)
    sequence as one taped op; returns one (B, L, hidden) node per layer,
    aligned to the original time order regardless of the scan direction.

    All buffers are time-major in scan order, so each step reads and writes
    one contiguous block. The sigmoid gate rows of the weights are pre-scaled
    by 0.5, so one tanh per step evaluates all four gates (sigmoid(z) =
    0.5 * tanh(z / 2) + 0.5, exact in binary floating point). The input is
    projected into the gate buffer one step at a time. Recording keeps every
    step's gate activations and cell states for the hand-written backward
    pass through time; an untaped run keeps only the hidden states, one step
    of gates and two cell rows.

    The layers do not read each other. With several layers of at least
    ``PARALLEL_STEP_WORK`` per step, the worker thread runs the forward step
    loops and later the BPTTs of all but the first, in turn, while the
    calling thread runs the first; the bits are those of running the layers
    one after the other. The op's parents are each layer's w_in, w_rec,
    bias and the sequence, last layer first, so the sequence's gradient sums
    match one op per layer recorded in the order named.
    """
    x = T.value_of(seq)
    weights = [[T.value_of(p[f"{name}.{w}"]) for w in ("w_in", "w_rec", "bias")]
               for name in layers]
    for wi, _, _ in weights:
        if x.ndim != 3 or x.shape[2] != wi.shape[1]:
            raise DimensionError(
                f"LSTM input has shape {x.shape}, expected (B, L, {wi.shape[1]})")
    batch, length, n_in = x.shape

    xs = x.transpose(1, 0, 2)
    if reverse_time:
        xs = xs[::-1]
    scans = [_Layer(*w, batch, length, tp is not None) for w in weights]
    threaded = len(scans) > 1 and min(s.work() for s in scans) >= PARALLEL_STEP_WORK
    _each_layer([(lambda: None, lambda _, s=s: s.forward(xs)) for s in scans], threaded)
    values = tuple((s.h[::-1] if reverse_time else s.h).transpose(1, 0, 2) for s in scans)

    parents = [[p[f"{name}.{w}"] for w in ("w_in", "w_rec", "bias")] + [seq]
               for name in layers]

    def vjp(*adjoints):
        """Each layer's (dW_in, dW_rec, dbias, dseq), last layer first; None
        for a constant parent and for a layer whose output got no adjoint."""
        todo = [(s, g, [isinstance(x, T.Node) for x in parents[k]])
                for k, (s, g) in enumerate(zip(scans, adjoints)) if g is not None]
        xs_flat = (np.ascontiguousarray(xs).reshape(-1, n_in)
                   if any(want[0] for _, _, want in todo) else None)

        def job(s, g, want):
            gs = g.transpose(1, 0, 2)
            return (lambda: s.loop_buffers() + s.grad_buffers(want),
                    lambda bufs: s.bptt(gs[::-1] if reverse_time else gs, xs_flat, want, bufs))

        done = iter(_each_layer([job(*t) for t in todo], threaded and len(todo) > 1))
        grads = []
        for g in adjoints:
            if g is None:
                grads.append([None] * 4)
                continue
            *d_w, d_seq = next(done)
            if d_seq is not None:
                d_seq = d_seq.reshape(length, batch, n_in)
                d_seq = (d_seq[::-1] if reverse_time else d_seq).transpose(1, 0, 2)
            grads.append([*d_w, d_seq])
        return tuple(d for layer in reversed(grads) for d in layer)

    return T.emit(tp, values, tuple(x for layer in reversed(parents) for x in layer), vjp)
