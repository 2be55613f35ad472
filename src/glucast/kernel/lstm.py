"""Plain LSTM layers as one fused tape operation.

Layers that read the same sequence (retain's alpha and beta) are one op
with one output per layer. Stacked layers (``stacked=True``: the stacked
regressor's layer1 and layer2) are one op as well: each layer reads the
hidden states of the layer below, and only the top layer's output is a node.

A persistent worker thread shares the work of a layer whose steps take at
least ``PARALLEL_STEP_WORK`` multiply-adds, and only when BLAS leaves a core
free (``USE_WORKER``):

* side by side, it runs the forward step loops and BPTTs of every layer
  after the first while the calling thread runs the first;
* stacked two high, it runs layer 2's forward step s as soon as the calling
  thread's layer 1 has written h1[s] (a wavefront); the BPTTs stay serial;
* in a BPTT that runs on the calling thread alone, it computes the input
  side's weight gradients (w_in and bias) while the calling thread computes
  the w_rec and sequence gradients.

The worker only writes into buffers the calling thread allocated, and the op
is recorded on the tape from the calling thread only, after both have
finished; the bits are those of running everything on one thread. Gate
layout is fixed: the stacked weight rows hold the input, forget,
cell-candidate and output gates, in that order. Initial hidden and cell
states are zero vectors. A layer's parameters are three entries of its
model's flat name -> array dict: ``<layer>.w_in`` (4*hidden, input),
``<layer>.w_rec`` (4*hidden, hidden) and ``<layer>.bias`` (4*hidden,). Also
here, for every model family built on these layers: the dimension check of
a config dataclass.
"""

from __future__ import annotations

import numbers
import os
import threading
from concurrent import futures
from dataclasses import fields

import numpy as np

from ..errors import ConfigError, DimensionError
from . import tape as T

# Above this many multiply-adds per step in every layer of a scan, batch *
# 4*hidden * (hidden + input), lstm_scan hands work to the worker thread. Two
# layers, graph plus backward, on 2 cores at one BLAS thread: below 1.5e6 the
# thread won nothing (0.8-1.2x), from 1.6e6 it won 1.3-1.9x (64/128 at batch
# 50, 4.9e6: 1.45-1.6x). 2.5e6 leaves a margin and keeps every batch of the
# 16/24 acceptance size, up to PREDICT_CHUNK's 512 windows (2.0e6), on one
# thread.
PARALLEL_STEP_WORK = 2_500_000


def _blas_leaves_a_core():
    """Whether OpenBLAS runs fewer threads than this process has cores. It
    takes the first of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and
    OMP_NUM_THREADS that is a positive integer, else every core of the
    process's affinity mask (of the machine where there is no such mask)."""
    affinity = getattr(os, "sched_getaffinity", None)
    cores = len(affinity(0)) if affinity is not None else (os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads < cores
    return False


# Whether lstm_scan may use the worker at all, decided once at import. With
# BLAS on every core, the worker oversubscribes them: on 2 cores at 2 BLAS
# threads, the CLI's production-size retain train + evaluate + explain took
# 9.25 s with the worker against 8.74 s without it (medians of 5 runs).
USE_WORKER = _blas_leaves_a_core()

# the one worker thread, started on first use; it runs only _Layer.forward and
# parts of _Layer.bptt, never a traced or tape function, and never waits for
# itself
_WORKER = futures.ThreadPoolExecutor(max_workers=1, thread_name_prefix="lstm_scan")


def _worth_the_worker(batch, *weights):
    """Whether the worker may be used and every layer of ``weights`` (each
    ``(w_in, w_rec, ...)``) takes at least PARALLEL_STEP_WORK multiply-adds
    per step, batch * 4*hidden * (hidden + input)."""
    return USE_WORKER and min(batch * (wi.size + wr.size)
                              for wi, wr, *_ in weights) >= PARALLEL_STEP_WORK


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
        self.wi, self.wr, self.taped = wi, wr, taped
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

    def forward(self, xs, before_step=None, after_step=None):
        """The step loop over the time-major, scan-order input ``xs``;
        ``before_step()`` and ``after_step()``, when given, run around each
        step."""
        z, h, c, hidden = self.z, self.h, self.c, self.h.shape[2]
        for s in range(len(h)):
            if before_step is not None:
                before_step()
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
            if after_step is not None:
                after_step()
        # what only the step loop reads need not live on the tape until bptt
        self.wi_t = self.wr_t = self.b_scaled = self.rec = self.ig = None
        if not self.taped:  # nor need the gates and cells of an untaped run
            self.z = self.c = None

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

    def bptt(self, gs, xs_flat, want, bufs, split=False):
        """The gradients of ``grad_buffers(want)`` for the time-major,
        scan-order upstream gradient ``gs``. ``bufs`` is a list of every buffer
        (``loop_buffers`` then ``grad_buffers``), which this empties, or None
        to allocate each as it is needed; dc_dh is freed once the step loop
        has used it. With ``split``, the worker computes the w_in and bias
        gradients while this thread computes the others; never set it in a
        job of the worker's own."""
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

        def input_side(_):
            if d_w_in is not None:
                np.matmul(flat.T, xs_flat, out=d_w_in)
            if d_bias is not None:
                flat.sum(axis=0, out=d_bias)

        def recurrent_side(_):
            if d_w_rec is not None:
                np.matmul(flat[batch:].T, h[:-1].reshape(-1, hidden), out=d_w_rec)
            if d_seq is not None:
                np.matmul(flat, self.wi, out=d_seq)

        # these products feed only gradients, not each other: the same GEMMs
        # on either thread, so the same bits
        _run_jobs([(lambda: None, recurrent_side), (lambda: None, input_side)], split)
        return grads


def _run_jobs(jobs, threaded):
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


def _wavefront(lower, upper, xs):
    """``lower.forward(xs)`` on this thread and ``upper.forward(lower.h)`` on
    the worker, which runs step s once ``lower`` has written h[s]. If
    ``lower`` fails, ``upper`` stops before its next step; the exception is
    raised as by ``_run_jobs``."""
    written, failed = threading.Semaphore(0), []

    def run_lower(_):
        try:
            lower.forward(xs, after_step=written.release)
        except BaseException:
            failed.append(True)
            written.release(len(lower.h))
            raise

    def step_ready():
        written.acquire()
        if failed:
            raise futures.CancelledError("the layer below failed")

    _run_jobs([(lambda: None, run_lower),
               (lambda: None, lambda _: upper.forward(lower.h, before_step=step_ready))],
              threaded=True)


def lstm_scan(tp, p, layers, seq, reverse_time=False, stacked=False):
    """Run the LSTM layers named in ``layers`` over one (B, L, input)
    sequence as one taped op. Side by side (the default), every layer reads
    ``seq`` and there is one (B, L, hidden) node per layer; ``stacked``, the
    first layer reads ``seq``, each later one the hidden states of the one
    before, and the result is the top layer's node alone, in a tuple. Outputs
    are aligned to the original time order regardless of the scan direction.

    All buffers are time-major in scan order, so each step reads and writes
    one contiguous block. The sigmoid gate rows of the weights are pre-scaled
    by 0.5, so one tanh per step evaluates all four gates (sigmoid(z) =
    0.5 * tanh(z / 2) + 0.5, exact in binary floating point). The input is
    projected into the gate buffer one step at a time. Recording keeps every
    step's gate activations and cell states for the hand-written backward
    pass through time; an untaped run keeps only the hidden states, one step
    of gates and two cell rows.

    With the worker (module docstring), side by side layers of at least
    ``PARALLEL_STEP_WORK`` per step run their forward step loops and BPTTs on
    both threads, two stacked layers their forward step loops as a
    wavefront; any other BPTT of that size splits its weight-gradient
    products across both threads. The bits are those of running the layers
    one after the other. The op's parents are each layer's w_in, w_rec and
    bias, last layer first, and the sequence: side by side after every
    layer's weights, stacked once at the end. So the gradient sums match one
    op per layer recorded in the order named.
    """
    x = T.value_of(seq)
    weights = [[T.value_of(p[f"{name}.{w}"]) for w in ("w_in", "w_rec", "bias")]
               for name in layers]
    shape = x.shape
    for wi, wr, _ in weights:
        if len(shape) != 3 or shape[2] != wi.shape[1]:
            raise DimensionError(
                f"LSTM input has shape {shape}, expected (B, L, {wi.shape[1]})")
        if stacked:
            shape = (*shape[:2], wr.shape[1])
    batch, length, _ = x.shape

    xs = x.transpose(1, 0, 2)
    if reverse_time:
        xs = xs[::-1]
    threaded = ((len(weights) == 2 if stacked else len(weights) > 1)
                and _worth_the_worker(batch, *weights))
    if stacked and not threaded:
        # each layer allocated once the one below has run, as one op per
        # layer would
        scans = []
        for w in weights:
            scans.append(_Layer(*w, batch, length, tp is not None))
            scans[-1].forward(scans[-2].h if len(scans) > 1 else xs)
    else:
        scans = [_Layer(*w, batch, length, tp is not None) for w in weights]
        if stacked:
            _wavefront(*scans, xs)
        else:
            _run_jobs([(lambda: None, lambda _, s=s: s.forward(xs)) for s in scans],
                      threaded)
    # the time-major, scan-order input of each layer
    inputs = [xs, *(s.h for s in scans[:-1])] if stacked else [xs] * len(scans)

    def time_order(d):
        """A time-major, scan-order (L*B, n) gradient as (B, L, n) in time order."""
        d = d.reshape(length, batch, -1)
        return (d[::-1] if reverse_time else d).transpose(1, 0, 2)

    def scan_order(g):
        g = g.transpose(1, 0, 2)
        return g[::-1] if reverse_time else g

    weight_parents = [[p[f"{name}.{w}"] for w in ("w_in", "w_rec", "bias")]
                      for name in layers]
    wanted = [[isinstance(w, T.Node) for w in ws] for ws in weight_parents]

    def flat_input(k):
        return np.ascontiguousarray(inputs[k]).reshape(length * batch, -1)

    if stacked:
        top = scans[-1].h
        values = ((top[::-1] if reverse_time else top).transpose(1, 0, 2),)
        parents = (*(w for ws in reversed(weight_parents) for w in ws), seq)
        # whether layer k's input needs a gradient: the sequence, or the
        # weights of a layer below k
        below = [isinstance(seq, T.Node)]
        for want in wanted[:-1]:
            below.append(below[-1] or any(want))

        def vjp(g):
            """Each layer's (dW_in, dW_rec, dbias), last layer first, then
            dseq; None for a constant parent. Each layer's BPTT reads the
            whole dseq of the layer above, as one op per layer would."""
            grads = []
            gs = scan_order(g)
            for k in reversed(range(len(scans))):
                want = [*wanted[k], below[k]]
                if not any(want):
                    grads += [None] * 3
                    continue
                s = scans[k]
                *d_w, gs = s.bptt(gs, flat_input(k) if want[0] else None, want, None,
                                  split=_worth_the_worker(batch, weights[k]))
                grads += d_w
                if gs is not None:
                    gs = gs.reshape(length, batch, -1)
            return (*grads, None if gs is None else time_order(gs))

        return T.emit(tp, values, parents, vjp)

    values = tuple((s.h[::-1] if reverse_time else s.h).transpose(1, 0, 2) for s in scans)
    parents = tuple(x for ws in reversed(weight_parents) for x in (*ws, seq))

    def vjp(*adjoints):
        """Each layer's (dW_in, dW_rec, dbias, dseq), last layer first; None
        for a constant parent and for a layer whose output got no adjoint."""
        want_seq = isinstance(seq, T.Node)
        todo = [(k, g, [*wanted[k], want_seq])
                for k, g in enumerate(adjoints) if g is not None]
        pair = threaded and len(todo) > 1
        xs_flat = flat_input(0) if any(want[0] for _, _, want in todo) else None

        def job(k, g, want):
            s, split = scans[k], not pair and _worth_the_worker(batch, weights[k])
            return (lambda: s.loop_buffers() + s.grad_buffers(want),
                    lambda bufs: s.bptt(scan_order(g), xs_flat, want, bufs, split=split))

        done = iter(_run_jobs([job(*t) for t in todo], pair))
        grads = []
        for g in adjoints:
            if g is None:
                grads.append([None] * 4)
                continue
            *d_w, d_seq = next(done)
            grads.append([*d_w, None if d_seq is None else time_order(d_seq)])
        return tuple(d for layer in reversed(grads) for d in layer)

    return T.emit(tp, values, parents, vjp)
