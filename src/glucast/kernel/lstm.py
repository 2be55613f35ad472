"""Plain LSTM layers as one fused tape operation.

Layers that read the same sequence (retain's alpha and beta) are one op
with one output per layer. Stacked layers (``stacked=True``: the stacked
regressor's layer1 and layer2) are one op as well: each layer reads the
hidden states of the layer below, and only the top layer's output is a node.

Either way the op's parents are every layer's w_in, w_rec and bias, last
layer first, then the sequence once per layer that reads it, last first, so
the gradient sums match one op per layer recorded in the order named. One
backward function serves both: it runs the layers' BPTTs last first, each on
its upstream gradient, which is the layer's own output adjoint side by side
and the input gradient of the layer above when stacked.

A persistent worker thread shares the work of a scan of exactly two layers
whose steps each take at least ``PARALLEL_STEP_WORK`` multiply-adds, and only
when BLAS leaves a core free (``USE_WORKER``):

* side by side, it runs the second layer's forward step loop and BPTT while
  the calling thread runs the first's;
* stacked, it runs layer 2's forward step s as soon as the calling thread's
  layer 1 has written h1[s] (a wavefront); the two BPTTs run in turn;
* in a BPTT that runs on the calling thread alone (of any layer of at least
  that size), it computes the weight gradients (w_in, w_rec and bias) block
  by block, each block as soon as the step loop has finalized its rows,
  while the calling thread runs the step loop and the sequence gradient.

Every weight gradient is a sum of fixed row blocks (``tape.block_products``)
whichever thread computes it, and the sequence gradient is one product per
fixed row block, so the bits depend neither on the worker nor on the BLAS
thread count.

Serially, each layer is allocated just before it runs, first to last. The
worker only writes into buffers the calling thread allocated, and the op is
recorded on the tape from the calling thread only, after both have
finished; the bits are those of running everything on one thread. Gate
layout is fixed: the stacked weight rows hold the input, forget,
cell-candidate and output gates, in that order. Initial hidden and cell
states are zero vectors. A layer's parameters are three entries of its
model's flat name -> array dict: ``<layer>.w_in`` (4*hidden, input),
``<layer>.w_rec`` (4*hidden, hidden) and ``<layer>.bias`` (4*hidden,).
"""

from __future__ import annotations

import os
import threading
from concurrent import futures

import numpy as np

from ..errors import DimensionError
from . import tape as T

# Above this many multiply-adds per step in every layer of a scan, batch *
# 4*hidden * (hidden + input), lstm_scan hands work to the worker thread. Two
# layers, graph plus backward, on 2 cores at one BLAS thread: below 1.5e6 the
# thread won nothing (0.8-1.2x), from 1.6e6 it won 1.3-1.9x (64/128 at batch
# 50, 4.9e6: 1.45-1.6x). 2.5e6 leaves a margin and keeps every batch of the
# 16/24 acceptance size, up to PREDICT_CHUNK's 512 windows (2.0e6), on one
# thread.
# A BPTT on the calling thread alone streams its weight-gradient blocks at the
# same threshold: streaming the single-attention baseline's 128-unit BPTT
# (3.35e6) too, beside the 256-unit ones, raised perfbench train-prod from
# 774.8 to 818.7 samples/s (better in 9 of 10 alternating pairs, equal CPU
# per iteration); an earlier 10 pairs read 784.1 against 782.7 (6 of 10).
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
    the calling thread; ``forward``, ``bptt`` and ``weight_grads`` only
    write into them, so they may run on the worker thread."""

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
        bias, seq), None where not wanted, then the ``block_products`` stack
        that the w_in and w_rec gradients use in turn."""
        length, batch, h4 = self.z.shape
        rows, n_in, hidden = length * batch, self.wi.shape[1], self.wr.shape[1]
        shapes = (self.wi.shape, self.wr.shape, (h4,), (rows, n_in))
        room = max(T.stack_size(n, h4, m) if w else 0
                   for n, m, w in ((rows, n_in, want[0]), (rows - batch, hidden, want[1])))
        return [np.empty(shape) if w else None for shape, w in zip(shapes, want)] + \
            [np.empty(room)]

    def bptt(self, gs, xs_flat, want, bufs, stream=False):
        """The gradients of ``grad_buffers(want)`` for the time-major,
        scan-order upstream gradient ``gs``. ``bufs`` is a list of every buffer
        (``loop_buffers`` then ``grad_buffers``), which this empties, or None
        to allocate each as it is needed. With ``stream``, the worker runs
        ``weight_grads`` one step behind the step loop, into buffers
        allocated before it; never set it in a job of the worker's own.
        dc_dh is freed once the step loop has used it (without ``stream``,
        before the gradients are allocated)."""
        z, c = self.z, self.c
        length, batch, h4 = z.shape
        hidden = h4 // 4
        gates = z.reshape(length, batch, 4, hidden)
        i, f, g, o = (gates[:, :, k] for k in range(4))
        # dz = [dc * d_i, dc * d_f, dc * d_g, dh * d_o], where dc and dh are the
        # step's cell and hidden adjoints; fill the d_* factors for all steps
        # in the one gate-sized buffer, and dc_dh in a cell-sized one
        if bufs is None:
            bufs = self.loop_buffers() + (self.grad_buffers(want) if stream else [])
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

        def step_loop(after_step=None):
            nonlocal dh, dc, dc_dh
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
                if after_step is not None:
                    after_step()
            dc_dh = None  # not alive through the products after the loop

        def seq_grad():
            # one batched call over fixed 100-row blocks, then the short one;
            # a row's bits may depend on the rows multiplied with it (at 3
            # inputs, 100-row blocks differ from one whole product), not on
            # the BLAS thread count. For a 256-unit layer at batch 50 this
            # took 18.3 ms at one thread and 11.5 at two, against 20.2 and
            # 12.7 for one whole product, which also kept 5.3 MiB more of
            # OpenBLAS's buffer resident, and 22.3 and 17.6 for one per step
            if grads[3] is not None:
                rows, n_in = grads[3].shape
                full = rows - rows % T.GRAD_BLOCK_ROWS
                if full:
                    np.matmul(flat[:full].reshape(-1, T.GRAD_BLOCK_ROWS, h4), self.wi,
                              out=grads[3][:full].reshape(-1, T.GRAD_BLOCK_ROWS, n_in))
                if full < rows:
                    np.matmul(flat[full:], self.wi, out=grads[3][full:])

        flat = dz.reshape(length * batch, h4)
        if stream:
            _wavefront(lambda done: (step_loop(done), seq_grad()),
                       lambda ready: self.weight_grads(flat, xs_flat, grads, ready), length)
        else:
            step_loop()
            grads = grads or self.grad_buffers(want)
            seq_grad()
            self.weight_grads(flat, xs_flat, grads)
        return grads[:4]

    def weight_grads(self, flat, xs_flat, grads, ready=None):
        """The w_in, w_rec and bias gradients into ``grads`` (``grad_buffers``)
        from the BPTT's factors ``flat`` ((L*B, 4H), scan order) and the
        layer's input ``xs_flat``. With ``ready``, as the worker's job beside
        the step loop: each ready() returns once the loop has finished one
        more step, the last first, and the products run one block at a time,
        each as soon as its rows are final."""
        length, batch, hidden = self.h.shape
        d_w_in, d_w_rec, d_bias, _, stack = grads
        finished = 0

        def wait_for(row):  # until the rows from flat[row] on are final
            nonlocal finished
            while ready is not None and finished < length - row // batch:
                ready()
                finished += 1

        def job(offset, a, b, out):  # yields the first flat row of each product
            for row in T.block_products(a, b, out,
                                        stack if ready is None else stack[:out.size]):
                yield offset + row

        waiting = {}  # each job with products to run: the next one's first row

        def advance(products):  # run the next product
            row = next(products, None)
            if row is not None:
                waiting[products] = row

        for offset, a, b, out in ((0, flat, xs_flat, d_w_in),
                                  (batch, flat[batch:], self.h[:-1].reshape(-1, hidden),
                                   d_w_rec)):
            if out is not None:
                advance(job(offset, a, b, out))
        while waiting:
            products = max(waiting, key=waiting.get)  # the one final first
            wait_for(waiting.pop(products))
            advance(products)
        if d_bias is not None:
            wait_for(0)
            flat.sum(axis=0, out=d_bias)


def _both(first, second):
    """``(first(), second())``, with ``second`` run on the worker while this
    thread runs ``first``. It returns, or raises first's exception (else
    second's), only after both have ended."""
    rest = _WORKER.submit(second)
    try:
        result = first()
    finally:
        futures.wait((rest,))
    return result, rest.result()


def _wavefront(lead, follow, length):
    """``_both`` of a step loop on this thread and a worker job that follows
    it: ``lead(done)`` calls ``done()`` after each of its ``length`` steps,
    and ``follow(ready)`` calls ``ready()`` before it reads a further step,
    which waits for that step. If ``lead`` fails, ``ready()`` raises, so
    ``follow`` stops there."""
    finished, failed = threading.Semaphore(0), []

    def run_lead():
        try:
            lead(finished.release)
        except BaseException:
            failed.append(True)
            finished.release(length)
            raise

    def ready():
        finished.acquire()
        if failed:
            raise futures.CancelledError("the calling thread's step loop failed")

    return _both(run_lead, lambda: follow(ready))


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

    The parents, the backward order and the use of the worker (two layers
    of at least ``PARALLEL_STEP_WORK`` per step) are as in the module
    docstring. The bits are those of running the layers one after the other.
    """
    x = T.value_of(seq)
    weight_parents = [[p[f"{name}.{w}"] for w in ("w_in", "w_rec", "bias")]
                      for name in layers]
    weights = [[T.value_of(w) for w in ws] for ws in weight_parents]
    shape = x.shape
    for wi, wr, _ in weights:
        if len(shape) != 3 or shape[2] != wi.shape[1]:
            raise DimensionError(
                f"LSTM input has shape {shape}, expected (B, L, {wi.shape[1]})")
        if stacked:
            shape = (*shape[:2], wr.shape[1])
    batch, length, _ = x.shape
    n = len(weights)
    reads_seq = 1 if stacked else n  # the first reads_seq layers read seq

    xs = x.transpose(1, 0, 2)
    if reverse_time:
        xs = xs[::-1]
    scans = []

    def layer_input(k):
        """Layer k's time-major, scan-order input."""
        return xs if k < reads_seq else scans[k - 1].h

    threaded = n == 2 and _worth_the_worker(batch, *weights)
    if threaded:
        scans += [_Layer(*w, batch, length, tp is not None) for w in weights]
        if stacked:
            # the worker runs layer 2's step s once this thread's layer 1 has
            # written h[s]
            _wavefront(lambda done: scans[0].forward(xs, after_step=done),
                       lambda ready: scans[1].forward(scans[0].h, before_step=ready),
                       length)
        else:
            _both(lambda: scans[0].forward(xs), lambda: scans[1].forward(xs))
    else:
        for k, w in enumerate(weights):
            scans.append(_Layer(*w, batch, length, tp is not None))
            scans[k].forward(layer_input(k))

    def time_order(d):
        """A time-major, scan-order (L*B, n) gradient as (B, L, n) in time order."""
        d = d.reshape(length, batch, -1)
        return (d[::-1] if reverse_time else d).transpose(1, 0, 2)

    def scan_order(g):
        g = g.transpose(1, 0, 2)
        return g[::-1] if reverse_time else g

    outs = tuple((s.h[::-1] if reverse_time else s.h).transpose(1, 0, 2) for s in scans)
    parents = (*(w for ws in reversed(weight_parents) for w in ws), *[seq] * reads_seq)
    # whether each layer's (w_in, w_rec, bias, input) want a gradient; a
    # stacked layer's input does when anything of the layer below does
    wants = [[isinstance(w, T.Node) for w in ws] for ws in weight_parents]
    for k, want in enumerate(wants):
        want.append(isinstance(seq, T.Node) if k < reads_seq else any(wants[k - 1]))

    def vjp(*adjoints):
        """Each layer's (dW_in, dW_rec, dbias), last layer first, then the
        dseq of each layer that reads seq, last first; None for a constant
        parent and for a layer whose output got no adjoint."""
        ups = [*[None] * (n - len(adjoints)),
               *(None if g is None else scan_order(g) for g in adjoints)]
        runs = [any(wants[k]) and (stacked or ups[k] is not None) for k in range(n)]
        xs_flat = (np.ascontiguousarray(xs).reshape(length * batch, -1)
                   if any(runs[k] and wants[k][0] for k in range(reads_seq)) else None)
        grads = [[None] * 4 for _ in range(n)]
        if threaded and not stacked and all(runs):
            # retain's pair: the second layer's BPTT on the worker, into
            # buffers allocated here
            bufs = scans[1].loop_buffers() + scans[1].grad_buffers(wants[1])
            grads = _both(lambda: scans[0].bptt(ups[0], xs_flat, wants[0], None),
                          lambda: scans[1].bptt(ups[1], xs_flat, wants[1], bufs))
        else:
            for k in reversed(range(n)):
                if not runs[k]:
                    continue
                flat_in = (xs_flat if k < reads_seq
                           else scans[k - 1].h.reshape(length * batch, -1))
                grads[k] = scans[k].bptt(ups[k], flat_in, wants[k], None,
                                         stream=_worth_the_worker(batch, weights[k]))
                if k >= reads_seq and wants[k][3]:
                    ups[k - 1] = grads[k][3].reshape(length, batch, -1)
        return (*(d for k in reversed(range(n)) for d in grads[k][:3]),
                *(None if grads[k][3] is None else time_order(grads[k][3])
                  for k in reversed(range(reads_seq))))

    return T.emit(tp, outs[-1:] if stacked else outs, parents, vjp)
