"""Reverse-mode differentiation over dense float64 numpy arrays.

A ``Tape`` records every primitive operation in execution order; its
backward pass runs them in the exact reverse of that order, accumulating
vector-Jacobian products into the participating ``Node`` objects.
Gradients accumulate additively at fan-out, so two identical forward
passes produce bit-identical gradients. The pass consumes the tape: each op
is dropped as soon as its vjp has run, and with it the forward arrays that
only its vjp read, so a tape is run backwards once.

All operations accept either ``Node`` operands or plain array-likes. Plain
arrays are treated as constants: they take part in the value computation but
receive no gradient. Passing ``tape=None`` skips recording entirely, which
turns the same code path into a pure (non-differentiable) evaluation.

Every op is recorded in one form, ``(outs, parents, vjp)``: its output
nodes (one, or several for a fused op such as ``lstm_scan``), its operands,
and one function from the outputs' adjoints to one gradient per operand.
New ops record through ``emit``.

Values are immutable once emitted and the ops are pure, so evaluation is
safe from multiple threads. Ops are recorded, and a Tape is run backwards,
only from the calling thread: an op that hands part of its work to another
thread waits for it before it records or returns.

A weight gradient sums over the rows of a batch; it is computed by
``weight_grad`` as a sum of fixed row blocks, so its bits do not depend on
how many threads BLAS runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError

__all__ = [
    "Node",
    "Tape",
    "value_of",
    "emit",
    "check_finite",
    "add",
    "sub",
    "mul",
    "neg",
    "scale",
    "matmul",
    "transpose",
    "reshape",
    "tanh",
    "log",
    "clip_min",
    "softmax",
    "sum_all",
    "sum_axis",
    "mean_all",
    "gather_rows",
    "grad_reverse",
    "GRAD_BLOCK_ROWS",
    "block_products",
    "stack_size",
    "weight_grad",
]

# A weight gradient a.T @ b sums over the rows of a batch (B*L = 1850 in a
# BPTT at batch 50). OpenBLAS splits a long summed axis across its threads,
# so a whole product's last bits depend on the thread count. Products over
# blocks of 50, 100 or 200 rows gave the same bits at 1 and 2 threads on
# every shape tried; blocks of 400 did not.
GRAD_BLOCK_ROWS = 100
# block_products multiplies as many full blocks at once, in one batched
# matmul, as this many bytes of products hold (at least one): all of a 16/24
# BPTT's blocks in one call, one block of a 256-unit layer (2 MiB) at a time.
GRAD_STACK_BYTES = 2 ** 20


def block_products(a, b, out, stack):
    """A generator that writes ``a.T @ b`` into ``out`` for (N, m) ``a`` and
    (N, n) ``b``: the products of the row blocks 0-99, 100-199, ... (the last
    one short) added from the last block to the first, the order in which a
    BPTT finalizes its rows. ``stack`` is a flat buffer (see ``stack_size``):
    as many full blocks as its room holds are multiplied by one batched
    matmul, which gives the bits of one call per block. Before each product
    it yields the first row that product reads, so a caller may wait until
    the rows from there on are final."""
    rows, m, n = len(a), a.shape[1], b.shape[1]
    full, short = divmod(rows, GRAD_BLOCK_ROWS)
    top = full * GRAD_BLOCK_ROWS
    if short:
        yield top
        np.matmul(a[top:].T, b[top:], out=out)
    elif not full:
        out[...] = 0.0
    started = bool(short)
    while full:
        k = min(len(stack) // (m * n), full)
        lo = top - k * GRAD_BLOCK_ROWS
        yield lo
        prods = np.matmul(a[lo:top].reshape(k, GRAD_BLOCK_ROWS, m).transpose(0, 2, 1),
                          b[lo:top].reshape(k, GRAD_BLOCK_ROWS, n),
                          out=stack[:k * m * n].reshape(k, m, n))
        for prod in prods[::-1]:
            if started:
                out += prod
            else:
                out[...] = prod
                started = True
        full, top = full - k, lo


def stack_size(rows, m, n):
    """The room, in float64s, of a ``block_products`` stack over ``rows``
    rows of (N, m) and (N, n) operands: as many full blocks' products as
    GRAD_STACK_BYTES holds (at least one), and no more than there are."""
    per_call = max(1, GRAD_STACK_BYTES // (8 * m * n))
    return min(per_call, rows // GRAD_BLOCK_ROWS) * m * n


def weight_grad(a, b):
    """``a.T @ b`` for (N, m) ``a`` and (N, n) or (N,) ``b``, summed over the
    N rows as ``block_products`` does."""
    b2 = b[:, None] if b.ndim == 1 else b
    out = np.empty((a.shape[1], b2.shape[1]))
    for _ in block_products(a, b2, out, np.empty(stack_size(len(a), *out.shape))):
        pass
    return out.reshape(a.shape[1:] + b.shape[1:])


class Node:
    """A value in the computation graph with room for its adjoint."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


class Tape:
    """Ordered record of primitive operations for one backward pass."""

    def __init__(self):
        self._ops = []

    def __len__(self):
        return len(self._ops)

    def record(self, outs, parents, vjp):
        """Record one op: its output nodes, its operands (nodes or constants)
        and ``vjp(*adjoints)``, which maps one adjoint per output (None for an
        output that got none) to one gradient per parent (None for a
        constant, or for no contribution)."""
        self._ops.append((outs, parents, vjp))

    def backward(self, root):
        """Accumulate d(root)/d(node) into every node reachable from root.

        The pass consumes the tape: it pops each op, last first, and drops it
        once its vjp has run, with the arrays that vjp kept; an op output's
        adjoint is dropped then too, so after the pass the tape is empty and
        only the leaves hold gradients. Leaves accumulate across tapes. A
        node's gradients are summed in reverse recording order across ops and
        in parent order within one.
        """
        root.grad = np.ones_like(root.value, dtype=np.float64)
        while self._ops:
            outs, parents, vjp = self._ops.pop()
            adjoints = [out.grad for out in outs]
            if all(g is None for g in adjoints):
                continue
            for out in outs:
                out.grad = None
            for parent, contrib in zip(parents, vjp(*adjoints)):
                if contrib is not None:
                    parent.grad = contrib if parent.grad is None else parent.grad + contrib


def check_finite(x, name):
    """Validate an external array: float64-coercible and fully finite."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def value_of(x):
    """The array of a node, or a constant as a float64 array."""
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def emit(tape, value, parents, vjp):
    """The node of an op's value, or a tuple of nodes for a tuple of values,
    recorded on ``tape`` (see ``Tape.record``) when a parent is a node."""
    many = isinstance(value, tuple)
    outs = tuple(map(Node, value)) if many else (Node(value),)
    if tape is not None and any(isinstance(x, Node) for x in parents):
        tape.record(outs, parents, vjp)
    return outs if many else outs[0]


def _pair(a, b, da, db):
    """The vjp of a two-operand op from one pull per operand; a constant
    operand's pull is never called."""
    if not isinstance(a, Node):
        return lambda g: (None, db(g))
    if not isinstance(b, Node):
        return lambda g: (da(g), None)
    return lambda g: (da(g), db(g))


def _unbroadcast(g, shape):
    """Reduce an upstream gradient back to the shape of a broadcast operand."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b, tape=None):
    av, bv = value_of(a), value_of(b)
    return emit(tape, av + bv, (a, b), _pair(
        a, b, lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(g, bv.shape)))


def sub(a, b, tape=None):
    av, bv = value_of(a), value_of(b)
    return emit(tape, av - bv, (a, b), _pair(
        a, b, lambda g: _unbroadcast(g, av.shape), lambda g: _unbroadcast(-g, bv.shape)))


def mul(a, b, tape=None):
    av, bv = value_of(a), value_of(b)
    return emit(tape, av * bv, (a, b), _pair(
        a, b, lambda g: _unbroadcast(g * bv, av.shape),
        lambda g: _unbroadcast(g * av, bv.shape)))


def neg(a, tape=None):
    return emit(tape, -value_of(a), (a,), lambda g: (-g,))


def scale(a, k, tape=None):
    k = float(k)
    return emit(tape, value_of(a) * k, (a,), lambda g: (g * k,))


def matmul(a, b, tape=None):
    """Matrix/vector product for 1-D and 2-D operands."""
    av, bv = value_of(a), value_of(b)
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise DimensionError(
            f"matmul supports 1-D/2-D operands, got {av.shape} @ {bv.shape}")
    inner_a = av.shape[-1]
    inner_b = bv.shape[0]
    if inner_a != inner_b:
        raise DimensionError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")

    if av.ndim == 2 and bv.ndim == 2:
        da = lambda g: g @ bv.T
        db = lambda g: weight_grad(av, g)
    elif av.ndim == 2 and bv.ndim == 1:
        da = lambda g: np.outer(g, bv)
        db = lambda g: weight_grad(av, g)
    elif av.ndim == 1 and bv.ndim == 2:
        da = lambda g: bv @ g
        db = lambda g: np.outer(av, g)
    else:
        da = lambda g: g * bv
        db = lambda g: g * av
    return emit(tape, av @ bv, (a, b), _pair(a, b, da, db))


def transpose(a, tape=None):
    av = value_of(a)
    if av.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D array, got shape {av.shape}")
    return emit(tape, av.T, (a,), lambda g: (g.T,))


def reshape(a, shape, tape=None):
    av = value_of(a)
    old = av.shape
    return emit(tape, av.reshape(shape), (a,), lambda g: (g.reshape(old),))


def tanh(a, tape=None):
    y = np.tanh(value_of(a))
    return emit(tape, y, (a,), lambda g: (g * (1.0 - y * y),))


def log(a, tape=None):
    av = value_of(a)
    return emit(tape, np.log(av), (a,), lambda g: (g / av,))


def clip_min(a, lo, tape=None):
    """Elementwise max(a, lo); gradient is blocked where the floor binds."""
    av = value_of(a)
    mask = av > lo
    return emit(tape, np.maximum(av, lo), (a,), lambda g: (g * mask,))


def softmax(a, tape=None):
    """Stable softmax along the last axis.

    Outputs are floored at the smallest positive double: a score gap beyond
    ~745 underflows exp to exactly 0.0, and downstream code relies on the
    weights staying positive. The floor is invisible to the sums.
    """
    av = value_of(a)
    if av.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(av)):
        # the scores of a model whose training diverged, not a caller's error
        raise FloatingPointError("softmax input contains NaN or Inf entries")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = np.maximum(e / e.sum(axis=-1, keepdims=True), 5e-324)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return emit(tape, y, (a,), vjp)


def sum_all(a, tape=None):
    av = value_of(a)
    return emit(tape, np.asarray(av.sum()), (a,), lambda g: (
        np.broadcast_to(g, av.shape).copy() if av.shape else g,))


def sum_axis(a, axis, tape=None):
    av = value_of(a)
    return emit(tape, av.sum(axis=axis), (a,), lambda g: (
        np.broadcast_to(np.expand_dims(g, axis), av.shape).copy(),))


def mean_all(a, tape=None):
    av = value_of(a)
    n = av.size
    return scale(sum_all(a, tape), 1.0 / n, tape)


def gather_rows(a, idx, tape=None):
    """Pick a[i, idx[i]] for each row of a 2-D array."""
    av = value_of(a)
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(av.shape[0])

    def vjp(g):
        out = np.zeros_like(av)
        out[rows, idx] = g
        return (out,)

    return emit(tape, av[rows, idx], (a,), vjp)


def grad_reverse(a, tape=None):
    """Identity in the forward pass; multiplies the gradient by -1."""
    return emit(tape, value_of(a), (a,), lambda g: (-g,))
