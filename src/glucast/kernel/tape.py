"""Reverse-mode differentiation over dense float64 numpy arrays.

A ``Tape`` records every primitive operation in execution order; replaying
it backwards accumulates vector-Jacobian products into the participating
``Node`` objects. Gradients accumulate additively at fan-out, and the replay
order is the exact reverse of the recording order, so two identical forward
passes produce bit-identical gradients.

All operations accept either ``Node`` operands or plain array-likes. Plain
arrays are treated as constants: they take part in the value computation but
receive no gradient. Passing ``tape=None`` skips recording entirely, which
turns the same code path into a pure (non-differentiable) evaluation.

Values are immutable once emitted and the ops are pure, so evaluation is
safe from multiple threads; a single Tape, however, belongs to one logical
training thread.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionError

__all__ = [
    "Node",
    "Tape",
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
]


class Node:
    """A value in the computation graph with room for its adjoint."""

    __slots__ = ("value", "grad")

    def __init__(self, value):
        self.value = value
        self.grad = None


class Tape:
    """Ordered record of primitive operations for reverse-mode replay."""

    def __init__(self):
        self._ops = []

    def __len__(self):
        return len(self._ops)

    def record(self, out, pulls):
        # pulls: list of (parent Node, vjp); vjp maps out's adjoint to the
        # parent's share of it
        self._ops.append((out, pulls))

    def backward(self, root, seed=None):
        """Accumulate d(root)/d(node) into every node reachable from root.

        The adjoints of recorded op outputs are reset first, so a graph can be
        replayed; leaf nodes accumulate across passes. An op output's adjoint
        is dropped once the op's pulls have run, so after the pass only the
        leaves hold gradients.
        """
        for out, _ in self._ops:
            out.grad = None
        if seed is None:
            seed = np.ones_like(root.value)
        root.grad = np.array(seed, dtype=np.float64)
        for out, pulls in reversed(self._ops):
            g, out.grad = out.grad, None
            if g is None:
                continue
            for parent, vjp in pulls:
                contrib = vjp(g)
                parent.grad = contrib if parent.grad is None else parent.grad + contrib


def check_finite(x, name):
    """Validate an external array: float64-coercible and fully finite."""
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains NaN or Inf entries")
    return arr


def _val(x):
    return x.value if isinstance(x, Node) else np.asarray(x, dtype=np.float64)


def _emit(tape, value, pulls):
    out = Node(value)
    if tape is not None and pulls:
        tape.record(out, pulls)
    return out


def _pulls(*pairs):
    # keep pull entries only for differentiable (Node) operands
    return [(x, fn) for x, fn in pairs if isinstance(x, Node)]


def _emit_shared(tape, value, inputs, vjps):
    """Emit one op over several inputs whose VJPs come from a single call
    ``vjps(g)`` returning one gradient per input (None for a constant input).
    The first pull of a backward pass makes the call; each pull then takes
    its own result out, so none outlives the pull that hands it on."""
    wanted = [k for k, x in enumerate(inputs) if isinstance(x, Node)]
    pending = {}

    def pull_at(k):
        def pull(g):
            if k not in pending:
                results = vjps(g)
                pending.update((j, results[j]) for j in wanted)
            return pending.pop(k)
        return pull

    return _emit(tape, value, _pulls(*((x, pull_at(k)) for k, x in enumerate(inputs))))


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
    av, bv = _val(a), _val(b)
    return _emit(tape, av + bv, _pulls(
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(g, bv.shape)),
    ))


def sub(a, b, tape=None):
    av, bv = _val(a), _val(b)
    return _emit(tape, av - bv, _pulls(
        (a, lambda g: _unbroadcast(g, av.shape)),
        (b, lambda g: _unbroadcast(-g, bv.shape)),
    ))


def mul(a, b, tape=None):
    av, bv = _val(a), _val(b)
    return _emit(tape, av * bv, _pulls(
        (a, lambda g: _unbroadcast(g * bv, av.shape)),
        (b, lambda g: _unbroadcast(g * av, bv.shape)),
    ))


def neg(a, tape=None):
    return _emit(tape, -_val(a), _pulls((a, lambda g: -g)))


def scale(a, k, tape=None):
    k = float(k)
    return _emit(tape, _val(a) * k, _pulls((a, lambda g: g * k)))


def matmul(a, b, tape=None):
    """Matrix/vector product for 1-D and 2-D operands."""
    av, bv = _val(a), _val(b)
    if av.ndim not in (1, 2) or bv.ndim not in (1, 2):
        raise DimensionError(
            f"matmul supports 1-D/2-D operands, got {av.shape} @ {bv.shape}")
    inner_a = av.shape[-1]
    inner_b = bv.shape[0]
    if inner_a != inner_b:
        raise DimensionError(f"matmul shape mismatch: {av.shape} @ {bv.shape}")
    value = av @ bv

    if av.ndim == 2 and bv.ndim == 2:
        da = lambda g: g @ bv.T
        db = lambda g: av.T @ g
    elif av.ndim == 2 and bv.ndim == 1:
        da = lambda g: np.outer(g, bv)
        db = lambda g: av.T @ g
    elif av.ndim == 1 and bv.ndim == 2:
        da = lambda g: bv @ g
        db = lambda g: np.outer(av, g)
    else:
        da = lambda g: g * bv
        db = lambda g: g * av
    return _emit(tape, value, _pulls((a, da), (b, db)))


def transpose(a, tape=None):
    av = _val(a)
    if av.ndim != 2:
        raise DimensionError(f"transpose expects a 2-D array, got shape {av.shape}")
    return _emit(tape, av.T, _pulls((a, lambda g: g.T)))


def reshape(a, shape, tape=None):
    av = _val(a)
    old = av.shape
    return _emit(tape, av.reshape(shape), _pulls((a, lambda g: g.reshape(old))))


def tanh(a, tape=None):
    y = np.tanh(_val(a))
    return _emit(tape, y, _pulls((a, lambda g: g * (1.0 - y * y))))


def log(a, tape=None):
    av = _val(a)
    return _emit(tape, np.log(av), _pulls((a, lambda g: g / av)))


def clip_min(a, lo, tape=None):
    """Elementwise max(a, lo); gradient is blocked where the floor binds."""
    av = _val(a)
    mask = av > lo
    return _emit(tape, np.maximum(av, lo), _pulls((a, lambda g: g * mask)))


def softmax(a, tape=None):
    """Stable softmax along the last axis.

    Outputs are floored at the smallest positive double: a score gap beyond
    ~745 underflows exp to exactly 0.0, and downstream code relies on the
    weights staying positive. The floor is invisible to the sums.
    """
    av = _val(a)
    if av.shape[-1] == 0:
        raise ValueError("softmax of an empty vector")
    if not np.all(np.isfinite(av)):
        raise ValueError("softmax input contains NaN or Inf entries")
    shifted = av - av.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = np.maximum(e / e.sum(axis=-1, keepdims=True), 5e-324)

    def pull(g):
        return y * (g - (g * y).sum(axis=-1, keepdims=True))

    return _emit(tape, y, _pulls((a, pull)))


def sum_all(a, tape=None):
    av = _val(a)
    return _emit(tape, np.asarray(av.sum()), _pulls(
        (a, lambda g: np.broadcast_to(g, av.shape).copy() if av.shape else g)))


def sum_axis(a, axis, tape=None):
    av = _val(a)
    return _emit(tape, av.sum(axis=axis), _pulls(
        (a, lambda g: np.broadcast_to(np.expand_dims(g, axis), av.shape).copy())))


def mean_all(a, tape=None):
    av = _val(a)
    n = av.size
    return scale(sum_all(a, tape), 1.0 / n, tape)


def gather_rows(a, idx, tape=None):
    """Pick a[i, idx[i]] for each row of a 2-D array."""
    av = _val(a)
    idx = np.asarray(idx, dtype=np.intp)
    rows = np.arange(av.shape[0])

    def pull(g):
        out = np.zeros_like(av)
        out[rows, idx] = g
        return out

    return _emit(tape, av[rows, idx], _pulls((a, pull)))


def grad_reverse(a, tape=None):
    """Identity in the forward pass; multiplies the gradient by -1."""
    return _emit(tape, _val(a), _pulls((a, lambda g: -g)))
