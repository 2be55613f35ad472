"""Dense numeric primitives with reverse-mode gradient support."""

from .lstm import glorot, init_lstm_params, lstm_scan
from .tape import (
    Node,
    Tape,
    add,
    check_finite,
    clip_min,
    gather_rows,
    grad_reverse,
    log,
    matmul,
    mean_all,
    mul,
    neg,
    reshape,
    scale,
    softmax,
    sub,
    sum_all,
    sum_axis,
    tanh,
    transpose,
)

__all__ = [
    "Node", "Tape", "check_finite",
    "add", "sub", "mul", "neg", "scale", "matmul", "transpose", "reshape",
    "tanh", "log", "clip_min", "softmax", "sum_all", "sum_axis",
    "mean_all", "gather_rows", "grad_reverse",
    "glorot", "init_lstm_params", "lstm_scan",
]
