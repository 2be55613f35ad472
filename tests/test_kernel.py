import functools
import sys
import threading
import time
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glucast.errors import DimensionError
from glucast.kernel import Tape, init_lstm_params, lstm_scan
from glucast.kernel import lstm as lstm_module
from glucast.kernel import tape as T
from glucast.models import MODELS, baselines, retain
from glucast.training import backward_with_reversal
from glucast.training.loss import cross_entropy_node, mse_node

from _utils import (finite_diff_params, max_rel_err, oracle_backward, oracle_block_sum,
                    oracle_lstm, oracle_lstm_cell, oracle_lstm_scan)


def check_op(build_node, arrays, rtol=1e-6):
    """build_node(tape, nodes) -> scalar node; compares grads to central diffs."""
    nodes = [T.Node(a) for a in arrays]
    tp = Tape()
    out = build_node(tp, nodes)
    tp.backward(out)

    numeric = finite_diff_params(
        lambda: float(build_node(None, [T.Node(a) for a in arrays]).value),
        dict(enumerate(arrays)), eps=1e-6)
    for k, node in enumerate(nodes):
        got = node.grad if node.grad is not None else np.zeros_like(arrays[k])
        assert max_rel_err(got, numeric[k]) < rtol


# --- matmul ---------------------------------------------------------------

def test_matmul_identity():
    m = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    assert np.array_equal(T.matmul(np.eye(3), m).value, m)


def test_matmul_zeros():
    out = T.matmul(np.zeros((2, 3)), np.arange(6.0).reshape(3, 2)).value
    assert np.array_equal(out, np.zeros((2, 2)))


def test_matmul_hand_expansion():
    out = T.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([[5.0], [6.0]])).value
    assert np.array_equal(out, np.array([[17.0], [39.0]]))


# below one block, an exact multiple of it, a short last block (a BPTT's
# B*L rows at batch 50), and none
@pytest.mark.parametrize("rows", [37, 300, 1850, 0])
@pytest.mark.parametrize("shape", [(96, 16), (1024, 3), (128, None)])
def test_weight_gradients_are_sums_of_fixed_row_blocks(rows, shape):
    rng = np.random.default_rng(rows)
    m, n = shape
    a = rng.normal(size=(rows, m))
    b = rng.normal(size=(rows,) if n is None else (rows, n))
    b2 = b[:, None] if n is None else b
    expect = oracle_block_sum(a, b2)
    got = T.weight_grad(a, b)
    assert got.shape == (a.T @ b).shape
    assert got.tobytes() == expect.reshape(got.shape).tobytes()
    whole = a.T @ b
    assert np.max(np.abs(got - whole), initial=0.0) <= 1e-12 * np.max(np.abs(whole),
                                                                      initial=0.0)
    # one batched matmul per stack of blocks gives the bits of one per block,
    # whatever the stack holds, and each product waits for rows from the
    # last block's to the first's
    full, short = divmod(rows, T.GRAD_BLOCK_ROWS)
    for per_call in (1, 2, max(full, 1)):
        out = np.empty_like(expect)
        stack = np.empty(per_call * m * b2.shape[1])
        waits = list(T.block_products(a, b2, out, stack))
        assert out.tobytes() == expect.tobytes()
        starts = [full * T.GRAD_BLOCK_ROWS] if short else []
        starts += [T.GRAD_BLOCK_ROWS * k for k in range(full - per_call, -per_call, -per_call)]
        assert waits == [max(start, 0) for start in starts]


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(np.zeros((2, 3)), np.zeros((2, 2)))


# --- softmax ---------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(T.softmax(np.zeros(3)).value, np.full(3, 1 / 3), atol=1e-15)


def test_softmax_forced_values():
    out = T.softmax(np.array([np.log(2.0), 0.0])).value
    assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-15)


def test_softmax_length_one():
    assert np.array_equal(T.softmax(np.array([0.3])).value, np.array([1.0]))
    assert np.array_equal(T.softmax(np.array([[-7.0], [2.5]])).value,
                          np.ones((2, 1)))


def test_softmax_empty_vector():
    with pytest.raises(ValueError):
        T.softmax(np.empty(0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_softmax_of_non_finite_scores_is_a_floating_point_error(bad):
    # the scores of a diverged model: training reports it as divergence
    with pytest.raises(FloatingPointError, match="NaN or Inf"):
        T.softmax(np.array([[0.0, 1.0], [bad, 0.0]]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3), min_size=1, max_size=40),
       st.floats(min_value=-1e3, max_value=1e3))
def test_softmax_normalized_and_shift_invariant(values, shift):
    v = np.array(values)
    out = T.softmax(v).value
    assert np.all(out > 0.0)
    assert abs(out.sum() - 1.0) <= 1e-12
    shifted = T.softmax(v + shift).value
    assert np.allclose(out, shifted, atol=1e-12)


# --- primitive gradients vs central differences ----------------------------

RNG = np.random.default_rng(20260810)


def test_grad_add_broadcast():
    a = RNG.normal(size=(4, 3))
    b = RNG.normal(size=(3,))
    check_op(lambda tp, ns: T.sum_all(T.mul(T.add(ns[0], ns[1], tp), ns[0], tp), tp), [a, b])


def test_grad_sub_mul_neg_scale():
    a = RNG.normal(size=(3, 2))
    b = RNG.normal(size=(3, 2))
    check_op(lambda tp, ns: T.sum_all(
        T.scale(T.mul(T.sub(ns[0], ns[1], tp), T.neg(ns[1], tp), tp), 1.7, tp), tp), [a, b])


def test_grad_matmul_all_arities():
    a = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4, 2))
    v = RNG.normal(size=(4,))
    check_op(lambda tp, ns: T.sum_all(T.matmul(ns[0], ns[1], tp), tp), [a, b])
    check_op(lambda tp, ns: T.sum_all(T.matmul(ns[0], ns[1], tp), tp), [a, v])
    check_op(lambda tp, ns: T.sum_all(T.matmul(ns[0], ns[1], tp), tp), [v, b])
    check_op(lambda tp, ns: T.matmul(ns[0], ns[1], tp), [v, v.copy()])


def test_grad_tanh_sigmoid_log_clip():
    a = RNG.normal(size=(5,))
    check_op(lambda tp, ns: T.sum_all(T.tanh(ns[0], tp), tp), [a])
    pos = np.abs(RNG.normal(size=(5,))) + 0.5
    check_op(lambda tp, ns: T.sum_all(T.log(ns[0], tp), tp), [pos])
    away = np.array([0.3, 0.8, 1.5, 2.0])  # keep clear of the clip knee
    check_op(lambda tp, ns: T.sum_all(T.mul(T.clip_min(ns[0], 0.5, tp), ns[0], tp), tp), [away])


def test_grad_softmax_weighted():
    a = RNG.normal(size=(6,))
    w = RNG.normal(size=(6,))
    check_op(lambda tp, ns: T.matmul(T.softmax(ns[0], tp), ns[1], tp), [a, w])


def test_grad_transpose():
    a = RNG.normal(size=(3, 2))
    w = RNG.normal(size=(3, 4))
    check_op(lambda tp, ns: T.sum_all(
        T.tanh(T.matmul(T.transpose(ns[0], tp), ns[1], tp), tp), tp), [a, w])


def test_grad_reshape():
    a = RNG.normal(size=(2, 3))
    w = RNG.normal(size=(3, 2))
    check_op(lambda tp, ns: T.sum_all(T.mul(T.reshape(ns[0], (3, 2), tp), ns[1], tp), tp),
             [a, w])


def test_grad_sum_axis_gather_reverse():
    a = RNG.normal(size=(3, 4))
    idx = np.array([1, 3, 0])

    def build(tp, ns):
        picked = T.gather_rows(T.softmax(ns[0], tp), idx, tp)
        return T.sum_all(picked, tp)

    check_op(build, [a])
    check_op(lambda tp, ns: T.sum_all(T.sum_axis(T.mul(ns[0], ns[0], tp), 0, tp), tp), [a])
    # reversal flips the sign of the pullback exactly
    n1, n2 = T.Node(a.copy()), T.Node(a.copy())
    tp1, tp2 = Tape(), Tape()
    tp1.backward(T.sum_all(T.mul(n1, n1, tp1), tp1))
    tp2.backward(T.sum_all(T.grad_reverse(T.mul(n2, n2, tp2), tp2), tp2))
    assert np.array_equal(n1.grad, -n2.grad)


def test_fanout_accumulates_additively():
    a = T.Node(np.array(3.0))
    tp = Tape()
    out = T.add(T.mul(a, a, tp), a, tp)  # x^2 + x -> 2x + 1 = 7
    tp.backward(out)
    assert a.grad == pytest.approx(7.0)


def test_tape_replay_bit_identical():
    a = RNG.normal(size=(4, 4))

    def run():
        node = T.Node(a.copy())
        tp = Tape()
        out = T.sum_all(T.tanh(T.matmul(node, node, tp), tp), tp)
        tp.backward(out)
        return node.grad

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_tanh_sigmoid_open_bounds():
    # strict bounds hold up to float64 saturation (~19 for tanh)
    x = np.linspace(-18, 18, 101)
    t = T.tanh(x).value
    assert np.all(t > -1.0) and np.all(t < 1.0)


# --- lstm ------------------------------------------------------------------

def scan(params, x, reverse_time=False):
    """Untaped lstm_scan of a (B, L, input) batch, as a (B, L, hidden) array."""
    return lstm_scan(None, params, ("rnn",), x, reverse_time=reverse_time)[0].value


def test_lstm_zero_params_zero_output():
    params = {"rnn.w_in": np.zeros((8, 3)), "rnn.w_rec": np.zeros((8, 2)),
              "rnn.bias": np.zeros(8)}
    out = scan(params, RNG.normal(size=(1, 5, 3)))
    assert np.array_equal(out, np.zeros((1, 5, 2)))


def test_lstm_length_one_reverse_is_noop():
    params = init_lstm_params("rnn", 3, 2, np.random.default_rng(1))
    x = RNG.normal(size=(2, 1, 3))
    assert np.array_equal(scan(params, x, reverse_time=False),
                          scan(params, x, reverse_time=True))


def test_lstm_two_steps_match_oracle():
    params = init_lstm_params("rnn", 3, 2, np.random.default_rng(2))
    x = RNG.normal(size=(1, 2, 3))
    h = np.zeros((1, 2))
    c = np.zeros((1, 2))
    expect = []
    for t in range(2):
        h, c = oracle_lstm_cell(x[:, t], h, c, *params.values())
        expect.append(h)
    assert np.allclose(scan(params, x), np.stack(expect, axis=1), atol=1e-12)


@pytest.mark.parametrize("reverse_time", [False, True])
@pytest.mark.parametrize("hidden", [1, 5])
@pytest.mark.parametrize("batch", [1, 7])
def test_lstm_scan_matches_numpy_lstm(batch, hidden, reverse_time):
    params = init_lstm_params("rnn", 3, hidden, np.random.default_rng(hidden))
    x = RNG.normal(size=(batch, 6, 3))
    expect = oracle_lstm(x, *params.values(), reverse_time)
    got = scan(params, x, reverse_time)
    assert got.shape == (batch, 6, hidden)
    assert np.max(np.abs(got - expect)) <= 1e-12


def test_lstm_reverse_time_consumes_backwards():
    params = init_lstm_params("rnn", 2, 3, np.random.default_rng(3))
    x = RNG.normal(size=(2, 4, 2))
    rev = scan(params, x, reverse_time=True)
    plain_on_flipped = scan(params, x[:, ::-1], reverse_time=False)
    assert np.allclose(rev, plain_on_flipped[:, ::-1], atol=1e-14)


def test_lstm_input_size_mismatch():
    params = init_lstm_params("rnn", 3, 2, np.random.default_rng(4))
    with pytest.raises(DimensionError, match=r"\(2, 5, 4\)"):
        scan(params, RNG.normal(size=(2, 5, 4)))
    with pytest.raises(DimensionError):
        scan(params, RNG.normal(size=(5, 3)))


def lstm_graph(tp, ns, weights, reverse_time):
    """Weighted sum of the outputs of lstm_scan over nodes (w_in, w_rec,
    bias, seq), so every step and unit gets its own upstream gradient."""
    p = dict(zip(("rnn.w_in", "rnn.w_rec", "rnn.bias"), ns))
    (out,) = lstm_scan(tp, p, ("rnn",), ns[3], reverse_time=reverse_time)
    return T.sum_all(T.mul(out, weights, tp), tp)


def test_lstm_gradients_match_finite_differences():
    params = init_lstm_params("rnn", 2, 2, np.random.default_rng(5))
    x = RNG.normal(size=(2, 3, 2))
    weights = RNG.normal(size=(2, 3, 2))
    for reverse_time in (False, True):
        arrays = [a.copy() for a in (*params.values(), x)]
        check_op(lambda tp, ns: lstm_graph(tp, ns, weights, reverse_time), arrays,
                 rtol=1e-5)


def test_lstm_scan_is_one_tape_op():
    params = init_lstm_params("rnn", 3, 4, np.random.default_rng(6))
    nodes = [T.Node(a) for a in (*params.values(), RNG.normal(size=(3, 5, 3)))]
    tp = Tape()
    lstm_scan(tp, dict(zip(params, nodes)), ("rnn",), nodes[3])
    assert len(tp) == 1


# --- lstm against the whole-sequence oracle, bit for bit ----------------------

def scan_bytes(scan_fn, params, x, weights, reverse_time, node_seq, taped):
    """The bytes of a scan's output and, when taped, of every leaf gradient
    after one backward pass."""
    nodes = [T.Node(a.copy()) for a in params.values()]
    if node_seq:
        nodes.append(T.Node(x.copy()))
    seq = nodes[3] if node_seq else x.copy()
    tp = Tape() if taped else None
    (out,) = scan_fn(tp, dict(zip(params, nodes)), ("rnn",), seq,
                     reverse_time=reverse_time)
    got = [out.value.tobytes()]
    if taped:
        tp.backward(T.sum_all(T.mul(out, weights, tp), tp))
        got += [n.grad.tobytes() for n in nodes]
    return got


@settings(max_examples=60, deadline=None)
@given(batch=st.sampled_from([1, 7, 50, 512]), hidden=st.sampled_from([1, 5, 24, 128]),
       n_in=st.sampled_from([3, 64]), length=st.sampled_from([1, 2, 6, 37]),
       reverse_time=st.booleans(), node_seq=st.booleans(), taped=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(batch=512, hidden=128, n_in=64, length=37, reverse_time=True, node_seq=True,
         taped=True, seed=0)  # a production-size layer
def test_lstm_scan_equals_the_whole_sequence_oracle_bit_for_bit(
        batch, hidden, n_in, length, reverse_time, node_seq, taped, seed):
    rng = np.random.default_rng(seed)
    params = init_lstm_params("rnn", n_in, hidden, rng)
    params["rnn.bias"][...] = rng.normal(size=params["rnn.bias"].shape)
    x = rng.normal(size=(batch, length, n_in))
    weights = rng.normal(size=(batch, length, hidden))
    args = (params, x, weights, reverse_time, node_seq, taped)
    assert scan_bytes(lstm_scan, *args) == scan_bytes(oracle_lstm_scan, *args)


# --- several layers over one sequence, on one thread or two ------------------

def force_worker(monkeypatch):
    """Let lstm_scan use the worker for layers of any size, whatever the BLAS
    thread count."""
    monkeypatch.setattr(lstm_module, "USE_WORKER", True)
    monkeypatch.setattr(lstm_module, "PARALLEL_STEP_WORK", 0)


def layers_bytes(p, x, weights, reverse_time, node_seq, taped, at_once):
    """The bytes of layers "a", "b" (and "c" with a third entry of
    ``weights``) over x, as one scan of them all (``at_once``) or as one
    one-layer scan each, and, when taped, of every gradient after one
    backward pass of a weighted sum of all outputs."""
    names = tuple("abc"[:len(weights)])
    nodes = {k: T.Node(v.copy()) for k, v in p.items()}
    seq = T.Node(x.copy()) if node_seq else x.copy()
    tp = Tape() if taped else None
    if at_once:
        outs = lstm_scan(tp, nodes, names, seq, reverse_time)
    else:
        outs = [out for name in names for out in lstm_scan(tp, nodes, (name,), seq,
                                                            reverse_time)]
    got = [out.value.tobytes() for out in outs]
    if taped:
        loss = functools.reduce(lambda a, b: T.add(a, b, tp),
                                (T.sum_all(T.mul(out, w, tp), tp)
                                 for out, w in zip(outs, weights)))
        tp.backward(loss)
        got += [n.grad.tobytes() for n in nodes.values()]
        got += [seq.grad.tobytes()] if node_seq else []
    return got


def two_layers(rng, batch, length, n_in, hidden_a, hidden_b):
    p = {**init_lstm_params("a", n_in, hidden_a, rng),
         **init_lstm_params("b", n_in, hidden_b, rng)}
    for name in ("a.bias", "b.bias"):
        p[name][...] = rng.normal(size=p[name].shape)
    x = rng.normal(size=(batch, length, n_in))
    weights = [rng.normal(size=(batch, length, h)) for h in (hidden_a, hidden_b)]
    return p, x, weights


@settings(max_examples=40, deadline=None)
@given(batch=st.sampled_from([1, 7, 50]), length=st.sampled_from([1, 2, 6]),
       n_in=st.sampled_from([3, 16]), hidden_a=st.sampled_from([1, 5, 24]),
       hidden_b=st.sampled_from([2, 24]), reverse_time=st.booleans(),
       node_seq=st.booleans(), taped=st.booleans(), force_worker=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(batch=50, length=37, n_in=64, hidden_a=128, hidden_b=128, reverse_time=False,
         node_seq=True, taped=True, force_worker=False, seed=0)  # retain, production
@example(batch=1, length=37, n_in=64, hidden_a=128, hidden_b=128, reverse_time=True,
         node_seq=True, taped=True, force_worker=True, seed=1)
@example(batch=512, length=37, n_in=16, hidden_a=24, hidden_b=24, reverse_time=True,
         node_seq=False, taped=False, force_worker=False, seed=2)  # below the threshold
def test_a_two_layer_scan_equals_two_one_layer_scans_bit_for_bit(
        batch, length, n_in, hidden_a, hidden_b, reverse_time, node_seq, taped,
        force_worker, seed):
    p, x, weights = two_layers(np.random.default_rng(seed), batch, length, n_in,
                               hidden_a, hidden_b)
    args = (p, x, weights, reverse_time, node_seq, taped)
    threshold = 0 if force_worker else lstm_module.PARALLEL_STEP_WORK
    with mock.patch.multiple(lstm_module, USE_WORKER=True, PARALLEL_STEP_WORK=threshold):
        at_once = layers_bytes(*args, at_once=True)
    with mock.patch.object(lstm_module, "USE_WORKER", False):
        assert at_once == layers_bytes(*args, at_once=False)


def test_three_side_by_side_layers_run_in_turn_on_the_calling_thread(monkeypatch):
    # the worker serves exactly two layers; three run one after the other,
    # and each BPTT streams its weight-gradient blocks as a one-layer scan's
    # does, so the worker gets the same jobs as from three such scans
    force_worker(monkeypatch)
    rng = np.random.default_rng(16)
    p, x, weights = two_layers(rng, 7, 5, 3, 4, 5)
    p.update(init_lstm_params("c", 3, 6, rng))
    p["c.bias"][...] = rng.normal(size=p["c.bias"].shape)
    weights.append(rng.normal(size=(7, 5, 6)))
    submits = []
    submit = lstm_module._WORKER.submit

    def spy_submit(*args):
        submits.append(threading.current_thread().name)
        return submit(*args)

    monkeypatch.setattr(lstm_module._WORKER, "submit", spy_submit)
    main = threading.current_thread().name
    for taped in (False, True):
        args = (p, x, weights, False, True, taped)
        submits.clear()
        at_once = layers_bytes(*args, at_once=True)
        at_once_submits = list(submits)
        submits.clear()
        assert at_once == layers_bytes(*args, at_once=False)
        assert at_once_submits == submits == ([main] * 3 if taped else [])


@pytest.mark.parametrize("cores, env, leaves", [
    (2, {}, False),                                        # OpenBLAS takes every core
    (2, {"OPENBLAS_NUM_THREADS": "1"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "2"}, False),
    (2, {"OPENBLAS_NUM_THREADS": "8"}, False),
    (4, {"OPENBLAS_NUM_THREADS": "2"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "1"}, True),
    (2, {"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, True),
    (2, {"GOTO_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, False),  # GOTO comes first
    (1, {"OPENBLAS_NUM_THREADS": "1"}, False),
])
def test_the_worker_is_used_only_when_blas_leaves_a_core_free(monkeypatch, cores, env,
                                                               leaves):
    for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    monkeypatch.setattr(lstm_module.os, "sched_getaffinity", lambda pid: set(range(cores)))
    assert lstm_module._blas_leaves_a_core() is leaves
    # where the OS has no affinity mask (macOS, Windows), every core counts
    monkeypatch.delattr(lstm_module.os, "sched_getaffinity")
    monkeypatch.setattr(lstm_module.os, "cpu_count", lambda: cores)
    assert lstm_module._blas_leaves_a_core() is leaves
    monkeypatch.setattr(lstm_module.os, "cpu_count", lambda: None)
    assert lstm_module._blas_leaves_a_core() is False


def test_production_size_retain_scans_use_the_worker(monkeypatch):
    # 64/128 at batch 50 is above the threshold, 16/24 at 512 windows below
    names = []
    forward = lstm_module._Layer.forward

    def spy(layer, xs, **hooks):
        names.append(threading.current_thread().name)
        forward(layer, xs, **hooks)

    monkeypatch.setattr(lstm_module._Layer, "forward", spy)
    monkeypatch.setattr(lstm_module, "USE_WORKER", True)
    for batch, n_in, hidden in ((50, 64, 128), (512, 16, 24)):
        p, x, _ = two_layers(np.random.default_rng(3), batch, 4, n_in, hidden, hidden)
        lstm_scan(None, p, ("a", "b"), x)
    main = threading.current_thread().name
    assert names[0] == main and names[1].startswith("lstm_scan") and names[2:] == [main] * 2


def test_twenty_threaded_runs_give_identical_bits(monkeypatch):
    # 20 runs from four calling threads at once, which share the one worker,
    # with thread switches forced often; each equals the one-thread bits
    monkeypatch.setattr(lstm_module, "USE_WORKER", False)
    p, x, weights = two_layers(np.random.default_rng(4), 50, 12, 64, 128, 96)
    expect = layers_bytes(p, x, weights, True, True, True, at_once=False)
    force_worker(monkeypatch)
    runs = []

    def caller():
        for _ in range(5):
            runs.append(layers_bytes(p, x, weights, True, True, True, at_once=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(runs) == 20 and all(run == expect for run in runs)


@pytest.mark.parametrize("phase", ["forward", "bptt"])
@pytest.mark.parametrize("failing", ["a", "b"])
def test_an_exception_in_either_layer_reaches_the_caller_after_both_end(
        monkeypatch, phase, failing):
    # layer a runs on the calling thread, b on the worker; the one that does
    # not fail is slow, so the exception must wait for it
    force_worker(monkeypatch)
    p, x, weights = two_layers(np.random.default_rng(5), 3, 4, 2, 2, 3)
    ended = []
    original = getattr(lstm_module._Layer, phase)

    def patched(layer, *args, **kwargs):
        name = "a" if layer.h.shape[2] == 2 else "b"
        if name == failing:
            raise FloatingPointError(f"layer {name} overflowed")
        time.sleep(0.2)
        result = original(layer, *args, **kwargs)
        ended.append(name)
        return result

    monkeypatch.setattr(lstm_module._Layer, phase, patched)
    with pytest.raises(FloatingPointError, match=f"^layer {failing} overflowed$"):
        layers_bytes(p, x, weights, False, True, True, at_once=True)
    assert ended == [{"a": "b", "b": "a"}[failing]]


# --- two stacked layers, as one op -------------------------------------------

def stacked_bytes(p, x, weights, reverse_time, node_seq, taped, at_once):
    """The bytes of layer "b" stacked on layer "a" over x, as one stacked
    scan (``at_once``) or as two one-layer scans, the second over the
    first's output, and, when taped, of every gradient after one backward
    pass of a weighted sum of the top layer's output."""
    nodes = {k: T.Node(v.copy()) for k, v in p.items()}
    seq = T.Node(x.copy()) if node_seq else x.copy()
    tp = Tape() if taped else None
    if at_once:
        (out,) = lstm_scan(tp, nodes, ("a", "b"), seq, reverse_time, stacked=True)
    else:
        (below,) = lstm_scan(tp, nodes, ("a",), seq, reverse_time)
        (out,) = lstm_scan(tp, nodes, ("b",), below, reverse_time)
    got = [out.value.tobytes()]
    if taped:
        assert len(tp) == (1 if at_once else 2)
        tp.backward(T.sum_all(T.mul(out, weights, tp), tp))
        got += [n.grad.tobytes() for n in nodes.values()]
        got += [seq.grad.tobytes()] if node_seq else []
    return got


def two_stacked_layers(rng, batch, length, n_in, hidden_a, hidden_b):
    p = {**init_lstm_params("a", n_in, hidden_a, rng),
         **init_lstm_params("b", hidden_a, hidden_b, rng)}
    for name in ("a.bias", "b.bias"):
        p[name][...] = rng.normal(size=p[name].shape)
    return p, rng.normal(size=(batch, length, n_in)), rng.normal(size=(batch, length, hidden_b))


@settings(max_examples=40, deadline=None)
@given(batch=st.sampled_from([1, 7, 50]), length=st.sampled_from([1, 2, 6]),
       n_in=st.sampled_from([3, 16]), hidden_a=st.sampled_from([1, 5, 24]),
       hidden_b=st.sampled_from([2, 24]), reverse_time=st.booleans(),
       node_seq=st.booleans(), taped=st.booleans(), force=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
@example(batch=50, length=37, n_in=3, hidden_a=256, hidden_b=256, reverse_time=False,
         node_seq=False, taped=True, force=False, seed=0)  # the stacked regressor
@example(batch=50, length=37, n_in=3, hidden_a=256, hidden_b=256, reverse_time=False,
         node_seq=False, taped=False, force=False, seed=1)
@example(batch=1, length=37, n_in=3, hidden_a=24, hidden_b=20, reverse_time=True,
         node_seq=True, taped=True, force=True, seed=2)
def test_a_stacked_scan_equals_two_one_layer_scans_bit_for_bit(
        batch, length, n_in, hidden_a, hidden_b, reverse_time, node_seq, taped, force,
        seed):
    # with the worker allowed (at its threshold, or for every size) and not
    p, x, weights = two_stacked_layers(np.random.default_rng(seed), batch, length, n_in,
                                       hidden_a, hidden_b)
    args = (p, x, weights, reverse_time, node_seq, taped)
    with mock.patch.object(lstm_module, "USE_WORKER", False):
        expect = stacked_bytes(*args, at_once=False)
        assert stacked_bytes(*args, at_once=True) == expect
    threshold = 0 if force else lstm_module.PARALLEL_STEP_WORK
    with mock.patch.multiple(lstm_module, USE_WORKER=True, PARALLEL_STEP_WORK=threshold):
        assert stacked_bytes(*args, at_once=True) == expect


def test_a_stacked_scan_takes_only_the_hidden_width_of_the_layer_below():
    p, x, _ = two_stacked_layers(np.random.default_rng(10), 2, 3, 4, 5, 6)
    with pytest.raises(DimensionError, match=r"\(2, 3, 4\), expected \(B, L, 5\)"):
        lstm_scan(None, p, ("b", "a"), x, stacked=True)
    with pytest.raises(DimensionError, match=r"\(2, 3, 5\), expected \(B, L, 4\)"):
        lstm_scan(None, p, ("a", "a"), x, stacked=True)


@pytest.mark.parametrize("worker", [False, True])
@pytest.mark.parametrize("reverse_time", [False, True])
def test_stacked_scan_gradients_match_finite_differences(monkeypatch, worker, reverse_time):
    if worker:
        force_worker(monkeypatch)
    p, x, weights = two_stacked_layers(np.random.default_rng(11), 2, 4, 2, 3, 2)

    def graph(tp, ns):
        (out,) = lstm_scan(tp, dict(zip(p, ns)), ("a", "b"), ns[-1], reverse_time,
                           stacked=True)
        return T.sum_all(T.mul(out, weights, tp), tp)

    check_op(graph, [a.copy() for a in (*p.values(), x)], rtol=1e-5)


def stacked_phase_patch(monkeypatch, failing, fail_at, ended):
    """Make layer ``failing`` ("a" below, "b" above) of the stacked pair raise
    in its forward step loop where it would release (a) or start (b) step
    ``fail_at``, and slow down the other one's steps; each layer appends its
    name to ``ended`` when its step loop has ended, whichever way."""
    original = lstm_module._Layer.forward

    def forward(layer, xs, before_step=None, after_step=None):
        name = "a" if layer.h.shape[2] == 2 else "b"
        steps = iter(range(10 ** 6))

        def hook(inner):
            def run():
                if name == failing and next(steps) == fail_at:
                    raise FloatingPointError(f"layer {name} overflowed")
                if name != failing:
                    time.sleep(0.02)
                if inner is not None:
                    inner()
            return run

        try:
            if name == "a":
                return original(layer, xs, before_step, hook(after_step))
            return original(layer, xs, hook(before_step), after_step)
        finally:
            ended.append(name)

    monkeypatch.setattr(lstm_module._Layer, "forward", forward)


@pytest.mark.parametrize("fail_at", [0, 2])
@pytest.mark.parametrize("failing", ["a", "b"])
def test_an_exception_in_either_stacked_layer_reaches_the_caller_after_both_end(
        monkeypatch, failing, fail_at):
    # layer a runs on the calling thread, b on the worker one step behind;
    # if a fails before it releases step fail_at, b must not wait for it
    force_worker(monkeypatch)
    p, x, weights = two_stacked_layers(np.random.default_rng(12), 3, 5, 2, 2, 3)
    ended = []
    stacked_phase_patch(monkeypatch, failing, fail_at, ended)
    for taped in (False, True):
        ended.clear()
        with pytest.raises(FloatingPointError, match=f"^layer {failing} overflowed$"):
            stacked_bytes(p, x, weights, False, True, taped, at_once=True)
        assert sorted(ended) == ["a", "b"]
    # the worker is free again: a run without the patch gives the one-thread bits
    monkeypatch.undo()
    expect = stacked_bytes(p, x, weights, False, True, True, at_once=False)
    force_worker(monkeypatch)
    assert stacked_bytes(p, x, weights, False, True, True, at_once=True) == expect


@pytest.mark.parametrize("failing", ["step loop", "weight blocks"], ids=["loop", "blocks"])
def test_an_exception_in_a_streamed_bptt_reaches_the_caller_after_both(monkeypatch, failing):
    # the calling thread runs the step loop, the worker the weight gradients'
    # block products one step behind (L*B = 140 rows: a short block of rows
    # 100-139, then rows 0-99); the one that does not fail is slow, so the
    # exception must wait for it
    force_worker(monkeypatch)
    p, x, weights = two_stacked_layers(np.random.default_rng(13), 20, 7, 2, 2, 3)
    ended, steps = [], []

    class FailingNumpy(CountingNumpy):
        def matmul(self, a, b, out=None):
            # the top layer's BPTT steps: (B, 4H) @ (4H, H) = (20, 12) @ (12, 3)
            if a.shape == (20, 12) and b.shape == (12, 3):
                steps.append(len(steps))
                if failing == "step loop" and len(steps) == 3:
                    raise FloatingPointError("step loop overflowed")
                if failing == "weight blocks":
                    time.sleep(0.05)
                    if len(steps) == 6:  # L - 1 = 6 of them: the loop has ended
                        ended.append("step loop")
            return np.matmul(a, b, out=out)

    products, weight_grads = T.block_products, lstm_module._Layer.weight_grads

    def failing_products(a, b, out, stack):
        for row in products(a, b, out, stack):
            yield row
            if failing == "weight blocks":
                raise FloatingPointError("weight blocks overflowed")

    def slow_weight_grads(layer, *args):
        try:
            return weight_grads(layer, *args)
        finally:
            if failing == "step loop":
                time.sleep(0.2)
            ended.append("weight blocks")

    monkeypatch.setattr(lstm_module, "np", FailingNumpy())
    monkeypatch.setattr(T, "block_products", failing_products)
    monkeypatch.setattr(lstm_module._Layer, "weight_grads", slow_weight_grads)
    with pytest.raises(FloatingPointError, match=f"^{failing} overflowed$"):
        stacked_bytes(p, x, weights, False, True, True, at_once=True)
    # the worker fails after the short block, with five steps of the loop to go
    assert ended == (["weight blocks", "step loop"] if failing == "weight blocks"
                     else ["weight blocks"])


def test_twenty_threaded_stacked_runs_give_identical_bits(monkeypatch):
    # as test_twenty_threaded_runs_give_identical_bits, for the wavefront
    # and the streamed weight-gradient blocks
    monkeypatch.setattr(lstm_module, "USE_WORKER", False)
    p, x, weights = two_stacked_layers(np.random.default_rng(14), 50, 12, 3, 128, 96)
    expect = stacked_bytes(p, x, weights, True, True, True, at_once=False)
    force_worker(monkeypatch)
    runs = []

    def caller():
        for _ in range(5):
            runs.append(stacked_bytes(p, x, weights, True, True, True, at_once=True))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert len(runs) == 20 and all(run == expect for run in runs)


def test_weight_gradients_stream_only_outside_worker_jobs(monkeypatch):
    # above the threshold, a BPTT on the calling thread alone streams its
    # weight gradients to the worker; the BPTTs of retain's threaded pair do
    # not stream, and no job of the worker's submits another (it would wait
    # on itself)
    monkeypatch.setattr(lstm_module, "USE_WORKER", True)
    jobs, submitters = [], []
    weight_grads = lstm_module._Layer.weight_grads

    def spy_weight_grads(layer, flat, xs_flat, grads, ready=None):
        jobs.append((layer.wi.shape, threading.current_thread().name, ready is not None))
        return weight_grads(layer, flat, xs_flat, grads, ready)

    submit = lstm_module._WORKER.submit

    def spy_submit(*args):
        submitters.append(threading.current_thread().name)
        return submit(*args)

    monkeypatch.setattr(lstm_module._Layer, "weight_grads", spy_weight_grads)
    monkeypatch.setattr(lstm_module._WORKER, "submit", spy_submit)
    batch, length = 50, 3
    rng = np.random.default_rng(15)
    x, y, labels = rng.normal(size=(batch, length, 3)), rng.normal(size=batch), \
        rng.integers(0, 2, size=batch)
    main = threading.current_thread().name
    for model, expect in (
            # 256+256: both layers stream; 128: stdattn's one layer streams
            (MODELS["lstm"].build(baselines.LstmRegConfig(3, 256, 256, 2), seed=1),
             [((1024, 256), "lstm_scan", True), ((1024, 3), "lstm_scan", True)]),
            (MODELS["stdattn"].build(baselines.StdAttnConfig(3, 128), seed=1),
             [((512, 3), "lstm_scan", True)]),
            # 24+20: below the threshold, nothing moves
            (MODELS["lstm"].build(baselines.LstmRegConfig(3, 24, 20, 2), seed=1),
             [((80, 24), main, False), ((96, 3), main, False)]),
            # retain 64/128: beta's whole BPTT on the worker, alpha's here
            (MODELS["retain"].build(retain.RetainConfig(
                seq_len=length, embed_dim=64, alpha_hidden=128, beta_hidden=128,
                n_sources=2), seed=1),
             [((512, 64), main, False), ((512, 64), "lstm_scan", False)])):
        jobs.clear()
        backward_with_reversal(model, x, y, labels, 0.1)
        got = [(shape, name.split("_")[0] + ("_scan" if "scan" in name else ""), streamed)
               for shape, name, streamed in jobs]
        assert sorted(got) == sorted(expect), model.kind
    assert submitters and all(name == main for name in submitters)


class CountingNumpy:
    """numpy, with every np.matmul call counted."""

    def __init__(self):
        self.matmuls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.matmuls += 1
        return np.matmul(*args, **kwargs)


@pytest.mark.parametrize("constant", ["w_in", "w_rec", "seq"])
def test_a_constant_operand_costs_no_product(monkeypatch, constant):
    p, x, weights = two_layers(np.random.default_rng(6), 4, 5, 3, 2, 3)
    counts = {}
    for case in ("none", constant):
        counting = CountingNumpy()
        # the weight gradients' block products are the tape module's
        monkeypatch.setattr(lstm_module, "np", counting)
        monkeypatch.setattr(T, "np", counting)
        nodes = {k: v if k.endswith(case) else T.Node(v) for k, v in p.items()}
        seq = x if case == "seq" else T.Node(x)
        tp = Tape()
        (out,) = lstm_scan(tp, nodes, ("a",), seq)
        (_, parents, _), = tp._ops
        tp.backward(T.sum_all(T.mul(out, weights[0], tp), tp))
        counts[case] = counting.matmuls
        # backward gives a gradient to every node parent, and would fail on
        # the gradient of a constant one (an array has no .grad)
        assert [getattr(x, "grad", None) is None for x in parents] == \
            [not isinstance(x, T.Node) for x in parents]
    assert counts[constant] == counts["none"] - 1
    # the elementwise and matmul ops: None for the constant operand
    for op in (T.add, T.sub, T.mul, T.matmul):
        for a, b in ((T.Node(np.ones((2, 2))), np.ones((2, 2))),
                     (np.ones((2, 2)), T.Node(np.ones((2, 2))))):
            tp = Tape()
            op(a, b, tp)
            (_, parents, vjp), = tp._ops
            grads = vjp(np.ones((2, 2)))
            assert [g is None for g in grads] == [not isinstance(x, T.Node) for x in parents]


def traced_peak(fn):
    """fn()'s result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_untaped_scan_keeps_one_step_of_gates():
    # (37, 512, 512) gates of the whole sequence would be 4x the output
    params = init_lstm_params("rnn", 64, 128, np.random.default_rng(7))
    x = RNG.normal(size=(512, 37, 64))
    out, peak = traced_peak(lambda: scan(params, x))
    assert peak < 1.5 * out.nbytes


def test_production_lstm_training_step_peak_memory():
    # both paths: the serial one and the worker's (the wavefront and the
    # streamed weight-gradient blocks, as perfbench runs them at one BLAS
    # thread)
    model = MODELS["lstm"].build(baselines.LstmRegConfig(3, 256, 256, 5), seed=1)
    rng = np.random.default_rng(8)
    x, y = rng.normal(size=(50, 37, 3)), rng.normal(size=50)
    labels = rng.integers(0, 5, size=50)
    for use_worker in (False, True):
        with mock.patch.object(lstm_module, "USE_WORKER", use_worker):
            _, peak = traced_peak(
                lambda: backward_with_reversal(model, x, y, labels, 10 ** -2.5))
        assert peak < 90 * 2 ** 20, f"USE_WORKER={use_worker}: {peak / 2 ** 20:.2f} MiB"


@pytest.mark.parametrize("use_worker", [False, True])
def test_a_stacked_scan_frees_the_top_layers_gates_before_the_bottom_ones_bptt(
        monkeypatch, use_worker):
    # the top layer's gates and cells are freed by its BPTT, before the
    # bottom layer's BPTT runs; and the backward pass empties the tape
    if use_worker:
        force_worker(monkeypatch)
    p, x, weights = two_stacked_layers(np.random.default_rng(10), 7, 6, 3, 5, 4)
    refs, done, freed = {}, [], []
    forward, bptt = lstm_module._Layer.forward, lstm_module._Layer.bptt

    def saving_forward(layer, *args, **kwargs):
        forward(layer, *args, **kwargs)
        refs[layer] = (weakref.ref(layer.z), weakref.ref(layer.c))

    def checking_bptt(layer, *args, **kwargs):
        # whether the gates and cells of every layer whose BPTT ran are gone
        freed.append([ref() is None for other in done for ref in refs[other]])
        done.append(layer)
        return bptt(layer, *args, **kwargs)

    monkeypatch.setattr(lstm_module._Layer, "forward", saving_forward)
    monkeypatch.setattr(lstm_module._Layer, "bptt", checking_bptt)
    nodes = {k: T.Node(v) for k, v in p.items()}
    tp = Tape()
    (out,) = lstm_scan(tp, nodes, ("a", "b"), T.Node(x), stacked=True)
    tp.backward(T.sum_all(T.mul(out, weights, tp), tp))
    assert freed == [[], [True, True]]
    assert len(tp) == 0


def loss_graph(model, x, y, labels):
    """(tape, parameter nodes, root) of a training loss with the adversary."""
    tp = Tape()
    nodes = {k: T.Node(v.copy()) for k, v in model.param_arrays().items()}
    outs = model.graph(tp, x, nodes, with_adversary=True)
    total = mse_node(tp, outs["y_hat"], y)
    if outs["adv_probs"] is not None:
        total = T.add(total, T.scale(cross_entropy_node(tp, outs["adv_probs"], labels),
                                     0.3, tp), tp)
    return tp, nodes, total


@pytest.mark.parametrize("model", [
    MODELS["retain"].build(retain.RetainConfig(seq_len=6, embed_dim=5, alpha_hidden=4,
                                               beta_hidden=3, n_sources=3,
                                               reverse_time=True), seed=2),
    MODELS["stdattn"].build(baselines.StdAttnConfig(3, 4), seed=2),
    MODELS["lstm"].build(baselines.LstmRegConfig(3, 5, 4, 3), seed=2),
], ids=lambda m: m.kind)
def test_backward_frees_op_adjoints_and_keeps_leaf_gradients(model):
    rng = np.random.default_rng(9)
    x, y = rng.normal(size=(7, 6, 3)), rng.normal(size=7)
    labels = rng.integers(0, 3, size=7)
    tp, nodes, total = loss_graph(model, x, y, labels)
    ref_tp, ref_nodes, ref_total = loss_graph(model, x, y, labels)
    ops = list(tp._ops)
    tp.backward(total)
    oracle_backward(ref_tp, ref_total)
    assert all(out.grad is None for outs, _, _ in ops for out in outs)
    for name, node in nodes.items():
        ref = ref_nodes[name].grad
        assert (node.grad is None) == (ref is None), name
        assert node.grad is None or node.grad.tobytes() == ref.tobytes(), name
