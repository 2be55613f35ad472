import numpy as np
import pytest

from glucast.kernel import Tape
from glucast.kernel import lstm
from glucast.kernel import tape as T
from glucast.models import (
    LstmRegConfig,
    LstmRegModel,
    StdAttnConfig,
    StdAttnModel,
    init_lstm_reg_params,
    init_std_attn_params,
)
from glucast.models import baselines
from glucast.models.baselines import lstm_reg_graph, std_attn_graph
from glucast.training import backward_with_reversal

from _utils import finite_diff_params, max_rel_err, oracle_lstm, oracle_lstm_cell

RNG = np.random.default_rng(31)


def std_attn(x, params):
    """(predictions (B,), attention weights (B, L)) of a (B, L, r) batch."""
    outs = std_attn_graph(None, x, params)
    return outs["y_hat"].value, outs["weights"].value


def lstm_reg(x, params):
    """(predictions, last hidden states, class probabilities) of a batch."""
    outs = lstm_reg_graph(None, x, params)
    return outs["y_hat"].value, outs["hidden"].value, outs["adv_probs"].value


def np_softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def test_std_attention_uniform_weights_when_attn_zero():
    params = init_std_attn_params(StdAttnConfig(3, 4), np.random.default_rng(0))
    params["attn_w"][...] = 0.0
    _, alphas = std_attn(RNG.normal(size=(2, 5, 3)), params)
    assert np.allclose(alphas, np.full((2, 5), 0.2), atol=1e-15)


def test_std_attention_zero_rnn_outputs_bias():
    params = init_std_attn_params(StdAttnConfig(3, 4), np.random.default_rng(1))
    params.update({"rnn.w_in": np.zeros((16, 3)), "rnn.w_rec": np.zeros((16, 4)),
                   "rnn.bias": np.zeros(16)})
    params["out_b"][...] = 2.5
    y, _ = std_attn(RNG.normal(size=(2, 5, 3)), params)
    assert np.allclose(y, 2.5, rtol=0, atol=1e-15)


def test_std_attention_matches_composed_oracles():
    params = init_std_attn_params(StdAttnConfig(2, 3), np.random.default_rng(2))
    x = RNG.normal(size=(3, 4, 2))
    y, alphas = std_attn(x, params)

    states = oracle_lstm(x, params["rnn.w_in"], params["rnn.w_rec"], params["rnn.bias"])
    expect_alphas = np_softmax(states @ params["attn_w"] + float(params["attn_b"]))
    ctx = (expect_alphas[:, :, None] * states).sum(axis=1)
    expect_y = ctx @ params["out_w"] + params["out_b"]

    assert np.allclose(alphas, expect_alphas, atol=1e-12)
    assert np.allclose(y, expect_y, rtol=1e-12, atol=0)
    # the returned weights really are the ones used in the pooled state
    recomputed = (alphas[:, :, None] * states).sum(axis=1) @ params["out_w"] + params["out_b"]
    assert np.allclose(y, recomputed, rtol=1e-12, atol=0)
    assert np.allclose(alphas.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_lstm_regressor_zero_weights():
    params = init_lstm_reg_params(LstmRegConfig(3, 3, 2, 4), np.random.default_rng(3))
    for name in ("layer1.w_in", "layer1.w_rec", "layer1.bias",
                 "layer2.w_in", "layer2.w_rec", "layer2.bias",
                 "out_w", "adv_w", "adv_b"):
        params[name][...] = 0.0
    params["out_b"][...] = -1.5
    y, hidden, adv = lstm_reg(RNG.normal(size=(2, 5, 3)), params)
    assert np.allclose(y, -1.5, rtol=0, atol=1e-15)
    assert np.array_equal(hidden, np.zeros((2, 2)))
    assert np.allclose(adv, np.full((2, 4), 0.25), atol=1e-15)


def test_lstm_regressor_length_one_is_single_cell():
    params = init_lstm_reg_params(LstmRegConfig(2, 3, 2, 2), np.random.default_rng(4))
    x = RNG.normal(size=(2, 1, 2))
    y, hidden, _ = lstm_reg(x, params)
    h1, _ = oracle_lstm_cell(x[:, 0], np.zeros((2, 3)), np.zeros((2, 3)),
                             params["layer1.w_in"], params["layer1.w_rec"],
                             params["layer1.bias"])
    h2, _ = oracle_lstm_cell(h1, np.zeros((2, 2)), np.zeros((2, 2)),
                             params["layer2.w_in"], params["layer2.w_rec"],
                             params["layer2.bias"])
    assert np.allclose(hidden, h2, atol=1e-14)
    assert np.allclose(y, h2 @ params["out_w"] + params["out_b"], rtol=1e-12, atol=0)


def test_lstm_regressor_matches_stacked_oracle():
    params = init_lstm_reg_params(LstmRegConfig(2, 4, 3, 3), np.random.default_rng(8))
    x = RNG.normal(size=(3, 6, 2))
    y, hidden, adv = lstm_reg(x, params)
    h1 = oracle_lstm(x, params["layer1.w_in"], params["layer1.w_rec"], params["layer1.bias"])
    h2 = oracle_lstm(h1, params["layer2.w_in"], params["layer2.w_rec"], params["layer2.bias"])
    assert np.max(np.abs(hidden - h2[:, -1])) <= 1e-12
    assert np.allclose(y, h2[:, -1] @ params["out_w"] + params["out_b"], rtol=1e-12, atol=0)
    assert np.allclose(adv, np_softmax(h2[:, -1] @ params["adv_w"].T + params["adv_b"]),
                       rtol=0, atol=1e-12)


def test_determinism_given_params_and_input():
    params = init_std_attn_params(StdAttnConfig(3, 4), np.random.default_rng(5))
    x = RNG.normal(size=(2, 6, 3))
    y1, a1 = std_attn(x, params)
    y2, a2 = std_attn(x, params)
    assert np.array_equal(y1, y2) and np.array_equal(a1, a2)

    reg = init_lstm_reg_params(LstmRegConfig(3, 3, 2, 2), np.random.default_rng(6))
    r1 = lstm_reg(x, reg)
    r2 = lstm_reg(x, reg)
    assert all(np.array_equal(a, b) for a, b in zip(r1, r2))


@pytest.mark.parametrize("seed", range(10))
def test_std_attention_gradients_match_finite_differences(seed):
    model = StdAttnModel.create(input_dim=2, hidden=3, seed=6)
    x = np.random.default_rng(seed).normal(size=(2, 4, 2))
    arrays = model.param_arrays()

    nodes = {k: T.Node(v) for k, v in arrays.items()}
    tp = Tape()
    y = std_attn_graph(tp, x, nodes)["y_hat"]
    tp.backward(T.sum_all(y, tp))
    analytic = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
                for k, n in nodes.items()}
    numeric = finite_diff_params(lambda: float(model.predict(x).sum()), arrays, eps=1e-5)
    # softmax ignores a shift of its scores, so the score bias's gradient is
    # exactly 0: a relative error would only compare rounding noise
    assert abs(analytic["attn_b"]) <= 1e-14 and abs(numeric["attn_b"]) <= 1e-10
    for name in arrays:
        if name != "attn_b":
            assert max_rel_err(analytic[name], numeric[name]) <= 1e-4, name


def test_lstm_regressor_gradients_match_finite_differences():
    model = LstmRegModel.create(input_dim=2, n_sources=3, seed=7, hidden1=3, hidden2=2)
    x = RNG.normal(size=(2, 4, 2))
    arrays = model.param_arrays()

    nodes = {k: T.Node(v) for k, v in arrays.items()}
    tp = Tape()
    y = lstm_reg_graph(tp, x, nodes, with_adversary=False)["y_hat"]
    tp.backward(T.sum_all(y, tp))
    analytic = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
                for k, n in nodes.items()}
    numeric = finite_diff_params(lambda: float(model.predict(x).sum()), arrays, eps=1e-5)
    for name in arrays:
        if name.startswith("adv_"):
            continue
        assert max_rel_err(analytic[name], numeric[name]) <= 1e-4, name


def step_and_predict_bytes(model, x, y, labels):
    """The bytes of a training step's gradients and losses and of predict."""
    grads, *losses = backward_with_reversal(model, x, y, labels, 0.1)
    return [g.tobytes() for g in grads.values()], losses, model.predict(x).tobytes()


@pytest.mark.parametrize("hidden", [(5, 4), (96, 128)])
def test_stacked_regressor_bits_do_not_depend_on_the_worker_or_on_one_op(
        monkeypatch, hidden):
    # its two layers are one stacked op; with the worker, a wavefront forward
    # and streamed weight-gradient blocks; all as two one-layer ops in turn
    model = LstmRegModel.build(LstmRegConfig(3, *hidden, 3), seed=9)
    rng = np.random.default_rng(35)
    x, y, labels = rng.normal(size=(9, 6, 3)), rng.normal(size=9), rng.integers(0, 3, 9)
    calls = []
    scan = baselines.lstm_scan

    def spy(tp, p, layers, seq, reverse_time=False, stacked=False):
        recorded = len(tp) if tp is not None else None
        out = scan(tp, p, layers, seq, reverse_time, stacked)
        calls.append((layers, stacked, None if tp is None else len(tp) - recorded))
        return out

    monkeypatch.setattr(baselines, "lstm_scan", spy)
    monkeypatch.setattr(lstm, "USE_WORKER", False)
    one_thread = step_and_predict_bytes(model, x, y, labels)
    # one op on the tape of the training step, and the untaped predict
    assert set(calls) == {(("layer1", "layer2"), True, 1), (("layer1", "layer2"), True, None)}
    monkeypatch.setattr(lstm, "USE_WORKER", True)
    monkeypatch.setattr(lstm, "PARALLEL_STEP_WORK", 0)
    assert step_and_predict_bytes(model, x, y, labels) == one_thread

    def one_op_per_layer(tp, p, layers, seq, reverse_time=False, stacked=False):
        for name in layers:
            (seq,) = scan(tp, p, (name,), seq, reverse_time)
        return (seq,)

    monkeypatch.setattr(baselines, "lstm_scan", one_op_per_layer)
    monkeypatch.setattr(lstm, "USE_WORKER", False)
    assert step_and_predict_bytes(model, x, y, labels) == one_thread


def test_std_attention_bits_do_not_depend_on_the_streamed_weight_gradients(monkeypatch):
    model = StdAttnModel.build(StdAttnConfig(3, 128), seed=10)
    rng = np.random.default_rng(36)
    x, y = rng.normal(size=(50, 6, 3)), rng.normal(size=50)
    monkeypatch.setattr(lstm, "USE_WORKER", False)
    one_thread = step_and_predict_bytes(model, x, y, None)
    streamed = []
    weight_grads = lstm._Layer.weight_grads

    def spy(layer, flat, xs_flat, grads, ready=None):
        streamed.append(ready is not None)
        return weight_grads(layer, flat, xs_flat, grads, ready)

    monkeypatch.setattr(lstm._Layer, "weight_grads", spy)
    monkeypatch.setattr(lstm, "USE_WORKER", True)  # 3.35e6 per step: above the threshold
    assert step_and_predict_bytes(model, x, y, None) == one_thread
    assert streamed == [True]
