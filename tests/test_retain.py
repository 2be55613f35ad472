import numpy as np
import pytest

from glucast.errors import ConfigError, ConsistencyError, DimensionError
from glucast.kernel import Tape
from glucast.kernel import lstm
from glucast.kernel import tape as T
from glucast.models import MODELS, RetainModel, baselines, retain
from glucast.models.retain import RetainConfig, build_graph, init_retain_params
from glucast.models.wrappers import TRACE_CHUNK, TRACE_FIELDS
from glucast.training import PatientSplits, TrainConfig, backward_with_reversal, finetune

from _utils import finite_diff_params, max_rel_err, oracle_lstm

RNG = np.random.default_rng(7)

TINY = RetainConfig(seq_len=4, input_dim=2, embed_dim=3, alpha_hidden=2,
                    beta_hidden=2, n_sources=3)


def tiny_model(seed=0, config=TINY):
    return config, init_retain_params(config, np.random.default_rng(seed))


def np_softmax(s):
    e = np.exp(s - s.max())
    return e / e.sum()


def np_lstm(v, params, rnn):
    return oracle_lstm(v[None], params[f"{rnn}.w_in"], params[f"{rnn}.w_rec"],
                       params[f"{rnn}.bias"])[0]


def stage_oracles(x, params):
    """One window through the model, stage by stage, in plain numpy (the LSTM
    from the cell-by-cell oracle of _utils): v, alphas, betas, context."""
    v = x @ params["embed_w"].T
    alphas = np_softmax(np_lstm(v, params, "alpha_rnn") @ params["alpha_w"]
                        + float(params["alpha_b"]))
    betas = np.tanh(np_lstm(v, params, "beta_rnn") @ params["beta_w"].T + params["beta_b"])
    return v, alphas, betas, (alphas[:, None] * betas * v).sum(axis=0)


# --- config ---------------------------------------------------------------

def test_config_rejects_degenerate_dims():
    with pytest.raises(ConfigError):
        RetainConfig(seq_len=1)
    with pytest.raises(ConfigError):
        RetainConfig(embed_dim=0)


def test_config_defaults_match_production_setup():
    cfg = RetainConfig()
    assert (cfg.seq_len, cfg.input_dim, cfg.embed_dim) == (37, 3, 64)
    assert (cfg.alpha_hidden, cfg.beta_hidden) == (128, 128)
    assert cfg.reverse_time is False


# --- embedding stage -------------------------------------------------------------

SQUARE = RetainConfig(seq_len=5, input_dim=3, embed_dim=3, alpha_hidden=2,
                      beta_hidden=2, n_sources=2)


def test_embed_identity_and_zero():
    cfg, params = tiny_model(seed=1, config=SQUARE)
    params["embed_w"][...] = np.eye(3)
    x = RNG.normal(size=(2, cfg.seq_len, 3))
    assert np.array_equal(RetainModel(cfg, params).trace_batch(x).embeddings, x)
    params["embed_w"][...] = RNG.normal(size=(3, 3))
    assert np.array_equal(RetainModel(cfg, params).trace_batch(np.zeros_like(x)).embeddings,
                          np.zeros_like(x))


def test_embed_rows_match_matvec_oracle():
    cfg, params = tiny_model(seed=2)
    x = RNG.normal(size=(3, cfg.seq_len, cfg.input_dim))
    got = RetainModel(cfg, params).trace_batch(x).embeddings
    for b in range(3):
        for i in range(cfg.seq_len):
            assert np.allclose(got[b, i], params["embed_w"] @ x[b, i], atol=1e-14)


def test_embed_shape_mismatch():
    cfg, params = tiny_model()
    with pytest.raises(DimensionError):
        RetainModel(cfg, params).trace_batch(np.zeros((2, cfg.seq_len, cfg.input_dim + 1)))
    with pytest.raises(DimensionError):
        RetainModel(cfg, params).trace_batch(np.zeros((cfg.seq_len, cfg.input_dim)))


# --- attention stages -------------------------------------------------------

def test_temporal_attention_uniform_when_weights_zero():
    cfg, params = tiny_model(seed=1)
    params["alpha_w"][...] = 0.0
    params["alpha_b"][...] = 0.0
    x = RNG.normal(size=(3, cfg.seq_len, cfg.input_dim))
    alphas = RetainModel(cfg, params).trace_batch(x).temporal_weights
    assert np.allclose(alphas, np.full((3, cfg.seq_len), 1 / cfg.seq_len), atol=1e-15)


def test_temporal_attention_matches_composed_oracles():
    cfg, params = tiny_model(seed=2)
    params["alpha_b"][...] = 0.17
    x = RNG.normal(size=(3, cfg.seq_len, cfg.input_dim))
    got = RetainModel(cfg, params).trace_batch(x).temporal_weights
    for b in range(3):
        assert np.allclose(got[b], stage_oracles(x[b], params)[1], atol=1e-14)


def test_variable_attention_zero_and_saturated():
    cfg, params = tiny_model(seed=3)
    x = RNG.normal(size=(2, cfg.seq_len, cfg.input_dim))
    params["beta_w"][...] = 0.0
    params["beta_b"][...] = 0.0
    assert np.array_equal(RetainModel(cfg, params).trace_batch(x).variable_weights,
                          np.zeros((2, cfg.seq_len, cfg.embed_dim)))
    params["beta_b"][...] = 10.0
    assert np.all(RetainModel(cfg, params).trace_batch(x).variable_weights > 0.9999)


def test_variable_attention_matches_composed_oracles():
    cfg, params = tiny_model(seed=4)
    params["beta_b"][...] = RNG.normal(size=cfg.embed_dim)
    x = RNG.normal(size=(3, cfg.seq_len, cfg.input_dim))
    got = RetainModel(cfg, params).trace_batch(x).variable_weights
    for b in range(3):
        assert np.allclose(got[b], stage_oracles(x[b], params)[2], atol=1e-14)


def test_context_vector_one_hot_and_zero():
    # an alpha LSTM that fires only where embedding 0 is non-zero (step 2)
    # makes the temporal weights one-hot, and saturated variable weights are
    # exactly 1, so the context is that step's embedding; zero variable
    # weights give a zero context
    cfg, params = tiny_model(seed=5)
    h = cfg.alpha_hidden
    params["embed_w"][...] = np.eye(cfg.embed_dim, cfg.input_dim)
    w_in, w_rec, bias = (params[f"alpha_rnn.{k}"] for k in ("w_in", "w_rec", "bias"))
    w_in[...] = 0.0
    w_rec[...] = 0.0
    w_in[2 * h:3 * h, 0] = 1000.0  # the cell candidate reads embedding 0
    bias[...] = 50.0               # input and output gates open
    bias[h:2 * h] = -50.0          # forget gate shut
    bias[2 * h:3 * h] = 0.0
    params["alpha_w"][...] = 2000.0
    params["beta_w"][...] = 0.0
    params["beta_b"][...] = 40.0  # tanh(40) == 1.0 in float64
    x = RNG.normal(size=(2, cfg.seq_len, cfg.input_dim))
    x[:, :, 0] = 0.0
    x[:, 2, 0] = 1.0
    trace = RetainModel(cfg, params).trace_batch(x)
    assert np.all(trace.temporal_weights[:, 2] == 1.0)
    assert np.all(np.delete(trace.temporal_weights, 2, axis=1) <= 5e-324)  # floor
    assert np.allclose(trace.context, trace.embeddings[:, 2], atol=1e-15)
    params["beta_b"][...] = 0.0
    assert np.array_equal(RetainModel(cfg, params).trace_batch(x).context,
                          np.zeros((2, cfg.embed_dim)))


def test_context_vector_matches_loop_oracle():
    cfg, params = tiny_model(seed=6)
    x = RNG.normal(size=(3, cfg.seq_len, cfg.input_dim))
    trace = RetainModel(cfg, params).trace_batch(x)
    for b in range(3):
        expect = np.zeros(cfg.embed_dim)
        for i in range(cfg.seq_len):
            for k in range(cfg.embed_dim):
                expect[k] += (trace.temporal_weights[b, i]
                              * trace.variable_weights[b, i, k]
                              * trace.embeddings[b, i, k])
        assert np.allclose(trace.context[b], expect, atol=1e-14)


# --- full forward ------------------------------------------------------------

def test_forward_zero_input_gives_bias():
    cfg, params = tiny_model()
    params["out_b"][...] = 1.25
    trace = RetainModel(cfg, params).forward(np.zeros((cfg.seq_len, cfg.input_dim)))
    assert trace.y_hat == pytest.approx(1.25, abs=1e-15)
    assert np.array_equal(trace.context, np.zeros(cfg.embed_dim))


def test_forward_zero_readout_gives_bias():
    cfg, params = tiny_model(seed=5)
    params["out_w"][...] = 0.0
    params["out_b"][...] = -0.75
    x = RNG.normal(size=(cfg.seq_len, cfg.input_dim))
    assert RetainModel(cfg, params).forward(x).y_hat == pytest.approx(-0.75, abs=1e-15)


def test_forward_rejects_nonfinite_and_bad_shape():
    cfg, params = tiny_model()
    bad = np.zeros((cfg.seq_len, cfg.input_dim))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        RetainModel(cfg, params).forward(bad)
    with pytest.raises(DimensionError):
        RetainModel(cfg, params).forward(np.zeros((cfg.seq_len + 1, cfg.input_dim)))


def test_forward_matches_pipeline_of_stage_oracles():
    cfg, params = tiny_model(seed=11)
    x = RNG.normal(size=(cfg.seq_len, cfg.input_dim))
    trace = RetainModel(cfg, params).forward(x)

    v, alphas, betas, ctx = stage_oracles(x, params)
    y = float(params["out_w"] @ ctx + params["out_b"])

    assert np.allclose(trace.embeddings, v, atol=1e-12)
    assert np.allclose(trace.temporal_weights, alphas, atol=1e-12)
    assert np.allclose(trace.variable_weights, betas, atol=1e-12)
    assert np.allclose(trace.context, ctx, atol=1e-12)
    assert trace.y_hat == pytest.approx(y, rel=1e-12, abs=1e-12)


def test_forward_invariants_random_sweep():
    for seed in range(30):
        cfg, params = tiny_model(seed=seed)
        x = np.random.default_rng(seed).normal(scale=3.0,
                                               size=(cfg.seq_len, cfg.input_dim))
        trace = RetainModel(cfg, params).forward(x)  # __post_init__ checks the invariants
        assert abs(trace.temporal_weights.sum() - 1.0) <= 1e-9
        assert np.all(trace.temporal_weights > 0)
        assert np.all(np.abs(trace.variable_weights) <= 1.0)
        assert abs(trace.adv_probs.sum() - 1.0) <= 1e-9


def test_reverse_time_changes_only_rnn_order():
    cfg, params = tiny_model(seed=13)
    rev_cfg = RetainConfig(seq_len=cfg.seq_len, input_dim=cfg.input_dim,
                           embed_dim=cfg.embed_dim, alpha_hidden=cfg.alpha_hidden,
                           beta_hidden=cfg.beta_hidden, n_sources=cfg.n_sources,
                           reverse_time=True)
    x = RNG.normal(size=(cfg.seq_len, cfg.input_dim))
    fwd = RetainModel(cfg, params).forward(x)
    rev = RetainModel(rev_cfg, params).forward(x)
    # embeddings are order-insensitive; attention weights are not
    assert np.array_equal(fwd.embeddings, rev.embeddings)
    assert abs(rev.temporal_weights.sum() - 1.0) <= 1e-9
    assert not np.allclose(fwd.temporal_weights, rev.temporal_weights)


def test_predict_batch_matches_single_forward():
    cfg, params = tiny_model(seed=17)
    xs = RNG.normal(size=(8, cfg.seq_len, cfg.input_dim))
    batched = RetainModel(cfg, params).predict(xs)
    singles = np.array([RetainModel(cfg, params).forward(x).y_hat for x in xs])
    assert np.allclose(batched, singles, rtol=1e-12, atol=1e-12)


# --- batched trace -------------------------------------------------------------

TRACE_FIELDS = ("embeddings", "scores", "temporal_weights", "variable_weights",
                "context", "adv_probs")


# 2 * TRACE_CHUNK + 44 = 300 windows: two full chunks and a partial one
@pytest.mark.parametrize("n, reverse_time",
                         [(1, False), (2 * TRACE_CHUNK + 44, False), (40, True)])
def test_trace_batch_rows_match_forward(n, reverse_time):
    cfg = RetainConfig(seq_len=6, input_dim=3, embed_dim=5, alpha_hidden=4,
                       beta_hidden=3, n_sources=2, reverse_time=reverse_time)
    cfg, params = tiny_model(seed=23, config=cfg)
    xs = np.random.default_rng(n).normal(scale=2.0,
                                         size=(n, cfg.seq_len, cfg.input_dim))
    batch = RetainModel(cfg, params).trace_batch(xs)
    assert batch.y_hat.shape == (n,)
    for i, x in enumerate(xs):
        one = RetainModel(cfg, params).forward(x)
        assert abs(batch.y_hat[i] - one.y_hat) <= 1e-12
        for name in TRACE_FIELDS:
            assert np.allclose(getattr(batch, name)[i], getattr(one, name),
                               rtol=0, atol=1e-12), (i, name)
    if reverse_time:  # the order does reach the batched path
        fwd = RetainModel(RetainConfig(
            **{**vars(cfg), "reverse_time": False}), params).trace_batch(xs)
        assert not np.allclose(fwd.temporal_weights, batch.temporal_weights)


def test_trace_batch_invariant_names_bad_row():
    cfg, params = tiny_model(seed=29)
    trace = RetainModel(cfg, params).trace_batch(
        RNG.normal(size=(4, cfg.seq_len, cfg.input_dim)))
    broken = trace.temporal_weights.copy()
    broken[2, 0] += 0.5
    with pytest.raises(ConsistencyError, match=r"window 2"):
        retain.ForwardTrace(trace.embeddings, trace.scores, broken,
                            trace.variable_weights, trace.context, trace.y_hat,
                            trace.adv_probs)


def test_trace_batch_rejects_nonfinite_and_empty():
    cfg, params = tiny_model()
    bad = np.zeros((3, cfg.seq_len, cfg.input_dim))
    bad[1, 0, 0] = np.inf
    with pytest.raises(ValueError):
        RetainModel(cfg, params).trace_batch(bad)
    with pytest.raises(DimensionError):
        RetainModel(cfg, params).trace_batch(np.zeros((0, cfg.seq_len, cfg.input_dim)))


@pytest.mark.parametrize("embed, hidden", [(16, 24), (64, 128)])
def test_predict_and_trace_share_one_graph_and_agree_bit_for_bit(embed, hidden):
    # 2 * TRACE_CHUNK + 44 windows: one predict chunk, three trace chunks
    cfg = RetainConfig(embed_dim=embed, alpha_hidden=hidden, beta_hidden=hidden,
                       n_sources=3)
    model = RetainModel.create(cfg, seed=31)
    xs = np.random.default_rng(32).normal(
        size=(2 * TRACE_CHUNK + 44, cfg.seq_len, cfg.input_dim))
    chunks = []
    graph = model.graph

    def counting(tp, x_batch, p, with_adversary=True):
        chunks.append(len(x_batch))
        return graph(tp, x_batch, p, with_adversary=with_adversary)

    model.graph = counting
    y_hat = model.predict(xs)
    trace = model.trace_batch(xs)
    assert chunks == [len(xs), TRACE_CHUNK, TRACE_CHUNK, 44]
    assert y_hat.tobytes() == trace.y_hat.tobytes()


# --- both attention LSTMs as one scan, on one thread or two ----------------------

def step_and_inference_bytes(model, x, y, labels):
    """The bytes of a training step's gradients and losses, of predict and of
    every trace field."""
    grads, *losses = backward_with_reversal(model, x, y, labels, 0.1)
    trace = model.trace_batch(x)
    return ([g.tobytes() for g in grads.values()], losses, model.predict(x).tobytes(),
            [getattr(trace, name).tobytes() for name in TRACE_FIELDS])


@pytest.mark.parametrize("reverse_time", [False, True])
def test_retain_bits_do_not_depend_on_the_worker_or_on_one_op(monkeypatch, reverse_time):
    # the shared embeddings still sum the mul pull, then beta's dseq, then
    # alpha's, as when each LSTM was an op of its own recorded in turn
    model = RetainModel.build(RetainConfig(seq_len=6, embed_dim=5, alpha_hidden=4,
                                           beta_hidden=3, n_sources=3,
                                           reverse_time=reverse_time), seed=8)
    rng = np.random.default_rng(34)
    x, y, labels = rng.normal(size=(9, 6, 3)), rng.normal(size=9), rng.integers(0, 3, 9)
    calls = []
    scan = retain.lstm_scan

    def spy(tp, p, layers, seq, reverse_time=False):
        calls.append(layers)
        return scan(tp, p, layers, seq, reverse_time)

    monkeypatch.setattr(retain, "lstm_scan", spy)
    monkeypatch.setattr(lstm, "USE_WORKER", False)
    one_thread = step_and_inference_bytes(model, x, y, labels)
    assert set(calls) == {("alpha_rnn", "beta_rnn")}
    monkeypatch.setattr(lstm, "USE_WORKER", True)
    monkeypatch.setattr(lstm, "PARALLEL_STEP_WORK", 0)
    assert step_and_inference_bytes(model, x, y, labels) == one_thread

    def one_op_per_layer(tp, p, layers, seq, reverse_time=False):
        return tuple(out for name in layers
                     for out in scan(tp, p, (name,), seq, reverse_time))

    monkeypatch.setattr(retain, "lstm_scan", one_op_per_layer)
    assert step_and_inference_bytes(model, x, y, labels) == one_thread


# --- one window check for every family ------------------------------------------

FAMILY_CONFIGS = {
    "retain": RetainConfig(seq_len=6, input_dim=3, embed_dim=5, alpha_hidden=4,
                           beta_hidden=3, n_sources=2),
    "stdattn": baselines.StdAttnConfig(input_dim=3, hidden=4),
    "lstm": baselines.LstmRegConfig(input_dim=3, hidden1=5, hidden2=4, n_sources=2),
}


@pytest.mark.parametrize("kind", MODELS)
def test_every_family_checks_windows_and_returns_named_nodes(kind):
    model = MODELS[kind].build(FAMILY_CONFIGS[kind], seed=3)
    rng = np.random.default_rng(33)
    x = rng.normal(size=(4, 6, 3))
    outs = model.graph(None, x, model.param_arrays())
    assert {"y_hat", "adv_probs"} <= set(outs)
    assert (outs["adv_probs"] is None) == (not model.supports_adversary)
    assert model.predict(x).tobytes() == outs["y_hat"].value.tobytes()

    nan = x.copy()
    nan[2, 1, 0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        model.predict(nan)
    for bad in (x[..., :2], x[0], x[:0]):  # input width, a 2-D array, no windows
        with pytest.raises(DimensionError, match=r"B >= 1"):
            model.predict(bad)
    if kind == "retain":  # the only family whose config fixes the window length
        with pytest.raises(DimensionError, match=r"\(B >= 1, 6, 3\)"):
            model.predict(rng.normal(size=(4, 7, 3)))
    # windows of no steps fail at the check, in prediction and in training
    no_steps, y = x[:, :0], rng.normal(size=len(x))
    expected = r"\(B >= 1, 6, 3\)" if kind == "retain" else r"\(B >= 1, L >= 1, 3\)"
    with pytest.raises(DimensionError, match=expected):
        model.predict(no_steps)
    with pytest.raises(DimensionError, match=expected):
        finetune(model, PatientSplits(no_steps, y, no_steps, y), TrainConfig(max_epochs=1))


@pytest.mark.parametrize("seed", range(10))
def test_prediction_gradients_match_finite_differences(seed):
    cfg, arrays = tiny_model(seed=19)
    x = np.random.default_rng(seed).normal(size=(1, cfg.seq_len, cfg.input_dim))

    nodes = {k: T.Node(v) for k, v in arrays.items()}
    tp = Tape()
    outs = build_graph(tp, x, nodes, cfg, with_adversary=False)
    tp.backward(T.sum_all(outs["y_hat"], tp))
    analytic = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
                for k, n in nodes.items()}

    numeric = finite_diff_params(
        lambda: float(RetainModel(cfg, arrays).predict(x)[0]), arrays, eps=1e-5)
    # softmax ignores a shift of its scores, so the score bias's gradient is
    # exactly 0: a relative error would only compare rounding noise
    assert abs(analytic["alpha_b"]) <= 1e-14 and abs(numeric["alpha_b"]) <= 1e-10
    for name in arrays:
        if name.startswith("adv_") or name == "alpha_b":
            continue  # adv_*: not part of the prediction path
        assert max_rel_err(analytic[name], numeric[name]) <= 1e-4, name
