import numpy as np
import pytest

from glucast.errors import TrainingError
from glucast.kernel import Tape
from glucast.kernel import tape as T
from glucast.models import RetainConfig, RetainModel, snapshot
from glucast.models.retain import build_graph
from glucast.training import (
    AdamState,
    EarlyStopState,
    PatientSplits,
    TrainConfig,
    adam_step,
    backward_with_reversal,
    cross_entropy,
    cross_entropy_node,
    finetune,
    mse_node,
    train_source,
)

from _utils import finite_diff_params, max_rel_err

RNG = np.random.default_rng(404)

CFG = RetainConfig(seq_len=5, input_dim=2, embed_dim=4, alpha_hidden=3,
                   beta_hidden=3, n_sources=3)


def toy_batch(n=6, seed=0, k=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, CFG.seq_len, CFG.input_dim))
    y = rng.normal(size=n)
    labels = rng.integers(0, k, size=n)
    return x, y, labels


# --- loss -------------------------------------------------------------------

def training_loss(y_true, y_pred, labels=None, probs=None, lam=0.0):
    """MSE + lam * CE as the training graph composes it, as a float."""
    total = mse_node(None, T.Node(y_pred), y_true)
    if lam:
        total = T.add(total, T.scale(cross_entropy_node(None, T.Node(probs), labels),
                                     lam))
    return float(total.value)


def test_loss_lambda_zero_is_pure_mse():
    y = np.array([1.0, 2.0])
    pred = np.array([2.0, 0.0])
    assert training_loss(y, pred, lam=0.0) == pytest.approx((1 + 4) / 2)


def test_loss_perfect_predictions_uniform_probs():
    k = 4
    y = np.array([1.0, 2.0, 3.0])
    probs = np.full((3, k), 1 / k)
    labels = np.array([0, 1, 3])
    lam = 0.3
    assert training_loss(y, y, labels, probs, lam) == pytest.approx(lam * np.log(k))
    assert cross_entropy(labels, probs) == pytest.approx(np.log(k))


def test_loss_single_pair_direct_value():
    assert training_loss(np.array([1.0]), np.array([3.0]), lam=0.0) == pytest.approx(4.0)


def test_loss_validates_labels_and_probs():
    with pytest.raises(ValueError, match="out of range"):
        cross_entropy(np.array([5]), np.full((1, 3), 1 / 3))
    with pytest.raises(ValueError, match="sum to 1"):
        cross_entropy(np.array([0]), np.array([[0.9, 0.3]]))


def test_cross_entropy_clamps_zero_probability():
    probs = np.array([[1.0, 0.0]])
    val = cross_entropy(np.array([1]), probs)
    assert val == pytest.approx(-np.log(1e-12))


# --- adam --------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0])}
    state = AdamState.init(params)
    adam_step(params, {"w": np.zeros(2)}, state, lr=0.1)
    assert np.array_equal(params["w"], np.array([1.0, -2.0]))


def test_adam_first_step_closed_form():
    params = {"p": np.array(1.0)}
    state = AdamState.init(params)
    adam_step(params, {"p": np.array(1.0)}, state, lr=0.1)
    # m_hat = g, v_hat = g^2 -> step = lr * g / (|g| + eps)
    assert float(params["p"]) == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-12)


def test_adam_two_steps_match_reference_trace():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    p_ref = np.array([0.5, -1.0])
    m = np.zeros(2)
    v = np.zeros(2)
    g = np.array([0.3, -0.7])
    for t in (1, 2):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p_ref = p_ref - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)

    params = {"p": np.array([0.5, -1.0])}
    state = AdamState.init(params)
    adam_step(params, {"p": g.copy()}, state, lr=lr)
    adam_step(params, {"p": g.copy()}, state, lr=lr)
    assert np.allclose(params["p"], p_ref, atol=1e-15)


def test_adam_nonfinite_gradient_names_parameter():
    params = {"embed_w": np.zeros(2)}
    state = AdamState.init(params)
    with pytest.raises(TrainingError, match="embed_w"):
        adam_step(params, {"embed_w": np.array([np.nan, 0.0])}, state, lr=0.1)


# --- gradient reversal --------------------------------------------------------

def test_retain_step_records_few_tape_ops(monkeypatch):
    # each LSTM is one fused op, so the op count does not grow with seq_len
    sizes = []
    replay = Tape.backward

    def counting(tape, root):
        sizes.append(len(tape))
        return replay(tape, root)

    monkeypatch.setattr(Tape, "backward", counting)
    x, y, labels = toy_batch(seed=3)
    backward_with_reversal(RetainModel.create(CFG, seed=1), x, y, labels, lam=0.1)
    assert len(sizes) == 1 and sizes[0] < 60


def test_reversal_lambda_zero_equals_plain_mse_gradients():
    model = RetainModel.create(CFG, seed=1)
    x, y, labels = toy_batch(seed=2)
    g0, *_ = backward_with_reversal(model, x, y, labels, lam=0.0)
    g1, *_ = backward_with_reversal(model, x, y, None, lam=0.0)
    for name in g0:
        assert np.array_equal(g0[name], g1[name]), name


def test_reversal_frozen_mse_branch_is_negated_ce():
    model = RetainModel.create(CFG, seed=3)
    x, _, labels = toy_batch(seed=4)
    y_exact = model.predict(x)  # MSE branch contributes zero gradient
    lam = 0.25

    reversed_grads, *_ = backward_with_reversal(model, x, y_exact, labels, lam=lam)

    # plain (unreversed) CE-only gradients
    from glucast.kernel import tape as T
    from glucast.training.loss import cross_entropy_node
    tp = T.Tape()
    nodes = {k: T.Node(v) for k, v in model.param_arrays().items()}
    adv = model.graph(tp, x, nodes, with_adversary=True)["adv_probs"]
    # bypass the reversal by rebuilding without it
    from glucast.models.retain import build_graph
    tp = T.Tape()
    nodes = {k: T.Node(v) for k, v in model.param_arrays().items()}
    outs = build_graph(tp, x, nodes, model.config, with_adversary=True,
                       reverse_adversary=False)
    tp.backward(cross_entropy_node(tp, outs["adv_probs"], labels))
    ce_grads = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
                for k, n in nodes.items()}

    for name in reversed_grads:
        if name.startswith("adv_"):
            expect = lam * ce_grads[name]  # classifier head keeps +lam dCE
        else:
            expect = -lam * ce_grads[name]  # upstream gets the flipped sign
        assert max_rel_err(reversed_grads[name], expect) < 1e-9, name


def test_reversal_identity_vs_two_finite_difference_passes():
    model = RetainModel.create(CFG, seed=5)
    x, y, labels = toy_batch(n=4, seed=6)
    lam = 0.05
    grads, *_ = backward_with_reversal(model, x, y, labels, lam=lam)

    arrays = model.param_arrays()

    def mse_value():
        pred = model.predict(x)
        return float(np.mean((pred - y) ** 2))

    def ce_value():
        adv = model.graph(None, x, arrays, with_adversary=True)["adv_probs"]
        return cross_entropy(labels, adv.value)

    fd_mse = finite_diff_params(mse_value, {"embed_w": arrays["embed_w"]}, eps=1e-5)
    fd_ce = finite_diff_params(ce_value, {"embed_w": arrays["embed_w"]}, eps=1e-5)
    combined = fd_mse["embed_w"] - lam * fd_ce["embed_w"]
    assert max_rel_err(grads["embed_w"], combined) <= 1e-4


# --- training loops -------------------------------------------------------------

def patient(seed, n_train=40, n_valid=12):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n_train + n_valid, CFG.seq_len, CFG.input_dim))
    # learnable rule: target tracks the last glucose-like input
    y = x[:, -1, 0] * 0.8 + rng.normal(scale=0.05, size=n_train + n_valid)
    return PatientSplits(x[:n_train], y[:n_train], x[n_train:], y[n_train:],
                         patient_id=f"p{seed}")


def test_train_source_needs_two_patients():
    model = RetainModel.create(CFG, seed=0)
    with pytest.raises(ValueError):
        train_source(model, [patient(1)], TrainConfig(max_epochs=1, seed=0))


@pytest.mark.parametrize("field, value", [
    ("lam", float("nan")), ("lam", float("inf")), ("lr_source", float("inf")),
    ("lr_source", float("nan")), ("lr_finetune", float("inf")),
    ("lr_finetune", float("nan")),
])
def test_train_config_rejects_a_rate_or_weight_that_is_not_finite(field, value):
    with pytest.raises(ValueError, match="finite"):
        TrainConfig(**{field: value})


def test_max_epochs_zero_returns_initial_params():
    model = RetainModel.create(CFG, seed=8)
    before = snapshot(model)
    history = train_source(model, [patient(1), patient(2)],
                           TrainConfig(max_epochs=0, seed=0))
    assert history == []
    for name, arr in model.param_arrays().items():
        assert np.array_equal(arr, before[name]), name


def test_single_batch_single_epoch_is_one_adam_step():
    cfg = TrainConfig(batch_size=1000, max_epochs=1, seed=3, lam=0.0,
                      patience_source=100)
    model = RetainModel.create(CFG, seed=9)
    replay = RetainModel.create(CFG, seed=9)

    sources = [patient(1, n_train=10, n_valid=4), patient(2, n_train=10, n_valid=4)]
    train_source(model, sources, cfg)

    # replay: same permutation and one manual step
    x = np.concatenate([s.train_x for s in sources])
    y = np.concatenate([s.train_y for s in sources])
    order = np.random.default_rng(cfg.seed).permutation(len(y))
    grads, *_ = backward_with_reversal(replay, x[order], y[order], None, lam=0.0)
    params = replay.param_arrays()
    adam_step(params, grads, AdamState.init(params), lr=cfg.lr_source)

    stepped = snapshot(replay)
    trained = snapshot(model)
    for name in stepped:
        # train_source keeps the best validation snapshot; with one epoch that
        # is either the init or the stepped params -- assert it is the stepped
        # ones when they improve validation mse, which this toy setup ensures
        assert np.allclose(trained[name], stepped[name], atol=1e-12), name


def test_training_improves_validation_mse_and_is_deterministic():
    cfg = TrainConfig(batch_size=20, max_epochs=40, seed=11, lam=10 ** -2.5,
                      patience_source=40, lr_source=1e-2)
    sources = [patient(s) for s in (1, 2, 3)]

    model_a = RetainModel.create(CFG, seed=10)
    init_valid = np.concatenate([s.valid_x for s in sources])
    init_y = np.concatenate([s.valid_y for s in sources])
    mse_before = float(np.mean((model_a.predict(init_valid) - init_y) ** 2))
    hist_a = train_source(model_a, sources, cfg)
    mse_after = float(np.mean((model_a.predict(init_valid) - init_y) ** 2))
    assert mse_after < mse_before

    model_b = RetainModel.create(CFG, seed=10)
    hist_b = train_source(model_b, sources, cfg)
    assert hist_a == hist_b
    for name, arr in model_a.param_arrays().items():
        assert np.array_equal(arr, model_b.param_arrays()[name]), name


def test_early_stopping_keeps_best_snapshot():
    stop = EarlyStopState(best_loss=1.0, best_params={})

    class Fake:
        def param_arrays(self):
            return {}

    assert stop.update(0.5, Fake())
    assert not stop.update(0.7, Fake())
    assert stop.best_loss == 0.5
    assert stop.epochs_since_improvement == 1


def test_finetune_max_epochs_zero_and_no_worsening():
    model = RetainModel.create(CFG, seed=12)
    target = patient(4)
    before = snapshot(model)
    assert finetune(model, target, TrainConfig(max_epochs=0, seed=0)) == []
    for name, arr in model.param_arrays().items():
        assert np.array_equal(arr, before[name])

    mse0 = float(np.mean((model.predict(target.valid_x) - target.valid_y) ** 2))
    finetune(model, target, TrainConfig(max_epochs=8, seed=1, patience_finetune=8))
    mse1 = float(np.mean((model.predict(target.valid_x) - target.valid_y) ** 2))
    assert mse1 <= mse0 + 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf arithmetic on purpose
def test_divergence_raises_training_error():
    model = RetainModel.create(CFG, seed=13)
    target = patient(5)
    target.train_y[...] = np.inf
    with pytest.raises(TrainingError):
        finetune(model, target, TrainConfig(max_epochs=1, seed=0))


def test_grad_check_on_full_model_loss():
    """Central differences against the combined training loss."""
    model = RetainModel.create(CFG, seed=14)
    x, y, labels = toy_batch(n=4, seed=15)
    lam = 0.05
    arrays = model.param_arrays()

    def total_loss(tp):
        nodes = {k: T.Node(v) for k, v in arrays.items()}
        outs = build_graph(tp, x, nodes, model.config, with_adversary=True,
                           reverse_adversary=False)
        total = T.add(mse_node(tp, outs["y_hat"], y),
                      T.scale(cross_entropy_node(tp, outs["adv_probs"], labels),
                              lam, tp), tp)
        return nodes, total

    tp = T.Tape()
    nodes, total = total_loss(tp)
    tp.backward(total)
    numeric = finite_diff_params(lambda: float(total_loss(None)[1].value),
                                 {"embed_w": arrays["embed_w"]}, eps=1e-5)
    assert max_rel_err(nodes["embed_w"].grad, numeric["embed_w"]) <= 1e-4


def test_source_epoch_scores_validation_in_one_pass(monkeypatch):
    """Each validation window goes through the model once per scoring, and
    the history's scores equal a recomputation from predict and cross_entropy."""
    import glucast.training.loop as loop

    model = RetainModel.create(CFG, seed=16)
    sources = [patient(1), patient(2)]
    windows = []
    graph = model.graph

    def counting(tp, x_batch, p, with_adversary=True):
        if tp is None:
            windows.append(len(x_batch))
        return graph(tp, x_batch, p, with_adversary=with_adversary)

    monkeypatch.setattr(model, "graph", counting)
    monkeypatch.setattr(loop, "restore", lambda model, snap: None)  # keep epoch 1
    history = train_source(model, sources, TrainConfig(max_epochs=1, seed=0))

    valid_x = np.concatenate([s.valid_x for s in sources])
    valid_y = np.concatenate([s.valid_y for s in sources])
    labels = np.repeat([0, 1], [len(s.valid_y) for s in sources])
    # the score before epoch 1, then epoch 1's own
    assert windows == [len(valid_x), len(valid_x)]
    mse = float(np.mean((model.predict(valid_x) - valid_y) ** 2))
    adv = graph(None, valid_x, model.param_arrays(), with_adversary=True)["adv_probs"]
    assert history[0]["valid_mse"] == mse
    assert history[0]["valid_ce"] == cross_entropy(labels, adv.value)
