"""Acceptance suite: one test per release criterion, printed pass/fail.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. The end-to-end cohort (criteria 7 and 8) trains once in a shared
fixture; everything else is self-contained.
"""

import time

import numpy as np
import pytest

from glucast.datapipe import SplitSpec, build_samples, preprocess_series, standardize, split, recover_missing
from glucast.evalmetrics import cg_ega_report, p_ega, r_ega, reconstruct, rmse
from glucast.evalmetrics.grid_oracle import point_zones_oracle, rate_zones_oracle
from glucast.evalmetrics.metrics import PredictionSeries
from glucast.kernel import tape as T
from glucast.models import (
    LstmRegModel,
    RetainConfig,
    RetainModel,
    StdAttnModel,
    contributions,
    event_conditioned_attributions,
    init_retain_params,
    load_model,
    normalized_contributions,
    save_model,
)
from glucast.models.attribution import event_mask_from_windows
from glucast.models.baselines import lstm_reg_graph, std_attn_graph
from glucast.models.retain import build_graph
from glucast.synthdata import default_cohort, generate_patient
from glucast.training import PatientSplits, TrainConfig, backward_with_reversal, finetune, train_source
from glucast.training.loss import cross_entropy_node, mse_node

from _utils import finite_diff_params, max_rel_err


def report(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


# --- 1: decomposition identity ------------------------------------------------

def test_criterion_1_decomposition_identity():
    rng = np.random.default_rng(11)
    start = time.time()
    worst = 0.0
    n_pairs = 1000
    for _ in range(n_pairs):
        cfg = RetainConfig(seq_len=int(rng.integers(2, 9)),
                           input_dim=int(rng.integers(1, 5)),
                           embed_dim=int(rng.integers(1, 7)),
                           alpha_hidden=int(rng.integers(1, 5)),
                           beta_hidden=int(rng.integers(1, 5)),
                           n_sources=int(rng.integers(1, 5)))
        params = init_retain_params(cfg, rng)
        x = rng.normal(scale=2.0, size=(cfg.seq_len, cfg.input_dim))
        trace = RetainModel(cfg, params).forward(x)
        cmap = contributions(x, trace, params)
        recon = cmap.contribution.sum() + cmap.bias
        err = abs(trace.y_hat - recon) / max(1.0, abs(trace.y_hat))
        worst = max(worst, err)
    elapsed = time.time() - start
    report(1, worst <= 1e-6 and elapsed < 10.0,
           f"{n_pairs} random (params, input) pairs, worst relative residual "
           f"{worst:.2e}, {elapsed:.1f} s")


# --- 2: gradient correctness ----------------------------------------------------

TINY = RetainConfig(seq_len=5, input_dim=2, embed_dim=4, alpha_hidden=3,
                    beta_hidden=3, n_sources=3)
LAM = 0.05


def _loss_value_and_grads(arrays, graph_builder, y, labels, lam):
    tp = T.Tape()
    nodes = {k: T.Node(v) for k, v in arrays.items()}
    pred, adv = graph_builder(tp, nodes)
    total = mse_node(tp, pred, y)
    if adv is not None and lam > 0:
        total = T.add(total, T.scale(cross_entropy_node(tp, adv, labels), lam, tp), tp)
    tp.backward(total)
    grads = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
             for k, n in nodes.items()}
    return float(total.value), grads


def _check_gradients(name, arrays, graph_builder, y, labels, lam):
    _, grads = _loss_value_and_grads(arrays, graph_builder, y, labels, lam)
    numeric = finite_diff_params(
        lambda: _loss_value_and_grads(arrays, graph_builder, y, labels, lam)[0],
        arrays, eps=1e-5)
    worst = {}
    for pname in arrays:
        worst[pname] = max_rel_err(grads[pname], numeric[pname])
    bad = {k: v for k, v in worst.items() if v > 1e-4}
    return worst, bad


def test_criterion_2_gradient_correctness():
    start = time.time()
    rng = np.random.default_rng(21)
    x = rng.normal(size=(6, TINY.seq_len, TINY.input_dim))
    y = rng.normal(size=6)
    labels = rng.integers(0, TINY.n_sources, size=6)

    retain_model = RetainModel.create(TINY, seed=2)
    _, bad_r = _check_gradients(
        "retain", retain_model.param_arrays(),
        lambda tp, nodes: _retain_unreversed(tp, nodes, retain_model, x),
        y, labels, LAM)

    std_model = StdAttnModel.create(input_dim=2, hidden=3, seed=3)
    _, bad_s = _check_gradients(
        "stdattn", std_model.param_arrays(),
        lambda tp, nodes: (std_attn_graph(tp, x, nodes)["y_hat"], None),
        y, None, 0.0)

    lstm_model = LstmRegModel.create(input_dim=2, n_sources=3, seed=4,
                                     hidden1=3, hidden2=3)
    _, bad_l = _check_gradients(
        "lstmreg", lstm_model.param_arrays(),
        lambda tp, nodes: _lstm_unreversed(tp, nodes, x),
        y, labels, LAM)

    elapsed = time.time() - start
    ok = not bad_r and not bad_s and not bad_l and elapsed < 60.0
    report(2, ok, f"finite-difference check on all parameter groups of all "
                  f"three models (lam={LAM}), {elapsed:.1f} s"
                  + (f"; failures {bad_r} {bad_s} {bad_l}" if not ok else ""))


def _retain_unreversed(tp, nodes, model, x):
    outs = build_graph(tp, x, nodes, model.config, with_adversary=True,
                       reverse_adversary=False)
    return outs["y_hat"], outs["adv_probs"]


def _lstm_unreversed(tp, nodes, x):
    outs = lstm_reg_graph(tp, x, nodes, with_adversary=True, reverse_adversary=False)
    return outs["y_hat"], outs["adv_probs"]


# --- 3: gradient-reversal identity ------------------------------------------------

def test_criterion_3_reversal_identity():
    rng = np.random.default_rng(31)
    model = RetainModel.create(TINY, seed=5)
    x = rng.normal(size=(6, TINY.seq_len, TINY.input_dim))
    y = rng.normal(size=6)
    labels = rng.integers(0, TINY.n_sources, size=6)

    reversed_grads, *_ = backward_with_reversal(model, x, y, labels, lam=LAM)

    arrays = model.param_arrays()
    _, mse_grads = _loss_value_and_grads(
        arrays, lambda tp, nodes: (build_graph(tp, x, nodes, model.config,
                                               with_adversary=False)["y_hat"], None),
        y, None, 0.0)

    tp = T.Tape()
    nodes = {k: T.Node(v) for k, v in arrays.items()}
    outs = build_graph(tp, x, nodes, model.config, with_adversary=True,
                       reverse_adversary=False)
    tp.backward(cross_entropy_node(tp, outs["adv_probs"], labels))
    ce_grads = {k: (n.grad if n.grad is not None else np.zeros_like(n.value))
                for k, n in nodes.items()}

    expected = mse_grads["embed_w"] - LAM * ce_grads["embed_w"]
    err = max_rel_err(reversed_grads["embed_w"], expected)
    report(3, err <= 1e-6,
           f"embedding gradient equals grad_MSE - lam*grad_CE from two "
           f"independent passes, max relative error {err:.2e}")


# --- 4: attention invariants --------------------------------------------------------

def test_criterion_4_attention_invariants():
    rng = np.random.default_rng(41)
    total = 0
    violations = 0
    worst_alpha = 0.0
    worst_adv = 0.0
    while total < 100_000:
        cfg = RetainConfig(seq_len=int(rng.integers(2, 8)),
                           input_dim=int(rng.integers(1, 4)),
                           embed_dim=int(rng.integers(1, 6)),
                           alpha_hidden=int(rng.integers(1, 5)),
                           beta_hidden=int(rng.integers(1, 5)),
                           n_sources=int(rng.integers(2, 5)))
        params = init_retain_params(cfg, rng)
        batch = 1000
        x = rng.normal(scale=3.0, size=(batch, cfg.seq_len, cfg.input_dim))
        outs = build_graph(None, x, params, cfg, with_adversary=True)
        alpha_err = np.abs(outs["temporal_weights"].value.sum(axis=1) - 1.0)
        adv_err = np.abs(outs["adv_probs"].value.sum(axis=1) - 1.0)
        beta_bad = np.abs(outs["variable_weights"].value) > 1.0
        violations += int((alpha_err > 1e-9).sum())
        violations += int((adv_err > 1e-9).sum())
        violations += int(beta_bad.any(axis=(1, 2)).sum())
        worst_alpha = max(worst_alpha, float(alpha_err.max()))
        worst_adv = max(worst_adv, float(adv_err.max()))
        total += batch
    report(4, violations == 0,
           f"{total} randomized forward passes, 0 invariant violations "
           f"(worst alpha residual {worst_alpha:.1e}, worst classifier "
           f"residual {worst_adv:.1e})" if violations == 0 else
           f"{violations} violations in {total} passes")


# --- 5: CG-EGA correctness ------------------------------------------------------------

def test_criterion_5_error_grid_agreement():
    glucose = np.arange(20.0, 600.0 + 1e-9, 2.0)
    rate_axis = np.round(np.arange(-5.0, 5.0 + 1e-9, 0.1), 10)

    mismatches = 0
    for lo in range(0, rate_axis.size, 20):
        chunk = rate_axis[lo:lo + 20]
        yt, yp, rr = np.meshgrid(glucose, glucose, chunk, indexing="ij")
        got = p_ega(yt.ravel(), yp.ravel(), rr.ravel())
        expect = point_zones_oracle(yt.ravel(), yp.ravel(), rr.ravel())
        mismatches += int((got != expect).sum())

    rt, rp = np.meshgrid(rate_axis, rate_axis, indexing="ij")
    r_got = r_ega(rt.ravel(), rp.ravel())
    r_expect = rate_zones_oracle(rt.ravel(), rp.ravel())
    mismatches += int((r_got != r_expect).sum())

    t = np.datetime64("2026-01-05T00:00", "m") + \
        np.arange(50, dtype=np.int64) * np.timedelta64(5, "m")
    const = PredictionSeries(t=t, y_true=np.full(50, 120.0),
                             y_pred=np.full(50, 120.0))
    ap = cg_ega_report(const).overall["AP"]

    n_points = glucose.size * glucose.size * rate_axis.size + rate_axis.size ** 2
    report(5, mismatches == 0 and ap == 1.0,
           f"tables vs independent oracle on {n_points} grid points, "
           f"{mismatches} disagreements; constant prediction AP {ap:.0%}")


# --- 6: pipeline counts and leakage ------------------------------------------------

def test_criterion_6_pipeline_counts_and_leakage():
    from glucast.datapipe import GlucoseSeries

    rng = np.random.default_rng(61)
    base = np.datetime64("2026-01-05T00:00", "m")
    ok = True
    detail = []
    for n in (43, 44, 100, 2000):
        t = base + np.arange(n, dtype=np.int64) * np.timedelta64(5, "m")
        series = GlucoseSeries("px", t, np.clip(rng.normal(130, 25, n), 50, 380),
                               np.zeros(n), np.zeros(n))
        got = len(build_samples(series, seq_len=37, ph_steps=6))
        ok &= got == max(0, n - 37 - 6 + 1)
        detail.append(f"N={n}:{got}")

    # leakage: rewriting the test period must leave train/valid untouched
    n = 11 * 288
    t = base + np.arange(n, dtype=np.int64) * np.timedelta64(5, "m")
    glucose = np.clip(rng.normal(130, 25, n), 50, 380)
    spec = SplitSpec(test_days=3, valid_fraction=0.2)

    def pipeline(g):
        series = GlucoseSeries("px", t, g, np.zeros(n), np.zeros(n))
        samples = recover_missing(build_samples(series))
        tr, va, te = split(samples, spec)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # constant CHO/insulin columns
            return standardize(tr, va, te)

    tr1, va1, _, sc1 = pipeline(glucose)
    mutated = glucose.copy()
    cut = n - 3 * 288 + 42  # first index that only test windows can reach
    mutated[cut:] = np.clip(mutated[cut:] + rng.normal(0, 40, n - cut), 50, 380)
    tr2, va2, _, sc2 = pipeline(mutated)

    leak_free = (np.array_equal(tr1.x, tr2.x) and np.array_equal(va1.x, va2.x)
                 and np.array_equal(sc1.input_mean, sc2.input_mean)
                 and sc1.target_mean == sc2.target_mean)
    report(6, ok and leak_free,
           f"window counts exact ({', '.join(detail)}); test-period rewrite "
           f"left train/valid bytes and scaling unchanged: {leak_free}")


# --- 7 & 8: end-to-end cohort -------------------------------------------------------

@pytest.fixture(scope="module")
def cohort_run():
    start = time.time()
    profiles = default_cohort(6, seed=20260810)
    prepped = []
    for profile in profiles:
        series = generate_patient(profile, days=21)
        prepped.append(preprocess_series(series,
                                         SplitSpec(test_days=5, valid_fraction=0.2)))

    sources = [PatientSplits(d[0].x, d[0].y, d[1].x, d[1].y) for d in prepped[:5]]
    target = PatientSplits(prepped[5][0].x, prepped[5][0].y,
                           prepped[5][1].x, prepped[5][1].y)

    cfg = RetainConfig(seq_len=37, input_dim=3, embed_dim=16, alpha_hidden=24,
                       beta_hidden=24, n_sources=5)
    model = RetainModel.create(cfg, seed=7)
    train_source(model, sources,
                 TrainConfig(max_epochs=8, patience_source=8, seed=7))
    finetune(model, target,
             TrainConfig(max_epochs=12, patience_finetune=12, seed=7))

    test_set, scaling = prepped[5][2], prepped[5][3]
    train_set = prepped[5][0]
    return {"model": model, "test": test_set, "train": train_set,
            "scaling": scaling, "elapsed": time.time() - start}


def test_criterion_7_end_to_end_learning(cohort_run):
    model = cohort_run["model"]
    test_set = cohort_run["test"]
    scaling = cohort_run["scaling"]

    series = reconstruct(test_set.target_t, test_set.y, model.predict(test_set.x),
                         scaling)
    model_rmse = rmse(series)

    mean_pred = np.full_like(test_set.y, cohort_run["train"].y.mean())
    baseline = rmse(reconstruct(test_set.target_t, test_set.y, mean_pred, scaling))
    ap = cg_ega_report(series).overall["AP"]
    elapsed = cohort_run["elapsed"]

    ok = model_rmse <= 0.5 * baseline and ap >= 0.80 and elapsed < 900.0
    report(7, ok, f"target-test RMSE {model_rmse:.2f} mg/dL vs mean-predictor "
                  f"{baseline:.2f} (ratio {model_rmse / baseline:.3f} <= 0.5), "
                  f"overall AP {ap:.1%} >= 80%, pipeline {elapsed:.0f} s < 900 s")


def test_criterion_8_event_attribution(cohort_run):
    model = cohort_run["model"]
    test_set = cohort_run["test"]
    scaling = cohort_run["scaling"]

    attributions = []
    for x in test_set.x:
        trace = model.forward(x)
        attributions.append(normalized_contributions(
            contributions(x, trace, model.params)))
    attributions = np.stack(attributions)

    cho_events = event_mask_from_windows(test_set.x, scaling, var_index=1)
    profile = event_conditioned_attributions(cho_events, list(attributions),
                                             horizon_after_minutes=30,
                                             period_minutes=5)
    assert profile.total_events > 0 and profile.counts[0] > 0

    seq_len = test_set.x.shape[1]
    at_event = float(profile.means[0][seq_len - 1, 1])
    event_free = ~cho_events.any(axis=1)
    background = float(attributions[event_free][:, seq_len - 1, 1].mean())
    report(8, at_event > background,
           f"CHO attribution at event offset 0 is {at_event:.4f} vs "
           f"event-free background {background:.4f}")


# --- 9: serialization ------------------------------------------------------------------

def test_criterion_9_serialization_bit_exact(tmp_path):
    cfg = RetainConfig(seq_len=9, input_dim=3, embed_dim=8, alpha_hidden=6,
                       beta_hidden=6, n_sources=4)
    model = RetainModel.create(cfg, seed=91)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)

    rng = np.random.default_rng(92)
    identical = 0
    for _ in range(100):
        x = rng.normal(scale=2.0, size=(cfg.seq_len, cfg.input_dim))
        a = model.forward(x)
        b = loaded.forward(x)
        identical += int(a.y_hat == b.y_hat
                         and np.array_equal(a.temporal_weights, b.temporal_weights)
                         and np.array_equal(a.variable_weights, b.variable_weights)
                         and np.array_equal(a.adv_probs, b.adv_probs))
    report(9, identical == 100,
           f"save/load/forward bit-identical on {identical}/100 random inputs")
