import numpy as np
import pytest

from glucast.datapipe import Scaling
from glucast.errors import ConsistencyError, DegenerateAttributionError
from glucast.models import (
    RetainConfig,
    RetainModel,
    aggregate_attributions,
    contributions,
    event_conditioned_attributions,
    init_retain_params,
    normalized_contributions,
)
from glucast.models.attribution import ContributionMap, event_mask_from_windows

RNG = np.random.default_rng(99)

CFG = RetainConfig(seq_len=4, input_dim=2, embed_dim=3, alpha_hidden=2,
                   beta_hidden=2, n_sources=2)


def make(seed=0):
    return init_retain_params(CFG, np.random.default_rng(seed))


def test_zero_input_all_zero_contributions():
    params = make()
    params["out_b"][...] = 0.4
    x = np.zeros((CFG.seq_len, CFG.input_dim))
    cmap = contributions(x, RetainModel(CFG, params).forward(x), params)
    assert np.array_equal(cmap.contribution, np.zeros_like(x))
    assert cmap.contribution.sum() + cmap.bias == pytest.approx(0.4)


def test_single_nonzero_input_owns_the_prediction():
    params = make(seed=3)
    x = np.zeros((CFG.seq_len, CFG.input_dim))
    x[2, 1] = 1.7
    trace = RetainModel(CFG, params).forward(x)
    cmap = contributions(x, trace, params)
    others = cmap.contribution.copy()
    others[2, 1] = 0.0
    assert np.array_equal(others, np.zeros_like(others))
    assert trace.y_hat - cmap.bias == pytest.approx(cmap.contribution[2, 1], abs=1e-12)


def test_decomposition_identity_random():
    for seed in range(25):
        params = make(seed=seed)
        x = np.random.default_rng(seed + 1000).normal(
            scale=2.0, size=(CFG.seq_len, CFG.input_dim))
        trace = RetainModel(CFG, params).forward(x)
        cmap = contributions(x, trace, params)
        assert cmap.contribution.sum() + cmap.bias == pytest.approx(
            trace.y_hat, abs=1e-9)


def test_coefficient_homogeneity_power_of_two_exact():
    params = make(seed=5)
    x = RNG.normal(size=(CFG.seq_len, CFG.input_dim))
    cmap = contributions(x, RetainModel(CFG, params).forward(x), params)
    # with attention frozen through the stored coefficients, doubling an
    # input exactly doubles its contribution
    assert np.array_equal(cmap.coefficients * (2.0 * x), 2.0 * cmap.contribution)


def test_stale_trace_raises_consistency_error():
    params = make(seed=6)
    x = RNG.normal(size=(CFG.seq_len, CFG.input_dim))
    trace = RetainModel(CFG, params).forward(x)
    other_cfg = RetainConfig(seq_len=4, input_dim=3, embed_dim=3,
                             alpha_hidden=2, beta_hidden=2, n_sources=2)
    other = init_retain_params(other_cfg, np.random.default_rng(0))
    with pytest.raises(ConsistencyError):
        contributions(x, trace, other)
    # same shapes but different values: reconstruction check catches it
    mutated = make(seed=7)
    with pytest.raises(ConsistencyError):
        contributions(x, trace, mutated)


def test_batched_contributions_match_per_window():
    params = make(seed=8)
    xs = np.random.default_rng(8).normal(scale=2.0,
                                         size=(50, CFG.seq_len, CFG.input_dim))
    batch = contributions(xs, RetainModel(CFG, params).trace_batch(xs), params)
    norm = normalized_contributions(batch)
    assert batch.contribution.shape == norm.shape == xs.shape
    for i, x in enumerate(xs):
        one = contributions(x, RetainModel(CFG, params).forward(x), params)
        assert batch.bias == one.bias
        assert np.allclose(batch.contribution[i], one.contribution, rtol=0, atol=1e-12)
        assert np.allclose(batch.coefficients[i], one.coefficients, rtol=0, atol=1e-12)
        assert np.allclose(norm[i], normalized_contributions(one), rtol=0, atol=1e-12)


def test_stale_batch_trace_names_the_bad_row():
    params = make(seed=9)
    xs = RNG.normal(size=(6, CFG.seq_len, CFG.input_dim))
    trace = RetainModel(CFG, params).trace_batch(xs)
    stale = xs.copy()
    stale[4] *= 3.0  # row 4 no longer matches its trace
    with pytest.raises(ConsistencyError, match=r"window 4\b"):
        contributions(stale, trace, params)
    with pytest.raises(ConsistencyError):
        contributions(xs[:5], trace, params)  # one window short of the trace


def test_normalized_batch_names_the_all_zero_row():
    omega = RNG.normal(size=(3, 2, 2))
    omega[1] = 0.0
    with pytest.raises(DegenerateAttributionError, match=r"window 1\b"):
        normalized_contributions(ContributionMap(omega, omega, 0.0))


def test_normalized_equal_magnitudes():
    cmap = ContributionMap(np.array([[1.0, -1.0], [1.0, 1.0]]),
                           np.ones((2, 2)), 0.0)
    assert np.array_equal(normalized_contributions(cmap), np.full((2, 2), 0.25))


def test_normalized_single_entry_and_sign_flip():
    omega = np.zeros((3, 2))
    omega[1, 0] = -4.0
    norm = normalized_contributions(ContributionMap(omega, omega, 0.0))
    assert norm[1, 0] == 1.0 and norm.sum() == 1.0

    dense = RNG.normal(size=(3, 2))
    a = normalized_contributions(ContributionMap(dense, dense, 0.0))
    b = normalized_contributions(ContributionMap(-dense, dense, 0.0))
    assert abs(a.sum() - 1.0) <= 1e-9
    assert np.array_equal(a, b)


def test_normalized_all_zero_is_an_error():
    with pytest.raises(DegenerateAttributionError):
        normalized_contributions(ContributionMap(np.zeros((2, 2)),
                                                 np.zeros((2, 2)), 1.0))


def test_aggregate_single_max_and_mean_oracle():
    one = RNG.random(size=(4, 3))
    assert np.array_equal(aggregate_attributions([one], "mean"), one)
    assert np.array_equal(aggregate_attributions([one], "max"), one)

    two = RNG.random(size=(4, 3))
    assert np.array_equal(aggregate_attributions([one, two], "max"),
                          np.maximum(one, two))

    many = [RNG.random(size=(4, 3)) for _ in range(100)]
    acc = np.zeros((4, 3))
    for m in many:
        acc += m
    assert np.allclose(aggregate_attributions(many, "mean"), acc / 100, atol=1e-12)

    with pytest.raises(ValueError):
        aggregate_attributions([], "mean")
    with pytest.raises(ValueError):
        aggregate_attributions([one], "median")


def test_event_profile_no_events_is_empty():
    att = [RNG.random(size=(4, 2)) for _ in range(3)]
    mask = np.zeros((3, 4), dtype=bool)
    prof = event_conditioned_attributions(mask, att, 30, 5)
    assert prof.total_events == 0
    assert prof.offsets_minutes == [] and prof.counts == []


def test_event_profile_single_event_offset_zero():
    att = [RNG.random(size=(4, 2)) for _ in range(3)]
    mask = np.zeros((3, 4), dtype=bool)
    mask[1, 3] = True  # newest window row of sample 1
    prof = event_conditioned_attributions(mask, att, 10, 5)
    assert prof.total_events == 1
    assert prof.offsets_minutes == [0, 5, 10]
    assert prof.counts[0] == 1
    assert np.array_equal(prof.means[0], att[1])
    assert prof.counts[1:] == [0, 0] and prof.means[1] is None


def test_event_profile_matches_brute_force_scan():
    n, seq_len = 40, 6
    rng = np.random.default_rng(123)
    mask = rng.random((n, seq_len)) < 0.25
    att = rng.random((n, seq_len, 3))
    prof = event_conditioned_attributions(mask, list(att), 25, 5)
    if not mask.any():
        assert prof.total_events == 0
        return
    for k, offset in enumerate(prof.offsets_minutes):
        row = seq_len - 1 - offset // 5
        hits = [i for i in range(n) if mask[i, row]]
        assert prof.counts[k] == len(hits)
        if hits:
            assert np.allclose(prof.means[k],
                               np.mean([att[i] for i in hits], axis=0), atol=1e-12)


def test_event_mask_from_standardized_windows():
    raw = np.zeros((2, 3, 2))
    raw[0, 1, 1] = 25.0  # one event in variable 1
    mean = np.array([0.0, 5.0])
    std = np.array([1.0, 10.0])
    std_windows = (raw - mean) / std
    scaling = Scaling(input_mean=mean, input_std=std, target_mean=0.0, target_std=1.0)
    mask = event_mask_from_windows(std_windows, scaling, var_index=1)
    assert mask[0, 1] and mask.sum() == 1
