"""Preprocessing chain: clean, resample, window, recover, split, standardize.

The chain turns a raw per-patient series into standardized supervised
samples. Guarantees: targets are always real sensor readings (recovery only
fills input windows), scaling statistics come from the training portion
alone, and re-running any stage on its own output is a no-op.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ConfigError
from .series import GlucoseSeries

SPIKE_THRESHOLD = 50.0   # mg/dL jump-and-return within one sample
PERIOD_MINUTES = 5
SEQ_LEN = 37             # 3-hour history inclusive at 5-minute spacing
PH_STEPS = 6             # 30-minute prediction horizon
STD_FLOOR = 1e-8


@dataclass
class SplitSpec:
    test_days: int = 5
    valid_fraction: float = 0.2

    def __post_init__(self):
        if self.test_days < 1:
            raise ConfigError("test_days must be at least 1")
        if not 0.0 < self.valid_fraction < 1.0:
            raise ConfigError("valid_fraction must lie strictly between 0 and 1")


@dataclass
class Sample:
    """One supervised example: input window plus its future glucose target."""

    inputs: np.ndarray      # (L, 3): glucose, CHO, insulin; NaN before recovery
    target: float           # glucose at the prediction horizon (NaN = unknown)
    t: np.datetime64        # window end, when the prediction is made
    target_t: np.datetime64  # timestamp of the target reading


@dataclass
class Scaling:
    """Per-variable standardization fitted on a training split."""

    input_mean: np.ndarray  # (3,)
    input_std: np.ndarray   # (3,)
    target_mean: float
    target_std: float

    def apply_inputs(self, x):
        return (np.asarray(x, dtype=np.float64) - self.input_mean) / self.input_std

    def invert_inputs(self, x):
        return np.asarray(x, dtype=np.float64) * self.input_std + self.input_mean

    def apply_target(self, y):
        return (np.asarray(y, dtype=np.float64) - self.target_mean) / self.target_std

    def invert_target(self, y):
        return np.asarray(y, dtype=np.float64) * self.target_std + self.target_mean


@dataclass
class SampleSet:
    """Stacked samples of one split, standardized once scaling is attached."""

    x: np.ndarray           # (N, L, 3)
    y: np.ndarray           # (N,)
    t: np.ndarray           # (N,) datetime64[m] window ends
    target_t: np.ndarray    # (N,) datetime64[m] target timestamps
    provenance: str         # train | valid | test
    scaling: Scaling | None = None

    def __len__(self):
        return self.y.shape[0]


def clean_spikes(series: GlucoseSeries, threshold=SPIKE_THRESHOLD) -> GlucoseSeries:
    """Drop isolated one-sample glucose spikes.

    A reading goes missing when both jumps to its present neighbors exceed
    the threshold with opposite signs. Endpoints are never removed; a
    gradual rise or fall never matches the rule.
    """
    glucose = series.glucose.copy()
    present = np.flatnonzero(np.isfinite(glucose))
    for j in range(1, len(present) - 1):
        k_prev, k, k_next = present[j - 1], present[j], present[j + 1]
        before = glucose[k] - glucose[k_prev]
        after = glucose[k_next] - glucose[k]
        if abs(before) > threshold and abs(after) > threshold and before * after < 0:
            glucose[k] = np.nan
    return replace(series, glucose=glucose)


def resample(series: GlucoseSeries, period_minutes=PERIOD_MINUTES) -> GlucoseSeries:
    """Place the series on a regular grid anchored at the first timestamp.

    Glucose goes to its nearest slot (ties to the earlier slot; on a slot
    collision the reading closest to the slot time wins, earliest on a
    distance tie). CHO and insulin are event masses and are summed into
    their slots. Unfilled glucose slots are missing.
    """
    if len(series) == 0:
        return series
    offsets = (series.t - series.t[0]).astype(np.int64)  # minutes
    p = int(period_minutes)
    n_slots = int(offsets[-1] // p) + 1
    slots = (2 * offsets + p - 1) // (2 * p)  # nearest, half rounds down
    slots = np.minimum(slots, n_slots - 1)    # grid spans first..last reading
    distance = np.abs(offsets - slots * p)

    glucose = np.full(n_slots, np.nan)
    best = np.full(n_slots, np.iinfo(np.int64).max)
    cho = np.zeros(n_slots)
    insulin = np.zeros(n_slots)
    for i in range(len(series)):
        k = int(slots[i])
        if np.isfinite(series.glucose[i]) and distance[i] < best[k]:
            glucose[k] = series.glucose[i]
            best[k] = distance[i]
        cho[k] += series.cho[i]
        insulin[k] += series.insulin[i]

    grid = series.t[0] + np.arange(n_slots, dtype=np.int64) * np.timedelta64(p, "m")
    return GlucoseSeries(patient_id=series.patient_id, t=grid,
                         glucose=glucose, cho=cho, insulin=insulin)


def build_samples(series: GlucoseSeries, seq_len=SEQ_LEN, ph_steps=PH_STEPS,
                  period_minutes=PERIOD_MINUTES) -> list:
    """Slide a full-coverage window over a gridded series.

    Emits one candidate per grid index with complete history and horizon:
    N - seq_len - ph_steps + 1 samples for N grid points, none when the
    series is too short. Targets may still be missing at this stage.
    """
    n = len(series)
    out = []
    stacked = np.stack([series.glucose, series.cho, series.insulin], axis=1)
    horizon = np.timedelta64(ph_steps * period_minutes, "m")
    for end in range(seq_len - 1, n - ph_steps):
        window = stacked[end - seq_len + 1:end + 1].copy()
        out.append(Sample(inputs=window, target=float(series.glucose[end + ph_steps]),
                          t=series.t[end], target_t=series.t[end] + horizon))
    return out


def recover_missing(samples) -> list:
    """Fill glucose gaps inside windows; drop unusable samples.

    Interior gaps are linearly interpolated between the nearest known
    readings; leading/trailing gaps are linearly extrapolated from the two
    nearest known readings. Samples lose out when the target is missing
    (targets are never imputed) or when fewer than two glucose readings
    remain in the window.
    """
    kept = []
    for s in samples:
        if not np.isfinite(s.target):
            continue
        g = s.inputs[:, 0]
        known = np.flatnonzero(np.isfinite(g))
        if known.size < 2:
            continue
        if known.size == g.shape[0]:
            kept.append(s)
            continue
        idx = np.arange(g.shape[0], dtype=np.float64)
        filled = np.interp(idx, known.astype(np.float64), g[known])
        first, second = known[0], known[1]
        lead_slope = (g[second] - g[first]) / (second - first)
        filled[:first] = g[first] - lead_slope * (first - idx[:first])
        last, prev = known[-1], known[-2]
        trail_slope = (g[last] - g[prev]) / (last - prev)
        filled[last + 1:] = g[last] + trail_slope * (idx[last + 1:] - last)
        inputs = s.inputs.copy()
        inputs[:, 0] = filled
        kept.append(replace(s, inputs=inputs))
    return kept


def split(samples, spec: SplitSpec):
    """Chronological split: last test_days by target time, then 80/20.

    Test holds every sample whose target falls within test_days of the last
    target; the rest splits chronologically with the most recent
    valid_fraction as validation.
    """
    if not samples:
        raise ConfigError("cannot split an empty sample list")
    cutoff = samples[-1].target_t - np.timedelta64(spec.test_days * 24 * 60, "m")
    rest = [s for s in samples if s.target_t <= cutoff]
    test = [s for s in samples if s.target_t > cutoff]
    n_valid = int(round(len(rest) * spec.valid_fraction))
    train, valid = rest[:len(rest) - n_valid], rest[len(rest) - n_valid:]
    if min(len(train), len(valid), len(test)) < 3:
        raise ConfigError(
            f"splits too small: train={len(train)} valid={len(valid)} test={len(test)}")
    return train, valid, test


def _stack(samples, provenance) -> SampleSet:
    return SampleSet(
        x=np.stack([s.inputs for s in samples]),
        y=np.array([s.target for s in samples]),
        t=np.array([s.t for s in samples], dtype="datetime64[m]"),
        target_t=np.array([s.target_t for s in samples], dtype="datetime64[m]"),
        provenance=provenance,
    )


def standardize(train, valid, test):
    """Zero-mean unit-variance scaling fitted on the training samples only.

    A variable whose training spread collapses below 1e-8 keeps its values
    (std falls back to 1) and triggers a warning. Returns the three stacked
    SampleSets plus the fitted scaling.
    """
    if not train:
        raise ConfigError("cannot fit scaling on an empty training split")
    sets = [_stack(s, name) for s, name in
            ((train, "train"), (valid, "valid"), (test, "test"))]
    flat = sets[0].x.reshape(-1, sets[0].x.shape[2])
    input_mean = flat.mean(axis=0)
    input_std = flat.std(axis=0)
    target_mean = float(sets[0].y.mean())
    target_std = float(sets[0].y.std())

    degenerate = input_std < STD_FLOOR
    if np.any(degenerate) or target_std < STD_FLOOR:
        warnings.warn("near-constant variable(s); std falls back to 1",
                      stacklevel=2)
    input_std = np.where(degenerate, 1.0, input_std)
    if target_std < STD_FLOOR:
        target_std = 1.0

    scaling = Scaling(input_mean=input_mean, input_std=input_std,
                      target_mean=target_mean, target_std=target_std)
    for s in sets:
        s.x = scaling.apply_inputs(s.x)
        s.y = scaling.apply_target(s.y)
        s.scaling = scaling
    return sets[0], sets[1], sets[2], scaling


def preprocess_series(series: GlucoseSeries, spec: SplitSpec, seq_len=SEQ_LEN,
                      ph_steps=PH_STEPS, period_minutes=PERIOD_MINUTES,
                      spike_threshold=SPIKE_THRESHOLD):
    """Full chain from a raw series to standardized train/valid/test sets."""
    gridded = resample(clean_spikes(series, spike_threshold), period_minutes)
    samples = recover_missing(build_samples(gridded, seq_len, ph_steps,
                                            period_minutes))
    train, valid, test = split(samples, spec)
    return standardize(train, valid, test)
