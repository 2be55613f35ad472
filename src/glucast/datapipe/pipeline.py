"""Preprocessing chain: clean, resample, window, recover, split, standardize.

The chain turns a raw per-patient series into standardized supervised
samples, one array operation per stage: windows live in a SampleSet from
the moment they are cut. Guarantees: targets are always real sensor readings (recovery only
fills input windows), scaling statistics come from the training portion
alone, and re-running any stage on its own output is a no-op.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..errors import AT_LEAST_1, AT_LEAST_2, POSITIVE, ConfigError, check_fields, tunable
from .series import GlucoseSeries

STD_FLOOR = 1e-8


@dataclass
class SplitSpec:
    """How a patient series is cleaned, windowed and split."""

    test_days: int = tunable(5, AT_LEAST_1)
    valid_fraction: float = tunable(0.2, (lambda v: 0 < v < 1, "in (0, 1)"))
    # a 3-hour history inclusive at 5-minute spacing; recover_missing keeps
    # no window of fewer than 2 glucose readings
    seq_len: int = tunable(37, AT_LEAST_2)
    ph_steps: int = tunable(6, AT_LEAST_1)  # a 30-minute prediction horizon
    period_minutes: int = tunable(5, AT_LEAST_1)
    spike_threshold: float = tunable(50.0, POSITIVE)  # mg/dL jump-and-return in one sample

    __post_init__ = check_fields


@dataclass
class Scaling:
    """Per-variable standardization fitted on a training split."""

    input_mean: np.ndarray  # (3,)
    input_std: np.ndarray   # (3,)
    target_mean: float
    target_std: float

    def apply_inputs(self, x):
        """(x - mean) / std of (N, L, r) windows. The (r,) statistics are
        tiled over each window's flattened L*r row, so each ufunc runs one
        long inner loop; the values are those of broadcasting over r."""
        x = np.asarray(x, dtype=np.float64)
        n, length, r = x.shape
        out = x.reshape(n, length * r) - np.tile(self.input_mean, length)
        out /= np.tile(self.input_std, length)
        return out.reshape(x.shape)

    def invert_inputs(self, x):
        return np.asarray(x, dtype=np.float64) * self.input_std + self.input_mean

    def apply_target(self, y):
        return (np.asarray(y, dtype=np.float64) - self.target_mean) / self.target_std

    def invert_target(self, y):
        return np.asarray(y, dtype=np.float64) * self.target_std + self.target_mean


@dataclass
class SampleSet:
    """Windows with their targets, standardized once ``standardize`` returns them."""

    x: np.ndarray           # (N, L, 3), C-contiguous; NaN glucose before recovery
    y: np.ndarray           # (N,) glucose at the horizon (NaN = unknown)
    t: np.ndarray           # (N,) datetime64[m] window ends
    target_t: np.ndarray    # (N,) datetime64[m] target timestamps

    def __len__(self):
        return self.y.shape[0]


def _select(samples: SampleSet, index) -> SampleSet:
    """The windows a mask or an index array picks, copied into a new set."""
    return replace(samples, x=samples.x[index], y=samples.y[index],
                   t=samples.t[index], target_t=samples.target_t[index])


def clean_spikes(series: GlucoseSeries, threshold=SplitSpec.spike_threshold) -> GlucoseSeries:
    """Drop isolated one-sample glucose spikes.

    A reading goes missing when both jumps to its present neighbors exceed
    the threshold with opposite signs. Endpoints are never removed; a
    gradual rise or fall never matches the rule. The rule reads the readings
    in time order as it removes them: a reading whose previous present
    neighbor has just gone sees no jump before it and stays, so in a run of
    consecutive candidates the first, third, fifth... go.
    """
    glucose = series.glucose.copy()
    present = np.flatnonzero(np.isfinite(glucose))
    jump = np.diff(glucose[present])
    before, after = jump[:-1], jump[1:]
    candidate = ((np.abs(before) > threshold) & (np.abs(after) > threshold)
                 & (before * after < 0))
    run_start = candidate.copy()
    run_start[1:] &= ~candidate[:-1]
    pos = np.arange(candidate.size)
    offset = pos - np.maximum.accumulate(np.where(run_start, pos, 0))
    glucose[present[1:-1][candidate & (offset % 2 == 0)]] = np.nan
    return replace(series, glucose=glucose)


def resample(series: GlucoseSeries, period_minutes=SplitSpec.period_minutes) -> GlucoseSeries:
    """Place the series on a regular grid anchored at the first timestamp.

    Glucose goes to its nearest slot (ties to the earlier slot; on a slot
    collision the reading closest to the slot time wins, earliest on a
    distance tie). CHO and insulin are event masses and are summed into
    their slots in reading order. Unfilled glucose slots are missing.
    """
    if len(series) == 0:
        return series
    offsets = (series.t - series.t[0]).astype(np.int64)  # minutes
    p = int(period_minutes)
    n_slots = int(offsets[-1] // p) + 1
    slots = (2 * offsets + p - 1) // (2 * p)  # nearest, half rounds down
    slots = np.minimum(slots, n_slots - 1)    # grid spans first..last reading
    distance = np.abs(offsets - slots * p)

    present = np.flatnonzero(np.isfinite(series.glucose))
    # by slot, then by distance; lexsort is stable, so the earliest reading
    # wins a distance tie
    ranked = present[np.lexsort((distance[present], slots[present]))]
    best = np.ones(ranked.size, dtype=bool)
    best[1:] = slots[ranked[1:]] != slots[ranked[:-1]]
    glucose = np.full(n_slots, np.nan)
    glucose[slots[ranked[best]]] = series.glucose[ranked[best]]
    cho = np.zeros(n_slots)
    insulin = np.zeros(n_slots)
    np.add.at(cho, slots, series.cho)
    np.add.at(insulin, slots, series.insulin)

    grid = series.t[0] + np.arange(n_slots, dtype=np.int64) * np.timedelta64(p, "m")
    return GlucoseSeries(patient_id=series.patient_id, t=grid,
                         glucose=glucose, cho=cho, insulin=insulin)


def build_samples(series: GlucoseSeries, seq_len=SplitSpec.seq_len,
                  ph_steps=SplitSpec.ph_steps,
                  period_minutes=SplitSpec.period_minutes) -> SampleSet:
    """Slide a full-coverage window over a gridded series.

    Emits one candidate per grid index with complete history and horizon:
    N - seq_len - ph_steps + 1 samples for N grid points, none when the
    series is too short. Targets may still be missing at this stage.
    """
    stacked = np.stack([series.glucose, series.cho, series.insulin], axis=1)
    n_windows = max(len(series) - seq_len - ph_steps + 1, 0)
    x = np.empty((n_windows, seq_len, stacked.shape[1]))
    if n_windows:
        x[...] = sliding_window_view(stacked, x.shape[1:])[:n_windows, 0]
    ends = np.arange(seq_len - 1, seq_len - 1 + n_windows)
    t = series.t[ends]
    return SampleSet(x=x, y=series.glucose[ends + ph_steps], t=t,
                     target_t=t + np.timedelta64(ph_steps * period_minutes, "m"))


def _fill_gaps(g):
    """Glucose windows ``(M, L)`` with gaps and at least two known readings
    each, filled as recover_missing describes."""
    m, length = g.shape
    rows, cols = np.nonzero(np.isfinite(g))
    # One np.interp over the windows laid end to end. Positions are exact
    # integers, so between two known readings of a window every difference,
    # and so every value, equals that of a per-window call; the positions
    # outside them are extrapolated below.
    filled = np.interp(np.arange(m * length, dtype=np.float64),
                       (rows * length + cols).astype(np.float64),
                       g[rows, cols]).reshape(m, length)
    counts = np.bincount(rows, minlength=m)
    ends = np.cumsum(counts)
    starts = ends - counts
    first, second = cols[starts], cols[starts + 1]
    last, prev = cols[ends - 1], cols[ends - 2]
    r = np.arange(m)
    idx = np.arange(length, dtype=np.float64)
    lead_slope = (g[r, second] - g[r, first]) / (second - first)
    lead = g[r, first][:, None] - lead_slope[:, None] * (first[:, None] - idx)
    filled = np.where(idx < first[:, None], lead, filled)
    trail_slope = (g[r, last] - g[r, prev]) / (last - prev)
    trail = g[r, last][:, None] + trail_slope[:, None] * (idx - last[:, None])
    return np.where(idx > last[:, None], trail, filled)


def recover_missing(samples: SampleSet) -> SampleSet:
    """Fill glucose gaps inside windows; drop unusable samples.

    Interior gaps are linearly interpolated between the nearest known
    readings; leading/trailing gaps are linearly extrapolated from the two
    nearest known readings. Samples lose out when the target is missing
    (targets are never imputed) or when fewer than two glucose readings
    remain in the window. Returns a new set; the input is not modified.
    """
    n_known = np.isfinite(samples.x[:, :, 0]).sum(axis=1)
    keep = np.isfinite(samples.y) & (n_known >= 2)
    kept = _select(samples, keep)
    gaps = np.flatnonzero(n_known[keep] < samples.x.shape[1])
    if gaps.size:
        kept.x[gaps, :, 0] = _fill_gaps(kept.x[gaps, :, 0])
    return kept


def split(samples: SampleSet, spec: SplitSpec):
    """Chronological split: last test_days by target time, then 80/20.

    Test holds every sample whose target falls within test_days of the last
    target; the rest splits chronologically with the most recent
    valid_fraction as validation.
    """
    if not len(samples):
        raise ConfigError("cannot split an empty sample set")
    cutoff = samples.target_t[-1] - np.timedelta64(spec.test_days * 24 * 60, "m")
    late = samples.target_t > cutoff
    rest = np.flatnonzero(~late)
    n_train = len(rest) - int(round(len(rest) * spec.valid_fraction))
    train = _select(samples, rest[:n_train])
    valid = _select(samples, rest[n_train:])
    test = _select(samples, late)
    if min(len(train), len(valid), len(test)) < 3:
        raise ConfigError(
            f"splits too small: train={len(train)} valid={len(valid)} test={len(test)}")
    return train, valid, test


def standardize(train: SampleSet, valid: SampleSet, test: SampleSet):
    """Zero-mean unit-variance scaling fitted on the training samples only.

    A variable whose training spread collapses below 1e-8 keeps its values
    (std falls back to 1) and triggers a warning. Returns three new
    standardized SampleSets (train, valid, test) plus the fitted scaling.
    """
    if not len(train):
        raise ConfigError("cannot fit scaling on an empty training split")
    n, length, r = train.x.shape
    flat = train.x.reshape(n * length, r)
    # numpy's mean and std over axis 0 add the rows in order; accumulating
    # along axis 0 takes the same sums, bit for bit, in one long inner loop
    # per column
    input_mean = np.add.accumulate(flat, axis=0)[-1] / len(flat)
    dev = train.x.reshape(n, length * r) - np.tile(input_mean, length)
    dev *= dev
    input_std = np.sqrt(np.add.accumulate(dev.reshape(flat.shape), axis=0)[-1] / len(flat))
    target_mean = float(train.y.mean())
    target_std = float(train.y.std())

    degenerate = input_std < STD_FLOOR
    if np.any(degenerate) or target_std < STD_FLOOR:
        warnings.warn("near-constant variable(s); std falls back to 1",
                      stacklevel=2)
    input_std = np.where(degenerate, 1.0, input_std)
    if target_std < STD_FLOOR:
        target_std = 1.0

    scaling = Scaling(input_mean=input_mean, input_std=input_std,
                      target_mean=target_mean, target_std=target_std)
    sets = tuple(replace(s, x=scaling.apply_inputs(s.x), y=scaling.apply_target(s.y))
                 for s in (train, valid, test))
    return (*sets, scaling)


def preprocess_series(series: GlucoseSeries, spec: SplitSpec):
    """Full chain from a raw series to standardized train/valid/test sets;
    ConfigError when the series holds no window, or too few for the splits."""
    gridded = resample(clean_spikes(series, spec.spike_threshold), spec.period_minutes)
    if len(gridded) < spec.seq_len + spec.ph_steps:
        raise ConfigError(
            f"{len(gridded)} grid points at period_minutes = {spec.period_minutes}, "
            f"fewer than one window of seq_len = {spec.seq_len} plus ph_steps = "
            f"{spec.ph_steps} to its target")
    samples = recover_missing(build_samples(gridded, spec.seq_len, spec.ph_steps,
                                            spec.period_minutes))
    train, valid, test = split(samples, spec)
    return standardize(train, valid, test)
