"""Deterministic synthetic diabetic-patient generator.

Glucose follows a first-order return-to-basal dynamic driven by lagged meal
absorption (raises glucose) and lagged insulin action (lowers it), plus
seeded Gaussian noise. The point is learnable, interpretable structure at
desk scale, not physiological fidelity: carbohydrate mass entering the
window must visibly push the 30-minute-ahead target so that attribution
checks have signal to find.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .datapipe import GlucoseSeries
from .errors import NON_NEGATIVE, check_fields, tunable

START = np.datetime64("2026-01-05T00:00", "m")
STEPS_PER_DAY = 288  # 5-minute grid
GLUCOSE_FLOOR = 20.0
GLUCOSE_CEIL = 500.0

DEFAULT_MEALS = ((7 * 60 + 30, 45.0), (12 * 60 + 30, 70.0), (19 * 60, 80.0))
DEFAULT_BOLUSES = ((7 * 60 + 45, 4.5), (12 * 60 + 45, 7.0), (19 * 60 + 15, 8.0))


@dataclass
class PatientProfile:
    patient_id: str = "synth"
    basal: float = 120.0              # mg/dL resting level
    cho_sensitivity: float = 2.2      # mg/dL per gram
    insulin_sensitivity: float = 18.0  # mg/dL per unit
    meal_schedule: tuple = DEFAULT_MEALS      # (minute of day, grams)
    bolus_schedule: tuple = DEFAULT_BOLUSES   # (minute of day, units)
    noise_std: float = tunable(2.0, NON_NEGATIVE)
    seed: int = 0
    missing_rate: float = tunable(0.0, (lambda v: 0 <= v < 1, "in [0, 1)"))  # readings dropped

    def __post_init__(self):
        check_fields(self)
        if self.cho_sensitivity <= 0 or self.insulin_sensitivity <= 0:
            raise ValueError("sensitivities must be positive")
        if not 80.0 <= self.basal <= 160.0:
            raise ValueError("basal glucose must lie in [80, 160] mg/dL")


def _lag_kernel(peak_steps, length):
    j = np.arange(1, length + 1, dtype=np.float64)
    w = j * np.exp(-j / peak_steps)
    return w / w.sum()

# absorption peaks ~30 min after a meal, insulin action ~60 min after a bolus
CHO_KERNEL = _lag_kernel(6.0, 36)
INSULIN_KERNEL = _lag_kernel(12.0, 48)
RETURN_RATE = 0.05  # per 5-minute step


def generate_patient(profile: PatientProfile, days: int) -> GlucoseSeries:
    """Simulate one patient on the 5-minute grid for the given days."""
    if days < 1:
        raise ValueError("days must be at least 1")
    rng = np.random.default_rng(profile.seed)
    n = days * STEPS_PER_DAY

    cho = np.zeros(n)
    insulin = np.zeros(n)
    for day in range(days):
        base = day * STEPS_PER_DAY
        for minute, grams in profile.meal_schedule:
            jitter = int(rng.integers(-4, 5))  # +/- 20 min in grid steps
            size = grams * rng.uniform(0.8, 1.2)
            k = base + minute // 5 + jitter
            if 0 <= k < n:
                cho[k] += size
        for minute, units in profile.bolus_schedule:
            jitter = int(rng.integers(-2, 3))
            dose = units * rng.uniform(0.85, 1.15)
            k = base + minute // 5 + jitter
            if 0 <= k < n:
                insulin[k] += dose

    rise = np.convolve(cho, CHO_KERNEL)[:n] * profile.cho_sensitivity
    drop = np.convolve(insulin, INSULIN_KERNEL)[:n] * profile.insulin_sensitivity
    noise = rng.normal(0.0, profile.noise_std, size=n) if profile.noise_std > 0 \
        else np.zeros(n)

    glucose = np.empty(n)
    glucose[0] = profile.basal
    for k in range(1, n):
        glucose[k] = (glucose[k - 1]
                      + RETURN_RATE * (profile.basal - glucose[k - 1])
                      + rise[k] - drop[k] + noise[k])
    clipped = np.clip(glucose, GLUCOSE_FLOOR, GLUCOSE_CEIL)
    if np.any(clipped != glucose):
        warnings.warn(f"patient {profile.patient_id}: glucose clipped to "
                      f"({GLUCOSE_FLOOR}, {GLUCOSE_CEIL})", stacklevel=2)
    glucose = clipped

    if profile.missing_rate > 0:
        target = int(profile.missing_rate * n)
        dropped = np.zeros(n, dtype=bool)
        while dropped.sum() < target:
            start = int(rng.integers(0, n))
            length = int(rng.integers(1, 9))
            dropped[start:start + length] = True
        glucose = np.where(dropped, np.nan, glucose)

    t = START + np.arange(n, dtype=np.int64) * np.timedelta64(5, "m")
    return GlucoseSeries(patient_id=profile.patient_id, t=t, glucose=glucose,
                         cho=cho, insulin=insulin)


def default_cohort(n_patients, seed, noise_std=PatientProfile.noise_std,
                   missing_rate=PatientProfile.missing_rate) -> list:
    """Profiles with per-patient physiology so a classifier has signal."""
    rng = np.random.default_rng(seed)
    profiles = []
    for i in range(n_patients):
        shift = int(rng.integers(-30, 31))  # minutes, whole-cohort habit offset
        meals = tuple((max(0, minute + shift), grams * float(rng.uniform(0.8, 1.25)))
                      for minute, grams in DEFAULT_MEALS)
        boluses = tuple((max(0, minute + shift), units * float(rng.uniform(0.8, 1.25)))
                        for minute, units in DEFAULT_BOLUSES)
        profiles.append(PatientProfile(
            basal=float(rng.uniform(95.0, 150.0)),
            cho_sensitivity=float(rng.uniform(1.6, 2.8)),
            insulin_sensitivity=float(rng.uniform(12.0, 24.0)),
            meal_schedule=meals,
            bolus_schedule=boluses,
            noise_std=noise_std,
            seed=int(rng.integers(0, 2 ** 31)),
            missing_rate=missing_rate,
            patient_id=f"p{i:02d}",
        ))
    return profiles
