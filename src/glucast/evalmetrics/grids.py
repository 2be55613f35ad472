"""Clinical acceptability via table-encoded error grids.

The zone geometry and the AP/BE/EP combination matrices live in a versioned
JSON data file (``data/cg_ega_tables.json``) interpreted generically here;
see the file header for the pinned transcription and its conventions. An
independent inequality evaluator in :mod:`glucast.evalmetrics.grid_oracle`
cross-checks the tables in the test suite.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .metrics import PredictionSeries, rates

HYPO_LIMIT = 70.0    # mg/dL, exclusive upper bound of hypoglycemia
HYPER_LIMIT = 180.0  # mg/dL, exclusive lower bound of hyperglycemia
REGIONS = ("hypo", "eu", "hyper")
CLASSES = ("AP", "BE", "EP")


def _load_tables():
    ref = resources.files("glucast.evalmetrics").joinpath("data/cg_ega_tables.json")
    return json.loads(ref.read_text(encoding="utf-8"))


_TABLES = _load_tables()


def rate_expansions(rate_true):
    """Boundary expansions from the reference rate: (upper, lower)."""
    r = np.asarray(rate_true, dtype=np.float64)
    upper = np.where(r < -2.0, 20.0, np.where((r >= -2.0) & (r < -1.0), 10.0, 0.0))
    lower = np.where(r > 2.0, 20.0, np.where((r > 1.0) & (r <= 2.0), 10.0, 0.0))
    return upper, lower


def _eval_constraint(con, x, y, up, lo):
    lhs = y if con["lhs"] == "y" else x
    rhs = con["slope"] * x + con["c"] + con["up"] * up + con["lo"] * lo
    return lhs <= rhs if con["op"] == "<=" else lhs >= rhs


def _classify_grid(table, x, y, up, lo):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    zone = np.full(x.shape, table["fallback"], dtype="<U2")
    unassigned = np.ones(x.shape, dtype=bool)
    for entry in table["zones"]:
        hit = np.zeros(x.shape, dtype=bool)
        for region in entry["regions"]:
            inside = np.ones(x.shape, dtype=bool)
            for con in region:
                inside &= _eval_constraint(con, x, y, up, lo)
            hit |= inside
        take = hit & unassigned
        zone[take] = entry["zone"]
        unassigned &= ~take
    return zone


def p_ega(y_true, y_pred, rate_true):
    """Point zones A..E with rate-dependent boundary expansions."""
    up, lo = rate_expansions(rate_true)
    zones = _classify_grid(_TABLES["point_grid"], y_true, y_pred, up, lo)
    return zones if zones.shape else str(zones[()])


def r_ega(rate_true, rate_pred):
    """Rate zones A, B, uC, lC, uD, lD, uE, lE."""
    zero = np.zeros(np.shape(rate_true))
    zones = _classify_grid(_TABLES["rate_grid"], rate_true, rate_pred, zero, zero)
    return zones if zones.shape else str(zones[()])


def glycemic_region(y_true):
    """hypo (< 70), eu (70..180), or hyper (> 180), from the reference value."""
    y = np.asarray(y_true, dtype=np.float64)
    region = np.where(y < HYPO_LIMIT, "hypo", np.where(y > HYPER_LIMIT, "hyper", "eu"))
    return region if region.shape else str(region[()])


def cg_ega_classify(p_zone, r_zone, region):
    """AP/BE/EP lookup in the region's combination matrix."""
    combo = _TABLES["combination"]
    if region not in REGIONS:
        raise ValueError(f"unknown glycemic region {region!r}")
    try:
        row = combo["rate_zones"].index(r_zone)
        col = combo["point_zones"].index(p_zone)
    except ValueError:
        raise ValueError(f"unknown zone pair ({p_zone!r}, {r_zone!r})") from None
    return combo[region][row][col]


@dataclass
class CgEgaReport:
    """Per-region AP/BE/EP counts and rates plus zone histograms, and the
    per-point results they count (one entry per classified point)."""

    counts: dict          # region -> {AP, BE, EP}
    rates: dict           # region -> {AP, BE, EP} or None when region empty
    overall: dict         # {AP, BE, EP} rates over all classified points
    p_zone_histogram: dict
    r_zone_histogram: dict
    n_classified: int
    rate_true: np.ndarray  # mg/dL/min
    rate_pred: np.ndarray
    p_zones: np.ndarray
    r_zones: np.ndarray
    regions: np.ndarray
    classes: list          # AP, BE or EP


def cg_ega_report(series: PredictionSeries) -> CgEgaReport:
    """Classify every point after the first and aggregate by region."""
    if len(series) < 2:
        raise ValueError("CG-EGA needs at least 2 points")
    rate_true, rate_pred = rates(series)
    y_true = series.y_true[1:]
    y_pred = series.y_pred[1:]

    p_zones = p_ega(y_true, y_pred, rate_true)
    r_zones = r_ega(rate_true, rate_pred)
    regions = glycemic_region(y_true)
    classes = [cg_ega_classify(pz, rz, reg) for pz, rz, reg in
               zip(p_zones.tolist(), r_zones.tolist(), regions.tolist())]

    counts = {reg: {c: 0 for c in CLASSES} for reg in REGIONS}
    for reg, cls in zip(regions.tolist(), classes):
        counts[reg][cls] += 1

    region_rates = {}
    for reg in REGIONS:
        total = sum(counts[reg].values())
        region_rates[reg] = (None if total == 0 else
                             {c: counts[reg][c] / total for c in CLASSES})
    n = int(y_true.shape[0])
    overall = {c: sum(counts[reg][c] for reg in REGIONS) / n for c in CLASSES}

    p_hist = {z: int(np.sum(p_zones == z)) for z in ("A", "B", "C", "D", "E")}
    r_hist = {z: int(np.sum(r_zones == z))
              for z in ("A", "B", "uC", "lC", "uD", "lD", "uE", "lE")}
    return CgEgaReport(counts=counts, rates=region_rates, overall=overall,
                       p_zone_histogram=p_hist, r_zone_histogram=r_hist,
                       n_classified=n, rate_true=rate_true, rate_pred=rate_pred,
                       p_zones=p_zones, r_zones=r_zones, regions=regions,
                       classes=classes)


def report_to_dict(report: CgEgaReport) -> dict:
    return {
        "n_classified": report.n_classified,
        "counts": report.counts,
        "rates": report.rates,
        "overall": report.overall,
        "p_zone_histogram": report.p_zone_histogram,
        "r_zone_histogram": report.r_zone_histogram,
    }


def write_report_json(report: CgEgaReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report_to_dict(report), fh, indent=1)


def write_points_csv(series: PredictionSeries, report: CgEgaReport, path) -> None:
    """Per-point dump for plotting: values, rates, zones, region and class,
    as ``report`` (the series' ``cg_ega_report``) classified them."""
    values = (series.y_true[1:], series.y_pred[1:], report.rate_true, report.rate_pred)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "y_true", "y_pred", "rate_true",
                         "rate_pred", "p_zone", "r_zone", "region", "class"])
        writer.writerows(zip(series.t[1:].astype(str).tolist(),
                             *(map(repr, v.tolist()) for v in values),
                             report.p_zones.tolist(), report.r_zones.tolist(),
                             report.regions.tolist(), report.classes))
