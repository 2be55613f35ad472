import csv

import numpy as np
import pytest

from glucast.datapipe import Scaling
from glucast.evalmetrics import (
    PredictionSeries,
    cg_ega_classify,
    cg_ega_report,
    glycemic_region,
    mape,
    p_ega,
    r_ega,
    rates,
    reconstruct,
    rmse,
    write_points_csv,
)
from glucast.evalmetrics import grids
from glucast.evalmetrics.grid_oracle import (
    classify_oracle,
    point_zones_oracle,
    rate_zones_oracle,
)


def make_series(y_true, y_pred, step=5):
    n = len(y_true)
    t = np.datetime64("2026-01-05T00:00", "m") \
        + np.arange(n, dtype=np.int64) * np.timedelta64(step, "m")
    return PredictionSeries(t=t, y_true=np.asarray(y_true, dtype=float),
                            y_pred=np.asarray(y_pred, dtype=float))


# --- reconstruct -------------------------------------------------------------

def stamps(*offsets):
    return [np.datetime64("2026-01-05T00:00", "m") + np.timedelta64(o, "m")
            for o in offsets]


def test_reconstruct_affine_scaling():
    scaling = Scaling(np.zeros(3), np.ones(3), target_mean=100.0, target_std=10.0)
    series = reconstruct(stamps(0), [0.4], [0.5], scaling)
    assert series.y_pred[0] == pytest.approx(105.0)
    assert series.y_true[0] == pytest.approx(104.0)


# --- rmse / mape -------------------------------------------------------------

def test_perfect_prediction_zero_errors():
    s = make_series([100, 150, 200], [100, 150, 200])
    assert rmse(s) == 0.0 and mape(s) == 0.0


def test_constant_offset_rmse():
    s = make_series([100, 150, 200], [107, 157, 207])
    assert rmse(s) == pytest.approx(7.0)


def test_rmse_mape_worked_example():
    s = make_series([100, 200], [110, 180])
    assert rmse(s) == pytest.approx(np.sqrt((100 + 400) / 2))
    assert mape(s) == pytest.approx(10.0)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        rmse(make_series([], []))


@pytest.mark.parametrize("nan_in", ["y_true", "y_pred"])
def test_a_nan_glucose_value_is_rejected(nan_in):
    # a NaN is not > 0; before, one NaN prediction scored CG-EGA AP 1.0
    series = {"y_true": [100.0, 120.0, 140.0], "y_pred": [100.0, 120.0, 140.0]}
    series[nan_in][1] = np.nan
    with pytest.raises(ValueError, match="positive numbers"):
        make_series(**series)


# --- rates ---------------------------------------------------------------------

def test_rates_constant_and_ramp():
    rt, rp = rates(make_series([120, 120, 120], [120, 120, 120]))
    assert np.array_equal(rt, [0.0, 0.0]) and np.array_equal(rp, [0.0, 0.0])
    rt, _ = rates(make_series([100, 105, 110], [100, 105, 110]))
    assert np.array_equal(rt, [1.0, 1.0])


def test_mape_scale_invariant_rmse_scales():
    y = [100.0, 150.0, 220.0]
    p = [90.0, 160.0, 200.0]
    a = make_series(y, p)
    b = make_series([2 * v for v in y], [2 * v for v in p])
    assert mape(a) == pytest.approx(mape(b), rel=1e-12)
    assert rmse(b) == pytest.approx(2 * rmse(a), rel=1e-12)


def test_mean_predictor_rmse_equals_target_std():
    # a stub that always predicts the (standardized) mean scores exactly the
    # spread of the evaluated targets
    rng = np.random.default_rng(77)
    raw = rng.normal(140.0, 22.0, size=400)
    scaling = Scaling(np.zeros(3), np.ones(3), target_mean=float(raw.mean()),
                      target_std=float(raw.std()))
    ts = stamps(*range(0, 5 * 400, 5))
    series = reconstruct(ts, scaling.apply_target(raw), np.zeros(400), scaling)
    assert rmse(series) == pytest.approx(float(raw.std()), rel=1e-12)


def test_reconstruct_inverts_target_standardization():
    # predicting the standardized truth reconstructs the raw truth exactly
    raw = np.array([93.0, 147.5, 201.25, 88.0])
    scaling = Scaling(np.zeros(3), np.ones(3), target_mean=float(raw.mean()),
                      target_std=float(raw.std()))
    ts = stamps(0, 5, 10, 15)
    series = reconstruct(ts, scaling.apply_target(raw), scaling.apply_target(raw),
                         scaling)
    assert np.allclose(series.y_pred, raw, atol=1e-12)
    assert np.allclose(series.y_pred, series.y_true, atol=1e-12)


def test_rates_use_actual_timestamp_gaps():
    t = np.array([np.datetime64("2026-01-05T00:00", "m"),
                  np.datetime64("2026-01-05T00:05", "m"),
                  np.datetime64("2026-01-05T00:20", "m")])
    s = PredictionSeries(t=t, y_true=np.array([100.0, 110.0, 140.0]),
                         y_pred=np.array([100.0, 100.0, 130.0]))
    rt, rp = rates(s)
    assert np.allclose(rt, [2.0, 2.0])
    assert np.allclose(rp, [0.0, 2.0])


# --- point grid ------------------------------------------------------------------

def test_p_ega_examples():
    assert p_ega(100.0, 100.0, 0.0) == "A"
    assert p_ega(50.0, 200.0, 0.0) == "E"
    assert p_ega(100.0, 118.0, 0.0) == "A"  # within 20%
    assert p_ega(100.0, 125.0, 0.0) == "B"
    assert p_ega(100.0, 215.0, 0.0) == "C"
    assert p_ega(50.0, 100.0, 0.0) == "D"
    assert p_ega(250.0, 100.0, 0.0) == "D"
    assert p_ega(200.0, 60.0, 0.0) == "E"


def test_p_ega_rate_expansion_relaxes_upper_zones():
    # falling fast: overestimates get extra room
    assert p_ega(100.0, 125.0, 0.0) == "B"
    assert p_ega(100.0, 125.0, -1.5) == "A"   # 1.2*100 + 10
    assert p_ega(100.0, 135.0, -2.5) == "A"   # 1.2*100 + 20
    # rising fast: underestimates get extra room
    assert p_ega(100.0, 75.0, 1.5) == "A"     # 0.8*100 - 10
    assert p_ega(100.0, 75.0, 0.0) == "B"


def test_p_ega_boundary_rates_match_documented_rule():
    # expansion bands: upper active on [-2,-1), lower on (1,2]
    assert p_ega(100.0, 125.0, -1.0) == "B"
    assert p_ega(100.0, 125.0, -2.0) == "A"
    assert p_ega(100.0, 75.0, 1.0) == "B"
    assert p_ega(100.0, 75.0, 2.0) == "A"


# --- rate grid --------------------------------------------------------------------

def test_r_ega_examples():
    assert r_ega(1.3, 1.3) == "A"
    assert r_ega(0.0, 4.0) == "uE"
    assert r_ega(-3.0, 3.0) == "uE"
    assert r_ega(0.0, -4.0) == "lE"
    assert r_ega(-3.0, -0.5) == "uD"
    assert r_ega(3.0, 0.5) == "lD"
    assert r_ega(2.0, 4.5) == "uC"
    assert r_ega(-2.0, -4.5) == "lC"
    assert r_ega(0.0, 1.5) == "B"


# --- combination --------------------------------------------------------------------

def test_cg_ega_classify_examples():
    assert cg_ega_classify("A", "A", "eu") == "AP"
    for rz in ("A", "B", "uC", "lC", "uD", "lD", "uE", "lE"):
        assert cg_ega_classify("E", rz, "hypo") == "EP"
    assert cg_ega_classify("A", "uC", "eu") == "BE"
    with pytest.raises(ValueError):
        cg_ega_classify("A", "A", "nowhere")
    with pytest.raises(ValueError):
        cg_ega_classify("Z", "A", "eu")


def test_glycemic_region_thresholds():
    assert glycemic_region(69.999) == "hypo"
    assert glycemic_region(70.0) == "eu"
    assert glycemic_region(180.0) == "eu"
    assert glycemic_region(180.001) == "hyper"


# --- tables vs oracle ----------------------------------------------------------------

def test_point_tables_match_oracle_on_grid():
    glucose = np.arange(20.0, 601.0, 4.0)
    rates_axis = np.array([-3.0, -2.0, -1.5, -1.0, 0.0, 1.0, 1.5, 2.0, 3.0])
    yt, yp, rr = np.meshgrid(glucose, glucose, rates_axis, indexing="ij")
    got = p_ega(yt.ravel(), yp.ravel(), rr.ravel())
    expect = point_zones_oracle(yt.ravel(), yp.ravel(), rr.ravel())
    assert np.array_equal(got, expect)


def test_rate_tables_match_oracle_on_grid():
    axis = np.round(np.arange(-5.0, 5.0001, 0.1), 10)
    rt, rp = np.meshgrid(axis, axis, indexing="ij")
    got = r_ega(rt.ravel(), rp.ravel())
    expect = rate_zones_oracle(rt.ravel(), rp.ravel())
    assert np.array_equal(got, expect)


def test_combination_tables_match_closed_form_rule():
    for region in ("hypo", "eu", "hyper"):
        for pz in ("A", "B", "C", "D", "E"):
            for rz in ("A", "B", "uC", "lC", "uD", "lD", "uE", "lE"):
                assert cg_ega_classify(pz, rz, region) == \
                    classify_oracle(pz, rz, region)


def test_zone_maps_are_total():
    rng = np.random.default_rng(8)
    yt = rng.uniform(20, 600, size=20000)
    yp = rng.uniform(20, 600, size=20000)
    rr = rng.uniform(-5, 5, size=20000)
    zones = p_ega(yt, yp, rr)
    assert set(np.unique(zones)) <= {"A", "B", "C", "D", "E"}
    rzones = r_ega(rr, rng.uniform(-5, 5, size=20000))
    assert set(np.unique(rzones)) <= {"A", "B", "uC", "lC", "uD", "lD", "uE", "lE"}


# --- report ------------------------------------------------------------------------

def test_perfect_constant_prediction_all_ap():
    s = make_series([120] * 10, [120] * 10)
    report = cg_ega_report(s)
    assert report.overall["AP"] == 1.0
    assert report.n_classified == 9
    assert report.rates["eu"]["AP"] == 1.0


def test_report_absent_regions_have_none_rates():
    s = make_series([120] * 5, [121] * 5)
    report = cg_ega_report(s)
    assert report.rates["hypo"] is None and report.rates["hyper"] is None
    assert sum(report.counts["eu"].values()) == 4


def test_report_counts_sum_to_n_minus_one():
    rng = np.random.default_rng(12)
    y = np.clip(rng.normal(140, 40, size=50), 40, 400)
    p = np.clip(y + rng.normal(0, 20, size=50), 40, 400)
    report = cg_ega_report(make_series(list(y), list(p)))
    total = sum(sum(c.values()) for c in report.counts.values())
    assert total == 49 == report.n_classified
    for reg, r in report.rates.items():
        if r is not None:
            assert sum(r.values()) == pytest.approx(1.0)


def test_report_region_rates_sum_to_one_when_present():
    y = [60, 62, 64, 120, 125, 130, 200, 210, 220]
    p = [61, 60, 70, 119, 140, 150, 205, 260, 150]
    report = cg_ega_report(make_series(y, p))
    for reg in ("hypo", "eu", "hyper"):
        assert report.rates[reg] is not None
        assert sum(report.rates[reg].values()) == pytest.approx(1.0)


def test_points_csv_writes_the_report_per_point_results(tmp_path, monkeypatch):
    rng = np.random.default_rng(5)
    y = np.clip(rng.normal(140, 60, size=60), 40, 400)
    p = np.clip(y + rng.normal(0, 30, size=60), 40, 400)
    series = make_series(list(y), list(p))
    rate_true, rate_pred = rates(series)
    expected = [[str(series.t[k + 1]), repr(float(y[k + 1])), repr(float(p[k + 1])),
                 repr(float(rate_true[k])), repr(float(rate_pred[k])),
                 p_ega(y[k + 1], p[k + 1], rate_true[k]),
                 r_ega(rate_true[k], rate_pred[k]), glycemic_region(y[k + 1])]
                for k in range(len(y) - 1)]
    for row in expected:
        row.append(cg_ega_classify(*row[5:8]))
    report = cg_ega_report(series)

    def classified_again(*args):
        raise AssertionError("write_points_csv classified a point again")
    for name in ("rates", "p_ega", "r_ega", "glycemic_region", "cg_ega_classify"):
        monkeypatch.setattr(grids, name, classified_again)
    write_points_csv(series, report, tmp_path / "points.csv")
    with open(tmp_path / "points.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["timestamp", "y_true", "y_pred", "rate_true", "rate_pred",
                       "p_zone", "r_zone", "region", "class"]
    assert rows[1:] == expected
