import csv
import io
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glucast import synthdata
from glucast.datapipe import (
    GlucoseSeries,
    SampleSet,
    SplitSpec,
    build_samples,
    clean_spikes,
    preprocess_series,
    read_archive_split,
    read_patient_archive,
    read_sample_csv,
    read_scaling_json,
    read_series_csv,
    recover_missing,
    resample,
    split,
    standardize,
    write_patient_archive,
    write_sample_csv,
    write_series_csv,
)
from glucast.datapipe.archive import BLOCK_ROWS
from glucast.errors import ConfigError, IngestionError


def minutes(*offsets):
    base = np.datetime64("2026-01-05T00:00", "m")
    return base + np.array(offsets, dtype=np.int64) * np.timedelta64(1, "m")


def series(offsets, glucose, cho=None, insulin=None, patient_id="p"):
    n = len(offsets)
    return GlucoseSeries(
        patient_id=patient_id,
        t=minutes(*offsets),
        glucose=np.asarray(glucose, dtype=np.float64),
        cho=np.zeros(n) if cho is None else np.asarray(cho, dtype=np.float64),
        insulin=np.zeros(n) if insulin is None else np.asarray(insulin, dtype=np.float64),
    )


def gridded(n, glucose=None, cho=None, insulin=None):
    return series(list(range(0, 5 * n, 5)),
                  [120.0] * n if glucose is None else glucose, cho, insulin)


# --- series invariants -------------------------------------------------------

def test_series_rejects_duplicates_and_out_of_range():
    with pytest.raises(IngestionError):
        series([0, 0, 5], [100, 100, 100])
    with pytest.raises(IngestionError):
        series([0, 5], [100, 700])


def test_series_csv_round_trip(tmp_path):
    s = series([0, 5, 12], [100.0, np.nan, 140.5], cho=[0, 25.5, 0],
               insulin=[1.5, 0, 0])
    path = tmp_path / "p01.csv"
    write_series_csv(s, path)
    back = read_series_csv(path)
    assert back.patient_id == "p01"
    assert np.array_equal(back.t, s.t)
    assert np.array_equal(np.isfinite(back.glucose), np.isfinite(s.glucose))
    assert np.array_equal(back.glucose[np.isfinite(s.glucose)],
                          s.glucose[np.isfinite(s.glucose)])
    assert np.array_equal(back.cho, s.cho)
    assert np.array_equal(back.insulin, s.insulin)


def test_series_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,glucose\n2026-01-05T00:00,100\n")
    with pytest.raises(IngestionError):
        read_series_csv(path)


# --- clean_spikes -------------------------------------------------------------

def test_spike_monotone_ramp_unchanged():
    s = series([0, 5, 10, 15], [100, 130, 160, 190])
    out = clean_spikes(s, threshold=50)
    assert np.array_equal(out.glucose, s.glucose)


def test_spike_isolated_peak_removed():
    s = series([0, 5, 10], [100, 300, 102])
    out = clean_spikes(s, threshold=50)
    assert np.isnan(out.glucose[1])
    assert out.glucose[0] == 100 and out.glucose[2] == 102


def test_spike_gradual_rise_kept():
    s = series([0, 5, 10, 15], [100, 130, 160, 190])
    assert np.array_equal(clean_spikes(s, threshold=50).glucose, s.glucose)
    # same-direction big jumps are not spikes
    s2 = series([0, 5, 10], [100, 180, 260])
    assert np.array_equal(clean_spikes(s2, threshold=50).glucose, s2.glucose)


def test_spike_endpoints_never_removed():
    s = series([0, 5, 10], [300, 100, 290])
    out = clean_spikes(s, threshold=50)
    assert np.isfinite(out.glucose[0]) and np.isfinite(out.glucose[2])
    assert np.isnan(out.glucose[1])


def test_spike_skips_missing_neighbors():
    s = series([0, 5, 10, 15], [100, np.nan, 300, 101])
    out = clean_spikes(s, threshold=50)
    # neighbors of the 300 reading are the present 100 and 101 readings
    assert np.isnan(out.glucose[2])


# --- resample ------------------------------------------------------------------

def test_resample_already_on_grid_is_noop():
    s = gridded(10, cho=[0, 20, 0, 0, 0, 0, 0, 0, 0, 0])
    out = resample(s)
    assert np.array_equal(out.t, s.t)
    assert np.array_equal(out.glucose, s.glucose)
    assert np.array_equal(out.cho, s.cho)


def test_resample_15min_glucose_slot_count():
    s = series([0, 15, 30, 45, 60], [100, 110, 120, 130, 140])
    out = resample(s, period_minutes=5)
    assert len(out) == 13
    assert np.sum(np.isfinite(out.glucose)) == 5
    assert np.sum(~np.isfinite(out.glucose)) == 8
    assert np.array_equal(out.glucose[[0, 3, 6, 9, 12]], [100, 110, 120, 130, 140])


def test_resample_sums_event_mass_in_shared_slot():
    s = series([0, 6, 8, 10], [100, np.nan, np.nan, 105], cho=[0, 30, 25, 0])
    out = resample(s, period_minutes=5)
    assert out.cho[1] == 30 and out.cho[2] == 25  # 6 -> slot 1, 8 -> slot 2
    merged = series([0, 6, 7, 10], [100, np.nan, np.nan, 105], cho=[0, 30, 25, 0])
    out2 = resample(merged, period_minutes=5)
    assert out2.cho[1] == 55.0  # mass preserved in one slot
    assert out2.cho.sum() == 55.0


def test_resample_nearest_ties_to_earlier():
    # 15 min with a 10-minute grid: equidistant between slots 1 and 2
    s = series([0, 15], [100, 110])
    out = resample(s, period_minutes=10)
    assert np.array_equal(np.isfinite(out.glucose), [True, True])
    assert out.glucose[1] == 110.0


# --- build_samples ---------------------------------------------------------------

def test_build_samples_boundary_counts():
    assert len(build_samples(gridded(43), seq_len=37, ph_steps=6)) == 1
    assert len(build_samples(gridded(42), seq_len=37, ph_steps=6)) == 0
    assert len(build_samples(gridded(100), seq_len=37, ph_steps=6)) == 100 - 37 - 6 + 1


def test_build_samples_window_layout():
    n = 50
    glucose = list(np.linspace(100, 149, n))
    s = gridded(n, glucose=glucose)
    samples = build_samples(s, seq_len=37, ph_steps=6)
    first = samples[0]
    assert np.array_equal(first.inputs[:, 0], glucose[:37])
    assert first.target == glucose[37 - 1 + 6]
    assert first.t == s.t[36]
    assert first.target_t == s.t[42]


# --- recover_missing ----------------------------------------------------------------

def window(gvalues, target=130.0):
    inputs = np.zeros((len(gvalues), 3))
    inputs[:, 0] = gvalues
    from glucast.datapipe.pipeline import Sample
    return Sample(inputs=inputs, target=target,
                  t=np.datetime64("2026-01-05T03:00", "m"),
                  target_t=np.datetime64("2026-01-05T03:30", "m"))


def test_recover_interior_midpoint():
    out = recover_missing([window([100.0, np.nan, 120.0])])
    assert np.array_equal(out[0].inputs[:, 0], [100.0, 110.0, 120.0])


def test_recover_trailing_extrapolation():
    out = recover_missing([window([100.0, 110.0, np.nan])])
    assert np.array_equal(out[0].inputs[:, 0], [100.0, 110.0, 120.0])


def test_recover_leading_extrapolation():
    out = recover_missing([window([np.nan, 110.0, 120.0])])
    assert np.array_equal(out[0].inputs[:, 0], [100.0, 110.0, 120.0])


def test_recover_discards_missing_target_and_sparse_windows():
    assert recover_missing([window([100.0, np.nan, 120.0], target=np.nan)]) == []
    assert recover_missing([window([np.nan, 110.0, np.nan])]) == []


def test_recover_full_window_untouched():
    w = window([100.0, 105.0, 110.0])
    out = recover_missing([w])
    assert out[0] is w


# --- split / standardize ---------------------------------------------------------------

def make_samples(n, start_minute=0):
    out = []
    rng = np.random.default_rng(1)
    from glucast.datapipe.pipeline import Sample
    base = np.datetime64("2026-01-05T00:00", "m")
    for i in range(n):
        t = base + np.timedelta64(start_minute + 5 * i, "m")
        inputs = rng.normal(loc=[120, 10, 1], scale=[25, 5, 0.5], size=(4, 3))
        out.append(Sample(inputs=inputs, target=float(rng.normal(120, 25)),
                          t=t, target_t=t + np.timedelta64(30, "m")))
    return out


def test_split_boundaries_and_counts():
    samples = make_samples(15 * 288)  # 15 days of 5-minute samples
    spec = SplitSpec(test_days=5, valid_fraction=0.2)
    train, valid, test = split(samples, spec)
    cutoff = samples[-1].target_t - np.timedelta64(5 * 24 * 60, "m")
    assert all(s.target_t > cutoff for s in test)
    assert all(s.target_t <= cutoff for s in train + valid)
    assert max(s.t for s in train) < min(s.t for s in valid)
    rest = len(train) + len(valid)
    assert len(valid) == int(round(rest * 0.2))


def test_split_index_arithmetic_80_20():
    samples = make_samples(1250)
    # choose test_days so that exactly the last 250 samples are test
    spec = SplitSpec(test_days=1, valid_fraction=0.2)
    train, valid, test = split(samples, spec)
    assert len(test) == 288  # one day of 5-minute samples
    rest = 1250 - 288
    assert len(train) == rest - int(round(rest * 0.2))
    assert len(valid) == int(round(rest * 0.2))


def test_split_degenerate_guard():
    samples = make_samples(100)
    with pytest.raises(ConfigError):
        split(samples, SplitSpec(test_days=30, valid_fraction=0.2))


def test_standardize_moments_and_round_trip():
    samples = make_samples(1000)
    train, valid, test = split(samples, SplitSpec(test_days=1, valid_fraction=0.2))
    tr, va, te, scaling = standardize(train, valid, test)
    g = tr.x[:, :, 0].reshape(-1)
    assert abs(g.mean()) < 1e-9
    assert abs(g.var() - 1.0) < 1e-9
    assert abs(tr.y.mean()) < 1e-9

    y_back = scaling.invert_target(tr.y)
    expect = np.array([s.target for s in train])
    assert np.allclose(y_back, expect, atol=1e-10)
    x_back = scaling.invert_inputs(tr.x)
    assert np.allclose(x_back, np.stack([s.inputs for s in train]), atol=1e-10)


def test_standardize_constant_column_fallback():
    samples = make_samples(1000)
    for s in samples:
        s.inputs[:, 2] = 0.0
    train, valid, test = split(samples, SplitSpec(test_days=1, valid_fraction=0.2))
    with pytest.warns(UserWarning):
        tr, va, te, scaling = standardize(train, valid, test)
    assert scaling.input_mean[2] == 0.0 and scaling.input_std[2] == 1.0
    assert np.array_equal(tr.x[:, :, 2], np.zeros_like(tr.x[:, :, 2]))


def test_no_test_leakage_into_scaling_or_training_sets():
    rng = np.random.default_rng(3)
    n = 12 * 288
    glucose = list(np.clip(rng.normal(130, 20, size=n), 60, 350))
    s = gridded(n, glucose=glucose)
    samples = recover_missing(build_samples(s))
    spec = SplitSpec(test_days=3, valid_fraction=0.2)
    train1, valid1, test1 = split(samples, spec)
    with pytest.warns(UserWarning):  # all-zero CHO/insulin columns
        tr1, va1, _, sc1 = standardize(train1, valid1, test1)

    # permute the test-period readings only
    cutoff = samples[-1].target_t - np.timedelta64(3 * 24 * 60, "m")
    glucose2 = np.asarray(glucose).copy()
    boundary = np.flatnonzero(s.t > (cutoff - np.timedelta64(37 * 5, "m")))[0]
    glucose2[boundary:] = glucose2[boundary:][::-1]
    glucose2 = np.clip(glucose2, 60, 350)
    s2 = gridded(n, glucose=list(glucose2))
    samples2 = recover_missing(build_samples(s2))
    train2, valid2, test2 = split(samples2, spec)

    keep = min(len(train1), len(train2))
    tr_raw1 = np.stack([x.inputs for x in train1[:keep]])
    tr_raw2 = np.stack([x.inputs for x in train2[:keep]])
    # training windows that end before the modified region are untouched
    untouched = np.array([train1[i].t for i in range(keep)]) < s.t[boundary]
    assert np.array_equal(tr_raw1[untouched], tr_raw2[untouched])

    tr2_sub = [x for x in train2 if x.t < s.t[boundary]]
    tr1_sub = [x for x in train1 if x.t < s.t[boundary]]
    with pytest.warns(UserWarning):
        _, _, _, sc2 = standardize(tr2_sub, valid2, test2)
    with pytest.warns(UserWarning):
        _, _, _, sc1b = standardize(tr1_sub, valid1, test1)
    assert np.array_equal(sc1b.input_mean, sc2.input_mean)
    assert np.array_equal(sc1b.input_std, sc2.input_std)


def test_pipeline_idempotent_on_own_output():
    rng = np.random.default_rng(4)
    n = 600
    glucose = list(np.clip(rng.normal(130, 25, size=n), 60, 350))
    cho = np.zeros(n)
    cho[50] = 40.0
    s = gridded(n, glucose=glucose, cho=list(cho))
    once = resample(clean_spikes(s))
    twice = resample(clean_spikes(once))
    assert np.array_equal(once.t, twice.t)
    assert np.array_equal(once.glucose, twice.glucose, equal_nan=True)
    assert np.array_equal(once.cho, twice.cho)
    assert np.array_equal(once.insulin, twice.insulin)


# --- archives -------------------------------------------------------------------

def test_patient_archive_round_trip(tmp_path):
    samples = make_samples(400)
    train, valid, test = split(samples, SplitSpec(test_days=1, valid_fraction=0.2))
    tr, va, te, scaling = standardize(train, valid, test)
    write_patient_archive(tmp_path, "p07", tr, va, te, scaling,
                          seq_len=4, ph_steps=6, period_minutes=5)
    back = read_patient_archive(tmp_path, "p07")
    assert np.array_equal(back["train"].x, tr.x)
    assert np.array_equal(back["train"].y, tr.y)
    assert np.array_equal(back["train"].t, tr.t)
    assert np.array_equal(back["test"].target_t, te.target_t)
    assert back["scaling"].target_mean == scaling.target_mean
    assert back["meta"]["ph_steps"] == 6

    # one split alone, with only the sidecar and that split's CSV present
    (tmp_path / "p07" / "train.csv").unlink()
    (tmp_path / "p07" / "valid.csv").unlink()
    sidecar = read_scaling_json(tmp_path / "p07" / "scaling.json")
    alone = read_archive_split(tmp_path / "p07", "test", *sidecar)
    assert alone.provenance == "test"
    for name in ("x", "y", "t", "target_t"):
        assert np.array_equal(getattr(alone, name), getattr(back["test"], name))


def special_sample_set(n=BLOCK_ROWS + 6):
    """Windows of two steps that mix ordinary values with -0.0, tiny, huge
    and subnormal ones, over more rows than one block."""
    rng = np.random.default_rng(5)
    x = rng.normal(scale=3.0, size=(n, 2, 3))
    specials = [-0.0, 0.0, 0.1, 1e-05, 1e+16, 5e-324, -5e-324, -2.5, -1e+16, 1 / 3]
    x.reshape(-1)[:len(specials)] = specials
    x.reshape(-1)[-len(specials):] = specials
    y = rng.normal(size=n)
    y[:3] = [-0.0, 5e-324, -1e-05]
    t = minutes(*range(0, 5 * n, 5))
    return SampleSet(x=x, y=y, t=t, target_t=t + np.timedelta64(30, "m"),
                     provenance="test")


def csv_writer_bytes(sample_set):
    """The archive as ``csv.writer`` writes it with ``repr(float(v))`` per
    value, one row at a time."""
    n, seq_len, n_vars = sample_set.x.shape
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["timestamp"]
                    + [f"{var}_{k}" for var in ("glucose", "cho", "insulin")[:n_vars]
                       for k in range(seq_len)]
                    + ["target"])
    for i in range(n):
        writer.writerow([str(sample_set.t[i])]
                        + [repr(float(v)) for v in sample_set.x[i].T.reshape(-1)]
                        + [repr(float(sample_set.y[i]))])
    return buf.getvalue().encode("utf-8")


def test_sample_csv_golden_bytes_and_bit_exact_round_trip(tmp_path):
    s = special_sample_set()
    path = tmp_path / "test.csv"
    write_sample_csv(s, path)
    assert path.read_bytes() == csv_writer_bytes(s)

    back = read_sample_csv(path, seq_len=2, provenance="test", period_minutes=5,
                           ph_steps=6)
    for name in ("x", "y", "t", "target_t"):
        assert getattr(back, name).tobytes() == getattr(s, name).tobytes(), name
    assert np.signbit(back.x[0, 0, 0]) and np.signbit(back.y[0])
    # each window is a transposed row, the layout of stacked per-row views
    assert back.x.transpose(0, 2, 1).flags.c_contiguous


def array_bytes(sample_set):
    return sum(getattr(sample_set, name).nbytes for name in ("x", "y", "t", "target_t"))


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory it allocated, as tracemalloc
    (this process only) sees it."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_csv_memory_stays_within_a_small_multiple_of_the_arrays(tmp_path):
    profile = synthdata.default_cohort(1, seed=1)[0]
    train = preprocess_series(synthdata.generate_patient(profile, 21),
                              SplitSpec(test_days=5, valid_fraction=0.2))[0]
    assert len(train) == 3653
    path = tmp_path / "train.csv"
    # The writer works a block of rows at a time, so even one split-sized
    # temporary (a float copy, or one string reference per value) breaks this.
    _, write_peak = traced_peak(write_sample_csv, train, path)
    assert write_peak <= array_bytes(train)
    # The reader holds the parsed blocks and their concatenation, plus one
    # block of tokens.
    back, read_peak = traced_peak(read_sample_csv, path, 37, "train", 5, 6)
    assert read_peak <= 3 * array_bytes(back)


# --- malformed archives ------------------------------------------------------------

ARCHIVE_TEXT = csv_writer_bytes(special_sample_set()).decode()


def set_field(line_no, column, token):
    def edit(lines):
        fields = lines[line_no - 1].split(",")
        fields[column] = token
        lines[line_no - 1] = ",".join(fields)
    return edit


def short_then_long(lines):
    """Line 3 loses a field and line 4 gains one: the block keeps its size."""
    lines[2] = lines[2].split(",", 2)[0] + "," + lines[2].split(",", 2)[2]
    lines[3] += ",0.5"


@pytest.mark.parametrize("edit, line, column", [
    pytest.param(set_field(5, 4, "abc"), 5, "cho_1", id="token"),
    pytest.param(lambda lines: lines.__setitem__(6, lines[6].rsplit(",", 3)[0]),
                 7, "insulin_0", id="short-row"),
    pytest.param(short_then_long, 3, "target", id="short-then-long-row"),
    pytest.param(set_field(9, 2, "nan"), 9, "glucose_1", id="nan-input"),
    pytest.param(set_field(70, -1, "inf"), 70, "target", id="inf-target-second-block"),
    pytest.param(set_field(4, 0, "2026-13-05T00:00"), 4, "timestamp", id="bad-date"),
    pytest.param(set_field(4, 0, "2026-01-05T00:15:30"), 4, "timestamp", id="seconds"),
    pytest.param(set_field(6, 0, "NaT"), 6, "timestamp", id="nat"),
    pytest.param(lambda lines: lines.insert(10, ""), 11, "glucose_0", id="blank-line"),
    pytest.param(lambda lines: lines.__setitem__(0, lines[0].replace("cho_0", "carbs_0")),
                 1, None, id="header"),
    pytest.param(lambda lines: lines.__delitem__(slice(1, None)), None, None,
                 id="header-only"),
])
def test_read_sample_csv_names_file_line_and_column_of_a_bad_row(tmp_path, edit,
                                                                  line, column):
    lines = ARCHIVE_TEXT.split("\r\n")[:-1]
    edit(lines)
    path = tmp_path / "test.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    with pytest.raises(IngestionError) as info:
        read_sample_csv(path, 2, "test", 5, 6)
    message = str(info.value)
    assert message.startswith(f"{path}: ")
    if line is None:
        assert "no sample rows" in message
    else:
        assert f"line {line}" in message
    if column is not None:
        assert f"column {column!r}" in message


def test_read_sample_csv_rejects_non_utf8(tmp_path):
    path = tmp_path / "test.csv"
    data = ARCHIVE_TEXT.encode()
    path.write_bytes(data[:400] + b"\xff\xfe" + data[400:])
    with pytest.raises(IngestionError, match="not UTF-8"):
        read_sample_csv(path, 2, "test", 5, 6)


# --- fuzzing the archive reader ---------------------------------------------------

BAD_TOKENS = ["", "abc", "nan", "-inf", "1e999", "NaT", "1.0.0", "0x10", " 0.5",
              "1_0", "-0.0", "2026-01-05", "2026-01-05T00:00", "2026-01-05T00:00:30"]


def oracle_read(text):
    """Line-by-line reference reader: (x, y, t), or None where a line breaks
    the format (field count, timestamp, finite floats) or no row exists."""
    lines = [line.rstrip("\r") for line in text.split("\r\n")]
    if text.endswith("\r\n"):
        lines.pop()
    if lines[0] != ARCHIVE_TEXT.split("\r\n")[0] or len(lines) < 2:
        return None
    xs, ys, ts = [], [], []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != 2 + 3 * 2:
            return None
        try:
            t = np.datetime64(fields[0], "m")
            values = [float(v) for v in fields[1:]]
        except ValueError:
            return None
        if np.isnat(t) or str(t) != fields[0] or not np.all(np.isfinite(values)):
            return None
        xs.append(np.reshape(values[:-1], (3, 2)).T)
        ys.append(values[-1])
        ts.append(t)
    return np.stack(xs), np.array(ys), np.array(ts, dtype="datetime64[m]")


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_read_sample_csv_fuzz_returns_oracle_windows_or_ingestion_error(data):
    lines = ARCHIVE_TEXT.split("\r\n")[:-1]
    for _ in range(data.draw(st.integers(1, 3), label="edits")):
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        fields = lines[i].split(",")
        j = data.draw(st.integers(0, len(fields) - 1), label="field")
        edit = data.draw(st.sampled_from(["number", "replace", "insert", "delete",
                                          "truncate"]), label="edit")
        if edit == "number":
            fields[j] = repr(data.draw(st.floats(allow_nan=False, allow_infinity=False),
                                       label="number"))
            lines[i] = ",".join(fields)
        elif edit in ("replace", "insert"):
            token = data.draw(st.sampled_from(BAD_TOKENS)
                              | st.text(alphabet="0123456789.-+eEinfatT: _", max_size=12),
                              label="token")
            fields[j:j + (edit == "replace")] = [token]
            lines[i] = ",".join(fields)
        elif edit == "delete":
            lines[i] = ",".join(fields[:j] + fields[j + 1:])
        else:
            lines[i] = lines[i][:data.draw(st.integers(0, len(lines[i])), label="cut")]
    text = "\r\n".join(lines) + "\r\n"
    if data.draw(st.integers(0, 3), label="truncate file") == 0:
        text = text[:data.draw(st.integers(0, len(text) - 1), label="file cut")]

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "test.csv"
        path.write_bytes(text.encode("utf-8"))
        expected = oracle_read(text)
        if expected is None:
            with pytest.raises(IngestionError, match=str(path)):
                read_sample_csv(path, 2, "test", 5, 6)
        else:
            back = read_sample_csv(path, 2, "test", 5, 6)
            for have, want in zip((back.x, back.y, back.t), expected):
                assert have.shape == want.shape and have.tobytes() == want.tobytes()
