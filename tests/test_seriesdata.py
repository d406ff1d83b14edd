"""Series sampling, windowing, the 70/30 split, normalization, CSV I/O."""

import tracemalloc

import numpy as np
import pytest

from deckmotion import seriesdata as sd
from deckmotion import wavegen as wg

KNOX_HEAVE_T1 = 0.6568697182387907  # independent high-precision oracle


@pytest.fixture(scope="module")
def knox_series():
    return sd.sample_series(wg.knox_training_model(), 2000, 0.1)


def test_sample_series_length_and_times(knox_series):
    assert len(knox_series) == 2000
    assert knox_series.dt == 0.1
    assert knox_series.times[0] == 0.0
    assert np.isclose(knox_series.times[-1], 199.9)


def test_sample_series_single_point_zero_phase():
    s = sd.sample_series(wg.knox_training_model(), 1, 0.1)
    assert np.all(s.samples[0] == 0.0)


def test_sample_series_matches_direct_evaluation():
    s = sd.sample_series(wg.knox_training_model(), 3, 0.5)
    assert abs(s.samples[2, 0] - KNOX_HEAVE_T1) < 1e-12


def test_sample_series_validation():
    m = wg.knox_training_model()
    with pytest.raises(ValueError):
        sd.sample_series(m, 0, 0.1)
    with pytest.raises(ValueError):
        sd.sample_series(m, 10, 0.0)
    # the span (n-1)*dt overflows float64 before any time is built
    with pytest.raises(ValueError, match=r"n=3, dt=1e\+308"):
        sd.sample_series(m, 3, 1e308)


def test_make_windows_counts(knox_series):
    w = sd.make_windows(knox_series, 40)
    assert len(w) == 1960
    assert w.inputs.shape == (1960, 40, 3)
    assert w.targets.shape == (1960, 3)


def test_make_windows_minimal():
    s = sd.MotionSeries(dt=0.1, samples=np.arange(41 * 3, dtype=float).reshape(41, 3))
    w = sd.make_windows(s, 40)
    assert len(w) == 1
    assert w.target_indices[0] == 40


def test_make_windows_content_vs_index_table():
    rng = np.random.default_rng(2)
    samples = rng.normal(size=(50, 3))
    s = sd.MotionSeries(dt=0.1, samples=samples)
    w = sd.make_windows(s, 40)
    # hand-built index table: window k covers rows k..k+39, target row k+40
    for k in range(len(w)):
        for r in range(40):
            assert np.array_equal(w.inputs[k, r], samples[k + r])
        assert np.array_equal(w.targets[k], samples[k + 40])
        assert w.target_indices[k] == k + 40


def test_make_windows_rejects_short_series():
    s = sd.MotionSeries(dt=0.1, samples=np.zeros((40, 3)))
    with pytest.raises(ValueError):
        sd.make_windows(s, 40)
    # windows built by hand need one target and one index each
    with pytest.raises(ValueError, match="equal length"):
        sd.WindowedDataset(40, np.zeros((2, 40, 3)), np.zeros((1, 3)), np.arange(40, 42))


def test_window_target_reconstruction(knox_series):
    w = sd.make_windows(knox_series, 40)
    for k in (0, 777, 1959):
        j = int(w.target_indices[k])
        assert np.array_equal(w.inputs[k, -1], knox_series.samples[j - 1])
        assert np.array_equal(w.targets[k], knox_series.samples[j])


def test_split_sizes(knox_series):
    w = sd.make_windows(knox_series, 40)
    split = sd.split_series(w, 0.7, len(knox_series))
    assert split.boundary_index == 1400
    assert len(split.train) == 1360
    assert len(split.test) == 600
    assert int(split.test.target_indices.min()) == 1400
    assert int(split.train.target_indices.max()) == 1399


def test_split_partitions(knox_series):
    w = sd.make_windows(knox_series, 40)
    split = sd.split_series(w, 0.55, len(knox_series))
    assert len(split.train) + len(split.test) == len(w)
    assert not set(split.train.target_indices) & set(split.test.target_indices)


def test_split_rejects_empty_sides():
    s = sd.MotionSeries(dt=0.1, samples=np.zeros((50, 3)))
    w = sd.make_windows(s, 40)
    with pytest.raises(ValueError):
        sd.split_series(w, 0.05, 50)  # boundary 2 < first target 40
    with pytest.raises(ValueError):
        sd.split_series(w, 0.999, 50)  # boundary 50 > last target 49
    with pytest.raises(ValueError):
        sd.split_series(w, 1.5, 50)


def test_windows_are_read_only_views_of_the_series(knox_series):
    w = sd.make_windows(knox_series, 40)
    split = sd.split_series(w, 0.7, len(knox_series))
    for inputs in (w.inputs, split.train.inputs, split.test.inputs):
        assert np.shares_memory(inputs, knox_series.samples)
        assert not inputs.flags.writeable


def test_fit_normalizer_degenerate_channels():
    s = sd.MotionSeries(dt=0.1, samples=np.zeros((10, 3)))
    norm = sd.fit_normalizer(s, 10)
    assert np.all(norm.offset == 0.0)
    assert np.all(norm.scale == 1.0)


def test_fit_normalizer_symmetric_two_point():
    samples = np.array([[-1.0, -1.0, -1.0], [1.0, 1.0, 1.0]])
    norm = sd.fit_normalizer(sd.MotionSeries(dt=1.0, samples=samples), 2)
    assert np.all(norm.offset == 0.0)
    assert np.all(norm.scale == 1.0)


def test_fit_normalizer_scale_beyond_squaring_range(knox_series):
    # roll x 1e307 is finite, but its squared deviations overflow float64
    samples = knox_series.samples * np.array([1.0, 1.0, 1e307])
    huge = sd.fit_normalizer(sd.MotionSeries(dt=knox_series.dt, samples=samples), 1400)
    plain = sd.fit_normalizer(knox_series, 1400)
    assert np.array_equal(huge.scale[:2], plain.scale[:2])
    assert huge.scale[2] == pytest.approx(1e307 * plain.scale[2], rel=1e-9)
    samples[:, 0] = 1.7e308  # the mean itself overflows
    with pytest.raises(ValueError, match="magnitude"):
        sd.fit_normalizer(sd.MotionSeries(dt=knox_series.dt, samples=samples), 1400)


def test_fit_normalizer_scale_below_squaring_range():
    # the squared deviations of 1e-200-scale samples underflow to 0, so std
    # reads 0; the scale is still their RMS, and a constant channel's 1
    # (2^-660, about 2e-199, so that its mean is exact)
    samples = np.random.default_rng(0).normal(size=(40, 3)) * 1e-200
    samples[:, 2] = 2.0**-660
    norm = sd.fit_normalizer(sd.MotionSeries(dt=0.1, samples=samples), 40)
    rms = np.hypot.reduce(samples[:, :2] - norm.offset[:2], axis=0) / np.sqrt(40)
    assert np.array_equal(norm.scale[:2], rms)
    assert 5e-201 < rms.min() and rms.max() < 2e-200
    assert norm.scale[2] == 1.0


def test_fit_normalizer_ignores_a_strict_callers_errstate():
    # the squared deviations of 1e-200-scale samples underflow
    samples = np.random.default_rng(0).normal(size=(50, 3)) * 1e-200
    series = sd.MotionSeries(dt=0.1, samples=samples)
    norm = sd.fit_normalizer(series, 40)
    with np.errstate(all="raise"):
        strict = sd.fit_normalizer(series, 40)
    assert np.array_equal(strict.offset, norm.offset)
    assert np.array_equal(strict.scale, norm.scale)


def test_fit_normalizer_validation(knox_series):
    with pytest.raises(ValueError):
        sd.fit_normalizer(knox_series, 1)
    with pytest.raises(ValueError):
        sd.fit_normalizer(knox_series, 2001)


def test_normalizer_round_trip(knox_series):
    norm = sd.fit_normalizer(knox_series, 1400)
    back = norm.invert(sd.apply_normalizer(norm, knox_series).samples)
    assert np.max(np.abs(back - knox_series.samples)) <= 1e-12


def test_identity_normalizer_is_identity(knox_series):
    norm = sd.Normalizer()
    out = sd.apply_normalizer(norm, knox_series)
    assert np.array_equal(out.samples, knox_series.samples)


def test_normalized_training_segment_statistics(knox_series):
    norm = sd.fit_normalizer(knox_series, 1400)
    normed = sd.apply_normalizer(norm, knox_series)
    segment = normed.samples[:1400]
    assert np.all(np.abs(segment.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(segment.std(axis=0) - 1.0) < 1e-9)


def test_normalizer_validation():
    with pytest.raises(ValueError):
        sd.Normalizer(offset=np.zeros(3), scale=np.array([1.0, 0.0, 1.0]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError):
            sd.Normalizer(offset=np.array([0.0, bad, 0.0]), scale=np.ones(3))
        with pytest.raises(ValueError):
            sd.Normalizer(offset=np.zeros(3), scale=np.array([1.0, 1.0, abs(bad)]))


def test_series_validation():
    with pytest.raises(ValueError):
        sd.MotionSeries(dt=-0.1, samples=np.zeros((5, 3)))
    with pytest.raises(ValueError):
        sd.MotionSeries(dt=0.1, samples=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        sd.MotionSeries(dt=0.1, samples=np.zeros((5, 2)))
    for bad in (np.nan, np.inf, -np.inf):
        samples = np.zeros((5, 3))
        samples[3, 2] = bad
        with pytest.raises(ValueError, match="sample 3"):
            sd.MotionSeries(dt=0.1, samples=samples)


def test_series_samples_immutable(knox_series):
    with pytest.raises(ValueError):
        knox_series.samples[0, 0] = 1.0


def test_csv_round_trip(tmp_path, knox_series):
    path = tmp_path / "series.csv"
    path.write_text(sd.series_to_csv(knox_series.times, knox_series.samples))
    loaded = sd.load_series_csv(path)
    assert loaded.dt == knox_series.dt
    assert loaded.t0 == knox_series.t0
    assert np.array_equal(loaded.samples, knox_series.samples)

    text = path.read_text()
    assert text.startswith("t,heave,pitch,roll\n")
    assert len(text.splitlines()) == 2001

    # as a spreadsheet saves "CSV UTF-8": with a byte-order mark
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    loaded = sd.load_series_csv(bom)
    assert (loaded.dt, loaded.t0) == (knox_series.dt, knox_series.t0)
    assert np.array_equal(loaded.samples, knox_series.samples)


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y,z\n0,1,2,3\n")
    with pytest.raises(ValueError):
        sd.load_series_csv(path)
    for text, message in (("t,heave,pitch,roll\n", "no data rows"),
                          ("t,heave,pitch,roll\n0,1,2,3,4\n0.1,1,2,3,4\n", "expected 4 columns, got 5")):
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            sd.load_series_csv(path)


def test_csv_single_row_needs_dt(tmp_path):
    path = tmp_path / "one.csv"
    path.write_text("t,heave,pitch,roll\n0.0,1.0,2.0,3.0\n")
    with pytest.raises(ValueError):
        sd.load_series_csv(path)
    # the reader takes dt from the t column, so the writer needs two rows too
    for n in (0, 1):
        with pytest.raises(ValueError, match="two rows to give the time step"):
            sd.series_to_csv(np.arange(n) * 0.1, np.zeros((n, 3)))
    with pytest.raises(ValueError):
        sd.series_to_csv(np.arange(3) * 0.1, np.zeros((2, 3)))


def test_csv_rejects_nonuniform_times(tmp_path):
    path = tmp_path / "skew.csv"
    path.write_text("t,heave,pitch,roll\n0.0,0,0,0\n0.1,0,0,0\n0.35,0,0,0\n")
    with pytest.raises(ValueError):
        sd.load_series_csv(path)


@pytest.mark.parametrize("t0", [0.0, 1.7e9])
def test_csv_rejects_dropped_or_repeated_row(tmp_path, t0):
    # at t0 = 1.7e9, 1e-9 * max|t| is 1.7 s, 17 periods at 10 Hz; dropping
    # row 1 doubles dt, so the rows after it are off by half the read dt
    times = t0 + np.arange(200) * 0.1
    path = tmp_path / "gap.csv"
    for row in (1, 100):
        for bad in (np.delete(times, row), np.insert(times, row, times[row])):
            path.write_text(sd.series_to_csv(bad, np.zeros((len(bad), 3))))
            with pytest.raises(ValueError, match="not uniformly spaced"):
                sd.load_series_csv(path)


def test_csv_loads_long_time_column_at_epoch_times(tmp_path):
    # at 300,000 rows dt's rounding has drifted t0 + k dt past a quarter
    # step from the file's times, which must still load
    path = tmp_path / "epoch.csv"
    for n in (20_000, 300_000):
        times = 1.7e9 + np.arange(n) * 0.1
        path.write_text(sd.series_to_csv(times, np.zeros((n, 3))))
        s = sd.load_series_csv(path)
        assert len(s) == n
        assert s.t0 == times[0] and s.dt == times[1] - times[0]


def test_csv_loads_jittered_times_at_epoch_times(tmp_path):
    # each time within a quarter step of t0 + k dt, alternating 15 ms early
    # and late from row 2 on, so consecutive steps differ from dt by 30 ms
    times = 1.7e9 + np.arange(200) * 0.1
    times[2::2] += 0.015
    times[3::2] -= 0.015
    path = tmp_path / "jitter.csv"
    path.write_text(sd.series_to_csv(times, np.zeros((len(times), 3))))
    assert len(sd.load_series_csv(path)) == len(times)


# subnormal, smallest normal, halfway between doubles, the largest
# magnitudes, a negative zero, and 17 significant digits
HARD_FLOATS = ("4.9e-324", "2.4703282292062328e-324", "2.2250738585072011e-308", "2.2250738585072014e-308",
               "9007199254740993", "9007199254740995", "1e308", "-1e308", "1.7976931348623157e308",
               "-1.7976931348623157e308", "-0.0", "0.30000000000000004", "1.0000000000000002",
               "-6.0221407599999997e23", "1.2345678901234567e-89", " 1.5", "2.5 ")


def test_csv_values_read_as_float_reads_them(tmp_path):
    # each value lands in each channel, bit for bit what float() gives
    path = tmp_path / "hard.csv"
    n = len(HARD_FLOATS)
    rows = [f"{k * 0.5!r},{HARD_FLOATS[k]},{HARD_FLOATS[(k + 1) % n]},{HARD_FLOATS[(k + 2) % n]}" for k in range(n)]
    path.write_text("\n".join([sd.CSV_HEADER, *rows]) + "\n")
    samples = sd.load_series_csv(path).samples
    expected = [[float(HARD_FLOATS[(k + j) % n]) for j in range(3)] for k in range(n)]
    assert samples.tobytes() == np.array(expected).tobytes()


def test_csv_skips_blank_lines_and_names_malformed_rows(tmp_path):
    path = tmp_path / "rows.csv"
    path.write_text("\n  \nt, heave, pitch, roll\n\t\n0,1,2,3\n\n   \n0.1,1,2,3\n \n")
    assert len(sd.load_series_csv(path)) == 2
    for text, message in (("t,heave,pitch,roll\n \n\t\n", "no data rows"),
                          ("t,heave,pitch,roll\n0,1,2\n0.1,1,2\n", "expected 4 columns, got 3"),
                          ("t,heave,pitch,roll\n0,1,2,3\n0.1,1,2\n", "malformed CSV row: "),
                          ("t,heave,pitch,roll\n0,1,2,3\n0.1,1,x,3\n", "malformed CSV row: .*'x'"),
                          ("t,heave,pitch,roll\n0,1,2,3,\n0.1,1,2,3,\n", "malformed CSV row: "),
                          # float() alone accepts underscores between digits
                          # and digits other than ASCII ones
                          ("t,heave,pitch,roll\n0,1_0,2,3\n0.1,1,2,3\n", "malformed CSV row: .*'1_0'"),
                          ("t,heave,pitch,roll\n0,\u0661,2,3\n0.1,1,2,3\n", "malformed CSV row: ")):
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            sd.load_series_csv(path)
    # a byte that is not UTF-8 is a decoding error, not a malformed row
    path.write_bytes(b"t,heave,pitch,roll\n" + b"0,1,2,3\n" * 5000 + b"0.1,\xff,2,3\n")
    with pytest.raises(UnicodeDecodeError):
        sd.load_series_csv(path)


def test_csv_load_memory_is_proportional_to_rows(tmp_path):
    # the parsed (n, 4) array is 32 bytes a row; loading holds it, the
    # (n, 3) samples and a few (n,) temporaries of the spacing check, and
    # no per-row Python objects, which took about 380 bytes a row
    n = 200_000
    path = tmp_path / "long.csv"
    path.write_text(sd.series_to_csv(np.arange(n) * 0.1, np.zeros((n, 3))))
    sd.load_series_csv(path)  # warm numpy's first-call caches
    tracemalloc.start()
    try:
        assert len(sd.load_series_csv(path)) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 32 * n, peak / n


def test_csv_load_peak_memory_is_bounded_per_row(tmp_path):
    # loading keeps the parsed (n, 4) array and the (n, 3) samples, 56
    # bytes a row; the spacing check runs in stretches of CHECK_ROWS rows,
    # so its temporaries do not grow with the file, where over the whole
    # column at once they take another 33 bytes a row
    n = 200_000
    path = tmp_path / "long.csv"
    path.write_text(sd.series_to_csv(np.arange(n) * 0.1, np.zeros((n, 3))))
    sd.load_series_csv(path)  # warm numpy's first-call caches
    tracemalloc.start()
    try:
        assert len(sd.load_series_csv(path)) == n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * n, peak / n


@pytest.mark.parametrize("t0", [0.0, 1.7e9])
def test_spacing_check_sees_a_gap_at_every_stretch_edge(t0):
    # each stretch of the check takes the next row for its last step, so a
    # row dropped or repeated on either side of an edge between stretches
    # fails; at t0 = 1.7e9, where a time may sit a quarter step off its
    # grid, rows jittered by almost that much across an edge pass
    edge = sd.CHECK_ROWS
    times = t0 + np.arange(4 * edge + 3) * 0.1
    assert sd._uniformly_spaced(times)
    for row in (edge - 1, edge, edge + 1, 2 * edge):
        assert not sd._uniformly_spaced(np.delete(times, row)), row
        assert not sd._uniformly_spaced(np.insert(times, row, times[row])), row
    jittered = times.copy()
    jittered[edge - 1] -= 0.024
    jittered[edge] += 0.024
    assert sd._uniformly_spaced(jittered) == (t0 > 0)
    # by row 4 * CHECK_ROWS the grid tolerance has widened past 0.03 s, so
    # two rows 0.03 s off in opposite directions across that edge stay on
    # the grid, and only the step between them, off by 0.06 s, fails
    jittered = times.copy()
    jittered[4 * edge - 1] -= 0.03
    jittered[4 * edge] += 0.03
    assert not sd._uniformly_spaced(jittered)


@pytest.mark.parametrize("t0", [0.0, 1.7e9])
@pytest.mark.parametrize("n", [200_000, 300_000, 1_000_000])
def test_long_time_columns_pass_and_a_late_gap_fails(t0, n):
    # dt = t1 - t0 carries the rounding of t0 and t1, which t0 + k dt
    # multiplies by k: at t0 = 1.7e9 a 10 Hz column drifts 0.029 s from its
    # own times by row 300,000, past a quarter step. That drift passes, and
    # a row dropped or repeated 100 rows from the end still fails. The
    # float64 times are those series_to_csv writes, which read back exactly
    times = t0 + np.arange(n) * 0.1
    assert sd._uniformly_spaced(times)
    row = n - 100
    assert not sd._uniformly_spaced(np.delete(times, row))
    assert not sd._uniformly_spaced(np.insert(times, row, times[row]))
