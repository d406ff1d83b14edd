"""Series sampling, windowing, the 70/30 split, normalization, CSV I/O."""

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


def test_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,x,y,z\n0,1,2,3\n")
    with pytest.raises(ValueError):
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
