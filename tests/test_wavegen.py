"""Wave model construction, evaluation, and the seeded sea-state generator."""

import json
import math

import numpy as np
import pytest

from deckmotion import wavegen as wg
from oracles import evaluate_model

TWO_PI = 2.0 * math.pi

# Frozen from an independent high-precision (40-digit) evaluation of the
# four-term heave sum at t = 1.0.
KNOX_HEAVE_T1 = 0.6568697182387907


def test_knox_model_structure():
    m = wg.knox_training_model()
    for name in wg.CHANNELS:
        assert len(m.channel(name)) == 4
        assert all(c.phase == 0.0 for c in m.channel(name))
    assert m.heave[0].amplitude == 0.2172
    assert m.heave[0].omega == 0.4


def test_knox_model_zero_at_t0():
    m = wg.knox_training_model()
    assert evaluate_model(m, 0.0) == (0.0, 0.0, 0.0)


def test_knox_heave_at_t1_matches_oracle():
    m = wg.knox_training_model()
    h, _, _ = evaluate_model(m, 1.0)
    assert abs(h - KNOX_HEAVE_T1) < 1e-12


def test_heave_triangle_inequality():
    m = wg.knox_training_model()
    bound = sum(c.amplitude for c in m.heave)
    assert abs(bound - 1.2705) < 1e-12
    rng = np.random.default_rng(0)
    for t in rng.uniform(-1000, 1000, size=500):
        h, _, _ = evaluate_model(m, float(t))
        assert abs(h) <= bound + 1e-12  # exact bound up to summation rounding


def test_sea_state5_reference_structure():
    m = wg.sea_state5_reference_model()
    assert m.roll[3].amplitude == 3.0
    assert m.roll[3].omega == 0.785
    assert m.roll[3].phase == 0.0
    for name in wg.CHANNELS:
        assert len(m.channel(name)) == 4


def test_sea_state5_pitch_amplitude_sum_in_range():
    m = wg.sea_state5_reference_model()
    total = sum(c.amplitude for c in m.pitch)
    assert total == 1.975
    lo, hi = wg.sea_state5_spec().pitch.amplitude_sum_range
    assert lo < total < hi


def test_sea_state5_roll_periods_near_reference_band():
    m = wg.sea_state5_reference_model()
    periods = [c.period for c in m.roll]
    expected = [TWO_PI / w for w in (0.483, 0.5, 0.6, 0.785)]
    assert np.allclose(periods, expected, rtol=0, atol=1e-12)
    # the slowest component sits at 13.0087 s, a hair above the nominal
    # 13 s band edge; the other three are strictly inside
    for T in periods:
        assert 8.0 < T < 13.01


def test_spec_ranges():
    spec = wg.sea_state5_spec()
    assert spec.roll.period_range == (8.0, 13.0)
    assert spec.pitch.amplitude_sum_range == (1.3, 2.5)
    assert spec.components_per_channel == 4
    for name in wg.CHANNELS:
        ch = getattr(spec, name)
        assert ch.amplitude_sum_range[0] < ch.amplitude_sum_range[1]
        assert ch.period_range[0] < ch.period_range[1]


def test_component_validation():
    with pytest.raises(ValueError):
        wg.SineComponent(0.0, 1.0)
    with pytest.raises(ValueError):
        wg.SineComponent(-1.0, 1.0)
    with pytest.raises(ValueError):
        wg.SineComponent(1.0, 0.0)
    with pytest.raises(ValueError):
        wg.SineComponent(1.0, float("nan"))


def test_model_needs_components():
    c = wg.SineComponent(1.0, 1.0)
    with pytest.raises(ValueError):
        wg.WaveModel(heave=(), pitch=(c,), roll=(c,))
    # each component is finite, but their amplitude sum is not
    big = wg.SineComponent(1.5e308, 1.0)
    with pytest.raises(ValueError, match="amplitudes sum"):
        wg.WaveModel(heave=(big, big), pitch=(c,), roll=(c,))


def test_channel_spec_validation():
    with pytest.raises(ValueError):
        wg.ChannelSpec(amplitude_sum_range=(2.0, 1.0), period_range=(5.0, 8.0))
    with pytest.raises(ValueError):
        wg.ChannelSpec(amplitude_sum_range=(1.0, 2.0), period_range=(0.0, 8.0))


def test_generator_respects_ranges():
    spec = wg.sea_state5_spec()
    for seed in range(200):
        m = wg.random_sea_state_model(spec, seed)
        for name in wg.CHANNELS:
            ch_spec = getattr(spec, name)
            comps = m.channel(name)
            assert len(comps) == spec.components_per_channel
            total = sum(c.amplitude for c in comps)
            lo, hi = ch_spec.amplitude_sum_range
            assert lo < total < hi
            for c in comps:
                plo, phi = ch_spec.period_range
                assert plo < c.period < phi
            assert all(c.phase == 0.0 for c in comps)


def test_generator_deterministic():
    spec = wg.sea_state5_spec()
    assert wg.random_sea_state_model(spec, 7) == wg.random_sea_state_model(spec, 7)


def test_generator_seeds_differ():
    spec = wg.sea_state5_spec()
    models = {wg.random_sea_state_model(spec, s).heave for s in range(100)}
    assert len(models) == 100


def test_generator_random_phases():
    spec = wg.sea_state5_spec()
    m = wg.random_sea_state_model(spec, 3, random_phases=True)
    phases = [c.phase for name in wg.CHANNELS for c in m.channel(name)]
    assert all(0.0 <= p < TWO_PI for p in phases)
    assert any(p != 0.0 for p in phases)
    # the phase draw must not perturb the rest of the draws
    m0 = wg.random_sea_state_model(spec, 3)
    assert [c.amplitude for c in m.heave] == [c.amplitude for c in m0.heave]


def test_evaluate_linear_in_amplitudes():
    m = wg.random_sea_state_model(wg.sea_state5_spec(), 11, random_phases=True)
    k = 2.5
    scaled = wg.WaveModel(
        label="scaled",
        **{
            name: tuple(
                wg.SineComponent(k * c.amplitude, c.omega, c.phase) for c in m.channel(name)
            )
            for name in wg.CHANNELS
        },
    )
    for t in (0.3, 1.7, 42.1):
        base = evaluate_model(m, t)
        big = evaluate_model(scaled, t)
        assert np.allclose(big, np.array(base) * k, rtol=1e-12, atol=1e-12)


def test_zero_phase_model_is_odd():
    m = wg.random_sea_state_model(wg.sea_state5_spec(), 5)
    assert evaluate_model(m, 0.0) == (0.0, 0.0, 0.0)
    for t in (0.7, 3.1, 19.0):
        plus = np.array(evaluate_model(m, t))
        minus = np.array(evaluate_model(m, -t))
        assert np.allclose(plus, -minus, rtol=1e-12, atol=1e-14)


def test_evaluate_rejects_nonfinite_t():
    with pytest.raises(ValueError):
        wg.evaluate_model_array(wg.knox_training_model(), np.array([0.0, float("inf")]))


def test_array_evaluation_matches_scalar():
    m = wg.sea_state5_reference_model()
    times = np.linspace(0.0, 50.0, 101)
    arr = wg.evaluate_model_array(m, times)
    for i in (0, 17, 100):
        assert np.allclose(arr[i], evaluate_model(m, float(times[i])), atol=1e-12)


def test_wave_model_json_round_trip(tmp_path):
    m = wg.random_sea_state_model(wg.sea_state5_spec(), 9, random_phases=True)
    path = tmp_path / "model.json"
    path.write_text(wg.json_text(wg.wave_model_to_dict(m)))
    loaded = wg.load_wave_model(path)
    assert loaded == m

    doc = json.loads(path.read_text())
    assert set(doc["channels"]) == set(wg.CHANNELS)
    assert {"amplitude", "omega", "phase"} == set(doc["channels"]["heave"][0])


def test_sea_state_spec_json_round_trip(tmp_path):
    spec = wg.sea_state5_spec()
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(wg.sea_state_spec_to_dict(spec)))
    assert wg.load_sea_state_spec(path) == spec


NOT_OBJECTS = ("[]", "[1, 2]", '"channels"', "3", "null")


def test_wave_model_document_must_be_object(tmp_path):
    path = tmp_path / "wave.json"
    for text in NOT_OBJECTS:
        path.write_text(text)
        with pytest.raises(ValueError, match="^wave model document must be a JSON object$"):
            wg.load_wave_model(path)


def test_spec_document_must_be_object(tmp_path):
    path = tmp_path / "spec.json"
    for text in NOT_OBJECTS:
        path.write_text(text)
        with pytest.raises(ValueError, match="^sea-state spec document must be a JSON object$"):
            wg.load_sea_state_spec(path)


def test_malformed_documents_rejected():
    with pytest.raises(ValueError):
        wg.wave_model_from_dict({"label": "x"})
    with pytest.raises(ValueError):
        wg.sea_state_spec_from_dict({"channels": {}})
    # not integral, or so many components that building them would exhaust memory
    for count in (2.7, 10**8):
        doc = wg.sea_state_spec_to_dict(wg.sea_state5_spec())
        doc["components_per_channel"] = count
        with pytest.raises(ValueError, match="components_per_channel"):
            wg.sea_state_spec_from_dict(doc)
    # float fields take numbers only, not booleans, numeric strings or
    # integers beyond float64
    for field, value in (("amplitude", True), ("omega", "0.9"), ("phase", 10**400)):
        doc = wg.wave_model_to_dict(wg.knox_training_model())
        doc["channels"]["pitch"][1][field] = value
        with pytest.raises(ValueError, match=field):
            wg.wave_model_from_dict(doc)
    doc = wg.sea_state_spec_to_dict(wg.sea_state5_spec())
    doc["channels"]["roll"]["period_range"] = [True, 13]
    with pytest.raises(ValueError, match="period_range"):
        wg.sea_state_spec_from_dict(doc)
