"""Sine-superposition deck motion models.

Deck motion is represented per channel (heave, pitch, roll) as a sum of
sine components a*sin(w*t + p). Two fixed models ship with the package:
a Knox-class destroyer motion model used for training, and a rougher
sea-state-5 reference model used for validation. A seeded generator
draws random models whose per-channel amplitude sums and component
periods stay inside reference sea-state-5 ranges.

Heave is in meters; pitch and roll are in the inclination units of the
source data (consistent within a dataset, never converted).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

CHANNELS = ("heave", "pitch", "roll")

TWO_PI = 2.0 * math.pi

# Each component is built as a Python object, so a spec's cost grows with this.
MAX_COMPONENTS_PER_CHANNEL = 1000


@dataclass(frozen=True)
class SineComponent:
    """One sinusoidal term a*sin(omega*t + phase)."""

    amplitude: float
    omega: float  # angular frequency, rad/s
    phase: float = 0.0  # rad

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0):
            raise ValueError(f"amplitude must be a positive finite number, got {self.amplitude}")
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be a positive finite number, got {self.omega}")
        if not math.isfinite(self.phase):
            raise ValueError(f"phase must be finite, got {self.phase}")

    @property
    def period(self) -> float:
        """Component period 2*pi/omega, seconds."""
        return TWO_PI / self.omega


@dataclass(frozen=True)
class WaveModel:
    """Tri-channel sine-superposition model of deck motion."""

    heave: tuple[SineComponent, ...]
    pitch: tuple[SineComponent, ...]
    roll: tuple[SineComponent, ...]
    label: str = ""

    def __post_init__(self):
        for name in CHANNELS:
            comps = tuple(getattr(self, name))
            if len(comps) == 0:
                raise ValueError(f"channel {name!r} needs at least one component")
            if not math.isfinite(sum(c.amplitude for c in comps)):
                raise ValueError(f"channel {name!r} amplitudes sum beyond float64")
            object.__setattr__(self, name, comps)

    def channel(self, name: str) -> tuple[SineComponent, ...]:
        if name not in CHANNELS:
            raise ValueError(f"unknown channel {name!r}")
        return getattr(self, name)

    def amplitude_sums(self) -> tuple[float, float, float]:
        """Per-channel sum of component amplitudes (a hard bound on |value|)."""
        return tuple(sum(c.amplitude for c in self.channel(n)) for n in CHANNELS)


def evaluate_model_array(model: WaveModel, times: np.ndarray) -> np.ndarray:
    """Evaluate the model at an array of times; returns shape (len(times), 3)."""
    times = np.asarray(times, dtype=np.float64)
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    # in Python floats an overflow gives inf, not a numpy warning
    span = float(np.abs(times).max(initial=0.0))
    out = np.zeros((times.size, 3))
    for k, name in enumerate(CHANNELS):
        for c in model.channel(name):
            if not math.isfinite(c.omega * span + abs(c.phase)):
                raise ValueError(f"phase overflows float64: {name} omega={c.omega!r} over |t| up to {span!r} s")
            out[:, k] += c.amplitude * np.sin(c.omega * times + c.phase)
    return out


def knox_training_model() -> WaveModel:
    """Knox-class destroyer deck motion model used as the training signal."""
    return WaveModel(
        heave=(
            SineComponent(0.2172, 0.4),
            SineComponent(0.4714, 0.5),
            SineComponent(0.3592, 0.6),
            SineComponent(0.2227, 0.7),
        ),
        pitch=(
            SineComponent(0.005, 0.46),
            SineComponent(0.00946, 0.58),
            SineComponent(0.00725, 0.7),
            SineComponent(0.00845, 0.82),
        ),
        roll=(
            SineComponent(0.021, 0.46),
            SineComponent(0.0431, 0.54),
            SineComponent(0.029, 0.62),
            SineComponent(0.022, 0.67),
        ),
        label="knox",
    )


def sea_state5_reference_model() -> WaveModel:
    """Fixed sea-state-5 composite model used for validation runs."""
    return WaveModel(
        heave=(
            SineComponent(0.25, 0.785),
            SineComponent(0.35, 0.9),
            SineComponent(0.45, 1.1),
            SineComponent(0.5, 1.256),
        ),
        pitch=(
            SineComponent(0.35, 0.8),
            SineComponent(0.45, 0.85),
            SineComponent(0.55, 0.95),
            SineComponent(0.625, 1.156),
        ),
        roll=(
            SineComponent(2.6, 0.483),
            SineComponent(1.8, 0.5),
            SineComponent(2.5, 0.6),
            SineComponent(3.0, 0.785),
        ),
        label="seastate5",
    )


@dataclass(frozen=True)
class ChannelSpec:
    """Constraints for one randomly generated channel."""

    amplitude_sum_range: tuple[float, float]  # channel units
    period_range: tuple[float, float]  # seconds

    def __post_init__(self):
        for rng_name in ("amplitude_sum_range", "period_range"):
            low, high = getattr(self, rng_name)
            if not (math.isfinite(low) and math.isfinite(high) and 0 < low < high):
                raise ValueError(f"{rng_name} must satisfy 0 < low < high, got ({low}, {high})")
            object.__setattr__(self, rng_name, (float(low), float(high)))


@dataclass(frozen=True)
class SeaStateSpec:
    """Per-channel range constraints for the random model generator."""

    heave: ChannelSpec
    pitch: ChannelSpec
    roll: ChannelSpec
    components_per_channel: int = 4

    def __post_init__(self):
        if not 1 <= self.components_per_channel <= MAX_COMPONENTS_PER_CHANNEL:
            raise ValueError(f"components_per_channel must be in 1..{MAX_COMPONENTS_PER_CHANNEL}")


def sea_state5_spec() -> SeaStateSpec:
    """Reference amplitude-sum and period ranges characterizing sea state 5.

    Amplitude columns bound the significant amplitude of each channel,
    which the generator treats as the sum of its component amplitudes.
    """
    return SeaStateSpec(
        heave=ChannelSpec(amplitude_sum_range=(1.0, 1.9), period_range=(5.0, 8.0)),
        pitch=ChannelSpec(amplitude_sum_range=(1.3, 2.5), period_range=(5.0, 8.0)),
        roll=ChannelSpec(amplitude_sum_range=(6.3, 12.0), period_range=(8.0, 13.0)),
    )


# Relative-weight window for splitting an amplitude sum across components.
# Bounded away from 0 so no component degenerates to near-zero amplitude.
_WEIGHT_LOW = 0.5
_WEIGHT_HIGH = 1.5


def random_sea_state_model(spec: SeaStateSpec, seed: int, random_phases: bool = False) -> WaveModel:
    """Draw a random model satisfying the spec; pure function of (spec, seed).

    Per channel: component periods are uniform in period_range (omega =
    2*pi/T), relative weights uniform in (0.5, 1.5) are rescaled so the
    amplitude sum is uniform in amplitude_sum_range. Phases are 0 unless
    random_phases is set, then uniform in [0, 2*pi).
    """
    rng = np.random.default_rng(seed)
    k = spec.components_per_channel
    channels = {}
    for name in CHANNELS:
        cspec: ChannelSpec = getattr(spec, name)
        periods = rng.uniform(*cspec.period_range, size=k)
        weights = rng.uniform(_WEIGHT_LOW, _WEIGHT_HIGH, size=k)
        total = rng.uniform(*cspec.amplitude_sum_range)
        amplitudes = weights / weights.sum() * total
        phases = rng.uniform(0.0, TWO_PI, size=k) if random_phases else np.zeros(k)
        channels[name] = tuple(
            SineComponent(float(a), TWO_PI / float(T), float(p))
            for a, T, p in zip(amplitudes, periods, phases)
        )
    return WaveModel(label=f"random-{seed}", **channels)


def wave_model_to_dict(model: WaveModel) -> dict:
    """JSON-ready form: {"label", "channels": {name: [{amplitude, omega, phase}]}}."""
    return {
        "label": model.label,
        "channels": {name: [asdict(c) for c in model.channel(name)] for name in CHANNELS},
    }


def _sine_component(value, channel: str) -> SineComponent:
    c = json_object(value, f"each {channel} component")
    return SineComponent(
        json_float(c["amplitude"], "amplitude"),
        json_float(c["omega"], "omega"),
        json_float(c.get("phase", 0.0), "phase"),
    )


def wave_model_from_dict(doc: dict) -> WaveModel:
    json_object(doc, "wave model document")
    try:
        channels = json_object(doc["channels"], "channels")
        kwargs = {
            name: tuple(_sine_component(c, name) for c in json_array(channels[name], f"channel {name}"))
            for name in CHANNELS
        }
        label = str(doc.get("label", ""))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed wave model document: {exc}") from exc
    return WaveModel(label=label, **kwargs)


def load_wave_model(path) -> WaveModel:
    return wave_model_from_dict(json_load(path))


def sea_state_spec_to_dict(spec: SeaStateSpec) -> dict:
    return {
        "components_per_channel": spec.components_per_channel,
        "channels": {
            name: {
                "amplitude_sum_range": list(getattr(spec, name).amplitude_sum_range),
                "period_range": list(getattr(spec, name).period_range),
            }
            for name in CHANNELS
        },
    }


def json_int(value, name: str) -> int:
    """An integer field read from a JSON document.

    Accepts an int or an integral float (8.0); rejects anything else, such
    as 40.9, true or "8", instead of truncating it.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value, name: str) -> float:
    """A float field read from a JSON document.

    Accepts an int or a float; rejects anything else, such as true or
    "0.9", instead of converting it, and an integer beyond float64.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is beyond float64 ({exc})") from exc


def json_object(value, name: str) -> dict:
    """A JSON document or section that must be an object; name says which."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    return value


def json_array(value, name: str) -> list:
    """A section of a JSON document that must be an array; name says which."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a JSON array")
    return value


def json_text(doc) -> str:
    """Indented JSON text with a final newline, as every JSON file is
    written; a non-finite number raises ValueError."""
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def json_load(path):
    """The JSON document in the file at path, as every JSON file is read; a
    file that is not UTF-8 JSON, or nests too deeply to parse, raises ValueError.
    A leading UTF-8 byte-order mark is skipped."""
    with open(path, "r", encoding="utf-8-sig") as f:
        try:
            return json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValueError(f"not valid JSON: {exc}") from exc
        except RecursionError as exc:
            raise ValueError(f"JSON nested too deeply to parse ({exc})") from exc


def sea_state_spec_from_dict(doc: dict) -> SeaStateSpec:
    json_object(doc, "sea-state spec document")
    try:
        channels = json_object(doc["channels"], "channels")
        kwargs = {}
        for name in CHANNELS:
            channel = json_object(channels[name], f"channel {name}")
            kwargs[name] = ChannelSpec(
                **{
                    field: tuple(
                        json_float(v, f"each {field} bound")
                        for v in json_array(channel[field], f"{name} {field}")
                    )
                    for field in ("amplitude_sum_range", "period_range")
                }
            )
        k = json_int(doc.get("components_per_channel", 4), "components_per_channel")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed sea-state spec document: {exc}") from exc
    return SeaStateSpec(components_per_channel=k, **kwargs)


def load_sea_state_spec(path) -> SeaStateSpec:
    return sea_state_spec_from_dict(json_load(path))
