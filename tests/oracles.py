"""Brute-force reference implementations shared by the unit and acceptance
tests. These deliberately use plain python loops or single-vector steps,
independent of the batched library code they check."""

from dataclasses import dataclass

import numpy as np

from deckmotion import restperiod as rp
from deckmotion import seriesdata as sd


def scan_oracle(samples, dt, criteria, t0=0.0, index_offset=0):
    """Naive per-sample scan: calm flags, then maximal runs, then the
    min_duration filter."""
    n = len(samples)
    heave = [float(s[0]) for s in samples]
    calm = []
    for k in range(n):
        ok = abs(samples[k][1]) <= criteria.pitch_max and abs(samples[k][2]) <= criteria.roll_max
        if ok and criteria.heave_rate_max is not None:
            if n == 1:
                rate = 0.0
            elif k == 0:
                rate = (heave[1] - heave[0]) / dt
            elif k == n - 1:
                rate = (heave[n - 1] - heave[n - 2]) / dt
            else:
                rate = (heave[k + 1] - heave[k - 1]) / (2.0 * dt)
            ok = abs(rate) <= criteria.heave_rate_max
        calm.append(ok)
    runs = []
    k = 0
    while k < n:
        if calm[k]:
            start = k
            while k + 1 < n and calm[k + 1]:
                k += 1
            duration = float((k - start) * dt)
            if duration >= criteria.min_duration:
                si, ei = start + index_offset, k + index_offset
                runs.append(
                    rp.RestInterval(
                        start_index=si,
                        end_index=ei,
                        start_time=t0 + si * dt,
                        end_time=t0 + ei * dt,
                        duration=duration,
                    )
                )
        k += 1
    return runs


def random_series(rng, max_len=200):
    n = int(rng.integers(1, max_len + 1))
    samples = rng.normal(scale=rng.uniform(0.1, 3.0), size=(n, 3))
    return sd.MotionSeries(dt=float(rng.uniform(0.05, 0.5)), samples=samples)


def random_criteria(rng):
    return rp.RestCriteria(
        pitch_max=float(rng.uniform(0.1, 2.0)),
        roll_max=float(rng.uniform(0.1, 2.0)),
        heave_rate_max=float(rng.uniform(0.5, 10.0)) if rng.uniform() < 0.5 else None,
        min_duration=float(rng.uniform(0.0, 2.0)) if rng.uniform() < 0.5 else 0.0,
    )


@dataclass
class LstmState:
    """Hidden activation h and cell state c after a step."""

    h: np.ndarray
    c: np.ndarray


def zero_state(hidden_dim):
    return LstmState(h=np.zeros(hidden_dim), c=np.zeros(hidden_dim))


def _sigmoid(z):
    with np.errstate(over="ignore"):  # exp overflow saturates cleanly to 0
        return 1.0 / (1.0 + np.exp(-z))


def cell_forward(params, x, state):
    """One LSTM step on a single input vector, the per-step oracle for the
    batched kernels."""
    x = np.asarray(x, dtype=np.float64)
    H = params.hidden_dim
    z = params.wx @ x + params.wh @ state.h + params.b
    i = _sigmoid(z[:H])
    f = _sigmoid(z[H : 2 * H])
    g = np.tanh(z[2 * H : 3 * H])
    o = _sigmoid(z[3 * H :])
    c = f * state.c + i * g
    return LstmState(h=o * np.tanh(c), c=c)
