"""Composite LSTM: one network jointly predicting heave, pitch and roll.

A single-layer LSTM consumes a lookback window of tri-channel samples and
a linear head maps the final hidden state to the joint next-sample
prediction. Gradients are exact backpropagation through time over the
whole window, in float64 throughout so finite-difference checks are tight.

Parameters are stored stacked (gate blocks in GATE_NAMES order within the
leading 4H dimension, matching _kernels); named per-gate views are exposed
for serialization and inspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import as_time_major, lstm_backward, lstm_forward, lstm_predict

GATE_NAMES = ("i", "f", "g", "o")


@dataclass(frozen=True)
class LstmConfig:
    hidden_dim: int = 64
    input_dim: int = 3
    output_dim: int = 3
    lookback: int = 40

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.lookback < 1:
            raise ValueError(f"lookback must be >= 1, got {self.lookback}")
        if self.input_dim != 3 or self.output_dim != 3:
            raise ValueError("joint tri-channel prediction requires input_dim = output_dim = 3")

    def named_shapes(self) -> dict[str, tuple[int, ...]]:
        """The shape of each LstmParams.named() block, in the same order."""
        H, D, K = self.hidden_dim, self.input_dim, self.output_dim
        per_gate = {"w": (H, D), "u": (H, H), "b": (H,)}
        gates = {f"{p}_{gate}": shape for gate in GATE_NAMES for p, shape in per_gate.items()}
        return {**gates, "w_out": (K, H), "b_out": (K,)}


@dataclass
class LstmParams:
    """All network weights, stacked per the kernel layout."""

    wx: np.ndarray  # (4H, input_dim)
    wh: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_out: np.ndarray  # (output_dim, H)
    b_out: np.ndarray  # (output_dim,)

    def __post_init__(self):
        for name in ("wx", "wh", "b", "w_out", "b_out"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")
        H = self.wh.shape[1]
        if self.wh.shape != (4 * H, H) or self.wx.shape[0] != 4 * H or self.b.shape != (4 * H,):
            raise ValueError("inconsistent gate-stack shapes")
        if self.w_out.shape[1] != H or self.b_out.shape != (self.w_out.shape[0],):
            raise ValueError("output head shape does not match hidden_dim")

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[1]

    @property
    def input_dim(self) -> int:
        return self.wx.shape[1]

    @property
    def output_dim(self) -> int:
        return self.w_out.shape[0]

    def named(self) -> dict[str, np.ndarray]:
        """Per-gate named views (w_i, u_i, b_i, ... w_out, b_out).

        Views share memory with the stacked arrays, so writing through
        them mutates the parameters.
        """
        H = self.hidden_dim
        stacked = {"w": self.wx, "u": self.wh, "b": self.b}
        gates = {
            f"{p}_{gate}": arr[k * H : (k + 1) * H]
            for k, gate in enumerate(GATE_NAMES)
            for p, arr in stacked.items()
        }
        return {**gates, "w_out": self.w_out, "b_out": self.b_out}

    @classmethod
    def from_named(cls, named: dict) -> "LstmParams":
        """Inverse of named(): stacks the per-gate blocks in GATE_NAMES order."""
        wx, wh, b = (np.concatenate([named[f"{p}_{gate}"] for gate in GATE_NAMES]) for p in "wub")
        return cls(wx, wh, b, named["w_out"], named["b_out"])

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.wx, self.wh, self.b, self.w_out, self.b_out)

    def copy(self) -> "LstmParams":
        return LstmParams(*(a.copy() for a in self.arrays()))


def init_params(config: LstmConfig, seed: int) -> LstmParams:
    """Uniform(-s, s) weights with s = 1/sqrt(hidden_dim); zero biases
    except the forget gate, whose bias starts at 1 to keep early gradients
    flowing. Deterministic in (config, seed)."""
    rng = np.random.default_rng(seed)
    H, D, K = config.hidden_dim, config.input_dim, config.output_dim
    s = 1.0 / math.sqrt(H)
    wx = rng.uniform(-s, s, (4 * H, D))
    wh = rng.uniform(-s, s, (4 * H, H))
    w_out = rng.uniform(-s, s, (K, H))
    b = np.zeros(4 * H)
    b[H : 2 * H] = 1.0
    return LstmParams(wx=wx, wh=wh, b=b, w_out=w_out, b_out=np.zeros(K))


def forward_window(params: LstmParams, window: np.ndarray) -> np.ndarray:
    """Predict one (lookback, 3) window, run from a zero state; returns the
    joint (3,) prediction."""
    return predict_windows(params, np.asarray(window)[None])[0]


def predict_windows(params: LstmParams, windows: np.ndarray) -> np.ndarray:
    """Predict a whole (B, L, 3) batch at once; returns (B, 3)."""
    x = as_time_major(windows)
    if x.shape[2] != params.input_dim:
        raise ValueError(f"windows have {x.shape[2]} channels, expected {params.input_dim}")
    with np.errstate(over="ignore"):
        return lstm_predict(params.wx, params.wh, params.b, params.w_out, params.b_out, x)


def loss_and_gradients(
    params: LstmParams, windows: np.ndarray, targets: np.ndarray
) -> tuple[float, tuple[np.ndarray, ...]]:
    """Mean squared error over the batch and output channels, with exact
    BPTT gradients in params.arrays() order (plain arrays, because LstmParams
    would reject the non-finite gradients of a diverging batch)."""
    windows = np.asarray(windows, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if windows.ndim != 3 or len(windows) == 0:
        raise ValueError("batch must be a non-empty (B, L, 3) array")
    if targets.shape != (len(windows), params.output_dim):
        raise ValueError(f"targets shape {targets.shape} does not match batch")
    x = as_time_major(windows)
    # overflow/invalid are legitimate here: saturated gates are well-defined,
    # and a diverging loss goes non-finite, which the training loop aborts on
    with np.errstate(over="ignore", invalid="ignore"):
        y, acts = lstm_forward(params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        diff = y - targets
        loss = float(np.mean(diff * diff))
        dy = (2.0 / diff.size) * diff
        grads = lstm_backward(params.wx, params.wh, params.w_out, x, acts, dy)
    return loss, grads
