"""Composite LSTM: one network jointly predicting heave, pitch and roll.

A single-layer LSTM consumes a lookback window of tri-channel samples and
a linear head maps the final hidden state to the joint next-sample
prediction. Gradients are exact backpropagation through time over the
whole window, in float64 throughout so finite-difference checks are tight.

Parameters are stored as the kernels run them: the four gate blocks
stacked along the leading 4H dimension of wx, wh and b, in the order input
(i), forget (f), cell candidate (g) and output (o).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._kernels import as_time_major, lstm_backward, lstm_forward, lstm_predict

# Inputs and outputs are both the heave, pitch and roll channels.
CHANNEL_DIM = 3


@dataclass(frozen=True)
class LstmConfig:
    hidden_dim: int = 64
    lookback: int = 40

    def __post_init__(self):
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        if self.lookback < 1:
            raise ValueError(f"lookback must be >= 1, got {self.lookback}")


@dataclass
class LstmParams:
    """All network weights, stacked per the kernel layout."""

    wx: np.ndarray  # (4H, CHANNEL_DIM)
    wh: np.ndarray  # (4H, H)
    b: np.ndarray  # (4H,)
    w_out: np.ndarray  # (CHANNEL_DIM, H)
    b_out: np.ndarray  # (CHANNEL_DIM,)

    def __post_init__(self):
        for name in ("wx", "wh", "b", "w_out", "b_out"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"non-finite entries in {name}")
        # a wh that is not 2-D matches no stack shape
        H = self.wh.shape[1] if self.wh.ndim == 2 else -1
        if self.wh.shape != (4 * H, H) or self.wx.shape != (4 * H, CHANNEL_DIM) or self.b.shape != (4 * H,):
            raise ValueError("inconsistent gate-stack shapes")
        if self.w_out.shape != (CHANNEL_DIM, H) or self.b_out.shape != (CHANNEL_DIM,):
            raise ValueError(f"output head must have shapes ({CHANNEL_DIM}, hidden_dim) and ({CHANNEL_DIM},)")

    @property
    def hidden_dim(self) -> int:
        return self.wh.shape[1]

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (self.wx, self.wh, self.b, self.w_out, self.b_out)

    def copy(self) -> "LstmParams":
        return LstmParams(*(a.copy() for a in self.arrays()))


def init_params(config: LstmConfig, seed: int) -> LstmParams:
    """Uniform(-s, s) weights with s = 1/sqrt(hidden_dim); zero biases
    except the forget gate, whose bias starts at 1 to keep early gradients
    flowing. Deterministic in (config, seed)."""
    rng = np.random.default_rng(seed)
    H, D, K = config.hidden_dim, CHANNEL_DIM, CHANNEL_DIM
    s = 1.0 / math.sqrt(H)
    wx = rng.uniform(-s, s, (4 * H, D))
    wh = rng.uniform(-s, s, (4 * H, H))
    w_out = rng.uniform(-s, s, (K, H))
    b = np.zeros(4 * H)
    b[H : 2 * H] = 1.0
    return LstmParams(wx=wx, wh=wh, b=b, w_out=w_out, b_out=np.zeros(K))


def _kernel_input(windows: np.ndarray) -> np.ndarray:
    """A (B, L, 3) window batch as the kernels' (L, B, 3) input."""
    x = as_time_major(windows)
    if x.shape[2] != CHANNEL_DIM:
        raise ValueError(f"windows have {x.shape[2]} channels, expected {CHANNEL_DIM}")
    return x


def predict_windows(params: LstmParams, windows: np.ndarray) -> np.ndarray:
    """Predict a whole (B, L, 3) batch at once; returns (B, 3)."""
    x = _kernel_input(windows)
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
    if targets.shape != (len(windows), CHANNEL_DIM):
        raise ValueError(f"targets shape {targets.shape} does not match batch")
    x = _kernel_input(windows)
    # overflow/invalid are legitimate here: saturated gates are well-defined,
    # and a diverging loss goes non-finite, which the training loop aborts on
    with np.errstate(over="ignore", invalid="ignore"):
        y, acts = lstm_forward(params.wx, params.wh, params.b, params.w_out, params.b_out, x)
        diff = y - targets
        loss = float(np.mean(diff * diff))
        dy = (2.0 / diff.size) * diff
        grads = lstm_backward(params.wx, params.wh, params.w_out, x, acts, dy)
    return loss, grads
