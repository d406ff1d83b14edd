"""A fixed computation the benchmark times next to every workload.

On a shared 2-vCPU VM the same code runs 1.4 to 1.7 times slower in some
phases than in others, and a phase can last from a fraction of a second to
minutes. Process CPU time slows with it, so wall time of one run says as
much about the host as about the program.

The runner times the reference between operations and divides each
operation's time by the mean of the reference runs just before and just
after it.
The reference is an LSTM pass in plain numpy with its own random weights,
at the shape the workload runs: a forward pass for the forecasting
workloads, and for training a forward pass that keeps its activations
followed by backpropagation through time, so that it touches as much
memory as a training step does. It imports nothing from deckmotion and
must never change: then a change to the program moves the ratio, and a
change of host speed does not.
"""

from __future__ import annotations

import time

import numpy as np


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


class Reference:
    """A frozen LSTM pass over a (lookback, batch, 3) window batch."""

    def __init__(self, batch: int, lookback: int, hidden: int, backward: bool):
        rng = np.random.default_rng(0)
        s = 1.0 / np.sqrt(hidden)
        self.x = rng.standard_normal((lookback, batch, 3))
        self.wx = rng.uniform(-s, s, (4 * hidden, 3))
        self.wh = rng.uniform(-s, s, (4 * hidden, hidden))
        self.b = np.zeros(4 * hidden)
        self.backward = backward

    def timed(self) -> float:
        """Run once; returns the seconds taken."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0

    def run(self) -> None:
        if self.backward:
            self._train_step()
            return
        H = self.wh.shape[1]
        h = np.zeros((self.x.shape[1], H))
        c = np.zeros_like(h)
        for xt in self.x:
            z = xt @ self.wx.T + h @ self.wh.T + self.b
            c = _sigmoid(z[:, H : 2 * H]) * c + _sigmoid(z[:, :H]) * np.tanh(z[:, 2 * H : 3 * H])
            h = _sigmoid(z[:, 3 * H :]) * np.tanh(c)

    def _train_step(self) -> None:
        x, wx, wh = self.x, self.wx, self.wh
        L, B, _ = x.shape
        H = wh.shape[1]
        acts = np.empty((6, L, B, H))  # i, f, g, o, c, tanh(c) per step
        h = np.zeros((L + 1, B, H))
        c = np.zeros((B, H))
        for t in range(L):
            z = x[t] @ wx.T + h[t] @ wh.T + self.b
            i, f, g, o, ct, tc = acts[:, t]
            i[:] = _sigmoid(z[:, :H])
            f[:] = _sigmoid(z[:, H : 2 * H])
            g[:] = np.tanh(z[:, 2 * H : 3 * H])
            o[:] = _sigmoid(z[:, 3 * H :])
            ct[:] = c = f * c + i * g
            tc[:] = np.tanh(c)
            h[t + 1] = o * tc
        d_wx, d_wh = np.zeros_like(wx), np.zeros_like(wh)
        dh = np.ones((B, H))
        dc = np.zeros((B, H))
        dz = np.empty((B, 4 * H))
        for t in range(L - 1, -1, -1):
            i, f, g, o, ct, tc = acts[:, t]
            dc = dc + dh * o * (1.0 - tc * tc)
            c_prev = acts[4, t - 1] if t > 0 else 0.0
            dz[:, :H] = dc * g * i * (1.0 - i)
            dz[:, H : 2 * H] = dc * c_prev * f * (1.0 - f)
            dz[:, 2 * H : 3 * H] = dc * i * (1.0 - g * g)
            dz[:, 3 * H :] = dh * tc * o * (1.0 - o)
            d_wx += dz.T @ x[t]
            d_wh += dz.T @ h[t]
            dh = dz @ wh
            dc = dc * f
