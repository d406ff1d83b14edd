"""Mini-batch training loop and model persistence.

The one update rule is Adam (Kingma & Ba 2015) with the fixed constants
BETA1, BETA2 and EPSILON; only the learning rate is set.

Training is bitwise reproducible: parameter init is seeded, the per-epoch
shuffle derives from (shuffle_seed, epoch), and batch gradients come out
of a fixed reduction order. A non-finite loss aborts immediately rather
than being clamped, so bad hyperparameters surface at the failing batch.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .lstm import CHANNEL_DIM, LstmConfig, LstmParams, init_params, loss_and_gradients, predict_windows
from .seriesdata import Normalizer, SplitDataset
from .wavegen import json_int, json_load, json_object, json_text

FORMAT_VERSION = 1

# the order of the gate blocks stacked in LstmParams, which the model
# file's per-gate keys spell out
GATES = ("i", "f", "g", "o")

# Adam's decay rates and denominator guard, as in Kingma & Ba (2015)
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    shuffle_seed: int = 0
    hidden_dim: int = 64
    lookback: int = 40

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        # zero is allowed (a no-op run is a useful control), negative is not
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.shuffle_seed < 0:
            raise ValueError(f"shuffle_seed must be a non-negative integer, got {self.shuffle_seed}")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    final_test_loss: float
    config: TrainConfig


@dataclass
class ModelArtifact:
    config: LstmConfig
    params: LstmParams
    normalizer: Normalizer
    provenance: str = ""


class _Adam:
    def __init__(self, lr: float, params: LstmParams):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]

    def step(self, params: LstmParams, grads: tuple[np.ndarray, ...]) -> None:
        self.t += 1
        bc1 = 1.0 - BETA1**self.t
        bc2 = 1.0 - BETA2**self.t
        for k, (p, g) in enumerate(zip(params.arrays(), grads)):
            self.m[k] = BETA1 * self.m[k] + (1.0 - BETA1) * g
            self.v[k] = BETA2 * self.v[k] + (1.0 - BETA2) * g * g
            p -= self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + EPSILON)


def train(
    split: SplitDataset,
    config: TrainConfig,
    seed: int,
    normalizer: Normalizer | None = None,
) -> tuple[ModelArtifact, TrainReport]:
    """Train on the split's (already normalized) train windows.

    The normalizer used to prepare the data is embedded in the returned
    artifact so predictions can be mapped back to physical units; it
    defaults to the identity.
    """
    if len(split.train) == 0 or len(split.test) == 0:
        raise ValueError("train and test sets must both be non-empty")
    if split.train.lookback != config.lookback:
        raise ValueError(
            f"split lookback {split.train.lookback} != config lookback {config.lookback}"
        )
    lstm_config = LstmConfig(hidden_dim=config.hidden_dim, lookback=config.lookback)
    params = init_params(lstm_config, seed)
    optimizer = _Adam(config.learning_rate, params)

    inputs = split.train.inputs
    targets = split.train.targets
    n_train = len(split.train)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = np.random.default_rng([config.shuffle_seed, epoch]).permutation(n_train)
        total = 0.0
        for batch_no, lo in enumerate(range(0, n_train, config.batch_size)):
            idx = order[lo : lo + config.batch_size]
            loss, grads = loss_and_gradients(params, inputs[idx], targets[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
            optimizer.step(params, grads)
            total += loss * len(idx)
        epoch_losses.append(total / n_train)

    # a last batch that diverged can leave weights so large that the test
    # forecast or its squared error overflows
    with np.errstate(all="ignore"):
        diff = predict_windows(params, split.test.inputs) - split.test.targets
        final_test_loss = float(np.mean(diff * diff))
    if not math.isfinite(final_test_loss):
        raise TrainingDivergedError("non-finite test loss after the last epoch")

    artifact = ModelArtifact(
        config=lstm_config,
        params=params,
        normalizer=normalizer if normalizer is not None else Normalizer(),
    )
    report = TrainReport(
        epoch_losses=epoch_losses,
        final_test_loss=final_test_loss,
        config=config,
    )
    return artifact, report


def model_to_dict(artifact: ModelArtifact) -> dict:
    """JSON-ready document; weights as nested lists at full precision.
    params holds w_i, u_i, b_i, w_f, ..., b_o, each gate's rows of wx, wh
    and b for the gates i, f, g, o in turn, then w_out and b_out."""
    p = artifact.params
    H = p.hidden_dim
    gates = {
        f"{name}_{gate}": arr[k * H : (k + 1) * H].tolist()
        for k, gate in enumerate(GATES)
        for name, arr in (("w", p.wx), ("u", p.wh), ("b", p.b))
    }
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "input_dim": CHANNEL_DIM,
            "hidden_dim": H,
            "output_dim": CHANNEL_DIM,
            "lookback": artifact.config.lookback,
        },
        "normalizer": {
            "offset": artifact.normalizer.offset.tolist(),
            "scale": artifact.normalizer.scale.tolist(),
        },
        "params": {**gates, "w_out": p.w_out.tolist(), "b_out": p.b_out.tolist()},
        "provenance": artifact.provenance,
    }


def model_from_dict(doc: dict) -> ModelArtifact:
    """The artifact a model document describes, its parameters frozen for
    good and their gate weights fused once (LstmParams.freeze); anything else
    raises ValueError."""
    json_object(doc, "model document")
    if "format_version" not in doc:
        raise ValueError("missing format_version")
    version = json_int(doc["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unknown format_version {version!r}")
    try:
        cfg = json_object(doc["config"], "config")
        config = LstmConfig(
            hidden_dim=json_int(cfg["hidden_dim"], "hidden_dim"),
            lookback=json_int(cfg["lookback"], "lookback"),
        )
        for key in ("input_dim", "output_dim"):
            if json_int(cfg.get(key, CHANNEL_DIM), key) != CHANNEL_DIM:
                raise ValueError(f"joint tri-channel prediction requires {key} = {CHANNEL_DIM}")
        norm_doc = json_object(doc["normalizer"], "normalizer")
        normalizer = Normalizer(
            offset=_block(norm_doc, "offset", (CHANNEL_DIM,)),
            scale=_block(norm_doc, "scale", (CHANNEL_DIM,)),
        )
        # each block is checked before anything is stacked, so a file that
        # declares a huge hidden_dim allocates nothing of that size
        H, D = config.hidden_dim, CHANNEL_DIM
        per_gate = {"w": (H, D), "u": (H, H), "b": (H,)}
        gates = {f"{name}_{gate}": shape for gate in GATES for name, shape in per_gate.items()}
        shapes = {**gates, "w_out": (D, H), "b_out": (D,)}
        params_doc = json_object(doc["params"], "params")
        blocks = {name: _block(params_doc, name, shape) for name, shape in shapes.items()}
        wx, wh, b = (np.concatenate([blocks[f"{name}_{gate}"] for gate in GATES]) for name in per_gate)
        params = LstmParams(wx, wh, b, blocks["w_out"], blocks["b_out"])  # refuses non-finite weights
        params.freeze()
        provenance = str(doc.get("provenance", ""))
    # OverflowError: an integer beyond float64, such as 1e400 written in full
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return ModelArtifact(
        config=config, params=params, normalizer=normalizer, provenance=provenance
    )


def _block(section: dict, name: str, shape: tuple) -> np.ndarray:
    values = section[name]
    arr = np.array(values, dtype=np.float64)
    if arr.shape != shape:
        raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
    # np.array reads true as 1.0 and "0.5" as 0.5; like json_float, refuse both
    flat = itertools.chain.from_iterable(values) if arr.ndim == 2 else values
    others = sorted(t.__name__ for t in set(map(type, flat)) - {int, float})
    if others:
        raise ValueError(f"{name} must hold only numbers, not {' or '.join(others)}")
    return arr


def save_model(artifact: ModelArtifact, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(model_to_dict(artifact)))


def load_model(path) -> ModelArtifact:
    """The model a file holds. Its parameters are frozen for good, and their
    gate weights fused once, for every forecast from it;
    artifact.params.copy() gives writable ones."""
    return model_from_dict(json_load(path))
