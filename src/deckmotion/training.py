"""Mini-batch training loop, optimizers, and model persistence.

Training is bitwise reproducible: parameter init is seeded, the per-epoch
shuffle derives from (shuffle_seed, epoch), and batch gradients come out
of a fixed reduction order. A non-finite loss aborts immediately rather
than being clamped, so bad hyperparameters surface at the failing batch.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass

import numpy as np

from .lstm import LstmConfig, LstmParams, init_params, loss_and_gradients, predict_windows
from .seriesdata import Normalizer, SplitDataset
from .wavegen import json_int, json_text

FORMAT_VERSION = 1

OPTIMIZERS = ("adam", "sgd")


class ModelFileError(Exception):
    """Base class for model persistence failures."""


class MalformedModelFileError(ModelFileError):
    """File is not parseable as a model document."""


class UnknownModelVersionError(ModelFileError):
    """File parses but declares an unsupported format_version."""


class ModelShapeError(ModelFileError):
    """Stored weight matrices disagree with the stored config."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 32
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
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
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"optimizer must be one of {OPTIMIZERS}, got {self.optimizer!r}")
        if self.shuffle_seed < 0:
            raise ValueError(f"shuffle_seed must be a non-negative integer, got {self.shuffle_seed}")


@dataclass
class TrainReport:
    epoch_losses: list[float]
    final_test_loss: float
    wall_time_seconds: float
    config: TrainConfig

    def to_dict(self) -> dict:
        """The report document, without the wall time, so reruns write the same bytes."""
        return {
            "epoch_losses": self.epoch_losses,
            "final_test_loss": self.final_test_loss,
            "config": asdict(self.config),
        }


@dataclass
class ModelArtifact:
    config: LstmConfig
    params: LstmParams
    normalizer: Normalizer
    provenance: str = ""


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def step(self, params: LstmParams, grads: tuple[np.ndarray, ...]) -> None:
        for p, g in zip(params.arrays(), grads):
            p -= self.lr * g


class _Adam:
    def __init__(self, lr: float, beta1: float, beta2: float, eps: float, params: LstmParams):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(a) for a in params.arrays()]
        self.v = [np.zeros_like(a) for a in params.arrays()]

    def step(self, params: LstmParams, grads: tuple[np.ndarray, ...]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k, (p, g) in enumerate(zip(params.arrays(), grads)):
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * g * g
            p -= self.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.eps)


def _make_optimizer(config: TrainConfig, params: LstmParams):
    if config.optimizer == "sgd":
        return _Sgd(config.learning_rate)
    return _Adam(config.learning_rate, config.beta1, config.beta2, config.epsilon, params)


def train(
    split: SplitDataset,
    config: TrainConfig,
    seed: int,
    normalizer: Normalizer | None = None,
    provenance: str = "",
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
    start = time.perf_counter()
    lstm_config = LstmConfig(hidden_dim=config.hidden_dim, lookback=config.lookback)
    params = init_params(lstm_config, seed)
    optimizer = _make_optimizer(config, params)

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
    with np.errstate(over="ignore", invalid="ignore"):
        diff = predict_windows(params, split.test.inputs) - split.test.targets
        final_test_loss = float(np.mean(diff * diff))
    if not math.isfinite(final_test_loss):
        raise TrainingDivergedError("non-finite test loss after the last epoch")

    artifact = ModelArtifact(
        config=lstm_config,
        params=params,
        normalizer=normalizer if normalizer is not None else Normalizer(),
        provenance=provenance,
    )
    report = TrainReport(
        epoch_losses=epoch_losses,
        final_test_loss=final_test_loss,
        wall_time_seconds=time.perf_counter() - start,
        config=config,
    )
    return artifact, report


def model_to_dict(artifact: ModelArtifact) -> dict:
    """JSON-ready document; weights as nested lists at full precision."""
    return {
        "format_version": FORMAT_VERSION,
        "config": {
            "input_dim": artifact.config.input_dim,
            "hidden_dim": artifact.config.hidden_dim,
            "output_dim": artifact.config.output_dim,
            "lookback": artifact.config.lookback,
        },
        "normalizer": {
            "offset": artifact.normalizer.offset.tolist(),
            "scale": artifact.normalizer.scale.tolist(),
        },
        "params": {name: arr.tolist() for name, arr in artifact.params.named().items()},
        "provenance": artifact.provenance,
    }


def model_from_dict(doc: dict) -> ModelArtifact:
    if not isinstance(doc, dict):
        raise MalformedModelFileError("model document must be a JSON object")
    if "format_version" not in doc:
        raise MalformedModelFileError("missing format_version")
    version = doc["format_version"]
    if version != FORMAT_VERSION:
        raise UnknownModelVersionError(f"unknown format_version {version!r}")
    try:
        cfg = doc["config"]
        config = LstmConfig(
            hidden_dim=json_int(cfg["hidden_dim"], "hidden_dim"),
            input_dim=json_int(cfg.get("input_dim", 3), "input_dim"),
            output_dim=json_int(cfg.get("output_dim", 3), "output_dim"),
            lookback=json_int(cfg["lookback"], "lookback"),
        )
        norm_doc = doc["normalizer"]
        normalizer = Normalizer(
            offset=np.array(norm_doc["offset"], dtype=np.float64),
            scale=np.array(norm_doc["scale"], dtype=np.float64),
        )
        # each block is checked before anything is stacked, so a file that
        # declares a huge hidden_dim allocates nothing of that size
        shapes = config.named_shapes()
        named = {name: _block(doc["params"], name, shape) for name, shape in shapes.items()}
        provenance = str(doc.get("provenance", ""))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedModelFileError(f"malformed model document: {exc}") from exc
    try:
        params = LstmParams.from_named(named)
    except ValueError as exc:  # e.g. non-finite weights smuggled through JSON
        raise MalformedModelFileError(f"invalid weights: {exc}") from exc
    return ModelArtifact(
        config=config, params=params, normalizer=normalizer, provenance=provenance
    )


def _block(params: dict, name: str, shape: tuple) -> np.ndarray:
    arr = np.array(params[name], dtype=np.float64)
    if arr.shape != shape:
        raise ModelShapeError(f"{name} has shape {arr.shape}, expected {shape}")
    return arr


def save_model(artifact: ModelArtifact, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(model_to_dict(artifact)))


def load_model(path) -> ModelArtifact:
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedModelFileError(f"{path}: not valid JSON: {exc}") from exc
    return model_from_dict(doc)
