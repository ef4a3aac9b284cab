"""Small feedforward network mapping (r, sigma, t_go) to the turn command.

Architecture is fixed at 3-30-30-30-1 with tanh hidden layers and a
linear output.  Inputs and the output are standardized to zero mean and
unit variance using statistics of the training set; the constants are
part of the model so inference is self-contained.  Training is
mini-batch gradient descent with adaptive moment estimates on the mean
squared error of the standardized output, fully deterministic for a
given seed.

``forward`` evaluates one (r, sigma, t_go) triple (a tuple, list or 1-D
array), the per-step guidance command, on 1-D vectors; it equals
``forward_batch`` on that one row to the bit.  Over many rows a matrix
product may round apart from row-by-row products in the last bit.

Models serialize to a versioned UTF-8 text format (one key per line,
arrays row-major with 17-significant-digit decimals), so a save/load
round trip reproduces forward outputs bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "LAYER_SIZES",
    "CommandModel",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "init_model",
    "forward",
    "forward_batch",
    "loss_and_gradients",
    "train",
    "save_model",
    "load_model",
]

LAYER_SIZES = (3, 30, 30, 30, 1)
MODEL_FORMAT = "fitguide-model"
MODEL_VERSION = 1


class TrainingDivergedError(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


@dataclass
class CommandModel:
    """Network weights plus the normalization constants baked in at training."""

    layer_sizes: tuple
    weights: list          # per layer, shape (n_in, n_out), row-major
    biases: list           # per layer, shape (n_out,)
    input_mean: np.ndarray
    input_scale: np.ndarray
    output_mean: float
    output_scale: float
    t_bar: float = 10.0    # horizon cap of the training data; used by guidance

    def validate(self) -> None:
        if len(self.weights) != len(self.layer_sizes) - 1 or len(self.biases) != len(self.weights):
            raise ValueError("layer count mismatch")
        for k, (W, b) in enumerate(zip(self.weights, self.biases), start=1):
            want = (self.layer_sizes[k - 1], self.layer_sizes[k])
            if W.shape != want:
                raise ValueError(f"layer {k}: weight shape {W.shape} does not match {want}")
            if b.shape != (self.layer_sizes[k],):
                raise ValueError(f"layer {k}: bias shape {b.shape} does not match ({self.layer_sizes[k]},)")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ValueError(f"layer {k}: non-finite parameters")
        if not 0.0 < self.t_bar < math.inf:
            raise ValueError("t_bar must be finite and positive")
        n_in = (self.layer_sizes[0],)
        for name, shape in (("input_mean", n_in), ("input_scale", n_in), ("output_mean", ()), ("output_scale", ())):
            v = np.asarray(getattr(self, name), dtype=float)
            if v.shape != shape or not np.all(np.isfinite(v)):
                raise ValueError(f"{name} must be {shape[0] if shape else 1} finite value(s)")
            if name.endswith("scale") and np.any(v <= 0.0):
                raise ValueError(f"{name} must be positive")


@dataclass
class TrainConfig:
    target_mse: float = 1e-4        # on standardized outputs, training set
    max_epochs: int = 200
    batch_size: int = 1024
    learning_rate: float = 1e-3
    lr_patience: int = 6
    lr_min: float = 1e-5
    validation_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (self.target_mse, self.learning_rate, self.lr_min)):
            raise ValueError("target_mse, learning_rate and lr_min must be finite and positive")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be positive")


@dataclass
class TrainReport:
    epochs_run: int
    final_train_mse: float          # standardized outputs
    final_val_mse: float
    best_val_mse: float
    final_train_mse_raw: float      # same quantity in command units
    final_val_mse_raw: float
    reached_target: bool
    history: list = field(default_factory=list)  # (epoch, train_mse, val_mse)


def init_model(seed: int = 0, layer_sizes: tuple = LAYER_SIZES) -> CommandModel:
    """Glorot-uniform initialization with identity normalization."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        lim = math.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-lim, lim, (n_in, n_out)))
        biases.append(np.zeros(n_out))
    return CommandModel(
        layer_sizes=tuple(layer_sizes),
        weights=weights,
        biases=biases,
        input_mean=np.zeros(layer_sizes[0]),
        input_scale=np.ones(layer_sizes[0]),
        output_mean=0.0,
        output_scale=1.0,
    )


def forward_batch(model: CommandModel, inputs: np.ndarray) -> np.ndarray:
    """Evaluate the network on an (n, 3) array; returns shape (n,)."""
    x = np.asarray(inputs, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite network input")
    out, _ = _forward_standardized(model.weights, model.biases, (x - model.input_mean) / model.input_scale)
    return out[:, 0] * model.output_scale + model.output_mean


def forward(model: CommandModel, inputs) -> float:
    """Evaluate the network on a single (r, sigma, t_go) triple, as 1-D vectors."""
    r, sigma, t_go = inputs
    if not (math.isfinite(r) and math.isfinite(sigma) and math.isfinite(t_go)):
        raise ValueError("non-finite network input")
    (m0, m1, m2), (s0, s1, s2) = model.input_mean.tolist(), model.input_scale.tolist()
    a = np.array(((r - m0) / s0, (sigma - m1) / s1, (t_go - m2) / s2))
    # ndarray.dot: the same BLAS product as @ on a 1-D vector, to the bit, at under half the call overhead
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        a = np.tanh(a.dot(W) + b)
    return float((a.dot(model.weights[-1]) + model.biases[-1])[0]) * model.output_scale + model.output_mean


def _forward_standardized(weights, biases, X):
    """Forward pass on already-standardized inputs, keeping activations."""
    acts = [X]
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ W + b)
        acts.append(a)
    out = a @ weights[-1] + biases[-1]
    return out, acts


def loss_and_gradients(model: CommandModel, X: np.ndarray, Y: np.ndarray):
    """Mean squared error and its analytic parameter gradients.

    X and Y are standardized inputs/targets (shape (n, 3) and (n, 1)).
    Returns (loss, grad_weights, grad_biases) with gradients matching the
    parameter layout of the model.
    """
    out, acts = _forward_standardized(model.weights, model.biases, X)
    n = X.shape[0]
    diff = out - Y
    loss = float(np.mean(diff ** 2))
    delta = 2.0 * diff / (n * Y.shape[1])
    g_w = [None] * len(model.weights)
    g_b = [None] * len(model.biases)
    g_w[-1] = acts[-1].T @ delta
    g_b[-1] = delta.sum(axis=0)
    for layer in range(len(model.weights) - 2, -1, -1):
        delta = (delta @ model.weights[layer + 1].T) * (1.0 - acts[layer + 1] ** 2)
        g_w[layer] = acts[layer].T @ delta
        g_b[layer] = delta.sum(axis=0)
    return loss, g_w, g_b


def train(dataset: np.ndarray, config: TrainConfig | None = None) -> tuple[CommandModel, TrainReport]:
    """Fit the command network to (r, sigma, t_go, u) rows.

    Stops when the epoch-average training MSE (standardized) drops below
    ``config.target_mse`` or when the epoch budget is exhausted.  The
    learning rate halves whenever the validation MSE fails to improve
    for ``lr_patience`` consecutive epochs.
    """
    if config is None:
        config = TrainConfig()
    data = np.asarray(dataset, dtype=float)
    if data.ndim != 2 or data.shape[1] != 4 or len(data) == 0:
        raise ValueError("dataset must be a non-empty (n, 4) array")
    if not np.isfinite(data).all():
        raise ValueError("dataset has non-finite values")
    rng = np.random.default_rng(config.seed)
    data = data[rng.permutation(len(data))]
    n_val = max(1, int(len(data) * config.validation_fraction))
    if n_val >= len(data):
        raise ValueError("dataset too small for the validation split")
    val, tr = data[:n_val], data[n_val:]

    in_mean = tr[:, :3].mean(axis=0)
    in_scale = tr[:, :3].std(axis=0)
    in_scale[in_scale == 0.0] = 1.0
    out_mean = float(tr[:, 3].mean())
    out_scale = float(tr[:, 3].std()) or 1.0

    model = init_model(seed=config.seed)
    model.input_mean = in_mean
    model.input_scale = in_scale
    model.output_mean = out_mean
    model.output_scale = out_scale
    model.t_bar = float(np.max(data[:, 2]))

    Xtr = (tr[:, :3] - in_mean) / in_scale
    Ytr = (tr[:, 3:4] - out_mean) / out_scale
    Xv = (val[:, :3] - in_mean) / in_scale
    Yv = (val[:, 3:4] - out_mean) / out_scale

    params = model.weights + model.biases  # the model's arrays, stepped in place
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    lr = config.learning_rate
    best_val = math.inf
    plateau = 0
    history = []

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(Xtr))
        total = 0.0
        batches = 0
        for s in range(0, len(Xtr), config.batch_size):
            idx = order[s : s + config.batch_size]
            loss, g_w, g_b = loss_and_gradients(model, Xtr[idx], Ytr[idx])
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            total += loss
            batches += 1
            step += 1
            c1 = 1.0 - beta1 ** step
            c2 = 1.0 - beta2 ** step
            for i, g in enumerate(g_w + g_b):
                m[i] = beta1 * m[i] + (1 - beta1) * g
                v[i] = beta2 * v[i] + (1 - beta2) * g ** 2
                params[i] -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)
        train_mse = total / batches
        val_mse = float(np.mean(((_forward_standardized(model.weights, model.biases, Xv)[0]) - Yv) ** 2))
        if not math.isfinite(val_mse):
            raise TrainingDivergedError(epoch)
        history.append((epoch, train_mse, val_mse))
        if val_mse < best_val * 0.997:
            best_val = val_mse
            plateau = 0
        else:
            best_val = min(best_val, val_mse)
            plateau += 1
            if plateau >= config.lr_patience:
                lr = max(lr * 0.5, config.lr_min)  # halved on a plateau
                plateau = 0
        if train_mse <= config.target_mse:
            break

    scale2 = model.output_scale ** 2
    report = TrainReport(
        epochs_run=epoch,
        final_train_mse=train_mse,
        final_val_mse=val_mse,
        best_val_mse=best_val,
        final_train_mse_raw=train_mse * scale2,
        final_val_mse_raw=val_mse * scale2,
        reached_target=train_mse <= config.target_mse,
        history=history,
    )
    return model, report


# --- serialization ---


def _fmt_array(a: np.ndarray) -> str:
    return " ".join("%.17g" % v for v in np.asarray(a, dtype=float).ravel())


def save_model(model: CommandModel, path) -> None:
    model.validate()
    lines = [
        f"{MODEL_FORMAT} v{MODEL_VERSION}",
        "layer_sizes: " + " ".join(str(s) for s in model.layer_sizes),
        "hidden_activation: tanh",  # the only activations the format knows
        "output_activation: identity",
        "t_bar: %.17g" % model.t_bar,
        "input_mean: " + _fmt_array(model.input_mean),
        "input_scale: " + _fmt_array(model.input_scale),
        "output_mean: %.17g" % model.output_mean,
        "output_scale: %.17g" % model.output_scale,
    ]
    for k, (W, b) in enumerate(zip(model.weights, model.biases), start=1):
        lines.append(f"W{k}: " + _fmt_array(W))
        lines.append(f"b{k}: " + _fmt_array(b))
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def _parse_field(fields: dict, key: str) -> str:
    if key not in fields:
        raise ValueError(f"corrupt model file: missing field {key!r}")
    return fields[key]


def load_model(path) -> CommandModel:
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        parts = header.split()
        if len(parts) != 2 or parts[0] != MODEL_FORMAT:
            raise ValueError("corrupt model file: bad header")
        if parts[1] != f"v{MODEL_VERSION}":
            raise ValueError(f"unsupported model version {parts[1]!r}")
        fields = {}
        for line in f:
            line = line.strip()
            if not line:
                continue
            if ":" not in line:
                raise ValueError(f"corrupt model file: malformed line {line[:40]!r}")
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
    sizes = tuple(int(v) for v in _parse_field(fields, "layer_sizes").split())
    if len(sizes) < 2:
        raise ValueError("corrupt model file: bad layer_sizes")
    weights, biases = [], []
    for k in range(1, len(sizes)):
        w_vals = np.array([float(v) for v in _parse_field(fields, f"W{k}").split()])
        b_vals = np.array([float(v) for v in _parse_field(fields, f"b{k}").split()])
        if w_vals.size != sizes[k - 1] * sizes[k]:
            raise ValueError(f"layer {k}: weight count {w_vals.size} does not match {sizes[k-1]}x{sizes[k]}")
        if b_vals.size != sizes[k]:
            raise ValueError(f"layer {k}: bias count {b_vals.size} does not match {sizes[k]}")
        weights.append(w_vals.reshape(sizes[k - 1], sizes[k]))
        biases.append(b_vals)
    model = CommandModel(
        layer_sizes=sizes,
        weights=weights,
        biases=biases,
        input_mean=np.array([float(v) for v in _parse_field(fields, "input_mean").split()]),
        input_scale=np.array([float(v) for v in _parse_field(fields, "input_scale").split()]),
        output_mean=float(_parse_field(fields, "output_mean")),
        output_scale=float(_parse_field(fields, "output_scale")),
        t_bar=float(_parse_field(fields, "t_bar")),
    )
    if _parse_field(fields, "hidden_activation") != "tanh" or _parse_field(fields, "output_activation") != "identity":
        raise ValueError("corrupt model file: unsupported activation")
    model.validate()
    return model
