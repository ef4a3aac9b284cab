"""Small feedforward network mapping (r, sigma, t_go) to the turn command.

Architecture is fixed at 3-30-30-30-1 with tanh hidden layers and a
linear output.  Inputs and the output are standardized to zero mean and
unit variance using statistics of the training set; the constants are
part of the model so inference is self-contained.  Training is
mini-batch gradient descent with adaptive moment estimates on the mean
squared error of the standardized output, fully deterministic for a
given seed.

``train`` keeps every parameter in one flat float64 vector, laid out
W1..WL then b1..bL; a trained model's ``weights`` and ``biases`` are
reshaped views of it, and the moment estimates are flat vectors stepped
in place.  ``loss_and_gradients`` runs on a ``Workspace`` of preallocated
buffers that ``train`` allocates once; the gradients it returns are views
of the workspace's flat gradient vector, valid until the next call on
that workspace.

``bind`` reads a model once and returns an evaluator of one (r, sigma,
t_go) triple on 1-D vectors, the per-step guidance command; ``forward``
binds and evaluates once (a tuple, list or 1-D array).  Both equal
``forward_batch`` on that one row to the bit.  Over many rows a matrix
product may round apart from row-by-row products in the last bit.

Models serialize to a versioned UTF-8 text format (one key per line,
arrays row-major with 17-significant-digit decimals), so a save/load
round trip reproduces forward outputs bit for bit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .datagen import format_17g

__all__ = [
    "LAYER_SIZES",
    "CommandModel",
    "TrainConfig",
    "TrainReport",
    "TrainingDivergedError",
    "Workspace",
    "init_model",
    "bind",
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
    """Training settings.

    A model's bits do not depend on the BLAS thread count at any
    ``batch_size``: the weight gradients sum over blocks of at most
    1,024 rows (``GRADIENT_BLOCK``), which OpenBLAS does not split across
    its threads.  A batch of 1,024 rows or fewer is one block.
    """

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
    epoch_seconds: list = field(default_factory=list)  # wall time of each epoch, validation included


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
    out = _forward_standardized(model.weights, model.biases, (x - model.input_mean) / model.input_scale)
    return out[:, 0] * model.output_scale + model.output_mean


def bind(model: CommandModel):
    """The network bound once: ``f(r, sigma, t_go) -> float``, ``forward`` on three floats.

    Binding reads the standardization constants and the layers once; every
    call overwrites one preallocated input vector, one vector per hidden
    layer and one output, so an evaluator serves one caller at a time.
    Each call writes every buffer before it reads it, so a call that raises
    leaves nothing for the next.  It equals ``forward_batch`` on one row to the bit.
    """
    (m0, m1, m2), (s0, s1, s2) = model.input_mean.tolist(), model.input_scale.tolist()
    hidden = [(W, b, np.empty(b.shape)) for W, b in zip(model.weights[:-1], model.biases[:-1])]
    w_out, (b0,) = model.weights[-1], model.biases[-1].tolist()
    out_scale, out_mean = model.output_scale, model.output_mean
    isfinite, add, tanh = math.isfinite, np.add, np.tanh
    x, o = np.empty(3), np.empty(1)

    def evaluate(r, sigma, t_go):
        if not (isfinite(r) and isfinite(sigma) and isfinite(t_go)):
            raise ValueError("non-finite network input")
        x[0], x[1], x[2] = (r - m0) / s0, (sigma - m1) / s1, (t_go - m2) / s2
        a = x
        # ndarray.dot: the same BLAS product as @ on a 1-D vector, to the bit, at under half the call overhead
        # out passed positionally, which skips the keyword parsing
        for W, b, z in hidden:
            a.dot(W, z)
            add(z, b, z)
            a = tanh(z, z)
        # the bias added as a float: one rounding, as in forward_batch's sum
        a.dot(w_out, o)
        return (o.item() + b0) * out_scale + out_mean

    return evaluate


def forward(model: CommandModel, inputs) -> float:
    """Evaluate the network once on a single (r, sigma, t_go) triple: ``bind(model)(r, sigma, t_go)``."""
    r, sigma, t_go = inputs
    return bind(model)(r, sigma, t_go)


def _forward_standardized(weights, biases, X):
    """Forward pass on already-standardized inputs; returns the (n, 1) output."""
    a = X
    for W, b in zip(weights[:-1], biases[:-1]):
        a = np.tanh(a @ W + b)
    return a @ weights[-1] + biases[-1]


def _param_views(flat: np.ndarray, layer_sizes: tuple) -> tuple[list, list]:
    """Per-layer weight (n_in, n_out) and bias (n_out,) views of a flat W1..WL, b1..bL vector."""
    weights, biases, at = [], [], 0
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[at : at + n_in * n_out].reshape(n_in, n_out))
        at += n_in * n_out
    for n_out in layer_sizes[1:]:
        biases.append(flat[at : at + n_out])
        at += n_out
    return weights, biases


class Workspace:
    """Buffers for ``loss_and_gradients`` on batches of up to ``rows`` rows.

    ``grad`` is the flat gradient vector in the parameter layout of
    ``train``; ``g_w`` and ``g_b`` are its per-layer views.
    """

    def __init__(self, layer_sizes: tuple, rows: int):
        sizes = tuple(layer_sizes)
        if sizes[-1] != 1:
            raise ValueError("the network has one output")
        self.acts = [np.empty((rows, k)) for k in sizes[1:]]    # every layer's output
        self.deltas = [np.empty((rows, k)) for k in sizes[1:-1]]
        self.sq = np.empty((rows, 1))
        self.grad = np.empty(sum((n_in + 1) * n_out for n_in, n_out in zip(sizes[:-1], sizes[1:])))
        self.g_w, self.g_b = _param_views(self.grad, sizes)
        # contiguous copies of the hidden-to-hidden W^T, for the back products
        self.wt = [np.empty((n_out, n_in)) for n_in, n_out in zip(sizes[1:-2], sizes[2:-1])]


# A weight gradient sums over the batch's rows.  OpenBLAS splits a product that
# long across its threads, and the split sets its bits; a product of at most
# GRADIENT_BLOCK rows comes out alike under 1 and 2 threads, so a longer batch
# sums such blocks in order.
GRADIENT_BLOCK = 1024


def _weight_gradient(a, delta, out):
    """a.T @ delta into out, summed over blocks of at most GRADIENT_BLOCK rows."""
    np.matmul(a[:GRADIENT_BLOCK].T, delta[:GRADIENT_BLOCK], out=out)
    for s in range(GRADIENT_BLOCK, len(a), GRADIENT_BLOCK):
        out += a[s : s + GRADIENT_BLOCK].T @ delta[s : s + GRADIENT_BLOCK]


def loss_and_gradients(model: CommandModel, X: np.ndarray, Y: np.ndarray, workspace: Workspace | None = None):
    """Mean squared error and its analytic parameter gradients.

    X and Y are standardized inputs/targets (shape (n, 3) and (n, 1)).
    Returns (loss, grad_weights, grad_biases) with gradients matching the
    parameter layout of the model.  Without a workspace the call
    allocates its own; with one, the gradients are views of
    ``workspace.grad``, overwritten by the next call.
    """
    n = len(X)
    ws = Workspace(model.layer_sizes, n) if workspace is None else workspace
    weights, biases = model.weights, model.biases
    acts = [X] + [a[:n] for a in ws.acts]
    for k, (W, b) in enumerate(zip(weights, biases)):
        z = np.matmul(acts[k], W, out=acts[k + 1])
        z += b
        if k < len(weights) - 1:
            np.tanh(z, out=z)
    diff = acts[-1]
    diff -= Y
    loss = float(np.mean(np.square(diff, out=ws.sq[:n])))
    delta = diff
    delta *= 2.0
    delta /= n * Y.shape[1]
    _weight_gradient(acts[-2], delta, ws.g_w[-1])
    np.sum(delta, axis=0, out=ws.g_b[-1])
    for layer in range(len(weights) - 2, -1, -1):
        back = ws.deltas[layer][:n]
        if layer == len(weights) - 2:
            # K = 1: one product per element, so the broadcast equals the matrix product exactly
            np.multiply(delta, weights[-1][:, 0], out=back)
        else:
            wt = weights[layer + 1].T
            if n > 1:
                # gemm packs W^T alike from either layout, so the contiguous copy gives the same
                # bits, faster; a one-row product is a gemv, whose summation order follows the layout
                np.copyto(ws.wt[layer], wt)
                wt = ws.wt[layer]
            np.matmul(delta, wt, out=back)
        a = acts[layer + 1]  # used for the last time above, so it becomes 1 - a^2 in place
        np.square(a, out=a)
        np.subtract(1.0, a, out=a)
        back *= a
        delta = back
        _weight_gradient(acts[layer], delta, ws.g_w[layer])
        np.sum(delta, axis=0, out=ws.g_b[layer])
    return loss, ws.g_w, ws.g_b


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
    params = np.concatenate([W.ravel() for W in model.weights] + model.biases)
    model.weights, model.biases = _param_views(params, model.layer_sizes)
    model.input_mean = in_mean
    model.input_scale = in_scale
    model.output_mean = out_mean
    model.output_scale = out_scale
    model.t_bar = float(np.max(data[:, 2]))

    # standardized in place: the permuted copy is the only copy of the rows
    data -= np.append(in_mean, out_mean)
    data /= np.append(in_scale, out_scale)

    batch_rows = min(config.batch_size, len(tr))
    ws = Workspace(model.layer_sizes, batch_rows)
    batch = np.empty((batch_rows, 4))
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    num, den = np.empty_like(params), np.empty_like(params)
    g = ws.grad
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    step = 0
    lr = config.learning_rate
    best_val = math.inf
    plateau = 0
    history = []
    epoch_seconds = []

    for epoch in range(1, config.max_epochs + 1):
        t0 = time.perf_counter()
        order = rng.permutation(len(tr))
        total = 0.0
        batches = 0
        for s in range(0, len(tr), config.batch_size):
            idx = order[s : s + config.batch_size]
            rows = np.take(tr, idx, axis=0, out=batch[: len(idx)])
            loss, _, _ = loss_and_gradients(model, rows[:, :3], rows[:, 3:], ws)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch)
            total += loss
            batches += 1
            step += 1
            c1 = 1.0 - beta1 ** step
            c2 = 1.0 - beta2 ** step
            # m = b1 m + (1-b1) g;  v = b2 v + (1-b2) g^2;  p -= lr (m/c1) / (sqrt(v/c2) + eps),
            # each product, sum and quotient rounded in the order written
            m *= beta1
            m += np.multiply(g, 1 - beta1, out=num)
            v *= beta2
            np.square(g, out=den)
            den *= 1 - beta2
            v += den
            np.divide(v, c2, out=den)
            np.sqrt(den, out=den)
            den += eps
            np.divide(m, c1, out=num)
            num *= lr
            num /= den
            params -= num
        train_mse = total / batches
        val_mse = float(np.mean((_forward_standardized(model.weights, model.biases, val[:, :3]) - val[:, 3:]) ** 2))
        if not math.isfinite(val_mse):
            raise TrainingDivergedError(epoch)
        history.append((epoch, train_mse, val_mse))
        epoch_seconds.append(time.perf_counter() - t0)
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
        epoch_seconds=epoch_seconds,
    )
    return model, report


# --- serialization ---


def _fmt_array(a) -> str:
    return format_17g(np.reshape(a, (1, -1)), " ")[:-1].decode("ascii")


def save_model(model: CommandModel, path) -> None:
    model.validate()
    lines = [
        f"{MODEL_FORMAT} v{MODEL_VERSION}",
        "layer_sizes: " + " ".join(str(s) for s in model.layer_sizes),
        "hidden_activation: tanh",  # the only activations the format knows
        "output_activation: identity",
        "t_bar: " + _fmt_array(model.t_bar),
        "input_mean: " + _fmt_array(model.input_mean),
        "input_scale: " + _fmt_array(model.input_scale),
        "output_mean: " + _fmt_array(model.output_mean),
        "output_scale: " + _fmt_array(model.output_scale),
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
