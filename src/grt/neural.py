"""Constraint encoding and a from-scratch multi-label MLP criticality model.

An input-output example is encoded as 40 character codes (20 per side, zero
padded). Each code indexes a learned 128x100 embedding table; the 40 embedded
vectors are mean-pooled into one 100-dimensional vector that feeds three
sigmoid hidden layers and a sigmoid output layer, one unit per grammar
terminal. Training is mini-batch Adam on mean binary cross-entropy with
inverted dropout after each hidden layer.

Evaluation (``forward``, ``predict_bits`` and ``pruner.vote``) runs on an
inference form of the model (``_Inference``), built from its arrays by the
first evaluation and kept in ``ModelWeights.inference``. With
sigma(z) = (1 + tanh(z/2))/2, a layer reading u = tanh(z/2) of the one before
has z/2 = u @ (W/4) + colsum(W)/4 + b/2, so every layer after the first is one
step ``s <- tanh(s) @ A`` with A worked out in advance: the bias is A's last
row, read by a unit of the layer before whose half-logit is fixed at 30, where
tanh is exactly 1.0. The embedding, the 1/40 of the mean and the first layer's
weights and bias fold into one table, a row per code: every example holds
exactly 40 codes, so the sum of its codes' rows is its first half-logit. A
terminal gets a vote where its probability reaches 0.5, that is where its
output half-logit reaches 0. The weight shapes are checked once, when the
form is built. Building it makes the model's arrays read-only, so an in-place
edit raises instead of leaving the form stale; a model whose arrays are
replaced gets a new form. Training keeps the plain sigmoid layers that
backpropagation reads.

Everything is deterministic per seed and implemented directly on numpy.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import IoConstraint

EMBED_VOCAB = 128
EMBED_DIM = 100
SIDE_WIDTH = 20
NUM_HIDDEN = 3
# Adam's moment decay rates and denominator offset
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8
VAR_SEPARATOR = "\x1f"  # joins multi-variable inputs before encoding

WEIGHTS_SCHEMA = "grt.weights"
WEIGHTS_VERSION = 1


class ShapeMismatch(ValueError):
    pass


class NonFiniteLoss(RuntimeError):
    pass


class DegenerateShape(ValueError):
    pass


class WeightsFormatError(ValueError):
    pass


# --- Encoding -----------------------------------------------------------------


# Byte value -> code: bytes past the 7-bit range collapse onto the last embedding row.
_BYTE_CODES = bytes(min(b, EMBED_VOCAB - 1) for b in range(256))


def _codes(constraints: Sequence[IoConstraint]) -> np.ndarray:
    """``encode_batch`` as uint8, which indexes the embedding as well."""
    buf = b"".join(
        side.encode("utf-8")[:SIDE_WIDTH].ljust(SIDE_WIDTH, b"\0")
        for c in constraints
        for side in (VAR_SEPARATOR.join(c.inputs), c.output)
    )
    return np.ndarray((len(constraints), 2 * SIDE_WIDTH), np.uint8, buf.translate(_BYTE_CODES))


def encode_batch(constraints: Sequence[IoConstraint]) -> np.ndarray:
    """Fixed-width integer codes, one row per constraint: input side then output side.

    Each side is its UTF-8 bytes, truncated to SIDE_WIDTH and zero padded;
    bytes past the 7-bit range collapse onto the last embedding row so codes
    always index it.
    """
    return _codes(constraints).astype(np.int64)


def encode(constraint: IoConstraint) -> np.ndarray:
    """The codes of one constraint, as ``encode_batch`` gives them."""
    return encode_batch([constraint])[0]


# --- Layer sizing ---------------------------------------------------------------


def hidden_layer_sizes(input_size: int, output_size: int, num_hidden: int = NUM_HIDDEN) -> list[int]:
    """Geometrically interpolated hidden sizes between input and output width.

    The interpolation exponent for the n-th hidden layer is n over the total
    layer count plus one, and each size is rounded half-up (minimum 1).
    """
    if input_size < 1 or output_size < 1:
        raise DegenerateShape("layer sizes must be positive")
    total_layers = num_hidden + 2
    ratio = output_size / input_size
    sizes = []
    for n in range(1, num_hidden + 1):
        exact = input_size * ratio ** (n / (total_layers + 1))  # between the two widths, so at least 1
        sizes.append(math.floor(exact + 0.5))
    return sizes


# --- Model ------------------------------------------------------------------------


@dataclass
class ModelWeights:
    embedding: np.ndarray
    hidden: list[tuple[np.ndarray, np.ndarray]]
    output: tuple[np.ndarray, np.ndarray]
    layer_dims: tuple[int, ...]
    terminal_names: tuple[str, ...]
    epoch_losses: list[float] | None = None  # set by train(); not serialized
    # built by the first evaluation (``_inference``); not serialized
    inference: "_Inference | None" = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 15
    batch_size: int = 200
    # 1e-3 leaves the embedding path unlearned within 15 epochs at this data
    # scale: predictions collapse to per-bit base rates. 3e-3 reaches
    # input-dependent predictions in the same budget.
    learning_rate: float = 3e-3
    dropout_rate: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.learning_rate <= 0:
            raise ValueError("epochs, batch_size, learning_rate must be positive")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must be in [0, 1)")


def init_weights(terminal_names: Sequence[str], seed: int = 0) -> ModelWeights:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)); zero biases."""
    n_out = len(terminal_names)
    if n_out < 1:
        raise DegenerateShape("need at least one terminal")
    dims = [EMBED_DIM, *hidden_layer_sizes(EMBED_DIM, n_out), n_out]
    rng = np.random.default_rng([seed, 0])

    def glorot(fan_in, fan_out, shape):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, shape)

    embedding = glorot(EMBED_VOCAB, EMBED_DIM, (EMBED_VOCAB, EMBED_DIM))
    hidden = [
        (glorot(dims[i], dims[i + 1], (dims[i], dims[i + 1])), np.zeros(dims[i + 1]))
        for i in range(NUM_HIDDEN)
    ]
    output = (
        glorot(dims[-2], dims[-1], (dims[-2], dims[-1])),
        np.zeros(dims[-1]),
    )
    return ModelWeights(embedding, hidden, output, tuple(dims), tuple(terminal_names))


def _params(weights: ModelWeights):
    yield "embedding", weights.embedding
    for i, (W, b) in enumerate(weights.hidden):
        yield f"hidden.{i}.W", W
        yield f"hidden.{i}.b", b
    yield "output.W", weights.output[0]
    yield "output.b", weights.output[1]


def _sigmoid(z: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _check_codes(codes: np.ndarray) -> None:
    if codes.ndim != 2 or codes.shape[1] != 2 * SIDE_WIDTH:
        raise ShapeMismatch(f"codes must be (batch, {2 * SIDE_WIDTH}), got {codes.shape}")
    if codes.size and not 0 <= codes.min() <= codes.max() < EMBED_VOCAB:
        raise ShapeMismatch(f"codes must lie in [0, {EMBED_VOCAB})")


def _check_weights(weights: ModelWeights) -> None:
    if weights.embedding.shape != (EMBED_VOCAB, EMBED_DIM):
        raise ShapeMismatch(f"embedding must be {(EMBED_VOCAB, EMBED_DIM)}")
    dims = weights.layer_dims
    if dims[0] != EMBED_DIM:
        raise ShapeMismatch(f"first layer width must be {EMBED_DIM}")
    mats = [W.shape for W, _ in weights.hidden] + [weights.output[0].shape]
    expected = [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]
    if mats != expected:
        raise ShapeMismatch(f"layer shapes {mats} do not chain as {expected}")


def _sources(weights: ModelWeights) -> tuple:
    """What an inference form is derived from, compared by identity."""
    return (weights.embedding, weights.output, weights.layer_dims, *weights.hidden)


# A unit whose half-logit is this has a tanh of exactly 1.0 in float64, so the
# next layer's bias rides in its weights as one more row.
_ONE_UNIT = 30.0


def _one_unit(A: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) with one more output unit, fixed at half-logit _ONE_UNIT."""
    return np.hstack([A, np.zeros((len(A), 1))]), np.append(c, _ONE_UNIT)


class _Inference:
    """The model in tanh form, for evaluation (see the module docstring).

    The first layer's half-logits are sums of rows of ``table``. Every later
    layer is one matrix in ``layers``, its bias in the last row, read by the
    constant unit that each layer but the output one carries.
    """

    def __init__(self, weights: ModelWeights):
        _check_weights(weights)
        self.sources = _sources(weights)
        for _, arr in _params(weights):
            arr.flags.writeable = False
        (W, b), *rest = [*weights.hidden, weights.output]
        # sigma(z) = (1 + tanh(z/2))/2: a layer reading u = tanh(z/2) of the
        # one before has z/2 = u @ (W/4) + colsum(W)/4 + b/2
        steps = [(W / 2, b / 2)] + [(W / 4, W.sum(axis=0) / 4 + b / 2) for W, b in rest]
        steps[:-1] = [_one_unit(A, c) for A, c in steps[:-1]]
        A1, c1 = steps[0]
        # an example's first half-logits are the sum of its 2 * SIDE_WIDTH
        # codes' rows: the 1/width and c1 split evenly over them
        self.table = (weights.embedding @ A1 + c1) / (2 * SIDE_WIDTH)
        self.layers = [np.vstack([A, c]) for A, c in steps[1:]]

    def half_logits(self, codes: np.ndarray) -> np.ndarray:
        """Half the output layer's logits, one row per row of codes."""
        s = self.table.take(codes, axis=0).sum(axis=1)
        for A in self.layers:
            s = np.tanh(s) @ A
        return s


def _inference(weights: ModelWeights) -> _Inference:
    """The model's inference form, built on first use and again if its arrays were replaced."""
    form = weights.inference
    sources = _sources(weights)
    if form is None or len(sources) != len(form.sources) or not all(map(operator.is_, sources, form.sources)):
        form = weights.inference = _Inference(weights)
    return form


def _pool(weights: ModelWeights, codes: np.ndarray) -> np.ndarray:
    # the mean of a row's embedded codes: its code counts times the table, over the width
    batch, width = codes.shape
    rows = codes + EMBED_VOCAB * np.arange(batch)[:, None]
    counts = np.bincount(rows.ravel(), minlength=batch * EMBED_VOCAB)
    return counts.reshape(batch, EMBED_VOCAB) @ weights.embedding / width


def _forward_all(weights, codes, dropout_rate=0.0, rng=None):
    """Forward pass keeping everything backprop needs."""
    hs = [_pool(weights, codes)]  # layer inputs (post-dropout)
    pre = []  # sigmoid outputs before dropout
    masks = []
    for W, b in weights.hidden:
        a = _sigmoid(hs[-1] @ W + b)
        pre.append(a)
        if dropout_rate > 0.0 and rng is not None:
            mask = (rng.random(a.shape) >= dropout_rate) / (1.0 - dropout_rate)
            masks.append(mask)
            hs.append(a * mask)
        else:
            masks.append(None)
            hs.append(a)
    Wo, bo = weights.output
    logits = hs[-1] @ Wo + bo
    return hs, pre, masks, logits, _sigmoid(logits)


def forward(weights: ModelWeights, codes: np.ndarray) -> np.ndarray:
    """Per-terminal criticality probabilities, in (0, 1), without dropout.

    Runs on the inference form; training's dropout passes are ``_forward_all``.
    """
    codes = np.asarray(codes)
    single = codes.ndim == 1
    batch = codes[None, :] if single else codes
    _check_codes(batch)
    probs = 0.5 * (1.0 + np.tanh(_inference(weights).half_logits(batch)))
    return probs[0] if single else probs


def bce_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean binary cross-entropy, computed stably from logits."""
    per_elem = np.maximum(logits, 0.0) - logits * labels + np.log1p(np.exp(-np.abs(logits)))
    return float(per_elem.mean())


def loss_and_grads(
    weights: ModelWeights,
    codes: np.ndarray,
    labels: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
):
    """Mean BCE loss and its analytic gradients for every parameter."""
    codes = np.asarray(codes)
    labels = np.asarray(labels, dtype=np.float64)
    _check_codes(codes)
    _check_weights(weights)
    if labels.shape != (codes.shape[0], weights.layer_dims[-1]):
        raise ShapeMismatch(f"labels must be {(codes.shape[0], weights.layer_dims[-1])}")
    hs, pre, masks, logits, probs = _forward_all(weights, codes, dropout_rate, rng)
    loss = bce_loss(logits, labels)

    grads: dict[str, np.ndarray] = {}
    dlogits = (probs - labels) / labels.size
    Wo, _ = weights.output
    grads["output.W"] = hs[-1].T @ dlogits
    grads["output.b"] = dlogits.sum(axis=0)
    dh = dlogits @ Wo.T
    for l in reversed(range(len(weights.hidden))):
        W, _ = weights.hidden[l]
        da = dh * masks[l] if masks[l] is not None else dh
        dz = da * pre[l] * (1.0 - pre[l])
        grads[f"hidden.{l}.W"] = hs[l].T @ dz
        grads[f"hidden.{l}.b"] = dz.sum(axis=0)
        dh = dz @ W.T

    demb = np.zeros_like(weights.embedding)
    n_pos = 2 * SIDE_WIDTH
    np.add.at(demb, codes.reshape(-1), np.repeat(dh / n_pos, n_pos, axis=0))
    grads["embedding"] = demb
    return loss, grads


def train(dataset, config: TrainConfig, terminal_names: Sequence[str]) -> ModelWeights:
    """Mini-batch Adam on mean BCE; returns the weights after the last epoch.

    The dataset is put into a canonical order before the seeded shuffle, so
    permuting the input list changes nothing. Per-epoch mean losses end up in
    ``weights.epoch_losses``.
    """
    if not dataset:
        raise ValueError("empty training dataset")
    order = sorted(
        range(len(dataset)),
        key=lambda i: (
            dataset[i].program_id,
            dataset[i].constraint.inputs,
            dataset[i].constraint.output,
        ),
    )
    codes = encode_batch([dataset[i].constraint for i in order])
    labels = np.array([dataset[i].label for i in order], dtype=np.float64)
    if labels.shape[1] != len(terminal_names):
        raise ShapeMismatch(
            f"labels have {labels.shape[1]} bits for {len(terminal_names)} terminals"
        )

    weights = init_weights(terminal_names, seed=config.seed)
    shuffle_rng = np.random.default_rng([config.seed, 1])
    dropout_rng = np.random.default_rng([config.seed, 2])

    m = {name: np.zeros_like(p) for name, p in _params(weights)}
    v = {name: np.zeros_like(p) for name, p in _params(weights)}
    step = 0
    n = len(order)
    epoch_losses = []
    for _ in range(config.epochs):
        perm = shuffle_rng.permutation(n)
        total, seen = 0.0, 0
        for lo in range(0, n, config.batch_size):
            idx = perm[lo : lo + config.batch_size]
            loss, grads = loss_and_grads(
                weights, codes[idx], labels[idx], config.dropout_rate, dropout_rng
            )
            if not math.isfinite(loss):
                raise NonFiniteLoss(f"loss became {loss} at step {step}")
            step += 1
            bc1 = 1.0 - BETA1 ** step
            bc2 = 1.0 - BETA2 ** step
            for name, p in _params(weights):
                g = grads[name]
                m[name] = BETA1 * m[name] + (1.0 - BETA1) * g
                v[name] = BETA2 * v[name] + (1.0 - BETA2) * g * g
                p -= config.learning_rate * (m[name] / bc1) / (np.sqrt(v[name] / bc2) + ADAM_EPS)
            total += loss * len(idx)
            seen += len(idx)
        epoch_losses.append(total / seen)
    weights.epoch_losses = epoch_losses
    return weights


def hits(weights: ModelWeights, constraints: Sequence[IoConstraint]) -> np.ndarray:
    """Per constraint and terminal, whether the probability reaches 0.5.

    p >= 0.5 exactly where the half-logit reaches 0.
    """
    if not constraints:
        raise ValueError("no constraints")
    return _inference(weights).half_logits(_codes(constraints)) >= 0.0


def predict_bits(weights: ModelWeights, constraint: IoConstraint) -> np.ndarray:
    """Binary criticality vector: 1 where the probability reaches 0.5."""
    return hits(weights, [constraint])[0].astype(np.int64)


# --- Weights file ------------------------------------------------------------------


def terminal_order_hash(terminal_names: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(terminal_names).encode("utf-8")).hexdigest()


def save_weights(path, weights: ModelWeights) -> None:
    """Versioned JSON header line, then float64 little-endian arrays in order."""
    header = {
        "schema": WEIGHTS_SCHEMA,
        "version": WEIGHTS_VERSION,
        "n_terminals": len(weights.terminal_names),
        "terminal_hash": terminal_order_hash(weights.terminal_names),
        "layer_dims": list(weights.layer_dims),
        "pooling": "mean",  # the one pooling; kept so the format stays version 1
        "embedding_shape": [EMBED_VOCAB, EMBED_DIM],
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header, separators=(",", ":")) + "\n").encode("utf-8"))
        for _, arr in _params(weights):
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_weights(path, terminal_names: Sequence[str]) -> ModelWeights:
    """Load weights, refusing any file whose terminal ordering hash mismatches."""
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    try:
        header = json.loads(header_line)
    except json.JSONDecodeError as exc:
        raise WeightsFormatError(f"{path}: bad header: {exc}") from exc
    if not isinstance(header, dict) or (header.get("schema"), header.get("version")) != (WEIGHTS_SCHEMA, WEIGHTS_VERSION):
        raise WeightsFormatError(f"{path}: unsupported schema/version")
    if header.get("terminal_hash") != terminal_order_hash(terminal_names):
        raise WeightsFormatError(
            f"{path}: terminal ordering hash does not match the grammar"
        )
    if header.get("n_terminals") != len(terminal_names):
        raise WeightsFormatError(f"{path}: terminal count mismatch")
    if header.get("pooling", "mean") != "mean":
        raise WeightsFormatError(f"{path}: unsupported pooling {header['pooling']!r}")
    dims = tuple(header["layer_dims"])
    if dims[0] != EMBED_DIM or dims[-1] != len(terminal_names):
        raise WeightsFormatError(f"{path}: inconsistent layer dims {dims}")

    shapes = [("embedding", (EMBED_VOCAB, EMBED_DIM))]
    for i in range(len(dims) - 2):
        shapes.append((f"hidden.{i}.W", (dims[i], dims[i + 1])))
        shapes.append((f"hidden.{i}.b", (dims[i + 1],)))
    shapes.append(("output.W", (dims[-2], dims[-1])))
    shapes.append(("output.b", (dims[-1],)))

    expected = sum(int(np.prod(s)) for _, s in shapes) * 8
    if len(blob) != expected:
        raise WeightsFormatError(f"{path}: expected {expected} payload bytes, got {len(blob)}")
    arrays = {}
    offset = 0
    for name, shape in shapes:
        count = int(np.prod(shape))
        arrays[name] = (
            np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += count * 8
    n_hidden = len(dims) - 2
    return ModelWeights(
        embedding=arrays["embedding"],
        hidden=[(arrays[f"hidden.{i}.W"], arrays[f"hidden.{i}.b"]) for i in range(n_hidden)],
        output=(arrays["output.W"], arrays["output.b"]),
        layer_dims=dims,
        terminal_names=tuple(terminal_names),
    )
